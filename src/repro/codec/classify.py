"""Cheap content classification for encoder selection.

The adaptive encoder needs to know, per RAW block, whether it is
looking at a solid fill, flat desktop chrome, or photographic content —
before paying for any actual encode.  Everything here is a handful of
whole-array numpy passes; blocks above a fixed pixel budget are
stride-sampled (deterministically) so classification stays O(budget)
even for full-screen updates.  Solidity is the one property checked
exactly on every pixel, because it gates a semantic rewrite (the block
is demoted to an SFILL command, not merely re-encoded).

Cost discipline: the classifier must stay an order of magnitude
cheaper than the encodes it arbitrates, or adaptivity eats its own
winnings.  The expensive statistic — palette size — is therefore
derived from the run structure instead of a full ``np.unique`` sort:
the distinct values of a sample are exactly the distinct run heads, so
when the run count is small (the only case where the palette can gate
anything) the unique pass runs over a few hundred run heads rather
than every sampled pixel.  Busy blocks report the run count itself as
a palette upper bound — by then the flat gate has already failed on
the run term, so the exact palette would never be consulted.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["ContentStats", "classify",
           "SAMPLE_BUDGET", "FLAT_UNIQUE_LIMIT", "FLAT_RLE_FRACTION",
           "UNIQUE_RUN_CAP"]

#: Most pixels the sampled statistics look at per block.
SAMPLE_BUDGET = 1 << 14

#: A block is *flat* when its sampled palette is at most this large...
FLAT_UNIQUE_LIMIT = 64

#: ...and its run structure compresses at least this much under RLE
#: (encoded size at most this fraction of the raw bytes).
FLAT_RLE_FRACTION = 1.0 / 16.0

#: Exact palette counting stops above this many runs; past it the run
#: count doubles as a (documented) palette upper bound.
UNIQUE_RUN_CAP = 1024


class ContentStats(NamedTuple):
    """What the classifier learned about one RGBA block."""

    solid_color: Optional[Tuple[int, int, int, int]]  # set iff 1 colour
    unique_colors: int      # sampled palette size (exact when the run
                            # count is <= UNIQUE_RUN_CAP, else the run
                            # count as an upper bound)
    run_ratio: float        # runs / pixels in the sample (1.0 = noise)

    @property
    def flat(self) -> bool:
        """Desktop-chrome-like: long runs first (the cheap test), then
        a tiny palette."""
        return (self.run_ratio * 6.0 <= FLAT_RLE_FRACTION * 4.0
                and self.unique_colors <= FLAT_UNIQUE_LIMIT)


def classify(pixels: np.ndarray) -> ContentStats:
    """Classify an HxWx4 uint8 block."""
    img = np.ascontiguousarray(pixels, dtype=np.uint8)
    view = img.reshape(-1, 4).view(np.uint32).ravel()
    n = len(view)
    if n == 0:
        return ContentStats((0, 0, 0, 0), 1, 0.0)
    if view[0] == view[-1] and bool((view == view[0]).all()):
        return ContentStats(tuple(int(c) for c in img.reshape(-1, 4)[0]),
                            1, 1.0 / n)
    sample = view if n <= SAMPLE_BUDGET else view[::-(-n // SAMPLE_BUDGET)]
    m = len(sample)
    changes = np.flatnonzero(sample[1:] != sample[:-1])
    runs = int(len(changes)) + 1
    # The exact palette only ever gates the flat decision, and the flat
    # gate's run term has already failed for busy blocks — so count run
    # heads only while flatness is still in play (with a hard cap for
    # degenerate geometry) and report the run count as a palette upper
    # bound otherwise.
    if runs * 6.0 <= FLAT_RLE_FRACTION * 4.0 * m and runs <= UNIQUE_RUN_CAP:
        heads = np.concatenate((sample[:1], sample[changes + 1]))
        unique = int(np.unique(heads).size)
    else:
        unique = runs
    return ContentStats(None, unique, runs / m)

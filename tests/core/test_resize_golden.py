"""Golden for the Fant resampler's output bytes.

``resize_golden.json`` pins the SHA-256 of ``resample`` output for a
few seeded blocks.  It was generated at PR 21, whose exact-integer
kernel rounds ties half-to-even where the float kernel before it landed
on either side (the one ``typing_dsl`` re-baseline, docs/PERF.md): from
here on a kernel change that moves even one tie pixel shows up as a
diff in that file instead of as a silent +-1.  A deliberate change
regenerates it (``PYTHONPATH=src python
tests/core/test_resize_golden.py``) and says so in its PR.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.resize import resample

GOLDEN = Path(__file__).with_name("resize_golden.json")

# name -> (source shape, dst_w, dst_h)
GOLDEN_CASES = {
    "strip_8x192_at_5_8": ((8, 192, 4), 120, 5),
    "image_192x192_at_5_8": ((192, 192, 4), 120, 120),
    "upscale_2_5x": ((24, 32, 4), 80, 60),
    "pda_1024x768_to_320x240": ((768, 1024, 4), 320, 240),
    "pfill_tile_16x16_to_5x5": ((16, 16, 4), 5, 5),
    "video_frame_rgb_352x240_to_110x74": ((240, 352, 3), 110, 74),
}


def _digest(name):
    shape, dst_w, dst_h = GOLDEN_CASES[name]
    img = np.random.default_rng(21).integers(0, 256, shape, dtype=np.uint8)
    return hashlib.sha256(resample(img, dst_w, dst_h).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden_digest(name):
    assert _digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _digest(name) for name in sorted(GOLDEN_CASES)}, indent=1)
        + "\n")
    print(f"wrote {GOLDEN}")

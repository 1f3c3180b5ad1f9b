"""Differential of the 5 000 mutated-stream outcomes across two commits.

``mutator_sha256`` in ``wire_golden.json`` says *that* decode outcomes
moved, not *how*.  When a PR regenerates it, this helper shows the
move is one-way: run it once against the parent's sources and once
against the change's, from the change's checkout::

    PYTHONPATH=<parent>/src python tests/protocol/mutator_differential.py \\
        dump /tmp/parent.json
    PYTHONPATH=src python tests/protocol/mutator_differential.py \\
        check /tmp/parent.json

``check`` exits nonzero unless every case whose outcome differs
(a) fails at the change with a ``ProtocolError`` subclass — nothing the
parent rejected parses now, and no parse changed its result — and
(b) fails in a frame of one of the type ids named on the command line
(default: the display commands 1-7 and CHECKED, 26).
"""

import json
import sys
from collections import Counter

from test_wire_golden import mutator_outcomes

from repro.protocol import wire

ERRORS = {cls.__name__ for cls in (
    wire.ProtocolError, wire.ChecksumError, wire.TruncatedPayloadError,
    wire.FrameTooLargeError, wire.FieldRangeError)}


def main(mode, path, *type_ids):
    rows = [(outcome, pending, len(case), case[len(case) - pending]
             if pending else None)
            for case, outcome, pending in mutator_outcomes()]
    if mode == "dump":
        with open(path, "w") as out:
            json.dump(rows, out)
        return 0
    allowed = set(map(int, type_ids)) or {1, 2, 3, 4, 5, 6, 7, 26}
    with open(path) as src:
        parent = [tuple(row) for row in json.load(src)]
    moved, bad = Counter(), []
    for index, (was, now) in enumerate(zip(parent, rows)):
        if was[:2] == now[:2]:
            continue
        outcome, pending, _, culprit = now
        # The change raised at a frame the parent parsed or failed
        # differently; a frame the parent failed *earlier* would mean
        # the change parses what the parent rejected.
        if outcome not in ERRORS or culprit not in allowed \
                or (was[0] in ERRORS and was[1] > pending):
            bad.append((index, was, now))
        moved[(was[0] if was[0] in ERRORS else "parsed", outcome,
               culprit)] += 1
    print(f"{sum(moved.values())} of {len(rows)} outcomes differ")
    for (was, now, culprit), count in sorted(moved.items()):
        print(f"  type {culprit}: {was} -> {now}: {count}")
    for index, was, now in bad:
        print(f"VIOLATION case {index}: {was} -> {now}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

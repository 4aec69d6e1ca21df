#!/usr/bin/env python3
"""Write a digest of every named operator's stored entries.

Usage: python scripts/operator_digest.py OUTPUT_FILE

Builds each named operator in all five regimes, unflipped and with every
half-power atom flipped, and writes a JSON object mapping regime -> flip
-> name to the SHA-256 of the operator's legs and of each entry's stored
numerator and denominator terms, in storage order.  ``Scalar`` has no
canonical form, so two recipes for the same map can store (and print)
an entry differently; this digest pins the stored form, not only the
value.  An operator a regime cannot build is recorded by its error's
class name.  ``tests/data/operators.json`` holds the committed digest;
compare a fresh file with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from qmink.coeff import ALL_REGIMES, MissingParameterError
from qmink.intertwiners import OperatorSource

NAMES = (
    "E", "E'", "X", "X^-1", "Xfull", "Xfull^-1", "X!pert", "X!pert^-1",
    "P", "P'", "Q", "Q'", "M", "M^-1", "K", "K^-1",
    "Rhat+", "Rhat-", "Rhat+^-1", "Rhat-^-1", "Rhat+!pert", "Rhat-!pert",
    "Pminus", "Pi9", "Pi1", "Ryb+", "Ryb-",
    "S:first", "S:second", "tauSbarInvTau:first", "tauSbarInvTau:second",
    "T:first", "T:second", "Tfull:first", "Tfull:second",
    "T':first", "T':second", "What",
)
FLIPS = {"none": (), "all": (0, 1, 2)}


def _poly(p) -> list:
    return [[list(m), str(c.re), str(c.im)] for m, c in p.terms.items()]


def digest(op) -> str:
    """SHA-256 of the legs and the stored num/den terms of every entry."""
    payload = [[leg.name for leg in op.in_sig], [leg.name for leg in op.out_sig],
               [[[j, _poly(v.num), _poly(v.den)] for j, v in row.items()]
                for row in op.rows]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def digests() -> dict:
    out = {}
    for regime in ALL_REGIMES:
        per_flip = out[regime.label] = {}
        for flip_label, atoms in FLIPS.items():
            src = OperatorSource(regime, atoms)
            entry = per_flip[flip_label] = {}
            for name in NAMES:
                try:
                    entry[name] = digest(src.get(name))
                except MissingParameterError as exc:
                    entry[name] = type(exc).__name__
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.is_dir() or not out.parent.is_dir():  # checked before the digests run
        print(f"error: cannot write {out}: not a file in an existing directory",
              file=sys.stderr)
        return 2
    out.write_text(json.dumps(digests(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

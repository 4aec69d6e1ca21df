#!/usr/bin/env python3
"""Write a digest of the float mirror's residuals, bit for bit.

Usage: python scripts/numeric_digest.py OUTPUT_FILE

Runs ``intertwiners.numeric_suite`` at two fixed sample points per regime
and writes a JSON object mapping regime -> the SHA-256 of one line per
point and check, ``point check_id float.hex(residual)``, in point order
and then check id order.  The residuals are rounding noise of order 1e-16,
so every bit of them depends on how each exact coefficient is turned into
a float (``GaussianRational.to_complex``, ``Scalar.eval``) and in which
order; ``qmink eval`` prints three significant digits and hides that.
The points are written as float literals, with no transcendental function
in between, and the unit-circle points are Pythagorean.  The digest also
depends on numpy's matrix product, so a numpy upgrade can change it; then
``tests/data/numeric_digest.json`` has to be written again.  Compare a
fresh file with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from qmink.coeff import ALL_REGIMES, RegimeKind
from qmink.intertwiners import numeric_suite

# (q, t, qbar) per regime kind; qbar None means conj(q)
POINTS = {
    RegimeKind.GENERIC: ((0.55 + 0.4j, 0.5, -0.3 + 0.9j),
                         (-0.7 + 1.1j, 2.0, 0.45 - 0.6j)),
    RegimeKind.UNIT_CIRCLE: ((0.6 + 0.8j, 0.5, None),
                             (-0.28 + 0.96j, 2.0, None)),
    RegimeKind.REAL_Q: ((0.75 + 0j, 0.5, None), (1.5 + 0j, 2.0, None)),
    RegimeKind.CASE2: ((0.75 + 0j, 0.5, None), (1.5 + 0j, 2.0, None)),
}


def digests() -> dict:
    out = {}
    for regime in ALL_REGIMES:
        lines = []
        for k, (q, t, qbar) in enumerate(POINTS[regime.kind]):
            res = numeric_suite(regime, q, t, qbar)
            lines.extend(f"{k} {cid} {float.hex(res[cid])}" for cid in sorted(res))
        out[regime.label] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(digests(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

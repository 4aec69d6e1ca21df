#!/usr/bin/env python3
"""Sweep the numeric mirror of the identity suites over the unit circle.

Evaluates every declarative identity at a grid of phases (avoiding the
excluded points +-i) and two t values, and prints the worst residual per
check.  A regression in the exact engine shows up here as a residual far
above machine precision.

Usage: python scripts/numeric_sweep.py [n_phases]
"""

import cmath
import math
import sys

from qmink.coeff import UNIT_CIRCLE
from qmink.intertwiners import numeric_suite


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    worst: dict[str, float] = {}
    samples = 0
    for k in range(1, n + 1):
        theta = cmath.pi * k / (n + 1)
        if abs(theta - cmath.pi / 2) < 0.05:
            continue
        q = cmath.exp(1j * theta)
        for t in (0.5, 2.0):
            samples += 1
            for cid, r in numeric_suite(UNIT_CIRCLE, q, t).items():
                prev = worst.get(cid, 0.0)
                # max() would drop a NaN; keep it so the sweep fails
                worst[cid] = r if r > prev or math.isnan(r) else prev
    width = max(len(c) for c in worst)
    for cid in sorted(worst):
        print(f"{cid:{width}s}  {worst[cid]:.3e}")
    overall = max(worst.values(), key=lambda r: math.inf if math.isnan(r) else r)
    print(f"{samples} samples, worst residual {overall:.3e}")
    return 0 if all(r < 1e-9 for r in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the numeric mirror of the identity suites over the unit circle.

Evaluates every declarative identity at a grid of phases (avoiding the
excluded points +-i) and two t values, and prints the worst residual per
check.  A regression in the exact engine shows up here as a residual far
above machine precision.

Usage: python scripts/numeric_sweep.py [n_phases]

n_phases (default 12) is an integer from 2 to MAX_PHASES: with 1 the only
phase is pi/2, which is excluded, and the bound keeps the sweep inside the
sample budget of ``qmink eval`` at two samples per phase.  Anything else
exits 2 with a usage message.
"""

import cmath
import math
import sys

from qmink.cli import MAX_SAMPLES
from qmink.coeff import UNIT_CIRCLE
from qmink.intertwiners import numeric_suite

T_VALUES = (0.5, 2.0)
MAX_PHASES = MAX_SAMPLES // len(T_VALUES)


def _phase_count(args: list[str]) -> int | None:
    """The number of phases the arguments ask for, None when unusable."""
    if not args:
        return 12
    if len(args) == 1:
        try:
            n = int(args[0])
        except ValueError:
            return None
        if 2 <= n <= MAX_PHASES:
            return n
    return None


def main() -> int:
    n = _phase_count(sys.argv[1:])
    if n is None:
        print(f"usage: numeric_sweep.py [n_phases]; n_phases is an integer "
              f"from 2 to {MAX_PHASES}", file=sys.stderr)
        return 2
    worst: dict[str, float] = {}
    samples = 0
    for k in range(1, n + 1):
        theta = cmath.pi * k / (n + 1)
        if abs(theta - cmath.pi / 2) < 0.05:
            continue
        q = cmath.exp(1j * theta)
        for t in T_VALUES:
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

#!/usr/bin/env python3
"""Run every suite in every regime and write one JSON report per regime.

Usage: python scripts/run_all.py [output_dir]
"""

import json
import sys
import time
from pathlib import Path

from qmink.cli import _report_json, run_suites
from qmink.coeff import ALL_REGIMES


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_dir = Path(argv[0]) if argv else Path("reports")
    try:  # before the suites run
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    grand_total = {"passed": 0, "failed": 0, "skipped": 0}
    t0 = time.perf_counter()
    for regime in ALL_REGIMES:
        reports = run_suites(regime, "all")
        payload = _report_json(regime, reports)
        safe = {"case2+": "case2-plus", "case2-": "case2-minus"}
        path = out_dir / f"{safe.get(regime.label, regime.label)}.json"
        path.write_text(json.dumps(payload, indent=2))
        s = payload["summary"]
        for k in grand_total:
            grand_total[k] += s[k]
        print(f"{regime.label:12s} {s['passed']:3d} passed "
              f"{s['failed']:2d} failed {s['skipped']:2d} skipped -> {path}")
    print(f"total: {grand_total['passed']} passed, {grand_total['failed']} failed, "
          f"{grand_total['skipped']} skipped in {time.perf_counter() - t0:.1f} s")
    return 0 if grand_total["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Write a digest of the printed normal forms of the nf-stream queries.

Usage: python scripts/nf_digest.py OUTPUT_FILE

Parses the first 2000 queries of ``perfbench/workloads.nf_queries`` with
seed 1 in their own regime, reduces each to normal form, and writes a
JSON object mapping regime -> the SHA-256 of the printed normal forms,
one per line in query order.  Generic normal forms print coefficients
whose form depends on the order of the exact operations, so this pins
the order of the arithmetic as well as its values; the 33-35 nf queries
per regime in the CLI transcripts are too few to do that on their own.
``perfbench/workloads.py`` is plain data and is only read here; a change
to it changes the queries, and then ``tests/data/nf_digest.json`` has to
be written again.  Compare a fresh file with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from qmink.cli import ParseContext, nf_system, parse_expr
from qmink.coeff import regime_from_label

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 1
QUERIES = 2000


def digests() -> dict:
    lines: dict[str, list[str]] = {label: [] for label in workloads.REGIMES}
    for q in workloads.nf_queries(SEED, QUERIES):
        regime = regime_from_label(q["regime"])
        alph, system = nf_system(regime)
        poly = parse_expr(workloads.query_text(q), ParseContext(alph, regime))
        lines[q["regime"]].append(str(system.normal_form(poly)))
    return {label: hashlib.sha256("\n".join(out).encode()).hexdigest()
            for label, out in lines.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(digests(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

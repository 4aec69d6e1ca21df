#!/usr/bin/env python3
"""Collect the benchmark records of two checkouts into one BENCH_*.json.

Usage: python scripts/bench_record.py PARENT_OUT CHANGE_OUT BENCH_FILE

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of two
checkouts after runs of ``perfbench/run.py``.  Only their records are
read.  For each workload and side the output lists the seeds, every run's
end-to-end metrics, and the median and quartiles of each metric.  For
each workload it also lists the pair wins: on the seeds run on both
sides, how often the change did better than the parent on each metric,
in the direction ``BENCHMARK.json`` gives.  Each run keeps the record's
``reference_ms`` (the median reference-kernel time, the host's speed) and
``unscaled_wall_s``, and each side the median of its ``reference_ms``;
when the two sides' medians differ by more than 0.5 %, a line says so, as
that alone moves every scaled time by about as much.  ``--trace 1`` records, when
there are any, add the traced per-layer metrics of each side by seed.
``sources`` gives, per side, the SHA-256 of the ``src/qmink/*.py`` files
of the checkout that holds that ``perfbench/out`` (null when the
directory is not a checkout's ``perfbench/out``); a warning line is
printed when both sides hash the same, as two runs of one source do.
Exits 2 when an argument cannot be read or no run was made on both sides.
"""

import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(out_dir: Path, trace: int) -> dict:
    """{workload: {seed: record}} from the ``*-trace<trace>.json`` files."""
    if not out_dir.is_dir():
        raise ValueError(f"{out_dir} is not a directory")
    found: dict = {}
    for path in sorted(out_dir.glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        prov = rec["provenance"]
        found.setdefault(prov["workload"], {})[prov["seed"]] = rec
    return found


def source_hash(out_dir: Path) -> str | None:
    """SHA-256 over the name and bytes of each ``src/qmink/*.py`` file, in
    name order, of the checkout whose ``perfbench/out`` is out_dir."""
    out_dir = out_dir.resolve()
    if out_dir.name != "out" or out_dir.parent.name != "perfbench":
        return None
    files = sorted((out_dir.parent.parent / "src" / "qmink").glob("*.py"))
    if not files:
        return None
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


HOST_SPEED_TOLERANCE = 0.005  # reference medians further apart are reported


def side(records: dict) -> dict:
    seeds = sorted(records)
    runs = []
    for s in seeds:
        rec = records[s]
        detail = rec.get("detail", {})
        runs.append({"seed": s, "commit": rec["provenance"]["git_commit"],
                     "attempted": rec["attempted"], "failed": rec["failed"],
                     "metrics": rec["metrics"],
                     "reference_ms": detail.get("reference_ms"),
                     "unscaled_wall_s": detail.get("unscaled_wall_s")})
    names = list(runs[0]["metrics"])
    refs = [r["reference_ms"] for r in runs if r["reference_ms"] is not None]
    return {"seeds": seeds, "runs": runs,
            "reference_ms_median": statistics.median(refs) if refs else None,
            "summary": {k: summary([r["metrics"][k] for r in runs]) for k in names}}


def host_speed_note(name: str, entry: dict) -> str | None:
    """A line when the sides' median reference times differ by more than
    ``HOST_SPEED_TOLERANCE``, else None."""
    p, c = entry["parent"]["reference_ms_median"], entry["change"]["reference_ms_median"]
    if p is None or c is None or abs(c - p) <= HOST_SPEED_TOLERANCE * p:
        return None
    return (f"{name:12s} reference_ms   {p:.6g} -> {c:.6g}  {(c - p) / p:+.1%}: the "
            "hosts ran at different speeds, which alone moves every scaled time")


def pair_wins(parent: dict, change: dict, better: dict) -> dict:
    """Per metric: pairs the change won, and the median gap against the
    parent's interquartile range, over the seeds both sides ran."""
    seeds = sorted(parent.keys() & change.keys())
    out = {}
    for name, direction in (better.items() if seeds else ()):
        p = [parent[s]["metrics"][name] for s in seeds]
        c = [change[s]["metrics"][name] for s in seeds]
        sign = 1 if direction == "lower" else -1
        ps, cs = summary(p), summary(c)
        out[name] = {"better": direction, "pairs": len(seeds),
                     "change_wins": sum(1 for a, b in zip(p, c) if sign * (a - b) > 0),
                     "parent_median": ps["median"], "change_median": cs["median"],
                     "median_gap": sign * (ps["median"] - cs["median"]),
                     "parent_iqr": ps["q3"] - ps["q1"]}
    return {"seeds": seeds, "metrics": out}


def build(parent_out: Path, change_out: Path, benchmark: dict) -> dict:
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    parent, change = load_records(parent_out, 0), load_records(change_out, 0)
    workloads = {}
    for name in sorted(parent.keys() & change.keys()):
        entry = {"parent": side(parent[name]), "change": side(change[name]),
                 "pairs": pair_wins(parent[name], change[name], better)}
        traced = {label: {seed: rec["metrics"]
                          for seed, rec in sorted(load_records(d, 1).get(name, {}).items())}
                  for label, d in (("parent", parent_out), ("change", change_out))}
        if any(traced.values()):
            entry["per_layer"] = traced
        workloads[name] = entry
    if not any(w["pairs"]["seeds"] for w in workloads.values()):
        raise ValueError(f"no seed of a workload was run in both {parent_out} and {change_out}")
    return {"sources": {"parent": source_hash(parent_out), "change": source_hash(change_out)},
            "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_out, change_out, bench_file = map(Path, argv)
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = build(parent_out, change_out, benchmark)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench_file.write_text(json.dumps(out, indent=1) + "\n")
    sources = out["sources"]
    if sources["parent"] is not None and sources["parent"] == sources["change"]:
        print(f"warning: both sides measured the same source, sha256 {sources['parent']}",
              file=sys.stderr)
    for name, entry in out["workloads"].items():
        for metric, row in entry["pairs"]["metrics"].items():
            print(f"{name:12s} {metric:14s} {row['parent_median']:.6g} -> "
                  f"{row['change_median']:.6g}  wins {row['change_wins']}/{row['pairs']}")
        note = host_speed_note(name, entry)
        if note is not None:
            print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

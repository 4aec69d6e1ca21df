"""qmink benchmark: two seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh child
interpreter (see child.py), one after another, with one BLAS/OpenMP thread
and a fixed PYTHONHASHSEED.  With ``--trace 0`` the run repeats passes for
about ``--seconds`` seconds and prints the end-to-end metrics; with
``--trace 1`` it makes one untraced, one span-traced and one coefficient-
counting pass, whatever ``--seconds`` says, and prints the per-layer
metrics.  End-to-end timings are scaled to the reference speed of
reference.py, from samples its kernel takes between operations; the
unscaled figures are kept next to them.  The last line of standard output is the result as one JSON
object; the full record, with provenance and per-pass data, is written to
``perfbench/out/``.  See perfbench/README.md for the method.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from tracer import COEFF_COUNTS, SUITE_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 6        # set-up-only children per run, besides the passes
MIN_PASSES = 3           # fewest measured passes per run
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"

END_TO_END = {            # name -> unit
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_p99_ms": "ms",
    "queries_per_s": "1/s", "peak_rss_mb": "MB",
}


def _metric_label(regime: str) -> str:
    return regime.replace("+", "plus").replace("-", "minus") \
        if regime.startswith("case2") else regime


PER_LAYER = {            # name -> unit, in the order they are printed
    **{f"{stem}.calls": "count" for stem, _, _ in COEFF_COUNTS},
    "coeff.exact_divide.hits": "count",
    "coeff.exact_divide.hit_ratio": "ratio",
    **{f"tensor.{op}.{k}": ("count" if k == "calls" else "s")
       for op in ("compose", "place", "to_numpy", "row_echelon")
       for k in ("calls", "self_s")},
    "tensor.compose.dense_products": "count",
    "tensor.compose.nonzero_products": "count",
    "tensor.compose.useful_ratio": "ratio",
    "tensor.to_numpy.nonzero_ratio": "ratio",
    "rewrite.normal_form.calls": "count",
    "rewrite.normal_form.self_s": "s",
    "rewrite.normal_form.terms_out": "count",
    "rewrite.check_confluence.calls": "count",
    "rewrite.check_confluence.self_s": "s",
    "cli.parse_expr.calls": "count",
    "cli.parse_expr.self_s": "s",
    "intertwiners.operator_get.calls": "count",
    "intertwiners.operator_build.calls": "count",
    "intertwiners.operator_cache.hit_ratio": "ratio",
    **{f"suite.{name}.s": "s" for name in SUITE_NAMES},
    **{f"regime.{_metric_label(r)}.s": "s" for r in workloads.REGIMES},
    "suites.unattributed_s": "s",
    **{f"algebras.{fn}.{k}": ("count" if k == "calls" else "s")
       for fn in ("minkowski_system", "full_system", "braided_delta_check")
       for k in ("calls", "s")},
    "trace.overhead_s": "s",
    "trace.count_overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program to measure)."""


# -- children -------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": HASH_SEED,
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def run_child(job: dict) -> dict:
    """Start one child, wait for it, return its record with setup_s added."""
    payload = json.dumps(job)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-s", str(HERE / "child.py")],
                          input=payload, capture_output=True, text=True,
                          env=_child_env(), cwd=str(ROOT), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child ({job['mode']}) exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["first_op_at"] - started - rec["read_s"]
    return rec


def _job(workload: str, mode: str, inputs: dict, expected, **extra) -> dict:
    job = {"workload": workload, "mode": mode, "inputs": inputs}
    if expected is not None:
        job["expected"] = expected
    job.update(extra)
    return job


# -- statistics -------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def scaled(rec: dict) -> tuple[float, list[float]]:
    """A child's set-up time and operation times at the reference speed.

    A time is multiplied by ``reference.NOMINAL_S`` over the kernel's time
    around it: the sample right after set-up for the set-up time, and the
    mean of the samples just before and just after an operation for the
    operation.
    """
    speed = rec["speed"]
    setup = rec["setup_s"] * reference.NOMINAL_S / speed[0][1]
    ops, j = [], 0
    for i, (_, dt, _) in enumerate(rec["ops"]):
        while speed[j + 1][0] <= i:
            j += 1
        ops.append(dt * reference.NOMINAL_S / ((speed[j][1] + speed[j + 1][1]) / 2))
    return setup, ops


def end_to_end(passes: list[dict], setup_children: list[dict]) -> tuple[dict, dict]:
    """Timings at the reference speed, medians over passes.  Every pass runs
    the same operations, so an operation's latency is its median over the
    passes; percentiles are taken over operations, and `wall_s` is the sum
    of the operations' latencies."""
    children = setup_children + passes
    setups, per_pass = zip(*(scaled(rec) for rec in children))
    per_op = [statistics.median(times)
              for times, runs in zip(zip(*per_pass[len(setup_children):]),
                                     zip(*(rec["ops"] for rec in passes)))
              if all(ok for _, _, ok in runs)]
    wall = math.fsum(per_op)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "query_p50_ms": percentile(per_op, 50) * 1e3,
        "query_p99_ms": percentile(per_op, 99) * 1e3,
        "queries_per_s": len(per_op) / wall,
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in passes),
    }
    detail = {"passes": len(passes), "setup_samples": len(children),
              "latency_samples": len(per_op),
              "beyond_p99": sum(1 for v in per_op if v * 1e3 > values["query_p99_ms"]),
              "unscaled_setup_s": statistics.median(rec["setup_s"] for rec in children),
              "unscaled_wall_s": statistics.median(
                  math.fsum(dt for _, dt, _ in rec["ops"]) for rec in passes),
              "reference_ms": statistics.median(
                  s for rec in passes for _, s in rec["speed"]) * 1e3}
    return values, detail


def per_layer(plain: dict, spans: dict, counts: dict) -> dict:
    tr, cn = spans["trace"], counts["trace"]
    rows = tr["spans"]

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "outer_s": 0.0, "extra": {}})

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{stem}.calls": cn["calls"].get(stem, 0) for stem, _, _ in COEFF_COUNTS}
    hits = cn["calls"].get("coeff.exact_divide.hits", 0)
    out["coeff.exact_divide.hits"] = hits
    out["coeff.exact_divide.hit_ratio"] = ratio(hits, cn["calls"]["coeff.exact_divide"])
    for op in ("compose", "place", "to_numpy", "row_echelon"):
        out[f"tensor.{op}.calls"] = row(f"tensor.{op}")["calls"]
        out[f"tensor.{op}.self_s"] = row(f"tensor.{op}")["self_s"]
    cx = row("tensor.compose")["extra"]
    out["tensor.compose.dense_products"] = cx.get("dense_products", 0)
    out["tensor.compose.nonzero_products"] = cx.get("nonzero_products", 0)
    out["tensor.compose.useful_ratio"] = ratio(cx.get("nonzero_products", 0),
                                               cx.get("dense_products", 0))
    nx = row("tensor.to_numpy")["extra"]
    out["tensor.to_numpy.nonzero_ratio"] = ratio(nx.get("nonzero", 0), nx.get("entries", 0))
    nf = row("rewrite.normal_form")
    out["rewrite.normal_form.calls"] = nf["calls"]
    out["rewrite.normal_form.self_s"] = nf["self_s"]
    out["rewrite.normal_form.terms_out"] = nf["extra"].get("terms_out", 0)
    for name in ("rewrite.check_confluence", "cli.parse_expr"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    gets = tr["calls"].get("intertwiners.operator_get", 0)
    out["intertwiners.operator_get.calls"] = gets
    out["intertwiners.operator_build.calls"] = row("intertwiners.operator_build")["calls"]
    out["intertwiners.operator_cache.hit_ratio"] = ratio(gets - tr["operator_pairs"], gets)
    for name in SUITE_NAMES:
        out[f"suite.{name}.s"] = row(f"suite.{name}")["outer_s"]
    for regime in workloads.REGIMES:
        out[f"regime.{_metric_label(regime)}.s"] = row(f"op:{regime}")["s"]
    out["suites.unattributed_s"] = tr["suites_unattributed_s"]
    for fn in ("minkowski_system", "full_system", "braided_delta_check"):
        out[f"algebras.{fn}.calls"] = row(f"algebras.{fn}")["calls"]
        out[f"algebras.{fn}.s"] = row(f"algebras.{fn}")["s"]
    out["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    out["trace.count_overhead_s"] = counts["wall_s"] - plain["wall_s"]
    out["trace.spans"] = tr["span_count"]
    return out


# -- provenance -------------------------------------------------------------------

def provenance(workload: str, seed: int, inputs: dict, numpy_version: str) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"workload": workload, "seed": seed,
            "input_hash": workloads.input_hash(inputs),
            "git_commit": commit or "unknown",
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "pythonhashseed": HASH_SEED,
            "reference_nominal_ms": reference.NOMINAL_S * 1e3}


# -- main ---------------------------------------------------------------------------

def prepare() -> None:
    """Fail fast without the program; byte-compile it so children import alike."""
    pkg = ROOT / "src" / "qmink"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no qmink package under {pkg}; run from a full checkout")
    if not compileall.compile_dir(str(pkg), quiet=1):
        raise BenchError("qmink failed to byte-compile")


def measure(workload: str, seconds: float, inputs: dict, expected) -> dict:
    setups = [run_child(_job(workload, "setup", {}, None)) for _ in range(SETUP_SAMPLES)]
    # the run measures for `seconds`; time spent checking outputs is not counted
    passes = []
    measured = 0.0
    while True:
        started = time.monotonic()
        passes.append(run_child(_job(workload, "plain", inputs, expected,
                                     split_check=not passes)))
        measured += time.monotonic() - started - passes[-1]["check_s"]
        if len(passes) >= MIN_PASSES and measured + measured / len(passes) > seconds:
            break
    values, detail = end_to_end(passes, setups)
    return {"passes": passes, "metrics": values, "detail": detail,
            "units": END_TO_END}


def trace(workload: str, inputs: dict, expected) -> dict:
    # the split check of nf-stream runs once; every pass must match its outputs
    plain = run_child(_job(workload, "plain", inputs, expected))
    spans = run_child(_job(workload, "spans", inputs, expected, split_check=False))
    counts = run_child(_job(workload, "counts", inputs, expected, split_check=False))
    return {"passes": [plain, spans, counts],
            "metrics": per_layer(plain, spans, counts),
            "detail": {"untraced_wall_s": plain["wall_s"],
                       "traced_wall_s": spans["wall_s"],
                       "counted_wall_s": counts["wall_s"]},
            "units": PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        prepare()
        inputs = workloads.make_inputs(args.workload, args.seed)
        expected = None
        if args.workload == "verify-all":
            expected = json.loads((HERE / "expected_verdicts.json").read_text())
        result = (trace(args.workload, inputs, expected) if args.trace
                  else measure(args.workload, args.seconds, inputs, expected))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"]
    attempted = sum(rec["attempted"] for rec in passes)
    failed = sum(rec["failed"] for rec in passes)
    digests = {rec["output_digest"] for rec in passes}
    if len(digests) != 1:
        # same inputs must give the same outputs in every pass, traced or not
        failed += 1
        attempted += 1
    prov = provenance(args.workload, args.seed, inputs, passes[0]["numpy"])
    record = {"provenance": prov, "trace": args.trace, "metrics": result["metrics"],
              "units": result["units"], "detail": result["detail"],
              "attempted": attempted, "failed": failed,
              "failed_share": failed / attempted,
              "output_digests": sorted(digests),
              "problems": [p for rec in passes for p in rec["problems"]][:20],
              "children": [{k: rec[k] for k in ("mode", "setup_s", "wall_s", "check_s",
                                                "peak_rss_mb", "threads", "speed")}
                           for rec in passes]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in record["problems"]:
        print(f"FAIL {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("detail " + json.dumps(result["detail"], sort_keys=True)
          + f" failed_share {record['failed_share']:.6g} ({failed}/{attempted})")
    for key, value in result["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{key:40s} {shown} {result['units'][key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload in a fresh interpreter.

Reads a JSON job from stdin: ``{"workload", "mode", "inputs", ...}`` and
prints one JSON line with its timings and outputs.  ``mode`` is one of

* ``setup``  - set up and exit (extra samples of the set-up time);
* ``plain``  - the untraced pass that end-to-end metrics come from;
* ``spans``  - the same pass with span wrappers installed;
* ``counts`` - the same pass with the hot ``coeff`` methods counted;
* ``spans+counts`` - both at once (used by the tracer's own tests).

Set-up ends at ``first_op_at``, a ``time.monotonic()`` stamp that the
parent compares with the moment it started this process; ``read_s``, the
time spent reading the job, is harness time and is subtracted.  The
reference kernel (reference.py) is timed right after set-up, between
operations and at the end, outside every timed interval.
Correctness checks run after the timed loop, with every wrapper removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import numpy
from qmink import cli, coeff, intertwiners

import reference
import workloads
from tracer import Tracer

NUMERIC_TOL = 1e-9   # the default tolerance of `qmink eval`
SPEED_EVERY_S = 0.5  # longest gap between two reference samples
REGIMES = {label: coeff.regime_from_label(label) for label in workloads.REGIMES}


def _threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def main() -> int:
    t0 = time.monotonic()
    job = json.load(sys.stdin)
    workload, mode, inputs = job["workload"], job["mode"], job["inputs"]
    read_s = time.monotonic() - t0

    tracer = None
    if mode in ("spans", "counts", "spans+counts"):
        tracer = Tracer(spans="spans" in mode, coeff_counts="counts" in mode).install()
    systems = {}
    if workload == "nf-stream":
        systems = {label: cli.nf_system(regime) for label, regime in REGIMES.items()}

    out = {"mode": mode, "first_op_at": time.monotonic(), "read_s": read_s,
           "numpy": numpy.__version__}
    rec = Recorder(tracer)
    out["ops"], out["speed"] = rec.ops, rec.speed
    rec.sample_speed()
    if mode == "setup":
        return _emit(out, tracer)

    run = {"verify-all": _verify_all, "nf-stream": _nf_stream}[workload]
    t0 = time.perf_counter()
    results = run(inputs, systems, rec)
    out["wall_s"] = time.perf_counter() - t0
    rec.sample_speed()
    if tracer is not None:
        tracer.uninstall()
    t0 = time.perf_counter()
    out.update(_check(workload, inputs, results, systems, job))
    out["check_s"] = time.perf_counter() - t0
    return _emit(out, tracer)


def _emit(out: dict, tracer) -> int:
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["threads"] = _threads()
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


class Recorder:
    """Times operations, and the reference kernel between them.

    ``ops`` gets [regime, seconds, ok] per operation; ``speed`` gets
    [operations done so far, kernel seconds] per reference sample.  A
    sample is taken right after set-up, before an operation when
    ``SPEED_EVERY_S`` have passed since the last one, and at the end, so
    every operation lies between two samples.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list = []
        self.speed: list = []
        self._next_sample = 0.0

    def sample_speed(self) -> None:
        self.speed.append([len(self.ops), reference.sample()])
        self._next_sample = time.perf_counter() + SPEED_EVERY_S

    def op(self, label: str, fn):
        """Run one operation; a failed operation is a result, not a crash."""
        if time.perf_counter() >= self._next_sample:
            self.sample_speed()
        tracer = self.tracer
        span = tracer.open(f"op:{label}") if tracer is not None and tracer.records_spans \
            else None
        t0 = time.perf_counter()
        try:
            result = fn()
            ok = True
        except Exception as exc:
            result, ok = f"{type(exc).__name__}: {exc}", False
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        self.ops.append([label, dt, ok])
        return result, ok


# -- workloads ---------------------------------------------------------------

def _verify_all(inputs, systems, rec):
    """Verify every regime both ways.  First every suite, as
    `qmink verify --suite all` (the body of `cli.run_suites`, one suite per
    operation, so the reference samples fall between suites); then the
    float mirror at the regime's seeded points, as one `qmink eval`, in one
    operation.  The sweep reuses the operators the suites built, so its time
    is evaluation: `to_numpy`, `place` and `Scalar.eval`."""
    table, sweeps = {}, {}
    for label in inputs["regimes"]:
        regime = REGIMES[label]
        rows = []
        for name in cli.SUITE_ORDER:
            res, ok = rec.op(label, lambda: cli.SUITES[name](regime))
            # a suite that raised leaves an extra row, so the failure is shown
            rows.extend([[r.check_id, r.status] for r in res] if ok
                        else [[f"suite {name}", f"raised {res}"]])
        table[label] = sorted(rows)
        points = [p for p in inputs["points"] if p["regime"] == label]
        res, ok = rec.op(label, lambda: [_residuals(regime, p) for p in points])
        sweeps[label] = res if ok else [(res, False)] * len(points)
    return table, sweeps


def _nf_stream(inputs, systems, rec):
    results = []
    for q in inputs["queries"]:
        label = q["regime"]
        alph, system = systems[label]
        ctx = cli.ParseContext(alph, REGIMES[label])
        text = workloads.query_text(q)
        nf, ok = rec.op(label, lambda: system.normal_form(cli.parse_expr(text, ctx)))
        results.append((nf, ok))
    return results


def _residuals(regime, point):
    q = complex(*point["q"])
    qb = None if point["qb"] is None else complex(*point["qb"])
    try:
        return intertwiners.numeric_suite(regime, q, point["t"], qb), True
    except Exception as exc:   # a failed sample is a result, not a crash
        return f"{type(exc).__name__}: {exc}", False


# -- correctness, outside every timed interval ---------------------------------

def _check(workload, inputs, results, systems, job) -> dict:
    if workload == "nf-stream":
        return _check_nf(inputs, results, systems, job.get("split_check", True))
    table, sweeps = results
    verdicts = _check_verdicts(inputs, table, job["expected"])
    numeric = _check_numeric([r for label in inputs["regimes"] for r in sweeps[label]])
    digest = hashlib.sha256((verdicts["output_digest"] + numeric["output_digest"]).encode())
    return {"attempted": verdicts["attempted"] + numeric["attempted"],
            "failed": verdicts["failed"] + numeric["failed"],
            "problems": (verdicts["problems"] + numeric["problems"])[:20],
            "output_digest": digest.hexdigest()}


def _check_verdicts(inputs, table, expected) -> dict:
    attempted = failed = 0
    problems = []
    for label in inputs["regimes"]:
        want = {cid: status for cid, status in expected[label]}
        got = {cid: s for cid, s in table[label]}
        keys = set(want) | set(got)
        attempted += len(keys)
        for cid in sorted(keys):
            if want.get(cid) != got.get(cid):
                failed += 1
                problems.append(f"{label} {cid}: expected {want.get(cid)}, got {got.get(cid)}")
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    return {"attempted": attempted, "failed": failed, "problems": problems[:20],
            "output_digest": digest}


def _check_nf(inputs, results, systems, split_check: bool) -> dict:
    """A query fails if it raised or left a reducible word; outside generic,
    also if nf(a*b) differs from nf(nf(a)*nf(b)) at the seeded split."""
    failed = 0
    problems = []
    digest = hashlib.sha256()
    for q, (nf, ok) in zip(inputs["queries"], results):
        label = q["regime"]
        alph, system = systems[label]
        why = None
        if not ok:
            why = nf
        else:
            digest.update(f"{label}|{workloads.query_text(q)}|{nf}\n".encode())
            if any(_reducible(system, w) for w in nf.terms):
                why = "normal form contains a reducible word"
            elif split_check and label != "generic" and not _split_agrees(
                    q, nf, REGIMES[label], alph, system):
                why = "nf(a*b) != nf(nf(a)*nf(b))"
        if why is not None:
            failed += 1
            problems.append(f"{label} {workloads.query_text(q)!r}: {why}")
    return {"attempted": len(results), "failed": failed, "problems": problems[:20],
            "output_digest": digest.hexdigest()}


def _reducible(system, word) -> bool:
    return any((word[i], word[i + 1]) in system.rules for i in range(len(word) - 1))


def _split_agrees(q, nf, regime, alph, system) -> bool:
    """nf(a*b) == nf(nf(a)*nf(b)).  For a product of letters a*b is the query
    itself, a single word, so its normal form is the one already computed."""
    ctx = cli.ParseContext(alph, regime)
    factors = q["factors"]
    if q["cofactor"] is None:
        left, right = factors[:q["split"]], factors[q["split"]:]
    else:
        left, right = factors, [q["cofactor"]]
    a = cli.parse_expr("*".join(left), ctx)
    b = cli.parse_expr("*".join(right), ctx)
    whole = nf if q["cofactor"] is None else system.normal_form(a * b)
    staged = system.normal_form(system.normal_form(a) * system.normal_form(b))
    return whole.equals(staged)


def _check_numeric(results) -> dict:
    attempted = failed = 0
    problems = []
    for res, ok in results:
        if not ok:
            attempted += 1
            failed += 1
            problems.append(res)
            continue
        for check_id, residual in res.items():
            attempted += 1
            if not residual < NUMERIC_TOL:
                failed += 1
                problems.append(f"{check_id}: residual {residual:.3e}")
    return {"attempted": attempted, "failed": failed, "problems": problems[:20],
            "output_digest": hashlib.sha256(
                json.dumps([r if ok else None for r, ok in results],
                           sort_keys=True).encode()).hexdigest()}


if __name__ == "__main__":
    sys.exit(main())

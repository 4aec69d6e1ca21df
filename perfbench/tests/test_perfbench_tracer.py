"""The tracer must not change what the program computes or miss a call.

Each case runs in a fresh interpreter, so the module caches start empty
exactly as they do in a benchmark pass.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((BENCH / "expected_verdicts.json").read_text())

COUNT_SCRIPT = """
import cProfile, json, pstats, sys
sys.path.insert(0, sys.argv[2])
import qmink.cli
from qmink import coeff, intertwiners
import tracer as T

targets = T.SPAN_TARGETS + T.SPAN_PASS_COUNTS + T.COEFF_COUNTS
if sys.argv[1] == "profile":
    keys = {}
    for name, module, path in targets:
        code = T.resolve(module, path)[2].__code__
        keys[name] = (code.co_filename, code.co_firstlineno, code.co_name)
    prof = cProfile.Profile()
    prof.enable()
    intertwiners.suite_moves(coeff.GENERIC)
    prof.disable()
    stats = pstats.Stats(prof).stats
    counts = {name: stats[key][1] if key in stats else 0 for name, key in keys.items()}
else:
    tr = T.Tracer(spans=True, coeff_counts=True).install()
    intertwiners.suite_moves(coeff.GENERIC)
    tr.uninstall()
    counts = dict(tr.calls)
    before = counts["coeff.scalar_is_zero"]
    tr.install()
    m = intertwiners.operator_source(coeff.GENERIC).get("X")
    tr.count_nonzero(m.entries)
    tr.uninstall()
    counts["own_is_zero_counted"] = tr.calls["coeff.scalar_is_zero"] - before
    counts["compose_nonzero_products"] = \\
        tr.summary()["spans"]["tensor.compose"]["extra"]["nonzero_products"]
print(json.dumps(counts))
"""


@functools.cache
def _counts(mode: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, mode, str(BENCH)],
                          capture_output=True, text=True, env=run._child_env(),
                          cwd=str(run.ROOT), timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload: str, mode: str, inputs: dict) -> dict:
    expected = EXPECTED if workload == "verify-all" else None
    return run.run_child(run._job(workload, mode, inputs, expected))


def test_traced_pass_gives_same_verdicts_and_normal_forms():
    cases = [("verify-all", {"regimes": ["generic"],
                             "points": workloads.numeric_points(seed=3, per_regime=1)[:1]}),
             ("nf-stream", {"queries": workloads.nf_queries(seed=3, n=60)})]
    for workload, inputs in cases:
        plain = _pass(workload, "plain", inputs)
        traced = _pass(workload, "spans+counts", inputs)
        assert plain["failed"] == 0, plain["problems"]
        assert traced["failed"] == 0, traced["problems"]
        assert plain["attempted"] == traced["attempted"] > 0
        assert plain["output_digest"] == traced["output_digest"]
        assert traced["trace"]["span_count"] > 0


def test_wrapper_counts_equal_cprofile_counts():
    profiled = _counts("profile")
    traced = _counts("traced")
    assert profiled["tensor.compose"] > 0 and profiled["coeff.scalar_is_zero"] > 0
    mismatched = {name: (profiled[name], traced[name])
                  for name in profiled if profiled[name] != traced[name]}
    assert not mismatched, mismatched


def test_tracer_own_is_zero_calls_are_not_counted():
    traced = _counts("traced")
    assert traced["compose_nonzero_products"] > 0   # the hooks did scan entries
    assert traced["own_is_zero_counted"] == 0

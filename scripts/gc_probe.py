#!/usr/bin/env python3
"""Where verify-all's time goes, operation by operation, and where its
gen-2 garbage collections land.

Usage: python scripts/gc_probe.py SEED... [--passes N]

For each seed, runs ``perfbench/child.py``'s plain verify-all pass N times
(default 3), each in a fresh interpreter set up as ``perfbench/run.py``
sets up its children.  The child runs unmodified; a ``gc.callbacks`` hook
is installed before it starts.  At the start of a gen-2 collection the
hook finds the operation in progress on the stack (``Recorder.op``); at
the stop it takes the collection's time.  The hook allocates nothing
outside gen-2 collections.

Prints, per seed, each operation's regime, suite and unscaled time in ms
for every pass and their median, with a ``*`` on a time that holds a
gen-2 collection, then each pass's collections and their times.  Outputs
are checked as ``perfbench/run.py`` checks them.  Exits 1 when a pass
failed a check, 2 on a bad argument.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# Runs child.py as __main__ with the hook installed; the hook's marks are
# printed as one more JSON line after the child's own.
_BOOT = r"""
import gc, json, runpy, sys, time
child = sys.argv[1]
sys.path.insert(0, str(__import__("pathlib").Path(child).parent))
marks = []

def hook(phase, info):
    if info["generation"] != 2:
        return
    if phase == "start":
        op = None
        f = sys._getframe(1)
        while f is not None:
            if f.f_code.co_name == "op" and f.f_code.co_filename == child:
                op = len(f.f_locals["self"].ops)
                break
            f = f.f_back
        marks.append([op, time.perf_counter()])
    else:
        marks[-1][1] = time.perf_counter() - marks[-1][1]

gc.callbacks.append(hook)
sys.argv = [child]
code = 0
try:
    runpy.run_path(child, run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
sys.stdout.write(json.dumps(marks) + "\n")
sys.exit(code)
"""


def _bench_modules():
    sys.path.insert(0, str(BENCH))
    import run
    import workloads
    return run, workloads


def op_names(regimes) -> list[tuple[str, str]]:
    """(regime, suite) of each verify-all operation, in the child's order:
    every suite of ``cli.SUITE_ORDER``, then the sweep, per regime."""
    sys.path.insert(0, str(ROOT / "src"))
    from qmink import cli
    return [(label, name) for label in regimes for name in cli.SUITE_ORDER + ("sweep",)]


def probe_pass(run, job: dict) -> tuple[dict, list]:
    """One child pass with the hook: its record and its gen-2 marks."""
    proc = subprocess.run([sys.executable, "-s", "-c", _BOOT, str(BENCH / "child.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=run._child_env(), cwd=str(ROOT), timeout=run.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def report(seed: int, names, passes) -> list[str]:
    walls = " ".join(f"{rec['wall_s']:.3f}" for rec, _ in passes)
    out = [f"seed {seed}: {len(passes)} passes, wall {walls} s (unscaled)",
           f"{'regime':12s} {'suite':10s} " + " ".join(
               f"{'pass ' + str(k + 1):>8s}" for k in range(len(passes))) + "   median"]
    for i, (regime, suite) in enumerate(names):
        cells, times = [], []
        for rec, marks in passes:
            ms = rec["ops"][i][1] * 1e3
            times.append(ms)
            hit = any(op == i for op, _ in marks)
            cells.append(f"{ms:7.2f}{'*' if hit else ' '}")
        out.append(f"{regime:12s} {suite:10s} " + " ".join(cells)
                   + f" {statistics.median(times):8.2f}")
    for k, (_, marks) in enumerate(passes):
        where = ", ".join(
            f"{'outside the operations' if op is None else ' '.join(names[op])}"
            f" {dt * 1e3:.1f} ms" for op, dt in marks) or "none"
        out.append(f"pass {k + 1} gen-2 collections: {where}")
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    run, workloads = _bench_modules()
    run.prepare()
    expected = json.loads((BENCH / "expected_verdicts.json").read_text())
    failed = 0
    for seed in args.seeds:
        inputs = workloads.make_inputs("verify-all", seed)
        names = op_names(inputs["regimes"])
        job = run._job("verify-all", "plain", inputs, expected)
        passes = [probe_pass(run, job) for _ in range(args.passes)]
        for rec, _ in passes:
            if len(rec["ops"]) != len(names):
                raise RuntimeError(f"{len(rec['ops'])} operations, expected {len(names)}")
            failed += rec["failed"]
            for problem in rec["problems"]:
                print(f"FAIL {problem}")
        print("\n".join(report(seed, names, passes)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

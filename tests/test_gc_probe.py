import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "scripts" / "gc_probe.py"


def _probe(*args):
    return subprocess.run([sys.executable, str(PROBE), *args], capture_output=True,
                          text=True, cwd=str(ROOT), timeout=300)


def test_gc_probe_times_every_operation_of_one_pass():
    proc = _probe("1", "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("seed 1: 1 passes, wall ")
    assert lines[1].split() == ["regime", "suite", "pass", "1", "median"]
    rows = [line.split() for line in lines[2:-1]]
    assert len(rows) == 50   # nine suites and the sweep in each of five regimes
    assert [r[:2] for r in rows[:10]] == [["generic", s] for s in (
        "moves", "braid", "spectral", "compat", "crossed", "pbw", "delta", "length",
        "classical", "sweep")]
    for row in rows:
        ms = row[2].rstrip("*")
        assert float(ms) >= 0 and float(row[3]) == float(ms)
    marked = [" ".join(r[:2]) for r in rows if r[2].endswith("*")]
    last = lines[-1]
    assert last.startswith("pass 1 gen-2 collections: ")
    # each marked operation is named on the collections line
    assert all(name in last for name in marked)


def test_gc_probe_refuses_a_bad_argument():
    assert _probe().returncode == 2
    proc = _probe("1", "--passes", "0")
    assert proc.returncode == 2 and "--passes must be at least 1" in proc.stderr

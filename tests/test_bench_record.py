import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = ("setup_s", "wall_s", "query_p50_ms", "query_p99_ms",
            "queries_per_s", "peak_rss_mb")


def _record(out: Path, seed: int, trace: int, commit: str, metrics: dict) -> None:
    out.mkdir(exist_ok=True)
    rec = {"provenance": {"workload": "verify-all", "seed": seed, "git_commit": commit},
           "trace": trace, "metrics": metrics, "attempted": 50, "failed": 0}
    (out / f"verify-all-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def test_bench_record_of_two_synthetic_records(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _record(parent, 7, 0, "aaa", dict.fromkeys(_METRICS, 2.0))
    _record(change, 7, 0, "bbb", dict(dict.fromkeys(_METRICS, 2.0),
                                      wall_s=1.5, queries_per_s=3.0, peak_rss_mb=2.5))
    _record(change, 7, 1, "bbb", {"coeff.scalar_mul.calls": 10})
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    assert "verify-all   wall_s         2 -> 1.5  wins 1/1" in capsys.readouterr().out

    entry = json.loads(bench.read_text())["workloads"]["verify-all"]
    assert entry["parent"]["seeds"] == [7] and entry["change"]["seeds"] == [7]
    assert entry["change"]["runs"][0]["commit"] == "bbb"
    assert entry["change"]["runs"][0]["metrics"]["wall_s"] == 1.5
    assert entry["change"]["summary"]["wall_s"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    wins = entry["pairs"]["metrics"]
    assert wins["wall_s"]["change_wins"] == 1 and wins["wall_s"]["median_gap"] == 0.5
    assert wins["queries_per_s"]["better"] == "higher"
    assert wins["queries_per_s"]["change_wins"] == 1   # higher is better
    assert wins["peak_rss_mb"]["change_wins"] == 0     # a loss
    assert wins["setup_s"]["change_wins"] == 0         # a tie is no win
    assert entry["per_layer"] == {"parent": {}, "change": {"7": {"coeff.scalar_mul.calls": 10}}}


def test_bench_record_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_bench_record_refuses_what_it_cannot_pair(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _record(parent, 1, 0, "aaa", dict.fromkeys(_METRICS, 1.0))
    _record(change, 2, 0, "bbb", dict.fromkeys(_METRICS, 1.0))
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 2
    assert "no seed of a workload was run in both" in capsys.readouterr().err
    assert bench_record.main([str(parent), str(tmp_path / "missing"), str(bench)]) == 2
    assert "missing is not a directory" in capsys.readouterr().err
    assert not bench.exists()


def _checkout(root: Path, source: str) -> Path:
    """A checkout with one source file; returns its perfbench/out."""
    (root / "src" / "qmink").mkdir(parents=True)
    (root / "src" / "qmink" / "coeff.py").write_text(source)
    (root / "perfbench").mkdir()
    return root / "perfbench" / "out"


def test_bench_record_hashes_each_side_source(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "x = 1\n")
    change = _checkout(tmp_path / "change", "x = 2\n")
    _record(parent, 7, 0, "aaa", dict.fromkeys(_METRICS, 2.0))
    _record(change, 7, 0, "bbb", dict.fromkeys(_METRICS, 1.0))
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    assert "warning" not in capsys.readouterr().err
    sources = json.loads(bench.read_text())["sources"]
    assert sources == {"parent": bench_record.source_hash(parent),
                       "change": bench_record.source_hash(change)}
    assert len(sources["parent"]) == 64 and sources["parent"] != sources["change"]
    # the same hash for the same files, wherever the checkout is
    again = _checkout(tmp_path / "again", "x = 1\n")
    assert bench_record.source_hash(again) == sources["parent"]


def test_bench_record_warns_when_both_sides_hash_the_same(tmp_path, capsys):
    out = _checkout(tmp_path / "repo", "x = 1\n")
    _record(out, 7, 0, "aaa", dict.fromkeys(_METRICS, 2.0))
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(out), str(out), str(bench)]) == 0
    err = capsys.readouterr().err.splitlines()
    digest = bench_record.source_hash(out)
    assert err == [f"warning: both sides measured the same source, sha256 {digest}"]


def test_bench_record_has_no_hash_outside_a_checkout(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _record(parent, 7, 0, "aaa", dict.fromkeys(_METRICS, 2.0))
    _record(change, 7, 0, "bbb", dict.fromkeys(_METRICS, 1.0))
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    assert json.loads(bench.read_text())["sources"] == {"parent": None, "change": None}
    # a perfbench/out whose checkout has no src/qmink/*.py
    bare = tmp_path / "bare" / "perfbench" / "out"
    bare.parent.mkdir(parents=True)
    assert bench_record.source_hash(bare) is None
    assert "warning" not in capsys.readouterr().err


def test_bench_record_keeps_reference_times_and_flags_a_host_speed_gap(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p_ref, c_ref) in enumerate([(3.70, 3.74), (3.72, 3.76), (3.74, 3.78)]):
        for out, ref, wall in ((parent, p_ref, 0.35), (change, c_ref, 0.33)):
            _record(out, seed, 0, "c", dict.fromkeys(_METRICS, 1.0))
            path = out / f"verify-all-seed{seed}-trace0.json"
            rec = json.loads(path.read_text())
            rec["detail"] = {"reference_ms": ref, "unscaled_wall_s": wall}
            path.write_text(json.dumps(rec))
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    entry = json.loads(bench.read_text())["workloads"]["verify-all"]
    assert entry["parent"]["runs"][0]["reference_ms"] == 3.70
    assert entry["change"]["runs"][2]["unscaled_wall_s"] == 0.33
    assert entry["parent"]["reference_ms_median"] == 3.72
    assert entry["change"]["reference_ms_median"] == 3.76
    # 3.72 -> 3.76 is 1.1 %, past the 0.5 % that is let through
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("verify-all   reference_ms   3.72 -> 3.76  +1.1%: ")

    # within 0.5 %: no line; records without a detail keep None
    for seed in range(3):
        path = change / f"verify-all-seed{seed}-trace0.json"
        rec = json.loads(path.read_text())
        rec["detail"]["reference_ms"] = 3.73
        path.write_text(json.dumps(rec))
    _record(parent, 9, 0, "c", dict.fromkeys(_METRICS, 1.0))
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    assert "reference_ms" not in capsys.readouterr().out
    entry = json.loads(bench.read_text())["workloads"]["verify-all"]
    assert entry["parent"]["runs"][-1]["reference_ms"] is None
    assert entry["parent"]["reference_ms_median"] == 3.72


def test_bench_record_pairs_the_rounds_of_one_seed(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for k, (p, c) in enumerate([(2.0, 1.0), (2.0, 3.0), (2.0, 1.5)], start=1):
        _record(parent, 11, 0, "aaa", dict.fromkeys(_METRICS, p))
        _record(change, 11, 0, "bbb", dict.fromkeys(_METRICS, c))
        for out in (parent, change):
            (out / "verify-all-seed11-trace0.json").rename(
                out / f"verify-all-seed11-trace0-r{k}.json")
    _record(parent, 11, 0, "aaa", dict.fromkeys(_METRICS, 2.0))  # round 0, unpaired
    bench = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(bench)]) == 0
    entry = json.loads(bench.read_text())["workloads"]["verify-all"]
    assert entry["parent"]["seeds"] == [11] and len(entry["parent"]["runs"]) == 4
    assert [r["round"] for r in entry["change"]["runs"]] == [1, 2, 3]
    assert entry["pairs"]["seeds"] == [11]
    wins = entry["pairs"]["metrics"]["wall_s"]
    assert wins["pairs"] == 3 and wins["change_wins"] == 2
    assert wins["change_median"] == 1.5

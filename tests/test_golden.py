"""``scripts/golden.py``: its one output-path check, ``check`` and ``diff``.

The artifacts themselves are pinned by the tests next to this one
(``test_reports.py``, ``test_cli_transcripts.py`` and the four digest
tests); here ``write`` and ``check`` run on a tiny fake tree, and ``diff``
on trees held in memory.
"""

import copy
import json
from pathlib import Path

import golden
import pytest

from qmink.coeff import ONE, Q, Scalar
from qmink.tensor import TMap, U

DATA = Path(__file__).resolve().parent / "data"


def _refuse():
    raise AssertionError("computed an artifact for a path it cannot write")


@pytest.mark.parametrize("target", ["file", "file/sub", "dir"])
def test_write_refuses_a_path_it_cannot_write_first(tmp_path, monkeypatch, capsys, target):
    monkeypatch.setattr(golden, "artifacts", _refuse)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "reports").mkdir()
    (tmp_path / "dir" / "cli").write_text("")  # a file where a directory goes
    assert golden.main(["write", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["write"], ["check", "a", "b"], ["diff", "a"],
                                  ["compare", "a", "b"]])
def test_usage_on_wrong_arguments(monkeypatch, capsys, argv):
    monkeypatch.setattr(golden, "artifacts", _refuse)
    assert golden.main(argv) == 2
    assert capsys.readouterr().err == \
        "Usage: python scripts/golden.py write DIR | check DIR | diff A B\n"


def _fake_artifacts(failed=0):
    summary = {"passed": 2, "failed": failed, "skipped": 1}
    yield "reports", lambda: {"reports/generic.json": golden.json_text({"summary": summary})}
    yield "cli", lambda: {"cli/nf-generic.txt": "$ qmink nf\n[exit 0]\n"}
    yield "nf_digest.json", lambda: golden.digest_files("nf_digest", {("generic",): ["a"]})


def test_write_then_check_names_each_artifact_that_differs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "artifacts", _fake_artifacts)
    assert golden.main(["write", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "reports" in out and "2 passed, 0 failed, 1 skipped" in out
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*")) == [
        "cli/nf-generic.txt", "nf_digest.json", "nf_digest.lines", "reports/generic.json"]
    assert golden.main(["check", str(tmp_path)]) == 0
    capsys.readouterr()
    # the lines are not an artifact of their own: check ignores them
    (tmp_path / "nf_digest.lines").write_text("changed")
    assert golden.main(["check", str(tmp_path)]) == 0
    capsys.readouterr()
    (tmp_path / "cli" / "nf-generic.txt").write_text("$ qmink nf\r\n[exit 0]\r\n")
    (tmp_path / "cli" / "extra.txt").write_text("")
    (tmp_path / "nf_digest.json").unlink()
    assert golden.main(["check", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["cli/extra.txt: not written", "cli/nf-generic.txt: differs",
                          "nf_digest.json: missing"]


def test_write_and_check_fail_on_a_failed_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "artifacts", lambda: _fake_artifacts(failed=1))
    assert golden.main(["write", str(tmp_path)]) == 1
    assert golden.main(["check", str(tmp_path)]) == 1
    assert "2 passed, 1 failed, 1 skipped" in capsys.readouterr().out


# -- diff: reports by check id ----------------------------------------------

@pytest.fixture(scope="module")
def unit_circle():
    return json.loads((DATA / "reports" / "unit-circle.json").read_text())


def test_report_diff_matches_an_added_check_by_id(unit_circle):
    b = copy.deepcopy(unit_circle)
    b["checks"].insert(4, dict(b["checks"][3], check_id="braid/new"))
    b["summary"]["passed"] += 1
    assert golden.diff_reports(unit_circle, b) == [
        "/checks[braid/new]: only in B",
        f"/summary/passed: {b['summary']['passed'] - 1} != {b['summary']['passed']}"]


def test_report_diff_names_a_reordering_once(unit_circle):
    b = copy.deepcopy(unit_circle)
    b["checks"][3], b["checks"][4] = b["checks"][4], b["checks"][3]
    assert golden.diff_reports(unit_circle, b) == ["/checks: order differs"]


def test_transcripts_are_compared_by_file_and_line():
    a = {"cli/nf-generic.txt": "$ qmink nf\nalpha\n[exit 0]\n"}
    b = {"cli/nf-generic.txt": "$ qmink nf\n[stderr] error\nalpha\n[exit 2]\n"}
    assert golden.diff_trees(a, b) == [
        "cli/nf-generic.txt:2: + [stderr] error",
        "cli/nf-generic.txt:3: - [exit 0]", "cli/nf-generic.txt:4: + [exit 2]",
        "form-only: 0, value change: 0, charge change: 0, refusal change: 1, rounding: 0",
        "refusal change: cli/nf-generic.txt:1 $ qmink nf"]


def test_transcripts_class_each_changed_command():
    """A changed nf print is read back in the command's regime, a changed
    error line is a refusal change, and another command keeps its raw lines
    only."""
    def nf(expr, *lines):
        return f"$ qmink nf --regime generic --expr '{expr}'\n" + "".join(f"{x}\n" for x in lines)

    error = "[stderr] error: unexpected end of input (at position 7)"
    a = (nf("q*alpha", "q*alpha", "[exit 0]") + nf("alpha - beta", "alpha - beta", "[exit 0]")
         + nf("alpha +", error, "[exit 2]") + nf("beta", "beta", "[exit 0]")
         + "$ qmink relations\nalpha*beta -> beta*alpha\n[exit 0]\n")
    b = (a.replace("\nq*alpha\n", "\n(q^3 + q)/(q^2 + 1)*alpha\n")
         .replace("\nalpha - beta\n", "\nalpha + beta\n")
         .replace(error, error.replace("end of input", "token ''"))
         .replace("alpha*beta -> beta*alpha", "beta*alpha -> alpha*beta"))
    out = golden.diff_trees({"cli/nf-generic.txt": a}, {"cli/nf-generic.txt": b})
    changed = [2, 5, 8, 14]
    assert out[:8] == [f"cli/nf-generic.txt:{n}: {sign} {side.splitlines()[n - 1]}"
                       for n in changed for sign, side in (("-", a), ("+", b))]
    assert out[8:] == [
        "form-only: 1, value change: 1, charge change: 0, refusal change: 1, rounding: 0",
        "form-only: cli/nf-generic.txt:1 $ qmink nf --regime generic --expr 'q*alpha'",
        "value change: cli/nf-generic.txt:4 $ qmink nf --regime generic --expr 'alpha - beta'",
        "refusal change: cli/nf-generic.txt:7 $ qmink nf --regime generic --expr 'alpha +'"]


# -- diff: one case per class of digest entry ----------------------------------

def _tree(name: str, key: str, line: str) -> dict:
    return {f"{name}.json": line, f"{name}.lines": f"{key}\t{line}\n"}


def _classes(name: str, key: str, a: str, b: str) -> list[str]:
    out = golden.diff_trees(_tree(name, key, a), _tree(name, key, b))
    counts = dict(part.split(": ") for part in out[0].split(", "))
    assert sum(map(int, counts.values())) == len(out) - 1
    assert list(counts) == list(golden.CLASSES)
    return out[1:]


def _operator(v: Scalar) -> str:
    return golden.operator_line(TMap((U,), (U,), [[v, ONE], [ONE, Q]]))


def test_diff_tells_a_restated_operator_entry_from_a_changed_one():
    v = (Q + ONE) ** -1
    f = (Q ** 2 + ONE).num
    plain, restated = _operator(v), _operator(Scalar(v.num * f, v.den * f))
    assert _classes("operators", "generic/none/E", plain, restated) == \
        ["form-only: operators generic/none/E entry[0][0]"]
    assert _classes("operators", "generic/none/E", plain, _operator(-v)) == \
        ["value change: operators generic/none/E entry[0][0]"]
    assert _classes("operators", "generic/none/What", "MissingParameterError", plain) == \
        ["refusal change: operators generic/none/What"]


def test_diff_reads_printed_normal_forms_back_in_their_regime():
    assert _classes("nf_digest", "generic", "q*alpha", "(q^3 + q)/(q^2 + 1)*alpha") == \
        ["form-only: nf_digest generic #0"]
    assert _classes("nf_digest", "generic", "q*alpha", "-q*alpha") == \
        ["value change: nf_digest generic #0"]


def test_diff_classes_parse_lines():
    line = golden.parse_line("2*alpha", "unit-circle")
    charged = line.replace("units=2", "units=3")
    assert _classes("parse_digest", "unit-circle", line, charged) == \
        ["charge change: parse_digest unit-circle #0"]
    refusal = golden.parse_line("alpha +", "unit-circle")
    assert _classes("parse_digest", "unit-circle", refusal,
                    refusal.replace("end of input", "token ''")) == \
        ["refusal change: parse_digest unit-circle #0"]
    half = golden.parse_line("(1/2)*(q+1)*alpha", "generic")
    assert "GaussianRational(re=Fraction(1, 2), im=0)" in half
    # the same value with the numerator's terms stored in the other order
    swapped = golden.parse_line("(1/2)*(1+q)*alpha", "generic")
    assert swapped != half
    assert _classes("parse_digest", "generic", half, swapped) == \
        ["form-only: parse_digest generic #0"]
    assert _classes("parse_digest", "generic", half,
                    golden.parse_line("(1/2)*(q+2)*alpha", "generic")) == \
        ["value change: parse_digest generic #0"]


def test_diff_reads_parse_lines_without_eval():
    with pytest.raises(ValueError, match="not a stored term"):
        golden.classify("parse_digest", "generic", ["[__import__('os')] units=1"],
                        ["[] units=1"])


def test_diff_calls_a_last_bit_change_of_a_small_residual_rounding():
    small = f"0 moves/X.X.M {float.hex(1e-16)}"
    last_bit = f"0 moves/X.X.M {float.hex(1e-16 * (1 + 2 ** -52))}"
    assert _classes("numeric_digest", "unit-circle", small, last_bit) == \
        ["rounding: numeric_digest unit-circle point 0 moves/X.X.M"]
    assert _classes("numeric_digest", "unit-circle", small, "0 moves/X.X.M 0x1.0p-20") == \
        ["value change: numeric_digest unit-circle point 0 moves/X.X.M"]


def test_diff_without_the_lines_says_so():
    a, b = {"nf_digest.json": "{}\n"}, {"nf_digest.json": "{\"x\": 1}\n"}
    assert golden.diff_trees(a, b) == [
        "nf_digest.json: differs; write both trees to classify its entries"]

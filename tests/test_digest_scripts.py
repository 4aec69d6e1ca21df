"""The digest scripts, ``run_all.py`` and ``cli_transcripts.py`` refuse an
output path they cannot write before they compute anything, with one
``error:`` line and exit 2."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["nf_digest", "operator_digest", "numeric_digest",
                                  "parse_digest"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_digest_script_refuses_an_unwritable_path_first(tmp_path, monkeypatch,
                                                         capsys, name, target):
    script = _load(name)

    def digests():
        raise AssertionError("computed the digests for a path it cannot write")
    monkeypatch.setattr(script, "digests", digests)
    assert script.main([str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("name, work", [("run_all", "run_suites"),
                                        ("cli_transcripts", "transcripts")])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_dir_scripts_refuse_a_path_that_is_not_a_directory(
        tmp_path, monkeypatch, capsys, name, work, target):
    script = _load(name)

    def refuse(*args):
        raise AssertionError("did the work for a path it cannot write")
    monkeypatch.setattr(script, work, refuse)
    (tmp_path / "file").write_text("")
    assert script.main([str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert err.count("\n") == 1


def test_run_all_gives_its_usage_on_extra_arguments(monkeypatch, capsys):
    script = _load("run_all")
    monkeypatch.setattr(script, "run_suites", lambda *args: pytest.fail("ran"))
    assert script.main(["a", "b"]) == 2
    assert capsys.readouterr().err == "Usage: python scripts/run_all.py [output_dir]\n"

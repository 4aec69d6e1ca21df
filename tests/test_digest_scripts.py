"""``scripts/golden.py write`` refuses an output path that is not a directory
before it computes the reports (once written by ``run_all.py``) or the CLI
transcripts (once written by ``cli_transcripts.py``)."""

import golden
import pytest


@pytest.mark.parametrize("name, work", [("run_all", "reports"),
                                        ("cli_transcripts", "transcripts")])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_dir_scripts_refuse_a_path_that_is_not_a_directory(
        tmp_path, monkeypatch, capsys, name, work, target):
    def refuse(*args):
        raise AssertionError(f"did the work of {name} for a path it cannot write")
    monkeypatch.setattr(golden, work, refuse)
    (tmp_path / "file").write_text("")
    assert golden.main(["write", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert err.count("\n") == 1

"""The digest scripts refuse an output path they cannot write before they
compute anything, with one ``error:`` line and exit 2."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["nf_digest", "operator_digest", "numeric_digest"])
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

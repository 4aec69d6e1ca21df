"""Puts ``scripts/`` on the import path: tests import ``scripts/golden.py``
as ``golden``, once for the whole run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

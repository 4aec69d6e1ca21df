#!/usr/bin/env python3
"""Write golden transcripts of the qmink command line.

Usage: python scripts/cli_transcripts.py OUTPUT_DIR

Runs a fixed list of ``qmink`` commands in-process and writes one text
file per group: ``relations-<regime>.txt``, ``obstruction.txt``,
``length-<regime>.txt``, ``verify-<regime>.txt`` and ``nf-<regime>.txt``.
Each command is written as a ``$ qmink ...`` line followed by its stdout,
its stderr (lines prefixed ``[stderr]``) and its exit code.  The ``verify
--format json`` output is re-printed with every ``elapsed_ms`` removed, so
the files depend on nothing but the program's answers.  ``tests/data/cli``
holds the committed transcripts; compare a fresh directory with
``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

from qmink.cli import main as qmink_main

REGIMES = ("generic", "unit-circle", "real-q", "case2+", "case2-")
FILE_NAMES = {"case2+": "case2-plus", "case2-": "case2-minus"}

# Queries every regime answers (or refuses with exit 2).  The generic
# products have coefficients with multi-term denominators.
NF_COMMON = (
    "alpha",
    "beta*alpha",
    "delta*alpha",
    "gamma*beta",
    "delta*gamma*beta*alpha",
    "alpha*delta - delta*alpha",
    "[alpha, beta]",
    "[gamma, delta]",
    "star(alpha)",
    "star(beta*gamma)",
    "q*alpha + qb*beta",
    "t^(1/2)*gamma*alpha",
    "(alpha + beta)^2",
    "(alpha - i*delta)^3",
    "q^-1*delta*beta",
    "1/(q+1)*alpha*gamma",
    "(q - 1/q)*beta*delta*alpha",
    "2*alpha - 2*alpha",
    "x[1,2]*x[2,1]",
    "u[1,2]*alpha",
    "ub[2,1]*delta*u[1,1]",
    "delta*delta*alpha*alpha*beta*alpha",
    "delta*beta*gamma*alpha",
    "gamma^3*beta^2",
    "(2/3)*q^(3/2)*alpha*beta",
    "i*(1+i)*gamma",
    "alpha +",
    "1/(q-q)",
    "x[3,1]",
    "alpha/beta",
    "alpha^65",
    "alpha^13",
)

NF_EXTRA = {
    "generic": ("delta*alpha*beta*alpha", "h[0,1]*alpha"),
    # the budget refuses the reduction of 64-letter words; 2^14464 has
    # more digits than str() prints of an int (4300 by default)
    "unit-circle": ("h[0,1]*alpha", "h[3,3]*h[0,0]", "alpha'*alpha",
                    "delta'*beta", "(delta*alpha)^32", "*".join(["2^64"] * 226)),
    "real-q": ("h[0,1]*alpha", "h[3,3]*h[0,0]"),
    "case2+": ("h[0,1]*alpha", "h[3,3]*h[0,0]"),
    "case2-": ("h[0,1]*alpha", "h[3,3]*h[0,0]"),
}


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def run(argv: list[str], json_stdout: bool = False) -> str:
    """One command's transcript: command line, stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmink_main(argv)
    stdout = out.getvalue()
    if json_stdout:
        stdout = json.dumps(_strip_timing(json.loads(stdout)), indent=2) + "\n"
    lines = [f"$ qmink {shlex.join(argv)}", stdout.rstrip("\n")]
    lines += [f"[stderr] {line}" for line in err.getvalue().splitlines()]
    lines.append(f"[exit {code}]")
    return "\n".join(line for line in lines if line) + "\n"


def transcripts() -> dict[str, str]:
    """File name -> transcript text, for every golden file."""
    files = {}
    for regime in REGIMES:
        name = FILE_NAMES.get(regime, regime)
        files[f"relations-{name}.txt"] = run(["relations", "--regime", regime])
        files[f"nf-{name}.txt"] = "".join(
            run(["nf", "--regime", regime, "--expr", expr])
            for expr in NF_COMMON + NF_EXTRA[regime])
    files["obstruction.txt"] = run(["obstruction"])
    for regime in ("unit-circle", "real-q"):
        files[f"length-{regime}.txt"] = run(["length", "--regime", regime])
    for regime in ("generic", "unit-circle"):
        files[f"verify-{regime}.txt"] = run(
            ["verify", "--regime", regime, "--format", "json"], json_stdout=True)
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    try:  # before the commands run
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for name, text in transcripts().items():
        (out_dir / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Write a digest of the stored forms that ``parse_expr`` builds.

Usage: python scripts/parse_digest.py OUTPUT_FILE

Parses three sets of texts in every regime, each under
``coeff.WorkBudget(MAX_WORK)`` as ``qmink nf`` does:

- the first 2000 queries of ``perfbench/workloads.nf_queries`` with seed 1,
  each in its own regime
- the ``NF_COMMON`` and ``NF_EXTRA`` queries of ``scripts/cli_transcripts.py``
- 500 seeded strings over the token alphabet of ``tests/test_cli_fuzz.py``
  in every regime: 250 token soup, hostile characters included, and 250
  shaped by the grammar, so that accepted texts are not rare

and writes a JSON object mapping regime -> the SHA-256 of one line per text.
An accepted text gives its terms in dict order, each as its word and the
stored ``n``/``d`` terms of its coefficient in order with ``repr``
coefficients, and the budget units the parse charged.  A refused text gives
its exception class, message and ``pos``, and so does an accepted one with
an integer too long for ``repr`` (4300 digits by default).  The printed
normal forms of ``nf_digest.py`` cannot see term order, yet term order sets
the summation order of generic normal forms, so this pins what the parser
hands on.
Compare a fresh file with ``diff``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from qmink import coeff
from qmink.cli import (MAX_WORK, ExprSyntaxError, NoncommutativeDivisionError,
                       ParseContext, UnknownSymbolError, nf_system, parse_expr)
from qmink.coeff import regime_from_label

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_transcripts = _load("cli_transcripts", ROOT / "scripts" / "cli_transcripts.py")
fuzz = _load("test_cli_fuzz", ROOT / "tests" / "test_cli_fuzz.py")

SEED = 1
QUERIES = 2000
FUZZ_TEXTS = 500
REFUSALS = (ExprSyntaxError, UnknownSymbolError, NoncommutativeDivisionError,
            ZeroDivisionError, coeff.WorkBudgetExceeded)


def _grammar_text(rng: random.Random, depth: int = 0) -> str:
    """A sum of products of the fuzz alphabet's operands, nested by its
    openers, with powers: most parse, so the accepted paths are covered."""
    def factor() -> str:
        pick = rng.randrange(6) if depth < 2 else 0
        if pick == 1:
            out = f"({_grammar_text(rng, depth + 1)})"
        elif pick == 2:
            out = f"star({_grammar_text(rng, depth + 1)})"
        elif pick == 3:
            out = f"[{_grammar_text(rng, depth + 1)}, {_grammar_text(rng, depth + 1)}]"
        elif pick == 4:
            out = "-" + rng.choice(fuzz.GENERATORS + fuzz.SCALARS)
        else:
            out = rng.choice(fuzz.GENERATORS + fuzz.SCALARS)
        return out + rng.choice(("", "", "", "^2", "^3", "^-1", "^0"))

    out = factor()
    for _ in range(rng.randint(0, 3)):
        out += rng.choice(("+", " - ", "*", "*", "/", " ")) + factor()
    return out


def fuzz_texts() -> list[str]:
    """Half token soup, as the fuzz test draws it; half grammar-shaped."""
    alphabet = fuzz.GENERATORS + fuzz.SCALARS + fuzz.PUNCT + fuzz.HOSTILE
    rng = random.Random(f"parse-digest:{SEED}")
    soup = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            for _ in range(FUZZ_TEXTS // 2)]
    return soup + [_grammar_text(rng) for _ in range(FUZZ_TEXTS - len(soup))]


def parse_line(text: str, regime_label: str) -> str:
    """The stored form of text parsed in the regime, or its refusal."""
    regime = regime_from_label(regime_label)
    ctx = ParseContext(nf_system(regime)[0], regime)
    try:
        with coeff.WorkBudget(MAX_WORK) as budget:
            poly = parse_expr(text, ctx)
    except REFUSALS as exc:
        return f"{type(exc).__name__} {exc} pos={getattr(exc, 'pos', None)}"
    terms = [(w, list(c.n._terms.items()), list(c.d._terms.items()))
             for w, c in poly.terms.items()]
    try:
        return f"{terms!r} units={budget.units - budget.left}"
    except ValueError as exc:  # an integer over int's str limit, as in nf
        return f"{type(exc).__name__} {exc} pos=None"


def digests() -> dict:
    lines: dict[str, list[str]] = {label: [] for label in workloads.REGIMES}
    for q in workloads.nf_queries(SEED, QUERIES):
        lines[q["regime"]].append(parse_line(workloads.query_text(q), q["regime"]))
    texts = fuzz_texts()
    for label, out in lines.items():
        for text in cli_transcripts.NF_COMMON + cli_transcripts.NF_EXTRA[label]:
            out.append(parse_line(text, label))
        out.extend(parse_line(text, label) for text in texts)
    return {label: hashlib.sha256("\n".join(out).encode()).hexdigest()
            for label, out in lines.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.is_dir() or not out.parent.is_dir():  # checked before the digests run
        print(f"error: cannot write {out}: not a file in an existing directory",
              file=sys.stderr)
        return 2
    out.write_text(json.dumps(digests(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

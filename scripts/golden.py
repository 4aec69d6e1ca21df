#!/usr/bin/env python3
"""Write, check and compare the golden outputs that pin qmink's answers.

Usage: python scripts/golden.py write DIR | check DIR | diff A B

write DIR writes every artifact under DIR and prints one line per artifact
with its time: ``reports/<regime>.json``, every suite's report with
``elapsed_ms`` stripped; ``cli/*.txt``, transcripts of fixed ``qmink``
commands (command line, stdout, ``[stderr]`` lines, exit code); and four
SHA-256 digests, each next to the lines it hashes as ``<name>.lines``:
``operators`` (per regime, branch flip and name, every entry's stored
num/den terms), ``nf_digest`` (printed normal forms of 2000 seeded
nf-stream queries), ``parse_digest`` (what parse_expr stores, with its
work-budget charge, or refuses, for nf-stream, transcript and fuzz texts)
and ``numeric_digest`` (``float.hex`` of every float-mirror residual at two
fixed points).  ``Scalar`` has no canonical form, so the digests pin stored
forms as well as values.  check DIR compares every artifact but the
``.lines`` with DIR byte for byte and names each that differs.  diff A B
compares two written trees: reports by check id, transcripts by file and
line, each changed digest entry and transcript command by its class.

Exit status: 0 when nothing differs and every check passes, 1 otherwise, 2
on a usage error or a DIR that cannot be written or read.
"""

from __future__ import annotations

import ast
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import random
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

from qmink import coeff
from qmink.cli import (MAX_WORK, ExprSyntaxError, NoncommutativeDivisionError,
                       ParseContext, UnknownSymbolError, _report_json, nf_system,
                       parse_expr, run_suites)
from qmink.cli import main as qmink_main
from qmink.coeff import (ALL_REGIMES, GaussianRational, LaurentPoly,
                         MissingParameterError, RegimeKind, regime_from_label)
from qmink.intertwiners import OperatorSource, numeric_suite

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("test_cli_fuzz",
                                               ROOT / "tests" / "test_cli_fuzz.py")
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)

FILE_NAMES = {"case2+": "case2-plus", "case2-": "case2-minus"}
DIGESTS = ("operators", "nf_digest", "parse_digest", "numeric_digest")
CLASSES = ("form-only", "value change", "charge change", "refusal change", "rounding")
ROUNDING = 1e-9  # numeric_sweep.py's pass bound

# Queries every regime answers (or refuses with exit 2).  The generic
# products have coefficients with multi-term denominators.
NF_COMMON = (
    "alpha", "beta*alpha", "delta*alpha", "gamma*beta", "delta*gamma*beta*alpha",
    "alpha*delta - delta*alpha", "[alpha, beta]", "[gamma, delta]", "star(alpha)",
    "star(beta*gamma)", "q*alpha + qb*beta", "t^(1/2)*gamma*alpha", "(alpha + beta)^2",
    "(alpha - i*delta)^3", "q^-1*delta*beta", "1/(q+1)*alpha*gamma",
    "(q - 1/q)*beta*delta*alpha", "2*alpha - 2*alpha", "x[1,2]*x[2,1]", "u[1,2]*alpha",
    "ub[2,1]*delta*u[1,1]", "delta*delta*alpha*alpha*beta*alpha", "delta*beta*gamma*alpha",
    "gamma^3*beta^2", "(2/3)*q^(3/2)*alpha*beta", "i*(1+i)*gamma", "alpha +", "1/(q-q)",
    "x[3,1]", "alpha/beta", "alpha^65", "alpha^13",
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
OPERATOR_NAMES = (
    "E", "E'", "X", "X^-1", "Xfull", "Xfull^-1", "X!pert", "X!pert^-1",
    "P", "P'", "Q", "Q'", "M", "M^-1", "K", "K^-1",
    "Rhat+", "Rhat-", "Rhat+^-1", "Rhat-^-1", "Rhat+!pert", "Rhat-!pert",
    "Pminus", "Pi9", "Pi1", "Ryb+", "Ryb-",
    "S:first", "S:second", "tauSbarInvTau:first", "tauSbarInvTau:second",
    "T:first", "T:second", "Tfull:first", "Tfull:second",
    "T':first", "T':second", "What",
)
FLIPS = {"none": (), "all": (0, 1, 2)}
SEED, QUERIES, FUZZ_TEXTS = 1, 2000, 500
REFUSALS = (ExprSyntaxError, UnknownSymbolError, NoncommutativeDivisionError,
            ZeroDivisionError, coeff.WorkBudgetExceeded)
# (q, t, qbar) per regime kind, float literals (the unit-circle points are
# Pythagorean); qbar None means conj(q)
POINTS = {
    RegimeKind.GENERIC: ((0.55 + 0.4j, 0.5, -0.3 + 0.9j), (-0.7 + 1.1j, 2.0, 0.45 - 0.6j)),
    RegimeKind.UNIT_CIRCLE: ((0.6 + 0.8j, 0.5, None), (-0.28 + 0.96j, 2.0, None)),
    RegimeKind.REAL_Q: ((0.75 + 0j, 0.5, None), (1.5 + 0j, 2.0, None)),
    RegimeKind.CASE2: ((0.75 + 0j, 0.5, None), (1.5 + 0j, 2.0, None)),
}


def strip_timing(obj):
    """A copy of a decoded report without any ``elapsed_ms`` key."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """JSON as the golden files hold it: indented, ``elapsed_ms`` stripped."""
    return json.dumps(strip_timing(obj), indent=2) + "\n"


# -- reports and transcripts ------------------------------------------------

def reports() -> dict[str, str]:
    return {f"reports/{FILE_NAMES.get(r.label, r.label)}.json":
            json_text(_report_json(r, run_suites(r, "all"))) for r in ALL_REGIMES}


def run(argv: list[str], json_stdout: bool = False) -> str:
    """One command's transcript: command line, stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmink_main(argv)
    stdout = json_text(json.loads(out.getvalue())) if json_stdout else out.getvalue()
    lines = [f"$ qmink {shlex.join(argv)}", stdout.rstrip("\n")]
    lines += [f"[stderr] {line}" for line in err.getvalue().splitlines()]
    lines.append(f"[exit {code}]")
    return "\n".join(line for line in lines if line) + "\n"


def transcripts() -> dict[str, str]:
    files = {}
    for label in workloads.REGIMES:
        name = FILE_NAMES.get(label, label)
        files[f"cli/relations-{name}.txt"] = run(["relations", "--regime", label])
        files[f"cli/nf-{name}.txt"] = "".join(
            run(["nf", "--regime", label, "--expr", expr])
            for expr in NF_COMMON + NF_EXTRA[label])
    files["cli/obstruction.txt"] = run(["obstruction"])
    for label in ("unit-circle", "real-q"):
        files[f"cli/length-{label}.txt"] = run(["length", "--regime", label])
    for label in ("generic", "unit-circle"):
        files[f"cli/verify-{label}.txt"] = run(
            ["verify", "--regime", label, "--format", "json"], json_stdout=True)
    return files


# -- digests: each a map key -> the lines it hashes -------------------------

def _poly(p) -> list:
    return [[list(m), str(c.re), str(c.im)] for m, c in p.terms.items()]


def operator_line(op) -> str:
    """The legs and the stored num/den terms of every entry, in order."""
    return json.dumps([[leg.name for leg in op.in_sig], [leg.name for leg in op.out_sig],
                       [[[j, _poly(v.num), _poly(v.den)] for j, v in row.items()]
                        for row in op.rows]])


def operator_lines() -> dict:
    """Every named operator in every regime, unflipped and with every
    half-power atom flipped; a refusal is its error's class name."""
    out = {}
    for regime in ALL_REGIMES:
        for flip, atoms in FLIPS.items():
            src = OperatorSource(regime, atoms)
            for name in OPERATOR_NAMES:
                try:
                    out[regime.label, flip, name] = [operator_line(src.get(name))]
                except MissingParameterError as exc:
                    out[regime.label, flip, name] = type(exc).__name__
    return out


def nf_queries():
    """(regime label, text) of the digested nf-stream queries."""
    for q in workloads.nf_queries(SEED, QUERIES):
        yield q["regime"], workloads.query_text(q)


def nf_lines() -> dict:
    out = {(label,): [] for label in workloads.REGIMES}
    for label, text in nf_queries():
        regime = regime_from_label(label)
        alph, system = nf_system(regime)
        poly = parse_expr(text, ParseContext(alph, regime))
        out[(label,)].append(str(system.normal_form(poly)))
    return out


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
    """The stored form of text parsed in the regime under ``qmink nf``'s
    work budget, with the units charged, or its refusal."""
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


def parse_lines() -> dict:
    out = {(label,): [] for label in workloads.REGIMES}
    for label, text in nf_queries():
        out[(label,)].append(parse_line(text, label))
    texts = fuzz_texts()
    for (label,), lines in out.items():
        lines.extend(parse_line(t, label) for t in NF_COMMON + NF_EXTRA[label] + tuple(texts))
    return out


def numeric_lines() -> dict:
    """``point check_id float.hex(residual)``, by point, then check id."""
    out = {}
    for regime in ALL_REGIMES:
        lines = out[(regime.label,)] = []
        for k, (q, t, qbar) in enumerate(POINTS[regime.kind]):
            res = numeric_suite(regime, q, t, qbar)
            lines.extend(f"{k} {cid} {float.hex(res[cid])}" for cid in sorted(res))
    return out


def sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_files(name: str, lines: dict) -> dict[str, str]:
    """``name.json``, the keys nested with each value hashed (a refusal's
    class name kept), and ``name.lines``, one ``key<TAB>line`` per line."""
    tree: dict = {}
    for key, value in lines.items():
        node = tree
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = value if isinstance(value, str) else sha(value)
    text = "".join(f"{'/'.join(key)}\t{line}\n" for key, value in lines.items()
                   for line in ([value] if isinstance(value, str) else value))
    return {f"{name}.json": json.dumps(tree, indent=1) + "\n", f"{name}.lines": text}


def artifacts():
    """(label, function computing {path under the tree: text}) per artifact."""
    yield "reports", reports
    yield "cli", transcripts
    for name, lines in zip(DIGESTS, (operator_lines, nf_lines, parse_lines, numeric_lines)):
        yield f"{name}.json", lambda n=name, f=lines: digest_files(n, f())


def build() -> tuple[dict[str, str], int]:
    """Every artifact, and the number of failed checks in the reports."""
    tree, failed = {}, 0
    for label, make in artifacts():
        t0 = time.perf_counter()
        files = make()
        note = f"{len(files)} files"
        if label == "reports":
            total = {k: sum(json.loads(text)["summary"][k] for text in files.values())
                     for k in ("passed", "failed", "skipped")}
            failed = total["failed"]
            note = ", ".join(f"{v} {k}" for k, v in total.items())
        print(f"{label:20s} {note:36s} {time.perf_counter() - t0:6.2f} s")
        tree.update(files)
    return tree, failed


def read_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}


def check(root: Path, fresh: dict[str, str]) -> list[str]:
    """One line per artifact, the ``.lines`` aside, where root differs."""
    old = {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
           if p.is_file() and p.suffix != ".lines"}
    new = {k: v.encode() for k, v in fresh.items() if not k.endswith(".lines")}
    return [f"{k}: {'not written' if k not in new else 'missing' if k not in old else 'differs'}"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


# -- diff -------------------------------------------------------------------

def diff_reports(a, b, where: str = "") -> list[str]:
    """One line per difference between two decoded, stripped reports.  Dicts
    are matched by key, lists by check id (by position for other items)."""
    if isinstance(a, list) and isinstance(b, list):
        a, b, step = _keyed(a), _keyed(b), "{}[{}]"
    elif isinstance(a, dict) and isinstance(b, dict):
        step = "{}/{}"
    else:
        return [f"{where}: {a!r} != {b!r}"] if a != b or type(a) is not type(b) else []
    out = [f"{step.format(where, k)}: only in A" for k in a if k not in b]
    out += [f"{step.format(where, k)}: only in B" for k in b if k not in a]
    common = [k for k in a if k in b]
    if common != [k for k in b if k in a]:
        out.append(f"{where}: order differs")
    for k in common:
        out.extend(diff_reports(a[k], b[k], step.format(where, k)))
    return out


def _keyed(items: list) -> dict:
    return {x["check_id"] if isinstance(x, dict) and "check_id" in x else i: x
            for i, x in enumerate(items)}


def diff_lines(name: str, a: str, b: str) -> list[str]:
    """A transcript's changed lines, numbered in A (``-``) and in B (``+``)."""
    la, lb = a.splitlines(), b.splitlines()
    out = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, la, lb, autojunk=False).get_opcodes():
        if tag != "equal":
            out += [f"{name}:{i + 1}: - {la[i]}" for i in range(i1, i2)]
            out += [f"{name}:{j + 1}: + {lb[j]}" for j in range(j1, j2)]
    return out


def read_lines(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, _, rest = line.partition("\t")
        out.setdefault(key, []).append(rest)
    return out


def _literal(node):
    """A parse line's terms, read by walking its syntax tree: tuples,
    lists, ints, ``Fraction`` and ``GaussianRational`` only, no eval."""
    if isinstance(node, (ast.Tuple, ast.List)):
        items = [_literal(e) for e in node.elts]
        return tuple(items) if isinstance(node, ast.Tuple) else items
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_literal(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [_literal(e) for e in node.args]
        kwargs = {k.arg: _literal(k.value) for k in node.keywords}
        if node.func.id == "Fraction":
            return Fraction(*args)
        if node.func.id == "GaussianRational":
            return GaussianRational(*args, **kwargs)
    raise ValueError(f"not a stored term: {ast.dump(node)}")


def _same_value(fa: dict, fb: dict) -> bool:
    """Two maps key -> (num, den) LaurentPoly pairs, equal as values."""
    return fa.keys() == fb.keys() and all(
        fa[k][0] * fb[k][1] == fb[k][0] * fa[k][1] for k in fa)


def _operator_entries(line: str) -> tuple:
    def poly(terms):
        return LaurentPoly({tuple(m): GaussianRational(Fraction(re), Fraction(im))
                            for m, re, im in terms})
    legs_in, legs_out, rows = json.loads(line)
    return (legs_in, legs_out), {(i, j): (poly(n), poly(d))
                                 for i, row in enumerate(rows) for j, n, d in row}


def _parse_terms(line: str):
    """(terms repr, {word: (num, den)}) of an accepted parse line, None for
    a refusal."""
    body, sep, _ = line.rpartition(" units=")
    if not sep or not body.startswith("["):
        return None
    terms = _literal(ast.parse(body, mode="eval").body)
    return body, {w: (LaurentPoly(dict(n)), LaurentPoly(dict(d))) for w, n, d in terms}


def _nf_poly(text: str, label: str):
    regime = regime_from_label(label)
    return parse_expr(text, ParseContext(nf_system(regime)[0], regime))


def classify(name: str, key: str, a: list[str], b: list[str]) -> list[tuple[str, str]]:
    """(class, entry) for every entry of one digest key that differs."""
    if name == "operators":
        if not (a[0].startswith("[") and b[0].startswith("[")):
            return [("refusal change", key)]
        (legs_a, ea), (legs_b, eb) = _operator_entries(a[0]), _operator_entries(b[0])
        if legs_a != legs_b:
            return [("value change", f"{key} legs")]
        out = [("form-only" if _same_value({e: ea[e]}, {e: eb[e]}) else "value change",
                f"{key} entry[{e[0]}][{e[1]}]")
               for e in sorted(ea.keys() | eb.keys()) if ea.get(e) != eb.get(e)]
        return out or [("form-only", f"{key} term order")]
    if name == "numeric_digest":
        ra, rb = ({tuple(x.split()[:2]): float.fromhex(x.split()[2]) for x in side}
                  for side in (a, b))
        return [("rounding" if abs(ra.get(e, 1.0)) < ROUNDING and abs(rb.get(e, 1.0)) < ROUNDING
                 else "value change", f"{key} point {e[0]} {e[1]}")
                for e in sorted(ra.keys() | rb.keys()) if ra.get(e) != rb.get(e)]
    out = []
    for i in range(max(len(a), len(b))):
        x, y = a[i] if i < len(a) else None, b[i] if i < len(b) else None
        if x == y:
            continue
        entry = f"{key} #{i}"
        if x is None or y is None:
            out.append(("value change", entry))
        elif name == "nf_digest":
            same = (_nf_poly(x, key) - _nf_poly(y, key)).is_zero()
            out.append(("form-only" if same else "value change", entry))
        else:
            pa, pb = _parse_terms(x), _parse_terms(y)
            if pa is None or pb is None:
                out.append(("refusal change", entry))
            elif pa[0] == pb[0]:
                out.append(("charge change", entry))
            else:
                out.append(("form-only" if _same_value(pa[1], pb[1]) else "value change", entry))
    return out


def _commands(text: str) -> dict[tuple[str, int], tuple[int, list[str]]]:
    """A transcript's commands, keyed by command line and occurrence: the
    command's line number and the lines it printed."""
    out: dict[tuple[str, int], tuple[int, list[str]]] = {}
    body: list[str] = []
    for n, line in enumerate(text.splitlines(), 1):
        if line.startswith("$ "):
            k = 0
            while (line, k) in out:
                k += 1
            body = []
            out[line, k] = (n, body)
        else:
            body.append(line)
    return out


def classify_transcript(name: str, a: str, b: str) -> list[tuple[str, str]]:
    """(class, entry) for every command of a transcript whose output
    changed: a refusal change when its ``error:`` lines or exit code differ;
    else, for ``qmink nf`` with a ``--regime``, both prints are read back in
    that regime and subtracted, as ``classify`` does for ``nf_digest``.  A
    change in another command's output is left to its raw lines."""
    ca, cb = _commands(a), _commands(b)
    out = []
    for key, (n, x) in ca.items():
        y = cb.get(key, (0, x))[1]
        if x == y:
            continue
        entry = f"{name}:{n} {key[0]}"
        status = [[line for line in side if line.startswith(("[stderr] error:", "[exit "))]
                  for side in (x, y)]
        argv = shlex.split(key[0])[2:]  # after "$ qmink"
        if status[0] != status[1]:
            out.append(("refusal change", entry))
        elif argv[:1] == ["nf"] and "--regime" in argv:
            label = argv[argv.index("--regime") + 1]
            px, py = ("\n".join(line for line in side if not line.startswith("[")) for side in (x, y))
            same = (_nf_poly(px, label) - _nf_poly(py, label)).is_zero()
            out.append(("form-only" if same else "value change", entry))
    return out


def diff_trees(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Reports by check id, transcripts by file and line, then the count of
    changed digest entries and transcript commands per class and the
    entries."""
    out = [f"{k}: only in {side}" for side, x, y in (("A", a, b), ("B", b, a))
           for k in sorted(x) if k not in y and not k.endswith(".lines")]
    entries: list[tuple[str, str]] = []
    for k in sorted(a.keys() & b.keys()):
        if a[k] == b[k] or k.endswith(".lines"):
            continue
        name = k.removesuffix(".json")
        if k.startswith("reports/"):
            out += [f"{k}{line}" for line in diff_reports(json.loads(a[k]), json.loads(b[k]))]
        elif name not in DIGESTS:
            out += diff_lines(k, a[k], b[k])
            entries += classify_transcript(k, a[k], b[k])
        elif f"{name}.lines" not in a.keys() & b.keys():
            out.append(f"{k}: differs; write both trees to classify its entries")
        else:
            la, lb = read_lines(a[f"{name}.lines"]), read_lines(b[f"{name}.lines"])
            for key in sorted(la.keys() | lb.keys()):
                if la.get(key) != lb.get(key):
                    entries += [(c, f"{name} {e}") for c, e in
                                classify(name, key, la.get(key, []), lb.get(key, []))]
    if entries:
        out.append(", ".join(f"{c}: {sum(e[0] == c for e in entries)}" for c in CLASSES))
        out += [f"{c}: {e}" for c, e in entries]
    return out


# -- command line -------------------------------------------------------------

def main(argv: list[str]) -> int:
    mode, *paths = argv or [""]
    if len(paths) != (2 if mode == "diff" else 1) or mode not in ("write", "check", "diff"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dirs = [Path(p) for p in paths]
    if mode == "write":
        try:  # before anything is computed
            for sub in ("reports", "cli"):
                (dirs[0] / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot write {dirs[0]}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        bad = [d for d in dirs if not any(d.glob("**/*.json"))]
        if bad:  # a tree with no artifact compares nothing: an error, not a pass
            print(f"error: cannot read {bad[0]}: no golden artifact there", file=sys.stderr)
            return 2
    if mode == "diff":
        lines = diff_trees(read_tree(dirs[0]), read_tree(dirs[1]))
        for line in lines:
            print(line)
        print(f"{len(lines)} difference line(s) between {dirs[0]} and {dirs[1]}")
        return 1 if lines else 0
    tree, failed = build()
    if mode == "write":
        for path, text in tree.items():
            (dirs[0] / path).write_text(text, encoding="utf-8")
        return 1 if failed else 0
    diffs = check(dirs[0], tree)
    for line in diffs:
        print(line)
    return 1 if diffs or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

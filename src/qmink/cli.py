"""Command line interface: verify suites, print relation tables, reduce
expressions to normal form, report the ordering obstruction, evaluate the
identity suites numerically.

Exit codes: 0 when every executed check behaves as expected (negative
controls count as pass when they fail as designed), 1 on an unexpected
check failure, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass

import cmath

from . import algebras, coeff, intertwiners
from .coeff import ONE, Regime, RegimeKind, Scalar, ZERO, regime_from_label
from .rewrite import Alphabet, NCPoly, RewriteSystem, UnknownGeneratorError

__all__ = ["main", "parse_expr", "ParseContext", "ExprSyntaxError",
           "UnknownSymbolError", "NoncommutativeDivisionError"]

VERSION = "0.1.0"


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ValueError):
    pass


class NoncommutativeDivisionError(ValueError):
    pass


# --------------------------------------------------------------------------
# Expression grammar
# --------------------------------------------------------------------------

@dataclass
class ParseContext:
    alphabet: Alphabet
    regime: Regime


# Input budget.  A product whose term count could exceed MAX_TERMS, a
# power whose term count or longest word could exceed the limits, and an
# exponent larger than MAX_EXPONENT in magnitude are refused before they
# are computed.  Along a product word lengths only add up, so they are
# checked once, on the parsed result, with its term count.  These caps
# bound memory before any arithmetic runs.
#
# Powers multiply along a chain (q^64^64 is q^4096) and through a
# parenthesised base ((q+1)^64)^64, so the exponent budget bounds the
# product of the exponent magnitudes applied to any one subexpression.
# MAX_DEPTH bounds the nesting of factors (parentheses, brackets, star(),
# unary minus), which the parser follows by recursion.  MAX_DIGITS keeps a
# number literal inside what int() converts (4300 digits by default).
#
# MAX_WORK bounds the work itself, which no cap sees: nf parses and reduces
# under ``coeff.WorkBudget(MAX_WORK)``, charged per coefficient product,
# division attempt and step, and rewrite step as they run.  The heaviest
# honest queries measured cost 242 383 units (unit-circle delta^6*alpha^6)
# and 209 437 ((q+qb+t+1)^32); the lightest refused blow-up,
# (q+qb+t+1)^-45, costs 778 317.  400 000 lies near their geometric mean.
# On one core of a 2-core Xeon a unit costs at most about 3 us (a
# unit-circle rewrite step), so the slowest refusal measured, unit-circle
# (delta+alpha)^10, comes after 1.3 s.  MAX_TERMS stays: a product of
# one-term coefficients never reaches the charged double loop.
MAX_TERMS = 1024
MAX_WORK = 400_000
MAX_WORD_LENGTH = 12
MAX_EXPONENT = 64
MAX_DEPTH = 64
MAX_DIGITS = 1000

# Budget of qmink eval.  A sample point costs about 7 ms of float
# evaluation, so the largest run takes about 70 s.
MAX_SAMPLES = 10_000

_SCALAR_ATOMS = {"q": coeff.Q, "qb": coeff.QB, "t": coeff.T, "i": coeff.I}
_HALF_ATOMS = {"q": coeff.Q_HALF, "qb": coeff.QB_HALF, "t": coeff.T_HALF}
# (regime label, atom name) -> the atom specialized to the regime; Scalars
# are immutable, so one instance serves every query.  A half power
# q^(k/2) is taken of the specialized q^(1/2): a monomial Scalar has one
# stored form, so that is what specializing the power would store.
_REGIME_ATOMS = {(regime.label, name): atom.specialize(regime)
                 for regime in coeff.ALL_REGIMES
                 for name, atom in _SCALAR_ATOMS.items()}
_REGIME_HALF_ATOMS = {(regime.label, name): atom.specialize(regime)
                      for regime in coeff.ALL_REGIMES
                      for name, atom in _HALF_ATOMS.items()}


# One token after optional ASCII whitespace (the ASCII characters that
# str.isspace accepts): a run of ASCII digits, a name of ASCII letters,
# digits and '_' with trailing primes, or a punctuation character.  Any
# other character, any non-ASCII digit or letter included, and the end of
# the text match as ``bad``, which ends the scan.
_TOKEN = re.compile(r"""
    [\t-\r\x1c-\x20]*
    (?:
        (?P<num>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*'*)
      | (?P<punct>[-+*/^()\[\],'])
      | (?P<bad>.|\Z)
    )
""", re.VERBOSE | re.DOTALL)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        self._scan()
        self.eof = ("eof", "", len(text))
        self.k = 0
        self.depth = 0      # factors entered and not yet left
        self.magnitude = 1  # largest power product among finished factors

    def _scan(self):
        append = self.toks.append
        for m in _TOKEN.finditer(self.text):
            kind = m.lastgroup
            value = m[kind]
            i = m.end() - len(value)
            if kind == "punct":
                append((value, value, i))
            elif kind == "bad":
                if value:
                    raise ExprSyntaxError(f"unexpected character {value!r}", i)
                return
            else:
                if kind == "num" and len(value) > MAX_DIGITS:
                    raise ExprSyntaxError(
                        f"number too long: {len(value)} digits, budget {MAX_DIGITS}", i)
                append((kind, value, i))

    def peek(self):
        try:
            return self.toks[self.k]
        except IndexError:
            return self.eof

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _as_scalar(p: NCPoly, pos: int) -> Scalar:
    if any(w for w in p.terms):
        raise NoncommutativeDivisionError(
            f"division/inverse needs a scalar subexpression (at position {pos})")
    return p.terms.get((), ZERO)


def parse_expr(text: str, ctx: ParseContext) -> NCPoly:
    """Parse the ASCII grammar into an exact noncommutative polynomial."""
    toks = _Tokens(text)
    out = _parse_sum(toks, ctx)
    tok = toks.peek()
    if tok[0] != "eof":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    _check_budget(len(out.terms), _word_length(out), 0)
    return out


def _parse_sum(toks: _Tokens, ctx: ParseContext) -> NCPoly:
    negate = False
    if toks.peek()[0] in "+-":
        negate = toks.next()[0] == "-"
    out = _parse_term(toks, ctx)
    if negate:
        out = -out
    while toks.peek()[0] in "+-":
        op = toks.next()[0]
        rhs = _parse_term(toks, ctx)
        out = out + rhs if op == "+" else out - rhs
    return out


def _parse_term(toks: _Tokens, ctx: ParseContext) -> NCPoly:
    out = _parse_factor(toks, ctx)
    while toks.peek()[0] in "*/":
        op, _, pos = toks.next()
        rhs = _parse_factor(toks, ctx)
        if op == "*":
            out = _product(out, rhs, pos)
        else:
            out = out.scale(_as_scalar(rhs, pos).inverse())
    return out


def _parse_factor(toks: _Tokens, ctx: ParseContext) -> NCPoly:
    toks.depth += 1
    if toks.depth > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression nested too deeply: budget {MAX_DEPTH} levels",
            toks.peek()[2])
    enclosing = toks.magnitude
    toks.magnitude = 1
    out = _parse_powers(toks, ctx)
    toks.magnitude = max(enclosing, toks.magnitude)
    toks.depth -= 1
    return out


def _parse_powers(toks: _Tokens, ctx: ParseContext) -> NCPoly:
    """A primary and its chain of powers, or a negated factor.

    On return ``toks.magnitude`` is the product of the exponent magnitudes
    applied to the innermost operand: the chain's exponents times the
    largest such product inside the primary.
    """
    kind, value, _ = toks.peek()
    if kind == "-":
        toks.next()
        return -_parse_factor(toks, ctx)
    base_name = value if kind == "name" else None
    out = _parse_primary(toks, ctx)
    while toks.peek()[0] == "^":
        _, _, pos = toks.next()
        kind_e, val = _parse_exponent(toks)
        if abs(val) > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent too large: {val}, budget {MAX_EXPONENT} in magnitude", pos)
        toks.magnitude *= abs(val)
        if toks.magnitude > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent too large: nested powers multiply to {toks.magnitude}, "
                f"budget {MAX_EXPONENT} in magnitude", pos)
        if kind_e == "half":
            if base_name not in _HALF_ATOMS:
                raise ExprSyntaxError("half powers only apply to q, qb, t", pos)
            out = NCPoly.scalar(
                ctx.alphabet, _REGIME_HALF_ATOMS[ctx.regime.label, base_name] ** val)
        else:
            out = _poly_pow(out, val, pos)
        base_name = None
    return out


def _parse_exponent(toks: _Tokens) -> tuple[str, int]:
    """Integer exponent, or (k/2) half-integer form for the base atoms."""
    neg = False
    if toks.peek()[0] == "-":
        toks.next()
        neg = True
    tok = toks.peek()
    if tok[0] == "num":
        toks.next()
        n = int(tok[1])
        return "int", (-n if neg else n)
    if tok[0] == "(":
        toks.next()
        inner_neg = False
        if toks.peek()[0] == "-":
            toks.next()
            inner_neg = True
        num = int(toks.expect("num")[1])
        sign = -1 if (neg ^ inner_neg) else 1
        if toks.peek()[0] == "/":
            toks.next()
            den = int(toks.expect("num")[1])
            toks.expect(")")
            if den != 2:
                raise ExprSyntaxError("only /2 fractional exponents are supported",
                                      tok[2])
            return "half", sign * num
        toks.expect(")")
        return "int", sign * num
    raise ExprSyntaxError("expected an exponent", tok[2])


def _word_length(p: NCPoly) -> int:
    return max(map(len, p.terms), default=0)


def _check_budget(terms: int, length: int, pos: int) -> None:
    if terms > MAX_TERMS:
        raise ExprSyntaxError(
            f"expression too large: up to {terms} terms, budget {MAX_TERMS}", pos)
    if length > MAX_WORD_LENGTH:
        raise ExprSyntaxError(
            f"expression too large: words of length up to {length}, "
            f"budget {MAX_WORD_LENGTH}", pos)


def _product(a: NCPoly, b: NCPoly, pos: int) -> NCPoly:
    """a * b, refused when its term count could exceed the budget."""
    _check_budget(len(a.terms) * len(b.terms), 0, pos)
    return a * b


def _poly_pow(p: NCPoly, k: int, pos: int) -> NCPoly:
    if k < 0:
        return NCPoly.scalar(p.alphabet, _as_scalar(p, pos).inverse() ** -k)
    _check_budget(len(p.terms) ** k, _word_length(p) * k, pos)
    out = NCPoly.scalar(p.alphabet, ONE)
    for _ in range(k):
        out = out * p
    return out


def _parse_primary(toks: _Tokens, ctx: ParseContext) -> NCPoly:
    kind, value, pos = toks.next()
    if kind == "num":
        # specialize is the identity on constants
        n = int(value)
        return NCPoly(ctx.alphabet, {(): coeff.integer(n)} if n else {})
    if kind == "(":
        inner = _parse_sum(toks, ctx)
        toks.expect(")")
        return inner
    if kind == "[":
        left = _parse_sum(toks, ctx)
        toks.expect(",")
        right = _parse_sum(toks, ctx)
        toks.expect("]")
        return _product(left, right, pos) - _product(right, left, pos)
    if kind == "name":
        if value == "star":
            toks.expect("(")
            inner = _parse_sum(toks, ctx)
            toks.expect(")")
            return inner.star(ctx.regime)
        if value in _SCALAR_ATOMS:
            return NCPoly(ctx.alphabet, {(): _REGIME_ATOMS[ctx.regime.label, value]})
        stem = value.rstrip("'")
        if stem in _INDEX_RANGE and toks.peek()[0] == "[":
            toks.next()
            a = _generator_index(toks, stem)
            toks.expect(",")
            b = _generator_index(toks, stem)
            toks.expect("]")
            primes = value[len(stem):]
            while toks.peek()[0] == "'":
                toks.next()
                primes += "'"
            if stem == "x":
                name = algebras.PAIR_NAMES[((a - 1) << 1) | (b - 1)] + primes
            elif stem == "h":
                name = f"h[{a},{b}]" + primes
            else:
                name = f"{stem}[{a},{b}]" + primes
            return _generator(ctx, name, pos)
        return _generator(ctx, value, pos)
    raise ExprSyntaxError(f"unexpected token {value!r}", pos)


# admissible bracket indices: x, u, ub use 1..2, h uses 0..3
_INDEX_RANGE = {"x": (1, 2), "u": (1, 2), "ub": (1, 2), "h": (0, 3)}


def _generator_index(toks: _Tokens, stem: str) -> int:
    _, value, pos = toks.expect("num")
    lo, hi = _INDEX_RANGE[stem]
    k = int(value)
    if not lo <= k <= hi:
        raise ExprSyntaxError(f"{stem}[...] index {value} outside {lo}..{hi}", pos)
    return k


def _generator(ctx: ParseContext, name: str, pos: int) -> NCPoly:
    try:
        return NCPoly(ctx.alphabet, {(ctx.alphabet.index(name),): ONE})
    except UnknownGeneratorError:
        raise UnknownSymbolError(
            f"unknown symbol {name!r} in this regime (at position {pos})") from None


_PRETTY = {
    "alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ",
    "qb": "q̄", "star": "∗", "*": "·",
}
_SUPERS = str.maketrans("0123456789-", "⁰¹²³⁴⁵"
                                        "⁶⁷⁸⁹⁻")


def unicode_pretty(text: str) -> str:
    """Unicode rendering of the ASCII grammar, for documentation output."""
    out = re.sub(r"\bqb\b", _PRETTY["qb"], text)
    for name in ("alpha", "beta", "gamma", "delta"):
        out = re.sub(rf"\b{name}\b", _PRETTY[name], out)
    out = re.sub(r"\^(-?\d+)(?!/)", lambda m: m.group(1).translate(_SUPERS), out)
    out = out.replace("star(", _PRETTY["star"] + "(")
    return out.replace("*", _PRETTY["*"])


# --------------------------------------------------------------------------
# Regime systems for nf
# --------------------------------------------------------------------------

_NF_CACHE: dict[str, tuple[Alphabet, RewriteSystem]] = {}


def nf_system(regime: Regime) -> tuple[Alphabet, RewriteSystem]:
    hit = _NF_CACHE.get(regime.label)
    if hit is None:
        hit = algebras.full_system(regime)
        _NF_CACHE[regime.label] = hit
    return hit


# --------------------------------------------------------------------------
# Suite registry
# --------------------------------------------------------------------------

SUITES = {
    "moves": intertwiners.suite_moves,
    "braid": intertwiners.suite_braid,
    "spectral": intertwiners.suite_spectral,
    "compat": intertwiners.suite_compat,
    "crossed": intertwiners.suite_crossed,
    "pbw": algebras.suite_pbw,
    "delta": algebras.suite_delta,
    "length": algebras.suite_length,
    "classical": algebras.suite_classical,
}

SUITE_ORDER = tuple(SUITES)


def run_suites(regime: Regime, which: str) -> list[intertwiners.CheckReport]:
    names = SUITE_ORDER if which == "all" else (which,)
    reports = []
    for name in names:
        reports.extend(SUITES[name](regime))
    reports.sort(key=lambda r: r.check_id)
    return reports


def _summary(reports) -> dict:
    return {
        "passed": sum(r.status == "pass" for r in reports),
        "failed": sum(r.status == "fail" for r in reports),
        "skipped": sum(r.status == "skip" for r in reports),
    }


def _report_json(regime: Regime, reports) -> dict:
    return {
        "version": VERSION,
        "regime": regime.label,
        "checks": [r.to_json_dict() for r in reports],
        "summary": _summary(reports),
    }


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    regime = regime_from_label(args.regime)
    t0 = time.perf_counter()
    reports = run_suites(regime, args.suite)
    elapsed = time.perf_counter() - t0
    payload = _report_json(regime, reports)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            line = f"{r.status.upper():5s} {r.check_id} ({r.elapsed_ms:.1f} ms)"
            if r.mode == "expect-nonzero":
                line += " [expected-nonzero]"
            if r.status == "fail" and r.residual:
                line += f"  residual: {r.residual}"
            print(line)
        s = payload["summary"]
        print(f"{s['passed']} passed, {s['failed']} failed, "
              f"{s['skipped']} skipped in {elapsed:.2f} s "
              f"[regime {regime.label}]")
    return 0 if payload["summary"]["failed"] == 0 else 1


def _cmd_relations(args) -> int:
    regime = regime_from_label(args.regime)
    alg = algebras.minkowski_system(regime)
    sysr = alg.system
    rows = []
    for lhs in sorted(sysr.rules, key=lambda w: (len(w), w)):
        lhs_str = "*".join(sysr.alphabet.name(k) for k in lhs)
        rows.append({"lhs": lhs_str, "rhs": str(sysr.rules[lhs])})
    if args.format == "json":
        print(json.dumps({
            "regime": regime.label,
            "ordering": list(algebras.x_order(regime)),
            "rules": rows,
        }, indent=2))
    else:
        render = unicode_pretty if args.pretty else (lambda s: s)
        print(f"# oriented relations, regime {regime.label}, "
              f"ordering {' < '.join(render(n) for n in algebras.x_order(regime))}")
        for row in rows:
            print(f"{render(row['lhs'])} -> {render(row['rhs'])}")
    return 0


def _cmd_nf(args) -> int:
    regime = regime_from_label(args.regime)
    # built once per regime, outside the budget: not the query's work
    alph, system = nf_system(regime)
    ctx = ParseContext(alph, regime)
    try:
        with coeff.WorkBudget(MAX_WORK):
            nf = system.normal_form(parse_expr(args.expr, ctx))
    except (ExprSyntaxError, UnknownSymbolError, NoncommutativeDivisionError,
            ZeroDivisionError, coeff.WorkBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = str(nf)
    print(unicode_pretty(out) if args.pretty else out)
    return 0


def _cmd_obstruction(args) -> int:
    aad, abg, _ = algebras.pbw_obstruction_generic()
    print("ordering obstruction of q(qb^2+1) gamma*beta*alpha (generic regime)")
    print(f"  coefficient at alpha*alpha*delta: {aad}")
    print(f"  coefficient at alpha*beta*gamma:  {abg}")
    checks = algebras.obstruction_criteria(aad, abg)
    for label, value in checks.items():
        print(f"  {'PASS' if value else 'FAIL'} {label}")
    return 0 if all(checks.values()) else 1


def _cmd_length(args) -> int:
    regime = regime_from_label(args.regime)
    if regime.kind not in (RegimeKind.UNIT_CIRCLE, RegimeKind.REAL_Q):
        print("error: length runs in unit-circle or real-q regimes", file=sys.stderr)
        return 2
    ell, reports, comparison = algebras.minkowski_length(regime)
    alg = algebras.minkowski_system(regime)
    print(f"length element ({regime.label}): {ell}")
    print(f"normal form: {alg.system.normal_form(ell)}")
    ok = True
    for r in reports:
        print(f"{r.status.upper():5s} {r.check_id}"
              + (f"  {r.detail}" if r.detail else ""))
        ok = ok and r.status != "fail"
    if comparison is not None:
        print(f"comparison scalar against alpha*delta/(2z) + delta*alpha/(2zb)"
              f" - star(gamma)*gamma: {comparison}")
    return 0 if ok else 1


def _cmd_eval(args) -> int:
    regime = regime_from_label(args.regime)
    if not 1 <= args.samples <= MAX_SAMPLES:
        print(f"error: --samples must be between 1 and {MAX_SAMPLES}, "
              f"got {args.samples}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be finite and positive, got {args.tol:g}",
              file=sys.stderr)
        return 2
    if args.t is not None and not (math.isfinite(args.t) and args.t > 0):
        print(f"error: --t must be finite and positive, got {args.t:g}",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    samples: list[tuple[complex, float, complex | None]] = []
    t_values = [args.t] if args.t is not None else [0.5, 2.0]
    if args.q:
        try:
            re, im = (float(v) for v in args.q.split(","))
        except ValueError:
            print(f"error: --q needs RE,IM, got {args.q!r}", file=sys.stderr)
            return 2
        if not (math.isfinite(re) and math.isfinite(im)):
            print(f"error: --q parts must be finite, got {args.q!r}", file=sys.stderr)
            return 2
        q = complex(re, im)
        if regime.kind is RegimeKind.UNIT_CIRCLE and q != 0:
            q /= abs(q)  # project user input onto the circle exactly
        samples.append((q, t_values[0], None))
    while len(samples) < args.samples:
        t = t_values[len(samples) % len(t_values)]
        if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
            q = 0.5 + 1.5 * rng.random()
            samples.append((complex(q), t, None))
        elif regime.kind is RegimeKind.UNIT_CIRCLE:
            theta = rng.uniform(0.08, cmath.pi - 0.08)
            if abs(theta - cmath.pi / 2) < 0.1:
                continue
            samples.append((cmath.exp(1j * theta), t, None))
        else:
            q = cmath.exp(1j * rng.uniform(0.1, 3.0)) * (0.5 + rng.random())
            qb = cmath.exp(1j * rng.uniform(0.1, 3.0)) * (0.5 + rng.random())
            samples.append((q, t, qb))
    # per identity, the sample whose residual is largest against its
    # scale: (residual, scale)
    worst: dict[str, tuple[float, float]] = {}
    for q, t, qb in samples:
        scales: dict[str, float] = {}
        try:
            res = intertwiners.numeric_suite(regime, q, t, qb, scales=scales)
        except (coeff.DomainError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (OverflowError, FloatingPointError) as exc:
            print(f"error: double precision overflow at q = {q}, t = {t:g}: "
                  f"{exc}", file=sys.stderr)
            return 2
        for k, v in res.items():
            s = scales.get(k, 1.0)
            prev = worst.get(k)
            # a NaN compares false; keep it so the check reports FAIL
            if prev is None or v / s > prev[0] / prev[1] or math.isnan(v):
                worst[k] = v, s
    ok = True
    for k in sorted(worst):
        v, s = worst[k]
        passed = v < args.tol * s
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {k}  max residual {v:.3e}"
              + (f"  scale {s:.3e}" if s > 1.0 else ""))
    print(f"{len(samples)} samples, tolerance {args.tol:g}, "
          f"branch: principal square roots, seed {args.seed}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qmink",
        description="exact symbolic checks for the q-deformed Lorentz/Minkowski "
                    "structure and its braided translation symmetry")
    sub = p.add_subparsers(dest="command", required=True)
    regimes = ["generic", "unit-circle", "real-q", "case2+", "case2-"]

    v = sub.add_parser("verify", help="run a suite of exact checks")
    v.add_argument("--regime", choices=regimes, default="generic")
    v.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("relations", help="print the oriented relation table")
    r.add_argument("--regime", choices=regimes, default="unit-circle")
    r.add_argument("--format", choices=["text", "json"], default="text")
    r.add_argument("--pretty", action="store_true",
                   help="unicode rendering instead of the diffable ASCII")
    r.set_defaults(fn=_cmd_relations)

    n = sub.add_parser("nf", help="normal form of an expression")
    n.add_argument("--regime", choices=regimes, default="unit-circle")
    n.add_argument("--expr", required=True)
    n.add_argument("--pretty", action="store_true",
                   help="unicode rendering instead of the diffable ASCII")
    n.set_defaults(fn=_cmd_nf)

    o = sub.add_parser("obstruction",
                       help="generic ordering obstruction and its factors")
    o.set_defaults(fn=_cmd_obstruction)

    l = sub.add_parser("length", help="invariant quadratic length element")
    l.add_argument("--regime", choices=["unit-circle", "real-q"],
                   default="unit-circle")
    l.set_defaults(fn=_cmd_length)

    e = sub.add_parser("eval", help="numeric spot check of the identity suites")
    e.add_argument("--regime", choices=regimes, default="unit-circle")
    e.add_argument("--q", help="RE,IM of a sample point")
    e.add_argument("--t", type=float)
    e.add_argument("--samples", type=int, default=5)
    e.add_argument("--tol", type=float, default=1e-9)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=_cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse (Python 3.11) reads --expr=-- as []
            print(f"error: argument --{name}: expected one argument", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

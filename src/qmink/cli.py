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
from itertools import accumulate

import cmath

from . import algebras, coeff, intertwiners
from .coeff import ONE, Regime, RegimeKind, Scalar, regime_from_label
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


# Input budget.  An exponent larger than MAX_EXPONENT in magnitude is
# refused before it is computed.  Powers multiply along a chain (q^64^64 is
# q^4096) and through a parenthesised base ((q+1)^64)^64, so the exponent
# budget bounds the product of the exponent magnitudes applied to any one
# subexpression.  MAX_DEPTH bounds the nesting of factors (parentheses,
# brackets, star(), unary minus), which the parser follows by recursion.
# MAX_DIGITS keeps a number literal inside what int() converts (4300 digits
# by default).
#
# MAX_WORK bounds the work itself: nf parses and reduces under
# ``coeff.WorkBudget(MAX_WORK)``, charged as the work runs per coefficient
# product, division attempt and step, parsed product (1 plus its word's
# length for one term; for polynomials, the word pairs plus the letters
# they write), word the rewriting scans (1 + len(w) // 16 for the word w:
# a reducible word once, as each is reduced once, and an irreducible one
# at each arrival) and reduction (half a unit per term of the word's
# coefficient and term of its rule, as merged coefficients grow long).
# No term count or word length is capped.  The heaviest honest queries
# measured cost 395 194 units (unit-circle delta^14*alpha^14, 0.3 s),
# 383 912 (unit-circle (delta+alpha)^13, 0.5 s), 253 900 (generic
# delta^5*alpha^5) and 209 469 ((q+qb+t+1)^32); the lightest refused
# blow-up, (q+qb+t+1)^-45, costs 778 317.  400 000 lies between them.  On
# one core of a 2-core Xeon under varying load a unit costs up to about
# 1.6 us (a unit-circle reduction of a 128-letter word), so the slowest
# refusal measured, unit-circle delta^64*alpha^64, comes after 0.4-0.65 s.
MAX_WORK = 400_000
MAX_EXPONENT = 64
MAX_DEPTH = 64
MAX_DIGITS = 1000

# Budget of qmink eval.  A sample point costs about 7 ms of float
# evaluation, so the largest run takes about 70 s.
MAX_SAMPLES = 10_000

_SCALAR_ATOMS = {"q": coeff.Q, "qb": coeff.QB, "t": coeff.T, "i": coeff.I}
_HALF_ATOMS = {"q": coeff.Q_HALF, "qb": coeff.QB_HALF, "t": coeff.T_HALF}
# admissible bracket indices: x, u, ub use 1..2, h uses 0..3
_INDEX_RANGE = {"x": (1, 2), "u": (1, 2), "ub": (1, 2), "h": (0, 3)}
# regime label -> atom name -> the atom specialized to the regime; Scalars
# are immutable, so one instance serves every query.  A half power
# q^(k/2) is taken of the specialized q^(1/2): a monomial Scalar has one
# stored form, so that is what specializing the power would store.
_REGIME_ATOMS = {regime.label: {name: atom.specialize(regime)
                                for name, atom in _SCALAR_ATOMS.items()}
                 for regime in coeff.ALL_REGIMES}
_REGIME_HALF_ATOMS = {regime.label: {name: atom.specialize(regime)
                                     for name, atom in _HALF_ATOMS.items()}
                      for regime in coeff.ALL_REGIMES}


# A text is split at its tokens: a run of ASCII digits, a name of ASCII
# letters, digits and '_' with trailing primes, or a punctuation character.
# The gaps between them may hold only ASCII whitespace (the ASCII characters
# that str.isspace accepts); any other character, any non-ASCII digit or
# letter included, is refused where it stands.
_TOKEN = re.compile(r"([0-9]+|[A-Za-z_][A-Za-z0-9_]*'*|[-+*/^()\[\],'])")
_SPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_KIND = {**dict.fromkeys("0123456789", "num"),
         **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "name"),
         **{c: c for c in "-+*/^()[],'"}}


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds, values and positions of the tokens of text, each list
    ending in the sentinel ``("eof", "", len(text))``."""
    parts = _TOKEN.split(text)  # gap, token, gap, ..., token, gap
    values = parts[1::2]
    kinds = [_KIND[v[0]] for v in values]
    kinds.append("eof")
    values.append("")
    starts = list(accumulate(map(len, parts)))[::2]  # where each gap ends
    if "".join(parts[::2]).strip(_SPACE) or max(map(len, values)) > MAX_DIGITS:
        # refuse the first bad character or long number; a long name passes
        for gap, start, kind, value in zip(parts[::2], starts, kinds, values):
            if bad := gap.lstrip(_SPACE):
                raise ExprSyntaxError(f"unexpected character {bad[0]!r}",
                                      start - len(bad))
            if kind == "num" and len(value) > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"number too long: {len(value)} digits, budget {MAX_DIGITS}", start)
    return kinds, values, starts


def _inverse(v, pos: int) -> Scalar:
    """The inverse of the scalar a parsed value stands for, refused at the
    ``/`` or ``^`` at pos if the value holds a word or is zero."""
    if v.__class__ is tuple:
        if not v[0]:
            return v[1].inverse()  # a pair's coefficient is nonzero
    elif not any(v.terms):
        if not v.terms:
            raise ZeroDivisionError(f"inverse of zero scalar (at position {pos})")
        return v.terms[()].inverse()
    raise NoncommutativeDivisionError(
        f"division/inverse needs a scalar subexpression (at position {pos})")


def _neg(v):
    return (v[0], -v[1]) if v.__class__ is tuple else -v


def parse_expr(text: str, ctx: ParseContext) -> NCPoly:
    """Parse the ASCII grammar into an exact noncommutative polynomial."""
    p = _Parser(text, ctx)
    out = p.parse_sum()
    if p.kinds[p.k] != "eof":
        raise ExprSyntaxError(f"trailing input {p.values[p.k]!r}", p.starts[p.k])
    return p.poly(out)


class _Parser:
    """Recursive descent over the token arrays of ``_scan``, read at ``k``.

    A parsed value is an ``NCPoly``, or a pair ``(word, coefficient)`` for
    one term with a nonzero coefficient: a product of pairs is one word
    concatenation and one ``Scalar`` product, as ``NCPoly.__mul__`` makes
    it.  The ``Scalar`` and ``NCPoly`` operations run as on the ``NCPoly``
    of each pair, in the same order, less zero tests of nonzero values.
    """

    __slots__ = ("kinds", "values", "starts", "k", "depth", "magnitude",
                 "alphabet", "regime", "atoms", "halves")

    def __init__(self, text: str, ctx: ParseContext):
        self.kinds, self.values, self.starts = _scan(text)
        self.k = 0
        self.depth = 0      # factors entered and not yet left
        self.magnitude = 1  # largest power product among finished factors
        self.alphabet = ctx.alphabet
        self.regime = ctx.regime
        self.atoms = _REGIME_ATOMS[ctx.regime.label]
        self.halves = _REGIME_HALF_ATOMS[ctx.regime.label]

    def poly(self, v) -> NCPoly:
        return NCPoly(self.alphabet, {v[0]: v[1]}) if v.__class__ is tuple else v

    def product(self, a, b):
        """a * b, charged to the active budget: ``1 + len(w)`` for the
        word w of a product of pairs, and for polynomials the word pairs
        plus the letters they write."""
        budget = coeff.active_budget
        if a.__class__ is tuple and b.__class__ is tuple:
            w = a[0] + b[0]
            if budget is not None:
                budget.charge(1 + len(w))
            return w, a[1] * b[1]
        a, b = self.poly(a), self.poly(b)
        if budget is not None:
            ta, tb = a.terms, b.terms
            budget.charge(len(ta) * len(tb) + len(tb) * sum(map(len, ta))
                          + len(ta) * sum(map(len, tb)))
        return a * b

    def expect(self, kind: str) -> str:
        k = self.k
        self.k = k + 1
        if (found := self.kinds[k]) != kind:
            found = "end of input" if found == "eof" else repr(self.values[k])
            raise ExprSyntaxError(f"expected {kind!r}, found {found}", self.starts[k])
        return self.values[k]

    def parse_sum(self):
        sign = self.kinds[self.k]
        if sign == "+" or sign == "-":
            self.k += 1
        out = self.parse_term()
        if sign == "-":
            out = _neg(out)
        if (op := self.kinds[self.k]) != "+" and op != "-":
            return out
        # one pass over the terms; a chain of + would copy the sum per term
        terms = [self.poly(out)]
        while (op := self.kinds[self.k]) == "+" or op == "-":
            self.k += 1
            rhs = self.poly(self.parse_term())
            terms.append(rhs if op == "+" else -rhs)
        return NCPoly.sum(self.alphabet, terms)

    def parse_term(self):
        out = self.parse_factor()
        while (op := self.kinds[self.k]) == "*" or op == "/":
            pos = self.starts[self.k]
            self.k += 1
            rhs = self.parse_factor()
            if op == "/":
                rhs = (), _inverse(rhs, pos)
            out = self.product(out, rhs)
        return out

    def parse_factor(self):
        """A primary and its chain of powers, or a negated factor.

        Before return ``magnitude`` is the product of the exponent
        magnitudes applied to the innermost operand: the chain's exponents
        times the largest such product inside the primary.
        """
        k = self.k
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested too deeply: budget {MAX_DEPTH} levels",
                self.starts[k])
        enclosing = self.magnitude
        self.magnitude = 1
        kind, value, pos = self.kinds[k], self.values[k], self.starts[k]
        self.k = k + 1
        if kind == "name":
            out = self.atoms.get(value)
            out = self.parse_name(value, pos) if out is None else ((), out)
        elif kind == "num":
            # specialize is the identity on constants
            n = int(value)
            out = ((), coeff.integer(n)) if n else NCPoly(self.alphabet, {})
        elif kind == "(":
            out = self.parse_sum()
            self.expect(")")
        elif kind == "[":
            left = self.parse_sum()
            self.expect(",")
            right = self.parse_sum()
            self.expect("]")
            out = (self.poly(self.product(left, right))
                   - self.poly(self.product(right, left)))
        elif kind == "-":  # its factor takes the chain of powers
            out = _neg(self.parse_factor())
        elif kind == "eof":
            raise ExprSyntaxError("unexpected end of input", pos)
        else:
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        base_name = value if kind == "name" else None
        while self.kinds[self.k] == "^":
            pos = self.starts[self.k]
            self.k += 1
            half, val = self.parse_exponent()
            if abs(val) > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent too large: {val}, budget {MAX_EXPONENT} in magnitude", pos)
            self.magnitude *= abs(val)
            if self.magnitude > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent too large: nested powers multiply to "
                    f"{self.magnitude}, budget {MAX_EXPONENT} in magnitude", pos)
            if half:
                if base_name not in self.halves:
                    raise ExprSyntaxError("half powers only apply to q, qb, t", pos)
                out = ((), self.halves[base_name] ** val)
            else:
                out = self.power(out, val, pos)
            base_name = None
        if self.magnitude < enclosing:
            self.magnitude = enclosing
        self.depth -= 1
        return out

    def power(self, v, n: int, pos: int):
        """v^n; a negative n inverts a scalar."""
        if n < 0:
            return (), _inverse(v, pos) ** -n
        if v.__class__ is tuple:  # charged as the n products of the loop
            if coeff.active_budget is not None:
                coeff.active_budget.charge(n + len(v[0]) * n * (n + 1) // 2)
            return v[0] * n, v[1] ** n
        out = ((), ONE)
        for _ in range(n):
            out = self.product(out, v)
        return out

    def parse_exponent(self) -> tuple[bool, int]:
        """Integer exponent, or (k/2) half-integer form (True) for the base atoms."""
        sign = 1
        if self.kinds[self.k] == "-":
            self.k += 1
            sign = -1
        kind, pos = self.kinds[self.k], self.starts[self.k]
        if kind == "num":
            return False, sign * int(self.expect("num"))
        if kind != "(":
            raise ExprSyntaxError("expected an exponent", pos)
        self.k += 1
        if self.kinds[self.k] == "-":
            self.k += 1
            sign = -sign
        num = sign * int(self.expect("num"))
        half = self.kinds[self.k] == "/"
        if half:
            self.k += 1
            den = int(self.expect("num"))
        self.expect(")")
        if half and den != 2:
            raise ExprSyntaxError("only /2 fractional exponents are supported", pos)
        return half, num

    def parse_name(self, value: str, pos: int):
        """A generator, or star(...), named by the token value at pos."""
        if value == "star":
            self.expect("(")
            inner = self.poly(self.parse_sum())
            self.expect(")")
            return inner.star(self.regime)
        stem = value.rstrip("'")
        if stem in _INDEX_RANGE and self.kinds[self.k] == "[":
            self.k += 1
            a, b = self.generator_indices(stem)
            primes = value[len(stem):]
            while self.kinds[self.k] == "'":
                self.k += 1
                primes += "'"
            if stem == "x":
                value = algebras.PAIR_NAMES[((a - 1) << 1) | (b - 1)] + primes
            else:
                value = f"{stem}[{a},{b}]" + primes
        try:
            return (self.alphabet.index(value),), ONE
        except UnknownGeneratorError:
            raise UnknownSymbolError(
                f"unknown symbol {value!r} in this regime (at position {pos})") from None

    def generator_indices(self, stem: str) -> list[int]:
        """The a, b of stem[a,b], read after its '['."""
        lo, hi = _INDEX_RANGE[stem]
        out = []
        for close in ",]":
            pos = self.starts[self.k]
            value = self.expect("num")
            if not lo <= int(value) <= hi:
                raise ExprSyntaxError(f"{stem}[...] index {value} outside {lo}..{hi}", pos)
            out.append(int(value))
            self.expect(close)
        return out


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
    try:
        out = str(nf)
    except ValueError:  # str() of an int over its digit limit (4300 by default)
        print(f"error: a coefficient has over {sys.get_int_max_str_digits()} "
              "digits, the limit for printing an integer", file=sys.stderr)
        return 2
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

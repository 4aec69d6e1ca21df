"""Exact scalar arithmetic over Q(i)(q^(1/2), qb^(1/2), t^(1/2)).

Every coefficient in the engine lives in the field of rational functions
in three formal atoms -- the half powers of q, qb and t -- with Gaussian
rational coefficients.  qb is an independent variable in the generic
regime; the other regimes substitute it away (qb := 1/q on the unit
circle, qb := q for real q, and qb := q, t := q in the epsilon = +-1
case).

Fractions are never reduced to a canonical gcd form: equality is decided
by cross multiplication, and construction only tries one exact division,
moves monomials out of the denominator and makes it monic.  That keeps
representations small without a multivariate gcd engine, and zero testing
stays exact because the numerator of a zero value is the zero polynomial.
Most of these speculative divisions fail: the one in construction, and the
cross-cancellations of a product (``Scalar.__mul__``).  ``exact_divide``
rejects most misses by exponent spans before any long division (its
docstring).  The multi-term denominators of the generic rewriting are
powers of qb^2 + 1, which lack q and t, so there the span test runs column
by column.

A coefficient that is a rational integer is stored as an ``int``, so the
loops of the polynomial arithmetic run native ints; any other
(a + b*i)/d is a ``GaussianRational`` of three ints with d >= 1,
gcd(a, b, d) = 1 and b != 0 or d != 1.  Each value has one stored form,
and zero (the int 0) is never stored.  A result with a ``GaussianRational``
side goes through ``_stored``, which gives back an ``int`` for b = 0,
d = 1.  The triple's arithmetic is int arithmetic and ``math.gcd``;
``Fraction`` only enters through its constructor and ``re``/``im`` views.
``terms``, ``leading()`` and a ``map_monos`` callback see
``GaussianRational`` values; an int n prints as the triple (n, 0, 1) and
evaluates as ``complex(n / 1, 0.0)``, the triple's expression.

A ``Scalar`` is stored in Laurent form n/d: ``n`` may hold negative
exponents, and ``d`` is the shared ``_POLY_ONE`` when the denominator is a
monomial (``n`` then holds its inverse), otherwise a monic polynomial with
minimum exponent 0 in every atom.  No zero coefficient is ever stored.  A
product of two scalars over ``_POLY_ONE`` is then ``n1 * n2`` and a sum
``n1 + n2``, with no monomial to strip.  The other paths try their exact
divisions on the stored pairs: divisibility does not change under a
monomial shift, and ``_long_divide`` shifts both sides to minimum exponent
0 first, so each quotient has the terms, in order, it has for the views.

``num`` and ``den`` are read-only views, n*x^m and d*x^m with
m_a = max(0, -min_a(n)): the pair with no common monomial and a monic
denominator.  A shift keeps the term order, so printing, the operator
digest and ``eval`` (which evaluates the views) see that pair.  The
structure maps (``star``, ``specialize``, ``flip_half``,
``subst_qbar_minus_q``) act on the stored pair: each maps a term c*x^e to
chi(e)*c'*x^f(e) for a linear f and a multiplicative chi (the sign of a
half atom's parity, a power of i).  The views are the stored pair times
x^m, so the stored pair maps to the image of the views divided by
chi(m)*x^f(m) in both parts, a factor that construction removes.
``subst_half`` maps the views, whose exponents are not negative, so an
atom set to 0 zeroes the terms that hold it instead of dividing by zero.

``Scalar * Scalar`` with a unit factor (one term over ``_POLY_ONE``: a
Gaussian rational times a monomial) stores ``n1 * n2`` over the other
factor's denominator, and a factor of exactly +1 or -1 (the int +-1)
returns the other factor or its negation.  That is the pair the general
path would build: a stored ``d`` of two or more terms never divides its
``n`` (``exact_divide(n, d) is None``), as ``Scalar.__init__`` stores one
only after its division attempt failed and a sign or a unit factor keeps
it; divisibility does not change under those, the monomial shift or the
rescaling.  So the general path's attempts would all fail, and ``d``
(monic, minimum exponent 0) is its own product with ``_POLY_ONE``.

``_long_divide`` keeps one remainder dict and subtracts f * x^s * d from it
term by term, with no intermediate ``LaurentPoly``.  The leading term of
the remainder cancels exactly (f is chosen so), so it is removed without
the arithmetic; every other term takes the same products, negations and
sums that ``rem - d.shifted(s).scale(f)`` would run.  Deglex order is
preserved by the shift, so the rest of f * x^s * d lies below the removed
term and each step strictly lowers the remainder's leading term, which a
heap of the remainder's monomials finds in O(log n).
The leading terms, and so the quotient's terms and their order, are chosen
as before; the quotient is unique anyway.  ``integer(n)``
stores n over the shared constant 1 without a ``Fraction`` round trip, the
num/den that ``Scalar.from_poly`` builds for it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from math import gcd, lcm
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import MappingProxyType

__all__ = [
    "DomainError", "MissingParameterError",
    "GaussianRational", "LaurentPoly", "Scalar",
    "Regime", "RegimeKind",
    "GENERIC", "UNIT_CIRCLE", "REAL_Q", "CASE2_PLUS", "CASE2_MINUS",
    "ALL_REGIMES", "regime_from_label",
    "ZERO", "ONE", "I", "Q", "QB", "T", "Q_HALF", "QB_HALF", "T_HALF",
    "integer", "rat", "gauss", "exact_divide",
    "WorkBudget", "WorkBudgetExceeded", "ScalarTable",
]


class DomainError(ValueError):
    """Numeric evaluation requested at an excluded parameter value."""


class MissingParameterError(ValueError):
    """A regime or builder was invoked without a parameter it needs."""


class WorkBudgetExceeded(Exception):
    """The work under a ``WorkBudget`` would exceed its units."""


class WorkBudget:
    """Charges the work done in its ``with`` block against ``units``; the
    charge that would exceed them raises ``WorkBudgetExceeded`` before its
    work runs.  Charged: ``len(a) * len(b)`` by ``_mul_general``;
    ``len(p) + len(d)`` per ``exact_divide`` attempt with a divisor of two
    or more terms, and ``len(tail) + 1`` per step of ``_long_divide``;
    ``1 + len(w) // 16`` per word w that ``RewriteSystem.normal_form``
    scans, which is once per distinct reducible word and at each arrival
    of an irreducible one, and per reduction of a word with coefficient c
    by a rule of k terms ``k * c.num_terms() // 2``; per product that
    ``cli``'s parser builds, ``1 + len(w)`` for a one-term product of word
    w (a power of one term at once), and for polynomials a and b
    ``len(a) * len(b)`` word pairs plus the letters they write.  Outside
    any budget each of these sites costs one ``is None`` test.  A budget
    entered inside another passes its charges on to it, and exit restores
    the budget before.  A ``ScalarTable`` is out of force in the block, so
    all charged work runs and is charged."""

    def __init__(self, units: int):
        self.units = self.left = units
        self.outer = self.table = None

    def __enter__(self):
        global active_budget, active_table
        self.outer, active_budget = active_budget, self
        self.table, active_table = active_table, None
        return self

    def __exit__(self, *exc):
        global active_budget, active_table
        active_budget, active_table = self.outer, self.table

    def charge(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise WorkBudgetExceeded(
                f"expression too large: over the budget of {self.units} "
                "steps of arithmetic and rewriting")
        if self.outer is not None:
            self.outer.charge(units)


active_budget: WorkBudget | None = None  # the one in force, if any


class ScalarTable:
    """Each result of ``Scalar`` ``*`` and ``+`` and of ``exact_divide`` in
    its ``with`` block, built once and shared; ``-`` adds the negation,
    which is built once too.

    Operands are keyed by their stored forms: a ``Scalar`` by its
    ``form_id`` (interned in ``ids``), a polynomial by its terms.  Each
    operation is a pure function of its operands' stored pairs, so a
    shared result has the stored form building it again gives.  Entered
    and left as a ``WorkBudget`` is; none is in force under a budget, so
    every charge is paid.  Outside one each operation costs one ``is
    None`` test before its work and one after.
    """

    __slots__ = ("ids", "products", "sums", "quotients", "negations", "outer")

    def __init__(self):
        self.ids: dict = {}
        self.products: dict[tuple[int, int], Scalar] = {}
        self.sums: dict[tuple[int, int], Scalar] = {}
        self.quotients: dict[tuple, LaurentPoly | None] = {}
        self.negations: dict[int, Scalar] = {}
        self.outer: ScalarTable | None = None

    def __enter__(self):
        global active_table
        self.outer = active_table
        active_table = self if active_budget is None else None
        return self

    def __exit__(self, *exc):
        global active_table
        active_table = self.outer


active_table: ScalarTable | None = None  # the one in force, if any


# --------------------------------------------------------------------------
# Gaussian rationals
# --------------------------------------------------------------------------

def _part(n: int, d: int):
    """The part n/d: an int when integral, else a reduced Fraction."""
    if d == 1:
        return n
    x = Fraction(n, d)
    return x.numerator if x.denominator == 1 else x


class GaussianRational:
    """Exact complex rational (a + b*i)/d, stored as three ints.

    Invariants: d >= 1, gcd(a, b, d) = 1, and zero is (0, 0, 1).  So a
    value has exactly one stored triple, and ``==`` compares triples.  The
    arithmetic uses int operations and ``math.gcd`` only; a result whose d
    is 1 (every product and sum of integral coefficients) skips the gcd.
    Every d built is a product of positive ints (d1*d2, a^2 + b^2, the lcm
    of two Fraction denominators), so no sign is ever moved out of it.

    ``re`` and ``im`` are read-only views: an ``int`` when the part is
    integral, else a reduced ``Fraction``.  ``str``, ``repr`` and ``hash``
    go through them, so they print and hash as the parts' values do.
    ``to_complex`` divides a and b by d: int true division is correctly
    rounded, so each float is that of the reduced part.  The constructor
    takes int or Fraction parts.  ``+``, ``-`` and ``*`` also take an
    ``int`` on either side, with the result of ``GaussianRational(k, 0)``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction, im: int | Fraction):
        if type(re) is int and type(im) is int:
            self.a = re
            self.b = im
            self.d = 1
            return
        re = Fraction(re)
        im = Fraction(im)
        rd, imd = re.denominator, im.denominator
        d = lcm(rd, imd)
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // imd)
        self.d = d

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    @property
    def re(self) -> int | Fraction:
        return _part(self.a, self.d)

    @property
    def im(self) -> int | Fraction:
        return _part(self.b, self.d)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "GaussianRational | int") -> "GaussianRational":
        if other.__class__ is int:
            return _reduced(self.a + other * self.d, self.b, self.d)
        d, e = self.d, other.d
        if d != e:
            return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)
        if d != 1:
            return _reduced(self.a + other.a, self.b + other.b, d)
        out = _new(GaussianRational)
        out.a = self.a + other.a
        out.b = self.b + other.b
        out.d = 1
        return out

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational | int") -> "GaussianRational":
        return self + (-other)

    def __rsub__(self, other: int) -> "GaussianRational":
        return -self + other

    def __neg__(self) -> "GaussianRational":
        out = _new(GaussianRational)
        out.a = -self.a
        out.b = -self.b
        out.d = self.d
        return out

    def __mul__(self, other: "GaussianRational | int") -> "GaussianRational":
        if other.__class__ is int:
            return _reduced(self.a * other, self.b * other, self.d)
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d != 1:
            return _reduced(a * c - b * e, a * e + b * c, d)
        out = _new(GaussianRational)
        out.a = a * c - b * e
        out.b = a * e + b * c
        out.d = 1
        return out

    def __rmul__(self, other: int) -> "GaussianRational":
        return self * other  # through __mul__, so a tracer wrapping it counts it

    def conj(self) -> "GaussianRational":
        out = _new(GaussianRational)
        out.a = self.a
        out.b = -self.b
        out.d = self.d
        return out

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(d * a, -d * b, n)  # d/(a + b*i) = d*(a - b*i)/n

    def power(self, k: int) -> "GaussianRational":
        base = self if k >= 0 else self.inverse()
        out = GR_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            ims = "i"
        elif im == -1:
            ims = "-i"
        else:
            ims = f"{im}*i"
        if not re:
            return ims
        sign = "+" if im > 0 else "-"
        mag = ims.lstrip("-")
        return f"{re} {sign} {mag}"


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d >= 1, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new(GaussianRational)
    out.a = a
    out.b = b
    out.d = d
    return out


GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


def _stored(c: GaussianRational | int) -> GaussianRational | int:
    """The stored form of a coefficient: a rational integer as an int."""
    if c.__class__ is GaussianRational and not c.b and c.d == 1:
        return c.a
    return c


def _gr(c: GaussianRational | int) -> GaussianRational:
    """A stored coefficient as a GaussianRational."""
    return GaussianRational(c, 0) if c.__class__ is int else c


# --------------------------------------------------------------------------
# Laurent polynomials in the three half-power atoms
# --------------------------------------------------------------------------

Mono = tuple[int, int, int]  # exponents of q^(1/2), qb^(1/2), t^(1/2)

_MONO_ONE: Mono = (0, 0, 0)
_ATOM_NAMES = ("q", "qb", "t")
_POLY_ONE = None  # set below, after LaurentPoly is defined


def _deglex_key(m: Mono):
    return (m[0] + m[1] + m[2], m)


class LaurentPoly:
    """Sparse Laurent polynomial: finite map monomial -> nonzero Gaussian
    rational, stored as an ``int`` when integral (module docstring)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Mono, GaussianRational | int]):
        self._terms = {m: _stored(c) for m, c in terms.items()}

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType({m: _gr(c) for m, c in self._terms.items()})

    @staticmethod
    def zero() -> "LaurentPoly":
        return _lp({})

    @staticmethod
    def const(c: GaussianRational | int) -> "LaurentPoly":
        return LaurentPoly.monomial(_MONO_ONE, c)

    @staticmethod
    def monomial(m: Mono, c: GaussianRational | int = GR_ONE) -> "LaurentPoly":
        c = _stored(c)
        return _lp({m: c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    __hash__ = None  # representation is not canonical enough for hashing

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                s = s if s.__class__ is int else _stored(s)
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _lp(out)

    def __neg__(self) -> "LaurentPoly":
        return _lp({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if len(self._terms) == 1:
            return other._times_term(self._terms)
        if len(other._terms) == 1:
            return self._times_term(other._terms)
        return _mul_general(self, other)

    def _times_term(self, term: dict[Mono, GaussianRational | int]) -> "LaurentPoly":
        """self times the one-term polynomial with stored terms ``term``.

        The product of the general loop, built in one pass: translating by
        a monomial is injective, so no two products share a monomial, and
        Q(i) has no zero divisors, so no product is zero (no zero is ever
        stored).  The terms come out in self's order, as in the loop.
        """
        (m0, c0), = term.items()
        if c0.__class__ is int and c0 == 1:
            return self if m0 == _MONO_ONE else self.shifted(m0)
        a, b, e = m0
        out = {}
        for m, c in self._terms.items():
            c = c * c0
            out[(m[0] + a, m[1] + b, m[2] + e)] = c if c.__class__ is int else _stored(c)
        return _lp(out)

    def scale(self, c: GaussianRational | int) -> "LaurentPoly":
        c = _stored(c)
        return self._times_term({_MONO_ONE: c}) if c else _lp({})

    def map_monos(self, fn) -> "LaurentPoly":
        """Apply a monomial substitution; colliding images are merged.
        ``fn(m, c)`` gets each coefficient as a ``GaussianRational``."""
        return self._map_monos(lambda m, c: fn(m, _gr(c)))

    def _map_monos(self, fn) -> "LaurentPoly":
        """``map_monos`` with ``fn`` given the stored coefficients."""
        out: dict[Mono, GaussianRational | int] = {}
        for m, c in self._terms.items():
            m2, c2 = fn(m, c)
            c2 = c2 if c2.__class__ is int else _stored(c2)
            s = out.get(m2)
            if s is None:
                if c2:
                    out[m2] = c2
            else:
                s = s + c2
                s = s if s.__class__ is int else _stored(s)
                if s:
                    out[m2] = s
                else:
                    del out[m2]
        return _lp(out)

    def min_exps(self) -> Mono:
        it = iter(self._terms)
        a, b, c = next(it)
        for x, y, z in it:  # comparisons, not min() calls: this is hot
            if x < a:
                a = x
            if y < b:
                b = y
            if z < c:
                c = z
        return (a, b, c)

    def shifted(self, delta: Mono) -> "LaurentPoly":
        da, db, dc = delta
        return _lp({(m[0] + da, m[1] + db, m[2] + dc): v
                    for m, v in self._terms.items()})

    def leading(self) -> tuple[Mono, GaussianRational]:
        m = max(self._terms, key=_deglex_key)
        return m, _gr(self._terms[m])

    def eval(self, qh: complex, qbh: complex, th: complex) -> complex:
        out = 0j
        for (a, b, c), v in self._terms.items():
            v = complex(v / 1, 0.0) if v.__class__ is int else v.to_complex()
            out += v * qh ** a * qbh ** b * th ** c
        return out

    def subst_half(self, qh: GaussianRational | None,
                   qbh: GaussianRational | None,
                   th: GaussianRational | None) -> "LaurentPoly":
        """Exactly substitute values for some of the half-power atoms."""
        vals = (qh, qbh, th)

        def fn(m, c):
            m2 = list(m)
            for k, v in enumerate(vals):
                if v is not None:
                    c = c * v.power(m[k])
                    m2[k] = 0
            return tuple(m2), c

        return self._map_monos(fn)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, key=_deglex_key, reverse=True):
            c = self._terms[m]
            ms = _mono_str(m)
            parts.append(_coeff_mono_str(c, ms, first=not parts))
        return "".join(parts)


def _lp(terms: dict[Mono, GaussianRational | int]) -> LaurentPoly:
    """The LaurentPoly with stored terms ``terms``, already in stored form."""
    out = _new(LaurentPoly)
    out._terms = terms
    return out


def _mul_general(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a*b by the full double loop, merging and cancelling like terms.

    ``LaurentPoly.__mul__`` uses it when both factors have two or more
    terms; the tests use it as the reference for the one-term fast path.
    """
    budget = active_budget
    if budget is not None:
        budget.charge(len(a._terms) * len(b._terms))
    out: dict[Mono, GaussianRational | int] = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = c1 * c2
            c = c if c.__class__ is int else _stored(c)
            s = out.get(m)
            if s is None:
                out[m] = c  # a product of nonzero coefficients is nonzero
            else:
                s = s + c
                s = s if s.__class__ is int else _stored(s)
                if s:
                    out[m] = s
                else:
                    del out[m]
    return _lp(out)


def _mono_str(m: Mono) -> str:
    bits = []
    for name, e in zip(_ATOM_NAMES, m):
        if e == 0:
            continue
        if e % 2 == 0:
            k = e // 2
            bits.append(name if k == 1 else f"{name}^{k}")
        else:
            bits.append(f"{name}^({e}/2)")
    return "*".join(bits)


def _coeff_mono_str(c: GaussianRational | int, ms: str, first: bool) -> str:
    c = _gr(c)  # an int prints as its triple
    neg = (not c.b and c.a < 0) or (not c.a and c.b < 0)  # d > 0
    mag = -c if neg else c
    if ms:
        if mag.a == 1 and not mag.b and mag.d == 1:
            body = ms
        else:
            cs = str(mag)
            if " " in cs:
                cs = f"({cs})"
            body = f"{cs}*{ms}"
    else:
        body = str(mag) if " " not in str(mag) else f"({mag})"
    if first:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


_POLY_ONE = LaurentPoly({_MONO_ONE: GR_ONE})


def _exp_spans(terms) -> Mono:
    """Per atom, the largest minus the smallest exponent among the terms."""
    a, b, c = zip(*terms)
    return (max(a) - min(a), max(b) - min(b), max(c) - min(c))


def _short_column(terms, sd: Mono) -> bool:
    """Whether some column of the terms spans less than sd in an atom.

    sd has a 0 in one or two atoms; a column is the set of terms with the
    same exponents in those atoms.  One pass per atom with sd > 0, keeping
    each column's smallest and largest exponent in it.
    """
    lacks = [k for k in (0, 1, 2) if not sd[k]]
    a, b = lacks[0], lacks[-1]  # a == b when only one atom is lacked
    for j in (0, 1, 2):
        need = sd[j]
        if not need:
            continue
        cols: dict[tuple[int, int], list[int]] = {}  # column -> [lo, hi]
        for m in terms:
            key = (m[a], m[b])
            e = m[j]
            col = cols.get(key)
            if col is None:
                cols[key] = [e, e]
            elif e < col[0]:
                col[0] = e
            elif e > col[1]:
                col[1] = e
        for lo, hi in cols.values():
            if hi - lo < need:
                return True
    return False


def exact_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """Return p/d when d divides p exactly, else None.

    Works up to monomial units: both arguments are shifted to honest
    polynomials first, so divisibility is decided in the Laurent ring.

    Two necessary conditions are tested before any long division, and
    both are exact because the Laurent ring is an integral domain:

    - a single term is a unit, so a divisor with two or more terms (not a
      unit) cannot divide it;
    - when d has span 0 in some atoms (it lacks them, as (qb^2+1)^k lacks
      q and t), each column of p must span at least as much as d in every
      other atom.  The span of a polynomial in an atom is its largest minus
      its smallest exponent there, and spans add under products.  A column
      is the sum of p's terms that share their exponents in the atoms d
      lacks.  Write d = x^e * d' with d' free of those atoms and p = sum_g
      x^g * p_g over its columns, each p_g nonzero and free of them too.
      Multiplying by d' keeps each column in place, so d' * s has the
      columns d' * s_g, and d divides p exactly when d' divides every p_g.
      Then p_g = d' * s_g, and span(p_g) >= span(d') = span(d).

    A divisor in all three atoms goes straight to the long division: the
    same test on the whole of p rejected no pair in a pass of the suites
    or of the golden nf queries.  Only a pair that passes is divided out
    (``_long_divide``), which alone decides divisibility.

    In a ``ScalarTable``, each pair of stored terms is divided once.  The
    key lists them flat, as ``Scalar.pair_id`` does, with None between.
    """
    table = active_table
    if table is not None:
        pt, dt = p._terms, d._terms
        key = (*pt, *pt.values(), None, *dt, *dt.values())
        out = table.quotients.get(key, _UNSET)
        if out is not _UNSET:
            return out
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        out = LaurentPoly.zero()
    elif len(d._terms) == 1:  # a unit always divides
        out = _long_divide(p, d)
    elif len(p._terms) == 1:
        out = None
    else:
        budget = active_budget  # the spans, the shifts and the heap
        if budget is not None:
            budget.charge(len(p._terms) + len(d._terms))
        sd = _exp_spans(d._terms)
        out = None if 0 in sd and _short_column(p._terms, sd) else _long_divide(p, d)
    if table is not None:
        table.quotients[key] = out
    return out


_UNSET = object()


def _long_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """p/d by deglex long division of the shifted polynomials, else None.

    p and d are nonzero.  The division decides divisibility on its own;
    ``exact_divide`` only adds cheap rejects in front of it.
    """
    mp = p.min_exps()
    md = d.min_exps()
    rem = p.shifted(tuple(-e for e in mp))._terms
    d2 = d.shifted(tuple(-e for e in md))._terms
    lead_m = max(d2, key=_deglex_key)
    la, lb, lc = lead_m
    lead_inv = _stored(_gr(d2[lead_m]).inverse())
    tail = [(m, c) for m, c in d2.items() if m != lead_m]
    quot: dict[Mono, GaussianRational | int] = {}
    # max-heap of the remainder's monomials in deglex order, as negated
    # keys; an entry whose term has cancelled is skipped when it surfaces
    heap = [(-a - b - e, -a, -b, -e) for a, b, e in rem]
    heapify(heap)
    budget = active_budget
    while rem:
        _, na, nb, ne = heappop(heap)
        m = (-na, -nb, -ne)
        if m not in rem:
            continue
        if budget is not None:
            budget.charge(len(tail) + 1)
        sa, sb, sc = m[0] - la, m[1] - lb, m[2] - lc
        if sa < 0 or sb < 0 or sc < 0:
            return None
        f = rem.pop(m) * lead_inv
        f = f if f.__class__ is int else _stored(f)
        quot[(sa, sb, sc)] = f
        # rem -= f * x^s * d2: the leading terms cancel exactly (popped
        # above); the others, all below m, take the products, negations
        # and sums that rem - d2.shifted(s).scale(f) would compute
        for (a, b, e), dc in tail:
            k = (a + sa, b + sb, e + sc)
            v = -(dc * f)
            v = v if v.__class__ is int else _stored(v)
            old = rem.get(k)
            if old is None:
                rem[k] = v
                heappush(heap, (-k[0] - k[1] - k[2], -k[0], -k[1], -k[2]))
            else:
                v = old + v
                v = v if v.__class__ is int else _stored(v)
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    # restore the monomial factor stripped from p and d
    delta = (mp[0] - md[0], mp[1] - md[1], mp[2] - md[2])
    out = _lp(quot)
    return out.shifted(delta) if delta != _MONO_ONE else out


# --------------------------------------------------------------------------
# Regimes
# --------------------------------------------------------------------------

class RegimeKind(Enum):
    GENERIC = "generic"
    UNIT_CIRCLE = "unit-circle"
    REAL_Q = "real-q"
    CASE2 = "case2"


@dataclass(frozen=True)
class Regime:
    """Specialization of the formal parameters.

    generic keeps q, qb, t independent; unit-circle substitutes
    qb^(1/2) := q^(-1/2); real-q substitutes qb^(1/2) := q^(1/2); case2
    additionally identifies t with q and carries epsilon = +-1.
    """

    kind: RegimeKind
    epsilon: int = 0

    def __post_init__(self):
        if self.kind is RegimeKind.CASE2:
            if self.epsilon not in (1, -1):
                raise MissingParameterError("case2 regime needs epsilon = +1 or -1")
        elif self.epsilon != 0:
            raise MissingParameterError(f"{self.kind.value} regime takes no epsilon")

    @property
    def label(self) -> str:
        if self.kind is RegimeKind.CASE2:
            return "case2+" if self.epsilon == 1 else "case2-"
        return self.kind.value

    def subst_mono(self, m: Mono) -> Mono:
        a, b, c = m
        k = self.kind
        if k is RegimeKind.GENERIC:
            return m
        if k is RegimeKind.UNIT_CIRCLE:
            return (a - b, 0, c)
        if k is RegimeKind.REAL_Q:
            return (a + b, 0, c)
        return (a + b + c, 0, 0)  # CASE2: qb := q, t := q


GENERIC = Regime(RegimeKind.GENERIC)
UNIT_CIRCLE = Regime(RegimeKind.UNIT_CIRCLE)
REAL_Q = Regime(RegimeKind.REAL_Q)
CASE2_PLUS = Regime(RegimeKind.CASE2, 1)
CASE2_MINUS = Regime(RegimeKind.CASE2, -1)
ALL_REGIMES = (GENERIC, UNIT_CIRCLE, REAL_Q, CASE2_PLUS, CASE2_MINUS)

_LABELS = {r.label: r for r in ALL_REGIMES}


def regime_from_label(label: str) -> Regime:
    try:
        return _LABELS[label]
    except KeyError:
        raise MissingParameterError(
            f"unknown regime {label!r}; expected one of {sorted(_LABELS)}") from None


# --------------------------------------------------------------------------
# Scalars: fractions of Laurent polynomials
# --------------------------------------------------------------------------

class Scalar:
    """Element of the rational-function field in Laurent form n/d, with
    read-only views ``num``/``den`` (module docstring)."""

    __slots__ = ("n", "d", "_id")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self._id = 0
        if num.is_zero:
            self.n, self.d = num, _POLY_ONE
            return
        # cheap cancellation: not a gcd, just an exact-division attempt,
        # which catches the common case of a denominator factor surviving
        # verbatim inside the numerator
        if len(den._terms) > 1:
            quot = exact_divide(num, den)
            if quot is not None:
                num, den = quot, _POLY_ONE
        # move the denominator's monomial into the numerator, make it monic
        md = den.min_exps()
        if md != _MONO_ONE:
            shift = (-md[0], -md[1], -md[2])
            num = num.shifted(shift)
            den = den.shifted(shift)
        lc = den._terms[max(den._terms, key=_deglex_key)]
        if lc.__class__ is not int or lc != 1:
            inv = _stored(_gr(lc).inverse())
            num = num.scale(inv)
            den = den.scale(inv)
        self.n = num
        self.d = den if len(den._terms) > 1 else _POLY_ONE

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "Scalar":
        return _scalar(p, _POLY_ONE)

    # -- the stored pair ---------------------------------------------------

    def _views(self) -> tuple[LaurentPoly, LaurentPoly]:
        """n*x^m and d*x^m with m_a = max(0, -min_a(n))."""
        n, d = self.n, self.d
        if not n._terms:
            return n, d
        a, b, c = n.min_exps()
        if a >= 0 and b >= 0 and c >= 0:
            return n, d
        m = (-a if a < 0 else 0, -b if b < 0 else 0, -c if c < 0 else 0)
        return n.shifted(m), d.shifted(m)

    num = property(lambda self: self._views()[0])
    den = property(lambda self: self._views()[1])

    def form_id(self, ids: dict) -> int:
        """A small int naming this exact stored pair, kept on the Scalar:
        ``pair_id(ids)`` on first use.  Ids come from one process-wide
        counter and are never reused, so an id names one stored pair also
        after ``ids`` is dropped.  It is about storage, not value: equal
        values stored differently get different ids.
        """
        i = self._id
        if not i:
            i = self._id = self.pair_id(ids)
        return i

    def pair_id(self, ids: dict) -> int:
        """The id of this stored pair in ``ids``, interned there on first
        sight; not kept, so pairs with two ``form_id``s meet in one ``ids``.
        The key is one flat tuple, few objects for the collector to trace:
        ``n``'s monomials, then its coefficients, in stored order, ``d is
        _POLY_ONE``, then ``d``'s.  A monomial (a tuple) never equals a
        coefficient, so equal keys mean equal terms."""
        d = self.d
        nt, dt = self.n._terms, d._terms
        key = (*nt, *nt.values(), d is _POLY_ONE, *dt, *dt.values())
        i = ids.get(key)
        if i is None:
            i = ids[key] = next(_form_ids)
        return i

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.n._terms

    def num_terms(self) -> int:
        """The numerator's terms: the work of a product by one term."""
        return len(self.n._terms)

    def is_one(self) -> bool:
        return self.n == self.d

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.d is other.d or self.d == other.d:
            return self.n == other.n
        return (self.n * other.d) == (other.n * self.d)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        table = active_table
        if table is not None:
            ids = table.ids
            key = (self._id or self.form_id(ids), other._id or other.form_id(ids))
            out = table.sums.get(key)
            if out is not None:
                return out
        n1, n2 = self.n, other.n
        d1, d2 = self.d, other.d
        if not n1._terms:
            out = other
        elif not n2._terms:
            out = self
        elif d1 is d2 or d1 == d2:
            # over 1, a sum that cancels is stored as ZERO is
            out = _scalar(n1 + n2, d1) if d1 is _POLY_ONE else Scalar(n1 + n2, d1)
        else:
            # when one denominator divides the other, keep the larger one
            quot = exact_divide(d1, d2)
            if quot is not None:
                out = Scalar(n1 + n2 * quot, d1)
            else:
                quot = exact_divide(d2, d1)
                out = (Scalar(n1 * d2 + n2 * d1, d1 * d2) if quot is None
                       else Scalar(n1 * quot + n2, d2))
        if table is not None:
            table.sums[key] = out
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        table = active_table
        if table is None:
            return self + (-other)
        # -other is built, and its stored pair interned, once per table
        oid = other._id or other.form_id(table.ids)
        neg = table.negations.get(oid)
        if neg is None:
            neg = table.negations[oid] = -other
        return self + neg

    def __neg__(self) -> "Scalar":
        return _scalar(-self.n, self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        table = active_table
        if table is not None:
            ids = table.ids
            key = (self._id or self.form_id(ids), other._id or other.form_id(ids))
            out = table.products.get(key)
            if out is not None:
                return out
        n1, n2 = self.n, other.n
        d1, d2 = self.d, other.d
        t1, t2 = n1._terms, n2._terms
        if not t1 or not t2:
            out = ZERO
        # a factor of exactly +-1 (the one constant term, the int +-1, over
        # the denominator 1) gives the other factor or its negation
        elif (d2 is _POLY_ONE and len(t2) == 1
              and (c := t2.get(_MONO_ONE)).__class__ is int and (c == 1 or c == -1)):
            out = self if c == 1 else -self
        elif (d1 is _POLY_ONE and len(t1) == 1
              and (c := t1.get(_MONO_ONE)).__class__ is int and (c == 1 or c == -1)):
            out = other if c == 1 else -other
        elif d1 is _POLY_ONE and (d2 is _POLY_ONE or len(t1) == 1):
            # over 1 both, or a unit (one term over 1) times n2/d2
            out = _scalar(n1 * n2, d2)
        elif d2 is _POLY_ONE and len(t2) == 1:
            out = _scalar(n1 * n2, d1)
        else:
            # cross-cancel before multiplying to slow denominator growth
            if d2 is not _POLY_ONE:
                quot = exact_divide(n1, d2)
                if quot is not None:
                    n1, d2 = quot, _POLY_ONE
            if d1 is not _POLY_ONE:
                quot = exact_divide(n2, d1)
                if quot is not None:
                    n2, d1 = quot, _POLY_ONE
            out = Scalar(n1 * n2, d1 * d2)
        if table is not None:
            table.products[key] = out
        return out

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not other.n._terms:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.n * other.d, self.d * other.n)

    def inverse(self) -> "Scalar":
        if not self.n._terms:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.d, self.n)

    def __pow__(self, k: int) -> "Scalar":
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        k, t = abs(k), base.n._terms
        if base.d is _POLY_ONE and len(t) == 1:
            # a unit: the one term that the loop would build, in one step
            (m, c), = t.items()
            p = c
            for _ in range(k - 1):
                p = p * c
            return _scalar(_lp({(m[0] * k, m[1] * k, m[2] * k): _stored(p)}), _POLY_ONE)
        out = base
        for _ in range(k - 1):
            out = out * base
        return out

    # -- structure maps ----------------------------------------------------

    def star(self, regime: Regime = GENERIC) -> "Scalar":
        """Conjugation: q <-> qb, i -> -i, t fixed; then specialize."""

        def fn(m, c):
            return (m[1], m[0], m[2]), c if c.__class__ is int else c.conj()

        num, den = self.n._map_monos(fn), self.d._map_monos(fn)
        if regime.kind is RegimeKind.GENERIC:
            return Scalar(num, den)
        return _map_pair(num, den, lambda m, c: (regime.subst_mono(m), c))

    def specialize(self, regime: Regime) -> "Scalar":
        if regime.kind is RegimeKind.GENERIC:
            return self
        return _map_pair(self.n, self.d, lambda m, c: (regime.subst_mono(m), c))

    def flip_half(self, atom: int) -> "Scalar":
        """Field automorphism sending one half-power atom to its negative."""
        return _map_pair(self.n, self.d, lambda m, c: (m, (-c if m[atom] % 2 else c)))

    def subst_qbar_minus_q(self) -> "Scalar":
        """Variable substitution qb := -q (via qb^(1/2) := i*q^(1/2))."""
        return _map_pair(self.n, self.d,
                         lambda m, c: ((m[0] + m[1], 0, m[2]), c * GR_I.power(m[1])))

    def subst_half(self, qh: GaussianRational | None = None,
                   qbh: GaussianRational | None = None,
                   th: GaussianRational | None = None) -> "Scalar":
        num, den = self._views()
        return Scalar(num.subst_half(qh, qbh, th), den.subst_half(qh, qbh, th))

    # -- numerics ----------------------------------------------------------

    def eval(self, q: complex, t: float, regime: Regime = GENERIC,
             qbar: complex | None = None) -> complex:
        """Double precision value at a sample point, from the views.

        One fixed branch per evaluation: the principal square roots of q,
        qbar and t give the three atoms.  qbar defaults to conj(q).
        """
        q = complex(q)
        for bad in (0, 1j, -1j):
            if abs(q - bad) < 1e-12:
                raise DomainError(f"q = {bad} is excluded")
        if regime.kind is RegimeKind.UNIT_CIRCLE and abs(abs(q) - 1) > 1e-12:
            raise DomainError("unit-circle regime needs |q| = 1")
        if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
            if abs(q.imag) > 1e-12 or q.real <= 0:
                raise DomainError("real-q/case2 regimes need real positive q")
        if t <= 0:
            raise DomainError("t must be a positive real")
        qb = q.conjugate() if qbar is None else complex(qbar)
        qh = cmath.sqrt(q)
        qbh = cmath.sqrt(qb)
        th = math.sqrt(t)
        num, den = self._views()
        dv = den.eval(qh, qbh, th)
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return num.eval(qh, qbh, th) / dv

    # -- divisibility ------------------------------------------------------

    def numerator_divisible_by(self, factor: "Scalar") -> bool:
        """True when factor's numerator divides this numerator exactly."""
        return exact_divide(self.n, factor.n) is not None

    def numerator_is_one_term_times(self, factor: "Scalar") -> bool:
        """True when this numerator is factor's numerator times one term, a
        monomial times a constant: then both vanish at the same points."""
        quot = exact_divide(self.n, factor.n)
        return quot is not None and len(quot._terms) == 1

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        num, den = self._views()
        ns = str(num)
        if den == _POLY_ONE:
            return ns
        ds = str(den)
        if len(num._terms) > 1:
            ns = f"({ns})"
        if len(den._terms) > 1 or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _scalar(n: LaurentPoly, d: LaurentPoly) -> Scalar:
    """The Scalar with stored pair n, d, which must already be normalised."""
    out = _new(Scalar)
    out.n = n
    out.d = d
    out._id = 0
    return out


_form_ids = itertools.count(1)  # the ids of Scalar.form_id; 0 is "none yet"


def _map_pair(num: LaurentPoly, den: LaurentPoly, fn) -> Scalar:
    return Scalar(num._map_monos(fn), den._map_monos(fn))


# --------------------------------------------------------------------------
# Constants and factories
# --------------------------------------------------------------------------

ZERO = Scalar.from_poly(LaurentPoly.zero())
ONE = Scalar.from_poly(LaurentPoly.const(GR_ONE))
I = Scalar.from_poly(LaurentPoly.const(GR_I))
Q_HALF = Scalar.from_poly(LaurentPoly.monomial((1, 0, 0)))
QB_HALF = Scalar.from_poly(LaurentPoly.monomial((0, 1, 0)))
T_HALF = Scalar.from_poly(LaurentPoly.monomial((0, 0, 1)))
Q = Scalar.from_poly(LaurentPoly.monomial((2, 0, 0)))
QB = Scalar.from_poly(LaurentPoly.monomial((0, 2, 0)))
T = Scalar.from_poly(LaurentPoly.monomial((0, 0, 2)))


def integer(n: int) -> Scalar:
    """The Scalar n, stored as Scalar.from_poly would store it."""
    if not n:
        return ZERO
    return _scalar(_lp({_MONO_ONE: n}), _POLY_ONE)


def rat(n: int, d: int = 1) -> Scalar:
    return Scalar.from_poly(LaurentPoly.const(GaussianRational.of(Fraction(n, d))))


def gauss(re, im) -> Scalar:
    return Scalar.from_poly(LaurentPoly.const(GaussianRational.of(re, im)))

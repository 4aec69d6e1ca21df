"""Exact scalar arithmetic over Q(i)(q^(1/2), qb^(1/2), t^(1/2)).

Every coefficient in the engine lives in the field of rational functions
in three formal atoms -- the half powers of q, qb and t -- with Gaussian
rational coefficients.  qb is an independent variable in the generic
regime; the other regimes substitute it away (qb := 1/q on the unit
circle, qb := q for real q, and qb := q, t := q in the epsilon = +-1
case).

Fractions are never reduced to a canonical gcd form: equality is decided
by cross multiplication, and construction only strips a common monomial
factor and makes the denominator monic.  That keeps representations small
without a multivariate gcd engine, and zero testing stays exact because
the numerator of a zero value is the zero polynomial.

A Gaussian coefficient (a + b*i)/d is stored as the three ints a, b, d,
with d >= 1, gcd(a, b, d) = 1 and zero as (0, 0, 1): one triple per
value.  Its arithmetic is int arithmetic and ``math.gcd``, and a result
whose d is 1 skips the gcd, so neither the all-integer case nor the
rationals of the nf queries ((1/2), (q - 1/q), a monic rescaling) pay
for ``fractions.Fraction``.  ``Fraction`` is only taken by the
constructor and given out by the ``re``/``im`` views, which return an
``int`` for an integral part and a reduced ``Fraction`` otherwise;
hashing and printing go through them.

Most products in a run have a one-term factor, and most scalars a one-term
(monic monomial) denominator, so three shapes take a fast path:

- ``LaurentPoly * LaurentPoly`` with a one-term side translates and scales
  the other side in one pass (``_mul_general`` is the full loop);
- ``Scalar * Scalar`` with one-term denominators on both sides, whose
  product denominator is the monomial x^(m1+m2), only strips the common
  monomial (``_over_monomials``), as the constructor would;
- ``Scalar + Scalar`` with one-term denominators shifts the second
  numerator by x^(m1-m2) over the first denominator, the quotient the
  general path would find by ``exact_divide``.

Each builds the same monomial -> coefficient maps, in the same term order,
as the general path, so the stored form, every printed value and every
float evaluation are unchanged.  That rests on two invariants: no zero
coefficient is ever stored, and a constructed ``Scalar`` has a monic
denominator.

Before either path, ``Scalar * Scalar`` with a factor that is exactly +1
or -1 returns the other factor, or its negation: the numerator is the one
constant term with triple (+-1, 0, 1) and the denominator the one
constant term, which a monic denominator makes 1.  The test reads the
triple in place, so a factor that is not +-1 costs a length test or two.
That is the num/den the product would build anyway.  A one-term
denominator is already stripped of the common monomial, so
``_over_monomials`` would keep num and den as they are.  A
multi-term denominator only comes from ``Scalar.__init__``, after its
``exact_divide(num, den)`` attempt failed; divisibility does not change
under the monomial shift, the rescaling or a sign, so the general path's
attempts would fail again and rebuild the same num/den.

``_long_divide`` keeps one remainder dict and subtracts f * x^s * d from it
term by term, with no intermediate ``LaurentPoly``.  The leading term of
the remainder cancels exactly (f is chosen so), so it is removed without
the arithmetic; every other term takes the same products, negations and
sums that ``rem - d.shifted(s).scale(f)`` would run.  Deglex order is
preserved by the shift, so the rest of f * x^s * d lies below the removed
term and each step strictly lowers the remainder's leading term.  The
leading terms, and so the quotient's terms and their order, are chosen as
before; the quotient is unique anyway.  ``integer(n)``
stores n over the shared constant 1 without a ``Fraction`` round trip, the
num/den that ``Scalar.from_poly`` builds for it.
"""

from __future__ import annotations

import cmath
import math
from math import gcd, lcm
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "DomainError", "MissingParameterError",
    "GaussianRational", "LaurentPoly", "Scalar",
    "Regime", "RegimeKind",
    "GENERIC", "UNIT_CIRCLE", "REAL_Q", "CASE2_PLUS", "CASE2_MINUS",
    "ALL_REGIMES", "regime_from_label",
    "ZERO", "ONE", "I", "Q", "QB", "T", "Q_HALF", "QB_HALF", "T_HALF",
    "integer", "rat", "gauss", "exact_divide",
]


class DomainError(ValueError):
    """Numeric evaluation requested at an excluded parameter value."""


class MissingParameterError(ValueError):
    """A regime or builder was invoked without a parameter it needs."""


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
    takes int or Fraction parts.
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

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
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

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other)

    def __neg__(self) -> "GaussianRational":
        out = _new(GaussianRational)
        out.a = -self.a
        out.b = -self.b
        out.d = self.d
        return out

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d != 1:
            return _reduced(a * c - b * e, a * e + b * c, d)
        out = _new(GaussianRational)
        out.a = a * c - b * e
        out.b = a * e + b * c
        out.d = 1
        return out

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


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


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
    """Sparse Laurent polynomial: finite map monomial -> nonzero GaussianRational."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, GaussianRational]):
        self.terms = terms

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def const(c: GaussianRational) -> "LaurentPoly":
        return LaurentPoly({_MONO_ONE: c} if not c.is_zero else {})

    @staticmethod
    def monomial(m: Mono, c: GaussianRational = GR_ONE) -> "LaurentPoly":
        return LaurentPoly({m: c} if not c.is_zero else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    __hash__ = None  # representation is not canonical enough for hashing

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s.is_zero:
                    del out[m]
                else:
                    out[m] = s
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if len(self.terms) == 1:
            return other._times_term(self.terms)
        if len(other.terms) == 1:
            return self._times_term(other.terms)
        return _mul_general(self, other)

    def _times_term(self, term: dict[Mono, GaussianRational]) -> "LaurentPoly":
        """self times the one-term polynomial ``term``.

        The product of the general loop, built in one pass: translating by
        a monomial is injective, so no two products share a monomial, and
        Q(i) has no zero divisors, so no product is zero (no zero is ever
        stored).  The terms come out in self's order, as in the loop.
        """
        (m0, c0), = term.items()
        if c0.a == 1 and not c0.b and c0.d == 1:
            return self if m0 == _MONO_ONE else self.shifted(m0)
        a, b, e = m0
        return LaurentPoly({(m[0] + a, m[1] + b, m[2] + e): c * c0
                            for m, c in self.terms.items()})

    def scale(self, c: GaussianRational) -> "LaurentPoly":
        if c.is_zero:
            return LaurentPoly({})
        return LaurentPoly({m: v * c for m, v in self.terms.items()})

    def map_monos(self, fn) -> "LaurentPoly":
        """Apply a monomial substitution; colliding images are merged."""
        out: dict[Mono, GaussianRational] = {}
        for m, c in self.terms.items():
            m2, c2 = fn(m, c)
            s = out.get(m2)
            if s is None:
                if not c2.is_zero:
                    out[m2] = c2
            else:
                s = s + c2
                if s.is_zero:
                    del out[m2]
                else:
                    out[m2] = s
        return LaurentPoly(out)

    def min_exps(self) -> Mono:
        it = iter(self.terms)
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
        return LaurentPoly({(m[0] + da, m[1] + db, m[2] + dc): v
                            for m, v in self.terms.items()})

    def leading(self) -> tuple[Mono, GaussianRational]:
        m = max(self.terms, key=_deglex_key)
        return m, self.terms[m]

    def eval(self, qh: complex, qbh: complex, th: complex) -> complex:
        out = 0j
        for (a, b, c), v in self.terms.items():
            out += v.to_complex() * qh ** a * qbh ** b * th ** c
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

        return self.map_monos(fn)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_deglex_key, reverse=True):
            c = self.terms[m]
            ms = _mono_str(m)
            parts.append(_coeff_mono_str(c, ms, first=not parts))
        return "".join(parts)


def _mul_general(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a*b by the full double loop, merging and cancelling like terms.

    ``LaurentPoly.__mul__`` uses it when both factors have two or more
    terms; the tests use it as the reference for the one-term fast path.
    """
    out: dict[Mono, GaussianRational] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = c1 * c2
            s = out.get(m)
            if s is None:
                if not c.is_zero:
                    out[m] = c
            else:
                s = s + c
                if s.is_zero:
                    del out[m]
                else:
                    out[m] = s
    return LaurentPoly(out)


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


def _coeff_mono_str(c: GaussianRational, ms: str, first: bool) -> str:
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


def exact_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """Return p/d when d divides p exactly, else None.

    Works up to monomial units: both arguments are shifted to honest
    polynomials first, so divisibility is decided in the Laurent ring.

    Two necessary conditions are tested before any long division, and
    both are exact because the Laurent ring is an integral domain:

    - a single term is a unit, so a divisor with two or more terms (not a
      unit) cannot divide it;
    - in each atom the exponent span (largest minus smallest exponent) of
      a product is the sum of the factors' spans, so a divisor whose span
      exceeds p's in some atom cannot divide p.

    Only a pair that passes both is divided out (``_long_divide``).
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return LaurentPoly.zero()
    if len(d.terms) > 1:  # a one-term divisor has span 0 and always divides
        if len(p.terms) == 1:
            return None
        sp = _exp_spans(p.terms)
        sd = _exp_spans(d.terms)
        if sp[0] < sd[0] or sp[1] < sd[1] or sp[2] < sd[2]:
            return None
    return _long_divide(p, d)


def _long_divide(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """p/d by deglex long division of the shifted polynomials, else None.

    p and d are nonzero.  The division decides divisibility on its own;
    ``exact_divide`` only adds cheap rejects in front of it.
    """
    mp = p.min_exps()
    md = d.min_exps()
    rem = p.shifted(tuple(-e for e in mp)).terms
    d2 = d.shifted(tuple(-e for e in md)).terms
    lead_m = max(d2, key=_deglex_key)
    la, lb, lc = lead_m
    lead_inv = d2[lead_m].inverse()
    tail = [(m, c) for m, c in d2.items() if m != lead_m]
    quot: dict[Mono, GaussianRational] = {}
    while rem:
        m = max(rem, key=_deglex_key)
        sa, sb, sc = m[0] - la, m[1] - lb, m[2] - lc
        if sa < 0 or sb < 0 or sc < 0:
            return None
        f = rem.pop(m) * lead_inv
        quot[(sa, sb, sc)] = f
        # rem -= f * x^s * d2: the leading terms cancel exactly (popped
        # above); the others, all below m, take the products, negations
        # and sums that rem - d2.shifted(s).scale(f) would compute
        for (a, b, e), dc in tail:
            k = (a + sa, b + sb, e + sc)
            v = -(dc * f)
            old = rem.get(k)
            if old is None:
                rem[k] = v
            else:
                v = old + v
                if v.is_zero:
                    del rem[k]
                else:
                    rem[k] = v
    # restore the monomial factor stripped from p and d
    delta = (mp[0] - md[0], mp[1] - md[1], mp[2] - md[2])
    out = LaurentPoly(quot)
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
    """Element of the rational-function field, stored as num/den, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.const(GR_ONE)
            return
        # cheap cancellation: not a gcd, just an exact-division attempt,
        # which catches the common case of a denominator factor surviving
        # verbatim inside the numerator
        if len(den.terms) > 1:
            quot = exact_divide(num, den)
            if quot is not None:
                num = quot
                den = LaurentPoly.const(GR_ONE)
        # strip the common monomial factor of the pair
        na, nb, nc = num.min_exps()
        da, db, dc = den.min_exps()
        shift = (-min(na, da), -min(nb, db), -min(nc, dc))
        if shift != _MONO_ONE:
            num = num.shifted(shift)
            den = den.shifted(shift)
        # make the denominator monic
        _, lc = den.leading()
        if lc.a != 1 or lc.b or lc.d != 1:
            inv = lc.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly) -> "Scalar":
        return Scalar(p, LaurentPoly.const(GR_ONE))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_one(self) -> bool:
        return self.num == self.den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        d1, d2 = self.den, other.den
        if len(d1.terms) == 1 and len(d2.terms) == 1:
            # monic monomials: d2 divides d1 with quotient x^(m1-m2), so the
            # general path below would keep d1 and shift other's numerator
            (m1,), (m2,) = d1.terms, d2.terms
            n2 = other.num
            if m1 != m2:
                n2 = n2.shifted((m1[0] - m2[0], m1[1] - m2[1], m1[2] - m2[2]))
            num = self.num + n2
            return _over_monomials(num, d1, _POLY_ONE) if num.terms else ZERO
        if self.den is other.den or self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        # when one denominator divides the other, keep the larger one
        quot = exact_divide(self.den, other.den)
        if quot is not None:
            return Scalar(self.num + other.num * quot, self.den)
        quot = exact_divide(other.den, self.den)
        if quot is not None:
            return Scalar(self.num * quot + other.num, other.den)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.num.is_zero or other.num.is_zero:
            return ZERO
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        # a factor of exactly +-1 (the one constant term (+-1 + 0i)/1 over
        # the denominator 1) gives the other factor or its negation, the
        # num/den either path below would build (module docstring)
        t = n2.terms
        if len(t) == 1 and _MONO_ONE in t and len(d2.terms) == 1 and _MONO_ONE in d2.terms:
            c = t[_MONO_ONE]
            if not c.b and c.d == 1 and (c.a == 1 or c.a == -1):
                return self if c.a == 1 else -self
        t = n1.terms
        if len(t) == 1 and _MONO_ONE in t and len(d1.terms) == 1 and _MONO_ONE in d1.terms:
            c = t[_MONO_ONE]
            if not c.b and c.d == 1 and (c.a == 1 or c.a == -1):
                return other if c.a == 1 else -other
        if len(d1.terms) == 1 and len(d2.terms) == 1:
            return _over_monomials(n1 * n2, d1, d2)
        # cross-cancel before multiplying to slow denominator growth
        if len(d2.terms) > 1:
            quot = exact_divide(n1, d2)
            if quot is not None:
                n1, d2 = quot, _POLY_ONE
        if len(d1.terms) > 1:
            quot = exact_divide(n2, d1)
            if quot is not None:
                n2, d1 = quot, _POLY_ONE
        return Scalar(n1 * n2, d1 * d2)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def inverse(self) -> "Scalar":
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __pow__(self, k: int) -> "Scalar":
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- structure maps ----------------------------------------------------

    def star(self, regime: Regime = GENERIC) -> "Scalar":
        """Conjugation: q <-> qb, i -> -i, t fixed; then specialize."""

        def fn(m, c):
            return (m[1], m[0], m[2]), c.conj()

        out = object.__new__(Scalar)
        out.num = self.num.map_monos(fn)
        out.den = self.den.map_monos(fn)
        if regime.kind is RegimeKind.GENERIC:
            return Scalar(out.num, out.den)
        return out.specialize(regime)

    def specialize(self, regime: Regime) -> "Scalar":
        if regime.kind is RegimeKind.GENERIC:
            return self

        def fn(m, c):
            return regime.subst_mono(m), c

        return Scalar(self.num.map_monos(fn), self.den.map_monos(fn))

    def flip_half(self, atom: int) -> "Scalar":
        """Field automorphism sending one half-power atom to its negative."""

        def fn(m, c):
            return m, (-c if m[atom] % 2 else c)

        return Scalar(self.num.map_monos(fn), self.den.map_monos(fn))

    def subst_qbar_minus_q(self) -> "Scalar":
        """Variable substitution qb := -q (via qb^(1/2) := i*q^(1/2))."""

        def fn(m, c):
            return (m[0] + m[1], 0, m[2]), c * GR_I.power(m[1])

        return Scalar(self.num.map_monos(fn), self.den.map_monos(fn))

    def subst_half(self, qh: GaussianRational | None = None,
                   qbh: GaussianRational | None = None,
                   th: GaussianRational | None = None) -> "Scalar":
        return Scalar(self.num.subst_half(qh, qbh, th),
                      self.den.subst_half(qh, qbh, th))

    # -- numerics ----------------------------------------------------------

    def eval(self, q: complex, t: float, regime: Regime = GENERIC,
             qbar: complex | None = None) -> complex:
        """Double precision value at a sample point.

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
        dv = self.den.eval(qh, qbh, th)
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.eval(qh, qbh, th) / dv

    # -- divisibility ------------------------------------------------------

    def numerator_divisible_by(self, factor: "Scalar") -> bool:
        """True when factor's numerator divides this numerator exactly."""
        return exact_divide(self.num, factor.num) is not None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        ns = str(self.num)
        if self.den == LaurentPoly.const(GR_ONE):
            return ns
        ds = str(self.den)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1 or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _over_monomials(num: LaurentPoly, d1: LaurentPoly, d2: LaurentPoly) -> Scalar:
    """The normalised Scalar num/(d1*d2) for one-term denominators d1, d2.

    A normalised one-term denominator is monic, so d1*d2 is the monomial
    x^(m1+m2).  ``Scalar.__init__`` would try no exact division on it and
    rescale nothing; it would only strip the common monomial of num and
    den, which is all that is done here.  A denominator equal to d1 or d2
    is shared, not rebuilt.
    """
    (m1,), (m2,) = d1.terms, d2.terms
    na, nb, nc = num.min_exps()
    da, db, dc = m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]
    sa, sb, sc = min(na, da), min(nb, db), min(nc, dc)
    if sa or sb or sc:
        num = num.shifted((-sa, -sb, -sc))
        da -= sa
        db -= sb
        dc -= sc
    m = (da, db, dc)
    out = object.__new__(Scalar)
    out.num = num
    out.den = d1 if m == m1 else d2 if m == m2 else LaurentPoly({m: GR_ONE})
    return out


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
    out = object.__new__(Scalar)
    out.num = LaurentPoly({_MONO_ONE: GaussianRational(n, 0)})
    out.den = _POLY_ONE
    return out


def rat(n: int, d: int = 1) -> Scalar:
    return Scalar.from_poly(LaurentPoly.const(GaussianRational.of(Fraction(n, d))))


def gauss(re, im) -> Scalar:
    return Scalar.from_poly(LaurentPoly.const(GaussianRational.of(re, im)))

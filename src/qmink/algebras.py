"""Concrete algebras: quantum Minkowski space per regime, the crossed
product with the symmetry generators, and the braided tensor square.

The Minkowski relation space is produced two independent ways -- from the
annihilator functionals of the deformed antisymmetrizer composed with the
inverse crossing, and from the hard-coded relation tables -- and the two
spans are compared exactly every time a system is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import (CASE2_PLUS, GENERIC, ONE, Q, QB, REAL_Q, MissingParameterError,
                    Regime, RegimeKind, Scalar, T, UNIT_CIRCLE, ZERO, integer, rat)
from .intertwiners import (ON_GENERIC, ON_REAL_Q, ON_UNIT_CIRCLE, SPECIALIZED,
                           CheckReport, Row,
                           classical_limit, classical_value, operator_source,
                           run_rows, run_suite, suite_moves, suite_spectral,
                           vector_components)
from .rewrite import (Alphabet, Generator, NCPoly, RewriteRule, RewriteSystem,
                      orient)
from .tensor import (B, TMap, U, annihilator_basis, bar_conjugate, compose,
                     flip, identity, permutation, place, span_equal,
                     tensor_product)

__all__ = [
    "SpanMismatchError", "OracleUnverifiedError", "MinkowskiAlgebra",
    "x_alphabet", "minkowski_system", "pbw_obstruction_generic",
    "obstruction_criteria",
    "minkowski_length", "mz_presentation_check", "build_crossed",
    "BraidedSquare", "build_braided_square", "certified_prerequisites",
    "braided_delta_check",
    "suite_pbw", "suite_delta", "suite_length", "suite_classical",
]

class SpanMismatchError(AssertionError):
    """Derived and tabulated relation spaces differ."""


class OracleUnverifiedError(RuntimeError):
    """A scripted reduction uses a substitution whose backing check failed."""


PAIR_NAMES = ("alpha", "beta", "gamma", "delta")  # component codes 0..3
_PRIMED = tuple(n + "'" for n in PAIR_NAMES)
_H_NAMES = tuple(f"h[{k},{ll}]" for k in range(4) for ll in range(4))
_U_NAMES = tuple(f"{stem}[{a},{b}]" for stem in ("u", "ub")
                 for a in (1, 2) for b in (1, 2))

_X_GENS = {
    "alpha": Generator("alpha", "alpha"),
    "beta": Generator("beta", "gamma"),
    "gamma": Generator("gamma", "beta"),
    "delta": Generator("delta", "delta"),
}


def x_order(regime: Regime) -> tuple[str, ...]:
    """Generator ordering used for orientation in each regime."""
    if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
        return ("beta", "alpha", "delta", "gamma")
    return ("alpha", "beta", "gamma", "delta")


def x_alphabet(regime: Regime) -> Alphabet:
    return Alphabet([_X_GENS[n] for n in x_order(regime)])


# --------------------------------------------------------------------------
# Relation sources
# --------------------------------------------------------------------------

def _functional_to_relation(f: TMap, alph: Alphabet) -> NCPoly:
    """Quadratic relation <f, x x> = 0 read off a 4-leg functional."""
    p = NCPoly.zero(alph)
    for col, v in f.rows[0].items():
        p1 = (col >> 2) & 3
        p2 = col & 3
        p = p + NCPoly.word(alph, (PAIR_NAMES[p1], PAIR_NAMES[p2]), v)
    return p


def _block_functionals(regime: Regime) -> list[TMap]:
    """The six kernel functionals of the antisymmetrizer, block by block.

    Annihilator bases of the two rank-3 blocks are tensored and composed
    with the inverse crossing on legs 2, 3.
    """
    src = operator_source(regime)
    xinv23 = place(src.get("X^-1"), (2, 3), (U, B, U, B))
    return [compose(tensor_product(f1, f2), xinv23)
            for a, b in (("P'", "Q"), ("P", "Q'"))
            for f1 in annihilator_basis(src.get(a))
            for f2 in annihilator_basis(src.get(b))]


def derived_relations(regime: Regime) -> list[NCPoly]:
    """Relations from the antisymmetrizer kernel functionals, evaluated on
    the quadratic monomials."""
    alph = x_alphabet(regime)
    return [_functional_to_relation(f, alph) for f in _block_functionals(regime)]


def table_relations(regime: Regime) -> list[NCPoly]:
    """The displayed relation tables, hard coded per regime."""
    alph = x_alphabet(regime)
    qi = Q ** -1
    ti = T ** -1
    if regime.kind in (RegimeKind.GENERIC, RegimeKind.CASE2):
        eps = integer(regime.epsilon)
        return [
            _rel_words(alph, regime, [(QB, "alpha beta"),
                                      (-(QB * eps), "beta delta"),
                                      (-T, "beta alpha")]),
            _rel_words(alph, regime, [(QB * T, "gamma delta"),
                                      (-ONE, "delta gamma")]),
            _rel_words(alph, regime, [(Q * QB * T, "alpha delta"),
                                      (QB, "gamma beta"),
                                      (-(QB * eps), "delta delta"),
                                      (-Q, "beta gamma"),
                                      (-T, "delta alpha")]),
            _rel_words(alph, regime, [(Q, "gamma alpha"),
                                      (-(Q * eps), "delta gamma"),
                                      (-T, "alpha gamma")]),
            _rel_words(alph, regime, [(Q * T, "delta beta"),
                                      (-ONE, "beta delta")]),
            _rel_words(alph, regime, [(Q * QB * T, "delta alpha"),
                                      (Q, "gamma beta"),
                                      (-(Q * eps), "delta delta"),
                                      (-QB, "beta gamma"),
                                      (-T, "alpha delta")]),
        ]
    if regime.kind is RegimeKind.UNIT_CIRCLE:
        return [
            _rel_words(alph, regime, [(ONE, "alpha beta"), (-(T * Q), "beta alpha")]),
            _rel_words(alph, regime, [(ONE, "alpha gamma"), (-(ti * Q), "gamma alpha")]),
            _rel_words(alph, regime, [(ONE, "beta delta"), (-(T * Q), "delta beta")]),
            _rel_words(alph, regime, [(ONE, "gamma delta"), (-(ti * Q), "delta gamma")]),
            _rel_words(alph, regime, [(ONE, "beta gamma"), (-ONE, "gamma beta")]),
            _rel_words(alph, regime, [(ONE, "alpha delta"), (-ONE, "delta alpha"),
                                      (-(ti * (Q - qi)), "beta gamma")]),
        ]
    # real q: alpha <-> beta, gamma <-> delta, t <-> 1/t image of the table
    return [
        _rel_words(alph, regime, [(ONE, "beta alpha"), (-(Q * ti), "alpha beta")]),
        _rel_words(alph, regime, [(ONE, "gamma alpha"), (-(qi * T), "alpha gamma")]),
        _rel_words(alph, regime, [(ONE, "delta gamma"), (-(Q * T), "gamma delta")]),
        _rel_words(alph, regime, [(ONE, "delta beta"), (-(qi * ti), "beta delta")]),
        _rel_words(alph, regime, [(ONE, "delta alpha"), (-ONE, "alpha delta")]),
        _rel_words(alph, regime, [(ONE, "beta gamma"), (-ONE, "gamma beta"),
                                  (-(T * (Q - qi)), "alpha delta")]),
    ]


def _rel_words(alph: Alphabet, regime: Regime, terms) -> NCPoly:
    p = NCPoly.zero(alph)
    for c, words in terms:
        p = p + NCPoly.word(alph, words.split(), c.specialize(regime))
    return p


_WORD_BASIS = [(i, j) for i in range(4) for j in range(4)]


def _relation_rows(rels: list[NCPoly]) -> list[list[Scalar]]:
    return [[p.terms.get(w, ZERO) for w in _WORD_BASIS] for p in rels]


@dataclass
class MinkowskiAlgebra:
    """Quadratic x-algebra for one regime: relations plus oriented rules."""

    regime: Regime
    relations: list[NCPoly]
    system: RewriteSystem


_MINK_CACHE: dict[Regime, MinkowskiAlgebra] = {}


def minkowski_system(regime: Regime) -> MinkowskiAlgebra:
    """Build the Minkowski algebra from the derived relations; always
    cross-checks them against the tabulated ones."""
    hit = _MINK_CACHE.get(regime)
    if hit is not None:
        return hit
    derived = derived_relations(regime)
    table = table_relations(regime)
    if not span_equal(_relation_rows(derived), _relation_rows(table)):
        raise SpanMismatchError(
            f"derived and tabulated relation spaces differ in {regime.label}")
    alg = MinkowskiAlgebra(regime, derived,
                           orient(derived, x_alphabet(regime), regime))
    _MINK_CACHE[regime] = alg
    return alg


# --------------------------------------------------------------------------
# PBW obstruction in the generic regime
# --------------------------------------------------------------------------

def pbw_obstruction_generic() -> tuple[Scalar, Scalar, NCPoly]:
    """Coefficient gap between the two orderings of q(qb^2+1) gamma beta alpha.

    Path A rewrites the trailing beta*alpha pair first; path B is the
    plain leftmost-first normal form (which starts with gamma*beta).  The
    difference is supported on the two independent ordered words
    alpha*alpha*delta and alpha*beta*gamma; the coefficients at those
    words are returned, scaled by q(qb^2+1) as in the standard gap
    normalization.
    """
    alg = minkowski_system(GENERIC)
    sys = alg.system
    alph = sys.alphabet
    g, b, a = alph.index("gamma"), alph.index("beta"), alph.index("alpha")
    word = (g, b, a)
    path_a = sys.normal_form(sys.apply_rule_at(word, 1))
    path_b = sys.normal_form(NCPoly(alph, {word: ONE}))
    diff = (path_a - path_b).scale(Q * (QB ** 2 + ONE))
    aad = tuple(alph.index(n) for n in ("alpha", "alpha", "delta"))
    abg = tuple(alph.index(n) for n in ("alpha", "beta", "gamma"))
    extra = set(diff.terms) - {aad, abg}
    if extra:
        raise AssertionError(f"obstruction supported outside expected words: {extra}")
    return diff.terms.get(aad, ZERO), diff.terms.get(abg, ZERO), diff


def obstruction_criteria(aad: Scalar, abg: Scalar) -> dict[str, bool]:
    """What the paper says of the two obstruction coefficients, by label."""
    f1 = ONE - (Q * QB) ** 2
    f2 = QB ** 2 - Q ** 2

    def both(test) -> bool:
        return test(aad) and test(abg)

    return {
        "nonzero in generic": not (aad.is_zero() or abg.is_zero()),
        "divisible by 1-(q*qb)^2": both(lambda s: s.numerator_divisible_by(f1)),
        "divisible by qb^2-q^2": both(lambda s: s.numerator_divisible_by(f2)),
        "vanishes on |q|=1": both(lambda s: s.specialize(UNIT_CIRCLE).is_zero()),
        "vanishes for real q": both(lambda s: s.specialize(REAL_Q).is_zero()),
        "vanishes for qb=-q": both(lambda s: s.subst_qbar_minus_q().is_zero()),
    }


# --------------------------------------------------------------------------
# Minkowski length
# --------------------------------------------------------------------------

def minkowski_length_poly(regime: Regime) -> NCPoly:
    """Contraction of x x with the invariant metric functional."""
    src = operator_source(regime)
    amb = (U, B, U, B)
    xinv23 = place(src.get("X^-1"), (2, 3), amb)
    eprime = src.get("E'")
    tau_ebar_prime = compose(bar_conjugate(eprime, regime), flip(B, B))
    mid = place(tau_ebar_prime, (3, 4), xinv23.out_sig, ())
    phi = compose(place(eprime, (1, 2), mid.out_sig, ()), mid)
    functional = compose(phi, xinv23)
    return _functional_to_relation(functional, x_alphabet(regime))


def _quadratic_form_ratio(regime: Regime) -> Scalar | None:
    """The normal form of the length element over that of alpha*delta/(2z)
    + delta*alpha/(2 zbar) - gamma* gamma, z = q/t; None if not
    proportional."""
    sys = minkowski_system(regime).system
    alph = sys.alphabet
    half = rat(1, 2)
    inv_2z = half * T * Q ** -1           # 1/(2z), z = q/t
    inv_2zbar = half * T * Q              # 1/(2 zbar), zbar = 1/(qt)
    formula = (NCPoly.word(alph, ("alpha", "delta"), inv_2z)
               + NCPoly.word(alph, ("delta", "alpha"), inv_2zbar)
               - NCPoly.word(alph, ("beta", "gamma")))
    nf_l = sys.normal_form(minkowski_length_poly(regime))
    nf_f = sys.normal_form(formula)
    ratios = []
    for w in set(nf_l.terms) | set(nf_f.terms):
        cl = nf_l.terms.get(w, ZERO)
        cf = nf_f.terms.get(w, ZERO)
        if cf.is_zero():
            return None
        ratios.append(cl / cf)
    return ratios[0] if all(r == ratios[0] for r in ratios) else None


_LENGTH_KINDS = ON_UNIT_CIRCLE | {RegimeKind.REAL_Q}


def _length_element_rows(ratios: list) -> tuple[Row, ...]:
    """The length element's own checks; the comparison row, on the unit
    circle, appends the ratio it finds (or None) to ``ratios``."""
    def central(regime, src):
        sys = minkowski_system(regime).system
        ell = minkowski_length_poly(regime)
        bad = []
        for name in PAIR_NAMES:
            gpoly = NCPoly.word(sys.alphabet, (name,))
            resid = sys.normal_form(ell * gpoly - gpoly * ell)
            if not resid.is_zero():
                bad.append(f"[l, {name}] -> {resid}")
        return bad

    def star_fixed(regime, src):
        ell = minkowski_length_poly(regime)
        resid = minkowski_system(regime).system.normal_form(ell.star(regime) - ell)
        return [] if resid.is_zero() else [str(resid)]

    def comparison(regime, src):
        ratio = _quadratic_form_ratio(regime)
        ratios.append(ratio)
        if ratio is None:
            return False, "not proportional", None
        return True, None, f"contraction = ({ratio}) * displayed form"

    return (Row("length/centrality", central, "empty", _LENGTH_KINDS),
            Row("length/star-fixed", star_fixed, "empty", _LENGTH_KINDS),
            Row("length/quadratic-form-comparison", comparison, kinds=ON_UNIT_CIRCLE,
                mode="info"))


def _mz_rows(regime, src):
    alph = x_alphabet(regime)
    z = Q * T ** -1
    zbar = z.star(regime)
    r1 = _rel_words(alph, regime, [(ONE, "alpha gamma"), (-z, "gamma alpha")])
    r2 = _rel_words(alph, regime, [(ONE, "gamma delta"), (-z, "delta gamma")])
    r3 = _rel_words(alph, regime, [(ONE, "alpha delta"), (-ONE, "delta alpha"),
                                   (-(z - zbar), "beta gamma")])
    normal = _rel_words(alph, regime, [(ONE, "beta gamma"),
                                       (-ONE, "gamma beta")])
    mz = [r1, r2, r3, r1.star(regime), r2.star(regime), normal]
    return _relation_rows(mz), _relation_rows(table_relations(regime))


def _classical_length(regime, src):
    cl = _classical_poly(minkowski_length_poly(regime))
    alph = minkowski_system(regime).system.alphabet
    want = (NCPoly.word(alph, ("alpha", "delta"), integer(-2))
            + NCPoly.word(alph, ("beta", "gamma"), integer(2)))
    # compare modulo the classical (commutative) relations
    csys = _classical_system(regime)
    resid = csys.normal_form(cl - want)
    return [] if resid.is_zero() else [str(resid)]


_MZ = Row("length/mz-presentation", _mz_rows, "span", ON_UNIT_CIRCLE,
          detail="three z-relations plus their stars and gamma* gamma = gamma gamma*",
          residual="spans differ")
_CLASSICAL_LENGTH = Row("length/classical-quadratic-form", _classical_length, "empty",
                        ON_UNIT_CIRCLE,
                        detail="q = t = 1 length is -2 (alpha delta - beta gamma)")


def minkowski_length(regime: Regime):
    """Length element, centrality/star reports, and the comparison scalar.

    Returns (poly, reports, comparison_scalar); the scalar relates the
    contraction to alpha*delta/(2z) + delta*alpha/(2 zbar) - gamma* gamma
    with z = q/t, and is only computed on the unit circle.  The checks run
    on the unit circle and for real q; other regimes are refused.
    """
    if regime.kind not in _LENGTH_KINDS:
        raise MissingParameterError("the length checks need |q|=1 or real q")
    ratios: list = []
    reports = run_rows(_length_element_rows(ratios), regime)
    return minkowski_length_poly(regime), reports, ratios[0] if ratios else None


def mz_presentation_check() -> CheckReport:
    """The one-parameter z = q/t presentation spans the same relations."""
    return run_rows((_MZ,), UNIT_CIRCLE)[0]


# --------------------------------------------------------------------------
# Crossed product with the symmetry generators
# --------------------------------------------------------------------------

def _crossed_generators(regime: Regime, primes: bool, hs: bool) -> list[Generator]:
    # u[a,b] and ub[a,b] are each other's stars
    gens = [Generator(n, star) for n, star in zip(_U_NAMES, _U_NAMES[4:] + _U_NAMES[:4])]
    if hs:
        swap = (0, 2, 1, 3)
        gens += [Generator(f"h[{r},{c}]", f"h[{swap[r]},{swap[c]}]")
                 for r in range(4) for c in range(4)]
    xs = [_X_GENS[n] for n in x_order(regime)]
    gens += xs
    if primes:
        gens += [Generator(g.name + "'", g.star + "'") for g in xs]
    return gens


def _matrix_rule(alph: Alphabet, lhs: tuple[str, str], row: dict,
                 word) -> RewriteRule:
    """lhs -> the sum over the row's entries v at column col of v word(col)."""
    rhs = NCPoly.zero(alph)
    for col, v in row.items():
        rhs = rhs + NCPoly.word(alph, word(col), v)
    return RewriteRule(tuple(alph.index(n) for n in lhs), rhs)


def _cross_rules(alph: Alphabet, regime: Regime) -> list[RewriteRule]:
    src = operator_source(regime)
    tmat = src.get("T:first")
    tpmat = src.get("T':first")
    rules = []
    for code in range(4):
        for cc in (0, 1):
            for dd in (0, 1):
                row = (code << 1) | cc
                # x u -> T u x and x ub -> T' ub x
                for stem, mat in (("u", tmat), ("ub", tpmat)):
                    rules.append(_matrix_rule(
                        alph, (PAIR_NAMES[code], f"{stem}[{cc + 1},{dd + 1}]"),
                        mat.rows[row],
                        lambda col: (f"{stem}[{(col >> 2) + 1},{dd + 1}]",
                                     PAIR_NAMES[col & 3])))
    return rules


def _classical_poly(p: NCPoly) -> NCPoly:
    """p at q = qb = t = 1, without the coefficients that vanish there."""
    terms = {}
    for w, c in p.terms.items():
        c = classical_value(c)
        if not c.is_zero():
            terms[w] = c
    return NCPoly(p.alphabet, terms)


def _mapped_x_rules(alph: Alphabet, regime: Regime, prime: str = "",
                    classical: bool = False) -> list[RewriteRule]:
    """The Minkowski rules of the regime, over alph, on the x (or x') letters."""
    mink = minkowski_system(regime)

    def word(w):
        return tuple(alph.index(mink.system.alphabet.name(k) + prime) for k in w)

    out = []
    for lhs, rhs in mink.system.rules.items():
        if classical:
            rhs = _classical_poly(rhs)
        terms = {word(w): c for w, c in rhs.terms.items()}
        out.append(RewriteRule(word(lhs), NCPoly(alph, terms)))
    return out


def _w_rules(alph: Alphabet, what: TMap) -> list[RewriteRule]:
    """x h -> W h x: the matrix rule moving an h-symbol left past x."""
    rules = []
    for j in range(4):
        for k in range(4):
            for ll in range(4):
                rules.append(_matrix_rule(
                    alph, (PAIR_NAMES[j], f"h[{k},{ll}]"), what.rows[(j << 2) | k],
                    lambda col: (f"h[{col >> 2},{ll}]", PAIR_NAMES[col & 3])))
    return rules


def _commuting_rules(alph: Alphabet, lefts, rights,
                     c: Scalar = ONE) -> list[RewriteRule]:
    """l r -> c r l: each letter l moves right past each letter r."""
    return [RewriteRule((alph.index(left), alph.index(right)),
                        NCPoly.word(alph, (right, left), c))
            for left in lefts for right in rights]


def full_system(regime: Regime) -> tuple[Alphabet, RewriteSystem]:
    """Combined system for normal-form queries over u, ub, h, x (and x').

    The symmetry letters are free among themselves (no normal form for
    their own algebra is attempted); mixed words reduce until every x
    letter sits to the right of every u/ub/h letter.  Primed copies and
    the braiding only exist on the unit circle; h-rules need the
    translation commutation matrix, so the generic regime exposes only
    u, ub and x.
    """
    primes = regime.kind is RegimeKind.UNIT_CIRCLE
    hs = regime.kind is not RegimeKind.GENERIC
    alph = Alphabet(_crossed_generators(regime, primes=primes, hs=hs))
    rules = _mapped_x_rules(alph, regime) + _cross_rules(alph, regime)
    if hs:
        rules += _w_rules(alph, operator_source(regime).get("What"))
    if primes:
        rules += _mapped_x_rules(alph, regime, "'")
        rules += _commuting_rules(alph, _PRIMED, PAIR_NAMES,
                                  (Q ** -1).specialize(regime))
        rules += _commuting_rules(alph, _PRIMED, _H_NAMES)
        rules += _commuting_rules(alph, _PRIMED, _U_NAMES)
    return alph, RewriteSystem(alph, rules, regime)


def build_crossed(regime: Regime) -> RewriteSystem:
    """The x-algebra crossed with the free u, ub letters, which move left."""
    alph = Alphabet(_crossed_generators(regime, primes=False, hs=False))
    return RewriteSystem(alph, _mapped_x_rules(alph, regime)
                         + _cross_rules(alph, regime), regime)


# --------------------------------------------------------------------------
# Braided square and the coproduct compatibility script
# --------------------------------------------------------------------------

@dataclass
class BraidedSquare:
    """Two x-copies, free first-copy h-symbols, and the braiding scalar."""

    regime: Regime
    sigma: Scalar
    alphabet: Alphabet
    system: RewriteSystem
    what: TMap
    pminus: TMap


def build_braided_square(regime: Regime = UNIT_CIRCLE,
                         sigma: Scalar | None = None,
                         classical: bool = False) -> BraidedSquare:
    if regime.kind is not RegimeKind.UNIT_CIRCLE:
        raise SpanMismatchError("the braided square is a unit-circle structure")
    src = operator_source(regime)
    what = src.get("What")
    pminus = src.get("Pminus")
    if classical:
        what = classical_limit(what)
        pminus = classical_limit(pminus)
        sigma = ONE if sigma is None else sigma
    if sigma is None:
        sigma = (Q ** -1).specialize(regime)

    # alphabet: h[0..3,0..3], then x, then x'
    alph = Alphabet(_crossed_generators(regime, primes=True, hs=True)[8:])
    rules = (_mapped_x_rules(alph, regime, "", classical)
             + _mapped_x_rules(alph, regime, "'", classical)
             + _commuting_rules(alph, _PRIMED, PAIR_NAMES, sigma)
             + _w_rules(alph, what)
             + _commuting_rules(alph, _PRIMED, _H_NAMES))
    return BraidedSquare(regime, sigma, alph,
                         RewriteSystem(alph, rules, regime), what, pminus)


_DELTA_STEPS = (
    "expand (x + h x')_1 (x + h x')_2 into four blocks",
    "contract with the deformed antisymmetrizer",
    "reduce: move h left, braid x' past x, apply both copies' relations",
    "exchange antisymmetrizer with h h (certified intertwining substitution)",
    "reduce the remaining primed/unprimed blocks to normal form",
)


def certified_prerequisites(regime: Regime) -> list[CheckReport]:
    """The moves and spectral reports behind the certified substitution.

    Reuses the reports recorded on the regime's operator source (as left
    by ``qmink verify --suite all``, which runs both suites before delta)
    and runs a suite only when it has none recorded there.
    """
    src = operator_source(regime)
    out = []
    for name, suite in (("moves", suite_moves), ("spectral", suite_spectral)):
        recorded = src.reports.get(name)
        out += suite(regime, src) if recorded is None else recorded
    return out


def braided_delta_check(regime: Regime = UNIT_CIRCLE,
                        sigma: Scalar | None = None,
                        classical: bool = False,
                        prereq: list[CheckReport] | None = None):
    """Scripted reduction of antisymmetrizer . (coproduct x)^2 to zero.

    The expansion (x + h x')(x + h x') is contracted with the deformed
    antisymmetrizer and reduced by the braided-square rules; the single
    quadratic-h block is then exchanged using the certified intertwining
    substitution (antisymmetrizer past h h), whose backing checks must
    have passed.  Returns (residuals by component, steps log, square).

    The steps log states the mathematical order; the computation reduces
    first and contracts after.  Each of the 16 blocks delta(x_j) delta(x_k)
    - h h x'x' and each of the 16 rows of the antisymmetrizer applied to
    the primed pairs is brought to normal form once (a block that the
    antisymmetrizer does not use is skipped), and every residual is
    the antisymmetrizer's combination of these reduced pieces.  That is the
    same value as reducing the unreduced combination, because
    ``normal_form`` is linear; the last ``normal_form`` only scans a
    residual that is already normal.
    """
    if prereq is None:
        prereq = certified_prerequisites(regime)
    failures = [r.check_id for r in prereq if r.status == "fail"]
    if failures:
        raise OracleUnverifiedError(
            f"backing intertwiner checks failed: {failures}")
    sq = build_braided_square(regime, sigma, classical)
    alph = sq.alphabet
    sys = sq.system
    pm = sq.pminus

    def word(*names):
        return NCPoly.word(alph, names)

    def combination(row: dict, polys) -> NCPoly:
        """The sum over the row's entries v at column col of v polys[col]."""
        return NCPoly.sum(alph, (polys[col].scale(v) for col, v in row.items()))

    def hh(j: int, k: int, tail: list[NCPoly]) -> NCPoly:
        """The sum over a, b of h[j,a] h[k,b] tail[a,b]."""
        return NCPoly.sum(alph, (word(f"h[{j},{a}]", f"h[{k},{b}]") * tail[(a << 2) | b]
                                 for a in range(4) for b in range(4)))

    # coproduct x_j -> x_j + h[j,a] x'_a
    delta = [NCPoly.sum(alph, [word(PAIR_NAMES[j])]
                        + [word(f"h[{j},{a}]", PAIR_NAMES[a] + "'") for a in range(4)])
             for j in range(4)]
    primed = [word(PAIR_NAMES[a] + "'", PAIR_NAMES[b] + "'")
              for a in range(4) for b in range(4)]
    # certified exchange: each product's h h x' x' block is replaced by
    # h h times the antisymmetrizer applied to the primed pair; a block in
    # no column of the antisymmetrizer is not needed
    blocks = {col: sys.normal_form(delta[col >> 2] * delta[col & 3]
                                   - hh(col >> 2, col & 3, primed))
              for col in {col for row in pm.rows for col in row}}
    pm_primed = [sys.normal_form(combination(row, primed)) for row in pm.rows]
    residuals: dict[tuple[int, int], NCPoly] = {}
    for m in range(4):
        for n in range(4):
            residuals[(m, n)] = sys.normal_form(
                combination(pm.rows[(m << 2) | n], blocks) + hh(m, n, pm_primed))
    return residuals, list(_DELTA_STEPS), sq


def suite_delta(regime: Regime) -> list[CheckReport]:
    # the backing checks are read (or run) once, outside every row's time
    prereq = certified_prerequisites(regime) if regime.kind in ON_UNIT_CIRCLE else None

    def nonzero_components(residuals):
        bad = sum(not v.is_zero() for v in residuals.values())
        return [f"{bad} nonzero components"] if bad else []

    def sigma_one(regime, src):
        residuals, _, sq = braided_delta_check(regime, sigma=ONE, prereq=prereq)
        nonzero = sum(not v.is_zero() for v in residuals.values())
        if not nonzero:
            return False, "no residual", None
        # each residual row is exactly its row of the matrix obstruction,
        # sum over (a, b) of obstruction[row][(a, b)] h[a,c] x_b x'_c
        obstruction = src.get("Pminus(What+1)")
        alph = sq.alphabet
        for (m, n), poly in residuals.items():
            want = NCPoly.sum(alph, (
                NCPoly.word(alph, (f"h[{col >> 2},{c}]", PAIR_NAMES[col & 3],
                                   PAIR_NAMES[c] + "'"), v)
                for col, v in obstruction.rows[(m << 2) | n].items()
                for c in range(4)))
            if not poly.equals(want):
                return False, "residual does not match the matrix obstruction", None
        return True, f"{nonzero} nonzero components", \
            "residual coefficients equal the entries of the matrix obstruction"

    def braid_consistency(regime, src):
        # the braided square's rules among x and x' letters only
        alph = Alphabet(_crossed_generators(regime, primes=True, hs=False)[8:])
        rules = (_mapped_x_rules(alph, regime) + _mapped_x_rules(alph, regime, "'")
                 + _commuting_rules(alph, _PRIMED, PAIR_NAMES,
                                    (Q ** -1).specialize(regime)))
        obstructions = RewriteSystem(alph, rules, regime).check_confluence()
        return [f"{len(obstructions)} overlaps fail"] if obstructions else []

    return run_suite("delta", (
        Row("delta/braided-coproduct", lambda regime, src: nonzero_components(
            braided_delta_check(regime, prereq=prereq)[0]), "empty", ON_UNIT_CIRCLE,
            detail="; ".join((
                "checks that delta(x) = x + h x' preserves the quadratic relations "
                "of V in the braided square, not the RTT relations of H, delta on "
                "the cross relations x h = W h x, or the antipode", *_DELTA_STEPS))),
        Row("delta/sigma-one-fails", sigma_one, kinds=ON_UNIT_CIRCLE,
            mode="expect-nonzero"),
        Row("delta/classical-sigma-one", lambda regime, src: nonzero_components(
            braided_delta_check(regime, sigma=ONE, classical=True, prereq=prereq)[0]),
            "empty", ON_UNIT_CIRCLE, detail="plain tensor square at q = t = 1"),
        Row("delta/braiding-consistency", braid_consistency, "empty", ON_UNIT_CIRCLE,
            detail="x/x' rule set is locally confluent"),
    ), regime, skip="the braided coproduct check runs on the unit circle")


def suite_length(regime: Regime) -> list[CheckReport]:
    return run_suite("length", _length_element_rows([]) + (_MZ, _CLASSICAL_LENGTH),
                     regime, skip="length checks run on unit-circle and real-q")


def _classical_system(regime: Regime) -> RewriteSystem:
    """The Minkowski relations at q = t = 1, oriented."""
    alg = minkowski_system(regime)
    return orient([_classical_poly(p) for p in alg.relations],
                  alg.system.alphabet, regime)


def _classical_crossed_system() -> RewriteSystem:
    """The unit-circle crossed product's rules at q = t = 1."""
    cp = build_crossed(UNIT_CIRCLE)
    return RewriteSystem(cp.alphabet, [RewriteRule(lhs, _classical_poly(rhs))
                                       for lhs, rhs in cp.rules.items()],
                         UNIT_CIRCLE)


def suite_pbw(regime: Regime) -> list[CheckReport]:
    def integrity(regime, src):
        try:
            minkowski_system(regime)
        except SpanMismatchError as exc:
            return False, str(exc), None
        return True, None, "derived and tabulated relation spans agree"

    def annihilator_rows(regime, src):
        # the antisymmetrizer's own row space spans the same functionals
        # as the block-by-block route through the inverse crossing
        return ([f.entries[0] for f in annihilator_basis(src.get("Pminus"))],
                [f.entries[0] for f in _block_functionals(regime)])

    def obstruction(regime, src):
        criteria = obstruction_criteria(*pbw_obstruction_generic()[:2])
        if not criteria["nonzero in generic"]:
            return False, "obstruction unexpectedly vanishes", None
        ok = all(criteria.values())
        return ok, None if ok else "factorization or specialization failed", \
            "nonzero; factors through (1-(q qb)^2)(qb^2-q^2); vanishes on " \
            "|q|=1, real q, and qb=-q"

    def overlap(regime, src):
        sys = minkowski_system(regime).system
        obstructions = sys.check_confluence()
        gba = tuple(sys.alphabet.index(n) for n in ("gamma", "beta", "alpha"))
        hit = [o for o in obstructions if o.word == gba]
        if not hit:
            return False, "gamma beta alpha overlap resolves", None
        support = {tuple(sys.alphabet.name(k) for k in w)
                   for w in hit[0].diff.terms}
        want = {("alpha", "alpha", "delta"), ("alpha", "beta", "gamma")}
        ok = support == want
        return ok, None if ok else f"support {support}", \
            "generic overlap fails exactly on the two ordered cubic words"

    def confluent(regime, src):
        obstructions = minkowski_system(regime).system.check_confluence()
        return not obstructions, \
            f"{len(obstructions)} overlaps fail" if obstructions else None, \
            f"ordering {' < '.join(x_order(regime))}"

    def counts(regime, src):
        sys = minkowski_system(regime).system
        got = [sys.count_normal_words(d) for d in range(5)]
        return [] if got == [1, 4, 10, 20, 35] else [f"counts {got}"]

    def star_closed(regime, src):
        ok = minkowski_system(regime).system.is_star_closed()
        return [] if ok else ["star of a relation does not reduce to zero"]

    def fixedpoint_span(name, kinds):
        return Row("pbw/rhat-fixedpoint-span", lambda regime, src: (
            (identity((U, B, U, B)) - src.get(name)).entries,
            src.get("Pminus").entries), "span", kinds,
            detail=f"x x relations match the fixed-point condition of {name}",
            residual="row spans differ")

    return run_suite("pbw", (
        Row("pbw/relation-integrity", integrity),
        Row("pbw/antisymmetrizer-annihilator-span", annihilator_rows, "span",
            rank=6, residual="spans differ"),
        Row("pbw/ordering-obstruction", obstruction, kinds=ON_GENERIC,
            mode="expect-nonzero"),
        Row("pbw/generic-overlap-nonconfluent", overlap, kinds=ON_GENERIC,
            mode="expect-nonzero"),
        Row("pbw/confluence", confluent, kinds=SPECIALIZED),
        Row("pbw/normal-word-counts", counts, "empty", SPECIALIZED,
            detail="ordered monomial counts match the classical size"),
        Row("pbw/star-closed", star_closed, "empty", SPECIALIZED),
        fixedpoint_span("Rhat+", ON_UNIT_CIRCLE),
        fixedpoint_span("Rhat-", ON_REAL_Q),
    ), regime)


def _commutes(sys: RewriteSystem, a: str, b: str) -> bool:
    """a b - b a reduces to zero."""
    ab = NCPoly.word(sys.alphabet, (a, b))
    ba = NCPoly.word(sys.alphabet, (b, a))
    return sys.normal_form(ab - ba).is_zero()


def suite_classical(regime: Regime) -> list[CheckReport]:
    """q = t = 1 degeneration: flips, antisymmetrizers, commutativity."""
    def operators(regime, src):
        tau_bold = permutation((U, B, U, B), (3, 4, 1, 2))
        half = rat(1, 2)
        anti_bold = (identity((U, B, U, B)) - tau_bold).scale(half)
        limits = {"M": flip(U, U), "K": flip(B, B), "X": flip(U, B),
                  "Rhat+": tau_bold, "Rhat-": tau_bold,
                  "P": (identity((U, U)) - flip(U, U)).scale(half),
                  "Pminus": anti_bold}
        bad = [name for name, want in limits.items()
               if not classical_limit(src.get(name)).equals(want)]
        vec = vector_components(classical_limit(src.get("Pminus")))
        if not vec.equals(anti_bold):
            bad.append("Pminus(vector)")
        return bad

    def commutative(regime, src):
        csys = _classical_system(UNIT_CIRCLE)
        return [f"[{a},{b}]" for a in PAIR_NAMES for b in PAIR_NAMES
                if not _commutes(csys, a, b)]

    def crossed_classical(regime, src):
        sysc = _classical_crossed_system()
        return [f"[{xname},{uname}]" for xname in PAIR_NAMES
                for uname in ("u[1,1]", "u[1,2]", "u[2,1]", "u[2,2]",
                              "ub[1,1]", "ub[2,2]")
                if not _commutes(sysc, xname, uname)][:4]

    def braided_classical(regime, src):
        sys = build_braided_square(UNIT_CIRCLE, sigma=ONE, classical=True).system
        bad = []
        for a in PAIR_NAMES:
            bad += [f"[{a}',{b}]" for b in PAIR_NAMES if not _commutes(sys, a + "'", b)]
            if not _commutes(sys, a, "h[1,2]"):
                bad.append(f"[{a},h]")
        return bad[:4]

    def corner_survives(regime, src):
        # recorded, not resolved: with a corner term the crossing does not
        # degenerate to the flip at q = t = 1, so the classical statement
        # is taken at epsilon = 0
        x_cl = classical_limit(operator_source(CASE2_PLUS).get("X"))
        resid = x_cl - flip(U, B)
        return (not resid.is_zero_map()), None, \
            "epsilon corner survives the q = t = 1 limit in the second case"

    def empty(check_id, build, detail):
        return Row(check_id, build, "empty", ON_GENERIC, detail=detail, sep=", ")

    return run_suite("classical", (
        empty("classical/operators", operators,
              "deformed maps collapse to flips and classical antisymmetrizers"),
        empty("classical/minkowski-commutative", commutative,
              "x-algebra commutes at q = t = 1"),
        empty("classical/crossed-commutative", crossed_classical,
              "cross relations become plain commutation at q = t = 1"),
        empty("classical/braided-commutative", braided_classical,
              "braided square collapses to the plain square at q = t = 1"),
        Row("classical/corner-term-survives", corner_survives, kinds=ON_GENERIC,
            mode="expect-nonzero"),
    ), regime, skip="classical limit is taken from the generic build")



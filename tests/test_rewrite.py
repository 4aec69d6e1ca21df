from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmink.algebras import build_braided_square, minkowski_system, x_alphabet
from qmink.cli import nf_system
from qmink.coeff import (ALL_REGIMES, CASE2_MINUS, CASE2_PLUS, GENERIC, I, ONE,
                         Q, QB, REAL_Q, T, UNIT_CIRCLE, ZERO, GaussianRational,
                         LaurentPoly, Scalar, integer, rat)
from qmink.rewrite import (MAX_LETTERS, Alphabet, Generator, NCPoly, NotOrientableError,
                           RewriteRule, RewriteSystem, UnknownGeneratorError,
                           _mul_general, orient)
from qmink.tensor import row_echelon, span_equal

UC_ALPH = x_alphabet(UNIT_CIRCLE)
UC = minkowski_system(UNIT_CIRCLE).system


def w(alph, *names, coeff=ONE):
    return NCPoly.word(alph, names, coeff)


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def test_orient_single_relation():
    rel = w(UC_ALPH, "alpha", "beta") - w(UC_ALPH, "beta", "alpha", coeff=T * Q)
    sys = orient([rel], UC_ALPH, UNIT_CIRCLE)
    lhs = (UC_ALPH.index("beta"), UC_ALPH.index("alpha"))
    assert set(sys.rules) == {lhs}
    assert sys.rules[lhs].equals(w(UC_ALPH, "alpha", "beta",
                                   coeff=(T * Q) ** -1))


def test_orient_empty_and_zero_relations():
    assert not orient([], UC_ALPH, UNIT_CIRCLE).rules
    zero = NCPoly.zero(UC_ALPH)
    assert not orient([zero, zero], UC_ALPH, UNIT_CIRCLE).rules


def test_orient_rejects_cubic_leading_words():
    with pytest.raises(NotOrientableError):
        orient([w(UC_ALPH, "alpha", "beta", "gamma")], UC_ALPH, UNIT_CIRCLE)


def test_orient_separates_shared_leading_words():
    # two relations with the same leading word delta*alpha
    r1 = w(UC_ALPH, "delta", "alpha") - w(UC_ALPH, "alpha", "delta")
    r2 = (w(UC_ALPH, "delta", "alpha", coeff=Q)
          - w(UC_ALPH, "beta", "gamma"))
    sys = orient([r1, r2], UC_ALPH, UNIT_CIRCLE)
    assert len(sys.rules) == 2
    lhs = {tuple(UC_ALPH.name(k) for k in rule) for rule in sys.rules}
    assert lhs == {("delta", "alpha"), ("beta", "gamma")}


def test_oriented_generic_commutator_rule_coefficients():
    # the eliminated generic system must contain
    # delta*alpha -> qb(q^2+1)/(q(qb^2+1)) alpha*delta
    #              + (qb^2-q^2)/(q(qb^2+1)t) beta*gamma
    sys = minkowski_system(GENERIC).system
    alph = sys.alphabet
    lhs = (alph.index("delta"), alph.index("alpha"))
    rhs = sys.rules[lhs]
    c_ad = QB * (Q ** 2 + ONE) / (Q * (QB ** 2 + ONE))
    c_bg = (QB ** 2 - Q ** 2) / (Q * (QB ** 2 + ONE) * T)
    want = (w(alph, "alpha", "delta", coeff=c_ad)
            + w(alph, "beta", "gamma", coeff=c_bg))
    assert rhs.equals(want)


_QUAD_WORDS = [(i, j) for i in range(4) for j in range(4)]
_SMALL_SCALARS = [integer(1), integer(-1), integer(2), Q, T, Q * T ** -1]
relation_sets = st.lists(
    st.dictionaries(st.sampled_from(_QUAD_WORDS), st.sampled_from(_SMALL_SCALARS),
                    min_size=1, max_size=4),
    min_size=1, max_size=6)


def _word_rows(polys):
    return [[p.terms.get(w, ZERO) for w in _QUAD_WORDS] for p in polys]


@settings(max_examples=40, deadline=None)
@given(relation_sets)
def test_orient_gives_one_reduced_rule_per_independent_relation(sets):
    rels = [NCPoly(UC_ALPH, terms) for terms in sets]
    sys = orient(rels, UC_ALPH, UNIT_CIRCLE)
    # one rule per dimension of the relation span; the leading words are
    # distinct, since RewriteSystem rejects a repeated left side
    assert len(sys.rules) == len(row_echelon(_word_rows(rels))[0])
    for lhs, rhs in sys.rules.items():
        for word in rhs.terms:
            assert (len(word), word) < (len(lhs), lhs)
            assert word not in sys.rules  # reduced: no right side holds a lead
    oriented = [NCPoly(UC_ALPH, {lhs: ONE}) - rhs for lhs, rhs in sys.rules.items()]
    assert span_equal(_word_rows(oriented), _word_rows(rels))


def test_rule_validation_rejects_non_decreasing_rhs():
    a, b = UC_ALPH.index("alpha"), UC_ALPH.index("beta")
    with pytest.raises(NotOrientableError):
        RewriteRule((a, b), w(UC_ALPH, "beta", "alpha") + w(UC_ALPH, "gamma", "delta"))
    with pytest.raises(NotOrientableError):
        RewriteRule((a,), w(UC_ALPH, "alpha"))


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_form_swap():
    got = UC.normal_form(w(UC_ALPH, "beta", "alpha"))
    assert got.equals(w(UC_ALPH, "alpha", "beta", coeff=(T * Q) ** -1))


def test_normal_form_commutator_rule():
    got = UC.normal_form(w(UC_ALPH, "delta", "alpha"))
    want = (w(UC_ALPH, "alpha", "delta")
            - w(UC_ALPH, "beta", "gamma", coeff=(Q - Q ** -1) / T))
    assert got.equals(want)


def test_normal_form_fixes_ordered_words():
    p = w(UC_ALPH, "alpha", "beta", "gamma")
    assert UC.normal_form(p).equals(p)


def test_apply_rule_at():
    word = tuple(UC_ALPH.index(n) for n in ("gamma", "beta", "alpha"))
    stepped = UC.apply_rule_at(word, 1)
    # one application of beta*alpha -> (1/qt) alpha*beta inside the word
    want = w(UC_ALPH, "gamma", "alpha", "beta", coeff=(T * Q) ** -1)
    assert stepped.equals(want)


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------

def test_star_reverses_and_conjugates():
    got = w(UC_ALPH, "alpha", "beta").star(UNIT_CIRCLE)
    assert got.equals(w(UC_ALPH, "gamma", "alpha"))


def test_star_scalar_coefficient():
    got = w(UC_ALPH, "alpha", coeff=Q.specialize(UNIT_CIRCLE)).star(UNIT_CIRCLE)
    assert got.equals(w(UC_ALPH, "alpha", coeff=Q.star(UNIT_CIRCLE)))


def test_beta_gamma_is_selfadjoint_up_to_normal_form():
    p = w(UC_ALPH, "beta", "gamma")
    assert UC.normal_form(p.star(UNIT_CIRCLE) - p).is_zero()


def test_alphabet_star_must_be_involutive():
    with pytest.raises(ValueError):
        Alphabet([Generator("a", "b"), Generator("b", "c"), Generator("c", "a")])
    with pytest.raises(UnknownGeneratorError):
        UC_ALPH.index("zeta")


# ---------------------------------------------------------------------------
# confluence and counting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", [UNIT_CIRCLE, REAL_Q, CASE2_PLUS, CASE2_MINUS])
def test_confluence_holds_in_special_regimes(regime):
    assert minkowski_system(regime).system.check_confluence() == []


def test_generic_regime_is_not_confluent():
    sys = minkowski_system(GENERIC).system
    obstructions = sys.check_confluence()
    assert obstructions
    gba = tuple(sys.alphabet.index(n) for n in ("gamma", "beta", "alpha"))
    hit = [o for o in obstructions if o.word == gba]
    assert hit
    support = {tuple(sys.alphabet.name(k) for k in word)
               for word in hit[0].diff.terms}
    assert support == {("alpha", "alpha", "delta"), ("alpha", "beta", "gamma")}


@pytest.mark.parametrize("regime", [UNIT_CIRCLE, REAL_Q, CASE2_PLUS])
def test_normal_word_counts_have_classical_size(regime):
    sys = minkowski_system(regime).system
    assert [sys.count_normal_words(d) for d in range(5)] == [1, 4, 10, 20, 35]


def test_star_closed_systems():
    assert minkowski_system(UNIT_CIRCLE).system.is_star_closed()
    assert minkowski_system(REAL_Q).system.is_star_closed()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

gen_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
words = st.lists(gen_names, max_size=3)
small_coeffs = st.integers(-2, 2).filter(bool).map(integer)


def _poly_from(pairs):
    p = NCPoly.zero(UC_ALPH)
    for names, c in pairs:
        p = p + w(UC_ALPH, *names, coeff=c)
    return p


ncpolys = st.lists(st.tuples(words, small_coeffs), max_size=3).map(_poly_from)


@settings(max_examples=30, deadline=None)
@given(ncpolys, ncpolys)
def test_normal_form_is_multiplicative_when_confluent(p, q):
    lhs = UC.normal_form(p * q)
    rhs = UC.normal_form(UC.normal_form(p) * UC.normal_form(q))
    assert lhs.equals(rhs)


@settings(max_examples=30, deadline=None)
@given(ncpolys)
def test_normal_form_commutes_with_star_in_unit_circle(p):
    lhs = UC.normal_form(p.star(UNIT_CIRCLE))
    rhs = UC.normal_form(p).star(UNIT_CIRCLE)
    assert UC.normal_form(lhs - rhs).is_zero()


@settings(max_examples=30, deadline=None)
@given(ncpolys)
def test_normal_form_is_idempotent(p):
    nf = UC.normal_form(p)
    assert UC.normal_form(nf).equals(nf)
    for word in nf.terms:
        assert not any(pair in UC.rules for pair in zip(word, word[1:]))


# ---------------------------------------------------------------------------
# fast paths: the same terms, in the same order, as the reference loops
# ---------------------------------------------------------------------------

_monos = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
# the fractions in -3..3 with a denominator of at most 4, built directly:
# the nonzero ones are the multiples of 1/4 or 1/3 from 1/4 to 3 in size
_nonzero_fracs = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]), st.one_of(
    st.builds(Fraction, st.integers(1, 12), st.just(4)),
    st.builds(Fraction, st.integers(1, 9), st.just(3))))
_fracs = st.one_of(st.just(Fraction(0)), _nonzero_fracs)
# a nonzero real part, or a zero one and a nonzero imaginary part
_nonzero_gauss = st.one_of(st.builds(GaussianRational, _nonzero_fracs, _fracs),
                           st.builds(GaussianRational, st.just(0), _nonzero_fracs))
_nonzero_laurent = st.dictionaries(_monos, _nonzero_gauss, min_size=1, max_size=3
                                   ).map(LaurentPoly)
# nonzero by construction; multi-term denominators included, as in the
# generic regime
_scalars = st.builds(Scalar, _nonzero_laurent, _nonzero_laurent)


def _stored(p: NCPoly) -> list:
    """Words and stored num/den terms, in storage order, part types included."""
    return [(w, [(m, repr(c)) for m, c in s.num.terms.items()],
             [(m, repr(c)) for m, c in s.den.terms.items()])
            for w, s in p.terms.items()]


def _ncpolys(alph, max_len, min_size=0, max_size=4):
    words = st.lists(st.integers(0, len(alph) - 1), max_size=max_len).map(tuple)
    return st.dictionaries(words, _scalars, min_size=min_size, max_size=max_size
                           ).map(lambda terms: NCPoly(alph, terms))


@settings(max_examples=60, deadline=None)
@given(_ncpolys(UC_ALPH, 3, 1, 1), _ncpolys(UC_ALPH, 3))
def test_one_term_products_match_the_general_loop(t, p):
    assert _stored(t * p) == _stored(_mul_general(t, p))
    assert _stored(p * t) == _stored(_mul_general(p, t))


def _full_scan_normal_form(system: RewriteSystem, p: NCPoly, popped=None) -> NCPoly:
    """The depth-first reduction that normal_form replaced: every popped
    word is scanned from its start and reduced on its own, so equal words
    are not merged, and zero products are tested for.  The popped words
    are appended to ``popped`` when it is given."""
    out = {}
    stack = [(w, c) for w, c in p.terms.items() if not c.is_zero()]
    rules = system.rules
    while stack:
        w, c = stack.pop()
        if popped is not None:
            popped.append(w)
        pos = next((i for i in range(len(w) - 1) if (w[i], w[i + 1]) in rules), None)
        if pos is None:
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
            continue
        for w2, c2 in rules[(w[pos], w[pos + 1])].terms.items():
            c3 = c * c2
            if not c3.is_zero():
                stack.append((w[:pos] + w2 + w[pos + 2:], c3))
    return NCPoly(p.alphabet, out)


def _reducible(system: RewriteSystem, w) -> bool:
    return any((w[i], w[i + 1]) in system.rules for i in range(len(w) - 1))


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resumed_scan_matches_the_full_scan(regime, data):
    alph, system = nf_system(regime)
    p = data.draw(_ncpolys(alph, 5, max_size=3))
    popped = []
    got, want = system.normal_form(p), _full_scan_normal_form(system, p, popped)
    assert got.equals(want)
    assert not any(_reducible(system, w) for w in got.terms)
    if len(set(popped)) == len(popped):
        # no word is reached twice, so no two contributions are added: each
        # word's coefficient is the same chain of products either way
        assert sorted(_stored(got)) == sorted(_stored(want))
        assert str(got) == str(want)


def test_merged_reduction_equals_the_depth_first_one():
    # the depth-first reduction reaches words of delta^5*alpha^5 many times;
    # reduced once each, their merged sums give the same value
    alph, system = nf_system(UNIT_CIRCLE)
    p = NCPoly.word(alph, ("delta",) * 5 + ("alpha",) * 5)
    popped = []
    want = _full_scan_normal_form(system, p, popped)
    assert len(popped) > len(set(popped))
    assert system.normal_form(p).equals(want)


def test_rewrite_system_refuses_an_alphabet_its_word_keys_cannot_order():
    gens = [Generator(f"x{k}", f"x{k}") for k in range(MAX_LETTERS + 1)]
    with pytest.raises(ValueError, match=f"at most {MAX_LETTERS} generators"):
        RewriteSystem(Alphabet(gens), [])
    # the largest alphabet accepted orders words by its last letters too:
    # two reducible inputs wait in the order of their keys
    alph = Alphabet(gens[:MAX_LETTERS])
    top, below = MAX_LETTERS - 1, MAX_LETTERS - 2
    system = RewriteSystem(alph, [RewriteRule((top, below), NCPoly(alph, {(below, top): Q}))])
    p = NCPoly(alph, {(top, below, top, below): ONE, (top, top, below, below): T})
    got = system.normal_form(p)
    assert got.equals(_full_scan_normal_form(system, p))
    assert not any(_reducible(system, w) for w in got.terms)


_LINEARITY_SYSTEMS = {
    **{r.label: lambda r=r: nf_system(r)[1] for r in ALL_REGIMES},
    "braided": lambda: build_braided_square(UNIT_CIRCLE).system,
    "braided-sigma-one": lambda: build_braided_square(UNIT_CIRCLE, sigma=ONE).system,
    "braided-classical": lambda: build_braided_square(
        UNIT_CIRCLE, sigma=ONE, classical=True).system,
}


# a few scalars of each shape, a multi-term denominator included; cheaper
# to draw than _scalars
_pool = st.sampled_from([ONE, integer(-2), rat(1, 3) + I, Q, T * Q ** -1,
                         QB + T, (Q + ONE) / (T + QB)])


def _pool_polys(alph, max_len=4):
    words = st.lists(st.integers(0, len(alph) - 1), max_size=max_len).map(tuple)
    return st.dictionaries(words, _pool, max_size=3).map(lambda t: NCPoly(alph, t))


@pytest.mark.parametrize("label", list(_LINEARITY_SYSTEMS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_normal_form_is_linear(label, data):
    # a word's reduction is the sum of its contributions times the reduction
    # of the word, so this holds in every system, the non-confluent generic
    # one included
    system = _LINEARITY_SYSTEMS[label]()
    p1, p2 = (data.draw(_pool_polys(system.alphabet)) for _ in "ab")
    a, b = data.draw(_pool), data.draw(_pool)
    nf = system.normal_form
    assert nf(p1.scale(a) + p2.scale(b)).equals(nf(p1).scale(a) + nf(p2).scale(b))


@settings(max_examples=40, deadline=None)
@given(st.lists(_pool_polys(UC_ALPH, 1), max_size=4))
def test_one_pass_sum_matches_the_chain_of_additions(polys):
    polys += [-p for p in polys[:1]]  # a cancellation, so a word is deleted
    chain = sum(polys, NCPoly.zero(UC_ALPH))
    assert _stored(NCPoly.sum(UC_ALPH, polys)) == _stored(chain)


def test_rule_right_sides_hold_no_zero_coefficients():
    alph = UC_ALPH
    a, b, c = (alph.index(n) for n in ("alpha", "beta", "gamma"))
    rule = RewriteRule((b, a), NCPoly(alph, {(a, b): Q, (c,): ZERO}))
    system = RewriteSystem(alph, [rule], UNIT_CIRCLE)
    assert list(system.rules[(b, a)].terms) == [(a, b)]
    for regime in ALL_REGIMES:
        for rhs in nf_system(regime)[1].rules.values():
            assert not any(v.is_zero() for v in rhs.terms.values())

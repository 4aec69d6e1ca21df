import cmath
import random

import pytest

from qmink import algebras, intertwiners
from qmink.algebras import (OracleUnverifiedError,
                            PAIR_NAMES, SpanMismatchError, braided_delta_check,
                            build_braided_square, build_crossed,
                            certified_prerequisites,
                            derived_relations, full_system,
                            minkowski_length, minkowski_length_poly,
                            minkowski_system, mz_presentation_check,
                            pbw_obstruction_generic, suite_classical,
                            suite_delta, suite_length, suite_pbw,
                            table_relations, x_alphabet, x_order)
from qmink.coeff import (CASE2_MINUS, CASE2_PLUS, GENERIC, ONE, Q, QB, REAL_Q,
                         T, UNIT_CIRCLE, MissingParameterError, WorkBudget,
                         integer, rat)
from qmink.intertwiners import CheckReport, operator_source, suite_moves
from qmink.rewrite import NCPoly
from qmink.tensor import TMap, compose, identity, U, B

ALL_REGIMES = (GENERIC, UNIT_CIRCLE, REAL_Q, CASE2_PLUS, CASE2_MINUS)


# ---------------------------------------------------------------------------
# relation systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_derived_and_tabulated_spans_agree(regime):
    alg = minkowski_system(regime)     # raises SpanMismatchError on failure
    assert len(alg.relations) == 6
    assert len(alg.system.rules) == 6


def test_unit_circle_rules_match_the_displayed_table():
    sys = minkowski_system(UNIT_CIRCLE).system
    alph = sys.alphabet

    def rule(a, b):
        return sys.rules[(alph.index(a), alph.index(b))]

    tq = (T * Q) ** -1
    assert rule("beta", "alpha").equals(NCPoly.word(alph, ("alpha", "beta"), tq))
    assert rule("gamma", "alpha").equals(
        NCPoly.word(alph, ("alpha", "gamma"), T * Q ** -1))
    assert rule("delta", "beta").equals(NCPoly.word(alph, ("beta", "delta"), tq))
    assert rule("delta", "gamma").equals(
        NCPoly.word(alph, ("gamma", "delta"), T * Q ** -1))
    assert rule("gamma", "beta").equals(NCPoly.word(alph, ("beta", "gamma")))
    assert rule("delta", "alpha").equals(
        NCPoly.word(alph, ("alpha", "delta"))
        - NCPoly.word(alph, ("beta", "gamma"), (Q - Q ** -1) / T))


def test_real_q_table_swaps_roles():
    sys = minkowski_system(REAL_Q).system
    alph = sys.alphabet
    # delta alpha = alpha delta and [beta, gamma] = t(q - 1/q) alpha delta
    got = sys.normal_form(NCPoly.word(alph, ("delta", "alpha")))
    assert got.equals(NCPoly.word(alph, ("alpha", "delta")))
    comm = (NCPoly.word(alph, ("beta", "gamma"))
            - NCPoly.word(alph, ("gamma", "beta"))
            - NCPoly.word(alph, ("alpha", "delta"), T * (Q - Q ** -1)))
    assert sys.normal_form(comm).is_zero()


def test_case2_rules_carry_the_corner_terms():
    sys = minkowski_system(CASE2_PLUS).system
    alph = sys.alphabet
    # alpha beta -> beta alpha + eps beta delta after t = q
    rhs = sys.rules[(alph.index("alpha"), alph.index("beta"))]
    want = (NCPoly.word(alph, ("beta", "alpha"))
            + NCPoly.word(alph, ("beta", "delta")))
    assert rhs.equals(want)
    sysm = minkowski_system(CASE2_MINUS).system
    rhsm = sysm.rules[(alph.index("alpha"), alph.index("beta"))]
    wantm = (NCPoly.word(alph, ("beta", "alpha"))
             - NCPoly.word(alph, ("beta", "delta")))
    assert rhsm.equals(wantm)


def test_orderings_per_regime():
    assert x_order(UNIT_CIRCLE) == ("alpha", "beta", "gamma", "delta")
    assert x_order(REAL_Q) == ("beta", "alpha", "delta", "gamma")
    assert x_order(CASE2_PLUS) == ("beta", "alpha", "delta", "gamma")


# ---------------------------------------------------------------------------
# ordering obstruction: scripted oracle, frozen closed form, sampling
# ---------------------------------------------------------------------------

def _scripted_paths():
    """Independent reduction of both orderings with table coefficients.

    Path A reduces the trailing pair first, path B the leading pair; each
    step uses the displayed relation coefficients directly, not the
    rewrite engine.  Returns the coefficient gap at the two cubic words.
    """
    qb2p1 = QB ** 2 + ONE
    q2p1 = Q ** 2 + ONE
    modsq = Q * QB
    # path A: gamma (beta alpha): swap twice, then resolve gamma beta
    # q(qb^2+1) gamma beta alpha
    #   -> q qb t^-1 (qb^2+1) gamma alpha beta
    #   -> qb (qb^2+1) alpha gamma beta
    #   -> (qb/q) alpha [t(1 - |q|^4) alpha delta + qb(q^2+1) beta gamma]
    a_aad = (QB / Q) * T * (ONE - modsq ** 2)
    a_abg = (QB ** 2 / Q) * q2p1
    # path B: (gamma beta) alpha, then alpha delta alpha and beta gamma alpha
    b_aad = (ONE - modsq ** 2) * QB * q2p1 * T / (Q * qb2p1)
    b_abg = ((ONE - modsq ** 2) * (QB ** 2 - Q ** 2) / (Q * qb2p1)
             + (QB ** 2 / Q) * q2p1)
    return a_aad - b_aad, a_abg - b_abg


def test_obstruction_matches_the_scripted_oracle():
    aad, abg, _ = pbw_obstruction_generic()
    want_aad, want_abg = _scripted_paths()
    assert aad == want_aad
    assert abg == want_abg


def test_obstruction_closed_form():
    aad, abg, _ = pbw_obstruction_generic()
    common = (ONE - (Q * QB) ** 2) * (QB ** 2 - Q ** 2) / (QB ** 2 + ONE)
    assert aad == T * (QB / Q) * common
    assert abg == -(common / Q)


def test_obstruction_numeric_sampling():
    aad, abg, _ = pbw_obstruction_generic()
    rng = random.Random(20240817)
    for _ in range(20):
        q = cmath.exp(1j * rng.uniform(0.1, 3.0)) * rng.uniform(0.5, 2.0)
        qb = cmath.exp(1j * rng.uniform(0.1, 3.0)) * rng.uniform(0.5, 2.0)
        t = rng.uniform(0.5, 2.0)
        va = aad.eval(q, t, qbar=qb)
        closed = (t * (qb / q) * (1 - (q * qb) ** 2) * (qb ** 2 - q ** 2)
                  / (qb ** 2 + 1))
        assert abs(va - closed) < 1e-9 * max(1.0, abs(closed))
        vb = abg.eval(q, t, qbar=qb)
        closed_b = -((1 - (q * qb) ** 2) * (qb ** 2 - q ** 2)
                     / (q * (qb ** 2 + 1)))
        assert abs(vb - closed_b) < 1e-9 * max(1.0, abs(closed_b))


def test_obstruction_vanishing_locus():
    aad, abg, _ = pbw_obstruction_generic()
    for s in (aad, abg):
        assert not s.is_zero()
        assert s.specialize(UNIT_CIRCLE).is_zero()
        assert s.specialize(REAL_Q).is_zero()
        assert s.subst_qbar_minus_q().is_zero()
        assert s.numerator_divisible_by(ONE - (Q * QB) ** 2)
        assert s.numerator_divisible_by(QB ** 2 - Q ** 2)


def test_obstruction_supported_on_independent_words():
    _, _, diff = pbw_obstruction_generic()
    alph = minkowski_system(GENERIC).system.alphabet
    support = {tuple(alph.name(k) for k in w) for w in diff.terms}
    assert support == {("alpha", "alpha", "delta"), ("alpha", "beta", "gamma")}


# ---------------------------------------------------------------------------
# Minkowski length
# ---------------------------------------------------------------------------

def test_length_contraction_raw_form():
    # independent bookkeeping oracle for the contraction in the unit circle
    ell = minkowski_length_poly(UNIT_CIRCLE)
    alph = x_alphabet(UNIT_CIRCLE)
    want = (NCPoly.word(alph, ("gamma", "beta"))
            + NCPoly.word(alph, ("beta", "gamma"))
            - NCPoly.word(alph, ("delta", "alpha"), T * Q)
            - NCPoly.word(alph, ("alpha", "delta"), T * Q ** -1))
    assert ell.equals(want.scale(ONE))


def test_length_centrality_and_star():
    _, reports, comparison = minkowski_length(UNIT_CIRCLE)
    by_id = {r.check_id: r for r in reports}
    assert by_id["length/centrality"].status == "pass"
    assert by_id["length/star-fixed"].status == "pass"
    assert comparison == integer(-2)


def test_length_real_q_centrality():
    _, reports, comparison = minkowski_length(REAL_Q)
    assert all(r.status == "pass" for r in reports)
    assert comparison is None


@pytest.mark.parametrize("regime", [GENERIC, CASE2_PLUS, CASE2_MINUS],
                         ids=lambda r: r.label)
def test_length_refuses_regimes_without_length_checks(regime):
    with pytest.raises(MissingParameterError):
        minkowski_length(regime)


def test_length_suite_and_mz():
    reports = suite_length(UNIT_CIRCLE)
    assert all(r.status == "pass" for r in reports)
    assert mz_presentation_check().status == "pass"
    skip = suite_length(GENERIC)
    assert skip[0].status == "skip"


# ---------------------------------------------------------------------------
# crossed product
# ---------------------------------------------------------------------------

def test_crossed_reduce_single_rule_matches_matrix_entries():
    cp = build_crossed(UNIT_CIRCLE)
    tmat = operator_source(UNIT_CIRCLE).get("T:first")
    # x^{1 2bar} u^2_1 = beta u[2,1]: A=1, B=2, C=2, D=1
    got = cp.normal_form(NCPoly.word(cp.alphabet, ("beta", "u[2,1]")))
    want = NCPoly.zero(cp.alphabet)
    row = (0 << 2) | (1 << 1) | 1     # (A-1, B-1, C-1)
    for col in range(8):
        v = tmat.entries[row][col]
        if v.is_zero():
            continue
        ee, kk, ll = (col >> 2) & 1, (col >> 1) & 1, col & 1
        want = want + NCPoly.word(
            cp.alphabet, (f"u[{ee + 1},1]", PAIR_NAMES[(kk << 1) | ll]), v)
    assert got.equals(want)


def test_crossed_reduce_sorts_mixed_words():
    cp = build_crossed(UNIT_CIRCLE)
    out = cp.normal_form(NCPoly.word(cp.alphabet, ("delta", "alpha", "u[1,1]")))
    idx_u = {cp.alphabet.index(f"u[{a},{b}]") for a in (1, 2) for b in (1, 2)}
    idx_ub = {cp.alphabet.index(f"ub[{a},{b}]") for a in (1, 2) for b in (1, 2)}
    for word in out.terms:
        kinds = ["u" if k in idx_u | idx_ub else "x" for k in word]
        assert kinds == sorted(kinds), "u-letters must all precede x-letters"
        xs = [k for k in word if k not in idx_u | idx_ub]
        assert not any(pair in cp.rules for pair in zip(xs, xs[1:]))


def test_crossed_reduce_classical_commutation():
    from qmink.coeff import GaussianRational
    one = GaussianRational.of(1)
    cp = build_crossed(UNIT_CIRCLE)
    from qmink.rewrite import RewriteRule, RewriteSystem
    cl_rules = [
        RewriteRule(lhs, NCPoly(cp.alphabet,
                                {w: c.subst_half(one, one, one)
                                 for w, c in rhs.terms.items()
                                 if not c.subst_half(one, one, one).is_zero()}))
        for lhs, rhs in cp.rules.items()]
    cl = RewriteSystem(cp.alphabet, cl_rules, UNIT_CIRCLE)
    got = cl.normal_form(NCPoly.word(cp.alphabet, ("alpha", "u[1,2]")))
    assert got.equals(NCPoly.word(cp.alphabet, ("u[1,2]", "alpha")))


def test_u_words_are_left_free():
    cp = build_crossed(UNIT_CIRCLE)
    p = NCPoly.word(cp.alphabet, ("u[2,1]", "u[1,2]"))
    assert cp.normal_form(p).equals(p)


@pytest.mark.parametrize("variant", ["first", "second"])
def test_crossed_star_check(variant):
    reports = {r.check_id: r for r in intertwiners.suite_crossed(UNIT_CIRCLE)}
    rep = reports[f"crossed/star-involution:{variant}"]
    assert rep.status == "pass" and rep.residual is None


@pytest.mark.parametrize("variant", ["first", "second"])
def test_crossed_star_check_catches_a_scaled_t_prime(variant):
    class ScaledSource(intertwiners.OperatorSource):
        def _build(self, name):
            m = super()._build(name)
            if name != f"T':{variant}":
                return m
            entries = [list(row) for row in m.entries]
            i = next(i for i, row in enumerate(m.rows) if row)
            j = next(iter(m.rows[i]))
            entries[i][j] = entries[i][j] * integer(2)
            return TMap(m.in_sig, m.out_sig, entries)

    reports = {r.check_id: r for r in intertwiners.suite_crossed(
        UNIT_CIRCLE, ScaledSource(UNIT_CIRCLE))}
    other = "second" if variant == "first" else "first"
    assert reports[f"crossed/star-involution:{variant}"].status == "fail"
    assert reports[f"crossed/star-involution:{other}"].status == "pass"


def test_classical_systems_store_no_zero_coefficient():
    # NCPoly.is_zero is "no terms", so a stored zero coefficient would make
    # a zero polynomial look nonzero
    systems = {
        "minkowski": algebras._classical_system(UNIT_CIRCLE),
        "crossed": algebras._classical_crossed_system(),
        "braided": build_braided_square(UNIT_CIRCLE, sigma=ONE,
                                        classical=True).system,
    }
    for label, sys in systems.items():
        zeros = [lhs for lhs, rhs in sys.rules.items()
                 if any(c.is_zero() for c in rhs.terms.values())]
        assert zeros == [], label
    ell = algebras._classical_poly(minkowski_length_poly(UNIT_CIRCLE))
    assert not any(c.is_zero() for c in ell.terms.values())


# ---------------------------------------------------------------------------
# braided square
# ---------------------------------------------------------------------------

def test_braided_delta_passes_with_the_spectral_scalar():
    residuals, steps, sq = braided_delta_check(UNIT_CIRCLE)
    assert all(v.is_zero() for v in residuals.values())
    assert len(steps) == 5
    assert sq.sigma == (Q ** -1).specialize(UNIT_CIRCLE)


def test_braided_delta_fails_with_trivial_braiding():
    residuals, _, sq = braided_delta_check(UNIT_CIRCLE, sigma=ONE)
    assert sum(not v.is_zero() for v in residuals.values()) == 12
    # each residual row is exactly the matrix obstruction's row, placed on
    # the words h[a,c] x_b x'_c: no term missing, none extra
    obstruction = compose(sq.pminus, sq.what + identity((U, B, U, B)))
    alph = sq.alphabet
    for (m, n), poly in residuals.items():
        want = NCPoly.zero(alph)
        for col, v in enumerate(obstruction.entries[(m << 2) | n]):
            for c in range(4):
                want = want + NCPoly.word(alph, (f"h[{col >> 2},{c}]",
                                                 PAIR_NAMES[col & 3],
                                                 PAIR_NAMES[c] + "'"), v)
        assert poly.equals(want), (m, n)


def _unsplit_braided_delta(sq):
    """The braided coproduct residuals as computed before the blocks were
    reduced one by one: each residual is the antisymmetrizer's combination
    of the unreduced blocks, reduced as a whole."""
    alph, sys, pm = sq.alphabet, sq.system, sq.pminus
    zero = NCPoly.zero(alph)

    def word(*names):
        return NCPoly.word(alph, names)

    def combination(row, polys):
        return sum((polys[col].scale(v) for col, v in row.items()), zero)

    def hh(j, k, tail):
        return sum((word(f"h[{j},{a}]", f"h[{k},{b}]") * tail[(a << 2) | b]
                    for a in range(4) for b in range(4)), zero)

    delta = [sum((word(f"h[{j},{a}]", PAIR_NAMES[a] + "'") for a in range(4)),
                 word(PAIR_NAMES[j])) for j in range(4)]
    primed = [word(PAIR_NAMES[a] + "'", PAIR_NAMES[b] + "'")
              for a in range(4) for b in range(4)]
    blocks = [delta[j] * delta[k] - hh(j, k, primed)
              for j in range(4) for k in range(4)]
    pm_primed = [combination(row, primed) for row in pm.rows]
    return {(m, n): sys.normal_form(combination(pm.rows[(m << 2) | n], blocks)
                                    + hh(m, n, pm_primed))
            for m in range(4) for n in range(4)}


@pytest.mark.parametrize("kwargs, unsplit_units, fails", [
    ({}, 12901, False),
    ({"sigma": ONE}, 13237, True),
    ({"sigma": ONE, "classical": True}, 2004, False),
    ({"sigma": Q.specialize(UNIT_CIRCLE)}, 13429, True),
], ids=["spectral", "sigma-one", "classical", "sigma-q"])
def test_blockwise_reduction_matches_the_unsplit_script(kwargs, unsplit_units, fails):
    # unsplit_units: the WorkBudget units of one call of the unsplit script,
    # with the operators already built
    prereq = certified_prerequisites(UNIT_CIRCLE)
    sq = build_braided_square(UNIT_CIRCLE, **kwargs)  # builds the operators
    with WorkBudget(10 ** 9) as budget:
        residuals, _, _ = braided_delta_check(UNIT_CIRCLE, prereq=prereq, **kwargs)
    want = _unsplit_braided_delta(sq)
    assert residuals.keys() == want.keys()
    for k, poly in residuals.items():
        assert poly.equals(want[k]), k
    assert any(not v.is_zero() for v in want.values()) == fails
    assert 2 * (budget.units - budget.left) <= unsplit_units


def test_braided_delta_classical_limit():
    residuals, _, _ = braided_delta_check(UNIT_CIRCLE, sigma=ONE, classical=True)
    assert all(v.is_zero() for v in residuals.values())


def test_braided_delta_requires_certified_prerequisites():
    bad = [CheckReport("probe", "unit-circle", "fail")]
    with pytest.raises(OracleUnverifiedError):
        braided_delta_check(UNIT_CIRCLE, prereq=bad)


def _passing(check_id):
    return [CheckReport(check_id, "unit-circle", "pass")]


@pytest.mark.parametrize("failing", ["moves", "spectral"])
def test_suite_delta_gate_reads_recorded_failing_reports(monkeypatch, failing):
    monkeypatch.setattr(intertwiners, "_SOURCES", {})
    src = operator_source(UNIT_CIRCLE)
    src.reports = {"moves": _passing("moves/a"), "spectral": _passing("spectral/b")}
    src.reports[failing] = [CheckReport(f"{failing}/probe", "unit-circle", "fail")]
    with pytest.raises(OracleUnverifiedError, match=f"{failing}/probe"):
        suite_delta(UNIT_CIRCLE)


def test_prerequisites_run_only_the_suites_not_recorded(monkeypatch):
    monkeypatch.setattr(intertwiners, "_SOURCES", {})
    calls = []

    def fake(name):
        def suite(regime, source):
            calls.append(name)
            assert source is operator_source(regime)
            return _passing(f"{name}/ran")
        return suite

    monkeypatch.setattr(algebras, "suite_moves", fake("moves"))
    monkeypatch.setattr(algebras, "suite_spectral", fake("spectral"))
    src = operator_source(UNIT_CIRCLE)
    src.reports["moves"] = _passing("moves/recorded")
    got = certified_prerequisites(UNIT_CIRCLE)
    assert [r.check_id for r in got] == ["moves/recorded", "spectral/ran"]
    assert calls == ["spectral"]


def test_suite_moves_records_its_reports_on_the_source():
    src = operator_source(UNIT_CIRCLE)
    reports = suite_moves(UNIT_CIRCLE)
    assert src.reports["moves"] == reports
    assert src.reports["moves"] is not reports


def test_braided_square_is_unit_circle_only():
    with pytest.raises(SpanMismatchError):
        build_braided_square(REAL_Q)


def test_delta_suite(monkeypatch):
    # the prerequisites are read once, before the rows run, so no row's
    # time covers the backing suites
    calls = []
    real = algebras.certified_prerequisites

    def spy(regime):
        calls.append(regime.label)
        return real(regime)

    monkeypatch.setattr(algebras, "certified_prerequisites", spy)
    reports = suite_delta(UNIT_CIRCLE)
    assert all(r.status == "pass" for r in reports)
    assert {r.check_id for r in reports} == {
        "delta/braided-coproduct", "delta/sigma-one-fails",
        "delta/classical-sigma-one", "delta/braiding-consistency"}
    assert suite_delta(GENERIC)[0].status == "skip"
    assert calls == ["unit-circle"]


# ---------------------------------------------------------------------------
# combined normal-form system and classical degeneration
# ---------------------------------------------------------------------------

def test_full_system_unit_circle_shape():
    alph, system = full_system(UNIT_CIRCLE)
    p = NCPoly.word(alph, ("alpha", "h[1,2]", "alpha'"))
    out = system.normal_form(p)
    assert not out.is_zero()
    h_idx = {alph.index(f"h[{r},{c}]") for r in range(4) for c in range(4)}
    for word in out.terms:
        kinds = [0 if k in h_idx else (2 if alph.name(k).endswith("'") else 1)
                 for k in word]
        assert kinds == sorted(kinds)


def test_full_system_generic_has_no_h_symbols():
    alph, _ = full_system(GENERIC)
    with pytest.raises(Exception):
        alph.index("h[0,0]")


def test_suite_pbw_all_regimes():
    for regime in ALL_REGIMES:
        assert all(r.status == "pass" for r in suite_pbw(regime)), regime.label


def test_suite_classical():
    reports = suite_classical(GENERIC)
    assert all(r.status == "pass" for r in reports)
    assert {r.check_id for r in reports} == {
        "classical/operators", "classical/minkowski-commutative",
        "classical/crossed-commutative", "classical/braided-commutative",
        "classical/corner-term-survives"}

import cmath
import gc
import json
import random
import re
import weakref
from pathlib import Path

import golden
import numpy as np
import pytest

from qmink.coeff import (CASE2_MINUS, CASE2_PLUS, GENERIC, ONE, Q, REAL_Q,
                         RegimeKind, T, UNIT_CIRCLE, ZERO, DomainError,
                         GaussianRational, integer, rat, MissingParameterError)
from qmink.intertwiners import (Factor, MatrixIdentity,
                                OperatorSource, UnknownNameError, _bound_step,
                                classical_limit, identity_catalog,
                                numeric_residual, numeric_suite,
                                operator_source, pauli_basis,
                                pauli_basis_inverse, run_matrix_identity,
                                suite_braid, suite_compat, suite_crossed,
                                suite_moves, suite_spectral,
                                vector_components)
from qmink.tensor import (B, TMap, TypeMismatchError, U, compose, flip,
                          identity, place, placement, tensor_product)

ALL_REGIMES = (GENERIC, UNIT_CIRCLE, REAL_Q, CASE2_PLUS, CASE2_MINUS)
GR_ONE = GaussianRational.of(1)


# ---------------------------------------------------------------------------
# named operator values
# ---------------------------------------------------------------------------

def test_metric_vector_components():
    e = operator_source(GENERIC).get("E")
    col = [e.entries[k][0] for k in range(4)]
    assert col[0].is_zero() and col[3].is_zero()
    assert col[1] == ONE and col[2] == -Q


def test_crossing_at_t_equal_one_is_the_flip():
    x = operator_source(GENERIC).get("X")
    at_one = x.map_entries(lambda s: s.subst_half(None, None, GR_ONE))
    assert at_one.equals(flip(U, B))


def test_unrescaled_crossing_is_a_scalar_multiple():
    # the sqrt(t)-weighted form, built from its own displayed entries,
    # equals sqrt(t) times the canonical rescaled crossing
    from qmink.coeff import T_HALF
    full = TMap((U, B), (B, U), [[T_HALF, ZERO, ZERO, ZERO],
                                 [ZERO, ZERO, T_HALF ** -1, ZERO],
                                 [ZERO, T_HALF ** -1, ZERO, ZERO],
                                 [ZERO, ZERO, ZERO, T_HALF]])
    src = operator_source(GENERIC)
    assert full.equals(src.get("Xfull"))
    assert full.equals(src.get("X").scale(T_HALF))
    assert compose(full, src.get("Xfull^-1")).equals(identity((B, U)))


def test_crossing_action_case1():
    x = operator_source(GENERIC).get("X")
    # X(e2 (x) e_1bar) = t^-1 e_1bar (x) e2: column (1,0), row (0,1)
    assert x.entries[1][2] == T ** -1
    assert x.entries[2][3].is_zero()


def test_crossing_action_case2_has_the_corner_term():
    x = operator_source(CASE2_PLUS).get("X")
    # X(e2 (x) e_2bar) = e_2bar (x) e2 + eps e_1bar (x) e1
    assert x.entries[3][3] == ONE
    assert x.entries[0][3] == ONE
    xm = operator_source(CASE2_MINUS).get("X")
    assert xm.entries[0][3] == -ONE


def test_m_eats_the_metric_vector():
    src = operator_source(GENERIC)
    got = compose(src.get("M"), src.get("E"))
    assert got.equals(src.get("E").scale(-(Q ** -1)))


def test_m_is_q_plus_metric_pair():
    src = operator_source(GENERIC)
    ee = compose(src.get("E"), src.get("E'"))
    assert src.get("M").equals(identity((U, U)).scale(Q) + ee)


def test_m_inverse_and_k_inverse():
    src = operator_source(GENERIC)
    assert compose(src.get("M"), src.get("M^-1")).equals(identity((U, U)))
    assert compose(src.get("K"), src.get("K^-1")).equals(identity((B, B)))
    assert compose(src.get("Rhat+"), src.get("Rhat+^-1")).equals(
        identity((U, B, U, B)))
    assert compose(src.get("Rhat-"), src.get("Rhat-^-1")).equals(
        identity((U, B, U, B)))


def test_classical_tau_conjugation_fixes_the_flip():
    from qmink.tensor import tau_conjugate
    m_cl = classical_limit(operator_source(GENERIC).get("M"))
    assert m_cl.equals(flip(U, U))
    assert tau_conjugate(m_cl).equals(flip(B, B))


def test_unknown_name_and_regime_gate():
    with pytest.raises(UnknownNameError):
        operator_source(GENERIC).get("nope")
    with pytest.raises(MissingParameterError):
        operator_source(GENERIC).get("What")


@pytest.mark.parametrize("name", ["PauliBasis", "PauliBasis^-1",
                                  "S^-1:first", "S^-1:second"])
def test_unrequested_operator_names_are_gone(name):
    # the Pauli base change is reached through pauli_basis() and
    # vector_components; S^-1 was never requested by any check
    with pytest.raises(UnknownNameError):
        OperatorSource(UNIT_CIRCLE).get(name)


def test_crossing_direction_is_forced_by_types():
    # with the opposite reading of the crossing, its inverse could not be
    # placed where the braid conjugation needs it
    src = operator_source(GENERIC)
    wrong_inverse = TMap.zero((U, B), (B, U))
    with pytest.raises(TypeMismatchError):
        place(wrong_inverse, (2, 3), (U, B, U, B))
    place(src.get("X^-1"), (2, 3), (U, B, U, B))  # adopted direction works


# ---------------------------------------------------------------------------
# suites per regime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_moves_suite(regime):
    reports = suite_moves(regime)
    assert all(r.status == "pass" for r in reports)
    positive = [r for r in reports if r.mode == "expect-zero"]
    assert len(positive) == 9


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_braid_suite(regime):
    reports = suite_braid(regime)
    assert all(r.status == "pass" for r in reports)
    ids = {r.check_id for r in reports}
    for name in ("Rhat+", "Rhat-", "Rhat+^-1", "Rhat-^-1"):
        assert f"braid/{name}" in ids


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_spectral_suite(regime):
    assert all(r.status == "pass" for r in suite_spectral(regime))


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_compat_suite(regime):
    reports = suite_compat(regime)
    assert all(r.status != "fail" for r in reports)


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_crossed_suite(regime):
    assert all(r.status == "pass" for r in suite_crossed(regime))


@pytest.mark.parametrize("regime", [UNIT_CIRCLE, REAL_Q, CASE2_PLUS, CASE2_MINUS],
                         ids=lambda r: r.label)
def test_sigma_one_checks_fail_on_a_stray_factor(regime):
    # every entry of the sigma = 1 residual times q + 2: still divisible by
    # the claimed factor and still zero at q = 1, but now the entries also
    # vanish together at q = -2, so no entry is the factor times one term
    src = OperatorSource(regime)
    resid = src.get("Pminus(What+1)")
    src._cache["Pminus(What+1)"] = resid.scale((Q + integer(2)).specialize(regime))
    cid = "compat/sigma-one-obstructed" if regime is UNIT_CIRCLE \
        else "compat/sigma-one-divisibility"
    fresh = {r.check_id: r for r in suite_compat(regime)}[cid]
    stray = {r.check_id: r for r in suite_compat(regime, src)}[cid]
    assert fresh.status == "pass" and "witness entry[" in fresh.detail
    assert stray.status == "fail"
    assert stray.detail.endswith(" times one term") and "no entry numerator" in stray.detail


def test_normalization_constraint_factorization():
    # the scan reduces the shuttle condition to a*b = 1 and
    # a^2 + b^2 = q + 1/q, i.e. u^2 - (q + 1/q)u + 1 = 0 for u = a^2;
    # that quadratic factors as (u - q)(u - 1/q): checked with u
    # replaced by the independent transcendental t
    lhs = (T - Q) * (T - Q ** -1)
    rhs = T ** 2 - (Q + Q ** -1) * T + ONE
    assert lhs == rhs


def test_sigma_candidates_fail_for_real_q():
    ids = {r.check_id: r for r in suite_compat(REAL_Q)}
    for label in ("one", "q", "qinv"):
        rep = ids[f"compat/sigma-{label}-nonzero"]
        assert rep.status == "pass" and rep.mode == "expect-nonzero"


def test_move_equivalence_classes_fail_jointly_under_perturbation():
    src = operator_source(GENERIC)

    def rename(n):
        return {"X": "X!pert", "X^-1": "X!pert^-1"}.get(n, n)

    from qmink.intertwiners import _moves_catalog
    statuses = {}
    for chk in _moves_catalog():
        sub = tuple(Factor(rename(f.name), f.legs, f.out_legs, f.scalar)
                    for f in chk.lhs)
        sub_r = tuple(Factor(rename(f.name), f.legs, f.out_legs, f.scalar)
                      for f in chk.rhs)
        got = run_matrix_identity(
            MatrixIdentity(chk.check_id, chk.ambient, sub, sub_r), src)
        statuses[chk.check_id] = got.status
    class_a = {statuses[k] for k in statuses
               if k in ("moves/Xi.M.X", "moves/M.Xi.Xi", "moves/X.X.M")}
    class_b = {statuses[k] for k in statuses
               if k not in ("moves/Xi.M.X", "moves/M.Xi.Xi", "moves/X.X.M")}
    assert len(class_a) == 1 and len(class_b) == 1
    assert class_a == {"fail"}


@pytest.mark.parametrize("flip", [(0, 1), (2,), (0, 1, 2)],
                         ids=["q-branch", "t-branch", "both"])
def test_half_power_branch_insensitivity(flip):
    # conjugation links the square roots of q and qb, so the meaningful
    # branch change flips them simultaneously; the root of t is its own
    # choice -- every status must survive either flip
    base = {r.check_id: r.status for r in suite_crossed(GENERIC)}
    flipped_src = OperatorSource(GENERIC, flip_atoms=flip)
    flipped = {r.check_id: r.status for r in suite_crossed(GENERIC, flipped_src)}
    assert base == flipped
    base_m = {r.check_id: r.status for r in suite_moves(GENERIC)}
    flipped_m = {r.check_id: r.status
                 for r in suite_moves(GENERIC, flipped_src)}
    assert base_m == flipped_m


def test_specialization_preserves_generic_passes():
    generic_ids = {r.check_id for r in suite_moves(GENERIC) if r.status == "pass"}
    for regime in (UNIT_CIRCLE, REAL_Q):
        got = {r.check_id: r.status for r in suite_moves(regime)}
        for cid in generic_ids:
            assert got[cid] == "pass"


# ---------------------------------------------------------------------------
# vector components
# ---------------------------------------------------------------------------

def test_pauli_basis_inverse_is_exact():
    c = pauli_basis()
    ci = pauli_basis_inverse()
    assert compose(c, ci).equals(identity((U, B)))
    assert compose(ci, c).equals(identity((U, B)))


def test_identity_representation_has_delta_components():
    h = identity((U, B))
    assert vector_components(h).equals(h)


def test_numeric_unitary_gives_real_vector_entries():
    # u = diag((3+4i)/5, (3-4i)/5) is exactly unitary over the Gaussians
    from qmink.coeff import gauss
    u = [[gauss("3/5", "4/5"), gauss(0, 0)], [gauss(0, 0), gauss("3/5", "-4/5")]]
    h = TMap((U, B), (U, B), [[u[A][C] * u[Bb][D].star()
                               for C in range(2) for D in range(2)]
                              for A in range(2) for Bb in range(2)])
    vec = vector_components(h)
    for row in vec.entries:
        for v in row:
            assert v.star() == v, "vector components must be real"


def test_vector_components_preserve_projection_structure():
    pm = operator_source(UNIT_CIRCLE).get("Pminus")
    vec = vector_components(pm, UNIT_CIRCLE)
    assert compose(vec, vec).equals(vec)
    assert vec.trace() == integer(6)


def test_classical_vector_antisymmetrizer():
    from qmink.tensor import permutation
    pm_cl = classical_limit(operator_source(GENERIC).get("Pminus"))
    vec = vector_components(pm_cl)
    tau_bold = permutation((U, B, U, B), (3, 4, 1, 2))
    want = (identity((U, B, U, B)) - tau_bold).scale(rat(1, 2))
    assert vec.equals(want)


# ---------------------------------------------------------------------------
# numeric mirror
# ---------------------------------------------------------------------------

def test_numeric_identities_at_a_sample_point():
    q = cmath.exp(1j * cmath.pi / 5)
    res = numeric_suite(UNIT_CIRCLE, q, 2.0)
    assert res, "numeric suite must cover the declarative identities"
    for cid, v in res.items():
        assert v < 1e-10, f"{cid} residual {v}"


def test_numeric_catalog_matches_symbolic_catalog():
    ids = {c.check_id for c in identity_catalog(UNIT_CIRCLE)}
    assert "braid/Rhat+" in ids and "crossed/S.S.E:first" in ids


# one valid sample point (q, t, qbar) per regime
SAMPLE_POINTS = {
    GENERIC: (0.9 * cmath.exp(0.7j), 0.7, 1.2 * cmath.exp(2.1j)),
    UNIT_CIRCLE: (cmath.exp(1j * cmath.pi / 5), 2.0, None),
    REAL_Q: (1.3 + 0j, 0.7, None),
    CASE2_PLUS: (1.3 + 0j, 0.7, None),
    CASE2_MINUS: (0.8 + 0j, 1.6, None),
}


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_numeric_placement_equals_exact_placement(regime):
    """Scattering an operator's own numeric matrix gives exactly the
    numeric matrix of its exact placement, for every factor of every
    declarative identity (exact place + to_numpy is the oracle)."""
    q, t, qbar = SAMPLE_POINTS[regime]
    src = operator_source(regime)
    checked = 0
    for chk in identity_catalog(regime):
        for factors in (chk.lhs, chk.rhs):
            sig = chk.ambient
            for f in reversed(factors):
                if f.name == "#":
                    continue
                op = src.get(f.name)
                exact = place(op, f.legs, sig, f.out_legs)
                pl = placement(op.in_sig, op.out_sig, f.legs, sig, f.out_legs)
                assert pl.out_sig == exact.out_sig
                want = exact.to_numpy(q, t, regime, qbar)
                got = pl.scatter(op.to_numpy(q, t, regime, qbar))
                assert got.shape == want.shape and got.dtype == want.dtype
                assert (got == want).all(), (chk.check_id, f.name)
                sig = pl.out_sig
                checked += 1
    assert checked > 0


def test_numeric_residual_detects_wrong_scalar():
    src = operator_source(UNIT_CIRCLE)
    bad = MatrixIdentity(
        "probe", (U,),
        (Factor("S:first", (1, 2)), Factor("S:first", (2, 3)),
         Factor("E", (), (1, 2))),
        (Factor.s(Q), Factor("E", (), (2, 3))))
    q = cmath.exp(0.7j)
    assert numeric_residual(bad, src, q, 0.5) > 1e-3


def test_a_broken_identity_fails_against_its_scale():
    from qmink.intertwiners import _x_x_m
    src = operator_source(UNIT_CIRCLE)
    q = cmath.exp(0.7j)
    scales = {}
    resid = numeric_residual(_x_x_m("probe", "X!pert"), src, q, 1e4, None,
                             {}, scales)
    assert scales["probe"] >= 1e8 and resid >= 1e-9 * scales["probe"]
    resid = numeric_residual(_x_x_m("probe", "X"), src, q, 1e4, None, {},
                             scales)
    assert resid < 1e-9 * scales["probe"]


def test_numeric_suite_scales_leave_the_residuals_alone():
    q = cmath.exp(0.7j)
    scales = {}
    res = numeric_suite(UNIT_CIRCLE, q, 1e-3, scales=scales)
    assert res == numeric_suite(UNIT_CIRCLE, q, 1e-3)
    assert set(scales) == set(res)
    assert all(s >= 1.0 for s in scales.values())
    assert any(r >= 1e-9 for r in res.values())
    assert all(r < 1e-9 * scales[k] for k, r in res.items())


def test_float_prefactors_flip_with_the_operators():
    """On a source whose half-power signs are flipped, the float mirror
    flips the scalar prefactors too, as the exact engine does."""
    q, t, qbar = SAMPLE_POINTS[GENERIC]
    src = OperatorSource(GENERIC, (0,))
    for chk in identity_catalog(GENERIC):
        if chk.check_id.startswith("crossed/xh-matrix"):
            assert run_matrix_identity(chk, src).status == "pass"
            assert numeric_residual(chk, src, q, t, qbar) < 1e-12


def _catalog_placements(regime):
    """(name, Placement) of every operator factor of the regime's catalog."""
    src = operator_source(regime)
    for chk in identity_catalog(regime):
        for ops, _ in src.steps(chk):
            yield from ops


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_contraction_equals_the_dense_product():
    """Placement.apply, and the mirror's bound step with |A|, against the
    dense product with the scattered matrix: every placed operator of the
    five catalogs, at its regime's sample point, and placements that
    change the number of legs."""
    rng = np.random.default_rng(24)
    cases = []
    for regime in ALL_REGIMES:
        q, t, qbar = SAMPLE_POINTS[regime]
        src = operator_source(regime)
        cases += [(pl, src.get(name).to_numpy(q, t, regime, qbar))
                  for name, pl in _catalog_placements(regime)]
    assert len({id(pl) for pl, _ in cases}) > 20
    shaped = [((U, B), (B, U, U), (2, 3), (U, U, B), (1, 2, 4)),  # out_legs
              ((), (U, B), (), (B, U), (2, 3)),                  # a vector
              ((U, B), (), (3, 1), (B, U, U), None),             # a functional
              ((U,), (U, B, U), (2,), (B, U, B), (1, 2, 4))]
    for in_sig, out_sig, legs, ambient, out_legs in shaped:
        pl = placement(in_sig, out_sig, legs, ambient, out_legs)
        cases.append((pl, _random_complex(rng, (1 << len(out_sig), 1 << len(in_sig)))))
    for pl, a in cases:
        acc = _random_complex(rng, (1 << len(pl.ambient), 5))
        want = pl.scatter(a) @ acc
        want_bound = pl.scatter(abs(a)) @ abs(acc)
        scale = max(1.0, want_bound.max())
        assert np.abs(pl.apply(a, acc) - want).max() <= 1e-13 * scale
        assert np.abs(_bound_step(pl, a, abs(acc)) - want_bound).max() <= 1e-13 * scale
        assert (_bound_step(pl, a, None) == pl.scatter(abs(a))).all()


def dense_residual(chk, source, q, t, qbar=None, scales=None):
    """The float mirror as scatter-then-matmul: each placed operator's
    ambient matrix, multiplied in densely (the reference for the
    contraction on the operator's legs)."""
    bounds = []

    def side(factors):
        acc = bound = None
        sig = chk.ambient
        pending = 1.0 + 0j
        for f in reversed(factors):
            if f.name == "#":
                pending *= f.scalar.specialize(source.regime).eval(
                    q, t, source.regime, qbar)
                continue
            op = source.get(f.name)
            pl = placement(op.in_sig, op.out_sig, f.legs, sig, f.out_legs)
            a = pl.scatter(op.to_numpy(q, t, source.regime, qbar))
            acc = a if acc is None else a @ acc
            bound = abs(a) if bound is None else abs(a) @ bound
            sig = pl.out_sig
        bounds.append(bound * abs(pending))
        return acc * pending

    lhs, rhs = side(chk.lhs), side(chk.rhs)
    if scales is not None:
        scales[chk.check_id] = max(1.0, *(float(np.max(b)) for b in bounds))
    return float(np.max(np.abs(lhs - rhs)))


def _seeded_points(regime, n=3):
    """n seeded points of the regime's domain: q (and qbar) drawn as
    ``qmink eval`` draws them, t uniform in [0.5, 2]."""
    rng = random.Random(f"dense-reference:{regime.label}")
    out = []
    while len(out) < n:
        t = 0.5 + 1.5 * rng.random()
        if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
            out.append((complex(0.5 + 1.5 * rng.random()), t, None))
        elif regime.kind is RegimeKind.UNIT_CIRCLE:
            theta = rng.uniform(0.08, cmath.pi - 0.08)
            if abs(theta - cmath.pi / 2) >= 0.1:
                out.append((cmath.exp(1j * theta), t, None))
        else:
            q, qbar = (cmath.exp(1j * rng.uniform(0.1, 3.0)) * (0.5 + rng.random())
                       for _ in range(2))
            out.append((q, t, qbar))
    return out


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_residuals_and_scales_match_the_dense_reference(regime):
    src = operator_source(regime)
    points = list(golden.POINTS[regime.kind]) + _seeded_points(regime)
    for q, t, qbar in points:
        scales = {}
        res = numeric_suite(regime, q, t, qbar, scales)
        for chk in identity_catalog(regime):
            want_scales = {}
            want = dense_residual(chk, src, q, t, qbar, want_scales)
            s = want_scales[chk.check_id]
            assert abs(res[chk.check_id] - want) <= 1e-12 * s, (chk.check_id, q, t)
            assert abs(scales[chk.check_id] - s) <= 1e-12 * s, (chk.check_id, q, t)


@pytest.mark.parametrize("rhs, status", [((), "pass"), ((Factor.s(T),), "fail")])
def test_an_operator_free_side_is_the_identity(rhs, status):
    """A side with no operator is the identity times its prefactors, in
    the float mirror as in the exact engine, and the verdicts agree."""
    probe = MatrixIdentity("probe", (U, B),
                           (Factor("X^-1", (1, 2)), Factor("X", (1, 2))), rhs)
    for regime in ALL_REGIMES:
        q, t, qbar = SAMPLE_POINTS[regime]
        src = operator_source(regime)
        assert run_matrix_identity(probe, src).status == status
        scales = {}
        resid = numeric_residual(probe, src, q, t, qbar, {}, scales)
        assert ("pass" if resid < 1e-9 * scales["probe"] else "fail") == status
        if status == "fail":  # t is q in case 2
            t_value = T.specialize(regime).eval(q, t, regime)
            assert resid == pytest.approx(abs(1 - t_value))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_check_report_json_shape():
    rep = suite_moves(GENERIC)[0]
    d = rep.to_json_dict()
    assert set(d) >= {"check_id", "regime", "status", "mode", "elapsed_ms"}
    json.dumps(d)


def test_failing_report_carries_residual():
    src = operator_source(GENERIC)
    bad = MatrixIdentity("probe", (U, U),
                         (Factor("M", (1, 2)),), (Factor("M^-1", (1, 2)),))
    rep = run_matrix_identity(bad, src)
    assert rep.status == "fail"
    assert rep.residual and "entry[" in rep.residual


# ---------------------------------------------------------------------------
# expect-nonzero verdicts read rows up to the first nonzero one
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"


def _golden_checks(regime):
    name = {"case2+": "case2-plus", "case2-": "case2-minus"}.get(
        regime.label, regime.label)
    checks = json.loads((GOLDEN / f"{name}.json").read_text())["checks"]
    return {c["check_id"]: c for c in checks}


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_expect_nonzero_scans_stop_at_the_reported_row(monkeypatch, regime):
    from qmink import intertwiners
    judged = {}
    nonzero = intertwiners._VERDICTS["nonzero"]

    def spy(row, m):
        judged[row.check_id] = m
        return nonzero(row, m)
    monkeypatch.setitem(intertwiners._VERDICTS, "nonzero", spy)
    src = OperatorSource(regime)
    reports = [r for suite in (suite_moves, suite_braid, suite_compat,
                               suite_crossed)
               for r in suite(regime, src) if r.check_id in judged]
    golden = _golden_checks(regime)
    for rep in reports:
        got = rep.to_json_dict()
        del got["elapsed_ms"]
        assert got == {k: v for k, v in golden[rep.check_id].items()
                       if k != "elapsed_ms"}
    lazy = {k: m for k, m in judged.items() if not isinstance(m.rows, list)}
    want = {"moves/X.X.M!perturbed-x", "braid/Rhat+!perturbed-x"}
    if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
        want |= {f"compat/sigma-{s}-nonzero" for s in ("one", "q", "qinv")}
    assert set(lazy) == want
    residuals = {r.check_id: r.residual for r in reports}
    for check_id, m in lazy.items():
        row = int(re.match(r"entry\[(\d+)\]", residuals[check_id]).group(1))
        assert max(i for i, r in enumerate(m.rows._built) if r is not None) == row


def test_a_vanishing_difference_fails_without_a_residual():
    from qmink.intertwiners import _x_x_m
    rep = run_matrix_identity(_x_x_m("probe", "X", "nonzero"),
                              operator_source(UNIT_CIRCLE))
    assert rep.mode == "expect-nonzero"
    assert rep.status == "fail" and rep.residual is None


# ---------------------------------------------------------------------------
# shared tables: a product table per suite, a value table per sample point
# ---------------------------------------------------------------------------

def test_no_table_outlives_its_suite(monkeypatch):
    from qmink import intertwiners, tensor

    class Tracked(tensor.ProductTable):
        made = []

        def __init__(self):
            super().__init__()
            Tracked.made.append(weakref.ref(self))

    monkeypatch.setattr(intertwiners, "ProductTable", Tracked)
    for suite in (suite_moves, suite_braid, suite_compat):
        suite(CASE2_PLUS, OperatorSource(CASE2_PLUS))
        assert tensor.active_table is None
    numeric_suite(UNIT_CIRCLE, *SAMPLE_POINTS[UNIT_CIRCLE])
    assert tensor.active_table is None
    gc.collect()
    assert len(Tracked.made) == 3 and all(ref() is None for ref in Tracked.made)


def _operators(regime):
    src = OperatorSource(regime)
    for name in golden.OPERATOR_NAMES:
        try:
            yield name, src.get(name)
        except MissingParameterError:
            pass


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_shared_entry_values_are_the_entrywise_values(regime):
    ops = list(_operators(regime))
    for q, t, qbar in golden.POINTS[regime.kind]:
        values = {}
        entries = 0
        for name, op in ops:
            got = op.to_numpy(q, t, regime, qbar, values)
            for i, row in enumerate(op.entries):
                for j, v in enumerate(row):
                    want = 0j if v.is_zero() else v.eval(q, t, regime, qbar)
                    assert (float.hex(got[i, j].real), float.hex(got[i, j].imag)) == \
                        (float.hex(want.real), float.hex(want.imag)), (name, i, j)
                    entries += not v.is_zero()
        # forms repeat across the operators: each was evaluated once
        assert len([k for k in values if type(k) is int]) < entries


def test_shared_entry_values_keep_the_errors():
    x = TMap((U,), (U,), [[ONE / (Q - ONE), ZERO], [ZERO, Q]])
    with pytest.raises(DomainError) as exc:
        x.to_numpy(1j, 0.5, GENERIC, None, {})
    with pytest.raises(DomainError) as want:
        Q.eval(1j, 0.5)
    assert str(exc.value) == str(want.value) == "q = 1j is excluded"
    values = {}
    with pytest.raises(ZeroDivisionError):
        x.to_numpy(1 + 0j, 0.5, GENERIC, None, values)
    assert list(values.values()) == []

"""Construction of the named structure maps and the identity suites.

Each named map has one recipe in a table.  The structure maps are built
over the generic scalar field and specialized to the requested regime once;
the maps derived from them are built from the specialized ones, so a single
code path serves all regimes.  The
canonical crossing map X is the rescaled form (epsilon = 0 in case 1,
epsilon = +-1 with t = q in case 2); every identity checked here has the
same number of X factors on both sides, so the rescaling scalar cancels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import coeff
from .coeff import (GENERIC, ONE, Q, Q_HALF, QB, QB_HALF, Regime, RegimeKind,
                    Scalar, T, T_HALF, ZERO, GaussianRational, integer,
                    MissingParameterError)
from .tensor import (B, Leg, TMap, U, bar_conjugate, compose, identity, invert,
                     lazy_compose, permutation, place, placement, span_equal,
                     tau_conjugate, tensor_product)

__all__ = [
    "CheckReport", "UnknownNameError",
    "Factor", "MatrixIdentity", "run_matrix_identity", "identity_catalog",
    "suite_moves", "suite_braid", "suite_spectral", "suite_compat",
    "suite_crossed", "vector_components", "pauli_basis", "pauli_basis_inverse",
    "numeric_suite", "classical_value", "classical_limit", "OperatorSource",
]


class UnknownNameError(KeyError):
    """Requested operator name is not in the table."""


GR_ONE = GaussianRational.of(1)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Structured pass/fail record for one check."""

    check_id: str
    regime: str
    status: str                      # pass | fail | skip
    mode: str = "expect-zero"        # expect-zero | expect-nonzero | info
    residual: str | None = None
    elapsed_ms: float = 0.0
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_json_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "regime": self.regime,
            "status": self.status,
            "mode": self.mode,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.residual is not None:
            out["residual"] = self.residual
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _residual_str(m: TMap) -> str | None:
    hit = m.first_nonzero()
    if hit is None:
        return None
    i, j, v = hit
    s = str(v)
    if len(s) > 160:
        s = s[:157] + "..."
    return f"entry[{i}][{j}] = {s}"


def _expect_equal(lhs: TMap, rhs: TMap) -> tuple[bool, str | None]:
    """Verdict and residual of the expect-zero check lhs - rhs = 0.

    The maps are compared first; the residual lhs - rhs is built only
    when they differ, to name its first nonzero entry.
    """
    if lhs.equals(rhs):
        return True, None
    return False, _residual_str(lhs - rhs)


def _timed(check_id: str, regime: Regime, mode: str, fn) -> CheckReport:
    t0 = time.perf_counter()
    ok, residual, detail = fn()
    ms = (time.perf_counter() - t0) * 1e3
    return CheckReport(check_id, regime.label, "pass" if ok else "fail",
                       mode, residual, ms, detail)


# The verdict helpers.  Each takes a thunk that builds what it judges, so
# the report's elapsed time covers building it.  The zero and nonzero
# verdicts read the map's rows in order up to the first nonzero one, which
# is also the residual; a map from lazy_compose (or a sum of such maps)
# builds no row past it, so an expect-nonzero control that fails early
# costs a few rows, not the whole product.

def _check_equal(check_id: str, regime: Regime, sides,
                 detail: str | None = None) -> CheckReport:
    """Expect-zero check lhs - rhs = 0, where sides() gives (lhs, rhs)."""
    return _timed(check_id, regime, "expect-zero",
                  lambda: (*_expect_equal(*sides()), detail))


def _check_zero(check_id: str, regime: Regime, resid,
                detail: str | None = None, mode: str = "expect-zero") -> CheckReport:
    """The map resid() is zero (or, in expect-nonzero mode, is not)."""
    def body():
        residual = _residual_str(resid())
        return (residual is None) == (mode == "expect-zero"), residual, detail
    return _timed(check_id, regime, mode, body)


def _check_nonzero(check_id: str, regime: Regime, resid,
                   detail: str | None = None) -> CheckReport:
    """resid() is not the zero map; it may be lazy (see ``lazy_compose``)."""
    return _check_zero(check_id, regime, resid, detail, "expect-nonzero")


def _check_empty(check_id: str, regime: Regime, failures,
                 detail: str | None = None, sep: str = "; ") -> CheckReport:
    """Expect-zero check that failures() lists nothing; its residual joins
    the list with sep."""
    def body():
        bad = failures()
        return not bad, sep.join(bad) or None, detail
    return _timed(check_id, regime, "expect-zero", body)


def _check_span(check_id: str, regime: Regime, rows, residual: str,
                detail: str | None = None, rank: int | None = None) -> CheckReport:
    """Expect-zero check that the two row lists rows() gives span the same
    space (and, when rank is given, that the first holds rank rows); a
    failure reports the fixed residual text."""
    def body():
        a, b = rows()
        ok = (rank is None or len(a) == rank) and span_equal(a, b)
        return ok, None if ok else residual, detail
    return _timed(check_id, regime, "expect-zero", body)


# --------------------------------------------------------------------------
# Named operators
# --------------------------------------------------------------------------

def _e_vector() -> TMap:
    return TMap((), (U, U), [[ZERO], [ONE], [-Q], [ZERO]])


def _e_functional() -> TMap:
    return TMap((U, U), (), [[ZERO, -(Q ** -1), ONE, ZERO]])


def _x(eps: int, perturbed: bool = False) -> TMap:
    corner = integer(eps)
    t21 = T ** -1
    if perturbed:
        # negative control: t^-1 -> t in one slot is a diagonal gauge
        # symmetry of the slide moves, so a corner term is added too;
        # between them every regime's moves break
        t21 = T
        corner = corner + T
    return TMap((U, B), (B, U), [[ONE, ZERO, ZERO, corner],
                                 [ZERO, ZERO, T ** -1, ZERO],
                                 [ZERO, t21, ZERO, ZERO],
                                 [ZERO, ZERO, ZERO, ONE]])


def _x_inverse(eps: int) -> TMap:
    return TMap((B, U), (U, B), [[ONE, ZERO, ZERO, integer(-eps)],
                                 [ZERO, ZERO, T, ZERO],
                                 [ZERO, T, ZERO, ZERO],
                                 [ZERO, ZERO, ZERO, ONE]])


def _conjugate_by_x(middle: TMap, x: TMap, xinv: TMap) -> TMap:
    amb_in = (U, B, U, B)
    amb_mid = (U, U, B, B)
    return compose(place(x, (2, 3), amb_mid),
                   compose(middle, place(xinv, (2, 3), amb_in)))


def _twist(p: TMap, c: Scalar) -> TMap:
    """c on the complement of the projector p, -1/c on its image."""
    return (identity(p.in_sig) - p).scale(c) - p.scale(c ** -1)


def _t_map(x: str, variant: str):
    def recipe(get, regime):
        amb = (U, U, B)
        return compose(place(get(x), (2, 3), amb),
                       place(get("S:" + variant), (1, 2), amb))
    return recipe


def _t_prime_map(variant: str):
    def recipe(get, regime):
        step1 = place(get("X^-1"), (1, 2), (B, U, B))
        return compose(place(get("tauSbarInvTau:" + variant), (2, 3),
                             step1.out_sig), step1)
    return recipe


def _conjugated(a: str, b: str, x: str = "X"):
    """X (a tensor b) X^-1, the middle factors acting on legs 1, 2 and 3, 4."""
    def recipe(get, regime):
        return _conjugate_by_x(tensor_product(get(a), get(b)),
                               get(x), get(x + "^-1"))
    return recipe


def _what(get, regime: Regime) -> TMap:
    if regime.kind is RegimeKind.UNIT_CIRCLE:
        return get("Rhat-").scale((Q ** -1).specialize(regime))
    if regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
        return get("Rhat-")
    raise MissingParameterError(
        "the translation commutation matrix needs |q|=1 or real q")


# name -> recipe(g, eps) over the generic field, where g(name) is another
# generic recipe's map; the result is specialized and branch-flipped once
_GENERIC = {
    "E": lambda g, eps: _e_vector(),
    "E'": lambda g, eps: _e_functional(),
    "X": lambda g, eps: _x(eps),
    "X^-1": lambda g, eps: _x_inverse(eps),
    # unrescaled normalization: sqrt(t) times the canonical form
    "Xfull": lambda g, eps: g("X").scale(T_HALF),
    "Xfull^-1": lambda g, eps: g("X^-1").scale(T_HALF ** -1),
    "X!pert": lambda g, eps: _x(eps, perturbed=True),
    "P": lambda g, eps: compose(g("E"), g("E'")).scale(-((Q + Q ** -1) ** -1)),
    "Q": lambda g, eps: tau_conjugate(g("P")),
    "M": lambda g, eps: _twist(g("P"), Q),
    "M^-1": lambda g, eps: _twist(g("P"), Q ** -1),
    "K": lambda g, eps: _twist(g("Q"), QB),
    "K^-1": lambda g, eps: _twist(g("Q"), QB ** -1),
    "S:first": lambda g, eps: g("M").scale(Q_HALF ** -1),
    "S:second": lambda g, eps: g("M^-1").scale(Q_HALF),
    "tauSbarInvTau:first": lambda g, eps: tau_conjugate(g("S:second")),
    "tauSbarInvTau:second": lambda g, eps: tau_conjugate(g("S:first")),
}

# name -> recipe(get, regime) over already specialized operators
_DERIVED = {
    "X!pert^-1": lambda get, regime: invert(get("X!pert")),
    "P'": lambda get, regime: identity((U, U)).specialize(regime) - get("P"),
    "Q'": lambda get, regime: identity((B, B)).specialize(regime) - get("Q"),
    "Rhat+": _conjugated("M", "K"),
    "Rhat-": _conjugated("M", "K^-1"),
    "Rhat+^-1": _conjugated("M^-1", "K^-1"),
    "Rhat-^-1": _conjugated("M^-1", "K"),
    "Rhat+!pert": _conjugated("M", "K", "X!pert"),
    "Rhat-!pert": _conjugated("M", "K^-1", "X!pert"),
    "Pminus": lambda get, regime: _conjugate_by_x(
        tensor_product(get("P'"), get("Q")) + tensor_product(get("P"), get("Q'")),
        get("X"), get("X^-1")),
    "Pi9": _conjugated("P'", "Q'"),
    "Pi1": _conjugated("P", "Q"),
    "Ryb+": lambda get, regime: compose(
        permutation((U, B, U, B), (3, 4, 1, 2)), get("Rhat+")),
    "Ryb-": lambda get, regime: compose(
        permutation((U, B, U, B), (3, 4, 1, 2)), get("Rhat-")),
    "T:first": _t_map("X", "first"),
    "T:second": _t_map("X", "second"),
    "Tfull:first": _t_map("Xfull", "first"),
    "Tfull:second": _t_map("Xfull", "second"),
    "T':first": _t_prime_map("first"),
    "T':second": _t_prime_map("second"),
    "What": _what,
    # the sigma = 1 obstruction: Pminus after (What + 1), not zero
    "Pminus(What+1)": lambda get, regime: compose(
        get("Pminus"), get("What") + identity((U, B, U, B))),
}


def _generic(name: str, eps: int) -> TMap:
    return _GENERIC[name](lambda n: _generic(n, eps), eps)


class OperatorSource:
    """Resolves operator names to specialized TMaps, with a cache.

    flip_atoms applies the half-power sign automorphism to every entry,
    which is how branch insensitivity of the suites is exercised.

    ``reports`` holds the latest reports of the moves and spectral suites
    run on this source, by suite name; checks that rest on those suites
    (the braided coproduct) read them instead of running them again.
    """

    def __init__(self, regime: Regime, flip_atoms: tuple[int, ...] = ()):
        self.regime = regime
        self.flip_atoms = tuple(flip_atoms)
        self._cache: dict[str, TMap] = {}
        self.reports: dict[str, list[CheckReport]] = {}

    def get(self, name: str) -> TMap:
        m = self._cache.get(name)
        if m is None:
            m = self._build(name)
            self._cache[name] = m
        return m

    def _build(self, name: str) -> TMap:
        if name in _GENERIC:
            m = _generic(name, self.regime.epsilon).specialize(self.regime)
            for a in self.flip_atoms:
                m = m.map_entries(lambda s: s.flip_half(a))
            return m
        recipe = _DERIVED.get(name)
        if recipe is None:
            raise UnknownNameError(name)
        return recipe(self.get, self.regime)


_SOURCES: dict[tuple, OperatorSource] = {}


def operator_source(regime: Regime, flip_atoms: tuple[int, ...] = ()) -> OperatorSource:
    key = (regime, flip_atoms)
    src = _SOURCES.get(key)
    if src is None:
        src = OperatorSource(regime, flip_atoms)
        _SOURCES[key] = src
    return src


# --------------------------------------------------------------------------
# Pauli base change between spinor-pair and vector components
# --------------------------------------------------------------------------

def pauli_basis() -> TMap:
    """Column j holds the spinor-pair components of the j-th Pauli matrix.

    Convention: sigma_0 = id, sigma_1 = [[0,1],[1,0]],
    sigma_2 = [[0,-i],[i,0]], sigma_3 = [[1,0],[0,-1]].  The input leg
    pair encodes the vector index j in row-major order.
    """
    i = coeff.I
    return TMap((U, B), (U, B), [[ONE, ZERO, ZERO, ONE],
                                 [ZERO, ONE, -i, ZERO],
                                 [ZERO, ONE, i, ZERO],
                                 [ONE, ZERO, ZERO, -ONE]])


def pauli_basis_inverse() -> TMap:
    c = pauli_basis().entries
    half = coeff.rat(1, 2)
    return TMap((U, B), (U, B), [[c[r][j].star() * half for r in range(4)]
                                 for j in range(4)])


def vector_components(op: TMap, regime: Regime = GENERIC) -> TMap:
    """Conjugate a map on spinor pairs into vector (Pauli) components.

    Input/output legs must come in (unbarred, barred) pairs; the result's
    index pairs then encode vector indices 0..3 in row-major order.
    """
    from .tensor import SignatureMismatchError
    for sig in (op.in_sig, op.out_sig):
        if len(sig) % 2 or any(sig[2 * k:2 * k + 2] != (U, B)
                               for k in range(len(sig) // 2)):
            raise SignatureMismatchError(
                "vector components need (unbarred, barred) leg pairs")
    c = pauli_basis().specialize(regime)
    cinv = pauli_basis_inverse().specialize(regime)
    left = identity(op.out_sig)
    for k in range(len(op.out_sig) // 2):
        left = compose(place(cinv, (2 * k + 1, 2 * k + 2), op.out_sig), left)
    right = identity(op.in_sig)
    for k in range(len(op.in_sig) // 2):
        right = compose(right, place(c, (2 * k + 1, 2 * k + 2), op.in_sig))
    return compose(left, compose(op, right))


def classical_value(s: Scalar) -> Scalar:
    """Exact substitution q = qb = t = 1 (epsilon untouched)."""
    return s.subst_half(GR_ONE, GR_ONE, GR_ONE)


def classical_limit(op: TMap) -> TMap:
    """classical_value of every entry; entries that vanish are dropped."""
    return op.map_entries(classical_value)


# --------------------------------------------------------------------------
# Declarative matrix identities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One factor of a product: operator at legs, or a scalar prefactor."""

    name: str
    legs: tuple[int, ...] = ()
    out_legs: tuple[int, ...] | None = None
    scalar: Scalar | None = None

    @staticmethod
    def s(value: Scalar) -> "Factor":
        return Factor("#", scalar=value)


@dataclass(frozen=True)
class MatrixIdentity:
    """lhs == rhs as exact matrices; factors listed left to right."""

    check_id: str
    ambient: tuple[Leg, ...]
    lhs: tuple[Factor, ...]
    rhs: tuple[Factor, ...]
    expect: str = "zero"  # residual lhs - rhs


def _evaluate_side(factors: tuple[Factor, ...], ambient: tuple[Leg, ...],
                   source: OperatorSource, product) -> TMap:
    """The product of the factors, composed by product(f, g) right to left."""
    acc: TMap | None = None
    sig = ambient
    pending = ONE
    for f in reversed(factors):
        if f.name == "#":
            sc = f.scalar.specialize(source.regime)
            for a in source.flip_atoms:
                sc = sc.flip_half(a)
            pending = pending * sc
            continue
        placed = place(source.get(f.name), f.legs, sig, f.out_legs)
        acc = placed if acc is None else product(placed, acc)
        sig = placed.out_sig
    if acc is None:
        acc = identity(ambient)
    return acc if pending.is_one() else acc.scale(pending)


def run_matrix_identity(chk: MatrixIdentity, source: OperatorSource) -> CheckReport:
    def side(factors, product):
        return _evaluate_side(factors, chk.ambient, source, product)

    if chk.expect == "zero":
        return _check_equal(chk.check_id, source.regime, lambda: (
            side(chk.lhs, compose), side(chk.rhs, compose)))
    return _check_nonzero(chk.check_id, source.regime, lambda: (
        side(chk.lhs, lazy_compose) - side(chk.rhs, lazy_compose)),
        "nonzero as expected")


def _scale(*bounds: np.ndarray) -> float:
    """max(1, the largest entry of the bounds |A_n|...|A_1| of the sides'
    products, entrywise absolute values): what a residual is judged against.
    The rounding error of a product grows with these (the forward error
    bound), which count the terms that cancel in the finished product."""
    return max(1.0, *(float(np.max(b)) for b in bounds))


def numeric_residual(chk: MatrixIdentity, source: OperatorSource,
                     q: complex, t: float, qbar: complex | None = None,
                     values: dict[str, np.ndarray] | None = None,
                     scales: dict[str, float] | None = None) -> float:
    """Re-run an identity with floating point matrix products.

    Each operator is evaluated once per sample point, as its own small
    matrix, and the result is scattered into every placed copy through
    the same index map that exact placement uses.  ``values`` holds the
    matrices already evaluated at this point, keyed by operator name; it
    is filled as operators are evaluated, so callers that check several
    identities at one point can share it.  When ``scales`` is given, the
    identity's scale (see ``_scale``) is stored in it under its check id.
    """
    if values is None:
        values = {}
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
            a = values.get(f.name)
            if a is None:
                a = values[f.name] = op.to_numpy(q, t, source.regime, qbar)
            pl = placement(op.in_sig, op.out_sig, f.legs, sig, f.out_legs)
            a = pl.scatter(a)
            acc = a if acc is None else a @ acc
            if scales is not None:
                bound = abs(a) if bound is None else abs(a) @ bound
            sig = pl.out_sig
        if scales is not None:
            bounds.append(bound * abs(pending))
        return acc * pending

    lhs, rhs = side(chk.lhs), side(chk.rhs)
    if scales is not None:
        scales[chk.check_id] = _scale(*bounds)
    return float(np.max(np.abs(lhs - rhs)))


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

def _moves_catalog() -> list[MatrixIdentity]:
    out = [
        MatrixIdentity(
            "moves/Xi.M.X", (U, B, U),
            (Factor("X^-1", (1, 2)), Factor("M", (2, 3)), Factor("X", (1, 2))),
            (Factor("X", (2, 3)), Factor("M", (1, 2)), Factor("X^-1", (2, 3)))),
        MatrixIdentity(
            "moves/M.Xi.Xi", (B, U, U),
            (Factor("M", (1, 2)), Factor("X^-1", (2, 3)), Factor("X^-1", (1, 2))),
            (Factor("X^-1", (2, 3)), Factor("X^-1", (1, 2)), Factor("M", (2, 3)))),
        _x_x_m("moves/X.X.M", "X"),
    ]
    for sign, k in (("+", "K"), ("-", "K^-1")):
        out += [
            MatrixIdentity(
                f"moves/Xi.Xi.K{sign}", (B, B, U),
                (Factor("X^-1", (1, 2)), Factor("X^-1", (2, 3)), Factor(k, (1, 2))),
                (Factor(k, (2, 3)), Factor("X^-1", (1, 2)), Factor("X^-1", (2, 3)))),
            MatrixIdentity(
                f"moves/K{sign}.X.X", (U, B, B),
                (Factor(k, (1, 2)), Factor("X", (2, 3)), Factor("X", (1, 2))),
                (Factor("X", (2, 3)), Factor("X", (1, 2)), Factor(k, (2, 3)))),
            MatrixIdentity(
                f"moves/X.K{sign}.Xi", (B, U, B),
                (Factor("X", (1, 2)), Factor(k, (2, 3)), Factor("X^-1", (1, 2))),
                (Factor("X^-1", (2, 3)), Factor(k, (1, 2)), Factor("X", (2, 3)))),
        ]
    return out


def _x_x_m(check_id: str, x: str, expect: str = "zero") -> MatrixIdentity:
    return MatrixIdentity(
        check_id, (U, U, B),
        (Factor(x, (1, 2)), Factor(x, (2, 3)), Factor("M", (1, 2))),
        (Factor("M", (2, 3)), Factor(x, (1, 2)), Factor(x, (2, 3))), expect)


_MOVE_PERTURBED = _x_x_m("moves/X.X.M!perturbed-x", "X!pert", "nonzero")


def _braid_relation(check_id: str, name: str, expect: str = "zero") -> MatrixIdentity:
    b12, b23 = (1, 2, 3, 4), (3, 4, 5, 6)
    return MatrixIdentity(
        check_id, (U, B, U, B, U, B),
        (Factor(name, b12), Factor(name, b23), Factor(name, b12)),
        (Factor(name, b23), Factor(name, b12), Factor(name, b23)), expect)


def _braid_catalog(regime: Regime) -> list[MatrixIdentity]:
    amb = (U, B, U, B, U, B)
    b12, b23, b13 = (1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 6)
    out = [_braid_relation(f"braid/{name}", name)
           for name in ("Rhat+", "Rhat-", "Rhat+^-1", "Rhat-^-1")]
    if regime.kind is RegimeKind.UNIT_CIRCLE:
        yb = ["Ryb+"]
    elif regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
        yb = ["Ryb-"]
    else:
        yb = ["Ryb+", "Ryb-"]
    for name in yb:
        out.append(MatrixIdentity(
            f"braid/yang-baxter-{name[-1]}", amb,
            (Factor(name, b12), Factor(name, b13), Factor(name, b23)),
            (Factor(name, b23), Factor(name, b13), Factor(name, b12))))
    return out


_BRAID_PERTURBED = _braid_relation("braid/Rhat+!perturbed-x", "Rhat+!pert", "nonzero")


def suite_moves(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    src = source or operator_source(regime)
    reports = [run_matrix_identity(c, src) for c in _moves_catalog()]
    reports.append(run_matrix_identity(_MOVE_PERTURBED, src))
    src.reports["moves"] = list(reports)
    return reports


def suite_braid(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    src = source or operator_source(regime)
    reports = [run_matrix_identity(c, src) for c in _braid_catalog(regime)]
    reports.append(run_matrix_identity(_BRAID_PERTURBED, src))
    return reports


def _spectral_combination(src: OperatorSource, coeffs: tuple[Scalar, ...]) -> TMap:
    names = (("P'", "Q'"), ("P", "Q"), ("P'", "Q"), ("P", "Q'"))
    mid: TMap | None = None
    for c, (a, b) in zip(coeffs, names):
        term = tensor_product(src.get(a), src.get(b)).scale(
            c.specialize(src.regime))
        mid = term if mid is None else mid + term
    return _conjugate_by_x(mid, src.get("X"), src.get("X^-1"))


def suite_spectral(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    src = source or operator_source(regime)
    reports = []
    qi = Q ** -1
    qbi = QB ** -1
    generic = {
        "Rhat+": (Q * QB, qi * qbi, -(Q * qbi), -(qi * QB)),
        "Rhat-": (Q * qbi, qi * QB, -(Q * QB), -(qi * qbi)),
    }
    tables = {"decomp": generic}
    if regime.kind is RegimeKind.UNIT_CIRCLE:
        tables["display"] = {"Rhat+": (ONE, ONE, -(Q ** 2), -(Q ** -2)),
                             "Rhat-": (Q ** 2, Q ** -2, -ONE, -ONE)}
    elif regime.kind in (RegimeKind.REAL_Q, RegimeKind.CASE2):
        tables["display"] = {"Rhat+": (Q ** 2, Q ** -2, -ONE, -ONE),
                             "Rhat-": (ONE, ONE, -(Q ** 2), -(Q ** -2))}
    for kind, table in tables.items():
        for name, coeffs in table.items():
            reports.append(_check_equal(
                f"spectral/{kind}-{name[-1]}", regime,
                lambda name=name, coeffs=coeffs: (
                    src.get(name), _spectral_combination(src, coeffs))))

    def idem():
        pm = src.get("Pminus")
        return compose(pm, pm), pm
    reports.append(_check_equal("spectral/pminus-idempotent", regime, idem))

    def traces():
        want = {"Pminus": 6, "Pi9": 9, "Pi1": 1}
        bad = []
        for name, k in want.items():
            tr = src.get(name).trace()
            if tr != integer(k):
                bad.append(f"trace({name}) = {tr}")
        total = src.get("Pminus") + src.get("Pi9") + src.get("Pi1")
        if not total.equals(identity((U, B, U, B))):
            bad.append("projectors do not sum to the identity")
        for a, b in (("Pi9", "Pi1"), ("Pi9", "Pminus"), ("Pi1", "Pminus")):
            if not compose(src.get(a), src.get(b)).is_zero_map():
                bad.append(f"{a}{b} != 0")
        return bad
    reports.append(_check_empty("spectral/projector-ranks", regime, traces,
                                "ranks 9 + 1 + 6"))

    if regime.kind is RegimeKind.UNIT_CIRCLE:
        def wsum():
            q1 = Q.specialize(regime)
            w = src.get("What")
            combo = src.get("Pi9").scale(q1) + src.get("Pi1").scale(q1 ** -3) \
                - src.get("Pminus").scale(q1 ** -1)
            return w, combo
        reports.append(_check_equal(
            "spectral/w-spectral-sum", regime, wsum,
            "eigenvalues q, q^-3, -q^-1 with multiplicities 9, 1, 6"))

        def won():
            q1 = Q.specialize(regime)
            pm = src.get("Pminus")
            w = src.get("What")
            r1 = compose(pm, w) + pm.scale(q1 ** -1)
            r2 = compose(w, pm) + pm.scale(q1 ** -1)
            residual = _residual_str(r1) or _residual_str(r2)
            return residual is None, residual, None
        reports.append(_timed("spectral/w-on-pminus", regime, "expect-zero", won))
    src.reports["spectral"] = list(reports)
    return reports


def suite_compat(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    src = source or operator_source(regime)
    reports = []
    if regime.kind is RegimeKind.GENERIC:
        return [CheckReport("compat/skip", regime.label, "skip", "info",
                            detail="translation compatibility is regime-specific")]
    pm = src.get("Pminus")
    w = src.get("What")
    ident = identity((U, B, U, B))
    q1 = Q.specialize(regime)
    sigma_one = "Pminus(What+1)"

    if regime.kind is RegimeKind.UNIT_CIRCLE:
        reports.append(_check_zero(
            "compat/braiding-scalar-zero", regime,
            lambda: compose(pm, w + ident.scale(q1 ** -1)), "sigma = 1/q annihilates"))

        def one_case():
            resid = src.get(sigma_one)
            if resid.is_zero_map():
                return False, "residual is zero", None
            qsq_minus_1 = Q ** 2 - ONE
            divisible = any(
                v.numerator_divisible_by(qsq_minus_1)
                for row in resid.rows for v in row.values())
            at_q1 = resid.map_entries(
                lambda s: s.subst_half(GR_ONE, GR_ONE, None))
            vanishes = at_q1.is_zero_map()
            ok = divisible and vanishes
            note = "nonzero; a nonzero entry numerator is divisible by q^2-1; " \
                   "all entries vanish at q = 1"
            return ok, None if ok else _residual_str(resid), note
        reports.append(_timed("compat/sigma-one-obstructed", regime,
                              "expect-nonzero", one_case))
    else:
        for label, sigma in (("one", ONE), ("q", Q), ("qinv", Q ** -1)):
            reports.append(_check_nonzero(
                f"compat/sigma-{label}-nonzero", regime,
                lambda sigma=sigma: lazy_compose(
                    pm, w + ident.scale(sigma.specialize(regime))),
                "no constant braiding scalar works for real q"))

        def divis():
            resid = src.get(sigma_one)
            fac = Q ** 2 - ONE
            bad = [
                f"entry[{i}][{j}]"
                for i, row in enumerate(resid.rows)
                for j, v in row.items()
                if not v.numerator_divisible_by(fac)]
            ok = not bad and not resid.is_zero_map()
            return ok, "; ".join(bad[:4]) or None, \
                "all residual entries divisible by q^2-1"
        reports.append(_timed("compat/sigma-one-divisibility", regime,
                              "expect-zero", divis))

    reports.append(_check_zero(
        "compat/classical-limit-zero", regime,
        lambda: classical_limit(src.get(sigma_one)), "q = t = 1 limit"))
    return reports


def _crossed_catalog(regime: Regime) -> list[MatrixIdentity]:
    out = []
    for variant in ("first", "second"):
        s = f"S:{variant}"
        t = f"T:{variant}"
        tp = f"T':{variant}"
        out.append(MatrixIdentity(
            f"crossed/S.S.E:{variant}", (U,),
            (Factor(s, (1, 2)), Factor(s, (2, 3)), Factor("E", (), (1, 2))),
            (Factor("E", (), (2, 3)),)))
        out.append(MatrixIdentity(
            f"crossed/T.T.E:{variant}", (U, B),
            (Factor(f"Tfull:{variant}", (1, 2, 3)), Factor(f"Tfull:{variant}", (2, 3, 4)),
             Factor("E", (), (1, 2))),
            (Factor("E", (), (3, 4)),)))
        # same identity for the rescaled crossing, scalar made explicit
        out.append(MatrixIdentity(
            f"crossed/T.T.E-rescaled:{variant}", (U, B),
            (Factor(t, (1, 2, 3)), Factor(t, (2, 3, 4)), Factor("E", (), (1, 2))),
            (Factor.s(T ** -1), Factor("E", (), (3, 4)))))
        out.append(MatrixIdentity(
            f"crossed/X.T.T':{variant}", (U, B, U, B),
            (Factor("X", (3, 4)), Factor(t, (1, 2, 3)), Factor(tp, (2, 3, 4))),
            (Factor(tp, (1, 2, 3)), Factor(t, (2, 3, 4)), Factor("X", (1, 2)))))
        for rname in ("Rhat+", "Rhat-"):
            out.append(MatrixIdentity(
                f"crossed/{rname}.T.T:{variant}", (U, U, B, U, B),
                (Factor(rname, (1, 2, 3, 4)), Factor(t, (3, 4, 5)),
                 Factor(t, (1, 2, 3))),
                (Factor(t, (3, 4, 5)), Factor(t, (1, 2, 3)),
                 Factor(rname, (2, 3, 4, 5)))))
    out.append(MatrixIdentity(
        "crossed/X.X.E-shuttle", (B,),
        (Factor("X", (1, 2)), Factor("X", (2, 3)), Factor("E", (), (1, 2))),
        (Factor.s(T ** -1), Factor("E", (), (2, 3)))))
    out.append(MatrixIdentity(
        "crossed/E'.X.X-shuttle", (U, U, B),
        (Factor("E'", (2, 3), ()), Factor("X", (1, 2)), Factor("X", (2, 3))),
        (Factor.s(T ** -1), Factor("E'", (1, 2), ()))))

    # commutation matrix between translations and the 4-dim representation
    if regime.kind is RegimeKind.GENERIC:
        scalars = {"first": (Q_HALF ** -1) * QB_HALF, "second": Q_HALF * (QB_HALF ** -1)}
    else:
        wf = (Q ** -1) if regime.kind is RegimeKind.UNIT_CIRCLE else ONE
        scalars = {"first": wf, "second": wf ** -1}
    for variant, sc in scalars.items():
        rname = "Rhat-" if variant == "first" else "Rhat-^-1"
        out.append(MatrixIdentity(
            f"crossed/xh-matrix:{variant}", (U, B, U, B),
            (Factor("X", (2, 3)), Factor(f"S:{variant}", (1, 2)),
             Factor(f"tauSbarInvTau:{variant}", (3, 4)), Factor("X^-1", (2, 3))),
            (Factor.s(sc), Factor(rname, (1, 2, 3, 4)))))
    return out


def _sse_scan_matrices(src: OperatorSource):
    """The four bilinear pieces of S12 S23 E12 with S = a*I + b*EE'."""
    amb = (U,)
    e12 = place(src.get("E"), (), amb, (1, 2))
    e23 = place(src.get("E"), (), amb, (2, 3))
    ee = compose(src.get("E"), src.get("E'"))
    sig3 = e12.out_sig
    ee12 = place(ee, (1, 2), sig3)
    ee23 = place(ee, (2, 3), sig3)
    z_a2 = e12
    z_ab = compose(ee12, e12) + compose(ee23, e12)
    z_b2 = compose(ee12, compose(ee23, e12))
    return z_a2, z_ab, z_b2, e23


def suite_crossed(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    src = source or operator_source(regime)
    reports = [run_matrix_identity(c, src) for c in _crossed_catalog(regime)]

    def scan():
        z_a2, z_ab, z_b2, e23 = _sse_scan_matrices(src)
        a2, ab, b2, e = (m.entries for m in (z_a2, z_ab, z_b2, e23))
        rows = []
        for i in range(len(a2)):
            for j in range(len(a2[0])):
                row = [a2[i][j], ab[i][j], b2[i][j], -e[i][j]]
                if any(not v.is_zero() for v in row):
                    rows.append(row)
        qq = (Q + Q ** -1).specialize(regime)
        return rows, [[ONE, -qq, ONE, ZERO], [ZERO, ONE, ZERO, -ONE]]
    reports.append(_check_span(
        "crossed/normalization-scan", regime, scan, "constraint span differs",
        "constraints reduce to a*b = 1 and a^2 + b^2 = q + 1/q, "
        "so a^2 is q or 1/q: exactly the two admissible normalizations"))

    def nonsolution():
        z_a2, z_ab, z_b2, e23 = _sse_scan_matrices(src)
        return z_a2 + z_ab + z_b2 - e23  # a = b = 1
    reports.append(_check_nonzero("crossed/sse-nonsolution", regime, nonsolution,
                                  "a = b = 1 violates the shuttle condition"))

    # bar(T') on the reversed legs undoes T: R bar(T') R T = id, where R
    # reverses the three legs
    for variant in ("first", "second"):
        def star_involution(variant=variant):
            tmat = src.get(f"T:{variant}")
            rev = permutation(tmat.out_sig, (3, 2, 1))
            back = bar_conjugate(src.get(f"T':{variant}"), regime)
            lhs = compose(permutation(back.out_sig, (3, 2, 1)),
                          compose(back, compose(rev, tmat)))
            return lhs, identity(tmat.in_sig)
        reports.append(_check_equal(f"crossed/star-involution:{variant}", regime,
                                    star_involution,
                                    "double star-flip returns every generator pair"))
    return reports


def identity_catalog(regime: Regime) -> list[MatrixIdentity]:
    """Every declarative identity of the suites, for numeric mirroring."""
    return _moves_catalog() + _braid_catalog(regime) + _crossed_catalog(regime)


def numeric_suite(regime: Regime, q: complex, t: float,
                  qbar: complex | None = None,
                  scales: dict[str, float] | None = None) -> dict[str, float]:
    """Residual max-norms of every declarative identity at a sample point.

    A float overflow or invalid operation raises FloatingPointError
    rather than giving an inf or NaN residual.  When ``scales`` is given,
    each identity's scale is stored in it (see ``numeric_residual``).
    """
    src = operator_source(regime)
    out = {}
    values: dict[str, np.ndarray] = {}
    with np.errstate(over="raise", invalid="raise"):
        for chk in identity_catalog(regime):
            out[chk.check_id] = numeric_residual(chk, src, q, t, qbar, values,
                                                 scales)
        if regime.kind is RegimeKind.UNIT_CIRCLE:
            pm = src.get("Pminus").to_numpy(q, t, regime)
            w = src.get("What").to_numpy(q, t, regime)
            ident = np.eye(16)
            lhs = pm @ (w + ident / q)
            if scales is not None:
                scales["compat/braiding-scalar-zero"] = _scale(
                    abs(pm) @ (abs(w) + ident / abs(q)))
            out["compat/braiding-scalar-zero"] = float(np.max(np.abs(lhs)))
    return out

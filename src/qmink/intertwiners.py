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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import coeff
from .coeff import (GENERIC, ONE, Q, Q_HALF, QB, QB_HALF, Regime, RegimeKind,
                    Scalar, T, T_HALF, ZERO, GaussianRational, integer,
                    MissingParameterError)
from .tensor import (B, Leg, Placement, ProductTable, TMap, U, bar_conjugate,
                     compose, identity, invert, lazy_compose, permutation,
                     place, placement, span_equal, tau_conjugate,
                     tensor_product)

__all__ = [
    "CheckReport", "UnknownNameError", "Row", "run_rows", "run_suite",
    "ON_GENERIC", "ON_UNIT_CIRCLE", "ON_REAL_Q", "SPECIALIZED",
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


def _verdict_equal(row, sides):
    # the residual lhs - rhs is built only to name its first nonzero entry
    lhs, rhs = sides
    if lhs.equals(rhs):
        return True, None, row.detail
    return False, _residual_str(lhs - rhs), row.detail


def _verdict_zero(row, m: TMap):
    """The map's rows are read up to the first nonzero one, the residual; a
    map from lazy_compose (or a sum of such maps) builds no row past it, so
    an expect-nonzero control that fails early costs a few rows."""
    residual = _residual_str(m)
    return (residual is None) == (row.verdict == "zero"), residual, row.detail


def _verdict_span(row, rows):
    a, b = rows
    ok = (row.rank is None or len(a) == row.rank) and span_equal(a, b)
    return ok, None if ok else row.residual, row.detail


# verdict kind -> verdict(row, what the row's build made) -> (ok, residual, detail)
_VERDICTS = {
    "equal": _verdict_equal,
    "zero": _verdict_zero,
    "nonzero": _verdict_zero,
    "empty": lambda row, bad: (not bad, row.sep.join(bad) or None, row.detail),
    "span": _verdict_span,
    "custom": lambda row, judged: judged,
}


@dataclass(frozen=True)
class Row:
    """One check of a suite table.  ``build(regime, source)`` makes what
    the verdict judges: for ``equal`` the maps (lhs, rhs), lhs - rhs to be
    zero; for ``zero`` and ``nonzero`` one map; for ``empty`` a list of
    failures, joined by ``sep`` into the residual; for ``span`` two row
    lists to span the same space, the first of ``rank`` rows when given, a
    failure reporting the ``residual`` text; for ``custom`` the triple (ok,
    residual, detail).  The row runs in the regime kinds ``kinds``, or in
    all when None.  Its mode, unless given, is expect-nonzero for a nonzero
    verdict and expect-zero otherwise."""

    check_id: str
    build: Callable[[Regime, "OperatorSource"], object]
    verdict: str = "custom"
    kinds: frozenset[RegimeKind] | None = None
    mode: str | None = None
    detail: str | None = None
    sep: str = "; "
    rank: int | None = None
    residual: str | None = None


ON_GENERIC = frozenset({RegimeKind.GENERIC})
ON_UNIT_CIRCLE = frozenset({RegimeKind.UNIT_CIRCLE})
ON_REAL_Q = frozenset({RegimeKind.REAL_Q, RegimeKind.CASE2})   # q real, case 2 too
SPECIALIZED = ON_UNIT_CIRCLE | ON_REAL_Q


def run_rows(rows, regime: Regime,
             source: "OperatorSource | None" = None) -> list[CheckReport]:
    """The reports of the rows (``Row`` or ``MatrixIdentity``) that run in
    the regime, in table order; a report's time covers its build."""
    src = source or operator_source(regime)
    reports = []
    for row in rows:
        if row.kinds is None or regime.kind in row.kinds:
            t0 = time.perf_counter()
            ok, residual, detail = _VERDICTS[row.verdict](row, row.build(regime, src))
            ms = (time.perf_counter() - t0) * 1e3
            mode = row.mode or ("expect-nonzero" if row.verdict == "nonzero"
                                else "expect-zero")
            reports.append(CheckReport(row.check_id, regime.label, "pass" if ok
                                       else "fail", mode, residual, ms, detail))
    return reports


def run_suite(name: str, rows, regime: Regime, source: "OperatorSource | None" = None,
              skip: str | None = None) -> list[CheckReport]:
    """Run a suite's table in the regime and record its reports on the
    source; a suite none of whose rows runs there reports ``<name>/skip``
    with the detail ``skip``.  The suite shares its entry products in one
    ``ProductTable``."""
    src = source or operator_source(regime)
    with ProductTable():
        reports = run_rows(rows, regime, src)
    reports = reports or [
        CheckReport(f"{name}/skip", regime.label, "skip", "info", detail=skip)]
    src.reports[name] = list(reports)
    return reports


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

    ``reports`` holds the latest reports of each suite run on this source,
    by suite name; checks that rest on the moves and spectral suites (the
    braided coproduct) read them instead of running them again.
    """

    def __init__(self, regime: Regime, flip_atoms: tuple[int, ...] = ()):
        self.regime = regime
        self.flip_atoms = tuple(flip_atoms)
        self._cache: dict[str, TMap] = {}
        self._steps: dict[int, tuple] = {}
        self.reports: dict[str, list[CheckReport]] = {}

    def get(self, name: str) -> TMap:
        m = self._cache.get(name)
        if m is None:
            m = self._build(name)
            self._cache[name] = m
        return m

    def scalar(self, s: Scalar) -> Scalar:
        """s in this regime, its half-power signs flipped as the operators' are."""
        s = s.specialize(self.regime)
        for a in self.flip_atoms:
            s = s.flip_half(a)
        return s

    def steps(self, chk: "MatrixIdentity"):
        """Each side of chk as (operator steps, scalar prefactors), right
        to left: a step is (name, Placement).  Resolved on first use and
        kept; the numeric mirror reads them at every sample point."""
        got = self._steps.get(id(chk))
        if got is None or got[0] is not chk:  # keeps chk, so its id stays
            got = self._steps[id(chk)] = chk, tuple(
                self._side_steps(side, chk.ambient) for side in (chk.lhs, chk.rhs))
        return got[1]

    def _side_steps(self, factors: tuple["Factor", ...], sig: tuple[Leg, ...]):
        ops, prefactors = [], []
        for f in reversed(factors):
            if f.name == "#":
                prefactors.append(self.scalar(f.scalar))
                continue
            op = self.get(f.name)
            pl = placement(op.in_sig, op.out_sig, f.legs, sig, f.out_legs)
            ops.append((f.name, pl))
            sig = pl.out_sig
        return tuple(ops), tuple(prefactors)

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
    """lhs == rhs as exact matrices; factors listed left to right.  As a
    suite's row, the equal verdict judges the sides, or with expect
    "nonzero" the nonzero verdict judges their lazy difference."""

    check_id: str
    ambient: tuple[Leg, ...]
    lhs: tuple[Factor, ...]
    rhs: tuple[Factor, ...]
    expect: str = "zero"  # residual lhs - rhs
    kinds: frozenset[RegimeKind] | None = None

    mode = None

    @property
    def verdict(self) -> str:
        return "equal" if self.expect == "zero" else "nonzero"

    @property
    def detail(self) -> str | None:
        return None if self.expect == "zero" else "nonzero as expected"

    def build(self, regime: Regime, source: "OperatorSource"):
        product = compose if self.expect == "zero" else lazy_compose
        lhs, rhs = (_evaluate_side(side, self.ambient, source, product)
                    for side in (self.lhs, self.rhs))
        return (lhs, rhs) if self.expect == "zero" else lhs - rhs


def _evaluate_side(factors: tuple[Factor, ...], ambient: tuple[Leg, ...],
                   source: OperatorSource, product) -> TMap:
    """The product of the factors, composed by product(f, g) right to left."""
    acc: TMap | None = None
    sig = ambient
    pending = ONE
    for f in reversed(factors):
        if f.name == "#":
            pending = pending * source.scalar(f.scalar)
            continue
        placed = place(source.get(f.name), f.legs, sig, f.out_legs)
        acc = placed if acc is None else product(placed, acc)
        sig = placed.out_sig
    if acc is None:
        acc = identity(ambient)
    return acc if pending.is_one() else acc.scale(pending)


def run_matrix_identity(chk: MatrixIdentity, source: OperatorSource) -> CheckReport:
    return run_rows((chk,), source.regime, source)[0]


def _scale(*bounds: np.ndarray) -> float:
    """max(1, the largest entry of the bounds |A_n|...|A_1| of the sides'
    products, entrywise absolute values): what a residual is judged against.
    The rounding error of a product grows with these (the forward error
    bound), which count the terms that cancel in the finished product."""
    return max(1.0, *(float(b.max()) for b in bounds))


def _point_matrix(name: str, source: OperatorSource, q: complex, t: float,
                  qbar: complex | None, values: dict) -> np.ndarray:
    """The operator's matrix at the point, kept in ``values`` by name."""
    a = values.get(name)
    if a is None:
        a = values[name] = source.get(name).to_numpy(q, t, source.regime, qbar, values)
        a.flags.writeable = False
    return a


def numeric_residual(chk: MatrixIdentity, source: OperatorSource,
                     q: complex, t: float, qbar: complex | None = None,
                     values: dict | None = None,
                     scales: dict[str, float] | None = None) -> float:
    """Re-run an identity with floating point matrix products.

    Each side is its placed operators taken right to left, as the side's
    steps (``OperatorSource.steps``) list them.  The first is scattered
    into the ambient matrix; each later one is contracted on its own legs
    (``Placement.apply``), so every product is with the operator's own
    matrix, at most 16x16, never with a placed ambient one.  A side with
    no operator is the identity.  The side's scalar prefactors multiply
    the finished product.

    ``values`` holds what is already evaluated at this point: each
    operator's matrix under its name and each entry value under its
    stored-form id (``TMap.to_numpy``).  It is filled as things are
    evaluated, so callers that check several identities at one point can
    share it; it must not be shared between points.  When ``scales`` is
    given, the identity's scale (see ``_scale``; each side's bound takes
    the same steps with entrywise absolute values, ``_bound_step``) is
    stored in it under its check id.
    """
    if values is None:
        values = {}
    bounds = []

    def side(ops, prefactors):
        pending = 1.0 + 0j
        for sc in prefactors:
            pending *= sc.eval(q, t, source.regime, qbar)
        acc = bound = None
        for name, pl in ops:
            a = _point_matrix(name, source, q, t, qbar, values)
            acc = pl.scatter(a) if acc is None else pl.apply(a, acc)
            if scales is not None:
                bound = _bound_step(pl, a, bound)
        if acc is None:  # no operator: the identity
            acc = bound = np.eye(1 << len(chk.ambient))
        if scales is not None:
            bounds.append(bound * abs(pending))
        return acc * pending

    lhs, rhs = (side(*steps) for steps in source.steps(chk))
    if scales is not None:
        scales[chk.check_id] = _scale(*bounds)
    return float(np.abs(lhs - rhs).max())


def _bound_step(pl: Placement, a: np.ndarray, bound: np.ndarray | None) -> np.ndarray:
    """|a|, placed by pl, after the bound so far (entrywise absolute
    values); the first step of a side (bound None) scatters it."""
    if bound is None:
        return pl.scatter(abs(a))
    return pl.apply(abs(a), bound)


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------

def _slide(check_id: str, ambient: tuple[Leg, ...], a: str, b: str, c: str,
           expect: str = "zero", p=(1, 2), q=(2, 3)) -> MatrixIdentity:
    """The braid-type move a_p b_q c_p = c_q b_p a_q (at legs p and q)."""
    return MatrixIdentity(check_id, ambient,
                          (Factor(a, p), Factor(b, q), Factor(c, p)),
                          (Factor(c, q), Factor(b, p), Factor(a, q)), expect)


def _x_x_m(check_id: str, x: str, expect: str = "zero") -> MatrixIdentity:
    return _slide(check_id, (U, U, B), x, x, "M", expect)


def _moves_catalog() -> list[MatrixIdentity]:
    out = [_slide("moves/Xi.M.X", (U, B, U), "X^-1", "M", "X"),
           _slide("moves/M.Xi.Xi", (B, U, U), "M", "X^-1", "X^-1"),
           _x_x_m("moves/X.X.M", "X")]
    for sign, k in (("+", "K"), ("-", "K^-1")):
        out += [_slide(f"moves/Xi.Xi.K{sign}", (B, B, U), "X^-1", "X^-1", k),
                _slide(f"moves/K{sign}.X.X", (U, B, B), k, "X", "X"),
                _slide(f"moves/X.K{sign}.Xi", (B, U, B), "X", k, "X^-1")]
    return out


_MOVES_CATALOG = tuple(_moves_catalog())


def suite_moves(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    return run_suite("moves", _MOVES_CATALOG + (
        _x_x_m("moves/X.X.M!perturbed-x", "X!pert", "nonzero"),), regime, source)


_AMB6 = (U, B, U, B, U, B)
_B12, _B23, _B13 = (1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 6)


def _braid_relation(check_id: str, name: str, expect: str = "zero") -> MatrixIdentity:
    return _slide(check_id, _AMB6, name, name, name, expect, _B12, _B23)


_BRAID_CATALOG = tuple(
    _braid_relation(f"braid/{name}", name)
    for name in ("Rhat+", "Rhat-", "Rhat+^-1", "Rhat-^-1")) + tuple(
    MatrixIdentity(f"braid/yang-baxter-{name[-1]}", _AMB6,
                   (Factor(name, _B12), Factor(name, _B13), Factor(name, _B23)),
                   (Factor(name, _B23), Factor(name, _B13), Factor(name, _B12)),
                   kinds=kinds)
    for name, kinds in (("Ryb+", ON_GENERIC | ON_UNIT_CIRCLE),
                        ("Ryb-", ON_GENERIC | ON_REAL_Q)))


def suite_braid(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    return run_suite("braid", _BRAID_CATALOG + (_braid_relation(
        "braid/Rhat+!perturbed-x", "Rhat+!pert", "nonzero"),), regime, source)


def _spectral_combination(src: OperatorSource, coeffs: tuple[Scalar, ...]) -> TMap:
    names = (("P'", "Q'"), ("P", "Q"), ("P'", "Q"), ("P", "Q'"))
    mid: TMap | None = None
    for c, (a, b) in zip(coeffs, names):
        term = tensor_product(src.get(a), src.get(b)).scale(
            c.specialize(src.regime))
        mid = term if mid is None else mid + term
    return _conjugate_by_x(mid, src.get("X"), src.get("X^-1"))


def suite_spectral(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    def decomposition(kind, name, coeffs, kinds=None):
        return Row(f"spectral/{kind}-{name[-1]}", lambda regime, src: (
            src.get(name), _spectral_combination(src, coeffs)), "equal", kinds)

    def ranks(regime, src):
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

    def wsum(regime, src):
        q1 = Q.specialize(regime)
        return src.get("What"), src.get("Pi9").scale(q1) \
            + src.get("Pi1").scale(q1 ** -3) - src.get("Pminus").scale(q1 ** -1)

    def won(regime, src):
        q1 = Q.specialize(regime)
        pm = src.get("Pminus")
        w = src.get("What")
        r1 = compose(pm, w) + pm.scale(q1 ** -1)
        r2 = compose(w, pm) + pm.scale(q1 ** -1)
        residual = _residual_str(r1) or _residual_str(r2)
        return residual is None, residual, None

    # the displayed coefficients of Rhat+ and Rhat- on the unit circle;
    # real q swaps them
    plus, minus = (ONE, ONE, -(Q ** 2), -(Q ** -2)), (Q ** 2, Q ** -2, -ONE, -ONE)
    return run_suite("spectral", (
        decomposition("decomp", "Rhat+", (Q * QB, Q ** -1 * QB ** -1,
                                           -(Q * QB ** -1), -(Q ** -1 * QB))),
        decomposition("decomp", "Rhat-", (Q * QB ** -1, Q ** -1 * QB,
                                           -(Q * QB), -(Q ** -1 * QB ** -1))),
        decomposition("display", "Rhat+", plus, ON_UNIT_CIRCLE),
        decomposition("display", "Rhat-", minus, ON_UNIT_CIRCLE),
        decomposition("display", "Rhat+", minus, ON_REAL_Q),
        decomposition("display", "Rhat-", plus, ON_REAL_Q),
        Row("spectral/pminus-idempotent", lambda regime, src: (
            compose(src.get("Pminus"), src.get("Pminus")), src.get("Pminus")), "equal"),
        Row("spectral/projector-ranks", ranks, "empty", detail="ranks 9 + 1 + 6"),
        Row("spectral/w-spectral-sum", wsum, "equal", ON_UNIT_CIRCLE,
            detail="eigenvalues q, q^-3, -q^-1 with multiplicities 9, 1, 6"),
        Row("spectral/w-on-pminus", won, kinds=ON_UNIT_CIRCLE),
    ), regime, source)


_SIGMA_ONE = "Pminus(What+1)"


def _witness(resid: TMap, factor: Scalar, name: str, zeros: str) -> str | None:
    """The first entry whose numerator is factor times one term, named with
    the zero set it pins: with every entry divisible by factor, the entries
    vanish together exactly where factor does.  None when no entry is."""
    for i, row in enumerate(resid.rows):
        for j, v in row.items():
            if v.numerator_is_one_term_times(factor):
                return f"witness entry[{i}][{j}] = {v} is {name} times one term, " \
                       f"so the entries vanish together exactly at {zeros}"
    return None


def suite_compat(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    def one_case(regime, src):
        resid = src.get(_SIGMA_ONE)
        if resid.is_zero_map():
            return False, "residual is zero", None
        qsq_minus_1 = Q ** 2 - ONE
        divisible = any(
            v.numerator_divisible_by(qsq_minus_1)
            for row in resid.rows for v in row.values())
        at_q1 = resid.map_entries(
            lambda s: s.subst_half(GR_ONE, GR_ONE, None))
        vanishes = at_q1.is_zero_map()
        witness = _witness(resid, Q - ONE, "q - 1", "q = 1")
        ok = divisible and vanishes and witness is not None
        note = "nonzero; a nonzero entry numerator is divisible by q^2-1; " \
               "all entries vanish at q = 1; " \
               f"{witness or 'no entry numerator is q - 1 times one term'}"
        return ok, None if ok else _residual_str(resid), note

    def divis(regime, src):
        resid = src.get(_SIGMA_ONE)
        fac = Q ** 2 - ONE
        bad = [
            f"entry[{i}][{j}]"
            for i, row in enumerate(resid.rows)
            for j, v in row.items()
            if not v.numerator_divisible_by(fac)]
        witness = _witness(resid, fac, "q^2 - 1", "q^2 = 1")
        ok = not bad and not resid.is_zero_map() and witness is not None
        return ok, "; ".join(bad[:4]) or (None if ok else _residual_str(resid)), \
            "all residual entries divisible by q^2-1; " \
            f"{witness or 'no entry numerator is q^2 - 1 times one term'}"

    def braiding(src, sigma, product=compose):
        # Pminus (What + sigma): zero exactly when sigma braids the square
        return product(src.get("Pminus"),
                       src.get("What") + identity((U, B, U, B)).scale(sigma))

    def sigma_nonzero(label, sigma):
        return Row(f"compat/sigma-{label}-nonzero", lambda regime, src: braiding(
            src, sigma.specialize(regime), lazy_compose), "nonzero", ON_REAL_Q,
            detail="no constant braiding scalar works for real q")

    return run_suite("compat", (
        Row("compat/braiding-scalar-zero", lambda regime, src: braiding(
            src, Q.specialize(regime) ** -1), "zero", ON_UNIT_CIRCLE,
            detail="sigma = 1/q annihilates"),
        Row("compat/sigma-one-obstructed", one_case, kinds=ON_UNIT_CIRCLE,
            mode="expect-nonzero"),
        sigma_nonzero("one", ONE),
        sigma_nonzero("q", Q),
        sigma_nonzero("qinv", Q ** -1),
        Row("compat/sigma-one-divisibility", divis, kinds=ON_REAL_Q),
        Row("compat/classical-limit-zero",
            lambda regime, src: classical_limit(src.get(_SIGMA_ONE)), "zero",
            SPECIALIZED, detail="q = t = 1 limit"),
    ), regime, source, "translation compatibility is regime-specific")


def _crossed_catalog() -> list[MatrixIdentity]:
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

    # commutation matrix between translations and the 4-dim representation:
    # the scalar of each variant, by regime kind
    wf = Q ** -1
    scalars = ((ON_GENERIC, (Q_HALF ** -1) * QB_HALF, Q_HALF * (QB_HALF ** -1)),
               (ON_UNIT_CIRCLE, wf, wf ** -1),
               (ON_REAL_Q, ONE, ONE ** -1))
    for kinds, first, second in scalars:
        for variant, sc in (("first", first), ("second", second)):
            rname = "Rhat-" if variant == "first" else "Rhat-^-1"
            out.append(MatrixIdentity(
                f"crossed/xh-matrix:{variant}", (U, B, U, B),
                (Factor("X", (2, 3)), Factor(f"S:{variant}", (1, 2)),
                 Factor(f"tauSbarInvTau:{variant}", (3, 4)), Factor("X^-1", (2, 3))),
                (Factor.s(sc), Factor(rname, (1, 2, 3, 4))), kinds=kinds))
    return out


_CROSSED_CATALOG = tuple(_crossed_catalog())


def suite_crossed(regime: Regime, source: OperatorSource | None = None) -> list[CheckReport]:
    def scan_matrices(src):
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

    def scan(regime, src):
        z_a2, z_ab, z_b2, e23 = scan_matrices(src)
        a2, ab, b2, e = (m.entries for m in (z_a2, z_ab, z_b2, e23))
        rows = []
        for i in range(len(a2)):
            for j in range(len(a2[0])):
                row = [a2[i][j], ab[i][j], b2[i][j], -e[i][j]]
                if any(not v.is_zero() for v in row):
                    rows.append(row)
        qq = (Q + Q ** -1).specialize(regime)
        return rows, [[ONE, -qq, ONE, ZERO], [ZERO, ONE, ZERO, -ONE]]

    def nonsolution(regime, src):
        z_a2, z_ab, z_b2, e23 = scan_matrices(src)
        return z_a2 + z_ab + z_b2 - e23  # a = b = 1

    # bar(T') on the reversed legs undoes T: R bar(T') R T = id, where R
    # reverses the three legs
    def star_involution(variant):
        def sides(regime, src):
            tmat = src.get(f"T:{variant}")
            rev = permutation(tmat.out_sig, (3, 2, 1))
            back = bar_conjugate(src.get(f"T':{variant}"), regime)
            lhs = compose(permutation(back.out_sig, (3, 2, 1)),
                          compose(back, compose(rev, tmat)))
            return lhs, identity(tmat.in_sig)
        return Row(f"crossed/star-involution:{variant}", sides, "equal",
                   detail="double star-flip returns every generator pair")

    return run_suite("crossed", _CROSSED_CATALOG + (
        Row("crossed/normalization-scan", scan, "span",
            detail="constraints reduce to a*b = 1 and a^2 + b^2 = q + 1/q, "
            "so a^2 is q or 1/q: exactly the two admissible normalizations",
            residual="constraint span differs"),
        Row("crossed/sse-nonsolution", nonsolution, "nonzero",
            detail="a = b = 1 violates the shuttle condition"),
        star_involution("first"),
        star_involution("second"),
    ), regime, source)


def identity_catalog(regime: Regime) -> list[MatrixIdentity]:
    """Every declarative identity of the suites, for numeric mirroring."""
    return [c for c in _MOVES_CATALOG + _BRAID_CATALOG + _CROSSED_CATALOG
            if c.kinds is None or regime.kind in c.kinds]


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
    values: dict = {}
    with np.errstate(over="raise", invalid="raise"):
        for chk in identity_catalog(regime):
            out[chk.check_id] = numeric_residual(chk, src, q, t, qbar, values,
                                                 scales)
        if regime.kind is RegimeKind.UNIT_CIRCLE:
            pm = _point_matrix("Pminus", src, q, t, qbar, values)
            w = _point_matrix("What", src, q, t, qbar, values)
            ident = np.eye(16)
            lhs = pm @ (w + ident / q)
            if scales is not None:
                scales["compat/braiding-scalar-zero"] = _scale(
                    abs(pm) @ (abs(w) + ident / abs(q)))
            out["compat/braiding-scalar-zero"] = float(np.abs(lhs).max())
    return out

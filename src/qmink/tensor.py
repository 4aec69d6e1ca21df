"""Typed multi-leg linear maps over exact scalars.

A TMap sends a tensor product of 2-dimensional legs to another one.  Legs
are typed: unbarred (the defining C^2) or barred (its conjugate), and the
types are enforced at placement and composition time because several of
the structure maps swap bar-types.  Basis order is row major over the leg
indices with leg 1 most significant, each leg indexed 1, 2.

Storage is sparse: a TMap keeps only its nonzero entries, row by row, so
composition, sums and placement cost is proportional to the nonzeros (a
placed 64x64 crossing has about 100 of 4096).  ``entries`` is a read-only
dense view for code that wants a plain matrix.  Every operation combines
entries in the same order as the dense matrix loops would (in ``compose``:
inner index ascending, then column ascending), so printed results do not
depend on the storage.

``compose`` builds every row of a product; ``lazy_compose`` builds each
row the first time it is read, with the same row function, so a check
that only needs the first nonzero row of a product (or of a sum or
difference of products) builds no row past it.

Both read each entry product ``fv * gv`` from a ``ProductTable`` under
the stored-form ids of fv and gv (``Scalar.form_id``): a repeated product
is built once and shared, with the stored form building it again gives.
``run_suite`` puts one table in force per suite; outside one, each call
has its own, and a lazy product keeps the table it was made under.
``to_numpy`` likewise evaluates each entry form once per sample point.
"""

from __future__ import annotations

import functools
from enum import Enum
from itertools import product

import numpy as np

from .coeff import GENERIC, ONE, ZERO, Regime, Scalar

__all__ = [
    "Leg", "U", "B", "TMap",
    "TypeMismatchError", "ArityMismatchError", "SignatureMismatchError",
    "compose", "lazy_compose", "ProductTable", "place", "placement", "Placement",
    "tensor_product", "bar_conjugate", "tau_conjugate",
    "permutation", "flip", "identity",
    "row_echelon", "annihilator_basis", "nullspace_basis", "span_equal",
    "invert", "sig_str",
]


class TypeMismatchError(TypeError):
    """Leg types at the requested positions do not match the operator."""


class ArityMismatchError(TypeError):
    """Number of positions does not match the operator's legs."""


class SignatureMismatchError(TypeError):
    """Composition of maps with incompatible signatures."""


class Leg(Enum):
    U = "u"   # unbarred C^2
    B = "b"   # barred (conjugate) copy

    # by identity, in C: Enum's own hash runs Python code on every key of
    # a signature; no output iterates a set of legs
    __hash__ = object.__hash__

    def bar(self) -> "Leg":
        return Leg.B if self is Leg.U else Leg.U


U = Leg.U
B = Leg.B

Signature = tuple[Leg, ...]


def sig_str(sig: Signature) -> str:
    return "(" + ",".join(l.value for l in sig) + ")"


def _dim(sig: Signature) -> int:
    return 1 << len(sig)


def _bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def _index_of(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


Row = dict[int, Scalar]


def _kept(row: Row, fn) -> Row:
    """fn applied to each entry of a sparse row; zero results are dropped."""
    out = {}
    for j, v in row.items():
        w = fn(v)
        if not w.is_zero():
            out[j] = w
    return out


def _row_sum(r1: Row, r2: Row) -> Row:
    """Entrywise sum of two sparse rows, columns ascending; zero sums dropped."""
    if not r1 or not r2:
        return dict(r1 or r2)
    out = {}
    for j in sorted(r1.keys() | r2.keys()):
        a = r1.get(j)
        b = r2.get(j)
        if a is None:
            out[j] = b
        elif b is None:
            out[j] = a
        else:
            s = a + b
            if not s.is_zero():
                out[j] = s
    return out


def _row_neg(row: Row) -> Row:
    return {j: -v for j, v in row.items()}


class ProductTable:
    """Entry products fv * gv, each built once, keyed by the stored-form
    ids of fv and gv (``Scalar.form_id``, interned in ``ids``).

    ``with ProductTable():`` puts a table in force for its block, as
    ``coeff.WorkBudget`` does for a budget; exit restores the one before.
    """

    __slots__ = ("ids", "products", "outer")

    def __init__(self):
        self.ids: dict = {}
        self.products: dict[int, dict[int, Scalar]] = {}
        self.outer: ProductTable | None = None

    def __enter__(self):
        global active_table
        self.outer, active_table = active_table, self
        return self

    def __exit__(self, *exc):
        global active_table
        active_table = self.outer


active_table: ProductTable | None = None  # the one in force, if any


def _product_row(frow: Row, g_rows, table: ProductTable) -> Row:
    """Row of the product f after g, from f's row and g's rows.

    Products are summed into each output entry in the dense order, inner
    index k ascending, then column j ascending; zero sums are dropped.
    Each product is read from the table, or built and kept there.
    """
    ids, products = table.ids, table.products
    acc: Row = {}
    for k, fv in frow.items():
        grow = g_rows[k]
        if not grow:
            continue
        fi = fv.form_id(ids)
        by_g = products.get(fi)
        if by_g is None:
            by_g = products[fi] = {}
        for j, gv in grow.items():
            gi = gv.form_id(ids)
            p = by_g.get(gi)
            if p is None:
                p = by_g[gi] = fv * gv
            s = acc.get(j)
            acc[j] = p if s is None else s + p
    return {j: acc[j] for j in sorted(acc) if not acc[j].is_zero()}


class _LazyRows:
    """The rows of a map, each built by row(i) on its first read and kept.

    Iteration builds rows in order, so a scan that stops at some row
    builds no row past it.  A row built from other maps' rows reads them
    by index, so when those are lazy too only the rows it needs are built.
    """

    __slots__ = ("_row", "_built")

    def __init__(self, n: int, row):
        self._row = row
        self._built: list[Row | None] = [None] * n

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i: int) -> Row:
        r = self._built[i]
        if r is None:
            r = self._built[i] = self._row(i)
        return r

    def __iter__(self):
        for i in range(len(self._built)):
            yield self[i]


def _rows_of(n: int, row, *sources: "TMap"):
    """row(i) for i < n: lazy rows when a source map's rows are lazy,
    otherwise all built now."""
    if any(type(m.rows) is _LazyRows for m in sources):
        return _LazyRows(n, row)
    return [row(i) for i in range(n)]


class TMap:
    """Exact linear map between typed tensor products of 2-dim legs.

    ``rows[i]`` maps each column j of row i to its entry, a nonzero
    Scalar; zero entries are absent and the keys are in ascending order.
    Rows are never mutated once the map is built.  ``rows`` is a list,
    except on a map from ``lazy_compose`` and on the maps derived from one
    row by row (sums, negations, ``map_entries``): there it builds each
    row on its first read.  The constructor takes dense rows (one Scalar
    per column); ``entries`` gives them back as a read-only tuple of
    tuples, built on each access.
    """

    __slots__ = ("in_sig", "out_sig", "rows", "_plan")

    def __init__(self, in_sig: Signature, out_sig: Signature,
                 entries: list[list[Scalar]]):
        in_sig = tuple(in_sig)
        out_sig = tuple(out_sig)
        if len(entries) != _dim(out_sig) or any(len(r) != _dim(in_sig) for r in entries):
            raise SignatureMismatchError("entry matrix shape does not match signatures")
        self.in_sig = in_sig
        self.out_sig = out_sig
        self.rows = [{j: v for j, v in enumerate(r) if not v.is_zero()}
                     for r in entries]
        self._plan = None

    @staticmethod
    def _of(in_sig: Signature, out_sig: Signature, rows: list[Row]) -> "TMap":
        """A map from rows that already keep the storage invariant."""
        m = object.__new__(TMap)
        m.in_sig = in_sig
        m.out_sig = out_sig
        m.rows = rows
        m._plan = None
        return m

    @staticmethod
    def zero(in_sig: Signature, out_sig: Signature) -> "TMap":
        return TMap._of(tuple(in_sig), tuple(out_sig),
                        [{} for _ in range(_dim(tuple(out_sig)))])

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        n = _dim(self.in_sig)
        out = []
        for row in self.rows:
            dense = [ZERO] * n
            for j, v in row.items():
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)

    def map_entries(self, fn) -> "TMap":
        """fn applied to every nonzero entry; fn must send zero to zero."""
        rows = self.rows
        return TMap._of(self.in_sig, self.out_sig,
                        _rows_of(len(rows), lambda i: _kept(rows[i], fn), self))

    def __add__(self, other: "TMap") -> "TMap":
        if self.in_sig != other.in_sig or self.out_sig != other.out_sig:
            raise SignatureMismatchError("sum of maps with different signatures")
        r1, r2 = self.rows, other.rows
        return TMap._of(self.in_sig, self.out_sig,
                        _rows_of(len(r1), lambda i: _row_sum(r1[i], r2[i]),
                                 self, other))

    def __neg__(self) -> "TMap":
        rows = self.rows
        return TMap._of(self.in_sig, self.out_sig,
                        _rows_of(len(rows), lambda i: _row_neg(rows[i]), self))

    def __sub__(self, other: "TMap") -> "TMap":
        """self + (-other), negating entry by entry.

        ``-v`` keeps each entry's denominator and negates its numerator,
        which is what a product by -1 builds, so the result is stored and
        printed exactly as ``self + other.scale(-ONE)``.
        """
        return self + (-other)

    def scale(self, c: Scalar) -> "TMap":
        return self.map_entries(lambda v: v * c)

    def is_zero_map(self) -> bool:
        return not any(self.rows)

    def equals(self, other: "TMap") -> bool:
        """Exact equality, entry by entry, without building self - other.

        No row stores a zero, so two rows are equal exactly when they have
        the same columns and ``==`` (cross multiplication) holds at each;
        this agrees with ``(self - other).is_zero_map()``.
        """
        if self.in_sig != other.in_sig or self.out_sig != other.out_sig:
            return False
        for r1, r2 in zip(self.rows, other.rows):
            if r1.keys() != r2.keys():
                return False
            for j, v in r1.items():
                if v != r2[j]:
                    return False
        return True

    def first_nonzero(self) -> tuple[int, int, Scalar] | None:
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                return i, j, v
        return None

    def trace(self) -> Scalar:
        if self.in_sig != self.out_sig:
            raise SignatureMismatchError("trace of a non-square map")
        out = ZERO
        for k, row in enumerate(self.rows):
            v = row.get(k)
            if v is not None:
                out = out + v
        return out

    def specialize(self, regime: Regime) -> "TMap":
        return self.map_entries(lambda v: v.specialize(regime))

    def to_numpy(self, q: complex, t: float, regime: Regime = GENERIC,
                 qbar: complex | None = None,
                 values: dict | None = None) -> np.ndarray:
        """The matrix of entry values at the point; ``values``, a table of
        this one point, keeps each under its stored-form id.

        The first call builds the map's plan, kept on it: the distinct
        stored forms in row-major order of first use, and for each nonzero
        entry its flat position and its form.  Each form is evaluated once
        per point, in that order.
        """
        if values is None:
            values = {}
        if self._plan is None:
            self._plan = self._point_plan()
        forms, flat, slot = self._plan
        xs = []
        for key, v in forms:
            x = values.get(key)
            if x is None:
                x = values[key] = v.eval(q, t, regime, qbar)
            xs.append(x)
        out = np.zeros(_dim(self.out_sig) * _dim(self.in_sig), dtype=complex)
        out[flat] = np.array(xs, dtype=complex)[slot]
        return out.reshape(_dim(self.out_sig), -1)

    def _point_plan(self):
        ids = active_table.ids if active_table is not None else {}
        n = _dim(self.in_sig)
        forms, flat, slot, seen = [], [], [], {}
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                key = v.form_id(ids)
                k = seen.get(key)
                if k is None:
                    k = seen[key] = len(forms)
                    forms.append((key, v))
                flat.append(i * n + j)
                slot.append(k)
        return tuple(forms), np.array(flat, dtype=np.intp), np.array(slot, dtype=np.intp)

    def __repr__(self) -> str:
        return f"TMap {sig_str(self.in_sig)} -> {sig_str(self.out_sig)}"


def identity(sig: Signature) -> TMap:
    sig = tuple(sig)
    return TMap._of(sig, sig, [{k: ONE} for k in range(_dim(sig))])


def _check_composable(f: TMap, g: TMap) -> None:
    if g.out_sig != f.in_sig:
        raise SignatureMismatchError(
            f"cannot compose {sig_str(f.in_sig)}<-... with ...->{sig_str(g.out_sig)}")


def compose(f: TMap, g: TMap) -> TMap:
    """Matrix product f after g, every row built now; a repeated entry
    product is built once and shared, with the same stored form."""
    _check_composable(f, g)
    g_rows = g.rows
    table = active_table or ProductTable()
    return TMap._of(g.in_sig, f.out_sig,
                    [_product_row(frow, g_rows, table) for frow in f.rows])


def lazy_compose(f: TMap, g: TMap) -> TMap:
    """compose(f, g) with each row built on its first read.

    Row i is built from f's row i and the rows of g it names, so when g
    is lazy too only those rows of g are built.  Sums, negations and
    scalings of the result are lazy in turn, and each row they build
    holds what the same operation on ``compose(f, g)`` holds.  Rows read
    the table in force now, also when built after its block ends.
    """
    _check_composable(f, g)
    f_rows, g_rows = f.rows, g.rows
    table = active_table or ProductTable()
    return TMap._of(g.in_sig, f.out_sig,
                    _LazyRows(len(f_rows),
                              lambda i: _product_row(f_rows[i], g_rows, table)))


def tensor_product(f: TMap, g: TMap) -> TMap:
    dg_in = _dim(g.in_sig)
    rows = [{j1 * dg_in + j2: v1 * v2
             for j1, v1 in r1.items() for j2, v2 in r2.items()}
            for r1 in f.rows for r2 in g.rows]
    return TMap._of(f.in_sig + g.in_sig, f.out_sig + g.out_sig, rows)


class Placement:
    """Where the entries of an operator land when it is placed.

    Entry (r, c) of the operator is copied once per setting s of the
    spectator legs, to row ``rows[r] + spect_rows[s]`` and column
    ``cols[c] + spect_cols[s]`` of the ambient matrix.  The map depends
    only on signatures and leg positions, so exact and numeric placement
    share it.
    """

    __slots__ = ("ambient", "out_sig", "rows", "cols", "spect_rows",
                 "spect_cols", "_maps")

    def __init__(self, ambient: Signature, out_sig: Signature,
                 rows: tuple[int, ...], cols: tuple[int, ...],
                 spect_rows: tuple[int, ...], spect_cols: tuple[int, ...]):
        self.ambient = ambient
        self.out_sig = out_sig
        self.rows = rows
        self.cols = cols
        self.spect_rows = spect_rows
        self.spect_cols = spect_cols
        self._maps = None

    def _index_maps(self):
        """The numeric index maps, built on first use (exact placement
        needs none): the flat ambient position of each (operator row,
        operator column, spectator); the ambient rows in (operator column,
        spectator) order; and the (operator row, spectator) position that
        lands on each output row."""
        if self._maps is None:
            rows = np.add.outer(self.rows, self.spect_rows)
            cols = np.add.outer(self.cols, self.spect_cols)
            flat = rows[:, None, :] * _dim(self.ambient) + cols[None, :, :]
            self._maps = flat.ravel(), cols.ravel(), np.argsort(rows.ravel())
        return self._maps

    def scatter(self, a: np.ndarray) -> np.ndarray:
        """The ambient matrix of a placed operator, from its numeric matrix."""
        out = np.zeros(_dim(self.out_sig) * _dim(self.ambient), dtype=a.dtype)
        out[self._index_maps()[0]] = a.repeat(len(self.spect_rows))
        return out.reshape(_dim(self.out_sig), -1)

    def apply(self, a: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """``scatter(a) @ acc``, contracted on the operator's own legs.

        The rows of acc are gathered by (operator column, spectator) into
        one block per operator column, a takes one product with the
        blocks, and the rows of that product are put in ambient order.
        """
        _, gather, order = self._index_maps()
        n = acc.shape[1]
        g = acc.take(gather, 0).reshape(len(self.cols), -1)
        return a.dot(g).reshape(-1, n).take(order, 0)


@functools.lru_cache(maxsize=512)
def placement(in_sig: Signature, out_sig: Signature, legs: tuple[int, ...],
              ambient: Signature, out_legs: tuple[int, ...] | None = None
              ) -> Placement:
    """Index map of an operator with signature in_sig -> out_sig placed at
    legs of ambient (see ``place``); validates the placement."""
    n_in = len(in_sig)
    n_out = len(out_sig)
    if len(legs) != n_in:
        raise ArityMismatchError(f"need {n_in} leg positions, got {len(legs)}")
    if len(set(legs)) != len(legs):
        raise ArityMismatchError("duplicate leg positions")
    for k, p in enumerate(legs):
        if not 1 <= p <= len(ambient):
            raise ArityMismatchError(f"leg position {p} outside ambient space")
        if ambient[p - 1] != in_sig[k]:
            raise TypeMismatchError(
                f"ambient leg {p} has type {ambient[p - 1].value}, "
                f"operator expects {in_sig[k].value}")
    spect_in = [p for p in range(1, len(ambient) + 1) if p not in legs]
    if out_legs is None:
        if n_out == n_in:
            out_legs = legs
        elif n_out == 0:
            out_legs = ()
        else:
            raise ArityMismatchError("arity-raising placement needs out_legs")
    if len(out_legs) != n_out:
        raise ArityMismatchError(f"need {n_out} output positions, got {len(out_legs)}")
    n_amb_out = len(spect_in) + n_out
    if sorted(out_legs) != sorted(set(out_legs)) or any(
            not 1 <= p <= n_amb_out for p in out_legs):
        raise ArityMismatchError("bad output leg positions")
    out_ambient: list[Leg | None] = [None] * n_amb_out
    for k, p in enumerate(out_legs):
        out_ambient[p - 1] = out_sig[k]
    spect_out = [p + 1 for p in range(n_amb_out) if out_ambient[p] is None]
    for p, s in zip(spect_out, spect_in):
        out_ambient[p - 1] = ambient[s - 1]

    def index(bits, positions, n):
        full = [0] * n
        for b, p in zip(bits, positions):
            full[p - 1] = b
        return _index_of(full)

    n_amb_in = len(ambient)
    spect = list(product((0, 1), repeat=len(spect_in)))
    return Placement(
        ambient, tuple(out_ambient),
        tuple(index(_bits_of(r, n_out), out_legs, n_amb_out)
              for r in range(_dim(out_sig))),
        tuple(index(_bits_of(c, n_in), legs, n_amb_in)
              for c in range(_dim(in_sig))),
        tuple(index(s, spect_out, n_amb_out) for s in spect),
        tuple(index(s, spect_in, n_amb_in) for s in spect))


def place(op: TMap, legs: tuple[int, ...], ambient: Signature,
          out_legs: tuple[int, ...] | None = None) -> TMap:
    """Embed op into an ambient space, acting on the listed legs (1-based).

    legs picks the input legs of the ambient space fed to op, in order;
    the order need not be increasing.  For arity-preserving operators the
    output legs default to the same positions with their types replaced by
    op's output types.  Vectors (no input legs) need explicit out_legs:
    positions of the inserted legs in the result signature.  Functionals
    (no output legs) simply drop their input positions.
    """
    pl = placement(op.in_sig, op.out_sig, tuple(legs), tuple(ambient),
                   None if out_legs is None else tuple(out_legs))
    rows: list[Row] = [{} for _ in range(_dim(pl.out_sig))]
    spect = list(zip(pl.spect_rows, pl.spect_cols))
    for r, row in enumerate(op.rows):
        i = pl.rows[r]
        for c, v in row.items():
            j = pl.cols[c]
            for si, sj in spect:
                rows[i + si][j + sj] = v
    return TMap._of(pl.ambient, pl.out_sig,
                    [{j: row[j] for j in sorted(row)} for row in rows])


def bar_conjugate(f: TMap, regime: Regime = GENERIC) -> TMap:
    """Entrywise conjugation; every leg toggles its bar-type."""
    return TMap._of(tuple(l.bar() for l in f.in_sig),
                    tuple(l.bar() for l in f.out_sig),
                    [_kept(row, lambda v: v.star(regime)) for row in f.rows])


def tau_conjugate(f: TMap, regime: Regime = GENERIC) -> TMap:
    """tau . bar(f) . tau for a map with two input and two output legs."""
    if len(f.in_sig) != 2 or len(f.out_sig) != 2:
        raise ArityMismatchError("tau conjugation needs 2-leg maps")
    g = bar_conjugate(f, regime)
    swap = (0, 2, 1, 3)
    rows = []
    for i in range(4):
        src = g.rows[swap[i]]
        rows.append({j: src[swap[j]] for j in range(4) if swap[j] in src})
    return TMap._of((g.in_sig[1], g.in_sig[0]), (g.out_sig[1], g.out_sig[0]), rows)


def permutation(sig: Signature, perm: tuple[int, ...]) -> TMap:
    """Map e_{i_1..i_n} -> reordered legs; output leg k is input leg perm[k]."""
    sig = tuple(sig)
    n = len(sig)
    if sorted(perm) != list(range(1, n + 1)):
        raise ArityMismatchError("perm must list 1..n exactly once")
    out_sig = tuple(sig[p - 1] for p in perm)
    rows: list[Row] = [{} for _ in range(_dim(sig))]
    for c in range(_dim(sig)):
        bits = _bits_of(c, n)
        rows[_index_of(tuple(bits[p - 1] for p in perm))][c] = ONE
    return TMap._of(sig, out_sig, rows)


def flip(a: Leg, b: Leg) -> TMap:
    return permutation((a, b), (2, 1))


# --------------------------------------------------------------------------
# Exact linear algebra
# --------------------------------------------------------------------------

def row_echelon(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form over the scalar field; exact arithmetic.

    Pivots on the first nonzero entry in column order.  Returns the
    nonzero rows and their pivot columns.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    out: list[list[Scalar]] = []
    work = rows
    col = 0
    while work and col < ncols:
        pivot_row = None
        for r in work:
            if not r[col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        work.remove(pivot_row)
        inv = pivot_row[col].inverse()
        pivot_row = [v * inv for v in pivot_row]
        for r in work:
            c = r[col]
            if not c.is_zero():
                for j in range(col, ncols):
                    r[j] = r[j] - c * pivot_row[j]
        for r in out:
            c = r[col]
            if not c.is_zero():
                for j in range(col, ncols):
                    r[j] = r[j] - c * pivot_row[j]
        out.append(pivot_row)
        pivots.append(col)
        col += 1
    return out, pivots


def annihilator_basis(p: TMap) -> list[TMap]:
    """Functionals vanishing on ker p: a basis of p's row space.

    p must be square.  Exact Gaussian elimination; returns rank(p)
    independent functionals.
    """
    if p.in_sig != p.out_sig:
        raise SignatureMismatchError("annihilator basis needs a square map")
    rows, _ = row_echelon(p.entries)
    return [TMap(p.in_sig, (), [row]) for row in rows]


def nullspace_basis(p: TMap) -> list[TMap]:
    """Vectors spanning ker p, as maps from the empty signature."""
    rows, pivots = row_echelon(p.entries)
    ncols = _dim(p.in_sig)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        out.append(TMap((), p.in_sig, [[v] for v in vec]))
    return out


def span_equal(rows_a: list[list[Scalar]], rows_b: list[list[Scalar]]) -> bool:
    """Exact equality of the row spans (canonical RREF comparison)."""
    ra, pa = row_echelon(rows_a)
    rb, pb = row_echelon(rows_b)
    if pa != pb or len(ra) != len(rb):
        return False
    for r1, r2 in zip(ra, rb):
        for v1, v2 in zip(r1, r2):
            if v1 != v2:
                return False
    return True


def invert(f: TMap) -> TMap:
    """Exact inverse of a dimension-preserving map; raises on singular input."""
    if len(f.in_sig) != len(f.out_sig):
        raise SignatureMismatchError("inverse of a non-square map")
    n = _dim(f.in_sig)
    aug = [list(row) + [ONE if j == i else ZERO for j in range(n)]
           for i, row in enumerate(f.entries)]
    rows, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("map is singular")
    entries = [row[n:] for row in rows]
    return TMap(f.out_sig, f.in_sig, entries)

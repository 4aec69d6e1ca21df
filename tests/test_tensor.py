import pytest
from hypothesis import given, settings, strategies as st

from qmink import coeff
from qmink.coeff import (GENERIC, I, ONE, Q, T, ZERO, LaurentPoly, Scalar, ScalarTable,
                         integer, rat)
from qmink.coeff import _POLY_ONE, _scalar
from qmink.intertwiners import operator_source
from qmink.tensor import (ArityMismatchError, B, SignatureMismatchError, TMap,
                          TypeMismatchError, U, annihilator_basis,
                          bar_conjugate, compose, flip, identity, invert,
                          lazy_compose, nullspace_basis, permutation, place, placement,
                          row_echelon, span_equal, tau_conjugate,
                          tensor_product)

SRC = operator_source(GENERIC)


# ---------------------------------------------------------------------------
# independent oracle: dense Kronecker product on raw scalar matrices
# ---------------------------------------------------------------------------

def kron(a, b):
    return [[va * vb for va in ra for vb in rb]
            for ra in a for rb in b]


def ident(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mats_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_place_adjacent_matches_kronecker():
    m = SRC.get("M")
    placed = place(m, (1, 2), (U, U, B))
    want = kron(m.entries, ident(2))
    assert mats_equal(placed.entries, want)
    placed = place(m, (2, 3), (B, U, U))
    want = kron(ident(2), m.entries)
    assert mats_equal(placed.entries, want)


def test_place_non_adjacent_matches_permuted_kronecker():
    m = SRC.get("M")
    placed = place(m, (1, 3), (U, B, U))
    # oracle: move leg 2 last, apply M x I, move back
    p = permutation((U, B, U), (1, 3, 2))
    direct = compose(invert(p), compose(place(m, (1, 2), (U, U, B)), p))
    assert placed.equals(direct)


def test_place_reordered_legs_transposes_the_operator():
    # acting on swapped legs equals conjugation by the leg flips
    x = SRC.get("X")
    swapped = place(x, (2, 1), (B, U))
    assert swapped.in_sig == (B, U) and swapped.out_sig == (U, B)
    direct = compose(flip(B, U), compose(x, flip(B, U)))
    assert swapped.equals(direct)


def test_place_identity_is_identity():
    placed = place(identity((U,)), (2,), (U, U, B))
    assert placed.equals(identity((U, U, B)))


def test_place_changes_bar_types():
    placed = place(SRC.get("X"), (2, 3), (U, U, B))
    assert placed.out_sig == (U, B, U)


def test_place_vector_insertion_matches_bookkeeping():
    # oracle: E at output legs 1,2 over a spectator leg, rebuilt by direct
    # index bookkeeping (rows (a,b,s), column s)
    e = SRC.get("E")
    placed = place(e, (), (B,), (1, 2))
    assert placed.in_sig == (B,)
    assert placed.out_sig == (U, U, B)
    dense = [[ZERO] * 2 for _ in range(8)]
    for r4, row in enumerate(e.entries):
        for s in range(2):
            dense[r4 * 2 + s][s] = row[0]
    expected = TMap((B,), (U, U, B), dense)
    assert placed.equals(expected)


def test_place_functional_drops_legs():
    ep = SRC.get("E'")
    placed = place(ep, (1, 2), (U, U, B))
    assert placed.out_sig == (B,)
    dense = [[ZERO] * 8 for _ in range(2)]
    for c4, v in enumerate(ep.entries[0]):
        for s in range(2):
            dense[s][c4 * 2 + s] = v
    expected = TMap((U, U, B), (B,), dense)
    assert placed.equals(expected)


def test_place_type_and_arity_errors():
    with pytest.raises(TypeMismatchError):
        place(SRC.get("M"), (1, 2), (U, B, U))
    with pytest.raises(ArityMismatchError):
        place(SRC.get("M"), (1,), (U, U))
    with pytest.raises(ArityMismatchError):
        place(SRC.get("E"), (), (U,))  # needs out_legs


def test_compose_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        compose(SRC.get("M"), SRC.get("X"))


def test_compose_identity_laws():
    x = SRC.get("X")
    assert compose(identity((B, U)), x).equals(x)
    assert compose(x, identity((U, B))).equals(x)


def test_place_respects_composition():
    x, xi = SRC.get("X"), SRC.get("X^-1")
    amb = (U, U, B)
    lhs = place(compose(xi, x), (2, 3), amb)
    rhs = compose(place(xi, (2, 3), place(x, (2, 3), amb).out_sig),
                  place(x, (2, 3), amb))
    assert lhs.equals(rhs)
    assert lhs.equals(identity(amb))


def test_contraction_scalar_oracle():
    # direct index contraction of the metric pair, no compose() involved
    e, ep = SRC.get("E"), SRC.get("E'")
    total = ZERO
    for k in range(4):
        total = total + ep.entries[0][k] * e.entries[k][0]
    got = compose(ep, e).entries[0][0]
    assert got == total
    assert got == -(Q + Q ** -1)


def test_projection_traces_equal_ranks():
    for name, rank in (("P", 1), ("P'", 3), ("Q", 1), ("Q'", 3), ("Pminus", 6)):
        p = SRC.get(name)
        assert compose(p, p).equals(p), name
        assert p.trace() == integer(rank), name


def test_annihilator_of_rank_one_projection_is_the_metric_functional():
    fs = annihilator_basis(SRC.get("P"))
    assert len(fs) == 1
    ep = SRC.get("E'")
    ratio = None
    for a, b in zip(fs[0].entries[0], ep.entries[0]):
        if b.is_zero():
            assert a.is_zero()
        else:
            r = a / b
            assert ratio is None or r == ratio
            ratio = r
    assert ratio is not None and not ratio.is_zero()


def test_annihilator_of_identity_has_full_rank():
    fs = annihilator_basis(identity((U, U)))
    assert len(fs) == 4


def test_annihilator_kills_kernel_and_has_full_rank():
    p = SRC.get("Pminus")
    fs = annihilator_basis(p)
    assert len(fs) == 6
    rows, _ = row_echelon([f.entries[0] for f in fs])
    assert len(rows) == 6
    for v in nullspace_basis(p):
        for f in fs:
            val = ZERO
            for k in range(16):
                val = val + f.entries[0][k] * v.entries[k][0]
            assert val.is_zero()


def test_nullspace_dimension():
    p = SRC.get("Pminus")
    assert len(nullspace_basis(p)) == 10


def test_span_equal_detects_differences():
    a = [[ONE, ZERO], [ZERO, ONE]]
    b = [[ONE, ONE], [ONE, -ONE]]
    c = [[ONE, ZERO]]
    assert span_equal(a, b)
    assert not span_equal(a, c)


def test_bar_conjugate_is_involutive():
    x = SRC.get("X")
    assert bar_conjugate(bar_conjugate(x)).equals(x)
    assert bar_conjugate(x).in_sig == (B, U)


def test_tau_conjugate_of_m_is_k():
    m, k = SRC.get("M"), SRC.get("K")
    assert tau_conjugate(m).equals(k)
    assert tau_conjugate(tau_conjugate(m)).equals(m)


def test_tau_conjugate_arity_error():
    with pytest.raises(ArityMismatchError):
        tau_conjugate(SRC.get("E"))


def test_invert_round_trip():
    x = SRC.get("X")
    xi = invert(x)
    assert xi.equals(SRC.get("X^-1"))
    with pytest.raises(ZeroDivisionError):
        invert(compose(SRC.get("E"), SRC.get("E'")))


def test_tensor_product_matches_kronecker():
    m, k = SRC.get("M"), SRC.get("K")
    tp = tensor_product(m, k)
    assert mats_equal(tp.entries, kron(m.entries, k.entries))
    assert tp.in_sig == (U, U, B, B)


# ---------------------------------------------------------------------------
# randomized structure properties
# ---------------------------------------------------------------------------

coeff_scalars = st.builds(lambda n: integer(n), st.integers(-3, 3))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coeff_scalars),
                max_size=5))
def test_bar_conjugate_involution_on_random_maps(entries):
    dense = [[ZERO] * 4 for _ in range(4)]
    for i, j, v in entries:
        dense[i][j] = dense[i][j] + v * Q + v * T
    m = TMap((U, B), (U, B), dense)
    assert bar_conjugate(bar_conjugate(m)).equals(m)
    assert tau_conjugate(tau_conjugate(m)).equals(m)


# ---------------------------------------------------------------------------
# sparse storage against dense references
# ---------------------------------------------------------------------------

leg_sigs = st.lists(st.sampled_from([U, B]), max_size=2).map(tuple)
# values with nontrivial denominators, so that a different summation
# order would show up in the printed form
entry_values = st.sampled_from([ONE, -ONE, integer(2), I, Q, T ** -1, Q - T,
                                (Q + ONE) ** -1, (Q - ONE) ** -1,
                                (Q * Q - ONE) ** -1, Q * (T + Q) ** -1])


@st.composite
def sparse_maps(draw, in_sig=None, out_sig=None, values=entry_values, cells=6):
    in_sig = draw(leg_sigs) if in_sig is None else in_sig
    out_sig = draw(leg_sigs) if out_sig is None else out_sig
    n_in, n_out = 1 << len(in_sig), 1 << len(out_sig)
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_out - 1), st.integers(0, n_in - 1)),
        values, max_size=cells))
    dense = [[ZERO] * n_in for _ in range(n_out)]
    for (i, j), v in cells.items():
        dense[i][j] = v
    return TMap(in_sig, out_sig, dense)


def strs(rows):
    return [[str(v) for v in row] for row in rows]


def assert_sparse_invariant(m):
    n_in = 1 << len(m.in_sig)
    assert len(m.rows) == 1 << len(m.out_sig)
    for row in m.rows:
        keys = list(row)
        assert keys == sorted(keys)
        assert all(0 <= j < n_in for j in keys)
        assert not any(v.is_zero() for v in row.values())


def dense_compose(f, g):
    """The dense triple loop: k ascending, then j ascending."""
    fe, ge = f.entries, g.entries
    out = [[ZERO] * (1 << len(g.in_sig)) for _ in fe]
    for i, frow in enumerate(fe):
        for k, fv in enumerate(frow):
            if fv.is_zero():
                continue
            for j, gv in enumerate(ge[k]):
                if not gv.is_zero():
                    out[i][j] = out[i][j] + fv * gv
    return out


@st.composite
def composable(draw):
    mid = draw(leg_sigs)
    g = draw(sparse_maps(out_sig=mid))
    f = draw(sparse_maps(in_sig=mid))
    return f, g


@settings(max_examples=40, deadline=None)
@given(composable())
def test_sparse_compose_matches_dense(fg):
    f, g = fg
    out = compose(f, g)
    assert_sparse_invariant(out)
    assert strs(out.entries) == strs(dense_compose(f, g))


def test_compose_sums_in_dense_order():
    # the stored form of a sum depends on the order of its terms:
    # (a + b) + c and (c + b) + a print differently for these three
    a, b, c = (Q + ONE) ** -1, Q * (T + Q) ** -1, (Q * Q - ONE) ** -1
    assert str((a + b) + c) != str((c + b) + a)
    f = TMap((U, U), (), [[ONE, ONE, ONE, ZERO]])
    g = TMap((), (U, U), [[a], [b], [c], [ZERO]])
    assert str(compose(f, g).entries[0][0]) == str((a + b) + c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_sum_and_scale_match_dense(data):
    a = data.draw(sparse_maps())
    b = data.draw(sparse_maps(in_sig=a.in_sig, out_sig=a.out_sig))
    c = data.draw(entry_values)
    for got, want in (
            (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
            (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]),
            (a.scale(c), [[x * c for x in r] for r in a.entries]),
            (a - a, [[ZERO] * len(r) for r in a.entries])):
        assert_sparse_invariant(got)
        assert strs(got.entries) == strs(want)
    assert (a - a).is_zero_map()
    assert a.is_zero_map() == all(v.is_zero() for r in a.entries for v in r)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_place_matches_dense(data):
    op = data.draw(sparse_maps(in_sig=data.draw(
        st.lists(st.sampled_from([U, B]), min_size=1, max_size=2).map(tuple))))
    n_amb = 3
    legs = tuple(data.draw(st.permutations(range(1, n_amb + 1)))[:len(op.in_sig)])
    ambient = [data.draw(st.sampled_from([U, B])) for _ in range(n_amb)]
    for k, p in enumerate(legs):
        ambient[p - 1] = op.in_sig[k]
    ambient = tuple(ambient)
    out_legs = None
    if len(op.out_sig) not in (0, len(op.in_sig)):
        n_amb_out = n_amb - len(op.in_sig) + len(op.out_sig)
        out_legs = tuple(sorted(data.draw(st.permutations(range(1, n_amb_out + 1)))
                                [:len(op.out_sig)]))
    got = place(op, legs, ambient, out_legs)
    pl = placement(op.in_sig, op.out_sig, legs, ambient, out_legs)
    want = [[ZERO] * (1 << len(pl.ambient)) for _ in range(1 << len(pl.out_sig))]
    for r, row in enumerate(op.entries):
        for c, v in enumerate(row):
            if not v.is_zero():
                for si, sj in zip(pl.spect_rows, pl.spect_cols):
                    want[pl.rows[r] + si][pl.cols[c] + sj] = v
    assert_sparse_invariant(got)
    assert strs(got.entries) == strs(want)


@settings(max_examples=40, deadline=None)
@given(sparse_maps(), sparse_maps())
def test_sparse_tensor_product_matches_kron(f, g):
    tp = tensor_product(f, g)
    assert_sparse_invariant(tp)
    assert strs(tp.entries) == strs(kron(f.entries, g.entries))


@settings(max_examples=40, deadline=None)
@given(sparse_maps())
def test_sparse_readers_match_dense(m):
    assert_sparse_invariant(m)
    dense = m.entries
    hit = next(((i, j, v) for i, r in enumerate(dense) for j, v in enumerate(r)
                if not v.is_zero()), None)
    got = m.first_nonzero()
    assert (got is None) == (hit is None)
    if hit is not None:
        assert got[:2] == hit[:2] and got[2] == hit[2]
    if m.in_sig == m.out_sig:
        want = ZERO
        for k in range(len(dense)):
            want = want + dense[k][k]
        assert str(m.trace()) == str(want)
    assert_sparse_invariant(bar_conjugate(m))
    ones = m.map_entries(lambda s: s if s == ONE else ZERO)
    assert_sparse_invariant(ones)
    assert ones.equals(TMap(m.in_sig, m.out_sig,
                            [[v if v == ONE else ZERO for v in r] for r in dense]))


def test_no_zero_is_stored():
    m = TMap((U,), (U,), [[ONE, ZERO], [Q - Q, T]])
    assert m.rows == [{0: ONE}, {1: T}]
    assert (m - m).rows == [{}, {}]
    assert identity((U, B)).rows == [{k: ONE} for k in range(4)]


def test_place_on_permuted_legs_keeps_rows_sorted():
    # legs (2, 1) send operator column 1 to ambient column 4 and column 2
    # to ambient column 2, so the fill order is not the column order
    op = TMap((U, U), (U, U), [[ONE, Q, T, I]] * 4)
    m = place(op, (2, 1), (U, U, U))
    assert_sparse_invariant(m)
    assert list(m.rows[0]) == [0, 2, 4, 6]


def test_entries_view_is_read_only():
    m = TMap.zero((U,), (U,))
    with pytest.raises(TypeError):
        m.entries[0][0] = ONE
    with pytest.raises(AttributeError):
        m.entries = [[ONE, ZERO], [ZERO, ONE]]
    assert m.is_zero_map()


# ---------------------------------------------------------------------------
# equals compares entries without building the residual; __sub__ negates
# entry by entry
# ---------------------------------------------------------------------------

def _restated(m):
    """The same map with each entry's num and den multiplied by t + q.

    The constructor cancels that factor only where the denominator
    divides the numerator, so many entries keep a different, unreduced
    denominator while their values stay equal.
    """
    f = (T + Q).num
    return m.map_entries(lambda v: Scalar(v.num * f, v.den * f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equals_agrees_with_the_residual(data):
    a = data.draw(sparse_maps())
    b = data.draw(st.one_of(sparse_maps(in_sig=a.in_sig, out_sig=a.out_sig),
                            st.just(_restated(a))))
    for x, y in ((a, b), (b, a), (a, _restated(b)), (_restated(a), a)):
        assert x.equals(y) == (x - y).is_zero_map()
    assert a.equals(_restated(a))


def test_equals_on_entries_stored_differently():
    a = TMap((U,), (U,), [[(Q - ONE) ** -1, ZERO], [ZERO, Q]])
    b = _restated(a)
    assert str(b.entries[0][0]) != str(a.entries[0][0])
    assert a.equals(b) and b.equals(a)
    c = TMap((U,), (U,), [[(Q - ONE) ** -1, ONE], [ZERO, Q]])
    assert not a.equals(c) and not c.equals(a)
    assert not a.equals(TMap((B,), (U,), [[ONE, ZERO], [ZERO, Q]]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sub_is_the_sum_with_the_negated_map(data):
    a = data.draw(sparse_maps())
    b = data.draw(st.one_of(sparse_maps(in_sig=a.in_sig, out_sig=a.out_sig),
                            st.just(_restated(a))))
    got, want = a - b, a + b.scale(-ONE)
    assert_sparse_invariant(got)
    for r1, r2 in zip(got.rows, want.rows):
        assert [(j, str(v.num), str(v.den)) for j, v in r1.items()] == \
            [(j, str(v.num), str(v.den)) for j, v in r2.items()]
    assert strs((-a).entries) == strs(a.scale(-ONE).entries)


# ---------------------------------------------------------------------------
# rows on demand
# ---------------------------------------------------------------------------

def stored(row):
    return [(j, str(v)) for j, v in row.items()]


def built(m):
    """Indices of the rows of a lazy map built so far."""
    return {i for i, r in enumerate(m.rows._built) if r is not None}


@st.composite
def chains(draw):
    """Two or three composable maps, outermost first: sparse ones, or
    dense 4x4 ones of +-1, whose product sums often cancel."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        sign_rows = st.lists(st.lists(st.sampled_from([ONE, -ONE]),
                                      min_size=4, max_size=4),
                             min_size=4, max_size=4)
        return [TMap((U, B), (U, B), draw(sign_rows)) for _ in range(n)]
    sigs = [draw(leg_sigs) for _ in range(n + 1)]
    return [draw(sparse_maps(in_sig=sigs[k + 1], out_sig=sigs[k]))
            for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(chains(), st.data())
def test_lazy_rows_are_the_compose_rows(maps, data):
    eager = lazy = maps[-1]
    for f in reversed(maps[:-1]):
        eager = compose(f, eager)
        lazy = lazy_compose(f, lazy)
    other = data.draw(sparse_maps(in_sig=eager.in_sig, out_sig=eager.out_sig))
    c = data.draw(entry_values)
    pairs = [(lazy, eager), (lazy - other, eager - other),
             (other - lazy, other - eager), (-lazy, -eager),
             (lazy.scale(c), eager.scale(c))]
    n = len(eager.rows)
    # rows read in any order hold what compose and the eager sums hold
    order = data.draw(st.permutations(range(n)))
    for got, want in pairs:
        assert len(got.rows) == n
        for i in order:
            assert stored(got.rows[i]) == stored(want.rows[i])
        assert_sparse_invariant(got)


@settings(max_examples=40, deadline=None)
@given(chains(), st.data())
def test_a_lazy_row_builds_only_the_rows_it_reads(maps, data):
    inner = lazy_compose(*maps[-2:])
    top = inner if len(maps) == 2 else lazy_compose(maps[0], inner)
    i = data.draw(st.integers(0, len(top.rows) - 1))
    top.rows[i]
    assert built(top) == {i}
    if top is not inner:
        assert built(inner) == set(maps[0].rows[i])


def test_a_scan_stops_at_the_first_nonzero_row():
    # row 0 of the product is a sum that cancels: it is built, and empty
    f = TMap((U,), (U, U), [[ONE, ONE], [ONE, Q], [ONE, ZERO], [ZERO, T]])
    g = TMap((U,), (U,), [[ONE, ZERO], [-ONE, ZERO]])
    diff = lazy_compose(f, g) - TMap.zero(f.in_sig, f.out_sig)
    assert diff.first_nonzero() == (1, 0, ONE - Q)
    assert built(diff) == {0, 1} and diff.rows[0] == {}
    assert (lazy_compose(f, g) - compose(f, g)).first_nonzero() is None


# ---------------------------------------------------------------------------
# a scalar table builds each repeated entry product once, in the stored
# form that building it again gives
# ---------------------------------------------------------------------------

# a small pool, so products repeat: +-1, units, one numerator over two
# denominators, and one value stored two ways; each draw is a new Scalar
# with no id yet, so ids are taken afresh in every example
_UNREDUCED = Scalar(((Q ** 2 - ONE) * (T + ONE)).num, ((Q + ONE) * (T + Q)).num)
_REDUCED = Scalar(((Q - ONE) * (T + ONE)).num, (T + Q).num)
pool_values = st.sampled_from([ONE, -ONE, I, rat(1, 2) * Q, T ** -1, Q - T,
                               (Q + ONE) ** -1, (Q - ONE) ** -1, _UNREDUCED, _REDUCED]
                              ).map(lambda v: _scalar(v.n, v.d))


def stored_forms(dense):
    """Each entry's stored pair, and whether its d is the shared 1."""
    return [[(list(v.n._terms.items()), list(v.d._terms.items()), v.d is _POLY_ONE)
             for v in row] for row in dense]


@st.composite
def pool_chains(draw):
    """Three composable maps on two legs, outermost first, with entries
    from the pool."""
    sigs = [draw(st.sampled_from([(U, U), (U, B)])) for _ in range(4)]
    return [draw(sparse_maps(in_sig=sigs[k + 1], out_sig=sigs[k],
                             values=pool_values, cells=10)) for k in range(3)]


@settings(max_examples=40, deadline=None)
@given(pool_chains(), st.booleans())
def test_shared_products_match_the_table_free_product(maps, in_scope):
    f, g, h = maps
    # dense_compose builds every product where it is used: no table
    want_gh = dense_compose(g, h)
    want = stored_forms(dense_compose(f, TMap(h.in_sig, g.out_sig, want_gh)))
    if in_scope:
        with ScalarTable():
            eager = compose(f, compose(g, h))
            lazy = lazy_compose(f, lazy_compose(g, h))
            lazy.rows[0]
    else:
        eager = compose(f, compose(g, h))
        lazy = lazy_compose(f, lazy_compose(g, h))
        lazy.rows[0]
    assert coeff.active_table is None
    # the lazy rows past the first are built after the scope closed
    assert stored_forms(eager.entries) == want
    assert stored_forms(lazy.entries) == want
    assert stored_forms(compose(g, h).entries) == stored_forms(want_gh)


def test_a_repeated_product_is_built_once(monkeypatch):
    # building x * (q - t) multiplies the numerators and the denominators:
    # two polynomial products, and compose's sums take none
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    x = (Q + ONE) ** -1
    f = TMap((U,), (U,), [[x, x], [x, ZERO]])
    g = TMap((U,), (U,), [[Q - T, ZERO], [Q - T, Q - T]])
    out = compose(f, g)
    assert len(calls) == 2 * 4   # no table: each product of x and q - t is built
    with ScalarTable():
        compose(f, g)
        compose(f, g)
    assert len(calls) == 2 * 5   # in one: the four are one product, built once
    assert stored_forms(out.entries) == stored_forms(dense_compose(f, g))


def test_a_lazy_row_built_after_its_table_reads_none():
    x = (Q + ONE) ** -1
    f = TMap((U,), (U,), [[x, ZERO], [ZERO, x]])
    with ScalarTable() as table:
        lazy = lazy_compose(f, f)
        lazy.rows[0]
    assert len(table.products) == 1
    # row 1 is built now: it reads no table and keeps none alive
    assert lazy.rows[1] == {1: x * x}
    assert len(table.products) == 1
    assert stored_forms(lazy.entries) == stored_forms(dense_compose(f, f))


def test_ids_are_not_handed_out_again_after_a_scope():
    with ScalarTable() as table:
        a = (Q + T) / (Q - ONE)
        compose(TMap((U,), (), [[a, ONE]]), identity((U,)))
    taken = set(table.ids.values())
    assert a.form_id({}) in taken
    with ScalarTable() as later:
        b = (Q + T) / (Q - ONE)
        compose(TMap((U,), (), [[b, Q - T]]), identity((U,)))
    assert b.form_id({}) not in taken and not taken & set(later.ids.values())
    assert a.form_id({}) in taken   # kept on the Scalar


# each step (op, i, j) applies op to values i and j (taken modulo the list
# length), and a +, - or * result joins the values, so later steps reuse
# it; "/" is exact_divide of the two numerators
_STEP = st.tuples(st.sampled_from("*+-/"), st.integers(0, 63), st.integers(0, 63))


def _run_steps(values, steps):
    values = list(values)
    out = []
    for op, i, j in steps:
        a, b = values[i % len(values)], values[j % len(values)]
        if op == "/":
            quot = None if b.is_zero() else coeff.exact_divide(a.n, b.n)
            out.append(None if quot is None else list(quot._terms.items()))
            continue
        r = a * b if op == "*" else a + b if op == "+" else a - b
        values.append(r)
        out.append(stored_forms([[r]])[0][0])
    return out, values


@settings(max_examples=60, deadline=None)
@given(st.lists(pool_values, min_size=2, max_size=5), st.lists(_STEP, max_size=24),
       st.integers(0, 24), st.integers(0, 24))
def test_table_results_have_the_table_free_stored_forms(pool, steps, cut, back):
    fresh = [_scalar(v.n, v.d) for v in pool]
    want, _ = _run_steps(pool, steps)
    lo, hi = sorted((cut, back))
    # the outer table, a nested one, then the outer one again
    with ScalarTable() as outer:
        got, values = _run_steps(fresh, steps[:lo])
        with ScalarTable():
            more, values = _run_steps(values, steps[lo:hi])
            assert coeff.active_table is not outer
        rest, values = _run_steps(values, steps[hi:])
        assert coeff.active_table is outer
        cells = (values * 4)[:4]
        f = TMap((U,), (U,), [cells[:2], cells[2:]])
        lazy = lazy_compose(f, f)
    assert coeff.active_table is None
    assert got + more + rest == want
    # a lazy product's rows, built after its table closed
    assert stored_forms(lazy.entries) == stored_forms(dense_compose(f, f))

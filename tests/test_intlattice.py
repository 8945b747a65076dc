import random
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import (
    IntMatrix,
    InvariantFactors,
    abelian_invariants,
    kernel_basis_mod_p,
    smith_normal_form,
)
from isoprod import intlattice
from isoprod.intlattice import SparseIntMatrix


def minors_gcd_oracle(A: IntMatrix) -> list[int]:
    """Independent invariant-factor oracle: d_1...d_k = gcd of all k x k minors."""
    out = []
    previous = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for rows in combinations(range(A.rows), k):
            for cols in combinations(range(A.cols), k):
                sub = IntMatrix([[A.data[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        if g == 0:
            break
        out.append(g // previous)
        previous = g
    return out


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)


def identity(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def gf_rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination, p prime."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        src = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 20) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def snf_invariants(A: IntMatrix) -> InvariantFactors:
    """Invariants read off the diagonal of the transform-tracking SNF."""
    D, U, V = smith_normal_form(A)
    assert U @ A @ V == D
    diag = D.diagonal()
    return InvariantFactors(
        tuple(d for d in diag if d > 1),
        free_rank=A.cols - sum(1 for d in diag if d),
    )


def assert_invariants_match_snf(A: IntMatrix) -> None:
    """abelian_invariants (sparse unit pivots, then dense Smith) against the SNF."""
    before = [row[:] for row in A.data]
    assert abelian_invariants(A) == snf_invariants(A)
    assert A.data == before


# Mostly zeros and units: the sparse unit-pivot pass does nearly all the work.
UNIT_RICH = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3))
NON_UNIT = (0, 0, 2, -2, 3, -4, 6, 9)


class TestSmithNormalForm:
    def test_identity(self):
        I3 = identity(3)
        D, U, V = smith_normal_form(I3)
        assert D == I3 and U == I3 and V == I3

    def test_zero(self):
        Z = zeros(2, 3)
        D, U, V = smith_normal_form(Z)
        assert D == Z
        assert U == identity(2)
        assert V == identity(3)

    def test_gcd_of_minors_example(self):
        A = IntMatrix([[2, 4], [6, 8]])
        # 1x1 minors have gcd 2; the only 2x2 minor is det = -8, so d2 = 8/2 = 4.
        assert minors_gcd_oracle(A) == [2, 4]
        D, U, V = smith_normal_form(A)
        assert D.diagonal() == [2, 4]
        assert U @ A @ V == D

    def test_matches_minor_oracle_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(40):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 9)
            D, _, _ = smith_normal_form(A)
            nonzero = [d for d in D.diagonal() if d]
            assert nonzero == minors_gcd_oracle(A)

    def test_transform_properties_random(self):
        rng = random.Random(23)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = random_matrix(rng, m, n)
            D, U, V = smith_normal_form(A)
            assert U @ A @ V == D
            assert abs(U.det()) == 1
            assert abs(V.det()) == 1
            assert D.is_diagonal()
            diag = D.diagonal()
            assert all(d >= 0 for d in diag)
            nonzero = [d for d in diag if d]
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
            # zeros only after all nonzero entries
            assert diag == nonzero + [0] * (len(diag) - len(nonzero))

    def test_det_equals_product_of_factors(self):
        rng = random.Random(5)
        checked = 0
        while checked < 50:
            n = rng.randint(1, 5)
            A = random_matrix(rng, n, n)
            det = A.det()
            if det == 0:
                continue
            D, _, _ = smith_normal_form(A)
            assert prod(D.diagonal()) == abs(det)
            checked += 1

    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_transform_identity_hypothesis(self, rows):
        A = IntMatrix(rows)
        D, U, V = smith_normal_form(A)
        assert U @ A @ V == D


class TestIntMatrix:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_empty_needs_column_count(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        assert IntMatrix([], cols=4).cols == 4

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_det_small(self):
        assert IntMatrix([[1, 2], [3, 4]]).det() == -2
        assert identity(0).det() == 1
        assert IntMatrix([[0, 1], [1, 0]]).det() == -1


class TestAbelianInvariants:
    def test_free_module_orders_only(self):
        inv = abelian_invariants(IntMatrix([], cols=3), [2, 2, 2])
        assert inv == InvariantFactors((2, 2, 2))

    def test_mixed_presentation(self):
        # Generators f1..f6, h1, h2; relations 2f1, 2f_i - (combination of h),
        # and 2h1 = 2h2 = 0.  The cokernel is (Z/2)^4 + (Z/4)^2.
        rows = [
            [2, 0, 0, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0, -1, 0],
            [0, 0, 2, 0, 0, 0, 0, -1],
            [0, 0, 0, 2, 0, 0, -1, -1],
            [0, 0, 0, 0, 2, 0, -1, 0],
            [0, 0, 0, 0, 0, 2, 0, -1],
            [0, 0, 0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 0, 0, 2],
        ]
        inv = abelian_invariants(IntMatrix(rows))
        assert inv == InvariantFactors((2, 2, 2, 2, 4, 4))

    def test_single_free_generator(self):
        inv = abelian_invariants(IntMatrix([[0]]))
        assert inv == InvariantFactors((), free_rank=1)

    def test_orders_accept_free_markers(self):
        inv = abelian_invariants(IntMatrix([], cols=3), [2, None, "free"])
        assert inv == InvariantFactors((2,), free_rank=2)

    def test_order_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            abelian_invariants(IntMatrix([], cols=2), [2])

    def test_invariant_under_row_operations(self):
        rng = random.Random(31)
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            A = random_matrix(rng, m, n, 9)
            base = abelian_invariants(A)
            rows = [row[:] for row in A.data]
            for _ in range(6):
                op = rng.randrange(3)
                i, j = rng.randrange(m), rng.randrange(m)
                if op == 0:
                    rows[i], rows[j] = rows[j], rows[i]
                elif op == 1:
                    rows[i] = [-x for x in rows[i]]
                elif i != j:
                    rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
            assert abelian_invariants(IntMatrix(rows, cols=n)) == base

    def test_matches_plain_snf_diagonal(self):
        # The sparse pre-reduction path must agree with the transform-tracking SNF.
        rng = random.Random(43)
        for _ in range(60):
            m, n = rng.randint(1, 7), rng.randint(1, 6)
            assert_invariants_match_snf(random_matrix(rng, m, n, 15))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_unit_rich_sparse_matches_snf(self, data):
        n = data.draw(st.integers(1, 8))
        row = st.lists(UNIT_RICH, min_size=n, max_size=n)
        assert_invariants_match_snf(IntMatrix(data.draw(st.lists(row, min_size=1, max_size=14))))

    @given(st.integers(0, 2**32), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_tall_non_unit_matches_snf(self, seed, cols):
        # Tall residuals like the oracle's: no unit entries, so all 300 rows
        # reach the Hermite fold ahead of the dense Smith step.
        rng = random.Random(seed)
        rows = [[rng.choice(NON_UNIT) for _ in range(cols)] for _ in range(300)]
        assert_invariants_match_snf(IntMatrix(rows, cols=cols))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cancelling_fill_in_matches_snf(self, data):
        # Every other row is c * pivot row + z with z zero on the pivot
        # row's support, so eliminating the pivot cancels all its fill-in.
        n = data.draw(st.integers(2, 7))
        pivot = [data.draw(st.sampled_from((1, -1)))]
        pivot += data.draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows = [pivot]
        for _ in range(data.draw(st.integers(1, 8))):
            c = data.draw(st.integers(-3, 3))
            z = data.draw(st.lists(st.sampled_from(NON_UNIT), min_size=n, max_size=n))
            rows.append([c * p + (0 if p else x) for p, x in zip(pivot, z)])
        assert_invariants_match_snf(IntMatrix(rows))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_sparse_carrier_matches_dense(self, data):
        # The sparse entry point against the dense one and against the
        # transform-tracking SNF, on rows with duplicates, explicit zeros
        # and empty dicts, zero columns, and generator orders.
        n = data.draw(st.integers(0, 6))
        entry = st.sampled_from((0, 1, -1, 1, -1, 2, -3, 4, 6))
        row = st.dictionaries(st.integers(0, n - 1), entry, max_size=n) if n else st.just({})
        rows = data.draw(st.lists(row, max_size=10))
        if rows:
            copies = data.draw(st.lists(st.sampled_from(rows), max_size=5))
            rows = data.draw(st.permutations(rows + [dict(r) for r in copies] + [{}]))
        orders = data.draw(st.none() | st.lists(
            st.sampled_from((None, "free", 1, 2, 3, 4, 6)), min_size=n, max_size=n))
        sparse = SparseIntMatrix(rows, cols=n)
        dense = IntMatrix(sparse.data, cols=n)
        sparse_before = [dict(r) for r in rows]
        dense_before = [r[:] for r in dense.data]
        order_rows = [[k if j == i else 0 for j in range(n)]
                      for i, k in enumerate(orders or ()) if k not in (None, "free")]
        expected = snf_invariants(IntMatrix(dense.data + order_rows, cols=n))
        assert abelian_invariants(sparse, orders) == expected
        assert abelian_invariants(dense, orders) == expected
        assert sparse.entries == sparse_before
        assert dense.data == dense_before

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_unit_pivot_pass_leaves_no_unit(self, data):
        # Rows move between weight buckets as eliminations change them; a
        # row that gains a unit, at any weight, must still be taken.
        n = data.draw(st.integers(1, 8))
        row = st.dictionaries(st.integers(0, n - 1), UNIT_RICH.filter(bool), max_size=n)
        rows = data.draw(st.lists(row, max_size=14))
        live = set(range(n))
        removed = intlattice._presparse_reduce(rows, live)
        assert removed == n - len(live)
        for r in rows:
            assert set(r) <= live
            assert 1 not in r.values() and -1 not in r.values()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tall_sparse_lattices_match_snf(self, data):
        # Tall, thin, sparse rows drawn as integer combinations of fewer
        # base rows (so often free rank > 0), with entries up to +-50 that
        # seldom leave a unit, zero rows, zero columns and generator orders.
        n = data.draw(st.integers(1, 6))
        entry = st.sampled_from((0, 0, 0, 1, -1)) | st.integers(-50, 50)
        base = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
        dead = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        rows = []
        for _ in range(data.draw(st.integers(n + 1, 3 * n + 6))):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append({j: x for j in range(n) if j not in dead
                         if (x := sum(c * b[j] for c, b in zip(coeffs, base)))})
        orders = data.draw(st.none() | st.lists(
            st.sampled_from((None, "free", 2, 3, 4, 6, 50)), min_size=n, max_size=n))
        dense = SparseIntMatrix(rows, cols=n).data
        order_rows = [[k if j == i else 0 for j in range(n)]
                      for i, k in enumerate(orders or ()) if k not in (None, "free")]
        expected = snf_invariants(IntMatrix(dense + order_rows, cols=n))
        assert abelian_invariants(SparseIntMatrix(rows, cols=n), orders) == expected

    def test_tall_residual_takes_an_extended_gcd_step(self, monkeypatch):
        # No unit anywhere and three rows over two columns: the fold meets
        # 6 under the pivot 4, which only an extended-gcd step clears, and
        # _smith gets the 2 x 2 basis instead of the 3 x 2 residual.
        A = IntMatrix([[4, 6], [6, 4], [10, 0]])
        assert snf_invariants(A) == InvariantFactors((2, 10))
        xgcd_calls, smith_shapes = [], []
        xgcd, smith = intlattice._xgcd, intlattice._smith
        monkeypatch.setattr(intlattice, "_xgcd",
                            lambda a, b: xgcd_calls.append((a, b)) or xgcd(a, b))
        monkeypatch.setattr(intlattice, "_smith",
                            lambda d, m, n, u, v: smith_shapes.append((m, n)) or smith(d, m, n, u, v))
        assert abelian_invariants(A) == InvariantFactors((2, 10))
        assert xgcd_calls and smith_shapes == [(2, 2)]

    def test_sparse_carrier_shape_checks(self):
        M = SparseIntMatrix([{0: 2}, {}, {2: -1}], cols=3)
        assert (M.rows, M.cols) == (3, 3)
        assert M.data == [[2, 0, 0], [0, 0, 0], [0, 0, -1]]
        assert SparseIntMatrix([], cols=0).data == []
        with pytest.raises(ValueError):
            SparseIntMatrix([{3: 1}], cols=3)
        with pytest.raises(ValueError):
            SparseIntMatrix([{-1: 1}], cols=3)
        with pytest.raises(ValueError):
            SparseIntMatrix([], cols=-1)

    def test_orders_leave_callers_rows_alone(self):
        A = IntMatrix([[1, 2, 0], [0, 2, 4]])
        before = [row[:] for row in A.data]
        assert abelian_invariants(A, [6, None, 4]) == InvariantFactors((2, 4))
        assert A.data == before


class TestInvariantFactors:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            InvariantFactors((1, 2))
        with pytest.raises(ValueError):
            InvariantFactors((4, 2))
        with pytest.raises(ValueError):
            InvariantFactors((), free_rank=-1)

    def test_str(self):
        assert str(InvariantFactors((2, 4))) == "Z/2 ⊕ Z/4"
        assert str(InvariantFactors((), free_rank=2)) == "Z ⊕ Z"
        assert str(InvariantFactors()) == "0"

    def test_order(self):
        assert InvariantFactors((2, 4)).order() == 8
        assert InvariantFactors((), free_rank=1).order() is None
        assert InvariantFactors().order() == 1


class TestKernelBasisModP:
    def test_zero_map(self):
        M = zeros(2, 4)
        basis = kernel_basis_mod_p(M, 3)
        assert len(basis) == 4
        assert basis == [tuple(int(i == j) for j in range(4)) for i in range(4)]

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            kernel_basis_mod_p(zeros(1, 1), 4)
        with pytest.raises(ValueError):
            kernel_basis_mod_p(zeros(1, 1), 1)

    def test_rank_nullity_membership_independence(self):
        rng = random.Random(17)
        for p in (2, 3, 5):
            for _ in range(40):
                m, n = rng.randint(1, 4), rng.randint(1, 6)
                M = random_matrix(rng, m, n, 7)
                basis = kernel_basis_mod_p(M, p)
                assert len(basis) == n - gf_rank(M.data, p)
                for vec in basis:
                    image = [sum(M.data[i][j] * vec[j] for j in range(n)) % p
                             for i in range(m)]
                    assert not any(image)
                if basis:
                    assert gf_rank([list(v) for v in basis], p) == len(basis)

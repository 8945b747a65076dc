import random
from collections import Counter

import pytest

from isoprod import (
    DifferenceMap,
    FinAbGroup,
    GeneratingSystem,
    InvalidCaseError,
    IntMatrix,
    InvariantFactors,
    ProductPresentation,
    Word,
    abelian_invariants,
    builtin_case,
    commutator,
    coset_table,
    free_reduce,
    gen,
    kernel_h1,
    relation_matrix,
    rewrite_relator,
    schreier_transversal,
    smith_normal_form,
)
from isoprod.cli import compute
from isoprod.intlattice import SparseIntMatrix
from isoprod.oracle import rewrite_trace
from conftest import random_valid_system

KNOWN_H1 = {
    1: InvariantFactors((2, 2, 2, 2, 4, 4)),
    2: InvariantFactors((4, 4, 4, 4)),
    3: InvariantFactors((3, 3, 3, 3, 3)),
    4: InvariantFactors((5, 5, 5)),
}


def pair_machinery(phi, psi, gen_order=None):
    pres = ProductPresentation(phi.presentation(), psi.presentation())
    diff = DifferenceMap(phi, psi)
    table = coset_table(pres, diff, gen_order)
    return pres, diff, table, schreier_transversal(table)


def case_machinery(case, gen_order=None):
    return pair_machinery(case.phi, case.psi, gen_order)


def relation_matrix_shape(case):
    """One row per (coset, relator), one column per kernel generator off the tree.

    The relators are the n + 1 and m + 1 factor relators and the
    (n - 1)(m - 1) commutators [a_i, b_j] with i < n, j < m; each of the |G|
    cosets has n + m generator edges, |G| - 1 of them in the spanning tree.
    """
    order = case.group.order()
    relators = (case.n + 1) + (case.m + 1) + (case.n - 1) * (case.m - 1)
    return order * relators, order * (case.n + case.m) - (order - 1)


def trivial_pair(n, m, k=2):
    T = FinAbGroup(())
    return (
        GeneratingSystem(T, (T.zero(),) * n, k),
        GeneratingSystem(T, (T.zero(),) * m, k),
    )


class TestCosetTable:
    def test_case1_has_eight_cosets(self):
        _, _, table, _ = case_machinery(builtin_case(1))
        assert table.size == 8

    def test_case4_has_25_cosets(self):
        _, _, table, _ = case_machinery(builtin_case(4))
        assert table.size == 25

    def test_trivial_group_single_coset(self):
        phi, psi = trivial_pair(4, 3)
        pres = ProductPresentation(phi.presentation(), psi.presentation())
        table = coset_table(pres, DifferenceMap(phi, psi))
        assert table.size == 1

    def test_generators_act_by_permutation(self):
        _, _, table, _ = case_machinery(builtin_case(3))
        for moves in table.moves:
            assert sorted(moves) == list(range(table.size))

    def test_step_inverts_cleanly(self):
        _, _, table, _ = case_machinery(builtin_case(3))
        for c in range(table.size):
            for letter in table.letters:
                p = table.positions[letter.factor, letter.index]
                forward = table.moves[p][c]
                assert table.inverse_moves[p][forward] == c

    def test_non_surjective_rejected(self):
        G = FinAbGroup((2, 2))
        e1 = G.basis()[0]
        phi = GeneratingSystem(G, (e1, e1, e1, e1), 2)
        psi = GeneratingSystem(G, (e1, e1, e1, e1), 2)
        pres = ProductPresentation(phi.presentation(), psi.presentation())
        with pytest.raises(ValueError, match="not surjective"):
            coset_table(pres, DifferenceMap(phi, psi))

    def test_bad_gen_order_rejected(self):
        case = builtin_case(4)
        with pytest.raises(ValueError, match="permutation"):
            case_machinery(case, gen_order=[0, 0, 1, 2, 3, 4])


class TestSchreierTransversal:
    def test_trivial_group(self):
        phi, psi = trivial_pair(3, 3)
        pres = ProductPresentation(phi.presentation(), psi.presentation())
        data = schreier_transversal(coset_table(pres, DifferenceMap(phi, psi)))
        assert data.transversal == (Word(),)
        assert data.ncols == 6  # every (coset, generator) pair is nontrivial

    def test_case3_first_coset_representative(self):
        case = builtin_case(3)
        _, diff, table, data = case_machinery(case)
        e1 = case.group.basis()[0]
        idx = table.cosets.index(e1)
        assert data.transversal[idx] == Word.parse("a1")

    def test_words_evaluate_to_their_coset(self, cases):
        for case in cases:
            _, diff, table, data = case_machinery(case)
            for c in range(table.size):
                assert diff.evaluate(data.transversal[c]) == table.cosets[c]

    def test_prefix_closed(self, cases):
        for case in cases:
            _, _, table, data = case_machinery(case)
            words = {w.letters for w in data.transversal}
            for w in data.transversal:
                for cut in range(len(w.letters)):
                    assert w.letters[:cut] in words

    def test_case1_tree_and_column_counts(self):
        case = builtin_case(1)
        _, _, table, data = case_machinery(case)
        assert len(data.tree) == 7
        assert data.ncols == 8 * 11 - 7 == 81

    def test_counting_formula(self, cases):
        for case in cases:
            _, _, table, data = case_machinery(case)
            total = table.size * (case.n + case.m)
            assert data.ncols == total - (table.size - 1)


class TestRewriting:
    def test_case1_square_relator_at_identity(self):
        case = builtin_case(1)
        _, _, table, data = case_machinery(case)
        row = rewrite_relator(Word.parse("a1 a1"), 0, data)
        e1 = case.group.basis()[0]
        expected_column = data.columns[(table.cosets.index(e1), 0)]
        assert row[expected_column] == 1
        assert sum(abs(x) for x in row.values()) == 1

    def test_commutator_relator_weight(self):
        case = builtin_case(1)
        _, _, table, data = case_machinery(case)
        row = rewrite_relator(Word.parse("a1 b1 a1^-1 b1^-1"), 0, data)
        assert sum(abs(x) for x in row.values()) <= 4

    def test_cancelled_generators_leave_no_entry(self):
        # x x^-1 read from coset c emits the generator (c, x) and then its
        # inverse; the row must drop the zero sum, not store it.
        case = builtin_case(1)
        _, _, table, data = case_machinery(case)
        emitting = 0
        for c in range(table.size):
            for name in ("a1", "b2"):
                word = Word.parse(f"{name} {name}^-1")
                emitting += bool(rewrite_trace(word, data, start=c))
                assert rewrite_relator(word, c, data) == {}
        assert emitting

    @pytest.mark.parametrize(
        "case_id, shuffle_seed", [(1, None), (2, None), (3, None), (4, None), (1, 59)]
    )
    def test_row_from_coset_equals_rewritten_conjugate(self, case_id, shuffle_seed):
        # Reading r from coset c must give the abelianized rewriting of
        # t_c r t_c^-1 read from coset 0, for every coset and relator.
        case = builtin_case(case_id)
        gen_order = None
        if shuffle_seed is not None:
            gen_order = list(range(case.n + case.m))
            random.Random(shuffle_seed).shuffle(gen_order)
            assert gen_order != sorted(gen_order)
        pres, _, table, data = case_machinery(case, gen_order)
        for c in range(table.size):
            t = data.transversal[c]
            for r in pres.relators():
                expected = Counter()
                for key, sign in rewrite_trace(t * r * t.inverse(), data):
                    expected[data.columns[key]] += sign
                row = rewrite_relator(r, c, data)
                assert row == {col: v for col, v in expected.items() if v}

    def test_expansion_is_freely_equal_to_conjugate(self, cases):
        # Expanding the emitted kernel generators back to words of F must
        # reproduce t r t^-1 up to free reduction.
        rng = random.Random(37)
        for case in cases:
            pres, _, table, data = case_machinery(case)
            relators = pres.relators()
            for _ in range(8):
                c = rng.randrange(table.size)
                r = relators[rng.randrange(len(relators))]
                t = data.transversal[c]
                conjugate = t * r * t.inverse()
                expansion = Word()
                for (coset, pos), sign in rewrite_trace(conjugate, data):
                    piece = data.generator_word(coset, pos)
                    expansion = expansion * (piece if sign == 1 else piece.inverse())
                assert free_reduce(expansion) == free_reduce(conjugate)

    def test_permuted_gen_order_rewrites_conjugates_on_tree_free_keys(self, cases):
        # As above, under a permuted BFS order: the trace skips every tree
        # key, each emitted generator lies in the kernel, and the emitted
        # generators multiply back to the conjugate.
        rng = random.Random(53)
        for case in cases:
            perm = list(range(case.n + case.m))
            rng.shuffle(perm)
            pres, diff, table, data = case_machinery(case, gen_order=perm)
            for r in pres.relators():
                for c in range(table.size):
                    t = data.transversal[c]
                    conjugate = t * r * t.inverse()
                    expansion = Word()
                    for key, sign in rewrite_trace(conjugate, data):
                        assert key not in data.tree
                        piece = data.generator_word(*key)
                        assert diff.evaluate(piece).is_zero()
                        expansion = expansion * (piece if sign == 1 else piece.inverse())
                    assert free_reduce(expansion) == free_reduce(conjugate)

    def test_rewritten_rows_are_kernel_elements(self):
        case = builtin_case(3)
        pres, diff, table, data = case_machinery(case)
        for r in pres.relators():
            for c in range(table.size):
                t = data.transversal[c]
                assert diff.evaluate(t * r * t.inverse()).is_zero()


def relator_cut_inputs():
    """(phi, psi, gen_order): the catalog, 20 seeded pairs, one permuted order."""
    out = [pytest.param(builtin_case(i).phi, builtin_case(i).psi, None, id=f"case{i}")
           for i in (1, 2, 3, 4)]
    rng = random.Random(67)
    targets = [((2, 2), 2), ((3,), 3), ((7,), 7), ((2, 2, 2), 2), ((3, 3), 3), ((5,), 5)]
    for seed in range(20):
        orders, k = targets[seed % len(targets)]
        group = FinAbGroup(orders)
        low = max(3, group.rank + 1)
        phi = random_valid_system(rng, group, k, rng.randint(low, 5))
        psi = random_valid_system(rng, group, k, rng.randint(low, 5))
        out.append(pytest.param(phi, psi, None, id=f"seeded{seed}"))
    case = builtin_case(1)
    gen_order = list(range(case.n + case.m))
    random.Random(71).shuffle(gen_order)
    out.append(pytest.param(case.phi, case.psi, gen_order, id="case1-permuted"))
    return out


class TestRelatorCut:
    """relators() leaves out [a_n, b_j] and [a_i, b_m]; the oracle must not notice."""

    @pytest.mark.parametrize("phi, psi, gen_order", relator_cut_inputs())
    def test_full_commutator_set_gives_the_same_invariants(self, phi, psi, gen_order):
        pres, diff, table, data = pair_machinery(phi, psi, gen_order)
        n, m = phi.n, psi.n
        full = pres.first.relators("a") + pres.second.relators("b") + tuple(
            commutator(gen("a", i), gen("b", j))
            for i in range(1, n + 1)
            for j in range(1, m + 1)
        )
        kept = pres.relators()
        assert set(kept) <= set(full)
        dropped = [r for r in full if r not in kept]
        assert len(dropped) == n + m - 1
        for r in dropped:
            assert diff.evaluate(r).is_zero()
        rows = [rewrite_relator(r, c, data) for c in range(table.size) for r in full]
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert kernel_h1(phi, psi, gen_order) == from_full


class TestKernelH1:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_known_values(self, case_id):
        case = builtin_case(case_id)
        assert kernel_h1(case.phi, case.psi) == KNOWN_H1[case_id]

    def test_trivial_group_gives_free_module(self):
        for n, m, k in ((4, 3, 2), (3, 3, 3), (5, 4, 2)):
            phi, psi = trivial_pair(n, m, k)
            assert kernel_h1(phi, psi) == InvariantFactors((k,) * (n + m - 2))

    def test_independent_of_bfs_generator_order(self):
        rng = random.Random(41)
        for case_id in (1, 3):
            case = builtin_case(case_id)
            base = kernel_h1(case.phi, case.psi)
            size = case.n + case.m
            orders = [list(reversed(range(size)))]
            for _ in range(2):
                perm = list(range(size))
                rng.shuffle(perm)
                orders.append(perm)
            for perm in orders:
                assert kernel_h1(case.phi, case.psi, gen_order=perm) == base

    def test_matrix_shape_case2(self):
        case = builtin_case(2)
        matrix = relation_matrix(case.phi, case.psi)
        assert (matrix.rows, matrix.cols) == relation_matrix_shape(case) == (448, 145)
        assert sum(len(row) for row in matrix.entries) == 1355
        assert sum(len(row) - row.count(0) for row in matrix.data) == 1355

    def test_untraced_oracle_never_builds_the_dense_view(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense view of the relation matrix was built")

        monkeypatch.setattr(SparseIntMatrix, "data", property(refuse))
        for case_id in (1, 2, 3, 4):
            report = compute(builtin_case(case_id), ("oracle",))
            assert report.h1["oracle"] == KNOWN_H1[case_id]

    @pytest.mark.parametrize("case_id, shape", [(1, (264, 81)), (3, (171, 64))])
    def test_smith_certificate_on_relation_matrix(self, case_id, shape):
        # The oracle's own matrix, reduced with transforms: U A V = D, no
        # zero on the diagonal (b_1 = 0), and the factors above 1 are the
        # oracle's answer and the paper's.
        case = builtin_case(case_id)
        A = IntMatrix(relation_matrix(case.phi, case.psi).data)
        assert (A.rows, A.cols) == relation_matrix_shape(case) == shape
        D, U, V = smith_normal_form(A)
        assert U @ A @ V == D
        assert D.is_diagonal()
        diag = D.diagonal()
        assert len(diag) == A.cols and all(diag)
        factors = InvariantFactors(tuple(d for d in diag if d > 1))
        assert factors == kernel_h1(case.phi, case.psi) == KNOWN_H1[case_id]

    def test_invalid_case_rejected(self):
        case = builtin_case(1)
        images = list(case.phi.images)
        images[4] = case.group.basis()[1]
        broken = GeneratingSystem(case.group, tuple(images), case.k)
        with pytest.raises(InvalidCaseError):
            kernel_h1(broken, case.psi)

import random
from collections import Counter

import pytest

from isoprod import (
    AbElement,
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
from isoprod.oracle import _matching_pays, _relator_cut, rewrite_trace
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
    """Rows read by the oracle for a valid, free pair, and kernel generators off the tree.

    The catalog's sizes make the oracle match the 3-cell relations of
    both factors' letters.  Each power relator x^k of a_1..a_{n-1},
    b_1..b_{m-1} is read once per cycle of x (|G|/k cosets); a_n^k and
    b_m^k once (the letters have one orbit on the cosets).  The two long
    relators are read from each of the |G| cosets, and each commutator
    [a_i, b_j], i < n, j < m, from every coset but 2k - 1 on each of the
    |G|/k^2 cosets of <phi(a_i), psi(b_j)>, a subgroup of order k^2 for a
    free action.  Each coset has n + m generator edges, |G| - 1 of them in
    the spanning tree.
    """
    order, k, n, m = case.group.order(), case.k, case.n, case.m
    powers = (n - 1 + m - 1) * order // k + 2
    commutator_readings = order - (2 * k - 1) * order // k**2
    rows = powers + 2 * order + (n - 1) * (m - 1) * commutator_readings
    return rows, order * (n + m) - (order - 1)


def reference_cosets(diff, letters):
    """The coset BFS on AbElements: cosets in discovery order and the moves."""
    images = [diff.letter_image(l) for l in letters]
    zero = diff.group.zero()
    index = {zero: 0}
    cosets = [zero]
    for current in cosets:
        for img in images:
            if current + img not in index:
                index[current + img] = len(cosets)
                cosets.append(current + img)
    moves = tuple(tuple(index[c + img] for c in cosets) for img in images)
    return tuple(cosets), moves


def every_relator_row(pres, data):
    """Rows of every relator of F from every coset, with all n*m commutators."""
    n, m = pres.first.n, pres.second.n
    full = pres.first.relators("a") + pres.second.relators("b") + tuple(
        commutator(gen("a", i), gen("b", j))
        for i in range(1, n + 1)
        for j in range(1, m + 1)
    )
    return full, [rewrite_relator(r, c, data) for c in range(data.table.size) for r in full]


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

    @pytest.mark.parametrize("case_id, shuffle_seed", [
        (1, None), (2, None), (3, None), (4, None), ("z2z4", 73),
    ])
    def test_bfs_on_tuples_matches_element_arithmetic(self, case_id, shuffle_seed):
        # The BFS runs on coefficient tuples; its cosets and moves must be
        # those of a BFS on AbElements, coset + image, in the same order.
        if case_id == "z2z4":
            rng = random.Random(shuffle_seed)
            G = FinAbGroup((2, 4))
            phi, psi = random_valid_system(rng, G, 4, 4), random_valid_system(rng, G, 4, 4)
        else:
            case = builtin_case(case_id)
            phi, psi = case.phi, case.psi
        gen_order = None
        if shuffle_seed is not None:
            gen_order = list(range(phi.n + psi.n))
            random.Random(shuffle_seed).shuffle(gen_order)
            assert gen_order != sorted(gen_order)
        _, diff, table, _ = pair_machinery(phi, psi, gen_order)
        assert (table.cosets, table.moves) == reference_cosets(diff, table.letters)
        assert all(isinstance(c, AbElement) for c in table.cosets)
        assert len(set(table.cosets)) == table.size == phi.group.order()

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
    """(phi, psi, gen_order): the catalog, seeded pairs, one permuted order.

    The seeded pairs include composite k in groups that are not elementary
    abelian (Z/4, Z/2 x Z/4, Z/6), which only the oracle can compute.
    """
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
    # Images of order 4 or 6 in these groups are odd in their last
    # coordinate, so they can sum to zero only in even numbers.
    for orders, k in (((4,), 4), ((2, 4), 4), ((6,), 6)):
        group = FinAbGroup(orders)
        for seed in range(3):
            phi = random_valid_system(rng, group, k, rng.choice((4, 6)))
            psi = random_valid_system(rng, group, k, rng.choice((4, 6)))
            label = "x".join(f"Z{o}" for o in orders)
            out.append(pytest.param(phi, psi, None, id=f"{label}-{seed}"))
    # A valid but non-free pair: psi(b_1) = (2, 0) lies in <phi(a_1)>, so
    # <alpha, beta> has order k, not k^2, for that commutator.
    group = FinAbGroup((3, 3))
    phi = GeneratingSystem(group, tuple(map(group.element, ((1, 0), (0, 1), (2, 2)))), 3)
    psi = GeneratingSystem(
        group, tuple(map(group.element, ((2, 0), (1, 0), (0, 1), (0, 2)))), 3
    )
    out.append(pytest.param(phi, psi, None, id="psi-in-phi"))
    case = builtin_case(1)
    gen_order = list(range(case.n + case.m))
    random.Random(71).shuffle(gen_order)
    out.append(pytest.param(case.phi, case.psi, gen_order, id="case1-permuted"))
    return out


def row_keys(rows):
    return [frozenset(row.items()) for row in rows]


class TestRelatorCut:
    """The oracle reads fewer rows than F has relator conjugates; the lattice must not change.

    It leaves out [a_n, b_j] and [a_i, b_m], and the readings of each
    other commutator that its 3-cell relations match.  It reads a power
    relator x^k once per cycle of x where x's relations are matched, and
    otherwise once per orbit of x's own and the other factor's letters,
    instead of from every coset.  Its rows are a subset of the full set
    (every relator of F from every coset), so they span a sublattice L' of
    the full relation lattice L.  When both cokernels are finite with equal
    invariant factors, Z^cols / L' and Z^cols / L have the same order, so
    L' has the same finite index as L and L' = L.
    """

    @pytest.mark.parametrize("phi, psi, gen_order", relator_cut_inputs())
    def test_full_commutator_set_gives_the_same_invariants(self, phi, psi, gen_order):
        pres, diff, table, data = pair_machinery(phi, psi, gen_order)
        full, rows = every_relator_row(pres, data)
        kept = pres.relators()
        assert set(kept) <= set(full)
        dropped = [r for r in full if r not in kept]
        assert len(dropped) == phi.n + psi.n - 1
        for r in dropped:
            assert diff.evaluate(r).is_zero()
        matrix = relation_matrix(phi, psi, gen_order)
        assert matrix.cols == data.ncols
        assert set(row_keys(matrix.entries)) <= set(row_keys(rows))
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert from_full.is_finite
        assert kernel_h1(phi, psi, gen_order) == from_full

    def test_power_relators_read_once_per_orbit(self):
        # psi spans only <e1>, so the b letters have three orbits on the nine
        # cosets.  Reading each power relator from coset 0 alone loses the
        # rows of a_i^3 from the other cosets and leaves a free summand; the
        # oracle's readings, once per cycle of a matched letter and once per
        # orbit of the other letters, give the full set's answer.
        G = FinAbGroup((3, 3))
        phi = GeneratingSystem(G, tuple(map(G.element, ((1, 1), (1, 0), (1, 2)))), 3)
        psi = GeneratingSystem(
            G, tuple(map(G.element, ((2, 0), (1, 0), (1, 0), (2, 0)))), 3
        )
        assert phi.validation.ok and not psi.validation.ok
        pres, _, table, data = pair_machinery(phi, psi)
        _, rows = every_relator_row(pres, data)
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert from_full == InvariantFactors((3, 3, 3, 3))

        *a_powers, a_long = pres.first.relators("a")
        *b_powers, b_long = pres.second.relators("b")
        every = (a_long, b_long) + pres.commutators()
        coset_zero_only = [rewrite_relator(r, 0, data) for r in a_powers + b_powers] + [
            rewrite_relator(r, c, data) for c in range(table.size) for r in every
        ]
        assert abelian_invariants(
            SparseIntMatrix(coset_zero_only, cols=data.ncols)
        ) == InvariantFactors((3, 3, 3), free_rank=1)

        matrix = relation_matrix(phi, psi)
        # a_1, a_2 and b_1..b_3 are read once per cycle of their own letter
        # (3 each); a_3 and b_4 once per orbit of their own and the other
        # factor's letters, which together reach all nine cosets.  The long
        # relators come from 9 cosets, and each commutator [a_i, b_j] from
        # 9 less those matched: 2k - 1 = 5 on the one <alpha, beta>-coset
        # where phi(a_1) = (1, 1), and one per <alpha>-coset, 3, where
        # psi(b_j) lies in <phi(a_2)> = <e1>.
        assert matrix.rows == 5 * 3 + 2 * 1 + 9 * 2 + 3 * (9 - 5) + 3 * (9 - 3) == 65
        assert abelian_invariants(matrix) == from_full

        # With a_3 = (1, 0) last, a_3 and the b letters stay in <e1>: three
        # orbits, and a_3^3 is read from each.  Reading it from coset 0 alone
        # leaves a free summand again.
        phi = GeneratingSystem(G, tuple(map(G.element, ((1, 1), (1, 2), (1, 0)))), 3)
        pres, _, table, data = pair_machinery(phi, psi)
        _, rows = every_relator_row(pres, data)
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert from_full == InvariantFactors((3, 3, 3, 3))
        powers, _ = _relator_cut(pres, table)
        a_last, cosets = powers[2]
        assert a_last == pres.first.relators("a")[2] and len(cosets) == 3
        matrix = relation_matrix(phi, psi)
        assert abelian_invariants(matrix) == from_full
        others = {frozenset(rewrite_relator(a_last, c, data).items()) for c in cosets[1:]}
        coset_zero_only = [row for row in matrix.entries if frozenset(row.items()) not in others]
        assert len(coset_zero_only) == matrix.rows - 2
        assert abelian_invariants(
            SparseIntMatrix(coset_zero_only, cols=data.ncols)
        ) == InvariantFactors((3, 3, 3), free_rank=1)

    @pytest.mark.parametrize("phi, psi, gen_order", relator_cut_inputs())
    def test_matched_relations_are_exact_and_acyclic(self, phi, psi, gen_order):
        # Each dropped reading K(c) of [a_i, b_j] names the relation that drops
        # it, that of the cycle through c of a_i (alpha) or of b_j (beta):
        #   sum_t K(c + t alpha) - P_a(c) + P_a(c + beta) = 0,
        #   sum_t K(c + t beta) - P_b(c + alpha) + P_b(c) = 0.
        # The relation must sum to the zero row and hold K(c) once; its
        # power rows must be rows the oracle keeps, and its other commutator
        # readings kept or dropped earlier.  Then, by induction along the
        # list, every dropped reading lies in the lattice of the rows kept.
        pres, _, table, data = pair_machinery(phi, psi, gen_order)
        powers, matched = _relator_cut(pres, table)
        k, n, m = phi.k, phi.n, psi.n
        kept_powers = {r: set(row_keys(rewrite_relator(r, c, data) for c in cosets))
                       for r, cosets in powers}
        a_powers = pres.first.relators("a")[:-1]
        b_powers = pres.second.relators("b")[:-1]
        pairs = [(i, j) for i in range(1, n) for j in range(1, m)]
        assert len(matched) == len(pres.commutators()) == len(pairs)
        for (i, j), word, drops in zip(pairs, pres.commutators(), matched):
            a = table.moves[table.positions["a", i]]
            b = table.moves[table.positions["b", j]]
            dropped_at = {c: t for t, (c, _) in enumerate(drops)}
            assert len(dropped_at) == len(drops)
            for t, (c, factor) in enumerate(drops):
                if factor == "a":
                    step, power, ends = a, a_powers[i - 1], ((c, -1), (b[c], 1))
                else:
                    step, power, ends = b, b_powers[j - 1], ((a[c], -1), (c, 1))
                cycle = [c]
                while step[cycle[-1]] != c:
                    cycle.append(step[cycle[-1]])
                assert len(cycle) == k
                total = Counter()
                for x in cycle:
                    total.update(rewrite_relator(word, x, data))
                for x, sign in ends:
                    row = rewrite_relator(power, x, data)
                    assert frozenset(row.items()) in kept_powers[power]
                    for col, value in row.items():
                        total[col] += sign * value
                assert not any(total.values())
                for x in cycle[1:]:
                    assert dropped_at.get(x, -1) < t
        # These sizes all match some letter's relations, so the check is not
        # vacuous; and the matrix holds exactly the readings kept.
        assert any(matched)
        every = (pres.first.relators("a")[-1], pres.second.relators("b")[-1])
        every += pres.commutators()
        skips = [set(), set()] + [{c for c, _ in drops} for drops in matched]
        expected = [rewrite_relator(r, c, data) for r, cosets in powers for c in cosets]
        expected += [rewrite_relator(r, c, data) for c in range(table.size)
                     for r, skip in zip(every, skips) if c not in skip]
        matrix = relation_matrix(phi, psi, gen_order)
        assert Counter(row_keys(matrix.entries)) == Counter(row_keys(expected))

    def test_large_k_keeps_the_orbit_rule(self):
        # On (Z/11)^2 with n = m = 3 a matched letter would read x^11 from
        # 11 cosets to drop about as many 4-entry commutator readings, so
        # nothing is matched: each power relator is read once and every
        # commutator from every coset.  The ladder rungs (Z/7)^2, n = m = 3,
        # and (Z/3)^4, n = m = 6, are matched.
        assert not _matching_pays(121, 11, 11, 3, 3)
        assert _matching_pays(49, 7, 7, 3, 3)
        assert _matching_pays(81, 3, 3, 6, 6)
        rng = random.Random(79)
        group = FinAbGroup((11, 11))
        phi, psi = random_valid_system(rng, group, 11, 3), random_valid_system(rng, group, 11, 3)
        pres, _, table, data = pair_machinery(phi, psi)
        powers, matched = _relator_cut(pres, table)
        assert [cosets for _, cosets in powers] == [[0]] * 6
        assert not any(matched)
        matrix = relation_matrix(phi, psi)
        assert matrix.rows == 6 + 2 * 121 + 2 * 2 * 121
        _, rows = every_relator_row(pres, data)
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert from_full.is_finite
        assert abelian_invariants(matrix) == from_full

    def test_letters_of_lower_order_are_not_matched(self):
        # relation_matrix reads any pair the coset table accepts.  Here
        # phi(a_2) = 3 and psi(b_1) = 6 have order 3 in Z/9 with k = 9, so
        # their relations hold each commutator reading 3 times, and only 3
        # times a reading would be shown to lie in the lattice.  Matching
        # them anyway gives Z/3 + (Z/9)^3.
        G = FinAbGroup((9,))
        phi = GeneratingSystem(G, tuple(map(G.element, ((1,), (3,), (5,)))), 9)
        psi = GeneratingSystem(G, tuple(map(G.element, ((6,), (8,), (4,)))), 9)
        pres, _, table, data = pair_machinery(phi, psi)
        powers, matched = _relator_cut(pres, table)
        assert [len(cosets) for _, cosets in powers] == [1, 1, 1, 1, 1, 1]
        assert [sorted({f for _, f in drops}) for drops in matched] == [["a"], ["a"], [], ["b"]]
        _, rows = every_relator_row(pres, data)
        from_full = abelian_invariants(SparseIntMatrix(rows, cols=data.ncols))
        assert from_full == InvariantFactors((9, 9, 9))
        assert abelian_invariants(relation_matrix(phi, psi)) == from_full

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_catalog_matrix_rows_are_distinct(self, case_id):
        # abelian_invariants drops duplicate rows only after the unit-pivot
        # pass; the oracle's own rows must not repeat.
        case = builtin_case(case_id)
        matrix = relation_matrix(case.phi, case.psi)
        keys = row_keys(matrix.entries)
        assert len(set(keys)) == len(keys) == relation_matrix_shape(case)[0]


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
        assert (matrix.rows, matrix.cols) == relation_matrix_shape(case) == (162, 145)
        assert sum(len(row) for row in matrix.entries) == 518
        assert sum(len(row) - row.count(0) for row in matrix.data) == 518

    def test_untraced_oracle_never_builds_the_dense_view(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense view of the relation matrix was built")

        monkeypatch.setattr(SparseIntMatrix, "data", property(refuse))
        for case_id in (1, 2, 3, 4):
            report = compute(builtin_case(case_id), ("oracle",))
            assert report.h1["oracle"] == KNOWN_H1[case_id]

    @pytest.mark.parametrize("case_id, shape", [(1, (94, 81)), (3, (74, 64))])
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

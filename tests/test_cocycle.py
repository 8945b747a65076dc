import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import (
    FinAbGroup,
    GeneratingSystem,
    IntMatrix,
    InvalidCaseError,
    InvariantFactors,
    Wedge2,
    Word,
    builtin_case,
    builtin_cases,
    commutator,
    commutator_quotient,
    gen,
    h1_cocycle,
    kernel_basis,
    kernel_h1,
    wedge,
    wedge_relator,
)
from isoprod.cli import compute
from isoprod.cocycle import ExtensionCocycle
from isoprod.families import FamilyCase
from conftest import (
    random_admissible_word,
    random_valid_system,
    random_word,
    reference_wedge,
)

KNOWN_H1 = {
    1: InvariantFactors((2, 2, 2, 2, 4, 4)),
    2: InvariantFactors((4, 4, 4, 4)),
    3: InvariantFactors((3, 3, 3, 3, 3)),
    4: InvariantFactors((5, 5, 5)),
}


def random_fab_element(rng, ext):
    return ext.fab_group.element([rng.randrange(ext.k) for _ in range(ext.fab_group.rank)])


def random_gl(rng, size, p):
    while True:
        rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if size == 0 or IntMatrix(rows).det() % p:
            return rows


class TestWedgeRelator:
    def test_case1_phi(self):
        case = builtin_case(1)
        expected = case.group.wedge_basis_element(1, 2)  # e2 ^ e3
        assert wedge_relator(case.phi.images[:-1], case.k) == expected

    def test_case1_psi_vanishes(self):
        case = builtin_case(1)
        assert wedge_relator(case.psi.images[:-1], case.k).is_zero()

    def test_odd_k_always_vanishes(self):
        for case_id in (3, 4):
            case = builtin_case(case_id)
            assert wedge_relator(case.phi.images[:-1], case.k).is_zero()
            assert wedge_relator(case.psi.images[:-1], case.k).is_zero()


class TestCommutatorQuotient:
    def test_case1_rank_two(self):
        q = commutator_quotient(builtin_case(1).phi, builtin_case(1).psi)
        assert q.invariants == InvariantFactors((2, 2))

    def test_case2_rank_four(self):
        q = commutator_quotient(builtin_case(2).phi, builtin_case(2).psi)
        assert q.invariants == InvariantFactors((2, 2, 2, 2))

    def test_case4_full_exterior_square(self):
        q = commutator_quotient(builtin_case(4).phi, builtin_case(4).psi)
        assert q.relator_rank == 0
        assert q.invariants == InvariantFactors((5,))

    def test_reduction_kills_relators(self):
        case = builtin_case(1)
        q = commutator_quotient(case.phi, case.psi)
        assert q.reduce(case.group.wedge_basis_element(1, 2)).is_zero()
        assert not q.reduce(case.group.wedge_basis_element(0, 1)).is_zero()

    def test_order_bookkeeping(self, cases):
        for case in cases:
            q = commutator_quotient(case.phi, case.psi)
            assert q.order() * case.k ** q.relator_rank == case.k ** q.num_pairs

    def test_non_prime_k_rejected(self):
        G = FinAbGroup((4, 4))
        imgs = (G.element((1, 0)), G.element((0, 1)), G.element((-1, -1)), G.element((0, 0)))
        sys_ = GeneratingSystem(G, imgs[:3] + (G.element((0, 0)),), 4)
        with pytest.raises(ValueError, match="prime"):
            commutator_quotient(sys_, sys_)


class TestCommutatorClass:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_a_commutator_maps_to_wedge(self, case_id):
        case = builtin_case(case_id)
        ext = ExtensionCocycle(case.phi, case.psi)
        u = commutator(gen("a", 1), gen("a", 2))
        expected = ext.quotient.reduce(wedge(case.phi.images[0], case.phi.images[1]))
        assert ext.commutator_class(u, Word()) == expected

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_b_commutator_maps_to_negative_wedge(self, case_id):
        case = builtin_case(case_id)
        ext = ExtensionCocycle(case.phi, case.psi)
        v = commutator(gen("b", 1), gen("b", 2))
        expected = ext.quotient.reduce(-wedge(case.psi.images[0], case.psi.images[1]))
        assert ext.commutator_class(Word(), v) == expected

    def test_empty_pair_is_zero(self):
        case = builtin_case(1)
        ext = ExtensionCocycle(case.phi, case.psi)
        assert ext.commutator_class(Word(), Word()).is_zero()

    def test_rejects_last_generator(self):
        case = builtin_case(4)  # n = 3, so a3 is eliminated
        ext = ExtensionCocycle(case.phi, case.psi)
        with pytest.raises(ValueError, match="last generator"):
            ext.commutator_class(Word.parse("a3") ** 5, Word())

    def test_rejects_bad_degree(self):
        case = builtin_case(1)
        ext = ExtensionCocycle(case.phi, case.psi)
        with pytest.raises(ValueError, match="divisible"):
            ext.commutator_class(Word.parse("a1"), Word())

    def test_rejects_wrong_alphabet(self):
        case = builtin_case(1)
        ext = ExtensionCocycle(case.phi, case.psi)
        with pytest.raises(ValueError, match="alphabet"):
            ext.commutator_class(Word.parse("b1 b1"), Word())


class TestCocycleValues:
    def test_normalized(self):
        rng = random.Random(3)
        for case_id in (1, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            zero = ext.fab_group.zero()
            for _ in range(20):
                z = random_fab_element(rng, ext)
                assert ext(zero, z).is_zero()
                assert ext(z, zero).is_zero()

    def test_case1_unit_vectors(self):
        case = builtin_case(1)
        ext = ExtensionCocycle(case.phi, case.psi)
        a1 = ext.fab_group.basis()[0]
        a2 = ext.fab_group.basis()[1]
        # <a2, a1> = -phi(a1)^phi(a2) = e1^e2 mod 2, nonzero in the quotient.
        expected = ext.quotient.reduce(-case.group.wedge_basis_element(0, 1))
        assert ext(a2, a1) == expected
        assert not expected.is_zero()
        assert ext(a1, a2).is_zero()

    def test_case1_diagonal_value_on_kernel_vector(self):
        case = builtin_case(1)
        ext = ExtensionCocycle(case.phi, case.psi)
        # c = a1 + a2 + b1 lies in the kernel and <c, c> = -e1^e2.
        c = ext.fab_group.element((1, 1, 0, 0, 1, 0, 0, 0, 0))
        assert ext.target_image(c).is_zero()
        expected = ext.quotient.reduce(-case.group.wedge_basis_element(0, 1))
        assert ext(c, c) == expected

    def test_bilinear(self):
        rng = random.Random(7)
        for case_id in (1, 2, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(25):
                f = random_fab_element(rng, ext)
                g = random_fab_element(rng, ext)
                h = random_fab_element(rng, ext)
                assert ext(f + g, h) == ext(f, h) + ext(g, h)
                assert ext(h, f + g) == ext(h, f) + ext(h, g)

    def test_cocycle_condition(self):
        rng = random.Random(11)
        for case_id in (1, 2, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(25):
                f = random_fab_element(rng, ext)
                g = random_fab_element(rng, ext)
                h = random_fab_element(rng, ext)
                total = ext(g, h) - ext(f + g, h) + ext(f, g + h) - ext(f, g)
                assert total.is_zero()

    def test_section_consistency(self):
        rng = random.Random(13)
        for case_id in (1, 2, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(15):
                z1 = random_fab_element(rng, ext)
                z2 = random_fab_element(rng, ext)
                u1, v1 = ext.section_words(z1)
                u2, v2 = ext.section_words(z2)
                u3, v3 = ext.section_words(z1 + z2)
                u = u1 * u2 * u3.inverse()
                v = v1 * v2 * v3.inverse()
                assert ext.commutator_class(u, v) == ext(z1, z2)


class TestAlphaWellDefined:
    def test_homomorphism_on_concatenation(self):
        rng = random.Random(17)
        for case_id in (1, 3):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(20):
                u1 = random_admissible_word(rng, "a", case.n - 1, case.k)
                u2 = random_admissible_word(rng, "a", case.n - 1, case.k)
                v1 = random_admissible_word(rng, "b", case.m - 1, case.k)
                v2 = random_admissible_word(rng, "b", case.m - 1, case.k)
                assert ext.commutator_class(u1 * u2, v1 * v2) == \
                    ext.commutator_class(u1, v1) + ext.commutator_class(u2, v2)

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for case_id in (1, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(20):
                u = random_admissible_word(rng, "a", case.n - 1, case.k)
                v = random_admissible_word(rng, "b", case.m - 1, case.k)
                base = ext.commutator_class(u, v)
                g = gen("a", rng.randint(1, case.n - 1), rng.choice((1, -1)))
                assert ext.commutator_class(g * u * g.inverse(), v) == base
                h = gen("b", rng.randint(1, case.m - 1), rng.choice((1, -1)))
                assert ext.commutator_class(u, h * v * h.inverse()) == base

    def test_triple_commutators_die(self):
        # Words of the shape [x, [y, z]] lie in [K, K], so their class vanishes.
        rng = random.Random(23)
        for case_id in (1, 2, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            for _ in range(10):
                xa, ya, za = (random_word(rng, "a", case.n - 1, rng.randint(0, 4))
                              for _ in range(3))
                xb, yb, zb = (random_word(rng, "b", case.m - 1, rng.randint(0, 4))
                              for _ in range(3))
                u = commutator(xa, commutator(ya, za))
                v = commutator(xb, commutator(yb, zb))
                assert ext.commutator_class(u, v).is_zero()

    def test_insertion_invariance(self):
        rng = random.Random(29)
        for case_id in (1, 3, 4):
            case = builtin_case(case_id)
            ext = ExtensionCocycle(case.phi, case.psi)
            long_word = Word(tuple(
                l for i in range(1, case.n) for l in gen("a", i).letters
            )) ** case.k
            for _ in range(15):
                u = random_admissible_word(rng, "a", case.n - 1, case.k)
                v = random_admissible_word(rng, "b", case.m - 1, case.k)
                base = ext.commutator_class(u, v)
                x = gen("a", rng.randint(1, case.n - 1), rng.choice((1, -1)))
                for insertion in (x * x.inverse(), x ** case.k, long_word):
                    cut = rng.randint(0, len(u))
                    patched = Word(u.letters[:cut] + insertion.letters + u.letters[cut:])
                    assert ext.commutator_class(patched, v) == base


class TestKernelBasis:
    @pytest.mark.parametrize("case_id,size", [(1, 6), (2, 4), (3, 4), (4, 2)])
    def test_sizes(self, case_id, size):
        case = builtin_case(case_id)
        assert len(kernel_basis(case.phi, case.psi)) == size

    def test_vectors_lie_in_kernel(self, cases):
        for case in cases:
            ext = ExtensionCocycle(case.phi, case.psi)
            for c in kernel_basis(case.phi, case.psi):
                assert ext.target_image(c).is_zero()


class TestH1Cocycle:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_known_values(self, case_id):
        case = builtin_case(case_id)
        assert h1_cocycle(case.phi, case.psi) == KNOWN_H1[case_id]

    def test_extension_order(self, cases):
        for case in cases:
            q = commutator_quotient(case.phi, case.psi)
            l = len(kernel_basis(case.phi, case.psi))
            h1 = h1_cocycle(case.phi, case.psi)
            assert prod(h1.factors) == q.order() * case.k ** l

    def test_odd_k_splits_as_direct_sum(self):
        # For odd k the f-relations degenerate to k*f_i = 0, so the answer is
        # the quotient's invariants plus one Z/k summand per basis vector.
        rng = random.Random(47)
        pairs = [(builtin_case(3).phi, builtin_case(3).psi),
                 (builtin_case(4).phi, builtin_case(4).psi)]
        G = FinAbGroup((3, 3))
        pairs.append((random_valid_system(rng, G, 3, 4), random_valid_system(rng, G, 3, 4)))
        for phi, psi in pairs:
            q = commutator_quotient(phi, psi)
            l = len(kernel_basis(phi, psi))
            expected = InvariantFactors(tuple(sorted(q.invariants.factors + (phi.k,) * l)))
            assert h1_cocycle(phi, psi) == expected

    def test_basis_independence(self):
        rng = random.Random(31)
        for case_id in (1, 2, 3, 4):
            case = builtin_case(case_id)
            base_basis = kernel_basis(case.phi, case.psi)
            expected = KNOWN_H1[case_id]
            for _ in range(10):
                M = random_gl(rng, len(base_basis), case.k)
                changed = [
                    sum((M[i][j] * base_basis[j] for j in range(1, len(base_basis))),
                        M[i][0] * base_basis[0])
                    for i in range(len(base_basis))
                ]
                assert h1_cocycle(case.phi, case.psi, basis=changed) == expected

    def test_bad_basis_rejected(self):
        case = builtin_case(1)
        good = kernel_basis(case.phi, case.psi)
        with pytest.raises(ValueError, match="vectors"):
            h1_cocycle(case.phi, case.psi, basis=good[:-1])
        dependent = good[:-1] + [good[0]]
        with pytest.raises(ValueError, match="independent"):
            h1_cocycle(case.phi, case.psi, basis=dependent)
        ext = ExtensionCocycle(case.phi, case.psi)
        outside = good[:-1] + [ext.fab_group.basis()[0]]  # a1 alone is not in the kernel
        with pytest.raises(ValueError, match="kernel"):
            h1_cocycle(case.phi, case.psi, basis=outside)

    def test_invalid_system_rejected(self):
        case = builtin_case(2)
        images = list(case.psi.images)
        images[0] = case.group.zero()
        broken = GeneratingSystem(case.group, tuple(images), case.k)
        with pytest.raises(InvalidCaseError):
            h1_cocycle(case.phi, broken)


# (Z/k)^r targets in the cocycle method's scope, ranks 1 to 3.
COCYCLE_TARGETS = [((2, 2), 2), ((3,), 3), ((2, 2, 2), 2), ((3, 3), 3), ((5, 5), 5)]


def random_pair(rng, orders, k):
    group = FinAbGroup(orders)
    low = max(3, group.rank + 1)
    return (random_valid_system(rng, group, k, rng.randint(low, 5)),
            random_valid_system(rng, group, k, rng.randint(low, 5)))


class TestWedgeTablesDifferential:
    """The cocycle's wedge tables against sums of Wedge2 basis terms."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tables_values_and_commutator_classes(self, data):
        orders, k = data.draw(st.sampled_from(COCYCLE_TARGETS))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        phi, psi = random_pair(rng, orders, k)
        ext = ExtensionCocycle(phi, psi)
        group = phi.group
        for system, table in ((phi, ext._wphi), (psi, ext._wpsi)):
            images = system.images[:-1]
            for i, x in enumerate(images):
                for j, y in enumerate(images):
                    assert Wedge2(group, table[i][j]) == reference_wedge(x, y)

        coeffs = st.tuples(*(st.integers(0, k - 1) for _ in range(ext.fab_group.rank)))
        z1 = ext.fab_group.element(data.draw(coeffs))
        z2 = ext.fab_group.element(data.draw(coeffs))
        (r, rp), (s, sp) = ext.split(z1), ext.split(z2)
        expected = Wedge2(group, [0] * len(group.pair_indices()))
        for left, right, images, sign in ((r, s, phi.images, -1), (rp, sp, psi.images, 1)):
            for i in range(len(left)):
                for j in range(i + 1, len(left)):
                    term = reference_wedge(images[i], images[j])
                    expected = expected + (sign * left[j] * right[i]) * term
        assert ext(z1, z2) == ext.quotient.reduce(expected)

        u = random_admissible_word(rng, "a", ext.n - 1, k)
        v = random_admissible_word(rng, "b", ext.m - 1, k)
        expected = Wedge2(group, [0] * len(group.pair_indices()))
        for word, images, sign in ((u, phi.images, 1), (v, psi.images, -1)):
            letters = word.letters
            for a in range(len(letters)):
                for b in range(a + 1, len(letters)):
                    if letters[a].index > letters[b].index:
                        term = reference_wedge(images[letters[a].index - 1],
                                               images[letters[b].index - 1])
                        expected = expected + (sign * letters[a].sign * letters[b].sign) * term
        assert ext.commutator_class(u, v) == ext.quotient.reduce(expected)

    def test_operands_from_other_groups_rejected(self):
        case = builtin_case(3)
        ext = ExtensionCocycle(case.phi, case.psi)
        stranger = FinAbGroup((3,) * (ext.fab_group.rank + 1)).zero()
        with pytest.raises(ValueError, match="F\\^ab"):
            ext(stranger, ext.fab_group.zero())
        with pytest.raises(ValueError, match="different group"):
            ext.quotient.reduce(FinAbGroup((3, 3, 3)).wedge_basis_element(0, 1))
        other = builtin_case(4)
        with pytest.raises(ValueError, match="different groups"):
            ExtensionCocycle(case.phi, other.psi)


def _permuted(rng, system):
    """The system with its images in another order (if they are not all equal)."""
    images = list(system.images)
    for _ in range(10):
        rng.shuffle(images)
        if tuple(images) != system.images:
            break
    return GeneratingSystem(system.group, tuple(images), system.k)


def _transformed(matrix, system):
    """The system with the automorphism x -> matrix * x of (Z/k)^r applied."""
    group = system.group
    images = tuple(
        group.element([sum(a * c for a, c in zip(row, img.coeffs)) for row in matrix])
        for img in system.images
    )
    return GeneratingSystem(group, images, system.k)


def _metamorphic_cases():
    cases = [pytest.param(f"catalog-{c.id}", c.phi, c.psi, id=f"catalog-{c.id}")
             for c in builtin_cases()]
    rng = random.Random(59)
    for i in range(20):
        orders, k = COCYCLE_TARGETS[i % len(COCYCLE_TARGETS)]
        cases.append(pytest.param(f"random-{i}", *random_pair(rng, orders, k), id=f"random-{i}"))
    return cases


class TestH1CocycleMetamorphic:
    """Relabelings that give an isomorphic kernel must not change the answer."""

    @pytest.mark.parametrize("label, phi, psi", _metamorphic_cases())
    def test_invariances(self, label, phi, psi):
        rng = random.Random(label)
        expected = h1_cocycle(phi, psi)
        assert h1_cocycle(_permuted(rng, phi), psi) == expected
        assert h1_cocycle(phi, _permuted(rng, psi)) == expected
        assert h1_cocycle(psi, phi) == expected
        automorphism = random_gl(rng, phi.group.rank, phi.k)
        assert h1_cocycle(_transformed(automorphism, phi),
                          _transformed(automorphism, psi)) == expected
        if phi.group.order() <= 9:
            assert expected == kernel_h1(phi, psi)


def pair_case(phi, psi):
    return FamilyCase(id=None, label="pair", group=phi.group, k=phi.k, phi=phi, psi=psi)


class TestCrossCheck:
    def test_builtin_cases_match(self, cases):
        for case in cases:
            report = compute(case)
            assert report.agree
            assert report.h1["paper"] == report.h1["oracle"] == KNOWN_H1[case.id]

    def test_random_systems_agree_with_oracle(self):
        rng = random.Random(37)
        for orders, k in (((2, 2), 2), ((3, 3), 3)):
            group = FinAbGroup(orders)
            for _ in range(8):
                phi = random_valid_system(rng, group, k, rng.randint(3, 5))
                psi = random_valid_system(rng, group, k, rng.randint(3, 5))
                report = compute(pair_case(phi, psi))
                assert set(report.h1) == {"paper", "oracle"} and report.agree

    def test_oracle_total_order_matches_extension_data(self, cases):
        for case in cases:
            q = commutator_quotient(case.phi, case.psi)
            l = len(kernel_basis(case.phi, case.psi))
            oracle = kernel_h1(case.phi, case.psi)
            assert prod(oracle.factors) == q.order() * case.k ** l

    def test_trivial_group_rejected_by_cocycle_only(self):
        T = FinAbGroup(())
        phi = GeneratingSystem(T, (T.zero(),) * 3, 2)
        psi = GeneratingSystem(T, (T.zero(),) * 3, 2)
        with pytest.raises(InvalidCaseError):
            compute(pair_case(phi, psi))
        assert kernel_h1(phi, psi) == InvariantFactors((2, 2, 2, 2))

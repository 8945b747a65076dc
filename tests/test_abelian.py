import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import (
    FinAbGroup,
    Wedge2,
    builtin_case,
    pairwise_wedge_sum,
    subgroup_generated,
    wedge,
)
from conftest import reference_wedge


def random_element(rng, group):
    return group.element([rng.randrange(k) for k in group.orders])


class TestGroupAndElements:
    def test_orders_validated(self):
        with pytest.raises(ValueError):
            FinAbGroup((2, 1))
        assert FinAbGroup(()).order() == 1

    def test_self_inverse_mod_2(self):
        G = FinAbGroup((2, 2, 2))
        e1 = G.basis()[0]
        assert (e1 + e1).is_zero()

    def test_negation_mod_3(self):
        G = FinAbGroup((3, 3))
        e2 = G.basis()[1]
        assert -e2 == 2 * e2

    def test_scalar_reduction_mod_5(self):
        G = FinAbGroup((5, 5))
        e1, e2 = G.basis()
        assert 3 * (e1 + 2 * e2) == 3 * e1 + e2

    def test_mismatched_groups_rejected(self):
        x = FinAbGroup((2, 2)).zero()
        y = FinAbGroup((3, 3)).zero()
        with pytest.raises(ValueError):
            x + y

    def test_element_order(self):
        G = FinAbGroup((4, 6))
        assert G.element((2, 0)).order() == 2
        assert G.element((1, 1)).order() == 12
        assert G.zero().order() == 1

    def test_str(self):
        assert str(FinAbGroup((2, 2, 2))) == "(Z/2)^3"
        assert str(FinAbGroup((2, 4))) == "Z/2 x Z/4"
        assert str(FinAbGroup(())) == "1"
        G = FinAbGroup((5, 5))
        assert str(G.element((1, 2))) == "e1 + 2*e2"
        assert str(G.zero()) == "0"


class TestWedge:
    def test_basis_pair(self):
        G = FinAbGroup((2, 2, 2))
        e = G.basis()
        assert wedge(e[0], e[1]) == G.wedge_basis_element(0, 1)

    def test_alternating(self):
        rng = random.Random(3)
        for orders in ((2, 2, 2), (3, 3), (5, 5), (2, 4, 8)):
            G = FinAbGroup(orders)
            for _ in range(25):
                x = random_element(rng, G)
                assert wedge(x, x).is_zero()

    def test_antisymmetric(self):
        rng = random.Random(5)
        G = FinAbGroup((5, 5, 5))
        for _ in range(25):
            x, y = random_element(rng, G), random_element(rng, G)
            assert wedge(x, y) == -wedge(y, x)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_bilinear(self, data):
        orders = data.draw(st.sampled_from([(2, 2), (3, 3, 3), (5, 5), (2, 4)]))
        G = FinAbGroup(orders)
        coeff = st.tuples(*(st.integers(0, k - 1) for k in orders))
        x = G.element(data.draw(coeff))
        xp = G.element(data.draw(coeff))
        y = G.element(data.draw(coeff))
        assert wedge(x + xp, y) == wedge(x, y) + wedge(xp, y)
        assert wedge(y, x + xp) == wedge(y, x) + wedge(y, xp)

    def test_case2_psi_pairwise_sum(self):
        # Sum of the pairwise wedges of the first four psi images of case 2.
        case = builtin_case(2)
        G = case.group
        total = pairwise_wedge_sum(case.psi.images[:4])
        expected = (
            G.wedge_basis_element(0, 3)
            + G.wedge_basis_element(1, 2)
            + G.wedge_basis_element(2, 3)
        )
        assert total == expected

    def test_pairwise_sum_multiplier_divisible_by_odd_k(self):
        rng = random.Random(9)
        for k in (3, 5):
            G = FinAbGroup((k, k))
            images = [random_element(rng, G) for _ in range(4)]
            assert pairwise_wedge_sum(images, k * (k - 1) // 2).is_zero()

    def test_exterior_square_size(self):
        # The wedges of basis pairs generate the full coefficient space.
        for k in (2, 3, 5):
            for s in (2, 3, 4):
                G = FinAbGroup((k,) * s)
                gens = [wedge(G.basis()[i], G.basis()[j]).coeffs
                        for i, j in combinations(range(s), 2)]
                seen = {(0,) * len(G.pair_indices())}
                frontier = list(seen)
                while frontier:
                    current = frontier.pop()
                    for g in gens:
                        nxt = tuple((a + b) % k for a, b in zip(current, g))
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                assert len(seen) == k ** (s * (s - 1) // 2)

    def test_wedge_coefficient_lookup(self):
        G = FinAbGroup((3, 3))
        w = wedge(G.basis()[0], G.basis()[1])
        assert w.coefficient(0, 1) == 1
        assert w.coefficient(1, 0) == 2
        assert w.coefficient(1, 1) == 0

    def test_shape_mismatch_rejected(self):
        G = FinAbGroup((2, 2))
        with pytest.raises(ValueError):
            Wedge2(G, (1, 2))  # rank 2 has a single pair


# Prime and composite orders, pair orders that are gcds, and ranks 0 and 1.
DIFF_GROUPS = [(3,), (2, 4), (4, 6), (2, 4, 8), (2, 2, 2), (5,), ()]


def elements_of(group: FinAbGroup):
    return st.tuples(*(st.integers(-10, 10) for _ in group.orders)).map(group.element)


def reference_pairwise_sum(images, multiplier):
    group = images[0].group
    total = Wedge2(group, [0] * len(group.pair_indices()))
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            total = total + reference_wedge(images[i], images[j])
    return multiplier * total


class TestTupleWedgeDifferential:
    """wedge() and pairwise_wedge_sum() against sums of Wedge2 basis terms."""

    @pytest.mark.parametrize("orders", DIFF_GROUPS)
    def test_pair_table(self, orders):
        G = FinAbGroup(orders)
        pairs = tuple(combinations(range(len(orders)), 2))
        assert G.pair_indices() == pairs
        assert G.pair_orders() == tuple(gcd(orders[i], orders[j]) for i, j in pairs)
        assert G.pair_indices() is G.pair_indices()  # built once per group
        for t, (i, j) in enumerate(pairs):
            basis = G.wedge_basis_element(i, j)
            assert basis.coeffs == tuple(int(s == t) for s in range(len(pairs)))
            assert basis.coefficient(i, j) == 1 % G.pair_orders()[t]
            assert basis.coefficient(j, i) == -1 % G.pair_orders()[t]
        with pytest.raises(ValueError, match="not a basis pair"):
            G.wedge_basis_element(len(orders), len(orders) + 1)
        with pytest.raises(ValueError, match="not a basis pair"):
            G.wedge_basis_element(1, 0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_wedge(self, data):
        G = FinAbGroup(data.draw(st.sampled_from(DIFF_GROUPS)))
        x, y = data.draw(elements_of(G)), data.draw(elements_of(G))
        w, ref = wedge(x, y), reference_wedge(x, y)
        assert w == ref
        for t, (i, j) in enumerate(combinations(range(G.rank), 2)):
            assert w.coefficient(i, j) == ref.coeffs[t]
            assert w.coefficient(j, i) == -ref.coeffs[t] % G.pair_orders()[t]
        assert all(w.coefficient(i, i) == 0 for i in range(G.rank))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_pairwise_wedge_sum(self, data):
        orders = data.draw(st.sampled_from(DIFF_GROUPS))
        G = FinAbGroup(orders)
        images = data.draw(st.lists(elements_of(G), min_size=1, max_size=6))
        triangular = [k * (k - 1) // 2 for k in orders]
        multiplier = data.draw(st.sampled_from([0, 1, -1, -5] + triangular))
        expected = reference_pairwise_sum(images, multiplier)
        assert pairwise_wedge_sum(images, multiplier) == expected
        if multiplier == 1:
            assert pairwise_wedge_sum(images) == expected

    def test_pairwise_sum_needs_an_image_and_an_int_multiplier(self):
        G = FinAbGroup((2, 4))
        with pytest.raises(ValueError, match="at least one element"):
            pairwise_wedge_sum([])
        with pytest.raises(TypeError):
            pairwise_wedge_sum(G.basis(), 1.0)

    def test_equal_groups_built_apart_mix(self):
        x = FinAbGroup((2, 4)).element((1, 3))
        y = FinAbGroup((2, 4)).element((1, 1))
        assert wedge(x, y) == reference_wedge(x, y)
        assert pairwise_wedge_sum([x, y, x]) == reference_pairwise_sum([x, y, x], 1)

    @pytest.mark.parametrize("orders, other", [((2, 4), (4, 2)), ((3,), (3, 3)), ((), (2,))])
    def test_different_groups_rejected(self, orders, other):
        G, H = FinAbGroup(orders), FinAbGroup(other)
        x, y = G.zero(), H.zero()
        for bad in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="different groups"):
                wedge(*bad)
        for images in ([x, y], [x, x, y], [y, x]):
            with pytest.raises(ValueError, match="different groups"):
                pairwise_wedge_sum(images, 3)
        with pytest.raises(ValueError, match="different groups"):
            wedge(x, x) + wedge(y, y)


class TestSubgroupGenerated:
    def test_cyclic(self):
        G = FinAbGroup((5, 5))
        e1 = G.basis()[0]
        assert subgroup_generated(G, [e1]) == frozenset(
            {G.zero(), e1, 2 * e1, 3 * e1, 4 * e1}
        )

    def test_same_cyclic_subgroup_different_generator(self):
        G = FinAbGroup((5, 5))
        a = G.element((3, 4))
        b = G.element((1, 3))
        assert 2 * a == b  # so they generate the same subgroup
        assert subgroup_generated(G, [a]) == subgroup_generated(G, [b])

    def test_empty(self):
        G = FinAbGroup((2, 2))
        assert subgroup_generated(G, []) == frozenset({G.zero()})

    def test_closure_is_fixpoint_and_closed(self):
        rng = random.Random(13)
        for orders in ((2, 2, 2), (3, 3), (4, 6)):
            G = FinAbGroup(orders)
            gens = [random_element(rng, G) for _ in range(2)]
            closure = subgroup_generated(G, gens)
            assert subgroup_generated(G, closure) == closure
            for x in closure:
                assert -x in closure
                for y in closure:
                    assert x + y in closure

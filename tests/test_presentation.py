import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoprod.presentation as presentation
from isoprod import (
    DifferenceMap,
    FinAbGroup,
    GeneratingSystem,
    OrbifoldPresentation,
    ProductPresentation,
    Word,
    builtin_case,
    free_reduce,
    freeness_check,
    subgroup_generated,
    validate_generating_system,
)
from isoprod.cli import compute, main
from conftest import random_valid_system, random_word

# Cyclic, mixed, non-prime, elementary and trivial targets.
SMALL_GROUPS = [(4,), (2, 4), (2, 6), (3, 3), (2, 2, 2), ()]


@st.composite
def image_lists(draw, group: FinAbGroup, min_size: int = 0):
    """Random images in ``group``, with repeats and zero images mixed in."""
    element = st.tuples(*(st.integers(0, k - 1) for k in group.orders)).map(group.element)
    images = draw(st.lists(element, min_size=min_size, max_size=4))
    if images:
        images += draw(st.lists(st.sampled_from(images), max_size=3))
    images += [group.zero()] * draw(st.integers(0, 2))
    return draw(st.permutations(images))


@st.composite
def group_and_images(draw, count: int):
    group = FinAbGroup(draw(st.sampled_from(SMALL_GROUPS)))
    return (group,) + tuple(draw(image_lists(group, min_size=1)) for _ in range(count))


def cyclic_union(group: FinAbGroup, images) -> set:
    union = set()
    for img in images:
        union |= subgroup_generated(group, [img])
    return union


class TestWords:
    def test_reduce_to_empty(self):
        assert free_reduce(Word.parse("a1 a1^-1")) == Word()

    def test_reduce_inner_pair(self):
        assert free_reduce(Word.parse("a1 a2 a2^-1 a1")) == Word.parse("a1 a1")

    def test_reduce_leading_pair(self):
        assert free_reduce(Word.parse("b2^-1 b2 b2")) == Word.parse("b2")

    def test_reduce_cascades(self):
        w = Word.parse("a1 a2 a3 a3^-1 a2^-1 a1^-1")
        assert free_reduce(w) == Word()

    def test_parse_and_str(self):
        w = Word.parse("a1*b2^-1 a3^2")
        assert str(w) == "a1*b2^-1*a3*a3"
        assert Word.parse("1") == Word()
        with pytest.raises(ValueError):
            Word.parse("c1")

    def test_inverse_and_power(self):
        w = Word.parse("a1 a2")
        assert w.inverse() == Word.parse("a2^-1 a1^-1")
        assert w ** 2 == Word.parse("a1 a2 a1 a2")
        assert w ** -1 == w.inverse()

    def test_degree(self):
        w = Word.parse("a1 a1 a2^-1 b1")
        assert w.degree("a", 1) == 2
        assert w.degree("a", 2) == -1
        assert w.degree("b", 1) == 1


class TestPresentations:
    def test_orbifold_relators(self):
        pres = OrbifoldPresentation(3, 2)
        rels = pres.relators("a")
        assert rels == (
            Word.parse("a1 a1"),
            Word.parse("a2 a2"),
            Word.parse("a3 a3"),
            Word.parse("a1 a2 a3"),
        )

    def test_orbifold_bounds(self):
        with pytest.raises(ValueError):
            OrbifoldPresentation(2, 2)
        with pytest.raises(ValueError):
            OrbifoldPresentation(3, 1)

    def test_product_relator_count(self):
        # n + 1 and m + 1 factor relators, and [a_i, b_j] for i < n, j < m only.
        n, m = 5, 6
        pres = ProductPresentation(OrbifoldPresentation(n, 2), OrbifoldPresentation(m, 2))
        assert len(pres.relators()) == (n + 1) + (m + 1) + (n - 1) * (m - 1) == 33
        assert len(pres.generators()) == n + m


class TestEvaluate:
    def test_case4_long_product_is_zero(self):
        case = builtin_case(4)
        assert DifferenceMap(case.phi, case.psi).evaluate(Word.parse("a1 a2 a3")).is_zero()

    def test_empty_word(self):
        case = builtin_case(1)
        assert DifferenceMap(case.phi, case.psi).evaluate(Word()).is_zero()

    def test_case2_psi_product(self):
        case = builtin_case(2)
        # Componentwise sum of psi(b3) and psi(b4) mod 2, computed independently;
        # the map sends b-letters to -psi, so its value is negated back.
        expected = [
            (x + y) % 2
            for x, y in zip(case.psi.images[2].coeffs, case.psi.images[3].coeffs)
        ]
        value = DifferenceMap(case.phi, case.psi).evaluate(Word.parse("b3 b4"))
        assert (-value).coeffs == tuple(expected)

    def test_out_of_range_rejected(self):
        case = builtin_case(4)
        with pytest.raises(IndexError):
            DifferenceMap(case.phi, case.psi).evaluate(Word.parse("a4"))

    def test_reduction_preserves_value(self):
        rng = random.Random(19)
        case = builtin_case(3)
        diff = DifferenceMap(case.phi, case.psi)
        for _ in range(50):
            w = random_word(rng, "a", case.n, rng.randint(0, 10))
            assert diff.evaluate(free_reduce(w)) == diff.evaluate(w)


class TestDifferenceMap:
    def test_case3_mixed_word(self):
        case = builtin_case(3)
        diff = DifferenceMap(case.phi, case.psi)
        # e1 - (e1 + e2) = -e2 = 2 e2
        assert diff.evaluate(Word.parse("a1 b1")) == 2 * case.group.basis()[1]

    def test_case1_kernel_word(self):
        case = builtin_case(1)
        diff = DifferenceMap(case.phi, case.psi)
        assert diff.evaluate(Word.parse("a1 a4")).is_zero()

    def test_empty(self):
        case = builtin_case(2)
        assert DifferenceMap(case.phi, case.psi).evaluate(Word()).is_zero()

    def test_all_relators_die(self, cases):
        for case in cases:
            pres = ProductPresentation(case.phi.presentation(), case.psi.presentation())
            diff = DifferenceMap(case.phi, case.psi)
            for relator in pres.relators():
                assert diff.evaluate(relator).is_zero()

    def test_group_mismatch_rejected(self):
        case1, case3 = builtin_case(1), builtin_case(3)
        with pytest.raises(ValueError):
            DifferenceMap(case1.phi, case3.psi)


class TestValidation:
    def test_builtin_cases_valid(self, cases):
        for case in cases:
            assert validate_generating_system(case.phi).ok
            assert validate_generating_system(case.psi).ok

    def test_broken_product_detected(self):
        case = builtin_case(1)
        images = list(case.phi.images)
        images[4] = case.group.basis()[1]  # a5 -> e2 breaks the product
        report = validate_generating_system(
            GeneratingSystem(case.group, tuple(images), case.k)
        )
        assert not report.ok
        assert any("sum" in f for f in report.failures)

    def test_generation_failure_detected(self):
        G = FinAbGroup((2, 2))
        e1 = G.basis()[0]
        report = validate_generating_system(GeneratingSystem(G, (e1, e1, G.zero()), 2))
        assert not report.ok
        assert any("generate" in f for f in report.failures)
        assert any("order" in f for f in report.failures)  # the zero image

    def test_empty_system(self):
        G = FinAbGroup((2, 2))
        report = validate_generating_system(GeneratingSystem(G, (), 2))
        assert report.failures == ("empty generating system",)

    def test_wrong_image_order_detected(self):
        G = FinAbGroup((4,))
        g = G.element((2,))  # order 2, not 4
        report = validate_generating_system(GeneratingSystem(G, (g, g, g, g), 4))
        assert any("order" in f for f in report.failures)

    @given(group_and_images(1))
    @settings(max_examples=150, deadline=None)
    def test_generation_verdict_matches_closure(self, drawn):
        G, images = drawn
        report = validate_generating_system(GeneratingSystem(G, tuple(images), 2))
        generates = len(subgroup_generated(G, images)) == G.order()
        assert ("images do not generate the group" not in report.failures) == generates


class TestValidateOnce:
    @pytest.fixture
    def validated(self, monkeypatch):
        """The systems passed to validate_generating_system, one entry per call."""
        calls = []
        original = presentation.validate_generating_system

        def counting(sys):
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(presentation, "validate_generating_system", counting)
        return calls

    @pytest.mark.parametrize("method", [None, "paper", "oracle"])
    def test_compute_validates_each_system_once(self, validated, capsys, method):
        argv = ["compute", "1", "--json"] + (["--method", method] if method else [])
        assert main(argv) == 0
        assert len(validated) == 2
        assert validated[0] is not validated[1]

    def test_run_case_validates_each_system_once(self, validated):
        compute(builtin_case(1))
        assert len(validated) == 2

    def test_no_cache_outlives_the_object(self, validated, capsys):
        first, second = builtin_case(1), builtin_case(1)
        compute(first)
        compute(second)
        assert len(validated) == 4
        assert main(["compute", "1", "--json"]) == 0
        assert main(["compute", "1", "--json"]) == 0
        assert len(validated) == 8

    def test_report_is_cached_on_the_system(self, validated):
        case = builtin_case(2)
        assert case.phi.validation is case.phi.validation
        assert case.phi.validation == validate_generating_system(case.phi)


class TestFreeness:
    def test_builtin_cases_free(self, cases):
        for case in cases:
            assert freeness_check(case.phi, case.psi)

    def test_shared_cyclic_subgroup_detected(self):
        case = builtin_case(4)
        images = list(case.psi.images)
        images[0] = case.group.basis()[0]  # now e1 lies in both unions
        broken = GeneratingSystem(case.group, tuple(images), case.k)
        assert not freeness_check(case.phi, broken)

    def test_disjoint_cyclic_subgroups(self):
        G = FinAbGroup((2, 2))
        e1, e2 = G.basis()
        phi = GeneratingSystem(G, (e1,), 2)
        psi = GeneratingSystem(G, (e2,), 2)
        assert freeness_check(phi, psi)

    def test_symmetric(self):
        rng = random.Random(29)
        G = FinAbGroup((3, 3))
        for _ in range(20):
            phi = random_valid_system(rng, G, 3, rng.randint(3, 5))
            psi = random_valid_system(rng, G, 3, rng.randint(3, 5))
            assert freeness_check(phi, psi) == freeness_check(psi, phi)

    @given(group_and_images(2))
    @settings(max_examples=150, deadline=None)
    def test_matches_definition(self, drawn):
        G, phi_images, psi_images = drawn
        phi = GeneratingSystem(G, tuple(phi_images), 2)
        psi = GeneratingSystem(G, tuple(psi_images), 2)
        meet = cyclic_union(G, phi_images) & cyclic_union(G, psi_images)
        assert freeness_check(phi, psi) == (meet == {G.zero()})
        assert freeness_check(psi, phi) == freeness_check(phi, psi)


class TestSampler:
    """conftest.random_valid_system must end, with a system or an error."""

    def test_impossible_size_fails_fast(self):
        # Three images of order 4 in Z/4 are odd, so they never sum to zero.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no valid system of 3 images of order 4"):
            random_valid_system(random.Random(1), FinAbGroup((4,)), 4, 3)
        assert time.perf_counter() - start < 1.0

    def test_missing_order_fails_at_once(self):
        with pytest.raises(ValueError, match="no element of order 3"):
            random_valid_system(random.Random(1), FinAbGroup((2, 2)), 3, 4)

    def test_possible_size_still_sampled(self):
        system = random_valid_system(random.Random(1), FinAbGroup((4,)), 4, 4)
        assert system.validation.ok and system.n == 4

import pytest

from isoprod import (
    InvariantFactors,
    builtin_case,
    builtin_cases,
    freeness_check,
    full_homology,
    genus,
    surface_invariants,
    validate_generating_system,
)
from isoprod.cli import case_from_file, case_to_file, case_file_json, compute, parse_case_file

KNOWN_H1 = {
    1: InvariantFactors((2, 2, 2, 2, 4, 4)),
    2: InvariantFactors((4, 4, 4, 4)),
    3: InvariantFactors((3, 3, 3, 3, 3)),
    4: InvariantFactors((5, 5, 5)),
}

KNOWN_GENERA = {1: (3, 5), 2: (5, 5), 3: (4, 4), 4: (6, 6)}


class TestCatalog:
    def test_case1_phi_images(self):
        case = builtin_case(1)
        e1, e2, e3 = case.group.basis()
        assert case.phi.images == (e1, e2, e3, e1, e2 + e3)

    def test_case4_psi_images(self):
        case = builtin_case(4)
        G = case.group
        assert case.psi.images == (
            G.element((1, 2)),
            G.element((3, 4)),
            G.element((1, 4)),
        )

    def test_shapes(self):
        expected = {1: (2, 5, 6), 2: (2, 5, 5), 3: (3, 4, 4), 4: (5, 3, 3)}
        for case in builtin_cases():
            assert (case.k, case.n, case.m) == expected[case.id]

    def test_family_dimensions(self):
        assert [c.family_dim for c in builtin_cases()] == [5, 4, 2, 0]

    def test_all_cases_valid_and_free(self, cases):
        for case in cases:
            assert validate_generating_system(case.phi).ok
            assert validate_generating_system(case.psi).ok
            assert freeness_check(case.phi, case.psi)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            builtin_case(5)
        with pytest.raises(ValueError):
            builtin_case(0)


class TestGenus:
    @pytest.mark.parametrize(
        "order,branch,k,expected",
        [(8, 5, 2, 3), (8, 6, 2, 5), (16, 5, 2, 5), (9, 4, 3, 4), (25, 3, 5, 6)],
    )
    def test_values(self, order, branch, k, expected):
        assert genus(order, branch, k) == expected

    def test_non_integral_signature_rejected(self):
        with pytest.raises(ValueError, match="non-integral"):
            genus(3, 3, 2)

    def test_low_genus_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            genus(4, 4, 2)  # gives genus 1


class TestSurfaceInvariants:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_chi_is_four_and_genera(self, case_id):
        chi, genera = surface_invariants(builtin_case(case_id))
        assert chi == 4
        assert genera == KNOWN_GENERA[case_id]


class TestFullHomology:
    def test_case4_grading(self):
        t = InvariantFactors((5, 5, 5))
        graded = full_homology(t)
        assert graded == (
            InvariantFactors((), 1),
            t,
            InvariantFactors((5, 5, 5), 2),
            InvariantFactors(),
            InvariantFactors((), 1),
        )

    def test_trivial_torsion(self):
        graded = full_homology(InvariantFactors())
        assert [str(h) for h in graded] == ["Z", "0", "Z ⊕ Z", "0", "Z"]

    def test_case1_middle_group(self):
        graded = full_homology(KNOWN_H1[1])
        assert graded[2] == InvariantFactors((2, 2, 2, 2, 4, 4), 2)

    def test_infinite_h1_rejected(self):
        with pytest.raises(ValueError):
            full_homology(InvariantFactors((), 1))

    def test_betti_numbers_sum_to_chi(self):
        for case in builtin_cases():
            chi_top, _ = surface_invariants(case)
            betti = [h.free_rank for h in full_homology(compute(case).h1["paper"])]
            assert sum(b * (-1) ** i for i, b in enumerate(betti)) == chi_top == 4


class TestRunCase:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_reports(self, case_id):
        case = builtin_case(case_id)
        report = compute(case)
        assert report.case is case
        assert report.h1 == {"paper": KNOWN_H1[case_id], "oracle": KNOWN_H1[case_id]}
        assert report.agree and report.skipped == {}
        assert surface_invariants(case) == (4, KNOWN_GENERA[case_id])
        assert report.action_free
        assert full_homology(report.h1["paper"])[1] == KNOWN_H1[case_id]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            compute(builtin_case(3), ("oracel",))

    def test_h1_order_bookkeeping(self):
        # |H_1| = k^(pairs - relator rank) * k^((n-1)+(m-1)-s)
        from isoprod import commutator_quotient

        for case in builtin_cases():
            q = commutator_quotient(case.phi, case.psi)
            report = compute(case)
            s = case.group.rank
            expected = case.k ** (q.num_pairs - q.relator_rank) \
                * case.k ** (case.n - 1 + case.m - 1 - s)
            assert report.h1["paper"].order() == expected


class TestRoundTrip:
    def test_case_data_round_trips_bit_exactly(self, cases):
        for case in cases:
            text = case_file_json(case_to_file(case))
            rebuilt = case_from_file(parse_case_file(text))
            assert rebuilt.group == case.group
            assert rebuilt.k == case.k
            assert rebuilt.label == case.label
            assert rebuilt.phi.images == case.phi.images
            assert rebuilt.psi.images == case.psi.images
            assert case_file_json(case_to_file(rebuilt)) == text

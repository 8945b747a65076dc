"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import os
import random
import subprocess
import sys
import tempfile
import time
from math import prod

from isoprod import (
    GeneratingSystem,
    IntMatrix,
    InvariantFactors,
    Word,
    builtin_case,
    builtin_cases,
    commutator,
    commutator_quotient,
    freeness_check,
    gen,
    h1_cocycle,
    kernel_basis,
    kernel_h1,
    smith_normal_form,
    surface_invariants,
    wedge_relator,
)
from isoprod.cli import compute
from isoprod.cocycle import ExtensionCocycle
from conftest import random_admissible_word, random_word

EXPECTED_H1 = {
    1: InvariantFactors((2, 2, 2, 2, 4, 4)),
    2: InvariantFactors((4, 4, 4, 4)),
    3: InvariantFactors((3, 3, 3, 3, 3)),
    4: InvariantFactors((5, 5, 5)),
}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_theorem_reproduction_cocycle_method():
    start = time.perf_counter()
    results = {i: h1_cocycle(c.phi, c.psi) for i, c in enumerate(builtin_cases(), 1)}
    elapsed = time.perf_counter() - start
    ok = results == EXPECTED_H1 and elapsed < 1.0
    report(
        "criterion 1: cocycle method reproduces all four H_1 groups",
        ok,
        f"{elapsed:.3f}s, values {[str(v) for v in results.values()]}",
    )


def test_criterion_2_oracle_agreement():
    start = time.perf_counter()
    oracle = {i: kernel_h1(c.phi, c.psi) for i, c in enumerate(builtin_cases(), 1)}
    reports = [compute(c) for c in builtin_cases()]
    elapsed = time.perf_counter() - start
    ok = oracle == EXPECTED_H1 and all(r.agree and len(r.h1) == 2 for r in reports) \
        and elapsed < 10.0
    report(
        "criterion 2: rewriting oracle agrees on all four cases",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_3_intermediate_values():
    case1, case2 = builtin_case(1), builtin_case(2)
    checks = []
    checks.append(
        wedge_relator(case1.phi.images[:-1], 2) == case1.group.wedge_basis_element(1, 2)
    )
    checks.append(wedge_relator(case1.psi.images[:-1], 2).is_zero())
    checks.append(
        commutator_quotient(case1.phi, case1.psi).invariants == InvariantFactors((2, 2))
    )
    checks.append(
        commutator_quotient(case2.phi, case2.psi).invariants
        == InvariantFactors((2, 2, 2, 2))
    )
    from isoprod import pairwise_wedge_sum

    G2 = case2.group
    checks.append(
        pairwise_wedge_sum(case2.psi.images[:4])
        == G2.wedge_basis_element(0, 3)
        + G2.wedge_basis_element(1, 2)
        + G2.wedge_basis_element(2, 3)
    )
    report("criterion 3: intermediate quotient and relator values", all(checks))


def _per_case_trials(total: int) -> list:
    cases = builtin_cases()
    per = total // len(cases)
    return [(case, per) for case in cases]


def test_criterion_4_property_suite():
    trials = 200
    failures = []

    rng = random.Random(101)
    count = 0
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        rank = ext.fab_group.rank
        for _ in range(per):
            f, g, h = (
                ext.fab_group.element([rng.randrange(case.k) for _ in range(rank)])
                for _ in range(3)
            )
            if not (ext(g, h) - ext(f + g, h) + ext(f, g + h) - ext(f, g)).is_zero():
                failures.append("cocycle condition")
            count += 1
    assert count >= trials

    rng = random.Random(102)
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        rank = ext.fab_group.rank
        for _ in range(per):
            f, g, h = (
                ext.fab_group.element([rng.randrange(case.k) for _ in range(rank)])
                for _ in range(3)
            )
            if ext(f + g, h) != ext(f, h) + ext(g, h) or ext(h, f + g) != ext(h, f) + ext(h, g):
                failures.append("cocycle bilinearity")

    rng = random.Random(103)
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        for _ in range(per):
            u = random_admissible_word(rng, "a", case.n - 1, case.k)
            v = random_admissible_word(rng, "b", case.m - 1, case.k)
            base = ext.commutator_class(u, v)
            x = gen("a", rng.randint(1, case.n - 1), rng.choice((1, -1)))
            y = gen("b", rng.randint(1, case.m - 1), rng.choice((1, -1)))
            if ext.commutator_class(x * u * x.inverse(), v) != base:
                failures.append("conjugation invariance (a side)")
            if ext.commutator_class(u, y * v * y.inverse()) != base:
                failures.append("conjugation invariance (b side)")

    rng = random.Random(104)
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        for _ in range(per):
            xa, ya, za = (random_word(rng, "a", case.n - 1, rng.randint(0, 4)) for _ in range(3))
            xb, yb, zb = (random_word(rng, "b", case.m - 1, rng.randint(0, 4)) for _ in range(3))
            u = commutator(xa, commutator(ya, za))
            v = commutator(xb, commutator(yb, zb))
            if not ext.commutator_class(u, v).is_zero():
                failures.append("triple commutators vanish")

    rng = random.Random(105)
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        long_word = Word(tuple(
            l for i in range(1, case.n) for l in gen("a", i).letters
        )) ** case.k
        for _ in range(per):
            u = random_admissible_word(rng, "a", case.n - 1, case.k)
            v = random_admissible_word(rng, "b", case.m - 1, case.k)
            base = ext.commutator_class(u, v)
            x = gen("a", rng.randint(1, case.n - 1), rng.choice((1, -1)))
            for insertion in (x * x.inverse(), x ** case.k, long_word):
                cut = rng.randint(0, len(u))
                patched = Word(u.letters[:cut] + insertion.letters + u.letters[cut:])
                if ext.commutator_class(patched, v) != base:
                    failures.append("insertion invariance")

    rng = random.Random(106)
    for case, per in _per_case_trials(trials):
        ext = ExtensionCocycle(case.phi, case.psi)
        rank = ext.fab_group.rank
        for _ in range(per):
            z1, z2 = (
                ext.fab_group.element([rng.randrange(case.k) for _ in range(rank)])
                for _ in range(2)
            )
            u1, v1 = ext.section_words(z1)
            u2, v2 = ext.section_words(z2)
            u3, v3 = ext.section_words(z1 + z2)
            got = ext.commutator_class(u1 * u2 * u3.inverse(), v1 * v2 * v3.inverse())
            if got != ext(z1, z2):
                failures.append("section consistency")

    report(
        "criterion 4: property suite (6 properties, >=200 trials each)",
        not failures,
        f"failures: {sorted(set(failures))}" if failures else "all held",
    )


def test_criterion_5_smith_normal_form():
    rng = random.Random(107)
    problems = 0
    for _ in range(500):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], cols=n
        )
        D, U, V = smith_normal_form(A)
        diag = D.diagonal()
        nonzero = [d for d in diag if d]
        ok = (
            U @ A @ V == D
            and abs(U.det()) == 1
            and abs(V.det()) == 1
            and D.is_diagonal()
            and all(d >= 0 for d in diag)
            and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        )
        if m == n:
            det = A.det()
            if det:
                ok = ok and prod(diag) == abs(det)
        if not ok:
            problems += 1
    report("criterion 5: Smith normal form on 500 random matrices", problems == 0)


def test_criterion_6_structure_checks():
    checks = []
    genera = {}
    for case in builtin_cases():
        checks.append(freeness_check(case.phi, case.psi))
        chi, gs = surface_invariants(case)
        genera[case.id] = gs
        checks.append(chi == 4)
        # Every single-image mutation that copies a phi image into psi shares
        # a cyclic subgroup, so the freeness check must fail.
        for j in range(case.m):
            for i in range(case.n):
                mutated = list(case.psi.images)
                mutated[j] = case.phi.images[i]
                broken = GeneratingSystem(case.group, tuple(mutated), case.k)
                checks.append(not freeness_check(case.phi, broken))
    checks.append(genera == {1: (3, 5), 2: (5, 5), 3: (4, 4), 4: (6, 6)})
    report("criterion 6: freeness detection and Riemann-Hurwitz genera", all(checks))


def test_criterion_7_basis_independence():
    rng = random.Random(108)
    ok = True
    for case in builtin_cases():
        base = kernel_basis(case.phi, case.psi)
        size = len(base)
        for _ in range(50):
            while True:
                M = [[rng.randrange(case.k) for _ in range(size)] for _ in range(size)]
                if IntMatrix(M).det() % case.k:
                    break
            changed = [
                sum((M[i][j] * base[j] for j in range(1, size)), M[i][0] * base[0])
                for i in range(size)
            ]
            if h1_cocycle(case.phi, case.psi, basis=changed) != EXPECTED_H1[case.id]:
                ok = False
    report("criterion 7: 50 random kernel-basis changes per case", ok)


def test_criterion_8_round_trip():
    ok = True
    for case_id in ("1", "2", "3", "4"):
        export = subprocess.run(
            [sys.executable, "-m", "isoprod", "export", case_id, "--format", "json"],
            capture_output=True,
            check=True,
        )
        with tempfile.NamedTemporaryFile("wb", suffix=".json", delete=False) as fh:
            fh.write(export.stdout)
            path = fh.name
        try:
            from_file = subprocess.run(
                [sys.executable, "-m", "isoprod", "compute", path, "--json"],
                capture_output=True,
                check=True,
            )
            from_builtin = subprocess.run(
                [sys.executable, "-m", "isoprod", "compute", case_id, "--json"],
                capture_output=True,
                check=True,
            )
            if from_file.stdout != from_builtin.stdout:
                ok = False
        finally:
            os.unlink(path)
    report("criterion 8: export/parse/compute round trip is byte-identical", ok)

"""Correctness checks on `isoprod compute --json` answers.

The checks share no code with isoprod.  Besides the paper's table for the
catalog and agreement of the two methods where both run, every answer must
have the properties any correct H_1(S, Z) of a case G = (Z/k)^r, k prime,
has:

- b_1 = 0;
- every invariant factor divides k^2, and each divides the next;
- |H_1| = k^((n-1) + (m-1) - r) * k^(C(r,2) - rank_k<R_phi, R_psi>), where
  R_phi = (k(k-1)/2) * sum_{i<j<n} phi(a_i) ^ phi(a_j) lies in the exterior
  square (Z/k)^C(r,2) and the rank is taken mod k.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod


def rank_mod(rows, k: int) -> int:
    """Rank over Z/k, k prime, of a list of integer vectors."""
    mat = [[x % k for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        src = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        inv = pow(mat[rank][col], -1, k)
        pivot = [x * inv % k for x in mat[rank]]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [(x - f * y) % k for x, y in zip(mat[i], pivot)]
        rank += 1
    return rank


def wedge_relator(images, k: int) -> list[int]:
    """(k(k-1)/2) * sum_{i<j} images[i] ^ images[j] over the first len-1 images."""
    half = k * (k - 1) // 2
    r = len(images[0])
    total = [0] * comb(r, 2)
    for x, y in combinations(images[:-1], 2):
        for t, (p, q) in enumerate(combinations(range(r), 2)):
            total[t] += x[p] * y[q] - x[q] * y[p]
    return [half * c % k for c in total]


def expected_order(k: int, r: int, phi, psi) -> int:
    """|H_1(S, Z)| for G = (Z/k)^r from the closed formula above."""
    relator_rank = rank_mod([wedge_relator(phi, k), wedge_relator(psi, k)], k)
    return k ** ((len(phi) - 1) + (len(psi) - 1) - r + comb(r, 2) - relator_rank)


def check_answer(case, doc: dict, methods: tuple[str, ...], order: int) -> list[str]:
    """Problems with one parsed answer; empty when it passes every check.

    ``order`` is expected_order() of the case, computed once per case.
    """
    problems = []
    answers = doc.get("methods", {})
    if tuple(sorted(answers)) != tuple(sorted(methods)):
        return [f"{case.name}: methods {sorted(answers)}, expected {sorted(methods)}"]
    if doc.get("group_orders") != [case.k] * case.r:
        problems.append(f"{case.name}: group_orders {doc.get('group_orders')}")
    for method, answer in sorted(answers.items()):
        torsion = answer["torsion"]
        where = f"{case.name} ({method})"
        if answer["free_rank"] != 0:
            problems.append(f"{where}: b_1 = {answer['free_rank']}, expected 0")
        if any(d < 2 or (case.k ** 2) % d for d in torsion):
            problems.append(f"{where}: a factor of {torsion} does not divide k^2 = {case.k ** 2}")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            problems.append(f"{where}: {torsion} is not a divisibility chain")
        if prod(torsion) != order:
            problems.append(f"{where}: |H_1| = {prod(torsion)}, expected {order}")
        if case.paper_table is not None and tuple(torsion) != case.paper_table:
            problems.append(f"{where}: {torsion}, the paper's table has {list(case.paper_table)}")
    if len(answers) == 2 and answers["paper"] != answers["oracle"]:
        problems.append(f"{case.name}: methods disagree: {answers}")
    return problems

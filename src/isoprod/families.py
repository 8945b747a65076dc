"""The four families of product-quotient surfaces with abelian group.

The Bauer-Catanese classification of surfaces with p_g = q = 0 isogenous
to a higher product with abelian group action allows exactly four target
groups; each comes with fixed generator images for the two ramified covers.
This module stores that catalog, plus derived bookkeeping: genera of the
two curves (Riemann-Hurwitz), the topological Euler characteristic, and
the full graded integral homology of the quotient surface, which follows
from H_1 by duality and universal coefficients once chi = 4 and q = 0.
It runs neither H_1 method; ``isoprod.cli.compute`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FinAbGroup
from .intlattice import InvariantFactors
from .presentation import GeneratingSystem


@dataclass(frozen=True)
class FamilyCase:
    """One case: target group, branch order k, and the two generating systems.

    ``family_dim`` is the dimension of the family the surface moves in
    (descriptive metadata, never computed here); it is None for
    user-supplied cases.
    """

    id: int | None
    label: str
    group: FinAbGroup
    k: int
    phi: GeneratingSystem
    psi: GeneratingSystem
    family_dim: int | None = None

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def m(self) -> int:
        return self.psi.n


_BUILTIN_DATA: dict[int, tuple[tuple[int, ...], int, list, list, int]] = {
    # id: (group orders, k, phi image coefficients, psi image coefficients, family dim)
    1: (
        (2, 2, 2),
        2,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1)],
        [(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1)],
        5,
    ),
    2: (
        (2, 2, 2, 2),
        2,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
        [(0, 1, 1, 1), (1, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)],
        4,
    ),
    3: (
        (3, 3),
        3,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(1, 1), (1, -1), (-1, -1), (-1, 1)],
        2,
    ),
    4: (
        (5, 5),
        5,
        [(1, 0), (0, 1), (-1, -1)],
        [(1, 2), (3, 4), (1, 4)],
        0,
    ),
}


CASE_IDS: tuple[int, ...] = tuple(sorted(_BUILTIN_DATA))
CASE_ID_RANGE = f"{CASE_IDS[0]}..{CASE_IDS[-1]}"


def builtin_case(case_id: int) -> FamilyCase:
    """One of the catalog cases, by an id in CASE_IDS."""
    if case_id not in _BUILTIN_DATA:
        raise ValueError(f"unknown case id {case_id!r}; the catalog has cases {CASE_ID_RANGE}")
    orders, k, phi_coeffs, psi_coeffs, dim = _BUILTIN_DATA[case_id]
    group = FinAbGroup(orders)
    return FamilyCase(
        id=case_id,
        label=f"case {case_id} (G = {group})",
        group=group,
        k=k,
        phi=GeneratingSystem(group, tuple(group.element(c) for c in phi_coeffs), k),
        psi=GeneratingSystem(group, tuple(group.element(c) for c in psi_coeffs), k),
        family_dim=dim,
    )


def builtin_cases() -> tuple[FamilyCase, ...]:
    return tuple(builtin_case(i) for i in CASE_IDS)


def genus(group_order: int, branch_count: int, k: int) -> int:
    """Genus of a |G|-sheeted cover of the sphere branched over the given points.

    All branch points have local order k, so Riemann-Hurwitz gives
    2 - 2g = |G| (2 - n (1 - 1/k)).  Signatures that make g non-integral
    or g < 2 are rejected.
    """
    numerator = group_order * (2 * k - branch_count * (k - 1))
    if numerator % k:
        raise ValueError(
            f"malformed signature: |G|={group_order}, n={branch_count}, k={k} "
            "gives a non-integral Euler characteristic"
        )
    chi = numerator // k
    if chi % 2:
        raise ValueError("malformed signature: odd Euler characteristic")
    g = (2 - chi) // 2
    if g < 2:
        raise ValueError(f"genus {g} < 2: the cover is not of general type")
    return g


def surface_invariants(case: FamilyCase) -> tuple[int, tuple[int, int]]:
    """(chi_top, (g_1, g_2)) of the quotient surface.

    For a free action chi(S) = chi(C_1) chi(C_2) / |G|; every catalog case
    gives chi_top = 4, the value forced by p_g = q = 0.
    """
    order = case.group.order()
    g1 = genus(order, case.n, case.k)
    g2 = genus(order, case.m, case.k)
    product = (2 - 2 * g1) * (2 - 2 * g2)
    if product % order:
        raise ValueError("curve Euler characteristics are not divisible by |G|")
    return product // order, (g1, g2)


def full_homology(h1: InvariantFactors) -> tuple[InvariantFactors, ...]:
    """Graded integral homology H_0..H_4 of the surface from its H_1.

    q = 0 forces H_1 finite; duality and universal coefficients then give
    H_0 = Z, H_2 = Z^2 + (torsion of H_1), H_3 = 0, H_4 = Z.
    """
    if not h1.is_finite:
        raise ValueError("H_1 must be finite (q = 0 forces b_1 = 0)")
    return (
        InvariantFactors((), 1),
        h1,
        h1.with_free_rank(2),
        InvariantFactors(),
        InvariantFactors((), 1),
    )

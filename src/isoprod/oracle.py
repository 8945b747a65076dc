"""Brute-force first homology of the kernel via Reidemeister-Schreier.

The kernel K of the combined map F -> G has index |G|, and since the
quotient is abelian and the map explicit, the cosets are literally the
elements of G: every generator acts by translation.  A breadth-first
Schreier transversal turns each pair (coset, generator) outside the
spanning tree into a kernel generator; rewriting every conjugate t r t^-1
of every relator of F and abelianizing on the fly gives a relation matrix
whose cokernel is K^ab = H_1.

Not every conjugate is read.  The commutators are only [a_i, b_j] with
i < n and j < m (``ProductPresentation.commutators()``): the long relators
make a_n and b_m words in the other generators, so the commutators left out
lie in the normal closure of those kept.  The long relators are read from
every coset.  Of the other readings, those that the 3-cells of the product
complex show to be redundant are left out.  Write K(c) for the row of
[a_i, b_j] read from coset c, P_x(c) for that of x^k, alpha = phi(a_i) and
beta = -psi(b_j); then

    sum_{t<k} K(c + t alpha) = P_a(c) - P_a(c + beta),
    sum_{t<k} K(c + t beta)  = P_b(c + alpha) - P_b(c)

hold exactly, as integer rows.  One greedy pass matches these relations to
commutator readings: it drops a reading that a relation holds once and no
relation used before holds, and blocks every other reading of that
relation.  Each dropped reading is then a sum of rows kept and readings
dropped earlier, so it lies in the lattice of the rows kept (the
acyclic-matching rule of algebraic discrete Morse theory).  A matched
letter x reads x^k once per cycle of x, along which the readings are equal.
Where an estimate of the nonzeros says matching would add more than it
removes, as for large k on few cosets (checked by timing on the (Z/11)^2
ladder rung), and for a_n and b_m, x^k is read from the least coset of
each orbit of its own and the other factor's letters, since for such a
letter y, y x^k y^-1 = ([y, x] x)^k, and [y, x] lies in the normal closure
of the long relators and the commutators.  For a valid pair that is one
coset.
(Z/3)^4 with n = m = 6 has 1334 rows instead of 3159, and K^ab is the same.

The conjugate t r t^-1 is never built: t follows tree edges, which rewrite
to nothing, so each row comes from reading r alone starting at coset t.
Rows are kept sparse, one ``{column: coefficient}`` dict each, from the
rewriting through the unit-pivot elimination: on the larger groups the
matrix is well over 99% zeros, and a dense copy would dominate both the
time and the memory of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .abelian import AbElement, FinAbGroup
from .intlattice import InvariantFactors, SparseIntMatrix, abelian_invariants
from .presentation import (
    FIRST,
    SECOND,
    DifferenceMap,
    GeneratingSystem,
    Letter,
    ProductPresentation,
    Word,
    require_valid,
)


@dataclass(frozen=True)
class CosetTable:
    """Cosets of the kernel, indexed in BFS discovery order (0 = identity).

    ``letters`` fixes the generator order used for the BFS; ``moves[p][c]``
    is the coset reached from coset c by the positive letter at position p,
    and ``inverse_moves[p][c]`` the coset reached by its inverse.
    ``positions`` maps (factor, index) of a generator to its position.
    """

    group: FinAbGroup
    letters: tuple[Letter, ...]
    cosets: tuple[AbElement, ...]
    moves: tuple[tuple[int, ...], ...]
    positions: dict[tuple[str, int], int] = field(init=False, repr=False, compare=False)
    inverse_moves: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {(l.factor, l.index): p for p, l in enumerate(self.letters)}
        inverse_moves = []
        for forward in self.moves:
            back = [0] * len(forward)
            for c, target in enumerate(forward):
                back[target] = c
            inverse_moves.append(tuple(back))
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "inverse_moves", tuple(inverse_moves))

    @property
    def size(self) -> int:
        return len(self.cosets)


def coset_table(
    pres: ProductPresentation,
    hom: DifferenceMap,
    gen_order: Sequence[int] | None = None,
) -> CosetTable:
    """Enumerate the |G| cosets by BFS over the generator images.

    ``gen_order`` optionally permutes the generator positions used for the
    BFS (the default order is a_1..a_n, b_1..b_m).  Rejects homomorphisms
    that are not surjective.
    """
    letters = pres.generators()
    if gen_order is not None:
        if sorted(gen_order) != list(range(len(letters))):
            raise ValueError("gen_order must be a permutation of the generator positions")
        letters = tuple(letters[p] for p in gen_order)
    images = [hom.letter_image(l).coeffs for l in letters]
    group = hom.group
    orders = group.orders
    zero = (0,) * group.rank
    index: dict[tuple[int, ...], int] = {zero: 0}
    cosets: list[tuple[int, ...]] = [zero]
    moves: list[list[int]] = [[] for _ in images]
    for current in cosets:  # grows as the BFS finds cosets
        for img, move in zip(images, moves):
            target = tuple([(x + y) % k for x, y, k in zip(current, img, orders)])
            c = index.get(target)
            if c is None:
                c = index[target] = len(cosets)
                cosets.append(target)
            move.append(c)
    if len(cosets) != group.order():
        raise ValueError(
            f"homomorphism is not surjective: reaches {len(cosets)} of {group.order()} elements"
        )
    return CosetTable(
        group,
        letters,
        tuple(AbElement(group, c) for c in cosets),
        tuple(map(tuple, moves)),
    )


@dataclass(frozen=True)
class SchreierData:
    """Schreier transversal and the numbering of the kernel generators.

    ``transversal[c]`` is the prefix-closed representative word of coset c;
    ``tree`` holds the (coset, position) edges used to reach new cosets,
    whose kernel generators are trivial.  The remaining pairs get matrix
    columns in (coset, position) order.
    """

    table: CosetTable
    transversal: tuple[Word, ...]
    tree: frozenset[tuple[int, int]]
    columns: dict[tuple[int, int], int]

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def generator_word(self, coset: int, position: int) -> Word:
        """The kernel generator t_c * x * t_{c.x}^-1 as a word in F."""
        letter = self.table.letters[position]
        target = self.table.moves[position][coset]
        return self.transversal[coset] * letter * self.transversal[target].inverse()


def schreier_transversal(table: CosetTable) -> SchreierData:
    """BFS transversal over the table's generator order; prefix-closed."""
    transversal: list[Word | None] = [None] * table.size
    transversal[0] = Word()
    tree: set[tuple[int, int]] = set()
    for c in range(table.size):
        if transversal[c] is None:
            raise ValueError("coset table is not transitive from coset 0")
        for p in range(len(table.letters)):
            target = table.moves[p][c]
            if transversal[target] is None:
                transversal[target] = transversal[c] * table.letters[p]
                tree.add((c, p))
    columns = {}
    for c in range(table.size):
        for p in range(len(table.letters)):
            if (c, p) not in tree:
                columns[(c, p)] = len(columns)
    return SchreierData(table, tuple(transversal), frozenset(tree), columns)


def rewrite_trace(
    word: Word, data: SchreierData, start: int = 0
) -> list[tuple[tuple[int, int], int]]:
    """Ordered kernel-generator emissions of a word read from the given coset.

    Reading a positive letter at coset c emits ((c, position), +1) and moves
    forward; a negative letter moves back first and emits with sign -1.
    Tree-edge generators are trivial and skipped.
    """
    table = data.table
    positions, moves, inverse_moves = table.positions, table.moves, table.inverse_moves
    tree = data.tree
    out = []
    c = start
    for letter in word:
        p = positions[letter.factor, letter.index]
        if letter.sign == 1:
            key = (c, p)
            c = moves[p][c]
            sign = 1
        else:
            c = inverse_moves[p][c]
            key = (c, p)
            sign = -1
        if key not in tree:
            out.append((key, sign))
    return out


def rewrite_relator(relator: Word, coset: int, data: SchreierData) -> dict[int, int]:
    """Abelianized rewriting of t_c * relator * t_c^-1, for c = ``coset``.

    The transversal word t_c follows tree edges only, and tree edges emit
    nothing, so reading the relator from coset c gives the same row as
    reading the whole conjugate from coset 0.  Returns the exponent sums
    over the nontrivial kernel generators as ``{column: coefficient}``,
    with zero sums dropped.  The emissions are those of ``rewrite_trace``,
    summed as the relator is read.
    """
    table = data.table
    positions, moves, inverse_moves = table.positions, table.moves, table.inverse_moves
    columns = data.columns
    row: dict[int, int] = {}
    c = coset
    for letter in relator:
        p = positions[letter.factor, letter.index]
        if letter.sign == 1:
            col = columns.get((c, p))
            c = moves[p][c]
            if col is not None:
                row[col] = row.get(col, 0) + 1
        else:
            c = inverse_moves[p][c]
            col = columns.get((c, p))
            if col is not None:
                row[col] = row.get(col, 0) - 1
    if 0 in row.values():
        for col in [col for col, val in row.items() if not val]:
            del row[col]
    return row


Orbits = tuple[list[int], list[list[int]]]


def _orbits(table: CosetTable, positions: Sequence[int]) -> Orbits:
    """Orbits of the letters at ``positions``: each coset's index, each orbit least coset first."""
    moves = [table.moves[p] for p in positions]
    index = [-1] * table.size
    orbits: list[list[int]] = []
    for start in range(table.size):
        if index[start] >= 0:
            continue
        index[start] = len(orbits)
        orbit = [start]
        for c in orbit:  # grows as the walk finds cosets
            for move in moves:
                target = move[c]
                if index[target] < 0:
                    index[target] = len(orbits)
                    orbit.append(target)
        orbits.append(orbit)
    return index, orbits


def _match_commutator(alpha: Orbits | None, beta: Orbits | None) -> list[tuple[int, str]]:
    """The readings of [a_i, b_j] that 3-cell relations drop, in matching order.

    ``alpha`` and ``beta`` are the ``_orbits`` (cycles) of a_i and b_j, or
    None for a letter whose relations are not used.  Each pair (c, factor)
    says that the reading from coset c is dropped by the relation of the
    cycle through c of that factor's letter, which holds it once; every
    other commutator reading in that relation is one kept or one dropped
    earlier in the list.
    With both letters, each <alpha, beta>-coset, least coset c0, first uses
    the relation of each beta-cycle but the one through c0, dropping its
    reading on the alpha-cycle through c0; then the relation of each
    alpha-cycle, dropping its reading on the beta-cycle through c0, which
    no relation used so far holds.
    """
    if alpha is None or beta is None:
        one, factor = (alpha, FIRST) if beta is None else (beta, SECOND)
        return [] if one is None else [(cycle[0], factor) for cycle in one[1]]
    a_index, a_cycles = alpha
    b_index, b_cycles = beta
    a_used = [False] * len(a_cycles)
    b_used = [False] * len(b_cycles)
    matched = []
    for c0 in range(len(a_index)):
        if b_used[b_index[c0]]:
            continue  # c0 lies in an <alpha, beta>-coset already matched
        b_used[b_index[c0]] = True  # the one beta-cycle relation left unused
        for x in a_cycles[a_index[c0]]:
            if not b_used[b_index[x]]:
                b_used[b_index[x]] = True
                matched.append((x, SECOND))
        for y in b_cycles[b_index[c0]]:
            if not a_used[a_index[y]]:
                a_used[a_index[y]] = True
                matched.append((y, FIRST))
    return matched


def _matching_pays(order: int, k_a: int, k_b: int, n: int, m: int) -> bool:
    """Whether to match the cycle relations of a_1..a_{n-1} and b_1..b_{m-1}.

    An estimate, not a count: for a free action, matching reads each power
    relator |G|/k - 1 more times, about k entries each, and drops from each
    commutator 2|G|/k - |G|/k^2 readings, taken as 4 entries each.  It pays
    when it removes more than it adds.  Timing ``kernel_h1`` on the
    benchmark's ladder rungs checks it on both sides: on (Z/11)^2,
    n = m = 3, where it says no, forcing matching on took a third longer;
    on (Z/7)^2, n = m = 3, the rung nearest the threshold where it says
    yes, the two times were within noise; on the larger rungs matching
    took a quarter to a half less.
    """
    added = (n - 1) * (order - k_a) + (m - 1) * (order - k_b)
    drops = order * (1 / k_a + 1 / k_b - 1 / (k_a * k_b))
    return added < 4 * (n - 1) * (m - 1) * drops


def _relator_cut(
    pres: ProductPresentation, table: CosetTable
) -> tuple[list[tuple[Word, list[int]]], list[list[tuple[int, str]]]]:
    """The power relator readings the oracle keeps and the commutator readings it drops.

    Returns ``(powers, matched)``: ``powers`` pairs each power relator x^k,
    a_1..a_n then b_1..b_m, with the cosets it is read from; ``matched``
    holds ``_match_commutator`` for each of ``pres.commutators()``.  A
    letter's relations are matched only where its cycles have length k,
    so that each commutator reading in them has coefficient 1.
    """
    match = _matching_pays(table.size, pres.first.k, pres.second.k, pres.first.n, pres.second.n)
    cycles: dict[tuple[str, int], Orbits] = {}
    powers = []
    for factor, orbifold in ((FIRST, pres.first), (SECOND, pres.second)):
        others = [p for p, l in enumerate(table.letters) if l.factor != factor]
        for i, power in enumerate(orbifold.relators(factor)[:-1], start=1):
            p = table.positions[factor, i]
            own = _orbits(table, [p])
            if match and i < orbifold.n and len(own[1][0]) == orbifold.k:
                cycles[factor, i] = own
            else:
                own = _orbits(table, [p] + others)
            powers.append((power, [orbit[0] for orbit in own[1]]))
    matched = [
        _match_commutator(cycles.get((FIRST, i)), cycles.get((SECOND, j)))
        for i in range(1, pres.first.n)
        for j in range(1, pres.second.n)
    ]
    return powers, matched


def relation_matrix(
    phi: GeneratingSystem,
    psi: GeneratingSystem,
    gen_order: Sequence[int] | None = None,
) -> SparseIntMatrix:
    """Rows of the relators of F read from cosets; columns the nontrivial kernel generators.

    The long relators are read from every coset, and so is each commutator
    [a_i, b_j] of ``ProductPresentation.commutators()`` except at the
    cosets its 3-cell relations match.  With alpha = phi(a_i),
    beta = -psi(b_j), K(c) the row of [a_i, b_j] read from coset c and
    P_x(c) that of x^k, the exact integer identities

        sum_{t<k} K(c + t alpha) = P_a(c) - P_a(c + beta),
        sum_{t<k} K(c + t beta)  = P_b(c + alpha) - P_b(c)

    hold (the boundary of a boundary is zero).  ``_match_commutator`` uses
    them in a fixed order: it drops a reading that a relation holds once
    and no relation used before holds, and from then on blocks every other
    reading of that relation.  So every reading dropped is a sum of rows
    kept and readings dropped earlier, and lies in the lattice of the rows
    kept.  A power relator x^k is read from the least coset of each orbit
    of its own letter, whose readings along a cycle are equal, and, where
    x's relations are not matched (a_n, b_m, or where ``_matching_pays``
    estimates that matching adds nonzeros), of the other
    factor's letters too: for such a letter y, y x^k y^-1 = ([y, x] x)^k,
    and [y, x] lies in the normal closure of the long relators and the
    commutators, all of whose readings are in the lattice.
    """
    pres = ProductPresentation(phi.presentation(), psi.presentation())
    table = coset_table(pres, DifferenceMap(phi, psi), gen_order)
    data = schreier_transversal(table)
    powers, matched = _relator_cut(pres, table)
    rows = [rewrite_relator(r, c, data) for r, cosets in powers for c in cosets]
    every = (pres.first.relators(FIRST)[-1], pres.second.relators(SECOND)[-1])
    every += pres.commutators()
    dropped = [set()] * 2 + [{c for c, _ in pairs} for pairs in matched]
    rows += [
        rewrite_relator(r, c, data)
        for c in range(table.size)
        for r, skip in zip(every, dropped)
        if c not in skip
    ]
    return SparseIntMatrix(rows, cols=data.ncols)


def kernel_h1(
    phi: GeneratingSystem,
    psi: GeneratingSystem,
    gen_order: Sequence[int] | None = None,
) -> InvariantFactors:
    """Invariant factors of K^ab, computed purely by rewriting.

    Validation is enforced for nontrivial target groups.  A trivial target
    makes the kernel all of F (so the result is (Z/k)^(n+m-2)); image-order
    validation is meaningless there and skipped.
    """
    if not phi.group.is_trivial():
        require_valid(phi)
        require_valid(psi)
    return abelian_invariants(relation_matrix(phi, psi, gen_order))

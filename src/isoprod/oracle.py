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
lie in the normal closure of those kept.  The long relators and the kept
commutators are read from every coset, but a factor power relator x^k only
from the least coset of each orbit of the other factor's letters.  For
such a letter y,

    y x^k y^-1 = ([y, x] x)^k,

so the row of x^k from coset c.y is the row from c plus rows of conjugates
of [y, x], which is a kept commutator or lies in the normal closure of the
long relators and kept commutators (never of a power relator, so nothing
is circular).  For a valid pair the other factor's images generate G and
there is one orbit: (Z/3)^4 with n = m = 6 has 2199 rows instead of 3159,
and K^ab is the same.

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
    with zero sums dropped.
    """
    columns = data.columns
    row: dict[int, int] = {}
    for key, sign in rewrite_trace(relator, data, start=coset):
        col = columns[key]
        row[col] = row.get(col, 0) + sign
    return {col: val for col, val in row.items() if val}


def _orbit_representatives(table: CosetTable, factor: str) -> list[int]:
    """The least coset of each orbit of the letters of ``factor`` on the cosets."""
    moves = [table.moves[p] for p, l in enumerate(table.letters) if l.factor == factor]
    seen = [False] * table.size
    reps = []
    for start in range(table.size):
        if seen[start]:
            continue
        reps.append(start)
        seen[start] = True
        stack = [start]
        while stack:
            c = stack.pop()
            for move in moves:
                target = move[c]
                if not seen[target]:
                    seen[target] = True
                    stack.append(target)
    return reps


def relation_matrix(
    phi: GeneratingSystem,
    psi: GeneratingSystem,
    gen_order: Sequence[int] | None = None,
) -> SparseIntMatrix:
    """Rows of the relators of F read from cosets; columns the nontrivial kernel generators.

    A factor power relator x^k is read from the least coset of each orbit of
    the other factor's letters (one coset for a valid pair); the long
    relators and the commutators of ``ProductPresentation.commutators()`` are
    read from every coset.  For a letter y of the other factor,
    y x^k y^-1 = ([y, x] x)^k, so the row of x^k from coset c.y is the row
    from c plus rows of conjugates of [y, x], and [y, x] is a kept
    commutator or lies in the normal closure of the long relators and kept
    commutators: the rows left out lie in the lattice of those kept.
    """
    pres = ProductPresentation(phi.presentation(), psi.presentation())
    table = coset_table(pres, DifferenceMap(phi, psi), gen_order)
    data = schreier_transversal(table)
    rows = []
    every = []
    for factor, other, orbifold in ((FIRST, SECOND, pres.first), (SECOND, FIRST, pres.second)):
        *powers, long = orbifold.relators(factor)
        reps = _orbit_representatives(table, other)
        rows += [rewrite_relator(r, c, data) for r in powers for c in reps]
        every.append(long)
    every += pres.commutators()
    rows += [rewrite_relator(r, c, data) for c in range(table.size) for r in every]
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

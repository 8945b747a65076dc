"""First homology of the kernel via the exterior square and a bilinear 2-cocycle.

Write F for the product of the two orbifold groups, G for the abelian
target of the combined map (p, q) -> phi(p) - psi(q), and K for its
kernel.  K^ab sits in a central extension

    0 -> H -> K^ab -> ker(F^ab -> G) -> 0

where H is the quotient of the exterior square of G by the images of the
two long relators: the element (k(k-1)/2) * sum_{i<j} phi(a_i) ^ phi(a_j)
over the first n-1 generators (and the psi analogue) dies because
(a_1 ... a_{n-1})^k collapses to that product of commutators modulo
[F, [F, F]].  The class in H of a commutator word is computable by
counting inversions (commutator_class below), and evaluating the standard
normal-form section through that map makes the extension's 2-cocycle an
explicit bilinear form on F^ab (ExtensionCocycle.__call__).

Restricting the cocycle to ker(F^ab -> G) presents K^ab by generators and
relations: one generator per exterior-square basis pair, one generator f_i
per kernel-basis vector c_i, and relations

    k * (each pair generator) = 0,   R_phi = R_psi = 0,
    k * f_i = -(k(k-1)/2) <c_i, c_i>.

Smith normal form of that matrix yields the invariant factors; kernel_h1
in the oracle module recomputes them by brute force for cross-checking.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import AbElement, FinAbGroup, Wedge2, pairwise_wedge_sum
from .intlattice import (
    IntMatrix,
    InvariantFactors,
    _is_prime,
    _rref_mod_p,
    abelian_invariants,
    kernel_basis_mod_p,
)
from .presentation import (
    FIRST,
    SECOND,
    GeneratingSystem,
    Letter,
    Word,
    require_valid,
)


def cocycle_obstruction(phi: GeneratingSystem, psi: GeneratingSystem) -> str | None:
    """Why the cocycle method does not apply to this pair, or None if it does."""
    if phi.group != psi.group:
        return "generating systems target different groups"
    if phi.k != psi.k:
        return f"branch orders differ: {phi.k} vs {psi.k}"
    k = phi.k
    if any(o != k for o in phi.group.orders):
        return (
            f"the cocycle method needs all cyclic orders equal to k={k}, "
            f"got {phi.group.orders}"
        )
    if not _is_prime(k):
        return f"the cocycle method needs prime k, got {k}"
    return None


def _common_prime_order(phi: GeneratingSystem, psi: GeneratingSystem) -> int:
    reason = cocycle_obstruction(phi, psi)
    if reason is not None:
        raise ValueError(reason)
    return phi.k


def wedge_relator(images: Sequence[AbElement], k: int) -> Wedge2:
    """(k(k-1)/2) * sum_{i<j} images[i] ^ images[j].

    Callers pass the first n-1 generator images; the result is the relator
    that the commutator quotient kills.  For odd k the multiplier is
    divisible by k, so the relator vanishes.
    """
    return pairwise_wedge_sum(images, k * (k - 1) // 2)


class WedgeQuotient:
    """Quotient of the exterior square of G by the span of the given relators.

    Elements are represented by canonical exterior-square coefficient
    vectors: reduce() subtracts the echelonized relator span.  This group
    is isomorphic to the commutator subgroup of F modulo [K, K].
    """

    def __init__(self, group: FinAbGroup, k: int, relators: Sequence[Wedge2]):
        if any(o != k for o in group.orders):
            raise ValueError("quotient requires homogeneous cyclic orders")
        if not _is_prime(k):
            raise ValueError(f"quotient requires prime k, got {k}")
        for r in relators:
            if r.group != group:
                raise ValueError("relator from a different group")
        self.group = group
        self.k = k
        self.relators = tuple(relators)
        rows = [list(r.coeffs) for r in self.relators if not r.is_zero()]
        if rows:
            self._echelon, self._pivots = _rref_mod_p(rows, k)
        else:
            self._echelon, self._pivots = [], []

    @property
    def num_pairs(self) -> int:
        return len(self.group.pair_indices())

    @property
    def relator_rank(self) -> int:
        return len(self._pivots)

    @property
    def invariants(self) -> InvariantFactors:
        return InvariantFactors((self.k,) * (self.num_pairs - self.relator_rank))

    def order(self) -> int:
        return self.k ** (self.num_pairs - self.relator_rank)

    def reduce(self, w: Wedge2) -> Wedge2:
        """Canonical representative of w modulo the relator span."""
        if w.group != self.group:
            raise ValueError("element from a different group")
        return self._reduce_coeffs(w.coeffs)

    def _reduce_coeffs(self, coeffs: Sequence[int]) -> Wedge2:
        """reduce() of the element with these (not necessarily reduced) coefficients."""
        v = list(coeffs)
        for row, c in zip(self._echelon, self._pivots):
            f = v[c] % self.k
            if f:
                v = [(x - f * y) % self.k for x, y in zip(v, row)]
        return Wedge2(self.group, v)

    def __repr__(self) -> str:
        return f"<WedgeQuotient {self.invariants} of rank-{self.group.rank} target>"


def commutator_quotient(phi: GeneratingSystem, psi: GeneratingSystem) -> WedgeQuotient:
    """The quotient H of the exterior square by the two long-relator images."""
    k = _common_prime_order(phi, psi)
    return WedgeQuotient(
        phi.group,
        k,
        (wedge_relator(phi.images[:-1], k), wedge_relator(psi.images[:-1], k)),
    )


class ExtensionCocycle:
    """Normalized bilinear 2-cocycle of the central extension of F^ab.

    F^ab is the free Z/k-module on a_1..a_{n-1}, b_1..b_{m-1} (the last
    generator of each factor is eliminated by the long relator); it is
    modelled as a FinAbGroup of rank (n-1)+(m-1), a-coordinates first.
    Calling the object on two such elements evaluates the cocycle; values
    live in the commutator quotient and are returned canonically reduced.
    """

    def __init__(self, phi: GeneratingSystem, psi: GeneratingSystem):
        self.k = _common_prime_order(phi, psi)
        self.phi = phi
        self.psi = psi
        self.quotient = commutator_quotient(phi, psi)
        self.n = phi.n
        self.m = psi.n
        self.fab_group = FinAbGroup((self.k,) * (self.n - 1 + self.m - 1))
        # Pairwise wedges of generator images, as plain coefficient tuples.
        self._wphi = self._wedge_table(phi)
        self._wpsi = self._wedge_table(psi)

    @staticmethod
    def _wedge_table(system: GeneratingSystem) -> list[list[tuple[int, ...]]]:
        """Coefficients of x ^ y for x, y among the first n-1 images."""
        coeffs = [img.coeffs for img in system.images[:-1]]
        return [[system.group.wedge_coefficients(x, y) for y in coeffs] for x in coeffs]

    def split(self, z: AbElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(a-coordinates, b-coordinates) of an element of F^ab."""
        if z.group != self.fab_group:
            raise ValueError("element does not live in F^ab")
        return z.coeffs[: self.n - 1], z.coeffs[self.n - 1:]

    def target_image(self, z: AbElement) -> AbElement:
        """Image of z under the combined map F^ab -> G."""
        r, rp = self.split(z)
        total = self.phi.group.zero()
        for c, img in zip(r, self.phi.images):
            total = total + c * img
        for c, img in zip(rp, self.psi.images):
            total = total - c * img
        return total

    def section_words(self, z: AbElement) -> tuple[Word, Word]:
        """Normal-form section a_1^{r_1}...a_{n-1}^{r_{n-1}}, b_1^{r'_1}...b_{m-1}^{r'_{m-1}}."""
        r, rp = self.split(z)
        u = Word(tuple(
            Letter(FIRST, i + 1) for i, c in enumerate(r) for _ in range(c)
        ))
        v = Word(tuple(
            Letter(SECOND, j + 1) for j, c in enumerate(rp) for _ in range(c)
        ))
        return u, v

    def _letter_seq(self, word: Word, factor: str, count: int) -> list[tuple[int, int]]:
        seq = []
        for letter in word:
            if letter.factor != factor:
                raise ValueError(f"letter {letter} not in the {factor}-alphabet")
            if letter.index >= count + 1:
                raise ValueError(
                    f"letter {letter} out of range: the last generator is eliminated"
                )
            seq.append((letter.index - 1, letter.sign))
        return seq

    def commutator_class(self, u: Word, v: Word) -> Wedge2:
        """Class in the commutator quotient of the commutator-subgroup element (u, v).

        u is a word in a_1..a_{n-1}, v in b_1..b_{m-1}, each with all
        generator degrees divisible by k.  The value counts inversions:
        pairs of positions r < s whose generator indices strictly decrease
        contribute the wedge of the letter images (phi-part positively,
        psi-part negatively).
        """
        seq_u = self._letter_seq(u, FIRST, self.n - 1)
        seq_v = self._letter_seq(v, SECOND, self.m - 1)
        for i in range(self.n - 1):
            d = u.degree(FIRST, i + 1)
            if d % self.k:
                raise ValueError(
                    f"degree of a{i + 1} in u is {d}, not divisible by k={self.k}"
                )
        for j in range(self.m - 1):
            d = v.degree(SECOND, j + 1)
            if d % self.k:
                raise ValueError(
                    f"degree of b{j + 1} in v is {d}, not divisible by k={self.k}"
                )
        acc = [0] * len(self.phi.group.pair_indices())
        for table, seq, orientation in ((self._wphi, seq_u, 1), (self._wpsi, seq_v, -1)):
            for r in range(len(seq)):
                ir, sr = seq[r]
                for s in range(r + 1, len(seq)):
                    i_s, ss = seq[s]
                    if ir > i_s:
                        coef = orientation * sr * ss
                        for t, w in enumerate(table[ir][i_s]):
                            acc[t] += coef * w
        return self.quotient._reduce_coeffs(acc)

    def __call__(self, z1: AbElement, z2: AbElement) -> Wedge2:
        """Cocycle value <z1, z2>, a bilinear form with values in the quotient.

        With z1 = sum r_i a_i + sum r'_i b_i and z2 = sum s_i a_i + sum s'_i b_i
        (coefficients reduced into [0, k)), the value is
        - sum_{i<j} r_j s_i phi(a_i)^phi(a_j) + sum_{i<j} r'_j s'_i psi(b_i)^psi(b_j).
        """
        r, rp = self.split(z1)
        s, sp = self.split(z2)
        acc = [0] * len(self.phi.group.pair_indices())
        for table, left, right, orientation in (
            (self._wphi, r, s, -1),
            (self._wpsi, rp, sp, 1),
        ):
            for i in range(len(left)):
                for j in range(i + 1, len(left)):
                    coef = orientation * left[j] * right[i]
                    if coef:
                        for t, w in enumerate(table[i][j]):
                            acc[t] += coef * w
        return self.quotient._reduce_coeffs(acc)


def kernel_basis(phi: GeneratingSystem, psi: GeneratingSystem) -> list[AbElement]:
    """Basis over Z/k of ker(F^ab -> G), as elements of the F^ab group.

    The map sends the class of a_i to phi(a_i) and of b_j to -psi(b_j);
    for a valid case it is surjective, so the basis has
    (n-1) + (m-1) - rank(G) vectors.
    """
    k = _common_prime_order(phi, psi)
    require_valid(phi)
    require_valid(psi)
    cols = [img.coeffs for img in phi.images[:-1]] + [
        tuple(-c for c in img.coeffs) for img in psi.images[:-1]
    ]
    matrix = IntMatrix(
        [[col[r] for col in cols] for r in range(phi.group.rank)],
        cols=len(cols),
    )
    fab = FinAbGroup((k,) * len(cols))
    return [fab.element(vec) for vec in kernel_basis_mod_p(matrix, k)]


def _check_basis(ext: ExtensionCocycle, basis: Sequence[AbElement]) -> None:
    expected = (ext.n - 1) + (ext.m - 1) - ext.phi.group.rank
    if len(basis) != expected:
        raise ValueError(f"kernel basis must have {expected} vectors, got {len(basis)}")
    for z in basis:
        if z.group != ext.fab_group:
            raise ValueError("basis vector does not live in F^ab")
        if not ext.target_image(z).is_zero():
            raise ValueError(f"basis vector {z} is not in the kernel")
    rows = [list(z.coeffs) for z in basis]
    if rows:
        _, pivots = _rref_mod_p(rows, ext.k)
        if len(pivots) != len(basis):
            raise ValueError("kernel basis vectors are not independent")


def h1_cocycle(
    phi: GeneratingSystem,
    psi: GeneratingSystem,
    basis: Sequence[AbElement] | None = None,
) -> InvariantFactors:
    """Invariant factors of K^ab by the exterior-square / cocycle method.

    ``basis`` optionally replaces the computed kernel basis; any basis of
    the kernel gives the same invariant factors.
    """
    require_valid(phi)
    require_valid(psi)
    k = _common_prime_order(phi, psi)
    ext = ExtensionCocycle(phi, psi)
    if basis is None:
        basis = kernel_basis(phi, psi)
    else:
        basis = list(basis)
        _check_basis(ext, basis)
    num_pairs = ext.quotient.num_pairs
    half = k * (k - 1) // 2
    rows: list[list[int]] = []
    for t in range(num_pairs):
        row = [0] * (num_pairs + len(basis))
        row[t] = k
        rows.append(row)
    for relator in ext.quotient.relators:
        rows.append(list(relator.coeffs) + [0] * len(basis))
    for i, c in enumerate(basis):
        # k * f_i + (k(k-1)/2) <c_i, c_i> = 0
        row = [half * w % k for w in ext(c, c).coeffs] + [0] * len(basis)
        row[num_pairs + i] = k
        rows.append(row)
    return abelian_invariants(IntMatrix(rows, cols=num_pairs + len(basis)))

"""Finite abelian groups, their elements, and the exterior square.

A group is a fixed product of cyclic factors Z/k_1 x ... x Z/k_s with
distinguished generators e_1, ..., e_s.  Elements are coefficient vectors
reduced componentwise.  The exterior square carries the basis
{e_i ^ e_j : i < j} in lexicographic order, with the (i, j) coefficient
living modulo gcd(k_i, k_j).
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence


class FinAbGroup:
    """Product of cyclic groups of the given orders (each >= 2).

    The empty product is the trivial group.

    >>> G = FinAbGroup((2, 2, 2))
    >>> G.order(), G.rank
    (8, 3)
    """

    __slots__ = ("orders",)

    def __init__(self, orders: Iterable[int] = ()):
        orders = tuple(int(k) for k in orders)
        if any(k < 2 for k in orders):
            raise ValueError(f"cyclic orders must all be >= 2, got {orders}")
        self.orders = orders

    @property
    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return prod(self.orders)

    def is_trivial(self) -> bool:
        return not self.orders

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * self.rank)

    def element(self, coeffs: Iterable[int]) -> "AbElement":
        return AbElement(self, coeffs)

    def basis(self) -> tuple["AbElement", ...]:
        return tuple(
            AbElement(self, tuple(int(i == j) for j in range(self.rank)))
            for i in range(self.rank)
        )

    def elements(self) -> Iterator["AbElement"]:
        for coeffs in product(*(range(k) for k in self.orders)):
            yield AbElement(self, coeffs)

    def pair_indices(self) -> tuple[tuple[int, int], ...]:
        """Basis index pairs (i, j), i < j, of the exterior square."""
        return tuple(combinations(range(self.rank), 2))

    def pair_orders(self) -> tuple[int, ...]:
        return tuple(gcd(self.orders[i], self.orders[j]) for i, j in self.pair_indices())

    def wedge_zero(self) -> "Wedge2":
        return Wedge2(self, (0,) * len(self.pair_indices()))

    def wedge_basis_element(self, i: int, j: int) -> "Wedge2":
        """The basis element e_i ^ e_j (0-based, i < j)."""
        pairs = self.pair_indices()
        if (i, j) not in pairs:
            raise ValueError(f"({i}, {j}) is not a basis pair of rank {self.rank}")
        return Wedge2(self, tuple(int(p == (i, j)) for p in pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "1"
        if len(set(self.orders)) == 1:
            k = self.orders[0]
            return f"Z/{k}" if self.rank == 1 else f"(Z/{k})^{self.rank}"
        return " x ".join(f"Z/{k}" for k in self.orders)

    def __repr__(self) -> str:
        return f"FinAbGroup({self.orders!r})"


def _check_same_group(x, y) -> None:
    if x.group != y.group:
        raise ValueError(f"operands live in different groups: {x.group} vs {y.group}")


class AbElement:
    """Element of a FinAbGroup, stored reduced into [0, k_i) componentwise."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FinAbGroup, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != group.rank:
            raise ValueError(f"expected {group.rank} coefficients, got {len(coeffs)}")
        self.group = group
        self.coeffs = tuple(c % k for c, k in zip(coeffs, group.orders))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def order(self) -> int:
        """Smallest n >= 1 with n * self = 0."""
        return lcm(*(k // gcd(k, c) for c, k in zip(self.coeffs, self.group.orders))) \
            if self.coeffs else 1

    def __add__(self, other: "AbElement") -> "AbElement":
        _check_same_group(self, other)
        return AbElement(self.group, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AbElement") -> "AbElement":
        _check_same_group(self, other)
        return AbElement(self.group, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AbElement":
        return AbElement(self.group, (-a for a in self.coeffs))

    def __mul__(self, n: int) -> "AbElement":
        if not isinstance(n, int):
            return NotImplemented
        return AbElement(self.group, (n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbElement):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.group, self.coeffs))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"e{i + 1}" if c == 1 else f"{c}*e{i + 1}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"AbElement({self.group!r}, {self.coeffs!r})"


class Wedge2:
    """Element of the exterior square, coefficients on the pairs e_i ^ e_j, i < j."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FinAbGroup, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        orders = group.pair_orders()
        if len(coeffs) != len(orders):
            raise ValueError(f"expected {len(orders)} coefficients, got {len(coeffs)}")
        self.group = group
        self.coeffs = tuple(c % k for c, k in zip(coeffs, orders))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coefficient(self, i: int, j: int) -> int:
        """Signed coefficient on e_i ^ e_j for arbitrary index order."""
        if i == j:
            return 0
        pairs = self.group.pair_indices()
        if i < j:
            return self.coeffs[pairs.index((i, j))]
        k = self.group.pair_orders()[pairs.index((j, i))]
        return (-self.coeffs[pairs.index((j, i))]) % k

    def __add__(self, other: "Wedge2") -> "Wedge2":
        _check_same_group(self, other)
        return Wedge2(self.group, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Wedge2") -> "Wedge2":
        _check_same_group(self, other)
        return Wedge2(self.group, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Wedge2":
        return Wedge2(self.group, (-a for a in self.coeffs))

    def __mul__(self, n: int) -> "Wedge2":
        if not isinstance(n, int):
            return NotImplemented
        return Wedge2(self.group, (n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wedge2):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.group, self.coeffs))

    def __str__(self) -> str:
        terms = []
        for (i, j), c in zip(self.group.pair_indices(), self.coeffs):
            if c == 0:
                continue
            name = f"e{i + 1}^e{j + 1}"
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Wedge2({self.group!r}, {self.coeffs!r})"


def wedge(x: AbElement, y: AbElement) -> Wedge2:
    """Bilinear alternating product x ^ y.

    >>> G = FinAbGroup((2, 2))
    >>> str(wedge(G.basis()[0], G.basis()[1]))
    'e1^e2'
    """
    _check_same_group(x, y)
    g = x.group
    return Wedge2(
        g,
        (x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i] for i, j in g.pair_indices()),
    )


def pairwise_wedge_sum(images: Sequence[AbElement], multiplier: int = 1) -> Wedge2:
    """multiplier * sum of images[i] ^ images[j] over all i < j."""
    if not images:
        raise ValueError("need at least one element to infer the group")
    total = images[0].group.wedge_zero()
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            total = total + wedge(images[i], images[j])
    return multiplier * total


def subgroup_generated(group: FinAbGroup, elements: Iterable[AbElement]) -> frozenset[AbElement]:
    """Closure of the given elements under the group operation (contains 0)."""
    gens = list(elements)
    for g in gens:
        if g.group != group:
            raise ValueError("generator from a different group")
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)

"""Words, orbifold-style presentations, and generating systems.

The two factor groups are presented as
``<a_1, ..., a_n | a_i^k, a_1 ... a_n>`` (generators tagged "a") and the
same shape with generators tagged "b".  The product group takes the union
of the relators plus every commutator [a_i, b_j].  A generating system is
the list of generator images in a finite abelian group; the combined map
to the target sends (p, q) to phi(p) - psi(q).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .abelian import AbElement, FinAbGroup, subgroup_generated
from .intlattice import IntMatrix, abelian_invariants

FIRST, SECOND = "a", "b"
_FACTORS = (FIRST, SECOND)
_TOKEN = re.compile(r"([ab])(\d+)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class Letter:
    """One generator occurrence: factor tag "a" or "b", 1-based index, sign +-1."""

    factor: str
    index: int
    sign: int = 1

    def __post_init__(self):
        if self.factor not in _FACTORS:
            raise ValueError(f"factor must be one of {_FACTORS}, got {self.factor!r}")
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {self.sign}")

    def inverse(self) -> "Letter":
        return Letter(self.factor, self.index, -self.sign)

    def __str__(self) -> str:
        base = f"{self.factor}{self.index}"
        return base if self.sign == 1 else f"{base}^-1"


@dataclass(frozen=True)
class Word:
    """Word in the free group on tagged generators; letters carry +-1 exponents."""

    letters: tuple[Letter, ...] = ()

    def __mul__(self, other: "Word | Letter") -> "Word":
        if isinstance(other, Letter):
            return Word(self.letters + (other,))
        return Word(self.letters + other.letters)

    def __rmul__(self, other: Letter) -> "Word":
        return Word((other,) + self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def degree(self, factor: str, index: int) -> int:
        """Total exponent of the given generator."""
        return sum(l.sign for l in self.letters if l.factor == factor and l.index == index)

    def free_reduce(self) -> "Word":
        return free_reduce(self)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse words like ``"a1 a2^-1 b3^2"`` (whitespace or ``*`` separated).

        >>> str(Word.parse("a1*a2^-1"))
        'a1*a2^-1'
        """
        letters: list[Letter] = []
        for token in re.split(r"[\s*]+", text.strip()):
            if not token or token == "1":
                continue
            m = _TOKEN.match(token)
            if not m:
                raise ValueError(f"cannot parse letter {token!r}")
            factor, index, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            sign = 1 if exp >= 0 else -1
            letters.extend(Letter(factor, index, sign) for _ in range(abs(exp)))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return "*".join(str(l) for l in self.letters) if self.letters else "1"


def gen(factor: str, index: int, sign: int = 1) -> Word:
    """One-letter word; the building block for tests and demos."""
    return Word((Letter(factor, index, sign),))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def free_reduce(w: Word) -> Word:
    """Remove adjacent cancelling pairs until none remain."""
    out: list[Letter] = []
    for letter in w.letters:
        if out and out[-1].factor == letter.factor \
                and out[-1].index == letter.index and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out))


@dataclass(frozen=True)
class OrbifoldPresentation:
    """<x_1, ..., x_n | x_i^k for all i, x_1 ... x_n> with n >= 3, k >= 2."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 generators, got {self.n}")
        if self.k < 2:
            raise ValueError(f"generator order must be >= 2, got {self.k}")

    def relators(self, factor: str) -> tuple[Word, ...]:
        powers = tuple(gen(factor, i) ** self.k for i in range(1, self.n + 1))
        long = Word(tuple(Letter(factor, i) for i in range(1, self.n + 1)))
        return powers + (long,)


@dataclass(frozen=True)
class ProductPresentation:
    """Direct product of two orbifold presentations (tags "a" and "b")."""

    first: OrbifoldPresentation
    second: OrbifoldPresentation

    def generators(self) -> tuple[Letter, ...]:
        return tuple(Letter(FIRST, i) for i in range(1, self.first.n + 1)) + tuple(
            Letter(SECOND, j) for j in range(1, self.second.n + 1)
        )

    def relators(self) -> tuple[Word, ...]:
        """Factor relators followed by all commutators [a_i, b_j], i-major."""
        comms = tuple(
            commutator(gen(FIRST, i), gen(SECOND, j))
            for i in range(1, self.first.n + 1)
            for j in range(1, self.second.n + 1)
        )
        return self.first.relators(FIRST) + self.second.relators(SECOND) + comms


@dataclass(frozen=True)
class GeneratingSystem:
    """Generator images in a finite abelian group, with declared branch order k.

    Valid systems have at least 3 images, of order exactly k, that generate
    the group and sum to zero; see validate_generating_system.  ``validation`` holds the
    report, computed on first use and kept for the life of the object.
    """

    group: FinAbGroup
    images: tuple[AbElement, ...]
    k: int

    def __post_init__(self):
        for img in self.images:
            if img.group != self.group:
                raise ValueError("image from a different group")
        if self.k < 2:
            raise ValueError(f"branch order must be >= 2, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.images)

    def presentation(self) -> OrbifoldPresentation:
        return OrbifoldPresentation(self.n, self.k)

    @cached_property
    def validation(self) -> "ValidationReport":
        """validate_generating_system(self), computed once per object."""
        return validate_generating_system(self)


@dataclass(frozen=True)
class ValidationReport:
    """Structured result of generating-system validation; empty failures = valid."""

    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.failures)


class InvalidCaseError(ValueError):
    """A generating system failed validation; .failures names the conditions."""

    def __init__(self, failures: Sequence[str]):
        super().__init__("; ".join(failures))
        self.failures = tuple(failures)


def validate_generating_system(sys: GeneratingSystem) -> ValidationReport:
    """Check image count (>= 3), product-zero, generation, and that every image has order k.

    The images generate G exactly when the cokernel of the matrix whose rows
    are their coefficient vectors, with the cyclic orders of G appended as
    relations, is trivial: that cokernel is G modulo the span of the images.
    Nothing enumerates the elements of G.  Callers that hold a system should
    read ``sys.validation``, which runs this once per object.
    """
    failures: list[str] = []
    if not sys.images:
        return ValidationReport(("empty generating system",))
    if sys.n < 3:
        failures.append(f"need at least 3 images, got {sys.n}")
    total = sys.group.element(map(sum, zip(*(img.coeffs for img in sys.images))))
    if not total.is_zero():
        failures.append(f"images sum to {total}, not zero")
    span = IntMatrix([img.coeffs for img in sys.images], cols=sys.group.rank)
    if not abelian_invariants(span, sys.group.orders).is_trivial:
        failures.append("images do not generate the group")
    for i, img in enumerate(sys.images, start=1):
        o = img.order()
        if o != sys.k:
            failures.append(f"image {i} has order {o}, expected {sys.k}")
    return ValidationReport(tuple(failures))


def require_valid(sys: GeneratingSystem) -> None:
    """Raise InvalidCaseError naming every failed condition.

    Reads the report cached on ``sys``, so guarding the same system in
    several places validates it only once.
    """
    report = sys.validation
    if not report.ok:
        raise InvalidCaseError(report.failures)


class DifferenceMap:
    """The combined surjection of the product group: (p, q) -> phi(p) - psi(q)."""

    def __init__(self, phi: GeneratingSystem, psi: GeneratingSystem):
        if phi.group != psi.group:
            raise ValueError("generating systems target different groups")
        self.phi = phi
        self.psi = psi

    @property
    def group(self) -> FinAbGroup:
        return self.phi.group

    def letter_image(self, letter: Letter) -> AbElement:
        if letter.factor == FIRST:
            if letter.index > self.phi.n:
                raise IndexError(f"letter {letter} out of range")
            return letter.sign * self.phi.images[letter.index - 1]
        if letter.index > self.psi.n:
            raise IndexError(f"letter {letter} out of range")
        return (-letter.sign) * self.psi.images[letter.index - 1]

    def evaluate(self, word: Word) -> AbElement:
        total = self.group.zero()
        for letter in word:
            total = total + self.letter_image(letter)
        return total

    def generator_images(self) -> tuple[AbElement, ...]:
        """Images of a_1..a_n, b_1..b_m in generator order."""
        return tuple(self.phi.images) + tuple(-img for img in self.psi.images)

    def is_surjective(self) -> bool:
        return len(subgroup_generated(self.group, self.generator_images())) == self.group.order()


def _nonzero_cyclic_union(images: Iterable[AbElement]) -> set[tuple[int, ...]]:
    """Coefficients of the multiples j*x, 1 <= j < ord(x), of each image x."""
    union: set[tuple[int, ...]] = set()
    for img in images:
        if img.coeffs in union:  # its multiples are in already
            continue
        orders = img.group.orders
        multiple = img.coeffs
        while any(multiple):
            union.add(multiple)
            multiple = tuple((a + c) % k for a, c, k in zip(multiple, img.coeffs, orders))
    return union


def freeness_check(phi: GeneratingSystem, psi: GeneratingSystem) -> bool:
    """True iff the unions of cyclic subgroups of the two image lists meet only in 0.

    This is the condition for the diagonal action on the product of the two
    curves to be free; it is symmetric in the two systems.  Each union is
    built as a set of coefficient tuples from the nonzero multiples of the
    distinct images, so the two sides must simply be disjoint.
    """
    if phi.group != psi.group:
        raise ValueError("generating systems target different groups")
    return _nonzero_cyclic_union(phi.images).isdisjoint(_nonzero_cyclic_union(psi.images))

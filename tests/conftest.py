import random
from itertools import combinations

import pytest

from isoprod import FinAbGroup, GeneratingSystem, Wedge2, builtin_cases
from isoprod.presentation import Letter, Word, validate_generating_system


@pytest.fixture(scope="session")
def cases():
    return builtin_cases()


def random_valid_system(rng: random.Random, group: FinAbGroup, k: int, n: int) -> GeneratingSystem:
    """Rejection-sample a valid generating system (n must allow generation)."""
    if n - 1 < group.rank:
        raise ValueError("cannot generate the group with so few images")
    pool = [e for e in group.elements() if e.order() == k]
    while True:
        images = [rng.choice(pool) for _ in range(n - 1)]
        last = -sum(images[1:], images[0])
        if last.order() != k:
            continue
        images.append(last)
        candidate = GeneratingSystem(group, tuple(images), k)
        if validate_generating_system(candidate).ok:
            return candidate


def random_word(rng: random.Random, factor: str, count: int, length: int) -> Word:
    return Word(tuple(
        Letter(factor, rng.randint(1, count), rng.choice((1, -1)))
        for _ in range(length)
    ))


def random_admissible_word(rng: random.Random, factor: str, count: int, k: int,
                           length: int = 8) -> Word:
    """Word over the first ``count`` generators with all degrees divisible by k."""
    base = list(random_word(rng, factor, count, rng.randint(0, length)).letters)
    w = Word(tuple(base))
    for i in range(1, count + 1):
        d = w.degree(factor, i) % k
        base.extend(Letter(factor, i, -1) for _ in range(d))
    return Word(tuple(base))


def reference_wedge(x, y):
    """x ^ y built term by term: one Wedge2 basis element per pair, added up.

    Independent of the pair tables that wedge() reads: the basis pairs are
    enumerated here afresh.
    """
    group = x.group
    if y.group != group:
        raise ValueError("reference wedge of elements from different groups")
    pairs = list(combinations(range(group.rank), 2))
    total = Wedge2(group, [0] * len(pairs))
    for i, j in pairs:
        term = Wedge2(group, [int(p == (i, j)) for p in pairs])
        total = total + (x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i]) * term
    return total

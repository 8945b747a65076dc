"""Deterministic inputs of the three workloads.

Nothing here imports isoprod: the benchmark samples its own generating
systems, so the program under test only ever sees the case files (or
catalog ids) that a user would hand it.

Every group is (Z/k)^r with k prime, so an element has order k exactly when
it is nonzero and a list of images generates G exactly when its rank mod k
is r.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from checks import rank_mod

# The Bauer-Catanese catalog as the paper gives it: k, r, phi, psi, and the
# torsion of H_1 from the paper's table.
CATALOG = {
    1: (2, 3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 1)],
        [(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 1, 1)],
        (2, 2, 2, 2, 4, 4)),
    2: (2, 4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
        [(0, 1, 1, 1), (1, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)],
        (4, 4, 4, 4)),
    3: (3, 2,
        [(1, 0), (0, 1), (2, 0), (0, 2)],
        [(1, 1), (1, 2), (2, 2), (2, 1)],
        (3, 3, 3, 3, 3)),
    4: (5, 2,
        [(1, 0), (0, 1), (4, 4)],
        [(1, 2), (3, 4), (1, 4)],
        (5, 5, 5)),
}

# Ladder rungs (k, r, n = m), smallest first.  The ladder is fixed: every
# rung is sampled from its own Random(LADDER_SEED), whatever --seed says.  The
# oracle took between 8.2 s and 10.3 s on five sampled (Z/3)^4 systems, so a
# seeded ladder would measure the sample as much as the program.
LADDER_SEED = 1
LADDER = ((7, 2, 3), (3, 3, 5), (11, 2, 3), (2, 5, 7), (3, 4, 6))

# Corpus shapes (k, r, allowed n and m).  Each allowed count admits a valid
# system: n - 1 >= r so the images can generate, and for G = Z/2 the count
# must be even so the images can sum to zero.
CORPUS_SHAPES = (
    (2, 1, (4,)),
    (2, 2, (3, 4, 5)),
    (2, 3, (4, 5)),
    (2, 4, (5,)),
    (3, 2, (3, 4, 5)),
    (3, 3, (4, 5)),
    (5, 2, (3, 4, 5)),
    (7, 2, (3, 4, 5)),
)
CORPUS_SIZE = 1000
QUICK_CORPUS_SIZE = 8


@dataclass
class Case:
    """One input: the CLI arguments, and what the checks need to know."""

    name: str
    argv: list[str]
    k: int
    r: int
    phi: list[tuple[int, ...]]
    psi: list[tuple[int, ...]]
    paper_table: tuple[int, ...] | None = None


def sample_system(rng: random.Random, k: int, r: int, n: int) -> list[tuple[int, ...]]:
    """Rejection-sample n images of order k in (Z/k)^r that sum to 0 and generate."""
    pool = [v for v in product(range(k), repeat=r) if any(v)]
    for _ in range(10_000):
        images = [rng.choice(pool) for _ in range(n - 1)]
        last = tuple(-sum(column) % k for column in zip(*images))
        if any(last) and rank_mod(images, k) == r:
            return images + [last]
    raise ValueError(f"no valid system of {n} images in (Z/{k})^{r}")


def _write_case(directory: Path, name: str, k: int, r: int, phi, psi) -> Path:
    path = directory / f"{name}.json"
    doc = {"group_orders": [k] * r, "label": name,
           "phi": [list(v) for v in phi], "psi": [list(v) for v in psi]}
    # Rewritten in place, then cut to length, rather than truncated first:
    # every set-up writes the same files again, and truncating made the
    # file system free and reallocate their blocks, which took 10x longer
    # and drifted from run to run.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as file:
        file.write((json.dumps(doc) + "\n").encode())
        file.truncate()
    return path


def catalog_cases(quick: bool) -> list[Case]:
    return [Case(f"catalog-{i}", ["compute", str(i), "--json"], *CATALOG[i])
            for i in ([1] if quick else sorted(CATALOG))]


def ladder_cases(directory: Path, quick: bool) -> list[Case]:
    cases = []
    for k, r, n in LADDER[:1] if quick else LADDER:
        rng = random.Random(LADDER_SEED)
        phi = sample_system(rng, k, r, n)
        psi = sample_system(rng, k, r, n)
        name = f"ladder-{k}^{r}-n{n}"
        path = _write_case(directory, name, k, r, phi, psi)
        cases.append(Case(name, ["compute", str(path), "--method", "both", "--json"],
                          k, r, phi, psi))
    return cases


def corpus_cases(directory: Path, seed: int, quick: bool) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for i in range(QUICK_CORPUS_SIZE if quick else CORPUS_SIZE):
        k, r, counts = rng.choice(CORPUS_SHAPES)
        phi = sample_system(rng, k, r, rng.choice(counts))
        psi = sample_system(rng, k, r, rng.choice(counts))
        name = f"corpus-{i:04d}"
        path = _write_case(directory, name, k, r, phi, psi)
        cases.append(Case(name, ["compute", str(path), "--method", "paper", "--json"],
                          k, r, phi, psi))
    return cases

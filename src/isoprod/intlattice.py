"""Exact integer linear algebra.

Everything here runs over Z with Python's arbitrary-precision integers:
Smith normal form with transforming matrices, invariant factors of a
finitely presented abelian group, and kernels of matrices over a prime
field.  No floating point is involved anywhere; intermediate entry growth
is routine and harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import prod
from typing import Iterable, Sequence


class IntMatrix:
    """Dense integer matrix with exact arithmetic.

    Entries are stored row-major as lists of Python ints.  The class is a
    thin carrier: elimination algorithms live in module functions.

    >>> IntMatrix([[1, 2], [3, 4]]).det()
    -2
    """

    __slots__ = ("data", "cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None):
        data = [list(map(int, row)) for row in rows]
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries, expected {cols}")
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            cols = width
        elif cols is None:
            raise ValueError("column count required for a matrix with no rows")
        elif cols < 0:
            raise ValueError("column count must be nonnegative")
        self.data = data
        self.cols = cols

    @property
    def rows(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self.data:
            out.append(
                [sum(row[k] * other.data[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix(out, cols=other.cols)

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def is_diagonal(self) -> bool:
        return all(
            self.data[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for t in range(n - 1):
            if a[t][t] == 0:
                for i in range(t + 1, n):
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
                a[i][t] = 0
            prev = a[t][t]
        return sign * a[n - 1][n - 1]

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r}, cols={self.cols})"


class SparseIntMatrix:
    """Integer matrix stored as one ``{column: entry}`` dict per row.

    Absent columns are zero.  ``abelian_invariants`` reads the dicts as they
    are, so a relation matrix that is almost all zeros is never expanded;
    ``data`` builds the dense rows only when something asks for them.

    >>> SparseIntMatrix([{1: 3}, {}], cols=2).data
    [[0, 3], [0, 0]]
    """

    __slots__ = ("entries", "cols")

    def __init__(self, entries: list[dict[int, int]], cols: int):
        if cols < 0:
            raise ValueError("column count must be nonnegative")
        for row in entries:
            if row and not (min(row) >= 0 and max(row) < cols):
                raise ValueError(f"row {row!r} has a column outside 0..{cols - 1}")
        self.entries = entries
        self.cols = cols

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def data(self) -> list[list[int]]:
        dense = []
        for row in self.entries:
            out = [0] * self.cols
            for c, val in row.items():
                out[c] = val
            dense.append(out)
        return dense


@dataclass(frozen=True)
class InvariantFactors:
    """Canonical form of a finitely generated abelian group.

    ``factors`` is the divisibility chain d_1 | d_2 | ... with every d_i >= 2
    (factors of 1 are never stored); ``free_rank`` counts the Z summands.
    """

    factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")

    @property
    def is_trivial(self) -> bool:
        return not self.factors and self.free_rank == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None for an infinite group."""
        if self.free_rank:
            return None
        return prod(self.factors)

    def with_free_rank(self, extra: int) -> "InvariantFactors":
        return InvariantFactors(self.factors, self.free_rank + extra)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.factors]
        return " ⊕ ".join(parts) if parts else "0"


def _nearest_quotient(a: int, b: int) -> int:
    """Quotient q minimizing |a - q*b| (b nonzero)."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _row_sub(d: list[list[int]], u: list[list[int]] | None, i: int, t: int, q: int) -> None:
    if not q:
        return
    dt = d[t]
    di = d[i]
    for j in range(len(di)):
        di[j] -= q * dt[j]
    if u is not None:
        ut = u[t]
        ui = u[i]
        for j in range(len(ui)):
            ui[j] -= q * ut[j]


def _row_swap(d: list[list[int]], u: list[list[int]] | None, i: int, t: int) -> None:
    d[i], d[t] = d[t], d[i]
    if u is not None:
        u[i], u[t] = u[t], u[i]


def _row_neg(d: list[list[int]], u: list[list[int]] | None, i: int) -> None:
    d[i] = [-x for x in d[i]]
    if u is not None:
        u[i] = [-x for x in u[i]]


def _col_sub(d: list[list[int]], v: list[list[int]] | None, j: int, t: int, q: int) -> None:
    if not q:
        return
    for row in d:
        row[j] -= q * row[t]
    if v is not None:
        for row in v:
            row[j] -= q * row[t]


def _col_swap(d: list[list[int]], v: list[list[int]] | None, j: int, t: int) -> None:
    for row in d:
        row[j], row[t] = row[t], row[j]
    if v is not None:
        for row in v:
            row[j], row[t] = row[t], row[j]


def _select_pivot(d: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    """Coordinates of a nonzero entry of minimal |value| in d[t:, t:]."""
    best = None
    where = None
    for i in range(t, m):
        row = d[i]
        for j in range(t, n):
            x = row[j]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                where = (i, j)
                if best == 1:
                    return where
    return where


def _smith(d: list[list[int]], m: int, n: int,
           u: list[list[int]] | None, v: list[list[int]] | None) -> None:
    """In-place Smith elimination of the m x n array d.

    u and v, when given, accumulate the row and column operations so that
    u * original * v = d on exit.  Step t moves an entry of minimal |value|
    in d[t:, t:] to (t, t), which limits entry growth, then clears column t
    in one pass over rows t+1..m-1: each row in turn runs Euclid against
    row t (nearest-quotient subtraction, swapping when a remainder is left)
    until its entry in column t is zero.  A row cleared this way stays
    clear, because later steps of the pass change only row t and the row
    being cleared.  Row t is cleared the same way by column operations;
    only a column swap can refill column t, so the two passes repeat until
    a row pass makes no swap.  If some later entry is not a multiple of the
    pivot, its row is added to row t and the step starts over with a
    smaller pivot.
    """
    for t in range(min(m, n)):
        found = _select_pivot(d, t, m, n)
        if found is None:
            break
        _row_swap(d, u, found[0], t)
        _col_swap(d, v, found[1], t)
        while True:
            refilled = True
            while refilled:
                for i in range(t + 1, m):
                    while d[i][t]:
                        _row_sub(d, u, i, t, _nearest_quotient(d[i][t], d[t][t]))
                        if d[i][t]:
                            _row_swap(d, u, i, t)
                refilled = False
                for j in range(t + 1, n):
                    while d[t][j]:
                        _col_sub(d, v, j, t, _nearest_quotient(d[t][j], d[t][t]))
                        if d[t][j]:
                            _col_swap(d, v, j, t)
                            refilled = True
            pivot = d[t][t]
            bad = next(
                (i for i in range(t + 1, m) if any(d[i][j] % pivot for j in range(t + 1, n))),
                None,
            )
            if bad is None:
                break
            # Fold the offending row into row t so the next sweep shrinks the pivot.
            _row_sub(d, u, t, bad, -1)
        if d[t][t] < 0:
            _row_neg(d, u, t)


def smith_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (D, U, V) with U*A*V = D.

    D is diagonal with nonnegative entries in a divisibility chain
    d_1 | d_2 | ...; U and V are unimodular (determinant +-1).
    """
    m, n = A.rows, A.cols
    d = [row[:] for row in A.data]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    _smith(d, m, n, u, v)
    return (
        IntMatrix(d, cols=n),
        IntMatrix(u, cols=m),
        IntMatrix(v, cols=n),
    )


def _presparse_reduce(rows: list[dict[int, int]], live_cols: set[int]) -> int:
    """Eliminate +-1 pivots on sparse rows, deleting pivot row and column.

    Each elimination contributes an invariant factor of 1, so only the count
    of removed columns matters.  Mutates rows / live_cols; returns the number
    of pivots removed.  The rows may only use columns of live_cols.

    The pivot row is the lightest row holding a +-1 entry.  Such rows sit in
    buckets by weight, and a row changed by an elimination moves to the
    bucket of its new weight (or leaves the buckets when its last unit
    goes), so every row taken from a bucket yields a pivot.  Within that
    row the pivot column is the +-1 column met by the fewest rows
    (Markowitz), which bounds the fill-in.  A column -> rows index, kept up
    to date through fill-in and cancellation, means an elimination touches
    only the rows that meet the pivot column.
    """
    col_rows: dict[int, set[int]] = {}
    buckets: list[set[int]] = [set() for _ in range(len(live_cols) + 1)]
    for idx, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(idx)
        values = row.values()
        if 1 in values or -1 in values:
            buckets[len(row)].add(idx)
    lightest = 0
    removed = 0
    while True:
        while lightest < len(buckets) and not buckets[lightest]:
            lightest += 1
        if lightest == len(buckets):
            return removed
        pr = buckets[lightest].pop()
        pivot_row = rows[pr]
        units = [c for c, val in pivot_row.items() if val == 1 or val == -1]
        pc = min(units, key=lambda c: len(col_rows[c]))
        for c in pivot_row:
            col_rows[c].discard(pr)
        # With the pivot entry taken out and the rest scaled by its sign,
        # row -= row[pc] * pivot_row zeroes column pc of any row.
        if pivot_row.pop(pc) == -1:
            for c in pivot_row:
                pivot_row[c] = -pivot_row[c]
        pivot_items = pivot_row.items()
        for idx in col_rows.pop(pc):
            row = rows[idx]
            buckets[len(row)].discard(idx)  # a bucketed row sits at its weight
            factor = row.pop(pc)
            for c, val in pivot_items:
                new = row.get(c, 0) - factor * val
                if new:
                    if c not in row:
                        col_rows[c].add(idx)
                    row[c] = new
                elif c in row:
                    del row[c]
                    col_rows[c].discard(idx)
            values = row.values()
            if 1 in values or -1 in values:
                weight = len(row)
                buckets[weight].add(idx)
                if weight < lightest:
                    lightest = weight
        pivot_row.clear()
        live_cols.discard(pc)
        removed += 1


def _distinct_rows(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """The nonempty rows, each kept once; equal rows span the same lattice."""
    return list({frozenset(row.items()): row for row in rows if row}.values())


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g > 0 (a, b not both 0)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _hermite_reduce(row: list[int], basis: list[list[int] | None], start: int) -> None:
    """Bring each entry of row at a basis pivot column >= start into [0, pivot), in place."""
    n = len(row)
    for j in range(start, n):
        pivot = basis[j]
        if pivot is not None and row[j]:
            q = row[j] // pivot[j]
            if q:
                for i in range(j, n):
                    row[i] -= q * pivot[i]


def _hermite_fold(rows: Iterable[list[int]], ncols: int) -> list[list[int]]:
    """Echelon basis, of at most ncols rows, of the lattice the rows span.

    ``basis[c]`` is the row whose first nonzero entry, the positive pivot,
    is in column c.  Each row is folded in on its own: at each nonzero
    column c it is either stored as the basis row of c, or reduced by that
    row, where a remainder is cleared by the unimodular step
    [[s, t], [-b/g, a/g]] of the extended gcd g = s*a + t*b, which leaves g
    as the pivot.  A row that clears entirely was already in the lattice.
    Whenever a pivot is set or shrinks, the rows above it are reduced
    modulo it (Hermite normal form), so once every column has a pivot no
    entry exceeds the largest pivot, which divides the lattice's index.
    Rows are updated in place, from column c onward (the entries before c
    are zero in both rows); the caller's lists become the basis rows.
    """
    basis: list[list[int] | None] = [None] * ncols
    for row in rows:
        for c in range(ncols):
            b = row[c]
            if not b:
                continue
            pivot = basis[c]
            if pivot is None:
                if b < 0:
                    for j in range(c, ncols):
                        row[j] = -row[j]
                basis[c] = row
            else:
                a = pivot[c]
                if b % a == 0:
                    q = b // a
                    for j in range(c, ncols):
                        row[j] -= q * pivot[j]
                    continue
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                for j in range(c, ncols):
                    x, y = row[j], pivot[j]
                    pivot[j] = s * y + t * x
                    row[j] = a * x - b * y
            # Pivot c is new or smaller: restore the Hermite form of rows 0..c.
            _hermite_reduce(basis[c], basis, c + 1)
            for i in range(c):
                if basis[i] is not None:
                    _hermite_reduce(basis[i], basis, c)
            if pivot is None:
                break
    return [row for row in basis if row is not None]


def _diagonal_invariants(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith form of the given sparse relation rows.

    The rows are ``{column: nonzero entry}`` dicts owned by the call: the
    sparse unit-pivot pass mutates them.  Duplicate rows are dropped before
    the dense elimination of what that pass leaves (the oracle emits no
    duplicates, so none are looked for before it).  A
    residual with more rows than columns is first folded into an echelon
    basis of at most as many rows as columns, so ``_smith`` never clears a
    tall matrix.  Unit pivots contribute factors of 1 which are returned
    explicitly so callers can count consumed columns.
    """
    live = set(range(ncols))
    units = _presparse_reduce(rows, live)
    col_index = {c: j for j, c in enumerate(sorted(live))}
    width = len(col_index)
    dense = []
    for row in _distinct_rows(rows):
        out = [0] * width
        for c, val in row.items():
            out[col_index[c]] = val
        dense.append(out)
    if len(dense) > width:
        dense = _hermite_fold(dense, width)
    _smith(dense, len(dense), width, None, None)
    diag = [dense[i][i] for i in range(min(len(dense), width))]
    return [1] * units + [d for d in diag if d]


def abelian_invariants(
    relations: IntMatrix | SparseIntMatrix,
    generator_orders: Sequence[int | str | None] | None = None,
) -> InvariantFactors:
    """Invariant factors of the abelian group presented by ``relations``.

    Columns index generators, rows are relations; the matrix may be dense
    or sparse.  ``generator_orders`` optionally gives each generator a
    finite order k_i (appending the row k_i * e_i); entries of None or
    "free" leave that generator free, and omitting the argument leaves all
    of them free.  ``relations`` is left unchanged.

    >>> str(abelian_invariants(IntMatrix([], cols=3), [2, 2, 2]))
    'Z/2 ⊕ Z/2 ⊕ Z/2'
    """
    n = relations.cols
    if isinstance(relations, SparseIntMatrix):
        rows = [{c: val for c, val in row.items() if val} for row in relations.entries]
    else:
        columns = range(n)
        rows = [{j: row[j] for j in compress(columns, row)} for row in relations.data]
    if generator_orders is not None:
        if len(generator_orders) != n:
            raise ValueError(
                f"got {len(generator_orders)} generator orders for {n} generators"
            )
        for i, k in enumerate(generator_orders):
            if k is None or k == "free":
                continue
            k = int(k)
            if k < 1:
                raise ValueError(f"generator order {k} < 1")
            rows.append({i: k})
    diag = _diagonal_invariants(rows, n)
    return InvariantFactors(
        factors=tuple(d for d in diag if d > 1),
        free_rank=n - len(diag),
    )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def _rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (rref rows, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis_mod_p(M: IntMatrix, p: int) -> list[tuple[int, ...]]:
    """Basis of the kernel of the map x -> M x over GF(p).

    The basis has cols - rank(M) vectors, one per non-pivot column in
    ascending column order (the free coordinate of each vector is 1).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = M.cols
    rref, pivots = _rref_mod_p(M.data, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][f]) % p
        basis.append(tuple(vec))
    return basis

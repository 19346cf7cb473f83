"""Prime-field matrices.

Everything downstream works over F_p for an odd prime p. Residues are kept
canonical in [0, p-1], and a vector is a plain tuple of them. Matrices are
immutable; determinants are computed by Gaussian elimination over the field
and cached.

GL_n(F_p) is enumerated on integer row arrays: each independent (n-1)-row
head comes with one (B, n) array of the last rows that complete it, the
vectors outside its span, found by encoding the span as base-p indices. A
slice of the nonzero first rows picks a contiguous range of the heads;
`sweep` runs one such range a job and checks the arrays directly, and
`enumerate_nonsingular` builds the matrices one at a time.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .budget import Budget, current_budget
from .errors import InputError

# Deterministic Miller-Rabin witness set, exact for every n < 3.3 * 10^24,
# far beyond the 2^31 modulus range supported here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for the supported modulus range."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# moduli that have passed _as_prime in this process; primality never
# changes, so each modulus is validated once
_VALIDATED: set[int] = set()


def _as_prime(p: int) -> int:
    """p as an exact int, validated as an odd prime below 2^31 (the C
    kernels hold p in an int) the first time it is seen, else InputError."""
    p = int(p)
    if p not in _VALIDATED:
        if p >= 2**31:
            raise InputError(f"modulus must be below 2^31, got {p}")
        if p < 3 or not is_probable_prime(p):
            raise InputError(f"modulus must be an odd prime >= 3, got {p}")
        _VALIDATED.add(p)
    return p


class FpMatrix:
    """An immutable square matrix over F_p."""

    __slots__ = ("p", "n", "rows", "_det")

    def __init__(self, rows: Sequence[Sequence[int]], p: int):
        self.p = _as_prime(p)
        rows = tuple(tuple(int(a) % self.p for a in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InputError("matrix must be square and nonempty")
        self.rows = rows
        self.n = n
        self._det = None

    @classmethod
    def _from_reduced(cls, rows: tuple[tuple[int, ...], ...], p: int) -> "FpMatrix":
        """A matrix from square rows already reduced mod p, a prime already
        validated: nothing is checked or copied."""
        m = object.__new__(cls)
        m.p, m.n, m.rows, m._det = p, len(rows), rows, None
        return m

    def transpose(self) -> "FpMatrix":
        return FpMatrix(list(zip(*self.rows)), self.p)

    def matvec(self, x: Sequence[int]) -> tuple[int, ...]:
        """The residues of M x, each in [0, p)."""
        x = list(x)
        if len(x) != self.n:
            raise InputError("dimension mismatch in matvec")
        return tuple(sum(a * b for a, b in zip(row, x)) % self.p for row in self.rows)

    def det(self) -> int:
        if self._det is None:
            self._det = _det_mod_p(self.rows, self.p)
        return self._det

    def is_nonsingular(self) -> bool:
        return self.det() != 0

    def invert(self) -> "FpMatrix":
        """Inverse via Gauss-Jordan elimination; InputError when det is 0."""
        p, n = self.p, self.n
        a = [list(row) + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                raise InputError(f"matrix is singular modulo {p}")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
            inv = pow(a[col][col], -1, p)
            a[col] = [x * inv % p for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    c = a[r][col]
                    a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
        return FpMatrix([row[n:] for row in a], p)

    def __eq__(self, other):
        if isinstance(other, FpMatrix):
            return self.p == other.p and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.p))

    def __repr__(self):
        return f"FpMatrix({[list(r) for r in self.rows]}, p={self.p})"

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "FpMatrix":
        try:
            p, rows = obj["p"], obj["rows"]
        except (KeyError, TypeError):
            raise InputError("matrix JSON needs keys 'p' and 'rows'") from None
        m = cls(_json_int_rows(rows, "matrix JSON 'rows'"), _json_int(p, "matrix JSON 'p'"))
        if _json_int(obj.get("n", m.n), "matrix JSON 'n'") != m.n:
            raise InputError("matrix JSON 'n' does not match row count")
        return m


def _json_int(value, what: str) -> int:
    """value when it is a JSON integer, else InputError: a bool, float or
    string is not one, so nothing is rounded or coerced into an integer."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """rows as tuples when it is a JSON list of lists of integers (as
    _json_int reads them), else InputError."""
    if type(rows) is not list or any(
        type(row) is not list or any(type(v) is not int for v in row) for row in rows
    ):
        raise InputError(f"{what} must be a list of lists of JSON integers")
    return tuple(map(tuple, rows))


def _det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, n):
            if a[r][col]:
                c = a[r][col] * inv % p
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def nonsingular_count(p: int, n: int) -> int:
    """Order of GL_n(F_p)."""
    q = p**n
    out = 1
    for i in range(n):
        out *= q - p**i
    return out


# a table can be as large as the entries budget, so only a few are kept
@lru_cache(maxsize=8)
def _vectors(p: int, n: int) -> np.ndarray:
    """All p^n vectors of F_p^n in lex order, as a read-only (p^n, n) table:
    row i holds the base-p digits of i, most significant first."""
    table = np.indices((p,) * n).reshape(n, p**n).T
    table.flags.writeable = False
    return table


def _index(p: int, rows: np.ndarray) -> np.ndarray:
    """The base-p index in `_vectors` of each reduced row of `rows`."""
    return rows @ p ** np.arange(rows.shape[-1] - 1, -1, -1)


def _span_mask(p: int, rows: np.ndarray) -> np.ndarray:
    """The (p^n,) mask of the vectors in the span of the (k, n) rows, indexed
    as `_vectors(p, n)`: the p^k combinations c·rows, reduced and encoded.

    A combination entry is below k p^2 and an index below p^n, so both fit
    int64 whenever the mask fits in memory."""
    k, n = rows.shape
    inside = np.zeros(p**n, dtype=bool)
    inside[_index(p, _vectors(p, k) @ rows % p)] = True
    return inside


def charge_enumeration(p: int, n: int, budget: Budget) -> int:
    """The enumeration's checks before its first matrix: p prime, n >= 1 and
    its p^(n^2) candidates as nodes. Returns p as validated."""
    p = _as_prime(p)
    if n < 1:
        raise InputError("need n >= 1")
    budget.check_nodes_power(p, n * n, what=f"enumeration of {n}x{n} matrices over F_{p}")
    return p


def enumerate_nonsingular_groups(
    p: int,
    n: int,
    budget: Budget | str | None = None,
    first_rows: slice = slice(None),
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every nonsingular n x n matrix over F_p, grouped by its first n-1 rows.

    Yields pairs (head, last): an independent (n-1, n) int64 array of
    leading rows and the (B, n) int64 array of every last row that completes
    it to a nonsingular matrix, which are the p^n vectors outside span(head).
    Heads come in lex order and so do the last rows of each, so the matrices,
    flattened, are in lexicographic order of their row tuples. `first_rows`
    slices the p^n - 1 nonzero first rows, in lex order: only the matrices
    whose first row it keeps are yielded, so contiguous slices partition the
    enumeration. `charge_enumeration` runs before the first matrix.
    """
    p = charge_enumeration(p, n, current_budget(budget))
    vectors = _vectors(p, n)
    yield from _groups(p, n, vectors[:0], vectors[1:][first_rows])


def _groups(
    p: int, n: int, head: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # head holds independent reduced rows, fewer than n, rows the candidates
    # for the next one, all outside span(head), and p is validated
    if len(head) == n - 1:
        yield head, rows
        return
    for row in rows:
        below = np.concatenate([head, row[None]])
        yield from _groups(p, n, below, _vectors(p, n)[~_span_mask(p, below)])


def enumerate_nonsingular(
    p: int,
    n: int,
    budget: Budget | str | None = None,
    first_rows: slice = slice(None),
) -> Iterator[FpMatrix]:
    """Yield every nonsingular n x n matrix over F_p.

    The matrices of `enumerate_nonsingular_groups`, in the same
    lexicographic order, with the same first-row slice and the same
    up-front node charge. Rows are reduced and p validated there, so the
    matrices are built without re-validation.
    """
    p = _as_prime(p)
    for head, last in enumerate_nonsingular_groups(p, n, budget, first_rows):
        rows = tuple(map(tuple, head.tolist()))
        for row in last.tolist():
            yield FpMatrix._from_reduced(rows + (tuple(row),), p)


def draw_nodes(n: int) -> int:
    """The nodes of one random_nonsingular draw: n^3, about one elimination."""
    return n**3


def random_nonsingular(p: int, n: int, seed: int | None = None,
                       rng: random.Random | None = None,
                       budget: Budget | str | None = None) -> FpMatrix:
    """Rejection-sample a nonsingular matrix; deterministic for a fixed seed.

    The node budget is charged `draw_nodes(n)` before the first draw."""
    p = _as_prime(p)
    current_budget(budget).check_nodes(draw_nodes(n), what="random matrix")
    if rng is None:
        rng = random.Random(seed)
    while True:
        m = FpMatrix(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p
        )
        if m.is_nonsingular():
            return m

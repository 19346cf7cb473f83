"""Equivalence chain between nowhere-forbidden solvability and vanishing checks.

For a nonsingular matrix M with rows a_i, forbidden residue lists c_i for the
coordinates and d_i for the images, the five properties are:

  P1: no x has x_i outside c_i for all i and <a_i, x> outside d_i for all i.
  P2: the product of (x_i - c) and (<a_i, x> - d) factors reduces to zero.
  P3: the phased group-ring product over the cyclotomic integers vanishes.
  P4: the unphased group-ring product over F_p vanishes (multiplicities
      t_i = |c_i|, t'_i = |d_i|).
  P5: the monomial product prod <a_i,x>^(t'_i) * prod x_i^(t_i) drops total
      degree after reduction.

P1, P2, P3 are equivalent; P3 implies P4 implies P5 (p > 3). check_all runs
all five and reports any violation of that chain.

check_p1 and check_multi search depth first with early exit, for any
forbidden lists, by one kernels.first_witness call each. sweep_verdicts is
sweep's one stack layer: for matrices given as the (n-1)-row head they share
and the last row of each, it finds check_p1's nowhere-zero witnesses by one
kernels.first_witness call over the stack, and both group-ring verdicts by
one kernels.products_vanish call. The sweep makes one such call for each
enumeration group, whatever its size: the compiled products hold two p^n
buffers and the pure twin the shared table and one roll of it a last row,
so the stack is charged one table, not one a matrix.

The delta operators and the pairing test exercise the functional reading of
P4: difference operators along unit vectors and along the rows of M, images
characterized by vanishing line sums, and the orthogonality between the two
images when the product vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .budget import Budget, current_budget
from .errors import InputError
from .fp_core import FpMatrix, _as_prime, _json_int, _json_int_rows, _vectors
from .fp_poly import (
    _eval_dense,
    _interpolate_dense,
    check_p2,
    check_p5,
)
from .group_ring import (
    FactorSpec,
    ModPRing,
    _roll,
    check_p3,
    check_p4,
    product_of_factors,
)


@dataclass(frozen=True)
class ForbiddenSpec:
    """Forbidden residue lists: c_lists for coordinates, d_lists for images.

    Values within one list must be distinct mod p; empty lists mean the
    coordinate or image is unconstrained.
    """

    p: int
    n: int
    c_lists: tuple[tuple[int, ...], ...]
    d_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.c_lists) != self.n or len(self.d_lists) != self.n:
            raise InputError("need one forbidden list per coordinate and per image")
        for lists in (self.c_lists, self.d_lists):
            for vals in lists:
                if any(not 0 <= v < self.p for v in vals):
                    raise InputError("forbidden residues must lie in [0, p)")
                if len(set(vals)) != len(vals):
                    raise InputError("forbidden residues must be distinct")

    @classmethod
    def default(cls, p: int, n: int) -> "ForbiddenSpec":
        """The nowhere-zero case: c_i = d_i = {0}."""
        return cls(p=p, n=n, c_lists=((0,),) * n, d_lists=((0,),) * n)

    @classmethod
    def random(
        cls, p: int, n: int, rng: random.Random, max_size: int | None = None
    ) -> "ForbiddenSpec":
        if max_size is None:
            max_size = min(3, p - 1)
        def draw():
            out = []
            for _ in range(n):
                size = rng.randrange(max_size + 1)
                out.append(tuple(sorted(rng.sample(range(p), size))))
            return tuple(out)
        return cls(p=p, n=n, c_lists=draw(), d_lists=draw())

    @property
    def t(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.c_lists)

    @property
    def t_prime(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.d_lists)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "c_lists": [list(c) for c in self.c_lists],
            "d_lists": [list(d) for d in self.d_lists],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ForbiddenSpec":
        try:
            p, n, c_lists, d_lists = obj["p"], obj["n"], obj["c_lists"], obj["d_lists"]
        except (KeyError, TypeError):
            raise InputError(
                "forbidden-spec JSON needs p, n, c_lists, d_lists"
            ) from None
        return cls(
            p=_json_int(p, "forbidden-spec JSON 'p'"),
            n=_json_int(n, "forbidden-spec JSON 'n'"),
            c_lists=_json_int_rows(c_lists, "forbidden-spec JSON 'c_lists'"),
            d_lists=_json_int_rows(d_lists, "forbidden-spec JSON 'd_lists'"),
        )


# ---------------------------------------------------------------------------
# witness search


def _witness(
    p: int,
    rows: Sequence[Sequence[int]],
    forbidden: Sequence[Sequence[int]],
    orders: Sequence[Sequence[int]],
    budget: Budget,
) -> tuple[int, ...] | None:
    """The first witness kernels.first_witness finds for the rows, with the
    node budget as its cap on units: x, or None when there is none."""
    table = np.array(rows, dtype=np.int64).reshape(-1, len(orders))
    found, witness, units = kernels.first_witness(
        table, None, forbidden, orders, p, budget.nodes
    )
    budget.check_nodes(int(units[0]), what="witness search")
    return tuple(witness[0].tolist()) if found[0] else None


def charge_witness_search(p: int, n: int, budget: Budget, matrices: int = 1) -> None:
    """A witness search's entries: n lists of up to p values, and the p-bit
    mask of each row's forbidden images, ceil(p/64) words, n rows a matrix."""
    budget.check_entries(n * p, what="witness value lists")
    budget.check_entries(matrices * n * -(-p // 64), what="forbidden masks")


def check_p1(
    m: FpMatrix,
    spec: ForbiddenSpec | None = None,
    budget: Budget | str | None = None,
) -> tuple[int, ...] | None:
    """Exhaustive witness search for the solvability property.

    Returns x with every x_i off its forbidden list and every <a_i, x> off
    its list, or None when no such x exists (the property holds). The
    budget is charged `charge_witness_search` first.
    """
    p, n = m.p, m.n
    b = current_budget(budget)
    charge_witness_search(p, n, b)
    if spec is None:
        spec = ForbiddenSpec.default(p, n)
    if (spec.p, spec.n) != (p, n):
        raise InputError("forbidden spec does not match the matrix")
    allowed = [
        [v for v in range(p) if v not in banned] for banned in map(set, spec.c_lists)
    ]
    return _witness(p, m.rows, spec.d_lists, allowed, b)


def charge_sweep_stack(p: int, n: int, budget: Budget) -> None:
    """sweep_verdicts' charge: one p^n product table whatever the stack's
    size B, since neither backend of kernels.products_vanish holds a table a
    matrix, and one matrix's (p-1)^n witness candidates."""
    budget.check_entries(p**n, what="group-ring stack")
    budget.check_nodes((p - 1) ** n, what="witness search")


def sweep_verdicts(
    p: int,
    head: np.ndarray,
    last: np.ndarray,
    budget: Budget | str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`sweep`'s three verdicts for each of a stack of B matrices, which
    share the (n-1, n) `head` rows and end in the rows of the (B, n) `last`:
    (found, witness, int_zero, modp_zero).

    found[b] tells whether some x in {1..p-1}^n has M_b x nowhere zero, and
    witness[b] is the lex-first such x (zeros where none), the one `check_p1`
    finds with the default spec, whose equal slacks make it assign
    coordinates 0..n-1 with values in ascending order. One
    kernels.first_witness call searches the whole stack, reading the head
    rows once for all B matrices, and one kernels.products_vanish call gives
    int_zero and modp_zero: whether prod (1-g^(e_i)) * prod (1-g^(a_i))
    vanishes over Z and over F_p.

    p and the shapes are validated and the rows made contiguous int64 once,
    here. The budget is charged `charge_sweep_stack` up front, and then the
    units the search of each matrix used, which the budget also caps.
    """
    head = np.ascontiguousarray(head, dtype=np.int64)
    last = np.ascontiguousarray(last, dtype=np.int64)
    if last.ndim != 2 or head.shape != (last.shape[1] - 1, last.shape[1]):
        raise InputError("a stack is an (n-1, n) head and a (B, n) array of last rows")
    p, n = _as_prime(p), last.shape[1]
    b = current_budget(budget)
    charge_sweep_stack(p, n, b)
    int_zero, modp_zero = kernels.products_vanish(p, head, last)
    found, witness, units = kernels.first_witness(
        head, last, [(0,)] * n, [range(1, p)] * n, p, b.nodes
    )
    b.check_nodes(int(units.max(initial=0)), what="witness search")
    return found, witness, int_zero, modp_zero


def check_multi(
    matrices: Sequence[FpMatrix],
    seed: int | None = None,
    budget: Budget | str | None = None,
) -> tuple[int, ...] | None:
    """Witness x such that every M_j x is nowhere zero (x itself unconstrained).

    Exhaustive over F_p^n in a deterministic order; a seed permutes the
    per-coordinate value order (the search stays exhaustive). A single
    matrix degenerates to the plain witness search with x unconstrained.
    The budget is charged `charge_witness_search` first.
    """
    if not matrices:
        raise InputError("need at least one matrix")
    p, n = matrices[0].p, matrices[0].n
    b = current_budget(budget)
    charge_witness_search(p, n, b, matrices=len(matrices))
    for m in matrices:
        if (m.p, m.n) != (p, n):
            raise InputError("matrices must share p and n")
        if not m.is_nonsingular():
            raise InputError("matrices must be nonsingular")
    rows = [row for m in matrices for row in m.rows]
    orders = [range(p)] * n
    if seed is not None:
        rng = random.Random(seed)
        orders = [rng.sample(range(p), p) for _ in range(n)]
    return _witness(p, rows, [(0,)] * len(rows), orders, b)


# ---------------------------------------------------------------------------
# difference operators along unit vectors and along rows


@dataclass(frozen=True)
class FunctionTable:
    """A function F_p^n -> F_p as a dense value table."""

    p: int
    values: np.ndarray

    def __post_init__(self):
        p = _as_prime(self.p)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64) % p)
        if self.values.shape != (p,) * self.values.ndim:
            raise InputError("table must have shape (p,) * n")

    @property
    def n(self) -> int:
        return self.values.ndim

    @classmethod
    def random(cls, p: int, n: int, rng: random.Random) -> "FunctionTable":
        vals = np.array(
            [rng.randrange(p) for _ in range(p**n)], dtype=np.int64
        ).reshape((p,) * n)
        return cls(p, vals)

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def __eq__(self, other):
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.values, other.values)


def delta(f: FunctionTable, v: Sequence[int]) -> FunctionTable:
    """(delta_v f)(x) = f(x) - f(x + v)."""
    shift = [-int(a) for a in v]
    return FunctionTable(f.p, (f.values - _roll(f.values, shift, f.p)) % f.p)


def line_sum(f: FunctionTable, v: Sequence[int]) -> FunctionTable:
    """(L_v f)(x) = sum over t in F_p of f(x + t v)."""
    p = f.p
    acc = np.zeros_like(f.values)
    for t in range(p):
        acc = (acc + _roll(f.values, [-t * int(a) for a in v], p)) % p
    return FunctionTable(p, acc)


def image_membership_routes(
    f: FunctionTable, m: FpMatrix | None = None
) -> tuple[bool, bool]:
    """Both routes for membership in the image of the composed delta operators.

    Directions are the unit vectors, or the rows of m when given. Route one
    tests that every line sum along each direction vanishes. Route two works
    at the coefficient level: membership means the function is a polynomial
    of per-variable degree <= p-2 in the dual coordinates, which the
    interpolated coefficient tensor shows directly.
    """
    p, n = f.p, f.n
    if m is None:
        directions = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        table = f.values
    else:
        if (m.p, m.n) != (p, n):
            raise InputError("matrix does not match the table")
        directions = [list(row) for row in m.rows]
        # pull back through y -> transpose(M) y; membership along the rows of
        # M becomes membership along unit vectors for the pulled-back table
        points = _vectors(p, n)
        mt = np.array(m.transpose().rows, dtype=np.int64)
        images = points @ mt.T % p
        flat = f.values[tuple(images.T)]
        table = flat.reshape((p,) * n)
    by_sums = all(
        line_sum(f, v).is_zero() for v in directions
    )
    coeffs = _interpolate_dense(table, p)
    by_coeffs = True
    for axis in range(n):
        slab = np.take(coeffs, p - 1, axis=axis)
        if np.any(slab):
            by_coeffs = False
            break
    return by_sums, by_coeffs


class PairingReport(NamedTuple):
    """Outcome of the orthogonality test between the two delta images."""

    p: int
    n: int
    p4: bool
    trials: int
    seed: int
    nonzero_pairings: int
    exhaustive: bool
    converse_confirmed: bool

    @property
    def ok(self) -> bool:
        # the proved direction: a vanishing product forces zero pairings
        return not (self.p4 and self.nonzero_pairings > 0)

    def to_json(self) -> dict:
        out = self._asdict()
        out["P4"] = out.pop("p4")
        out["ok"] = self.ok
        return out


def _table_from_coeffs(coeffs, p: int, n: int) -> np.ndarray:
    """The values of the polynomial of per-variable degree <= p-2 whose
    (p-1,) * n coefficient tensor holds `coeffs` in C order."""
    full = np.zeros((p,) * n, dtype=np.int64)
    full[(slice(0, p - 1),) * n] = np.reshape(coeffs, (p - 1,) * n)
    return _eval_dense(full, p)


def charge_pairing(p: int, n: int, trials: int, budget: Budget) -> None:
    """pairing_test's charge: its p^n table, and 2 * p^n nodes a trial, which
    evaluates two such tables."""
    budget.check_entries_power(p, n, what="pairing table")
    budget.check_nodes(trials * 2 * p**n, what="pairing trials")


def pairing_test(
    m: FpMatrix,
    trials: int = 200,
    seed: int = 0,
    budget: Budget | str | None = None,
) -> PairingReport:
    """Sample the pairing sum_x f(x) g(x) over the two delta images.

    f runs over the image of the unit-direction deltas (per-variable degree
    <= p-2); g over the image of the row-direction deltas (polynomials in
    the dual coordinates with per-variable degree <= p-2). When the P4
    product vanishes every pairing must be zero; that direction is asserted
    by ok. The converse is reported: with P4 false, a nonzero pairing is
    searched for (exhaustively over the basis when the budget allows).
    """
    p, n = m.p, m.n
    b = current_budget(budget)
    charge_pairing(p, n, trials, b)
    p4 = check_p4(m, budget=b)
    rng = random.Random(seed)
    minv = m.invert()
    # g(x) = h(transpose(M') x) with M' the inverse; build by substitution
    points = _vectors(p, n)
    mprime = np.array(minv.rows, dtype=np.int64)
    subst = points @ mprime % p  # row x gives transpose(M') x
    draws = (p - 1) ** n
    nonzero = 0
    for _ in range(trials):
        f_table = _table_from_coeffs([rng.randrange(p) for _ in range(draws)], p, n)
        h_table = _table_from_coeffs([rng.randrange(p) for _ in range(draws)], p, n)
        g_flat = h_table[tuple(subst.T)]
        pairing = int((f_table.ravel() * g_flat).sum() % p)
        if pairing:
            nonzero += 1
    exhaustive = False
    converse = nonzero > 0
    if not p4 and nonzero == 0:
        # basis scan: f = x^b, h = y^c over b, c in [0, p-2]^n, the monomial
        # x^b given by the one coefficient at b's C-order index
        if (p - 1) ** (2 * n) * p**n <= b.nodes:
            exhaustive = True
            monomials = [np.arange(draws) == i for i in range(draws)]
            basis_f = [_table_from_coeffs(c, p, n).ravel() for c in monomials]
            for c in monomials:
                g_flat = _table_from_coeffs(c, p, n)[tuple(subst.T)]
                for f_flat in basis_f:
                    if int((f_flat * g_flat).sum() % p):
                        converse = True
                        break
                if converse:
                    break
    return PairingReport(
        p=p,
        n=n,
        p4=p4,
        trials=trials,
        seed=seed,
        nonzero_pairings=nonzero,
        exhaustive=exhaustive,
        converse_confirmed=converse,
    )


# ---------------------------------------------------------------------------
# scaling invariance and the full report


class InvarianceReport(NamedTuple):
    """Vanishing of the scaled factor products against the unscaled one."""

    p: int
    n: int
    base: bool
    trials: int
    seed: int
    mismatches: tuple[dict, ...]


def multiplier_invariance_test(
    m: FpMatrix,
    t: Sequence[int] | None = None,
    t_prime: Sequence[int] | None = None,
    trials: int = 100,
    seed: int = 0,
    budget: Budget | str | None = None,
) -> InvarianceReport:
    """Vanishing of the F_p factor product is blind to nonzero scalings.

    Replaces e_i by lambda_i e_i and a_i by mu_i a_i with random nonzero
    scalars and rechecks; every trial must agree with the unscaled verdict.
    """
    p, n = m.p, m.n
    if t is None:
        t = [1] * n
    if t_prime is None:
        t_prime = [1] * n
    base = check_p4(m, t=t, t_prime=t_prime, budget=budget)
    rng = random.Random(seed)
    mismatches = []
    for trial in range(trials):
        lams = [rng.randrange(1, p) for _ in range(n)]
        mus = [rng.randrange(1, p) for _ in range(n)]
        vectors = [
            tuple(lams[i] if j == i else 0 for j in range(n)) for i in range(n)
        ]
        vectors += [
            tuple(mus[i] * a % p for a in row) for i, row in enumerate(m.rows)
        ]
        spec = FactorSpec(
            p=p,
            n=n,
            vectors=tuple(vectors),
            exponents=tuple(t) + tuple(t_prime),
        )
        scaled = product_of_factors(spec, ModPRing, budget=budget).is_zero()
        if scaled != base:
            mismatches.append(
                {"trial": trial, "lambdas": lams, "mus": mus, "scaled": scaled}
            )
    return InvarianceReport(
        p=p,
        n=n,
        base=base,
        trials=trials,
        seed=seed,
        mismatches=tuple(mismatches),
    )


class PropertyReport(NamedTuple):
    """All five properties for one matrix and forbidden spec, plus violations."""

    matrix: FpMatrix
    spec: ForbiddenSpec
    p1_witness: tuple[int, ...] | None
    p2: bool
    p3: bool
    p4: bool
    p5: bool

    @property
    def p1(self) -> bool:
        return self.p1_witness is None

    @property
    def violations(self) -> tuple[str, ...]:
        out = []
        if self.p1 != self.p2:
            out.append("P1 != P2")
        if self.p2 != self.p3:
            out.append("P2 != P3")
        if self.p3 and not self.p4:
            out.append("P3 without P4")
        if self.p4 and not self.p5:
            out.append("P4 without P5")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "forbidden": self.spec.to_json(),
            "P1": {
                "vanishes": self.p1,
                "witness": list(self.p1_witness) if self.p1_witness else None,
            },
            "P2": self.p2,
            "P3": self.p3,
            "P4": self.p4,
            "P5": self.p5,
            "violations": list(self.violations),
        }


def charge_check_all(p: int, n: int, budget: Budget) -> None:
    """check_all's checks before it reads the matrix: p > 3, and P3's
    p^(n+1) table, the largest any property builds."""
    if p <= 3:
        raise InputError("the property chain needs p > 3")
    budget.check_entries_power(p, n + 1, what="group-ring table")


def check_all(
    m: FpMatrix,
    spec: ForbiddenSpec | None = None,
    budget: Budget | str | None = None,
) -> PropertyReport:
    """Run P1 through P5 for one matrix; requires p > 3.

    The budget is resolved once and `charge_check_all` runs before the
    determinant and the P1 search.
    """
    p, n = m.p, m.n
    b = current_budget(budget)
    charge_check_all(p, n, b)
    if not m.is_nonsingular():
        raise InputError("the property chain is stated for nonsingular matrices")
    if spec is None:
        spec = ForbiddenSpec.default(p, n)
    if (spec.p, spec.n) != (p, n):
        raise InputError("forbidden spec does not match the matrix")
    witness = check_p1(m, spec, budget=b)
    p2 = check_p2(m, spec.c_lists, spec.d_lists, budget=b)
    p3 = check_p3(m, spec.c_lists, spec.d_lists, budget=b)
    p4 = check_p4(m, t=spec.t, t_prime=spec.t_prime, budget=b)
    p5 = check_p5(m, t=spec.t, t_prime=spec.t_prime, budget=b)
    return PropertyReport(
        matrix=m, spec=spec, p1_witness=witness, p2=p2, p3=p3, p4=p4, p5=p5
    )

"""Group rings R[(Z/p)^n] with R one of Z, F_p, or the cyclotomic integers.

An element is one dense integer table indexed by group vectors, and
multiplying by a group element g^v rotates the table along each axis, one
gather per axis. Z[w][(Z/p)^n], with w a primitive p-th root of unity, is
held as the integer group ring of (Z/p)^(n+1): the table has one more trailing
axis of length p, indexed by the power of w, so multiplying by w^k is a
gather along that axis. The kernel of
Z[x]/(x^p - 1) -> Z[w] is Z * (1 + x + ... + x^(p-1)), so an element is zero
exactly when its table is constant along the w axis. F_p tables are the
integer tables reduced mod p. Zero tests are exact integer decisions, and the
vanishing checks below are the translation layer between nowhere-zero
statements about matrices and products of factors (1 - phase * g^v).

Factor products are the only multiplication: `GroupRingElem` is the value a
product returns, with equality and a zero test but no ring arithmetic.
`product_of_factors` expands its factors with `_expand`, one `_roll` a
factor, and this module is the one home of both: the pure twin of
`kernels.products_vanish` (in `_kernels_py`, which loads only without the
compiled extension) expands a sweep stack's shared factors with `_expand`
and applies each last row with one `_roll` of that table, and `properties`'
difference operators roll with `_roll`. This module imports neither
`kernels` nor `_kernels_py`. `properties.sweep_verdicts` is the one layer
that validates and charges a sweep stack.
`sigma_of_factors` stacks the elementary symmetric functions of the factors
as one table stack, one roll of the stack per factor.

Tables are int64 while every entry is provably below 2^62 in absolute value,
and Python ints (dtype=object) otherwise, so values never wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .budget import Budget, current_budget
from .errors import InputError
from .fp_core import FpMatrix, _as_prime


class _RingTag:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


IntegerRing = _RingTag("IntegerRing")
ModPRing = _RingTag("ModPRing")
CyclotomicRing = _RingTag("CyclotomicRing")

_RINGS = (IntegerRing, ModPRing, CyclotomicRing)

def _shape(p: int, n: int, ring: _RingTag) -> tuple[int, ...]:
    return (p,) * (n + (ring is CyclotomicRing))


_INT64_BOUND = 2**62


def _exact(table: np.ndarray, bound: int) -> np.ndarray:
    """The table in a dtype exact for entries up to `bound` in absolute value.

    Below 2^62 that is int64, and the difference of two entries, which the
    Z[w] zero test takes, still fits."""
    return table.astype(np.int64 if bound < _INT64_BOUND else object, copy=False)


@lru_cache(maxsize=None)
def _rotation(p: int) -> np.ndarray:
    """rot[s, i] = (i - s) % p: gathering a length-p axis at rot[s] rolls it by s.

    A read-only (p, p) window view of 0..p-1 repeated twice, so it holds 2p
    entries, not p^2.
    """
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(np.arange(p), 2), p)
    return windows[p:0:-1]


def _roll(table: np.ndarray, shifts: Sequence[int], p: int) -> np.ndarray:
    """The last len(shifts) axes of `table` rolled as numpy.roll does, one
    gather per axis through the rotation table.

    Axes with shift 0 mod p are not copied, so the result may be `table`
    itself.
    """
    rot = _rotation(p)
    for axis, s in enumerate(shifts, table.ndim - len(shifts)):
        if s % p:
            table = table[(slice(None),) * axis + (rot[s % p],)]
    return table


def _expand(p: int, d: int, shifts: Sequence[Sequence[int]]) -> np.ndarray:
    """The product prod_k (1 - g^(shifts[k])) over Z, a table of shape (p,) * d.

    Each factor is `t = t - roll(t, shift)`, one `_roll`. The entries of a
    product of m >= 1 factors (1 - x) sum to 0 and have absolute sum at most
    2^m, so none exceeds 2^(m-1): the table is int64 for up to 62 factors and
    Python ints beyond.
    """
    table = np.zeros((p,) * d, dtype=np.int64)
    table[(0,) * d] = 1
    table = _exact(table, 2 ** len(shifts) // 2)
    for s in shifts:
        table = table - _roll(table, s, p)
    return table


class GroupRingElem:
    """A dense element of R[(Z/p)^n]; coefficients indexed by group vectors.

    Over Z[w] the table has shape (p,) * (n + 1): entry (v, k) is the
    coefficient of w^k * g^v. Over Z and F_p it has shape (p,) * n, and F_p
    entries are kept in [0, p-1]. A table is int64 with every entry below
    2^62 in absolute value, or dtype=object.
    """

    __slots__ = ("p", "n", "ring", "coeffs")

    def __init__(self, p: int, n: int, ring: _RingTag, coeffs: np.ndarray):
        self.p = _as_prime(p)
        self.n = int(n)
        if ring not in _RINGS:
            raise InputError(f"unknown ring {ring!r}")
        self.ring = ring
        if coeffs.shape != _shape(self.p, self.n, ring):
            raise InputError("coefficient table has the wrong shape")
        self.coeffs = coeffs

    def normalized(self) -> np.ndarray:
        """The table in its unique form.

        Over Z[w] the entry at w^(p-1) is subtracted along the w axis, which
        leaves each coefficient's coordinates on 1, w, ..., w^(p-2) and a zero
        last slot. Z and F_p tables are returned as they are.
        """
        if self.ring is not CyclotomicRing:
            return self.coeffs
        return self.coeffs - self.coeffs[..., -1:]

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.normalized())

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return (self.p, self.n, self.ring) == (other.p, other.n, other.ring) and (
            np.array_equal(self.normalized(), other.normalized())
        )

    def __repr__(self):
        return (
            f"GroupRingElem(p={self.p}, n={self.n}, ring={self.ring}, "
            f"support={np.count_nonzero(self.normalized())})"
        )


@dataclass(frozen=True)
class FactorSpec:
    """A product of factors (1 - phase * g^v) grouped by base vector.

    vectors[i] appears exponents[i] times; phases, when given, holds one
    phase exponent per repetition (the factor is 1 - w^(-phase) * g^v) and
    the phases of one vector must be pairwise distinct mod p.
    """

    p: int
    n: int
    vectors: tuple[tuple[int, ...], ...]
    exponents: tuple[int, ...]
    phases: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if len(self.exponents) != len(self.vectors):
            raise InputError("one exponent per vector")
        if any(e < 0 for e in self.exponents):
            raise InputError("exponents must be nonnegative")
        if any(len(v) != self.n for v in self.vectors):
            raise InputError("vectors must have length n")
        if self.phases is not None:
            if len(self.phases) != len(self.vectors):
                raise InputError("one phase tuple per vector")
            for ph, e in zip(self.phases, self.exponents):
                if len(ph) != e:
                    raise InputError("need one phase per factor repetition")
                if len({c % self.p for c in ph}) != len(ph):
                    raise InputError("phases of one vector must be distinct mod p")

    @classmethod
    def from_matrix(
        cls,
        m: FpMatrix,
        t: Sequence[int] | None = None,
        t_prime: Sequence[int] | None = None,
        c_lists: Sequence[Sequence[int]] | None = None,
        d_lists: Sequence[Sequence[int]] | None = None,
    ) -> "FactorSpec":
        """Factors for the unit vectors (exponents t, phases c) then the rows
        of m (exponents t', phases d)."""
        p, n = m.p, m.n
        if c_lists is not None:
            t = [len(c) for c in c_lists]
        elif t is None:
            t = [1] * n
        if d_lists is not None:
            t_prime = [len(d) for d in d_lists]
        elif t_prime is None:
            t_prime = [1] * n
        if len(t) != n or len(t_prime) != n:
            raise InputError("need one exponent per coordinate")
        vectors = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        vectors += [tuple(row) for row in m.rows]
        exponents = tuple(t) + tuple(t_prime)
        phases = None
        if c_lists is not None or d_lists is not None:
            if c_lists is None or d_lists is None:
                raise InputError("give both phase families or neither")
            phases = tuple(tuple(int(x) for x in ph) for ph in c_lists) + tuple(
                tuple(int(x) for x in ph) for ph in d_lists
            )
        return cls(
            p=p, n=n, vectors=tuple(vectors), exponents=exponents, phases=phases
        )


def product_of_factors(
    spec: FactorSpec, ring: _RingTag, budget: Budget | str | None = None
) -> GroupRingElem:
    """Expand the factor product as a dense group-ring element.

    The product is computed over Z (see `_expand`); the F_p product is that
    table reduced mod p.
    """
    b = current_budget(budget)
    shape = _shape(spec.p, spec.n, ring)
    b.check_entries(spec.p ** len(shape), what="group-ring table")
    if spec.phases is not None and ring is not CyclotomicRing:
        raise InputError("phases require the cyclotomic coefficient ring")
    # over Z[w] a factor 1 - w^(-phase) * g^v also rolls the w axis by -phase
    shifts = []
    for i, (v, e) in enumerate(zip(spec.vectors, spec.exponents)):
        shift = tuple(int(a) % spec.p for a in v)
        if ring is CyclotomicRing:
            phases = spec.phases[i] if spec.phases else (0,) * e
            shifts += [shift + (-c % spec.p,) for c in phases]
        else:
            shifts += [shift] * e
    table = _expand(spec.p, len(shape), shifts)
    if ring is ModPRing:
        table = _exact(table % spec.p, spec.p)
    return GroupRingElem(spec.p, spec.n, ring, table)


def check_p4(
    m: FpMatrix,
    t: Sequence[int] | None = None,
    t_prime: Sequence[int] | None = None,
    budget: Budget | str | None = None,
) -> bool:
    """Vanishing of prod (1-g^(e_i))^(t_i) * prod (1-g^(a_i))^(t'_i) over F_p."""
    spec = FactorSpec.from_matrix(m, t=t, t_prime=t_prime)
    return product_of_factors(spec, ModPRing, budget=budget).is_zero()


def check_p3(
    m: FpMatrix,
    c_lists: Sequence[Sequence[int]],
    d_lists: Sequence[Sequence[int]],
    budget: Budget | str | None = None,
) -> bool:
    """Vanishing of the phased factor product over the cyclotomic integers.

    Factor i,k for the unit vectors is 1 - w^(-c_{i,k}) g^(e_i), and for the
    rows 1 - w^(-d_{i,k}) g^(a_i). Exact integer arithmetic, so this decides
    the complex-coefficient vanishing.
    """
    spec = FactorSpec.from_matrix(m, c_lists=c_lists, d_lists=d_lists)
    return product_of_factors(spec, CyclotomicRing, budget=budget).is_zero()


def sigma_nodes(p: int, n: int, budget: Budget) -> int:
    """Charge sigma_of_factors' (2n+1) * p^n stack as entries; returns its nodes."""
    what = "group-ring sigma stack"
    budget.check_entries_power(p, n, what=what)
    size = (2 * n + 1) * p**n
    budget.check_entries(size, what=what)
    return size


def sigma_of_factors(
    m: FpMatrix, budget: Budget | str | None = None
) -> list[GroupRingElem]:
    """Elementary symmetric functions sigma_0..sigma_2n of the 2n factors
    (1-g^(e_1)), ..., (1-g^(e_n)), (1-g^(a_1)), ..., (1-g^(a_n)) over F_p.

    The sigmas are one (2n+1, p, ..., p) stack, and each factor (1 - g^v)
    adds sigma_(j-1) * (1 - g^v) to every sigma_j with one roll of the
    stack. The budget is charged `sigma_nodes` first.
    """
    b = current_budget(budget)
    p, n = m.p, m.n
    b.check_nodes(sigma_nodes(p, n, b), what="group-ring sigma stack")
    stack = np.zeros((2 * n + 1,) + (p,) * n, dtype=np.int64)
    stack[(0,) * (n + 1)] = 1
    for v in FactorSpec.from_matrix(m).vectors:
        stack[1:] = (stack[1:] + stack[:-1] - _roll(stack[:-1], v, p)) % p
    return [GroupRingElem(p, n, ModPRing, table) for table in stack]


class SigmaReport(NamedTuple):
    """Which sigma_(2n-i) vanish for i = 0..p-1; all must for a candidate."""

    p: int
    n: int
    vanishing: tuple[bool, ...]

    @property
    def candidate(self) -> bool:
        return all(self.vanishing)


def sigma_vanishing_candidate(
    m: FpMatrix, budget: Budget | str | None = None
) -> SigmaReport:
    """Test sigma_(2n-i) == 0 for all 0 <= i <= p-1.

    Out-of-range indices count as vanishing (sigma_j = 0 for j < 0 or
    j > 2n) except sigma_0 = 1, which never vanishes; so the candidate
    test is decidably false whenever 2n <= p - 1.
    """
    sigmas = sigma_of_factors(m, budget=budget)
    p, n = m.p, m.n
    flags = []
    for i in range(p):
        j = 2 * n - i
        if j == 0:
            flags.append(False)
        elif j < 0 or j > 2 * n:
            flags.append(True)
        else:
            flags.append(sigmas[j].is_zero())
    return SigmaReport(p=p, n=n, vanishing=tuple(flags))

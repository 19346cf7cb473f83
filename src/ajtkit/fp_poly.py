"""Polynomials over F_p reduced by the relation x^p = x on nonzero exponents.

The reduction rule sends exponent e to ((e - 1) mod (p - 1)) + 1 for e >= 1
and keeps 0; it preserves the polynomial as a function on F_p. Reduced
polynomials have every exponent in [0, p-1], and two of them agree as
functions exactly when they agree coefficientwise, so vanishing checks are
coefficient checks. A reduced polynomial in n variables is one int64 tensor
of shape (p,) * n, indexed by exponent vector, with entries in [0, p).

Every polynomial behind the verdicts (P2, P5, duality and the coefficient
route of the scalar-product condition) is a product of affine factors:
<a_i, x> - d, x_i - c, <row, x> and x_j. Each verdict lists its factors and
makes one kernels.affine_product call, which multiplies the tensor by them
one pass per factor, compiled when the extension is built. Powers of forms
with one term, c x_j, and the monomials x^t are one term together, so
_form_product starts from that term's tensor and lists them as no factor.

mul_reduce, the product of two general reduced polynomials, has two
independent routes. The shift route adds one shifted copy of one factor per
nonzero term of the other: multiplying by x_i^e rotates exponents 1..p-1
along axis i by e and moves exponent 0 to e. The interpolate route evaluates
both factors through the Vandermonde matrix, multiplies the value tables
pointwise and interpolates back. Both land on the same canonical form and
tests compare them with each other and with affine_product; shift is the
default, and nothing picks between them by size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import kernels
from .budget import Budget, current_budget
from .errors import InputError
from .fp_core import FpMatrix, _as_prime

ExponentVector = tuple[int, ...]


def reduce_exponent(e: int, p: int) -> int:
    """0 stays 0; positive e maps into [1, p-1] preserving e mod (p-1)."""
    if e < 0:
        raise InputError("exponents must be nonnegative")
    if e == 0:
        return 0
    return (e - 1) % (p - 1) + 1


class ReducedPoly:
    """A polynomial over F_p in canonical reduced form.

    Stored as an int64 tensor of shape (p,) * n whose entry at an exponent
    vector is that term's coefficient in [0, p-1]. The tensor has p^n
    entries however few terms are nonzero, so callers charge it to their
    budget (`charge_product`) before building one.
    """

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs: np.ndarray):
        self.p = _as_prime(p)
        self.n = int(n)
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p: int, n: int) -> "ReducedPoly":
        return cls(p, n, np.zeros((p,) * n, dtype=np.int64))

    @classmethod
    def constant(cls, p: int, n: int, c: int) -> "ReducedPoly":
        return cls.from_terms(p, n, [((0,) * n, c)])

    @classmethod
    def monomial(cls, p: int, n: int, exps: Sequence[int], coeff: int = 1) -> "ReducedPoly":
        return cls.from_terms(p, n, [(tuple(exps), coeff)])

    @classmethod
    def from_terms(
        cls, p: int, n: int, terms: Iterable[tuple[Sequence[int], int]]
    ) -> "ReducedPoly":
        """Reduce a raw term stream into canonical form."""
        p = _as_prime(p)
        out = cls.zero(p, n)
        for exps, c in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise InputError("exponent vector has the wrong length")
            key = tuple(reduce_exponent(e, p) for e in exps)
            out.coeffs[key] = (int(out.coeffs[key]) + int(c)) % p
        return out

    def terms(self) -> list[tuple[ExponentVector, int]]:
        """The nonzero terms, in increasing exponent order."""
        where = np.flatnonzero(self.coeffs)
        exps = np.unravel_index(where, self.coeffs.shape)
        return list(zip(zip(*(e.tolist() for e in exps)), self.coeffs.ravel()[where].tolist()))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coeff(self, exps: Sequence[int]) -> int:
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.n or any(not 0 <= e <= self.p - 1 for e in exps):
            raise InputError("coefficient lookup requires reduced exponents")
        return int(self.coeffs[exps])

    def total_degree(self) -> int:
        """Max total degree of the canonical form; -1 for the zero polynomial."""
        exps = np.unravel_index(np.flatnonzero(self.coeffs), self.coeffs.shape)
        return int(sum(exps).max(initial=-1))

    def _same_space(self, other: "ReducedPoly") -> None:
        if not isinstance(other, ReducedPoly):
            raise InputError("expected a ReducedPoly")
        if (other.p, other.n) != (self.p, self.n):
            raise InputError("polynomials live over different spaces")

    def __mul__(self, other: "ReducedPoly") -> "ReducedPoly":
        return mul_reduce(self, other)

    def __eq__(self, other):
        if not isinstance(other, ReducedPoly):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __repr__(self):
        terms = np.count_nonzero(self.coeffs)
        return f"ReducedPoly(p={self.p}, n={self.n}, terms={terms})"

    def evaluate(self, point: Sequence[int]) -> int:
        point = [int(x) % self.p for x in point]
        total = 0
        for exps, c in self.terms():
            term = c
            for x, e in zip(point, exps):
                term = term * pow(x, e, self.p) % self.p
            total = (total + term) % self.p
        return total


@lru_cache(maxsize=None)
def vandermonde(p: int) -> np.ndarray:
    """V[t, e] = t^e mod p for t, e in [0, p-1]; 0^0 = 1."""
    v = np.ones((p, p), dtype=np.int64)
    for t in range(p):
        for e in range(1, p):
            v[t, e] = v[t, e - 1] * t % p
    return v


@lru_cache(maxsize=None)
def vandermonde_inverse(p: int) -> np.ndarray:
    inv = FpMatrix([list(row) for row in vandermonde(p)], p).invert()
    return np.array(inv.rows, dtype=np.int64)


def _eval_dense(dense: np.ndarray, p: int) -> np.ndarray:
    """Apply the Vandermonde matrix along every axis: coefficients -> values."""
    out = dense % p
    v = vandermonde(p)
    for axis in range(dense.ndim):
        out = np.moveaxis(np.tensordot(v, out, axes=([1], [axis])) % p, 0, axis)
    return out


def _interpolate_dense(values: np.ndarray, p: int) -> np.ndarray:
    """Inverse of _eval_dense: values -> canonical coefficients."""
    out = values % p
    vinv = vandermonde_inverse(p)
    for axis in range(values.ndim):
        out = np.moveaxis(np.tensordot(vinv, out, axes=([1], [axis])) % p, 0, axis)
    return out


@lru_cache(maxsize=None)
def _shift_index(p: int, e: int) -> np.ndarray:
    """Source slot of each target slot when one axis is multiplied by x^e.

    Exponents 1..p-1 rotate by e, so x^(p-1) * x^e = x^e. Target 0 reads
    source 0, whose terms belong at slot e: `_shift` moves them there.
    """
    index = (np.arange(p) - e - 1) % (p - 1) + 1
    index[0] = 0
    index.flags.writeable = False
    return index


def _shift(coeffs: np.ndarray, exps: ExponentVector, p: int) -> np.ndarray:
    """The tensor of the polynomial times x^exps, exps reduced.

    Each nonzero exponent at most doubles the largest entry, so they are not
    reduced here. Returns `coeffs` itself when every exponent is 0.
    """
    for axis, e in enumerate(exps):
        if e:
            coeffs = coeffs.take(_shift_index(p, e), axis=axis)
            lead = (slice(None),) * axis
            coeffs[lead + (e,)] += coeffs[lead + (0,)]
            coeffs[lead + (0,)] = 0
    return coeffs


def mul_reduce(f: ReducedPoly, g: ReducedPoly, route: str = "shift") -> ReducedPoly:
    """Product in canonical reduced form.

    route 'shift' adds c * g * x^e for each nonzero term c * x^e of the
    sparser factor; route 'interpolate' multiplies the value tables
    pointwise and interpolates back. The canonical form is the unique
    representative with all exponents <= p-1, so the routes agree.
    """
    f._same_space(g)
    p, n = f.p, f.n
    if route == "shift":
        if np.count_nonzero(f.coeffs) > np.count_nonzero(g.coeffs):
            f, g = g, f
        out = np.zeros(g.coeffs.shape, dtype=np.int64)
        for exps, c in f.terms():
            # out < p before each term and the term is below 2^n * p^2, so
            # reducing after every term keeps the sum inside int64
            out += c * _shift(g.coeffs, exps, p)
            out %= p
        return ReducedPoly(p, n, out)
    if route == "interpolate":
        # evaluation is a bijection between polynomials with exponents
        # <= p-1 and functions on the grid, so interpolating the pointwise
        # product lands on the same canonical form as the shift route
        values = _eval_dense(f.coeffs, p) * _eval_dense(g.coeffs, p) % p
        return ReducedPoly(p, n, _interpolate_dense(values, p))
    raise InputError(f"unknown route {route!r}")


def _one(p: int, n: int) -> np.ndarray:
    """The tensor of the constant polynomial 1."""
    one = np.zeros((p,) * n, dtype=np.int64)
    one[(0,) * n] = 1
    return one


def _unit(n: int, j: int) -> tuple[int, ...]:
    """The coefficients of x_j among x_1..x_n."""
    return tuple(int(i == j) for i in range(n))


def _form_product(
    p: int,
    forms: Sequence[Sequence[int]],
    powers: Sequence[int],
    monomial: Sequence[int] = (),
) -> ReducedPoly:
    """prod_i <forms[i], x>^(powers[i]) * x^monomial, in one affine_product.

    Every power is reduced first: on F_p, y^k and y^reduce_exponent(k) are
    the same function of y, and the canonical form depends only on the
    function. So each form is listed at most p - 1 times. A one-term form
    c x_j and the monomial cost no pass: (c x_j)^k is c^k x_j^k, so they
    make one term, c^k's product at the exponents summed per axis and then
    reduced, and that term is the tensor the other forms multiply.
    """
    if any(k < 0 for k in powers):
        raise InputError("negative powers are not defined")
    n = len(forms[0])
    coeff, exps = 1, [0] * n
    for j, t in enumerate(monomial):
        exps[j] = reduce_exponent(int(t), p)
    factors = []
    for coefficients, k in zip(forms, powers):
        form = [int(c) % p for c in coefficients]
        terms = [j for j, c in enumerate(form) if c]
        if len(terms) == 1:
            coeff = coeff * pow(form[terms[0]], int(k), p) % p
            exps[terms[0]] += int(k)
        else:
            factors += [(0, *form)] * reduce_exponent(k, p)
    start = np.zeros((p,) * n, dtype=np.int64)
    start[tuple(reduce_exponent(e, p) for e in exps)] = coeff
    if factors:
        start = kernels.affine_product(start, p, factors)
    return ReducedPoly(p, n, start)


def charge_product(p: int, n: int, budget: Budget) -> int:
    """Charge one reduced product's (p,) * n tensor as entries; returns p^n."""
    budget.check_entries_power(p, n, what="reduced product")
    return p**n


def check_p2(
    m: FpMatrix,
    c_lists: Sequence[Sequence[int]],
    d_lists: Sequence[Sequence[int]],
    budget: Budget | str | None = None,
) -> bool:
    """Vanishing of the forbidden-value product as a reduced polynomial.

    h = prod_i prod_k (<a_i, x> - d_{i,k}) * prod_i prod_k (x_i - c_{i,k});
    the reduced form is zero exactly when h is zero at every point.
    """
    p, n = m.p, m.n
    charge_product(p, n, current_budget(budget))
    factors = [(-int(d) % p, *row) for i, row in enumerate(m.rows) for d in d_lists[i]]
    factors += [(-int(c) % p, *_unit(n, i)) for i in range(n) for c in c_lists[i]]
    return not kernels.affine_product(_one(p, n), p, factors).any()


def check_p5(
    m: FpMatrix,
    t: Sequence[int] | None = None,
    t_prime: Sequence[int] | None = None,
    budget: Budget | str | None = None,
) -> bool:
    """Degree drop of f = prod_i <a_i, x>^(t'_i) * prod_i x_i^(t_i).

    True when the reduced form has total degree strictly below
    sum(t) + sum(t').
    """
    p, n = m.p, m.n
    charge_product(p, n, current_budget(budget))
    if t is None:
        t = [1] * n
    if t_prime is None:
        t_prime = [1] * n
    if len(t) != n:
        raise InputError("exponent vector has the wrong length")
    f = _form_product(p, m.rows, t_prime, monomial=t)
    return f.total_degree() < sum(t) + sum(t_prime)


class DualityResult(NamedTuple):
    """Both sides of the row/column coefficient duality at one (r, s) pair."""

    p: int
    n: int
    r: tuple[int, ...]
    s: tuple[int, ...]
    lhs_coeff: int
    rhs_coeff: int

    @property
    def lhs_zero(self) -> bool:
        return self.lhs_coeff == 0

    @property
    def rhs_zero(self) -> bool:
        return self.rhs_coeff == 0

    @property
    def agree(self) -> bool:
        return self.lhs_zero == self.rhs_zero

    def factorial_relation_holds(self) -> bool:
        """prod(s_i!) * lhs == prod(r_i!) * rhs mod p (exact over Z before
        reduction; the balanced degrees keep reduction out of the picture)."""
        sf = 1
        for x in self.s:
            sf = sf * math.factorial(x) % self.p
        rf = 1
        for x in self.r:
            rf = rf * math.factorial(x) % self.p
        return (sf * self.lhs_coeff - rf * self.rhs_coeff) % self.p == 0

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "r": list(self.r),
            "s": list(self.s),
            "lhs_zero": self.lhs_zero,
            "rhs_zero": self.rhs_zero,
            "agree": self.agree,
            "factorial_relation": self.factorial_relation_holds(),
        }


def duality_nodes(p: int, n: int, budget: Budget) -> int:
    """Charge duality_check's two products as entries; returns their nodes."""
    return 2 * charge_product(p, n, budget)


def duality_check(
    m: FpMatrix,
    r: Sequence[int],
    s: Sequence[int],
    budget: Budget | str | None = None,
) -> DualityResult:
    """Coefficient duality between the rows of m and the columns of m.

    With sum(r) == sum(s) (else InputError) and entries in [0, p-1]:
    the coefficient of x^s in prod_i <row_i, x>^(r_i) vanishes exactly when
    the coefficient of x^r in prod_j <col_j, x>^(s_j) does.
    """
    p, n = m.p, m.n
    b = current_budget(budget)
    b.check_nodes(duality_nodes(p, n, b), what="duality products")
    r = tuple(int(x) for x in r)
    s = tuple(int(x) for x in s)
    if len(r) != n or len(s) != n:
        raise InputError("need one exponent per coordinate on both sides")
    if any(not 0 <= x <= p - 1 for x in r + s):
        raise InputError("exponents must lie in [0, p-1]")
    if sum(r) != sum(s):
        raise InputError(f"sum(r) = {sum(r)} differs from sum(s) = {sum(s)}")
    lhs = _form_product(p, m.rows, r)
    rhs = _form_product(p, list(zip(*m.rows)), s)
    return DualityResult(
        p=p, n=n, r=r, s=s, lhs_coeff=lhs.coeff(s), rhs_coeff=rhs.coeff(r)
    )


def scalar_product_condition(
    m: FpMatrix,
    r: Sequence[int],
    s: Sequence[int],
    route: str = "auto",
    budget: Budget | str | None = None,
) -> int:
    """The full-grid sum of prod_i <a_i, x>^(r_i) * prod_j x_j^(s_j), mod p.

    Exponents must lie in [1, p-1]. Route 'evaluate' sums over the grid;
    route 'coefficient' reads the sum off the reduced product: only the
    all-(p-1) monomial survives the power-sum filter, with sign (-1)^n.
    """
    p, n = m.p, m.n
    b = current_budget(budget)
    r = tuple(int(x) for x in r)
    s = tuple(int(x) for x in s)
    if len(r) != n or len(s) != n:
        raise InputError("need one exponent per coordinate on both sides")
    if any(not 1 <= x <= p - 1 for x in r + s):
        raise InputError("exponents must lie in [1, p-1]")
    if route == "auto":
        route = "evaluate" if p**n <= 2**20 and p**n <= b.entries else "coefficient"
    if route == "evaluate":
        b.check_entries(p**n, what="grid evaluation")
        # the grid as a (p,) * n tensor: x[j] holds x_j along axis j, and a
        # form's values broadcast from them, so no (p^n, n) table of points
        # is built; v -> v^e mod p is a table of p entries indexed by values
        x = [np.arange(p).reshape((p,) + (1,) * (n - 1 - j)) for j in range(n)]
        vals = np.ones((p,) * n, dtype=np.int64)
        for i, row in enumerate(m.rows):
            form = sum(c * x[j] for j, c in enumerate(row)) % p
            for values, e in ((form, r[i]), (x[i], s[i])):
                vals *= np.array([pow(v, e, p) for v in range(p)], dtype=np.int64)[values]
                vals %= p
        return int(vals.sum() % p)
    if route == "coefficient":
        charge_product(p, n, b)
        c = _form_product(p, m.rows, r, monomial=s).coeff((p - 1,) * n)
        return c * pow(-1, n, p) % p
    raise InputError(f"unknown route {route!r}")

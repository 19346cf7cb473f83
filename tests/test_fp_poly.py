"""Reduced polynomials, coefficient duality, scalar-product conditions."""

import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ajtkit import kernels
from ajtkit.errors import InputError
from ajtkit.fp_core import FpMatrix, random_nonsingular
from ajtkit.fp_poly import (
    ReducedPoly,
    check_p2,
    check_p5,
    duality_check,
    _eval_dense,
    _form_product,
    mul_reduce,
    reduce_exponent,
    scalar_product_condition,
)
from ajtkit.properties import ForbiddenSpec, check_p1

P = 5


def term_lists(p, n, max_exp, size=6):
    return st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, max_exp)] * n),
            st.integers(0, p - 1),
        ),
        max_size=size,
    )


def eval_raw(terms, point, p):
    total = 0
    for exps, c in terms:
        v = c
        for e, x in zip(exps, point):
            v = v * pow(x, e, p) % p
        total = (total + v) % p
    return total


# ---------------------------------------------------------------------------
# exponent folding


def test_reduce_exponent_values():
    assert reduce_exponent(0, P) == 0
    assert reduce_exponent(1, P) == 1
    assert reduce_exponent(P - 1, P) == P - 1
    assert reduce_exponent(P, P) == 1
    assert reduce_exponent(2 * (P - 1), P) == P - 1
    assert reduce_exponent(2 * P - 1, P) == 1  # 9 = 2*4 + 1


def test_reduce_exponent_never_exceeds_p_minus_1():
    for e in range(0, 40):
        r = reduce_exponent(e, P)
        assert 0 <= r <= P - 1
        if e:
            assert r >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200))
def test_reduce_exponent_preserves_power_functions(e):
    r = reduce_exponent(e, P)
    for x in range(P):
        assert pow(x, e, P) == pow(x, r, P)


# ---------------------------------------------------------------------------
# reduced polynomials as functions


@settings(max_examples=80, deadline=None)
@given(term_lists(P, 2, 3 * P), st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)))
def test_reduce_preserves_evaluation(terms, point):
    f = ReducedPoly.from_terms(P, 2, terms)
    assert f.evaluate(point) == eval_raw(terms, point, P)


def test_canonical_form_detects_equal_functions():
    # x^p and x induce the same function and the same reduced form
    a = ReducedPoly.from_terms(P, 1, [((P,), 1)])
    b = ReducedPoly.monomial(P, 1, (1,))
    assert a == b


def test_zero_reduced_iff_zero_function():
    rng = random.Random(0)
    for _ in range(40):
        terms = [
            (
                (rng.randrange(3 * P), rng.randrange(3 * P)),
                rng.randrange(P),
            )
            for _ in range(5)
        ]
        f = ReducedPoly.from_terms(P, 2, terms)
        table_zero = not _eval_dense(f.coeffs, P).any()
        assert f.is_zero() == table_zero


def test_evaluate_matches_table():
    rng = random.Random(1)
    for _ in range(20):
        f = ReducedPoly.from_terms(
            P,
            2,
            [
                ((rng.randrange(P), rng.randrange(P)), rng.randrange(P))
                for _ in range(6)
            ],
        )
        table = _eval_dense(f.coeffs, P)
        for x in range(P):
            for y in range(P):
                assert table[x, y] == f.evaluate((x, y))


def test_total_degree():
    assert ReducedPoly.zero(P, 2).total_degree() == -1
    assert ReducedPoly.constant(P, 2, 3).total_degree() == 0
    assert ReducedPoly.monomial(P, 2, (4, 4)).total_degree() == 8


def test_coeff_rejects_unreduced_exponents():
    f = ReducedPoly.monomial(P, 1, (2,))
    assert f.coeff((2,)) == 1
    assert f.coeff((3,)) == 0
    with pytest.raises(InputError):
        f.coeff((P,))


# ---------------------------------------------------------------------------
# multiplication routes


@pytest.mark.parametrize("p, n", [(5, 2), (7, 3), (11, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_routes_agree(p, n, data):
    f = ReducedPoly.from_terms(p, n, data.draw(term_lists(p, n, p - 1)))
    g = ReducedPoly.from_terms(p, n, data.draw(term_lists(p, n, p - 1)))
    assert mul_reduce(f, g, "shift") == mul_reduce(f, g, "interpolate")


def repeated_products(p, forms, powers):
    n = len(forms[0])
    out = ReducedPoly.constant(p, n, 1)
    for coefficients, k in zip(forms, powers):
        form = ReducedPoly.from_terms(
            p, n, [(tuple(int(i == j) for i in range(n)), c) for j, c in enumerate(coefficients)]
        )
        for _ in range(k):
            out = out * form
    return out


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("r", [0, 1, 2, P - 1, P, P + 2, 2 * P - 1])
def test_one_term_form_power_is_one_monomial(n, r):
    # r >= p wraps the exponent: x^(p-1) * x = x
    for j in range(n):
        for c in (1, 3, 7, -1):
            one_term = [c if i == j else 0 for i in range(n)]
            dense = [i + 1 for i in range(n)]
            for forms, powers in (
                ([one_term], [r]),
                ([dense, one_term, dense], [2, r, 1]),
            ):
                want = repeated_products(P, forms, powers)
                assert _form_product(P, forms, powers) == want


def listed_product(p, forms, powers, monomial):
    """The tensor of prod <forms[i], x>^(powers[i]) * x^monomial with every
    factor listed: each power of a form, and each x_j of the monomial, one
    kernels.affine_product pass from the constant 1."""
    n = len(forms[0])
    factors = []
    for form, k in zip(forms, powers):
        factors += [(0, *(c % p for c in form))] * reduce_exponent(k, p)
    for j, t in enumerate(monomial):
        factors += [(0, *(int(i == j) for i in range(n)))] * reduce_exponent(t, p)
    one = np.zeros((p,) * n, dtype=np.int64)
    one[(0,) * n] = 1
    return kernels.affine_product(one, p, factors)


@st.composite
def form_products(draw):
    """(p, forms, powers, monomial): forms with one term, zero forms (every
    coefficient 0 mod p) and dense ones, coefficients below 0 and at or
    above p, powers and monomial exponents past p - 1."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n = draw(st.integers(1, 3))
    dense = st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n)
    zero = st.lists(st.integers(-2, 2).map(lambda c: p * c), min_size=n, max_size=n)
    one_term = st.tuples(st.integers(0, n - 1), st.integers(1, p - 1), st.integers(-2, 2)).map(
        lambda t: [t[1] + p * t[2] if i == t[0] else 0 for i in range(n)]
    )
    forms = draw(st.lists(one_term | zero | dense, min_size=1, max_size=4))
    exponent = st.integers(0, 3 * p)
    powers = draw(st.lists(exponent, min_size=len(forms), max_size=len(forms)))
    monomial = draw(st.just(()) | st.lists(exponent, min_size=n, max_size=n))
    return p, forms, powers, monomial


@settings(max_examples=80, deadline=None)
@given(form_products())
def test_form_product_matches_listed_factors(compiled, case):
    # the one-term forms and the monomial as the start term, not as passes:
    # the same tensor byte for byte as every factor listed, on both backends
    p, forms, powers, monomial = case
    got = []
    for ext in (compiled, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_ext", ext)
            got += [_form_product(p, forms, powers, monomial).coeffs,
                    listed_product(p, forms, powers, monomial)]
    want = got[-1]
    assert want.shape == (p,) * len(forms[0])
    assert all(g.dtype == np.int64 and g.tobytes() == want.tobytes() for g in got)


def test_mul_is_pointwise_product():
    rng = random.Random(3)
    for _ in range(25):
        f = ReducedPoly.from_terms(
            P, 2, [((rng.randrange(P), rng.randrange(P)), rng.randrange(P)) for _ in range(4)]
        )
        g = ReducedPoly.from_terms(
            P, 2, [((rng.randrange(P), rng.randrange(P)), rng.randrange(P)) for _ in range(4)]
        )
        h = f * g
        for pt in itertools.product(range(P), repeat=2):
            assert h.evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % P


def test_mul_route_rejects_unknown():
    f = ReducedPoly.constant(P, 2, 1)
    with pytest.raises(InputError):
        mul_reduce(f, f, "telepathy")


# ---------------------------------------------------------------------------
# coefficient duality


def sympy_side_coeffs(rows, r, s, p):
    """Exact integer coefficients of both duality sides, via symbolic expansion."""
    n = len(rows)
    xs = sympy.symbols(f"x0:{n}")
    row_prod = sympy.prod(
        sum(rows[i][j] * xs[j] for j in range(n)) ** r[i] for i in range(n)
    )
    col_prod = sympy.prod(
        sum(rows[i][j] * xs[i] for i in range(n)) ** s[j] for j in range(n)
    )
    lhs = sympy.Poly(sympy.expand(row_prod), *xs).coeff_monomial(
        sympy.prod(x**e for x, e in zip(xs, s))
    )
    rhs = sympy.Poly(sympy.expand(col_prod), *xs).coeff_monomial(
        sympy.prod(x**e for x, e in zip(xs, r))
    )
    return int(lhs), int(rhs)


def test_duality_against_symbolic_expansion():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        m = random_nonsingular(P, n, rng=rng)
        r = [rng.randrange(P) for _ in range(n)]
        total = sum(r)
        s = []
        left = total
        for i in range(n - 1):
            lo = max(0, left - (P - 1) * (n - 1 - i))
            hi = min(P - 1, left)
            pick = rng.randint(lo, hi)
            s.append(pick)
            left -= pick
        s.append(left)
        if not all(0 <= e <= P - 1 for e in s):
            continue
        got = duality_check(m, r, s)
        lhs_z, rhs_z = sympy_side_coeffs(m.rows, r, s, P)
        assert got.lhs_coeff == lhs_z % P
        assert got.rhs_coeff == rhs_z % P
        # the exact integer identity behind the equivalence
        fact_s = math.prod(math.factorial(e) for e in s)
        fact_r = math.prod(math.factorial(e) for e in r)
        assert fact_s * lhs_z == fact_r * rhs_z
        assert got.agree
        assert got.factorial_relation_holds()


def test_duality_zero_iff_zero():
    # factorials of entries <= p-1 are units mod p, so vanishing transfers
    rng = random.Random(5)
    seen_zero = seen_nonzero = 0
    for _ in range(150):
        m = random_nonsingular(P, 2, rng=rng)
        r = [rng.randrange(P), rng.randrange(P)]
        s0 = rng.randint(max(0, sum(r) - (P - 1)), min(P - 1, sum(r)))
        s = [s0, sum(r) - s0]
        got = duality_check(m, r, s)
        assert (got.lhs_coeff == 0) == (got.rhs_coeff == 0)
        if got.lhs_coeff == 0:
            seen_zero += 1
        else:
            seen_nonzero += 1
    assert seen_zero and seen_nonzero  # both branches exercised


def test_duality_rejects_unbalanced():
    m = FpMatrix([[1, 1], [1, 2]], P)
    with pytest.raises(InputError, match=r"sum\(r\) = 3 differs from sum\(s\) = 2"):
        duality_check(m, [1, 2], [1, 1])
    with pytest.raises(InputError):
        duality_check(m, [1, P], [1, P])  # exponents above p-1


# ---------------------------------------------------------------------------
# scalar products


def test_scalar_product_routes_agree_on_randoms():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.choice((1, 2))
        m = random_nonsingular(P, n, rng=rng)
        r = [rng.randrange(1, P) for _ in range(n)]
        s = [rng.randrange(1, P) for _ in range(n)]
        assert scalar_product_condition(
            m, r, s, route="evaluate"
        ) == scalar_product_condition(m, r, s, route="coefficient")


def test_scalar_product_sign_pinned():
    # sum over x of x^(p-1) is -1 mod p, while the reduced coefficient of
    # x^(p-1) in x^h * x^(p-1-h) is +1: the two differ by (-1)^n and the
    # conversion has to carry that sign
    for p in (5, 7, 11):
        h = (p - 1) // 2
        m = FpMatrix([[1]], p)
        assert scalar_product_condition(m, [h], [p - 1 - h], route="evaluate") == p - 1
        assert scalar_product_condition(m, [h], [p - 1 - h], route="coefficient") == p - 1
        prod = ReducedPoly.monomial(p, 1, (h,)) * ReducedPoly.monomial(p, 1, (p - 1 - h,))
        assert prod.coeff((p - 1,)) == 1
        # the wrap: x^(p-1) * x is x, not 1; with two variables one order
        # also moves exponent 0 of the second axis
        for n, top, step in [(1, (p - 1,), (1,)), (2, (p - 1, 0), (1, 1))]:
            f = ReducedPoly.monomial(p, n, top)
            g = ReducedPoly.monomial(p, n, step)
            want = ReducedPoly.monomial(p, n, (1,) * n)
            for route in ("shift", "interpolate"):
                assert mul_reduce(f, g, route) == want
                assert mul_reduce(g, f, route) == want


def test_scalar_product_counts_witnesses_mod_p():
    # with all exponents p-1 each summand is the witness indicator
    full = [P - 1, P - 1]
    for m in _all_nonsingular_5_2():
        val = scalar_product_condition(m, full, full)
        count = 0
        for x in itertools.product(range(1, P), repeat=2):
            y = m.matvec(x)
            if all(c != 0 for c in y):
                count += 1
        assert val == count % P
        if val != 0:
            assert check_p1(m) is not None  # a witness certainly exists


def _all_nonsingular_5_2():
    from ajtkit.fp_core import enumerate_nonsingular

    return enumerate_nonsingular(5, 2)


# ---------------------------------------------------------------------------
# property bridges


def test_check_p2_agrees_with_witness_search():
    rng = random.Random(7)
    for _ in range(60):
        m = random_nonsingular(P, 2, rng=rng)
        spec = ForbiddenSpec.random(P, 2, rng)
        has_witness = check_p1(m, spec) is not None
        vanishes = check_p2(m, spec.c_lists, spec.d_lists)
        assert vanishes == (not has_witness)


def test_check_p5_degree_drop_definition():
    m = FpMatrix([[1, 1], [1, 2]], P)
    # the default product has full degree 2n < 4 is false, so no drop
    assert check_p5(m) is False
    one_by_one = FpMatrix([[1]], P)
    # (x)^2 * (x)^3 reduces to x^5 -> x, degree 1 < 5
    assert check_p5(one_by_one, t=[2], t_prime=[3]) is True

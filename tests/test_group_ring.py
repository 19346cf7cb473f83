"""Group-ring identities over Z, F_p and Z[w]."""

import itertools
import random
from math import comb

import numpy as np
import pytest

from ajtkit import _kernels_py, group_ring
from ajtkit.budget import Budget
from ajtkit.errors import BudgetExceeded, InputError
from ajtkit.fp_core import FpMatrix, enumerate_nonsingular, random_nonsingular
from ajtkit.group_ring import (
    CyclotomicRing,
    FactorSpec,
    GroupRingElem,
    IntegerRing,
    ModPRing,
    check_p3,
    check_p4,
    product_of_factors,
    sigma_of_factors,
    sigma_vanishing_candidate,
)
from ajtkit.properties import ForbiddenSpec, check_p1, sweep_verdicts

P = 5


def cyc(coeffs):
    """An element of Z[w] = Z[w][(Z/p)^0] from its w-axis table of length p."""
    return GroupRingElem(P, 0, CyclotomicRing, np.array(coeffs, dtype=np.int64))


def omega_pow(k):
    return cyc([int(i == k % P) for i in range(P)])


ZERO = cyc([0] * P)
ONE = cyc([1] + [0] * (P - 1))


# ---------------------------------------------------------------------------
# cyclotomic integers: Z[w] elements with n = 0, tensor shape (p,)


def test_cyclotomic_int_round_trip():
    x = cyc([7] + [0] * (P - 1))
    assert x.coeffs.shape == (P,)
    assert list(x.normalized()) == [7, 0, 0, 0, 0]
    assert ZERO.is_zero()
    assert not x.is_zero()
    # adding a multiple of 1 + w + ... + w^(p-1) changes the table, not the element
    assert x == cyc([10, 3, 3, 3, 3])
    assert list(cyc([10, 3, 3, 3, 3]).normalized()) == [7, 0, 0, 0, 0]
    assert list(cyc([1, 2, 0, 0, 0]).normalized()) == [1, 2, 0, 0, 0]
    # the same table over another ring is another element
    assert x != GroupRingElem(P, 1, IntegerRing, x.coeffs)


def test_omega_powers_sum_to_zero():
    total = cyc(sum(omega_pow(k).coeffs for k in range(P)))
    assert list(total.coeffs) == [1] * P
    assert total.is_zero()
    assert total == ZERO


def test_omega_top_power_uses_minimal_polynomial():
    # w^(p-1) = -(1 + w + ... + w^(p-2)) on the power basis
    top = omega_pow(P - 1)
    assert top == cyc([-1] * (P - 1) + [0])
    assert list(top.normalized()) == [-1] * (P - 1) + [0]


def test_cyclotomic_nonzero_product_of_nonzero():
    # Z[w] is an integral domain; spot-check with (1 - w)^k, the factor
    # 1 - w^(-phase) * g^v at n = 0 and phase -1
    for k in range(1, 3 * P + 1):
        spec = FactorSpec(
            P, 0, vectors=((),) * k, exponents=(1,) * k, phases=((-1,),) * k
        )
        assert not product_of_factors(spec, CyclotomicRing).is_zero()


# ---------------------------------------------------------------------------
# powers of one factor, reduction mod p and phases


def test_one_minus_g_powers_mod_p():
    # (1-g)^(p-1) has all coefficients 1; one more factor kills it
    def power(e):
        spec = FactorSpec(P, 1, vectors=((1,),), exponents=(e,))
        return product_of_factors(spec, ModPRing)

    assert list(power(P - 1).coeffs) == [1] * P
    assert power(P).is_zero()


def test_one_minus_g_powers_integer_never_vanish():
    for e in range(1, 2 * P + 1):
        spec = FactorSpec(P, 1, vectors=((1,),), exponents=(e,))
        assert not product_of_factors(spec, IntegerRing).is_zero()


def test_reduce_mod_p_is_a_ring_map():
    # a product over F_p is the product over Z reduced coefficientwise
    rng = random.Random(5)
    for _ in range(15):
        vectors = tuple((rng.randrange(P), rng.randrange(P)) for _ in range(3))
        exponents = tuple(rng.randrange(4) for _ in vectors)
        spec = FactorSpec(P, 2, vectors=vectors, exponents=exponents)
        over_z = product_of_factors(spec, IntegerRing)
        assert product_of_factors(spec, ModPRing) == GroupRingElem(
            P, 2, ModPRing, over_z.coeffs % P
        )


def test_phase_needs_cyclotomic_ring():
    spec = FactorSpec(P, 1, vectors=((1,),), exponents=(1,), phases=((2,),))
    for ring in (IntegerRing, ModPRing):
        with pytest.raises(InputError, match="phases require the cyclotomic"):
            product_of_factors(spec, ring)
    assert not product_of_factors(spec, CyclotomicRing).is_zero()


# ---------------------------------------------------------------------------
# factor specs and products


def test_factor_spec_validation():
    with pytest.raises(InputError):
        FactorSpec(P, 2, vectors=((1, 0),), exponents=(1, 2))
    with pytest.raises(InputError):
        FactorSpec(P, 2, vectors=((1, 0),), exponents=(2,), phases=((0, 0),))
    with pytest.raises(InputError):
        FactorSpec(P, 2, vectors=((1, 0, 0),), exponents=(1,))
    FactorSpec(P, 2, vectors=((1, 0),), exponents=(2,), phases=((0, 1),))


def test_from_matrix_lists_units_then_rows():
    m = FpMatrix([[1, 1], [1, 2]], P)
    spec = FactorSpec.from_matrix(m)
    assert spec.vectors == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert spec.exponents == (1, 1, 1, 1)


def test_zero_phase_cyclotomic_product_matches_integer_product():
    rng = random.Random(8)
    for _ in range(10):
        m = random_nonsingular(P, 2, rng=rng)
        spec = FactorSpec.from_matrix(m)
        over_z = product_of_factors(spec, IntegerRing)
        phased = FactorSpec.from_matrix(
            m, c_lists=[[0]] * 2, d_lists=[[0]] * 2
        )
        over_zw = product_of_factors(phased, CyclotomicRing)
        assert over_z.is_zero() == over_zw.is_zero()
        # every coefficient is a rational integer: the w^0 slot of the
        # normalized tensor is the Z tensor and every other slot is zero
        table = over_zw.normalized()
        assert table.shape == (P, P, P)
        assert np.array_equal(table[..., 0], over_z.coeffs)
        assert not np.any(table[..., 1:])


def test_product_brute_force_small():
    # multiply out (1-g^(1,0))(1-g^(0,1)) by hand
    spec = FactorSpec(P, 2, vectors=((1, 0), (0, 1)), exponents=(1, 1))
    got = product_of_factors(spec, ModPRing)
    want = np.zeros((P, P), dtype=np.int64)
    want[0, 0] = 1
    want[1, 0] = P - 1
    want[0, 1] = P - 1
    want[1, 1] = 1
    assert np.array_equal(got.coeffs, want)


def test_check_p4_known_values():
    m = FpMatrix([[1, 1], [1, 2]], P)
    assert check_p4(m) is False  # product does not vanish
    assert not product_of_factors(FactorSpec.from_matrix(m), IntegerRing).is_zero()
    one_by_one = FpMatrix([[1]], P)
    # five factors of (1-g) vanish mod 5
    assert check_p4(one_by_one, t=[2], t_prime=[3]) is True
    assert check_p4(one_by_one, t=[2], t_prime=[2]) is False


def test_check_p3_full_forbidden_column_vanishes():
    one_by_one = FpMatrix([[1]], P)
    # forbidding every residue for x_1 leaves no witness, and the phased
    # product collapses: prod over c of (1 - w^c g) = 1 - g^p = 0
    assert check_p3(one_by_one, c_lists=[range(P)], d_lists=[[]]) is True
    assert check_p3(one_by_one, c_lists=[[0]], d_lists=[[0]]) is False


def test_p3_matches_p1_on_random_forbidden_lists():
    # P1 <=> P3: the phased product vanishes exactly when no witness exists
    rng = random.Random(43)
    vanished = 0
    for trial in range(320):
        p, n = [(5, 1), (5, 2), (7, 1), (7, 2)][trial % 4]
        m = random_nonsingular(p, n, rng=rng)
        lists = [sorted(rng.sample(range(p), rng.randrange(p + 1))) for _ in range(2 * n)]
        c_lists, d_lists = lists[:n], lists[n:]
        witness = check_p1(m, ForbiddenSpec(p=p, n=n, c_lists=c_lists, d_lists=d_lists))
        vanishes = check_p3(m, c_lists, d_lists)
        assert vanishes == (witness is None), (m.rows, c_lists, d_lists, witness)
        vanished += vanishes
    assert 0 < vanished < 320


@pytest.mark.parametrize("hit", [True, False])
def test_p3_past_62_factors_is_exact(hit):
    # p = 17, n = 2 with four lists of 16: 64 factors, so entries may pass
    # 2^62 and the table must hold Python ints
    p, n = 17, 2
    m = FpMatrix([[1, 2], [3, 5]], p)
    x = (4, 9)
    image = [sum(a * b for a, b in zip(row, x)) % p for row in m.rows]
    allowed = list(x) + [image[0], image[1] if hit else (image[1] + 1) % p]
    c_lists = [[c for c in range(p) if c != a] for a in allowed[:n]]
    d_lists = [[d for d in range(p) if d != a] for a in allowed[n:]]
    spec = FactorSpec.from_matrix(m, c_lists=c_lists, d_lists=d_lists)
    assert sum(spec.exponents) == 64
    assert product_of_factors(spec, CyclotomicRing).coeffs.dtype == object
    witness = check_p1(m, ForbiddenSpec(p=p, n=n, c_lists=c_lists, d_lists=d_lists))
    assert (witness == x) if hit else (witness is None)
    assert check_p3(m, c_lists, d_lists) is (not hit)


def test_integer_product_past_62_factors_does_not_wrap():
    # (1 - g)^70 in Z[Z/5]: coefficient j is the sum of (-1)^k C(70, k) over
    # k = j mod 5, which is beyond int64
    e = 70
    spec = FactorSpec(P, 1, vectors=((1,),), exponents=(e,))
    got = product_of_factors(spec, IntegerRing)
    want = [sum((-1) ** k * comb(e, k) for k in range(j, e + 1, P)) for j in range(P)]
    assert got.coeffs.dtype == object
    assert list(got.coeffs) == want
    assert max(map(abs, want)) > 2**63
    assert np.array_equal(got.coeffs % P, product_of_factors(spec, ModPRing).coeffs)


def test_entries_budget_charges_the_cyclotomic_axis():
    # Z[w] over (Z/5)^2 holds 5^3 entries; F_p and Z hold 5^2
    m = FpMatrix([[1, 1], [1, 2]], P)
    cap = Budget(entries=P**2)
    assert check_p4(m, budget=cap) is False
    assert not product_of_factors(FactorSpec.from_matrix(m), IntegerRing, budget=cap).is_zero()
    with pytest.raises(BudgetExceeded):
        check_p3(m, c_lists=[[0]] * 2, d_lists=[[0]] * 2, budget=cap)
    assert check_p3(m, [[0]] * 2, [[0]] * 2, budget=Budget(entries=P**3)) is False


# ---------------------------------------------------------------------------
# stacked products


def rolled_products(p, shifts):
    """prod_k (1 - g^(shifts[k, b])) for each b, one np.roll per factor."""
    factors, size, d = shifts.shape
    out = []
    for b in range(size):
        table = np.zeros((p,) * d, dtype=object)
        table[(0,) * d] = 1
        for k in range(factors):
            table = table - np.roll(table, tuple(shifts[k, b]), axis=tuple(range(d)))
        out.append(table)
    return np.array(out)


def stacked_rows(matrices):
    """The (n-1, n) head shared by matrices that agree on their first n-1
    rows, and the (B, n) last rows, as sweep_verdicts takes them."""
    rows = np.array([m.rows for m in matrices], dtype=np.int64)
    assert (rows[:, :-1] == rows[:1, :-1]).all()
    return rows[0, :-1], rows[:, -1]


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)])
def test_stacked_products_match_one_at_a_time(p, n):
    matrices = list(enumerate_nonsingular(p, n))
    want = tuple(
        [product_of_factors(FactorSpec.from_matrix(m), ring).is_zero() for m in matrices]
        for ring in (IntegerRing, ModPRing)
    )
    # stacks of consecutive matrices sharing their first n-1 rows, as the
    # sweep stacks them
    grouped = ([], [])
    for _, group in itertools.groupby(matrices, key=lambda m: m.rows[:-1]):
        verdicts = sweep_verdicts(p, *stacked_rows(list(group)))
        for out, got in zip(grouped, verdicts[2:]):
            out += got.tolist()
    assert grouped == want
    int_zero, modp_zero = map(np.array, grouped)
    assert not (int_zero & ~modp_zero).any()  # zero over Z is zero mod p
    # a head must be n-1 rows
    head, last = stacked_rows(matrices[:1])
    with pytest.raises(InputError):
        sweep_verdicts(p, np.vstack([head, last]), last)
    # an empty stack
    assert [a.shape for a in sweep_verdicts(p, head, last[:0])] == [(0,), (0, n), (0,), (0,)]
    if p == 3:
        # (1-g)^3 = 1 - g^3 = 0 over F_3, so some mod-p products vanish
        assert modp_zero.any()


def test_shared_factors_expand_once_then_the_stack_gathers(monkeypatch):
    p = 7
    rng = np.random.default_rng(5)
    shifts = rng.integers(0, p, size=(5, 2))
    rolls = []
    real = group_ring._roll
    monkeypatch.setattr(
        group_ring, "_roll", lambda t, s, q: rolls.append(t.shape) or real(t, s, q)
    )
    got = group_ring._expand(p, 2, shifts.tolist())
    assert got.dtype == np.int64
    assert rolls == [(p, p)] * 5  # each factor once
    assert np.array_equal(got, rolled_products(p, shifts[:, None])[0])
    # a sweep stack shares the unit vectors and its head row: the pure twin
    # rolls those three factors once, and gathers the last rows in one go
    rolls.clear()
    group = list(enumerate_nonsingular(p, 2, first_rows=slice(p + 1, p + 2)))  # (1, 2)
    assert {m.rows[0] for m in group} == {(1, 2)}
    head, last = stacked_rows(group)
    int_zero, modp_zero = _kernels_py.products_vanish(head, last, p, 2)
    assert int_zero.tolist() == modp_zero.tolist() == [False] * len(group)
    assert rolls == [(p, p)] * 3


def test_stack_budget_charges_every_table():
    # the matrices [[1, 1], [1, a]] for a = 2, 3, 4
    head = np.array([[1, 1]])
    last = np.array([[1, a] for a in (2, 3, 4)])
    with pytest.raises(BudgetExceeded, match="group-ring stack needs 75 entries"):
        sweep_verdicts(P, head, last, budget=Budget(entries=3 * P**2 - 1))
    got = sweep_verdicts(P, head, last, budget=Budget(entries=3 * P**2))
    assert [a.tolist() for a in got[2:]] == [[False] * 3] * 2


def test_stack_rejects_mixed_shapes():
    head = np.array([[1, 1]])
    last = np.array([[1, 2]])
    assert [a.tolist() for a in sweep_verdicts(P, head, last)[2:]] == [[False]] * 2
    for bad_head, bad_last in [
        (head, np.array([[1, 2, 3]])),  # rows of two lengths
        (np.array([[1, 1], [2, 1]]), last),  # three rows of length two
        (np.zeros((0, 2)), last),  # one row of length two
        (head[0], last),  # head rows not a matrix
        (head, last[0]),  # last rows not a stack
    ]:
        with pytest.raises(InputError, match="a stack is"):
            sweep_verdicts(P, bad_head, bad_last)
    with pytest.raises(InputError, match="odd prime"):
        sweep_verdicts(4, head, last)


# ---------------------------------------------------------------------------
# elementary symmetric functions of the factors


def sigma_oracle(m):
    """sigma_j as the sum, mod p, of the products of every j of the 2n
    factors, each product expanded by rolled_products."""
    p, n = m.p, m.n
    vectors = np.concatenate([np.eye(n, dtype=np.int64), np.array(m.rows)])
    out = []
    for j in range(2 * n + 1):
        subsets = np.array(list(itertools.combinations(vectors, j)))
        shifts = subsets.reshape(comb(2 * n, j), j, n).transpose(1, 0, 2)
        out.append(rolled_products(p, shifts).sum(axis=0) % p)
    return out


def test_sigma_matches_subset_expansion(monkeypatch):
    rolls = []
    real = group_ring._roll
    monkeypatch.setattr(
        group_ring, "_roll", lambda t, s, q: rolls.append(t.shape) or real(t, s, q)
    )
    rng = random.Random(31)
    for p, n in [(5, 2)] * 5 + [(3, 3)] * 3:
        m = random_nonsingular(p, n, rng=rng)
        rolls.clear()
        got = sigma_of_factors(m)
        assert rolls == [(2 * n,) + (p,) * n] * (2 * n)  # one roll per factor
        want = sigma_oracle(m)
        assert len(got) == 2 * n + 1
        for a, b in zip(got, want):
            assert np.array_equal(a.coeffs, b)


def test_sigma_budget_charges_the_whole_stack():
    # sigma_0..sigma_4 over (Z/5)^2: 5 tables of 5^2 entries
    m = random_nonsingular(P, 2, seed=1)
    entries = (2 * 2 + 1) * P**2
    with pytest.raises(BudgetExceeded):
        sigma_of_factors(m, budget=Budget(entries=entries - 1))
    assert len(sigma_of_factors(m, budget=Budget(entries=entries))) == 5


def test_sigma_zero_is_one():
    m = random_nonsingular(P, 2, seed=1)
    one = np.zeros((P, P), dtype=np.int64)
    one[0, 0] = 1
    assert sigma_of_factors(m)[0] == GroupRingElem(P, 2, ModPRing, one)


def test_sigma_top_is_full_product():
    m = random_nonsingular(P, 2, seed=2)
    sigmas = sigma_of_factors(m)
    full = product_of_factors(FactorSpec.from_matrix(m), ModPRing)
    assert sigmas[-1] == full


def test_sigma_candidate_vacuously_false_when_2n_small():
    # indices run down from 2n; at 2n <= p-1 the run includes sigma_0 = 1
    m = random_nonsingular(P, 2, seed=3)
    report = sigma_vanishing_candidate(m)
    assert report.candidate is False
    assert report.vanishing[2 * m.n] is False  # the sigma_0 slot


def test_sigma_candidate_probe_shape_at_n3():
    m = random_nonsingular(P, 3, seed=4)
    report = sigma_vanishing_candidate(m)
    assert len(report.vanishing) == P
    sigmas = sigma_of_factors(m)
    for i in range(P):
        j = 2 * 3 - i
        assert report.vanishing[i] == sigmas[j].is_zero()

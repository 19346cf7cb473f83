"""Field, vector and matrix layer."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajtkit.budget import Budget
from ajtkit.errors import BudgetExceeded, InputError
from ajtkit.fp_core import (
    FpMatrix,
    _as_prime,
    _det_mod_p,
    enumerate_nonsingular,
    enumerate_nonsingular_groups,
    nonsingular_count,
    random_nonsingular,
)


def det_oracle(rows, p):
    """Permutation-expansion determinant, independent of the elimination code."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        if inv % 2:
            sign = -1
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def matmul(a, b):
    """The product a @ b over F_p, entry by entry from the definition."""
    n = a.n
    return FpMatrix(
        [[sum(a.rows[i][t] * b.rows[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)],
        a.p,
    )


def test_prime_accepts_odd_primes():
    assert _as_prime(3) == 3
    assert _as_prime(7919) == 7919


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, 9, 561, 1000003 * 3])
def test_prime_rejects_everything_else(bad):
    # 2 is rejected on purpose: every construction here needs (p-1)/2 etc.
    with pytest.raises(InputError, match="modulus must be an odd prime"):
        _as_prime(bad)


def test_prime_range_stops_below_2_31():
    # the compiled kernels hold p in a C int
    assert _as_prime(2**31 - 1) == 2**31 - 1
    for big in (2**31 + 11, 2**31, 2**64 + 13):
        with pytest.raises(InputError, match=r"modulus must be below 2\^31"):
            _as_prime(big)


def test_composite_modulus_raises_on_every_call():
    # only moduli that passed are remembered; a composite is rejected each time
    for _ in range(3):
        with pytest.raises(InputError, match="modulus must be an odd prime"):
            FpMatrix([[1]], 9)
        with pytest.raises(InputError, match="modulus must be an odd prime"):
            next(enumerate_nonsingular_groups(15, 2))
    assert type(FpMatrix([[1]], 7).p) is int


def test_det_known_example():
    m = FpMatrix([[1, 1], [1, 2]], 5)
    assert m.det() == 1
    inv = m.invert()
    assert inv.rows == ((2, 4), (4, 1))
    assert matmul(m, inv).rows == ((1, 0), (0, 1))


def test_det_matches_permanent_expansion_oracle():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(25):
            n = rng.choice((1, 2, 3))
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            assert FpMatrix(rows, p).det() == det_oracle(rows, p)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice((3, 5, 7, 11))
        n = rng.choice((2, 3))
        a = FpMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        b = FpMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        assert matmul(a, b).det() == (a.det() * b.det()) % p


def test_invert_singular_raises():
    with pytest.raises(InputError, match="matrix is singular modulo"):
        FpMatrix([[1, 2], [2, 4]], 5).invert()


def test_matvec_linear():
    m = FpMatrix([[1, 2], [3, 4]], 7)
    x = [5, 6]
    y = m.matvec(x)
    assert y == ((1 * 5 + 2 * 6) % 7, (3 * 5 + 4 * 6) % 7)


def test_transpose_row_column():
    m = FpMatrix([[1, 2], [3, 4]], 5)
    assert m.transpose().rows == ((1, 3), (2, 4))


def test_nonsingular_count_formula():
    # prod over i of (p^n - p^i)
    assert nonsingular_count(5, 2) == (25 - 1) * (25 - 5)  # 480
    assert nonsingular_count(7, 2) == (49 - 1) * (49 - 7)  # 2016
    assert nonsingular_count(3, 2) == 48
    assert nonsingular_count(5, 1) == 4


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_enumerate_nonsingular_complete(p, n):
    mats = list(enumerate_nonsingular(p, n))
    assert len(mats) == nonsingular_count(p, n)
    assert len({m.rows for m in mats}) == len(mats)
    for m in mats[:: max(1, len(mats) // 50)]:
        assert m.det() != 0


def test_enumerated_matrices_equal_validated_ones():
    p = 3
    mats = list(enumerate_nonsingular(p, 3))
    assert len(mats) == nonsingular_count(p, 3)
    for m in mats:
        fresh = FpMatrix(m.rows, p)
        assert m == fresh
        assert hash(m) == hash(fresh)
        assert (m.p, m.n) == (fresh.p, fresh.n)
        assert m.det() == fresh.det() != 0


def test_first_row_ranges_partition_the_space():
    # each of the 8 first rows of (3, 2) has 9 - 3 = 6 completions
    p, n = 3, 2
    whole = [m.rows for m in enumerate_nonsingular(p, n)]
    cuts = [0, 1, 4, 4, 8]
    for a, b in zip(cuts, cuts[1:]):
        rows = [m.rows for m in enumerate_nonsingular(p, n, first_rows=slice(a, b))]
        assert rows == whole[6 * a : 6 * b]


def naive_nonsingular(p, n, first_rows=slice(None)):
    """Every nonsingular matrix whose first row is one of the nonzero rows
    that `first_rows` slices, as row tuples in lex order: all candidates,
    filtered by determinant."""
    rows = list(itertools.product(range(p), repeat=n))
    return [
        m
        for first in rows[1:][first_rows]
        for rest in itertools.product(rows, repeat=n - 1)
        if _det_mod_p(m := (first,) + rest, p)
    ]


def flattened_groups(p, n, first_rows=slice(None), budget=None):
    """The matrices of enumerate_nonsingular_groups as row tuples, in order."""
    out = []
    for head, last in enumerate_nonsingular_groups(
        p, n, budget=budget, first_rows=first_rows
    ):
        assert head.dtype == last.dtype == np.int64
        assert head.shape == (n - 1, n) and last.shape[1:] == (n,)
        rows = tuple(map(tuple, head.tolist()))
        out += [rows + (tuple(row),) for row in last.tolist()]
    return out


@pytest.mark.parametrize("p, n", [(5, 1), (3, 2), (5, 2), (3, 3)])
def test_grouped_enumeration_matches_a_naive_filter(p, n):
    everything = naive_nonsingular(p, n)
    assert len(everything) == nonsingular_count(p, n)
    assert flattened_groups(p, n) == everything
    assert [m.rows for m in enumerate_nonsingular(p, n)] == everything
    # first-row ranges: single rows, a middle run, the ends, an empty one
    firsts = p**n - 1
    for first_rows in [slice(0, 1), slice(firsts - 1, firsts), slice(2, firsts - 2),
                       slice(None, 3), slice(3, None), slice(4, 4)]:
        want = naive_nonsingular(p, n, first_rows)
        assert flattened_groups(p, n, first_rows) == want
        assert [m.rows for m in enumerate_nonsingular(p, n, first_rows=first_rows)] == want


def test_grouped_enumeration_checks_its_budget():
    p, n = 3, 2
    with pytest.raises(BudgetExceeded):
        flattened_groups(p, n, slice(0, 1), budget=Budget(nodes=p ** (n * n) - 1))
    assert len(flattened_groups(p, n, budget=Budget(nodes=p ** (n * n)))) == 48
    with pytest.raises(InputError):
        flattened_groups(p, 0)
    with pytest.raises(InputError, match="modulus must be an odd prime"):
        flattened_groups(9, n)


def test_random_nonsingular_deterministic_and_valid():
    a = random_nonsingular(7, 3, seed=42)
    b = random_nonsingular(7, 3, seed=42)
    assert a.rows == b.rows
    assert a.det() != 0
    c = random_nonsingular(7, 3, seed=43)
    assert c.det() != 0


def test_random_nonsingular_charges_before_drawing():
    rng = random.Random(5)
    with pytest.raises(BudgetExceeded, match="random matrix needs 27 nodes"):
        random_nonsingular(7, 3, rng=rng, budget=Budget(nodes=26))
    assert rng.random() == random.Random(5).random()  # nothing was drawn
    assert random_nonsingular(7, 3, seed=42, budget=27) == random_nonsingular(7, 3, seed=42)


def test_matrix_json_round_trip():
    m = random_nonsingular(11, 3, seed=1)
    again = FpMatrix.from_json(m.to_json())
    assert again.rows == m.rows and again.p == m.p


def test_matrix_entry_validation():
    with pytest.raises(InputError):
        FpMatrix([[1, 2], [3]], 5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_inverse_really_inverts(p, data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    m = FpMatrix(rows, p)
    if m.det() == 0:
        with pytest.raises(InputError, match="matrix is singular modulo"):
            m.invert()
    else:
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert matmul(m, m.invert()).rows == ident
        assert matmul(m.invert(), m).rows == ident

"""The property ladder P1..P5 and the finite-difference calculus."""

import itertools
import random

import numpy as np
import pytest

from ajtkit import properties
from ajtkit.budget import Budget
from ajtkit.errors import BudgetExceeded, InputError
from ajtkit.fp_core import FpMatrix, enumerate_nonsingular, random_nonsingular
from ajtkit.properties import (
    ForbiddenSpec,
    FunctionTable,
    check_all,
    check_multi,
    check_p1,
    delta,
    image_membership_routes,
    line_sum,
    multiplier_invariance_test,
    pairing_test,
    sweep_verdicts,
)

P = 5


def brute_force_p1(m, spec):
    """Scan the whole cube for a vector avoiding all forbidden values."""
    p, n = m.p, m.n
    for x in itertools.product(range(p), repeat=n):
        if any(x[i] in spec.c_lists[i] for i in range(n)):
            continue
        y = m.matvec(x)
        if any(y[j] in spec.d_lists[j] for j in range(n)):
            continue
        return x
    return None


# ---------------------------------------------------------------------------
# forbidden-value specs


def test_default_spec_forbids_zero():
    spec = ForbiddenSpec.default(P, 2)
    assert spec.c_lists == ((0,), (0,))
    assert spec.d_lists == ((0,), (0,))
    assert spec.t == (1, 1)
    assert spec.t_prime == (1, 1)


def test_spec_json_round_trip():
    rng = random.Random(0)
    for _ in range(10):
        spec = ForbiddenSpec.random(P, 2, rng)
        assert ForbiddenSpec.from_json(spec.to_json()) == spec


def test_spec_random_respects_bounds():
    rng = random.Random(1)
    for _ in range(50):
        spec = ForbiddenSpec.random(P, 2, rng)
        for lst in spec.c_lists + spec.d_lists:
            assert len(lst) <= min(3, P - 1)
            assert len(set(lst)) == len(lst)
            assert all(0 <= c < P for c in lst)


# ---------------------------------------------------------------------------
# witness search


def test_check_p1_known_witness(twin_witness):
    m = FpMatrix([[1, 1], [1, 2]], P)
    w = check_p1(m)
    assert w is not None
    y = m.matvec(w)
    assert all(c != 0 for c in w)
    assert all(c != 0 for c in y)


def test_check_p1_matches_brute_force_existence(twin_witness):
    rng = random.Random(2)
    for _ in range(120):
        n = rng.choice((1, 2))
        m = random_nonsingular(P, n, rng=rng)
        spec = ForbiddenSpec.random(P, n, rng)
        got = check_p1(m, spec)
        want = brute_force_p1(m, spec)
        assert (got is None) == (want is None)
        if got is not None:
            y = m.matvec(got)
            for i in range(n):
                assert got[i] not in spec.c_lists[i]
                assert y[i] not in spec.d_lists[i]


def test_check_p1_no_witness_when_everything_forbidden(twin_witness):
    m = FpMatrix([[1]], P)
    spec = ForbiddenSpec(P, 1, c_lists=(tuple(range(P)),), d_lists=((),))
    assert check_p1(m, spec) is None


def stacked_rows(matrices):
    """The (n-1, n) head shared by matrices that agree on their first n-1
    rows, and the (B, n) last rows, as sweep_verdicts takes them."""
    rows = np.array([m.rows for m in matrices], dtype=np.int64)
    assert (rows[:, :-1] == rows[:1, :-1]).all()
    return rows[0, :-1], rows[:, -1]


def stacked_witnesses(p, head, last, budget=None):
    """sweep_verdicts' witnesses as check_p1 returns them: a vector or None."""
    found, witness = sweep_verdicts(p, head, last, budget=budget)[:2]
    assert not witness[~found].any()  # zeros where there is no witness
    return [tuple(w.tolist()) if f else None for f, w in zip(found, witness)]


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_stacked_witnesses_match_check_p1(p, n, twin_witness):
    matrices = list(enumerate_nonsingular(p, n))
    want = [check_p1(m) for m in matrices]
    if (p, n) == (3, 2):
        assert None in want  # witness-free matrices exist at (3, 2)
    # stacks of consecutive matrices sharing their first n-1 rows, as the
    # sweep stacks them
    grouped = []
    for _, group in itertools.groupby(matrices, key=lambda m: m.rows[:-1]):
        grouped += stacked_witnesses(p, *stacked_rows(list(group)))
    assert grouped == want
    # a head must be n-1 rows
    head, last = stacked_rows(matrices[-1:])
    with pytest.raises(InputError):
        stacked_witnesses(p, np.vstack([head, last]), last)
    # an empty stack
    assert stacked_witnesses(p, head, last[:0]) == []


def test_stacked_witnesses_reject_mixed_shapes():
    head = np.array([[1, 1]])
    last = np.array([[1, 2]])
    assert stacked_witnesses(P, head, last) == [check_p1(FpMatrix([[1, 1], [1, 2]], P))]
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
        sweep_verdicts(9, head, last)


def test_stacked_witnesses_charge_the_whole_stack(twin_witness):
    # the matrices [[1, 1], [1, a]] for a = 2, 3, 4; the stack's B * p^n
    # product tables cover its B * (p-1)^n witness mask
    m = [FpMatrix([[1, 1], [1, a]], P) for a in (2, 3, 4)]
    head, last = stacked_rows(m)
    entries = 3 * P**2
    with pytest.raises(BudgetExceeded, match="group-ring stack"):
        sweep_verdicts(P, head, last, budget=Budget(entries=entries - 1))
    with pytest.raises(BudgetExceeded, match="witness search needs 16 nodes"):
        sweep_verdicts(P, head, last, budget=Budget(nodes=(P - 1) ** 2 - 1))
    got = stacked_witnesses(P, head, last, budget=Budget(entries=entries, nodes=(P - 1) ** 2))
    assert got == [check_p1(x) for x in m]


def test_witness_search_charges_a_unit_a_node_and_a_row_update(twin_witness):
    # [[1, 1], [1, 2]] at p = 5: x_1 = 1 updates both rows' sums, 3 units,
    # and x_2 = 1 both again, giving the images 2 and 3: 6 units in all
    m = FpMatrix([[1, 1], [1, 2]], P)
    assert check_p1(m, budget=Budget(nodes=6)) == (1, 1)
    with pytest.raises(BudgetExceeded, match="witness search needs 6 nodes, budget allows 5"):
        check_p1(m, budget=Budget(nodes=5))
    assert [units.tolist() for _, _, units in twin_witness] == [[6], [6]]


def test_value_lists_are_charged_before_they_are_built():
    # n = 1 at p = 101: one list of up to 101 values for each search
    m = FpMatrix([[3]], 101)
    for search in (
        lambda budget: check_p1(m, budget=budget),
        lambda budget: check_multi([m], seed=0, budget=budget),
    ):
        with pytest.raises(BudgetExceeded, match="value lists"):
            search(Budget(entries=100))
        assert search(Budget(entries=101)) is not None


def test_check_all_charges_the_largest_table_before_p1(monkeypatch):
    # P3's Z[w] table, p^(n+1) entries, is the largest any property builds:
    # one entry short, check_all refuses before P1 searches
    p, n = 7, 2
    m = FpMatrix([[1, 1], [1, 2]], p)
    calls = []
    real = properties.check_p1
    monkeypatch.setattr(
        properties, "check_p1", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    with pytest.raises(BudgetExceeded, match="group-ring table"):
        check_all(m, budget=Budget(entries=p ** (n + 1) - 1))
    assert calls == []
    assert check_all(m, budget=Budget(entries=p ** (n + 1))).ok
    assert len(calls) == 1
    # the charge also comes before the determinant: a singular matrix past
    # the cap is refused for its size, not its rank
    singular = FpMatrix([[1, 2], [2, 4]], p)
    with pytest.raises(BudgetExceeded, match="group-ring table"):
        check_all(singular, budget=Budget(entries=p ** (n + 1) - 1))


def test_a_charge_too_long_to_print_states_a_bound():
    # p^(n+1) at p = 2^31 - 1, n = 460 has more than the 4,300 digits that
    # Python converts to a string; the refusal states a power of two
    p, n = 2**31 - 1, 460
    m = FpMatrix([[int(i == j) for j in range(n)] for i in range(n)], p)
    bits = (p ** (n + 1)).bit_length()
    with pytest.raises(BudgetExceeded, match=rf"needs more than 2\^{bits - 1} entries"):
        check_all(m)


def test_check_multi_matches_brute_force(twin_witness):
    # x itself carries no constraint; only the images must avoid zero.
    # p=5 with three matrices genuinely admits witness-free triples
    # (six hyperplanes can cover all 25 vectors), so compare against a
    # raw scan instead of assuming existence
    rng = random.Random(3)
    nones = 0
    for _ in range(40):
        mats = [random_nonsingular(P, 2, rng=rng) for _ in range(3)]
        w = check_multi(mats, seed=0)
        exists = any(
            all(
                all(c != 0 for c in m.matvec(x))
                for m in mats
            )
            for x in itertools.product(range(P), repeat=2)
        )
        assert (w is not None) == exists
        if w is None:
            nones += 1
        else:
            for m in mats:
                assert all(c != 0 for c in m.matvec(w))
    assert nones > 0  # the sample includes a witness-free triple


def test_check_multi_always_finds_at_p7(twin_witness):
    rng = random.Random(3)
    for _ in range(100):
        mats = [random_nonsingular(7, 2, rng=rng) for _ in range(3)]
        assert check_multi(mats, seed=0) is not None


def test_check_multi_single_matrix_degenerates(twin_witness):
    rng = random.Random(13)
    for _ in range(20):
        m = random_nonsingular(P, 2, rng=rng)
        w = check_multi([m])
        spec = ForbiddenSpec(P, 2, c_lists=((), ()), d_lists=((0,), (0,)))
        assert (w is None) == (check_p1(m, spec) is None)


def test_check_multi_rejects_empty():
    with pytest.raises(InputError):
        check_multi([])


def test_check_multi_identity_matrices(twin_witness):
    eye = FpMatrix([[1, 0], [0, 1]], P)
    w = check_multi([eye, eye])
    assert w is not None
    assert all(c != 0 for c in w)  # here Mx = x forces x nowhere-zero


def test_check_multi_rejects_singular():
    good = random_nonsingular(P, 2, seed=0)
    bad = FpMatrix([[1, 2], [2, 4]], P)
    with pytest.raises(InputError, match="matrices must be nonsingular"):
        check_multi([good, bad])


# ---------------------------------------------------------------------------
# the ladder


def test_check_all_chain_consistency_on_randoms():
    rng = random.Random(4)
    for p in (5, 7):
        for _ in range(60):
            n = rng.choice((1, 2))
            m = random_nonsingular(p, n, rng=rng)
            spec = ForbiddenSpec.random(p, n, rng)
            report = check_all(m, spec)
            assert report.violations == ()
            assert report.ok
            assert report.p1 == report.p2 == report.p3
            if report.p3:
                assert report.p4
            if report.p4:
                assert report.p5


def test_check_all_known_matrix():
    m = FpMatrix([[1, 1], [1, 2]], P)
    report = check_all(m)
    assert report.p1_witness is not None
    assert not report.p1 and not report.p2 and not report.p3
    assert not report.p4 and not report.p5


def test_check_all_report_json():
    m = FpMatrix([[1, 1], [1, 2]], P)
    payload = check_all(m).to_json()
    assert payload["matrix"]["rows"] == [[1, 1], [1, 2]]
    assert payload["P1"] == {"vanishes": False, "witness": [1, 1]}
    assert payload["P2"] is False and payload["P5"] is False
    assert payload["violations"] == []
    assert payload["forbidden"]["c_lists"] == [[0], [0]]


def test_check_all_preconditions():
    with pytest.raises(InputError, match="the property chain needs p > 3"):
        check_all(FpMatrix([[1]], 3))
    with pytest.raises(InputError, match="the property chain is stated for nonsingular"):
        check_all(FpMatrix([[1, 2], [2, 4]], P))


def test_check_all_forced_vanishing():
    # forbid every value of x_1: no witness can exist, so P1..P5 all hold
    m = FpMatrix([[1]], P)
    spec = ForbiddenSpec(P, 1, c_lists=(tuple(range(P)),), d_lists=((),))
    report = check_all(m, spec)
    assert report.p1 and report.p2 and report.p3 and report.p4 and report.p5
    assert report.violations == ()


# ---------------------------------------------------------------------------
# finite differences


def test_delta_definition():
    rng = random.Random(5)
    f = FunctionTable.random(P, 2, rng)
    g = delta(f, (1, 2))
    for x in range(P):
        for y in range(P):
            want = (f.values[x, y] - f.values[(x + 1) % P, (y + 2) % P]) % P
            assert g.values[x, y] == want


def test_delta_along_v_kills_line_sums():
    rng = random.Random(6)
    for _ in range(20):
        f = FunctionTable.random(P, 2, rng)
        v = (rng.randrange(P), rng.randrange(P))
        if v == (0, 0):
            continue
        g = delta(f, v)
        assert line_sum(g, v).is_zero()


def test_line_sum_values():
    values = np.arange(P * P, dtype=np.int64).reshape(P, P) % P
    f = FunctionTable(P, values)
    s = line_sum(f, (1, 0))
    for x in range(P):
        for y in range(P):
            want = sum(values[(x + t) % P, y] for t in range(P)) % P
            assert s.values[x, y] == want


def test_members_of_delta_image_pass_both_routes():
    rng = random.Random(7)
    for _ in range(30):
        g = FunctionTable.random(P, 2, rng)
        f = delta(delta(g, (1, 0)), (0, 1))
        r1, r2 = image_membership_routes(f)
        assert r1 and r2


def test_matrix_direction_image_membership():
    rng = random.Random(8)
    m = FpMatrix([[1, 1], [1, 2]], P)
    for _ in range(30):
        g = FunctionTable.random(P, 2, rng)
        f = delta(delta(g, m.rows[0]), m.rows[1])
        r1, r2 = image_membership_routes(f, m)
        assert r1 and r2


def test_image_routes_agree_on_randoms():
    rng = random.Random(9)
    members = nonmembers = 0
    for _ in range(300):
        f = FunctionTable.random(P, 2, rng)
        r1, r2 = image_membership_routes(f)
        assert r1 == r2
        if r1:
            members += 1
        else:
            nonmembers += 1
    assert nonmembers > 0  # random tables are rarely in the image


def test_function_table_random_deterministic():
    a = FunctionTable.random(P, 2, random.Random(11))
    b = FunctionTable.random(P, 2, random.Random(11))
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# pairing and invariance


def test_pairing_report_on_known_matrix():
    m = FpMatrix([[1, 1], [1, 2]], P)
    report = pairing_test(m, trials=50, seed=0)
    assert report.ok
    assert report.p4 is False
    assert report.converse_confirmed  # sampling found a nonzero pairing
    assert report.nonzero_pairings > 0
    assert not report.exhaustive  # basis scan only runs when sampling fails
    # starve the sampler to force the exhaustive fallback
    starved = pairing_test(m, trials=0, seed=0)
    assert starved.exhaustive and starved.converse_confirmed


def test_pairing_on_randoms():
    rng = random.Random(10)
    for _ in range(10):
        m = random_nonsingular(P, 2, rng=rng)
        report = pairing_test(m, trials=30, seed=1)
        assert report.ok


def test_invariance_base_matches_p4():
    from ajtkit.group_ring import check_p4

    rng = random.Random(11)
    for _ in range(8):
        m = random_nonsingular(P, 2, rng=rng)
        report = multiplier_invariance_test(m, trials=25, seed=2)
        assert report.base == check_p4(m)
        assert report.mismatches == ()
        assert report.trials == 25


def test_invariance_with_higher_exponents():
    m = FpMatrix([[1]], P)
    report = multiplier_invariance_test(m, t=[2], t_prime=[3], trials=20, seed=3)
    assert report.base is True  # (1-g)^5 = 0 mod 5
    assert report.mismatches == ()

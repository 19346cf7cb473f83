"""Progression-closed subsets of Z/p: predicates, constructions, searches."""

import importlib
import inspect
import itertools
import json
import math
import pathlib
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajtkit import apsets, kernels
from ajtkit.apsets import (
    ApWitness,
    ResidueSet,
    WitnessMap,
    appendix_rows,
    build_s1_log,
    build_sk,
    is_nk_type,
    is_sk_type,
    min_s1_search,
    partition_nk,
    verify_appendix,
    witness_covers_centered,
    witness_covers_forward,
)
from ajtkit.budget import Budget
from ajtkit.errors import BudgetExceeded, InputError, MathViolation
from ajtkit.fp_core import FpMatrix
from ajtkit.multipliers import (
    appendix_lookup,
    good_subsets,
    multipliers_valid,
    random_multipliers,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def naive_is_s1(elements, p):
    """Direct definition: every element is the midpoint of a 3-progression."""
    aset = set(elements)
    for a in aset:
        if not any(
            (a - d) % p in aset and (a + d) % p in aset for d in range(1, p)
        ):
            return False
    return True


def naive_is_nk(elements, p, k):
    aset = set(elements)
    for a in aset:
        if not any(
            all((a + i * d) % p in aset for i in range(-k, k + 1))
            for d in range(1, p)
        ):
            return False
    for b in set(range(p)) - aset:
        if not any(
            all((b + i * d) % p in aset for i in range(1, k + 1))
            for d in range(1, p)
        ):
            return False
    return True


def brute_force_min_s1(p):
    """Smallest S_1-type subset by raw enumeration, 0 fixed by translation."""
    for size in range(3, p + 1):
        for rest in itertools.combinations(range(1, p), size - 1):
            cand = (0,) + rest
            if naive_is_s1(cand, p):
                return size, cand
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# ResidueSet


def test_residue_set_round_trips():
    s = ResidueSet.from_elements(13, [0, 5, 12, 5])
    assert s.elements() == (0, 5, 12)
    assert len(s) == 3
    assert 5 in s and 6 not in s


def test_residue_set_ops():
    s = ResidueSet.from_elements(7, [0, 1, 3])
    assert s.translate(2).elements() == (2, 3, 5)
    assert s.translate(5).translate(2) == s
    assert s.dilate(2).elements() == (0, 2, 6)


def test_residue_set_elements_read_every_bit():
    rng = random.Random(11)
    for p in (5, 61, 67, 127, 131, 20011):
        full = (1 << p) - 1
        for mask in (0, 1, 1 << (p - 1), full, rng.getrandbits(p)):
            want = tuple(i for i in range(p) if mask >> i & 1)
            assert ResidueSet(p, mask).elements() == want


def test_residue_set_rejects_masks_outside_p():
    for p in (5, 61, 67, 20011):
        assert ResidueSet(p, (1 << p) - 1).elements() == tuple(range(p))
        for mask in (1 << p, -1, -(1 << p)):
            with pytest.raises(InputError):
                ResidueSet(p, mask)


def test_residue_set_reads_its_mask_as_an_index():
    # the mask is read with operator.index, as from_elements reads elements:
    # a float is refused, a numpy integer becomes an int, so the kernels are
    # always handed an int
    for bad in (5.0, 5.5, "5", b"\x05", None):
        with pytest.raises(InputError):
            ResidueSet(7, bad)
    for mask in (np.int64(5), np.uint8(5), np.int32(5), True):
        s = ResidueSet(7, mask)
        assert type(s.mask) is int and s.mask == int(mask)
        assert is_sk_type(s, 1) == is_sk_type(ResidueSet(7, int(mask)), 1)
    with pytest.raises(InputError):
        ResidueSet(7, np.int64(-1))


def test_residue_set_rejects_bad_elements():
    # elements are read with operator.index: a float or a string is refused,
    # not truncated or parsed, and numpy integers are integers
    for bad in ([7], [-1], [1.9], ["3"]):
        with pytest.raises(InputError):
            ResidueSet.from_elements(7, bad)
    s = ResidueSet.from_elements(7, [1, np.int64(3), np.int32(5), np.uint8(6)])
    assert s.elements() == (1, 3, 5, 6)


def test_witness_helpers():
    s = ResidueSet.from_elements(11, [1, 3, 5, 9, 0])
    assert witness_covers_centered(s, ApWitness(3, 2, 1))
    assert not witness_covers_centered(s, ApWitness(3, 4, 1))
    # forward: element itself outside, next k steps inside
    assert witness_covers_forward(s, ApWitness(10, 2, 2))  # 10+2=1, 10+4=3
    assert not witness_covers_forward(s, ApWitness(10, 3, 2))


def test_ap_witness_is_an_immutable_tuple_record():
    w = ApWitness(3, 2, 1)
    assert ApWitness._fields == ("element", "step", "radius")
    assert (w.element, w.step, w.radius) == (3, 2, 1)
    assert w == (3, 2, 1) and hash(w) == hash((3, 2, 1))
    for name in ApWitness._fields:
        with pytest.raises(AttributeError):
            setattr(w, name, 0)


@pytest.fixture(scope="module")
def n1_part():
    """The first part of the seeded N_1 partition of Z/20011."""
    return partition_nk(20011, 1, seed=0).parts[0]


def scan_records(hits, k):
    """{e: ApWitness(e, d, k)} for the hits of a scan's buffer, built here
    one at a time."""
    at = np.frombuffer(hits, dtype=np.int32).tolist()
    half = len(at) // 2
    return {e: ApWitness(e, d, k) for e, d in zip(at[:half], at[half:])}


def test_nk_maps_list_the_kernel_hits_as_records(n1_part):
    # both maps hold the scans' hits in the kernel's order, ascending
    # element, each as the record ApWitness(a, d, 1), which the independent
    # checkers accept
    p, mask = n1_part.p, n1_part.mask
    report = is_nk_type(n1_part, 1)
    assert report.ok
    scans = [
        (report.inside, False, witness_covers_centered),
        (report.outside, True, witness_covers_forward),
    ]
    for witnesses, forward, covers in scans:
        hits, least = kernels.first_hit_scan(mask, p, 1, forward, True)
        assert least is None and isinstance(witnesses, WitnessMap)
        want = scan_records(hits, 1)
        assert witnesses == want and want == witnesses
        assert list(witnesses) == list(want) == sorted(want)
        assert list(witnesses.items()) == list(want.items())
        assert all(type(w) is ApWitness and covers(n1_part, w) for w in witnesses.values())


def test_nk_report_is_the_same_on_the_pure_backend(n1_part, monkeypatch):
    built = is_nk_type(n1_part, 1)
    monkeypatch.setattr(kernels, "_ext", None)
    pure = is_nk_type(n1_part, 1)
    assert pure == built
    assert list(pure.inside.items()) == list(built.inside.items())
    assert list(pure.outside.items()) == list(built.outside.items())


def test_witness_map_builds_its_records_once_on_first_read(n1_part):
    # len comes from the hits buffer; the first read of a key, value or item
    # builds the dict of every record, which later reads reuse
    report = is_nk_type(n1_part, 1)
    inside, outside = report.inside, report.outside
    assert len(inside) == len(n1_part) and len(outside) == n1_part.p - len(n1_part)
    assert bool(outside) and inside._records is None and outside._records is None
    for read in (list, lambda m: m.keys(), lambda m: m.values(), lambda m: m.items(),
                 lambda m: m[next(iter(m))], lambda m: min(m) in m):
        fresh = WitnessMap(inside._hits, 1)
        read(fresh)
        built = fresh._records
        assert type(built) is dict and len(built) == len(fresh)
        read(fresh)
        fresh.get(-1)
        assert fresh._records is built
    # keys ascending; an element the scan did not ask about is no key
    keys = list(outside)
    assert keys == sorted(keys) and len(keys) == len(outside)
    for absent in (min(inside), -1, n1_part.p):
        with pytest.raises(KeyError):
            outside[absent]
        assert absent not in outside and outside.get(absent) is None
    with pytest.raises(TypeError):
        outside[keys[0]] = ApWitness(keys[0], 1, 1)


def test_witness_map_compares_as_a_dict():
    s = ResidueSet.from_elements(13, [0, 1, 2, 3, 5, 8])
    report = is_nk_type(s, 1)
    want = {b: ApWitness(b, d, 1) for b, d in
            [(4, 1), (6, 2), (7, 1), (9, 4), (10, 3), (11, 2), (12, 1)]}
    assert report.outside == want and want == report.outside
    assert report.outside != {**want, 4: ApWitness(4, 2, 1)}
    assert report.outside != report.inside and report.outside == is_nk_type(s, 1).outside
    assert WitnessMap(b"", 1) == {} and len(WitnessMap(b"", 1)) == 0
    assert repr(report.outside).startswith("WitnessMap({4: ApWitness(element=4, step=1")


def test_full_field_scan_holds_its_hits_not_records(compiled, monkeypatch):
    # 100,003 witnesses at 8 bytes each, where a dict of records held about
    # 150 bytes each
    monkeypatch.setattr(kernels, "_ext", compiled)
    p = 100003
    full = ResidueSet(p, (1 << p) - 1)
    tracemalloc.start()
    try:
        report = is_sk_type(full, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.witnesses) == p
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# S_k / N_k predicates


def test_is_sk_matches_naive_on_randoms():
    rng = random.Random(3)
    for p in (7, 11, 13, 17):
        for _ in range(60):
            elements = [a for a in range(p) if rng.random() < 0.5]
            s = ResidueSet.from_elements(p, elements)
            assert is_sk_type(s, 1).ok == naive_is_s1(elements, p)


def test_is_nk_matches_naive_on_randoms():
    rng = random.Random(4)
    for p in (11, 13):
        for k in (1, 2):
            for _ in range(40):
                elements = [a for a in range(p) if rng.random() < 0.7]
                s = ResidueSet.from_elements(p, elements)
                assert is_nk_type(s, k).ok == naive_is_nk(elements, p, k), (
                    p,
                    k,
                    elements,
                )


def test_sk_witnesses_are_checkable():
    s = build_s1_log(61)
    report = is_sk_type(s, 1)
    assert report.ok
    assert set(report.witnesses) == set(s.elements())
    for w in report.witnesses.values():
        assert witness_covers_centered(s, w)


def test_nk_outside_witnesses_are_checkable():
    s = ResidueSet.from_elements(13, [0, 1, 2, 3, 5, 8])
    report = is_nk_type(s, 1)
    assert report.ok
    for b, w in report.outside.items():
        assert b not in s
        assert w.element == b
        assert witness_covers_forward(s, w)


def test_full_field_is_sk_for_all_radii():
    p = 11
    s = ResidueSet.from_elements(p, range(p))
    for k in (1, 2, 3, 4, 5):
        assert is_sk_type(s, k).ok
        assert is_nk_type(s, k).ok


def test_failing_element_reported():
    s = ResidueSet.from_elements(11, [0, 1, 2])  # 0 <- (10,1)? 10 missing
    report = is_sk_type(s, 1)
    assert not report.ok
    assert report.failing in (0, 2)
    assert not bool(report)


def test_no_three_element_s1_set():
    # 3 points cannot all be midpoints unless the progression relation
    # degenerates, which needs p = 3
    for p in (5, 7, 11):
        for cand in itertools.combinations(range(p), 3):
            assert not naive_is_s1(cand, p)
            assert not is_sk_type(ResidueSet.from_elements(p, cand), 1).ok


def test_n1_equals_s1_for_nonempty():
    # outside condition for k=1 only needs one neighbour inside, which a
    # nonempty set always provides
    rng = random.Random(9)
    for _ in range(80):
        p = rng.choice((7, 11, 13))
        elements = [a for a in range(p) if rng.random() < 0.4]
        if not elements:
            continue
        s = ResidueSet.from_elements(p, elements)
        assert is_nk_type(s, 1).ok == is_sk_type(s, 1).ok


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 11, 13]), st.data())
def test_s1_invariant_under_affine_maps(p, data):
    elements = data.draw(
        st.lists(st.integers(0, p - 1), min_size=3, max_size=p, unique=True)
    )
    s = ResidueSet.from_elements(p, elements)
    base = is_sk_type(s, 1).ok
    shift = data.draw(st.integers(0, p - 1))
    lam = data.draw(st.integers(1, p - 1))
    assert is_sk_type(s.translate(shift), 1).ok == base
    assert is_sk_type(s.dilate(lam), 1).ok == base


# ---------------------------------------------------------------------------
# logarithmic construction


def test_build_s1_log_certifies_everywhere():
    for p in SMALL_PRIMES + [67, 101, 127, 199, 257, 503, 1009, 4099, 7919]:
        s = build_s1_log(p)
        assert is_sk_type(s, 1).ok, p


def test_build_s1_log_examples():
    assert build_s1_log(13).elements() == (0, 1, 3, 6, 10, 12)
    assert len(build_s1_log(13)) == 6 == 2 * int(math.log2(13))
    assert len(build_s1_log(101)) <= 12


def test_build_s1_log_contains_seed():
    for p in (13, 61, 101, 257):
        s = build_s1_log(p)
        for e in (0, 1, p - 1, (p - 1) // 2):
            assert e in s, (p, e)


def test_build_s1_log_matches_its_definition():
    # the mask built in one pass holds exactly the seeds and both halving
    # chains, for every prime below 10^4
    for p in range(5, 10**4):
        if not all(p % q for q in range(2, math.isqrt(p) + 1)):
            continue
        s = (p - 1) // 4 if p % 4 == 1 else (p + 1) // 4
        elements = {0, 1, p - 1, (p - 1) // 2}
        while s:
            elements |= {s, p - s}
            s //= 2
        assert build_s1_log(p).mask == sum(1 << e for e in elements), p


def test_build_s1_log_exact_size_law():
    # size is 2*bitlength(s)+2 for s = (p -+ 1)/4; this equals
    # 2*floor(log2 p) except when p is a Mersenne prime = 3 mod 4,
    # where it comes out 2 larger
    for p in SMALL_PRIMES + [67, 101, 127, 131, 257, 8191, 8209]:
        s = (p - 1) // 4 if p % 4 == 1 else (p + 1) // 4
        size = len(build_s1_log(p))
        assert size == 2 * s.bit_length() + 2, p
        expected_log = 2 * (p.bit_length() - 1)
        if p % 4 == 3 and (p & (p + 1)) == 0:
            assert size == expected_log + 2, p
        else:
            assert size == expected_log, p


# ---------------------------------------------------------------------------
# minimum search


def test_min_s1_fixture_sets_are_genuine():
    data = json.loads((FIXTURES / "min_s1_oracle.json").read_text())
    for p_str, row in data.items():
        p = int(p_str)
        assert len(row["elements"]) == row["size"]
        assert naive_is_s1(row["elements"], p)
        assert is_sk_type(ResidueSet.from_elements(p, row["elements"]), 1).ok


def test_min_s1_fixture_matches_live_oracle():
    data = json.loads((FIXTURES / "min_s1_oracle.json").read_text())
    for p in (5, 7, 11, 13):
        size, witness = brute_force_min_s1(p)
        assert size == data[str(p)]["size"]
        assert list(witness) == data[str(p)]["elements"]


def test_min_s1_search_matches_oracle():
    data = json.loads((FIXTURES / "min_s1_oracle.json").read_text())
    for p in (5, 7, 11, 13):
        res = min_s1_search(p)
        assert res.size == data[str(p)]["size"]
        assert res.proven_optimal
        assert is_sk_type(res.aset, 1).ok
        assert tuple(res.sizes_exhausted) == tuple(range(3, res.size))


def test_min_s1_search_bounded_by_construction():
    for p in (17, 29, 41):
        res = min_s1_search(p)
        assert res.size <= len(build_s1_log(p))


def test_min_s1_search_61_and_67():
    r61 = min_s1_search(61)
    assert r61.size == 8 and r61.proven_optimal
    r67 = min_s1_search(67)
    assert r67.size == 8 and r67.proven_optimal
    # the minimum matches the table entry for 67
    assert len(appendix_lookup(67)) == 8


def test_min_s1_search_budget_exhaustion_is_honest():
    res = min_s1_search(61, budget=Budget(nodes=50))
    assert not res.proven_optimal
    assert res.size == len(build_s1_log(61))  # falls back to the upper bound
    assert is_sk_type(res.aset, 1).ok


def test_min_s1_search_takes_an_int_budget():
    # an int is a node count, the same budget as its string form
    for nodes in (50, 10**9):
        assert min_s1_search(13, budget=nodes) == min_s1_search(13, budget=str(nodes))
    with pytest.raises(InputError):
        min_s1_search(13, budget=0)


# ---------------------------------------------------------------------------
# staged construction, radius >= 2


def test_build_sk_rejects_k1():
    with pytest.raises(InputError):
        build_sk(13, 1)


def test_build_sk_certifies_and_reports():
    c = build_sk(211, 2)
    assert c.report.ok
    assert is_sk_type(c.aset, 2).ok
    assert c.x == 2  # smallest x with x^12 >= 211
    assert len(c.stage_sizes) == 4 * 2 + 4


def test_build_sk_x_is_ceil_root():
    for p, want in ((211, 2), (4099, 3), (10007, 3)):
        assert build_sk(p, 2).x == want


def test_build_sk_charges_its_progression_walks():
    # at p = 100000007, x = 5, and stage 1's first walk, steps of 5 from 8
    # back into [-10, 10], takes about p / 5 steps: a small node budget stops
    # it, where an uncharged walk runs for tens of seconds
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="staged construction needs more than 10000 nodes"):
        build_sk(100000007, 2, budget=Budget(nodes=10**4))
    assert time.perf_counter() - start < 2


def test_build_sk_saturates_at_this_scale():
    # the staged sets wrap around mod p for any p this small, so the union
    # is the whole field; the small-set regime starts far above 10^4
    for p in (101, 1009, 10007):
        c = build_sk(p, 2)
        assert len(c.aset) == p


# ---------------------------------------------------------------------------
# partitions


def test_partition_single_part():
    part = partition_nk(13, 1, parts=1, seed=5)
    assert len(part.parts) == 1
    assert part.parts[0].elements() == tuple(range(13))
    assert part.attempts == 1


def test_partition_two_parts_257():
    part = partition_nk(257, 1, parts=2, seed=0, max_tries=200)
    assert len(part.parts) == 2
    first, second = (q.mask for q in part.parts)
    assert first | second == (1 << 257) - 1 and first & second == 0
    for q in part.parts:
        assert is_nk_type(q, 1).ok


def test_partition_deterministic_by_seed():
    a = partition_nk(257, 1, parts=2, seed=7, max_tries=200)
    b = partition_nk(257, 1, parts=2, seed=7, max_tries=200)
    assert [q.elements() for q in a.parts] == [q.elements() for q in b.parts]
    c = partition_nk(257, 1, parts=2, seed=8, max_tries=200)
    assert [q.elements() for q in c.parts] != [q.elements() for q in a.parts]


def test_partition_default_part_count_needs_large_p():
    # at p=257 the default count ceil(p^(1/3)) = 7 makes uniform draws
    # essentially never certify; the failure must be reported, not hidden
    with pytest.raises(MathViolation, match="no N_1 partition of F_257 into 7 parts in 25 draws"):
        partition_nk(257, 1, seed=0, max_tries=25)


def test_partition_draw_test_rejects_what_is_nk_type_rejects():
    # the draw test reads only the kernel scans' leftovers; at p = 10007,
    # seed 4, the first draw has a part that is not N_1 and the second is kept
    p, parts = 10007, 22  # ceil(10007^(1/3))
    part = partition_nk(p, 1, seed=4)
    assert part.attempts == 2
    rng = random.Random(4)
    draws = []
    for _ in range(2):
        labels = [rng.randrange(parts) for _ in range(p)]
        draws.append(
            [
                ResidueSet.from_elements(p, (r for r, lab in enumerate(labels) if lab == j))
                for j in range(parts)
            ]
        )
    assert not all(is_nk_type(q, 1).ok for q in draws[0])
    assert list(part.parts) == draws[1]
    assert all(is_nk_type(q, 1).ok for q in part.parts)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_partition_masks_match_the_per_residue_construction(seed):
    # the same draws, one residue at a time: every draw before the kept one
    # has a part that is not N_1, and the kept draw gives the same masks
    p, parts = 1009, 8
    part = partition_nk(p, 1, parts=parts, seed=seed)
    rng = random.Random(seed)
    for attempt in range(1, part.attempts + 1):
        labels = [rng.randrange(parts) for _ in range(p)]
        masks = [0] * parts
        for residue, lab in enumerate(labels):
            masks[lab] |= 1 << residue
        kept = all(is_nk_type(ResidueSet(p, m), 1).ok for m in masks)
        assert kept == (attempt == part.attempts)
    assert [q.mask for q in part.parts] == masks


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("parts", [1, 2, 3, 28, 32])
def test_label_draws_are_randrange_word_for_word(seed, parts):
    # the bulk draw gives the labels of p randrange(parts) calls, and leaves
    # the generator where those calls leave it, draw after draw
    p = 1009
    bulk, single = random.Random(seed), random.Random(seed)
    for _ in range(3):
        labels = apsets._draw_labels(bulk, p, parts)
        assert labels.tolist() == [single.randrange(parts) for _ in range(p)]
        assert bulk.getstate() == single.getstate()


def test_partition_charges_its_draws_before_drawing():
    # each draw is charged the words its scans may read, on top of the draws
    # before it: a budget of one draw's words stops the second draw of a
    # seed whose first is refused, and admits the first draw that is kept
    p, parts = 1009, 8
    words = apsets._draw_words(p, 1, parts)
    assert words == p * 8 + parts * 16  # ceil(1008 / 128) words a center, L = 16
    first = partition_nk(p, 1, parts=parts, seed=0)
    one = Budget(nodes=words)
    seed = next(s for s in range(20) if partition_nk(p, 1, parts=parts, seed=s).attempts > 1)
    with pytest.raises(BudgetExceeded, match="draw 2"):
        partition_nk(p, 1, parts=parts, seed=seed, budget=one)
    if first.attempts == 1:
        assert partition_nk(p, 1, parts=parts, seed=0, budget=one) == first
    with pytest.raises(BudgetExceeded, match="draw 1"):
        partition_nk(p, 1, parts=parts, seed=0, budget=words - 1)
    # the default budget admits every default draw of an N_1 partition of F_20011
    assert 200 * apsets._draw_words(20011, 1, 28) <= Budget().nodes


def test_partition_charges_forward_windows_and_candidate_tests():
    # at k >= 2 a forward scan reads at most ceil((p - 1)/64) windows for
    # each residue outside its part, and the candidate tests of all the
    # scans of a draw, each an element of a part as e + d, are at most p^2
    p, parts = 1009, 4  # ceil(1009^(1/5))
    assert apsets._draw_words(p, 2, parts) == p * 8 + parts * p * 16 + p * p == 1090729


def test_partition_rejects_more_parts_than_residues():
    # a part would be empty, and the empty set is never N_k-type
    for parts in (0, 14, 100):
        with pytest.raises(InputError):
            partition_nk(13, 1, parts=parts, seed=0)


def test_partition_draw_test_runs_the_outside_scan():
    # in Z/5 a part of two or one elements has no centered witnesses, so only
    # a draw putting all of Z/5 in one part passes the inside scans (the empty
    # part vacuously); the outside scan of the empty part must reject it
    rng = random.Random(0)
    assert any(len({rng.randrange(2) for _ in range(5)}) == 1 for _ in range(50))
    with pytest.raises(MathViolation, match="no N_1 partition of F_5 into 2 parts in 50 draws"):
        partition_nk(5, 1, parts=2, seed=0, max_tries=50)


@pytest.mark.slow
def test_partition_default_part_count_succeeds_eventually():
    part = partition_nk(30011, 1, seed=0, max_tries=20)
    assert len(part.parts) == 32  # ceil(30011^(1/3))
    covered = set()
    for q in part.parts:
        els = q.elements()
        assert not covered.intersection(els)
        covered.update(els)
    assert len(covered) == 30011


# ---------------------------------------------------------------------------
# multipliers and good subsets


def std_basis(p, n):
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


def test_random_multipliers_single_coordinate():
    e = std_basis(5, 1)
    u = [ResidueSet.from_elements(5, [1])]
    v = [ResidueSet.from_elements(5, [1])]
    cert = random_multipliers(e, e, u, v, seed=0)
    assert cert.lambdas[0] != 1
    assert multipliers_valid(e, e, u, v, cert.lambdas, route="exhaustive")


def test_random_multipliers_routes_agree():
    rng = random.Random(12)
    p, n = 13, 2
    for _ in range(30):
        e = std_basis(p, n)
        f = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
        if FpMatrix(f, p).det() == 0:
            continue
        boxes = []
        for _ in range(2 * n):
            size = rng.randint(1, 3)
            boxes.append(
                ResidueSet.from_elements(
                    p, rng.sample(range(1, p), size)
                )
            )
        u, v = boxes[:n], boxes[n:]
        lams = [rng.randrange(1, p) for _ in range(n)]
        assert multipliers_valid(
            e, f, u, v, lams, route="exhaustive"
        ) == multipliers_valid(e, f, u, v, lams, route="solve")


def test_random_multipliers_certificate_verifies():
    p, n = 67, 2
    e = std_basis(p, n)
    f = [(1, 1), (1, 2)]
    a = appendix_lookup(p)
    boxes = [
        ResidueSet.from_elements(p, [x for x in a.elements() if x != 0])
    ] * (2 * n)
    cert = random_multipliers(e, f, boxes[:n], boxes[n:], seed=3)
    assert multipliers_valid(
        e, f, boxes[:n], boxes[n:], cert.lambdas, route="exhaustive"
    )
    assert all(1 <= lam < p for lam in cert.lambdas)
    # the certificate names the route that ran, and that route accepts it
    assert cert.route in ("exhaustive", "solve")
    assert multipliers_valid(e, f, boxes[:n], boxes[n:], cert.lambdas, route=cert.route)
    gs = good_subsets(p, 1, e, e, seed=1)
    cert = gs.certificate
    assert cert.route in ("exhaustive", "solve")
    assert multipliers_valid(
        e, e, gs.a_sets, [gs.base_b] * n, cert.lambdas, route=cert.route
    )


def test_random_multipliers_precondition():
    p, n = 5, 1
    e = std_basis(p, n)
    big = [ResidueSet.from_elements(p, [1, 2, 3, 4])]
    with pytest.raises(InputError, match=r"box size product 16 must stay below \(p-1\)\^n = 4"):
        random_multipliers(e, e, big, big, seed=0)


def test_good_subsets_67():
    p, n = 67, 2
    e = std_basis(p, n)
    f = [(1, 1), (1, 2)]
    gs = good_subsets(p, 1, e, f, seed=0)
    assert len(gs.a_sets) == n and len(gs.b_sets) == n
    for a in gs.a_sets:
        assert 0 not in a
        assert is_sk_type(a, 1).ok
    for b in gs.b_sets:
        assert 0 not in b
        assert is_nk_type(b, 1).ok
    # the defining property: sum x_i e_i never equals sum y_i f_i
    sums_left = {
        tuple(
            sum(c * v for c, v in zip(combo, col)) % p for col in zip(*e)
        )
        for combo in itertools.product(*[a.elements() for a in gs.a_sets])
    }
    sums_right = {
        tuple(
            sum(c * v for c, v in zip(combo, col)) % p for col in zip(*f)
        )
        for combo in itertools.product(*[b.elements() for b in gs.b_sets])
    }
    assert not sums_left & sums_right


def test_good_subsets_small_p_precondition():
    # S_1(13)^2 = 36 >= 12, so no certified base pair exists at p=13
    p, n = 13, 1
    e = std_basis(p, n)
    with pytest.raises(InputError, match=r"need \|A\| \* \|B\| < p - 1, got 6 \* 6 vs 12"):
        good_subsets(p, 1, e, e, seed=0)


@pytest.mark.parametrize(
    "k, given_a, budget, what",
    [
        (1, False, Budget(entries=1), "S_1 construction masks"),
        (2, False, Budget(nodes=1), "staged construction"),
        (2, True, Budget(nodes=1), "N_2 partition through draw 1"),
    ],
)
def test_good_subsets_charges_its_budget_first(monkeypatch, k, given_a, budget, what):
    # 1009 has no table row, so k = 1 builds the log set: a small entries
    # or node budget reaches the construction or the partition, which stop
    # before a set is returned or a label drawn, and no multiplier is tried
    p = 1009
    e = std_basis(p, 2)
    monkeypatch.setattr(apsets, "_draw_labels", pytest.fail)
    monkeypatch.setattr("ajtkit.multipliers.random_multipliers", pytest.fail)
    a_set = ResidueSet(p, (1 << p) - 1) if given_a else None
    with pytest.raises(BudgetExceeded, match=what):
        good_subsets(p, k, e, e, a_set=a_set, budget=budget)


# ---------------------------------------------------------------------------
# the embedded table


def test_appendix_has_27_rows():
    rows = appendix_rows()
    assert len(rows) == 27
    assert [r.p for r in rows][:4] == [67, 71, 73, 83]
    assert rows[-1].p == 257


def test_appendix_skips_79():
    ps = {r.p for r in appendix_rows()}
    assert 79 not in ps
    assert 61 not in ps  # table starts above 61


def test_verify_appendix_all_rows_pass():
    report = verify_appendix()
    assert report.ok
    assert len(report.rows) == 27
    for row in report.rows:
        assert row.ok and row.is_s1 and row.below_sqrt
        assert row.stated_size == row.actual_size


def test_appendix_known_sizes():
    sizes = {r.p: r.size for r in appendix_rows()}
    assert sizes[67] == 8
    assert sizes[101] == 9
    assert sizes[257] == 11


def test_appendix_lookup():
    assert appendix_lookup(67).elements() == (0, 1, 3, 6, 11, 35, 54, 66)
    assert appendix_lookup(5) is None


# ---------------------------------------------------------------------------
# what reading a result runs


def public_ajtkit_calls(read):
    """Names of the public module-level ajtkit functions that read() enters,
    seen by sys.setprofile: the functions a span tracer would wrap."""
    public = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("ajtkit.") and module is not None:
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == name
                ):
                    public[fn.__code__] = f"{name}.{attr}"
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            calls.append(public[frame.f_code])

    sys.setprofile(profile)
    try:
        read()
    finally:
        sys.setprofile(None)
    return calls


def test_reading_results_calls_no_public_function(n1_part):
    # reading a result back (elements, report fields, witness maps) runs no
    # public ajtkit function, so a tracer that wraps them charges nothing to
    # the reader; the first read shows that the probe sees such calls
    for name in ("kernels", "_kernels_py", "masks", "fp_core", "properties", "multipliers"):
        importlib.import_module(f"ajtkit.{name}")
    assert "ajtkit.apsets.build_s1_log" in public_ajtkit_calls(lambda: build_s1_log(13))
    found = min_s1_search(13)
    sk = is_sk_type(build_s1_log(61), 1)
    nk = is_nk_type(n1_part, 1)

    def read():
        n1_part.elements()
        list(n1_part)
        for result in (found, sk, nk):
            for name in result._fields:
                getattr(result, name)
        found.aset.elements()
        for witnesses in (sk.witnesses, nk.inside, nk.outside):
            for e, w in witnesses.items():
                assert (w.element, w.step, w.radius) == (e, w[1], w[2])

    assert public_ajtkit_calls(read) == []

"""Parity between the compiled kernels and their pure-Python twins.

Six kernels are compared. s1_exhaust must agree bit for bit: same found
set, same exhausted flag, the same node count and the same stop where its
table and stack would pass their cap in words, so that proven_optimal
claims and budget stops do not depend on which backend happened to
import. s1_log must return the same int mask on both backends, for every
prime below 20011 and two above 10^6. first_hit_scan, behind every S_k/N_k
certification, must return the same hits buffer, byte for byte, ascending
element, and the same least uncovered element, so that witness maps do
not depend on the backend either: the compiled scan reads word windows
around each element and the pure one rotates the mask, two independent
methods, and both must give what the definition gives. The WitnessMaps over either backend's hits
buffer, records included, must agree the same way, and a scan asked for no
hits must name the same least uncovered element.
affine_product, behind every P2/P5/duality product, must return on both
backends the tensor that the same factors give through mul_reduce, by the
shift route and by the interpolate route. products_vanish, behind the
sweep's group-ring verdicts, must return the same flags on both backends,
byte for byte, as an np.roll expansion of each matrix's product gives them;
and properties.sweep_verdicts, its one caller, must give on each backend
the witness and both flags that check_p1 and the factor products over Z and
F_p give one matrix at a time. first_witness, behind check_p1, check_multi
and the sweep, must return the same witnesses, flags and units on both
backends, on drawn rows, forbidden lists, value orders and caps, and the
witness a brute force over F_p^n finds first in the search's order.

The `compiled` fixture (conftest.py) is the built extension, or one
compiled into a temporary directory; the tests skip only when no C compiler
is available. The `ext` fixture puts that module behind ajtkit.kernels,
which hands it masks as ints and gets them back as ints; the `backend`
fixture runs a test once on each backend; `witness_twins` (conftest.py)
runs a first_witness call on both, or on the pure one alone when there is
no compiler.
"""

import itertools
import math
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajtkit import _kernels_py, apsets, fp_core, group_ring, kernels, properties
from ajtkit.budget import Budget
from ajtkit.fp_poly import ReducedPoly, mul_reduce

PRIMES = [5, 7, 11, 13, 17, 19, 23]
# the words of table and stack that the default entries budget allows
WORDS = Budget().entries


@pytest.fixture
def ext(compiled, monkeypatch):
    """ajtkit.kernels running the compiled backend."""
    monkeypatch.setattr(kernels, "_ext", compiled)
    return kernels


@pytest.fixture(params=["compiled", "pure"])
def backend(request, monkeypatch):
    """ajtkit.kernels running each backend in turn."""
    compiled = request.getfixturevalue("compiled") if request.param == "compiled" else None
    monkeypatch.setattr(kernels, "_ext", compiled)
    return kernels


def naive_witness_mask(mask, p):
    """Elements of the set that sit in the middle of some 3-term progression."""
    elements = [a for a in range(p) if (mask >> a) & 1]
    out = 0
    for a in elements:
        for d in range(1, p):
            if (mask >> ((a - d) % p)) & 1 and (mask >> ((a + d) % p)) & 1:
                out |= 1 << a
                break
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_exhaust_parity(ext, p):
    for limit in range(3, 2 * p.bit_length() + 3):
        got_c = ext.s1_exhaust(p, limit, 10**8, WORDS)
        got_py = _kernels_py.s1_exhaust(p, limit, 10**8, WORDS)
        assert got_c == got_py and type(got_c[0]) is int


@pytest.mark.parametrize("p", [131, 257, 331, 521, 1009])
def test_exhaust_parity_multi_limb(ext, p):
    # 3 to 16 64-bit limbs; 257 is the largest appendix row
    for limit in range(3, 6):
        got_c = ext.s1_exhaust(p, limit, 10**8, WORDS)
        assert got_c == _kernels_py.s1_exhaust(p, limit, 10**8, WORDS)
        assert got_c[0] == 0 and got_c[1] is True and got_c[2] > 0 and got_c[3] is False


def test_exhaust_parity_found_set(ext):
    # size 8 is the minimum at 67: the search stops on the first set found
    got_c = ext.s1_exhaust(67, 8, 10**8, WORDS)
    assert got_c == _kernels_py.s1_exhaust(67, 8, 10**8, WORDS)
    found, exhausted, _, full = got_c
    assert type(found) is int
    aset = apsets.ResidueSet(67, found)
    assert exhausted is True and full is False
    assert len(aset) == 8
    assert apsets.is_sk_type(aset, 1).ok


def test_pure_witness_mask_semantics():
    # the element the pure s1_exhaust repairs: the least one of the set
    # that is the middle of no 3-term progression inside it
    rng = random.Random(0)
    for p in PRIMES:
        for _ in range(200):
            mask = rng.getrandbits(p) | 1
            uncovered = mask & ~naive_witness_mask(mask, p)
            want = (uncovered & -uncovered).bit_length() - 1 if uncovered else None
            assert _kernels_py.first_hit_scan(mask, p, 1, False, False) == (None, want)


def test_exhaust_found_set_is_s1():
    for p in (11, 13, 17):
        found, exhausted, nodes, _ = kernels.s1_exhaust(p, 6, 10**8, WORDS)
        if found:
            aset = apsets.ResidueSet(p, found)
            assert apsets.is_sk_type(aset, 1).ok
            assert len(aset.elements()) <= 6
        assert nodes > 0


@pytest.mark.parametrize(
    "p, limit, cap", [(13, 5, 5), (61, 7, 0), (61, 7, 1000), (61, 7, 11149)]
)
def test_exhaust_respects_node_budget(ext, p, limit, cap):
    # each cap is below the tree size (11150 nodes at p = 61, limit 7), so
    # the search stops at the first node past it and reports exhausted=False
    capped = _kernels_py.s1_exhaust(p, limit, cap, WORDS)
    assert capped == (0, False, cap + 1, False)
    assert ext.s1_exhaust(p, limit, cap, WORDS) == capped


# masks of table and stack: the first table and stack hold 1024 + 256, the
# table doubles at 60% load and the stack when full
@pytest.mark.parametrize("masks", [0, 1279, 1280, 2303, 2304, 4351, 4352, 8448, 16640])
@pytest.mark.parametrize("p, limit", [(61, 7), (101, 6), (331, 5)])
def test_exhaust_respects_word_cap(ext, p, limit, masks):
    # both stop at the visit or push that would pass the cap, at the same
    # node, with full set; a cap that holds the whole search changes nothing
    words = masks * -(-p // 64)
    got = ext.s1_exhaust(p, limit, 10**8, words)
    assert got == _kernels_py.s1_exhaust(p, limit, 10**8, words)
    whole = ext.s1_exhaust(p, limit, 10**8, WORDS)
    found, exhausted, nodes, full = got
    if full:
        assert (found, exhausted) == (0, False) and nodes < whole[2]
        assert nodes == 0 if masks < 1280 else nodes > 0
    else:
        assert got == whole
    # a word short of the masks is a mask short
    assert ext.s1_exhaust(p, limit, 10**8, words - 1) == _kernels_py.s1_exhaust(
        p, limit, 10**8, words - 1
    )


def test_exhaust_word_cap_stops_at_a_growth():
    # at p = 61, limit 7 (one word a mask) the table doubles to 2048 slots
    # at its 615th visit, and a cap of 2303 masks stops the search there
    # with fewer nodes than one of 2304, which lets it grow once more
    short = _kernels_py.s1_exhaust(61, 7, 10**8, 2303)
    longer = _kernels_py.s1_exhaust(61, 7, 10**8, 2304)
    assert short[:2] == longer[:2] == (0, False) and short[3] and longer[3]
    assert 0 < short[2] < longer[2] < 11150


def test_exhaust_budget_beyond_64_bits(ext):
    for cap in (10**30, -(10**30)):
        for words in (WORDS, 10**30, -(10**30)):
            assert ext.s1_exhaust(13, 5, cap, words) == _kernels_py.s1_exhaust(13, 5, cap, words)


def test_exhaust_below_two_elements_answers_before_the_cap(ext):
    # limit < 2 answers before the first table and stack are charged
    for words in (0, WORDS):
        for limit in (-1, 0, 1):
            assert ext.s1_exhaust(1000003, limit, 10, words) == (0, True, 0, False)
            assert _kernels_py.s1_exhaust(1000003, limit, 10, words) == (0, True, 0, False)


def test_exhaust_rejects_p_out_of_range(compiled):
    for p in (3, 2, 0, -7):
        with pytest.raises(ValueError):
            compiled.s1_exhaust(p, 5, 10, WORDS)


SCAN_PRIMES = [5, 7, 61, 67, 127, 131, 257, 1009, 20011]


def scans(p):
    """(k, forward) for every scan at p: k from 1 up to 3 wherever
    2k + 1 <= p, centered and forward."""
    return [(k, forward) for k in (1, 2, 3) if 2 * k + 1 <= p for forward in (False, True)]


def scan_sets(p, rng):
    """Random sets of densities 1/2, 1/4, 1/8, 1/64 and 1/200, the log set,
    a sparse set, the empty set, a singleton, the full set, {0}, whose
    element has no centered witness, and {p - 1} and {0, p - 1}, whose
    forward gap past the last element is empty; {0}'s is the whole field
    less one."""
    half = rng.getrandbits(p)
    sparse = sum(1 << e for e in rng.sample(range(p), max(3, math.isqrt(4 * p))))
    log = apsets.build_s1_log(p).mask
    sets = [half, half & rng.getrandbits(p), log, sparse, 0, 1 << rng.randrange(p),
            (1 << p) - 1, 1, 1 << (p - 1), 1 | 1 << (p - 1)]
    return sets + [sum(1 << e for e in rng.sample(range(p), p // den)) for den in (8, 64, 200)]


def naive_scan(mask, p, k, forward):
    """The scan from its definition: the (e, d, k) of each element asked
    about, by ascending e, and the least element with no witness, or None.
    For d = 1, 2, ... each element still without a witness tests its
    progression through a membership table."""
    member = np.array([mask >> a & 1 for a in range(p)], dtype=bool)
    steps = range(1, k + 1) if forward else [i for i in range(-k, k + 1) if i]
    targets = np.flatnonzero(member != forward)
    left, first = targets, np.zeros(p, dtype=np.int64)
    for d in range(1, p):
        if not len(left):
            break
        ok = np.ones(len(left), dtype=bool)
        for i in steps:
            ok &= member[(left + i * d) % p]
        first[left[ok]] = d
        left = left[~ok]
    hits = [(int(e), int(first[e]), k) for e in targets if first[e]]
    return hits, int(left[0]) if len(left) else None


def hit_list(hits, k):
    """The (e, d, k) of each hit of a scan's hits buffer, in its order."""
    at = np.frombuffer(hits, dtype=np.int32).tolist()
    half = len(at) // 2
    return [(e, d, k) for e, d in zip(at[:half], at[half:])]


def scan_parity(ext, mask, p, k, forward):
    """The compiled windows and the pure rotation scan one set alike: the
    same hits buffer, byte for byte, and the same least element, with hits
    and without them. A scan with every element hit lists them all,
    ascending; one that leaves an element without a witness returns
    (None, least). Returns the hits and the least element."""
    hits, least = _kernels_py.first_hit_scan(mask, p, k, forward, True)
    assert ext.first_hit_scan(mask, p, k, forward, True) == (hits, least)
    for scan in (ext.first_hit_scan, _kernels_py.first_hit_scan):
        assert scan(mask, p, k, forward, False) == (None, least)
    if least is None:
        bits = format(mask, f"0{p}b")[::-1]
        targets = [e for e in range(p) if (bits[e] == "1") != forward]
        assert [e for e, _, _ in hit_list(hits, k)] == targets
    else:
        assert hits is None and mask >> least & 1 != forward
    return hits, least


def check_scan_parity(ext, p, wanted):
    """scan_parity for every scan (k, forward) at p that `wanted` picks, on
    every set of scan_sets. Up to p = 1009 both give the definition's; at
    20011 the definition, O(p^2) a scan, would take minutes."""
    rng = random.Random(p)
    for mask in scan_sets(p, rng):
        for k, forward in filter(wanted, scans(p)):
            hits, least = scan_parity(ext, mask, p, k, forward)
            if p <= 1009:
                want, first = naive_scan(mask, p, k, forward)
                assert least == first
                if least is None:
                    assert hit_list(hits, k) == want
            if mask == 1 and not forward:
                assert (hits, least) == (None, 0)


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_first_hit_scan_parity(ext, p):
    # one limb, limb edges (61, 67, 127, 131) and many limbs: forward scans
    # with more than one step
    check_scan_parity(ext, p, lambda scan: scan[1] and scan[0] > 1)


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_window_route_parity(ext, p):
    # centered scans, the sets left without a witness included: at every p
    # both backends leave {0} without a centered witness
    check_scan_parity(ext, p, lambda scan: not scan[1])


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_gap_route_parity(ext, p):
    # forward scans at k = 1, whose one step is +1: the compiled scan fills
    # the gaps below each element in one pass, the pure one rotates; {0},
    # {p - 1} and {0, p - 1} take the gap that wraps to its extremes
    check_scan_parity(ext, p, lambda scan: scan == (1, True))


@pytest.mark.parametrize(
    "lo, hi", [(5, 2000), pytest.param(2000, 10**4, marks=pytest.mark.slow)]
)
def test_log_set_scan_parity(ext, lo, hi):
    # the certify workload's S_1 verdicts: the log set of every prime below
    # 10^4, whose few elements leave most windows without a candidate
    for q in range(lo, hi):
        if fp_core.is_probable_prime(q):
            assert scan_parity(ext, apsets.build_s1_log(q).mask, q, 1, False)[1] is None


@pytest.mark.parametrize("p", [5, 67, 257])
@pytest.mark.parametrize("k, forward", [(1, False), (1, True), (2, False), (2, True)])
def test_scans_build_records_and_skip_maps(compiled, p, k, forward):
    # a hits buffer, from either backend, becomes through WitnessMap the map
    # of ApWitness(e, d, k) for each hit e at d, in the buffer's order; a
    # scan asked for no hits names the same least element
    rng = random.Random(p)
    for mask in (apsets.build_s1_log(p).mask, rng.getrandbits(p), (1 << p) - 1, 0):
        hits, least = _kernels_py.first_hit_scan(mask, p, k, forward, True)
        assert _kernels_py.first_hit_scan(mask, p, k, forward, False) == (None, least)
        if hits is None:
            continue
        built = compiled.first_hit_scan(mask, p, k, forward, True)
        assert built == (hits, None)
        want = [apsets.ApWitness(*h) for h in hit_list(hits, k)]
        for buffer in (hits, built[0]):
            records = apsets.WitnessMap(buffer, k)
            assert list(records) == [w.element for w in want]
            assert list(records.values()) == want
            assert all(type(w) is apsets.ApWitness for w in records.values())
            # hashed as the equal tuple, so records and Python-built
            # witnesses find each other in sets and dicts
            for w in records.values():
                assert hash(w) == hash(tuple(w)) and w in {apsets.ApWitness(*w)}


def affine_chain(coeffs, p, factors, route):
    """coeffs times each factor c0 + c1 x_1 + ... + cn x_n through mul_reduce."""
    n = coeffs.ndim
    out = ReducedPoly(p, n, coeffs)
    for c0, *cs in factors:
        terms = [((0,) * n, c0)] + [
            (tuple(int(i == j) for i in range(n)), c) for j, c in enumerate(cs)
        ]
        out = mul_reduce(out, ReducedPoly.from_terms(p, n, terms), route)
    return out.coeffs


def random_tensor(rng, p, n):
    return np.array([rng.randrange(p) for _ in range(p**n)], dtype=np.int64).reshape(
        (p,) * n
    )


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 4), (7, 3), (11, 4), (13, 3)])
def test_affine_product_matches_mul_reduce(backend, p, n):
    rng = random.Random(p * 100 + n)
    coeffs = random_tensor(rng, p, n)
    before = coeffs.copy()
    for size in (1, 3, 8):
        # some coefficients zero, so that factors skip axes or the constant
        factors = [
            tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n + 1))
            for _ in range(size)
        ]
        got = backend.affine_product(coeffs, p, factors)
        assert got.shape == (p,) * n and got.dtype == np.int64
        assert np.array_equal(got, affine_chain(coeffs, p, factors, "shift"))
        assert np.array_equal(got, affine_chain(coeffs, p, factors, "interpolate"))
    assert np.array_equal(coeffs, before)  # the input is left as it was


def test_affine_product_edge_cases(backend):
    p, n = 7, 3
    rng = random.Random(1)
    coeffs = random_tensor(rng, p, n)
    # no factors: the input, reduced; an unreduced input is reduced first
    assert np.array_equal(backend.affine_product(coeffs, p, []), coeffs)
    assert np.array_equal(backend.affine_product(coeffs - 3 * p, p, []), coeffs)
    # an all-zero factor zeroes the product, whatever follows
    zero = [(0,) * (n + 1)]
    assert not backend.affine_product(coeffs, p, zero + [(1, 2, 3, 4)]).any()
    # x_j alone, up to p + 1 times: x_j^p = x_j
    for j in range(n):
        unit = tuple(int(i == j + 1) for i in range(n + 1))
        for k in (1, 2, p - 1, p, p + 1):
            exps = [0] * n
            exps[j] = k
            want = mul_reduce(ReducedPoly(p, n, coeffs), ReducedPoly.monomial(p, n, exps))
            got = backend.affine_product(coeffs, p, [unit] * k)
            assert np.array_equal(got, want.coeffs)


def test_affine_product_reduces_lazily(backend):
    # at p = 65537 ten heavy factors multiply the entry bound far past int64,
    # so the kernel must reduce between factors to stay exact
    p, n = 65537, 1
    rng = random.Random(2)
    factors = [(rng.randrange(p // 2, p), rng.randrange(p // 2, p)) for _ in range(10)]
    assert (p - 1) * math.prod(c0 + 2 * c1 for c0, c1 in factors) > 2**63
    coeffs = random_tensor(rng, p, n)
    got = backend.affine_product(coeffs, p, factors)
    assert np.array_equal(got, affine_chain(coeffs, p, factors, "shift"))


def test_affine_product_rejects_bad_input(compiled):
    def entries(out):  # the compiled kernel returns a bytearray of int64
        return np.frombuffer(out, dtype=np.int64).ravel().tolist()

    tensor = np.zeros(5**2, dtype=np.int64)
    for kernel in (compiled.affine_product, _kernels_py.affine_product):
        assert entries(kernel(tensor, 5, 2, [(1, 0, 0)])) == [0] * 25
        bad = [
            (tensor[:24], 5, 2, []),  # not p^n entries
            (np.zeros(5**3, dtype=np.int64), 5, 2, []),
            (tensor, 5, 2, [(0, 5, 0)]),  # a coefficient >= p
            (tensor, 5, 2, [(0, -1, 0)]),
            (tensor, 5, 2, [(0, 2**64, 0)]),
            (tensor, 5, 2, [(0, 1)]),  # not n + 1 coefficients
            (tensor, 1, 2, []),
            (tensor, 5, -1, []),
        ]
        for args in bad:
            with pytest.raises(ValueError):
                kernel(*args)
        # (2n + 1)(p - 1)^2 overflows int64: refused before the one-entry
        # tensor is read, so nothing p^n long is ever allocated
        with pytest.raises(ValueError, match="overflows"):
            kernel(np.zeros(1, dtype=np.int64), 2**31 - 1, 1, [])
        assert entries(kernel(np.full(1, -1, dtype=np.int64), 2**31 - 1, 0, [])) == [
            2**31 - 2
        ]
        with pytest.raises(TypeError):
            kernel(tensor, 5, 2, [(0, 1.5, 0)])


def rolled_flags(p, rows):
    """(zero over Z, zero mod p) of prod (1 - g^(e_i)) * prod (1 - g^(a_i))
    over the unit vectors and the rows of one matrix, one np.roll a factor."""
    n = len(rows)
    table = np.zeros((p,) * n, dtype=np.int64)
    table[(0,) * n] = 1
    for v in np.concatenate([np.eye(n, dtype=np.int64), rows]):
        table = table - np.roll(table, tuple(v), axis=tuple(range(n)))
    return not table.any(), not (table % p).any()


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (3, 4)])
def test_products_vanish_parity(ext, p, n):
    # stacks of 0, 1 and 6 matrices, with entries below 0 and at or above p,
    # which the kernels read mod p; each nonempty stack's first last row is
    # 0 mod p, and at p = 3 its head starts with e_1 and its final last row
    # is e_1 mod p, so that with the unit vector (1 - g^(e_1))^3 = 0 mod 3
    rng = np.random.default_rng(p * 10 + n)
    seen = set()
    for size in (0, 1, 6):
        head = rng.integers(-p, 2 * p, size=(n - 1, n))
        last = rng.integers(-p, 2 * p, size=(size, n))
        if size:
            last[0] = p * rng.integers(-2, 3, size=n)
        if p == 3 and size > 1:
            head[0] = np.eye(n, dtype=np.int64)[0]
            last[-1] = np.eye(n, dtype=np.int64)[0] + 3 * last[-1]
        want = [rolled_flags(p, np.concatenate([head, row[None]])) for row in last]
        pure = _kernels_py.products_vanish(head, last, p, n)
        assert [tuple(map(bool, t)) for t in zip(*pure)] == want
        raw = ext._ext.products_vanish(head, last, p, n)
        assert raw == tuple(a.tobytes() for a in pure)  # bit for bit
        got = ext.products_vanish(p, head, last)
        assert [(a.dtype, a.flags.writeable) for a in got] == [(bool, True)] * 2
        assert all(np.array_equal(a, b) for a, b in zip(got, pure))
        seen.update(want)
    assert {(False, False), (True, True)} <= seen
    if p == 3:
        assert (False, True) in seen


@st.composite
def vanish_stacks(draw):
    """(p, n, head, last) with entries below 0 and at or above p, some rows
    0 mod p, and at p = 3 stacks whose products vanish mod 3: a head row
    and last rows that are the same unit vector mod 3, which with that unit
    vector's own factor make (1 - g^e)^3 = 1 - g^(3e) = 0 mod 3."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 3))
    entry = st.integers(-p, 2 * p - 1)
    row = st.lists(entry, min_size=n, max_size=n) | st.lists(
        st.integers(-2, 2).map(lambda c: p * c), min_size=n, max_size=n
    )
    head = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    last = draw(st.lists(row, max_size=6))
    if p == 3 and n > 1 and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        unit = [int(a == j) for a in range(n)]
        head[0] = unit
        last += [[u + 3 * c for u, c in zip(unit, r)] for r in draw(st.lists(row, max_size=3))]
    head = np.array(head, np.int64).reshape(n - 1, n)
    return p, n, head, np.array(last, np.int64).reshape(-1, n)


@settings(max_examples=80, deadline=None)
@given(vanish_stacks())
def test_products_vanish_parity_drawn(compiled, stack):
    # compiled and pure flags bit for bit, and as the np.roll expansion of
    # each matrix's product gives them
    p, n, head, last = stack
    pure = _kernels_py.products_vanish(head, last, p, n)
    assert compiled.products_vanish(head, last, p, n) == tuple(a.tobytes() for a in pure)
    want = [rolled_flags(p, np.concatenate([head, row[None]])) for row in last]
    assert [tuple(map(bool, t)) for t in zip(*pure)] == want


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (3, 4)])
def test_sweep_verdicts_match_one_matrix_at_a_time(backend, twin_witness, p, n):
    # properties.sweep_verdicts on each backend against check_p1 and the
    # factor products over Z and F_p, one matrix at a time, every witness
    # search run on both backends (twin_witness). Stacks: the first
    # group of the enumeration and the first group below a random first row,
    # each cut into stacks of 8 with a ragged last one, an empty stack, and
    # random rows with entries below 0 and at or above p, which every route
    # reads mod p, and a last row 0 mod p, so a singular matrix
    rng = random.Random(p * 10 + n)
    first = next(fp_core.enumerate_nonsingular_groups(p, n))
    r = rng.randrange(p**n - 1)
    drawn = next(fp_core.enumerate_nonsingular_groups(p, n, first_rows=slice(r, r + 1)))
    stacks = [(head, last[i : i + 8]) for head, last in (first, drawn)
              for i in range(0, len(last), 8)]
    stacks.append((first[0], first[1][:0]))
    loose = np.array([[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n + 8)])
    loose[n - 1] = [p * rng.randrange(-2, 3) for _ in range(n)]  # 0 mod p
    stacks.append((loose[: n - 1], loose[n - 1 :]))
    assert len(stacks[-3][1]) < 8  # ragged
    seen = set()
    for head, last in stacks:
        found, witness, int_zero, modp_zero = properties.sweep_verdicts(p, head, last)
        assert [a.dtype for a in (found, witness, int_zero, modp_zero)] == [
            bool, np.int64, bool, bool
        ]
        assert witness.shape == last.shape
        for b, row in enumerate(last.tolist()):
            m = fp_core.FpMatrix(head.tolist() + [row], p)
            spec = group_ring.FactorSpec.from_matrix(m)
            want = (
                properties.check_p1(m),
                group_ring.product_of_factors(spec, group_ring.IntegerRing).is_zero(),
                group_ring.product_of_factors(spec, group_ring.ModPRing).is_zero(),
            )
            got = (
                tuple(witness[b].tolist()) if found[b] else None,
                bool(int_zero[b]),
                bool(modp_zero[b]),
            )
            assert got == want
            assert found[b] or not witness[b].any()
            seen.add((want[0] is None,) + want[1:])
    assert (False, False, False) in seen
    assert (True, True, True) in seen  # the zero row's product vanishes
    # one search a stack and one a matrix, each on both backends
    assert len(twin_witness) == len(stacks) + sum(len(last) for _, last in stacks)


def test_products_vanish_rejects_bad_input(compiled):
    head = np.array([[1, 2]], dtype=np.int64)
    last = np.array([[0, 1], [5, 0]], dtype=np.int64)
    for kernel in (compiled.products_vanish, _kernels_py.products_vanish):
        # bytearrays from the compiled kernel, bool arrays from the pure one
        assert [bytes(f) for f in kernel(head, last, 5, 2)] == [b"\0\1"] * 2
        assert [bytes(f) for f in kernel(head, last[:0], 5, 2)] == [b""] * 2
        bad = [
            (head, last, 2, 2),  # p < 3
            (head, last, -5, 2),
            (head, last, 5, 0),  # n outside [1, 31]
            (np.zeros(31 * 32, np.int64), np.zeros(32, np.int64), 5, 32),
            (np.zeros(4, np.int64), last, 5, 2),  # head not (n - 1) * n entries
            (np.array([1], np.int64), last, 5, 2),
            (head, np.array([1, 2, 3], np.int64), 5, 2),  # last not B * n entries
        ]
        for args in bad:
            with pytest.raises(ValueError):
                kernel(*args)


def first_in_search_order(p, rows, forbidden, orders):
    """The first x over F_p^n, in the search's order, with each x_i from
    orders[i] and no <row, x> in its row's forbidden set, by brute force:
    positions by ascending slack, each position's values in their order."""
    n = len(orders)
    coords = sorted(range(n), key=lambda c: (len(orders[c]), c))
    for values in itertools.product(*(orders[c] for c in coords)):
        x = [0] * n
        for c, v in zip(coords, values):
            x[c] = v
        if all(sum(a * v for a, v in zip(row, x)) % p not in bad
               for row, bad in zip(rows, forbidden)):
            return tuple(x)
    return None


@st.composite
def witness_instances(draw):
    """p <= 13, n <= 3, shared rows and an optional batch of last rows with
    entries in [-p, 2p), zero rows included, one forbidden set a row, a value
    order a coordinate, and a cap, often a small one."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 3))
    entry = st.integers(-p, 2 * p - 1) | st.just(0)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=3))
    last = draw(st.none() | st.lists(row, max_size=4))
    count = len(rows) + (last is not None)
    forbidden = draw(st.lists(st.sets(st.integers(0, p - 1)), min_size=count, max_size=count))
    value = st.integers(0, p - 1)
    orders = draw(st.lists(st.lists(value, unique=True), min_size=n, max_size=n))
    cap = draw(st.integers(0, 40) | st.just(10**6))
    return p, n, rows, last, forbidden, orders, cap


@settings(max_examples=150, deadline=None)
@given(witness_instances())
def test_first_witness_parity_drawn(witness_twins, instance):
    p, n, rows, last, forbidden, orders, cap = instance
    found, witness, units = witness_twins(
        np.array(rows, dtype=np.int64).reshape(-1, n),
        None if last is None else np.array(last, dtype=np.int64).reshape(-1, n),
        forbidden, orders, p, cap,
    )
    capped = False
    for b, extra in enumerate([[]] if last is None else [[r] for r in last]):
        got = tuple(witness[b].tolist()) if found[b] else None
        if capped:
            # the batch stopped at an earlier instance's cap
            assert (got, units[b]) == (None, 0)
            continue
        capped = units[b] > cap
        if not capped:
            assert got == first_in_search_order(p, rows + extra, forbidden, orders)
        else:
            assert got is None
        assert found[b] or not witness[b].any()


def test_first_witness_rejects_bad_input(backend):
    rows = np.array([[1, 2]], dtype=np.int64)
    last = np.array([[0, 1], [3, 0]], dtype=np.int64)
    zeros = [(0,)] * 2
    orders = [range(1, 5)] * 2
    # x = (1, 1) each time: x_1 updates the rows nonzero at x_1, then x_2
    # those nonzero at x_2, a unit a node and one an update: 2 + 3 units
    # with the last row [0, 1], 3 + 2 with [3, 0]
    found, witness, units = backend.first_witness(rows, last, zeros, orders, 5, 100)
    assert found.tolist() == [True, True]
    assert witness.tolist() == [[1, 1], [1, 1]]
    assert units.tolist() == [5, 5]
    bad = [
        (rows, last, zeros, orders, 1, 100),  # p < 2
        (rows, last, zeros, orders, 2**31, 100),  # p >= 2^31, checked first
        (rows, last, zeros, [], 5, 100),  # no coordinates
        (np.array([1, 2, 3], np.int64), last, zeros, orders, 5, 100),  # R * n entries
        (rows, np.array([1, 2, 3], np.int64), zeros, orders, 5, 100),  # B * n entries
        (rows, None, zeros, orders, 5, 100),  # one forbidden collection a row
        (rows, last, zeros[:-1], orders, 5, 100),
        (rows, last, [(0,), (5,)], orders, 5, 100),  # forbidden images in [0, p)
        (rows, last, [(0,), (-1,)], orders, 5, 100),
        (rows, last, zeros, [[1, 5], [1]], 5, 100),  # values in [0, p)
        (rows, last, zeros, [[1, -1], [1]], 5, 100),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            backend.first_witness(*args)


def test_stale_extension_fails_loudly(monkeypatch):
    # a missing extension falls back to the pure twins; one that carries
    # another API, or does not load, is an error naming the rebuild
    monkeypatch.setitem(sys.modules, "ajtkit._kernels", None)
    assert kernels._load_extension() is None
    stale = types.ModuleType("ajtkit._kernels")
    for api in (None, kernels.API - 1, kernels.API + 1):
        if api is not None:
            stale.API = api
        monkeypatch.setitem(sys.modules, "ajtkit._kernels", stale)
        with pytest.raises(ImportError, match="build_ext --inplace"):
            kernels._load_extension()


def test_built_extension_matches_the_api(compiled):
    assert compiled.API == kernels.API


def test_first_hit_scan_rejects_bad_input(compiled):
    # both backends, both directions: the mask is an int of residues below
    # p, and p and k are checked
    for scan in (compiled.first_hit_scan, _kernels_py.first_hit_scan):
        for forward in (False, True):
            # the empty set: nothing to hit centered, and 0 left over forward
            assert scan(0, 13, 1, forward, True) == ((None, 0) if forward else (b"", None))
            for mask in (-1, 1 << 13, -(1 << 13), 1 << 64, 1 << 200):
                with pytest.raises(ValueError):
                    scan(mask, 13, 1, forward, False)
            for mask in (bytes(2), b"", bytearray(2)):
                with pytest.raises(TypeError):
                    scan(mask, 13, 1, forward, False)
            for p, k in ((2, 1), (1, 1), (0, 1), (-7, 1), (13, 0), (13, -1), (13, 7), (5, 3)):
                with pytest.raises(ValueError):
                    scan(0, p, k, forward, False)


def test_s1_log_parity(compiled):
    # the same int mask on both backends for every prime 5..20011, one limb
    # and many, and at two primes above 10^6; p < 5 is a ValueError on both
    primes = [q for q in range(5, 20012) if fp_core.is_probable_prime(q)]
    for q in primes + [1000003, 10000019]:
        got = compiled.s1_log(q)
        assert type(got) is int and got == _kernels_py.s1_log(q), q
    for p in (4, 3, 2, 0, -7):
        for s1_log in (compiled.s1_log, _kernels_py.s1_log):
            with pytest.raises(ValueError):
                s1_log(p)


def test_backend_label():
    assert kernels.BACKEND in ("compiled", "pure")


def test_backend_reports_the_kernel_that_ran(monkeypatch):
    # BACKEND is fixed at import: the pure twin runs, at any p, exactly when
    # the label says so
    pure = _kernels_py.s1_exhaust
    calls = []
    monkeypatch.setattr(
        _kernels_py, "s1_exhaust", lambda *args: calls.append(args) or pure(*args)
    )
    result = apsets.min_s1_search(13)
    assert (result.size, result.proven_optimal) == (6, True)
    capped = apsets.min_s1_search(331, budget="50")
    assert capped.proven_optimal is False
    assert result.backend == capped.backend == kernels.BACKEND
    assert bool(calls) == (kernels.BACKEND == "pure")
    if kernels._ext is not None:
        assert capped.backend == "compiled"

"""Compare the compiled kernels against their pure-Python twins.

Both backends expose the same six kernels, s1_exhaust, s1_log,
first_hit_scan, affine_product, products_vanish and first_witness, and must
return identical results: node counts included for the search, the same
mask for the log construction, the same hits
buffer for the scan, the same tensor for the product, the same flags for the
sweep's products, the same witnesses and units for the witness search. This
script times them side by side on the workloads that dominate real use:
exhausting all sets below the optimum and finding a minimum set one size
up, and the certification scans. The compiled side runs through
ajtkit.kernels, which hands masks across as ints. The compiled search
table times s1_exhaust alone at sizes the pure search would take minutes
for, with its node counts. The scan table times first_hit_scan on each
backend, asked for no hits, so the kernel's own work, and for its hits
buffer, and then the first full read of its records, which
apsets.WitnessMap builds from the buffer: the log set at p = 9973,
one N_1 part of F_20011 inside and outside, a dense random half of F_20011
at k = 3 and a sparse set's forward scan at k = 2, which stops at the first
element it leaves without a witness and so returns no hits. It asserts that
both backends give the same hits buffer, byte for byte, the same least
element left without a witness and the same records. The log-set table
times the certify workload's S_1 verdicts on each backend: the log sets of
all 1,227 primes below 10^4 built by the s1_log kernel alone, their scans
asked for no hits, prebuilt, and build_s1_log with is_sk_type of each; it
asserts the same masks and hits from both backends. The witness-map rows time
is_nk_type on the N_1 part, per backend, against its two scans asked for no
hits, and then the first read of both its maps, which builds their
records. Both backends must give equal reports. The full-field row runs
is_sk_type of all of F_1000003 at k = 2 in a fresh interpreter, on the
backend that imported, with its wall time and the peak RSS it adds, asked
for the map's length only. The label-draw row times partition_nk's bulk
label draw against p calls of random.randrange, and asserts the same labels
and the same generator state after.

The affine-product table times prod_i <a_i, x>^(r_i), with the exponents
summing to n(p - 1)/2 as in a duality check, by affine_product on each
backend against the same factors chained through mul_reduce one at a time,
and asserts equal tensors. The verdict table times a whole check_p2 and a
whole duality_check on each backend, and asserts equal verdicts.

Another table times the group-ring factor products, which gather along each
axis, against a plain `np.roll` loop kept here as the reference, and asserts
that both give the same tables or verdicts; its stacked row runs
properties.sweep_verdicts, all three sweep verdicts through
kernels.products_vanish on the backend that imported, and compares its two
product flags. The products_vanish table times that kernel on each backend,
at one sweep group each of (5, 2), (11, 2), (5, 3) and (31, 2), whose
products do not vanish, and one of (3, 3) whose products all do, which the
compiled kernel decides only at the last entry of each table, and asserts
equal flags. The witness table times first_witness on each backend, on
one sweep group each of (11, 2), (5, 3) and (31, 2) as sweep_verdicts passes
it, the head rows shared and the last row of each matrix, and on the search
of `multi --p 5 --n 60 --budget low`, two random matrices' 120 rows capped
at 10^6 units. It prints the units each used, asserts equal results on both
backends, and asserts that the sweep groups' witnesses are those check_p1
finds one matrix at a time. Its pinned rows run `sweep --p 5 --n 3` and
`sweep --p 31 --n 2` with --threads 1 through cli.main on the backend that
imported, with their wall time and the units of all their searches. A last
row times the grouped enumeration of GL_3(F_5), rows as arrays, against the
same matrices built one `FpMatrix` at a time.

Run from a checkout with the package installed:

    python3 benchmarks/bench_kernels.py
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time

import numpy as np

from ajtkit import _kernels_py, apsets, cli, fp_core, fp_poly, group_ring, kernels, properties
from ajtkit.budget import Budget

COMPILED = kernels.BACKEND == "compiled"
BACKENDS = [("pure", None)] + ([("compiled", kernels._ext)] if COMPILED else [])

CASES = [
    # (p, limit, label)
    (61, 7, "exhaust below optimum"),
    (61, 8, "find minimum set"),
    (67, 7, "exhaust below optimum"),
    (67, 8, "find minimum set"),
    (101, 8, "exhaust below optimum"),
    (1009, 5, "exhaust, 16 limbs"),
]

# (p, head rows) of the sweep groups the products_vanish table times: the
# first group below a first row, and at p = 3 a group whose products all
# vanish, over Z and mod 3, so the compiled kernel reads every entry of
# each product table before it decides
PRODUCT_GROUPS = [
    (5, [(1, 2)]),
    (11, [(1, 2)]),
    (5, [(1, 2, 3)]),
    (31, [(1, 2)]),
    (3, [(0, 1, 1), (0, 1, 2)]),
]

# (p, limit, node budget) for the compiled search alone
SEARCH_CASES = [(151, 8, 10**9), (1009, 5, 10**9), (10007, 5, 2000)]
# the words of table and stack the default entries budget allows a search
WORDS = Budget().entries


def scan_cases():
    """(label, p, k, mask, forward) for the scan table."""
    yield "log set, S_1", 9973, 1, apsets.build_s1_log(9973).mask, False
    part = apsets.partition_nk(20011, 1, seed=0).parts[0].mask
    yield "N_1 part, inside", 20011, 1, part, False
    yield "N_1 part, outside", 20011, 1, part, True
    rng = random.Random(20011)
    yield "dense half set, S_3", 20011, 3, rng.getrandbits(20011), False
    sparse = sum(1 << e for e in rng.sample(range(20011), 282))
    yield "sparse set, forward k = 2", 20011, 2, sparse, True


# is_sk_type of the full field in a fresh interpreter: (seconds, MB of peak
# RSS above the RSS before the call), read from /proc/self/status (Linux):
# VmHWM is this process's own peak, where getrusage's ru_maxrss also counts
# the parent's at the fork before exec
FULL_FIELD = """
import json, sys, time
from ajtkit import apsets

def status_mb(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field)) / 1024

p, k = int(sys.argv[1]), int(sys.argv[2])
full = apsets.ResidueSet(p, (1 << p) - 1)
rss = status_mb("VmRSS:")
t0 = time.perf_counter()
report = apsets.is_sk_type(full, k)
t = time.perf_counter() - t0
assert report.ok and len(report.witnesses) == p
print(json.dumps([t, status_mb("VmHWM:") - rss]))
"""


def full_field(p, k):
    """(seconds, MB of peak RSS added) of is_sk_type of all of F_p at radius
    k, in a fresh interpreter, asked for the map's length only."""
    out = subprocess.run([sys.executable, "-c", FULL_FIELD, str(p), str(k)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def first_read(ext, part, repeat):
    """(best seconds, report) of the first read of both witness maps of a
    fresh is_nk_type report of part, which builds their records."""
    best, report = float("inf"), None
    for _ in range(repeat):
        report = route_on(ext, apsets.is_nk_type, part, 1)
        t0 = time.perf_counter()
        report.inside.values(), report.outside.values()
        best = min(best, time.perf_counter() - t0)
    return best, report


def certify_log_sets(primes):
    """build_s1_log and is_sk_type at radius 1 of each prime: the certify
    workload's S_1 verdicts."""
    return [apsets.is_sk_type(apsets.build_s1_log(q), 1) for q in primes]


def read_records(hits, k):
    """The records of a fresh WitnessMap over hits, read in full once."""
    witnesses = apsets.WitnessMap(hits, k)
    witnesses.values()
    return witnesses


def route_on(ext, fn, *args):
    """fn(*args) with ajtkit.kernels on the backend `ext` (None: pure)."""
    saved, kernels._ext = kernels._ext, ext
    try:
        return fn(*args)
    finally:
        kernels._ext = saved


def affine_cases():
    """(p, n, matrix, powers): exponents in [0, p-1] summing to n(p - 1)/2,
    the size of the ladder's duality products."""
    for p, n in [(11, 4), (13, 3), (5, 3)]:
        rng = random.Random(p)
        powers = [0] * n
        for _ in range(n * (p - 1) // 2):
            powers[rng.choice([j for j in range(n) if powers[j] < p - 1])] += 1
        yield p, n, fp_core.random_nonsingular(p, n, seed=p), powers


def chained_product(p, forms, powers):
    """prod <form, x>^k with one mul_reduce per linear factor: the route every
    verdict took before affine_product."""
    n = len(forms[0])
    out = fp_poly.ReducedPoly.constant(p, n, 1)
    for form, k in zip(forms, powers):
        factor = fp_poly.ReducedPoly.from_terms(
            p, n, [(tuple(int(i == j) for i in range(n)), c) for j, c in enumerate(form)]
        )
        for _ in range(k):
            out = out * factor
    return out.coeffs


def kernel_product(p, forms, powers):
    """The same product as chained_product, in one affine_product call."""
    factors = [(0, *form) for form, k in zip(forms, powers) for _ in range(k)]
    one = np.zeros((p,) * len(forms[0]), dtype=np.int64)
    one.flat[0] = 1
    return kernels.affine_product(one, p, factors)


def verdict_cases():
    """(label, p, n, call) for whole check_p2 and duality_check verdicts."""
    for p, n, m, powers in affine_cases():
        rng = random.Random(n)
        lists = [sorted(rng.sample(range(p), 3)) for _ in range(2 * n)]
        yield "check_p2", p, n, lambda m=m, lists=lists: fp_poly.check_p2(
            m, lists[:n], lists[n:])
        yield "duality_check", p, n, lambda m=m, r=powers: fp_poly.duality_check(
            m, r, r[::-1]).to_json()


def rolled_product(p, d, shifts):
    """prod (1 - g^s) over the shifts, one np.roll per factor: the reference."""
    table = np.zeros((p,) * d, dtype=np.int64)
    table[(0,) * d] = 1
    for shift in shifts:
        table = table - np.roll(table, shift, axis=tuple(range(d)))
    return table


def unit_and_row_shifts(m, phases=None):
    """Roll offsets of the factors (1 - g^(e_i)) and (1 - g^(a_i)), in order;
    with phases, one (1 - w^(-c) g^v) per phase c on an extra axis."""
    vectors = [tuple(int(i == j) for j in range(m.n)) for i in range(m.n)]
    vectors += list(m.rows)
    if phases is None:
        return vectors
    return [v + (-c % m.p,) for v, ph in zip(vectors, phases) for c in ph]


def product_cases():
    """(label, p, entries, reference call, gather call) for the products."""
    m = fp_core.FpMatrix([[1, 2], [3, 5]], 11)
    spec = group_ring.FactorSpec.from_matrix(m)
    yield (
        "one product, Z", 11, 11**2,
        lambda: rolled_product(11, 2, unit_and_row_shifts(m)),
        lambda: group_ring.product_of_factors(spec, group_ring.IntegerRing).coeffs,
    )
    m = fp_core.FpMatrix([[1, 2, 3], [0, 1, 4], [5, 0, 1]], 11)
    phases = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 0]]
    spec = group_ring.FactorSpec.from_matrix(m, c_lists=phases[:3], d_lists=phases[3:])
    yield (
        "12 factors, Z[w]", 11, 11**4,
        lambda: rolled_product(11, 4, unit_and_row_shifts(m, phases)),
        lambda: group_ring.product_of_factors(spec, group_ring.CyclotomicRing).coeffs,
    )
    head, last = sweep_stack(11, (1, 2))
    group = stack_matrices(11, head, last)

    def rolled_verdicts():
        """Whether each reference table is zero over Z, and zero mod p."""
        tables = [rolled_product(11, 2, unit_and_row_shifts(g)) for g in group]
        return [not t.any() for t in tables], [not (t % 11).any() for t in tables]

    yield (
        f"stack of {len(group)}, Z and F_p", 11, len(group) * 11**2,
        rolled_verdicts,
        lambda: properties.sweep_verdicts(11, head, last)[2:],
    )


def sweep_stack(p, *rows):
    """The first group of the sweep whose head starts with `rows`, from the
    range of its one first row: (head, last rows)."""
    first, n = rows[0], len(rows[0])
    index = sum(a * p ** (n - 1 - i) for i, a in enumerate(first)) - 1
    groups = fp_core.enumerate_nonsingular_groups(p, n, first_rows=slice(index, index + 1))
    return next((h, l) for h, l in groups if h[: len(rows)].tolist() == list(map(list, rows)))


def stack_matrices(p, head, last):
    """The matrices of a sweep stack, one FpMatrix each."""
    return [fp_core.FpMatrix(head.tolist() + [row], p) for row in last.tolist()]


def witness_cases():
    """(label, p, first_witness arguments, matrices or None) for the witness
    table: one sweep group each, as sweep_verdicts passes it, with its
    matrices, and the search of a budget-low `multi` at n = 60."""
    for p, first in [(11, (1, 2)), (5, (1, 2, 3)), (31, (1, 2))]:
        head, last = sweep_stack(p, first)
        n = len(first)
        args = (head, last, [1] * n, [range(1, p)] * n, p, 10**9)
        yield f"sweep group, n = {n}", p, args, stack_matrices(p, head, last)
    rng = random.Random(60)
    p, n = 5, 60
    rows = [row for _ in range(2) for row in fp_core.random_nonsingular(p, n, rng=rng).rows]
    args = (np.array(rows, dtype=np.int64), None, [1] * len(rows), [range(p)] * n,
            p, 10**6)
    yield "multi, 120 rows, capped", p, args, None


def pinned_sweep(p, n):
    """(wall time, units of every witness search) of `sweep --p p --n n
    --threads 1` through cli.main, stdout discarded."""
    units, search = [], kernels.first_witness

    def counting(*args):
        out = search(*args)
        units.append(int(out[2].sum()))
        return out

    kernels.first_witness = counting
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t, _ = timed(cli.main, ["sweep", "--p", str(p), "--n", str(n), "--threads", "1"])
    finally:
        kernels.first_witness = search
    return t, sum(units)


def timed(fn, *args, repeat=1):
    """(best wall time over `repeat` calls, result of the last call)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    if not COMPILED:
        print("compiled backend not built; timing pure backend only")
    header = f"{'case':<28}{'p':>6}{'limit':>7}{'nodes':>10}"
    header += f"{'pure (s)':>11}"
    if COMPILED:
        header += f"{'compiled (s)':>14}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for p, limit, label in CASES:
        t_py, want = timed(_kernels_py.s1_exhaust, p, limit, 10**9, WORDS)
        nodes_py = want[2]
        line = f"{label:<28}{p:>6}{limit:>7}{nodes_py:>10}{t_py:>11.4f}"
        if COMPILED:
            t_c, got = timed(kernels.s1_exhaust, p, limit, 10**9, WORDS)
            assert got == want, (
                f"backend mismatch at p={p} limit={limit}"
            )
            line += f"{t_c:>14.4f}{t_py / t_c:>8.1f}x"
        print(line)
    print()
    if COMPILED:
        header = f"{'compiled search':<28}{'p':>6}{'limit':>7}{'budget':>12}{'nodes':>10}"
        header += f"{'exhausted':>11}{'compiled (s)':>14}"
        print(header)
        print("-" * len(header))
        for p, limit, budget in SEARCH_CASES:
            t_c, (_, exhausted, nodes, _) = timed(kernels.s1_exhaust, p, limit, budget, WORDS)
            print(f"{'s1_exhaust':<28}{p:>6}{limit:>7}{budget:>12}{nodes:>10}"
                  f"{str(exhausted):>11}{t_c:>14.4f}")
        print()
    # scans take micro- to milliseconds, so each time is the best of three
    # calls, in microseconds
    header = f"{'scan':<28}{'p':>6}{'k':>3}{'|A|':>7}{'hits':>7}{'backend':>10}"
    header += f"{'no hits (us)':>14}{'hits (us)':>11}{'records read (us)':>19}"
    print(header)
    print("-" * len(header))
    for label, p, k, mask, forward in scan_cases():
        want = _kernels_py.first_hit_scan(mask, p, k, forward, True)
        records = want[0] and read_records(want[0], k)
        for backend, ext in BACKENDS:
            t_hits, got = timed(route_on, ext, kernels.first_hit_scan, mask, p, k, forward,
                                True, repeat=3)
            t_scan, least = timed(route_on, ext, kernels.first_hit_scan, mask, p, k,
                                  forward, False, repeat=3)
            assert got == want, f"scan mismatch on {label}, {backend}"
            assert least == (None, want[1]), f"least mismatch on {label}, {backend}"
            # a scan that leaves an element without a witness has no records
            found, read = "-", "-"
            if got[0] is not None:
                t_read, built = timed(read_records, got[0], k, repeat=3)
                assert list(built.items()) == list(records.items()), (
                    f"records mismatch on {label}, {backend}"
                )
                found, read = len(built), f"{t_read * 1e6:.1f}"
            line = f"{label:<28}{p:>6}{k:>3}{mask.bit_count():>7}{found:>7}"
            print(line + f"{backend:>10}{t_scan * 1e6:>14.1f}{t_hits * 1e6:>11.1f}{read:>19}")
    print()
    # the 1,227 log sets' masks, scans and verdicts, best of five
    header = f"{'log sets':<28}{'p <':>6}{'sets':>6}{'|A|':>7}{'backend':>10}{'time (ms)':>11}"
    print(header)
    print("-" * len(header))
    primes = [q for q in range(5, 10**4) if fp_core.is_probable_prime(q)]
    masks = [(_kernels_py.s1_log(q), q) for q in primes]
    want = [_kernels_py.first_hit_scan(mask, q, 1, False, True) for mask, q in masks]
    size = sum(mask.bit_count() for mask, _ in masks)
    for backend, ext in BACKENDS:
        t_log, built = timed(route_on, ext, lambda: [kernels.s1_log(q) for q in primes],
                             repeat=5)
        t_cert, reports = timed(route_on, ext, certify_log_sets, primes, repeat=5)
        t_scan, _ = timed(route_on, ext, lambda: [
            kernels.first_hit_scan(mask, q, 1, False, False) for mask, q in masks], repeat=5)
        got = route_on(ext, lambda: [
            kernels.first_hit_scan(mask, q, 1, False, True) for mask, q in masks])
        assert built == [mask for mask, _ in masks], f"log set mask mismatch, {backend}"
        assert got == want, f"log set scan mismatch, {backend}"
        assert all(r.ok for r in reports) and sum(len(r.witnesses) for r in reports) == size
        for label, t in (("s1_log", t_log), ("first_hit_scan, no hits", t_scan),
                         ("build_s1_log + is_sk_type", t_cert)):
            print(f"{label:<28}{10**4:>6}{len(primes):>6}{size:>7}{backend:>10}{t * 1e3:>11.2f}")
    print()
    # is_nk_type with its witness maps, the same two scans with no hits, and
    # the first read of both maps
    header = f"{'witness map':<28}{'p':>6}{'witnesses':>10}{'no hits (s)':>13}"
    header += f"{'is_nk_type (s)':>16}{'first read (s)':>16}"
    print(header)
    print("-" * len(header))
    part = apsets.partition_nk(20011, 1, seed=0).parts[0]
    p, mask = part.p, part.mask
    reports = []
    for backend, ext in BACKENDS:
        t_scan, _ = timed(route_on, ext, lambda: (
            kernels.first_hit_scan(mask, p, 1, False, False),
            kernels.first_hit_scan(mask, p, 1, True, False)), repeat=5)
        t_nk, report = timed(route_on, ext, apsets.is_nk_type, part, 1, repeat=5)
        t_read, report = first_read(ext, part, repeat=5)
        assert report.ok
        reports.append(report)
        found = len(report.inside) + len(report.outside)
        print(f"{'N_1 part, ' + backend:<28}{p:>6}{found:>10}{t_scan:>13.5f}"
              f"{t_nk:>16.5f}{t_read:>16.5f}")
    assert all(
        list(r.inside.items()) == list(reports[0].inside.items())
        and list(r.outside.items()) == list(reports[0].outside.items())
        for r in reports
    ), "witness maps differ between backends"
    print()
    if COMPILED:
        # the whole field is S_k, so the scan hits every element at d = 1
        header = f"{'full field':<28}{'p':>8}{'k':>3}{'witnesses':>10}"
        header += f"{'is_sk_type (s)':>16}{'RSS added (MB)':>16}"
        print(header)
        print("-" * len(header))
        p, k = 1000003, 2
        t, added = full_field(p, k)
        print(f"{'is_sk_type, ' + kernels.BACKEND:<28}{p:>8}{k:>3}{p:>10}{t:>16.4f}"
              f"{added:>16.1f}")
        print()
    # partition_nk's labels: one bulk draw against p randrange calls
    header = f"{'label draw':<28}{'p':>6}{'parts':>7}{'randrange (s)':>15}"
    header += f"{'bulk (s)':>10}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    p, parts = 20011, 28
    single, bulk = random.Random(0), random.Random(0)
    t_ref, want = timed(lambda: [single.randrange(parts) for _ in range(p)], repeat=5)
    t_new, got = timed(apsets._draw_labels, bulk, p, parts, repeat=5)
    assert got.tolist() == want and bulk.getstate() == single.getstate(), (
        "label draws differ from randrange"
    )
    print(f"{'partition labels':<28}{p:>6}{parts:>7}{t_ref:>15.5f}{t_new:>10.5f}"
          f"{t_ref / t_new:>8.1f}x")
    print()
    # the affine products take 0.01 to 10 ms, so each time is the best of 5
    header = f"{'affine product':<28}{'p':>6}{'n':>4}{'factors':>9}{'mul_reduce (s)':>16}"
    header += "".join(f"{b + ' (s)':>15}" for b, _ in BACKENDS) + f"{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for p, n, m, powers in affine_cases():
        t_ref, want = timed(chained_product, p, m.rows, powers, repeat=5)
        line = f"{'prod <a_i, x>^(r_i)':<28}{p:>6}{n:>4}{sum(powers):>9}{t_ref:>16.5f}"
        for backend, ext in BACKENDS:
            t_new, got = timed(route_on, ext, kernel_product, p, m.rows, powers, repeat=5)
            assert np.array_equal(got, want), (
                f"affine product mismatch at ({p}, {n}), {backend}"
            )
            line += f"{t_new:>15.5f}"
        print(line + f"{t_ref / t_new:>8.1f}x")
    print()
    header = f"{'verdict':<28}{'p':>6}{'n':>4}"
    header += "".join(f"{b + ' (s)':>15}" for b, _ in BACKENDS)
    print(header)
    print("-" * len(header))
    for label, p, n, call in verdict_cases():
        line, verdicts = f"{label:<28}{p:>6}{n:>4}", []
        for backend, ext in BACKENDS:
            t, verdict = timed(route_on, ext, call, repeat=5)
            verdicts.append(verdict)
            line += f"{t:>15.5f}"
        assert all(v == verdicts[0] for v in verdicts), f"{label} differs between backends"
        print(line)
    print()
    # products take micro- to milliseconds, so each time is the best of 20
    header = f"{'group-ring product':<28}{'p':>6}{'entries':>10}"
    header += f"{'np.roll (s)':>13}{'gather (s)':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, p, entries, reference, gather in product_cases():
        t_ref, want = timed(reference, repeat=20)
        t_new, got = timed(gather, repeat=20)
        assert np.array_equal(np.asarray(got), np.asarray(want)), (
            f"product mismatch on {label}"
        )
        print(f"{label:<28}{p:>6}{entries:>10}{t_ref:>13.6f}{t_new:>12.6f}"
              f"{t_ref / t_new:>8.1f}x")
    print()
    header = f"{'products_vanish':<28}{'p':>6}{'n':>4}{'matrices':>10}{'entries':>10}"
    header += "".join(f"{b + ' (s)':>15}" for b, _ in BACKENDS) + f"{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for p, rows in PRODUCT_GROUPS:
        head, last = sweep_stack(p, *rows)
        n, times, flags = len(rows[0]), [], []
        for backend, ext in BACKENDS:
            t, got = timed(route_on, ext, kernels.products_vanish, p, head, last, repeat=20)
            times.append(t)
            flags.append([a.tolist() for a in got])
        assert all(f == flags[0] for f in flags), f"products_vanish differs at ({p}, {n})"
        label = "sweep group, all vanish" if all(flags[0][1]) else "one sweep group"
        line = f"{label:<28}{p:>6}{n:>4}{len(last):>10}{len(last) * p**n:>10}"
        print(line + "".join(f"{t:>15.6f}" for t in times) + f"{times[0] / times[-1]:>8.1f}x")
    print()
    header = f"{'witness search':<28}{'p':>6}{'n':>4}{'instances':>10}{'units':>12}"
    header += "".join(f"{b + ' (s)':>15}" for b, _ in BACKENDS) + f"{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, p, args, stack in witness_cases():
        times, results = [], []
        for backend, ext in BACKENDS:
            t, got = timed(route_on, ext, kernels.first_witness, *args, repeat=3)
            times.append(t)
            results.append([a.tolist() for a in got])
        assert all(r == results[0] for r in results), f"first_witness differs on {label}"
        found, witness, units = results[0]
        if stack is not None:
            want = [properties.check_p1(m) for m in stack]
            assert [tuple(w) if f else None for f, w in zip(found, witness)] == want, (
                f"witness mismatch on {label}"
            )
        line = f"{label:<28}{p:>6}{len(args[3]):>4}{len(found):>10}{sum(units):>12}"
        print(line + "".join(f"{t:>15.5f}" for t in times) + f"{times[0] / times[-1]:>8.1f}x")
    for p, n in [(5, 3), (31, 2)]:
        t, units = pinned_sweep(p, n)
        print(f"{'sweep, ' + kernels.BACKEND:<28}{p:>6}{n:>4}"
              f"{fp_core.nonsingular_count(p, n):>10}{units:>12}{t:>15.3f}")
    print()
    header = f"{'enumeration':<28}{'p':>6}{'n':>4}{'matrices':>10}"
    header += f"{'FpMatrix (s)':>13}{'grouped (s)':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    p, n = 5, 3
    count = fp_core.nonsingular_count(p, n)
    t_ref, want = timed(lambda: sum(1 for _ in fp_core.enumerate_nonsingular(p, n)))
    t_new, got = timed(
        lambda: sum(len(last) for _, last in fp_core.enumerate_nonsingular_groups(p, n))
    )
    assert got == want == count, f"enumeration count mismatch at ({p}, {n})"
    print(f"{'GL_n(F_p), lex order':<28}{p:>6}{n:>4}{count:>10}{t_ref:>13.4f}"
          f"{t_new:>12.4f}{t_ref / t_new:>8.1f}x")


if __name__ == "__main__":
    main()

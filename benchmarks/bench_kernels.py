"""Compare the compiled kernels against their pure-Python twins.

Both backends expose the same two kernels, s1_exhaust and first_hit_scan,
and must return identical results: node counts included for the search,
hits in the same order for the scan. This script times them side by side on
the workloads that dominate real use: exhausting all sets below the optimum
and finding a minimum set one size up, and the S_1 and N_1 certification
scans of a logarithmic set and of one partition part. The compiled side runs
through ajtkit.kernels, which carries the masks across as bytes.

Run from a checkout with the package installed:

    python3 benchmarks/bench_kernels.py
"""

import time

from ajtkit import _kernels_py, apsets, kernels

COMPILED = kernels.BACKEND == "compiled"

CASES = [
    # (p, limit, label)
    (61, 7, "exhaust below optimum"),
    (61, 8, "find minimum set"),
    (67, 7, "exhaust below optimum"),
    (67, 8, "find minimum set"),
    (101, 8, "exhaust below optimum"),
    (1009, 5, "exhaust, 16 limbs"),
]

CENTERED, FORWARD = [-1, 1], [1]


def scan_cases():
    """(label, p, mask, target, steps) for the certification scans."""
    log = apsets.build_s1_log(9973).mask
    yield "log set, S_1", 9973, log, log, CENTERED
    part = apsets.partition_nk(20011, 1, seed=0).parts[0].mask
    outside = ~part & ((1 << 20011) - 1)
    yield "N_1 part, inside", 20011, part, part, CENTERED
    yield "N_1 part, outside", 20011, part, outside, FORWARD


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
        t_py, (mask_py, ex_py, nodes_py) = timed(_kernels_py.s1_exhaust, p, limit, 10**9)
        line = f"{label:<28}{p:>6}{limit:>7}{nodes_py:>10}{t_py:>11.4f}"
        if COMPILED:
            t_c, got = timed(kernels.s1_exhaust, p, limit, 10**9)
            assert got == (mask_py, ex_py, nodes_py), (
                f"backend mismatch at p={p} limit={limit}"
            )
            line += f"{t_c:>14.4f}{t_py / t_c:>8.1f}x"
        print(line)
    print()
    # scans take milliseconds, so each time is the best of five calls
    header = f"{'scan':<28}{'p':>6}{'hits':>17}{'pure (s)':>11}"
    if COMPILED:
        header += f"{'compiled (s)':>14}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, p, mask, target, steps in scan_cases():
        t_py, (hits_py, rest_py) = timed(
            _kernels_py.first_hit_scan, mask, target, p, steps, repeat=5
        )
        line = f"{label:<28}{p:>6}{len(hits_py):>17}{t_py:>11.4f}"
        if COMPILED:
            t_c, (hits_c, rest_c) = timed(
                kernels.first_hit_scan, mask, target, p, steps, repeat=5
            )
            assert list(hits_c.items()) == list(hits_py.items()) and rest_c == rest_py, (
                f"backend mismatch on {label} at p={p}"
            )
            line += f"{t_c:>14.4f}{t_py / t_c:>8.1f}x"
        print(line)


if __name__ == "__main__":
    main()

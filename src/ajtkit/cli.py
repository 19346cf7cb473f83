"""Command-line interface.

Subcommands mirror the library: table verification, set construction and
search, partitioning, property reports, exhaustive sweeps, duality and
pairing probes. `sweep` cuts the p^n - 1 nonzero first rows into one
contiguous range a worker, each range one job that enumerates its matrices
in one call. Output is deterministic for a fixed seed and configuration;
exit codes are 0 (success), 1 (MathViolation: a verified statement failed or
no certificate was found; or stdout closed before the output was written),
2 (InputError: bad input), 3 (BudgetExceeded).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache

import numpy as np

from . import apsets, fp_core, fp_poly, group_ring, properties
from .budget import Budget, current_budget
from .errors import AjtError, BudgetExceeded, InputError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _config(args) -> dict:
    """Echo of the run parameters, embedded in every JSON report; a
    subcommand without an option echoes its default."""
    return {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "budget": getattr(args, "budget", None),
        "threads": getattr(args, "threads", 1),
    }


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "table":
        _emit_table(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_table(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print(f"{indent}{key}[{i}]:")
                _emit_table(item, indent + "  ")
        else:
            print(f"{indent}{key} = {value}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _random_shape(args) -> tuple[int, int]:
    """(p, n) of a random matrix, p validated, else InputError."""
    if args.p is None or args.n is None:
        raise InputError("give --matrix FILE or both --p and --n for a random matrix")
    return fp_core._as_prime(args.p), args.n


def _matrix_from_args(args, budget: Budget) -> fp_core.FpMatrix:
    if args.matrix:
        return fp_core.FpMatrix.from_json(_load_json(args.matrix))
    p, n = _random_shape(args)
    return fp_core.random_nonsingular(p, n, seed=args.seed or 0, budget=budget)


def _check_trials(args) -> None:
    if args.trials < 1:
        raise InputError("need at least one trial")


# ---------------------------------------------------------------------------
# subcommands, each given the budget that main resolved


def cmd_appendix_verify(args, budget: Budget) -> int:
    report = apsets.verify_appendix()
    if args.format == "csv":
        sys.stdout.write(apsets.appendix_csv_text())
    else:
        payload = {"config": _config(args)}
        payload.update(report.to_json())
        _emit(payload, args.format)
    if not report.ok:
        print("table verification failed", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_s1(args, budget: Budget) -> int:
    if args.mode == "build":
        aset = apsets.build_s1_log(args.p, budget=budget)
        report = apsets.is_sk_type(aset, 1)
        payload = {
            "config": _config(args),
            "p": args.p,
            "mode": "build",
            "elements": list(aset.elements()),
            "size": len(aset),
            "certified": report.ok,
        }
        _emit(payload, args.format)
        return EXIT_OK if report.ok else EXIT_VIOLATION
    result = apsets.min_s1_search(args.p, budget=budget)
    payload = {"config": _config(args), "mode": "min"}
    payload.update(result.to_json())
    _emit(payload, args.format)
    return EXIT_OK


def cmd_sk_build(args, budget: Budget) -> int:
    result = apsets.build_sk(args.p, args.k, budget=budget)
    payload = {
        "config": _config(args),
        "p": args.p,
        "k": args.k,
        "x": result.x,
        "stage_sizes": list(result.stage_sizes),
        "elements": list(result.aset.elements()),
        "size": result.size,
        "certified": result.report.ok,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_nk_partition(args, budget: Budget) -> int:
    partition = apsets.partition_nk(
        args.p, args.k, parts=args.parts, seed=args.seed, max_tries=args.max_tries,
        budget=budget,
    )
    payload = {"config": _config(args)}
    payload.update(partition.to_json())
    _emit(payload, args.format)
    return EXIT_OK


def cmd_check(args, budget: Budget) -> int:
    if not args.matrix:
        properties.charge_check_all(*_random_shape(args), budget)
    m = _matrix_from_args(args, budget)
    spec = None
    if args.forbidden:
        spec = properties.ForbiddenSpec.from_json(_load_json(args.forbidden))
    report = properties.check_all(m, spec, budget=budget)
    payload = {"config": _config(args)}
    payload.update(report.to_json())
    _emit(payload, args.format)
    return EXIT_OK if report.ok else EXIT_VIOLATION


# the sweep's tallies, each a sum over its jobs
SWEEP_COUNTS = ("matrices", "p1_witness", "integer_nonzero", "modp_nonzero")


def _sweep_range(job: tuple[int, int, slice, Budget]) -> dict:
    p, n, first_rows, budget = job
    counts = {**dict.fromkeys(SWEEP_COUNTS, 0), "violations": []}
    groups = fp_core.enumerate_nonsingular_groups(
        p, n, budget=budget, first_rows=first_rows
    )
    # the matrices of a group share their first n-1 rows, so they share all
    # but one factor and all but one row: one call answers all three
    # verdicts for a group, the head rows shared and the last row varying
    for head, last in groups:
        found, witness, int_zero, modp_zero = properties.sweep_verdicts(
            p, head, last, budget=budget
        )
        witnessed = int(np.count_nonzero(found))
        int_zeros = int(np.count_nonzero(int_zero))
        modp_zeros = int(np.count_nonzero(modp_zero))
        counts["matrices"] += len(last)
        counts["p1_witness"] += witnessed
        counts["integer_nonzero"] += len(last) - int_zeros
        counts["modp_nonzero"] += len(last) - modp_zeros
        # almost no group holds a violation: the mask waits for a count to show one
        if witnessed == len(last) and not int_zeros and not modp_zeros:
            continue
        for i in np.flatnonzero(~found | int_zero | modp_zero).tolist():
            rows = head.tolist() + [last[i].tolist()]
            counts["violations"].append(
                {
                    "matrix": fp_core.FpMatrix(rows, p).to_json(),
                    "p1_witness": witness[i].tolist() if found[i] else None,
                    "integer_zero": bool(int_zero[i]),
                    "modp_zero": bool(modp_zero[i]),
                }
            )
    return counts


def cmd_sweep(args, budget: Budget) -> int:
    if args.threads < 1:
        raise InputError("need --threads >= 1")
    n = args.n
    p = fp_core.charge_enumeration(args.p, n, budget)
    properties.charge_sweep_stack(p, n, budget)
    # every nonzero first row has the same prod_{i=1}^{n-1} (p^n - p^i)
    # completions, so equal ranges of first rows are equal jobs; never more
    # workers than usable CPUs or first rows
    rows = p**n - 1
    workers = min(args.threads, len(os.sched_getaffinity(0)), rows)
    cuts = [rows * w // workers for w in range(workers + 1)]
    jobs = [(p, n, slice(a, b), budget) for a, b in zip(cuts, cuts[1:])]
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing cost every
        # process that imports this module about 1.4 MB, a pool or not
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_sweep_range, jobs))
    else:
        partials = [_sweep_range(job) for job in jobs]
    totals = {key: sum(part[key] for part in partials) for key in SWEEP_COUNTS}
    violations = [v for part in partials for v in part["violations"]]
    expected = fp_core.nonsingular_count(p, n)
    payload = {
        "config": _config(args),
        "p": p,
        "n": n,
        "expected_nonsingular": expected,
        "violations": violations,
        **totals,
    }
    _emit(payload, args.format)
    if totals["matrices"] != expected or violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_duality(args, budget: Budget) -> int:
    _check_trials(args)
    p, n = fp_core._as_prime(args.p), args.n
    # every trial's draw and products are charged before the first draw
    nodes = fp_core.draw_nodes(n) + fp_poly.duality_nodes(p, n, budget)
    budget.check_nodes(args.trials * nodes, what="duality trials")
    rng = random.Random(args.seed)
    disagreements = []
    factorial_failures = []
    for trial in range(args.trials):
        m = fp_core.random_nonsingular(p, n, rng=rng, budget=budget)
        r = [rng.randrange(0, p) for _ in range(n)]
        s = _random_balanced_partner(rng, r, p)
        result = fp_poly.duality_check(m, r, s, budget=budget)
        if not result.agree:
            disagreements.append(result.to_json())
        if not result.factorial_relation_holds():
            factorial_failures.append(result.to_json())
    payload = {
        "config": _config(args),
        "p": p,
        "n": n,
        "trials": args.trials,
        "disagreements": disagreements,
        "factorial_failures": factorial_failures,
    }
    _emit(payload, args.format)
    if disagreements or factorial_failures:
        return EXIT_VIOLATION
    return EXIT_OK


def _random_balanced_partner(rng, r: list[int], p: int) -> list[int]:
    """A second exponent family with entries in [0, p-1] and equal sum."""
    n = len(r)
    total = sum(r)
    while True:
        s = []
        left = total
        for i in range(n - 1):
            lo = max(0, left - (n - 1 - i) * (p - 1))
            hi = min(p - 1, left)
            v = rng.randint(lo, hi)
            s.append(v)
            left -= v
        s.append(left)
        if 0 <= s[-1] <= p - 1:
            return s


def cmd_multi(args, budget: Budget) -> int:
    if args.k < 2:
        raise InputError("multi needs k >= 2 matrices per tuple")
    _check_trials(args)
    p, n = fp_core._as_prime(args.p), args.n
    # a trial's search and its k draws are charged before the first draw
    properties.charge_witness_search(p, n, budget, matrices=args.k)
    budget.check_nodes(args.trials * args.k * fp_core.draw_nodes(n), what="multi trials")
    rng = random.Random(args.seed)
    found = 0
    witness_free = []
    for _ in range(args.trials):
        matrices = [
            fp_core.random_nonsingular(p, n, rng=rng, budget=budget)
            for _ in range(args.k)
        ]
        witness = properties.check_multi(matrices, seed=args.seed, budget=budget)
        if witness is not None:
            found += 1
        else:
            # a tuple with no witness is the interesting outcome; echo it
            witness_free.append([list(list(r) for r in m.rows) for m in matrices])
    payload = {
        "config": _config(args),
        "p": p,
        "n": n,
        "k": args.k,
        "trials": args.trials,
        "found": found,
        "rate": found / args.trials if args.trials else None,
        "witness_free": witness_free,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_pairing(args, budget: Budget) -> int:
    _check_trials(args)
    if not args.matrix:
        properties.charge_pairing(*_random_shape(args), args.trials, budget)
    m = _matrix_from_args(args, budget)
    report = properties.pairing_test(
        m, trials=args.trials, seed=args.seed or 0, budget=budget
    )
    payload = {"config": _config(args), "matrix": m.to_json()}
    payload.update(report.to_json())
    _emit(payload, args.format)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_sigma(args, budget: Budget) -> int:
    _check_trials(args)
    if args.matrix:
        matrices = [_matrix_from_args(args, budget)]
    else:
        p, n = _random_shape(args)
        # every trial's draw and sigma stack are charged before the first draw
        nodes = fp_core.draw_nodes(n) + group_ring.sigma_nodes(p, n, budget)
        budget.check_nodes(args.trials * nodes, what="sigma trials")
        rng = random.Random(args.seed)
        matrices = [
            fp_core.random_nonsingular(p, n, rng=rng, budget=budget)
            for _ in range(args.trials)
        ]
    candidates = []
    for m in matrices:
        report = group_ring.sigma_vanishing_candidate(m, budget=budget)
        if report.candidate:
            candidates.append(m.to_json())
    payload = {
        "config": _config(args),
        "checked": len(matrices),
        "candidates": candidates,
    }
    _emit(payload, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, budget=True, seed=False, formats=("json", "table")):
    sub.add_argument("--format", choices=formats, default="json")
    if budget:
        sub.add_argument(
            "--budget",
            default=None,
            help="preset (low/default/high) or node count; AJT_BUDGET otherwise",
        )
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ajtkit",
        description="progression sets, group-ring vanishing, and solvability checks over F_p",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("appendix-verify", help="re-certify the frozen S_1 table")
    _add_common(s, budget=False, formats=("json", "table", "csv"))
    s.set_defaults(func=cmd_appendix_verify)

    s = subs.add_parser("s1", help="build or minimize an S_1-type set")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--mode", choices=["build", "min"], default="build")
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_s1)

    s = subs.add_parser("sk-build", help="staged S_k-type construction")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=cmd_sk_build)

    s = subs.add_parser("nk-partition", help="random partition into N_k-type parts")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--parts", type=int, default=None)
    s.add_argument("--max-tries", type=int, default=200)
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_nk_partition)

    s = subs.add_parser("check", help="run the P1..P5 chain on one matrix")
    s.add_argument("--matrix", help="JSON file with p, n, rows")
    s.add_argument("--p", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--forbidden", help="JSON file with c_lists and d_lists")
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_check)

    s = subs.add_parser("sweep", help="exhaust all nonsingular matrices at (p, n)")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--threads", type=int, default=1)
    _add_common(s)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("duality", help="row/column coefficient duality probe")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, default=100)
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_duality)

    s = subs.add_parser("multi", help="joint nowhere-zero witness for several matrices")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, default=2, help="number of matrices (>= 2)")
    s.add_argument("--trials", type=int, default=100, help="random tuples to sample")
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_multi)

    s = subs.add_parser("pairing", help="orthogonality probe for the delta images")
    s.add_argument("--matrix")
    s.add_argument("--p", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--trials", type=int, default=200)
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_pairing)

    s = subs.add_parser("sigma", help="symmetric-function vanishing probe")
    s.add_argument("--matrix")
    s.add_argument("--p", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--trials", type=int, default=100)
    _add_common(s, seed=True)
    s.set_defaults(func=cmd_sigma)

    return parser


# built on the first main() call, not at import, and kept for the process:
# parsing leaves the parser as it was
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # resolved once, for the command and all it calls; a malformed
        # budget is rejected even if the command never consults it
        code = args.func(args, current_budget(getattr(args, "budget", None)))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send the rest of stdout to devnull so that
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VIOLATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AjtError as exc:
        # MathViolation, the only other class: either a verified statement
        # failed or a randomized search ran out of retries without a
        # certificate
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())

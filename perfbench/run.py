"""Time-to-verdict benchmark for ajtkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s1-min --seed 1 --seconds 25 --trace 0

It builds the package in place when setup.py declares an extension, imports
ajtkit from src/, and runs one workload in this process, with no worker
pool: passes over the seeded inputs, one timed verdict at a time, each
verdict checked against perfbench/references.py. A pass stops being started
once the next one would overrun --seconds, after the workload's minimum
number of passes.

--trace 0 prints the end-to-end metrics: setup_s (median over cold
interpreters of importing ajtkit and warming its tables), solve_s (program
time of one pass, each verdict at its median over the passes),
verdict_p50_ms (the median of those per-verdict medians), verdict_tail_ms
(over every verdict of the run; the tail percentile is fixed per workload so
that at least 10 verdicts lie beyond it), and peak_rss_mb. The times are
stated at a reference host speed: a fixed calibration (perfbench/hostspeed.py)
runs between verdicts and in each set-up interpreter, and each wall time is
scaled by how fast the host ran the calibration nearby. The wall times themselves
are in the report line. Failures are the result line's `failed` out of
`attempted`.

--trace 1 runs half the time untraced and half with every public ajtkit
function wrapped in a span (perfbench/spans.py), and prints the per-layer
metrics, including the tracing overhead. Spans of the last traced pass go to
perfbench/out/.

The last line of stdout is the JSON result; the lines before it are a
readable report and a `report:` JSON line with the environment, the work
counts and the verdict digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from hostspeed import REFERENCE_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# the primes of the ladder and sweep inputs; set-up warms their tables
WARMUP_PRIMES = (5, 7, 11, 13)
# minimum passes per workload: enough verdicts for its tail percentile, and
# at least three samples of each verdict for the per-verdict medians
MIN_PASSES = {"s1-min": 7, "certify": 3, "sweep": 4, "ladder": 3}

# numpy is imported before the clock starts: it is a dependency, and on a
# shared host its import time drifts with the file cache, not with the speed
# the calibration measures. The calibration runs in the same interpreter,
# right after set-up.
SETUP_CODE = """
import statistics, sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ajtkit import apsets, fp_poly
apsets.appendix_rows()
for p in map(int, sys.argv[3:]):
    fp_poly.vandermonde(p)
    fp_poly.vandermonde_inverse(p)
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from hostspeed import calibrate
print(took, statistics.median(calibrate() for _ in range(3)))
"""

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}

    def add(prefix, **fields):
        for field, unit in fields.items():
            units[f"{prefix}.{field}"] = unit

    add("kernels.s1_exhaust", calls="count", busy_s="s", nodes="count",
        nodes_per_s="1/s", final_pass_frac="ratio", pure_calls="count")
    add("apsets.min_s1_search", self_s="s")
    for fn in ("is_sk_type", "is_nk_type", "build_s1_log"):
        add(f"apsets.{fn}", calls="count", busy_s="s")
    add("apsets.partition_nk", busy_s="s", draws="count", accept_frac="ratio")
    add("fp_core.enumerate_nonsingular", busy_s="s", matrices="count")
    add("fp_core.random_nonsingular", busy_s="s")
    add("fp_core.is_probable_prime", calls="count", busy_s="s")
    add("properties.check_p1", calls="count", busy_s="s", witness_frac="ratio")
    add("properties.check_all", self_s="s")
    add("group_ring.check_p3", calls="count", busy_s="s", factors="count",
        entry_ops="count", vanish_frac="ratio")
    add("group_ring.check_p3_integer", calls="count", busy_s="s",
        vanish_frac="ratio")
    add("group_ring.check_p4", calls="count", busy_s="s", entry_ops="count",
        vanish_frac="ratio")
    for fn in ("check_p2", "check_p5", "duality_check"):
        add(f"fp_poly.{fn}", busy_s="s")
    for route in ("evaluate", "coefficient"):
        add(f"fp_poly.scalar_product_condition.{route}", busy_s="s")
    add("fp_poly.mul_reduce", calls="count", busy_s="s", term_pairs="count")
    add("cli.main", self_s="s")
    add("cli", stdout_bytes="bytes")
    for layer in ("kernels", "apsets", "fp_core", "properties", "group_ring",
                  "fp_poly", "cli"):
        add(f"layer.{layer}", self_s="s")
    add("trace", solve_s="s", untraced_solve_s="s", overhead_frac="ratio",
        self_sum_frac="ratio", spans="count")
    return units


# -- hooks: work counters taken from arguments and results -------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hook_s1_exhaust(c, args, kwargs, result):
    c["kernels.s1_exhaust.calls"] += 1
    c["kernels.s1_exhaust.nodes"] += result[2]
    c["_last_exhaust_nodes"] = result[2]


def _hook_min_s1(c, args, kwargs, result):
    # the last kernel call of a search is the size limit that decided it
    c["kernels.s1_exhaust.final_nodes"] += c.pop("_last_exhaust_nodes", 0)


def _hook_pure_exhaust(c, args, kwargs, result):
    c["kernels.s1_exhaust.pure_calls"] += 1


def _hook_partition(c, args, kwargs, result):
    c["apsets.partition_nk.draws"] += result.attempts


def _hook_matrix(c, args, kwargs, item):
    c["fp_core.enumerate_nonsingular.matrices"] += 1


def _hook_check_p1(c, args, kwargs, result):
    c["properties.check_p1.witnesses"] += result is not None


def _entries(m) -> int:
    return m.p**m.n


def _hook_check_p3(c, args, kwargs, result):
    m = args[0]
    factors = sum(map(len, _arg(args, kwargs, 1, "c_lists")))
    factors += sum(map(len, _arg(args, kwargs, 2, "d_lists")))
    c["group_ring.check_p3.factors"] += factors
    c["group_ring.check_p3.entry_ops"] += factors * _entries(m)
    c["group_ring.check_p3.vanish"] += bool(result)


def _hook_check_p3_integer(c, args, kwargs, result):
    c["group_ring.check_p3_integer.vanish"] += bool(result)


def _hook_check_p4(c, args, kwargs, result):
    m = args[0]
    t = _arg(args, kwargs, 1, "t") or [1] * m.n
    t_prime = _arg(args, kwargs, 2, "t_prime") or [1] * m.n
    c["group_ring.check_p4.entry_ops"] += (sum(t) + sum(t_prime)) * _entries(m)
    c["group_ring.check_p4.vanish"] += bool(result)


def _hook_mul_reduce(c, args, kwargs, result):
    c["fp_poly.mul_reduce.term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


HOOKS = {
    "kernels.s1_exhaust": _hook_s1_exhaust,
    "_kernels_py.s1_exhaust": _hook_pure_exhaust,
    "apsets.min_s1_search": _hook_min_s1,
    "apsets.partition_nk": _hook_partition,
    "fp_core.enumerate_nonsingular": _hook_matrix,
    "properties.check_p1": _hook_check_p1,
    "group_ring.check_p3": _hook_check_p3,
    "group_ring.check_p3_integer": _hook_check_p3_integer,
    "group_ring.check_p4": _hook_check_p4,
    "fp_poly.mul_reduce": _hook_mul_reduce,
}
SUFFIXES = {
    "fp_poly.scalar_product_condition":
        lambda args, kwargs: _arg(args, kwargs, 3, "route", "auto"),
}
# traced in every run: which kernel backend actually ran, and its nodes
BACKEND_PROBE = frozenset({"kernels.s1_exhaust", "_kernels_py.s1_exhaust",
                           "apsets.min_s1_search"})


# -- the harness --------------------------------------------------------------


class Runner:
    """Times verdicts, checks them, and keeps the run's tallies. With a
    HostSpeed, calibrates between verdicts."""

    def __init__(self, tracer, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.verdict_ns: list[int] = []
        self.verdict_at: list[float] = []
        self.digest = hashlib.sha256()

    def verdict(self, call, check):
        """Time call(); check its output untimed. Returns the output, or
        None when the call raised."""
        self.attempted += 1
        self.tracer.verdict = self.attempted
        if self.speed is not None:
            self.speed.maybe_sample()
        self.verdict_at.append(time.perf_counter())
        t0 = time.perf_counter_ns()
        try:
            out = call()
        except Exception:
            self.verdict_ns.append(time.perf_counter_ns() - t0)
            self._fail("raised", traceback.format_exc())
            return None
        self.verdict_ns.append(time.perf_counter_ns() - t0)
        try:
            ok, summary = check(out, self.tracer.counts)
        except Exception:
            self._fail("check raised", traceback.format_exc())
            return out
        self.digest.update(json.dumps(summary, sort_keys=True).encode())
        if not ok:
            self._fail("disagrees with the reference", json.dumps(summary)[:400])
        return out

    def _fail(self, what, detail):
        self.failed += 1
        self.digest.update(b"failed")
        if self.failed <= 3:
            print(f"verdict {self.attempted} {what}:\n{detail}", file=sys.stderr)


def run_passes(workload, runner, tracer, seconds, min_passes, trace):
    """Passes until the next would overrun `seconds`; at least min_passes.

    With trace, passes alternate untraced and traced, so both see the same
    share of a cold start; untraced passes still carry the backend probe.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer.install(HOOKS, SUFFIXES, only=None if traced else BACKEND_PROBE)
        tracer.reset()
        runner.verdict_ns = []
        runner.verdict_at = []
        runner.digest = hashlib.sha256()
        t0 = time.perf_counter()
        try:
            workload.run_pass(runner)
        finally:
            tracer.remove()
        wall = time.perf_counter() - t0
        record = {
            "traced": traced,
            "verdict_ns": runner.verdict_ns,
            "verdict_at": runner.verdict_at,
            "digest": runner.digest.hexdigest(),
            "counts": {k: v for k, v in tracer.counts.items()
                       if not k.startswith("_")},
        }
        if traced:
            record["summary"] = tracer.summary()
            record["spans"] = tracer.arrays()  # kept for the last traced pass only
            for earlier in passes:
                earlier.pop("spans", None)
        passes.append(record)
        if len(passes) >= min_passes and time.perf_counter() - start + wall > seconds:
            return passes


def verdict_medians_ms(passes, key="verdict_ns") -> list[float]:
    """Each verdict of a pass at its median over the passes, in ms.

    Interference on a shared host slows a verdict here and there; taking the
    median per verdict keeps such bursts out of the pass time. Passes of
    unequal length (after a failure) fall back to the median pass.
    """
    columns = [p[key] for p in passes]
    if len({len(c) for c in columns}) != 1:
        middle = sorted(columns, key=sum)[len(columns) // 2]
        return [ns / 1e6 for ns in middle]
    return [statistics.median(v) / 1e6 for v in zip(*columns)]


def solve_seconds(passes, key="verdict_ns") -> float:
    """Program time of one pass: the sum of its verdicts' medians."""
    return sum(verdict_medians_ms(passes, key)) / 1e3


def scale_passes(passes, speed) -> None:
    """Add each pass's verdict times at reference speed, as "scaled_ns"."""
    for p in passes:
        p["scaled_ns"] = [ns * speed.scale(at)
                          for ns, at in zip(p["verdict_ns"], p["verdict_at"])]


def tail(latencies, q):
    """Nearest-rank q-th percentile, and how many verdicts lie beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def per_layer(untraced, traced) -> dict[str, float]:
    """Per-pass medians over the traced passes."""

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def stat(name, field):
        return med(lambda p: p["summary"]["per_name"].get(name, {}).get(field, 0.0))

    def count(key):
        return med(lambda p: p["counts"].get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in per_layer_units():
        prefix, field = metric.rsplit(".", 1)
        if field in ("calls", "busy_s", "self_s") and not prefix.startswith("layer"):
            values[metric] = stat(prefix, field)
    nodes = count("kernels.s1_exhaust.nodes")
    values.update({
        "kernels.s1_exhaust.nodes": nodes,
        "kernels.s1_exhaust.nodes_per_s": ratio(nodes, values["kernels.s1_exhaust.busy_s"]),
        "kernels.s1_exhaust.final_pass_frac": ratio(count("kernels.s1_exhaust.final_nodes"), nodes),
        "kernels.s1_exhaust.pure_calls": count("kernels.s1_exhaust.pure_calls"),
        "apsets.partition_nk.draws": count("apsets.partition_nk.draws"),
        "apsets.partition_nk.accept_frac": ratio(
            stat("apsets.partition_nk", "calls"), count("apsets.partition_nk.draws")),
        "fp_core.enumerate_nonsingular.matrices": count("fp_core.enumerate_nonsingular.matrices"),
        "properties.check_p1.witness_frac": ratio(
            count("properties.check_p1.witnesses"), values["properties.check_p1.calls"]),
        "group_ring.check_p3.factors": count("group_ring.check_p3.factors"),
        "group_ring.check_p3.entry_ops": count("group_ring.check_p3.entry_ops"),
        "group_ring.check_p3.vanish_frac": ratio(
            count("group_ring.check_p3.vanish"), values["group_ring.check_p3.calls"]),
        "group_ring.check_p3_integer.vanish_frac": ratio(
            count("group_ring.check_p3_integer.vanish"),
            values["group_ring.check_p3_integer.calls"]),
        "group_ring.check_p4.entry_ops": count("group_ring.check_p4.entry_ops"),
        "group_ring.check_p4.vanish_frac": ratio(
            count("group_ring.check_p4.vanish"), values["group_ring.check_p4.calls"]),
        "fp_poly.mul_reduce.term_pairs": count("fp_poly.mul_reduce.term_pairs"),
        "cli.stdout_bytes": count("cli.stdout_bytes"),
    })
    for layer in ("kernels", "apsets", "fp_core", "properties", "group_ring",
                  "fp_poly", "cli"):
        values[f"layer.{layer}.self_s"] = med(lambda p: p["summary"]["layers"][layer])
    solve = solve_seconds(traced)
    untraced_solve = solve_seconds(untraced)
    values.update({
        "trace.solve_s": solve,
        "trace.untraced_solve_s": untraced_solve,
        "trace.overhead_frac": solve / untraced_solve - 1,
        "trace.self_sum_frac": max(
            p["summary"]["self_total_s"] * 1e9 / sum(p["verdict_ns"]) for p in traced),
        "trace.spans": med(lambda p: p["summary"]["spans"]),
    })
    return values


# -- set-up, build and environment ------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix not in (".so", ".pyd", ".pyc"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(digest: str) -> None:
    """Build extensions in place once per source state; a failed build ends
    the run, since the result would not measure the program as shipped."""
    setup = ROOT / "setup.py"
    if not setup.is_file():
        return
    digest += hashlib.sha256(setup.read_bytes()).hexdigest()[:16]
    stamp = OUT / "build-stamp"
    if stamp.is_file() and stamp.read_text() == digest:
        return
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                   cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=850)
    stamp.write_text(digest)


def measure_setup() -> tuple[list[float], list[float]]:
    """Import-and-warm-up time, each in a fresh interpreter: wall seconds,
    and seconds at reference speed by that interpreter's calibration."""
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
             *map(str, WARMUP_PRIMES)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        took, cal = map(float, out.stdout.split())
        times.append(took)
        scaled.append(took * REFERENCE_S / cal)
    return times, scaled


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def environment(kernels, counts) -> dict:
    calls = counts.get("kernels.s1_exhaust.calls", 0)
    pure = counts.get("kernels.s1_exhaust.pure_calls", 0)
    return {
        # per pass; kernels.BACKEND names the import-time choice only
        "s1_exhaust_backend_calls": {"pure": pure, "compiled": calls - pure},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_digest": source_digest(),
        "kernels_backend_label": kernels.BACKEND,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ajtkit" / "__init__.py").is_file():
        print(f"no ajtkit sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    build(digest)
    setup_times, setup_scaled = ([], []) if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    from ajtkit import apsets, fp_poly, kernels

    if not Path(apsets.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported ajtkit from {apsets.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    apsets.appendix_rows()
    for p in WARMUP_PRIMES:
        fp_poly.vandermonde(p)
        fp_poly.vandermonde_inverse(p)

    workload = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    tracer = Tracer()
    speed = None if args.trace else HostSpeed()
    runner = Runner(tracer, speed)
    min_passes = 2 if args.trace else MIN_PASSES[args.workload]
    passes = run_passes(workload, runner, tracer, args.seconds, min_passes,
                        args.trace)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = per_layer([p for p in passes if not p["traced"]], traced)
        units = per_layer_units()
        numpy.savez_compressed(OUT / f"{args.workload}-seed{args.seed}-spans.npz",
                               names=numpy.array(tracer.names), **traced[-1]["spans"])
    else:
        speed.sample()
        scale_passes(passes, speed)
        latencies_ms = [ns / 1e6 for p in passes for ns in p["scaled_ns"]]
        wall_ms = [ns / 1e6 for p in passes for ns in p["verdict_ns"]]
        tail_ms, beyond = tail(latencies_ms, workload.tail_q)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "solve_s": solve_seconds(passes, "scaled_ns"),
            "verdict_p50_ms": statistics.median(verdict_medians_ms(passes, "scaled_ns")),
            "verdict_tail_ms": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    counts = [p for p in passes if p["traced"] == bool(args.trace)][-1]["counts"]
    digests = {p["digest"] for p in passes}
    self_sum_ok = metrics.get("trace.self_sum_frac", 0.0) <= 1.0
    correct = runner.failed == 0 and len(digests) == 1 and self_sum_ok
    if len(digests) != 1:
        print("verdicts differ between passes over the same inputs", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "verdicts": runner.attempted,
        "failed_frac": runner.failed / runner.attempted,
        "tail_percentile": workload.tail_q,
        "setup_s_samples": setup_times,
        "solve_s_per_pass": [sum(p["verdict_ns"]) / 1e9 for p in passes],
        "traced_passes": sum(p["traced"] for p in passes),
        "counts_per_pass": counts,
        "verdict_digest": passes[0]["digest"],
        "environment": environment(kernels, counts),
    }
    if args.trace:
        report["span_calls"] = {n: row["calls"] for n, row in
                                traced[-1]["summary"]["per_name"].items()}
    else:
        report["tail_samples"] = {"n": len(latencies_ms), "beyond": beyond}
        report["wall"] = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_seconds(passes),
            "verdict_p50_ms": statistics.median(verdict_medians_ms(passes)),
            "verdict_tail_ms": tail(wall_ms, workload.tail_q)[0],
        }
        report["calibration_s"] = {
            "samples": len(speed.took),
            "median": statistics.median(speed.took),
            "reference": REFERENCE_S,
        }
    for name, value in metrics.items():
        print(f"{args.workload:8} {name:52} {value:14.6g} {units[name]}")
    print(f"{args.workload:8} {'failed_frac':52} {report['failed_frac']:14.6g} ratio")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

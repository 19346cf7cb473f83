"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
- the metric names and units run.py prints are the ones BENCHMARK.json lists;
- two traced runs of each workload with the same seed give identical work
  counts, identical span call counts and identical verdicts;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and perfbench/.

Runs are sequential and each is waited for. Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def report_of(out: str) -> dict:
    line = next(x for x in out.splitlines() if x.startswith("report: "))
    return json.loads(line[len("report: "):])


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != run.END_TO_END:
        problems.append(f"end_to_end metrics {listed} != run.py {run.END_TO_END}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != run.per_layer_units():
        problems.append("per_layer metrics differ between BENCHMARK.json and run.py")

    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        seen = []
        for _ in range(2):
            proc = bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", "1"])
            if proc.returncode != 0:
                problems.append(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
                break
            result = json.loads(proc.stdout.splitlines()[-1])
            report = report_of(proc.stdout)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: incorrect result {result}")
            seen.append({k: report[k] for k in
                         ("counts_per_pass", "span_calls", "verdict_digest")})
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{workload}: same seed, different counts or verdicts")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAIL'}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "s1-min", "--seed", "1", "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

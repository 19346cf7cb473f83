"""Command-line interface: exit codes, determinism, payload shapes."""

import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ajtkit import budget as budget_module
from ajtkit import cli, fp_core, group_ring, kernels, properties
from ajtkit.budget import Budget
from ajtkit.apsets import appendix_csv_text
from ajtkit.cli import main
from ajtkit.errors import BudgetExceeded


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_appendix_verify_ok(capsys):
    rc, payload = run_json(capsys, "appendix-verify")
    assert rc == 0
    assert payload["ok"] is True
    assert len(payload["rows"]) == 27


def test_appendix_verify_csv_is_byte_identical(capsys):
    rc, out = run(capsys, "appendix-verify", "--format", "csv")
    assert rc == 0
    assert out == appendix_csv_text()


def test_closed_stdout_exits_1_without_traceback():
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ajtkit.cli", "appendix-verify"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_csv_is_refused_before_any_sweep_work(capsys, monkeypatch):
    def never(job):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "_sweep_range", never)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p", "5", "--n", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_import_loads_no_process_pool():
    # the pool's modules are imported only by a sweep that starts workers
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, ajtkit.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == b"[]\n"


def test_package_root_is_only_a_namespace():
    # each name is imported from its module: the package root holds only
    # __version__, and the set-up path (apsets, fp_poly) loads no module
    # that it does not use; its records are NamedTuples, so not dataclasses
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, ajtkit; "
        "print(sorted(n for n in vars(ajtkit) if not n.startswith('_')), ajtkit.__version__); "
        "from ajtkit import apsets, fp_poly; "
        "print(sorted({'ajtkit.group_ring', 'ajtkit.properties', 'ajtkit.cli', 'dataclasses'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == b"[] 0.1.0\n[]\n", proc.stderr


def test_one_parser_serves_every_call(capsys, monkeypatch):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import ajtkit.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == b"0\n"  # importing builds no parser
    argvs = [
        ["sweep", "--p", "5", "--n", "2"],
        ["duality", "--p", "5", "--n", "2", "--trials", "3", "--seed", "1"],
        ["check", "--p", "5", "--n", "2", "--seed", "3"],
        ["sweep", "--p", "3", "--n", "2", "--format", "table"],
    ]
    cached = [run(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p", "five", "--n", "2"])
    assert exc.value.code == 2
    assert "invalid int value: 'five'" in capsys.readouterr().err
    assert [run(capsys, *argv) for argv in argvs] == cached
    built = []
    monkeypatch.setattr(cli, "_parser", lambda: built.append(1) or cli.build_parser())
    assert [run(capsys, *argv) for argv in argvs] == cached
    assert len(built) == len(argvs)


def test_s1_build(capsys):
    rc, payload = run_json(capsys, "s1", "--p", "13", "--mode", "build")
    assert rc == 0
    assert payload["elements"] == [0, 1, 3, 6, 10, 12]
    assert payload["size"] == 6
    assert payload["certified"] is True


def test_s1_min(capsys):
    rc, payload = run_json(capsys, "s1", "--p", "11", "--mode", "min")
    assert rc == 0
    assert payload["size"] == 5
    assert payload["proven_optimal"] is True


def test_s1_rejects_composite(capsys):
    rc, _ = run(capsys, "s1", "--p", "6", "--mode", "build")
    assert rc == 2


def test_bad_budget_string_is_input_error(capsys):
    rc, _ = run(capsys, "s1", "--p", "13", "--mode", "build", "--budget", "nope")
    assert rc == 2


def test_tiny_budget_exits_3(capsys):
    rc, _ = run(capsys, "sweep", "--p", "5", "--n", "2", "--budget", "17")
    assert rc == 3


def test_sk_build(capsys):
    rc, payload = run_json(capsys, "sk-build", "--p", "211", "--k", "2")
    assert rc == 0
    assert payload["certified"] is True
    assert payload["x"] == 2


def test_nk_partition(capsys):
    rc, payload = run_json(
        capsys, "nk-partition", "--p", "257", "--k", "1", "--parts", "2",
        "--seed", "0",
    )
    assert rc == 0
    assert len(payload["parts"]) == 2
    assert payload["attempts"] >= 1


def test_nk_partition_budget(capsys):
    # the scans of the first draw at p = 1000003 pass the default budget, so
    # the run ends before any label is drawn; a budget below one draw's words
    # stops a small run too, and one above it changes nothing but the echo
    start = time.perf_counter()
    rc = main(["nk-partition", "--p", "1000003", "--k", "97", "--parts", "97"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith("budget exceeded:") and captured.err.count("\n") == 1
    small = ("nk-partition", "--p", "257", "--k", "1", "--parts", "2", "--seed", "3")
    assert run(capsys, *small, "--budget", "100") == (3, "")
    rc, payload = run_json(capsys, *small, "--budget", "default")
    assert payload["config"]["budget"] == "default"
    payload["config"]["budget"] = None
    assert (rc, payload) == run_json(capsys, *small)


def test_nk_partition_failure_is_exit_1(capsys):
    rc, _ = run(
        capsys, "nk-partition", "--p", "257", "--k", "1", "--max-tries", "5",
        "--seed", "0",
    )
    assert rc == 1  # no certificate found within the retry allowance


def test_check_random_matrix(capsys):
    rc, payload = run_json(
        capsys, "check", "--p", "5", "--n", "2", "--seed", "9"
    )
    assert rc == 0
    assert payload["violations"] == []
    assert payload["P1"]["witness"] is not None


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("check", "--p", "10007", "--n", "500"),
         "group-ring table needs more than 2^6657 entries, budget allows 16777216"),
        (("pairing", "--p", "5", "--n", "2000", "--trials", "40"),
         "pairing table needs more than 2^4643 entries, budget allows 16777216"),
        (("duality", "--p", "5", "--n", "2000", "--trials", "1"),
         "reduced product needs more than 2^4643 entries, budget allows 16777216"),
        (("sigma", "--p", "7", "--n", "7", "--trials", "10007"),
         "sigma trials needs 123621354416 nodes, budget allows 1000000000"),
        (("duality", "--p", "5", "--n", "2", "--trials", "100000000"),
         "duality trials needs 5800000000 nodes, budget allows 1000000000"),
        (("multi", "--p", "5", "--n", "2", "--trials", "100000000"),
         "multi trials needs 1600000000 nodes, budget allows 1000000000"),
    ],
)
def test_random_matrices_are_charged_before_any_draw(capsys, monkeypatch, argv, refusal):
    def never(*args):
        raise AssertionError("a matrix entry was drawn")

    monkeypatch.setattr(random.Random, "randrange", never)
    assert main(list(argv)) == 3
    assert capsys.readouterr().err == f"budget exceeded: {refusal}\n"


def _identity(p, n):
    return fp_core.FpMatrix([[int(i == j) for j in range(n)] for i in range(n)], p)


@pytest.mark.parametrize(
    "argv, routine",
    [
        (("check", "--p", "10007", "--n", "500"),
         lambda: properties.check_all(_identity(10007, 500))),
        (("pairing", "--p", "10007", "--n", "500"),
         lambda: properties.pairing_test(_identity(10007, 500))),
        (("sweep", "--p", "5", "--n", "2000", "--budget", "low"),
         lambda: next(fp_core.enumerate_nonsingular_groups(5, 2000, budget="low"))),
    ],
    ids=["check", "pairing", "sweep"],
)
def test_up_front_refusal_is_the_routines_own(capsys, argv, routine):
    # the command charges by the function its routine charges by, so both
    # refuse a shape with one message, before either reads a matrix
    with pytest.raises(BudgetExceeded) as refused:
        routine()
    assert main(list(argv)) == 3
    assert capsys.readouterr().err == f"budget exceeded: {refused.value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--p", "5", "--n", "2", "--seed", "7"),
        ("duality", "--p", "5", "--n", "2", "--trials", "3"),
        ("sweep", "--p", "3", "--n", "2"),
    ],
)
def test_budget_is_parsed_once_a_run(capsys, monkeypatch, argv):
    calls = []
    real = budget_module.parse_budget
    monkeypatch.setattr(budget_module, "parse_budget", lambda t: calls.append(t) or real(t))
    rc, payload = run_json(capsys, *argv, "--budget", "low")
    assert rc in (0, 1)
    assert calls == ["low"]
    assert payload["config"]["budget"] == "low"


def test_check_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 5, "n": 2, "rows": [[1, 1], [1, 2]]}))
    rc, payload = run_json(capsys, "check", "--matrix", str(path))
    assert rc == 0
    assert payload["P1"]["witness"] == [1, 1]


def test_check_missing_file_is_input_error(capsys):
    rc, _ = run(capsys, "check", "--matrix", "/nonexistent.json")
    assert rc == 2


GOOD_MATRIX = {"p": 5, "n": 2, "rows": [[1, 1], [1, 2]]}


@pytest.mark.parametrize(
    "command, option, payload",
    [
        ("check", "--matrix", {"p": 5, "rows": [["a", 1], [1, 1]]}),
        ("check", "--matrix", {"p": "x", "rows": [[1, 1], [1, 2]]}),
        ("check", "--matrix", {"p": 5, "rows": 7}),
        ("check", "--matrix", {"p": 5, "rows": [7, [1, 2]]}),
        # read as 1 by int(): a matrix that is not the one in the file
        ("check", "--matrix", {"p": 5, "rows": [[1.9, 0], [0, 1]]}),
        ("check", "--matrix", {"p": 5, "rows": [[True, 0], [0, 1]]}),
        ("check", "--matrix", {"p": 5.0, "rows": [[1, 1], [1, 2]]}),
        ("check", "--matrix", {"p": 5, "n": "2", "rows": [[1, 1], [1, 2]]}),
        ("check", "--forbidden", {"p": 5, "n": 2, "c_lists": [["z"], []], "d_lists": [[], []]}),
        ("check", "--forbidden", {"p": 5, "n": 2, "c_lists": [[0.0], []], "d_lists": [[], []]}),
        ("check", "--forbidden", {"p": 5, "n": 2, "c_lists": 3, "d_lists": [[], []]}),
        ("check", "--forbidden", {"p": True, "n": 2, "c_lists": [[], []], "d_lists": [[], []]}),
        ("sigma", "--matrix", {"p": 5, "rows": [["a", 1], [1, 1]]}),
        ("sigma", "--matrix", {"p": 5, "rows": 7}),
        ("pairing", "--matrix", {"p": "x", "rows": [[1, 1], [1, 2]]}),
        ("pairing", "--matrix", {"p": 5, "rows": [[1.9, 0], [0, 1]]}),
    ],
)
def test_bad_json_entries_are_input_errors(tmp_path, capsys, command, option, payload):
    # only JSON integers, in lists where lists belong: anything else exits 2
    # with one error line, never a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = [command, option, str(bad)]
    if option == "--forbidden":
        good = tmp_path / "m.json"
        good.write_text(json.dumps(GOOD_MATRIX))
        argv += ["--matrix", str(good)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


FORBIDDEN_LISTS = '"c_lists": [[], []], "d_lists": [[], []]'


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--matrix", '{"p": 5, "rows": [[1, 1], [1, 2]]', "is not valid JSON"),
        ("--matrix", '{"p": 5}', "needs keys 'p' and 'rows'"),
        ("--matrix", '{"rows": [[1, 1], [1, 2]]}', "needs keys 'p' and 'rows'"),
        ("--matrix", "[5, [[1, 1], [1, 2]]]", "needs keys 'p' and 'rows'"),
        ("--matrix", '{"p": 5, "n": 3, "rows": [[1, 1], [1, 2]]}', "'n' does not match"),
        ("--forbidden", '{"p": 5, "n": 2, "c_lists": [[0]], "d_lists": [[], []]}',
         "one forbidden list per coordinate"),
        ("--forbidden", '{"p": 5, "n": 2, "c_lists": [[5], []], "d_lists": [[], []]}',
         "must lie in [0, p)"),
        ("--forbidden", '{"p": 5, "n": 2, "c_lists": [[], []], "d_lists": [[], [-1]]}',
         "must lie in [0, p)"),
        ("--forbidden", '{"p": 5, "n": 2, "c_lists": [[1, 1], []], "d_lists": [[], []]}',
         "must be distinct"),
        ("--forbidden", '{"p": 5, "n": 2, "c_lists": [[], []]}', "needs p, n, c_lists, d_lists"),
        ("--forbidden", '{"p": 7, "n": 2, ' + FORBIDDEN_LISTS + "}", "does not match the matrix"),
        ("--forbidden", '{"p": 5, "n": 2, ' + FORBIDDEN_LISTS, "is not valid JSON"),
    ],
)
def test_check_refuses_bad_input_files(tmp_path, capsys, option, text, message):
    # each refusal exits 2 with one stderr line that names it
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = tmp_path / "m.json"
    good.write_text(json.dumps(GOOD_MATRIX))
    argv = ["check", option, str(bad)]
    if option == "--forbidden":
        argv += ["--matrix", str(good)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:") and message in captured.err


def test_sweep_5_2(capsys):
    rc, payload = run_json(capsys, "sweep", "--p", "5", "--n", "2")
    assert rc == 0
    assert payload["matrices"] == 480
    assert payload["expected_nonsingular"] == 480
    assert payload["p1_witness"] == 480
    assert payload["integer_nonzero"] == 480
    assert payload["modp_nonzero"] == 480
    assert payload["violations"] == []


def test_sweep_multiprocess_matches_serial(capsys):
    rc1, serial = run_json(capsys, "sweep", "--p", "5", "--n", "2")
    rc2, parallel = run_json(
        capsys, "sweep", "--p", "5", "--n", "2", "--threads", "2"
    )
    assert rc1 == rc2 == 0
    serial["config"].pop("threads")
    parallel["config"].pop("threads")
    assert serial == parallel


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--p", "5", "--n", "0"),
        ("duality", "--p", "5", "--n", "2", "--trials", "0"),
        ("duality", "--p", "5", "--n", "2", "--trials", "-3"),
        ("pairing", "--p", "5", "--n", "2", "--trials", "0"),
        ("pairing", "--p", "5", "--n", "2", "--trials", "-3"),
        ("sigma", "--p", "5", "--n", "2", "--trials", "0"),
        ("sigma", "--p", "5", "--n", "2", "--trials", "-3"),
        ("sweep", "--p", "5", "--n", "2", "--threads", "0"),
        ("sweep", "--p", "5", "--n", "2", "--threads", "-1"),
        ("nk-partition", "--p", "7", "--k", "1", "--max-tries", "0"),
        ("nk-partition", "--p", "7", "--k", "1", "--max-tries", "-1"),
    ],
)
def test_nonpositive_count_is_input_error(capsys, argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv, code",
    [
        (("sweep", "--p", "5", "--n", "2000", "--budget", "low"), 3),
        (("sweep", "--p", "40", "--n", "2000", "--budget", "low"), 2),
        (("sweep", "--p", "4", "--n", "1000003"), 2),
        (("sweep", "--p", "7", "--n", "10007", "--budget", "low"), 3),
    ],
)
def test_sweep_refuses_before_it_forms_the_matrix_count(capsys, argv, code):
    # p is validated before any charge, and a count p^(n^2) past the node
    # cap is refused by a bound on its bit length, never formed: 5^(2000^2)
    # has 2.8 million digits, and 4^(1000003^2) does not fit in memory
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert ("needs at least 2^" in captured.err) == (code == 3)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the jobs,
    starts nothing."""

    requested: list[int] = []
    jobs: list[tuple] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.jobs.extend(jobs)
        return map(fn, jobs)


@pytest.mark.parametrize(
    "threads, cpus, n, want",
    [
        (64, 3, 2, 3),  # capped by the usable CPUs
        (64, 8, 1, 4),  # capped by the 4 jobs of a (5, 1) sweep
        (2, 8, 2, 2),  # the request itself
        (1, 8, 2, None),  # serial: no pool at all
    ],
)
def test_sweep_worker_count_is_capped(capsys, monkeypatch, threads, cpus, n, want):
    monkeypatch.setattr(_SerialPool, "requested", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    rc, payload = run_json(
        capsys, "sweep", "--p", "5", "--n", str(n), "--threads", str(threads)
    )
    assert rc == 0
    assert _SerialPool.requested == ([] if want is None else [want])
    assert payload["config"]["threads"] == threads  # the request, as given
    # one job a worker: contiguous ranges of first rows, equal to within one
    ranges = [job[2] for job in _SerialPool.jobs]
    assert len(ranges) == (want or 0)
    if ranges:
        assert ranges[0].start == 0 and ranges[-1].stop == 5**n - 1
        assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
        sizes = [r.stop - r.start for r in ranges]
        assert max(sizes) - min(sizes) <= 1


def test_refused_sweep_starts_no_pool(capsys, monkeypatch):
    # one table of a p > 2^12 sweep at n = 2, or of a p > 2^24 sweep at
    # n = 1, is past the entries budget: the stack charge sweep_verdicts
    # makes refuses the sweep before any worker exists, as the enumeration's
    # own charge does
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for argv, refusal in (
        (("--p", "16777259", "--n", "1"), "group-ring stack needs"),
        (("--p", "4099", "--n", "2", "--budget", str(10**15)), "group-ring stack needs"),
        (("--p", "5", "--n", "2000", "--budget", "low"), "enumeration of 2000x2000"),
    ):
        assert main(["sweep", *argv, "--threads", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"budget exceeded: {refusal}")


def test_sweep_workers_get_the_resolved_budget(capsys, monkeypatch):
    # stand-ins record the budget each worker call receives; --threads 1
    # runs the workers in this process, so no process is started
    seen = []

    def recording(fn):
        def call(*args, budget=None, **kwargs):
            seen.append((fn.__name__, budget))
            return fn(*args, budget=budget, **kwargs)

        return call

    for module, name in [
        (cli.fp_core, "enumerate_nonsingular_groups"),
        (cli.properties, "sweep_verdicts"),
    ]:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    expanded = []
    real = kernels.products_vanish
    monkeypatch.setattr(
        kernels, "products_vanish", lambda *a: expanded.append(a) or real(*a)
    )
    rc, payload = run_json(
        capsys, "sweep", "--p", "5", "--n", "2", "--threads", "1", "--budget", "700"
    )
    assert rc == 0
    # --threads 1 is one job, so one enumeration call over all 24 first
    # rows; at n = 2 each first row is one group: one stack call per group,
    # whose one kernel call answers both rings
    assert [name for name, _ in seen[:1]] == ["enumerate_nonsingular_groups"]
    assert [name for name, _ in seen[1:]] == ["sweep_verdicts"] * 24
    assert len(expanded) == 24
    assert {budget for _, budget in seen} == {Budget(nodes=700)}


def recording_stacks(monkeypatch):
    """Record (head rows, last rows) of every sweep_verdicts call."""
    stacks = []
    real = properties.sweep_verdicts

    def recording(p, head, last, budget=None):
        n = last.shape[1]
        assert (head.shape, last.ndim) == ((n - 1, n), 2)
        stacks.append((head.tolist(), last.tolist()))
        return real(p, head, last, budget=budget)

    monkeypatch.setattr(properties, "sweep_verdicts", recording)
    return stacks


def test_sweep_stacks_share_their_first_rows(capsys, monkeypatch):
    # at n = 3 a stack is the p^3 - p^2 = 18 matrices after two fixed rows
    stacks = recording_stacks(monkeypatch)
    rc, payload = run_json(capsys, "sweep", "--p", "3", "--n", "3", "--threads", "1")
    assert rc == 1  # (3, 3) has violations
    assert len(stacks) == 26 * 24
    assert all(len(head) == 2 and len(last) == 18 for head, last in stacks)
    assert sum(len(last) for _, last in stacks) == payload["matrices"]
    # the stacks hold every matrix once, in enumeration order
    swept = [tuple(map(tuple, head + [row])) for head, last in stacks for row in last]
    assert swept == [m.rows for m in fp_core.enumerate_nonsingular(3, 3)]


def test_sweep_group_larger_than_the_entries_budget(monkeypatch):
    # (67, 2): a group of 4422 matrices holds 4422 * 67^2 > 2^24 entries if
    # each had its table, but the stack holds one table whatever its size,
    # so the group is one sweep_verdicts call under the default budget
    p, n = 67, 2
    assert (p**n - p) * p**n > Budget().entries
    stacks = recording_stacks(monkeypatch)
    # the range holds the one first row (1, 0)
    counts = cli._sweep_range((p, n, slice(p - 1, p), Budget()))
    assert counts == {
        "matrices": p**2 - p,
        "p1_witness": p**2 - p,
        "integer_nonzero": p**2 - p,
        "modp_nonzero": p**2 - p,
        "violations": [],
    }
    assert [(head, len(last)) for head, last in stacks] == [([[1, 0]], p**2 - p)]
    # a budget of one table runs every group whole; below that nothing runs
    job = (7, 2, slice(8, 10), Budget())
    stacks.clear()
    assert cli._sweep_range(job[:3] + (Budget(entries=7**2),)) == cli._sweep_range(job)
    assert [len(last) for _, last in stacks] == [7**2 - 7] * 4
    with pytest.raises(BudgetExceeded):
        cli._sweep_range(job[:3] + (Budget(entries=7**2 - 1),))


def test_sweep_payload_matches_one_matrix_at_a_time(capsys):
    # (3, 2) and (3, 3) have violations, so their order is checked too; at
    # (3, 3) each job enumerates two rows deep below its first row
    for p, n, size, bad in [(3, 2, 48, 8), (3, 3, 11232, 3312)]:
        rc, payload = run_json(
            capsys, "sweep", "--p", str(p), "--n", str(n), "--threads", "1"
        )
        counts = {"matrices": 0, "p1_witness": 0, "integer_nonzero": 0, "modp_nonzero": 0}
        violations = []
        for m in fp_core.enumerate_nonsingular(p, n):
            witness = properties.check_p1(m)
            spec = group_ring.FactorSpec.from_matrix(m)
            int_zero = group_ring.product_of_factors(spec, group_ring.IntegerRing).is_zero()
            modp_zero = group_ring.product_of_factors(spec, group_ring.ModPRing).is_zero()
            counts["matrices"] += 1
            counts["p1_witness"] += witness is not None
            counts["integer_nonzero"] += not int_zero
            counts["modp_nonzero"] += not modp_zero
            if witness is None or int_zero or modp_zero:
                violations.append(
                    {
                        "matrix": m.to_json(),
                        "p1_witness": list(witness) if witness else None,
                        "integer_zero": int_zero,
                        "modp_zero": modp_zero,
                    }
                )
        assert (counts["matrices"], len(violations)) == (size, bad)
        assert rc == 1
        assert payload == {
            "config": {"budget": None, "command": "sweep", "seed": None, "threads": 1},
            "p": p,
            "n": n,
            "expected_nonsingular": fp_core.nonsingular_count(p, n),
            "violations": violations,
            **counts,
        }


# sha256 of `sweep --p P --n N --threads T` stdout, keyed (P, N, T), as the
# sweep printed it before its products were decided entry by entry; the
# payload echoes --threads, so each thread count has its own digest
SWEEP_DIGESTS = {
    (3, 1, 1): "8e9fd1d33ee01c8a32f6755153cd5f3a72649dcea868432100a3554fb74c639e",
    (3, 1, 2): "b85d6074f903404bb61f23306c6ca4b60250265f19e2fd74d9d45f5ed6cc6690",
    (5, 1, 1): "c026e35f29d6d8ace9967656f9384798774ea7a12444c25b4a91398cb3625496",
    (5, 1, 2): "372b846eb49884a385a090db4f4c0a8c77a19a23d651ccf905f058b008496fe4",
    (3, 2, 1): "2f3f453c7b1d7cf39320da94f11a488f35b22671bab24f7498563fec1b16d8cd",
    (3, 2, 2): "bba23e687cffb69bab114bd75774d5a32c5a6bf1be0c58f1b48810004533413b",
    (5, 2, 1): "9107c34cfff663802a53d2b95100542f79f0c3ceda754e7a1c85a7fca11ccc01",
    (5, 2, 2): "d695146e86a594fc31199259ffe4ae92c3ffff97f0c167594bda81e231e01c12",
    (7, 2, 1): "ea7e34119fd3be46982b2a48344469d889b05f6d4fe212b93232d4d29a2a956d",
    (7, 2, 2): "87496c9318aac5d3d80022c82d60b9bc4fb68472cf9f686d6aa032864cad3599",
    (11, 2, 1): "4a7890f522658e5b28713455869d5711d6151421fc4927a55c7e34b4ce1285c2",
    (11, 2, 2): "b165bfbebf528675201200dfab192b65db939821e76fa6c98a13c342eb445cf0",
    (13, 2, 1): "ba2a664828b7404a5a37c5154c684571d5a6cb563accf1d1b30c324875f9c805",
    (13, 2, 2): "d55faa8ea9789f2aba950aceba1029ebf1d1f6307f5fe32d0550779a4912948f",
    (3, 3, 1): "9afbed09d1a5c5a93b4c32aa5f928e1e8eeb6c8c46be0446e49618bbdf0adba7",
    (3, 3, 2): "54802e5366a505854e693bc5efd8e6610bef320e6f5322848f240077e1df0377",
    (5, 3, 1): "4e69faa682756c2e7661415614f257ff0bdeb1ac20ca4279733422cfd922497b",
    (5, 3, 2): "137791599497ec382dd2cfc4ed1ac82bd71f3eaf6f80e53d69f92eddab28b08e",
}


@pytest.mark.parametrize(
    "p, n, threads",
    [
        pytest.param(*key, marks=pytest.mark.slow) if key[:2] == (5, 3) else key
        for key in SWEEP_DIGESTS
    ],
)
def test_sweep_stdout_is_pinned(capsys, p, n, threads):
    # stdout byte for byte, the p = 3 violations and their order included,
    # on whichever backend is built
    rc, out = run(capsys, "sweep", "--p", str(p), "--n", str(n), "--threads", str(threads))
    assert rc == (1 if p == 3 and n > 1 else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[p, n, threads]


def test_sweep_validates_the_prime_once(capsys, monkeypatch):
    calls = []
    real = fp_core.is_probable_prime
    monkeypatch.setattr(fp_core, "_VALIDATED", set())
    monkeypatch.setattr(
        fp_core, "is_probable_prime", lambda m: calls.append(m) or real(m)
    )
    rc, _ = run(capsys, "sweep", "--p", "5", "--n", "2", "--threads", "1")
    assert rc == 0
    assert calls == [5]


def test_duality_probe(capsys):
    rc, payload = run_json(
        capsys, "duality", "--p", "5", "--n", "2", "--trials", "50",
        "--seed", "3",
    )
    assert rc == 0
    assert payload["trials"] == 50
    assert payload["disagreements"] == []
    assert payload["factorial_failures"] == []


def test_multi_probe(capsys):
    rc, payload = run_json(
        capsys, "multi", "--p", "7", "--n", "2", "--k", "3", "--trials", "25",
        "--seed", "1",
    )
    assert rc == 0
    assert payload["found"] == 25
    assert payload["rate"] == 1.0
    assert payload["witness_free"] == []


def test_multi_rejects_k1(capsys):
    rc, _ = run(capsys, "multi", "--p", "7", "--n", "2", "--k", "1")
    assert rc == 2


def test_pairing_probe(capsys):
    rc, payload = run_json(
        capsys, "pairing", "--p", "5", "--n", "2", "--trials",
        "20", "--seed", "2",
    )
    assert rc == 0
    assert payload["ok"] is True


def test_sigma_probe(capsys):
    rc, payload = run_json(
        capsys, "sigma", "--p", "5", "--n", "3", "--trials", "10",
        "--seed", "4",
    )
    assert rc == 0
    assert payload["candidates"] == []
    assert payload["checked"] == 10


def test_sigma_candidates_are_pinned(capsys):
    # at p = 3, 2n = 6 > p - 1, so sigma_6..sigma_4 can all vanish; these
    # are the matrices of the first 100 seeded draws where they do
    rc, payload = run_json(
        capsys, "sigma", "--p", "3", "--n", "3", "--trials", "100", "--seed", "1"
    )
    assert rc == 0
    assert payload["checked"] == 100
    assert payload["candidates"] == [
        {"p": 3, "n": 3, "rows": rows}
        for rows in (
            [[2, 1, 1], [2, 0, 2], [0, 1, 0]],
            [[2, 2, 0], [1, 2, 1], [2, 1, 1]],
            [[1, 2, 1], [2, 2, 0], [0, 0, 1]],
        )
    ]


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("appendix-verify",),
        ("s1", "--p", "13", "--mode", "build"),
        ("s1", "--p", "11", "--mode", "min"),
        ("check", "--p", "5", "--n", "2", "--seed", "7"),
        ("sweep", "--p", "5", "--n", "2"),
        ("duality", "--p", "5", "--n", "2", "--trials", "20", "--seed", "0"),
        ("multi", "--p", "5", "--n", "2", "--k", "2", "--trials", "10", "--seed", "0"),
        ("sigma", "--p", "5", "--n", "3", "--trials", "5", "--seed", "0"),
        ("nk-partition", "--p", "257", "--k", "1", "--parts", "2", "--seed", "3"),
    ],
)
def test_output_is_byte_stable(capsys, argv):
    rc1, out1 = run(capsys, *argv)
    rc2, out2 = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (("s1", "--p", "13", "--mode", "min"), "s1_min_13.table"),
        (("appendix-verify",), "appendix_verify.table"),
    ],
)
def test_table_output_is_pinned(capsys, argv, fixture):
    # a list prints as [...] and a list of dicts as rows[i]: blocks; a tuple
    # left in a report's JSON would print as (...) and break these lines
    want = (Path(__file__).parent / "fixtures" / fixture).read_text()
    want = want.replace("backend = compiled", f"backend = {kernels.BACKEND}")
    assert run(capsys, *argv, "--format", "table") == (0, want)


def test_table_format(capsys):
    rc, out = run(capsys, "s1", "--p", "13", "--mode", "build", "--format", "table")
    assert rc == 0
    assert "size = 6" in out
    assert "{" not in out.splitlines()[0]


def test_json_keys_sorted(capsys):
    _, out = run(capsys, "s1", "--p", "13", "--mode", "build")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

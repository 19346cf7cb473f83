"""Exit-code gate: boundary argv end in their documented exit code, fast.

Each argv runs in its own interpreter, one at a time, under a 1.5 GB
address-space limit and a 10 s wall limit. It must exit 0-3 with no
traceback, and an exit 2 (bad input) or 3 (budget) prints one stderr line.
The argv in CPU_S must also end within that many CPU seconds, the child's
user and system time, which other processes on the host do not inflate as
they do its wall time.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ajtkit import cli, kernels

SRC = str(Path(cli.__file__).resolve().parents[1])
ADDRESS_SPACE = 1536 * 2**20
WALL_S = 10
# the S_1 search at p = 10007 stops at size 6 after 64,166 nodes, 1.5 s on
# a 2-vCPU VM at its usual speed and 2.9 s when the VM's other jobs slowed
# it, so it has twice the room that p = 1000003, refused at once, has
CPU_S = {
    "s1 --p 1000003 --mode min --budget low": 2,
    "s1 --p 10007 --mode min --budget low": 4,
}
# argv that only the compiled backend ends in time
COMPILED_ONLY = {
    "s1 --p 10007 --mode min --budget low": "the pure search's repair scans, "
    "O(p * L) big-int work a node, are not bounded in time by any budget yet",
}

ARGV = [
    # sweep: p^(n^2) refused by its bit length, p validated first
    ("sweep --p 5 --n 2000 --budget low", 3),
    ("sweep --p 40 --n 2000 --budget low", 2),
    ("sweep --p 4 --n 1000003", 2),
    ("sweep --p 7 --n 10007 --budget low", 3),
    # random matrices are charged before they are drawn
    ("check --p 10007 --n 10007", 3),
    ("check --p 10007 --n 500", 3),
    ("check --p 10000019 --n 1", 3),
    ("pairing --p 5 --n 2000 --trials 40", 3),
    ("pairing --p 10007 --n 500", 3),
    ("duality --p 5 --n 2000 --trials 1", 3),
    # every trial is charged before the first draw
    ("duality --p 5 --n 2 --trials 100000000", 3),
    ("multi --p 5 --n 2 --trials 100000000", 3),
    ("multi --p 5 --n 2 --trials 1 --k 100000000", 3),
    ("pairing --p 5 --n 3 --trials 1000000 --budget low", 3),
    ("sigma --p 7 --n 7 --trials 10007", 3),
    ("sigma --n 2", 2),
    ("nk-partition --p 1000003 --k 97 --parts 97", 3),
    ("sk-build --p 100000007 --k 2 --budget low", 3),
    # the witness search charges its row updates and stops at the cap
    ("multi --p 5 --n 60 --trials 1 --budget low", 3),
    # the log construction's p-bit masks are charged before they are built
    ("s1 --p 2147483647 --mode build", 3),
    # the S_1 search stops where its table and stack would pass the entries
    # budget in words: at once at p = 1000003, at size 6 at p = 10007
    ("s1 --p 1000003 --mode min --budget low", 3),
    ("s1 --p 10007 --mode min --budget low", 3),
    # -1, 0 and 1 for --p, --n, --k and --trials
    ("s1 --p -1", 2),
    ("s1 --p 0", 2),
    ("s1 --p 1", 2),
    ("check --p 5 --n -1", 2),
    ("check --p 5 --n 0", 2),
    ("check --p 5 --n 1", 0),
    ("sk-build --p 11 --k -1", 2),
    ("sk-build --p 11 --k 0", 2),
    ("sk-build --p 11 --k 1", 2),
    ("sigma --p 5 --n 2 --trials -1", 2),
    ("sigma --p 5 --n 2 --trials 0", 2),
    ("sigma --p 5 --n 2 --trials 1", 0),
    # one argv per cause that once had its own exception class
    ("s1 --p 9", 2),
    ("s1 --p 2147483659 --mode build", 2),
    ("sk-build --p 5 --k 3", 2),
    ("check --p 3 --n 2", 2),
    ("pairing --matrix {singular}", 2),
    ("nk-partition --p 7 --k 1 --parts 7 --max-tries 1", 1),
    ("nk-partition --p 101 --k 2 --max-tries 1", 1),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _cpu_s() -> float:
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    return used.ru_utime + used.ru_stime


@pytest.mark.parametrize("line, code", ARGV, ids=[line for line, _ in ARGV])
def test_argv_exits_with_its_code(tmp_path, line, code):
    if kernels.BACKEND == "pure" and line in COMPILED_ONLY:
        pytest.skip(COMPILED_ONLY[line])
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"p": 5, "rows": [[1, 2], [2, 4]]}))
    cpu = _cpu_s()
    proc = subprocess.run(
        [sys.executable, "-m", "ajtkit.cli", *line.format(singular=singular).split()],
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=_limit_address_space,
        timeout=WALL_S,
    )
    cpu = _cpu_s() - cpu
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if line in CPU_S:
        assert cpu <= CPU_S[line], f"{cpu:.2f} CPU s"
    if code in (2, 3):
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

"""What a process compiles: the import graph of the package, each branch in
a fresh interpreter.

With the extension built, importing apsets, fp_poly and cli, the modules a
search, a scan or a product needs, certifying a set and reading every
record of its witness maps, and then importing every other module of the
package leaves the pure twins (_kernels_py) unloaded, and apsets leaves the
multiplier section (multipliers) unloaded. Without the extension, which the
child blocks as a missing module, the pure twins load on the first kernel
call and answer all five kernels.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ajtkit import cli

SRC = str(Path(cli.__file__).resolve().parents[1])

BUILT = """
import json, sys
from ajtkit import apsets, fp_poly, cli, kernels
report = apsets.is_nk_type(apsets.ResidueSet.from_elements(13, [0, 1, 2, 3, 5, 8]), 1)
records = [list(report.inside.values()), list(report.outside.values())]
first = sorted(m for m in sys.modules if m.startswith("ajtkit"))
from ajtkit import budget, errors, fp_core, group_ring, masks, properties
after = sorted(m for m in sys.modules if m.startswith("ajtkit"))
print(json.dumps({"backend": kernels.BACKEND, "first": first, "after": after,
                  "records": records}))
"""

PURE = """
import json, sys
sys.modules["ajtkit._kernels"] = None  # as if the extension were not built
import numpy as np
from ajtkit import apsets, kernels
before = "ajtkit._kernels_py" in sys.modules
found, exhausted, nodes, full = kernels.s1_exhaust(13, 6, 10**6, 2**24)
_, least = kernels.first_hit_scan(apsets.build_s1_log(13).mask, 13, 1, False, False)
# (1 + x) times 1 over F_5, one variable
product = kernels.affine_product(np.eye(1, 5, dtype=np.int64)[0], 5, [[1, 1]])
# (1 - g)^2 over Z[Z/5] and F_5[Z/5]: not zero
int_zero, modp_zero = kernels.products_vanish(
    5, np.zeros((0, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64)
)
# the first x in 1..4 with x != 0 mod 5 and 2x != 1
hit, witness, units = kernels.first_witness(
    np.array([[1], [2]], dtype=np.int64), None, [[0], [1]], [[1, 2, 3, 4]], 5, 100
)
print(json.dumps({
    "backend": kernels.BACKEND,
    "before": before,
    "after": "ajtkit._kernels_py" in sys.modules,
    "s1_exhaust": [apsets.ResidueSet(13, found).elements(), exhausted, full],
    "first_hit_scan": least,
    "affine_product": product.tolist(),
    "products_vanish": [int_zero.tolist(), modp_zero.tolist()],
    "first_witness": [hit.tolist(), witness.tolist(), units.tolist()],
}))
"""


def _run(code: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_built_extension_leaves_the_twins_and_multipliers_unloaded():
    got = _run(BUILT)
    if got["backend"] != "compiled":
        pytest.skip("the extension is not built in place")
    assert "ajtkit.apsets" in got["first"] and "ajtkit.cli" in got["first"]
    assert "ajtkit._kernels" in got["first"]
    # the N_1 set {0, 1, 2, 3, 5, 8} of Z/13, whose records WitnessMap built
    assert [len(records) for records in got["records"]] == [6, 7]
    assert got["records"][1][0] == [4, 1, 1]
    for loaded in (got["first"], got["after"]):
        assert "ajtkit._kernels_py" not in loaded
        assert "ajtkit.multipliers" not in loaded


def test_without_the_extension_the_twins_answer_every_kernel():
    got = _run(PURE)
    assert got["backend"] == "pure"
    assert (got["before"], got["after"]) == (False, True)
    elements, exhausted, full = got["s1_exhaust"]
    assert len(elements) == 6 and exhausted is True and full is False
    assert got["first_hit_scan"] is None
    assert got["affine_product"] == [1, 1, 0, 0, 0]
    assert got["products_vanish"] == [[False], [False]]
    assert got["first_witness"] == [[True], [[1]], [1 + 2]]

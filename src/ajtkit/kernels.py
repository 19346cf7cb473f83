"""Backend selection for the six kernels.

Which backend runs is fixed at import: the compiled extension (_kernels.c)
when it is built, the pure-Python twins in _kernels_py when it is not. The
twins load only then: each dispatch imports _kernels_py when it has no
extension to call, so with the extension built no module of the package
imports them, and a process does not compile them. The helpers that both
backends use live in modules that both load: the mask helpers in
ajtkit.masks, and the numpy factor expansion in ajtkit.group_ring. An
extension built from other sources (its API differs from this module's) is
an ImportError naming the rebuild command, never a silent fallback.

Each pair has one contract, which _kernels_py states kernel by kernel: the
same arguments and the same raw results. So each function here calls
whichever backend imported, the one way, and views a bytearray result with
np.frombuffer. Masks cross into either backend and back as ints, bit i for
residue i: s1_exhaust (any p >= 5) and s1_log return one, the scan (any
p >= 3) takes one, and first_witness one a row of forbidden images, which
the compiled side copies straight into its limbs. A negative mask, or one
with a bit at or above p, is a ValueError on both, and any other type a
TypeError. Rows and tensors go in as contiguous native int64 buffers.
Each pair returns identical results, by the same traversal or, for the
scan and the sweep's products, by independent methods:

- s1_exhaust, the minimum S_1 search: the same masks and node counts, and
  the same stop where its visited table and stack would grow past a cap in
  words, ceil(p/64) of them a mask.
- s1_log, the logarithmic S_1 construction that the search starts from and
  certify checks: the same mask.
- first_hit_scan, the one question the S_k/N_k certificates ask of a set:
  the same hits buffer of int32, elements ascending and then their
  witnesses, or the same least element left without a witness.
  apsets.WitnessMap builds the records of a hits buffer.
- affine_product, a reduced polynomial's coefficient tensor times a list
  of affine factors, every product behind P2, P5, duality and the
  coefficient route of the scalar-product condition: the same p^n int64
  entries.
- products_vanish, the sweep's two group-ring verdicts for a stack of B
  matrices with a shared head, whose one caller, properties.sweep_verdicts,
  validates, charges and converts the rows: the same two flags a matrix,
  B bytes each. Both hold a few p^n tables whatever B is.
- first_witness, the one witness search behind check_p1, check_multi and
  the sweep, a batch of instances over a shared block of rows: the same
  nodes in the same order, so the same found flags, witnesses and units
  (B bytes, B * n int64 and B int64). The callers build the masks.
"""

from __future__ import annotations

import importlib
from typing import Sequence

import numpy as np

# the contract of the kernels that this module drives; the extension exports
# the one it was built with, and the two must agree
API = 13
REBUILD = "python setup.py build_ext --inplace"


def _load_extension():
    """The compiled kernels, or None when they are not built. A module that
    does not load or carries another API means a stale build: ImportError."""
    name = f"{__package__}._kernels"
    try:
        ext = importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        return None
    except Exception as exc:
        raise ImportError(f"{name} does not load ({exc}); rebuild it: {REBUILD}") from exc
    if getattr(ext, "API", None) != API:
        raise ImportError(
            f"{name} was built for kernel API {getattr(ext, 'API', None)}, "
            f"this source needs {API}; rebuild it: {REBUILD}"
        )
    return ext


_ext = _load_extension()

BACKEND = "compiled" if _ext is not None else "pure"


def _pure():
    """The pure twins, imported by the first call made without an extension."""
    from . import _kernels_py

    return _kernels_py


def s1_exhaust(
    p: int, limit: int, node_budget: int, words: int
) -> tuple[int, bool, int, bool]:
    """(found_mask, exhausted, nodes, full) of _kernels_py.s1_exhaust,
    compiled when built."""
    return (_ext or _pure()).s1_exhaust(p, limit, node_budget, words)


def s1_log(p: int) -> int:
    """The mask of _kernels_py.s1_log, compiled when built."""
    return (_ext or _pure()).s1_log(p)


def first_hit_scan(
    mask: int, p: int, k: int, forward: bool, hits: bool
) -> tuple[bytes | None, int | None]:
    """(hits, least) of _kernels_py.first_hit_scan, compiled when built."""
    return (_ext or _pure()).first_hit_scan(mask, p, k, forward, hits)


def affine_product(
    coeffs: np.ndarray, p: int, factors: Sequence[Sequence[int]]
) -> np.ndarray:
    """_kernels_py.affine_product over the n = coeffs.ndim variables of the
    (p,) * n tensor coeffs, compiled when built: a new tensor, coeffs untouched."""
    out = (_ext or _pure()).affine_product(
        np.ascontiguousarray(coeffs, dtype=np.int64), p, coeffs.ndim, factors
    )
    return np.frombuffer(out, dtype=np.int64).reshape(coeffs.shape)


def products_vanish(
    p: int, head: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_kernels_py.products_vanish of the stack whose matrices share the
    (n-1, n) rows `head` and end in the (B, n) rows `last`, both contiguous
    int64, compiled when built: (int_zero, modp_zero), two (B,) bool arrays."""
    flags = (_ext or _pure()).products_vanish(head, last, p, last.shape[1])
    return tuple(np.frombuffer(f, dtype=bool) for f in flags)


def first_witness(
    rows: np.ndarray,
    last: np.ndarray | None,
    forbidden: Sequence[int],
    orders: Sequence[Sequence[int]],
    p: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_kernels_py.first_witness of the instances that share the (R, n) rows
    `rows` and, unless `last` is None, each end in a row of the (B, n) `last`,
    both contiguous int64, with one int mask of forbidden images a row,
    compiled when built: (found, witness, units), a (B,) bool, a (B, n)
    int64 and a (B,) int64 array, B = 1 without last."""
    found, witness, units = (_ext or _pure()).first_witness(
        rows, last, forbidden, orders, p, cap
    )
    return (
        np.frombuffer(found, dtype=bool),
        np.frombuffer(witness, dtype=np.int64).reshape(-1, len(orders)),
        np.frombuffer(units, dtype=np.int64),
    )

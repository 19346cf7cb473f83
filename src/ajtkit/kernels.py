"""Backend selection for the six kernels.

Which backend runs is fixed at import: the compiled extension (_kernels.c)
when it is built, the pure-Python twins in _kernels_py when it is not. The
twins load only then: each dispatch imports _kernels_py when it has no
extension to call, so with the extension built no module of the package
imports them, and a process does not compile them. The helpers that both
backends use live in modules that both load: the mask helpers, among them
forbidden_masks, in ajtkit.masks, and the numpy factor expansion in
ajtkit.group_ring. An extension built from other sources (its API differs
from this module's) is an ImportError naming the rebuild command, never a
silent fallback. Masks cross into either backend and back as ints, bit i
for residue i: s1_exhaust (any p >= 5) and s1_log return one, and the scan
(any p >= 3) takes one, which the compiled side copies straight into its
limbs. Each pair returns identical results: the same masks and node counts from
s1_exhaust, the same mask from s1_log, the same hits buffer from
first_hit_scan, the same tensor from affine_product, the same flags from
products_vanish, the same witnesses and units from first_witness.

s1_exhaust also stops, on both, where its visited table and stack would
grow past a cap in words, ceil(p/64) of them a mask: the same node, the
same node count, and the flag `full` set.

s1_log builds the logarithmic S_1 construction at p >= 5, the upper bound
the minimum search starts from and the set that certify checks: the pure
twin with big-int shifts, the compiled one by setting its 2 bitlen(s) + 2
bits in a zeroed mask.

first_hit_scan answers the one question the S_k/N_k certificates ask of a
set A: a centered scan finds, for each a in A, the least d with a + i*d in A
for 0 < |i| <= k; a forward scan finds, for each b outside A, the least d
with b + i*d in A for 1 <= i <= k. It returns its hits and the least
element left without a witness, or None. The hits, asked for with
hits=True, are one bytes buffer of 2 count native int32, count the elements
asked about: those elements in ascending order, then their witnesses, 8
bytes a hit, byte for byte the same from both backends. A scan that meets an
element without a witness stops there and returns no hits, only that
element. apsets.WitnessMap builds the records of a hits buffer.

The two backends answer it by independent methods. The compiled scan visits
the elements in ascending order and reads each one's candidates off 64-bit
windows of the doubled mask A | A << p from e + 1, ANDed for a centered
scan with those of its doubled mirror from p - e: about d_e / 64 words for
e's witness d_e, after O(L) set-up, L = ceil(p/64). The pure scan tries
d = 1, 2, ... and ANDs rotated masks, O(L) big-int work a difference up to
the largest witness, which at p = 20011 beat a pure port of the windows on
dense centered and sparse forward scans. A forward scan at k = 1 asked for
no hits answers, on both, from whether A is empty; asked for them, the
compiled scan fills each gap below an element of A in one pass.

affine_product multiplies a reduced polynomial's coefficient tensor by a
list of affine factors c0 + c1 x_1 + ... + cn x_n in one call: every product
behind P2, P5, duality and the coefficient route of the scalar-product
condition. The compiled side reads the tensor as p^n int64 entries and
returns them in a bytearray, which becomes the result's buffer.

products_vanish answers the sweep's two group-ring verdicts for a stack of B
matrices, an (n-1, n) head of shared rows and a (B, n) array of last rows:
whether prod (1 - g^(e_i)) * prod (1 - g^(a_i)) vanishes over Z, and mod p.
Its one caller, properties.sweep_verdicts, validates, charges and converts
the two arrays. The compiled side applies the unit vectors and the head rows
once, to one p^n int64 table, in two buffers of p^n entries whatever B is.
It then reads each last row's factor off that table one entry at a time,
without writing it out, and stops at the first entry nonzero mod p, which
decides both flags: no sweep at p >= 5 has met a product that vanishes,
and there the first few entries decide. It returns the flags in two bytearrays of B bytes, 1 for
zero, which become the results' buffers. The pure side expands the same
shared factors with numpy and applies the last rows as one gather over the
whole stack, a second method for the parity tests to compare.

first_witness is the one witness search, behind check_p1, check_multi and
the sweep: for each instance, the first x in a depth-first order with each
x_i from its value order and no image <row, x> forbidden for its row. The
coordinates go in ascending-slack order, and a row is tested once its last
nonzero coordinate is set. The instances share a block of rows, and a batch
gives each one more row of its own, so the sweep's stack of matrices with a
common head is one call. Each row's forbidden images come as a collection
of residues in [0, p), which this module turns into the p-bit masks the
compiled side reads (masks.forbidden_masks). Each value tried is one
node and one unit, plus one unit for each row sum it updates; an instance
stops once its units pass the cap, and so does the batch. Both backends
walk the same nodes in the same order: the same witness from both, and the
same units.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Sequence

import numpy as np

from .masks import forbidden_masks

# the contract of the kernels that this module drives; the extension exports
# the one it was built with, and the two must agree
API = 12
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
    n = coeffs.ndim
    if _ext is None:
        return _pure().affine_product(coeffs, p, n, factors)
    out = _ext.affine_product(np.ascontiguousarray(coeffs, dtype=np.int64), p, n, factors)
    return np.frombuffer(out, dtype=np.int64).reshape(coeffs.shape)


def products_vanish(
    p: int, head: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_kernels_py.products_vanish of the stack whose matrices share the
    (n-1, n) rows `head` and end in the (B, n) rows `last`, both contiguous
    int64, compiled when built: (int_zero, modp_zero), two (B,) bool arrays."""
    n = last.shape[1]
    if _ext is None:
        return _pure().products_vanish(head, last, p, n)
    flags = _ext.products_vanish(head, last, p, n)
    return tuple(np.frombuffer(f, dtype=bool) for f in flags)


def first_witness(
    rows: np.ndarray,
    last: np.ndarray | None,
    forbidden: Sequence[Iterable[int]],
    orders: Sequence[Sequence[int]],
    p: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_kernels_py.first_witness of the instances that share the (R, n) rows
    `rows` and, unless `last` is None, each end in a row of the (B, n) `last`,
    both contiguous int64, with the forbidden images of each row, compiled
    when built: (found, witness, units), a (B,) bool, a (B, n) int64 and a
    (B,) int64 array, B = 1 without last."""
    if _ext is None:
        return _pure().first_witness(rows, last, forbidden, orders, p, cap)
    masks = forbidden_masks(p, forbidden)
    found, witness, units = _ext.first_witness(rows, last, masks, orders, p, cap)
    return (
        np.frombuffer(found, dtype=bool),
        np.frombuffer(witness, dtype=np.int64).reshape(-1, len(orders)),
        np.frombuffer(units, dtype=np.int64),
    )

"""Backend selection for the three kernels, and route selection for the scan.

Which backend runs is fixed at import: the compiled extension (_kernels.c)
when it is built, the pure-Python twins in _kernels_py when it is not. An
extension built from other sources (its API differs from this module's) is
an ImportError naming the rebuild command, never a silent fallback. The
compiled s1_exhaust takes any p >= 5 and the scans any p >= 3, with their
masks as little-endian bytes of length ceil(p/8) both ways. Each pair
returns identical results: the same masks and node counts from s1_exhaust,
the same hits in the same order from first_hit_scan, the same tensor from
affine_product.

first_hit_scan has three routes with identical results. rotation_scan tries
d = 1, 2, ... and ANDs rotated masks, about L = ceil(p/64) words per d up to
the largest witness; pair_scan reads each witness off the pair (a - d, a + d)
of the set, about |A|^2 / 2 pair tests, and needs steps +1 and -1 (centered
scans); gap_scan, for the one step +1 (forward scans at k = 1), reads each
witness off the gap to the next element of the set, in one O(p) sweep.
scan_route takes the gaps whenever the steps are {+1}, and the pairs for
centered scans with |A|^2 <= c * p * sqrt(L), c from PAIR_CUTOFF for the
backend; other forward scans and denser sets rotate. The rule reads only the
set's size, p and the steps.

Every scan builds its map itself, in the kernel: record=int maps each hit e
to its least d, a tuple type such as apsets.ApWitness maps e to the record
(e, d, radius), and record=None builds no map and returns (None, remaining).

affine_product multiplies a reduced polynomial's coefficient tensor by a
list of affine factors c0 + c1 x_1 + ... + cn x_n in one call: every product
behind P2, P5, duality and the coefficient route of the scalar-product
condition. The compiled side reads the tensor as p^n int64 entries and
returns them in a bytearray, which becomes the result's buffer.
"""

from __future__ import annotations

import importlib
import math
from typing import Sequence

import numpy as np

from . import _kernels_py

# the contract of the kernels that this module drives; the extension exports
# the one it was built with, and the two must agree
API = 2
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

# c in |A|^2 <= c * p * sqrt(L), just below where the pair route stops
# winning on random sets at p = 1009..20011: c is 2.6..3.6 compiled, 1.0..1.8
# pure, the bytecode per pair costing more than the big-int rotations
PAIR_CUTOFF = {"compiled": 2.5, "pure": 1.0}


def s1_exhaust(p: int, limit: int, node_budget: int) -> tuple[int, bool, int]:
    """(found_mask, exhausted, nodes) of _kernels_py.s1_exhaust, compiled when built."""
    if _ext is None:
        return _kernels_py.s1_exhaust(p, limit, node_budget)
    found, exhausted, nodes = _ext.s1_exhaust(p, limit, node_budget)
    return int.from_bytes(found, "little"), exhausted, nodes


def scan_route(mask: int, p: int, steps: Sequence[int]) -> str:
    """The route first_hit_scan takes for this set and these steps: "gap",
    "pair" or "rotation".

    The one step +1 takes the gaps, O(p) for any set. Pairs need steps +1
    and -1, so other forward scans rotate. A centered scan of A costs about
    |A|^2 / 2 pair tests, or L = ceil(p/64) words for each difference d that
    the rotation tries, up to the largest witness, near p^2 ln|A| / |A|^2
    for a random set. The two meet where |A|^2 is about c * p * sqrt(L), c
    weakly rising with |A|; pairs are taken below PAIR_CUTOFF's c for the
    backend that runs.
    """
    incs = {i % p for i in steps}
    if incs == {1}:
        return "gap"
    if 1 not in incs or p - 1 not in incs:
        return "rotation"
    cutoff = PAIR_CUTOFF["pure" if _ext is None else "compiled"]
    size = mask.bit_count()
    return "pair" if size * size <= cutoff * p * math.sqrt((p + 63) // 64) else "rotation"


def first_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """(hits, remaining) of _kernels_py.first_hit_scan, by the route that
    scan_route picks, compiled when built. Every route gives the same result."""
    route = scan_route(mask, p, steps)
    scan = gap_scan if route == "gap" else pair_scan if route == "pair" else rotation_scan
    return scan(mask, target, p, steps, record, radius)


def rotation_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """(hits, remaining) of _kernels_py.first_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.first_hit_scan(mask, target, p, steps, record, radius)
    return _compiled(_ext.first_hit_scan, mask, target, p, steps, record, radius)


def pair_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """(hits, remaining) of _kernels_py.pair_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.pair_hit_scan(mask, target, p, steps, record, radius)
    return _compiled(_ext.pair_hit_scan, mask, target, p, steps, record, radius)


def gap_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """(hits, remaining) of _kernels_py.gap_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.gap_hit_scan(mask, target, p, steps, record, radius)
    return _compiled(_ext.gap_hit_scan, mask, target, p, steps, record, radius)


def _compiled(
    scan, mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None, radius: int,
):
    """A compiled scan, with the masks carried across as bytes."""
    size = (p + 7) // 8
    hits, remaining = scan(
        mask.to_bytes(size, "little"), target.to_bytes(size, "little"), p, steps,
        record, radius,
    )
    return hits, int.from_bytes(remaining, "little")


def affine_product(
    coeffs: np.ndarray, p: int, factors: Sequence[Sequence[int]]
) -> np.ndarray:
    """_kernels_py.affine_product over the n = coeffs.ndim variables of the
    (p,) * n tensor coeffs, compiled when built: a new tensor, coeffs untouched."""
    n = coeffs.ndim
    if _ext is None:
        return _kernels_py.affine_product(coeffs, p, n, factors)
    out = _ext.affine_product(np.ascontiguousarray(coeffs, dtype=np.int64), p, n, factors)
    return np.frombuffer(out, dtype=np.int64).reshape(coeffs.shape)

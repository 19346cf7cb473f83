"""Backend selection for the two kernels.

The compiled extension (_kernels.c) holds both. Its s1_exhaust covers
5 <= p <= 320 with masks of up to five 64-bit limbs; its first_hit_scan
allocates its limbs per call and covers any p >= 3. The pure-Python twins in
_kernels_py handle any p. Each pair returns identical results: the same
masks and node counts from s1_exhaust, the same hits in the same order from
first_hit_scan.
"""

from __future__ import annotations

from typing import Sequence

from . import _kernels_py

try:
    from . import _kernels as _ext  # type: ignore[attr-defined]
except ImportError:
    _ext = None

# whether the extension imported; backend_for names the kernel a given p uses
BACKEND = "compiled" if _ext is not None else "pure"

# p from MIN_P to MAX_P, as _kernels.c defines them
_COMPILED_P = range(5, 321)


def backend_for(p: int) -> str:
    """The kernel that s1_exhaust runs for this p: "compiled" or "pure"."""
    return "compiled" if _ext is not None and p in _COMPILED_P else "pure"


def s1_exhaust(p: int, limit: int, node_budget: int) -> tuple[int, bool, int]:
    if backend_for(p) == "compiled":
        return _ext.s1_exhaust(p, limit, node_budget)
    return _kernels_py.s1_exhaust(p, limit, node_budget)


def first_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int]
) -> tuple[dict[int, int], int]:
    """(hits, remaining) of _kernels_py.first_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.first_hit_scan(mask, target, p, steps)
    size = (p + 7) // 8
    hits, remaining = _ext.first_hit_scan(
        mask.to_bytes(size, "little"), target.to_bytes(size, "little"), p, steps
    )
    return hits, int.from_bytes(remaining, "little")

"""Backend selection for the two kernels.

Which backend runs is fixed at import: the compiled extension (_kernels.c)
when it imported, the pure-Python twins in _kernels_py otherwise. The
compiled s1_exhaust takes any p >= 5 and first_hit_scan any p >= 3, with
their masks as little-endian bytes of length ceil(p/8) both ways. Each pair
returns identical results: the same masks and node counts from s1_exhaust,
the same hits in the same order from first_hit_scan.
"""

from __future__ import annotations

from typing import Sequence

from . import _kernels_py

try:
    from . import _kernels as _ext  # type: ignore[attr-defined]
except ImportError:
    _ext = None

BACKEND = "compiled" if _ext is not None else "pure"


def s1_exhaust(p: int, limit: int, node_budget: int) -> tuple[int, bool, int]:
    """(found_mask, exhausted, nodes) of _kernels_py.s1_exhaust, compiled when built."""
    if _ext is None:
        return _kernels_py.s1_exhaust(p, limit, node_budget)
    found, exhausted, nodes = _ext.s1_exhaust(p, limit, node_budget)
    return int.from_bytes(found, "little"), exhausted, nodes


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

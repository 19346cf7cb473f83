"""Backend selection for the two kernels, and route selection for the scan.

Which backend runs is fixed at import: the compiled extension (_kernels.c)
when it imported, the pure-Python twins in _kernels_py otherwise. The
compiled s1_exhaust takes any p >= 5 and the scans any p >= 3, with their
masks as little-endian bytes of length ceil(p/8) both ways. Each pair
returns identical results: the same masks and node counts from s1_exhaust,
the same hits in the same order from first_hit_scan.

first_hit_scan has two routes with identical results. rotation_scan tries
d = 1, 2, ... and ANDs rotated masks, about L = ceil(p/64) words per d up to
the largest witness; pair_scan reads each witness off the pair (a - d, a + d)
of the set, about |A|^2 / 2 pair tests, and needs steps +1 and -1 (centered
scans). scan_route picks pairs for centered scans with |A|^2 <= c * p *
sqrt(L), c from PAIR_CUTOFF for the backend; forward scans and denser sets
rotate. The rule reads only the set's size, p and the steps.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import _kernels_py

try:
    from . import _kernels as _ext  # type: ignore[attr-defined]
except ImportError:
    _ext = None

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
    """The route first_hit_scan takes for this set and these steps: "pair"
    or "rotation".

    Pairs need steps +1 and -1, so forward scans always rotate. A centered
    scan of A costs about |A|^2 / 2 pair tests, or L = ceil(p/64) words for
    each difference d that the rotation tries, up to the largest witness,
    near p^2 ln|A| / |A|^2 for a random set. The two meet where |A|^2 is
    about c * p * sqrt(L), c weakly rising with |A|; pairs are taken below
    PAIR_CUTOFF's c for the backend that runs.
    """
    incs = {i % p for i in steps}
    if 1 not in incs or p - 1 not in incs:
        return "rotation"
    cutoff = PAIR_CUTOFF["pure" if _ext is None else "compiled"]
    size = mask.bit_count()
    return "pair" if size * size <= cutoff * p * math.sqrt((p + 63) // 64) else "rotation"


def first_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int]
) -> tuple[dict[int, int], int]:
    """(hits, remaining) of _kernels_py.first_hit_scan, by the route that
    scan_route picks, compiled when built. Both routes give the same result."""
    if scan_route(mask, p, steps) == "pair":
        return pair_scan(mask, target, p, steps)
    return rotation_scan(mask, target, p, steps)


def rotation_scan(
    mask: int, target: int, p: int, steps: Sequence[int]
) -> tuple[dict[int, int], int]:
    """(hits, remaining) of _kernels_py.first_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.first_hit_scan(mask, target, p, steps)
    return _compiled(_ext.first_hit_scan, mask, target, p, steps)


def pair_scan(
    mask: int, target: int, p: int, steps: Sequence[int]
) -> tuple[dict[int, int], int]:
    """(hits, remaining) of _kernels_py.pair_hit_scan, compiled when built."""
    if _ext is None:
        return _kernels_py.pair_hit_scan(mask, target, p, steps)
    return _compiled(_ext.pair_hit_scan, mask, target, p, steps)


def _compiled(scan, mask: int, target: int, p: int, steps: Sequence[int]):
    """A compiled scan, with the masks carried across as bytes."""
    size = (p + 7) // 8
    hits, remaining = scan(
        mask.to_bytes(size, "little"), target.to_bytes(size, "little"), p, steps
    )
    return hits, int.from_bytes(remaining, "little")

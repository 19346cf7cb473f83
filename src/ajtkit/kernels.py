"""Backend selection for the search kernel.

The compiled extension (_kernels.c) covers 5 <= p <= 320 with masks of up to
five 64-bit limbs; the pure-Python twin handles any p. Both run the identical
traversal, so the returned masks and node counts agree exactly, not just the
verdicts.
"""

from __future__ import annotations

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

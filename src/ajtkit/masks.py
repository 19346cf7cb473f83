"""Residue sets of Z/p as p-bit masks: the helpers that apsets and both
kernel backends share.

Bit i of a mask set means residue i is in the set. _rotl translates a set
and _bits lists its elements; forbidden_masks lays out the witness search's
forbidden images as the masks that the compiled first_witness reads, and
its pure twin reads the same. This module imports nothing from the package,
so kernels, _kernels_py and apsets load it without a cycle.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

_DIGIT = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1


def _rotl(mask: int, s: int, p: int, full: int) -> int:
    # left rotation of a p-bit word; rot(A, s) is the translate A + s
    s %= p
    if s == 0:
        return mask
    return ((mask << s) | (mask >> (p - s))) & full


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending, read off its binary
    digits in O(p) by one C-level pass over all of them."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT)  # byte i is bit i
    return list(compress(range(len(digits)), digits))


def forbidden_masks(p: int, forbidden: Sequence[Iterable[int]]) -> bytearray:
    """The forbidden images of first_witness's rows as the compiled twin
    reads them: one little-endian p-bit mask a row, ceil(p/8) bytes, bit s
    set when the image s is forbidden. ValueError for p outside [2, 2^31),
    before any mask is allocated, or an image outside [0, p)."""
    if not 2 <= p < 2**31:
        raise ValueError(f"first_witness needs 2 <= p < 2^31, got p = {p}")
    width = (p + 7) // 8
    masks = bytearray(width * len(forbidden))
    for r, images in enumerate(forbidden):
        for s in images:
            if not 0 <= s < p:
                raise ValueError(f"forbidden images must lie in [0, p) for p = {p}")
            masks[r * width + (s >> 3)] |= 1 << (s & 7)
    return masks

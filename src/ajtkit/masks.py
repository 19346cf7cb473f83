"""Residue sets of Z/p as p-bit masks: the helpers that apsets and both
kernel backends share.

Bit i of a mask set means residue i is in the set. _rotl translates a set
and _bits lists its elements. Every kernel that takes a residue set, the
scan's set or the witness search's forbidden images, takes such a mask as
an int. This module imports nothing from the package, so kernels,
_kernels_py and apsets load it without a cycle.
"""

from __future__ import annotations

from itertools import compress

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

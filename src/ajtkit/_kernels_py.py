"""Pure-Python kernels: the S_1 search, the first-hit progression scan and
the affine product of reduced polynomials.

Subsets of Z/p are bit masks: bit i set means residue i is in the set. The
scan has three routes with the same result: first_hit_scan rotates the mask,
pair_hit_scan reads the witnesses off the pairs of the set, and
gap_hit_scan, for the one step +1, off the gaps between its elements. Each
scan returns its map finished: the least d of each hit, the witness records
of a tuple type it is given, or no map at all. The compiled twin in
_kernels.c implements s1_exhaust with the same traversal order and the
scans with the same insertion order; the backends must stay byte-for-byte
interchangeable.

affine_product multiplies a reduced polynomial over F_p, its coefficient
tensor, by a list of affine factors c0 + c1 x_1 + ... + cn x_n, with numpy
slices; the compiled twin does the same passes in C and returns the same
tensor.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, repeat
from typing import Sequence

import numpy as np

_INT64_MAX = 2**63 - 1

_DIGIT = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1


def _rotl(mask: int, s: int, p: int, full: int) -> int:
    # left rotation of a p-bit word; rot(A, s) is the translate A + s
    s %= p
    if s == 0:
        return mask
    return ((mask << s) | (mask >> (p - s))) & full


def s1_witness_mask(mask: int, p: int) -> int:
    """Elements a of the set with a centered progression a-d, a, a+d inside it."""
    full = (1 << p) - 1
    w = 0
    for d in range(1, (p - 1) // 2 + 1):
        w |= _rotl(mask, d, p, full) & _rotl(mask, p - d, p, full)
        if mask & ~w == 0:
            break
    return mask & w


def s1_exhaust(p: int, limit: int, node_budget: int) -> tuple[int, bool, int]:
    """Search for a centered-progression-closed set of at most `limit` residues.

    Starts from {0, 1} (every such set with >= 2 elements maps onto one
    containing {0, 1} under x -> (x - a) / (b - a), which preserves the
    property), and repeatedly repairs the smallest element lacking a witness
    by adding the pair {a - d, a + d} for each step d.

    Returns (found_mask, exhausted, nodes): found_mask is 0 when no set was
    found; exhausted is False only when the node budget ran out first.
    """
    if limit < 2:
        return (0, True, 0)
    full = (1 << p) - 1
    half = (p - 1) // 2
    start = 0b11
    visited = {start}
    stack = [start]
    nodes = 0
    while stack:
        a = stack.pop()
        nodes += 1
        if nodes > node_budget:
            return (0, False, nodes)
        uncovered = a & ~s1_witness_mask(a, p)
        if uncovered == 0:
            return (a, True, nodes)
        e = (uncovered & -uncovered).bit_length() - 1
        children = []
        for d in range(1, half + 1):
            child = a | _rotl(1 << e, d, p, full) | _rotl(1 << e, p - d, p, full)
            if child.bit_count() <= limit and child not in visited:
                visited.add(child)
                children.append(child)
        stack.extend(reversed(children))
    return (0, True, nodes)


def first_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """Smallest difference d witnessing each bit of `target`.

    For d = 1, 2, ... intersect the still-uncovered bits of `target` with
    the translates A - i*d of A = `mask`, one for each i in `steps`, and map
    every bit that survives to d. Returns (hits, remaining): hits in
    ascending d, ascending element within one d; remaining is the part of
    `target` that no d covers. `record` says what each hit e becomes: int
    maps e to d, a tuple type maps e to record(e, d, radius), and None
    builds no map, returning (None, remaining).
    """
    full = (1 << p) - 1
    hits: dict[int, int] = {}
    remaining = target
    for d in range(1, p):
        if remaining == 0:
            break
        hit = remaining
        for i in steps:
            hit &= _rotl(mask, -i * d, p, full)
            if hit == 0:
                break
        remaining &= ~hit
        while hit and record is not None:
            low = hit & -hit
            hits[low.bit_length() - 1] = d
            hit ^= low
    return _hit_map(hits, record, radius), remaining


def pair_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """first_hit_scan's (hits, remaining), found from the pairs of A = `mask`.

    A pair y < z of A is (c - d, c + d) for the center c = (y + z)/2 and
    d = (z - y)/2 mod p, and (c + e, c - e) for e = p - d. `steps` must
    hold +1 and -1 mod p, so that every witness is the pair of its two
    ends, and a candidate needs only the other steps tested: c + i*d in A.
    Each center in `target` keeps its least candidate, and the hits are
    listed by ascending d, then ascending element, as the rotation lists
    them. O(|A|^2) pairs, whatever p is.
    """
    incs = {i % p for i in steps}
    if 1 not in incs or p - 1 not in incs:
        raise ValueError("pair_hit_scan needs steps +1 and -1")
    others = sorted(incs - {1, p - 1})
    half = (p + 1) // 2  # the inverse of 2 mod p
    elements = _bits(mask)
    centers = set(_bits(target))
    best: dict[int, int] = {}
    for j, z in enumerate(elements):
        for y in elements[:j]:
            c = (y + z) * half % p
            if c not in centers:
                continue
            d = (z - y) * half % p
            for cand in sorted((d, p - d)):
                if cand >= best.get(c, p):
                    break
                if all(mask >> ((c + i * cand) % p) & 1 for i in others):
                    best[c] = cand
                    break
    hits = {c: d for d, c in sorted((d, c) for c, d in best.items())}
    covered = bytearray((p + 7) // 8)
    for c in hits:
        covered[c >> 3] |= 1 << (c & 7)
    return _hit_map(hits, record, radius), target & ~int.from_bytes(covered, "little")


def gap_hit_scan(
    mask: int, target: int, p: int, steps: Sequence[int],
    record: type | None = int, radius: int = 0,
) -> tuple[dict | None, int]:
    """first_hit_scan's (hits, remaining) for the one step +1, from the gaps of A.

    With steps {+1} mod p the least witness of b is the distance from b to
    the next element of A = `mask` after it, cyclically: the gap g from an
    element y to the next one gives y, y + 1, ..., y + g - 1 the distances
    g, g - 1, ..., 1. Laid end to end from the least element, the gaps give
    every residue its d; sorting the keys d * p + b of the targets lists the
    hits by ascending d, then ascending b, as the rotation lists them. A
    target is left uncovered only when A is empty, or when A = {b} for the
    target b itself, whose one gap is p. O(p).
    """
    if {i % p for i in steps} != {1}:
        raise ValueError("gap_hit_scan needs the one step +1")
    elements = _bits(mask)
    n = len(elements)
    remaining = target if n == 0 else target & mask if n == 1 else 0
    if record is None or n == 0:
        return _hit_map({}, record, radius), remaining
    ends = elements[1:] + [elements[0] + p]
    run = list(chain.from_iterable(range(z - y, 0, -1) for y, z in zip(elements, ends)))
    cut = p - elements[0]
    dist = run[cut:] + run[:cut]  # dist[b]: the distance from b to the next element
    keys = sorted([dist[b] * p + b for b in _bits(target & ~remaining)])
    return _hit_map({key % p: key // p for key in keys}, record, radius), remaining


def _hit_map(hits: dict[int, int], record: type | None, radius: int) -> dict | None:
    """The hits {e: d}, in their order, as `record` asks: unchanged for int,
    None for None, else {e: record(e, d, radius)}, built in one C-level
    pass (tuple.__new__ over zipped fields), with no bytecode per record."""
    if record is None:
        return None
    if record is int:
        return hits
    fields = zip(hits, hits.values(), repeat(radius))
    return dict(zip(hits, map(tuple.__new__, repeat(record), fields)))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending, read off its binary
    digits in O(p) by one C-level pass over all of them."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT)  # byte i is bit i
    return list(compress(range(len(digits)), digits))


def affine_product(
    coeffs, p: int, n: int, factors: Sequence[Sequence[int]]
) -> np.ndarray:
    """The reduced product coeffs * prod (c0 + c1 x_1 + ... + cn x_n).

    coeffs holds the p^n coefficients of a polynomial in n variables,
    indexed by exponent vector, each exponent in [0, p-1]; each factor is
    (c0, c1, ..., cn), every c in [0, p). Multiplying by x_j moves slot t of
    axis j to t + 1 for 1 <= t <= p - 2 and both 0 and p - 1 to 1, since
    x_j^p = x_j: two slice updates per axis. The entries stay nonnegative
    below an exact bound that a factor of weight c0 + 2 * sum c_j at most
    multiplies, so they are reduced mod p only when the next factor could
    pass int64, and once at the end. Returns a new int64 tensor of shape
    (p,) * n with entries in [0, p). ValueError, before coeffs is read, for
    p < 2, n < 0, p so large that (2n + 1)(p - 1)^2 overflows int64, a
    factor that is not n + 1 coefficients in [0, p), or coeffs not p^n long.
    """
    if p < 2 or n < 0:
        raise ValueError(f"affine_product needs p >= 2 and n >= 0, got p = {p}, n = {n}")
    if (2 * n + 1) * (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(f"(2n + 1)(p - 1)^2 overflows int64 at p = {p}, n = {n}")
    rows = [[operator.index(c) for c in f] for f in factors]
    if any(len(f) != n + 1 for f in rows):
        raise ValueError(f"each factor needs n + 1 = {n + 1} coefficients")
    if any(not 0 <= c < p for f in rows for c in f):
        raise ValueError(f"factor coefficients must lie in [0, p) for p = {p}")
    cur = np.asarray(coeffs, dtype=np.int64)
    if cur.size != p**n:
        raise ValueError(f"tensor must hold p^n entries for p = {p}, n = {n}")
    cur = cur.reshape(-1) % p
    bound = p - 1
    for c0, *cs in rows:
        weight = c0 + 2 * sum(cs)
        if weight and bound > _INT64_MAX // weight:
            cur %= p
            bound = p - 1
        nxt = cur * c0
        for j, c in enumerate(cs):
            if c:
                # axis j as (outer blocks, its p slots, the stride below it)
                src = cur.reshape(p**j, p, -1)
                dst = nxt.reshape(p**j, p, -1)
                dst[:, 2:] += c * src[:, 1:-1]
                dst[:, 1] += c * (src[:, 0] + src[:, -1])
        cur = nxt
        bound *= weight
    cur %= p
    return cur.reshape((p,) * n)

"""Pure-Python kernels: the S_1 search, the log S_1 construction, the
first-hit progression scan, the affine product of reduced polynomials, the
sweep's group-ring products and the witness search.

These twins load only without the compiled extension: ajtkit.kernels
imports this module when it has no extension to call, and the parity tests
and perfbench import it by name. Each takes the arguments its compiled twin
in _kernels.c takes and returns the same types: masks as ints, bit i for
residue i, rows and tensors as buffers of native int64 read with
np.frombuffer, and results as the bytearrays the compiled side fills, which
ajtkit.kernels views with numpy. The helpers both backends share live where
the package uses them: the mask helpers (_rotl, _bits) in ajtkit.masks,
and the numpy factor expansion (_expand, _roll) in ajtkit.group_ring, whose
factor products it serves first.

s1_exhaust walks the compiled search's traversal and counts its table and
stack; s1_log builds the logarithmic S_1 construction's mask with big-int
shifts where the compiled twin sets the same bits. first_hit_scan answers
the S_k/N_k question at radius k, centered (the least d with a + i*d in A
for 0 < |i| <= k, each a in A) or forward (the least d with b + i*d in A
for 1 <= i <= k, each b outside A), by rotating the mask one difference at
a time. The compiled twin reads word windows around each element instead;
a pure port of those windows lost to the rotations at p = 20011 on dense
centered and sparse forward scans. Both return the same hits buffer, byte
for byte.

affine_product multiplies a reduced polynomial over F_p, its coefficient
tensor, by a list of affine factors c0 + c1 x_1 + ... + cn x_n, with numpy
slices; the compiled twin does the same passes in C and returns the same
p^n int64 entries.

products_vanish tells, for each of a stack of matrices that share an
(n-1)-row head and differ in their last row, whether the group-ring product
prod (1 - g^(e_i)) * prod (1 - g^(a_i)) over its unit vectors and rows
vanishes over Z and mod p, expanding the shared factors with group_ring's
_expand and then applying each last row with one _roll of that table; the
compiled twin applies the same factors in C and returns the same flags.

first_witness finds, for each of a batch of instances, the first x with
every x_i in its value order and no image <row, x> forbidden for its row,
by a depth-first search over the coordinates in ascending-slack order. Each
row's forbidden images are one int mask, as a scan's set is. The compiled
twin walks the same nodes in the same order, so both return the same
witnesses and charge the same units.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .group_ring import _expand, _roll
from .masks import _bits, _rotl

_INT64_MAX = 2**63 - 1

# the compiled twin's first visited table and stack, in masks; both double
_TABLE_START = 1024
_STACK_START = 256


def s1_exhaust(
    p: int, limit: int, node_budget: int, words: int
) -> tuple[int, bool, int, bool]:
    """Search for a centered-progression-closed set of at most `limit` residues.

    Starts from {0, 1} (every such set with >= 2 elements maps onto one
    containing {0, 1} under x -> (x - a) / (b - a), which preserves the
    property), and repeatedly repairs the smallest element lacking a witness
    by adding the pair {a - d, a + d} for each step d.

    The compiled twin holds the sets it has visited in a table of
    ceil(p/64)-word slots, 1024 at first and doubled at 60% load, and its
    stack in masks of that width, 256 at first and doubled when full. This
    search counts the slots and masks those would hold, and stops where the
    compiled one does: before the first node when the first table and stack
    need more than `words` words, and at the visit or push that would grow
    either past that.

    Returns (found_mask, exhausted, nodes, full): found_mask is 0 when no set
    was found; exhausted is False when the node budget ran out first, or the
    words, and then full is True. ValueError for p < 5.
    """
    if p < 5:
        raise ValueError(f"s1_exhaust needs p >= 5, got {p}")
    if limit < 2:
        return (0, True, 0, False)
    masks = words // -(-p // 64)
    slots, held = _TABLE_START, _STACK_START
    if slots + held > masks:
        return (0, False, 0, True)
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
            return (0, False, nodes, False)
        # repair the least element without a centered witness
        _, e = first_hit_scan(a, p, 1, False, False)
        if e is None:
            return (a, True, nodes, False)
        # descending d, so that pops see ascending d; a child that fits is a
        # visit, and the table grows, when it must, before the visit
        for d in range(half, 0, -1):
            child = a | _rotl(1 << e, d, p, full) | _rotl(1 << e, p - d, p, full)
            if child.bit_count() > limit:
                continue
            if (len(visited) + 1) * 10 >= slots * 6:
                slots *= 2
                if slots + held > masks:
                    return (0, False, nodes, True)
            if child in visited:
                continue
            visited.add(child)
            if len(stack) == held:
                held *= 2
                if slots + held > masks:
                    return (0, False, nodes, True)
            stack.append(child)
    return (0, True, nodes, False)


def s1_log(p: int) -> int:
    """The mask of the logarithmic S_1 construction at p >= 5, else ValueError.

    Seeds {-1, 0, 1, (p-1)/2} and adds the chains s, floor(s/2), ..., 1 and
    their negatives, where s = (p-1)/4 for p = 1 mod 4 and s = (p+1)/4 for
    p = 3 mod 4: 2*(floor(log2 s) + 1) + 2 bits.
    """
    if p < 5:
        raise ValueError(f"s1_log needs p >= 5, got {p}")
    s = (p - 1) // 4 if p % 4 == 1 else (p + 1) // 4
    # one pass up the chain 1, ..., s >> 1, s, so that both ints grow from
    # small: low takes 0 and each c, top each p - c as bit prev - c, shifted
    # left as prev, the largest c so far, grows; at the end top holds p - c
    # at bit s - c, and two shifts put it in place above (p - 1)/2
    low, top, prev = 1, 0, 0
    for i in range(s.bit_length() - 1, -1, -1):
        c = s >> i
        low |= 1 << c
        top = top << (c - prev) | 1
        prev = c
    half = (p - 1) // 2
    return (top << (p - s - half) | 1) << half | low


def first_hit_scan(
    mask: int, p: int, k: int, forward: bool, hits: bool
) -> tuple[bytes | None, int | None]:
    """The least difference d witnessing each element the scan asks about.

    A centered scan (forward False) asks, for each a in A = `mask`, for the
    least d with a + i*d in A for every 0 < |i| <= k; a forward scan asks,
    for each b outside A, for the least d with b + i*d in A for 1 <= i <= k.
    For d = 1, 2, ... the elements still without a witness are ANDed with
    the translates A - i*d. Returns (hits, least): least is the least
    element left without a witness, None when there is none; hits is None
    when one is left or `hits` is false, and otherwise one buffer of native
    int32, the elements in ascending order and then their steps, 8 bytes an
    element. A forward scan at k = 1 hits every b outside A, at its
    distance to the next element, unless A is empty, which leaves 0: asked
    for no hits, it answers from that alone. ValueError for p < 3, k
    outside [1, (p - 1)/2] or a mask bit at or above p.
    """
    full = _check_scan(mask, p, k)
    if forward and k == 1 and not (hits and mask):
        return None, None if mask else 0
    steps = range(1, k + 1) if forward else [i for i in range(-k, k + 1) if i]
    targets = full & ~mask if forward else mask
    remaining = targets
    # (d, the elements d witnesses first), expanded only once none is left
    found: list[tuple[int, int]] = []
    # a centered witness d also serves as p - d, so none is first past (p-1)/2
    for d in range(1, p if forward else (p + 1) // 2):
        if remaining == 0:
            break
        hit = remaining
        for i in steps:
            hit &= _rotl(mask, -i * d, p, full)
            if hit == 0:
                break
        remaining &= ~hit
        if hit and hits:
            found.append((d, hit))
    if remaining:
        return None, (remaining & -remaining).bit_length() - 1
    if not hits:
        return None, None
    step: dict[int, int] = {}
    for d, hit in found:
        while hit:
            low = hit & -hit
            step[low.bit_length() - 1] = d
            hit ^= low
    elements = _bits(targets)
    return np.array(elements + [step[e] for e in elements], dtype=np.int32).tobytes(), None


def _check_scan(mask: int, p: int, k: int) -> int:
    """The full p-bit mask, once the scan's arguments pass the checks that
    the compiled scan makes."""
    if p < 3 or not 1 <= k <= (p - 1) // 2:
        raise ValueError(f"scans need p >= 3 and 2k + 1 <= p, got p = {p}, k = {k}")
    _check_mask(mask, p)
    return (1 << p) - 1


def _check_mask(mask: int, p: int) -> None:
    """TypeError for a mask that is not an int, ValueError for a negative
    one or one with a bit at or above p, as the compiled read_mask gives."""
    if not isinstance(mask, int):
        raise TypeError(f"a mask must be an int, not {type(mask).__name__}")
    if mask < 0 or mask >> p:
        raise ValueError(f"mask has bits at or above p = {p}")


def products_vanish(head, last, p: int, n: int) -> tuple[bytearray, bytearray]:
    """Whether prod_i (1 - g^(e_i)) * prod_i (1 - g^(a_i)) over the n unit
    vectors e_i and the n rows a_i of each of a stack of B matrices vanishes
    over Z, and mod p.

    The matrices share the n - 1 rows `head`, a buffer of (n - 1) * n native
    int64 entries, and matrix b ends in the row last[b], B * n entries in
    all; a row's entries are read mod p. The unit vectors and the head rows
    are factors of one table, expanded once (`_expand`), and each last row's
    factor is one `_roll` of that table, so the twin holds a few tables
    whatever B is. Returns (int_zero, modp_zero), two bytearrays of B bytes,
    1 where the table is zero, and zero mod p. ValueError, before either
    buffer is read, for p < 3, n outside [1, 31] (the 2n factors keep every
    entry at most 2^(2n-1) < 2^63), or buffer lengths that disagree with n.
    """
    if p < 3 or not 1 <= n <= 31:
        raise ValueError(
            f"products_vanish needs p >= 3 and 1 <= n <= 31, got p = {p}, n = {n}"
        )
    head = np.frombuffer(head, dtype=np.int64)
    last = np.frombuffer(last, dtype=np.int64)
    if head.size != (n - 1) * n or last.size % n:
        raise ValueError("need (n - 1) * n head and B * n last entries")
    factors = np.concatenate([np.eye(n, dtype=np.int64), head.reshape(n - 1, n)])
    table = _expand(p, n, factors.tolist())
    int_zero = bytearray(last.size // n)
    modp_zero = bytearray(len(int_zero))
    for b, row in enumerate(last.reshape(-1, n).tolist()):
        t = table - _roll(table, row, p)
        # an entry nonzero mod p is nonzero over Z: one test decides both
        if not (t % p).any():
            modp_zero[b] = 1
            int_zero[b] = not t.any()
    return int_zero, modp_zero


def affine_product(
    coeffs, p: int, n: int, factors: Sequence[Sequence[int]]
) -> bytearray:
    """The reduced product coeffs * prod (c0 + c1 x_1 + ... + cn x_n).

    coeffs is a buffer of the p^n native int64 coefficients of a polynomial
    in n variables, row-major by exponent vector, each exponent in [0, p-1];
    each factor is (c0, c1, ..., cn), every c in [0, p). Multiplying by x_j
    moves slot t of axis j to t + 1 for 1 <= t <= p - 2 and both 0 and p - 1
    to 1, since x_j^p = x_j: two slice updates per axis. The entries stay
    nonnegative below an exact bound that a factor of weight
    c0 + 2 * sum c_j at most multiplies, so they are reduced mod p only when
    the next factor could pass int64, and once at the end. Returns a new
    bytearray of the p^n product coefficients as int64, each in [0, p).
    ValueError, before coeffs is read, for p < 2, n < 0, p so large that
    (2n + 1)(p - 1)^2 overflows int64, a factor that is not n + 1
    coefficients in [0, p), or coeffs not p^n long.
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
    cur = np.frombuffer(coeffs, dtype=np.int64)
    if cur.size != p**n:
        raise ValueError(f"tensor must hold p^n entries for p = {p}, n = {n}")
    cur = cur % p
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
    return bytearray(cur)


def first_witness(
    rows, last, forbidden, orders: Sequence[Sequence[int]], p: int, cap: int
) -> tuple[bytearray, bytearray, bytearray]:
    """The first x, in search order, with each x_i taken from orders[i] and
    every image <row, x> off its row's forbidden residues, for each of a
    batch of instances.

    The n = len(orders) coordinates are assigned depth first in
    ascending-slack order (fewest values first, then by index), each trying
    its values in the order given; a row is tested once its last nonzero
    coordinate is set, so a branch ends at the first row it dooms. The
    instances share the R rows `rows`, a buffer of R * n native int64
    entries read mod p; with `last`, B * n entries, instance b also has the
    row last[b], and without it there is one instance. `forbidden` holds one
    int mask a row, the shared rows first and then the last row: bit s set
    means the image s is forbidden. A zero row that forbids 0 leaves its
    instances without a witness at no cost.

    Each value tried is one node and charges one unit, plus one for each row
    whose sum it updates; an instance stops once its units pass `cap`, and
    so does the batch. Returns (found, witness, units), bytearrays of B
    bytes, 1 where instance b has a witness, of B * n int64, the witnesses
    (zeros where none was found), and of B int64, the units each instance
    used, 0 for those never searched. ValueError, before a row is read, for
    p outside [2, 2^31), no coordinates, buffer lengths that disagree with
    n, a count of masks other than one a row, a negative mask or one with a
    bit at or above p, or a value outside [0, p); TypeError for a mask that
    is not an int.
    """
    n = len(orders)
    if not 2 <= p < 2**31 or n < 1:
        raise ValueError(f"first_witness needs 2 <= p < 2^31 and n >= 1, got p = {p}, n = {n}")
    rows = np.frombuffer(rows, dtype=np.int64)
    batch = None if last is None else np.frombuffer(last, dtype=np.int64)
    forbidden = list(forbidden)
    count = len(rows) // n + (batch is not None)
    if len(rows) % n or (batch is not None and len(batch) % n) or len(forbidden) != count:
        raise ValueError("need R * n row entries, B * n last entries and one mask a row")
    for mask in forbidden:
        _check_mask(mask, p)
    values = [[operator.index(v) for v in order] for order in orders]
    if any(not 0 <= v < p for order in values for v in order):
        raise ValueError(f"values must lie in [0, p) for p = {p}")

    def banned(r: int, s: int) -> int:
        return forbidden[r] >> s & 1

    coords = sorted(range(n), key=lambda c: (len(values[c]), c))
    values = [values[c] for c in coords]
    shared = (rows.reshape(-1, n) % p)[:, coords].tolist()
    lasts = [[]]
    if batch is not None:
        lasts = [[r] for r in (batch.reshape(-1, n) % p)[:, coords].tolist()]
    found = bytearray(len(lasts))
    witness = bytearray(8 * len(lasts) * n)
    units = bytearray(8 * len(lasts))
    at = np.frombuffer(witness, dtype=np.int64).reshape(-1, n)
    used = np.frombuffer(units, dtype=np.int64)
    for b, extra in enumerate(lasts):
        x, spent = _witness_walk(p, shared + extra, values, banned, cap)
        used[b] = spent
        if x is not None:
            found[b] = 1
            at[b, coords] = x
        if spent > cap:
            break
    return found, witness, units


def _witness_walk(p, rows, values, banned, cap) -> tuple[list | None, int]:
    """The search of one instance over `rows`, their entries reduced and by
    position: (x by position or None, units used). touch[i] lists (row,
    entry) for the rows nonzero at position i and due[i] the rows whose last
    nonzero entry is there; a zero row that forbids its image 0 ends the
    search before its first node."""
    n = len(values)
    touch = [[] for _ in range(n)]
    due = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        nonzero = [i for i, a in enumerate(row) if a]
        if not nonzero:
            if banned(r, 0):
                return None, 0
            continue
        for i in nonzero:
            touch[i].append((r, row[i]))
        due[nonzero[-1]].append(r)
    sums = [0] * len(rows)
    x = [0] * n
    tried = [0] * n  # the values taken so far at each position
    units = 0
    pos = 0
    while pos >= 0:
        i = tried[pos]
        if i:
            # take back the value tried last at this position
            back = p - values[pos][i - 1]
            for r, a in touch[pos]:
                sums[r] = (sums[r] + a * back) % p
        if i == len(values[pos]):
            pos -= 1
            continue
        tried[pos] = i + 1
        units += 1 + len(touch[pos])
        if units > cap:
            return None, units
        v = x[pos] = values[pos][i]
        for r, a in touch[pos]:
            sums[r] = (sums[r] + a * v) % p
        if not any(banned(r, sums[r]) for r in due[pos]):
            pos += 1
            if pos == n:
                return x, units
            tried[pos] = 0
    return None, units

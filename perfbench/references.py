"""Independent references for the benchmark's verdict checks.

Nothing here imports ajtkit: every expected value is computed from first
principles or copied from a frozen source, so a defect in the package under
test cannot also hide in its own reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Proven S_1 minima: the oracle fixture (tests/fixtures/min_s1_oracle.json)
# for p = 5..13 and the frozen appendix table rows for p = 67, 71, 73.
S1_MIN_SIZE = {5: 4, 7: 5, 11: 5, 13: 6, 67: 8, 71: 8, 73: 8}


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes q with lo <= q < hi, by a sieve."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi, q)))
    return [q for q in range(lo, hi) if sieve[q]]


def is_s1_set(elements, p: int) -> bool:
    """Every a in the set has some d != 0 with a - d and a + d in the set."""
    members = set(elements)
    return all(
        any((a - d) % p in members and (a + d) % p in members for d in range(1, p))
        for a in members
    )


def s1_log_size(p: int) -> int:
    """Closed-form size of the logarithmic S_1 construction."""
    s = (p - 1) // 4 if p % 4 == 1 else (p + 1) // 4
    return 2 * s.bit_length() + 2  # 2 * (floor(log2 s) + 1) + 2


def mask_members(mask: int, p: int) -> np.ndarray:
    """Boolean membership table of a p-bit residue mask."""
    raw = np.frombuffer(mask.to_bytes((p + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:p].astype(bool)


def witnesses_ok(member: np.ndarray, targets: np.ndarray, witnesses: dict,
                 radius: int, centered: bool) -> bool:
    """Each target t has a witness (t, d, radius), d != 0, whose progression
    t + i*d lies in the set for i in [-radius, radius] \\ {0} (centered) or
    i in [1, radius] (forward), checked by direct membership."""
    p = len(member)
    keys = np.fromiter(witnesses, dtype=np.int64, count=len(witnesses))
    if not np.array_equal(np.sort(keys), targets):
        return False
    rows = [(w.element, w.step, w.radius) for w in witnesses.values()]
    elem, step, rad = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    if not (np.array_equal(elem, keys) and np.all(rad == radius)
            and np.all(step % p != 0)):
        return False
    offsets = [i for i in range(-radius, radius + 1) if i] if centered \
        else range(1, radius + 1)
    return all(bool(np.all(member[(elem + i * step) % p])) for i in offsets)


def gl_order(p: int, n: int) -> int:
    """|GL_n(F_p)| = prod_{i<n} (p^n - p^i)."""
    return math.prod(p**n - p**i for i in range(n))


def det_mod_p(rows, p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, n):
            c = a[r][col] * inv % p
            a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def p1_witness_exists(rows, p: int, c_lists, d_lists) -> bool:
    """Brute force over F_p^n: some x avoids every c_i and every <a_i, x> avoids d_i."""
    allowed = [[v for v in range(p) if v not in c] for c in c_lists]
    forbidden = [set(d) for d in d_lists]
    for x in itertools.product(*allowed):
        if all(
            sum(a * b for a, b in zip(row, x)) % p not in bad
            for row, bad in zip(rows, forbidden)
        ):
            return True
    return False


def p1_witness_valid(rows, p: int, c_lists, d_lists, x) -> bool:
    return (
        len(x) == len(rows)
        and all(v % p not in c for v, c in zip(x, c_lists))
        and all(
            sum(a * b for a, b in zip(row, x)) % p not in set(d)
            for row, d in zip(rows, d_lists)
        )
    )


def form_power_coefficient(forms, powers, target, p: int) -> int:
    """Coefficient of x^target in prod_i <forms_i, x>^powers_i, mod p.

    Works on a dense table truncated at `target` in every coordinate: degrees
    only grow, so a term above target never comes back down. With
    sum(powers) == sum(target) no exponent exceeds p - 1 on the way, so
    this raw coefficient is also the reduced-polynomial coefficient.
    """
    n = len(target)
    table = np.zeros(tuple(t + 1 for t in target), dtype=np.int64)
    table[(0,) * n] = 1
    for form, e in zip(forms, powers):
        for _ in range(e):
            out = np.zeros_like(table)
            for j, a in enumerate(form):
                if a % p and target[j]:
                    src = [slice(None)] * n
                    dst = [slice(None)] * n
                    src[j] = slice(0, target[j])
                    dst[j] = slice(1, None)
                    out[tuple(dst)] += (a % p) * table[tuple(src)]
            table = out % p
    return int(table[tuple(target)])


def grid_form_sum(rows, r, s, p: int) -> int:
    """sum over x in F_p^n of prod_i <a_i, x>^r_i * prod_j x_j^s_j, mod p."""
    n = len(rows)
    points = np.indices((p,) * n).reshape(n, -1).T
    forms = points @ np.array(rows, dtype=np.int64).T % p
    vals = np.ones(points.shape[0], dtype=np.int64)
    for i in range(n):
        for _ in range(r[i]):
            vals = vals * forms[:, i] % p
        for _ in range(s[i]):
            vals = vals * points[:, i] % p
    return int(vals.sum() % p)


def factorial_relation(lhs: int, rhs: int, r, s, p: int) -> bool:
    """prod(s_i!) * lhs == prod(r_i!) * rhs mod p."""
    sf = math.prod(math.factorial(x) for x in s)
    rf = math.prod(math.factorial(x) for x in r)
    return (sf * lhs - rf * rhs) % p == 0

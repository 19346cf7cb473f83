"""Subsets of Z/p closed under arithmetic-progression witnessing.

A set A is S_k-type when every a in A is the center of a (2k+1)-term
arithmetic progression contained in A (common difference d != 0). It is
N_k-type when additionally every b outside A starts a progression
b + d, ..., b + k*d contained in A. These sets certify nowhere-zero
solvability results downstream; this module builds them, searches for
minimum ones, and verifies a frozen table of small optimal examples. The
multiplier certificates and good subset families built from them are in
ajtkit.multipliers.

Sets are bit masks over residues (bit i == residue i), held as ints, which
cross into the kernels as they are. The logarithmic construction's mask
comes from kernels.s1_log. Certification asks
kernels.first_hit_scan the question itself: a centered scan of A for
S_k-type, a forward scan of its complement for the outside half of N_k-type,
each for radius k. The kernel finds each element's least witness d, the
compiled one from word windows of the mask (and of its mirror, centered)
around each element, the pure one by word rotations of the mask. A witness
is an ApWitness, a tuple record that compares equal to (element, step,
radius). The scan returns its hits in one int32 buffer, the elements and
then their steps, 8 bytes a witness, or names the least element left
without one; the partition's acceptance test
asks the same scans for no hits at all. The maps of SkReport and NkReport
are WitnessMaps over those hits, which build their records themselves,
the same from either backend's buffer, listed by ascending element, only
when a caller first reads one.
"""

from __future__ import annotations

import csv
import importlib.resources
import operator
import random
from collections.abc import Mapping
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
from .budget import Budget, current_budget
from .errors import BudgetExceeded, InputError, MathViolation
from .fp_core import _as_prime
from .masks import _bits, _rotl


class ResidueSet:
    """An immutable subset of Z/p stored as a p-bit mask."""

    __slots__ = ("p", "mask")

    def __init__(self, p: int, mask: int):
        self.p = _as_prime(p)
        try:
            mask = operator.index(mask)
        except TypeError:
            raise InputError(f"mask {mask!r} is not an integer") from None
        if mask < 0 or mask.bit_length() > self.p:
            raise InputError("mask has bits outside [0, p)")
        self.mask = mask

    @classmethod
    def from_elements(cls, p: int, elements: Iterable[int]) -> "ResidueSet":
        """The set of `elements`, each an integer in [0, p), else InputError;
        each is checked and set in the one pass over them."""
        p = _as_prime(p)
        buf = bytearray((p + 7) // 8)
        for e in elements:
            try:
                e = operator.index(e)
            except TypeError:
                raise InputError(f"residue {e!r} is not an integer") from None
            if not 0 <= e < p:
                raise InputError(f"residue {e} outside [0, {p})")
            buf[e >> 3] |= 1 << (e & 7)
        return cls(p, int.from_bytes(buf, "little"))

    def elements(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, e: int) -> bool:
        return bool(self.mask >> (int(e) % self.p) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __eq__(self, other):
        if isinstance(other, ResidueSet):
            return self.p == other.p and self.mask == other.mask
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.mask))

    def __repr__(self):
        return f"ResidueSet(p={self.p}, {{{', '.join(map(str, self.elements()))}}})"

    def translate(self, c: int) -> "ResidueSet":
        """The set A + c."""
        return ResidueSet(self.p, _rotl(self.mask, c, self.p, (1 << self.p) - 1))

    def dilate(self, lam: int) -> "ResidueSet":
        """The set lam * A; lam must be nonzero mod p."""
        lam %= self.p
        if lam == 0:
            raise InputError("dilation factor must be nonzero mod p")
        return ResidueSet.from_elements(
            self.p, (lam * e % self.p for e in self.elements())
        )


class ApWitness(NamedTuple):
    """A progression witness: element, common difference, radius.

    A tuple record: immutable, and equal to (element, step, radius).
    """

    element: int
    step: int
    radius: int


class WitnessMap(Mapping):
    """The witnesses of a scan, {element: ApWitness(element, step, k)} by
    ascending element, read-only, over the scan's hits buffer (see
    kernels.first_hit_scan).

    len comes from the buffer. The first read of a key, value or item
    builds every record at once, whichever backend filled the buffer, and
    keeps the dict; keys, values and items are its views. Equal to any
    mapping with the same items, a dict included.
    """

    __slots__ = ("_hits", "_k", "_records")

    def __init__(self, hits: bytes, k: int):
        self._hits = hits
        self._k = k
        self._records: dict[int, ApWitness] | None = None

    def _map(self) -> dict[int, ApWitness]:
        if self._records is None:
            # one C-level pass over the fields, no bytecode a record
            at = np.frombuffer(self._hits, np.int32).tolist()
            elements, steps = at[: len(at) // 2], at[len(at) // 2 :]
            fields = zip(elements, steps, repeat(self._k))
            self._records = dict(zip(elements, map(tuple.__new__, repeat(ApWitness), fields)))
        return self._records

    def __len__(self) -> int:
        return len(self._hits) // 8

    def __getitem__(self, element: int) -> ApWitness:
        return self._map()[element]

    def __iter__(self) -> Iterator[int]:
        return iter(self._map())

    def keys(self):
        return self._map().keys()

    def values(self):
        return self._map().values()

    def items(self):
        return self._map().items()

    def __repr__(self) -> str:
        return f"WitnessMap({self._map()!r})"


def witness_covers_centered(aset: ResidueSet, w: ApWitness) -> bool:
    """Check a + i*d in A for all -k <= i <= k."""
    p = aset.p
    return all(
        (w.element + i * w.step) % p in aset
        for i in range(-w.radius, w.radius + 1)
    )


def witness_covers_forward(aset: ResidueSet, w: ApWitness) -> bool:
    """Check b + i*d in A for all 1 <= i <= k."""
    p = aset.p
    return all(
        (w.element + i * w.step) % p in aset for i in range(1, w.radius + 1)
    )


class SkReport(NamedTuple):
    """Verdict of an S_k scan with per-element witnesses on success."""

    ok: bool
    k: int
    witnesses: WitnessMap | None = None
    failing: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class NkReport(NamedTuple):
    """Verdict of an N_k scan: inside witnesses plus outside witnesses."""

    ok: bool
    k: int
    inside: WitnessMap | None = None
    outside: WitnessMap | None = None
    failing: int | None = None
    failing_side: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_radius(p: int, k: int) -> None:
    if k < 1:
        raise InputError(f"radius k must be >= 1, got {k}")
    if 2 * k + 1 > p:
        raise InputError(f"need 2k + 1 <= p, got k={k}, p={p}")


def _is_nk_mask(mask: int, p: int, k: int) -> bool:
    """is_nk_type(ResidueSet(p, mask), k).ok from the same two kernel scans,
    asked for no hits."""
    return (
        kernels.first_hit_scan(mask, p, k, False, False)[1] is None
        and kernels.first_hit_scan(mask, p, k, True, False)[1] is None
    )


def is_sk_type(aset: ResidueSet, k: int) -> SkReport:
    """Scan for centered progression witnesses for every element of the set.

    Each element a maps to ApWitness(a, d, k), d the least difference whose
    progression a + i*d, 0 < |i| <= k, lies in the set, in the scan's order,
    in a WitnessMap that builds the records when first read. The empty set
    passes vacuously. On failure the report carries the smallest element
    with no witness.
    """
    _check_radius(aset.p, k)
    hits, failing = kernels.first_hit_scan(aset.mask, aset.p, k, False, True)
    # both reports are built positionally, in field order: keywords cost
    # about 0.3 us a verdict, 4% of certify's (BENCH_32.json)
    if failing is not None:
        return SkReport(False, k, None, failing)
    return SkReport(True, k, WitnessMap(hits, k))


def is_nk_type(aset: ResidueSet, k: int) -> NkReport:
    """S_k scan plus forward progression witnesses for every outside element."""
    inside = is_sk_type(aset, k)
    if not inside.ok:
        return NkReport(False, k, None, None, inside.failing, "inside")
    hits, failing = kernels.first_hit_scan(aset.mask, aset.p, k, True, True)
    if failing is not None:
        return NkReport(False, k, None, None, failing, "outside")
    return NkReport(True, k, inside.witnesses, WitnessMap(hits, k))


# ---------------------------------------------------------------------------
# constructions


# p-bit masks that building, certifying and listing the log construction
# hold at once: listing its elements (_bits) holds two strings of p digits,
# 8 masks each, and a `s1 --mode build` run peaked at 18.6 masks above the
# interpreter's own RSS at p = 100000007
S1_BUILD_MASKS = 20


def build_s1_log(p: int, budget: Budget | str | None = None) -> ResidueSet:
    """Logarithmic-size S_1-type set: halving chains plus fixed anchors.

    Seeds {-1, 0, 1, (p-1)/2} and adds the chains s, floor(s/2), ..., 1 and
    their negatives, where s = (p-1)/4 for p = 1 mod 4 and s = (p+1)/4 for
    p = 3 mod 4. The size is exactly 2*(floor(log2 s) + 1) + 2. The mask
    comes from kernels.s1_log, which the compiled backend builds by setting
    those bits in a zeroed mask.

    With a budget, its entries budget is charged for what building,
    certifying and listing the set hold at once, S1_BUILD_MASKS masks of
    ceil(p/64) words, before the first mask is built; without one nothing
    is charged.
    """
    p = _as_prime(p)
    if p < 5:
        raise InputError("need p >= 5")
    if budget is not None:
        current_budget(budget).check_entries(
            S1_BUILD_MASKS * -(-p // 64), what="S_1 construction masks"
        )
    return ResidueSet(p, kernels.s1_log(p))


def _ceil_root(value: int, r: int) -> int:
    """Smallest x with x**r >= value."""
    x = max(1, round(value ** (1.0 / r)))
    while x**r >= value:
        x -= 1
    while (x + 1) ** r < value:
        x += 1
    return x + 1


class SkConstruction(NamedTuple):
    """Result of the staged S_k construction: the set plus build trace."""

    aset: ResidueSet
    k: int
    x: int
    stage_sizes: tuple[int, ...]
    report: SkReport

    @property
    def size(self) -> int:
        return len(self.aset)


def build_sk(p: int, k: int, budget: Budget | str | None = None) -> SkConstruction:
    """Staged S_k-type construction with step sizes x, x^2, ..., x^(4k+3).

    x is the smallest integer with x^(4k+4) >= p. Stage 1 is the interval
    [-kx, kx] plus fringe hops; each later stage spreads the previous fringe
    sets by multiples of the next power of x. The result is certified by
    is_sk_type, and MathViolation reports the failure when p is too
    small for the stages to close up.
    """
    p = _as_prime(p)
    if k < 2:
        raise InputError("staged construction needs k >= 2; use build_s1_log for k=1")
    _check_radius(p, k)
    b = current_budget(budget)
    x = _ceil_root(p, 4 * k + 4)
    kx = k * x
    span = 2 * kx
    nodes, work = b.nodes, 0

    def hit(c: int, target: set[int], d: int) -> int:
        # c + i*d with i >= 1 minimal landing in target, a negative d walking
        # backward: the i steps are charged as nodes, and a walk stops once
        # the budget is spent
        nonlocal work
        left = nodes - work
        cur = c
        for i in range(1, (p if left >= p else left) + 1):
            cur = (cur + d) % p
            if cur in target:
                work += i
                return cur
        if left < p:
            raise BudgetExceeded(f"staged construction needs more than {nodes} nodes")
        raise MathViolation("progression failed to meet a nonempty set")

    a_cur = {t % p for t in range(-kx, kx + 1)}
    b_cur = {(-kx + t) % p for t in range(k + 1)}
    b_cur |= {hit(j, a_cur, x) for j in range(kx - k, kx + 1)}
    c_cur = {(kx - k + t) % p for t in range(k + 1)}
    c_cur |= {hit(j, a_cur, -x) for j in range(-kx, -kx + k + 1)}

    union = set(a_cur)
    stage_sizes = [len(a_cur)]
    for stage in range(2, 4 * k + 4):
        step = pow(x, stage - 1, p)
        bigstep = pow(x, stage, p)
        work += (len(b_cur) + len(c_cur)) * span
        b.check_nodes(work, what="staged construction")
        a_next = {(a + j * step) % p for a in c_cur for j in range(1, span + 1)}
        a_next |= {(a - j * step) % p for a in b_cur for j in range(1, span + 1)}
        b_next = {
            (a - j * step) % p for a in b_cur for j in range(span - k, span + 1)
        }
        b_next |= {
            hit(a + j * step, a_next, bigstep)
            for a in c_cur
            for j in range(span - k, span + 1)
        }
        c_next = {
            (a + j * step) % p for a in c_cur for j in range(span - k, span + 1)
        }
        c_next |= {
            hit(a - j * step, a_next, -bigstep)
            for a in b_cur
            for j in range(span - k, span + 1)
        }
        union |= a_next
        stage_sizes.append(len(a_next))
        a_prev, b_cur, c_cur = a_next, b_next, c_next

    last = pow(x, 4 * k + 3, p)
    a_final: set[int] = set()
    for a in c_cur:
        # the walk from a to a_prev, a included
        before = work
        hit(a, a_prev, last)
        a_final.update((a + i * last) % p for i in range(work - before + 1))
    union |= a_final
    stage_sizes.append(len(a_final))

    aset = ResidueSet.from_elements(p, union)
    report = is_sk_type(aset, k)
    result = SkConstruction(
        aset=aset, k=k, x=x, stage_sizes=tuple(stage_sizes), report=report
    )
    if not report.ok:
        raise MathViolation(
            f"staged construction does not certify at p={p}, k={k} "
            f"(element {report.failing} has no witness)"
        )
    return result


class Partition(NamedTuple):
    """A partition of Z/p into N_k-type parts."""

    p: int
    k: int
    parts: tuple[ResidueSet, ...]
    seed: int
    attempts: int

    def to_json(self) -> dict:
        return {**self._asdict(), "parts": [list(part) for part in self.parts]}


def partition_nk(
    p: int,
    k: int,
    parts: int | None = None,
    seed: int = 0,
    max_tries: int = 200,
    budget: Budget | str | None = None,
) -> Partition:
    """Random partition of Z/p into N_k-type parts.

    Each residue gets an independent uniform label, the one p calls of
    random.Random(seed).randrange(parts) would give (_draw_labels); the part
    masks are packed from the labels in one vectorized pass, and a draw is
    accepted when every part is N_k-type, decided by the scans is_nk_type
    runs. The default part count is ceil(p^(1/(2k+1))); more parts than
    residues would leave a part empty, which is never N_k-type. Before each
    draw the node budget is charged the words that the draws so far may
    read in their scans (_draw_words): BudgetExceeded when they pass it.
    """
    p = _as_prime(p)
    _check_radius(p, k)
    if parts is None:
        parts = _ceil_root(p, 2 * k + 1)
    if not 1 <= parts <= p:
        raise InputError(f"part count must be in [1, p], got {parts} for p = {p}")
    if max_tries < 1:
        raise InputError(f"need max_tries >= 1, got {max_tries}")
    b = current_budget(budget)
    words = _draw_words(p, k, parts)
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        b.check_nodes(attempt * words, what=f"N_{k} partition through draw {attempt}")
        labels = _draw_labels(rng, p, parts)
        members = labels == np.arange(parts)[:, None]  # row j: the residues of part j
        rows = np.packbits(members, axis=1, bitorder="little")
        masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
        if all(_is_nk_mask(m, p, k) for m in masks):
            parts = tuple(ResidueSet(p, m) for m in masks)
            return Partition(p=p, k=k, parts=parts, seed=seed, attempts=attempt)
    raise MathViolation(
        f"no N_{k} partition of F_{p} into {parts} parts in {max_tries} draws"
    )


def _draw_words(p: int, k: int, parts: int) -> int:
    """The most words the scans of one partition draw read, asked for no
    map: each residue is the center of one part's scan, which reads at most
    ceil((p - 1)/128) windows a center. At k = 1 each part's forward scan
    answers from whether the part is empty, L = ceil(p/64) words. At k >= 2
    each part's forward scan reads at most ceil((p - 1)/64) windows for each
    of the at most p residues outside it, and every candidate test of both
    scans tries one element of the part as e + d for one element e: at most
    p * |part| a part, p^2 in all."""
    centers = p * -(-(p - 1) // 128)
    if k == 1:
        return centers + parts * ((p + 63) // 64)
    return centers + parts * p * -(-(p - 1) // 64) + p * p


def _draw_labels(rng: random.Random, p: int, parts: int) -> np.ndarray:
    """p labels in [0, parts), 1 <= parts < 2^32: the values of p calls of
    rng.randrange(parts), leaving rng in the same state.

    randrange(parts) takes one 32-bit word w of the generator per try and
    keeps w >> (32 - parts.bit_length()) when that is below parts.
    getrandbits(32 * n) hands out the next n words, least significant
    first, so the words come in bulk and are filtered here. A shortfall is
    drawn again, never more words than labels still missing, so the last
    word drawn is the one that gives the last label.
    """
    shift = 32 - parts.bit_length()
    kept = []
    missing = p
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        tries = np.frombuffer(words, "<u4") >> shift
        kept.append(tries[tries < parts])
        missing -= len(kept[-1])
    return np.concatenate(kept)


class MinS1Result(NamedTuple):
    """Outcome of the branch-and-bound minimum S_1 search."""

    p: int
    size: int
    aset: ResidueSet
    proven_optimal: bool
    nodes: int
    sizes_exhausted: tuple[int, ...]
    backend: str

    def to_json(self) -> dict:
        out = self._asdict()
        out["elements"] = list(out.pop("aset"))
        out["sizes_exhausted"] = list(self.sizes_exhausted)
        return out


def min_s1_search(p: int, budget: Budget | str | None = None) -> MinS1Result:
    """Minimum-size S_1-type subset of Z/p by iterative deepening.

    Every S_1-type set with at least two elements maps onto one containing
    {0, 1} under an affine bijection, so the kernel searches upward from
    {0, 1}, repairing witness-less elements. Size limits run from 3 up to
    one below the logarithmic construction; proven_optimal is True only
    when every smaller size was exhausted within the node budget. The
    entries budget is charged for the construction (build_s1_log) before it
    is built, and caps the words of each search's visited table and stack:
    a search that would pass it is BudgetExceeded. The construction is
    certified when it is the answer, and a set the search finds always.
    """
    p = _as_prime(p)
    if p < 5:
        raise InputError("need p >= 5")
    b = current_budget(budget)
    upper = build_s1_log(p, budget=b)
    best = upper
    nodes_total = 0
    exhausted_sizes: list[int] = []
    proven = True
    for limit in range(3, len(upper)):
        found, exhausted, used, full = kernels.s1_exhaust(
            p, limit, b.nodes - nodes_total, b.entries
        )
        nodes_total += used
        if full:
            raise BudgetExceeded(
                f"S_1 search at size {limit}: its table and stack would pass "
                f"{b.entries} words, the entries budget"
            )
        if found:
            best = ResidueSet(p, found)
            if not is_sk_type(best, 1).ok:
                raise MathViolation("search returned an uncertified set")
            break
        if not exhausted:
            proven = False
            break
        exhausted_sizes.append(limit)
    if best is upper and not is_sk_type(upper, 1).ok:
        raise MathViolation(f"logarithmic construction failed certification at p={p}")
    return MinS1Result(
        p=p,
        size=len(best),
        aset=best,
        proven_optimal=proven,
        nodes=nodes_total,
        sizes_exhausted=tuple(exhausted_sizes),
        backend=kernels.BACKEND,
    )


# ---------------------------------------------------------------------------
# frozen table of small optimal S_1 sets


class AppendixRow(NamedTuple):
    """One frozen table row: prime, elements, stated size."""

    p: int
    elements: tuple[int, ...]
    size: int


class AppendixRowCheck(NamedTuple):
    """One re-certified table row: stated and actual size, S_1 scan, sqrt
    bound."""

    p: int
    stated_size: int
    actual_size: int
    is_s1: bool
    below_sqrt: bool

    @property
    def ok(self) -> bool:
        return self.is_s1 and self.stated_size == self.actual_size and self.below_sqrt


class AppendixReport(NamedTuple):
    """Every table row, re-certified."""

    rows: tuple[AppendixRowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [{**r._asdict(), "ok": r.ok} for r in self.rows]}


def appendix_csv_text() -> str:
    """Raw text of the packaged table, exactly as shipped."""
    return (
        importlib.resources.files("ajtkit").joinpath("appendix.csv").read_text()
    )


def appendix_rows() -> list[AppendixRow]:
    reader = csv.DictReader(appendix_csv_text().splitlines())
    rows = []
    for rec in reader:
        elements = tuple(int(tok) for tok in rec["elements"].split(","))
        rows.append(AppendixRow(p=int(rec["p"]), elements=elements, size=int(rec["size"])))
    return rows


def verify_appendix() -> AppendixReport:
    """Re-certify every frozen table row: parse, S_1 scan, size, sqrt bound."""
    checks = []
    for row in appendix_rows():
        aset = ResidueSet.from_elements(row.p, row.elements)
        checks.append(
            AppendixRowCheck(
                p=row.p,
                stated_size=row.size,
                actual_size=len(aset),
                is_s1=is_sk_type(aset, 1).ok,
                below_sqrt=len(aset) ** 2 < row.p - 1,
            )
        )
    return AppendixReport(rows=tuple(checks))

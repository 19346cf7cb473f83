"""Multiplier certificates and good subset families.

good_subsets assembles, for a prime p and a radius k, set families A_i = A
and B_i = lam_i * B whose boxed sum sets are disjoint: A and B are S_k-type
(and B N_k-type for k >= 2) sets from ajtkit.apsets, shifted off zero, with
|A| * |B| < p - 1, and the multipliers lam_i come from random_multipliers,
whose certificate multipliers_valid checks by one of two routes. For k = 1
the sets default to the frozen table's row for p (appendix_lookup) or the
log construction.

Nothing on the searches', scans' or products' paths uses this section, so
it is a module of its own, and importing apsets does not compile it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple, Sequence

from .apsets import (
    ResidueSet,
    appendix_rows,
    build_s1_log,
    build_sk,
    is_nk_type,
    is_sk_type,
    partition_nk,
)
from .budget import Budget, current_budget
from .errors import InputError, MathViolation
from .fp_core import FpMatrix, _as_prime


class MultiplierCertificate(NamedTuple):
    """Nonzero multipliers separating two boxed sum sets, with trace data."""

    p: int
    lambdas: tuple[int, ...]
    seed: int
    attempts: int
    route: str


def _box_points(boxes: Sequence[ResidueSet]) -> Iterator[tuple[int, ...]]:
    return itertools.product(*[box.elements() for box in boxes])


def _basis_matrix(basis: Sequence[Sequence[int]], p: int) -> FpMatrix:
    # basis vectors become columns, so matvec(c) is sum(c_j * basis_j)
    n = len(basis)
    if any(len(v) != n for v in basis):
        raise InputError("basis vectors must have length n")
    return FpMatrix([[basis[j][i] for j in range(n)] for i in range(n)], p)


def _multiplier_route(
    u_boxes: Sequence[ResidueSet], v_boxes: Sequence[ResidueSet], route: str, b: Budget
) -> str:
    """Resolve 'auto': 'exhaustive' when both point sets fit the budget, else 'solve'."""
    if route != "auto":
        return route
    nu = math.prod(len(u) for u in u_boxes)
    nv = math.prod(len(v) for v in v_boxes)
    return "exhaustive" if nu * nv <= b.nodes and nu + nv <= b.entries else "solve"


def multipliers_valid(
    e_basis: Sequence[Sequence[int]],
    f_basis: Sequence[Sequence[int]],
    u_boxes: Sequence[ResidueSet],
    v_boxes: Sequence[ResidueSet],
    lambdas: Sequence[int],
    route: str = "auto",
    budget: Budget | str | None = None,
) -> bool:
    """Decide whether sum(x_i e_i) = sum(lam_i y_i f_i) has no solution.

    Two routes: 'exhaustive' materializes both point sets and intersects;
    'solve' expresses each e-box point in f-coordinates c and tests
    c_i * lam_i^(-1) membership in V_i for all i. 'auto' picks by size.
    """
    p = u_boxes[0].p
    b = current_budget(budget)
    nu = math.prod(len(u) for u in u_boxes)
    nv = math.prod(len(v) for v in v_boxes)
    route = _multiplier_route(u_boxes, v_boxes, route, b)
    lambdas = [int(c) % p for c in lambdas]
    if any(c == 0 for c in lambdas):
        raise InputError("multipliers must be nonzero mod p")
    e, f = _basis_matrix(e_basis, p), _basis_matrix(f_basis, p)
    if route == "exhaustive":
        b.check_nodes(nu + nv, what="exhaustive sum-set intersection")
        left = {e.matvec(u) for u in _box_points(u_boxes)}
        for v in _box_points(v_boxes):
            scaled = [lam * y % p for lam, y in zip(lambdas, v)]
            if f.matvec(scaled) in left:
                return False
        return True
    if route == "solve":
        b.check_nodes(nu, what="basis-solve collision scan")
        finv = f.invert()
        inv_l = [pow(lam, -1, p) for lam in lambdas]
        for u in _box_points(u_boxes):
            coords = finv.matvec(e.matvec(u))
            if all(
                c != 0 and (c * il % p) in box
                for c, il, box in zip(coords, inv_l, v_boxes)
            ):
                return False
        return True
    raise InputError(f"unknown route {route!r}")


def random_multipliers(
    e_basis: Sequence[Sequence[int]],
    f_basis: Sequence[Sequence[int]],
    u_boxes: Sequence[ResidueSet],
    v_boxes: Sequence[ResidueSet],
    seed: int = 0,
    max_tries: int = 1000,
    route: str = "auto",
    budget: Budget | str | None = None,
) -> MultiplierCertificate:
    """Sample nonzero multipliers until the two boxed sum sets are disjoint.

    Requires prod |U_i| * prod |V_i| < (p-1)^n, the counting bound that
    guarantees a valid choice exists, and every box inside the nonzero
    residues. The certificate records the route that ran, never 'auto'.
    """
    if not e_basis or len(e_basis) != len(f_basis):
        raise InputError("need two bases of equal positive length")
    p = u_boxes[0].p
    n = len(e_basis)
    if len(u_boxes) != n or len(v_boxes) != n:
        raise InputError("need one U box and one V box per coordinate")
    for box in itertools.chain(u_boxes, v_boxes):
        if box.p != p:
            raise InputError("boxes live over different moduli")
        if len(box) == 0 or 0 in box:
            raise InputError("boxes must be nonempty subsets of F_p \\ {0}")
    if _basis_matrix(e_basis, p).det() == 0 or _basis_matrix(f_basis, p).det() == 0:
        raise InputError("both families must be bases")
    sizes = math.prod(len(b) for b in u_boxes) * math.prod(len(b) for b in v_boxes)
    if sizes >= (p - 1) ** n:
        raise InputError(
            f"box size product {sizes} must stay below (p-1)^n = {(p - 1) ** n}"
        )
    b = current_budget(budget)
    route = _multiplier_route(u_boxes, v_boxes, route, b)
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        lambdas = tuple(rng.randrange(1, p) for _ in range(n))
        if multipliers_valid(
            e_basis, f_basis, u_boxes, v_boxes, lambdas, route=route, budget=b
        ):
            return MultiplierCertificate(
                p=p, lambdas=lambdas, seed=seed, attempts=attempt, route=route
            )
    raise MathViolation(f"no separating multipliers in {max_tries} draws")


class GoodSubsets(NamedTuple):
    """Per-coordinate set families A_i, B_i with the disjoint sum-set certificate."""

    p: int
    k: int
    a_sets: tuple[ResidueSet, ...]
    b_sets: tuple[ResidueSet, ...]
    certificate: MultiplierCertificate
    base_a: ResidueSet
    base_b: ResidueSet


def _shift_off_zero(aset: ResidueSet) -> ResidueSet:
    """Translate the set so it avoids 0; smallest nonnegative shift."""
    if len(aset) >= aset.p:
        raise InputError("a proper subset is required")
    for c in range(aset.p):
        if (aset.p - c) % aset.p not in aset:
            return aset.translate(c)
    raise MathViolation("unreachable: proper subset admits a shift off zero")


def appendix_lookup(p: int) -> ResidueSet | None:
    """The frozen small-prime S_1 table entry for p, if present."""
    for row in appendix_rows():
        if row.p == p:
            return ResidueSet.from_elements(row.p, row.elements)
    return None


def good_subsets(
    p: int,
    k: int,
    e_basis: Sequence[Sequence[int]],
    f_basis: Sequence[Sequence[int]],
    seed: int = 0,
    max_tries: int = 1000,
    a_set: ResidueSet | None = None,
    b_set: ResidueSet | None = None,
    budget: Budget | str | None = None,
) -> GoodSubsets:
    """Assemble A_i = A and B_i = lam_i * B with disjoint boxed sum sets.

    The base pair (A, B) is shifted off zero and must satisfy
    |A| * |B| < p - 1. For k = 1 both bases default to the smallest known
    S_1-type set (frozen table first, logarithmic construction otherwise);
    for k >= 2 the defaults are the staged construction and the smallest
    part of a random N_k partition. Dilation preserves both properties, so
    each B_i inherits the base certificate. The budget, resolved once,
    goes to every construction, the partition and the multiplier draws,
    which charge it as they run.
    """
    p = _as_prime(p)
    n = len(e_basis)
    b = current_budget(budget)
    if k == 1:
        base_a = a_set if a_set is not None else appendix_lookup(p) or build_s1_log(p, b)
        base_b = b_set if b_set is not None else base_a
        if not is_sk_type(base_a, 1).ok or not is_sk_type(base_b, 1).ok:
            raise InputError("base sets must certify S_1")
    elif k >= 2:
        base_a = a_set if a_set is not None else build_sk(p, k, b).aset
        if b_set is not None:
            base_b = b_set
        else:
            partition = partition_nk(p, k, seed=seed, budget=b)
            base_b = min(partition.parts, key=len)
        if not is_sk_type(base_a, k).ok:
            raise InputError("base A must certify S_k")
        if not is_nk_type(base_b, k).ok:
            raise InputError("base B must certify N_k")
    else:
        raise InputError("k must be >= 1")
    base_a = _shift_off_zero(base_a)
    base_b = _shift_off_zero(base_b)
    if len(base_a) * len(base_b) >= p - 1:
        raise InputError(
            f"need |A| * |B| < p - 1, got {len(base_a)} * {len(base_b)} vs {p - 1}"
        )
    cert = random_multipliers(
        e_basis,
        f_basis,
        [base_a] * n,
        [base_b] * n,
        seed=seed,
        max_tries=max_tries,
        budget=b,
    )
    b_sets = tuple(base_b.dilate(lam) for lam in cert.lambdas)
    return GoodSubsets(
        p=p,
        k=k,
        a_sets=(base_a,) * n,
        b_sets=b_sets,
        certificate=cert,
        base_a=base_a,
        base_b=base_b,
    )

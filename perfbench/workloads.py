"""The four benchmark workloads.

Each workload draws its inputs from the benchmark seed with its own code,
runs one pass over them through ajtkit's public API, one timed verdict at a
time, and checks every verdict against references.py. A workload calls the
package through module attributes (apsets.min_s1_search, not a bound name),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial

from ajtkit import apsets, cli, fp_core, fp_poly, properties

import references as ref


class S1Min:
    """min_s1_search on every prime with a frozen proven minimum.

    The input set is fixed by the references, so the seed changes nothing:
    a seeded order would only move cache effects between the small and the
    large searches from one seed to the next.
    """

    name = "s1-min"
    # the middle of the second-slowest prime's verdicts, not the edge
    # between two primes
    tail_q = 78

    def __init__(self, rng):
        pass

    def run_pass(self, run):
        for p in sorted(ref.S1_MIN_SIZE):
            run.verdict(partial(apsets.min_s1_search, p), partial(self.check, p))

    @staticmethod
    def check(p, res, counts):
        counts["out.nodes"] += res.nodes
        elems = res.aset.elements()
        ok = (
            res.p == p
            and res.size == len(elems) == ref.S1_MIN_SIZE[p]
            and res.proven_optimal
            and all(0 <= e < p for e in elems)
            and ref.is_s1_set(elems, p)
        )
        return ok, [p, res.size, res.nodes, list(elems)]


class Certify:
    """S_1 certification of the log construction for every prime below 10^4,
    one seeded N_1 partition near 2 * 10^4, and re-certification of its parts.

    Near 2 * 10^4 about 95% of draws are accepted at the default part
    count, so the seed rarely changes the work of a pass, and a pass stays
    near 9 s; near 10^4 a quarter of draws fail, near 3 * 10^4 a pass
    takes 13 s.
    """

    name = "certify"
    tail_q = 99
    partition_p = 20011  # the first prime above 2 * 10^4

    def __init__(self, rng):
        self.order = ref.primes_between(5, 10**4)
        rng.shuffle(self.order)
        self.partition_seed = rng.randrange(2**32)
        # default part count: smallest x with x^3 >= p
        self.parts = next(x for x in range(1, self.partition_p)
                          if x**3 >= self.partition_p)

    def run_pass(self, run):
        for q in self.order:
            run.verdict(partial(self.build_and_certify, q), partial(self.check_s1, q))
        part = run.verdict(
            lambda: apsets.partition_nk(self.partition_p, 1, seed=self.partition_seed),
            self.check_partition,
        )
        for aset in part.parts if part is not None else ():
            run.verdict(partial(apsets.is_nk_type, aset, 1),
                        partial(self.check_part, aset))

    @staticmethod
    def build_and_certify(q):
        aset = apsets.build_s1_log(q)
        return aset, apsets.is_sk_type(aset, 1)

    @staticmethod
    def check_s1(q, out, counts):
        aset, report = out
        member = ref.mask_members(aset.mask, q)
        targets = member.nonzero()[0]
        ok = (
            aset.p == q
            and len(targets) == ref.s1_log_size(q)
            and report.ok
            and ref.witnesses_ok(member, targets, report.witnesses, 1, centered=True)
        )
        steps = [report.witnesses[a].step for a in sorted(report.witnesses or {})]
        return ok, [q, targets.tolist(), steps]

    def check_partition(self, part, counts):
        counts["out.partition_attempts"] += part.attempts
        p = self.partition_p
        union = 0
        for aset in part.parts:
            union |= aset.mask
        ok = (
            (part.p, part.k, len(part.parts)) == (p, 1, self.parts)
            and part.attempts >= 1
            and union == (1 << p) - 1
            and sum(aset.mask.bit_count() for aset in part.parts) == p
        )
        return ok, [part.attempts, [aset.mask.bit_count() for aset in part.parts]]

    def check_part(self, aset, report, counts):
        member = ref.mask_members(aset.mask, self.partition_p)
        ok = (
            report.ok
            and ref.witnesses_ok(member, member.nonzero()[0], report.inside, 1,
                                 centered=True)
            and ref.witnesses_ok(member, (~member).nonzero()[0], report.outside, 1,
                                 centered=False)
        )
        return ok, [int(member.sum()), report.ok]


class Sweep:
    """`ajtkit sweep --n 2 --threads 1` through cli.main at p = 5, 7, 11.

    Small sweeps repeat within a pass so that a run holds enough verdicts for
    the p75 tail, spread over the pass so that they sample it evenly. The
    sweeps are fixed by (p, n), so the seed changes nothing.
    """

    name = "sweep"
    tail_q = 75
    calls = (5, 7, 5, 5, 11, 5, 7, 5, 5, 7)

    def __init__(self, rng):
        pass

    def run_pass(self, run):
        for p in self.calls:
            run.verdict(partial(self.sweep, p), partial(self.check, p))

    @staticmethod
    def sweep(p):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["sweep", "--p", str(p), "--n", "2", "--threads", "1"])
        return code, buf.getvalue()

    @staticmethod
    def check(p, out, counts):
        code, text = out
        counts["cli.stdout_bytes"] += len(text.encode())
        doc = json.loads(text)
        counts["out.matrices"] += doc["matrices"]
        order = ref.gl_order(p, 2)
        ok = (
            code == 0
            and doc["violations"] == []
            and order == doc["matrices"] == doc["expected_nonsingular"]
            and order == doc["p1_witness"] == doc["integer_nonzero"]
            == doc["modp_nonzero"]
        )
        return ok, [p, code, doc["matrices"], doc["p1_witness"]]


@dataclass(frozen=True)
class LadderInstance:
    p: int
    n: int
    matrix_seed: int
    c_lists: tuple = ()
    d_lists: tuple = ()
    r: tuple = ()
    s: tuple = ()
    r2: tuple = ()
    s2: tuple = ()

    @property
    def is_duality(self) -> bool:
        return bool(self.r)


def _balanced_sizes(rng, count: int, max_size: int) -> list[int]:
    """count list sizes spread evenly over 0..max_size, in seeded order."""
    sizes = [i % (max_size + 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _composition(rng, n: int, total: int, lo: int, hi: int) -> tuple[int, ...]:
    """A uniform-ish vector in [lo, hi]^n with the given sum."""
    while True:
        head = [rng.randint(lo, hi) for _ in range(n - 1)]
        last = total - sum(head)
        if lo <= last <= hi:
            return tuple(head + [last])


class Ladder:
    """check_all on seeded (matrix, forbidden lists) instances, plus
    duality_check and both scalar_product_condition routes."""

    name = "ladder"
    # higher percentiles fall where the seeded instances are sparse, so they
    # follow the seed more than the program
    tail_q = 90
    # (p, n, largest forbidden list, instances per pass); (5, 3) with lists
    # up to p - 1 makes about a quarter of instances satisfy P1
    strata = ((7, 3, 3, 16), (11, 3, 3, 16), (5, 4, 3, 16), (5, 3, 4, 24))
    duality = ((11, 4, 4), (13, 3, 4))  # (p, n, instances per pass)

    def __init__(self, rng):
        self.instances = []
        for p, n, max_size, count in self.strata:
            sizes = iter(_balanced_sizes(rng, count * 2 * n, max_size))
            for _ in range(count):
                lists = [tuple(sorted(rng.sample(range(p), next(sizes))))
                         for _ in range(2 * n)]
                self.instances.append(LadderInstance(
                    p, n, rng.randrange(2**31),
                    c_lists=tuple(lists[:n]), d_lists=tuple(lists[n:])))
        for p, n, count in self.duality:
            # fixed exponent totals keep the polynomial sizes, and so the
            # cost of a pass, independent of the seed
            half = n * (p - 1) // 2
            for _ in range(count):
                self.instances.append(LadderInstance(
                    p, n, rng.randrange(2**31),
                    r=_composition(rng, n, half, 0, p - 1),
                    s=_composition(rng, n, half, 0, p - 1),
                    r2=_composition(rng, n, half, 1, p - 1),
                    s2=_composition(rng, n, half, 1, p - 1)))
        rng.shuffle(self.instances)
        self._expected: dict[LadderInstance, tuple] = {}

    def run_pass(self, run):
        for inst in self.instances:
            if inst.is_duality:
                run.verdict(partial(self.dual, inst), partial(self.check_dual, inst))
            else:
                run.verdict(partial(self.chain, inst), partial(self.check_chain, inst))

    @staticmethod
    def chain(inst):
        m = fp_core.random_nonsingular(inst.p, inst.n, seed=inst.matrix_seed)
        spec = properties.ForbiddenSpec(
            p=inst.p, n=inst.n, c_lists=inst.c_lists, d_lists=inst.d_lists)
        return m, properties.check_all(m, spec)

    @staticmethod
    def dual(inst):
        m = fp_core.random_nonsingular(inst.p, inst.n, seed=inst.matrix_seed)
        return (
            m,
            fp_poly.duality_check(m, inst.r, inst.s),
            fp_poly.scalar_product_condition(m, inst.r2, inst.s2, route="evaluate"),
            fp_poly.scalar_product_condition(m, inst.r2, inst.s2, route="coefficient"),
        )

    def _reference(self, inst, rows, compute):
        # the reference for an instance is computed once per run; a later
        # pass that draws a different matrix from the same seed fails
        if inst not in self._expected:
            self._expected[inst] = (rows, compute())
        want_rows, value = self._expected[inst]
        return value if want_rows == rows else None

    def check_chain(self, inst, out, counts):
        m, rep = out
        rows = [list(r) for r in m.rows]
        p = inst.p
        holds = self._reference(inst, rows, lambda: not ref.p1_witness_exists(
            rows, p, inst.c_lists, inst.d_lists))
        witness = rep.p1_witness
        ok = (
            holds is not None
            and ref.det_mod_p(rows, p) != 0
            and rep.p1 == holds
            and (witness is None
                 or ref.p1_witness_valid(rows, p, inst.c_lists, inst.d_lists, witness))
            and rep.p2 == rep.p3 == holds
            and (not holds or (rep.p4 and rep.p5))
            and rep.violations == ()
        )
        return ok, [rows, witness and list(witness), rep.p2, rep.p3, rep.p4, rep.p5]

    def check_dual(self, inst, out, counts):
        m, dual, by_eval, by_coeff = out
        rows = [list(r) for r in m.rows]
        p = inst.p
        cols = [list(c) for c in zip(*rows)]
        want = self._reference(inst, rows, lambda: (
            ref.form_power_coefficient(rows, inst.r, inst.s, p),
            ref.form_power_coefficient(cols, inst.s, inst.r, p),
            ref.grid_form_sum(rows, inst.r2, inst.s2, p)))
        ok = (
            want is not None
            and (dual.lhs_coeff, dual.rhs_coeff, by_eval) == want
            and by_coeff == by_eval
            and dual.agree
            and ref.factorial_relation(want[0], want[1], inst.r, inst.s, p)
        )
        return ok, [rows, dual.lhs_coeff, dual.rhs_coeff, by_eval, by_coeff]


WORKLOADS = {w.name: w for w in (S1Min, Certify, Sweep, Ladder)}

"""Execution budgets for exhaustive routines.

Every routine that can blow up (dense group-ring products, matrix enumeration,
branch-and-bound searches) checks a budget before and during the run and raises
BudgetExceeded instead of hanging. Budgets come from an explicit argument, the
AJT_BUDGET environment variable, or the defaults below, in that order.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import BudgetExceeded, InputError

MAX_RING_ENTRIES = 2**24

PRESETS = {
    "low": 10**6,
    "default": 10**9,
    "high": 10**11,
}


class Budget(NamedTuple):
    """Caps for one run: dense table entries and search nodes."""

    entries: int = MAX_RING_ENTRIES
    nodes: int = PRESETS["default"]

    def check_entries(self, needed: int, what: str = "dense table") -> None:
        if needed > self.entries:
            raise BudgetExceeded(
                f"{what} needs {_count(needed)} entries, budget allows {self.entries}"
            )

    def check_nodes(self, needed: int, what: str = "search") -> None:
        if needed > self.nodes:
            raise BudgetExceeded(
                f"{what} needs {_count(needed)} nodes, budget allows {self.nodes}"
            )

    def check_nodes_power(self, base: int, exp: int, what: str = "search") -> None:
        """check_nodes(base ** exp) for base >= 2, without forming a power
        too large to form (_check_power_bound)."""
        _check_power_bound(base, exp, self.nodes, "nodes", what)
        self.check_nodes(base**exp, what=what)

    def check_entries_power(self, base: int, exp: int, what: str = "dense table") -> None:
        """check_entries(base ** exp) for base >= 2, the same way."""
        _check_power_bound(base, exp, self.entries, "entries", what)
        self.check_entries(base**exp, what=what)


def _check_power_bound(base: int, exp: int, cap: int, unit: str, what: str) -> None:
    """base ** exp >= 2 ** (exp * (base.bit_length() - 1)): once that exponent
    reaches the cap's bit length and 2^16, refuse with the bound, unformed; a
    smaller power forms in about a millisecond and is charged exactly."""
    bound = exp * (base.bit_length() - 1)
    if bound >= max(cap.bit_length(), 2**16):
        raise BudgetExceeded(f"{what} needs at least 2^{bound} {unit}, budget allows {cap}")


def _count(needed: int) -> str:
    """needed in decimal up to 64 bits, else the largest power of two below it."""
    if needed.bit_length() <= 64:
        return str(needed)
    return f"more than 2^{(needed - 1).bit_length() - 1}"


def parse_budget(text: str) -> Budget:
    """Parse a preset name or a bare node count into a Budget."""
    text = text.strip().lower()
    if text in PRESETS:
        return Budget(nodes=PRESETS[text])
    try:
        nodes = int(text)
    except ValueError:
        raise InputError(
            f"budget must be one of {sorted(PRESETS)} or an integer, got {text!r}"
        ) from None
    return _node_budget(nodes)


def _node_budget(nodes: int) -> Budget:
    if nodes <= 0:
        raise InputError("budget node count must be positive")
    return Budget(nodes=nodes)


def current_budget(override: str | int | Budget | None = None) -> Budget:
    """Resolve the active budget: explicit override, then AJT_BUDGET, then defaults.

    An int override is a node count, like the same number as a string.
    """
    if isinstance(override, Budget):
        return override
    if isinstance(override, int):
        return _node_budget(override)
    if override is not None:
        return parse_budget(override)
    env = os.environ.get("AJT_BUDGET")
    if env:
        return parse_budget(env)
    return Budget()

"""Integer linear feasibility by depth-first search with bound propagation.

Desk-scale replacement for fixed-dimension integer programming: every
variable carries finite integer bounds, variables are assigned in order with
the lowest value first, and each row prunes partial assignments through
interval arithmetic on the unassigned suffix.

Failure memo: once the search reaches variable i, whether the rest can be
completed depends only on i and on the partial sums of the rows that are
live at i, those with a non-zero coefficient both before i and at or after
it.  A row whose last non-zero lies before i passed its interval test when
that variable was set and cannot change again; a row whose first non-zero
lies at or after i has the same sum (zero) at every node of i.  A suffix
that fails is stored under the key (i, live partial sums), and a branch
whose key is stored is cut at once.  The memo only cuts branches that would
fail, so the point returned stays the lexicographically first feasible one,
while the search is bounded by the number of distinct (i, partial-sum
vector) keys rather than by the number of assignments.  Each variable
touches only the rows where its coefficient is non-zero, and the search
runs on an explicit stack, so programs of any length fit.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class IntegerProgram:
    """Rows are dense coefficient tuples over all variables.

    eq_rows: coeffs . z == rhs;  le_rows: coeffs . z <= rhs.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    eq_rows: tuple[tuple[tuple[int, ...], int], ...] = ()
    le_rows: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self) -> None:
        p = len(self.lower)
        if len(self.upper) != p:
            raise ValueError("bound vectors disagree on variable count")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"empty variable domain [{lo}, {hi}]")
        for coeffs, _ in self.eq_rows + self.le_rows:
            if len(coeffs) != p:
                raise ValueError("row width differs from variable count")

    @property
    def num_vars(self) -> int:
        return len(self.lower)


def solve_feasibility(prog: IntegerProgram) -> tuple[int, ...] | None:
    """An integer point satisfying every row, or None when none exists.

    Deterministic: variables in index order, values from the lower bound up,
    so the point returned is the lexicographically first feasible one.
    """
    p = prog.num_vars
    lower, upper = prog.lower, prog.upper
    rows = prog.eq_rows + prog.le_rows
    rhs = [r for _, r in rows]
    # An equality also needs its upper interval end to reach rhs.
    floor = [r for _, r in prog.eq_rows] + [-math.inf] * len(prog.le_rows)

    # Column i lists (row, coeff, least, largest contribution of z_i) for
    # the non-zero coefficients only.  lo/hi[r]: the partial sum of row r
    # plus the least/largest contribution of the unassigned variables.
    cols: list[list[tuple[int, int, int, int]]] = [[] for _ in range(p)]
    lo = [0] * len(rows)
    hi = [0] * len(rows)
    first = [0] * len(rows)
    last = [-1] * len(rows)
    for r, (coeffs, _) in enumerate(rows):
        for i, c in enumerate(coeffs):
            if c:
                a, b = c * lower[i], c * upper[i]
                if a > b:
                    a, b = b, a
                cols[i].append((r, c, a, b))
                lo[r] += a
                hi[r] += b
                if last[r] < 0:
                    first[r] = i
                last[r] = i
    if any(lo[r] > rhs[r] or hi[r] < floor[r] for r in range(len(rows))):
        return None
    if p == 0:
        return ()

    # live[i] reads the memo key of the node that assigns variable i: the
    # sums of the rows with non-zero coefficients both before and at or
    # after i.  The other rows either cannot change any more (and passed
    # their test) or have seen no variable yet (and read the same for
    # every node at i).
    starts: list[list[int]] = [[] for _ in range(p + 1)]
    ends: list[list[int]] = [[] for _ in range(p + 1)]
    for r in range(len(rows)):
        if first[r] < last[r]:
            starts[first[r] + 1].append(r)
            ends[last[r] + 1].append(r)
    def no_rows(_: list[int]) -> tuple[()]:
        return ()

    live: list[Callable[[list[int]], object]] = []
    active: set[int] = set()
    getter: Callable[[list[int]], object] = no_rows
    for i in range(p):
        if starts[i] or ends[i]:
            active.difference_update(ends[i])
            active.update(starts[i])
            getter = operator.itemgetter(*sorted(active)) if active else no_rows
        live.append(getter)

    failed: set[tuple[int, object]] = set()
    path: list[tuple[int, object]] = []  # memo key of each node on the path
    value = [0] * p
    i = 0
    while True:
        if i == len(path):
            # Enter the node of variable i, unless its suffix already failed.
            key = (i, live[i](lo))
            if key in failed:
                i -= 1
                continue
            path.append(key)
            v = value[i] = lower[i]
            for r, c, a, b in cols[i]:
                lo[r] += c * v - a
                hi[r] += c * v - b
        elif value[i] < upper[i]:
            value[i] += 1
            for r, c, _, _ in cols[i]:
                lo[r] += c
                hi[r] += c
        else:
            failed.add(path.pop())
            v = value[i]
            for r, c, a, b in cols[i]:
                lo[r] -= c * v - a
                hi[r] -= c * v - b
            if i == 0:
                return None
            i -= 1
            continue
        # Only the rows of variable i changed since their last test.
        for r, _, _, _ in cols[i]:
            if lo[r] > rhs[r] or hi[r] < floor[r]:
                break
        else:
            if i + 1 == p:
                return tuple(value)
            i += 1

"""Reference integer feasibility search: the plain recursive depth-first
search that `edpkit.ilp.solve_feasibility` replaced.

It walks every assignment that the interval test at each variable lets
through, with no memo, so it is exponential on infeasible programs and
recurses once per variable.  Only for tests, where the memoized search
must return exactly its point.
"""

from __future__ import annotations

from edpkit.ilp import IntegerProgram


def solve_feasibility(prog: IntegerProgram) -> tuple[int, ...] | None:
    """An integer point satisfying every row, or None when none exists.

    Deterministic: variables in index order, values from the lower bound up.
    """
    p = prog.num_vars
    rows = [(coeffs, rhs, True) for coeffs, rhs in prog.eq_rows]
    rows += [(coeffs, rhs, False) for coeffs, rhs in prog.le_rows]

    # suffix_min/max[r][i]: extreme contribution of variables i.. to row r.
    suffix_min: list[list[int]] = []
    suffix_max: list[list[int]] = []
    for coeffs, _, _ in rows:
        mins = [0] * (p + 1)
        maxs = [0] * (p + 1)
        for i in range(p - 1, -1, -1):
            c = coeffs[i]
            lo_c = c * prog.lower[i]
            hi_c = c * prog.upper[i]
            if lo_c > hi_c:
                lo_c, hi_c = hi_c, lo_c
            mins[i] = mins[i + 1] + lo_c
            maxs[i] = maxs[i + 1] + hi_c
        suffix_min.append(mins)
        suffix_max.append(maxs)

    partial = [0] * len(rows)
    assignment: list[int] = []

    def feasible_here(i: int) -> bool:
        for r, (coeffs, rhs, is_eq) in enumerate(rows):
            lo = partial[r] + suffix_min[r][i]
            hi = partial[r] + suffix_max[r][i]
            if is_eq:
                if not (lo <= rhs <= hi):
                    return False
            elif lo > rhs:
                return False
        return True

    def descend(i: int) -> bool:
        if not feasible_here(i):
            return False
        if i == p:
            return True
        for value in range(prog.lower[i], prog.upper[i] + 1):
            assignment.append(value)
            for r, (coeffs, _, _) in enumerate(rows):
                partial[r] += coeffs[i] * value
            if descend(i + 1):
                return True
            for r, (coeffs, _, _) in enumerate(rows):
                partial[r] -= coeffs[i] * value
            assignment.pop()
        return False

    if descend(0):
        return tuple(assignment)
    return None

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import edpkit
from edpkit.ilp import IntegerProgram, solve_feasibility
from ilp_oracle import solve_feasibility as oracle_feasibility


def brute(prog):
    ranges = [range(lo, hi + 1) for lo, hi in zip(prog.lower, prog.upper)]
    for point in itertools.product(*ranges):
        if all(
            sum(c * z for c, z in zip(coeffs, point)) == rhs
            for coeffs, rhs in prog.eq_rows
        ) and all(
            sum(c * z for c, z in zip(coeffs, point)) <= rhs
            for coeffs, rhs in prog.le_rows
        ):
            return point
    return None


def test_examples():
    assert solve_feasibility(IntegerProgram((0, 0), (2, 2), eq_rows=(((1, 1), 2),))) == (0, 2)
    assert solve_feasibility(IntegerProgram((1, 1), (5, 5), eq_rows=(((1, 1), 1),))) is None
    assert solve_feasibility(IntegerProgram((0, 0), (3, 3), eq_rows=(((2, 3), 7),))) == (2, 1)


def test_validation():
    with pytest.raises(ValueError):
        IntegerProgram((0,), (0, 1))
    with pytest.raises(ValueError):
        IntegerProgram((2,), (1,))
    with pytest.raises(ValueError):
        IntegerProgram((0,), (1,), eq_rows=(((1, 2), 0),))


def test_empty_program_is_feasible():
    assert solve_feasibility(IntegerProgram((), ())) == ()


def test_infeasible_zero_row():
    # An equality over no effective variables with nonzero rhs.
    prog = IntegerProgram((0,), (5,), eq_rows=(((0,), 3),))
    assert solve_feasibility(prog) is None


def test_agreement_with_enumeration(rng):
    for _ in range(600):
        p = rng.randint(1, 4)
        lower = tuple(rng.randint(-2, 1) for _ in range(p))
        upper = tuple(lo + rng.randint(0, 5) for lo in lower)
        eqs = tuple(
            (tuple(rng.randint(-3, 3) for _ in range(p)), rng.randint(-6, 8))
            for _ in range(rng.randint(0, 2))
        )
        les = tuple(
            (tuple(rng.randint(-3, 3) for _ in range(p)), rng.randint(-6, 8))
            for _ in range(rng.randint(0, 3))
        )
        prog = IntegerProgram(lower, upper, eqs, les)
        got = solve_feasibility(prog)
        want = brute(prog)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(
                sum(c * z for c, z in zip(coeffs, got)) == rhs for coeffs, rhs in eqs
            )
            assert all(
                sum(c * z for c, z in zip(coeffs, got)) <= rhs for coeffs, rhs in les
            )


@st.composite
def programs(draw, max_vars=7):
    p = draw(st.integers(0, max_vars))
    lower = draw(st.lists(st.integers(-2, 1), min_size=p, max_size=p))
    upper = [lo + draw(st.integers(0, 3)) for lo in lower]
    row = st.tuples(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3)), min_size=p, max_size=p).map(tuple),
        st.integers(-4, 6),
    )
    eqs = draw(st.lists(row, max_size=3))
    les = draw(st.lists(row, max_size=4))
    return IntegerProgram(tuple(lower), tuple(upper), tuple(eqs), tuple(les))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(programs())
def test_same_point_as_plain_search(prog):
    assert solve_feasibility(prog) == oracle_feasibility(prog)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(programs(), st.data())
def test_implied_rows_keep_the_point(prog, data):
    """A non-negative combination of the inequalities, plus any multiple
    of the equalities, holds wherever they all hold, so appending it keeps
    the lexicographically first point."""
    rows = prog.le_rows + prog.eq_rows
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(prog.le_rows), max_size=len(prog.le_rows)))
    weights += data.draw(st.lists(st.integers(-3, 3), min_size=len(prog.eq_rows), max_size=len(prog.eq_rows)))
    coeffs = tuple(sum(w * row[i] for w, (row, _) in zip(weights, rows)) for i in range(prog.num_vars))
    bound = sum(w * rhs for w, (_, rhs) in zip(weights, rows))
    more = IntegerProgram(prog.lower, prog.upper, prog.eq_rows, prog.le_rows + ((coeffs, bound),))
    assert solve_feasibility(more) == solve_feasibility(prog)


def test_returns_first_point_of_enumeration(rng):
    for _ in range(600):
        p = rng.randint(1, 5)
        lower = tuple(rng.randint(-2, 1) for _ in range(p))
        upper = tuple(lo + rng.randint(0, 3) for lo in lower)
        rows = [
            (tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(p)), rng.randint(-4, 6))
            for _ in range(rng.randint(0, 5))
        ]
        split = rng.randint(0, len(rows))
        prog = IntegerProgram(lower, upper, tuple(rows[:split]), tuple(rows[split:]))
        assert solve_feasibility(prog) == brute(prog)


def test_long_program_needs_no_recursion():
    limit = sys.getrecursionlimit()
    prog = IntegerProgram((0,) * 2000, (1,) * 2000, eq_rows=(((1,) * 2000, 2000),))
    assert solve_feasibility(prog) == (1,) * 2000
    prog = IntegerProgram((0,) * 2000, (1,) * 2000, eq_rows=(((1,) * 2000, 1000),))
    assert solve_feasibility(prog) == (0,) * 1000 + (1,) * 1000
    assert sys.getrecursionlimit() == limit


def test_failed_suffixes_are_not_searched_again():
    # Sum z = 15 and sum z <= 14 over 30 binaries: every partial sum vector
    # fails once, so the memo answers in about n^2 steps, where walking
    # every assignment with at most 15 ones would take many minutes.
    script = textwrap.dedent(
        """
        from edpkit.ilp import IntegerProgram, solve_feasibility
        n = 30
        prog = IntegerProgram((0,) * n, (1,) * n, eq_rows=(((1,) * n, 15),), le_rows=(((1,) * n, 14),))
        print(solve_feasibility(prog))
        """
    )
    src = str(Path(edpkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"

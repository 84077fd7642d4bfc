"""Exact rational linear solves."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smpg.errors import SingularSystem
from smpg.linalg import solve, solve_columns

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def test_known_2x2():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    assert solve(a, b) == [F(1), F(3)]


def test_known_3x3_with_fractions():
    a = [
        [F(1, 2), F(0), F(1, 2)],
        [F(1), F(-1), F(0)],
        [F(0), F(1, 3), F(2, 3)],
    ]
    x = [F(3), F(-2, 5), F(7, 4)]
    b = [sum(row[j] * x[j] for j in range(3)) for row in a]
    assert solve(a, b) == x


def test_identity_returns_rhs():
    a = [[F(1), F(0)], [F(0), F(1)]]
    assert solve(a, [F(-7, 3), F(4)]) == [F(-7, 3), F(4)]


def test_multiple_right_hand_sides():
    # row i of the result carries entry i of each solution, mirroring the
    # row-wise right-hand-side layout
    a = [[F(2), F(0)], [F(0), F(4)]]
    rhs_rows = [[F(2), F(8)], [F(6), F(0)]]
    assert solve_columns(a, rhs_rows) == [[F(1), F(4)], [F(3, 2), F(0)]]


def test_singular_matrix_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularSystem):
        solve(a, [F(1), F(1)])


def test_zero_pivot_needs_row_swap():
    a = [[F(0), F(1)], [F(1), F(0)]]
    assert solve(a, [F(2), F(3)]) == [F(3), F(2)]


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(rationals, min_size=9, max_size=9),
    x=st.lists(rationals, min_size=3, max_size=3),
)
def test_solution_reconstructs_rhs(entries, x):
    a = [entries[0:3], entries[3:6], entries[6:9]]
    b = [sum(a[i][j] * x[j] for j in range(3)) for i in range(3)]
    try:
        got = solve(a, b)
    except SingularSystem:
        assume(False)
    assert [sum(a[i][j] * got[j] for j in range(3)) for i in range(3)] == b


def gauss_jordan(a, rhs_rows):
    """Plain Fraction Gauss-Jordan elimination with first-nonzero pivoting;
    None for a singular matrix."""
    n = len(a)
    rows = [[F(x) for x in a[i]] + [F(x) for x in rhs_rows[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


mixed_entries = st.one_of(st.just(0), st.integers(-1000, 1000), rationals)


@st.composite
def systems(draw):
    """An n x n matrix (n <= 6) and n x m right-hand sides (1 <= m <= 3) of
    mixed int and Fraction entries.  For n >= 2 the first rows start with a
    zero, so the first pivot always needs a row swap."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    a = [[draw(mixed_entries) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        for i in range(draw(st.integers(1, n - 1))):
            a[i][0] = 0
    rhs_rows = [[draw(mixed_entries) for _ in range(m)] for _ in range(n)]
    return a, rhs_rows


@settings(max_examples=300, deadline=None)
@given(system=systems())
def test_solve_columns_matches_gauss_jordan(system):
    a, rhs_rows = system
    expected = gauss_jordan(a, rhs_rows)
    if expected is None:
        with pytest.raises(SingularSystem):
            solve_columns(a, rhs_rows)
        return
    got = solve_columns(a, rhs_rows)
    assert got == expected
    assert all(type(x) is F for row in got for x in row)

"""Exact rational linear solves."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smpg.errors import SingularSystem
from smpg.game import MAX, MIN, PositionalStrategy, StrategyPair, induced_chain
from smpg.generate import GeneratorConfig, generate_game
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


def assert_matches_gauss_jordan(a, rhs_rows):
    expected = gauss_jordan(a, rhs_rows)
    if expected is None:
        with pytest.raises(SingularSystem):
            solve_columns(a, rhs_rows)
    else:
        assert solve_columns(a, rhs_rows) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12),
       beta=st.sampled_from([F(0), F(1, 2), F(99, 100)]), data=st.data())
def test_solve_columns_on_chain_systems(seed, n, beta, data):
    """I - beta P for the chain a drawn pair induces on a generated game:
    sparse rows, so most Bareiss steps leave most rows untouched."""
    game = generate_game(GeneratorConfig(
        states=n, actions_per_state=(1, 3), transitions_per_action=(1, 4),
        reward_bound=9, denominator_bound=6, max_states_fraction=F(1, 2), seed=seed))
    pair = StrategyPair(*(
        PositionalStrategy(player, {s: data.draw(st.sampled_from(game.available_actions[s]))
                                    for s in game.states_of(player)})
        for player in (MAX, MIN)))
    chain = induced_chain(game, pair)
    a = [[int(i == j) - beta * p for j, p in enumerate(row)]
         for i, row in enumerate(chain.matrix)]
    rhs_rows = [[r, 1] for r in chain.rewards]
    assert_matches_gauss_jordan(a, rhs_rows)


@st.composite
def sparse_systems(draw):
    """An n x n matrix (6 <= n <= 10) with at least 70% zero entries and
    n x m right-hand sides (1 <= m <= 3).  Rows 0 and 1 agree in their first
    two columns up to a factor, and row 2 is 0 in column 0 but not in column
    1.  So row 1 is divided by the first pivot and then drops out of column
    1, while row 2 is left stale by the first step and becomes the second
    pivot row through a swap with row 1.  Every other row gets a nonzero in
    a column of its own, so most draws are regular; about half of them then
    lose a whole column and are singular."""
    n = draw(st.integers(6, 10))
    m = draw(st.integers(1, 3))
    nonzero = st.one_of(st.integers(-9, 9).filter(bool), rationals.filter(bool))
    a = [[0] * n for _ in range(n)]
    a[0][0] = draw(st.sampled_from([-3, -2, 2, 3, 5]))
    a[0][1] = draw(st.one_of(st.just(0), nonzero))
    factor = draw(nonzero)
    a[1][0], a[1][1] = factor * a[0][0], factor * a[0][1]
    a[2][1] = draw(nonzero)
    columns = draw(st.permutations(range(2, n)))
    for i, j in zip([1, *range(3, n)], columns):
        a[i][j] = draw(nonzero)
    free = [(i, j) for i in range(n) for j in range(n) if a[i][j] == 0 and (i > 2 or j > 1)]
    budget = (3 * n * n) // 10 - sum(x != 0 for row in a for x in row)
    for i, j in draw(st.lists(st.sampled_from(free), max_size=budget, unique=True)):
        a[i][j] = draw(nonzero)
    if draw(st.booleans()):
        gone = draw(st.integers(2, n - 1))
        for row in a:
            row[gone] = 0
    rhs_rows = [[draw(mixed_entries) for _ in range(m)] for _ in range(n)]
    return a, rhs_rows


@settings(max_examples=300, deadline=None)
@given(system=sparse_systems())
def test_solve_columns_on_sparse_systems(system):
    a, rhs_rows = system
    assert sum(x == 0 for row in a for x in row) >= 0.7 * len(a) ** 2
    assert_matches_gauss_jordan(a, rhs_rows)


def test_stale_row_swapped_in_as_pivot_row():
    # row 2 skips the first step; after it, row 1 is 0 in column 1, so row 2
    # is swapped in as the second pivot row and must first be scaled by the
    # first pivot, 2
    a = [[2, 1, 0, 0],
         [4, 2, 1, 0],
         [0, 3, 0, 1],
         [0, 0, 1, 1]]
    x = [F(1), F(-2), F(1, 3), F(5)]
    b = [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)]
    assert solve(a, b) == x


def test_sparse_singular_system_raises():
    # rows 2 and 3 are proportional, and both are still stale when the
    # elimination reaches column 2
    a = [[1, 0, 1, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 1],
         [0, 0, 2, 2]]
    with pytest.raises(SingularSystem):
        solve_columns(a, [[1], [1], [1], [1]])

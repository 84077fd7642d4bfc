"""Exact rational linear solves from integer rows."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smpg import linalg
from smpg.errors import SingularSystem
from smpg.game import MAX, MIN, PositionalStrategy, StrategyPair, induced_chain
from smpg.generate import GeneratorConfig, generate_game
from smpg.linalg import solve_columns, solve_scaled

# the entries of rational rows with denominators up to 6, scaled to integers
small = st.integers(min_value=-60, max_value=60)


def solve(a, b):
    """solve_columns for a single right-hand side; a list of Fractions."""
    return [x for x, in solve_columns(a, [[entry] for entry in b])]


def test_known_2x2():
    a = [[2, 1], [1, 3]]
    b = [5, 10]
    assert solve(a, b) == [F(1), F(3)]


def test_known_3x3_with_fractions():
    # the rows [1/2, 0, 1/2], [1, -1, 0] and [0, 1/3, 2/3] times 8, 5 and 30,
    # which makes b = A x integral as well
    a = [
        [4, 0, 4],
        [5, -5, 0],
        [0, 10, 20],
    ]
    x = [F(3), F(-2, 5), F(7, 4)]
    b = [19, 17, 31]
    assert [sum(row[j] * x[j] for j in range(3)) for row in a] == b
    assert solve(a, b) == x


def test_identity_returns_rhs():
    a = [[1, 0], [0, 1]]
    assert solve(a, [-7, 4]) == [F(-7), F(4)]
    # x = (-7/3, 4) with its first row times 3
    assert solve([[3, 0], [0, 1]], [-7, 4]) == [F(-7, 3), F(4)]


def test_multiple_right_hand_sides():
    # row i of the result carries entry i of each solution, mirroring the
    # row-wise right-hand-side layout
    a = [[2, 0], [0, 4]]
    rhs_rows = [[2, 8], [6, 0]]
    assert solve_columns(a, rhs_rows) == [[F(1), F(4)], [F(3, 2), F(0)]]


def test_singular_matrix_raises():
    a = [[1, 2], [2, 4]]
    with pytest.raises(SingularSystem):
        solve(a, [1, 1])


def test_zero_pivot_needs_row_swap():
    a = [[0, 1], [1, 0]]
    assert solve(a, [2, 3]) == [F(3), F(2)]


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(small, min_size=9, max_size=9),
    b=st.lists(small, min_size=3, max_size=3),
)
def test_solution_reconstructs_rhs(entries, b):
    a = [entries[0:3], entries[3:6], entries[6:9]]
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


mixed_entries = st.one_of(st.just(0), st.integers(-1000, 1000), small,
                          st.integers(-10**40, 10**40))


@st.composite
def systems(draw):
    """An n x n matrix (n <= 6) and n x m right-hand sides (1 <= m <= 3) of
    integer entries, small and large.  For n >= 2 the first rows start with a
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


@st.composite
def chain_systems(draw):
    """I - beta P for the chain a drawn pair induces on a generated game:
    sparse rows, so most Bareiss steps leave most rows untouched."""
    n = draw(st.integers(1, 12))
    beta = draw(st.sampled_from([F(0), F(1, 2), F(99, 100)]))
    game = generate_game(GeneratorConfig(
        states=n, actions_per_state=(1, 3), transitions_per_action=(1, 4),
        reward_bound=9, denominator_bound=6, max_states_fraction=F(1, 2),
        seed=draw(st.integers(0, 10**6))))
    pair = StrategyPair(*(
        PositionalStrategy(player, {s: draw(st.sampled_from(game.available_actions[s]))
                                    for s in game.states_of(player)})
        for player in (MAX, MIN)))
    chain = induced_chain(game, pair)
    # as discounted_values builds it: row i of I - beta P times c den_i and
    # times the denominator of t = (c - b) den_i r_i, beta being b/c
    b, c = beta.numerator, beta.denominator
    a = []
    rhs_rows = []
    for i, ((den, entries), r) in enumerate(zip(chain.rows, chain.rewards)):
        t = (c - b) * den * r
        row = [0] * n
        for j, num in entries:
            row[j] = -b * num * t.denominator
        row[i] += c * den * t.denominator
        a.append(row)
        rhs_rows.append([t.numerator, c * den * t.denominator])
    return a, rhs_rows


@settings(max_examples=60, deadline=None)
@given(system=chain_systems())
def test_solve_columns_on_chain_systems(system):
    assert_matches_gauss_jordan(*system)


@settings(max_examples=60, deadline=None)
@given(system=chain_systems(), data=st.data())
def test_symmetric_permutation_permutes_the_solution(system, data):
    """Renumbering the unknowns, rows alike, renumbers the solution: each
    row is written back to its caller's index whatever order it was
    eliminated in."""
    a, rhs_rows = system
    p = data.draw(st.permutations(range(len(a))))
    x = solve_columns(a, rhs_rows)
    permuted = [[a[i][j] for j in p] for i in p]
    assert solve_columns(permuted, [rhs_rows[i] for i in p]) == [x[i] for i in p]


@st.composite
def sparse_systems(draw):
    """An n x n matrix (6 <= n <= 10) with at least 70% zero entries and
    n x m right-hand sides (1 <= m <= 3).  Rows 0 and 1 agree in their first
    two columns up to a factor, and row 2 is 0 in column 0 but not in column
    1.  In the natural order row 1 would be divided by the first pivot and
    drop out of column 1, and row 2, left stale by the first step, would be
    swapped in as the second pivot row; the degree order moves the unknowns,
    so only some draws still take that path, and the two hand-written stale
    row tests pin it.  Every other row gets a nonzero in a column of its
    own, so most draws are regular; about half of them then lose a whole
    column and are singular."""
    n = draw(st.integers(6, 10))
    m = draw(st.integers(1, 3))
    nonzero = st.one_of(st.integers(-9, 9).filter(bool), small.filter(bool))
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
    # by degree the unknowns go 0, 2, 3, 1; rows 2 and 3 skip the first
    # step, and row 2 is 0 in column 2, so row 3 is swapped in as the
    # second pivot row and must first be scaled by the first pivot, 2;
    # rows 1 and 3 are times 3, so that b = A x is integral
    a = [[2, 1, 0, 0],
         [12, 6, 3, 0],
         [0, 3, 0, 1],
         [0, 0, 3, 3]]
    x = [F(1), F(-2), F(1, 3), F(5)]
    b = [0, 1, -1, 16]
    assert [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)] == b
    assert solve(a, b) == x


def test_stale_pivot_row_is_caught_up():
    # the degrees are 3, 3, 4 and 4, so the unknowns go in their own order;
    # row 2 is swapped in as the first pivot row, 2, and rows 0 and 1 skip
    # that step; row 0 is then swapped in as the second pivot row and must
    # first be scaled by 2, or row 3's update divides -1 by 2
    a = [[0, -1, 0, 0],
         [0, 0, 0, 1],
         [2, 0, 1, 0],
         [1, 2, 1, 0]]
    x = [F(2), F(-2), F(1), F(3)]
    b = [2, 3, 5, -1]
    assert [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)] == b
    assert solve(a, b) == x


def test_sparse_singular_system_raises():
    # rows 2 and 3 are proportional, and both are still stale when the
    # elimination reaches them
    a = [[1, 0, 1, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 1],
         [0, 0, 2, 2]]
    with pytest.raises(SingularSystem):
        solve_columns(a, [[1], [1], [1], [1]])


def test_singular_system_names_the_callers_column():
    # an arrow matrix whose leaf rows 3 and 4 are proportional; by degree
    # the unknowns go 1, 2, 3, 4, 0, so the elimination runs out of pivots
    # at its step 3, which is unknown 4
    a = [[5, 1, 1, 1, 1],
         [1, 3, 0, 0, 0],
         [1, 0, 3, 0, 0],
         [1, 0, 0, 2, 2],
         [2, 0, 0, 4, 4]]
    with pytest.raises(SingularSystem) as raised:
        solve(a, [1, 1, 1, 1, 1])
    assert raised.value.payload == {"size": 5, "column": 4}
    assert str(raised.value) == "singular 5x5 system at column 4"


def test_hub_is_eliminated_last(monkeypatch):
    """An 8 x 8 arrow matrix: a dense row 0 and column 0 (the hub) and the
    diagonal.  Eliminated first, as in the natural order, the hub fills the
    whole matrix (176 divisions).  Fewest nonzeros first leaves it for last:
    each of the 7 leaf steps updates only the hub row (35 divisions), the
    leaf rows 2 to 7 catch up when they become pivot rows (33), and
    back-substitution divides once per unknown (8)."""
    n = 8
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[0][i] = i + 1
        a[i][0] = 2 * i + 1
        a[i][i] = 3 * i + 5
    b = list(range(1, n + 1))
    calls = 0

    def counting(x, y):
        nonlocal calls
        calls += 1
        return divmod(x, y)

    # the module global shadows the builtin inside linalg
    monkeypatch.setattr(linalg, "divmod", counting, raising=False)
    got = solve(a, b)
    assert calls == 35 + 33 + 8
    assert [[x] for x in got] == gauss_jordan(a, [[x] for x in b])


@settings(max_examples=300, deadline=None)
@given(system=systems())
def test_solve_scaled_matches_gauss_jordan(system):
    """solve_scaled returns det > 0 and integers y with y / det the solution,
    row i in the caller's order, whatever the sign of the last Bareiss pivot."""
    a, rhs_rows = system
    expected = gauss_jordan(a, rhs_rows)
    if expected is None:
        with pytest.raises(SingularSystem):
            solve_scaled(a, rhs_rows)
        return
    det, y = solve_scaled(a, rhs_rows)
    assert type(det) is int and det > 0
    assert all(type(e) is int for row in y for e in row)
    assert [[F(e, det) for e in row] for row in y] == expected


def test_solve_scaled_flips_a_negative_determinant():
    # Bareiss ends on the pivot (2 * -3 - 1 * 1) / 1 = -7; det is 7, and
    # y = 7 x with x = (1, 1)
    a = [[2, 1], [1, -3]]
    assert solve_scaled(a, [[3], [-2]]) == (7, [[7], [7]])
    assert solve_columns(a, [[3], [-2]]) == [[F(1)], [F(1)]]


def test_solve_scaled_of_an_empty_system():
    assert solve_scaled([], []) == (1, [])
    assert solve_columns([], []) == []

"""Exact linear solves over the rationals, from integer rows.

The matrix and the right-hand sides are integers; callers scale each row by
the denominators it reads before they hand it over.  The rows are eliminated
with Bareiss one-step fraction-free pivoting, then back-substituted in
integers.  Intermediate entries stay integers (they are minors of the
augmented matrix), and so does y = det * x, by Cramer's rule, where det is
the last Bareiss pivot.

The unknowns are eliminated in a static fill-reducing order, fewest
nonzeros in their row and column first (Markowitz 1957), and each row and
column moves with its unknown.  A symmetric permutation P turns A x = b
into (P A P^T)(P x) = P b, a system with the same unique solution read in
another order; the Bareiss quotients are then minors of the permuted
matrix, integers as before (Bareiss 1968).  So every order gives the same
output, and the order only decides how much fill the elimination makes: a
dense row and column eliminated first fill the whole matrix, eliminated
last they fill nothing.

The elimination scales rows lazily.  A Bareiss step multiplies a row whose
entry in the pivot column is 0 by pivot / previous pivot and changes it in
no other way, and a run of such steps telescopes into one ratio (Bareiss
1968).  So such a row is left as it is, together with the pivot it was last
divided by; when it is next updated, that pivot is the divisor, and when it
becomes a pivot row it is first brought up to date.  Every quotient is then
the same minor as in the plain elimination, so the results do not change.

Every division is an exact integer division, checked as such, so a rational
entry that is not an integer ends in InexactDivision or in the exact answer,
never in a wrong one.  ``solve_scaled`` is the one elimination and returns
the integers (det, y); ``solve_columns`` is its Fraction view, each entry
built once as y / det.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import InexactDivision, SingularSystem


def _inexact(where: str) -> InexactDivision:
    return InexactDivision(f"{where} division left a remainder", where=where)


def solve_scaled(matrix, rhs_rows):
    """Solve A x = b for every right-hand-side column at once, in integers.

    ``matrix`` is an n x n sequence of integer rows, ``rhs_rows`` an n x m
    sequence of integer rows whose row i holds the i-th entry of each of the
    m right-hand sides.  Returns (det, y) with det > 0 and y an n x m list of
    integers, row i in the caller's order, such that x = y / det.  Raises
    SingularSystem, naming the caller's column.

    The unknowns are eliminated fewest nonzeros first: unknown i counts the
    nonzeros in row i plus those in column i, and ties go by index.  Row i
    moves with unknown i, so the system solved is P A P^T (P x) = P b for a
    permutation P.  Its solution is P x, and x is unique, so writing each
    row back to its caller's index gives the same output in every order.
    """
    n = len(matrix)
    if n == 0:
        return 1, []
    m = len(rhs_rows[0])
    natural = list(range(n))
    order = natural
    if n > 2:  # on one or two unknowns every order does the same work
        # nonzeros in row i plus nonzeros in column i
        degree = [2 * n - row.count(0) for row in matrix]
        for j, column in enumerate(zip(*matrix)):
            degree[j] -= column.count(0)
        order = sorted(natural, key=degree.__getitem__)
    if order == natural:
        aug = [[*matrix[i], *rhs_rows[i]] for i in natural]
    else:
        pick = itemgetter(*order)
        aug = [[*pick(matrix[i]), *rhs_rows[i]] for i in order]

    # since[r] is the pivot row r was last divided by; the Bareiss row is
    # aug[r] * prev / since[r]
    since = [1] * n
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystem(f"singular {n}x{n} system at column {order[col]}",
                                 size=n, column=order[col])
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            since[col], since[pivot_row] = since[pivot_row], since[col]
        top = aug[col]
        stale = since[col]
        if stale != prev:
            for c in range(col, n + m):
                q, rem = divmod(top[c] * prev, stale)
                if rem:
                    raise _inexact("Bareiss catch-up")
                top[c] = q
        pivot = top[col]
        for r in range(col + 1, n):
            row = aug[r]
            factor = row[col]
            if factor == 0:
                continue
            last = since[r]
            for c in range(col + 1, n + m):
                q, rem = divmod(pivot * row[c] - factor * top[c], last)
                if rem:
                    raise _inexact("Bareiss")
                row[c] = q
            row[col] = 0
            since[r] = pivot
        prev = pivot

    # back-substitute y = det * x, which is integral, with det > 0
    det = abs(prev)
    y = [[0] * m for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = aug[i]
        for k in range(m):
            acc = det * row[n + k]
            for j in range(i + 1, n):
                if row[j]:
                    acc -= row[j] * y[j][k]
            q, rem = divmod(acc, row[i])
            if rem:
                raise _inexact("back-substitution")
            y[i][k] = q
    out = [None] * n
    for i, y_row in zip(order, y):
        out[i] = y_row
    return det, out


def solve_columns(matrix, rhs_rows):
    """The Fraction view of solve_scaled: an n x m list with x = y / det."""
    det, y = solve_scaled(matrix, rhs_rows)
    return [[Fraction(entry, det) for entry in y_row] for y_row in y]

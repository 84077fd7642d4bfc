"""Exact linear solves over the rationals, from integer rows.

The matrix and the right-hand sides are integers; callers scale each row by
the denominators it reads before they hand it over.  The rows are eliminated
with Bareiss one-step fraction-free pivoting, then back-substituted in
integers.  Intermediate entries stay integers (they are minors of the
augmented matrix), and so does y = det * x, by Cramer's rule, where det is
the last Bareiss pivot.

The elimination scales rows lazily.  A Bareiss step multiplies a row whose
entry in the pivot column is 0 by pivot / previous pivot and changes it in
no other way, and a run of such steps telescopes into one ratio (Bareiss
1968).  So such a row is left as it is, together with the pivot it was last
divided by; when it is next updated, that pivot is the divisor, and when it
becomes a pivot row it is first brought up to date.  Every quotient is then
the same minor as in the plain elimination, so the results do not change.

Every division is an exact integer division, checked as such, so a rational
entry that is not an integer ends in InexactDivision or in the exact answer,
never in a wrong one.  Fractions appear only in the output: each entry is built
once as y / det.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InexactDivision, SingularSystem


def _inexact(where: str) -> InexactDivision:
    return InexactDivision(f"{where} division left a remainder", where=where)


def solve_columns(matrix, rhs_rows):
    """Solve A x = b for every right-hand-side column at once.

    ``matrix`` is an n x n sequence of integer rows, ``rhs_rows`` an n x m
    sequence of integer rows whose row i holds the i-th entry of each of the
    m right-hand sides.  Returns an n x m list of Fractions.  Raises
    SingularSystem.
    """
    n = len(matrix)
    if n == 0:
        return []
    m = len(rhs_rows[0])
    aug = [[*matrix[i], *rhs_rows[i]] for i in range(n)]

    # since[r] is the pivot row r was last divided by; the Bareiss row is
    # aug[r] * prev / since[r]
    since = [1] * n
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystem(f"singular {n}x{n} system at column {col}", size=n)
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

    # back-substitute y = det * x, which is integral
    det = prev
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
    return [[Fraction(entry, det) for entry in y_row] for y_row in y]


def solve(matrix, rhs):
    """Solve A x = b for a single right-hand side; returns a list of Fractions."""
    cols = solve_columns(matrix, [[b] for b in rhs])
    return [row[0] for row in cols]

"""Independent oracle: the breadth-first symmetrizer over fractions.

Each connected component starts at its smallest node with d = 1; a
neighbour j of a reached node i gets d[j] = d[i]·a_ij/a_ji as an exact
fraction.  A component with a negative entry has no positive
symmetrizer; otherwise it is scaled to minimal positive integers, and
the identity d[i]·a_ij = d[j]·a_ji is checked on every pair at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

NOT_SYMMETRIZABLE = "matrix is not symmetrizable"


class InvalidCartanMatrixError(Exception):
    """No symmetrizer exists; named like the library's error so that tests
    compare the two by class name and message."""


def symmetrizer(rows) -> tuple[int, ...]:
    """Minimal positive integers d with d[i]·rows[i][j] == d[j]·rows[j][i],
    per connected component, for square integer rows."""
    n = len(rows)
    d: list = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        comp = [start]
        for i in comp:  # grows while it is read
            for j in range(n):
                # a one-sided zero leaves j to the check below
                if j != i and rows[i][j] and rows[j][i] and d[j] is None:
                    d[j] = d[i] * Fraction(rows[i][j], rows[j][i])
                    comp.append(j)
        if any(d[i] < 0 for i in comp):
            raise InvalidCartanMatrixError(NOT_SYMMETRIZABLE)
        scale = lcm(*(d[i].denominator for i in comp))
        g = gcd(*(int(d[i] * scale) for i in comp))
        for i in comp:
            d[i] = int(d[i] * scale) // g
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise InvalidCartanMatrixError(NOT_SYMMETRIZABLE)
    return tuple(d)

"""Independent oracle: the classical series A, B, C and D at any rank.

The counts are closed forms (Bourbaki, *Lie Groups and Lie Algebras*,
ch. VI, Plates I–IV): A_l, B_l, C_l and D_l have l(l+1)/2, l², l² and
l(l−1) positive roots, and dual Coxeter numbers l+1, 2l−1, l+1 and 2l−2.
The highest root's coordinates (the marks) are closed forms too, and the
Cartan matrices, finite and affine, are read off the Euclidean simple
roots in ``ambient`` with the negated highest root appended as the
attached node.
"""

from __future__ import annotations

from fractions import Fraction

import ambient

SERIES = {"A": 1, "B": 2, "C": 2, "D": 4}  # the least rank of each series


def positive_root_count(series: str, rank: int) -> int:
    l = rank
    return {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1)}[series]


def dual_coxeter(series: str, rank: int) -> int:
    l = rank
    return {"A": l + 1, "B": 2 * l - 1, "C": l + 1, "D": 2 * l - 2}[series]


def marks(series: str, rank: int) -> tuple[int, ...]:
    """The highest root over the simple roots, Bourbaki order."""
    l = rank
    return {
        "A": (1,) * l,
        "B": (1,) + (2,) * (l - 1),
        "C": (2,) * (l - 1) + (1,),
        "D": (1,) + (2,) * (l - 3) + (1, 1),
    }[series]


def cartan_rows(series: str, rank: int, affine: bool) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) = 2(α_i, α_j)/(α_j, α_j), as ``ambient.cartan_entry``
    reads it, off one table of inner products; an affine matrix appends
    the negated highest root as its last simple root."""
    simple = ambient.simple_roots(series, rank)
    assert all(x.denominator == 1 for root in simple for x in root)  # A–D have integer coordinates
    simple = [tuple(int(x) for x in root) for root in simple]
    if affine:
        theta = [sum(c * root[k] for c, root in zip(marks(series, rank), simple)) for k in range(len(simple[0]))]
        simple.append(tuple(-x for x in theta))
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple] for a in simple]
    entries = [[Fraction(2 * x, gram[j][j]) for j, x in enumerate(row)] for row in gram]
    assert all(x.denominator == 1 for row in entries for x in row)
    return tuple(tuple(int(x) for x in row) for row in entries)

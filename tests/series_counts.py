"""Independent oracle: element counts per length from generating functions.

The count of group elements of each length is the coefficient sequence of
a product of geometric factors determined by the classical exponent
tables.  Nothing here touches the library; the polynomial arithmetic is
plain lists of ints.
"""

from __future__ import annotations

EXPONENTS = {
    ("A", 1): (1,),
    ("A", 2): (1, 2),
    ("A", 3): (1, 2, 3),
    ("A", 4): (1, 2, 3, 4),
    ("A", 5): (1, 2, 3, 4, 5),
    ("A", 6): (1, 2, 3, 4, 5, 6),
    ("A", 7): (1, 2, 3, 4, 5, 6, 7),
    ("A", 8): (1, 2, 3, 4, 5, 6, 7, 8),
    ("A", 9): (1, 2, 3, 4, 5, 6, 7, 8, 9),
    ("B", 2): (1, 3),
    ("B", 3): (1, 3, 5),
    ("B", 4): (1, 3, 5, 7),
    ("B", 5): (1, 3, 5, 7, 9),
    ("B", 6): (1, 3, 5, 7, 9, 11),
    ("B", 7): (1, 3, 5, 7, 9, 11, 13),
    ("B", 8): (1, 3, 5, 7, 9, 11, 13, 15),
    ("B", 9): (1, 3, 5, 7, 9, 11, 13, 15, 17),
    ("C", 2): (1, 3),
    ("C", 3): (1, 3, 5),
    ("C", 4): (1, 3, 5, 7),
    ("C", 5): (1, 3, 5, 7, 9),
    ("C", 6): (1, 3, 5, 7, 9, 11),
    ("C", 7): (1, 3, 5, 7, 9, 11, 13),
    ("C", 8): (1, 3, 5, 7, 9, 11, 13, 15),
    ("C", 9): (1, 3, 5, 7, 9, 11, 13, 15, 17),
    ("D", 4): (1, 3, 5, 3),
    ("D", 5): (1, 3, 5, 7, 4),
    ("D", 6): (1, 3, 5, 7, 9, 5),
    ("D", 7): (1, 3, 5, 7, 9, 11, 6),
    ("D", 8): (1, 3, 5, 7, 9, 11, 13, 7),
    ("D", 9): (1, 3, 5, 7, 9, 11, 13, 15, 8),
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def _mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0 or i > cap:
            continue
        for j, y in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += x * y
    return out


def _geometric(step: int, cap: int) -> list[int]:
    """Coefficients of 1 / (1 - t**step) up to degree cap."""
    out = [0] * (cap + 1)
    for k in range(0, cap + 1, step):
        out[k] = 1
    return out


def _finite_factor(m: int, cap: int) -> list[int]:
    """Coefficients of 1 + t + ... + t**m up to degree cap."""
    return [1 if k <= m else 0 for k in range(cap + 1)]


def finite_counts(series: str, rank: int, cap: int) -> list[int]:
    """Element count per length for the finite group, up to degree cap."""
    poly = [1] + [0] * cap
    for m in EXPONENTS[(series, rank)]:
        poly = _mul(poly, _finite_factor(m, cap), cap)
    return poly


def affine_counts(series: str, rank: int, cap: int) -> list[int]:
    """Element count per length for the affine group, up to degree cap.

    The affine generating function is the finite one times a geometric
    factor per exponent.
    """
    poly = finite_counts(series, rank, cap)
    for m in EXPONENTS[(series, rank)]:
        poly = _mul(poly, _geometric(m, cap), cap)
    return poly


def finite_order(series: str, rank: int) -> int:
    """Total group order: product of (exponent + 1)."""
    out = 1
    for m in EXPONENTS[(series, rank)]:
        out *= m + 1
    return out

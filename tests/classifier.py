"""Independent oracle: the linear-scan classifier.

The catalog holds one Cartan matrix per finite and untwisted affine
isomorphism class of rank at most 9, built from the Euclidean root
realizations in ``ambient``: entry (i, j) is 2(α_i, α_j)/(α_j, α_j), and
the affine matrix appends the negated highest root as its last simple
root.  ``classify`` scans the whole catalog, and each candidate of the
same size and entry multiset is tested for permutation equivalence by
backtracking over nodes of equal signature.

The catalog names every type of at most 9 nodes, so the oracle is exact on
such inputs (and on the catalog's own rows); ``NO_MATCH`` is worded as the
library words it, for types of at most 25 nodes.
"""

from __future__ import annotations

from functools import lru_cache

import ambient

SERIES = {"A": (1, 9), "B": (2, 9), "C": (3, 9), "D": (4, 9), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
NO_MATCH = "matrix matches no finite or untwisted affine type of at most 25 nodes"


class ClassificationError(Exception):
    """Nothing in the catalog matches; named like the library's error so
    that tests compare the two by class name and message."""


def _cartan_matrix(simple) -> tuple[tuple[int, ...], ...]:
    n = len(simple)
    entries = [[ambient.cartan_entry(simple, i, j) for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in entries for x in row)
    return tuple(tuple(int(x) for x in row) for row in entries)


@lru_cache(maxsize=None)
def catalog() -> tuple[tuple[str, int, bool, tuple[tuple[int, ...], ...]], ...]:
    """(series, rank, affine, rows) per class, in series then rank order;
    the rank-2 B/C class is B2."""
    out = []
    for series, (lo, hi) in SERIES.items():
        for rank in range(lo, hi + 1):
            simple = ambient.simple_roots(series, rank)
            coords = ambient.highest_root_coords(series, rank)
            theta = [sum(c * root[k] for c, root in zip(coords, simple)) for k in range(len(simple[0]))]
            out.append((series, rank, False, _cartan_matrix(simple)))
            out.append((series, rank, True, _cartan_matrix(simple + [tuple(-x for x in theta)])))
    return tuple(out)


def _signature(rows, i: int):
    n = len(rows)
    return tuple(sorted((rows[i][j], rows[j][i]) for j in range(n) if j != i and rows[i][j] != 0))


def _isomorphic(a, b) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    sig_a = [_signature(a, i) for i in range(n)]
    sig_b = [_signature(b, i) for i in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    order = sorted(range(n), key=lambda i: (sig_a.count(sig_a[i]), i))
    image: list[int | None] = [None] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i]:
                continue
            if any(a[i][ii] != b[j][image[ii]] or a[ii][i] != b[image[ii]][j] for ii in order[:k]):
                continue
            image[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            image[i] = None
            used[j] = False
        return False

    return extend(0)


def classify(rows) -> tuple[str, int, bool]:
    """(series, rank, affine) of the first catalog entry isomorphic to the
    rows; ClassificationError when there is none."""
    rows = tuple(tuple(row) for row in rows)
    flat = sorted(x for row in rows for x in row)
    for series, rank, affine, entries in catalog():
        if len(entries) != len(rows):
            continue
        if sorted(x for row in entries for x in row) != flat:
            continue
        if _isomorphic(rows, entries):
            return series, rank, affine
    raise ClassificationError(NO_MATCH)

"""Independent oracle: the canonical reduced word of an action matrix.

Rows of a Cartan matrix and an action matrix are plain tuples of ints,
and nothing here touches the library.  Column j of the action matrix M
of w is w·α_j in simple-root coordinates, so its column sums are the
heights ht(w·α_j), and j is a right descent of w exactly when that
height is negative (Humphreys, *Reflection Groups and Coxeter Groups*
§5.4).  The canonical word ends in the smallest right descent i and
continues leftward with the canonical word of w·s_i, whose matrix is
M·S_i: since s_i·α_j = α_j - a_ji·α_i, column j of M·S_i is column j of
M less a_ji times column i.
"""

from __future__ import annotations


def _times_reflection(matrix, entries, i: int) -> list[list[int]]:
    """M·S_i for the 0-based node i: column j less a_ji times column i."""
    return [[x - entries[j][i] * row[i] for j, x in enumerate(row)] for row in matrix]


def canonical_word(entries, matrix, max_length: int) -> tuple[int, ...] | None:
    """The 1-based canonical word of the element with this action matrix:
    strip the smallest right descent, read from the column sums, until
    none is left, then rebuild the word's matrix and compare.  None when
    the rebuilt matrix differs or more than ``max_length`` letters would
    be stripped."""
    n = len(entries)
    current = [list(row) for row in matrix]
    letters: list[int] = []
    while True:
        heights = [sum(col) for col in zip(*current)]
        descent = next((i for i, h in enumerate(heights) if h < 0), None)
        if descent is None:
            break
        if len(letters) == max_length:
            return None
        current = _times_reflection(current, entries, descent)
        letters.append(descent + 1)
    word = tuple(reversed(letters))
    rebuilt = [[int(r == c) for c in range(n)] for r in range(n)]
    for i in word:
        rebuilt = _times_reflection(rebuilt, entries, i - 1)
    return word if rebuilt == [list(row) for row in matrix] else None

"""Independent oracle: the batched quotient walk, and canonical words
rebuilt from its parent links.

The walk reads a Cartan matrix as plain rows of integers and imports
nothing from the library.  Its widths times the Levi's length series give
the size of every ball, and its exact witness rule decides every element,
so it checks the closed forms the library uses instead of a search.
"""

import numpy as np


def levels(entries, max_length: int, omitted: tuple[int, ...]):
    """Yield (length, heights, parent, letter, rows, origin) by level.

    The walks for all the 0-based ``omitted`` nodes run as one.  For
    omitted node c the walk keeps only the elements u with no left descent
    among the other nodes Θ (the inverses of the minimal coset
    representatives W^Θ).  ``heights`` holds h_j = ht(u·α_j) and ``rows``
    the coefficient of α_c in u·α_j (row c of the action matrix), which
    takes the same update as the heights: right multiplication by s_i
    maps x to x - x_i·A[:, i].  Element k is u·s_i for u = element
    ``parent[k]`` of the previous level and the 0-based i = ``letter[k]``
    (None at length 0), kept when i is the smallest right descent of u·s_i
    (a test on the Dynkin edges at i), so each element comes once, in
    shortlex order of its canonical word.  The child u·s_i is dropped
    when u·α_i is a simple root of Θ, that is when h_i == 1 and its
    α_c-coefficient is 0: then u·s_i = s_j·u leaves the set (Deodhar's
    lemma).  The set is closed under removing a last letter, so the
    canonical tree restricted to it reaches all of it.  ``origin`` holds
    each element's index into ``omitted``; a level lists the elements of
    each origin in turn, each in the order of that node's walk alone.

    The witness rule on these rows is exact: w = u⁻¹ permutes the simple
    roots of Θ and sends α_c negative exactly when u ≠ e and h_j == 1,
    g_j == 0 for every j ≠ c (g the α_c-row).  A root of height 1 is
    simple and g_j == 0 says it is not α_c, so u maps Θ's simple roots
    injectively into themselves, and so permutes them; a non-identity u
    has a left descent, which can only be c, so w·α_c is negative.
    Conversely a witness permutes Θ's simple roots, so u does, and w ≠ e.
    """
    n = len(entries)
    a_t = np.array(entries, dtype=np.int64).T  # row i is column i of the matrix
    edges = [(j, i, int(entries[j][i])) for i in range(n) for j in range(i) if entries[j][i]]
    rows = np.arange(n) == np.array(omitted)[:, None]
    state = np.stack([np.ones_like(rows), rows], axis=1).astype(np.int64)  # heights, α_c-row
    parent = letter = None
    origin = np.arange(len(omitted))
    for length in range(max_length + 1):
        heights, rows = state[:, 0], state[:, 1]
        yield length, heights, parent, letter, rows, origin
        if length == max_length:
            return
        negative = heights < 0
        # i is the smallest right descent of u·s_i when h_i > 0 and every j < i
        # with h_j < 0 is a neighbour with h_j + h_i·|a_ji| ≥ 0
        blocking = np.cumsum(negative, axis=1)
        for j, i, a in edges:
            blocking[:, i] -= negative[:, j] & (heights[:, j] >= heights[:, i] * a)
        keep = (blocking == 0) & (heights > 0) & ((heights != 1) | (rows != 0))
        parent, letter = np.nonzero(keep)
        if parent.shape[0] == 0:
            return
        state = state[parent] - a_t[letter][:, None, :] * state[parent, :, letter][:, :, None]
        origin = origin[parent]


def with_words(levels):
    """Turn each (length, heights, parent, letter, rows, origin) level of
    ``levels`` into (length, heights, words, rows, origin), where
    ``words`` is an int8 array of shape (count, length) holding the
    1-based canonical reduced words: a parent's word plus the letter."""
    words = None
    for length, heights, parent, letter, rows, origin in levels:
        if parent is None:
            words = np.zeros((heights.shape[0], 0), dtype=np.int8)
        else:
            words = np.concatenate([words[parent], (letter + 1).astype(np.int8)[:, None]], axis=1)
        yield length, heights, words, rows, origin

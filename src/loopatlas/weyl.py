"""Reflection group machinery over the simple-root basis.

Elements act on root vectors through exact integer matrices whose columns
are the images of the simple roots.  Words multiply left to right: the
word (i, j) means the reflection at node i composed after ... applied
first.  Concretely ``from_word(cm, (i, j))`` acts as the node-i reflection
applied to the image under the node-j reflection reading right to left;
its action matrix is the product S_i S_j.

The reflection S_i differs from the identity only in row i, so the matrix
of a word differs from the identity only in the rows of its letters:
``_matrix`` builds those rows and shares the rest, one tuple of identity
rows per size (``_unit_rows``, a fact-store entry).

Every word is read off the height vector h_j = ht(w·α_j), the column sums
of the action matrix.  Right multiplication by s_i maps h to
h - h_i·A[:, i] and lengthens w exactly when h_i > 0 (Humphreys,
*Reflection Groups and Coxeter Groups* §5.4); like each row of the
matrix, h changes only at i and its Dynkin neighbours.  That step,
h_j -= h_i·a_ji over the pairs ``_moves`` lists for i, is written out
where it runs, in ``_reduce`` and ``_longest``.  The canonical word of w
ends in its smallest right descent, the first i with h_i < 0, and
continues leftward with the canonical word of w·s_i (a normal form in
the sense of Björner–Brenti, *Combinatorics of Coxeter Groups* ch. 3).
So the word operations reduce first and build once: ``from_word`` reads
the letters once and ``inverse`` and ``compose`` take the stored words
as they are; each steps h from all ones through the letters, strips the
canonical word off h and builds the action matrix from that word alone;
``reduce_word`` builds no matrix at all.

``enumerate_elements`` is the one walk: level by level it keeps w·s_i
only when i is its smallest right descent, a test on h and the Dynkin
edges at i, so every element comes out once, with no deduplication.
A row of w·s_i depends only on the row of w and on i, so the walk keeps
each distinct row once, steps a new one over ``_moves`` in Python ints as
``_matrix`` does, and moves row ids, not matrices.
Counting needs no walk: ``ball_sizes`` reads the Poincaré series
(``_length_series``), which the certificates in ``parabolic`` sum too
(``_ball_size``).

An element is a ``WeylElement``, a ``NamedTuple`` of (ambient, word,
matrix), checked where it is made, as a ``CartanMatrix`` is: its
constructor, ``_make`` (so ``_replace``), copies and pickles read the word
like an input word and refuse a matrix that is not the matrix of that
word, or a word that is not reduced.  The library builds its own elements
(the walk, ``_element``, ``_longest_element``) with ``tuple.__new__`` and
pays nothing for the check, and every reader trusts the stored word and
matrix.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add
from typing import Iterator, NamedTuple

from . import cartan
from .cartan import CartanMatrix
from .errors import EntryOverflowError, InvalidSubsetError, LoopAtlasError, MixedAmbientError

Coords = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class _ElementFields(NamedTuple):
    ambient: CartanMatrix
    word: tuple[int, ...]
    matrix: Matrix


class WeylElement(_ElementFields):
    """Group element: reduced word plus exact action matrix.  Checked
    where it is made, in this order: the ambient, the letters as an input
    word's, the matrix (a tuple of row tuples equal to the word's) and the
    word reduced; it stores the word as a tuple of ints and the matrix it
    built, so its identity rows are the shared ones.  The word is
    canonical except on ``longest_element`` results, so compare elements
    by matrix, not by tuple equality.  A row may be one object shared with
    other elements: the identity rows, and every row within one
    ``enumerate_elements`` walk.  The library builds every element with
    ``tuple.__new__``."""

    __slots__ = ()
    _make = classmethod(cartan._make_checked)

    def __new__(cls, ambient, word, matrix):
        cm = cartan._ambient(ambient)
        moves = _moves(cm)
        letters = _letters(word, cm.size)
        built = _matrix(moves, letters)
        if not (type(matrix) is tuple and all(type(r) is tuple for r in matrix) and matrix == built):
            raise InvalidSubsetError(f"stored matrix is not the matrix of the word {tuple(letters)}")
        if len(_reduce(moves, letters)) != len(letters):
            raise InvalidSubsetError(f"stored word {tuple(letters)} is not reduced")
        return tuple.__new__(cls, (cm, tuple(letters), built))

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        letters = ".".join(str(i) for i in self.word) or "e"
        return f"WeylElement({letters})"


def identity(cm: CartanMatrix) -> WeylElement:
    return from_word(cm, ())


def act(w: WeylElement, beta: Coords) -> Coords:
    """Image of an integer vector in simple-root coordinates."""
    beta = cartan._vector(cartan._ambient(w, WeylElement), beta)
    return tuple(sum(row[c] * beta[c] for c in range(len(beta))) for row in w.matrix)


@cartan._memo
def _moves(cm: CartanMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each 0-based node i, the pairs (c, a_ci) with a_ci != 0: the
    reflection at i changes coordinate i and those of its Dynkin
    neighbours only."""
    columns = zip(*cm.entries)
    return tuple(tuple((c, a) for c, a in enumerate(col) if a) for col in columns)


@cartan._memo
def _unit_rows(n: int) -> Matrix:
    """The rows of the n × n identity, one tuple shared by every matrix of
    that size."""
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _matrix(moves, letters) -> Matrix:
    """Action matrix of a sequence of valid letters, right-multiplying the
    identity by each reflection in turn (``moves`` is ``_moves(cm)``).
    Only the rows of nodes that occur as letters move; each becomes a list
    when its node first occurs, and every other row is the shared
    identity row."""
    rows = list(_unit_rows(len(moves)))
    moving: list[list[int]] = []
    for i in letters:
        k = i - 1
        if type(rows[k]) is tuple:
            rows[k] = row = list(rows[k])
            moving.append(row)
        move = moves[k]
        for row in moving:
            pivot = row[k]
            if pivot:
                for c, a in move:
                    row[c] -= pivot * a
    return tuple(map(tuple, rows))  # tuple() of a tuple is that tuple: identity rows stay shared


def _letters(word, n: int):
    """The letters of a word, read once: each an integer in 1..n.  A plain
    tuple of valid letters is returned as it is, any other word as a list;
    a bad letter sends every letter through ``cartan._check_node``, so the
    first error is the one that check raises."""
    letters = word if type(word) is tuple else list(cartan._items(word, "word"))
    for i in letters:
        if type(i) is not int or not 0 < i <= n:
            return [cartan._check_node(i, n, "letter") for i in letters]
    return letters


def _reduce(moves, letters) -> tuple[int, ...]:
    """Canonical reduced word of a sequence of valid letters, read off its
    height vector in one frame: h steps from all ones through the letters,
    then the smallest right descent (the first c with h_c < 0) is stripped
    until none is left; no matrix is built."""
    n = len(moves)
    h = [1] * n
    for i in letters:
        hi = h[i - 1]
        for j, a in moves[i - 1]:
            h[j] -= hi * a
    stripped: list[int] = []
    while True:
        c = 0
        while c < n and h[c] >= 0:
            c += 1
        if c == n:
            return tuple(reversed(stripped))
        hc = h[c]
        for j, a in moves[c]:
            h[j] -= hc * a
        stripped.append(c + 1)


def _element(cm: CartanMatrix, letters) -> WeylElement:
    """Element of a sequence of valid letters, its matrix built once from
    the canonical word."""
    moves = _moves(cm)
    word = _reduce(moves, letters)
    return tuple.__new__(WeylElement, (cm, word, _matrix(moves, word)))


def from_word(cm: CartanMatrix, word) -> WeylElement:
    """Element of a letter sequence; stores the canonical reduced word and
    builds the matrix from it, not from the input."""
    cm = cartan._ambient(cm)
    return _element(cm, _letters(word, cm.size))


def simple(cm: CartanMatrix, i: int) -> WeylElement:
    return from_word(cm, (i,))


def reduce_word(cm: CartanMatrix, word) -> tuple[int, ...]:
    """Canonical reduced word equal to the given letter sequence, read off
    the height vector alone."""
    cm = cartan._ambient(cm)
    return _reduce(_moves(cm), _letters(word, cm.size))


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """Product acting as w1 after w2."""
    cm = cartan._ambient(w1, WeylElement)
    if cm != cartan._ambient(w2, WeylElement):
        raise MixedAmbientError("cannot compose elements over different ambient matrices")
    return _element(cm, w1.word + w2.word)


def inverse(w: WeylElement) -> WeylElement:
    cm = cartan._ambient(w, WeylElement)
    return _element(cm, w.word[::-1])


def inversions(w: WeylElement) -> tuple[Coords, ...]:
    """Positive (real) root vectors sent negative, sorted by height then
    lexicographically.

    Read off the reduced word s_{i_1}…s_{i_k}: the inversions are the k
    roots s_{i_k}…s_{i_{j+1}}(α_{i_j}), one per letter, so the count always
    equals the length.
    """
    return _inversions(_moves(cartan._ambient(w, WeylElement)), w.word)


def _inversions(moves, word) -> tuple[Coords, ...]:
    """``inversions`` of a reduced word of valid letters: root j is one
    column walk (``_image``) of α_{i_j} through the letters after it, last
    letter last."""
    found = [tuple(_image(moves, word[:j:-1], letter)) for j, letter in enumerate(word)]
    return tuple(sorted(found, key=lambda r: (sum(r), r)))


def _exponents(series: str, rank: int) -> tuple[int, ...]:
    """Exponents of an irreducible finite type: they sum to its number of
    positive roots, and its Poincaré polynomial is the product of the
    factors 1 + q + ... + q^m."""
    if series == "A":
        return tuple(range(1, rank + 1))
    if series in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if series == "D":
        return tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)
    return {
        ("E", 6): (1, 4, 5, 7, 8, 11),
        ("E", 7): (1, 5, 7, 9, 11, 13, 17),
        ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
        ("F", 4): (1, 5, 7, 11),
        ("G", 2): (1, 5),
    }[series, rank]


def _positive_root_count(series: str, rank: int) -> int:
    """Number of positive roots of an irreducible finite type."""
    return sum(_exponents(series, rank))


def _length_series(rows, bound: int) -> tuple[int, ...]:
    """Element counts per length 0..bound of the group of the rows, trailing
    zero levels dropped: its Poincaré series, a product over the diagram's
    components.  A finite component of exponents m_i contributes
    Π_i (1 + q + ... + q^m_i); an affine one contributes Bott's
    W_a(q) = W(q)·Π_i 1/(1 − q^{m_i}), W(q) that of its finite part
    (Bott 1956; Macdonald 1972, "The Poincaré series of a Coxeter group").
    A finite group's series stops at its longest element, whatever the
    bound.  The components are read off the rows, so the affine flag of
    an ambient plays no part; a component of no type the library names
    raises ClassificationError.  After the clip, a series of more than
    ``cartan.MAX_LIST_LENGTH`` counts is refused before it is built."""
    types = cartan._series_types(rows)
    if not any(affine for *_, affine in types):
        # clipped to N, the longest length, since every length up to N
        # occurs: so no trailing level is zero.  A series with an affine
        # factor has no zero coefficient at all.
        bound = min(bound, sum(_positive_root_count(series, rank) for series, rank, _ in types))
    cartan._check_length(bound + 1, f"length series up to length {bound}")
    counts = [1] + [0] * bound
    for series, rank, affine in types:
        for m in _exponents(series, rank):
            # times 1 + q + ... + q^m: a running sum over a window of m + 1
            running = list(accumulate(counts))
            counts = [s - (running[k - m - 1] if k > m else 0) for k, s in enumerate(running)]
            if affine:  # times 1/(1 − q^m): a running sum with stride m
                for k in range(m, bound + 1):
                    counts[k] += counts[k - m]
    return tuple(counts)


@cartan._memo
def _ball_size(rows, bound: int) -> int:
    """Number of elements of length at most ``bound`` of the group of the
    rows: ``_length_series`` summed, stored as one int per (rows, bound)."""
    return sum(_length_series(rows, bound))


def longest_element(cm: CartanMatrix, nodes) -> WeylElement:
    """Longest element of the subgroup generated by the given nodes.

    The node subset must induce a finite system.  The ambient and the
    subset are checked here, and the element is built once per (ambient,
    subset) from the ascent word of ``_longest``, its matrix included.

    The element keeps that ascent word, which certificates publish as
    ``levi_longest_word``.  It is reduced but not canonical for 186 of the
    192 maximal Levis up to rank 8 and for every finite group but A1 and
    A2, so compare longest elements by matrix.
    """
    cm = cartan._ambient(cm)
    return _longest_element(cm, cartan._check_subset(cm, nodes))


@cartan._memo
def _longest_element(cm: CartanMatrix, subset: tuple[int, ...]) -> WeylElement:
    """``longest_element`` of a checked subset."""
    word = _longest(cm, subset)
    return tuple.__new__(WeylElement, (cm, word, _matrix(_moves(cm), word)))


@cartan._memo
def _longest(cm: CartanMatrix, subset: tuple[int, ...]) -> tuple[int, ...]:
    """Ascent word of the longest element of a checked subset's group,
    found once per (ambient, subset); no matrix is built.

    Greedy ascent on the height vector: repeatedly apply the smallest
    in-subset reflection whose simple root is still sent positive
    (h_i > 0).  The resulting length is checked against the count of
    induced positive roots, summed in closed form over the classified
    components.  The library's own subsets come here directly.
    """
    types = cartan._component_types(cm, subset)  # rejects a subset that is not of finite type
    expected = sum(_positive_root_count(series, rank) for series, rank in types)
    moves = _moves(cm)
    h = [1] * cm.size
    letters: list[int] = []
    while True:
        for i in subset:
            if h[i - 1] > 0:
                break
        else:  # no h_i > 0 left on the subset: the longest element is reached
            break
        hi = h[i - 1]
        for j, a in moves[i - 1]:
            h[j] -= hi * a
        letters.append(i)
    if len(letters) != expected:
        raise LoopAtlasError(
            f"longest element search made {len(letters)} steps, expected {expected}"
        )
    return tuple(letters)


def removed_node_image(cm: CartanMatrix, removed: int) -> Coords:
    """Image of one simple root under the longest element of the subgroup
    generated by all the others.

    The coefficient on the removed root is always exactly 1: those
    reflections only ever add multiples of their own simple roots.
    """
    cm = cartan._ambient(cm)
    removed = cartan._check_node(removed, cm.size)
    others = tuple(i for i in cm.nodes if i != removed)
    return _removed_image(cm, _longest(cm, others), removed)


def _image(moves, word, c: int) -> list[int]:
    """w·α_c for the element of a word of valid letters: column c of its
    action matrix, walked from e_c through the word's reflections right to
    left.  Each is the pairing rule of ``roots.reflect`` on one integer
    list, s_k(β)_k = β_k − Σ_j β_j·a_jk over the pairs ``moves`` lists for
    k, so a letter costs O(degree), not O(n)."""
    beta = [0] * len(moves)
    beta[c - 1] = 1
    for i in reversed(word):
        k = i - 1
        value = 0
        for j, a in moves[k]:
            value += beta[j] * a
        beta[k] -= value
    return beta


@cartan._memo
def _removed_image(cm: CartanMatrix, word: tuple[int, ...], removed: int) -> Coords:
    """w0_Θ·α_c for the ascent word of w0_Θ, Θ the nodes other than c =
    ``removed``, read by one column walk (``_image``) once per (ambient,
    word, node); checked to keep coefficient 1 at c and to be positive,
    which, given that 1, is no coefficient below 0."""
    image = tuple(_image(_moves(cm), word, removed))
    if image[removed - 1] != 1:
        raise LoopAtlasError("removed-root coefficient drifted from 1")
    if min(image) < 0:
        raise LoopAtlasError("image of the removed root is not positive")
    return image


# --- breadth-first enumeration -----------------------------------------------


def enumerate_elements(cm: CartanMatrix, max_length: int) -> Iterator[WeylElement]:
    """All elements of length at most max_length, shortest first.

    Within a length, elements stream in ascending order of their matrix
    tuples.  Finite groups are exhausted when levels empty out.  The ambient
    and the bound are checked when this is called, before anything is
    iterated.  Equal rows of the yielded matrices are one tuple, shared by
    the whole walk, so a caller that keeps the elements holds one new
    matrix tuple per element, not one per row.  The matrices are exact;
    only the height vectors are held in int64, and a walk whose next
    level could hold a height past int64 raises EntryOverflowError before
    that level, so every level it yields is whole."""
    return _enumerate(cartan._ambient(cm), cartan._check_bound(max_length, "max_length"))


def _enumerate(cm: CartanMatrix, max_length: int) -> Iterator[WeylElement]:
    """Breadth-first walk by level.  Only the current level is held: for
    each element the ids of its matrix rows (int32), its height vector
    (int64) and its word.  The rows are exact tuples of ints in a table
    local to the walk, each distinct row once.

    Element k of the next level is w·s_i for w = element ``parent[k]`` and
    the 0-based i = ``letter[k]``; each parent's children come in letter
    order, so every element comes out once, with no deduplication.  Each
    row x of M·S_i is x_j − x_i·a_ji, a function of x and i alone, so
    ``step[k, i]``, the id of row k times S_i, is computed once, in Python
    ints over ``_moves`` as ``_matrix`` steps a row, the first time a level
    needs it.  Distinct rows compare as their ranks in tuple order, so a
    level's lexsort reads one rank per row instead of every entry.

    The walk stays lazy a block of 4096 elements at a time.  A block's
    elements are built by one C-level ``map`` of ``tuple.__new__`` over
    the block's words and row tuples, and the next level's words by one
    ``map`` of ``operator.add`` over the parents' words and a per-walk
    list of one-letter suffixes, so no Python code runs per element.

    The heights are the walk's one int64 state.  Column j of M is the real
    root w·α_j, whose entries share one sign, so |h_j| bounds that column
    (Kac, *Infinite-dimensional Lie Algebras* §5.1).  The descent test
    reads h_i·a_ji and the next level's heights are h_j − h_i·a_ji, both at
    most grow·max|h| in size, grow = 1 + max|a_ji|: when that passes int64
    the walk raises before the test rather than wrap."""
    import numpy as np  # here, not at module level: only the walk needs it

    n = cm.size
    int64_max = int(np.iinfo(np.int64).max)
    grow = 1 + max(abs(a) for row in cm.entries for a in row)
    if grow > int64_max:  # not even the matrix itself fits
        raise EntryOverflowError("matrix entries past int64; the walk does not start")
    a_t = np.array(cm.entries, dtype=np.int64).T  # row i is column i of the matrix
    moves = _moves(cm)
    edges = [(j, i, a) for i, move in enumerate(moves) for j, a in move if j < i]
    rows = list(_unit_rows(n))  # row id -> row
    row_ids = {row: k for k, row in enumerate(rows)}
    table = np.fromiter(rows, object, len(rows))
    step = np.full((n, n), -1, dtype=np.int32)  # -1: not needed yet
    suffixes = [(i + 1,) for i in range(n)]  # the one-letter word of 0-based node i
    level, heights, words = np.arange(n, dtype=np.int32)[None], np.ones((1, n), dtype=np.int64), [()]
    for length in range(max_length + 1):
        present = np.flatnonzero(np.bincount(level.ravel())).tolist()  # the ids of the level's rows
        rank = np.empty(len(rows), dtype=np.int32)
        rank[sorted(present, key=rows.__getitem__)] = np.arange(len(present), dtype=np.int32)
        order = np.lexsort(rank[level].T[::-1])
        for start in range(0, len(order), 4096):  # a block at a time, not a whole level of row lists
            block = order[start : start + 4096]
            matrices = map(tuple, table[level[block]].tolist())
            fields = zip(repeat(cm), map(words.__getitem__, block.tolist()), matrices)
            yield from map(tuple.__new__, repeat(WeylElement), fields)
        if length == max_length:
            return
        if grow * int(np.abs(heights).max()) > int64_max:
            raise EntryOverflowError(
                f"level {length + 1} could hold heights past int64; the walk stops at length {length}"
            )
        negative = heights < 0
        # i is the smallest right descent of w·s_i when h_i > 0 and every j < i
        # with h_j < 0 is a neighbour with h_j + h_i·|a_ji| ≥ 0; where h_i > 0,
        # blocking[:, i] counts the j that fail
        blocking = np.cumsum(negative, axis=1, dtype=np.min_scalar_type(n))
        for j, i, a in edges:
            blocking[:, i] -= negative[:, j] & (heights[:, j] >= heights[:, i] * a)
        parent, letter = np.nonzero((blocking == 0) & (heights > 0))
        del negative, blocking, order
        if parent.shape[0] == 0:
            return
        # w·s_i: h_j -= h_i·a_ji, and row k becomes row step[k, i]
        heights = heights[parent] - a_t[letter] * heights[parent, letter][:, None]
        level = level[parent]
        moved = step[level, letter[:, None]]
        e, c = np.nonzero(moved < 0)
        if len(e):  # the (row, letter) pairs met for the first time, in sorted order
            for k, i in sorted(set(zip(level[e, c].tolist(), letter[e].tolist()))):
                row = list(rows[k])
                pivot = row[i]
                for j, a in moves[i]:
                    row[j] -= pivot * a
                step[k, i] = row_ids.setdefault(tuple(row), len(row_ids))
            rows = list(row_ids)
            table = np.fromiter(rows, object, len(rows))
            step = np.vstack([step, np.full((len(rows) - len(step), n), -1, dtype=np.int32)])
            moved = step[level, letter[:, None]]
        level = moved
        last = map(suffixes.__getitem__, letter.tolist())
        words = list(map(add, map(words.__getitem__, parent.tolist()), last))


def ball_sizes(cm: CartanMatrix, max_length: int) -> tuple[int, ...]:
    """Element counts per length up to max_length, trailing zero levels
    dropped: the group's Poincaré series (``_length_series``), in closed
    form on every call and never stored.  Raises ClassificationError when
    a component of the diagram is no type the library names."""
    cm = cartan._ambient(cm)
    return _length_series(cm.entries, cartan._check_bound(max_length, "max_length"))


# empties the whole fact store, for callers that time a cold call
ball_sizes.cache_clear = cartan._fact.cache_clear


def element_to_json(w: WeylElement) -> dict:
    cartan._ambient(w, WeylElement)
    return {"word": list(w.word), "matrix": [list(r) for r in w.matrix], "length": len(w.word)}

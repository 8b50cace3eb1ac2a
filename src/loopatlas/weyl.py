"""Reflection group machinery over the simple-root basis.

Elements act on root vectors through exact integer matrices whose columns
are the images of the simple roots.  Words multiply left to right: the
word (i, j) means the reflection at node i composed after ... applied
first.  Concretely ``from_word(cm, (i, j))`` acts as the node-i reflection
applied to the image under the node-j reflection reading right to left;
its action matrix is the product S_i S_j.

The canonical word of w (what ``word_from_matrix`` extracts) ends in the
smallest right descent i of w, the smallest node with w·α_i negative, and
continues leftward with the canonical word of w·s_i.  The breadth-first
level engine keeps per element only that word and the height vector
h_j = ht(w·α_j), all ones at the identity.  Right multiplication by s_i
maps h to h - h_i·A[:, i] and lengthens w exactly when h_i > 0; keeping
w·s_i only when i is its smallest right descent yields every element
once, from the parent its canonical word names, with no deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import cartan, roots
from .cartan import CartanMatrix
from .errors import InvalidSubsetError, LoopAtlasError, MixedAmbientError

Coords = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_CHUNK = 1 << 12  # parents per expansion step; bounds the (chunk, n, n) scratch array


@dataclass(frozen=True)
class WeylElement:
    """Group element: canonical reduced word plus exact action matrix."""

    ambient: CartanMatrix
    word: tuple[int, ...]
    matrix: Matrix

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        letters = ".".join(str(i) for i in self.word) or "e"
        return f"WeylElement({letters})"


def _identity_rows(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def identity(cm: CartanMatrix) -> WeylElement:
    return WeylElement(ambient=cm, word=(), matrix=_identity_rows(cm.size))


def reflection_matrix(cm: CartanMatrix, i: int) -> Matrix:
    """Action matrix of the node-i reflection; column j holds the image of
    simple root j."""
    i = cartan._check_node(i, cm.size)
    n = cm.size
    rows = [list(r) for r in _identity_rows(n)]
    for j in range(n):
        rows[i - 1][j] -= cm.entries[j][i - 1]
    return tuple(tuple(r) for r in rows)


def reflect(cm: CartanMatrix, beta: Coords, i: int) -> Coords:
    """Image of a root vector under the node-i reflection."""
    value = roots.pairing(cm, beta, i)
    return tuple(b - value if k == i - 1 else b for k, b in enumerate(beta))


def act(w: WeylElement, beta: Coords) -> Coords:
    if len(beta) != w.ambient.size:
        raise InvalidSubsetError(f"vector has {len(beta)} coordinates, ambient has {w.ambient.size}")
    return tuple(sum(row[c] * beta[c] for c in range(len(beta))) for row in w.matrix)


def _multiply_right(cm: CartanMatrix, rows: list[list[int]], i: int) -> None:
    """In-place right multiplication by the node-i reflection."""
    col = i - 1
    acol = [cm.entries[c][col] for c in range(cm.size)]
    for row in rows:
        pivot = row[col]
        if pivot:
            for c in range(cm.size):
                row[c] -= pivot * acol[c]


def _descent(rows: list[list[int]], n: int) -> int | None:
    """Smallest node whose simple root is sent negative, None at identity."""
    for c in range(n):
        if all(rows[r][c] <= 0 for r in range(n)):
            return c + 1
    return None


def _word_from_rows(cm: CartanMatrix, rows: list[list[int]]) -> tuple[int, ...]:
    n = cm.size
    work = [list(r) for r in rows]
    letters: list[int] = []
    guard = 0
    while True:
        i = _descent(work, n)
        if i is None:
            break
        _multiply_right(cm, work, i)
        letters.append(i)
        guard += 1
        if guard > 10_000:
            raise LoopAtlasError("descent extraction did not terminate; matrix is not a group element")
    ident = _identity_rows(n)
    if tuple(tuple(r) for r in work) != ident:
        raise LoopAtlasError("matrix is not an action matrix of this group")
    return tuple(reversed(letters))


def word_from_matrix(cm: CartanMatrix, matrix: Matrix) -> tuple[int, ...]:
    """Canonical reduced word of an action matrix, by descent extraction."""
    return _word_from_rows(cm, [list(r) for r in matrix])


def from_word(cm: CartanMatrix, word) -> WeylElement:
    """Element of a letter sequence; stores the canonical reduced word."""
    n = cm.size
    rows = [list(r) for r in _identity_rows(n)]
    for i in word:
        _multiply_right(cm, rows, cartan._check_node(i, n, "letter"))
    matrix = tuple(tuple(r) for r in rows)
    return WeylElement(ambient=cm, word=_word_from_rows(cm, rows), matrix=matrix)


def simple(cm: CartanMatrix, i: int) -> WeylElement:
    return WeylElement(ambient=cm, word=(i,), matrix=reflection_matrix(cm, i))


def reduce_word(cm: CartanMatrix, word) -> tuple[int, ...]:
    """Canonical reduced word equal to the given letter sequence."""
    return from_word(cm, word).word


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """Product acting as w1 after w2."""
    if w1.ambient != w2.ambient:
        raise MixedAmbientError("cannot compose elements over different ambient matrices")
    n = w1.ambient.size
    a, b = w1.matrix, w2.matrix
    prod = tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )
    return WeylElement(ambient=w1.ambient, word=word_from_matrix(w1.ambient, prod), matrix=prod)


def inverse(w: WeylElement) -> WeylElement:
    return from_word(w.ambient, tuple(reversed(w.word)))


def inversions(w: WeylElement) -> tuple[Coords, ...]:
    """Positive (real) root vectors sent negative, sorted by height then
    lexicographically.

    Read off the reduced word s_{i_1}…s_{i_k}: the inversions are the k
    roots s_{i_k}…s_{i_{j+1}}(α_{i_j}), one per letter, so the count always
    equals the length.
    """
    cm = w.ambient
    found = []
    for j, letter in enumerate(w.word):
        beta = roots.simple_root(cm, letter)
        for later in w.word[j + 1 :]:
            beta = reflect(cm, beta, later)
        found.append(beta)
    return tuple(sorted(found, key=lambda r: (roots.height(r), r)))


def longest_element(cm: CartanMatrix, nodes) -> WeylElement:
    """Longest element of the subgroup generated by the given nodes.

    The node subset must induce a finite system.  Greedy ascent: repeatedly
    apply the smallest in-subset reflection whose simple root is still sent
    positive.  The resulting length is checked against the count of induced
    positive roots.
    """
    subset = cartan._check_subset(cm, nodes)
    if not subset:
        return identity(cm)
    span = roots.roots_in_span(cm, subset)  # validates finiteness
    n = cm.size
    rows = [list(r) for r in _identity_rows(n)]
    letters: list[int] = []
    while True:
        progressed = False
        for i in subset:
            col = i - 1
            if any(rows[r][col] > 0 for r in range(n)) and all(rows[r][col] >= 0 for r in range(n)):
                _multiply_right(cm, rows, i)
                letters.append(i)
                progressed = True
                break
        if not progressed:
            break
    expected = len(span) // 2
    if len(letters) != expected:
        raise LoopAtlasError(
            f"longest element search made {len(letters)} steps, expected {expected}"
        )
    return WeylElement(ambient=cm, word=tuple(letters), matrix=tuple(tuple(r) for r in rows))


def removed_node_image(cm: CartanMatrix, removed: int) -> Coords:
    """Image of one simple root under the longest element of the subgroup
    generated by all the others.

    The coefficient on the removed root is always exactly 1: those
    reflections only ever add multiples of their own simple roots.
    """
    removed = cartan._check_node(removed, cm.size)
    others = tuple(i for i in cm.nodes if i != removed)
    return _removed_image(longest_element(cm, others), removed)


def _removed_image(longest: WeylElement, removed: int) -> Coords:
    """Column ``removed`` of the longest element of the other nodes'
    subgroup, checked to keep coefficient 1 there and to be positive."""
    image = tuple(row[removed - 1] for row in longest.matrix)
    if image[removed - 1] != 1:
        raise LoopAtlasError("removed-root coefficient drifted from 1")
    if not roots.is_positive(image):
        raise LoopAtlasError("image of the removed root is not positive")
    return image


# --- breadth-first level engine --------------------------------------------


def _levels(cm: CartanMatrix, max_length: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (length, heights, words) in breadth-first order.

    ``heights`` is an int64 array of shape (count, n) whose row for w holds
    ht(w·α_j); ``words`` is an int8 array of shape (count, length) holding
    the canonical reduced words.  Each level is in lexicographic order of
    its words, so the stream is shortlex ordered and deterministic.  Only
    the current level is held; parents are expanded in fixed-size chunks.
    """
    if max_length < 0:
        raise InvalidSubsetError(f"max_length must be nonnegative, got {max_length}")
    n = cm.size
    a_t = np.array(cm.entries, dtype=np.int64).T  # row i is column i of the matrix
    nodes = np.arange(n)
    heights = np.ones((1, n), dtype=np.int64)
    words = np.zeros((1, 0), dtype=np.int8)
    for length in range(max_length + 1):
        yield length, heights, words
        if length == max_length:
            return
        next_heights, next_words = [], []
        for lo in range(0, heights.shape[0], _CHUNK):
            h = heights[lo : lo + _CHUNK]
            # child[p, i] holds the heights of w_p·s_i
            child = h[:, None, :] - h[:, :, None] * a_t[None, :, :]
            keep = (h > 0) & ((child < 0).argmax(axis=2) == nodes)
            parent, letter = np.nonzero(keep)
            next_heights.append(child[parent, letter])
            letters = (letter + 1).astype(np.int8)[:, None]
            next_words.append(np.concatenate([words[lo + parent], letters], axis=1))
        heights = np.concatenate(next_heights)
        if heights.shape[0] == 0:
            return
        words = np.concatenate(next_words)


def enumerate_elements(cm: CartanMatrix, max_length: int) -> Iterator[WeylElement]:
    """All elements of length at most max_length, shortest first.

    Within a length, elements stream in ascending order of their matrix
    tuples.  Finite groups are exhausted when levels empty out.
    """
    n = cm.size
    a = np.array(cm.entries, dtype=np.int64)
    for length, heights, words in _levels(cm, max_length):
        batch = np.tile(np.eye(n, dtype=np.int64), (heights.shape[0], 1, 1))
        for k in range(length):
            for g in range(n):
                rows = words[:, k] == g + 1
                batch[rows] -= batch[rows][:, :, g : g + 1] * a[None, None, :, g]
        flat = batch.reshape(batch.shape[0], n * n)
        for r in np.lexsort(flat.T[::-1]):
            matrix = tuple(tuple(row) for row in batch[r].tolist())
            yield WeylElement(ambient=cm, word=tuple(words[r].tolist()), matrix=matrix)


@lru_cache(maxsize=4)
def ball_sizes(cm: CartanMatrix, max_length: int) -> tuple[int, ...]:
    """Element counts per length, mostly a sizing aid for searches."""
    return tuple(heights.shape[0] for _, heights, _ in _levels(cm, max_length))


def element_to_json(w: WeylElement) -> dict:
    return {"word": list(w.word), "matrix": [list(r) for r in w.matrix], "length": w.length}

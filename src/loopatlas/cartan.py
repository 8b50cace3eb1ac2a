"""Integer Cartan matrices for the finite and untwisted affine families.

Entry convention is row-on-column: ``entries[i][j]`` is the value of simple
root ``i`` on simple coroot ``j``, so short columns carry the more negative
entries.  Node numbering is Bourbaki, 1-based at the API surface.  The
attached node of an affine matrix is always the last index.

Types are recognised by the shape of the Dynkin diagram, which names each
candidate type and its node order, and one exact comparison with the
Bourbaki matrix; each distinct input is classified once.  That is the
finite-type test too: a connected matrix is finite exactly when its diagram
is one of A–G (Kac, *Infinite-dimensional Lie Algebras*, §4.8).  Rows the
library built from a type label, Bourbaki's and their affinizations, are
not classified: their type is recorded where they are built (``_BUILT``),
and it is the classifier's answer on them.  One fraction-free (Bareiss)
echelon gives the corank.
Every record of the library is a ``NamedTuple``.  A ``CartanMatrix`` is
checked in ``__new__``, which its ``_make`` (so ``_replace``), copies and
pickles go through too, and its readers trust it.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, update_wrapper
from math import gcd
from typing import NamedTuple

from .errors import (
    ClassificationError,
    InvalidCartanMatrixError,
    InvalidSubsetError,
    TwistedTypeError,
    UnsupportedRankError,
)

Rows = tuple[tuple[int, ...], ...]

# The one size limit on every matrix built or named, for time and memory:
# 25 nodes is ``atlas --max-rank 24``, which runs in under a second.
MAX_NODES = 25

# The one limit on a list whose length is known before it is built
# (``_check_length``).  Its unit cost was measured on E8affine's root slice
# at depth 1,000: 482,240 roots in 0.6-1.2 s at 190 MB peak, about 0.4 KB
# a root, and about 600 MB for the CLI's JSON of them (2-vCPU Xeon,
# Python 3.11.7).  So that slice still answers, and a size that would
# take gigabytes is refused before anything is built.
MAX_LIST_LENGTH = 500_000

# Constructor ranges per series.  C2 is admitted (it is a valid matrix,
# needed for the rank-2 affine family); classify() canonicalizes the rank-2
# B/C isomorphism class to B2.
RANK_RANGE = {
    "A": (1, MAX_NODES),
    "B": (2, MAX_NODES),
    "C": (2, MAX_NODES),
    "D": (4, MAX_NODES),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _make_checked(cls, fields):  # ``_make`` through the check in ``__new__``; ``_replace`` calls it
    return cls(*fields)


class _CartanFields(NamedTuple):
    entries: Rows
    is_affine: bool
    label: str | None = None


class CartanMatrix(_CartanFields):
    """Immutable integer Cartan matrix with its affine flag and label,
    checked where it is made: the rows as ``from_matrix`` checks them,
    stored as tuples of ints, and the flag and label by its type decision
    (``_type``); a given label must name the same class ("C2" on C2 rows).
    The library builds the rows and type it has just checked with
    ``tuple.__new__``, as the walk builds a ``WeylElement``.
    """

    _make = classmethod(_make_checked)

    def __new__(cls, entries, is_affine, label=None):
        rows = _check_gcm_axioms(_read_rows(entries))
        affine = _check_bool(is_affine, "affine flag", InvalidCartanMatrixError)
        kind, found = _type(rows) or (False, None)
        named = None if label is None else parse_type(label)
        if affine != kind or named and (found is None or _type(named.entries) != (kind, found)):
            raise InvalidCartanMatrixError(
                f"label {label!r} and affine flag {affine} do not fit rows of {found or 'no one named type'}"
            )
        return tuple.__new__(cls, (rows, affine, named.label if named else found))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def finite_rank(self) -> int:
        """Rank of the finite part: size for finite, size - 1 for affine."""
        return self.size - 1 if self.is_affine else self.size

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.size + 1))

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def __str__(self) -> str:
        name = self.label or f"{self.size}x{self.size}"
        return f"CartanMatrix({name})"

    # The fact store (``_fact``) hashes its ambient on each hit, and the
    # tuple hash walks all the entries each time: this is the same value,
    # computed once per instance and kept in its ``__dict__``.  String
    # hashes are salted per process, so pickles and copies carry no state:
    # they rebuild the record through ``__new__`` from its fields.
    _hash = None  # a class attribute, not a field

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self.__dict__["_hash"] = tuple.__hash__(self)
        return value

    def __getstate__(self) -> None:
        return None

    def __setattr__(self, name, value):  # the instance dict holds the hash alone
        raise AttributeError(f"cannot assign to {name!r}: a CartanMatrix is immutable")


# Every derived fact lives in one bounded store, keyed on (function,
# arguments); an exception is never stored.  The largest atlas the size
# limit allows (``atlas --max-rank 24``) puts in 5,729 entries and the
# default atlas 1,097 (``COLD_ATLAS_FACTS`` in the CLI tests bounds its
# misses), so 8192 entries hold either whole.
@lru_cache(maxsize=8192)
def _fact(fn, *args, **kwargs):
    return fn(*args, **kwargs)


# Decorator: route fn through the store as a partial, which adds no Python
# frame per hit and keeps fn's name, module, docstring and __wrapped__.
def _memo(fn):
    return update_wrapper(partial(_fact, fn), fn)


# Construction provenance: (series, rank, affine) of the Bourbaki rows that
# ``finite_cartan`` and ``_affinize`` build from a type, recorded as they
# are built, so the classifier never rediscovers a type the library
# already knows.  It sits beside the fact store, not in it, because it is
# no fact derived from the rows but how they were made: clearing or
# evicting the store cannot recover it.  It is exact, for on those rows
# the classifier's answer is the type they were built as; C2 and C2affine
# are left out, as the classifier reports them in the B2 class.  It holds
# at most one entry per named type within the size limit: 194 of the 196.
_BUILT: dict[Rows, tuple[str, int, bool]] = {}


def _check_gcm_axioms(rows: Rows) -> Rows:
    """Square rows within the size limit, which must satisfy the
    generalized Cartan matrix axioms."""
    n = len(rows)
    _check_size(n)
    if n == 0:
        raise InvalidCartanMatrixError("empty matrix")
    for i in range(n):
        if rows[i][i] != 2:
            raise InvalidCartanMatrixError(f"diagonal entry at node {i + 1} is {rows[i][i]}, must be 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise InvalidCartanMatrixError(f"positive off-diagonal entry at ({i + 1},{j + 1})")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise InvalidCartanMatrixError(f"zero pattern not symmetric at ({i + 1},{j + 1})")
    return rows


def _as_int(x) -> int:
    """The one matrix-entry rule: an integer (numpy integers included,
    bools not) or an integral float, which is what JSON gives."""
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    try:
        return _check_int(x, "entry")
    except InvalidSubsetError:
        raise InvalidCartanMatrixError(f"non-integer entry {x!r}") from None


def _read_rows(rows_in) -> Rows:
    """The one reader of raw rows: a square tuple of tuples of ``_as_int``
    entries."""
    try:
        rows = tuple(tuple(map(_as_int, row)) for row in rows_in)
    except TypeError:  # the input or one of its rows is not iterable
        raise InvalidCartanMatrixError("matrix is not a list of rows") from None
    if any(len(row) != len(rows) for row in rows):
        raise InvalidCartanMatrixError("matrix must be square")
    return rows


def _check_size(n: int) -> None:
    """The size limit on a matrix of n nodes."""
    if n > MAX_NODES:
        raise UnsupportedRankError(f"matrices are limited to {MAX_NODES} nodes, got {n}")


def _rows(cm: CartanMatrix | Rows) -> Rows:
    return cm.entries if isinstance(cm, CartanMatrix) else _read_rows(cm)


def symmetrizer(cm: CartanMatrix | Rows) -> tuple[int, ...]:
    """Positive integers d with d[i]*A[i][j] == d[j]*A[j][i], minimal per
    connected component.

    Short roots receive the larger d.  Raises if no such d exists.  Exact
    integer arithmetic, computed once per distinct rows.
    """
    return _symmetrizer(_rows(cm))


@_memo
def _symmetrizer(rows: Rows) -> tuple[int, ...]:
    n = len(rows)
    d = [0] * n  # 0 until the node is reached
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        comp = [start]
        for i in comp:  # grows while it is read: breadth-first over the component
            for j in range(n):
                # a one-sided zero leaves j to the check below
                if j != i and rows[i][j] and rows[j][i] and not d[j]:
                    # the least rescale that makes den divide num; d[j] is then
                    # coprime to it, so the component stays primitive
                    num, den = d[i] * rows[i][j], rows[j][i]
                    scale = abs(den) // gcd(num, den)
                    if scale > 1:
                        for k in comp:
                            d[k] *= scale
                        num *= scale
                    d[j] = num // den
                    comp.append(j)
        # a ratio of opposite signs forces a negative entry, and no scaling mends that
        if any(d[i] < 0 for i in comp):
            raise InvalidCartanMatrixError("matrix is not symmetrizable")
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise InvalidCartanMatrixError("matrix is not symmetrizable")
    return tuple(d)


def _eliminate(rows) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free (Bareiss) row echelon form: (echelon, pivot_cols).

    Rows swap only where the pivot position is zero.  The pivot in row k is
    the minor of the row-swapped input on its first k+1 rows and first k+1
    pivot columns, so each division by the previous pivot is exact
    (Sylvester's identity).
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        top = mat[r]
        for row in mat[r + 1 :]:
            lead = row[c]
            row[c:] = [0] + [(top[c] * x - lead * t) // prev for x, t in zip(row[c + 1 :], top[c + 1 :])]
        prev = top[c]
        pivots.append(c)
    return mat, tuple(pivots)


# --- constructors -----------------------------------------------------------


def _finite_entries(series: str, rank: int) -> list[list[int]]:
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i: int, j: int) -> None:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1

    if series == "A":
        for i in range(1, n):
            chain(i, i + 1)
    elif series == "B":
        for i in range(1, n - 1):
            chain(i, i + 1)
        # last node short: row of the long neighbor sees -2
        a[n - 2][n - 1] = -2
        a[n - 1][n - 2] = -1
    elif series == "C":
        for i in range(1, n - 1):
            chain(i, i + 1)
        # last node long
        a[n - 2][n - 1] = -1
        a[n - 1][n - 2] = -2
    elif series == "D":
        for i in range(1, n - 1):
            chain(i, i + 1)
        chain(n - 2, n)
    elif series == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)):
            chain(i, j)
        if rank >= 7:
            chain(6, 7)
        if rank == 8:
            chain(7, 8)
    elif series == "F":
        chain(1, 2)
        chain(3, 4)
        a[1][2] = -2  # node 3 short
        a[2][1] = -1
    elif series == "G":
        a[0][1] = -1  # node 1 short
        a[1][0] = -3
    return a


def finite_cartan(series: str, rank: int) -> CartanMatrix:
    """Bourbaki Cartan matrix of the given finite series and rank."""
    if not isinstance(series, str) or series not in RANK_RANGE:
        raise InvalidCartanMatrixError(f"unknown series {series!r}")
    rank = _check_int(rank, "rank")
    lo, hi = RANK_RANGE[series]
    if not lo <= rank <= hi:
        raise UnsupportedRankError(f"series {series} supports ranks {lo}..{hi}, got {rank}")
    rows = tuple(tuple(row) for row in _finite_entries(series, rank))
    if series != "C" or rank != 2:
        _BUILT[rows] = series, rank, False
    return tuple.__new__(CartanMatrix, (rows, False, f"{series}{rank}"))


def affinize(cm: CartanMatrix) -> CartanMatrix:
    """Untwisted affinization: append the attached node as index l+1.

    The new row is the negative of the highest root evaluated on each simple
    coroot; the new column is the negative of each simple root evaluated on
    the highest-root coroot (comark expansion).  Kept in the fact store, so
    classification reuses the matrices ``all_types`` built.

    The result A is checked by products, with no elimination: v = (marks, 1)
    and u = (comarks, 1) must be positive integer vectors with v·A = 0 and
    A·u = 0.  A satisfies the generalized Cartan matrix axioms, its finite
    part is irreducible, and a_{l+1,l+1} = 2 with either product zero at the
    new node forces an edge to it, so A is indecomposable.  By Kac,
    *Infinite-dimensional Lie Algebras*, Theorem 4.3, a positive null vector
    then makes A affine of corank 1, so u and v span its right and left null
    spaces; ending in 1, each is the primitive positive null vector on its
    side.  So this is the same check as solving for both null vectors and
    comparing them with u and v.
    """
    return _affinize(_ambient(cm, affine=False))


@_memo
def _affinize(cm: CartanMatrix) -> CartanMatrix:
    _check_size(cm.size + 1)
    if cm.label is None:  # flagged finite: reducible, or of no named type
        raise InvalidCartanMatrixError("affinization needs a matrix of one finite type")
    from . import roots  # deferred: roots builds on finite matrices only

    a = roots.marks(cm)
    nv = roots.comarks(cm)
    n = cm.size
    rows = [list(row) + [0] for row in cm.entries]
    border_row = [0] * (n + 1)
    for j in range(n):
        border_row[j] = -sum(a[i] * cm.entries[i][j] for i in range(n))
        rows[j][n] = -sum(nv[i] * cm.entries[j][i] for i in range(n))
    border_row[n] = 2
    rows.append(border_row)
    entries = tuple(tuple(r) for r in rows)
    _check_gcm_axioms(entries)
    v, u = a + (1,), nv + (1,)
    if not _positive_ints(v) or any(sum(x * y for x, y in zip(v, col)) for col in zip(*entries)):
        raise InvalidCartanMatrixError("left null vector does not extend the marks")
    if not _positive_ints(u) or any(sum(x * y for x, y in zip(row, u)) for row in entries):
        raise InvalidCartanMatrixError("right null vector does not extend the comarks")
    if built := _BUILT.get(cm.entries):  # Bourbaki rows: so is their affinization
        _BUILT[entries] = built[0], built[1], True
    return tuple.__new__(CartanMatrix, (entries, True, cm.label + "affine"))


def _positive_ints(vec) -> bool:
    return all(isinstance(x, int) and x > 0 for x in vec)


def from_matrix(rows_in) -> CartanMatrix:
    """Validate symmetrizable raw integer rows of at most ``MAX_NODES``
    nodes (UnsupportedRankError above) as a finite or untwisted affine
    matrix.

    Finite means every component classifies as finite (reducible allowed,
    labelled when connected).  Affine input must be an untwisted
    affinization with the attached node last; anything else is rejected,
    with a distinct error for corank-one (twisted) shapes.
    """
    rows = _check_gcm_axioms(_read_rows(rows_in))
    _symmetrizer(rows)  # refuses non-symmetrizable rows before classification
    found = _type(rows)
    if found is None:  # only a named connected type can be an affinization
        if len(_eliminate(rows)[1]) != len(rows) - 1:
            raise InvalidCartanMatrixError("matrix is neither finite type nor corank one")
        raise TwistedTypeError("corank-one matrix is not an untwisted affinization")
    return tuple.__new__(CartanMatrix, (rows, *found))


def _type(rows: Rows) -> tuple[bool, str | None] | None:
    """The one type decision on checked rows, ``from_matrix``'s and the
    constructor's: the flag and label of one named type (an affine one
    with its attached node last), (False, None) for finite components,
    None for any other rows.  Rows the library built (``_BUILT``) have
    their attached node last by construction, so only other affine rows
    are searched for it (``_affine``)."""
    try:
        types = _series_types(rows)
    except ClassificationError:
        return None
    if len(types) != 1:
        return None if any(affine for *_, affine in types) else (False, None)
    series, rank, affine = types[0]
    if affine and rows not in _BUILT and (at := _affine(rows)[2]) != len(rows) - 1:
        raise InvalidCartanMatrixError(
            f"affine input must list the attached node last; found it at position {at + 1}"
        )
    return affine, f"{series}{rank}{'affine' * affine}"


# --- classification ---------------------------------------------------------

_NO_MATCH = f"matrix matches no finite or untwisted affine type of at most {MAX_NODES} nodes"


@_memo
def _bourbaki(series: str, rank: int, affine: bool) -> Rows:
    """Entries of the Bourbaki matrix of a type, or of its affinization."""
    return _named(series, rank, affine).entries


def _principal(rows, nodes) -> Rows:
    """The rows and columns of ``rows`` at the 0-based ``nodes``, in the
    order given (sorted or not): one ``operator.itemgetter`` picks the rows
    and then each row's entries, all in C.  An ``itemgetter`` of a single
    index returns the entry, not a tuple, so fewer than two nodes take a
    short path of their own."""
    if len(nodes) < 2:
        return tuple((rows[i][i],) for i in nodes)
    pick = operator.itemgetter(*nodes)
    return tuple(map(pick, pick(rows)))


def _finite(rows: Rows, nodes) -> tuple[str, int, list[int]] | None:
    """(series, rank, order) when the rows and columns at ``order``, an
    ordering of the 0-based ``nodes``, are a finite Bourbaki matrix, else
    None.  A connected finite diagram is a path or has three arms at one
    node (Kac, *Infinite-dimensional Lie Algebras*, §4.8), and the shape
    names the candidate orders: a path both ways as A, B, C, F, G (B before
    C keeps the B2 class), arms (1, 1, k) as D and (1, 2, k) as E.  Other
    orders differ by an automorphism of the D or E graph, which fixes the
    matrix; a wrong guess fails its comparison.
    """
    adj = {i: [j for j in nodes if j != i and (rows[i][j] or rows[j][i])] for i in nodes}

    def arm(i, prev):  # the nodes from i away from prev, while the way on is unique
        out = [i]
        while len(step := [j for j in adj[i] if j != prev]) == 1:
            prev, i = i, step[0]
            out.append(i)
        return out

    path = next((arm(i, None) for i in nodes if len(adj[i]) < 2), [])
    forks = [i for i in nodes if len(adj[i]) == 3]
    candidates = [(series, order) for series in "ABCFG" for order in (path, path[::-1])]
    if len(forks) == 1:
        b = forks[0]
        p, q, r = sorted((arm(j, b) for j in adj[b]), key=len)
        candidates += [("D", r[::-1] + [b] + p + q), ("E", [q[-1]] + p + [q[0], b] + r)]
    n = len(adj)
    for series, order in candidates:
        lo, hi = RANK_RANGE[series]
        if len(order) == n and lo <= n <= hi and _principal(rows, order) == _bourbaki(series, n, False):
            return series, n, order
    return None


@_memo
def _affine(rows: Rows) -> tuple[str, int, int] | None:
    """(series, rank, c) when the rows are an untwisted affinization with
    the attached node at the 0-based index c, the largest such c, else
    None.  A finite automorphism fixes the highest root, so one order of
    the rows less c is compared, with c last."""
    n = len(rows)
    for c in range(n - 1, -1, -1):
        found = _finite(rows, [i for i in range(n) if i != c])
        if found and _principal(rows, found[2] + [c]) == _bourbaki(found[0], found[1], True):
            return found[0], found[1], c
    return None


@_memo
def _classified(rows: Rows) -> tuple[str, int, bool]:
    """``classify`` of square rows, once per distinct rows; a
    ClassificationError is raised again on every call, never cached.
    Rows the library built from a type answer with that type, recorded
    where they were built (``_BUILT``): the shape classifier would name
    the same one."""
    if built := _BUILT.get(rows):
        return built
    if len(rows) > MAX_NODES:
        raise ClassificationError(_NO_MATCH)
    if found := _finite(rows, range(len(rows))):
        return found[0], found[1], False
    if found := _affine(rows):
        return found[0], found[1], True
    raise ClassificationError(_NO_MATCH)


def classify(cm: CartanMatrix | Rows) -> tuple[str, int, bool]:
    """(series, rank, affine) of the isomorphism class, Bourbaki labels.

    The rank-2 B/C class reports as ("B", 2, ...).  Raises
    ClassificationError when the rows are no finite or untwisted affine
    type of at most MAX_NODES nodes (for instance reducible input) and
    when the input is not square rows of matrix entries: integers (numpy
    integers included, bools not) or integral floats.
    """
    try:
        rows = _rows(cm)
    except InvalidCartanMatrixError:
        raise ClassificationError(_NO_MATCH) from None
    return _classified(rows)


# --- input gates ------------------------------------------------------------


def _check_int(x, what: str) -> int:
    """An integer (numpy integers included, bools and floats not)."""
    try:
        value = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        value = None
    if value is None:
        raise InvalidSubsetError(f"{what} {x!r} is not an integer")
    return value


def _check_bool(x, what: str, error) -> bool:
    """One flag: a bool, and nothing else read as one."""
    if not isinstance(x, bool):
        raise error(f"{what} {x!r} is not a boolean")
    return x


def _check_node(i, size: int, what: str = "node") -> int:
    """One node or word letter: an integer in 1..size."""
    value = _check_int(i, what)
    if not 1 <= value <= size:
        raise InvalidSubsetError(f"{what} {value} out of range 1..{size}")
    return value


def _check_bound(x, what: str = "search bound") -> int:
    """One length bound: a nonnegative integer."""
    value = _check_int(x, what)
    if value < 0:
        raise InvalidSubsetError(f"{what} must be nonnegative, got {value}")
    return value


def _check_length(length: int, what: str) -> None:
    """The length of a list about to be built: at most MAX_LIST_LENGTH."""
    if length > MAX_LIST_LENGTH:
        raise InvalidSubsetError(f"{what} would hold {length} entries, past the limit of {MAX_LIST_LENGTH}")


# every record class is defined in a module of this package
_PACKAGE_PREFIX = __name__.rpartition(".")[0] + "."


def _items(seq, what: str, ordered: bool = True):
    """An iterator over a node list, word or vector.  A scalar is
    rejected, and so is any of the library's own records: each is a tuple
    of its fields, never a list of items.  A foreign named tuple is a
    tuple like any other and is read as one.  A set or frozenset has no
    order, so it is rejected too, except where ``ordered`` is false: a
    node list is a subset."""
    kind = type(seq)
    if kind is not tuple and (
        issubclass(kind, tuple) and kind.__module__.startswith(_PACKAGE_PREFIX)
        or ordered and issubclass(kind, (set, frozenset))
    ):
        raise InvalidSubsetError(f"{what} {seq!r} is not a sequence")
    try:
        return iter(seq)
    except TypeError:
        raise InvalidSubsetError(f"{what} {seq!r} is not a sequence") from None


def _instance(obj, kind):
    """``obj``, which must be a ``kind``: the gate of every entry point
    that reads one of the library's own records."""
    if not isinstance(obj, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidSubsetError(f"{obj!r} is not {article} {kind.__name__}")
    return obj


def _ambient(obj, kind=None, affine=None) -> CartanMatrix:
    """The ambient matrix a public entry point reads: ``obj`` itself, or,
    given a ``kind``, the ambient of ``obj``, which must be a ``kind``.
    Given ``affine``, the ambient's flag must equal it: the one gate on
    the ambient's kind."""
    if kind is not None:
        obj = _instance(obj, kind).ambient
    if not isinstance(obj, CartanMatrix):
        raise InvalidSubsetError(f"ambient {obj!r} is not a CartanMatrix")
    if affine is not None and obj.is_affine != affine:
        raise InvalidCartanMatrixError(f"ambient {obj} is {'not ' if affine else ''}affine")
    return obj


def _check_subset(cm: CartanMatrix, nodes) -> tuple[int, ...]:
    """Sorted node subset; the input is read once, duplicates rejected."""
    given = tuple(_check_node(i, cm.size) for i in _items(nodes, "node list", ordered=False))
    subset = tuple(sorted(set(given)))
    if len(subset) != len(given):
        raise InvalidSubsetError(f"duplicate nodes in {given!r}")
    return subset


def _subdiagram(cm: CartanMatrix, subset: tuple[int, ...]) -> CartanMatrix:
    """Principal submatrix on a checked node subset, not validated again (a
    principal submatrix of a valid matrix is valid) but typed as by
    ``from_matrix``: an affine type is refused unless its attached node
    comes last."""
    if not subset:
        raise InvalidSubsetError("empty subset has no matrix")
    rows = _principal(cm.entries, [i - 1 for i in subset])
    return tuple.__new__(CartanMatrix, (rows, *(_type(rows) or (False, None))))


def _components(rows: Rows, nodes) -> list[list[int]]:
    """Connected components of the diagram induced on the given sorted
    0-based nodes, each sorted, in order of their smallest node."""
    left = list(nodes)
    out = []
    while left:
        comp = [left.pop(0)]
        for i in comp:  # grows while it is read: breadth-first over the component
            row, rest = rows[i], []
            for j in left:  # one pass: the neighbours of i join comp, the rest stay
                (comp if row[j] else rest).append(j)
            left = rest
        out.append(sorted(comp))
    return out


def components(cm: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """Connected components of the diagram, each sorted, in order of their
    smallest node."""
    cm = _ambient(cm)
    return tuple(tuple(i + 1 for i in comp) for comp in _components(cm.entries, range(cm.size)))


def irreducible(cm: CartanMatrix) -> bool:
    return len(components(cm)) == 1


def component_types(cm: CartanMatrix, nodes) -> tuple[tuple[str, int], ...]:
    """Classified connected components of the induced subdiagram, as a
    sorted tuple of (series, rank) pairs.  Empty subset gives ()."""
    cm = _ambient(cm)
    return _component_types(cm, _check_subset(cm, nodes))


@_memo
def _component_types(cm: CartanMatrix, subset: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
    """``component_types`` of a checked subset, once per (ambient, subset):
    ``_typed_components`` of the ambient's rows at the subset, so no
    submatrix of the whole subset is built, with affine components
    refused, sorted."""
    types = _typed_components(cm.entries, [i - 1 for i in subset])
    if any(affine for *_, affine in types):
        raise InvalidSubsetError("subset spans an affine component")
    return tuple(sorted((series, rank) for series, rank, _ in types))


@_memo
def _series_types(rows: Rows) -> tuple[tuple[str, int, bool], ...]:
    """(series, rank, affine) of each connected component of the rows'
    diagram: ``_typed_components`` over all the nodes, once per distinct
    rows.  Rows the library built from a type are one component of that
    type, recorded where they were built (``_BUILT``), and are not split."""
    if built := _BUILT.get(rows):
        return (built,)
    return _typed_components(rows, range(len(rows)))


def _typed_components(rows: Rows, nodes) -> tuple[tuple[str, int, bool], ...]:
    """The one split-and-classify: (series, rank, affine) of each connected
    component of the diagram induced on the sorted 0-based ``nodes``, in
    order of their smallest node.  Each component's principal submatrix is
    read straight off ``rows`` and classified once per distinct
    submatrix; every component is classified before a caller reads any."""
    return tuple(_classified(_principal(rows, comp)) for comp in _components(rows, nodes))


# --- parsing and serialization ---------------------------------------------


def parse_type(text: str) -> CartanMatrix:
    """Parse a type label like "A2", "E6affine", "C2affine"."""
    return _named(*_parse_label(text))


def _parse_label(text) -> tuple[str, int, bool]:
    """(series, rank, affine) of a type label: the one label reader."""
    s = text.strip() if isinstance(text, str) else ""
    affine = s.endswith("affine")
    s = s.removesuffix("affine")
    if not s or s[0].upper() not in RANK_RANGE or not (s[1:].isascii() and s[1:].isdigit()):
        raise InvalidCartanMatrixError(f"cannot parse type label {text!r}")
    return s[0].upper(), int(s[1:]), affine


def _named(series, rank, affine: bool) -> CartanMatrix:
    """The Bourbaki matrix of a type, or its affinization."""
    cm = finite_cartan(series, rank)
    return _affinize(cm) if affine else cm


def to_json(cm: CartanMatrix) -> dict:
    """A type name for the Bourbaki rows of a labelled type, which
    ``from_json`` rebuilds; the rows themselves otherwise, so a relabelled
    node order reads back in its own numbering."""
    cm = _ambient(cm)
    if cm.label:
        series, rank, affine = _parse_label(cm.label)
        if cm.entries == _bourbaki(series, rank, affine):
            return {"series": series, "rank": rank, "affine": affine}
    return {"matrix": [list(row) for row in cm.entries], "affine": cm.is_affine}


def from_json(obj: dict) -> CartanMatrix:
    """Inverse of ``to_json``: an object with a "matrix", or with a "series"
    and an integer "rank"; "affine", when present, is a boolean, and rows
    given with it are built as ``CartanMatrix(rows, affine)``."""
    if not isinstance(obj, dict):
        raise InvalidCartanMatrixError(f"matrix description {obj!r} is not a JSON object")
    affine = _check_bool(obj.get("affine", False), '"affine"', InvalidCartanMatrixError)
    if "matrix" in obj:
        return CartanMatrix(obj["matrix"], affine) if "affine" in obj else from_matrix(obj["matrix"])
    if "series" not in obj or "rank" not in obj:
        raise InvalidCartanMatrixError('give a "matrix", or a "series" and a "rank"')
    return _named(str(obj["series"]).upper(), obj["rank"], affine)


def all_types(max_rank: int = 8, affine: bool = True) -> tuple[CartanMatrix, ...]:
    """One representative per isomorphism class with finite rank <= max_rank,
    in series then rank order.  C starts at rank 3 (the rank-2 class is B2)."""
    max_rank = _check_int(max_rank, "rank")
    top = MAX_NODES - _check_bool(affine, "affine", InvalidCartanMatrixError)
    if not 1 <= max_rank <= top:
        raise UnsupportedRankError(f"types of at most {MAX_NODES} nodes have ranks 1..{top}, got {max_rank}")
    return tuple(
        _named(series, rank, affine)
        for series, (lo, hi) in RANK_RANGE.items()
        for rank in range(3 if series == "C" else lo, min(hi, max_rank) + 1)
    )

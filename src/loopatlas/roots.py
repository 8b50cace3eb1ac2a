"""Root systems over the simple-root basis, exact integer arithmetic.

A root is a tuple of integer coefficients over the simple roots of its
ambient matrix.  For an affine ambient of finite rank l the tuples have
l + 1 entries and the isotropic generator has coordinate 1 in the last
position.  A root vector is positive exactly when every coordinate is
nonnegative.  The positive roots of a finite matrix, or of a Levi's
span, are built, not searched for: they are the inversion set of the
longest element, one column walk per letter of its reduced word
(``_positive``).
"""

from __future__ import annotations

from typing import NamedTuple

from . import cartan
from .cartan import CartanMatrix
from .errors import InvalidCartanMatrixError, InvalidSubsetError

Coords = tuple[int, ...]


# The public readers below gate their ambient; callers that already hold
# a checked one (``parabolic``'s null-vector test) call the ungated
# helpers and gain no frame per step.


def pairing(cm: CartanMatrix, beta: Coords, j: int) -> int:
    """Value of the root vector on the j-th simple coroot."""
    return _pairing(cartan._ambient(cm), beta, j)


def _pairing(cm: CartanMatrix, beta: Coords, j: int) -> int:
    if len(beta) != cm.size:
        raise InvalidSubsetError(f"vector has {len(beta)} coordinates, ambient has {cm.size}")
    j = cartan._check_node(j, cm.size)
    rows = cm.entries
    return sum(b * rows[i][j - 1] for i, b in enumerate(beta) if b)


def reflect(cm: CartanMatrix, beta: Coords, i: int) -> Coords:
    """Image of a root vector under the node-i reflection."""
    return _reflect(cartan._ambient(cm), beta, i)


def _reflect(cm: CartanMatrix, beta: Coords, i: int) -> Coords:
    value = _pairing(cm, beta, i)
    return tuple(b - value if k == i - 1 else b for k, b in enumerate(beta))


def height(beta: Coords) -> int:
    try:
        return sum(beta)
    except TypeError:
        raise InvalidSubsetError(f"vector {beta!r} is not a sequence of numbers") from None


def is_positive(beta: Coords) -> bool:
    """Whether some entry is above 0 and none is below, read in one pass
    that compares every entry, so a non-number anywhere is refused.  A NaN
    counts as both, so its vector is not positive."""
    up = down = False
    try:
        for b in beta:
            if b > 0:
                up = True
            elif b < 0:
                down = True
            elif b:
                up = down = True
    except TypeError:
        raise InvalidSubsetError(f"vector {beta!r} is not a sequence of numbers") from None
    return up and not down


@cartan._memo
def _positive(cm: CartanMatrix, nodes: tuple[int, ...]) -> tuple[Coords, ...]:
    """Positive roots of the principal submatrix on ``nodes``, in ambient
    coordinates and sorted by height then lexicographically: the inversion
    set of the longest element w0 of that subgroup, which sends exactly
    the positive roots there negative, one per letter of a reduced word
    (Humphreys, Reflection Groups and Coxeter Groups, §1.7 and §5.6).
    ``weyl._longest`` refuses a subset that is not of finite type."""
    from . import weyl  # here, not at module level: weyl imports roots

    return weyl._inversions(weyl._moves(cm), weyl._longest(cm, nodes))


def _signed(positive: tuple[Coords, ...]) -> tuple[Coords, ...]:
    """Negatives then positives, still sorted by height then lexicographically."""
    return tuple(tuple(-b for b in r) for r in reversed(positive)) + positive


def positive_roots(cm: CartanMatrix) -> tuple[Coords, ...]:
    """All positive roots of a finite matrix (``_positive``), sorted by
    height then lexicographically."""
    cm = cartan._ambient(cm, affine=False)
    return _positive(cm, cm.nodes)


def all_roots(cm: CartanMatrix) -> tuple[Coords, ...]:
    return _signed(positive_roots(cm))


# Each memoised fact has a public gate in front of it: the fact store
# hashes its arguments, so the gate must run first.  Callers that hold a
# checked ambient read the private entry directly.


def highest_root(cm: CartanMatrix) -> Coords:
    """Unique maximal root of an irreducible finite matrix.

    It is the unique dominant long root (Humphreys, Introduction to Lie
    Algebras, §10.4), reached by ascent: start from a long simple root
    (smallest symmetrizer entry) and reflect at the first node where the
    pairing is negative, which raises the height, until none is left.
    The pairings of β with the simple coroots are kept as a vector: the
    reflection at i changes them at i and its Dynkin neighbours only.
    """
    return _highest_root(cartan._ambient(cm))


@cartan._memo
def _highest_root(cm: CartanMatrix) -> Coords:
    cartan._ambient(cm, affine=False)
    if len(cartan._series_types(cm.entries)) != 1:
        raise InvalidCartanMatrixError("highest root needs an irreducible matrix")
    rows = cm.entries
    d = cartan.symmetrizer(cm)
    start = d.index(min(d))
    beta = [0] * cm.size
    beta[start] = 1
    values = list(rows[start])  # values[j] is the pairing of β with coroot j
    while True:
        for i, value in enumerate(values):
            if value < 0:
                break
        else:
            return tuple(beta)
        beta[i] -= value
        for j, a in enumerate(rows[i]):
            if a:
                values[j] -= value * a


def marks(cm: CartanMatrix) -> Coords:
    """Coefficients of the highest root over the simple roots."""
    return _highest_root(cartan._ambient(cm))


def comarks(cm: CartanMatrix) -> Coords:
    """Coefficients of the highest-root coroot over the simple coroots.

    The highest root is long, and squared root lengths are proportional to
    the reciprocals of the symmetrizer entries d, so comark i is
    mark i · min(d) / d_i: always an integer, and equal to the mark in the
    simply laced case.
    """
    return _comarks(cartan._ambient(cm))


@cartan._memo
def _comarks(cm: CartanMatrix) -> Coords:
    d = cartan.symmetrizer(cm)
    low = min(d)
    out = []
    for i, a in enumerate(_highest_root(cm)):
        comark, rest = divmod(a * low, d[i])
        if rest or comark <= 0:
            raise InvalidCartanMatrixError(
                f"comark at node {i + 1} is {a * low}/{d[i]}, not a positive integer"
            )
        out.append(comark)
    return tuple(out)


def dual_coxeter(cm: CartanMatrix) -> int:
    """One plus the comark sum of the finite part."""
    return _dual_coxeter(cartan._ambient(cm))


@cartan._memo
def _dual_coxeter(cm: CartanMatrix) -> int:
    return 1 + sum(_comarks(_finite_part(cm) if cm.is_affine else cm))


@cartan._memo
def _finite_part(cm: CartanMatrix) -> CartanMatrix:
    cartan._ambient(cm, affine=True)
    return cartan._subdiagram(cm, cm.nodes[:-1])


def delta(cm: CartanMatrix) -> Coords:
    """Primitive isotropic root vector: (marks, 1)."""
    return _highest_root(_finite_part(cartan._ambient(cm))) + (1,)


def central_coroot(cm: CartanMatrix) -> Coords:
    """Coefficients of the canonical central element over the simple
    coroots: (comarks, 1)."""
    return _central_coroot(cartan._ambient(cm))


@cartan._memo
def _central_coroot(cm: CartanMatrix) -> Coords:
    return _comarks(_finite_part(cm)) + (1,)


class RootSystemData(NamedTuple):
    """Positive-root inventory of a finite irreducible matrix."""

    label: str | None
    positive: tuple[Coords, ...]
    highest: Coords
    marks: Coords
    comarks: Coords
    dual_coxeter: int


def root_system(cm: CartanMatrix) -> RootSystemData:
    cm = cartan._ambient(cm)
    return RootSystemData(
        label=cm.label,
        positive=positive_roots(cm),
        highest=highest_root(cm),
        marks=marks(cm),
        comarks=comarks(cm),
        dual_coxeter=dual_coxeter(cm),
    )


class AffineRootSlice(NamedTuple):
    """Real and isotropic root vectors with level between -depth and depth.

    Isotropic vectors are listed once each; every one carries multiplicity
    ``imaginary_multiplicity`` (the finite rank).
    """

    label: str | None
    depth: int
    real: tuple[Coords, ...]
    imaginary: tuple[Coords, ...]
    imaginary_multiplicity: int


def affine_roots(cm: CartanMatrix, depth: int) -> AffineRootSlice:
    """Slice of the affine root system, organized by level.  Its size is
    checked before anything is built: (2·depth + 1)·|Φ_fin| real roots and
    2·depth isotropic ones, where |Φ_fin| = l·h for the finite rank l and
    the Coxeter number h = ht(θ) + 1, the sum of δ's coefficients
    (Humphreys, *Reflection Groups and Coxeter Groups* §3.18-3.20)."""
    cm = cartan._ambient(cm, affine=True)
    depth = cartan._check_bound(depth, "depth")
    dl = delta(cm)
    size = (2 * depth + 1) * (cm.size - 1) * sum(dl) + 2 * depth
    cartan._check_length(size, f"root slice of depth {depth}")
    fin = _finite_part(cm)
    finite = all_roots(fin)
    real = []
    for k in range(-depth, depth + 1):
        for beta in finite:
            real.append(tuple(b + k * a for b, a in zip(beta, dl[:-1])) + (k,))
    imaginary = tuple(
        tuple(k * a for a in dl) for k in range(-depth, depth + 1) if k != 0
    )
    return AffineRootSlice(
        label=cm.label,
        depth=depth,
        real=tuple(real),
        imaginary=imaginary,
        imaginary_multiplicity=fin.size,
    )


def roots_in_span(cm: CartanMatrix, nodes) -> tuple[Coords, ...]:
    """Ambient root vectors supported on the given simple roots: the roots
    of their principal submatrix (``_positive``), sorted by height then
    lexicographically.  All nodes of an affine matrix span its
    isotropic roots too, so they are rejected."""
    cm = cartan._ambient(cm)
    subset = cartan._check_subset(cm, nodes)
    if len(subset) == cm.size and cm.is_affine:
        raise InvalidSubsetError("span of all nodes is the whole affine system; a proper subset is required")
    return _signed(_positive(cm, subset))


def root_system_to_json(data: RootSystemData) -> dict:
    cartan._instance(data, RootSystemData)
    return {
        "label": data.label,
        "positive_roots": [list(r) for r in data.positive],
        "highest_root": list(data.highest),
        "marks": list(data.marks),
        "comarks": list(data.comarks),
        "dual_coxeter": data.dual_coxeter,
    }


def affine_slice_to_json(data: AffineRootSlice) -> dict:
    cartan._instance(data, AffineRootSlice)
    return {
        "label": data.label,
        "depth": data.depth,
        "real": [list(r) for r in data.real],
        "imaginary": [list(r) for r in data.imaginary],
        "imaginary_multiplicity": data.imaginary_multiplicity,
    }

"""Root systems over the simple-root basis, exact integer arithmetic.

A root is a tuple of integer coefficients over the simple roots of its
ambient matrix.  For an affine ambient of finite rank l the tuples have
l + 1 entries and the isotropic generator has coordinate 1 in the last
position.  A root vector is positive exactly when every coordinate is
nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cartan
from .cartan import CartanMatrix
from .errors import InvalidCartanMatrixError, InvalidSubsetError

Coords = tuple[int, ...]

_HEIGHT_CAP = 1000  # safety valve for the closure and ascent loops


def simple_root(cm: CartanMatrix, i: int) -> Coords:
    i = cartan._check_node(i, cm.size)
    return tuple(1 if k == i - 1 else 0 for k in range(cm.size))


def pairing(cm: CartanMatrix, beta: Coords, j: int) -> int:
    """Value of the root vector on the j-th simple coroot."""
    if len(beta) != cm.size:
        raise InvalidSubsetError(f"vector has {len(beta)} coordinates, ambient has {cm.size}")
    rows = cm.entries
    return sum(b * rows[i][j - 1] for i, b in enumerate(beta) if b)


def height(beta: Coords) -> int:
    return sum(beta)


def is_positive(beta: Coords) -> bool:
    return any(beta) and all(b >= 0 for b in beta)


def is_negative(beta: Coords) -> bool:
    return any(beta) and all(b <= 0 for b in beta)


@lru_cache(maxsize=None)
def positive_roots(cm: CartanMatrix) -> tuple[Coords, ...]:
    """All positive roots of a finite matrix, by string closure from the
    simple roots, sorted by height then lexicographically."""
    if cm.is_affine:
        raise InvalidCartanMatrixError("ambient is affine; use affine_roots")
    n = cm.size
    found: set[Coords] = set()
    level = [simple_root(cm, i) for i in range(1, n + 1)]
    found.update(level)
    h = 1
    while level:
        h += 1
        if h > _HEIGHT_CAP:
            raise InvalidCartanMatrixError("root closure did not terminate; matrix is not finite type")
        nxt: set[Coords] = set()
        for beta in level:
            for i in range(1, n + 1):
                step = simple_root(cm, i)
                down = tuple(b - s for b, s in zip(beta, step))
                p = 0
                while down in found:
                    p += 1
                    down = tuple(b - s for b, s in zip(down, step))
                if p - pairing(cm, beta, i) >= 1:
                    up = tuple(b + s for b, s in zip(beta, step))
                    if up not in found:
                        nxt.add(up)
        found.update(nxt)
        level = sorted(nxt)
    return tuple(sorted(found, key=lambda r: (height(r), r)))


def all_roots(cm: CartanMatrix) -> tuple[Coords, ...]:
    pos = positive_roots(cm)
    return tuple(tuple(-b for b in r) for r in reversed(pos)) + pos


@lru_cache(maxsize=None)
def highest_root(cm: CartanMatrix) -> Coords:
    """Unique maximal root of an irreducible finite matrix.

    It is the unique dominant long root (Humphreys, Introduction to Lie
    Algebras, §10.4), reached by ascent: start from a long simple root
    (smallest symmetrizer entry) and reflect at any node where the
    pairing is negative, which raises the height, until none is left.
    """
    if cm.is_affine:
        raise InvalidCartanMatrixError("ambient is affine; use affine_roots")
    if not cartan.irreducible(cm):
        raise InvalidCartanMatrixError("highest root needs an irreducible matrix")
    d = cartan.symmetrizer(cm)
    beta = simple_root(cm, d.index(min(d)) + 1)
    while (i := next((i for i in cm.nodes if pairing(cm, beta, i) < 0), None)) is not None:
        if height(beta) > _HEIGHT_CAP:
            raise InvalidCartanMatrixError("root ascent did not terminate; matrix is not finite type")
        value = pairing(cm, beta, i)
        beta = tuple(b - value if k == i - 1 else b for k, b in enumerate(beta))
    return beta


def marks(cm: CartanMatrix) -> Coords:
    """Coefficients of the highest root over the simple roots."""
    return highest_root(cm)


@lru_cache(maxsize=None)
def comarks(cm: CartanMatrix) -> Coords:
    """Coefficients of the highest-root coroot over the simple coroots.

    Computed from the symmetrizer: with squared norms proportional to the
    reciprocals of the symmetrizer entries, each coefficient is the mark
    rescaled by the norm ratio to the highest root.  Always integers; equal
    to the marks in the simply laced case.
    """
    a = marks(cm)
    d = cartan.symmetrizer(cm)
    n = cm.size
    gram = [[Fraction(cm.entries[i][j], d[j]) for j in range(n)] for i in range(n)]
    theta_sq = sum(a[i] * a[j] * gram[i][j] for i in range(n) for j in range(n))
    out = []
    for i in range(n):
        val = Fraction(a[i]) * Fraction(2, d[i]) / theta_sq
        if val.denominator != 1 or val <= 0:
            raise InvalidCartanMatrixError(f"comark at node {i + 1} is {val}, not a positive integer")
        out.append(int(val))
    return tuple(out)


def dual_coxeter(cm: CartanMatrix) -> int:
    """One plus the comark sum of the finite part."""
    fin = finite_part(cm) if cm.is_affine else cm
    return 1 + sum(comarks(fin))


@lru_cache(maxsize=None)
def finite_part(cm: CartanMatrix) -> CartanMatrix:
    """Top-left block of an affine matrix, the attached node removed."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("matrix is not affine")
    return cartan.subdiagram(cm, range(1, cm.size))


def delta(cm: CartanMatrix) -> Coords:
    """Primitive isotropic root vector: (marks, 1)."""
    return marks(finite_part(cm)) + (1,)


def central_coroot(cm: CartanMatrix) -> Coords:
    """Coefficients of the canonical central element over the simple
    coroots: (comarks, 1)."""
    return comarks(finite_part(cm)) + (1,)


@dataclass(frozen=True)
class RootSystemData:
    """Positive-root inventory of a finite irreducible matrix."""

    label: str | None
    positive: tuple[Coords, ...]
    highest: Coords
    marks: Coords
    comarks: Coords
    dual_coxeter: int


def root_system(cm: CartanMatrix) -> RootSystemData:
    return RootSystemData(
        label=cm.label,
        positive=positive_roots(cm),
        highest=highest_root(cm),
        marks=marks(cm),
        comarks=comarks(cm),
        dual_coxeter=dual_coxeter(cm),
    )


@dataclass(frozen=True)
class AffineRootSlice:
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
    """Slice of the affine root system, organized by level."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("matrix is not affine")
    if depth < 0:
        raise InvalidSubsetError(f"depth must be nonnegative, got {depth}")
    fin = finite_part(cm)
    finite = all_roots(fin)
    dl = delta(cm)
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


def positive_real_roots(cm: CartanMatrix, depth: int) -> tuple[Coords, ...]:
    """Positive real root vectors with level at most depth, sorted by
    height then lexicographically."""
    slice_ = affine_roots(cm, depth)
    pos = [r for r in slice_.real if is_positive(r)]
    return tuple(sorted(pos, key=lambda r: (height(r), r)))


def roots_in_span(cm: CartanMatrix, nodes) -> tuple[Coords, ...]:
    """Ambient root vectors supported on the given simple roots.

    For a proper subset the induced matrix is finite, the span meets no
    isotropic vector, and the answer is the induced system embedded back
    into ambient coordinates.  Sorted by height then lexicographically.
    """
    subset = cartan._check_subset(cm, nodes)
    if not subset:
        return ()
    if len(subset) == cm.size and cm.is_affine:
        raise InvalidSubsetError("span of all nodes is the whole affine system; a proper subset is required")
    sub = cartan.subdiagram(cm, subset)
    if sub.is_affine:
        raise InvalidSubsetError("subset does not induce a finite system")
    out = []
    for r in all_roots(sub):
        amb = [0] * cm.size
        for c, node in zip(r, subset):
            amb[node - 1] = c
        out.append(tuple(amb))
    return tuple(sorted(out, key=lambda r: (height(r), r)))


def root_system_to_json(data: RootSystemData) -> dict:
    return {
        "label": data.label,
        "positive_roots": [list(r) for r in data.positive],
        "highest_root": list(data.highest),
        "marks": list(data.marks),
        "comarks": list(data.comarks),
        "dual_coxeter": data.dual_coxeter,
    }


def affine_slice_to_json(data: AffineRootSlice) -> dict:
    return {
        "label": data.label,
        "depth": data.depth,
        "real": [list(r) for r in data.real],
        "imaginary": [list(r) for r in data.imaginary],
        "imaginary_multiplicity": data.imaginary_multiplicity,
    }

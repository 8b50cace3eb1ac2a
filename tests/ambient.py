"""Independent oracle: classical root systems in ambient coordinates.

Everything here is built from the textbook Euclidean realizations with
exact Fractions and straight linear algebra, sharing no code or
conventions with the library beyond the Bourbaki node order.  Tests
compare library output against these constructions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

Vec = tuple[Fraction, ...]


def _v(*xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _basis(dim: int, i: int) -> Vec:
    return tuple(Fraction(1 if k == i else 0) for k in range(dim))


def _add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _scale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def simple_roots(series: str, rank: int) -> list[Vec]:
    l = rank
    if series == "A":
        dim = l + 1
        return [_sub(_basis(dim, i), _basis(dim, i + 1)) for i in range(l)]
    if series == "B":
        return [_sub(_basis(l, i), _basis(l, i + 1)) for i in range(l - 1)] + [_basis(l, l - 1)]
    if series == "C":
        return [_sub(_basis(l, i), _basis(l, i + 1)) for i in range(l - 1)] + [
            _scale(2, _basis(l, l - 1))
        ]
    if series == "D":
        return [_sub(_basis(l, i), _basis(l, i + 1)) for i in range(l - 1)] + [
            _add(_basis(l, l - 2), _basis(l, l - 1))
        ]
    if series == "E":
        e8 = _e8_simple_roots()
        return e8[:l]
    if series == "F":
        return [
            _sub(_basis(4, 1), _basis(4, 2)),
            _sub(_basis(4, 2), _basis(4, 3)),
            _basis(4, 3),
            _v("1/2", "-1/2", "-1/2", "-1/2"),
        ]
    if series == "G":
        return [_v(1, -1, 0), _v(-2, 1, 1)]
    raise ValueError(series)


def _e8_simple_roots() -> list[Vec]:
    half = Fraction(1, 2)
    a1 = (half, -half, -half, -half, -half, -half, -half, half)
    a2 = _add(_basis(8, 0), _basis(8, 1))
    chain = [_sub(_basis(8, i + 1), _basis(8, i)) for i in range(6)]  # e_{i+1} - e_i
    return [a1, a2] + chain


def _e8_roots() -> list[Vec]:
    out = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((1, -1), repeat=2):
            out.append(_add(_scale(si, _basis(8, i)), _scale(sj, _basis(8, j))))
    half = Fraction(1, 2)
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.append(tuple(half * s for s in signs))
    assert len(out) == 240
    return out


def all_root_vectors(series: str, rank: int) -> list[Vec]:
    l = rank
    out: list[Vec] = []
    if series == "A":
        dim = l + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    out.append(_sub(_basis(dim, i), _basis(dim, j)))
    elif series == "B":
        for i, j in combinations(range(l), 2):
            for si, sj in product((1, -1), repeat=2):
                out.append(_add(_scale(si, _basis(l, i)), _scale(sj, _basis(l, j))))
        for i in range(l):
            out.append(_basis(l, i))
            out.append(_scale(-1, _basis(l, i)))
    elif series == "C":
        for i, j in combinations(range(l), 2):
            for si, sj in product((1, -1), repeat=2):
                out.append(_add(_scale(si, _basis(l, i)), _scale(sj, _basis(l, j))))
        for i in range(l):
            out.append(_scale(2, _basis(l, i)))
            out.append(_scale(-2, _basis(l, i)))
    elif series == "D":
        for i, j in combinations(range(l), 2):
            for si, sj in product((1, -1), repeat=2):
                out.append(_add(_scale(si, _basis(l, i)), _scale(sj, _basis(l, j))))
    elif series == "E":
        simple = simple_roots("E", rank)
        expand = expander(simple + _completion_basis(simple))
        for r in _e8_roots():
            coeffs = expand(r)
            if coeffs is not None and all(c == 0 for c in coeffs[rank:]):
                out.append(r)
    elif series == "F":
        for i in range(4):
            out.append(_basis(4, i))
            out.append(_scale(-1, _basis(4, i)))
        for i, j in combinations(range(4), 2):
            for si, sj in product((1, -1), repeat=2):
                out.append(_add(_scale(si, _basis(4, i)), _scale(sj, _basis(4, j))))
        half = Fraction(1, 2)
        for signs in product((1, -1), repeat=4):
            out.append(tuple(half * s for s in signs))
    elif series == "G":
        for i, j in ((0, 1), (0, 2), (1, 2)):
            v = _sub(_basis(3, i), _basis(3, j))
            out.append(v)
            out.append(_scale(-1, v))
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            v = _sub(_scale(2, _basis(3, i)), _add(_basis(3, j), _basis(3, k)))
            out.append(v)
            out.append(_scale(-1, v))
    else:
        raise ValueError(series)
    return out


def _completion_basis(vectors: list[Vec]) -> list[Vec]:
    """Standard basis vectors extending the span to full dimension."""
    dim = len(vectors[0])
    chosen: list[Vec] = []
    for i in range(dim):
        cand = vectors + chosen + [_basis(dim, i)]
        if _rank_of(cand) == len(cand):
            chosen.append(_basis(dim, i))
        if len(vectors) + len(chosen) == dim:
            break
    return chosen


def _rank_of(vectors: list[Vec]) -> int:
    mat = [list(v) for v in vectors]
    rows = len(mat)
    if not rows:
        return 0
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if mat[k][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(rows):
            if k != r and mat[k][c] != 0:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return r


def expander(basis: list[Vec]):
    """Coefficients over linearly independent basis vectors, through one
    exact inverse.

    Gauss-Jordan reduces [basis | I] to [R | T] with R = T·basis in
    reduced echelon form.  On the pivot coordinates P, R is the identity,
    so T inverts the square block of the basis on P, and a target t in
    the span has coefficients t[P]·T.  Every expansion is multiplied back
    over all coordinates; a target outside the span gives None.
    """
    k, dim = len(basis), len(basis[0])
    aug = [list(v) + [Fraction(int(i == j)) for j in range(k)] for i, v in enumerate(basis)]
    pivots: list[int] = []
    for c in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, k) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(k):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    assert len(pivots) == k, "basis vectors are linearly dependent"
    inverse = [row[dim:] for row in aug]

    def expand(target: Vec) -> tuple[Fraction, ...] | None:
        given = [(target[p], row) for p, row in zip(pivots, inverse) if target[p]]
        coeffs = tuple(sum((t * row[j] for t, row in given), Fraction(0)) for j in range(k))
        used = [(c, v) for c, v in zip(coeffs, basis) if c]
        back = tuple(sum((c * v[d] for c, v in used), Fraction(0)) for d in range(dim))
        return coeffs if back == tuple(target) else None

    return expand


def expand_over(basis: list[Vec], target: Vec) -> tuple[Fraction, ...] | None:
    """Coefficients of target over linearly independent basis vectors,
    None if it is outside their span."""
    return expander(basis)(target)


def cartan_entry(simple: list[Vec], i: int, j: int) -> Fraction:
    """Value of simple root i on simple coroot j (0-based)."""
    return 2 * dot(simple[i], simple[j]) / dot(simple[j], simple[j])


@lru_cache(maxsize=None)
def root_coords(series: str, rank: int) -> frozenset[tuple[int, ...]]:
    """All roots expanded over the simple roots, as integer tuples; built
    once per type and frozen, since callers share the cached value."""
    expand = expander(simple_roots(series, rank))
    out = set()
    for r in all_root_vectors(series, rank):
        coeffs = expand(r)
        assert coeffs is not None, (series, rank, r)
        assert all(c.denominator == 1 for c in coeffs)
        out.add(tuple(int(c) for c in coeffs))
    return frozenset(out)


def positive_root_coords(series: str, rank: int) -> set[tuple[int, ...]]:
    return {c for c in root_coords(series, rank) if all(x >= 0 for x in c)}


def highest_root_coords(series: str, rank: int) -> tuple[int, ...]:
    pos = positive_root_coords(series, rank)
    return max(pos, key=lambda c: (sum(c), c))


def comark_coords(series: str, rank: int) -> tuple[int, ...]:
    """Expansion of twice the highest root over its squared length, in the
    basis of twice each simple root over its squared length."""
    simple = simple_roots(series, rank)
    theta_coords = highest_root_coords(series, rank)
    theta = tuple(
        sum((Fraction(c) * x for c, x in zip(theta_coords, col)), Fraction(0))
        for col in zip(*simple)
    )
    theta_co = _scale(Fraction(2) / dot(theta, theta), theta)
    co_basis = [_scale(Fraction(2) / dot(a, a), a) for a in simple]
    coeffs = expand_over(co_basis, theta_co)
    assert coeffs is not None
    assert all(c.denominator == 1 and c > 0 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def dual_coxeter_number(series: str, rank: int) -> int:
    return 1 + sum(comark_coords(series, rank))


def reflection_in(root: Vec):
    """Ambient reflection through the hyperplane of the given root."""

    def apply(v: Vec) -> Vec:
        c = 2 * dot(v, root) / dot(root, root)
        return _sub(v, _scale(c, root))

    return apply


def finite_group_elements(series: str, rank: int, limit: int = 200000) -> list[tuple[Vec, ...]]:
    """Whole reflection group, as tuples of simple-root images, by orbit
    closure over the ambient reflections.  Small ranks only."""
    simple = simple_roots(series, rank)
    gens = [reflection_in(a) for a in simple]
    start = tuple(simple)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for images in frontier:
            for gen in gens:
                moved = tuple(gen(v) for v in images)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
                    if len(seen) > limit:
                        raise RuntimeError("group too large for the oracle")
        frontier = nxt
    return sorted(seen)

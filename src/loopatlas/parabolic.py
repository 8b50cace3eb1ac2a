"""Parabolic node subsets, Levi decomposition, and the self-associate test.

A maximal subset omits exactly one node.  Over an affine ambient the test
for a length-preserving witness (an element fixing the subset setwise
while sending the omitted simple root negative) always comes back
negative: such a witness would have to carry the omitted root to a
negative root while adding only multiples of the kept simple roots, and
the certificate records the structural trace of that obstruction.  The
bounded breadth-first search is corroboration, not the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cartan, roots, weyl
from .cartan import CartanMatrix
from .errors import (
    InvalidCartanMatrixError,
    InvalidSubsetError,
    LoopAtlasError,
    MixedAmbientError,
    UnsupportedRankError,
)

Coords = tuple[int, ...]

FINITE_RANK_LIMIT = 6  # full-group verdicts stay cheap below this


@dataclass(frozen=True)
class ParabolicSubset:
    """Proper subset of the nodes of an affine ambient matrix."""

    ambient: CartanMatrix
    nodes: tuple[int, ...]

    @property
    def removed(self) -> tuple[int, ...]:
        return tuple(i for i in self.ambient.nodes if i not in self.nodes)

    @property
    def is_maximal(self) -> bool:
        return len(self.nodes) == self.ambient.size - 1


@dataclass(frozen=True)
class LeviType:
    """Classified connected components of the subset, plus the rank of the
    central torus (number of omitted nodes)."""

    components: tuple[tuple[str, int], ...]
    center_rank: int

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"{s}{r}" for s, r in self.components)


@dataclass(frozen=True)
class AssociateCertificate:
    """Verdict of the self-associate test with its checkable trace.

    ``removed_image`` is the image of the omitted simple root under the
    longest element of the kept nodes; its coefficient on the omitted node
    is exactly 1.  ``null_root`` is the isotropic vector every generator
    fixes (None over a finite ambient).  ``searched`` counts the group
    elements the bounded search actually inspected.
    """

    ambient: CartanMatrix
    theta: tuple[int, ...]
    removed_node: int
    self_associate: bool
    witness: weyl.WeylElement | None
    levi_longest_word: tuple[int, ...]
    removed_image: Coords
    null_root: Coords | None
    search_bound: int
    searched: int


@dataclass(frozen=True)
class ConstantTermReport:
    trivial: bool
    certificate: AssociateCertificate
    levi_matches: tuple[tuple[int, bool], ...]
    reason: str


def parabolic_subset(cm: CartanMatrix, nodes) -> ParabolicSubset:
    """Validated proper subset of an affine ambient."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("parabolic subsets live over an affine ambient")
    subset = cartan._check_subset(cm, nodes)
    if len(subset) >= cm.size:
        raise InvalidSubsetError("subset must be proper")
    return ParabolicSubset(ambient=cm, nodes=subset)


def maximal_parabolics(cm: CartanMatrix) -> tuple[ParabolicSubset, ...]:
    """One maximal subset per omitted node, in node order."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("parabolic subsets live over an affine ambient")
    return tuple(
        ParabolicSubset(ambient=cm, nodes=tuple(j for j in cm.nodes if j != i))
        for i in cm.nodes
    )


def levi_type(p: ParabolicSubset) -> LeviType:
    return LeviType(
        components=cartan.component_types(p.ambient, p.nodes),
        center_rank=p.ambient.size - len(p.nodes),
    )


def associate_necessary(p: ParabolicSubset, q: ParabolicSubset) -> bool:
    """Necessary condition for two subsets to be associate: equal Levi
    component multisets.  Symmetric and reflexive."""
    if p.ambient != q.ambient:
        raise MixedAmbientError("subsets live over different ambient matrices")
    return levi_type(p).components == levi_type(q).components


# --- witness search ---------------------------------------------------------


def _is_witness(matrix: weyl.Matrix, c: int) -> bool:
    """Exact witness test for omitted node c (0-based): every kept column
    is a unit vector off row c, and column c is nonpositive."""
    cols = list(zip(*matrix))
    return max(cols[c]) <= 0 and all(
        sum(col) == 1 == sum(map(abs, col)) and col[c] == 0 for j, col in enumerate(cols) if j != c
    )


def _scan(cm: CartanMatrix, removed: tuple[int, ...], bound: int):
    """Breadth-first witness scan shared by all verdicts over one ambient.

    Returns (searched, hits) where hits maps each omitted 0-based node to
    the list of witness elements found, in search order (shortest first,
    then lexicographic in the canonical word).  A witness sends every kept
    simple root to a simple root, so its height vector is 1 there and
    negative at the omitted node; the few elements passing that test are
    re-checked exactly on their action matrices.
    """
    n = cm.size
    searched = 0
    hits: dict[int, list[weyl.WeylElement]] = {c: [] for c in removed}
    for _length, heights, words in weyl._levels(cm, bound):
        searched += heights.shape[0]
        ones = (heights == 1).sum(axis=1)
        for c in removed:
            rows = np.flatnonzero((ones == n - 1) & (heights[:, c] < 0))
            candidates = (weyl.from_word(cm, words[r].tolist()) for r in rows)
            hits[c].extend(w for w in candidates if _is_witness(w.matrix, c))
    return searched, hits


def _certificate(
    cm: CartanMatrix,
    removed_node: int,
    witness: weyl.WeylElement | None,
    bound: int,
    searched: int,
) -> AssociateCertificate:
    theta = tuple(i for i in cm.nodes if i != removed_node)
    longest = weyl.longest_element(cm, theta)
    image = weyl._removed_image(longest, removed_node)
    null = None
    if cm.is_affine:
        null = roots.delta(cm)
        for i in cm.nodes:
            if weyl.reflect(cm, null, i) != null:
                raise LoopAtlasError("generator moved the isotropic vector")
    return AssociateCertificate(
        ambient=cm,
        theta=theta,
        removed_node=removed_node,
        self_associate=witness is not None,
        witness=witness,
        levi_longest_word=longest.word,
        removed_image=image,
        null_root=null,
        search_bound=bound,
        searched=searched,
    )


def is_self_associate(p: ParabolicSubset, search_bound: int = 16) -> AssociateCertificate:
    """Self-associate verdict for a maximal subset of an affine ambient.

    Always negative: the certificate carries the structural obstruction
    (the removed-root image keeps coefficient 1, every generator fixes the
    isotropic vector, so no group element can send the removed root
    negative while permuting the kept ones).  The bounded search must come
    back empty; a hit would mean a library bug and raises.
    """
    cm = p.ambient
    if not cm.is_affine:
        raise InvalidCartanMatrixError("use finite_self_associate over a finite ambient")
    if not p.is_maximal:
        raise InvalidSubsetError("self-associate verdicts are defined for maximal subsets")
    removed_node = p.removed[0]
    searched, hits = _scan(cm, (removed_node - 1,), search_bound)
    found = hits[removed_node - 1]
    if found:
        raise LoopAtlasError(
            "bounded search found a witness despite the structural obstruction; "
            "this is a bug, please report the ambient matrix"
        )
    return _certificate(cm, removed_node, None, search_bound, searched)


def maximal_certificates(cm: CartanMatrix, search_bound: int = 16) -> tuple[AssociateCertificate, ...]:
    """Certificates for every maximal subset, sharing a single search."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("maximal_certificates runs over an affine ambient")
    removed = tuple(c for c in range(cm.size))
    searched, hits = _scan(cm, removed, search_bound)
    out = []
    for c in removed:
        if hits[c]:
            raise LoopAtlasError(
                "bounded search found a witness despite the structural obstruction; "
                "this is a bug, please report the ambient matrix"
            )
        out.append(_certificate(cm, c + 1, None, search_bound, searched))
    return tuple(out)


def finite_self_associate(
    cm: CartanMatrix, removed_node: int, max_length: int | None = None
) -> AssociateCertificate:
    """Witness search over a finite irreducible ambient, full group by
    default.  Here both verdicts occur; the witness, when present, is the
    one with the least canonical word (lexicographically) among the
    witnesses of the shortest length that has any."""
    if cm.is_affine:
        raise InvalidCartanMatrixError("ambient must be finite")
    if not cartan.irreducible(cm):
        raise InvalidCartanMatrixError("ambient must be irreducible")
    if cm.size > FINITE_RANK_LIMIT:
        raise UnsupportedRankError(
            f"finite verdicts are limited to rank {FINITE_RANK_LIMIT}; got rank {cm.size}"
        )
    removed_node = cartan._check_node(removed_node, cm.size)
    bound = max_length if max_length is not None else len(roots.positive_roots(cm))
    searched, hits = _scan(cm, (removed_node - 1,), bound)
    found = hits[removed_node - 1]
    witness = found[0] if found else None
    return _certificate(cm, removed_node, witness, bound, searched)


@lru_cache(maxsize=64)
def maximal_levi_types(cm: CartanMatrix) -> tuple[LeviType, ...]:
    """Levi type of every maximal subset, in omitted-node order; classified
    once per ambient."""
    return tuple(levi_type(p) for p in maximal_parabolics(cm))


def constant_term_report(cert: AssociateCertificate) -> ConstantTermReport:
    """The constant-term rule on the certificate of a maximal subset: the
    contribution is trivial when the subset is not self-associate and no
    other maximal subset matches its Levi component multiset."""
    levis = maximal_levi_types(cert.ambient)
    mine = levis[cert.removed_node - 1].components
    matches = tuple(
        (q, levis[q - 1].components == mine) for q in cert.ambient.nodes if q != cert.removed_node
    )
    any_match = any(flag for _, flag in matches)
    trivial = not cert.self_associate and not any_match
    if trivial:
        reason = "not self-associate and no other maximal subset shares its Levi type"
    elif cert.self_associate:
        reason = "subset is self-associate"
    else:
        partners = sorted(i for i, flag in matches if flag)
        reason = f"Levi type matches the subsets omitting nodes {partners}"
    return ConstantTermReport(
        trivial=trivial,
        certificate=cert,
        levi_matches=matches,
        reason=reason,
    )


def constant_term_is_trivial(p: ParabolicSubset, search_bound: int = 0) -> ConstantTermReport:
    """Constant-term rule (see ``constant_term_report``) for a maximal
    subset.

    The default search bound is 0 because the verdict rests on the
    structural obstruction; raise it to corroborate by search.
    """
    return constant_term_report(is_self_associate(p, search_bound))


# --- serialization ----------------------------------------------------------


def levi_to_json(lt: LeviType) -> dict:
    return {"components": list(lt.labels), "center_rank": lt.center_rank}


def certificate_to_json(cert: AssociateCertificate) -> dict:
    return {
        "ambient": cartan.to_json(cert.ambient),
        "theta": list(cert.theta),
        "removed_node": cert.removed_node,
        "self_associate": cert.self_associate,
        "witness": weyl.element_to_json(cert.witness) if cert.witness else None,
        "levi_longest_word": list(cert.levi_longest_word),
        "removed_root_image": list(cert.removed_image),
        "null_root": list(cert.null_root) if cert.null_root else None,
        "search_bound": cert.search_bound,
        "searched": cert.searched,
    }

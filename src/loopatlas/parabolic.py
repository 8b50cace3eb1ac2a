"""Parabolic node subsets, Levi decomposition, and the self-associate test.

A maximal subset omits exactly one node.  Over an affine ambient the test
for a length-preserving witness (an element fixing the subset setwise
while sending the omitted simple root negative) always comes back
negative: such a witness would have to carry the omitted root to a
negative root while adding only multiples of the kept simple roots, and
the certificate records the structural trace of that obstruction.  The
bounded search is corroboration, not the proof.

A witness sends every kept simple root to a simple root, so it is a
minimal representative of its coset modulo the kept nodes' subgroup; the
search walks those representatives only (through their inverses, see
``weyl._levels``), a small fraction of the ball, and decides each one
exactly from the heights the walk carries.  The searches for all the
omitted nodes of one ambient run as one batched walk.  The certificate
still reports the size of the whole ball, counted from the walk's level
widths and the Levi's length series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
    fixes (None over a finite ambient).  ``searched`` is the number of
    group elements of length at most ``search_bound``, the ball the search
    covers; it walks only the minimal coset representatives among them.
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


def _certificates(
    cm: CartanMatrix, removed_nodes: tuple[int, ...], bound: int
) -> tuple[AssociateCertificate, ...]:
    """Certificates for the given omitted nodes, from one batched walk.

    A witness w for omitted node c permutes the simple roots of the other
    nodes Θ and sends α_c negative.  It is then a minimal coset
    representative, and the walk (``weyl._levels`` with the omitted
    nodes) runs over the inverses u = w⁻¹ in ^ΘW, yielding the heights
    h_j = ht(u·α_j) and the rows g_j, the α_c-coefficient of u·α_j.  The
    rule is exact: w is a witness exactly when u ≠ e and h_j == 1, g_j == 0
    for every j ≠ c.

    - A root of height 1 is simple, and g_j == 0 means it is not α_c, so
      u maps the simple roots of Θ injectively into themselves; it
      therefore permutes them, and so does w.
    - A non-identity u has a left descent, which in ^ΘW can only be c, so
      w·α_c = u⁻¹·α_c is negative.
    - Conversely a witness w permutes Θ's simple roots, so does u, and
      w ≠ e because it moves α_c.

    The witness is the one with the least canonical word among the
    witnesses of the shortest length that has any; only those are built.

    ``searched`` is the size of the whole ball of radius ``bound``: every
    element factors uniquely as u⁻¹·v with v in the Levi's finite group
    and the lengths add, so the ball holds Σ_k q_k·#{v : ℓ(v) ≤ bound - k}
    elements, q_k counting the walk's level k for that node.
    """
    bound = cartan._check_bound(bound)
    omitted = tuple(i - 1 for i in removed_nodes)
    widths: list[np.ndarray] = []
    found: list[weyl.WeylElement | None] = [None] * len(omitted)
    for length, heights, words, rows, origin in weyl._levels(cm, bound, omitted):
        widths.append(np.bincount(origin, minlength=len(omitted)))
        kept_simple = (heights == 1) & (rows == 0)
        kept_simple[np.arange(len(origin)), np.take(omitted, origin)] = True  # j == c is free
        hits: dict[int, list[weyl.WeylElement]] = {}
        for r in np.flatnonzero(kept_simple.all(axis=1)) if length else ():  # u ≠ e
            k = int(origin[r])
            if found[k] is None:
                hits.setdefault(k, []).append(weyl.from_word(cm, words[r, ::-1].tolist()))
        for k, ws in hits.items():
            found[k] = min(ws, key=lambda w: w.word)
    null = roots.delta(cm) if cm.is_affine else None
    if null is not None and any(weyl.reflect(cm, null, i) != null for i in cm.nodes):
        raise LoopAtlasError("generator moved the isotropic vector")
    out = []
    for k, (removed_node, witness) in enumerate(zip(removed_nodes, found)):
        if null is not None and witness is not None:
            raise LoopAtlasError(
                "bounded search found a witness despite the structural obstruction; "
                "this is a bug, please report the ambient matrix"
            )
        theta = tuple(i for i in cm.nodes if i != removed_node)
        levi = list(accumulate(weyl._length_counts(cartan.component_types(cm, theta), bound)))
        longest = weyl.longest_element(cm, theta)
        out.append(
            AssociateCertificate(
                ambient=cm,
                theta=theta,
                removed_node=removed_node,
                self_associate=witness is not None,
                witness=witness,
                levi_longest_word=longest.word,
                removed_image=weyl._removed_image(longest, removed_node),
                null_root=null,
                search_bound=bound,
                searched=sum(int(q[k]) * levi[bound - j] for j, q in enumerate(widths)),
            )
        )
    return tuple(out)


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
    return _certificates(cm, p.removed, search_bound)[0]


def maximal_certificates(cm: CartanMatrix, search_bound: int = 16) -> tuple[AssociateCertificate, ...]:
    """Certificates for every maximal subset, in omitted-node order.  The
    searches of all omitted nodes share one walk of the minimal coset
    representatives."""
    if not cm.is_affine:
        raise InvalidCartanMatrixError("maximal_certificates runs over an affine ambient")
    return _certificates(cm, cm.nodes, search_bound)


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
    if max_length is None:
        # the longest element's length, the number of positive roots
        max_length = sum(weyl._positive_root_count(*t) for t in cartan.component_types(cm, cm.nodes))
    return _certificates(cm, (removed_node,), max_length)[0]


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

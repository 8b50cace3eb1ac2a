"""Parabolic node subsets, Levi decomposition, and the self-associate test.

A maximal subset Θ omits one node c; a witness is an element permuting
Θ's simple roots while sending α_c negative.  By Howlett (1980,
"Normalizers of parabolic subgroups of reflection groups") and
Brink–Howlett (1999, "Normalizers of parabolic subgroups in Coxeter
groups") every element with w(Θ) = Θ is a product of elementary elements
w0_{Θ∪{α}}·w0_Θ, each existing only when the group of Θ ∪ {α} is finite.
For a maximal Θ the only α is c:

- Finite ambient: the one candidate is w0·w0_Θ, of length N − N_Θ.  It
  sends Θ to σ(Θ), σ the opposition involution (w0·α_j = −α_{σ(j)}), so
  it is the witness exactly when σ(c) = c.  No search is needed.
- Affine ambient: Θ ∪ {c} is the whole diagram, whose group is infinite,
  so no elementary element and no witness exists at any length.  The
  certificate records the structural trace of that obstruction and runs
  no search.

Either way ``search_bound`` is the radius of a ball that ``searched``
counts in closed form, summing the group's Poincaré series
(``weyl._length_series``, which ``weyl.ball_sizes`` reads too): Bott's
formula W_a(q) = W(q)·Π_i 1/(1 − q^{m_i}) over an affine ambient, with
W(q) the Poincaré polynomial of the finite part and m_i its exponents.
A ``ParabolicSubset`` is checked in ``__new__``, as a ``CartanMatrix``
is, and its readers trust it.
"""

from __future__ import annotations

from typing import NamedTuple

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

FINITE_RANK_LIMIT = 6  # the largest rank with finite verdicts; lifting it changes outputs


class _SubsetFields(NamedTuple):
    ambient: CartanMatrix
    nodes: tuple[int, ...]


class ParabolicSubset(_SubsetFields):
    """Proper subset of the nodes of an affine ambient matrix, checked
    where it is made; ``nodes`` is read once, so a generator is kept too,
    and kept sorted."""

    __slots__ = ()
    _make = classmethod(cartan._make_checked)

    def __new__(cls, ambient, nodes):
        cm = cartan._ambient(ambient, affine=True)
        subset = cartan._check_subset(cm, nodes)
        if len(subset) >= cm.size:
            raise InvalidSubsetError("subset must be proper")
        return tuple.__new__(cls, (cm, subset))

    @property
    def removed(self) -> tuple[int, ...]:
        return tuple(i for i in self.ambient.nodes if i not in self.nodes)

    @property
    def is_maximal(self) -> bool:
        return len(self.nodes) == self.ambient.size - 1


class LeviType(NamedTuple):
    """Classified connected components of the subset, plus the rank of the
    central torus (number of omitted nodes)."""

    components: tuple[tuple[str, int], ...]
    center_rank: int

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"{s}{r}" for s, r in self.components)


class AssociateCertificate(NamedTuple):
    """Verdict of the self-associate test with its checkable trace.

    ``removed_image`` is the image of the omitted simple root under the
    longest element of the kept nodes; its coefficient on the omitted node
    is exactly 1.  ``null_root`` is the isotropic vector every generator
    fixes (None over a finite ambient).  ``search_bound`` is the radius
    of the counted ball and ``searched`` the number of group elements in
    it, of length at most ``search_bound``.
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


class ConstantTermReport(NamedTuple):
    trivial: bool
    certificate: AssociateCertificate
    levi_matches: tuple[tuple[int, bool], ...]
    reason: str


def parabolic_subset(cm: CartanMatrix, nodes) -> ParabolicSubset:
    """Validated proper subset of an affine ambient."""
    return ParabolicSubset(cm, nodes)


def maximal_parabolics(cm: CartanMatrix) -> tuple[ParabolicSubset, ...]:
    """One maximal subset per omitted node, in node order."""
    cm = cartan._ambient(cm, affine=True)
    return tuple(ParabolicSubset(cm, tuple(j for j in cm.nodes if j != i)) for i in cm.nodes)


def levi_type(p: ParabolicSubset) -> LeviType:
    return _levi_type(cartan._ambient(p, ParabolicSubset), p.nodes)


def _levi_type(cm: CartanMatrix, subset: tuple[int, ...]) -> LeviType:
    return LeviType(components=cartan._component_types(cm, subset), center_rank=cm.size - len(subset))


def associate_necessary(p: ParabolicSubset, q: ParabolicSubset) -> bool:
    """Necessary condition for two subsets to be associate: equal Levi
    component multisets.  Symmetric and reflexive."""
    if cartan._ambient(p, ParabolicSubset) != cartan._ambient(q, ParabolicSubset):
        raise MixedAmbientError("subsets live over different ambient matrices")
    return levi_type(p).components == levi_type(q).components


# --- certificates -----------------------------------------------------------


def _certificates(
    cm: CartanMatrix, removed_nodes: tuple[int, ...], bound: int
) -> tuple[AssociateCertificate, ...]:
    """Affine certificates for the given omitted nodes.

    No affine witness exists (see the module docstring), so nothing is
    searched.  ``searched`` is the number of elements of length at most
    ``bound``, the same for every omitted node: the coefficients of the
    shared length series ``weyl._length_series``, Bott's W_a(q) here, up
    to q^bound, summed once per (ambient, bound) by ``weyl._ball_size``.
    """
    bound = cartan._check_bound(bound)
    null = _null_root(cm)
    searched = weyl._ball_size(cm.entries, bound)
    out = []
    for removed_node in removed_nodes:
        theta = tuple(i for i in cm.nodes if i != removed_node)
        out.append(_certificate(cm, theta, weyl._longest(cm, theta), None, null, bound, searched))
    return tuple(out)


@cartan._memo
def _null_root(cm: CartanMatrix) -> Coords:
    """δ of an affine ambient, checked once per ambient to be fixed by
    every generator."""
    null = roots.delta(cm)
    if any(roots._reflect(cm, null, i) != null for i in cm.nodes):
        raise LoopAtlasError("generator moved the isotropic vector")
    return null


def _certificate(cm, theta, longest, witness, null, bound, searched) -> AssociateCertificate:
    """Certificate of a maximal subset, given the ascent word of the longest
    element of its group; w0_Θ·α_c is read off that word by a column walk."""
    removed_node = next(i for i in cm.nodes if i not in theta)
    return AssociateCertificate(
        ambient=cm,
        theta=theta,
        removed_node=removed_node,
        self_associate=witness is not None,
        witness=witness,
        levi_longest_word=longest,
        removed_image=weyl._removed_image(cm, longest, removed_node),
        null_root=null,
        search_bound=bound,
        searched=searched,
    )


def is_self_associate(p: ParabolicSubset, search_bound: int = 16) -> AssociateCertificate:
    """Self-associate verdict for a maximal subset of an affine ambient:
    always negative (see the module docstring).  The certificate carries
    the structural obstruction; ``search_bound`` is the radius of the
    ball that ``searched`` counts."""
    cm = cartan._ambient(p, ParabolicSubset)
    if not p.is_maximal:
        raise InvalidSubsetError("self-associate verdicts are defined for maximal subsets")
    return _certificates(cm, p.removed, search_bound)[0]


def maximal_certificates(cm: CartanMatrix, search_bound: int = 16) -> tuple[AssociateCertificate, ...]:
    """Certificates for every maximal subset, in omitted-node order, each
    counting the ball of radius ``search_bound``."""
    cm = cartan._ambient(cm, affine=True)
    return _certificates(cm, cm.nodes, search_bound)


def finite_self_associate(
    cm: CartanMatrix, removed_node: int, max_length: int | None = None
) -> AssociateCertificate:
    """Self-associate verdict over a finite irreducible ambient, in closed
    form (see the module docstring): the witness, the only one, is w0·w0_Θ
    when σ fixes the omitted node and N − N_Θ ≤ ``max_length``.
    ``searched`` is the size of the ball of that radius; the default, N,
    the number of positive roots, covers the whole group."""
    cm = cartan._ambient(cm, affine=False)
    if not cartan.irreducible(cm):
        raise InvalidCartanMatrixError("ambient must be irreducible")
    if cm.size > FINITE_RANK_LIMIT:
        raise UnsupportedRankError(
            f"finite verdicts are limited to rank {FINITE_RANK_LIMIT}; got rank {cm.size}"
        )
    removed_node = cartan._check_node(removed_node, cm.size)
    w0 = weyl._longest(cm, cm.nodes)
    bound = len(w0) if max_length is None else cartan._check_bound(max_length)
    theta = tuple(i for i in cm.nodes if i != removed_node)
    longest = weyl._longest(cm, theta)
    # w0·α_c = −α_σ(c), so σ(c) = c exactly when its entry c is −1
    fixed = weyl._image(weyl._moves(cm), w0, removed_node)[removed_node - 1] == -1
    witness = weyl._element(cm, list(w0 + longest)) if fixed and len(w0) - len(longest) <= bound else None
    searched = weyl._ball_size(cm.entries, bound)
    return _certificate(cm, theta, longest, witness, None, bound, searched)


def maximal_levi_types(cm: CartanMatrix) -> tuple[LeviType, ...]:
    """Levi type of every maximal subset, in omitted-node order; classified
    once per ambient."""
    return _maximal_levi_types(cartan._ambient(cm))


@cartan._memo
def _maximal_levi_types(cm: CartanMatrix) -> tuple[LeviType, ...]:
    cartan._ambient(cm, affine=True)  # constant_term_report reads it too
    return tuple(_levi_type(cm, tuple(j for j in cm.nodes if j != i)) for i in cm.nodes)


def constant_term_report(cert: AssociateCertificate) -> ConstantTermReport:
    """The constant-term rule on the certificate of a maximal subset: the
    contribution is trivial when the subset is not self-associate and no
    other maximal subset matches its Levi component multiset."""
    levis = _maximal_levi_types(cartan._ambient(cert, AssociateCertificate))
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
    return ConstantTermReport(trivial, cert, matches, reason)


def constant_term_is_trivial(p: ParabolicSubset, search_bound: int = 0) -> ConstantTermReport:
    """Constant-term rule (see ``constant_term_report``) for a maximal
    subset.

    The verdict rests on the structural obstruction, not on the ball, so
    the default ``search_bound`` is 0; a larger one only changes the
    radius of the ball the certificate counts.
    """
    return constant_term_report(is_self_associate(p, search_bound))


# --- serialization ----------------------------------------------------------


def levi_to_json(lt: LeviType) -> dict:
    cartan._instance(lt, LeviType)
    return {"components": list(lt.labels), "center_rank": lt.center_rank}


def certificate_to_json(cert: AssociateCertificate) -> dict:
    cartan._instance(cert, AssociateCertificate)
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

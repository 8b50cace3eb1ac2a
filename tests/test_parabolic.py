import hashlib
import json
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ambient
import certificates
import series_counts
import walks
from loopatlas import cartan, criterion, maass_selberg, parabolic, roots, weyl
from loopatlas.errors import (
    InvalidCartanMatrixError,
    InvalidSubsetError,
    MixedAmbientError,
    UnsupportedRankError,
)

AFFINE_LABELS = [cm.label for cm in cartan.all_types(max_rank=4, affine=True)]
FINITE_LABELS = [cm.label for cm in cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False)]


def _cm(label):
    return cartan.parse_type(label)


def _omit(cm, node):
    return parabolic.parabolic_subset(cm, tuple(i for i in cm.nodes if i != node))


# --- subsets ----------------------------------------------------------------


def test_subset_validation():
    cm = _cm("A2affine")
    p = parabolic.parabolic_subset(cm, (3, 1))
    assert p.nodes == (1, 3)
    assert p.removed == (2,)
    assert p.is_maximal
    with pytest.raises(InvalidSubsetError):
        parabolic.parabolic_subset(cm, (1, 2, 3))
    with pytest.raises(InvalidSubsetError):
        parabolic.parabolic_subset(cm, (1, 1))
    with pytest.raises(InvalidSubsetError):
        parabolic.parabolic_subset(cm, (4,))
    with pytest.raises(InvalidCartanMatrixError):
        parabolic.parabolic_subset(_cm("A2"), (1,))


def test_subset_nodes_must_be_integers():
    cm = _cm("A3affine")
    # (1.5, 2) used to be truncated to (1, 2)
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        parabolic.parabolic_subset(cm, (1.5, 2))
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        parabolic.parabolic_subset(cm, (False, 2))


def test_subset_from_a_generator():
    # the nodes used to be read twice, so a generator reported
    # "duplicate nodes in ()"
    cm = _cm("A3affine")
    p = parabolic.parabolic_subset(cm, (i for i in (3, 1)))
    assert p.nodes == (1, 3)


def test_subset_record_checks_itself():
    # the record used to keep its nodes as given: (3, 1) and (1, 3) were two
    # subsets, and a generator was stored unread (its refusals are in the API fuzz)
    cm = _cm("A3affine")
    p = parabolic.ParabolicSubset(cm, (i for i in (3, 1)))
    assert p == parabolic.ParabolicSubset(cm, (1, 3)) == parabolic.parabolic_subset(cm, [3, 1])
    assert p.nodes == (1, 3)


def test_maximal_parabolics_one_per_node():
    for label in ["A1affine", "C3affine", "E6affine"]:
        cm = _cm(label)
        ps = parabolic.maximal_parabolics(cm)
        assert len(ps) == cm.size
        assert [p.removed for p in ps] == [(i,) for i in cm.nodes]
        assert all(p.is_maximal for p in ps)
    with pytest.raises(InvalidCartanMatrixError):
        parabolic.maximal_parabolics(_cm("B3"))


def test_non_maximal_subset_properties():
    cm = _cm("D4affine")
    p = parabolic.parabolic_subset(cm, (1, 3))
    assert not p.is_maximal
    assert p.removed == (2, 4, 5)
    lt = parabolic.levi_type(p)
    assert lt.components == (("A", 1), ("A", 1))
    assert lt.center_rank == 3


# --- Levi classification ----------------------------------------------------


def test_levi_type_e6_affine_branch_node():
    cm = _cm("E6affine")
    lt = parabolic.levi_type(_omit(cm, 4))
    assert lt.components == (("A", 2), ("A", 2), ("A", 2))
    assert lt.labels == ("A2", "A2", "A2")
    assert lt.center_rank == 1


def test_levi_type_e8_affine_attached_node():
    cm = _cm("E8affine")
    lt = parabolic.levi_type(_omit(cm, 9))
    assert lt.components == (("E", 8),)
    assert lt.center_rank == 1


def test_levi_type_e7_affine_all_nodes():
    """Removing one node at a time walks through every Levi shape."""
    cm = _cm("E7affine")
    by_node = {i: parabolic.levi_type(_omit(cm, i)).components for i in cm.nodes}
    assert by_node[1] == (("A", 1), ("D", 6))
    assert by_node[2] == (("A", 7),)
    assert by_node[3] == (("A", 2), ("A", 5))
    assert by_node[4] == (("A", 1), ("A", 3), ("A", 3))
    assert by_node[5] == (("A", 2), ("A", 5))
    assert by_node[6] == (("A", 1), ("D", 6))
    assert by_node[7] == (("E", 7),)
    assert by_node[8] == (("E", 7),)


def test_levi_type_a2_affine_every_node_gives_a2():
    cm = _cm("A2affine")
    for i in cm.nodes:
        assert parabolic.levi_type(_omit(cm, i)).components == (("A", 2),)


@given(st.sampled_from(AFFINE_LABELS), st.data())
def test_levi_rank_accounting(label, data):
    cm = _cm(label)
    node = data.draw(st.integers(1, cm.size))
    lt = parabolic.levi_type(_omit(cm, node))
    assert lt.center_rank == 1
    assert sum(rank for _, rank in lt.components) == cm.size - 1
    assert lt.components == tuple(sorted(lt.components))


# --- associate necessary condition ------------------------------------------


def test_associate_necessary_e7_affine():
    cm = _cm("E7affine")
    p3, p5 = _omit(cm, 3), _omit(cm, 5)
    assert parabolic.associate_necessary(p3, p5)
    assert parabolic.associate_necessary(p5, p3)
    assert parabolic.associate_necessary(p3, p3)
    p4 = _omit(cm, 4)
    for i in cm.nodes:
        if i != 4:
            assert not parabolic.associate_necessary(p4, _omit(cm, i))


def test_associate_necessary_mixed_ambient():
    with pytest.raises(MixedAmbientError):
        parabolic.associate_necessary(_omit(_cm("A2affine"), 1), _omit(_cm("C2affine"), 1))


# --- affine self-associate verdicts -----------------------------------------


def test_certificate_shape_a2_affine():
    cm = _cm("A2affine")
    p = _omit(cm, 1)
    cert = parabolic.is_self_associate(p, search_bound=4)
    assert not cert.self_associate
    assert cert.witness is None
    assert cert.removed_node == 1
    assert cert.theta == (2, 3)
    assert cert.search_bound == 4
    assert cert.searched == sum(series_counts.affine_counts("A", 2, 4))
    assert cert.levi_longest_word == weyl.longest_element(cm, (2, 3)).word
    assert cert.removed_image == weyl.removed_node_image(cm, 1)
    assert cert.null_root == roots.delta(cm)


def test_self_associate_requires_maximal_affine():
    cm = _cm("A2affine")
    with pytest.raises(InvalidSubsetError):
        parabolic.is_self_associate(parabolic.parabolic_subset(cm, (1,)))
    with pytest.raises(InvalidCartanMatrixError):
        parabolic.finite_self_associate(cm, 1)


@given(st.sampled_from(AFFINE_LABELS), st.data())
def test_affine_verdict_always_negative(label, data):
    cm = _cm(label)
    node = data.draw(st.integers(1, cm.size))
    cert = parabolic.is_self_associate(_omit(cm, node), search_bound=3)
    assert not cert.self_associate
    assert cert.removed_image[node - 1] == 1
    assert roots.is_positive(cert.removed_image)
    assert cert.null_root == roots.delta(cm)


def test_maximal_certificates_report_the_ball_size():
    cm = _cm("G2affine")
    certs = parabolic.maximal_certificates(cm, search_bound=6)
    assert len(certs) == 3
    assert [c.removed_node for c in certs] == [1, 2, 3]
    assert len({c.searched for c in certs}) == 1
    expected = sum(series_counts.affine_counts("G", 2, 6))
    for c in certs:
        assert not c.self_associate
        assert c.searched == expected
        assert c.search_bound == 6


@pytest.mark.parametrize("label", ["A2affine", "G2affine", "D4affine"])
def test_searched_is_the_ball_size_at_every_bound(label):
    """``searched``, counted by Bott's formula, is the ball size of the
    series oracle."""
    cm = _cm(label)
    series, rank, _ = cartan.classify(cm)
    for bound in range(9):
        want = sum(series_counts.affine_counts(series, rank, bound))
        assert [c.searched for c in parabolic.maximal_certificates(cm, bound)] == [want] * cm.size


@pytest.mark.parametrize("label", FINITE_LABELS)
def test_finite_searched_is_the_ball_size_at_every_bound(label):
    """At every bound 0..N+1 the closed form's verdict, witness and
    ``searched`` equal the walk reference: one quotient walk per omitted
    node to length N, decided by the exact rule, its level widths times the
    Levi's length series.  ``searched`` is also the ball size of the series
    oracle."""
    cm = _cm(label)
    top = len(roots.positive_roots(cm))
    (series, rank), = cartan.component_types(cm, cm.nodes)
    ball = list(accumulate(series_counts.finite_counts(series, rank, top + 1)))
    for node in cm.nodes:
        widths, witnesses = _walk_reference(cm, top, (node - 1,))
        first = witnesses.get(node - 1)
        levi = _levi_ball(cm, node, top + 1)
        for bound in range(top + 2):
            cert = parabolic.finite_self_associate(cm, node, max_length=bound)
            want = first if first is not None and first.length <= bound else None
            assert cert.self_associate == (want is not None), (label, node, bound)
            assert cert.witness == want, (label, node, bound)
            searched = sum(q[0] * levi[bound - k] for k, q in enumerate(widths[: bound + 1]))
            assert cert.searched == searched == ball[bound], (label, node, bound)


@pytest.mark.parametrize("label", ["A2affine", "C3affine", "G2affine", "D4affine"])
def test_batched_certificates_equal_single_node_certificates(label):
    """One walk for all omitted nodes certifies each node as its own
    search does."""
    cm = _cm(label)
    for bound in (0, 1, 7):
        alone = tuple(parabolic.is_self_associate(_omit(cm, node), bound) for node in cm.nodes)
        assert parabolic.maximal_certificates(cm, bound) == alone


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "F4"])
def test_batched_finite_witnesses_equal_single_node_witnesses(label):
    """The closed form for each node alone gives the witness and ball size
    of the batched walk reference over all the nodes at once: per origin,
    the least witness word of its first witness length."""
    cm = _cm(label)
    top = len(roots.positive_roots(cm))
    widths, witnesses = _walk_reference(cm, top, tuple(range(cm.size)))
    for node in cm.nodes:
        cert = parabolic.finite_self_associate(cm, node)
        assert cert.search_bound == top
        assert cert.witness == witnesses.get(node - 1), (label, node)
        levi = _levi_ball(cm, node, top)
        assert cert.searched == sum(q[node - 1] * levi[top - k] for k, q in enumerate(widths))


def _walk_reference(cm, bound, omitted):
    """Reference search on one batched ``walks.levels`` walk: the level
    widths per origin, and for each 0-based omitted node with a witness
    the least canonical word of its first witness length, decided by the
    exact rule (u ≠ e, and h_j == 1, g_j == 0 for every j ≠ c)."""
    widths, first, hits = [], {}, {}
    for length, heights, words, rows, origin in walks.with_words(walks.levels(cm.entries, bound, omitted)):
        widths.append(np.bincount(origin, minlength=len(omitted)).tolist())
        for h, g, word, k in zip(heights.tolist(), rows.tolist(), words.tolist(), origin.tolist()):
            c = omitted[k]
            exact = length > 0 and all(h[j] == 1 and g[j] == 0 for j in range(cm.size) if j != c)
            if exact and first.setdefault(c, length) == length:
                hits.setdefault(c, []).append(word[::-1])
    return widths, {c: weyl.from_word(cm, min(words)) for c, words in hits.items()}


def _levi_ball(cm, node, cap):
    """Element counts of the kept nodes' group of length at most 0..cap,
    from the series oracle."""
    poly = [1] + [0] * cap
    for series, rank in cartan.component_types(cm, tuple(i for i in cm.nodes if i != node)):
        poly = series_counts._mul(poly, series_counts.finite_counts(series, rank, cap), cap)
    return list(accumulate(poly))


def _matrix_witness(matrix, c: int) -> bool:
    """Reference witness test on the action matrix of w, for omitted node c
    (0-based): every kept column is a unit vector off row c, and column c
    is nonpositive."""
    cols = list(zip(*matrix))
    return max(cols[c]) <= 0 and all(
        sum(col) == 1 == sum(map(abs, col)) and col[c] == 0 for j, col in enumerate(cols) if j != c
    )


# every finite type up to rank 6 walked to exhaustion, every affine type up
# to rank 4 at bound 12: 4,676 + 5,101 elements of the batched walks
REFERENCE_WALKS = [(cm, len(roots.positive_roots(cm))) for cm in cartan.all_types(6, affine=False)] + [
    (cm, 12) for cm in cartan.all_types(4)
]


def test_exact_witness_rule_matches_the_matrix_test():
    """On every element u of the walks, u ≠ e with h_j == 1 and g_j == 0 for
    every j ≠ c decides the same as the matrix test on w = u⁻¹, and the
    verdicts carry the least witness of the first witness length: the
    closed form over a finite ambient, the certificates over an affine one."""
    seen = 0
    for cm, bound in REFERENCE_WALKS:
        omitted = tuple(range(cm.size))
        want: dict[int, list] = {}
        for length, heights, words, rows, origin in walks.with_words(walks.levels(cm.entries, bound, omitted)):
            for h, g, word, c in zip(heights.tolist(), rows.tolist(), words.tolist(), origin.tolist()):
                exact = length > 0 and all(h[j] == 1 and g[j] == 0 for j in omitted if j != c)
                w = weyl.from_word(cm, word[::-1])
                assert exact == _matrix_witness(w.matrix, c), (cm.label, c + 1, word)
                if exact and (c not in want or want[c][0].length == w.length):
                    want.setdefault(c, []).append(w)
                seen += 1
        if cm.is_affine:
            got = [cert.witness for cert in parabolic._certificates(cm, cm.nodes, bound)]
        else:
            got = [parabolic.finite_self_associate(cm, c + 1, bound).witness for c in omitted]
        for c in omitted:
            first = min(want[c], key=lambda w: w.word) if c in want else None
            assert got[c] == first, (cm.label, c + 1)
    assert seen == 9777


def test_affine_certificates_build_no_element(monkeypatch):
    """No affine certificate has a witness, so none is built, and the ball
    is counted in closed form: no walk runs either."""
    calls = []
    from_word, walk = weyl.from_word, weyl._enumerate
    monkeypatch.setattr(weyl, "from_word", lambda *args: calls.append(args) or from_word(*args))
    monkeypatch.setattr(weyl, "_enumerate", lambda *args: calls.append(args) or walk(*args))
    for cm in cartan.all_types(8):
        assert not any(c.self_associate for c in parabolic.maximal_certificates(cm, 12))
    assert calls == []


def test_isotropic_vector_is_checked_once_per_ambient(body_calls):
    """Call counts, not timings: a warm certificate reads δ, checked against
    every generator, from the fact store instead of reflecting it again."""
    cm = _cm("E8affine")
    subsets = parabolic.maximal_parabolics(cm)
    check = lambda: [parabolic.constant_term_is_trivial(p) for p in subsets]
    cartan._fact.cache_clear()
    assert body_calls(roots._reflect, check) == cm.size
    assert body_calls(roots._reflect, check) == 0


@pytest.mark.parametrize("cm", cartan.all_types(9), ids=lambda cm: cm.label)
def test_searched_is_the_quotient_walk_times_the_levi_ball(cm):
    """The independent route to ``searched``: every element factors
    uniquely as u⁻¹·v with u in the quotient walk of its omitted node and v
    in the Levi's finite group, and the lengths add, so the ball of radius
    12 holds Σ_k q_k·#{v : ℓ(v) ≤ 12 - k} elements, q_k the walk's width
    at level k for that node."""
    bound = 12
    widths = [
        np.bincount(origin, minlength=cm.size)
        for *_, origin in walks.levels(cm.entries, bound, tuple(range(cm.size)))
    ]
    for cert in parabolic.maximal_certificates(cm, bound):
        c = cert.removed_node - 1
        levi = _levi_ball(cm, cert.removed_node, bound)
        assert cert.searched == sum(int(q[c]) * levi[bound - k] for k, q in enumerate(widths)), c


def test_finite_verdicts_walk_no_levels(monkeypatch):
    """The finite verdict is read off in closed form: no walk runs."""
    calls = []
    walk = weyl._enumerate
    monkeypatch.setattr(weyl, "_enumerate", lambda *args: calls.append(args) or walk(*args))
    for cm in cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False):
        for node in cm.nodes:
            parabolic.finite_self_associate(cm, node)
            parabolic.finite_self_associate(cm, node, max_length=3)
    assert calls == []


@pytest.mark.parametrize("bound", [2.5, None, True, -1, "3"])
def test_search_bound_is_validated(bound):
    cm = _cm("A2affine")
    runs = [
        lambda: parabolic.is_self_associate(_omit(cm, 1), bound),
        lambda: parabolic.constant_term_is_trivial(_omit(cm, 1), bound),
        lambda: parabolic.maximal_certificates(cm, bound),
    ]
    if bound is not None:  # None asks for the whole finite group
        runs.append(lambda: parabolic.finite_self_associate(_cm("B2"), 1, max_length=bound))
    for run in runs:
        with pytest.raises(InvalidSubsetError, match="search bound"):
            run()


def test_numpy_search_bound_is_published_as_an_int():
    cert = parabolic.is_self_associate(_omit(_cm("A2affine"), 1), np.int64(3))
    assert type(cert.search_bound) is int
    assert json.loads(json.dumps(parabolic.certificate_to_json(cert)))["search_bound"] == 3


def _certificates_sha256(certs) -> str:
    text = json.dumps([parabolic.certificate_to_json(c) for c in certs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_affine_certificates_are_pinned():
    """sha256 over the 232 affine certificates up to rank 9 at bound 6,
    computed with the full-ball search before the quotient walk."""
    certs = [c for cm in cartan.all_types(9) for c in parabolic.maximal_certificates(cm, 6)]
    assert len(certs) == 232
    assert _certificates_sha256(certs) == (
        "2ec525e3b1c8108cefcd7b851b5594d7994734dab9d94ecd6243882d774d3bf7"
    )


def test_finite_certificates_are_pinned():
    """sha256 over the 86 finite certificates up to rank 6 (whole group),
    computed with the full-ball search before the quotient walk."""
    certs = [
        parabolic.finite_self_associate(cm, node)
        for cm in cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False)
        for node in cm.nodes
    ]
    assert len(certs) == 86
    assert _certificates_sha256(certs) == (
        "d5fce30d8706ba5c20c0457fbec32de3d456d8fcdb65b7e682f5ee0bf7d5470d"
    )


CERTIFICATES_SHA256 = "8e0d823e40e2f582d17ea1978b6c86e70ae9ef75964df701c96899b3169c4044"


def _pinned_certificates():
    """The 192 affine certificates up to rank 8 at bound 16, then the 86
    finite ones up to rank 6, every node.  The finite ranks are the
    literal 6, so a change of ``FINITE_RANK_LIMIT`` does not move them."""
    certs = [c for cm in cartan.all_types(8) for c in parabolic.maximal_certificates(cm, 16)]
    assert len(certs) == 192
    finite = [
        parabolic.finite_self_associate(cm, node) for cm in cartan.all_types(6, affine=False) for node in cm.nodes
    ]
    assert len(finite) == 86
    return certs + finite


def test_certificate_pin():
    """sha256 over every certificate's trace (``_pinned_certificates``),
    as one sorted-key JSON text (about 104 kB)."""
    assert _certificates_sha256(_pinned_certificates()) == CERTIFICATES_SHA256


def test_pinned_certificates_pass_the_independent_checker():
    """Each pinned certificate, read back from its JSON by the library-free
    ``certificates`` oracle: w0_Θ, w0_Θ·α_c, δ, the finite witness and
    ``searched``, each in the oracle's own arithmetic."""
    problems = {}
    for cert in _pinned_certificates():
        data = parabolic.certificate_to_json(cert)
        if found := certificates.check(data):
            problems[f"{cert.ambient.label} node {cert.removed_node}"] = found
    assert problems == {}


# --- finite ambient: both verdicts occur ------------------------------------


def test_finite_a2_never_self_associate():
    cm = _cm("A2")
    for node in (1, 2):
        cert = parabolic.finite_self_associate(cm, node)
        assert not cert.self_associate
        assert cert.witness is None
        assert cert.searched == 6  # the whole group


def test_finite_b2_self_associate_with_witness():
    cm = _cm("B2")
    cert = parabolic.finite_self_associate(cm, 2)
    assert cert.self_associate
    assert cert.witness.word == (2, 1, 2)
    w = cert.witness
    assert weyl.act(w, (1, 0)) == (1, 0)
    image = weyl.act(w, (0, 1))
    assert roots.is_positive(tuple(-x for x in image))
    other = parabolic.finite_self_associate(cm, 1)
    assert other.self_associate
    assert other.witness.word == (1, 2, 1)


def test_finite_b2_witness_against_euclidean_reflections():
    """Replay the witness word with concrete Euclidean reflections."""
    cm = _cm("B2")
    cert = parabolic.finite_self_associate(cm, 2)
    simple = ambient.simple_roots("B", 2)
    refs = [ambient.reflection_in(s) for s in simple]

    def replay(vec):
        for letter in reversed(cert.witness.word):
            vec = refs[letter - 1](vec)
        return vec

    for j, coords in ((1, (1, 0)), (2, (0, 1))):
        image = weyl.act(cert.witness, coords)
        expected = replay(simple[j - 1])
        got = tuple(sum(c * s[k] for c, s in zip(image, simple)) for k in range(2))
        assert got == expected


def test_finite_a3_middle_node_only():
    cm = _cm("A3")
    verdicts = {i: parabolic.finite_self_associate(cm, i).self_associate for i in cm.nodes}
    assert verdicts == {1: False, 2: True, 3: False}
    wit = parabolic.finite_self_associate(cm, 2).witness
    alpha_1, alpha_3 = (1, 0, 0), (0, 0, 1)
    assert {weyl.act(wit, alpha_1), weyl.act(wit, alpha_3)} == {alpha_1, alpha_3}


def test_finite_g2_both_nodes():
    cm = _cm("G2")
    for node in (1, 2):
        cert = parabolic.finite_self_associate(cm, node)
        assert cert.self_associate
        assert cert.witness.length == 5


# Witness of every self-associate (type, omitted node) pair up to rank 6:
# the least canonical word among the witnesses of the shortest length.
FINITE_WITNESSES = [
    ("A1", 1, (1,)),
    ("A3", 2, (2, 3, 1, 2)),
    ("A5", 3, (3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("B2", 1, (1, 2, 1)),
    ("B2", 2, (2, 1, 2)),
    ("B3", 1, (1, 2, 3, 2, 1)),
    ("B3", 2, (2, 3, 1, 2, 3, 1, 2)),
    ("B3", 3, (3, 2, 3, 1, 2, 3)),
    ("B4", 1, (1, 2, 3, 4, 3, 2, 1)),
    ("B4", 2, (2, 3, 4, 1, 2, 3, 4, 2, 3, 1, 2)),
    ("B4", 3, (3, 4, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3)),
    ("B4", 4, (4, 3, 4, 2, 3, 4, 1, 2, 3, 4)),
    ("B5", 1, (1, 2, 3, 4, 5, 4, 3, 2, 1)),
    ("B5", 2, (2, 3, 4, 5, 1, 2, 3, 4, 5, 3, 4, 2, 3, 1, 2)),
    ("B5", 3, (3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("B5", 4, (4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4)),
    ("B5", 5, (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5)),
    ("B6", 1, (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)),
    ("B6", 2, (2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 4, 5, 3, 4, 2, 3, 1, 2)),
    ("B6", 3, (3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("B6", 4, (4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4)),
    ("B6", 5, (5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5)),
    ("B6", 6, (6, 5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6)),
    ("C3", 1, (1, 2, 3, 2, 1)),
    ("C3", 2, (2, 3, 1, 2, 3, 1, 2)),
    ("C3", 3, (3, 2, 3, 1, 2, 3)),
    ("C4", 1, (1, 2, 3, 4, 3, 2, 1)),
    ("C4", 2, (2, 3, 4, 1, 2, 3, 4, 2, 3, 1, 2)),
    ("C4", 3, (3, 4, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3)),
    ("C4", 4, (4, 3, 4, 2, 3, 4, 1, 2, 3, 4)),
    ("C5", 1, (1, 2, 3, 4, 5, 4, 3, 2, 1)),
    ("C5", 2, (2, 3, 4, 5, 1, 2, 3, 4, 5, 3, 4, 2, 3, 1, 2)),
    ("C5", 3, (3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("C5", 4, (4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4)),
    ("C5", 5, (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5)),
    ("C6", 1, (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)),
    ("C6", 2, (2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 4, 5, 3, 4, 2, 3, 1, 2)),
    ("C6", 3, (3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("C6", 4, (4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4)),
    ("C6", 5, (5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5)),
    ("C6", 6, (6, 5, 6, 4, 5, 6, 3, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6)),
    ("D4", 1, (1, 2, 4, 3, 2, 1)),
    ("D4", 2, (2, 3, 1, 2, 4, 2, 3, 1, 2)),
    ("D4", 3, (3, 2, 4, 1, 2, 3)),
    ("D4", 4, (4, 2, 3, 1, 2, 4)),
    ("D5", 1, (1, 2, 3, 5, 4, 3, 2, 1)),
    ("D5", 2, (2, 3, 4, 1, 2, 3, 5, 3, 4, 2, 3, 1, 2)),
    ("D5", 3, (3, 5, 2, 3, 4, 1, 2, 3, 5, 2, 3, 4, 1, 2, 3)),
    ("D6", 1, (1, 2, 3, 4, 6, 5, 4, 3, 2, 1)),
    ("D6", 2, (2, 3, 4, 5, 1, 2, 3, 4, 6, 4, 5, 3, 4, 2, 3, 1, 2)),
    ("D6", 3, (3, 4, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6, 3, 4, 5, 2, 3, 4, 1, 2, 3)),
    ("D6", 4, (4, 5, 3, 4, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6, 2, 3, 4, 5, 1, 2, 3, 4)),
    ("D6", 5, (5, 4, 6, 3, 4, 5, 2, 3, 4, 6, 1, 2, 3, 4, 5)),
    ("D6", 6, (6, 4, 5, 3, 4, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6)),
    ("E6", 2, (2, 4, 5, 3, 4, 1, 3, 2, 4, 5, 6, 5, 4, 3, 2, 4, 5, 1, 3, 4, 2)),
    ("E6", 4, (4, 5, 6, 2, 4, 5, 3, 4, 1, 3, 2, 4, 5, 6, 4, 5, 3, 4, 1, 3, 2, 4, 5, 3, 4, 1, 3, 2, 4)),
    ("F4", 1, (1, 2, 3, 4, 2, 3, 1, 2, 3, 4, 1, 2, 3, 2, 1)),
    ("F4", 2, (2, 3, 1, 2, 3, 4, 3, 2, 3, 1, 2, 3, 4, 2, 3, 1, 2, 3, 1, 2)),
    ("F4", 3, (3, 2, 3, 1, 2, 3, 4, 3, 2, 3, 1, 2, 3, 4, 3, 2, 3, 1, 2, 3)),
    ("F4", 4, (4, 3, 2, 3, 1, 2, 3, 4, 3, 2, 3, 1, 2, 3, 4)),
    ("G2", 1, (1, 2, 1, 2, 1)),
    ("G2", 2, (2, 1, 2, 1, 2)),
]


@pytest.mark.parametrize("label,node,word", FINITE_WITNESSES)
def test_finite_witness_words(label, node, word):
    cert = parabolic.finite_self_associate(_cm(label), node)
    assert cert.self_associate
    assert cert.witness.word == word


def test_finite_witness_table_is_complete():
    listed = {(label, node) for label, node, _ in FINITE_WITNESSES}
    for cm in cartan.all_types(parabolic.FINITE_RANK_LIMIT, affine=False):
        for node in cm.nodes:
            if (cm.label, node) not in listed:
                assert not parabolic.finite_self_associate(cm, node).self_associate


def test_finite_bound_can_miss_the_witness():
    cm = _cm("B2")
    cert = parabolic.finite_self_associate(cm, 2, max_length=2)
    assert not cert.self_associate
    assert cert.searched == sum(series_counts.finite_counts("B", 2, 2))


def test_finite_rank_limit():
    with pytest.raises(UnsupportedRankError):
        parabolic.finite_self_associate(_cm("A7"), 1)
    with pytest.raises(InvalidCartanMatrixError):
        parabolic.finite_self_associate(cartan.from_matrix([[2, 0], [0, 2]]), 1)
    with pytest.raises(InvalidSubsetError):
        parabolic.finite_self_associate(_cm("A2"), 3)


# --- constant term triviality -----------------------------------------------


def test_trivial_constant_term_e6_affine():
    cm = _cm("E6affine")
    report = parabolic.constant_term_is_trivial(_omit(cm, 4))
    assert report.trivial
    assert report.reason == "not self-associate and no other maximal subset shares its Levi type"
    assert not report.certificate.self_associate
    assert all(not flag for _, flag in report.levi_matches)
    assert len(report.levi_matches) == cm.size - 1


def test_nontrivial_constant_term_e7_affine():
    cm = _cm("E7affine")
    report = parabolic.constant_term_is_trivial(_omit(cm, 3))
    assert not report.trivial
    assert report.reason == "Levi type matches the subsets omitting nodes [5]"
    assert dict(report.levi_matches)[5] is True


def test_constant_term_search_bound_is_passed_through():
    cm = _cm("A2affine")
    report = parabolic.constant_term_is_trivial(_omit(cm, 2), search_bound=2)
    assert report.certificate.search_bound == 2
    assert not report.trivial  # all three removals give an A2 Levi
    assert report.reason == "Levi type matches the subsets omitting nodes [1, 3]"


# --- serialization ----------------------------------------------------------


def test_levi_json():
    cm = _cm("E6affine")
    obj = parabolic.levi_to_json(parabolic.levi_type(_omit(cm, 4)))
    assert obj == {"components": ["A2", "A2", "A2"], "center_rank": 1}


def test_certificate_json_keys():
    cm = _cm("A1affine")
    cert = parabolic.is_self_associate(_omit(cm, 1), search_bound=2)
    obj = parabolic.certificate_to_json(cert)
    assert set(obj) == {
        "ambient",
        "theta",
        "removed_node",
        "self_associate",
        "witness",
        "levi_longest_word",
        "removed_root_image",
        "null_root",
        "search_bound",
        "searched",
    }
    assert obj["self_associate"] is False
    assert obj["witness"] is None
    assert obj["removed_root_image"] == [1, 2]
    assert obj["null_root"] == [1, 1]
    assert obj["ambient"] == {"series": "A", "rank": 1, "affine": True}


def test_certificate_json_with_witness():
    cert = parabolic.finite_self_associate(_cm("B2"), 2)
    obj = parabolic.certificate_to_json(cert)
    assert obj["witness"]["word"] == [2, 1, 2]
    assert obj["null_root"] is None


def test_non_ambients_are_rejected():
    # each of these used to raise a raw AttributeError
    cm = _cm("A2affine")
    f = criterion.functional((0, 0, 0))
    cases = [
        (lambda: parabolic.maximal_certificates(5), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.finite_self_associate(5, 1), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.removed_node_image(5, 1), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.longest_element(5, ()), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.is_self_associate(5), "5 is not a ParabolicSubset"),
        (lambda: parabolic.is_self_associate(parabolic.ParabolicSubset(5, (1,))), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.constant_term_report(5), "5 is not an AssociateCertificate"),
        (lambda: parabolic.levi_type(5), "5 is not a ParabolicSubset"),
        (lambda: parabolic.levi_type(parabolic.ParabolicSubset(5, (1,))), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.parabolic_subset(5, ()), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.maximal_parabolics(5), "ambient 5 is not a CartanMatrix"),
        (lambda: cartan.component_types(5, ()), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.positive_roots(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.dual_coxeter(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.central_coroot(5), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.from_word(5, ()), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.ball_sizes(5, 1), "ambient 5 is not a CartanMatrix"),
        (lambda: criterion.central_value(5, f), "ambient 5 is not a CartanMatrix"),
        (lambda: criterion.godement_cuspidal(5, f), "ambient 5 is not a CartanMatrix"),
        (lambda: maass_selberg.pairing_kernel(5, 1.0, f, f, (0, 0, 0)), "ambient 5 is not a CartanMatrix"),
        (lambda: maass_selberg.region_scan(5, [f], [f], (0, 0, 0)), "ambient 5 is not a CartanMatrix"),
        (lambda: cartan.components(5), "ambient 5 is not a CartanMatrix"),
        (lambda: cartan.irreducible(5), "ambient 5 is not a CartanMatrix"),
        (lambda: cartan.affinize(5), "ambient 5 is not a CartanMatrix"),
        (lambda: cartan.to_json(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.highest_root(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.marks(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.comarks(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.delta(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.root_system(5), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.affine_roots(5, 1), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.pairing(5, (1, 0, 0), 1), "ambient 5 is not a CartanMatrix"),
        (lambda: roots.roots_in_span(5, (1,)), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.reduce_word(5, (1,)), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.enumerate_elements(5, 1), "ambient 5 is not a CartanMatrix"),  # checked before iterating
        (lambda: criterion.weyl_vector(5), "ambient 5 is not a CartanMatrix"),
        (lambda: criterion.dominant_integral(5, (1, 0, 0)), "ambient 5 is not a CartanMatrix"),
        (lambda: parabolic.associate_necessary(5, 5), "5 is not a ParabolicSubset"),
        (lambda: parabolic.associate_necessary(parabolic.maximal_parabolics(cm)[0], 5), "5 is not a ParabolicSubset"),
        (lambda: parabolic.maximal_levi_types(5), "ambient 5 is not a CartanMatrix"),
    ]
    # matrix rows in place of the ambient used to raise a raw TypeError
    # (unhashable list) from the fact store before any gate ran
    rows = [[2, -2], [-2, 2]]
    rows_message = re.escape(f"ambient {rows!r} is not a CartanMatrix")
    for call in (
        roots.dual_coxeter, roots.central_coroot, roots.highest_root,
        roots.marks, roots.comarks, cartan.affinize, parabolic.maximal_levi_types,
    ):
        cases.append((lambda call=call: call(rows), rows_message))
    for call, message in cases:
        with pytest.raises(InvalidSubsetError, match=f"^{message}$"):
            call()
    cert = parabolic.maximal_certificates(cm)[0]
    assert parabolic.constant_term_report(cert).certificate is cert


def test_one_gate_on_the_ambient_kind():
    """Every entry point that needs an affine, or a finite, ambient refuses
    the other kind with the one message of ``cartan._ambient``."""
    b2, a2_affine = _cm("B2"), _cm("A2affine")
    f = criterion.functional((0, 0))
    needs_affine = [
        lambda: parabolic.parabolic_subset(b2, (1,)),
        lambda: parabolic.ParabolicSubset(b2, (1,)),
        lambda: parabolic.maximal_parabolics(b2),
        lambda: parabolic.maximal_certificates(b2),
        lambda: parabolic.maximal_levi_types(b2),
        lambda: parabolic.constant_term_report(parabolic.finite_self_associate(b2, 2)),
        lambda: roots.delta(b2),
        lambda: roots.affine_roots(b2, 1),
        lambda: criterion.weyl_vector(b2),
        lambda: criterion.central_value(b2, f),
        lambda: criterion.extend_from_central(b2, -100),
        lambda: maass_selberg.pairing_kernel(b2, 1.0, f, f, (0, 0)),
    ]
    needs_finite = [
        lambda: parabolic.finite_self_associate(a2_affine, 1),
        lambda: roots.positive_roots(a2_affine),
        lambda: roots.highest_root(a2_affine),
        lambda: roots.marks(a2_affine),
        lambda: cartan.affinize(a2_affine),
    ]
    for calls, message in ((needs_affine, "ambient CartanMatrix(B2) is not affine"),
                           (needs_finite, "ambient CartanMatrix(A2affine) is affine")):
        for call in calls:
            with pytest.raises(InvalidCartanMatrixError, match=f"^{re.escape(message)}$"):
                call()

import hashlib
import inspect
import json
import random
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ambient
import canonical_words
import series_counts
import walks
from loopatlas import cartan, parabolic, roots, weyl
from loopatlas.errors import (
    ClassificationError,
    EntryOverflowError,
    InvalidCartanMatrixError,
    InvalidSubsetError,
    LoopAtlasError,
    MixedAmbientError,
    UnsupportedRankError,
)

SMALL_TYPES = ["A2", "B2", "G2", "A3", "B3", "A1affine", "A2affine", "C2affine", "G2affine"]

BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def _cm(label):
    return cartan.parse_type(label)


def _simple_root(cm, i):
    return tuple(int(k == i) for k in cm.nodes)


def _is_negative(beta):
    return roots.is_positive(tuple(-b for b in beta))


@st.composite
def type_and_word(draw, max_len=8):
    label = draw(st.sampled_from(SMALL_TYPES))
    cm = _cm(label)
    word = draw(st.lists(st.integers(1, cm.size), max_size=max_len))
    return cm, word


# --- generators -------------------------------------------------------------


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_reflections_are_involutions(label):
    cm = _cm(label)
    ident = weyl.identity(cm)
    for i in cm.nodes:
        s = weyl.simple(cm, i)
        assert weyl.compose(s, s).matrix == ident.matrix
        assert weyl.from_word(cm, (i, i)).word == ()


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4", "A2affine", "C2affine", "G2affine"])
def test_braid_relations(label):
    """The product of two generators has the order the bond dictates."""
    cm = _cm(label)
    for i in cm.nodes:
        for j in cm.nodes:
            if i >= j:
                continue
            bond = cm.entry(i, j) * cm.entry(j, i)
            order = BOND_ORDER[bond]
            prod = weyl.compose(weyl.simple(cm, i), weyl.simple(cm, j))
            power = weyl.identity(cm)
            seen_identity_at = None
            for k in range(1, order + 1):
                power = weyl.compose(prod, power)
                if power.word == () and seen_identity_at is None:
                    seen_identity_at = k
            assert seen_identity_at == order, (label, i, j)


def test_infinite_bond_never_closes():
    cm = _cm("A1affine")
    prod = weyl.compose(weyl.simple(cm, 1), weyl.simple(cm, 2))
    power = weyl.identity(cm)
    for _ in range(12):
        power = weyl.compose(prod, power)
        assert power.word != ()


def test_reflect_matches_simple_action():
    for label in SMALL_TYPES:
        cm = _cm(label)
        for i in cm.nodes:
            s = weyl.simple(cm, i)
            for j in cm.nodes:
                alpha = _simple_root(cm, j)
                assert weyl.act(s, alpha) == roots.reflect(cm, alpha, i)


def test_act_rejects_non_integer_coordinates():
    # (1.5, 0) used to come back as (-1.5, 0.0), and True passed as 1
    s = weyl.simple(_cm("A1affine"), 1)
    for beta in [(1.5, 0), (True, 0), (1, 2.0), (Fraction(1), 0)]:
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            weyl.act(s, beta)
    with pytest.raises(InvalidSubsetError, match="^coordinate 1.5 is not an integer$"):
        weyl.act(s, (1.5, 0))
    # numpy integers are read as Python ints, as letters and nodes are
    assert [type(x) for x in weyl.act(s, (np.int64(1), 0))] == [int, int]
    assert weyl.act(s, (np.int64(1), 0)) == (-1, 0)


@pytest.mark.parametrize("scalar", [None, 3, 1.5])
def test_scalars_are_not_node_lists_words_or_vectors(scalar):
    # each of these used to raise a raw TypeError
    cm = _cm("A2affine")
    calls = [
        lambda: weyl.from_word(cm, scalar),
        lambda: weyl.act(weyl.simple(cm, 1), scalar),
        lambda: weyl.longest_element(cm, scalar),
        lambda: roots.roots_in_span(cm, scalar),
        lambda: cartan.component_types(cm, scalar),
    ]
    for call in calls:
        with pytest.raises(InvalidSubsetError, match="is not a sequence"):
            call()


def test_act_reads_any_iterable_vector():
    s = weyl.simple(_cm("A2"), 1)
    assert weyl.act(s, iter((1, 0))) == weyl.act(s, [1, 0]) == (-1, 0)


def test_reflection_fixes_orthogonal_and_negates_own():
    cm = _cm("A3")
    for i in cm.nodes:
        alpha = _simple_root(cm, i)
        assert roots.reflect(cm, alpha, i) == tuple(-x for x in alpha)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_reflections_permute_the_root_set(label):
    cm = _cm(label)
    every = set(roots.all_roots(cm))
    for i in cm.nodes:
        image = {roots.reflect(cm, r, i) for r in every}
        assert image == every


# --- words ------------------------------------------------------------------


def test_canonical_words_small_cases():
    a2 = _cm("A2")
    assert weyl.reduce_word(a2, (1, 1)) == ()
    w121 = weyl.from_word(a2, (1, 2, 1))
    w212 = weyl.from_word(a2, (2, 1, 2))
    assert w121.matrix == w212.matrix
    assert w121.word == w212.word
    assert w121.length == 3


def test_affine_words_grow():
    cm = _cm("A1affine")
    w = weyl.from_word(cm, (1, 2, 1, 2))
    assert w.length == 4
    assert weyl.reduce_word(cm, (1, 2, 2, 1)) == ()


@given(type_and_word())
def test_reduce_is_idempotent_and_consistent(cw):
    cm, word = cw
    w = weyl.from_word(cm, word)
    assert len(w.word) <= len(word)
    again = weyl.from_word(cm, w.word)
    assert again.word == w.word
    assert again.matrix == w.matrix
    assert canonical_words.canonical_word(cm.entries, w.matrix, len(word)) == w.word


ROW_TYPES = cartan.all_types(9) + cartan.all_types(8, affine=False)


def test_matrix_is_product_of_reflections():
    """On seeded reduced and non-reduced words of length 0-60 over every
    affine type up to rank 9 and every finite type up to rank 8, the
    matrix is the dense product of the letters' reflections, and so is
    the product of the simple elements on the short words.  A reflection
    moves one row, so the row of a node missing from the canonical word
    is the identity row: the very tuple that the identity holds, and any
    other element whose word misses that node."""
    for cm in ROW_TYPES:
        rng = random.Random(f"{cm.label} rows")
        ident = weyl.identity(cm)
        for length in range(0, 61, 6):
            for word in (_random_word(rng, cm, length), _random_reduced_word(rng, cm, length)):
                w = weyl.from_word(cm, word)
                other = weyl.from_word(cm, _random_word(rng, cm, length))
                assert w.matrix == _dense_matrix(cm.entries, word), (cm.label, word)
                if length <= 12:
                    acc = ident
                    for i in word:
                        acc = weyl.compose(acc, weyl.simple(cm, i))
                    assert acc.matrix == w.matrix
                for r in set(cm.nodes) - set(w.word):
                    assert w.matrix[r - 1] is ident.matrix[r - 1], (cm.label, word, r)
                    if r not in other.word:
                        assert w.matrix[r - 1] is other.matrix[r - 1]


@given(type_and_word())
def test_length_changes_by_one(cw):
    cm, word = cw
    w = weyl.from_word(cm, word)
    for i in cm.nodes:
        longer = weyl.compose(w, weyl.simple(cm, i))
        assert abs(longer.length - w.length) == 1


@given(type_and_word())
def test_inverse_and_composition(cw):
    cm, word = cw
    w = weyl.from_word(cm, word)
    inv = weyl.inverse(w)
    assert weyl.compose(w, inv).word == ()
    assert weyl.compose(inv, w).word == ()
    assert inv.length == w.length


@given(type_and_word(), type_and_word())
def test_act_is_a_group_action(cw1, cw2):
    cm, word1 = cw1
    cm2, word2 = cw2
    if cm.entries != cm2.entries:
        return
    u = weyl.from_word(cm, word1)
    v = weyl.from_word(cm, word2)
    uv = weyl.compose(u, v)
    for j in cm.nodes:
        alpha = _simple_root(cm, j)
        assert weyl.act(uv, alpha) == weyl.act(u, weyl.act(v, alpha))


@given(type_and_word())
def test_isotropic_vector_is_fixed(cw):
    cm, word = cw
    if not cm.is_affine:
        return
    w = weyl.from_word(cm, word)
    dl = roots.delta(cm)
    assert weyl.act(w, dl) == dl


def test_word_letter_validation():
    cm = _cm("A2")
    with pytest.raises(InvalidSubsetError):
        weyl.from_word(cm, (3,))
    with pytest.raises(InvalidSubsetError):
        weyl.from_word(cm, (0,))
    with pytest.raises(InvalidSubsetError):
        weyl.simple(cm, 5)


def test_word_letters_must_be_integers():
    cm = _cm("A2")
    # (1.5, True) used to become (1, 1), which cancels to the identity
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        weyl.from_word(cm, (1.5, True))
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        weyl.from_word(cm, (2, True))
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        weyl.from_word(cm, (2.0,))
    assert weyl.from_word(cm, np.array([1, 2], dtype=np.int8)).word == (1, 2)


def test_mixed_ambient_rejected():
    u = weyl.from_word(_cm("A2"), (1,))
    v = weyl.from_word(_cm("B2"), (1,))
    with pytest.raises(MixedAmbientError):
        weyl.compose(u, v)


def test_long_words_are_accepted():
    # the old fixed guard refused every element longer than 10,000
    cm = _cm("A1affine")
    w = weyl.from_word(cm, (1, 2) * 5001)
    assert w.length == 10002
    assert w.word == (1, 2) * 5001


@given(type_and_word(), st.data())
def test_compose_is_the_matrix_product(cw, data):
    cm, word = cw
    u = weyl.from_word(cm, word)
    v = weyl.from_word(cm, data.draw(st.lists(st.integers(1, cm.size), max_size=8)))
    n = cm.size
    product = tuple(
        tuple(sum(u.matrix[r][k] * v.matrix[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )
    assert weyl.compose(u, v).matrix == product


def test_simple_takes_numpy_integers():
    # the word used to keep the np.int64, which json.dumps rejects
    s = weyl.simple(_cm("A2"), np.int64(1))
    assert s.word == (1,)
    assert type(s.word[0]) is int
    assert json.loads(json.dumps(weyl.element_to_json(s)))["word"] == [1]


# --- inversions -------------------------------------------------------------


@given(type_and_word(max_len=6))
def test_length_equals_inversion_count(cw):
    cm, word = cw
    w = weyl.from_word(cm, word)
    assert len(weyl.inversions(w)) == w.length


def test_inversions_explicit():
    cm = _cm("A2")
    w = weyl.from_word(cm, (1, 2))
    assert weyl.inversions(w) == ((0, 1), (1, 1))
    # the column walks of w0 give every positive root once, in positive_roots' order
    for cm in cartan.all_types(8, affine=False):
        w0 = weyl.longest_element(cm, cm.nodes)
        assert weyl.inversions(w0) == roots.positive_roots(cm), cm.label


def test_inversions_are_positive_roots_sent_negative():
    cm = _cm("C2affine")
    w = weyl.from_word(cm, (3, 1, 2, 1))
    for beta in weyl.inversions(w):
        assert roots.is_positive(beta)
        assert _is_negative(weyl.act(w, beta))


def test_inversions_of_a_long_affine_element_are_complete():
    """Deep inversions (level above one) are found without any depth cap."""
    cm = _cm("A2affine")
    w = weyl.from_word(cm, (1, 2, 3) * 6)
    found = weyl.inversions(w)
    assert w.length == 18
    assert len(found) == len(set(found)) == 18
    for beta in found:
        assert roots.is_positive(beta)
        assert _is_negative(weyl.act(w, beta))


# --- longest elements -------------------------------------------------------


def test_longest_element_a2():
    cm = _cm("A2")
    w0 = weyl.longest_element(cm, cm.nodes)
    assert w0.length == 3
    assert weyl.act(w0, (1, 0)) == (0, -1)
    assert weyl.act(w0, (0, 1)) == (-1, 0)
    assert weyl.compose(w0, w0).word == ()


def test_longest_element_b2_is_minus_identity():
    cm = _cm("B2")
    w0 = weyl.longest_element(cm, cm.nodes)
    assert w0.length == 4
    assert w0.matrix == ((-1, 0), (0, -1))


@pytest.mark.parametrize("label,length", [("A3", 6), ("B3", 9), ("G2", 6), ("F4", 24), ("D4", 12)])
def test_longest_element_length_is_positive_root_count(label, length):
    cm = _cm(label)
    w0 = weyl.longest_element(cm, cm.nodes)
    assert w0.length == length == len(roots.positive_roots(cm))
    assert weyl.compose(w0, w0).word == ()
    # w0 maps the positive system onto the negative one
    for beta in roots.positive_roots(cm):
        assert _is_negative(weyl.act(w0, beta))


@pytest.mark.parametrize("cm", cartan.all_types(9, affine=False), ids=lambda cm: cm.label)
def test_positive_root_count_closed_form(cm):
    series, rank, _ = cartan.classify(cm)
    assert weyl._positive_root_count(series, rank) == len(roots.positive_roots(cm))


def test_longest_element_of_subset():
    cm = _cm("E6affine")
    theta = tuple(i for i in cm.nodes if i != 4)
    w = weyl.longest_element(cm, theta)
    assert w.length == 9  # three A2 factors
    assert all(i in theta for i in w.word)


def test_longest_element_empty_subset():
    cm = _cm("A2")
    assert weyl.longest_element(cm, ()).word == ()


def test_longest_element_nodes_must_be_integers():
    cm = _cm("A3")
    # (1.0, 2.7) used to be read as the subset (1, 2)
    with pytest.raises(InvalidSubsetError, match="not an integer"):
        weyl.longest_element(cm, (1.0, 2.7))
    with pytest.raises(InvalidSubsetError, match="duplicate"):
        weyl.longest_element(cm, (1, 1))
    assert weyl.longest_element(cm, (np.int64(1), np.int64(2))).word == (1, 2, 1)


def test_longest_element_rejects_affine_span():
    cm = _cm("A2affine")
    with pytest.raises(InvalidSubsetError):
        weyl.longest_element(cm, cm.nodes)


def test_longest_element_is_built_once_per_checked_subset():
    """Any spelling of a subset reaches the one cached element; a rejected
    subset is rejected again on every call."""
    cm = _cm("E6")
    w0 = weyl.longest_element(cm, cm.nodes)
    assert weyl.longest_element(cm, reversed(cm.nodes)) is w0
    assert weyl.longest_element(cm, [np.int64(i) for i in cm.nodes]) is w0
    affine = _cm("A2affine")
    for _ in range(2):
        with pytest.raises(InvalidSubsetError, match="affine component"):
            weyl.longest_element(affine, affine.nodes)


def test_removed_node_image_a1_affine():
    cm = _cm("A1affine")
    assert weyl.removed_node_image(cm, 1) == (1, 2)
    assert weyl.removed_node_image(cm, 2) == (2, 1)


@pytest.mark.parametrize("label", ["A2affine", "B3affine", "C3affine", "D4affine", "G2affine", "F4affine"])
def test_removed_node_image_coefficient_one(label):
    cm = _cm(label)
    for i in cm.nodes:
        image = weyl.removed_node_image(cm, i)
        assert image[i - 1] == 1
        assert roots.is_positive(image)


@pytest.mark.parametrize(
    "cm", cartan.all_types(9) + cartan.all_types(6, affine=False), ids=lambda cm: cm.label
)
def test_removed_image_is_the_column_of_the_longest_matrix(cm):
    """The column walk reads w0_Θ·α_c as column c of the action matrix of
    the ascent word, and as ``roots.reflect`` applied letter by letter,
    right to left, to α_c; w0·α_c for the whole finite group too."""
    moves = weyl._moves(cm)

    def by_reflect(word, c):
        beta = _simple_root(cm, c)
        for i in reversed(word):
            beta = roots.reflect(cm, beta, i)
        return beta

    for c in cm.nodes:
        word = weyl._longest(cm, tuple(i for i in cm.nodes if i != c))
        column = tuple(row[c - 1] for row in weyl._matrix(moves, word))
        assert weyl._removed_image(cm, word, c) == column == by_reflect(word, c)
        if not cm.is_affine:
            w0 = weyl._longest(cm, cm.nodes)
            column = tuple(row[c - 1] for row in weyl._matrix(moves, w0))
            assert tuple(weyl._image(moves, w0, c)) == column == by_reflect(w0, c)


def test_removed_image_refuses_a_word_through_the_removed_node():
    cm = _cm("A2affine")
    with pytest.raises(LoopAtlasError, match="drifted from 1"):
        weyl._removed_image(cm, (2, 1), 1)  # s_2·s_1·α_1 = −α_1 − α_2


def test_cold_certificates_build_no_matrix_and_run_no_elimination(body_calls):
    """Call counts, not timings: a cold atlas (the 31 affine types, their
    192 maximal certificates and the classification of every Levi) reads
    each Levi's longest element as a word and checks each affinization by
    products."""

    def atlas():
        cartan._fact.cache_clear()
        return [parabolic.maximal_certificates(cm, 12) for cm in cartan.all_types(8)]

    assert body_calls(weyl._matrix, atlas) == 0
    assert body_calls(cartan._eliminate, atlas) == 0
    assert sum(map(len, atlas())) == 192
    cm = _cm("E6")
    w0 = weyl.longest_element(cm, cm.nodes)  # the public element still carries its matrix
    assert w0.matrix == weyl._matrix(weyl._moves(cm), w0.word)

# --- enumeration ------------------------------------------------------------


@pytest.mark.parametrize("label,order", [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24)])
def test_enumeration_exhausts_finite_groups(label, order):
    cm = _cm(label)
    elements = list(weyl.enumerate_elements(cm, 30))
    assert len(elements) == order
    matrices = {w.matrix for w in elements}
    assert len(matrices) == order
    for w in elements:
        assert weyl.from_word(cm, w.word).matrix == w.matrix


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_enumeration_matches_ambient_group(series, rank):
    """Every action matrix agrees with the Euclidean reflection group."""
    cm = cartan.finite_cartan(series, rank)
    simple = ambient.simple_roots(series, rank)
    oracle = set()
    for images in ambient.finite_group_elements(series, rank):
        cols = [ambient.expand_over(simple, img) for img in images]
        assert all(c is not None for c in cols)
        matrix = tuple(
            tuple(int(cols[c][r]) for c in range(rank)) for r in range(rank)
        )
        oracle.add(matrix)
    ours = {w.matrix for w in weyl.enumerate_elements(cm, 40)}
    assert ours == oracle


def test_enumeration_is_graded_and_deterministic():
    cm = _cm("A2affine")
    first = [(w.length, w.matrix) for w in weyl.enumerate_elements(cm, 5)]
    second = [(w.length, w.matrix) for w in weyl.enumerate_elements(cm, 5)]
    assert first == second
    lengths = [l for l, _ in first]
    assert lengths == sorted(lengths)
    for w in weyl.enumerate_elements(cm, 5):
        assert len(w.word) == w.length


@pytest.mark.parametrize(
    "label,series,rank",
    [
        ("A1affine", "A", 1),
        ("A2affine", "A", 2),
        ("C2affine", "C", 2),
        ("G2affine", "G", 2),
        ("A3affine", "A", 3),
        ("B3affine", "B", 3),
    ],
)
def test_ball_sizes_match_generating_function(label, series, rank):
    """Level counts equal the coefficients of the length series, and so do
    the per-length counts of the walk."""
    cap = 10
    cm = _cm(label)
    got = weyl.ball_sizes(cm, cap)
    want = tuple(series_counts.affine_counts(series, rank, cap))
    assert got == want
    assert _walked_counts(cm, cap) == list(want)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_finite_ball_sizes_match_generating_function(series, rank):
    cm = cartan.finite_cartan(series, rank)
    cap = 12
    got = weyl.ball_sizes(cm, cap)
    want = series_counts.finite_counts(series, rank, cap)
    # the finite series terminates; drop trailing zero levels
    while want and want[-1] == 0:
        want.pop()
    assert list(got) == want
    assert sum(got) == series_counts.finite_order(series, rank)
    assert _walked_counts(cm, cap) == want
    # the series stops at the longest element, so a huge bound costs nothing
    assert weyl.ball_sizes(cm, 10**12) == got


def _walked_counts(cm, cap):
    """Element count per length of ``enumerate_elements``."""
    counts = [0] * (cap + 1)
    for w in weyl.enumerate_elements(cm, cap):
        counts[w.length] += 1
    while counts[-1] == 0:
        counts.pop()
    return counts


@pytest.mark.parametrize("label", ["A3affine", "G2affine", "D4affine"])
def test_enumerated_words_are_the_canonical_words(label):
    cm = _cm(label)
    for w in weyl.enumerate_elements(cm, 6):
        assert canonical_words.canonical_word(cm.entries, w.matrix, w.length) == w.word


@pytest.mark.parametrize("series", ["A", "B", "C", "D"])
def test_rank_nine_ball_sizes_match_generating_function(series):
    cm = cartan.parse_type(f"{series}9affine")
    assert list(weyl.ball_sizes(cm, 8)) == series_counts.affine_counts(series, 9, 8)


@pytest.mark.parametrize("cm", cartan.all_types(9, affine=False), ids=lambda cm: cm.label)
def test_finite_length_counts_match_generating_function(cm):
    series, rank, _ = cartan.classify(cm)
    cap = 40
    want = series_counts.finite_counts(series, rank, cap)
    while want[-1] == 0:
        want.pop()
    assert list(weyl.ball_sizes(cm, cap)) == want


def _block_sum(*parts):
    """Rows of the block-diagonal matrix of the given square rows."""
    n = sum(len(p) for p in parts)
    out, offset = [], 0
    for p in parts:
        out += [[0] * offset + list(r) + [0] * (n - offset - len(p)) for r in p]
        offset += len(p)
    return out


def test_length_counts_multiply_over_components():
    cap = 12
    want = [1] + [0] * cap
    for series, rank in (("A", 1), ("B", 3), ("G", 2)):
        factor = series_counts.finite_counts(series, rank, cap)
        want = [sum(want[j] * factor[k - j] for j in range(k + 1)) for k in range(cap + 1)]
    parts = [cartan.finite_cartan(series, rank).entries for series, rank in (("A", 1), ("B", 3), ("G", 2))]
    cm = cartan.from_matrix(_block_sum(*parts))
    assert list(weyl.ball_sizes(cm, cap)) == want
    # the longest element has length 1 + 9 + 6; the levels beyond are dropped
    assert len(weyl.ball_sizes(cm, 20)) == 17
    assert weyl.ball_sizes(cm, 10**9) == weyl.ball_sizes(cm, 20)


def _series_quotient(num: list[int], den: list[int]) -> list[int]:
    """Power series num / den to the length of num; den[0] must be 1."""
    out = []
    rest = list(num)
    for k in range(len(num)):
        out.append(rest[k])
        for j in range(1, min(len(den), len(num) - k)):
            rest[k + j] -= rest[k] * den[j]
    return out


@pytest.mark.parametrize("cm", cartan.all_types(8), ids=lambda cm: cm.label)
def test_quotient_walk_counts_are_the_coset_series(cm):
    """The walk with an omitted node counts W(q) / W_Θ(q) per length: the
    affine series divided by the finite series of each Levi component."""
    cap = 16
    series, rank = cm.label[0], cm.finite_rank
    for node in cm.nodes:
        theta = [i for i in cm.nodes if i != node]
        den = [1] + [0] * cap
        for levi_series, levi_rank in cartan.component_types(cm, theta):
            factor = series_counts.finite_counts(levi_series, levi_rank, cap)
            den = [sum(den[j] * factor[k - j] for j in range(k + 1)) for k in range(cap + 1)]
        want = _series_quotient(series_counts.affine_counts(series, rank, cap), den)
        got = [heights.shape[0] for _, heights, *_ in walks.levels(cm.entries, cap, (node - 1,))]
        assert got == want, node


@pytest.mark.parametrize("label", ["A2affine", "G2affine", "B3affine", "B3", "D4"])
def test_quotient_walk_is_the_set_without_kept_left_descents(label):
    """The omitted-node walk yields exactly the ball elements u with
    u⁻¹·α_j positive for every kept node j, each once, with its
    canonical word and heights, and α_c-row of its action matrix."""
    cm = _cm(label)
    bound = 6
    full = {w.word: w for w in weyl.enumerate_elements(cm, bound)}
    for c in range(cm.size):
        want = {
            word
            for word, w in full.items()
            if all(roots.is_positive(weyl.act(weyl.inverse(w), _simple_root(cm, j + 1)))
                   for j in range(cm.size) if j != c)
        }
        got = []
        for length, heights, words, rows, _ in walks.with_words(walks.levels(cm.entries, bound, (c,))):
            for h, word, g in zip(heights.tolist(), words.tolist(), rows.tolist()):
                w = full[tuple(word)]
                assert h == [sum(col) for col in zip(*w.matrix)]
                assert g == list(w.matrix[c])
                got.append(tuple(word))
        assert len(got) == len(set(got))
        assert set(got) == want


@pytest.mark.parametrize("cm", cartan.all_types(8), ids=lambda cm: cm.label)
def test_batched_walk_splits_into_the_single_node_walks(cm):
    """Walking all omitted nodes at once gives, per origin, the heights,
    words and rows of that node's walk alone, in the same order."""
    bound = 12
    omitted = tuple(range(cm.size))
    singles = [list(walks.with_words(walks.levels(cm.entries, bound, (c,)))) for c in omitted]
    batched = list(walks.with_words(walks.levels(cm.entries, bound, omitted)))
    for k, (c, single) in enumerate(zip(omitted, singles)):
        assert len(single) <= len(batched)
        for (length, heights, words, rows, origin), (_, h1, w1, r1, o1) in zip(batched, single):
            mine = origin == k
            assert np.array_equal(heights[mine], h1), (c, length)
            assert np.array_equal(words[mine], w1), (c, length)
            assert np.array_equal(rows[mine], r1), (c, length)
            assert not o1.any()
        for _, _, _, _, origin in batched[len(single):]:
            assert not (origin == k).any()


ENUMERATION_SHA256 = "0781bba9f4461d392d49958520582196dedc31d5b93adca8d2a86c1b76cf3db0"
WALKS_SHA256 = "3b05b43e01eed058e2ca75e6df83d38d6950886544cbc381935720915e643b14"


def test_enumeration_pin():
    """The (word, matrix) stream of enumerate_elements, in order, on every
    finite type up to rank 6 exhausted and every affine type up to rank 6
    at bound 7 (209,730 elements), byte for byte as the engine that kept
    whole words per element gave it."""
    digest = hashlib.sha256()
    walked = [(cm, len(roots.positive_roots(cm))) for cm in cartan.all_types(6, affine=False)]
    for cm, bound in walked + [(cm, 7) for cm in cartan.all_types(6)]:
        for w in weyl.enumerate_elements(cm, bound):
            digest.update(f"{cm.label} {w.word} {w.matrix}\n".encode())
    assert digest.hexdigest() == ENUMERATION_SHA256


def test_batched_walks_pin():
    """Every level of the batched quotient walks of all affine types up to
    rank 8 at bound 12: heights, rows, origin and the words rebuilt from
    the parent links, byte for byte as the engine that kept whole words
    per element gave them."""
    digest = hashlib.sha256()
    for cm in cartan.all_types(8):
        levels = walks.levels(cm.entries, 12, tuple(range(cm.size)))
        for length, heights, words, rows, origin in walks.with_words(levels):
            digest.update(f"{cm.label} {length} {heights.shape}\n".encode())
            for array in (heights, rows, origin, words):
                digest.update(array.tobytes())
    assert digest.hexdigest() == WALKS_SHA256


def test_walk_without_omitted_nodes_has_no_rows():
    """The library's walk covers the whole group and yields elements only;
    the quotient walk with omitted nodes and α_c-rows lives in the test
    oracle ``walks``."""
    assert list(inspect.signature(weyl._enumerate).parameters) == ["cm", "max_length"]
    elements = list(weyl._enumerate(_cm("A2affine"), 3))
    assert all(type(w) is weyl.WeylElement for w in elements)
    assert len(elements) == sum(series_counts.affine_counts("A", 2, 3))


@pytest.mark.parametrize("bound", [2.5, None, True, "3"])
def test_level_bound_must_be_an_integer(bound):
    with pytest.raises(InvalidSubsetError, match="max_length"):
        list(weyl.enumerate_elements(_cm("A2"), bound))


@pytest.mark.parametrize("bound", [[3], (3,), 2.0, "3", -1])
def test_ball_sizes_check_the_bound_before_the_cache(bound):
    # a list used to fail inside the cache with a raw TypeError (unhashable)
    with pytest.raises(InvalidSubsetError, match="max_length"):
        weyl.ball_sizes(_cm("A2affine"), bound)
    weyl.ball_sizes.cache_clear()
    assert weyl.ball_sizes(_cm("A2affine"), np.int64(2)) == (1, 3, 6)


def test_ball_sizes_have_no_depth_limit():
    assert weyl.ball_sizes(_cm("A1affine"), 40000) == (1,) + (2,) * 40000


def test_ball_sizes_count_the_series_they_build(monkeypatch):
    """The length checked before the series is built is the length built,
    after a finite series is clipped at its longest element: a limit of
    exactly that length answers as before, one less refuses."""
    for cm in cartan.all_types(9) + cartan.all_types(9, affine=False):
        for bound in (0, 7) if cm.is_affine else (0, 7, 10**18):
            counts = weyl.ball_sizes(cm, bound)
            size = len(counts)
            monkeypatch.setattr(cartan, "MAX_LIST_LENGTH", size)
            assert weyl.ball_sizes(cm, bound) == counts
            monkeypatch.setattr(cartan, "MAX_LIST_LENGTH", size - 1)
            with pytest.raises(InvalidSubsetError, match=f"^length series up to length {size - 1} would hold {size} entries"):
                weyl.ball_sizes(cm, bound)
            monkeypatch.undo()


def test_a_length_bound_past_the_limit_is_refused_before_anything_is_built():
    # 10**18 used to end in a bare MemoryError from the list of counts
    assert len(weyl.ball_sizes(_cm("E8"), 10**18)) == 121
    assert len(weyl.ball_sizes(_cm("A1affine"), cartan.MAX_LIST_LENGTH - 1)) == cartan.MAX_LIST_LENGTH
    for bound in (cartan.MAX_LIST_LENGTH, 10**18):
        refusal = f"^length series up to length {bound} would hold {bound + 1} entries, past the limit"
        with pytest.raises(InvalidSubsetError, match=refusal):
            weyl.ball_sizes(_cm("A1affine"), bound)
        with pytest.raises(InvalidSubsetError, match=refusal):
            parabolic.maximal_certificates(_cm("E8affine"), bound)


def test_ball_sizes_reach_bounds_no_walk_could():
    """E8affine at bound 24 has a level of 4,924,393 elements; the series
    counts it without holding any."""
    assert list(weyl.ball_sizes(_cm("E8affine"), 24)) == series_counts.affine_counts("E", 8, 24)


def test_ball_sizes_read_the_rows_not_the_affine_flag():
    """Answers the walk gave before the series, pinned: each component is
    classified from its own rows.  A flag the rows contradict is refused
    where the record is made: A2 rows, or A1affine ⊕ A1, flagged affine."""
    a2 = cartan.finite_cartan("A", 2).entries
    g2 = cartan.finite_cartan("G", 2).entries
    a1_affine = _cm("A1affine").entries
    block = tuple(map(tuple, _block_sum(a1_affine, ((2,),))))
    for rows, kind in ((a2, "A2"), (block, "no one named type")):
        refusal = f"^label None and affine flag True do not fit rows of {kind}$"
        with pytest.raises(InvalidCartanMatrixError, match=refusal):
            cartan.CartanMatrix(rows, True)
    assert weyl.ball_sizes(cartan.CartanMatrix(block, False), 6) == (1, 3, 4, 4, 4, 4, 4)
    assert weyl.ball_sizes(cartan.from_matrix(_block_sum(g2, a2)), 6) == (1, 4, 8, 11, 12, 12, 11)


def _path(n):
    return tuple(tuple(2 if i == j else -(abs(i - j) == 1) for j in range(n)) for i in range(n))


def test_ball_sizes_refuse_components_of_no_named_type():
    """A component the library cannot name has no series here: a
    hyperbolic rank-2 matrix.  Nor has a hand-built ambient above the size
    limit, connected or not."""
    with pytest.raises(ClassificationError, match=re.escape(cartan._NO_MATCH)):
        weyl.ball_sizes(cartan.CartanMatrix(((2, -3), (-3, 2)), False), 3)
    for rows in (_path(26), _block_sum(_path(13), _path(13))):
        with pytest.raises(UnsupportedRankError, match="^matrices are limited to 25 nodes, got 26$"):
            weyl.ball_sizes(cartan.CartanMatrix(tuple(map(tuple, rows)), False), 3)


def test_ball_sizes_answer_at_ranks_ten_to_the_size_limit():
    """A10 rows get the walk's answer back, and at 25 nodes the series
    agrees with the walk's per-length counts, finite and affine."""
    assert weyl.ball_sizes(cartan.from_matrix(_path(10)), 3) == (1, 10, 54, 209)
    for label in ("A25", "B25", "D24affine"):
        cm = _cm(label)
        counts = [0] * 4
        for w in weyl.enumerate_elements(cm, 3):
            counts[w.length] += 1
        assert weyl.ball_sizes(cm, 3) == tuple(counts), label


def test_enumeration_refuses_to_wrap():
    """Entries of the hyperbolic ((2, -3), (-3, 2)) grow geometrically with
    length.  To bound 40 the walk is whole, two elements at every positive
    length, as the group has.  Bound 60 would need entries past int64: the
    walk raises, and every level it yields before that is whole."""
    cm = cartan.CartanMatrix(((2, -3), (-3, 2)), False)
    counts = [0] * 61
    for w in weyl.enumerate_elements(cm, 40):
        counts[w.length] += 1
    assert counts[:41] == [1] + [2] * 40
    counts = [0] * 61
    with pytest.raises(EntryOverflowError, match="past int64"):
        for w in weyl.enumerate_elements(cm, 60):
            counts[w.length] += 1
    reached = max(k for k, c in enumerate(counts) if c)
    assert 40 <= reached < 60 and counts[: reached + 1] == [1] + [2] * reached
    # entries past int64 in the matrix itself used to escape as numpy's OverflowError
    with pytest.raises(EntryOverflowError, match="past int64"):
        list(weyl.enumerate_elements(cartan.CartanMatrix(((2, -10**20), (-1, 2)), False), 3))


@pytest.mark.parametrize("rows", [((2, -3), (-3, 2)), ((2, -5), (-1, 2))])
def test_enumeration_guards_the_heights(rows):
    """The walk stops at the first level L whose heights, times grow = 1 +
    max|a_ji|, pass int64: the bound on the descent test's products and on
    the next level's heights.  Every level up to L is whole (two elements
    at each positive length, as an infinite dihedral group has), and the
    heights are read here as Python column sums of the yielded matrices."""
    cm = cartan.CartanMatrix(rows, False)
    grow = 1 + max(abs(a) for row in rows for a in row)
    top = [0] * 201
    counts = [0] * 201
    with pytest.raises(EntryOverflowError, match="heights past int64"):
        for w in weyl.enumerate_elements(cm, 200):
            counts[w.length] += 1
            top[w.length] = max(top[w.length], *(abs(sum(col)) for col in zip(*w.matrix)))
    reached = max(k for k, c in enumerate(counts) if c)
    assert counts[: reached + 1] == [1] + [2] * reached
    assert all(grow * h <= 2**63 - 1 for h in top[:reached])
    assert grow * top[reached] > 2**63 - 1


def test_enumeration_is_exact_past_narrow_integers():
    """The hyperbolic walk to bound 40 has entries past 32,767 and past
    2^31 − 1.  Every matrix it yields is the one the numpy-free word path
    builds, in Python ints."""
    cm = cartan.CartanMatrix(((2, -3), (-3, 2)), False)
    walk = list(weyl.enumerate_elements(cm, 40))
    assert len(walk) == 81
    for w in walk:
        assert w.matrix == weyl.from_word(cm, w.word).matrix
    entries = [x for w in walk for row in w.matrix for x in row]
    assert all(type(x) is int for x in entries)
    assert max(map(abs, entries)) > 2**31 - 1 > 32_767


def test_enumeration_shares_equal_rows():
    """Within one walk equal rows are one tuple object, so a caller that
    keeps the elements holds one new tuple per element, not one per row."""
    walk = list(weyl.enumerate_elements(_cm("E6affine"), 6))
    rows = [r for w in walk for r in w.matrix]
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows) // 10


def test_enumeration_checks_its_bound_when_called():
    with pytest.raises(InvalidSubsetError, match="max_length"):
        weyl.enumerate_elements(_cm("A2"), "3")


def test_negative_bound_rejected():
    with pytest.raises(InvalidSubsetError):
        list(weyl.enumerate_elements(_cm("A2"), -1))


def test_element_json():
    cm = _cm("A2")
    w = weyl.from_word(cm, (1, 2))
    obj = weyl.element_to_json(w)
    assert obj == {
        "word": [1, 2],
        "matrix": [list(r) for r in w.matrix],
        "length": 2,
    }


# --- the element record's contract -------------------------------------------

# reprs of the B3affine walk to length 4, one per line, as the frozen
# dataclass that the record used to be printed them
ELEMENT_REPR_SHA256 = "50444053f3a01a19bf8e01d6220b8c8a34369f54bc4782e8295c4ee9cb26c701"


def _record_elements():
    """Elements from every path that builds one."""
    cm = _cm("B3affine")
    w1, w2 = weyl.from_word(cm, (1, 2, 3)), weyl.from_word(cm, (4, 2, 1, 2))
    return [
        w1, w2, weyl.inverse(w1), weyl.compose(w1, w2), weyl.identity(cm),
        weyl.longest_element(cm, (1, 2, 3)), *weyl.enumerate_elements(cm, 2),
    ]


def test_elements_are_named_tuples():
    for w in _record_elements():
        assert type(w) is weyl.WeylElement
        assert w == (w.ambient, w.word, w.matrix) == tuple(w)


def test_element_hash_repr_and_str_read_the_fields():
    for w in _record_elements():
        assert hash(w) == hash((w.ambient, w.word, w.matrix))
        assert repr(w) == f"WeylElement(ambient={w.ambient!r}, word={w.word!r}, matrix={w.matrix!r})"
        assert str(w) == f"WeylElement({'.'.join(map(str, w.word)) or 'e'})"
        assert w.length == len(w.word)
    reprs = "\n".join(map(repr, weyl.enumerate_elements(_cm("B3affine"), 4)))
    assert hashlib.sha256(reprs.encode()).hexdigest() == ELEMENT_REPR_SHA256


def test_elements_are_immutable():
    for w in _record_elements():
        for field in ("ambient", "word", "matrix"):
            with pytest.raises(AttributeError):
                setattr(w, field, ())


def test_walk_stays_lazy():
    """A walk that built its levels ahead would not return at this bound;
    ``test_enumeration_shares_equal_rows`` pins the walk's shared rows."""
    first = next(weyl.enumerate_elements(_cm("E8affine"), 10**6))
    assert first.word == () and first.matrix == weyl.identity(_cm("E8affine")).matrix


# --- the symmetric bilinear form is invariant --------------------------------


@given(type_and_word(max_len=6))
def test_action_preserves_symmetrized_form(cw):
    """Group elements are isometries of the symmetrized pairing."""
    cm, word = cw
    w = weyl.from_word(cm, word)
    d = cartan.symmetrizer(cm)
    n = cm.size

    def form(beta, gamma):
        return sum(
            Fraction(beta[i] * gamma[j] * cm.entries[i][j], d[j])
            for i in range(n)
            for j in range(n)
        )

    basis = [_simple_root(cm, i) for i in cm.nodes]
    for a in basis:
        for b in basis:
            assert form(weyl.act(w, a), weyl.act(w, b)) == form(a, b)


# --- the per-element path, pinned and rebuilt densely ------------------------

PIN_TYPES = cartan.all_types(9, affine=False) + cartan.all_types(9)


def _seeded_word_pairs(cm):
    """Twelve seeded pairs of letter sequences, up to 3n letters each."""
    rng = random.Random(f"{cm.label} words")
    draw = lambda: [rng.randint(1, cm.size) for _ in range(rng.randint(0, 3 * cm.size))]
    return [(draw(), draw()) for _ in range(12)]


def _path_elements(cm):
    """(label, element) for every per-element output the pin covers."""
    for a, b in _seeded_word_pairs(cm):
        w1, w2 = weyl.from_word(cm, a), weyl.from_word(cm, b)
        yield f"from_word {a}", w1
        yield f"from_word {b}", w2
        yield f"inverse {a}", weyl.inverse(w1)
        yield f"compose {a} {b}", weyl.compose(w1, w2)
    for node in cm.nodes:
        others = tuple(i for i in cm.nodes if i != node)
        yield f"longest_element {others}", weyl.longest_element(cm, others)


def _path_lines():
    for cm in PIN_TYPES:
        for what, w in _path_elements(cm):
            yield f"{cm.label} {what} {w.word} {w.matrix}"
            yield f"{cm.label} canonical_word {canonical_words.canonical_word(cm.entries, w.matrix, w.length)}"


PATH_SHA256 = "1458591832f7e72beb47b4b3f80061f15c1237e38882e033927dacc2dc1b444e"


def test_per_element_path_pin():
    """Words and matrices of from_word, inverse, compose and the maximal
    Levis' longest elements on every type up to rank 9, and the canonical
    word each matrix reads back to (``canonical_words``), byte for byte as
    the dense row updates gave them."""
    text = "\n".join(_path_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == PATH_SHA256


def _dense_matrix(entries, word):
    """Product S_{i_1}···S_{i_k} by dense integer matrix products, where
    column c of S_i is α_c - a_ci·α_i (entries stay far inside int64)."""
    n = len(entries)
    a = np.array(entries, dtype=np.int64)
    m = np.eye(n, dtype=np.int64)
    for i in word:
        s = np.eye(n, dtype=np.int64)
        s[i - 1] -= a[:, i - 1]
        m = m @ s
    return tuple(tuple(r) for r in m.tolist())


@pytest.mark.parametrize("cm", PIN_TYPES, ids=lambda cm: cm.label)
def test_per_element_matrices_are_dense_products(cm):
    dense = lambda word: _dense_matrix(cm.entries, word)
    for a, b in _seeded_word_pairs(cm):
        w1, w2 = weyl.from_word(cm, a), weyl.from_word(cm, b)
        assert w1.matrix == dense(a) == dense(w1.word)
        assert w2.matrix == dense(b) == dense(w2.word)
        assert weyl.inverse(w1).matrix == dense(a[::-1])
        assert weyl.compose(w1, w2).matrix == dense(a + b)
        assert canonical_words.canonical_word(cm.entries, dense(a), len(a)) == w1.word
    for node in cm.nodes:
        w0 = weyl.longest_element(cm, tuple(i for i in cm.nodes if i != node))
        assert w0.matrix == dense(w0.word)


# --- the word path: reduce first, then build one matrix ----------------------

WORD_PIN_TYPES = cartan.all_types(8) + cartan.all_types(6, affine=False)


def _random_word(rng, cm, length):
    return [rng.randint(1, cm.size) for _ in range(length)]


def _random_reduced_word(rng, cm, length):
    """A reduced word of at most ``length`` letters: each letter is a random
    ascent (a node i with ht(w·α_i) > 0), tracked on the height vector
    h_j -= h_i·a_ji; a finite group may run out of ascents first."""
    n = cm.size
    h = [1] * n
    word = []
    while len(word) < length:
        ascents = [i for i in range(n) if h[i] > 0]
        if not ascents:
            break
        i = rng.choice(ascents)
        hi = h[i]
        for j in range(n):
            h[j] -= hi * cm.entries[j][i]
        word.append(i + 1)
    return word


def _word_path_lines():
    for cm in WORD_PIN_TYPES:
        rng = random.Random(f"{cm.label} word path")
        for length in range(25):
            for word in (_random_word(rng, cm, length), _random_reduced_word(rng, cm, length)):
                w = weyl.from_word(cm, word)
                other = weyl.from_word(cm, _random_word(rng, cm, length))
                inv, comp = weyl.inverse(w), weyl.compose(w, other)
                yield f"{cm.label} {word} from_word {w.word} {w.matrix}"
                yield f"reduce_word {weyl.reduce_word(cm, word)}"
                yield f"inverse {inv.word} {inv.matrix}"
                yield f"compose {other.word} {comp.word} {comp.matrix}"


WORD_PATH_SHA256 = "e63c2ff7ed92071a712fb9ae33c40b3686a69779b1abe4789eab993003dd2d89"


def test_word_path_pin():
    """Words and matrices of from_word, inverse and compose, and the words
    of reduce_word, on seeded reduced and non-reduced words of length 0-24
    over every affine type up to rank 8 and every finite type up to rank 6,
    byte for byte as the build-then-reduce path gave them."""
    text = "\n".join(_word_path_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == WORD_PATH_SHA256


# the same letters as each way a caller may hand a word in
WORD_FEEDS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda word: (i for i in word),
    "int64": lambda word: np.array(word, dtype=np.int64),
}


def _word_ops_lines():
    for cm in ROW_TYPES:
        rng = random.Random(f"{cm.label} word ops")
        for length in range(25):
            word, other = _random_word(rng, cm, length), _random_word(rng, cm, length)
            for feed, make in WORD_FEEDS.items():
                w, v = weyl.from_word(cm, make(word)), weyl.from_word(cm, make(other))
                inv, comp = weyl.inverse(w), weyl.compose(w, v)
                yield f"{cm.label} {feed} {word} from_word {w.word} {w.matrix}"
                yield f"reduce_word {weyl.reduce_word(cm, make(word))}"
                yield f"inverse {inv.word} {inv.matrix}"
                yield f"compose {other} {comp.word} {comp.matrix}"


WORD_OPS_SHA256 = "7f2d8e03fc5f2c6846310703f8a15486878a594f3dd0aea5173c374579fc8640"


def test_word_ops_pin():
    """Words and matrices of from_word, inverse and compose, and the words
    of reduce_word, on seeded words of length 0-24 over every affine type
    up to rank 9 and every finite type up to rank 8, each word handed in
    as a tuple, a list, a generator and an int64 array."""
    text = "\n".join(_word_ops_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == WORD_OPS_SHA256


@given(type_and_word())
def test_reduce_first_matches_the_built_element(cw):
    """reduce_word agrees with from_word, and from_word's matrix, built from
    the canonical word, is the product of the input letters' reflections."""
    cm, word = cw
    w = weyl.from_word(cm, word)
    assert weyl.reduce_word(cm, word) == w.word
    assert w.matrix == _dense_matrix(cm.entries, word)


def test_word_operations_build_one_matrix_from_the_canonical_word(monkeypatch):
    calls = []
    matrix = weyl._matrix
    monkeypatch.setattr(weyl, "_matrix", lambda moves, letters: calls.append(tuple(letters)) or matrix(moves, letters))
    cm = _cm("A2affine")
    word = (1, 2, 2, 3, 1, 3, 3, 2, 1, 1)
    assert weyl.reduce_word(cm, word) == (1, 3, 1, 2)
    assert calls == []
    w = weyl.from_word(cm, word)
    assert calls == [w.word] == [(1, 3, 1, 2)]
    calls.clear()
    inv = weyl.inverse(w)
    comp = weyl.compose(w, inv)
    assert calls == [inv.word, comp.word] == [(2, 1, 3, 1), ()]


class _Letters(NamedTuple):
    """A named tuple from outside the library: a word like any tuple."""

    first: int
    second: int


@pytest.mark.parametrize(
    "make,want",
    [
        (lambda: (1, np.int64(2)), (1, 2)),
        (lambda: np.array([1, 2], dtype=np.int8), (1, 2)),
        (lambda: iter([1, 2]), (1, 2)),
        (lambda: (1, 2, 3), (1, 2, 3)),
        (lambda: _Letters(2, 1), (2, 1)),
        (lambda: (1, True), "letter True is not an integer"),
        (lambda: (1, 2.0), "letter 2.0 is not an integer"),
        (lambda: (1, 2, 0), "letter 0 out of range 1..3"),
        (lambda: (1, "2"), "letter '2' is not an integer"),
        (lambda: "12", "letter '1' is not an integer"),
        # the first bad letter names the error, first, in the middle or last,
        # from a tuple as from a list
        (lambda: (4, 1, 0), "letter 4 out of range 1..3"),
        (lambda: [4, 1, 0], "letter 4 out of range 1..3"),
        (lambda: (1, 2.5, 0), "letter 2.5 is not an integer"),
        (lambda: [1, 2.5, 0], "letter 2.5 is not an integer"),
        (lambda: (1, 2, np.int64(9)), "letter 9 out of range 1..3"),
        (lambda: [1, 2, np.int64(9)], "letter 9 out of range 1..3"),
        # the library's own records are refused whole
        (lambda: _cm("A1"), f"word {_cm('A1')!r} is not a sequence"),
    ],
)
def test_letter_reader_keeps_its_results_and_errors(make, want):
    """The plain-int fast path and the per-letter fallback give the words
    and errors the per-letter check alone gave, and a plain tuple of valid
    letters is read in place."""
    cm = _cm("A2affine")
    for call in (lambda: weyl.from_word(cm, make()).word, lambda: weyl.reduce_word(cm, make())):
        if isinstance(want, tuple):
            got = call()
            assert got == want and all(type(i) is int for i in got)
        else:
            with pytest.raises(InvalidSubsetError, match=f"^{re.escape(want)}$"):
                call()
    word = make()
    if type(word) is tuple and all(type(i) is int for i in word) and isinstance(want, tuple):
        assert weyl._letters(word, cm.size) is word


def test_non_elements_are_rejected():
    # each of these used to raise a raw AttributeError or TypeError
    cm = _cm("A2affine")
    calls = [
        lambda: weyl.compose(5, 5),
        lambda: weyl.compose(weyl.identity(cm), 5),
        lambda: weyl.inverse(5),
        lambda: weyl.inversions(5),
        lambda: weyl.act(5, (1, 2, 3)),
        lambda: weyl.element_to_json(5),
    ]
    for call in calls:
        with pytest.raises(InvalidSubsetError, match="^5 is not a WeylElement$"):
            call()


def test_matrix_readers_check_the_stored_matrix():
    """``act``, ``element_to_json`` and ``inversions`` read the stored word
    like an input word and refuse a stored matrix that is not that reduced
    word's."""
    # act answered () for the first; the rest raised a raw TypeError or
    # AttributeError, except inversions, which answered ((-1, 0, 0), (1, 0, 0))
    # for (1, 1): a negative root, and two roots for an element of length 0
    cm = _cm("A2affine")
    s1 = weyl.simple(cm, 1)
    cases = [
        (lambda: weyl.act(weyl.WeylElement(cm, (1,), ()), (1, 0, 0)), "stored matrix is not the matrix of the word (1,)"),
        (lambda: weyl.act(weyl.WeylElement(cm, (1,), 5), (1, 0, 0)), "stored matrix is not the matrix of the word (1,)"),
        (lambda: weyl.act(weyl.WeylElement(cm, (2,), s1.matrix), (1, 0, 0)), "stored matrix is not the matrix of the word (2,)"),
        (lambda: weyl.element_to_json(weyl.WeylElement(cm, (1,), [list(r) for r in s1.matrix])),
         "stored matrix is not the matrix of the word (1,)"),
        (lambda: weyl.element_to_json(weyl.WeylElement(cm, 5, ())), "word 5 is not a sequence"),
        (lambda: weyl.element_to_json(weyl.WeylElement(cm, (1, 1), weyl.identity(cm).matrix)),
         "stored word (1, 1) is not reduced"),
        (lambda: weyl.element_to_json(weyl.WeylElement(5, (1,), ())), "ambient 5 is not a CartanMatrix"),
        (lambda: weyl.inversions(weyl.WeylElement(cm, (1, 1), ())), "stored matrix is not the matrix of the word (1, 1)"),
        (lambda: weyl.inversions(weyl.WeylElement(cm, (1, 1), weyl.identity(cm).matrix)),
         "stored word (1, 1) is not reduced"),
    ]
    for call, message in cases:
        with pytest.raises(InvalidSubsetError, match=f"^{re.escape(message)}$"):
            call()
    # elements the library builds are read as before, a longest element's
    # non-canonical word included
    w0 = weyl.longest_element(cm, (1, 2))
    assert weyl.element_to_json(w0) == {"word": list(w0.word), "matrix": [list(r) for r in w0.matrix], "length": 3}
    assert weyl.inversions(w0) == ((0, 1, 0), (1, 0, 0), (1, 1, 0))
    assert weyl.act(s1, (1, 0, 0)) == (-1, 0, 0)


def test_stored_words_are_read_like_input_words():
    """A hand-built element's word is read like an input word where the
    element is made, so no reader meets a bad one."""
    cm = _cm("A2affine")
    with pytest.raises(InvalidSubsetError, match="^word None is not a sequence$"):
        weyl.WeylElement(cm, None, ())
    with pytest.raises(InvalidSubsetError, match="^letter 4 out of range 1..3$"):
        weyl.WeylElement(cm, (1, 4), ())
    with pytest.raises(InvalidSubsetError, match="^letter 1.0 is not an integer$"):
        weyl.WeylElement(cm, [1.0], ())
    # inverse answered (1,) for this element; it is now refused where it is made
    with pytest.raises(InvalidSubsetError, match=r"^stored matrix is not the matrix of the word \(1, 2, 2\)$"):
        weyl.WeylElement(cm, [1, 2, 2], ())
    # a checked element keeps its word as a tuple of ints and the built matrix
    s1 = weyl.simple(cm, 1)
    w = weyl.WeylElement(cm, [np.int64(1)], s1.matrix)
    assert w == s1 and type(w.word) is tuple and type(w.word[0]) is int
    assert w.matrix[1] is weyl.identity(cm).matrix[1]


def test_word_operations_trust_the_elements_the_library_built(monkeypatch):
    """``inverse`` and ``compose`` read no letter again, and ``act``,
    ``inversions`` and ``element_to_json`` rebuild no matrix and reduce no
    word, on elements from ``from_word``, from ``enumerate_elements`` and
    from ``longest_element`` (whose word is not canonical)."""
    cm = _cm("A3affine")
    w0 = weyl.longest_element(cm, (1, 2, 3))
    assert w0.word != weyl.reduce_word(cm, w0.word)
    elements = [weyl.from_word(cm, (1, 2, 4, 3, 1)), *weyl.enumerate_elements(cm, 3), w0]
    calls = {"_letters": 0, "_matrix": 0, "_reduce": 0}
    for name in calls:
        original = getattr(weyl, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(weyl, name, counted)
    for w in elements:
        weyl.inverse(w)
        weyl.compose(w, w0)
    assert calls["_letters"] == 0
    calls.update(dict.fromkeys(calls, 0))
    for w in elements:
        assert weyl.act(w, (1, 0, 0, 0)) == tuple(row[0] for row in w.matrix)
        assert len(weyl.inversions(w)) == w.length
        assert weyl.element_to_json(w)["word"] == list(w.word)
    assert calls == {"_letters": 0, "_matrix": 0, "_reduce": 0}

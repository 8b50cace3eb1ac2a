import copy
import json
import pickle
import random
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ambient
import classifier
import closed_forms
import null_spaces
import symmetrizer
from loopatlas import cartan, roots
from loopatlas.errors import (
    ClassificationError,
    InvalidCartanMatrixError,
    InvalidSubsetError,
    TwistedTypeError,
    UnsupportedRankError,
)

# The sweeps stop at rank 9, where the Euclidean and catalog oracles are
# cheap; ranks 10..N are checked against ``closed_forms`` below.
RANKS_TO_9 = {"A": (1, 9), "B": (2, 9), "C": (2, 9), "D": (4, 9), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
ALL_FINITE = [(s, r) for s, (lo, hi) in RANKS_TO_9.items() for r in range(lo, hi + 1)]
N = 25  # the size limit, in nodes
NO_MATCH = r"^matrix matches no finite or untwisted affine type of at most 25 nodes$"


# --- construction -----------------------------------------------------------


def test_small_matrices_frozen():
    assert cartan.finite_cartan("A", 1).entries == ((2,),)
    assert cartan.finite_cartan("A", 2).entries == ((2, -1), (-1, 2))
    assert cartan.finite_cartan("B", 2).entries == ((2, -2), (-1, 2))
    assert cartan.finite_cartan("C", 2).entries == ((2, -1), (-2, 2))
    assert cartan.finite_cartan("G", 2).entries == ((2, -1), (-3, 2))


def test_f4_frozen():
    assert cartan.finite_cartan("F", 4).entries == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_d4_frozen():
    assert cartan.finite_cartan("D", 4).entries == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_entries_match_ambient_realization(series, rank):
    """Every catalogued finite matrix agrees with the Euclidean oracle."""
    cm = cartan.finite_cartan(series, rank)
    simple = ambient.simple_roots(series, rank)
    for i in range(rank):
        for j in range(rank):
            assert cm.entries[i][j] == ambient.cartan_entry(simple, i, j), (i, j)


def test_entry_accessor_is_one_based():
    cm = cartan.finite_cartan("B", 2)
    assert cm.entry(1, 2) == -2
    assert cm.entry(2, 1) == -1
    assert cm.nodes == (1, 2)
    assert cm.size == 2
    assert cm.finite_rank == 2


def test_hash_is_cached_and_never_carried_along():
    """The hash is the tuple hash of the fields, computed once per
    instance.  String hashes are salted per process, so neither a pickle
    nor a copy may carry the cached value."""
    cm = cartan.parse_type("A8affine")
    assert hash(cm) == hash((cm.entries, cm.is_affine, cm.label))
    assert "_hash" in vars(cm)
    assert b"_hash" not in pickle.dumps(cm)
    for twin in (pickle.loads(pickle.dumps(cm)), copy.copy(cm), copy.deepcopy(cm)):
        assert "_hash" not in vars(twin)
        assert twin == cm and hash(twin) == hash(cm)
    assert hash(cartan.from_matrix(cm.entries)) == hash(cm)


def test_a_record_stores_its_rows_as_from_matrix_reads_them():
    """Lists and integral floats are stored as tuples of ints (numpy arrays
    in ``test_numpy_integer_arrays_read_as_lists``): float rows once gave
    positive roots that mixed floats and ints.  A label is read as ``parse_type`` reads it and kept when it names
    the rows' class, so C2 rows keep "C2" and are labelled "B2" unlabelled."""
    a2 = cartan.finite_cartan("A", 2)
    for rows in ([[2, -1], [-1, 2]], ((2.0, -1.0), (-1.0, 2.0))):
        cm = cartan.CartanMatrix(rows, False)
        assert cm == a2 and hash(cm) == hash(a2)
        assert all(type(x) is int for row in cm.entries for x in row)
        assert all(type(x) is int for root in roots.positive_roots(cm) for x in root)
    c2 = cartan.finite_cartan("C", 2).entries
    assert cartan.CartanMatrix(c2, False, " c2 ").label == "C2"
    assert cartan.CartanMatrix(c2, False).label == "B2"
    assert cartan.CartanMatrix(cartan.parse_type("C2affine").entries, True, "C2affine").label == "C2affine"


def test_unsupported_ranks():
    assert cartan.MAX_NODES == N
    for series, rank in [("A", 0), ("A", N + 1), ("D", 3), ("D", N + 1), ("E", 5), ("E", 9), ("F", 5), ("G", 3)]:
        with pytest.raises(UnsupportedRankError):
            cartan.finite_cartan(series, rank)
    with pytest.raises(InvalidCartanMatrixError):
        cartan.finite_cartan("H", 3)
    assert cartan.finite_cartan("D", N).size == N
    # an affine type of rank N would have N + 1 nodes
    for build in (lambda: cartan.parse_type(f"A{N}affine"), lambda: cartan.affinize(cartan.finite_cartan("C", N))):
        with pytest.raises(UnsupportedRankError, match=f"^matrices are limited to {N} nodes, got {N + 1}$"):
            build()


def test_ranks_must_be_integers():
    for bad in (2.5, True, "2", None):
        with pytest.raises(InvalidSubsetError, match="rank .* is not an integer"):
            cartan.finite_cartan("A", bad)
        with pytest.raises(InvalidSubsetError, match="rank .* is not an integer"):
            cartan.all_types(bad)
    assert cartan.finite_cartan("A", np.int64(3)).label == "A3"
    assert cartan.all_types(np.int8(2)) == cartan.all_types(2)


def test_gcm_axioms_rejections():
    bad = [
        [[1]],                       # diagonal not 2
        [[2, 1], [-1, 2]],           # positive off-diagonal
        [[2, 0], [-1, 2]],           # asymmetric zero pattern
        [[2, -1], [-1, 2], [0, 0]],  # not square
        [],                          # empty
    ]
    for rows in bad:
        with pytest.raises(InvalidCartanMatrixError):
            cartan.from_matrix(rows)
    with pytest.raises(InvalidCartanMatrixError):
        cartan.from_matrix([[2.5, -1], [-1, 2]])
    # integral floats are fine, JSON hands those over
    assert cartan.from_matrix([[2.0, -1.0], [-1.0, 2.0]]).label == "A2"


def test_non_symmetrizable_rejected():
    # 3-cycle with unbalanced ratio product has no symmetrizer
    rows = [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]]
    with pytest.raises(InvalidCartanMatrixError):
        cartan.symmetrizer(rows)
    # a one-sided zero used to divide by zero
    for rows in ([[2, -1], [0, 2]], [[2, 0], [-1, 2]]):
        with pytest.raises(InvalidCartanMatrixError, match="not symmetrizable"):
            cartan.symmetrizer(rows)


def test_symmetrizer_refuses_opposite_signs():
    # off-diagonal entries of opposite signs used to give (1, -1)
    for rows in ([[2, -1], [1, 2]], [[2, 1], [-1, 2]], [[2, 0, 0], [0, 2, -2], [0, 1, 2]]):
        with pytest.raises(InvalidCartanMatrixError, match="not symmetrizable"):
            cartan.symmetrizer(rows)
    assert cartan.symmetrizer([[2, 1], [1, 2]]) == (1, 1)


@pytest.mark.parametrize(
    "bad,message",
    [
        (None, "not a list of rows"),
        (5, "not a list of rows"),
        ([5, 6], "not a list of rows"),
        ([[2, -1], [-1]], "must be square"),
        ("ab", "non-integer entry 'a'"),
        ([[2, "x"], ["x", 2]], "non-integer entry 'x'"),
        ([[2, -1j], [-1, 2]], "non-integer entry"),
        ([[2, True], [True, 2]], "non-integer entry True"),  # a bool is no integer entry
        ([[2, np.True_], [np.True_, 2]], "non-integer entry np.True_"),
        (np.eye(2, dtype=bool), "non-integer entry np.True_"),
        (np.full((2, 2), 2, dtype=np.float32), r"non-integer entry np.float32\(2.0\)"),
    ],
)
def test_raw_rows_are_rejected_with_library_errors(bad, message):
    """These used to escape as raw TypeError or IndexError, or, for "ab",
    give a determinant."""
    for call in (cartan.symmetrizer, cartan.from_matrix):
        with pytest.raises(InvalidCartanMatrixError, match=message):
            call(bad)
    with pytest.raises(ClassificationError, match=NO_MATCH):
        cartan.classify(bad)


def test_numpy_integer_arrays_read_as_lists():
    """int8 and int64 arrays of every catalog type up to rank 8, its nodes
    permuted (the attached node kept last), give the answers, or the
    errors, of the same rows as lists, and so does a record built of them.
    ``from_matrix`` and the entry readers behind it used to refuse numpy
    integers."""
    rng = random.Random(27)
    seen = 0
    for *_, affine, rows in classifier.catalog():
        if len(rows) - affine > 8:
            continue
        rows = _relabelled(rows, rng, affine)
        calls = (cartan.from_matrix, cartan.symmetrizer, cartan.classify)
        calls += (lambda r: cartan.CartanMatrix(r, affine),)
        want = [_outcome(call, rows) for call in calls]
        assert type(want[0]) is cartan.CartanMatrix and want[-1] == want[0]
        for dtype in (np.int8, np.int64):
            assert [_outcome(call, np.array(rows, dtype=dtype)) for call in calls] == want, rows
        seen += 1
    assert seen == 62  # 31 finite types and their affinizations


# --- symmetrizer ------------------------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_symmetrizer_property(series, rank):
    cm = cartan.finite_cartan(series, rank)
    d = cartan.symmetrizer(cm)
    assert all(x >= 1 for x in d)
    for i in range(rank):
        for j in range(rank):
            assert d[i] * cm.entries[i][j] == d[j] * cm.entries[j][i]


def test_symmetrizer_frozen_values():
    assert cartan.symmetrizer(cartan.finite_cartan("B", 3)) == (1, 1, 2)
    assert cartan.symmetrizer(cartan.finite_cartan("C", 3)) == (2, 2, 1)
    assert cartan.symmetrizer(cartan.finite_cartan("F", 4)) == (1, 1, 2, 2)
    assert cartan.symmetrizer(cartan.finite_cartan("G", 2)) == (3, 1)
    assert cartan.symmetrizer(cartan.finite_cartan("A", 5)) == (1, 1, 1, 1, 1)


def test_symmetrizer_short_roots_get_larger_entry():
    """The symmetrizer scales inversely with squared root length."""
    for series, rank in ALL_FINITE:
        cm = cartan.finite_cartan(series, rank)
        d = cartan.symmetrizer(cm)
        simple = ambient.simple_roots(series, rank)
        norms = [ambient.dot(a, a) for a in simple]
        for i in range(rank):
            for j in range(rank):
                # d_i / d_j == |alpha_j|^2 / |alpha_i|^2
                assert d[i] * norms[i] == d[j] * norms[j]


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def test_symmetrizer_matches_fraction_oracle():
    """The integer symmetrizer against the fraction one: the same tuple, or
    the same error class and message, on every catalog matrix with its
    nodes permuted, on block sums (components interleaved by the
    permutation), on rows that have no symmetrizer, alone and beside a
    valid block, and on seeded random rows."""
    rng = random.Random(18)
    catalog = [rows for *_, rows in classifier.catalog()]
    refused = [
        [[2, -1], [1, 2]],  # off-diagonal signs disagree
        [[2, 1], [-1, 2]],
        [[2, 0, 0], [0, 2, -2], [0, 1, 2]],
        [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]],  # 3-cycle with unbalanced ratio product
        [[2, -1], [0, 2]],  # one-sided zeros
        [[2, 0], [-1, 2]],
        [[2, -1, 0], [-1, 2, 0], [0, -3, 2]],
    ]
    refused += [_block_sum(catalog[3], rows) for rows in refused]
    for rows in refused:
        assert _outcome(symmetrizer.symmetrizer, rows) == ("InvalidCartanMatrixError", "matrix is not symmetrizable")
    cases = [_permuted(rows, rng) for rows in catalog]
    cases += [_permuted(_block_sum(*rng.sample(catalog, 2)), rng) for _ in range(40)]
    cases += [_block_sum(catalog[0], catalog[1]), _block_sum(catalog[5], _block_sum(catalog[2], catalog[9]))]
    cases += [
        [[2 if i == j else rng.choice((0, 0, -1, -2, -3, -4, 1)) for j in range(n)] for i in range(n)]
        for n in [rng.randint(1, 6) for _ in range(300)]
    ]
    for rows in cases + refused:
        assert _outcome(cartan.symmetrizer, rows) == _outcome(symmetrizer.symmetrizer, rows), rows


# --- definiteness -----------------------------------------------------------


def _leibniz(rows):
    """Determinant as the signed sum over permutations, sign by inversion count."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _leading_minors(rows):
    """The leading principal minors by exact ``Fraction`` elimination with
    no row exchanges: the k-th is the product of the first k pivots.  Past
    a zero pivot the elimination cannot go on, so the list ends there."""
    mat = [[Fraction(x) for x in row] for row in rows]
    minors, product = [], Fraction(1)
    for k, top in enumerate(mat):
        product *= top[k]
        minors.append(product)
        if not top[k]:
            break
        for row in mat[k + 1 :]:
            factor = row[k] / top[k]
            row[k:] = [x - factor * t for x, t in zip(row[k:], top[k:])]
    return minors


@pytest.mark.parametrize("cm", cartan.all_types(9, affine=False) + cartan.all_types(9), ids=lambda cm: cm.label)
def test_catalog_definiteness(cm):
    """Sylvester on the symmetrization: every finite type is positive
    definite and no affine type is.  The pivots are the leading minors at
    every size, which also shows the elimination exchanged no rows: an
    exchange needs a zero leading minor before the last."""
    d = cartan.symmetrizer(cm)
    sym = [[d[i] * x for x in row] for i, row in enumerate(cm.entries)]
    echelon, pivots = cartan._eliminate(sym)
    leading = [echelon[k][k] for k in pivots]
    assert all(p > 0 for p in leading)
    assert len(pivots) == (cm.size - 1 if cm.is_affine else cm.size)
    assert leading + [0] * (cm.size - len(pivots)) == _leading_minors(sym)
    assert cartan.from_matrix(cm.entries).is_affine == cm.is_affine


# --- affinization -----------------------------------------------------------


def test_affinize_a1():
    cm = cartan.affinize(cartan.finite_cartan("A", 1))
    assert cm.entries == ((2, -2), (-2, 2))
    assert cm.is_affine
    assert cm.label == "A1affine"
    assert cm.finite_rank == 1


def test_affinize_a2_is_cycle():
    cm = cartan.affinize(cartan.finite_cartan("A", 2))
    assert cm.entries == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_affinize_invariants(series, rank):
    cm = cartan.affinize(cartan.finite_cartan(series, rank))
    n = cm.size
    assert n == rank + 1
    marks = ambient.highest_root_coords(series, rank)
    comarks = ambient.comark_coords(series, rank)
    assert null_spaces.null_vector([list(col) for col in zip(*cm.entries)]) == marks + (1,)
    assert null_spaces.null_vector(cm.entries) == comarks + (1,)
    # attached row evaluates the negated highest root on each coroot
    simple = ambient.simple_roots(series, rank)
    dim = len(simple[0])
    theta = tuple(
        sum((marks[i] * simple[i][d] for i in range(rank)), start=0)
        for d in range(dim)
    )
    for j in range(rank):
        pairing = 2 * ambient.dot(theta, simple[j]) / ambient.dot(simple[j], simple[j])
        assert cm.entries[n - 1][j] == -pairing
        copairing = 2 * ambient.dot(simple[j], theta) / ambient.dot(theta, theta)
        assert cm.entries[j][n - 1] == -copairing


def test_affinize_e6_attachment():
    cm = cartan.affinize(cartan.finite_cartan("E", 6))
    row = cm.entries[6]
    col = tuple(cm.entries[i][6] for i in range(7))
    assert row == (0, -1, 0, 0, 0, 0, 2)
    assert col == (0, -1, 0, 0, 0, 0, 2)


def test_affinize_labels_unlabelled_rows():
    unlabelled = cartan.CartanMatrix(cartan.finite_cartan("A", 3).entries, False)
    assert cartan.affinize(unlabelled) == cartan.parse_type("A3affine")


def test_affinize_rejects_affine_and_reducible():
    affine = cartan.affinize(cartan.finite_cartan("A", 2))
    with pytest.raises(InvalidCartanMatrixError):
        cartan.affinize(affine)
    reducible = cartan.from_matrix([[2, 0], [0, 2]])
    with pytest.raises(InvalidCartanMatrixError):
        cartan.affinize(reducible)


_CORRUPTIONS = {
    "first_plus_one": lambda t: (t[0] + 1,) + t[1:],
    "last_minus_one": lambda t: t[:-1] + (t[-1] - 1,),
    "ends_swapped": lambda t: t[-1:] + t[1:-1] + t[:1] if len(t) > 1 else t,
    "doubled": lambda t: tuple(2 * x for x in t),
    "first_negated": lambda t: (-t[0],) + t[1:],
}


def _null_vector_verdict(fin, a, nv):
    """The check ``affinize`` made before it checked by products: the
    bordered matrix built from marks ``a`` and comarks ``nv``, its axioms,
    then the primitive positive null vector on each side, by exact
    elimination (``null_spaces``), compared with (a, 1) and (nv, 1).
    None when accepted, else the message."""
    n = fin.size
    rows = [list(r) + [-sum(nv[i] * r[i] for i in range(n))] for r in fin.entries]
    rows.append([-sum(a[i] * fin.entries[i][j] for i in range(n)) for j in range(n)] + [2])
    try:
        cartan._check_gcm_axioms(rows)
        if null_spaces.null_vector([list(col) for col in zip(*rows)]) != a + (1,):
            return "left null vector does not extend the marks"
        if null_spaces.null_vector(rows) != nv + (1,):
            return "right null vector does not extend the comarks"
    except ValueError as exc:  # the oracle's, or the axioms' InvalidCartanMatrixError
        return str(exc)
    return None


def test_affinize_checks_by_products_what_the_null_vectors_checked(monkeypatch):
    """Corrupted marks or comarks are accepted or refused exactly as the
    two eliminations decided.  A nonsingular bordered matrix, which the
    elimination refused for its corank, now fails the left product."""
    changed = 0
    for fin in cartan.all_types(9, affine=False):
        expected = cartan.affinize(fin).entries
        good = {"marks": roots.marks(fin), "comarks": roots.comarks(fin)}
        for side in good:
            for corrupt in _CORRUPTIONS.values():
                given = dict(good, **{side: corrupt(good[side])})
                want = _null_vector_verdict(fin, given["marks"], given["comarks"])
                cartan._fact.cache_clear()
                with monkeypatch.context() as patch:
                    patch.setattr(roots, side, lambda cm, vec=given[side]: vec)
                    try:
                        got = cartan.affinize(fin).entries
                    except InvalidCartanMatrixError as exc:
                        got = str(exc)
                if want is None:
                    assert got == expected
                elif want == "matrix has corank 0, expected 1":
                    assert got == "left null vector does not extend the marks"
                    changed += 1
                else:
                    assert got == want
    cartan._fact.cache_clear()
    assert changed == 72


# --- from_matrix ------------------------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_from_matrix_round_trip(series, rank):
    fin = cartan.finite_cartan(series, rank)
    back = cartan.from_matrix([list(r) for r in fin.entries])
    assert back.entries == fin.entries
    assert not back.is_affine
    aff = cartan.affinize(fin)
    back = cartan.from_matrix([list(r) for r in aff.entries])
    assert back.entries == aff.entries
    assert back.is_affine


def test_from_matrix_c2_labels_as_b2():
    cm = cartan.from_matrix([[2, -1], [-2, 2]])
    assert cm.label == "B2"
    assert not cm.is_affine


def test_from_matrix_reducible_finite():
    cm = cartan.from_matrix([[2, 0], [0, 2]])
    assert not cm.is_affine
    assert cm.label is None
    assert cartan.components(cm) == ((1,), (2,))


def test_from_matrix_affine_node_must_be_last():
    # the 3-cycle is vertex transitive, so use a type whose attached node
    # is structurally unique and move it to the front
    aff = cartan.affinize(cartan.finite_cartan("G", 2))
    n = aff.size
    perm = [n - 1] + list(range(n - 1))
    rows = [[aff.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    with pytest.raises(InvalidCartanMatrixError) as err:
        cartan.from_matrix(rows)
    assert "last" in str(err.value)


@pytest.mark.parametrize("cm", cartan.all_types(6), ids=lambda cm: cm.label)
def test_from_matrix_label_survives_relabelling_of_finite_nodes(cm):
    rng = random.Random(cm.label)
    n = cm.size
    for _ in range(5):
        perm = list(range(n - 1))
        rng.shuffle(perm)
        perm.append(n - 1)
        rows = [[cm.entries[i][j] for j in perm] for i in perm]
        got = cartan.from_matrix(rows)
        assert (got.label, got.is_affine) == (cm.label, True)


def _dropped(rows, c):
    keep = [i for i in range(len(rows)) if i != c]
    return [[rows[i][j] for j in keep] for i in keep]


def _attached_outcome(rows):
    """What ``from_matrix`` answers for relabelled affine rows, read off the
    oracle: accepted when dropping the last node leaves the finite type,
    else the largest node whose dropping does."""
    series, rank, _ = classifier.classify(rows)
    n = len(rows)
    at = max(c for c in range(n) if _outcome(classifier.classify, _dropped(rows, c)) == (series, rank, False))
    return f"{series}{rank}affine" if at == n - 1 else f"found it at position {at + 1}"


@pytest.mark.parametrize("label", [cm.label for cm in cartan.all_types(9)])
def test_from_matrix_reports_where_the_attached_node_sits(label):
    """The attached node moved to every position, the finite nodes in
    order.  Where a diagram automorphism moves the attached node, another
    node can play its part, and the last such node is reported."""
    cm = cartan.parse_type(label)
    n = cm.size
    for k in range(1, n + 1):
        perm = list(range(n - 1))
        perm.insert(k - 1, n - 1)
        rows = [[cm.entries[i][j] for j in perm] for i in perm]
        want = _attached_outcome(rows)
        if want == label:
            assert cartan.from_matrix(rows).label == label
        else:
            with pytest.raises(InvalidCartanMatrixError, match=f"{want}$"):
                cartan.from_matrix(rows)


def test_from_matrix_accepts_any_cycle_rotation():
    # every node of the 3-cycle can play the attached role
    rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    cm = cartan.from_matrix(rows)
    assert cm.is_affine
    assert cm.label == "A2affine"


def test_from_matrix_twisted_rejected():
    # corank one but not an untwisted affinization
    with pytest.raises(TwistedTypeError):
        cartan.from_matrix([[2, -4], [-1, 2]])
    # both double bonds pointing outward: middle node long, ends short
    with pytest.raises(TwistedTypeError):
        cartan.from_matrix([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])


def test_from_matrix_untwisted_twin_accepted():
    # same entry multiset as the twisted shape above, arrows reversed
    cm = cartan.from_matrix([[2, -2, 0], [-1, 2, -1], [0, -2, 2]])
    assert cm.is_affine
    assert cm.label == "B2affine"


def test_from_matrix_indefinite_rejected():
    with pytest.raises(InvalidCartanMatrixError):
        cartan.from_matrix([[2, -3], [-3, 2]])


# --- classification ---------------------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_classify_catalog(series, rank):
    fin = cartan.finite_cartan(series, rank)
    want = ("B", 2) if (series, rank) == ("C", 2) else (series, rank)
    assert cartan.classify(fin) == (*want, False)
    assert cartan.classify(cartan.affinize(fin)) == (*want, True)


@given(
    st.sampled_from(ALL_FINITE),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_classify_is_permutation_invariant(typ, affine, rng):
    series, rank = typ
    cm = cartan.finite_cartan(series, rank)
    if affine:
        cm = cartan.affinize(cm)
    n = cm.size
    perm = list(range(n))
    rng.shuffle(perm)
    rows = tuple(tuple(cm.entries[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    want = ("B", 2) if (series, rank) == ("C", 2) else (series, rank)
    assert cartan.classify(rows) == (*want, affine)


def test_classify_rejects_unknown():
    with pytest.raises(ClassificationError):
        cartan.classify(((2, 0), (0, 2)))


def _outcome(classify, rows):
    """A label, or the class name and message of the error raised."""
    try:
        return classify(rows)
    except Exception as exc:  # compared by name: the oracle has its own class
        return type(exc).__name__, str(exc)


def _agrees_with_oracle(rows):
    want = _outcome(classifier.classify, rows)
    assert _outcome(cartan.classify, rows) == want, rows
    return want


def _permuted(rows, rng):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[i][j] for j in perm] for i in perm]


def test_oracle_catalog_is_the_library_catalog():
    got = [(cm.label, cm.entries) for fin in cartan.all_types(9, affine=False) for cm in (fin, cartan.affinize(fin))]
    want = [(f"{s}{r}{'affine' if a else ''}", rows) for s, r, a, rows in classifier.catalog()]
    assert got == want


def test_classify_matches_oracle_on_permuted_catalog():
    rng = random.Random(14)
    for series, rank, affine, rows in classifier.catalog():
        for _ in range(3):
            assert _agrees_with_oracle(_permuted(rows, rng)) == (series, rank, affine)


def test_classify_matches_oracle_on_all_small_rows():
    """Every 2x2 rows with off-diagonal entries in -4..0 and every 3x3 rows
    with off-diagonal entries in -3..0: 4,121 inputs, most of them no type."""
    inputs = [[[2, a], [b, 2]] for a in range(-4, 1) for b in range(-4, 1)]
    for a, b, c, d, e, f in product(range(-3, 1), repeat=6):
        inputs.append([[2, a, b], [c, 2, d], [e, f, 2]])
    assert len(inputs) == 4121
    labels = [_agrees_with_oracle(rows) for rows in inputs]
    assert sum(label[0] != "ClassificationError" for label in labels) == 31


def test_transposed_affine_matrices_are_twisted_unless_simply_laced():
    """The transpose of a non-simply-laced affinization is a twisted affine
    matrix: no untwisted type, and ``from_matrix`` says so."""
    rng = random.Random(21)
    for series, rank, affine, rows in classifier.catalog():
        if not affine:
            continue
        transposed = [list(col) for col in zip(*rows)]
        for _ in range(3):
            permuted = _permuted(transposed, rng)
            got = _agrees_with_oracle(permuted)
            if series in "ADE":
                assert got == (series, rank, True)
            else:
                assert got[0] == "ClassificationError"
                with pytest.raises(TwistedTypeError):
                    cartan.from_matrix(permuted)


def _path(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def _cycle(n):
    rows = _path(n)
    rows[0][n - 1] = rows[n - 1][0] = -1
    return rows


def test_rows_above_rank_nine_are_named():
    """A10 and D10 rows are labelled, and an 11-node cycle is A10affine.
    While the classifier stopped at rank 9, they were unlabelled rows and
    a twisted shape."""
    a10, d10 = _path(10), _path(10)
    d10[8][9] = d10[9][8] = 0
    d10[7][9] = d10[9][7] = -1
    for rows, series in ((a10, "A"), (d10, "D")):
        cm = cartan.from_matrix(rows)
        assert (cm.is_affine, cm.label) == (False, f"{series}10")
        assert cartan.classify(rows) == (series, 10, False)
    assert cartan.from_matrix(_cycle(11)).label == "A10affine"
    assert cartan.from_matrix(_cycle(N)).label == f"A{N - 1}affine"


def test_rows_above_the_size_limit_are_refused_up_front(body_calls):
    """N + 1 nodes and more: ``from_matrix`` and the record refuse with the
    limit and ``classify`` names no type, before any searches the diagram."""
    dense = [[2 if i == j else -2 for j in range(200)] for i in range(200)]
    for rows in (_path(N + 1), _cycle(N + 1), _cycle(60), dense):
        n = len(rows)
        cartan._fact.cache_clear()
        with pytest.raises(UnsupportedRankError, match=f"^matrices are limited to {N} nodes, got {n}$"):
            cartan.from_matrix(rows)
        with pytest.raises(UnsupportedRankError):
            cartan.from_json({"matrix": rows})
        with pytest.raises(ClassificationError, match=NO_MATCH):
            cartan.classify(rows)
        with pytest.raises(UnsupportedRankError, match=f"^matrices are limited to {N} nodes, got {n}$"):
            cartan.CartanMatrix(tuple(map(tuple, rows)), False)
        assert body_calls(cartan._finite, lambda: _outcome(lambda r: cartan.CartanMatrix(r, False), rows)) == 0
        assert body_calls(cartan._finite, lambda: _outcome(cartan.from_matrix, rows)) == 0
        assert body_calls(cartan._symmetrizer, lambda: _outcome(cartan.from_matrix, rows)) == 0


def test_from_matrix_reads_its_rows_once(body_calls):
    rows = [list(row) for row in cartan.parse_type("E8affine").entries]
    cartan._fact.cache_clear()
    assert body_calls(cartan._read_rows, lambda: cartan.from_matrix(rows)) == 1


# Every named type within the size limit: each series and rank of
# ``RANK_RANGE``, finite and affine, as a label.
NAMED = [
    f"{series}{rank}{'affine' * affine}"
    for series, (lo, hi) in cartan.RANK_RANGE.items()
    for rank in range(lo, hi + 1)
    for affine in (False, True)
    if rank + affine <= N
]


class _Forgetful(dict):
    """A table of built types that keeps nothing, so every rows object
    goes to the shape classifier."""

    def __setitem__(self, rows, found):
        pass


def test_every_built_type_is_the_classifier_s_answer(monkeypatch):
    """The type recorded where a named type's rows are built is the shape
    classifier's answer on them, for all 196 named types.  C2 and
    C2affine, which it reports in the B2 class, are the only types left
    unrecorded, so the table holds 194 entries."""
    cartan._fact.cache_clear()
    rows = {label: cartan.parse_type(label).entries for label in NAMED}
    built = dict(cartan._BUILT)
    monkeypatch.setattr(cartan, "_BUILT", _Forgetful())
    cartan._fact.cache_clear()
    shape = {label: cartan._classified.__wrapped__(r) for label, r in rows.items()}
    cartan._fact.cache_clear()
    assert len(rows) == 196 and len(built) == 194
    assert [label for label, r in rows.items() if r not in built] == ["C2", "C2affine"]
    assert (shape["C2"], shape["C2affine"]) == (("B", 2, False), ("B", 2, True))
    assert {label: built[r] for label, r in rows.items() if r in built} == {
        label: found for label, found in shape.items() if label not in ("C2", "C2affine")
    }


def _named_readings():
    """What the public readers say on every named type, from a cold store:
    the parsed label, ``classify``, the ``from_matrix`` label, and the
    component types of all the nodes and of all but the last."""
    cartan._fact.cache_clear()
    out = []
    for label in NAMED:
        cm = cartan.parse_type(label)
        types = [_outcome(lambda nodes: cartan.component_types(cm, nodes), nodes) for nodes in (cm.nodes, cm.nodes[:-1])]
        out.append((cm.label, cartan.classify(cm), cartan.from_matrix(cm.entries).label, *types))
    return out


def test_built_types_leave_every_reading_unchanged(monkeypatch):
    """The readers of every named type read the same with the table of
    built types filled and with it empty."""
    filled = _named_readings()
    monkeypatch.setattr(cartan, "_BUILT", _Forgetful())
    assert _named_readings() == filled
    cartan._fact.cache_clear()
    assert filled[NAMED.index("C2")][:3] == ("C2", ("B", 2, False), "B2")


# --- ranks 10..N against closed forms ----------------------------------------


def _relabelled(rows, rng, affine):
    """The rows with their nodes permuted by rng, the attached node of an
    affine matrix kept last."""
    perm = list(range(len(rows) - affine))
    rng.shuffle(perm)
    perm += [len(rows) - 1] * affine
    return [[rows[i][j] for j in perm] for i in perm]


def test_classical_types_match_the_closed_forms_up_to_the_size_limit():
    """A–D at every rank 10..N, finite and affine: the library's matrix is
    the closed-form one, and ``classify`` and ``from_matrix`` name a seeded
    node permutation of it (the attached node kept last)."""
    rng = random.Random(26)
    for series in closed_forms.SERIES:
        for rank in range(10, N + 1):
            for affine in (False, True) if rank < N else (False,):
                label = f"{series}{rank}{'affine' if affine else ''}"
                rows = closed_forms.cartan_rows(series, rank, affine)
                assert cartan.parse_type(label).entries == rows
                rows = _relabelled(rows, rng, affine)
                assert cartan.classify(rows) == (series, rank, affine), label
                cm = cartan.from_matrix(rows)
                assert (cm.label, cm.is_affine) == (label, affine)


def test_json_round_trip_at_the_size_limit():
    """Every label ``from_matrix`` writes reads back: N nodes round-trip
    by label and by matrix, and N + 1 nodes are refused either way."""
    for label in (f"A{N}", f"D{N}", f"B{N - 1}affine", f"C{N - 1}affine"):
        cm = cartan.parse_type(label)
        assert cm.size == N
        for obj in (cartan.to_json(cm), {"matrix": [list(row) for row in cm.entries]}):
            back = cartan.from_json(json.loads(json.dumps(obj)))
            assert (back.entries, back.is_affine, back.label) == (cm.entries, cm.is_affine, cm.label)
    for obj in ({"series": "A", "rank": N + 1}, {"series": "D", "rank": N, "affine": True}, {"matrix": _path(N + 1)}):
        with pytest.raises(UnsupportedRankError):
            cartan.from_json(obj)


def test_json_round_trip_of_relabelled_node_orders():
    """``to_json`` names a type only for its Bourbaki rows.  Up to six node
    orders of each type to rank 8 (the attached node kept last), accepted
    and labelled by ``from_matrix``, read back as the same matrix in their
    own numbering; C2 and C2affine keep their names."""
    by_name = 0
    for cm in cartan.all_types(8, affine=False) + cartan.all_types(8, affine=True):
        rows = cm.entries
        for perm in islice(permutations(range(cm.finite_rank)), 6):
            perm += (cm.size - 1,) * cm.is_affine
            relabelled = cartan.from_matrix([[rows[i][j] for j in perm] for i in perm])
            obj = json.loads(json.dumps(cartan.to_json(relabelled)))
            assert cartan.from_json(obj) == relabelled, (cm.label, perm)
            by_name += "series" in obj
    assert by_name >= 62  # at least the Bourbaki order of each type
    for label in ("C2", "C2affine"):
        cm = cartan.parse_type(label)
        assert cartan.to_json(cm) == {"series": "C", "rank": 2, "affine": cm.is_affine}


# --- from_matrix against the Sylvester test -----------------------------------


def _sylvester_verdict(rows):
    """The verdict of the Sylvester test, computed here on Leibniz minors
    of the symmetrization: "finite" when every leading minor is positive;
    "corank one" when the determinant vanishes and a principal minor of
    size n - 1 does not (a symmetric matrix of rank r has a nonsingular
    principal r × r submatrix); else "neither".  The zero-pattern and
    symmetrizer refusals come first, as in ``from_matrix``."""
    n = len(rows)
    if any((rows[i][j] == 0) != (rows[j][i] == 0) for i in range(n) for j in range(n)):
        return "axioms"
    try:
        d = symmetrizer.symmetrizer(rows)
    except symmetrizer.InvalidCartanMatrixError:
        return "not symmetrizable"
    sym = [[d[i] * x for x in row] for i, row in enumerate(rows)]
    if all(_leibniz([row[:k] for row in sym[:k]]) > 0 for k in range(1, n + 1)):
        return "finite"
    if _leibniz(sym) == 0 and any(_leibniz(_dropped(sym, c)) for c in range(n)):
        return "corank one"
    return "neither"


def _from_matrix_verdict(rows):
    """``from_matrix``'s answer in the same terms: an affine label, the
    attached-node position and a twisted shape are all corank one."""
    try:
        cm = cartan.from_matrix(rows)
    except TwistedTypeError:
        return "corank one"
    except InvalidCartanMatrixError as exc:
        return {
            "matrix is neither finite type nor corank one": "neither",
            "matrix is not symmetrizable": "not symmetrizable",
        }.get(str(exc), "corank one" if "attached node last" in str(exc) else "axioms")
    return "corank one" if cm.is_affine else "finite"


# mostly no bond, so that trees and short cycles, and with them
# symmetrizable rows, are common
_BONDS = [(0, 0)] * 9 + [(-1, -1)] * 3 + [(-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1)]


def _seeded_rows(rng, n):
    """Rows that satisfy the axioms, one random bond per pair of nodes."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = rng.choice(_BONDS)
    return rows


def test_from_matrix_verdict_is_sylvesters():
    """The 4,121 small rows, seeded 4–6-node rows, the catalog's 4–6-node
    matrices permuted and transposed, and block sums: finite, corank one
    or neither exactly as the Sylvester test decides."""
    rng = random.Random(2026)
    inputs = [[[2, a], [b, 2]] for a in range(-4, 1) for b in range(-4, 1)]
    inputs += [[[2, a, b], [c, 2, d], [e, f, 2]] for a, b, c, d, e, f in product(range(-3, 1), repeat=6)]
    assert len(inputs) == 4121
    inputs += [_seeded_rows(rng, rng.randint(4, 6)) for _ in range(200)]
    catalog = [rows for *_, rows in classifier.catalog()]
    for rows in catalog:
        if 4 <= len(rows) <= 6:
            inputs += [_permuted(rows, rng), _permuted([list(col) for col in zip(*rows)], rng)]
    small = [rows for rows in catalog if len(rows) <= 3]
    inputs += [_permuted(_block_sum(*rng.sample(small, 2)), rng) for _ in range(40)]
    verdicts = [_sylvester_verdict(rows) for rows in inputs]
    for rows, want in zip(inputs, verdicts):
        assert _from_matrix_verdict(rows) == want, rows
    assert {v: verdicts.count(v) for v in set(verdicts)}.keys() == {
        "axioms", "not symmetrizable", "finite", "corank one", "neither"
    }


def test_from_matrix_eliminates_only_to_refuse(body_calls):
    """Finite and affine answers come from classification alone; the
    corank count runs once per refusal, to name it."""
    rng = random.Random(9)
    accepted = [_relabelled(rows, rng, affine) for *_, affine, rows in classifier.catalog()]
    accepted += [_block_sum(accepted[0], accepted[4]), closed_forms.cartan_rows("D", N, False)]
    refused = [[[2, -4], [-1, 2]], [[2, -3], [-3, 2]], _block_sum(accepted[1], accepted[0]), _cycle(N)]
    refused[-1][0][1] = refused[-1][1][0] = -2  # a cycle with one double bond
    cartan._fact.cache_clear()
    assert body_calls(cartan._eliminate, lambda: [cartan.from_matrix(rows) for rows in accepted]) == 0
    assert body_calls(cartan._eliminate, lambda: [_outcome(cartan.from_matrix, rows) for rows in refused]) == 4
    assert [type(_outcome(cartan.from_matrix, rows)) for rows in accepted] == [cartan.CartanMatrix] * len(accepted)
    assert [_outcome(cartan.from_matrix, rows)[0] for rows in refused] == [
        "TwistedTypeError", "InvalidCartanMatrixError", "TwistedTypeError", "InvalidCartanMatrixError"
    ]


def test_from_matrix_tries_affine_only_on_connected_rows(body_calls):
    """Disconnected rows are no affinization: ``_affine`` runs on each
    component while the rows are classified, and never on the whole rows,
    which go straight to the corank count.  It ran once more before.  The
    blocks are relabelled copies, the attached node kept last: the
    library's own rows of a named type take their recorded type, not the
    classifier."""
    rng = random.Random(881)
    e8, d7 = (_relabelled(cartan.parse_type(label).entries, rng, True) for label in ("E8affine", "D7affine"))
    assert cartan._BUILT.keys().isdisjoint(tuple(map(tuple, rows)) for rows in (e8, d7))
    cases = [
        (_block_sum(e8, d7), 2, InvalidCartanMatrixError, "^matrix is neither finite type nor corank one$"),
        (_block_sum(e8, [[2]]), 1, TwistedTypeError, "^corank-one matrix is not an untwisted affinization$"),
    ]
    for rows, calls, error, message in cases:
        cartan._fact.cache_clear()
        assert body_calls(cartan._affine, lambda: _outcome(cartan.from_matrix, rows)) == calls
        with pytest.raises(error, match=message):
            cartan.from_matrix(rows)


def test_built_affine_rows_are_not_searched_for_their_attached_node(body_calls):
    """Rows the library built from an affine label have their attached
    node last by construction, so no way of reading them runs the search
    for it (``_affine``).  A node-relabelled copy is no built rows and is
    searched, and an attached node moved off the end is still reported
    where it is found."""
    cm = cartan.parse_type("E8affine")
    rows = [list(row) for row in cm.entries]
    relabelled = _relabelled(cm.entries, random.Random(43), True)
    assert tuple(map(tuple, relabelled)) not in cartan._BUILT
    reads = {
        "from_matrix": lambda rows: cartan.from_matrix(rows),
        "constructor": lambda rows: cartan.CartanMatrix(rows, True, "E8affine"),
        "from_json": lambda rows: cartan.from_json({"matrix": rows, "affine": True}),
    }
    for name, read in reads.items():
        for given, calls in ((rows, 0), (relabelled, 1)):
            cartan._fact.cache_clear()
            assert body_calls(cartan._affine, lambda: read(given)) == calls, name
            assert read(given).label == "E8affine"
    for k in range(1, cm.size):
        perm = list(range(cm.size - 1))
        perm.insert(k - 1, cm.size - 1)
        moved = [[cm.entries[i][j] for j in perm] for i in perm]
        message = f"^affine input must list the attached node last; found it at position {k}$"
        for read in reads.values():
            with pytest.raises(InvalidCartanMatrixError, match=message):
                read(moved)


def test_component_types_of_a_hand_built_ambient_keep_the_size_limit():
    """A hand-built ambient past the size limit is refused where it is
    made, so the one split needs no limit of its own; at the limit its
    component types are read."""
    for n in (N + 1, 40):
        with pytest.raises(UnsupportedRankError, match=f"^matrices are limited to {N} nodes, got {n}$"):
            cartan.CartanMatrix(tuple(map(tuple, _path(n))), False)
    cm = cartan.CartanMatrix(tuple(map(tuple, _path(N))), False)
    assert cartan.component_types(cm, cm.nodes) == (("A", N),)


def test_classify_matches_oracle_on_levi_components():
    """Every connected component of every maximal subset, and of seeded
    random subsets, of the 35 affine types up to rank 9; whole reducible
    subsets too."""
    rng = random.Random(1014)
    seen = 0
    for cm in cartan.all_types(9):
        subsets = [[i for i in cm.nodes if i != c] for c in cm.nodes]
        subsets += [rng.sample(cm.nodes, rng.randrange(1, cm.size)) for _ in range(6)]
        for subset in subsets:
            rows = [[cm.entries[i - 1][j - 1] for j in sorted(subset)] for i in sorted(subset)]
            comps = cartan.components(cartan._subdiagram(cm, tuple(sorted(subset))))
            whole = _agrees_with_oracle(rows)
            assert (whole[0] == "ClassificationError") == (len(comps) > 1)
            for comp in comps:
                label = _agrees_with_oracle([[rows[i - 1][j - 1] for j in comp] for i in comp])
                assert len(label) == 3 and not label[2]
                seen += 1
    assert seen > 500


CLASSIFY_EDGE_CASES = [
    [[2, 0], [0, 2]],  # reducible
    [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
    [[2, -4], [-1, 2]],  # twisted
    [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],
    [[2, -1, 0], [-2, 2, -1], [0, -2, 2]],
    [[2, -3], [-3, 2]],  # hyperbolic
    [[2, -1, -1], [-1, 2, -2], [-1, -2, 2]],
    [[2, -1], [-1]],  # ragged
    [[2], [-1, 2]],
    [[2, -1, 0], [-1, 2, -1]],
    [],
    [[2.0, -1.0], [-1.0, 2.0]],  # float
    [[2.0, -2.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -2.0, 2.0]],
    [[2.5, -1], [-1, 2]],
    [[2, -1.5], [-1, 2]],
    [[2, float("nan")], [-1, 2]],
    [[1, -1], [-1, 2]],  # not a Cartan matrix
    [[2, -1], [0, 2]],
]


@pytest.mark.parametrize("rows", CLASSIFY_EDGE_CASES)
def test_classify_matches_oracle_on_edge_cases(rows):
    _agrees_with_oracle(rows)


def test_classify_memo_keeps_int_and_float_rows_apart():
    """Int rows and equal float rows share a memo entry and a label;
    unequal float rows do not, and errors are raised on every call.  Rows
    of entries that are neither integers nor integral floats (a
    ``Fraction``, a ``numpy.float32``) name no type, whatever the memo
    holds: they are no matrix entries."""
    e6 = _permuted(cartan.parse_type("E6affine").entries, random.Random(7))
    cases = [
        (e6, [[float(x) for x in row] for row in e6]),
        ([[2, -1], [-1, 2]], [[2.0, -1.0], [-1.0, 2.0]]),
        ([[2, -1], [-1, 2]], [[2.0, -1.5], [-1.0, 2.0]]),
        ([[2, -2], [-1, 2]], [[2.0, -2.0], [-1.0, 2.0]]),
        ([[2, 0], [0, 2]], [[2.0, -1.0], [-1.0, 2.0]]),
    ]
    for first, second in cases:
        for order in ((first, second), (second, first)):
            cartan._fact.cache_clear()
            for rows in order + order:
                _agrees_with_oracle(rows)
    a2 = [[2, -1], [-1, 2]]
    for kind in (Fraction, np.float32):
        other = [[kind(x) for x in row] for row in a2]
        for order in ((a2, other), (other, a2)):
            cartan._fact.cache_clear()
            for rows in order + order:
                if rows is a2:
                    assert cartan.classify(rows) == ("A", 2, False)
                else:
                    with pytest.raises(ClassificationError, match=NO_MATCH):
                        cartan.classify(rows)


# --- subdiagram and components ----------------------------------------------


def test_subdiagram_e6_affine_remove_branch():
    cm = cartan.affinize(cartan.finite_cartan("E", 6))
    sub = cartan._subdiagram(cm, tuple(i for i in cm.nodes if i != 4))
    # kept nodes renumber to 1..6: arms are {1,3}, {2,attached}, {5,6}
    assert cartan.components(sub) == ((1, 3), (2, 6), (4, 5))
    assert cartan.component_types(cm, [i for i in cm.nodes if i != 4]) == (
        ("A", 2),
        ("A", 2),
        ("A", 2),
    )


def test_component_types_e8_affine_drop_attached():
    cm = cartan.affinize(cartan.finite_cartan("E", 8))
    assert cartan.component_types(cm, range(1, 9)) == (("E", 8),)


def test_component_types_sorted_and_empty():
    cm = cartan.affinize(cartan.finite_cartan("D", 5))
    assert cartan.component_types(cm, ()) == ()
    got = cartan.component_types(cm, (1, 3, 4, 5))
    assert got == (("A", 1), ("A", 3))


def test_subset_validation():
    cm = cartan.finite_cartan("A", 3)
    with pytest.raises(InvalidSubsetError):
        cartan.component_types(cm, (1, 1))
    with pytest.raises(InvalidSubsetError):
        cartan.component_types(cm, (0,))
    with pytest.raises(InvalidSubsetError):
        cartan.component_types(cm, (4,))
    with pytest.raises(InvalidSubsetError):
        cartan._subdiagram(cm, ())


def test_subset_accepts_a_generator_once():
    cm = cartan.finite_cartan("A", 3)
    assert roots.roots_in_span(cm, (i for i in (3, 2))) == roots.roots_in_span(cm, (2, 3))
    assert cartan.component_types(cm, iter([1, 2])) == (("A", 2),)


def test_subset_rejects_non_integers():
    cm = cartan.finite_cartan("A", 3)
    for bad in ((1.5, 2), (1.0, 2), (True, 2), ("1", 2)):
        with pytest.raises(InvalidSubsetError, match="not an integer"):
            cartan.component_types(cm, bad)
    assert cartan.component_types(cm, (np.int64(1), np.int8(2))) == (("A", 2),)


def _plain_components(rows, nodes):
    """Connected components of the diagram on ``nodes``, each sorted."""
    left, out = list(nodes), []
    while left:
        start = left.pop(0)
        comp, queue = [start], [start]
        while queue:
            i = queue.pop()
            for j in list(left):
                if rows[i][j] != 0:
                    comp.append(j)
                    queue.append(j)
                    left.remove(j)
        out.append(sorted(comp))
    return out


def test_component_types_of_every_subset_match_classify():
    """Every subset of every affine type up to rank 8, 4,972 of them, from
    a cold store: the types are ``classify``'s of each component's
    submatrix, built here with plain loops, sorted; the whole node set
    spans the affine component and is refused."""
    cartan._fact.cache_clear()
    seen = 0
    for cm in cartan.all_types(8):
        rows = cm.entries
        for mask in range(1 << cm.size):
            subset = [i for i in range(cm.size) if mask >> i & 1]
            if len(subset) == cm.size:
                with pytest.raises(InvalidSubsetError, match="^subset spans an affine component$"):
                    cartan.component_types(cm, [i + 1 for i in subset])
                continue
            expected = []
            for comp in _plain_components(rows, subset):
                sub = [[rows[i][j] for j in comp] for i in comp]
                series, rank, affine = cartan.classify(sub)
                assert not affine
                expected.append((series, rank))
            assert cartan.component_types(cm, [i + 1 for i in subset]) == tuple(sorted(expected))
            seen += 1
    assert seen == 4_972 - 31


def test_principal_submatrix_reads_any_node_order():
    """Empty, one node and several, sorted or not (``_finite`` passes its
    candidate orders unsorted), as a range or a list: the rows and columns
    at the nodes, in the order given, as tuples."""
    rows = cartan.parse_type("E8affine").entries
    rng = random.Random(41)
    orders = [[], [0], [8], range(9), range(3, 6), [1, 0], [8, 2, 5], [0, 8]]
    orders += [rng.sample(range(9), k) for k in range(2, 10) for _ in range(3)]
    for nodes in orders:
        got = cartan._principal(rows, nodes)
        assert got == tuple(tuple(rows[i][j] for j in nodes) for i in nodes)
        assert type(got) is tuple and all(type(row) is tuple for row in got)


def test_component_types_rejects_affine_span():
    cm = cartan.affinize(cartan.finite_cartan("A", 2))
    with pytest.raises(InvalidSubsetError):
        cartan.component_types(cm, cm.nodes)


# --- parsing and serialization ----------------------------------------------


def test_parse_type():
    assert cartan.parse_type("A2").label == "A2"
    assert cartan.parse_type("e6affine").label == "E6affine"
    assert cartan.parse_type(" G2 ").label == "G2"
    assert cartan.parse_type("C2affine").label == "C2affine"
    for bad in ("", "A", "H4", "A2b", "affine", "E6 affine"):
        with pytest.raises(InvalidCartanMatrixError):
            cartan.parse_type(bad)


def test_non_text_labels_and_series_are_rejected():
    # each of these used to raise a raw AttributeError or TypeError
    with pytest.raises(InvalidCartanMatrixError, match="^cannot parse type label 5$"):
        cartan.parse_type(5)
    with pytest.raises(InvalidCartanMatrixError, match=r"^unknown series \[\[2, -2\], \[-2, 2\]\]$"):
        cartan.finite_cartan([[2, -2], [-2, 2]], 1)


@pytest.mark.parametrize("series,rank", [("A", 3), ("C", 2), ("E", 7), ("G", 2)])
def test_json_round_trip(series, rank):
    for affine in (False, True):
        cm = cartan.finite_cartan(series, rank)
        if affine:
            cm = cartan.affinize(cm)
        obj = json.loads(json.dumps(cartan.to_json(cm)))
        back = cartan.from_json(obj)
        assert back.entries == cm.entries
        assert back.is_affine == cm.is_affine
        assert back.label == cm.label


def test_from_json_raw_matrix():
    cm = cartan.from_json({"matrix": [[2, -1], [-1, 2]]})
    assert cm.label == "A2"


@pytest.mark.parametrize("rank", [2.5, True, "3", "x", None])
def test_from_json_rank_must_be_an_integer(rank):
    # 2.5 used to give A2, True A1 and "3" A3; "x" raised a raw ValueError
    with pytest.raises(InvalidSubsetError, match="rank .* is not an integer"):
        cartan.from_json({"series": "A", "rank": rank})


@pytest.mark.parametrize("affine", ["false", 0, 1, None])
def test_from_json_affine_must_be_a_boolean(affine):
    # "false" used to build A2affine
    for obj in ({"series": "A", "rank": 2}, {"matrix": [[2, -1], [-1, 2]]}):
        with pytest.raises(InvalidCartanMatrixError, match="not a boolean"):
            cartan.from_json({**obj, "affine": affine})
    assert not cartan.from_json({"series": "A", "rank": 2, "affine": False}).is_affine


@pytest.mark.parametrize("obj", [{}, {"series": "A"}, {"rank": 2}, [2], "matrix", None, 3])
def test_from_json_rejects_missing_keys_and_non_objects(obj):
    # these used to raise a raw KeyError or TypeError
    with pytest.raises(InvalidCartanMatrixError):
        cartan.from_json(obj)


@pytest.mark.parametrize("rows", [5, [5], [[2, -1], 5], None])
def test_from_matrix_rejects_scalars_as_rows(rows):
    # these used to raise a raw TypeError ('int' object is not iterable)
    with pytest.raises(InvalidCartanMatrixError, match="not a list of rows"):
        cartan.from_matrix(rows)
    with pytest.raises(InvalidCartanMatrixError, match="not a list of rows"):
        cartan.from_json({"matrix": rows})


def test_all_types_catalog():
    affine = cartan.all_types(8)
    assert len(affine) == 31
    assert all(cm.is_affine for cm in affine)
    labels = [cm.label for cm in affine]
    assert labels[0] == "A1affine"
    assert "C2affine" not in labels  # that class is listed as B2affine
    assert "B2affine" in labels
    assert len(set(labels)) == 31
    finite = cartan.all_types(4, affine=False)
    assert [cm.label for cm in finite] == [
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    ]
    # the size limit: A..D up to rank N - 1 affine (95 classes) and N finite (99)
    affine, finite = cartan.all_types(N - 1), cartan.all_types(N, affine=False)
    assert (len(affine), len(finite)) == (95, 99)
    assert affine[-6].label == f"D{N - 1}affine" and finite[-6].label == f"D{N}"
    with pytest.raises(UnsupportedRankError, match=f"ranks 1..{N - 1}, got {N}$"):
        cartan.all_types(N)


@pytest.mark.parametrize("flag", ["x", 2, 1, 0, None, np.True_])
def test_all_types_refuses_a_flag_that_is_not_a_bool(flag):
    """``affine="x"`` raised a raw TypeError, and ``affine=2`` was read as
    affine."""
    with pytest.raises(InvalidCartanMatrixError, match=f"^affine {flag!r} is not a boolean$"):
        cartan.all_types(3, affine=flag)


@pytest.mark.parametrize("bad", [0, -1, np.int64(-3), N + 1])
@pytest.mark.parametrize("affine", [True, False])
def test_all_types_outside_the_catalog_ranks_raise(bad, affine):
    """Below rank 1 the list would be empty, a silent truncation, so it is
    refused like ranks past the size limit."""
    top = N - 1 if affine else N
    with pytest.raises(UnsupportedRankError, match=f"^types of at most {N} nodes have ranks 1..{top}, got {bad}$"):
        cartan.all_types(bad, affine=affine)

import hashlib
import inspect
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ambient
import closed_forms
from loopatlas import cartan, parabolic, roots, weyl
from loopatlas.errors import ClassificationError, InvalidCartanMatrixError, InvalidSubsetError, UnsupportedRankError

# the refusal of rows of a named affine type flagged finite, where the record is made
_AFFINE_FLAGGED_FINITE = "label None and affine flag False do not fit rows of {}"

# The sweeps stop at rank 9, where the tables below end; ranks 10..N are
# checked against ``closed_forms``.
RANKS_TO_9 = {"A": (1, 9), "B": (2, 9), "C": (2, 9), "D": (4, 9), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
ALL_FINITE = [(s, r) for s, (lo, hi) in RANKS_TO_9.items() for r in range(lo, hi + 1)]
N = 25  # the size limit, in nodes

KNOWN_POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
    ("A", 6): 21, ("A", 7): 28, ("A", 8): 36, ("A", 9): 45,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 5): 25, ("B", 6): 36,
    ("B", 7): 49, ("B", 8): 64, ("B", 9): 81,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25, ("C", 6): 36,
    ("C", 7): 49, ("C", 8): 64, ("C", 9): 81,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30, ("D", 7): 42, ("D", 8): 56,
    ("D", 9): 72,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}

KNOWN_DUAL_COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5, ("A", 5): 6,
    ("A", 6): 7, ("A", 7): 8, ("A", 8): 9, ("A", 9): 10,
    ("B", 2): 3, ("B", 3): 5, ("B", 4): 7, ("B", 5): 9, ("B", 6): 11,
    ("B", 7): 13, ("B", 8): 15, ("B", 9): 17,
    ("C", 2): 3, ("C", 3): 4, ("C", 4): 5, ("C", 5): 6, ("C", 6): 7,
    ("C", 7): 8, ("C", 8): 9, ("C", 9): 10,
    ("D", 4): 6, ("D", 5): 8, ("D", 6): 10, ("D", 7): 12, ("D", 8): 14,
    ("D", 9): 16,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
    ("F", 4): 9, ("G", 2): 4,
}


# --- positive roots ----------------------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_positive_roots_match_ambient_oracle(series, rank):
    """``positive_roots`` gives exactly the Euclidean root coordinates."""
    cm = cartan.finite_cartan(series, rank)
    got = set(roots.positive_roots(cm))
    want = ambient.positive_root_coords(series, rank)
    assert got == want


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_positive_root_counts(series, rank):
    cm = cartan.finite_cartan(series, rank)
    assert len(roots.positive_roots(cm)) == KNOWN_POSITIVE_COUNTS[(series, rank)]


@pytest.mark.parametrize("reader", [roots.height, roots.is_positive])
@pytest.mark.parametrize("beta", [5, None, ["a", 1], [1, "a"], [-1, "a"], [None]])
def test_root_vector_readers_reject_non_vectors(reader, beta):
    # the first three used to raise a raw TypeError; the sign readers
    # answered the last three without reading every entry
    with pytest.raises(InvalidSubsetError, match=re.escape(f"vector {beta!r} is not a sequence of numbers")):
        reader(beta)


@pytest.mark.parametrize(
    "beta,signs",
    [
        ((1, 0), (True, False)),
        ((0, -1), (False, True)),
        ((Fraction(1, 2), 0.0), (True, False)),
        ((0, 0), (False, False)),
        ((), (False, False)),
        ((1, -1), (False, False)),
        ((math.nan,), (False, False)),
        ((1, math.nan), (False, False)),
        ((-1, math.nan), (False, False)),
    ],
)
def test_sign_readers_answer_as_before_on_numbers(beta, signs):
    """Some entry nonzero and none of the other sign; a NaN entry makes
    a vector neither positive nor negative, as ``any``/``all`` gave.  A
    vector is negative when its negation is positive."""
    assert (roots.is_positive(beta), roots.is_positive(tuple(-b for b in beta))) == signs


def test_positive_roots_sorted_by_height_then_lex():
    cm = cartan.finite_cartan("D", 4)
    pos = roots.positive_roots(cm)
    keys = [(roots.height(r), r) for r in pos]
    assert keys == sorted(keys)


def test_all_roots_symmetry():
    cm = cartan.finite_cartan("F", 4)
    every = roots.all_roots(cm)
    assert len(every) == 48
    as_set = set(every)
    assert all(tuple(-x for x in r) in as_set for r in every)
    assert (0, 0, 0, 0) not in as_set


def _refused_by_the_finite_type_test(rows, error, message):
    # flagged finite by hand and never validated: every root list and every
    # highest-root fact refuses the rows as the longest element does, at once
    cm = cartan.CartanMatrix(entries=rows, is_affine=False)
    with pytest.raises(error) as want:
        weyl.longest_element(cm, cm.nodes)
    if message is not None:
        assert str(want.value) == message
    readers = (
        roots.positive_roots,
        lambda c: roots.roots_in_span(c, c.nodes),
        roots.highest_root,
        roots.marks,
        roots.comarks,
        roots.dual_coxeter,
    )
    for reader in readers:
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            reader(cm)


def _refused_when_built(rows, error, message):
    # rows past the size limit, or of a named affine type flagged finite:
    # the record refuses them where it is made, before any reader
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cartan.CartanMatrix(entries=rows, is_affine=False)


def test_closure_valve_stops_on_a_hand_built_infinite_matrix():
    # hyperbolic rows: the finite-type test, not a height cap, stops them
    _refused_by_the_finite_type_test(((2, -3), (-3, 2)), ClassificationError, None)


ASCENT_VALVE_ROWS = {
    ((2, -3, 0), (-3, 2, -1), (0, -1, 2)): (_refused_by_the_finite_type_test, ClassificationError, None),
    ((2, -2), (-2, 2)): (_refused_when_built, InvalidCartanMatrixError, _AFFINE_FLAGGED_FINITE.format("A1affine")),
}


@pytest.mark.parametrize("rows", list(ASCENT_VALVE_ROWS))
def test_ascent_valve_stops_on_a_hand_built_infinite_matrix(rows):
    # irreducible and symmetrizable but no finite type: refused before the
    # highest-root ascent, which no longer needs a height cap
    refused, error, message = ASCENT_VALVE_ROWS[rows]
    refused(rows, error, message)


@pytest.mark.parametrize(
    "rows,error,message",
    [
        (
            cartan.parse_type("A24affine").entries,
            InvalidCartanMatrixError,
            _AFFINE_FLAGGED_FINITE.format("A24affine"),
        ),
        (
            closed_forms.cartan_rows("A", N + 1, False),
            UnsupportedRankError,
            f"matrices are limited to {N} nodes, got {N + 1}",
        ),
    ],
    ids=["A24affine", "path-26"],
)
def test_hand_built_rows_of_no_finite_type_are_refused_by_the_finite_type_test(rows, error, message):
    _refused_when_built(rows, error, message)


def test_positive_roots_rejects_affine():
    with pytest.raises(InvalidCartanMatrixError):
        roots.positive_roots(cartan.parse_type("A2affine"))


def test_pairing_and_reflect_reject_missing_nodes():
    cm = cartan.parse_type("A2affine")
    for bad in (0, 4, 9, -1, 1.5, True, "1"):
        for call in (roots.pairing, roots.reflect):
            with pytest.raises(InvalidSubsetError):
                call(cm, (1, 0, 0), bad)
    assert roots.reflect(cm, (1, 0, 0), np.int64(1)) == (-1, 0, 0)


def test_pairing_and_reflect_read_a_vector_as_act_does():
    """One reader for every integer vector (``cartan._vector``): a
    generator is read once, and what ``weyl.act`` refuses they refuse with
    its message (a generator used to raise a raw TypeError, and floats and
    a Fraction were answered).  Sets and records are refused in
    tests/test_records.py."""
    cm = cartan.parse_type("A2affine")
    s1 = weyl.simple(cm, 1)
    assert roots.reflect(cm, (b for b in (1, 0, 0)), 1) == weyl.act(s1, (b for b in (1, 0, 0))) == (-1, 0, 0)
    assert roots.pairing(cm, (b for b in (0, 1, 0)), 1) == -1
    assert roots.reflect(cm, [np.int64(1), 0, 0], 1) == (-1, 0, 0)
    bad = [
        (5, "vector 5 is not a sequence"),
        (None, "vector None is not a sequence"),
        ((1, 0), "vector has 2 coordinates, ambient has 3"),
        ((1.0, 0, 0), "coordinate 1.0 is not an integer"),
        ((True, 0, 0), "coordinate True is not an integer"),
        ((Fraction(1), 0, 0), "coordinate Fraction(1, 1) is not an integer"),
        ((math.nan, 0, 0), "coordinate nan is not an integer"),
    ]
    reads = (lambda b: roots.pairing(cm, b, 1), lambda b: roots.reflect(cm, b, 1), lambda b: weyl.act(s1, b))
    for beta, message in bad:
        for read in reads:
            with pytest.raises(InvalidSubsetError, match=f"^{re.escape(message)}$"):
                read(beta)


def test_pairing_is_cartan_linear():
    cm = cartan.finite_cartan("G", 2)
    assert roots.pairing(cm, (1, 0), 2) == -1
    assert roots.pairing(cm, (0, 1), 1) == -3
    assert roots.pairing(cm, (3, 2), 1) == 0  # highest root is orthogonal there
    with pytest.raises(InvalidSubsetError):
        roots.pairing(cm, (1, 0, 0), 1)


# --- highest root, marks, comarks -------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_highest_root_and_marks(series, rank):
    cm = cartan.finite_cartan(series, rank)
    want = ambient.highest_root_coords(series, rank)
    assert roots.highest_root(cm) == want
    assert roots.marks(cm) == want
    # dominance: every pairing with a coroot is nonnegative
    top = roots.highest_root(cm)
    assert all(roots.pairing(cm, top, j) >= 0 for j in range(1, rank + 1))


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_highest_root_ascent_ends_at_the_closure_top(series, rank):
    """The dominant ascent from a long simple root lands on the last root
    of ``positive_roots``."""
    cm = cartan.finite_cartan(series, rank)
    assert roots.highest_root(cm) == roots.positive_roots(cm)[-1]


def test_highest_root_rejects_affine_and_reducible():
    with pytest.raises(InvalidCartanMatrixError):
        roots.highest_root(cartan.parse_type("A2affine"))
    with pytest.raises(InvalidCartanMatrixError):
        roots.highest_root(cartan.from_matrix([[2, 0], [0, 2]]))
    # rows flagged finite may keep an affine component beside another one:
    # refused as reducible, as any reducible matrix is
    beside = cartan.CartanMatrix(((2, -2, 0), (-2, 2, 0), (0, 0, 2)), False)
    with pytest.raises(InvalidCartanMatrixError, match="^highest root needs an irreducible matrix$"):
        roots.highest_root(beside)


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_comarks_match_coroot_expansion(series, rank):
    """Library comarks equal the independent highest-coroot expansion."""
    cm = cartan.finite_cartan(series, rank)
    assert roots.comarks(cm) == ambient.comark_coords(series, rank)


def test_marks_and_comarks_frozen_tables():
    assert roots.marks(cartan.finite_cartan("E", 8)) == (2, 3, 4, 6, 5, 4, 3, 2)
    assert roots.marks(cartan.finite_cartan("F", 4)) == (2, 3, 4, 2)
    assert roots.marks(cartan.finite_cartan("G", 2)) == (3, 2)
    assert roots.comarks(cartan.finite_cartan("B", 5)) == (1, 2, 2, 2, 1)
    assert roots.comarks(cartan.finite_cartan("C", 5)) == (1, 1, 1, 1, 1)
    assert roots.comarks(cartan.finite_cartan("F", 4)) == (2, 3, 2, 1)
    assert roots.comarks(cartan.finite_cartan("G", 2)) == (1, 2)
    assert roots.comarks(cartan.finite_cartan("E", 7)) == (2, 2, 3, 4, 3, 2, 1)


@pytest.mark.parametrize("series,rank", ALL_FINITE)
def test_dual_coxeter(series, rank):
    cm = cartan.finite_cartan(series, rank)
    assert roots.dual_coxeter(cm) == KNOWN_DUAL_COXETER[(series, rank)]
    assert roots.dual_coxeter(cm) == ambient.dual_coxeter_number(series, rank)
    aff = cartan.affinize(cm)
    assert roots.dual_coxeter(aff) == roots.dual_coxeter(cm)


def test_classical_series_match_the_closed_forms_up_to_the_size_limit():
    """A–D at ranks 10..N: the positive-root count as the length of the
    longest element and of the Poincaré polynomial (and of
    ``positive_roots`` at rank 10), the highest root, and the dual Coxeter number of
    the finite type and of its affinization."""
    for series in closed_forms.SERIES:
        for rank in range(10, N + 1):
            cm = cartan.finite_cartan(series, rank)
            count = closed_forms.positive_root_count(series, rank)
            assert weyl.longest_element(cm, cm.nodes).length == count
            assert len(weyl.ball_sizes(cm, 2 * count)) == count + 1
            assert roots.highest_root(cm) == closed_forms.marks(series, rank)
            if rank == 10:
                assert len(roots.positive_roots(cm)) == count
            assert roots.dual_coxeter(cm) == closed_forms.dual_coxeter(series, rank)
            if rank < N:
                assert roots.dual_coxeter(cartan.affinize(cm)) == closed_forms.dual_coxeter(series, rank)


def test_highest_root_needs_irreducible():
    cm = cartan.from_matrix([[2, 0], [0, 2]])
    with pytest.raises(InvalidCartanMatrixError):
        roots.highest_root(cm)


# --- affine structures ------------------------------------------------------


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 3), ("C", 2), ("D", 4), ("G", 2)])
def test_delta_killed_by_every_coroot(series, rank):
    cm = cartan.affinize(cartan.finite_cartan(series, rank))
    dl = roots.delta(cm)
    assert dl[-1] == 1
    for j in cm.nodes:
        assert roots.pairing(cm, dl, j) == 0


def test_delta_and_central_coroot_values():
    cm = cartan.parse_type("E6affine")
    assert roots.delta(cm) == (1, 2, 2, 3, 2, 1, 1)
    assert roots.central_coroot(cm) == (1, 2, 2, 3, 2, 1, 1)
    cm = cartan.parse_type("G2affine")
    assert roots.delta(cm) == (3, 2, 1)
    assert roots.central_coroot(cm) == (1, 2, 1)


def test_finite_part_round_trip():
    for label in ("A1affine", "B3affine", "E7affine"):
        cm = cartan.parse_type(label)
        fin = roots._finite_part(cm)
        assert not fin.is_affine
        assert fin.size == cm.size - 1
        assert cartan.affinize(fin).entries == cm.entries


def test_one_fact_store_serves_every_memoised_function():
    """Only the fact store carries a cache.  Each memoised function keeps
    its module (a tracer that wraps a module's own functions finds it by
    that), its ``__wrapped__`` original, and its keyword calls.  Every
    memoised function is private; a public name in front of one is a
    plain function, its gate, that gives the same answer."""
    modules = (cartan, roots, weyl, parabolic)
    cached = {(m.__name__, name) for m in modules for name, obj in vars(m).items() if hasattr(obj, "cache_info")}
    assert cached == {("loopatlas.cartan", "_fact")}
    assert weyl.ball_sizes.cache_clear == cartan._fact.cache_clear  # callers that time a cold call
    a2, a2_affine = cartan.finite_cartan("A", 2), cartan.parse_type("A2affine")
    calls = [
        (cartan._affinize, (a2,), cartan.affinize),
        (cartan._classified, (a2.entries,), None),
        (cartan._affine, (a2_affine.entries,), None),
        (cartan._bourbaki, ("A", 2, True), None),
        (cartan._component_types, (a2_affine, (1, 2)), None),
        (cartan._series_types, (a2_affine.entries,), None),
        (roots._positive, (a2, (1, 2)), None),
        (roots._highest_root, (a2,), roots.highest_root),
        (roots._comarks, (a2,), roots.comarks),
        (cartan._symmetrizer, (a2.entries,), None),
        (roots._finite_part, (a2_affine,), None),
        (roots._dual_coxeter, (a2_affine,), roots.dual_coxeter),
        (roots._central_coroot, (a2_affine,), roots.central_coroot),
        (weyl._moves, (a2,), None),
        (weyl._unit_rows, (3,), None),
        (weyl._longest, (a2_affine, (1, 2)), None),
        (weyl._longest_element, (a2_affine, (1, 2)), None),
        (weyl._removed_image, (a2_affine, weyl._longest(a2_affine, (2, 3)), 1), None),
        (weyl._ball_size, (a2_affine.entries, 4), None),
        (parabolic._maximal_levi_types, (a2_affine,), parabolic.maximal_levi_types),
        (parabolic._null_root, (a2_affine,), None),
    ]
    memoised = {
        (m.__name__, name) for m in modules for name, obj in vars(m).items()
        if getattr(obj, "func", None) is cartan._fact
    }
    assert memoised == {(fn.__module__, fn.__name__) for fn, _, _ in calls}
    for fn, args, gate in calls:
        original = fn.__wrapped__
        module = next(m for m in modules if vars(m).get(fn.__name__) is fn)
        assert fn.__module__ == original.__module__ == module.__name__
        assert fn.__name__.startswith("_")
        assert not hasattr(original, "__wrapped__")
        keywords = dict(zip(inspect.signature(original).parameters, args))
        assert fn(**keywords) == fn(*args) == original(*args)
        if gate is not None:
            assert inspect.isfunction(gate) and gate(*args) == fn(*args)


def test_cold_ascents_take_no_public_detours(body_calls):
    """Call counts, not timings: a cold highest root reads its pairings off
    a vector it keeps, and cold certificates pass the subsets they build
    straight through, checking none of them again."""
    finite, affine = cartan.all_types(9, affine=False), cartan.all_types(8)
    assert (len(finite), len(affine)) == (35, 31)
    cartan._fact.cache_clear()
    assert body_calls(roots.pairing, lambda: [roots.highest_root(cm) for cm in finite]) == 0
    cartan._fact.cache_clear()
    assert body_calls(cartan._check_subset, lambda: [parabolic.maximal_certificates(cm, 12) for cm in affine]) == 0


def test_symmetrizer_runs_once_per_distinct_rows(body_calls):
    b3 = cartan.finite_cartan("B", 3)
    same = [b3, cartan.finite_cartan("B", 3), b3.entries, [list(row) for row in b3.entries]]
    cartan._fact.cache_clear()
    assert body_calls(cartan._symmetrizer, lambda: [cartan.symmetrizer(x) for x in same]) == 1
    cartan._fact.cache_clear()
    assert body_calls(cartan._symmetrizer, lambda: (roots.highest_root(b3), roots.comarks(b3))) == 1

    def refuse_twice():
        for _ in range(2):
            with pytest.raises(InvalidCartanMatrixError, match="not symmetrizable"):
                cartan.symmetrizer([[2, -1], [1, 2]])

    assert body_calls(cartan._symmetrizer, refuse_twice) == 2  # an error is never stored


def test_root_caches_stay_bounded_on_permuted_matrices():
    """Node-permuted E6affine matrices, the attached node kept last, through
    the memoised functions of every module until the fact store has evicted
    all that the first eight put in: the store stays within its bound, every
    answer is the unpermuted one relabelled, and the evicted matrices get
    the same answers again."""
    cm = cartan.parse_type("E6affine")
    n = cm.size
    theta = (1, 2, 4)
    fin = roots._finite_part(cm)
    want = (
        roots.dual_coxeter(cm),
        roots.central_coroot(cm),
        roots.delta(cm),
        roots.positive_roots(fin),
        roots.highest_root(fin),
        parabolic.maximal_levi_types(cm),
    )

    def answers(rows):
        m = cartan.from_matrix(rows)
        f = roots._finite_part(m)
        return (
            roots.dual_coxeter(m),
            roots.central_coroot(m),
            roots.delta(m),
            roots.positive_roots(f),
            roots.highest_root(f),
            parabolic.maximal_levi_types(m),
            cartan.component_types(m, theta),
            weyl.longest_element(m, theta).matrix,
            weyl.longest_element(m, range(1, n)).matrix,
        )

    def relabelled(p, vec):
        return tuple(vec[i] for i in p)

    def check(p, got):
        g, central, delta, positive, highest, levis, types, longest, w0 = got
        assert g == want[0]
        assert central == relabelled(p, want[1])
        assert delta == relabelled(p, want[2])
        assert set(positive) == {relabelled(p[:-1], r) for r in want[3]}
        assert highest == relabelled(p[:-1], want[4])
        assert levis == relabelled(p, want[5])
        images = [p[i - 1] + 1 for i in theta]
        assert types == cartan.component_types(cm, images)
        for subset, matrix in ((images, longest), (range(1, n), w0)):
            ref = weyl.longest_element(cm, subset).matrix
            assert matrix == tuple(tuple(ref[i][j] for j in p) for i in p)

    store = cartan._fact
    store.cache_clear()
    rng = random.Random(0)
    first = {}
    for _ in range(2000):
        p = rng.sample(range(n - 1), n - 1) + [n - 1]
        rows = tuple(tuple(cm.entries[i][j] for j in p) for i in p)
        if rows in first:
            continue
        first[rows] = p, answers(rows)
        check(*first[rows])
        info = store.cache_info()
        assert info.currsize <= info.maxsize
        if len(first) == 8:
            put_in_by_eight = info.misses
        if len(first) > 8 and info.misses - info.currsize >= put_in_by_eight:
            break
    else:
        pytest.fail("the store never evicted the first matrices")
    assert store.cache_info().currsize == store.cache_info().maxsize
    for rows, (p, got) in list(first.items())[:8]:
        misses = store.cache_info().misses
        assert answers(rows) == got
        assert store.cache_info().misses > misses  # recomputed, not read back


def test_affine_roots_a1_counts():
    cm = cartan.parse_type("A1affine")
    slice_ = roots.affine_roots(cm, 2)
    # two finite roots at each of five levels
    assert len(slice_.real) == 10
    assert len(slice_.imaginary) == 4
    assert slice_.imaginary_multiplicity == 1
    assert (1, 0) in slice_.real
    assert (0, 1) in slice_.real         # level-one real roots
    assert (2, 1) in slice_.real
    assert (1, 1) not in slice_.real     # that one is isotropic
    assert (1, 1) in slice_.imaginary
    assert (2, 2) in slice_.imaginary


@pytest.mark.parametrize("label", ["A2affine", "C2affine", "G2affine"])
def test_affine_roots_counts_and_positivity(label):
    cm = cartan.parse_type(label)
    depth = 3
    slice_ = roots.affine_roots(cm, depth)
    fin = roots._finite_part(cm)
    n_fin = len(roots.all_roots(fin))
    assert len(slice_.real) == n_fin * (2 * depth + 1)
    assert len(slice_.imaginary) == 2 * depth
    assert len(set(slice_.real)) == len(slice_.real)
    for r in slice_.real:
        assert roots.is_positive(r) or roots.is_positive(tuple(-b for b in r))
    # positivity matches the level criterion
    for r in slice_.real:
        level = r[-1]
        finite_piece = tuple(b - level * a for b, a in zip(r[:-1], roots.marks(fin)))
        if level > 0:
            assert roots.is_positive(r)
        elif level == 0:
            assert roots.is_positive(r) == roots.is_positive(finite_piece + (0,))


def test_affine_roots_validation():
    with pytest.raises(InvalidCartanMatrixError):
        roots.affine_roots(cartan.finite_cartan("A", 2), 2)
    cm = cartan.parse_type("A2affine")
    with pytest.raises(InvalidSubsetError, match="depth must be nonnegative, got -1"):
        roots.affine_roots(cm, -1)
    for bad in (2.5, "2", True, None):
        with pytest.raises(InvalidSubsetError, match="depth .* is not an integer"):
            roots.affine_roots(cm, bad)
    assert roots.affine_roots(cm, np.int64(1)) == roots.affine_roots(cm, 1)
    assert roots.affine_slice_to_json(roots.affine_roots(cm, np.int8(1)))["depth"] == 1


def test_affine_roots_refuse_a_slice_past_the_limit_before_building_it(monkeypatch):
    # E8affine at depth 10**18 used to build roots until the machine ran out
    calls = []
    all_roots = roots.all_roots
    monkeypatch.setattr(roots, "all_roots", lambda cm: calls.append(cm) or all_roots(cm))
    message = f"^root slice of depth {10**18} would hold 482000000000000000240 entries, past the limit of 500000$"
    with pytest.raises(InvalidSubsetError, match=message):
        roots.affine_roots(cartan.parse_type("E8affine"), 10**18)
    assert calls == []


def test_affine_roots_count_the_slice_they_build(monkeypatch):
    """The size checked before the slice is built is the size built: a
    limit of exactly that size answers as before, one less refuses."""
    for cm in cartan.all_types(9):
        for depth in (0, 1, 2):
            data = roots.affine_roots(cm, depth)
            size = len(data.real) + len(data.imaginary)
            monkeypatch.setattr(cartan, "MAX_LIST_LENGTH", size)
            assert roots.affine_roots(cm, depth) == data
            monkeypatch.setattr(cartan, "MAX_LIST_LENGTH", size - 1)
            with pytest.raises(InvalidSubsetError, match=f"^root slice of depth {depth} would hold {size} entries"):
                roots.affine_roots(cm, depth)
            monkeypatch.undo()


# --- spans ------------------------------------------------------------------


def test_roots_in_span_single_node():
    cm = cartan.parse_type("A2affine")
    assert roots.roots_in_span(cm, (1,)) == ((-1, 0, 0), (1, 0, 0))


def test_roots_in_span_e6_branch_removed():
    cm = cartan.parse_type("E6affine")
    theta = tuple(i for i in cm.nodes if i != 4)
    span = roots.roots_in_span(cm, theta)
    assert len(span) == 18  # three A2 systems
    assert all(r[3] == 0 for r in span)
    # exactly the real roots avoiding the removed node, at any depth
    filtered = {r for r in roots.affine_roots(cm, 2).real if r[3] == 0}
    assert set(span) == filtered
    # levels stay within one of zero
    assert {r[-1] for r in span} == {-1, 0, 1}


def test_roots_in_span_matches_filtered_affine_slice():
    """Spans of proper subsets never pick up nonzero levels."""
    for label, drop in [("A2affine", 3), ("C2affine", 1), ("G2affine", 2)]:
        cm = cartan.parse_type(label)
        theta = tuple(i for i in cm.nodes if i != drop)
        span = roots.roots_in_span(cm, theta)
        filtered = [
            r for r in roots.affine_roots(cm, 3).real if r[drop - 1] == 0
        ]
        assert set(span) == set(filtered)


def test_roots_in_span_rejects_improper():
    cm = cartan.parse_type("A2affine")
    with pytest.raises(InvalidSubsetError):
        roots.roots_in_span(cm, cm.nodes)


def test_roots_in_span_finite_ambient():
    cm = cartan.finite_cartan("A", 3)
    span = roots.roots_in_span(cm, (1, 3))
    assert set(span) == {(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)}


# --- serialization ----------------------------------------------------------


def test_root_system_json():
    data = roots.root_system(cartan.finite_cartan("A", 2))
    obj = roots.root_system_to_json(data)
    assert obj["label"] == "A2"
    assert obj["positive_roots"] == [[0, 1], [1, 0], [1, 1]]
    assert obj["highest_root"] == [1, 1]
    assert obj["dual_coxeter"] == 3


def test_affine_slice_json():
    data = roots.affine_roots(cartan.parse_type("A1affine"), 1)
    obj = roots.affine_slice_to_json(data)
    assert obj["depth"] == 1
    assert obj["imaginary_multiplicity"] == 1
    assert [1, 0] in obj["real"]


# --- string property --------------------------------------------------------


@given(st.sampled_from([(s, r) for s, r in ALL_FINITE if r <= 4]))
def test_root_strings_are_unbroken(typ):
    """For every root and node, the alpha-string through the root is an
    unbroken interval whose endpoints differ by the pairing value."""
    series, rank = typ
    cm = cartan.finite_cartan(series, rank)
    every = set(roots.all_roots(cm))
    for beta in roots.positive_roots(cm):
        for i in range(1, cm.size + 1):
            step = tuple(int(k == i) for k in cm.nodes)  # α_i
            down = 0
            cur = tuple(b - s for b, s in zip(beta, step))
            while cur in every or not any(cur):
                down += 1
                cur = tuple(b - s for b, s in zip(cur, step))
            up = 0
            cur = tuple(b + s for b, s in zip(beta, step))
            while cur in every or not any(cur):
                up += 1
                cur = tuple(b + s for b, s in zip(cur, step))
            assert down - up == roots.pairing(cm, beta, i)


# --- root-data pin ----------------------------------------------------------

ROOT_DATA_SHA256 = "c0a1bda4e205b1a952f48cbefbb034a18d65d60e3c15a2e7a2b6de2dce4845b9"

_SPAN_FINITE = ["A1", "A4", "B2", "B3", "C2", "C4", "D4", "D6", "E6", "E7", "F4", "G2"]


def _outcome(fn, *args):
    """repr of a call's result, or of the library error it raises."""
    try:
        return repr(fn(*args))
    except (InvalidCartanMatrixError, InvalidSubsetError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _matrix_key(cm):
    return (cm.entries, cm.is_affine, cm.label)


def _root_data_lines():
    """Every root-data output the pin covers, one line each."""
    chain = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(10)] for i in range(10)]
    reducible = [[2, 0, 0], [0, 2, -1], [0, -1, 2]]
    finite = list(cartan.all_types(9, affine=False))
    finite += [cartan.finite_cartan("C", 2), cartan.from_matrix(reducible), cartan.from_matrix(chain)]
    for cm in finite:
        for fn in (roots.positive_roots, roots.highest_root, roots.comarks, roots.dual_coxeter):
            yield f"{cm.entries} {fn.__name__} {_outcome(fn, cm)}"
    affine = list(cartan.all_types(9)) + [cartan.parse_type("C2affine")]
    for cm in affine:
        yield f"{cm.label} finite_part {_outcome(lambda c: _matrix_key(roots._finite_part(c)), cm)}"
        yield f"{cm.label} delta {_outcome(roots.delta, cm)}"
        yield f"{cm.label} central_coroot {_outcome(roots.central_coroot, cm)}"
        yield f"{cm.label} affine_roots {_outcome(roots.affine_roots, cm, 1)}"
    spans = [cm for cm in affine if cm.size <= 7] + [cartan.parse_type(t) for t in _SPAN_FINITE]
    for cm in spans:
        for mask in range(1 << cm.size):
            subset = tuple(i for i in cm.nodes if mask >> (i - 1) & 1)
            yield f"{cm.label} {subset} span {_outcome(roots.roots_in_span, cm, subset)}"
            yield f"{cm.label} {subset} sub {_outcome(lambda c, s: _matrix_key(cartan._subdiagram(c, s)), cm, subset)}"


def _root_data_digest():
    return hashlib.sha256("\n".join(_root_data_lines()).encode()).hexdigest()


def test_root_data_pin():
    """Positive roots, highest roots, comarks, finite parts, affine slices,
    spans and subdiagrams, byte for byte as the α-string closure, the
    Gram-matrix comarks and the re-validated subdiagrams gave them."""
    assert _root_data_digest() == ROOT_DATA_SHA256

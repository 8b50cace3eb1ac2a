"""The contract of the library's thirteen records, all ``NamedTuple``s.

Each prints as ``Name(field=value, ...)`` with the fields it had as a
frozen dataclass, refuses assignment, equals the plain tuple of its fields
and survives copies and pickles.  The five records that check their input
check it on every way in: the constructor, ``_make``, ``_replace``,
``copy.copy``, ``copy.deepcopy`` and a pickle round trip.  Only the private
``tuple.__new__`` skips the check, so it builds the bad records below.
Where a sequence is read, a record is refused as a whole, while a foreign
named tuple is read as its items.  A set has no order, so it is refused
wherever the order of the items matters, and read as a node list.
"""

import collections
import copy
import pickle

import pytest

from loopatlas import cartan, criterion, maass_selberg, parabolic, roots, weyl
from loopatlas.errors import InvalidCartanMatrixError, InvalidSubsetError, NumberTypeError

CM = cartan.parse_type("A2affine")
F = criterion.functional((-3, -3, -3))
POINT = (0.1, 0.2, 0.3)
SUBSET = parabolic.parabolic_subset(CM, (1, 2))
REQUEST = maass_selberg.TruncatedPairing(CM, 1.0, F, F, POINT)

# name -> (a record built by the library, its fields in print order)
RECORDS = {
    "CartanMatrix": (CM, ("entries", "is_affine", "label")),
    "LinearFunctional": (F, ("values", "d_value")),
    "TruncatedPairing": (REQUEST, ("ambient", "cusp_pairing", "left", "right", "truncation")),
    "ParabolicSubset": (SUBSET, ("ambient", "nodes")),
    "WeylElement": (weyl.from_word(CM, (1, 2)), ("ambient", "word", "matrix")),
    "RegionReport": (criterion.godement_cuspidal(CM, F), ("region", "central", "real_part", "g")),
    "KernelValue": (maass_selberg.inner_product(REQUEST), ("value", "pole", "denominator")),
    "ScanReport": (maass_selberg.region_scan(CM, [F], [F], POINT), ("points", "n_points", "n_poles")),
    "LeviType": (parabolic.levi_type(SUBSET), ("components", "center_rank")),
    "AssociateCertificate": (
        parabolic.is_self_associate(SUBSET),
        (
            "ambient", "theta", "removed_node", "self_associate", "witness", "levi_longest_word",
            "removed_image", "null_root", "search_bound", "searched",
        ),
    ),
    "ConstantTermReport": (
        parabolic.constant_term_is_trivial(SUBSET), ("trivial", "certificate", "levi_matches", "reason")
    ),
    "RootSystemData": (
        roots.root_system(cartan.parse_type("B2")),
        ("label", "positive", "highest", "marks", "comarks", "dual_coxeter"),
    ),
    "AffineRootSlice": (
        roots.affine_roots(CM, 1), ("label", "depth", "real", "imaginary", "imaginary_multiplicity")
    ),
}

# name -> (one bad field, the error the constructor raises on it)
CHECKED = {
    "CartanMatrix": ({"entries": ((2, 1), (1, 2))}, InvalidCartanMatrixError),
    "LinearFunctional": ({"values": ("x", -3, -3)}, NumberTypeError),
    "TruncatedPairing": ({"truncation": (0.1, 0.2)}, InvalidSubsetError),
    "ParabolicSubset": ({"nodes": (1, 1)}, InvalidSubsetError),
    "WeylElement": ({"matrix": ()}, InvalidSubsetError),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_prints_its_fields_and_refuses_assignment(name):
    record, fields = RECORDS[name]
    assert type(record).__name__ == name and record._fields == fields
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


# way in -> a build of the checked record from (record, bad fields, change, raw)
WAYS_IN = {
    "constructor": lambda record, fields, change, raw: type(record)(*fields),
    "_make": lambda record, fields, change, raw: type(record)._make(fields),
    "_replace": lambda record, fields, change, raw: record._replace(**change),
    "copy": lambda record, fields, change, raw: copy.copy(raw),
    "deepcopy": lambda record, fields, change, raw: copy.deepcopy(raw),
    "pickle": lambda record, fields, change, raw: pickle.loads(pickle.dumps(raw)),
}


@pytest.mark.parametrize("way", WAYS_IN)
@pytest.mark.parametrize("name", CHECKED)
def test_checked_record_refuses_a_bad_field_on_every_way_in(name, way):
    record, _ = RECORDS[name]
    change, error = CHECKED[name]
    fields = tuple(change.get(field, value) for field, value in zip(record._fields, record))
    raw = tuple.__new__(type(record), fields)  # the private, unchecked path
    with pytest.raises(error):
        WAYS_IN[way](record, fields, change, raw)


# call -> (what it names, a public call handed a record where it reads a sequence)
RECORD_AS_SEQUENCE = {
    "functional": ("functional values", lambda: criterion.functional(F)),
    "region_scan first": ("first parameter list", lambda: maass_selberg.region_scan(CM, F, [F], POINT)),
    "region_scan second": ("second parameter list", lambda: maass_selberg.region_scan(CM, [F], F, POINT)),
    "from_word": ("word", lambda: weyl.from_word(CM, weyl.from_word(CM, (1, 2)))),
    "parabolic_subset": ("node list", lambda: parabolic.parabolic_subset(CM, F)),
}


@pytest.mark.parametrize("call", RECORD_AS_SEQUENCE)
def test_a_record_is_refused_where_a_sequence_is_read(call):
    """A record is a tuple of its fields, never a list of items, so it is
    refused as a whole, whatever its first field holds."""
    what, run = RECORD_AS_SEQUENCE[call]
    with pytest.raises(InvalidSubsetError, match=rf"^{what} [A-Za-z]+\(.*\) is not a sequence$"):
        run()


def test_a_foreign_named_tuple_is_read_as_its_items():
    # only the library's own records are refused: any other tuple is a sequence
    Triple, Pair = collections.namedtuple("Triple", "a b c"), collections.namedtuple("Pair", "a b")
    assert criterion.functional(Triple(-3, -3, -3)) == F
    assert parabolic.parabolic_subset(CM, Pair(1, 2)) == SUBSET
    assert weyl.from_word(CM, Triple(1, 2, 1)) == weyl.from_word(CM, (1, 2, 1))


# reader -> (what it names, a public call handed an unordered collection of
# the items it reads in order)
SET_AS_SEQUENCE = {
    "from_word": ("word", lambda kind: weyl.from_word(CM, kind({3, 1}))),
    "reduce_word": ("word", lambda kind: weyl.reduce_word(CM, kind({3, 1}))),
    "WeylElement": ("word", lambda kind: weyl.WeylElement(CM, kind({1}), weyl.simple(CM, 1).matrix)),
    "act": ("vector", lambda kind: weyl.act(weyl.simple(CM, 1), kind({0, 1, 2}))),
    "dominant_integral": ("vector", lambda kind: criterion.dominant_integral(CM, kind({0, 1, 2}))),
    "functional": ("functional values", lambda kind: criterion.functional(kind({-3.5, -1.25, -2.0}))),
    "TruncatedPairing": ("truncation point", lambda kind: maass_selberg.TruncatedPairing(CM, 1.0, F, F, kind(POINT))),
    "pairing_kernel": ("truncation point", lambda kind: maass_selberg.pairing_kernel(CM, 1.0, F, F, kind(POINT))),
    "region_scan point": ("truncation point", lambda kind: maass_selberg.region_scan(CM, [F], [F], kind(POINT))),
    "region_scan first": ("first parameter list", lambda kind: maass_selberg.region_scan(CM, kind({F}), [F], POINT)),
    "region_scan second": ("second parameter list", lambda kind: maass_selberg.region_scan(CM, [F], kind({F}), POINT)),
}


@pytest.mark.parametrize("kind", [set, frozenset])
@pytest.mark.parametrize("call", SET_AS_SEQUENCE)
def test_a_set_is_refused_where_the_order_is_read(call, kind):
    """A set iterates in hash order, so reading one as a word, a vector,
    functional values, a truncation point or a parameter list would pick an
    order silently: {3, 1} used to be the word (1, 3)."""
    what, run = SET_AS_SEQUENCE[call]
    with pytest.raises(InvalidSubsetError, match=rf"^{what} .* is not a sequence$"):
        run(kind)


@pytest.mark.parametrize("kind", [set, frozenset])
def test_a_node_list_may_be_a_set(kind):
    # a subset has no order, so a set of nodes reads as its sorted tuple
    assert parabolic.parabolic_subset(CM, kind({2, 1})) == SUBSET
    assert weyl.longest_element(CM, kind({2, 1})) == weyl.longest_element(CM, (1, 2))
    assert roots.roots_in_span(CM, kind({2, 1})) == roots.roots_in_span(CM, (1, 2))

"""The spectral-parameter gates read a value tuple once, by its set of
types, and answer as the per-value reference in ``spectral_reference``
does: the same result of the same type, or the same error and message."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest

import spectral_reference as ref
from loopatlas import cartan, criterion, maass_selberg as ms, roots
from loopatlas.errors import LoopAtlasError, RegionError


class _Float(float):
    pass


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


# one draw of each kind a value may be, plain or not, number or not
_KINDS = {
    "int": lambda r: r.randint(-6, 3),
    "fraction": lambda r: Fraction(r.randint(-24, 6), r.randint(1, 5)),
    "float": lambda r: r.uniform(-5.0, 1.0),
    "complex": lambda r: complex(r.uniform(-5.0, 1.0), r.uniform(-2.0, 2.0)),
    "complex_nan": lambda r: complex(r.uniform(-5.0, 1.0), math.nan),
    "numpy_float64": lambda r: numpy.float64(r.uniform(-5.0, 1.0)),
    "float_subclass": lambda r: _Float(r.uniform(-5.0, 1.0)),
    "int_subclass": lambda r: _Int(r.randint(-6, 3)),
    "fraction_subclass": lambda r: _Fraction(r.randint(-24, 6), r.randint(1, 5)),
    "bool": lambda r: r.choice((True, False)),
    "decimal": lambda r: Decimal("-2.5"),
    "none": lambda r: None,
    "nan": lambda r: math.nan,
    "inf": lambda r: r.choice((math.inf, -math.inf)),
    "huge": lambda r: r.choice((10**400, -(10**400))),
}
_PLAIN = ["int", "fraction", "float", "complex"]
_AMBIENTS = ["A1affine", "A2affine", "G2affine", "C2affine"]


def _values(rng, size):
    """Mostly one plain kind throughout, the reader's fast path; else one
    kind throughout, any kind per value, or one odd value among plain ones."""
    shape = rng.random()
    if rng.random() < 0.1:
        size += rng.choice((-1, 1))
    if shape < 0.4:
        draw = _KINDS[rng.choice(_PLAIN)]
        return tuple(draw(rng) for _ in range(size))
    if shape < 0.6:
        draw = _KINDS[rng.choice(sorted(_KINDS))]
        return tuple(draw(rng) for _ in range(size))
    if shape < 0.8:
        return tuple(_KINDS[rng.choice(sorted(_KINDS))](rng) for _ in range(size))
    values = [_KINDS[rng.choice(_PLAIN)](rng) for _ in range(size)]
    if values:
        values[rng.randrange(len(values))] = _KINDS[rng.choice(sorted(_KINDS))](rng)
    return tuple(values)


def _outcome(call):
    try:
        return ("answer", call())
    except LoopAtlasError as exc:
        return ("refused", type(exc).__name__, str(exc))
    except ref.Refused as exc:
        return ("refused", exc.kind, exc.message)


def _same(a, b) -> bool:
    """Equal, and of the same type all the way down; a library record
    equals the plain tuple of its fields."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and repr(a) == repr(b)


def _agree(lib, oracle, context):
    got, want = _outcome(lib), _outcome(oracle)
    assert _same(got, want), (context, got, want)
    return got[0] == "answer"


@pytest.mark.parametrize("label", _AMBIENTS)
@pytest.mark.parametrize("seed", range(3))
def test_every_gate_answers_as_the_per_value_reference(label, seed):
    cm = cartan.parse_type(label)
    weights, g, n = roots.central_coroot(cm), roots.dual_coxeter(cm), cm.size
    rng = random.Random(f"{label}-{seed}")
    for _ in range(150):
        values = _values(rng, n)
        if not _agree(lambda: criterion.functional(values).values, lambda: ref.functional(values), values):
            continue
        f = criterion.functional(values)
        _agree(lambda: criterion.central_value(cm, f), lambda: ref.central_value(weights, values), values)
        _agree(lambda: criterion.godement_cuspidal(cm, f), lambda: ref.godement_cuspidal(weights, g, values), values)
        _agree(lambda: criterion.godement_minimal(f), lambda: ref.godement_minimal(values), values)
        _agree(
            lambda: criterion.implication_check(cm, f), lambda: ref.implication_check(weights, g, values), values
        )

        other, truncation = _values(rng, n), _values(rng, n)
        cusp = rng.choice((1.0, 2, complex(0.5, -1.0), _KINDS[rng.choice(sorted(_KINDS))](rng)))
        if not _agree(lambda: criterion.functional(other).values, lambda: ref.functional(other), other):
            continue
        f_other = criterion.functional(other)
        case = (values, other, truncation, cusp)
        _agree(
            lambda: ms.pairing_kernel(cm, cusp, f, f_other, truncation),
            lambda: ref.pairing_kernel(weights, cusp, values, other, truncation),
            case,
        )
        _agree(
            lambda: ms.region_scan(cm, [f, f_other], [f_other, f], truncation, cusp),
            lambda: ref.region_scan(weights, [values, other], [other, values], truncation, cusp),
            case,
        )


def _counting(monkeypatch):
    """Count the calls of each per-value check."""
    calls = {}
    for name in ("_check_number", "_check_finite_value", "_is_exact"):
        original = getattr(criterion, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(criterion, name, counted)
    return calls


@pytest.mark.parametrize(
    "values",
    [
        (-1.5, -2.5, -3.25),
        (Fraction(-7, 2), Fraction(-5, 3), Fraction(-9, 4)),
        (-4, -3, -5),
        (complex(-3, 1), complex(-2.5, -1), complex(-4, 0.5)),
    ],
)
def test_plain_values_never_take_the_per_value_checks(monkeypatch, values):
    calls = _counting(monkeypatch)
    cm = cartan.parse_type("A2affine")
    f = criterion.functional(values)
    criterion.central_value(cm, f)
    criterion.godement_cuspidal(cm, f)
    criterion.godement_minimal(f)
    criterion.implication_check(cm, f)
    criterion.shift_by_weyl_vector(f)
    ms.pairing_kernel(cm, 1.0, f, f, (0.1, 0.2, 0.3))
    ms.region_scan(cm, [f, f], [f], (0.1, 0.2, 0.3))
    assert calls == {}
    # the count sees the fallback where it runs
    criterion.functional((numpy.float64(-1.5), -2.5, -3.0))
    assert calls["_check_number"] == 3


_BAD = [math.nan, math.inf, -math.inf, complex(-3, math.nan), complex(math.inf, 1)]
_POINT = (0.1, 0.2, 0.3)
# every gate that reads a parameter's finiteness, called on the ambient, a
# finite parameter and a parameter f; and by how much the value its message
# names is shifted: a scan checks the parameters shifted by the Weyl vector
_GATES = {
    "truncated_pairing_left": (lambda cm, good, f: ms.TruncatedPairing(cm, 1.0, f, good, _POINT), 0),
    "truncated_pairing_right": (lambda cm, good, f: ms.TruncatedPairing(cm, 1.0, good, f, _POINT), 0),
    "pairing_kernel": (lambda cm, good, f: ms.pairing_kernel(cm, 1.0, good, f, _POINT), 0),
    "implication_check": (lambda cm, good, f: criterion.implication_check(cm, f), 0),
    "godement_minimal": (lambda cm, good, f: criterion.godement_minimal(f), 0),
    "region_scan_first_point": (lambda cm, good, f: ms.region_scan(cm, [f, good], [good, good], _POINT), 1),
    "region_scan_later_row": (lambda cm, good, f: ms.region_scan(cm, [good, good, f], [good, good], _POINT), 1),
    "region_scan_later_column": (lambda cm, good, f: ms.region_scan(cm, [good, good], [good, good, f], _POINT), 1),
}


@pytest.mark.parametrize("gate", sorted(_GATES))
@pytest.mark.parametrize("bad", _BAD, ids=repr)
def test_every_gate_names_the_first_non_finite_value(gate, bad):
    cm = cartan.parse_type("A2affine")
    good = criterion.functional((-3, -2.5, Fraction(-1, 2)))
    # a second non-finite value after the first: the message names the first
    f = criterion.functional((-1.0, bad, math.inf))
    call, shift = _GATES[gate]
    with pytest.raises(RegionError, match=f"^functional value {re.escape(repr(bad + shift))} is not finite$"):
        call(cm, good, f)

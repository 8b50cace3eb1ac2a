"""Convergence-region bookkeeping for spectral parameters.

A spectral parameter is a linear functional given by its values on the
l + 1 simple coroots of an affine ambient (plus an optional value on the
scaling direction, carried but never used by any formula here).  The
central value is its pairing with the canonical central element, the
comark-weighted sum of coroot values plus the value on the attached node.
Region thresholds are multiples of the dual Coxeter number g: strictly
below -2g the everywhere-minimal parameters live, between -2g and -g lies
the continuation range, -g is the boundary locus, beyond it is outside.
A ``LinearFunctional`` reads its values once in ``__new__``, stores them
as a tuple and checks that each is a number.  Each gate takes the set of
a value tuple's types once, in one C-level pass (``_kinds`` where the
values are read for the first time).  When every type is exactly
``int``, ``Fraction``, ``float`` or ``complex``, the number check, the
finiteness check and the choice between the exact and the float central
value are C-level passes too; any other type (bool, a subclass such as
``numpy.float64``, ``Decimal``, None) takes the per-value checks, so the
first value refused and its message are the same either way.
Finiteness is checked on each call that reads the values
(``_check_dimension``), not where the record is made: a caller may build
a NaN parameter and expect the refusal where it is used, so moving the
check is a behaviour change of its own.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import lcm
from operator import add, attrgetter, floordiv, lt, mul
from typing import NamedTuple

from . import cartan, roots, serialize
from .cartan import CartanMatrix
from .errors import InvalidSubsetError, NumberTypeError, RegionError
from .serialize import Number

BOUNDARY_TOLERANCE = 1e-12  # the one float tolerance: the -g locus here, the pole locus in maass_selberg

# The value types the reader answers for with C-level passes; any other
# type takes the per-value checks.
_EXACT = frozenset((int, Fraction))
_FLOATS = frozenset((float, complex))
_REALS = frozenset((int, Fraction, float))
_PLAIN = _EXACT | _FLOATS

REGION_CONVERGENT = "convergent"
REGION_CONTINUED = "continued"
REGION_BOUNDARY = "boundary"
REGION_OUTSIDE = "outside"


class _FunctionalFields(NamedTuple):
    values: tuple[Number, ...]
    d_value: Number | None = None


class LinearFunctional(_FunctionalFields):
    """Values on the simple coroots, exact or floating as given, read once
    and stored as a tuple, so a generator is kept too."""

    __slots__ = ()
    _make = classmethod(cartan._make_checked)

    def __new__(cls, values, d_value=None):
        values = tuple(cartan._items(values, "functional values"))
        _kinds(values, "functional value")
        if d_value is not None:
            _check_number(d_value, "d value")
        return tuple.__new__(cls, (values, d_value))

    @property
    def size(self) -> int:
        return len(self.values)


def functional(values, d_value: Number | None = None) -> LinearFunctional:
    return LinearFunctional(values, d_value)


def _check_functional(f) -> None:
    """The one gate of every entry point that takes a spectral parameter."""
    if not isinstance(f, LinearFunctional):
        raise NumberTypeError(f"spectral parameter {f!r} is not a LinearFunctional")


def _check_dimension(cm: CartanMatrix, f: LinearFunctional) -> set:
    """The gate of every call that reads a parameter against an ambient:
    the kinds of its values, every float among them finite."""
    _check_functional(f)
    cm = cartan._ambient(cm, affine=True)
    kinds = set(map(type, f.values))
    _check_values(cm, f.values, kinds)
    return kinds


def _check_values(cm: CartanMatrix, values: tuple, kinds: set) -> None:
    """Values of the given kinds against a checked ambient: one per
    coroot, every float finite."""
    if len(values) != cm.size:
        raise InvalidSubsetError(
            f"functional has {len(values)} values, ambient has {cm.size} coroots"
        )
    _check_finite(values, kinds=kinds)


def _check_number(x, what: str) -> None:
    """The one number rule: the kinds ``serialize`` writes, never a bool."""
    if isinstance(x, bool) or not isinstance(x, Number):
        raise NumberTypeError(f"{what} {x!r} is not a number")


def _kinds(values: tuple, what: str) -> set:
    """The reader: the set of the values' types, every value a number."""
    kinds = set(map(type, values))
    if not kinds <= _PLAIN:
        for x in values:
            _check_number(x, what)
    return kinds


def _check_numbers(values: tuple, what: str) -> None:
    """Every value a number, then every float finite."""
    _check_finite(values, what, _kinds(values, what))


def _check_finite(values: tuple, what: str = "functional value", kinds=None) -> None:
    """Reject NaN and infinite floats, complex parts included."""
    if kinds is None:
        kinds = set(map(type, values))
    if kinds <= _EXACT or (kinds <= _FLOATS and all(map(cmath.isfinite, values))):
        return
    for x in values:
        _check_finite_value(x, what)


def _check_finite_value(x, what: str) -> None:
    if isinstance(x, (float, complex)) and not cmath.isfinite(x):
        raise RegionError(f"{what} {x!r} is not finite")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def weyl_vector(cm: CartanMatrix) -> LinearFunctional:
    """The functional taking the value 1 on every simple coroot."""
    cartan._ambient(cm, affine=True)
    return LinearFunctional(values=(1,) * cm.size)


def shift_by_weyl_vector(f: LinearFunctional) -> LinearFunctional:
    return LinearFunctional(_shift(f), f.d_value)


def _shift(f: LinearFunctional) -> tuple:
    """The values of ``f`` plus one, unchecked."""
    _check_functional(f)
    return tuple(map(add, f.values, repeat(1)))


def central_value(cm: CartanMatrix, f: LinearFunctional) -> Number:
    """Pairing with the canonical central element: comark-weighted coroot
    values plus the attached-node value.  Exact when the inputs are; a
    float sum that overflows raises ``RegionError``."""
    kinds = _check_dimension(cm, f)
    return _central(roots._central_coroot(cm), f.values, kinds)[0]


def _central(weights, values: tuple, kinds) -> tuple[Number, bool]:
    """The central value of checked values, and whether it is exact:
    every value an int or a Fraction, read off the kinds when each is a
    plain type, value by value otherwise.  A float central value is a
    left fold from the int 0, the same additions in the same order on
    every interpreter (``sum`` compensates floats from Python 3.12 on)."""
    if kinds <= _EXACT or (not kinds <= _PLAIN and all(map(_is_exact, values))):
        return _exact_sum(weights, values, kinds), True
    try:
        central = reduce(add, map(mul, weights, values), 0)
    except OverflowError:  # the values themselves are finite
        raise RegionError("central value overflows a float") from None
    if isinstance(central, (float, complex)) and not cmath.isfinite(central):
        raise RegionError("central value overflows a float")
    return central, False


def _exact_sum(weights, values: tuple, kinds) -> int | Fraction:
    """The sum of the products w·x for int and Fraction values, taken over
    one common denominator; an int when no value is a Fraction, equal in
    value and type to the sum taken term by term."""
    nums = map(attrgetter("numerator"), values)
    dens = tuple(map(attrgetter("denominator"), values))
    den = lcm(*dens)
    num = sum(map(mul, map(mul, weights, nums), map(floordiv, repeat(den), dens)))
    return Fraction(num, den) if any(issubclass(k, Fraction) for k in kinds) else num


def godement_minimal(f: LinearFunctional) -> bool:
    """Every coroot value has real part strictly below -2; non-finite
    values raise ``RegionError``."""
    _check_functional(f)
    kinds = set(map(type, f.values))
    _check_finite(f.values, kinds=kinds)
    return _minimal(f.values, kinds)


def _minimal(values: tuple, kinds) -> bool:
    """Every finite value's real part strictly below -2."""
    reals = values if kinds <= _REALS else map(attrgetter("real"), values)
    return all(map(lt, reals, repeat(-2)))


class RegionReport(NamedTuple):
    region: str
    central: Number
    real_part: Number
    g: int


def godement_cuspidal(cm: CartanMatrix, f: LinearFunctional) -> RegionReport:
    """Classify the central value against the -2g / -g thresholds.

    Exact inputs compare exactly, as integers: the numerator of the
    central value against -g and -2g times its denominator.  Floating
    inputs use an absolute tolerance of 1e-12 against the -g boundary
    locus only; the -2g edge stays a sharp split between convergent and
    continued.
    """
    kinds = _check_dimension(cm, f)  # checks the ambient first
    central, exact = _central(roots._central_coroot(cm), f.values, kinds)
    g = roots._dual_coxeter(cm)
    if exact:  # its own real part; both sides times the denominator, so all on integers
        re = central
        x, edge, tolerance = re.numerator, -g * re.denominator, 0
    else:
        re = central.real
        x, edge, tolerance = re, -g, BOUNDARY_TOLERANCE
    if abs(x - edge) <= tolerance:
        region = REGION_BOUNDARY
    elif x < 2 * edge:
        region = REGION_CONVERGENT
    elif x < edge:
        region = REGION_CONTINUED
    else:
        region = REGION_OUTSIDE
    return tuple.__new__(RegionReport, (region, central, re, g))


def implication_check(cm: CartanMatrix, f: LinearFunctional) -> bool:
    """Everywhere-minimal parameters must have central value below -2g.

    Returns True when the implication holds for this parameter (either the
    hypothesis fails or the conclusion is verified)."""
    kinds = _check_dimension(cm, f)
    if not _minimal(f.values, kinds):
        return True
    return _central(roots._central_coroot(cm), f.values, kinds)[0].real < -2 * roots._dual_coxeter(cm)


def extend_from_central(cm: CartanMatrix, target: Number) -> LinearFunctional:
    """Equal-value functional whose central value is the target.

    The target must sit strictly inside the convergent region; each coroot
    value is target / g, exact for exact targets."""
    _check_numbers((target,), "central target")
    g = roots._dual_coxeter(cartan._ambient(cm, affine=True))
    if not target.real < -2 * g:
        raise RegionError(
            f"central target {target!r} is not strictly below -2g = {-2 * g}"
        )
    value = Fraction(target, g) if isinstance(target, int) else target / g
    return LinearFunctional(values=(value,) * cm.size)


def dominant_integral(cm: CartanMatrix, values) -> bool:
    """All integer values nonnegative with at least one positive."""
    vals = cartan._vector(cartan._ambient(cm), values)
    return all(x >= 0 for x in vals) and any(x > 0 for x in vals)


# --- serialization ----------------------------------------------------------


def functional_to_json(f: LinearFunctional) -> dict:
    _check_functional(f)
    out = {"values": serialize.encode_values(f.values)}
    if f.d_value is not None:
        out["d_value"] = serialize.encode_number(f.d_value)
    return out


def functional_from_json(obj) -> LinearFunctional:
    """Inverse of ``functional_to_json``; a bare value array is read as the
    values."""
    if isinstance(obj, dict) and "values" not in obj:
        raise NumberTypeError('functional object has no "values"')
    try:
        if isinstance(obj, dict):
            values = serialize.decode_values(obj["values"])
            d_value = serialize.decode_number(obj["d_value"]) if "d_value" in obj else None
        else:
            values, d_value = serialize.decode_values(obj), None
    except (TypeError, ValueError, OverflowError) as exc:
        raise NumberTypeError(f"functional does not decode: {exc}") from None
    return LinearFunctional(values=values, d_value=d_value)


def region_to_json(report: RegionReport) -> dict:
    cartan._instance(report, RegionReport)
    return {
        "region": report.region,
        "nu_c": serialize.encode_number(report.central),
        "g": report.g,
    }

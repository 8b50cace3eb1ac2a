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
as a tuple and checks that each is a number; their finiteness is
checked on each call that reads it (``_check_dimension``).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import cartan, roots, serialize
from .cartan import CartanMatrix
from .errors import InvalidSubsetError, NumberTypeError, RegionError
from .serialize import Number

BOUNDARY_TOLERANCE = 1e-12  # float comparisons against the -g locus

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
        for x in values:
            _check_number(x, "functional value")
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


def _check_dimension(cm: CartanMatrix, f: LinearFunctional) -> None:
    _check_functional(f)
    cartan._ambient(cm, affine=True)
    if f.size != cm.size:
        raise InvalidSubsetError(
            f"functional has {f.size} values, ambient has {cm.size} coroots"
        )
    _check_finite(f.values)


def _check_number(x, what: str) -> None:
    """The one number rule: the kinds ``serialize`` writes, never a bool."""
    if isinstance(x, bool) or not isinstance(x, Number):
        raise NumberTypeError(f"{what} {x!r} is not a number")


def _check_numbers(values, what: str) -> None:
    """Every value a number, then every float finite."""
    for x in values:
        _check_number(x, what)
    _check_finite(values, what)


def _check_finite(values, what: str = "functional value") -> None:
    """Reject NaN and infinite floats, complex parts included."""
    for x in values:
        if isinstance(x, (float, complex)) and not cmath.isfinite(x):
            raise RegionError(f"{what} {x!r} is not finite")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def weyl_vector(cm: CartanMatrix) -> LinearFunctional:
    """The functional taking the value 1 on every simple coroot."""
    cartan._ambient(cm, affine=True)
    return LinearFunctional(values=(1,) * cm.size)


def shift_by_weyl_vector(f: LinearFunctional) -> LinearFunctional:
    _check_functional(f)
    return LinearFunctional(values=tuple(x + 1 for x in f.values), d_value=f.d_value)


def central_value(cm: CartanMatrix, f: LinearFunctional) -> Number:
    """Pairing with the canonical central element: comark-weighted coroot
    values plus the attached-node value.  Exact when the inputs are; a
    float sum that overflows raises ``RegionError``."""
    _check_dimension(cm, f)
    weights = roots._central_coroot(cm)
    if all(map(_is_exact, f.values)):
        return _exact_sum(weights, f.values)
    try:
        central = sum(w * x for w, x in zip(weights, f.values))
        _check_finite((central,))
    except (OverflowError, RegionError):  # the values themselves are finite
        raise RegionError("central value overflows a float") from None
    return central


def _exact_sum(weights, values) -> int | Fraction:
    """The sum of the products w·x for int and Fraction values, taken over
    one common denominator; an int when no value is a Fraction, equal in
    value and type to the sum taken term by term."""
    den = lcm(*(x.denominator for x in values))
    num = sum(w * x.numerator * (den // x.denominator) for w, x in zip(weights, values))
    return Fraction(num, den) if any(isinstance(x, Fraction) for x in values) else num


def godement_minimal(f: LinearFunctional) -> bool:
    """Every coroot value has real part strictly below -2; non-finite
    values raise ``RegionError``."""
    _check_functional(f)
    _check_finite(f.values)
    return all(x.real < -2 for x in f.values)


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
    central = central_value(cm, f)  # checks the ambient first
    g = roots._dual_coxeter(cm)
    re = central.real
    if _is_exact(re):  # both sides times the denominator, so all on integers
        x, edge, tolerance = re.numerator, -g * re.denominator, 0
    else:
        x, edge, tolerance = re, -g, BOUNDARY_TOLERANCE
    if abs(x - edge) <= tolerance:
        region = REGION_BOUNDARY
    elif x < 2 * edge:
        region = REGION_CONVERGENT
    elif x < edge:
        region = REGION_CONTINUED
    else:
        region = REGION_OUTSIDE
    return RegionReport(region=region, central=central, real_part=re, g=g)


def implication_check(cm: CartanMatrix, f: LinearFunctional) -> bool:
    """Everywhere-minimal parameters must have central value below -2g.

    Returns True when the implication holds for this parameter (either the
    hypothesis fails or the conclusion is verified)."""
    _check_dimension(cm, f)
    if not godement_minimal(f):
        return True
    return central_value(cm, f).real < -2 * roots._dual_coxeter(cm)


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
    cm = cartan._ambient(cm)
    vals = tuple(cartan._items(values, "vector"))
    if len(vals) != cm.size:
        raise InvalidSubsetError(
            f"vector has {len(vals)} values, ambient has {cm.size} coroots"
        )
    vals = [cartan._check_int(x, "coordinate") for x in vals]
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

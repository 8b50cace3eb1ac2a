"""Closed-form truncated inner products of two induced series.

The value is the cusp pairing times exp of the summed parameter at the
truncation point, divided by the summed parameter's central value, with a
leading minus by default.  "Summed parameter" means the first shifted
parameter plus the complex conjugate of the second.  The kernel variant
drops the leading minus and can divide by the literal value at the
truncation point instead of the central value; both denominators are
exposed, neither is silently merged.  A vanishing denominator is reported
as a pole result, never a crash or an infinity.  A central value that
comes out exact (every summed value an int or a Fraction) vanishes when
it equals 0; any other denominator vanishes when its absolute value is
below the pole tolerance (``POLE_TOLERANCE``, the one float tolerance of
``criterion``, by default).  A value too large for a float, an exact
denominator too small for one, and any non-finite input raise
``RegionError``, and a non-numeric input raises ``NumberTypeError``.
A ``TruncatedPairing`` is checked in ``__new__``, and ``region_scan``
checks its whole grid, through its first point's request, before it
evaluates any point.

``_sums`` forms each point's exponent (the summed parameter at the
truncation point) and central value; ``_points`` is the one tail: the
pole rule, the exponential, the division and the overflow rule.
``region_scan`` runs them a block of rows at a time; on a grid whose
parameter values are all exactly ``float`` or ``complex`` numpy forms a
block's sums instead, with the same float operations in the same order,
so every point comes out bit for bit as ``_sums`` gives it.  ``_sums``
adds as a left fold from the int 0 (``reduce(add, …, 0)``), not with
``sum()``, which compensates float sums from Python 3.12 on: so a
point's bits do not depend on the interpreter.  numpy is imported only
when such a grid is scanned.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from itertools import chain, repeat
from operator import add, methodcaller, mul
from typing import NamedTuple

from . import cartan, criterion, roots, serialize
from .cartan import CartanMatrix
from .criterion import LinearFunctional
from .errors import InvalidSubsetError, NumberTypeError, RegionError

POLE_TOLERANCE = criterion.BOUNDARY_TOLERANCE  # one float tolerance for the -g locus and the pole locus

_BLOCK_POINTS = 4096  # grid points in one block of rows of a float scan: bounds its working arrays

DENOMINATOR_CENTRAL = "central"
DENOMINATOR_TRUNCATION = "truncation"

_OVERFLOW = "kernel value or denominator overflows a float"


class _PairingFields(NamedTuple):
    ambient: CartanMatrix
    cusp_pairing: complex
    left: LinearFunctional
    right: LinearFunctional
    truncation: tuple[float, ...]


class TruncatedPairing(_PairingFields):
    """One evaluation request: ambient, cusp pairing constant, the two
    shifted spectral parameters, and the truncation point in coroot
    coordinates, checked where it is made; the point is read once and
    stored as a tuple, so a generator is kept too."""

    __slots__ = ()
    _make = classmethod(cartan._make_checked)

    def __new__(cls, ambient, cusp_pairing, left, right, truncation):
        """The input check, which ``region_scan`` runs once, on its first
        point: parameter and truncation lengths match the ambient, the
        truncation coordinates and the cusp pairing are numbers, and every
        float is finite."""
        criterion._check_dimension(ambient, left)
        criterion._check_dimension(ambient, right)
        truncation = tuple(cartan._items(truncation, "truncation point"))
        if len(truncation) != ambient.size:
            raise InvalidSubsetError(
                f"truncation point has {len(truncation)} coordinates, ambient has {ambient.size}"
            )
        criterion._check_numbers(truncation, "truncation coordinate")
        criterion._check_numbers((cusp_pairing,), "cusp pairing")
        return tuple.__new__(cls, (ambient, cusp_pairing, left, right, truncation))


def _check_tolerance(pole_tolerance) -> None:
    if isinstance(pole_tolerance, (bool, complex)) or not isinstance(pole_tolerance, serialize.Number):
        raise RegionError(f"pole tolerance {pole_tolerance!r} is not a real number")
    if not 0 < pole_tolerance < math.inf:
        raise RegionError(f"pole tolerance must be positive and finite, got {pole_tolerance!r}")


def _shifted(ambient: CartanMatrix, f: LinearFunctional) -> tuple:
    """Values of a parameter shifted by the Weyl vector, checked as
    ``shift_by_weyl_vector`` and ``_check_dimension`` check them, against
    an ambient the caller has checked."""
    values = criterion._shift(f)
    criterion._check_values(ambient, values, criterion._kinds(values, "functional value"))
    return values


def _complex_point(truncation) -> tuple[complex, ...]:
    """The truncation point as complex numbers; a coordinate too large for
    a float is a kernel overflow."""
    try:
        return tuple(complex(t) for t in truncation)
    except OverflowError:
        raise RegionError(_OVERFLOW) from None


class KernelValue(NamedTuple):
    value: complex | None
    pole: bool
    denominator: complex


def _sums(weights, left: tuple, primes, rights, point: tuple[complex, ...], by_truncation: bool = False):
    """The formula's first half, the reference for every path, for one
    row of checked points, lazily: ``left`` holds the first shifted
    parameter's values, each entry of ``rights`` the complex conjugates of
    a second one's and ``weights`` the ambient's central coroot.  Yields
    ``(nu_prime, exponent, central)`` per entry of ``rights``, ``nu_prime``
    taken from ``primes``; in truncation mode the exponent stands in for
    the central value.  ``_float_sums`` repeats these operations.
    """
    isfinite = cmath.isfinite
    for nu_prime, right_conjugate in zip(primes, rights):
        summed = tuple(map(add, left, right_conjugate))
        exponent = reduce(add, map(mul, summed, point), 0)
        # Two finite parameters can sum to an infinity.  The point is complex,
        # so a non-finite summed entry makes its product non-finite, and a
        # complex sum stays non-finite once any term is: checking the summed
        # parameter only here rejects exactly what checking it always would.
        if not isfinite(exponent):
            criterion._check_finite(summed)
        yield nu_prime, exponent, exponent if by_truncation else reduce(add, map(mul, weights, summed), 0)


def _points(nus, rows, cusp_pairing, leading_minus: bool, pole_tolerance: float) -> tuple[list, int]:
    """The formula's tail, the one for every path: the ``ScanPoint`` of
    each ``(nu_prime, exponent, central)`` of each row of sums, the row's
    ``nu`` taken from ``nus``, and the number of poles.  A point that
    overflows raises before any later point is formed.  The cusp pairing
    is converted only where a value is formed, so a pole never needs it
    to fit in a float.
    """
    exp, isfinite, exact, new = cmath.exp, cmath.isfinite, criterion._EXACT, tuple.__new__
    pts = []
    append = pts.append
    n_poles = 0
    cusp = None
    try:
        for nu, sums in zip(nus, rows):
            for nu_prime, exponent, central in sums:
                kind = type(central)  # a complex one, as every float block's is, is read as is
                denominator = central if kind is complex else complex(central)
                if kind is not complex and kind in exact:  # every summed value an int or a Fraction
                    pole = central == 0
                else:
                    pole = abs(denominator) < pole_tolerance
                if pole:
                    n_poles += 1
                    value = None
                else:
                    if cusp is None:
                        cusp = complex(cusp_pairing)
                    try:
                        growth = exp(exponent)
                    except ValueError:  # an infinite phase, reached by overflow, has no exponential
                        growth = complex(math.nan)
                    value = cusp * growth / denominator
                    if not (isfinite(value) and isfinite(denominator)):
                        raise RegionError(_OVERFLOW)
                    if leading_minus:
                        value = -value
                append(new(ScanPoint, (nu, nu_prime, denominator, pole, value)))
    except OverflowError:
        raise RegionError(_OVERFLOW) from None
    except ZeroDivisionError:  # an exact nonzero central value below the smallest float
        raise RegionError("kernel denominator underflows a float") from None
    return pts, n_poles


_CONJUGATE = methodcaller("conjugate")


def _conjugate(values: tuple) -> tuple:
    return tuple(map(_CONJUGATE, values))


def _evaluate(
    request: TruncatedPairing, *, leading_minus: bool, by_truncation: bool, pole_tolerance: float
) -> KernelValue:
    """The formula at the one point of a checked request."""
    weights, right = roots._central_coroot(request.ambient), _conjugate(request.right.values)
    point = _complex_point(request.truncation)
    sums = _sums(weights, request.left.values, (None,), (right,), point, by_truncation)
    (out,), _ = _points((None,), (sums,), request.cusp_pairing, leading_minus, pole_tolerance)
    return KernelValue(value=out.value, pole=out.pole, denominator=out.denominator)


def inner_product(
    request: TruncatedPairing,
    *,
    leading_minus: bool = True,
    pole_tolerance: float = POLE_TOLERANCE,
) -> KernelValue:
    """Truncated inner product of the two series the request describes."""
    if not isinstance(request, TruncatedPairing):
        raise NumberTypeError(f"request {request!r} is not a TruncatedPairing")
    cartan._check_bool(leading_minus, "leading_minus", RegionError)
    _check_tolerance(pole_tolerance)
    return _evaluate(request, leading_minus=leading_minus, by_truncation=False, pole_tolerance=pole_tolerance)


def pairing_kernel(
    ambient: CartanMatrix,
    cusp_pairing,
    mu: LinearFunctional,
    mu_prime: LinearFunctional,
    truncation,
    *,
    denominator: str = DENOMINATOR_CENTRAL,
    pole_tolerance: float = POLE_TOLERANCE,
) -> KernelValue:
    """Kernel variant: no leading minus, selectable denominator."""
    request = TruncatedPairing(ambient, cusp_pairing, mu, mu_prime, truncation)
    _check_tolerance(pole_tolerance)
    if denominator not in (DENOMINATOR_CENTRAL, DENOMINATOR_TRUNCATION):
        raise RegionError(
            f"denominator mode must be {DENOMINATOR_CENTRAL!r} or "
            f"{DENOMINATOR_TRUNCATION!r}, got {denominator!r}"
        )
    return _evaluate(
        request,
        leading_minus=False,
        by_truncation=denominator == DENOMINATOR_TRUNCATION,
        pole_tolerance=pole_tolerance,
    )


class ScanPoint(NamedTuple):
    """One grid point of a scan; ``region_scan`` builds each one with
    ``tuple.__new__``."""

    nu: tuple          # unshifted parameter values of the first series
    nu_prime: tuple
    denominator: complex
    pole: bool
    value: complex | None


class ScanReport(NamedTuple):
    points: tuple[ScanPoint, ...]
    n_points: int
    n_poles: int


def _float_sums(weights, left, right, point):
    """``_sums`` over one block of rows of a grid whose shifted values are
    all exactly ``float`` or ``complex``, given as complex arrays: the
    exponents and the central values as lists of rows of Python complex
    numbers, or None when any of them is not finite.

    Each float is read as ``(x, 0.0)``, as Python's mixed arithmetic
    reads it, and float64 arrays of real and imaginary parts run
    ``_sums``' operations in its order: each summed value is two real
    additions, each product with the truncation point is written out as
    ``(ar*br - ai*bi, ar*bi + ai*br)``, and each sum over the coordinates
    runs in order from 0.0.  No numpy complex arithmetic is used: it may
    fuse a multiply and an add, which changes bits.  A weight is
    ``(w, 0.0)`` to Python, but the central value drops the ``0.0*s``
    terms of that product: each is a signed zero where ``s`` is finite,
    and a sum that starts at 0.0 never keeps the sign of a zero; where
    ``s`` is not finite, neither is the exponent.
    """
    import numpy as np  # region_scan has imported it

    shape = (len(left), len(right))
    at, den = np.zeros(shape, complex), np.zeros(shape, complex)
    at_re, at_im, den_re, den_im = at.real, at.imag, den.real, den.imag
    with np.errstate(all="ignore"):
        for k, (w, t) in enumerate(zip(weights, point)):
            s_re = np.add.outer(left.real[:, k], right.real[:, k])
            s_im = np.add.outer(left.imag[:, k], right.imag[:, k])
            at_re += s_re * t.real - s_im * t.imag
            at_im += s_re * t.imag + s_im * t.real
            den_re += float(w) * s_re
            den_im += float(w) * s_im
    if np.isfinite(at).all() and np.isfinite(den).all():
        return at.tolist(), den.tolist()
    return None


def region_scan(
    ambient: CartanMatrix,
    nus,
    nu_primes,
    truncation,
    cusp_pairing=1.0,
    *,
    pole_tolerance: float = POLE_TOLERANCE,
) -> ScanReport:
    """Tabulate the inner product over the product grid of unshifted
    parameters, in grid order, flagging the pole locus.

    The whole grid is checked before any point is evaluated: the first
    point's ``TruncatedPairing``, then each further second parameter and
    each further first parameter, shifted and checked once, then the
    tolerance.  A scan therefore raises what building every point's
    request in grid order, then evaluating them in grid order, raises
    first.  Each block of whole rows (at most ``_BLOCK_POINTS`` points, or
    one longer row) is one ``_points`` call.  Its sums come from
    ``_float_sums`` on a grid whose shifted values are all exactly
    ``float`` or ``complex``, and from ``_sums`` on any other grid or
    where the float sums are not all finite, so every point equals
    ``inner_product`` on its shifted parameters bit for bit.  If either side is empty the report is empty
    and nothing is checked.
    """
    nus = tuple(cartan._items(nus, "first parameter list"))
    nu_primes = tuple(cartan._items(nu_primes, "second parameter list"))
    if not nus or not nu_primes:
        return ScanReport(points=(), n_points=0, n_poles=0)
    shift = criterion.shift_by_weyl_vector
    first = TruncatedPairing(ambient, cusp_pairing, shift(nus[0]), shift(nu_primes[0]), truncation)
    rights = [_conjugate(first.right.values)] + [_conjugate(_shifted(ambient, f)) for f in nu_primes[1:]]
    lefts = [first.left.values] + [_shifted(ambient, f) for f in nus[1:]]
    _check_tolerance(pole_tolerance)
    point = _complex_point(first.truncation)
    weights = roots._central_coroot(ambient)
    values = [f.values for f in nus]
    primes = [f.values for f in nu_primes]
    arrays = None
    # exactly these two types: a float subclass such as numpy.float64 takes _sums
    if set(map(type, chain.from_iterable(lefts + rights))) <= criterion._FLOATS:
        import numpy as np  # here, not at module level: exact scans and single points never need it

        arrays = np.array(lefts, dtype=complex), np.array(rights, dtype=complex)
    pts = []
    n_poles = 0
    step = max(1, _BLOCK_POINTS // len(rights))
    for start in range(0, len(nus), step):
        block = slice(start, start + step)
        sums = arrays and _float_sums(weights, arrays[0][block], arrays[1], point)
        if sums:
            rows = map(zip, repeat(primes), *sums)
        else:
            rows = (_sums(weights, left, primes, rights, point) for left in lefts[block])
        block_points, block_poles = _points(values[block], rows, cusp_pairing, True, pole_tolerance)
        pts += block_points
        n_poles += block_poles
    return ScanReport(points=tuple(pts), n_points=len(pts), n_poles=n_poles)


# --- serialization ----------------------------------------------------------


def value_to_json(kv: KernelValue) -> dict:
    cartan._instance(kv, KernelValue)
    return {
        "value": None if kv.value is None else [kv.value.real, kv.value.imag],
        "pole": kv.pole,
        "denominator": serialize.encode_number(kv.denominator),
    }


def scan_to_json(report: ScanReport) -> dict:
    """JSON form of a scan report.

    Each distinct parameter tuple is encoded once: points that share a
    ``nu`` or ``nu_prime`` tuple (a row or a column of a ``region_scan``
    grid) share the encoded list.  Each point is unpacked once, and a grid
    row reuses the list of its ``nu``.  Numbers come out as
    ``serialize.encode_number`` gives them; a complex denominator with a
    nonzero imaginary part is written as that ``[re, im]`` pair directly.
    The dict is a serialization surface; copy it before mutating it.
    """
    cartan._instance(report, ScanReport)
    encoded: dict[int, list] = {}  # keyed on identity; the report keeps every tuple alive

    def encode(values) -> list:
        out = encoded.get(id(values))
        if out is None:
            out = encoded[id(values)] = serialize.encode_values(values)
        return out

    encode_number = serialize.encode_number
    points = []
    append = points.append
    row_nu = row_encoded = object()
    for nu, nu_prime, denominator, pole, value in report.points:
        if nu is not row_nu:
            row_nu, row_encoded = nu, encode(nu)
        append({
            "nu": row_encoded,
            "nu_prime": encode(nu_prime),
            "denominator": (
                [denominator.real, denominator.imag]
                if type(denominator) is complex and denominator.imag
                else encode_number(denominator)
            ),
            "pole": pole,
            "value": None if value is None else [value.real, value.imag],
        })
    return {"n_points": report.n_points, "n_poles": report.n_poles, "points": points}

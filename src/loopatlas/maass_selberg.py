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

``_kernel`` is the formula.  ``region_scan`` runs it a row at a time,
except on a grid whose parameter values are all exactly ``float`` or
``complex`` (on Python before 3.12): there numpy runs the same float
operations, in the same order, a block of rows at a time, and each
point's tail (the pole test, the exponential, the division) stays Python
complex arithmetic, so every point comes out bit for bit as ``_kernel``
gives it.  numpy is imported only when such a grid is scanned.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import chain
from operator import add, methodcaller, mul
from typing import NamedTuple

from . import cartan, criterion, roots, serialize
from .cartan import CartanMatrix
from .criterion import LinearFunctional
from .errors import InvalidSubsetError, NumberTypeError, RegionError

POLE_TOLERANCE = criterion.BOUNDARY_TOLERANCE  # one float tolerance for the -g locus and the pole locus

_BLOCK_POINTS = 4096  # grid points in one block of rows of a float scan: bounds its working arrays
# The float scan reproduces Python's float arithmetic as it is before 3.12.
# From 3.12 on, sum() compensates a sum of floats (Neumaier), and _kernel's
# central value is such a sum wherever a point's summed values are real.
_FLOAT_SCAN = sys.version_info < (3, 12)

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


def _kernel(
    weights,
    cusp_pairing,
    left: tuple,
    rights,
    point: tuple[complex, ...],
    *,
    leading_minus: bool,
    by_truncation: bool,
    pole_tolerance: float,
) -> list[tuple]:
    """The kernel formula, the reference for every path, on checked
    inputs, for one row of points: ``left`` holds the first shifted
    parameter's values and each entry of ``rights`` the complex
    conjugates of a second one's, ``point`` is the truncation point as
    complex numbers and ``weights`` the ambient's central coroot.  Returns
    one ``(value, pole, denominator)`` per entry of ``rights``, in order,
    the value None on a pole; a point
    that overflows raises before any later point is formed.  Every point
    runs the same float operations in the same order whether it comes in
    a row or alone.  The cusp pairing is converted only where a value is
    formed, so a pole never needs it to fit in a float.  ``_float_scan``
    repeats these operations over arrays for float grids; whatever it
    cannot match bit for bit comes back here.
    """
    exp, isfinite = cmath.exp, cmath.isfinite
    out = []
    append = out.append
    try:
        for right_conjugate in rights:
            summed = tuple(map(add, left, right_conjugate))
            at_truncation = sum(map(mul, summed, point))
            # Two finite parameters can sum to an infinity.  The point is complex,
            # so a non-finite summed entry makes its product non-finite, and a
            # complex sum stays non-finite once any term is: checking the summed
            # parameter only here rejects exactly what checking it always would.
            if not isfinite(at_truncation):
                criterion._check_finite(summed)
            if by_truncation:
                denominator = at_truncation
                pole = abs(denominator) < pole_tolerance
            else:
                central = sum(map(mul, weights, summed))
                denominator = complex(central)
                if type(central) in criterion._EXACT:  # every summed value an int or a Fraction
                    pole = central == 0
                else:
                    pole = abs(denominator) < pole_tolerance
            if pole:
                append((None, True, denominator))
                continue
            try:
                growth = exp(at_truncation)
            except ValueError:  # an infinite phase, reached by overflow, has no exponential
                growth = complex(math.nan)
            value = complex(cusp_pairing) * growth / denominator
            if not (isfinite(value) and isfinite(denominator)):
                raise RegionError(_OVERFLOW)
            append((-value if leading_minus else value, False, denominator))
    except OverflowError:
        raise RegionError(_OVERFLOW) from None
    except ZeroDivisionError:  # an exact nonzero central value below the smallest float
        raise RegionError("kernel denominator underflows a float") from None
    return out


_CONJUGATE = methodcaller("conjugate")


def _conjugate(values: tuple) -> tuple:
    return tuple(map(_CONJUGATE, values))


def _evaluate(
    request: TruncatedPairing, *, leading_minus: bool, by_truncation: bool, pole_tolerance: float
) -> KernelValue:
    """``_kernel`` at the one point of a checked request."""
    ((value, pole, denominator),) = _kernel(
        roots._central_coroot(request.ambient),
        request.cusp_pairing,
        request.left.values,
        (_conjugate(request.right.values),),
        _complex_point(request.truncation),
        leading_minus=leading_minus,
        by_truncation=by_truncation,
        pole_tolerance=pole_tolerance,
    )
    return KernelValue(value=value, pole=pole, denominator=denominator)


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


def _float_scan(weights, cusp_pairing, nus, lefts, rights, prime_values, point, pole_tolerance):
    """``_kernel`` over a whole grid whose shifted values are all exactly
    ``float`` or ``complex``, a block of whole rows at a time (at most
    ``_BLOCK_POINTS`` points, or one longer row): the report, or None.

    Each float is read as ``(x, 0.0)``, as Python's mixed arithmetic
    reads it, and float64 arrays of real and imaginary parts run
    ``_kernel``'s operations in its order: each summed value is two real
    additions, each product with the truncation point is written out as
    ``(ar*br - ai*bi, ar*bi + ai*br)``, and each sum over the coordinates
    runs in order from 0.0.  No numpy complex arithmetic is used: it may
    fuse a multiply and an add, which changes bits.  A weight is
    ``(w, 0.0)`` to Python, but the central value drops the ``0.0*s``
    terms of that product: each is a signed zero where ``s`` is finite,
    and a sum that starts at 0.0 never keeps the sign of a zero; where
    ``s`` is not finite, neither is the exponent.  The rest of each point
    is ``_kernel``'s own Python complex arithmetic.  None means a
    non-finite exponent or denominator, or a point that overflows (its
    cusp pairing included): the caller then runs ``_kernel`` over the
    grid, which raises or returns what it always does.
    """
    import numpy as np  # here, not at module level: exact scans and single points never need it

    left, right = np.array(lefts, dtype=complex), np.array(rights, dtype=complex)
    left_re, left_im, right_re, right_im = left.real, left.imag, right.real, right.imag
    terms = [(k, float(w), t.real, t.imag) for k, (w, t) in enumerate(zip(weights, point))]
    exp, isfinite = cmath.exp, cmath.isfinite
    new = tuple.__new__
    pts = []
    append = pts.append
    n_poles = 0
    step = max(1, _BLOCK_POINTS // len(rights))
    cusp = None  # converted where the first value is formed, as in _kernel
    try:
        for start in range(0, len(lefts), step):
            block = slice(start, start + step)
            with np.errstate(all="ignore"):
                shape = (len(left_re[block]), len(rights))
                at, den = np.zeros(shape, complex), np.zeros(shape, complex)
                at_re, at_im, den_re, den_im = at.real, at.imag, den.real, den.imag
                for k, w, t_re, t_im in terms:
                    s_re = np.add.outer(left_re[block, k], right_re[:, k])
                    s_im = np.add.outer(left_im[block, k], right_im[:, k])
                    at_re += s_re * t_re - s_im * t_im
                    at_im += s_re * t_im + s_im * t_re
                    den_re += w * s_re
                    den_im += w * s_im
                if not (np.isfinite(at).all() and np.isfinite(den).all()):
                    return None
            for nu, at_row, den_row in zip(nus[block], at.tolist(), den.tolist()):
                nu_values = nu.values
                for nu_prime_values, exponent, denominator in zip(prime_values, at_row, den_row):
                    if abs(denominator) < pole_tolerance:
                        n_poles += 1
                        append(new(ScanPoint, (nu_values, nu_prime_values, denominator, True, None)))
                        continue
                    if cusp is None:
                        cusp = complex(cusp_pairing)
                    value = cusp * exp(exponent) / denominator
                    if not isfinite(value):
                        return None
                    append(new(ScanPoint, (nu_values, nu_prime_values, denominator, False, -value)))
    except OverflowError:
        return None
    return ScanReport(points=tuple(pts), n_points=len(pts), n_poles=n_poles)


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
    first.  On a grid whose shifted values are all exactly ``float`` or
    ``complex`` (before Python 3.12, see ``_FLOAT_SCAN``), ``_float_scan``
    evaluates it a block of rows at a time; on any other grid, and
    wherever that path cannot finish, each row is one ``_kernel`` call
    over the conjugated second parameters.  Either way every point equals
    ``inner_product`` on its shifted parameters bit for bit.  If either
    side is empty the report is empty and nothing is checked.
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
    prime_values = [f.values for f in nu_primes]
    # exactly these two types: a float subclass such as numpy.float64 takes the rows below
    if _FLOAT_SCAN and set(map(type, chain.from_iterable(lefts + rights))) <= criterion._FLOATS:
        report = _float_scan(weights, cusp_pairing, nus, lefts, rights, prime_values, point, pole_tolerance)
        if report is not None:
            return report
    new = tuple.__new__
    pts = []
    append = pts.append
    n_poles = 0
    for nu, left in zip(nus, lefts):
        row = _kernel(
            weights, cusp_pairing, left, rights, point,
            leading_minus=True, by_truncation=False, pole_tolerance=pole_tolerance,
        )
        nu_values = nu.values
        for nu_prime_values, (value, pole, denominator) in zip(prime_values, row):
            n_poles += pole
            append(new(ScanPoint, (nu_values, nu_prime_values, denominator, pole, value)))
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

"""Closed-form truncated inner products of two induced series.

The value is the cusp pairing times exp of the summed parameter at the
truncation point, divided by the summed parameter's central value, with a
leading minus by default.  "Summed parameter" means the first shifted
parameter plus the complex conjugate of the second.  The kernel variant
drops the leading minus and can divide by the literal value at the
truncation point instead of the central value; both denominators are
exposed, neither is silently merged.  A vanishing denominator is reported
as a pole result, never a crash or an infinity; a value too large for a
float, and any non-finite input, raises ``RegionError``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

from . import criterion, serialize
from .cartan import CartanMatrix
from .criterion import LinearFunctional
from .errors import InvalidSubsetError, RegionError

POLE_TOLERANCE = 1e-12

DENOMINATOR_CENTRAL = "central"
DENOMINATOR_TRUNCATION = "truncation"


@dataclass(frozen=True)
class TruncatedPairing:
    """One evaluation request: ambient, cusp pairing constant, the two
    shifted spectral parameters, and the truncation point in coroot
    coordinates."""

    ambient: CartanMatrix
    cusp_pairing: complex
    left: LinearFunctional
    right: LinearFunctional
    truncation: tuple[float, ...]

    def __post_init__(self):
        _check_inputs(self.ambient, self.cusp_pairing, self.left, self.right, self.truncation)


def _check_inputs(ambient, cusp_pairing, left, right, truncation) -> tuple:
    """The one input check of both entry points: parameter and truncation
    lengths match the ambient, and every float is finite.  Returns the
    truncation point as a tuple."""
    criterion._check_dimension(ambient, left)
    criterion._check_dimension(ambient, right)
    truncation = tuple(truncation)
    if len(truncation) != ambient.size:
        raise InvalidSubsetError(
            f"truncation point has {len(truncation)} coordinates, ambient has {ambient.size}"
        )
    criterion._check_finite(truncation, "truncation coordinate")
    criterion._check_finite((cusp_pairing,), "cusp pairing")
    return truncation


@dataclass(frozen=True)
class KernelValue:
    value: complex | None
    pole: bool
    denominator: complex


def _summed(left: LinearFunctional, right: LinearFunctional) -> LinearFunctional:
    vals = tuple(a + b.conjugate() for a, b in zip(left.values, right.values))
    return LinearFunctional(values=vals)


def _evaluate(
    ambient: CartanMatrix,
    cusp_pairing,
    left: LinearFunctional,
    right: LinearFunctional,
    truncation,
    *,
    leading_minus: bool,
    denominator_mode: str,
    pole_tolerance: float,
) -> KernelValue:
    if not 0 < pole_tolerance < math.inf:
        raise ValueError(f"pole tolerance must be positive and finite, got {pole_tolerance!r}")
    summed = _summed(left, right)
    try:
        at_truncation = sum(s * complex(t) for s, t in zip(summed.values, truncation))
        if denominator_mode == DENOMINATOR_CENTRAL:
            denominator = complex(criterion.central_value(ambient, summed))
        elif denominator_mode == DENOMINATOR_TRUNCATION:
            criterion._check_dimension(ambient, summed)
            denominator = at_truncation
        else:
            raise ValueError(
                f"denominator mode must be {DENOMINATOR_CENTRAL!r} or "
                f"{DENOMINATOR_TRUNCATION!r}, got {denominator_mode!r}"
            )
        if abs(denominator) < pole_tolerance:
            return KernelValue(value=None, pole=True, denominator=denominator)
        value = complex(cusp_pairing) * cmath.exp(at_truncation) / denominator
        finite = cmath.isfinite(value) and cmath.isfinite(denominator)
    except OverflowError:
        finite = False
    if not finite:
        raise RegionError("kernel value or denominator overflows a float")
    if leading_minus:
        value = -value
    return KernelValue(value=value, pole=False, denominator=denominator)


def inner_product(
    request: TruncatedPairing,
    *,
    leading_minus: bool = True,
    pole_tolerance: float = POLE_TOLERANCE,
) -> KernelValue:
    """Truncated inner product of the two series the request describes."""
    return _evaluate(
        request.ambient,
        request.cusp_pairing,
        request.left,
        request.right,
        request.truncation,
        leading_minus=leading_minus,
        denominator_mode=DENOMINATOR_CENTRAL,
        pole_tolerance=pole_tolerance,
    )


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
    return _evaluate(
        ambient,
        cusp_pairing,
        mu,
        mu_prime,
        _check_inputs(ambient, cusp_pairing, mu, mu_prime, truncation),
        leading_minus=False,
        denominator_mode=denominator,
        pole_tolerance=pole_tolerance,
    )


@dataclass(frozen=True)
class ScanPoint:
    nu: tuple          # unshifted parameter values of the first series
    nu_prime: tuple
    denominator: complex
    pole: bool
    value: complex | None


@dataclass(frozen=True)
class ScanReport:
    points: tuple[ScanPoint, ...]
    n_points: int
    n_poles: int


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
    parameters, in grid order, flagging the pole locus."""
    pts = []
    n_poles = 0
    for nu, nu_prime in product(tuple(nus), tuple(nu_primes)):
        left = criterion.shift_by_weyl_vector(nu)
        right = criterion.shift_by_weyl_vector(nu_prime)
        request = TruncatedPairing(
            ambient=ambient,
            cusp_pairing=cusp_pairing,
            left=left,
            right=right,
            truncation=tuple(truncation),
        )
        result = inner_product(request, pole_tolerance=pole_tolerance)
        if result.pole:
            n_poles += 1
        pts.append(
            ScanPoint(
                nu=nu.values,
                nu_prime=nu_prime.values,
                denominator=result.denominator,
                pole=result.pole,
                value=result.value,
            )
        )
    return ScanReport(points=tuple(pts), n_points=len(pts), n_poles=n_poles)


# --- serialization ----------------------------------------------------------


def value_to_json(kv: KernelValue) -> dict:
    return {
        "value": None if kv.value is None else [kv.value.real, kv.value.imag],
        "pole": kv.pole,
        "denominator": serialize.encode_number(kv.denominator),
    }


def scan_to_json(report: ScanReport) -> dict:
    return {
        "n_points": report.n_points,
        "n_poles": report.n_poles,
        "points": [
            {
                "nu": serialize.encode_values(p.nu),
                "nu_prime": serialize.encode_values(p.nu_prime),
                "denominator": serialize.encode_number(p.denominator),
                "pole": p.pole,
                "value": None if p.value is None else [p.value.real, p.value.imag],
            }
            for p in report.points
        ],
    }

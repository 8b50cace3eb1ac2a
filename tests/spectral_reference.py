"""Independent oracle: the spectral-parameter gates, read value by value.

Each gate here checks its values one at a time, in order: the number
rule (an int, float, complex or Fraction, never a bool), then finiteness
(every float and complex value, complex parts included), then exactness
(every value an int or a Fraction, never a bool).  Every sum is taken
term by term, as a left fold from the int 0, so it does not depend on
how the interpreter's ``sum`` adds floats; the region test and the
truncated-pairing kernel are written out for one point at a time.  A refusal raises
``Refused`` carrying the name of the error class a gate raises and its
message, so a test can compare both without this module importing the
library.  An ambient enters as its central coroot ``weights`` and its
dual Coxeter number ``g``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add

TOLERANCE = 1e-12  # the -g locus and the default pole locus, for floats
OVERFLOW = "kernel value or denominator overflows a float"


class Refused(Exception):
    def __init__(self, kind: str, message: str) -> None:
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def check_number(x, what: str) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, float, complex, Fraction)):
        raise Refused("NumberTypeError", f"{what} {x!r} is not a number")


def check_finite(values, what: str = "functional value") -> None:
    for x in values:
        if isinstance(x, (float, complex)) and not cmath.isfinite(x):
            raise Refused("RegionError", f"{what} {x!r} is not finite")


def check_numbers(values, what: str) -> None:
    for x in values:
        check_number(x, what)
    check_finite(values, what)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def functional(values) -> tuple:
    """The values a parameter keeps: each must be a number."""
    values = tuple(values)
    for x in values:
        check_number(x, "functional value")
    return values


def check_dimension(weights, values) -> None:
    if len(values) != len(weights):
        raise Refused(
            "InvalidSubsetError", f"functional has {len(values)} values, ambient has {len(weights)} coroots"
        )
    check_finite(values)


def central_value(weights, values):
    check_dimension(weights, values)
    if all(is_exact(x) for x in values):
        return reduce(add, (w * x for w, x in zip(weights, values)), 0)
    try:
        central = reduce(add, (w * x for w, x in zip(weights, values)), 0)
        check_finite((central,))
    except (OverflowError, Refused):
        raise Refused("RegionError", "central value overflows a float") from None
    return central


def godement_minimal(values) -> bool:
    check_finite(values)
    return all(x.real < -2 for x in values)


def godement_cuspidal(weights, g: int, values) -> tuple:
    """(region, central value, its real part, g)."""
    central = central_value(weights, values)
    re = central.real
    if is_exact(re):
        x, edge, tolerance = re.numerator, -g * re.denominator, 0
    else:
        x, edge, tolerance = re, -g, TOLERANCE
    if abs(x - edge) <= tolerance:
        region = "boundary"
    elif x < 2 * edge:
        region = "convergent"
    elif x < edge:
        region = "continued"
    else:
        region = "outside"
    return (region, central, re, g)


def implication_check(weights, g: int, values) -> bool:
    check_dimension(weights, values)
    if not godement_minimal(values):
        return True
    return central_value(weights, values).real < -2 * g


def _check_request(weights, cusp_pairing, left, right, truncation) -> tuple:
    check_dimension(weights, left)
    check_dimension(weights, right)
    truncation = tuple(truncation)
    if len(truncation) != len(weights):
        raise Refused(
            "InvalidSubsetError",
            f"truncation point has {len(truncation)} coordinates, ambient has {len(weights)}",
        )
    check_numbers(truncation, "truncation coordinate")
    check_numbers((cusp_pairing,), "cusp pairing")
    return truncation


def _point(weights, cusp_pairing, left, right, truncation, leading_minus: bool) -> tuple:
    """(value, pole, denominator) at one checked point, by the central value."""
    right_conjugate = tuple(x.conjugate() for x in right)
    try:
        point = tuple(complex(t) for t in truncation)
    except OverflowError:
        raise Refused("RegionError", OVERFLOW) from None
    try:
        summed = tuple(x + y for x, y in zip(left, right_conjugate))
        at_truncation = reduce(add, (s * t for s, t in zip(summed, point)), 0)
        if not cmath.isfinite(at_truncation):
            check_finite(summed)
        central = reduce(add, (w * s for w, s in zip(weights, summed)), 0)
        denominator = complex(central)
        if all(is_exact(s) for s in summed):
            pole = central == 0
        else:
            pole = abs(denominator) < TOLERANCE
        if pole:
            return (None, True, denominator)
        try:
            growth = cmath.exp(at_truncation)
        except ValueError:
            growth = complex(math.nan)
        value = complex(cusp_pairing) * growth / denominator
        if not (cmath.isfinite(value) and cmath.isfinite(denominator)):
            raise Refused("RegionError", OVERFLOW)
    except OverflowError:
        raise Refused("RegionError", OVERFLOW) from None
    except ZeroDivisionError:
        raise Refused("RegionError", "kernel denominator underflows a float") from None
    return (-value if leading_minus else value, False, denominator)


def pairing_kernel(weights, cusp_pairing, mu, mu_prime, truncation) -> tuple:
    """The kernel variant: no leading minus, the central denominator."""
    truncation = _check_request(weights, cusp_pairing, mu, mu_prime, truncation)
    return _point(weights, cusp_pairing, mu, mu_prime, truncation, leading_minus=False)


def region_scan(weights, nus, nu_primes, truncation, cusp_pairing=1.0) -> tuple:
    """(points, point count, pole count): every point's request built and
    checked in grid order, then every point evaluated in grid order; each
    point is (nu, nu_prime, denominator, pole, value)."""
    if not nus or not nu_primes:
        return ((), 0, 0)
    requests = []
    for nu in nus:
        for nu_prime in nu_primes:
            left = functional(x + 1 for x in nu)
            right = functional(x + 1 for x in nu_prime)
            point = _check_request(weights, cusp_pairing, left, right, truncation)
            requests.append((nu, nu_prime, left, right, point))
    points = []
    for nu, nu_prime, left, right, point in requests:
        value, pole, denominator = _point(weights, cusp_pairing, left, right, point, leading_minus=True)
        points.append((nu, nu_prime, denominator, pole, value))
    return (tuple(points), len(points), sum(p[3] for p in points))

import builtins
import cmath
import hashlib
import json
import math
import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, strategies as st

from loopatlas import cartan, criterion, maass_selberg as ms, roots, serialize
from loopatlas.errors import InvalidCartanMatrixError, InvalidSubsetError, NumberTypeError, RegionError

finite_floats = st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)


def _cm(label):
    return cartan.parse_type(label)


def _request(label, left, right, truncation, pairing=1.0):
    return ms.TruncatedPairing(
        ambient=_cm(label),
        cusp_pairing=pairing,
        left=criterion.functional(left),
        right=criterion.functional(right),
        truncation=tuple(truncation),
    )


# --- the degenerate reference value -----------------------------------------


def test_half_at_the_degenerate_point():
    """Equal self-dual parameters at the origin truncation give exactly
    one half with the leading minus, minus one half without."""
    req = _request("A1affine", (-0.5, -0.5), (-0.5, -0.5), (0.0, 0.0))
    out = ms.inner_product(req)
    assert not out.pole
    assert out.denominator == -2
    assert abs(out.value - 0.5) <= 1e-15

    kernel = ms.pairing_kernel(
        _cm("A1affine"),
        1.0,
        criterion.functional((-0.5, -0.5)),
        criterion.functional((-0.5, -0.5)),
        (0.0, 0.0),
    )
    assert abs(kernel.value + 0.5) <= 1e-15


def test_leading_minus_toggle():
    req = _request("A2affine", (-2, -3, -1), (-1, -1, -2), (0.3, -0.1, 0.2))
    plus = ms.inner_product(req, leading_minus=False)
    minus = ms.inner_product(req)
    assert minus.value == -plus.value
    assert minus.denominator == plus.denominator
    # a non-bool flag was read by its truth value: "no" as True
    for flag in ("no", 0, 1, None, numpy.True_):
        with pytest.raises(RegionError, match=f"^leading_minus {flag!r} is not a boolean$"):
            ms.inner_product(req, leading_minus=flag)


# --- pole handling ----------------------------------------------------------


def test_pole_at_reflected_conjugate():
    """The summed parameter vanishes identically when the second parameter
    is minus the conjugate of the first, so the central denominator is 0."""
    left = (-1 + 2j, -3 - 1j)
    right = (1 + 2j, 3 - 1j)  # -conj(left)
    req = _request("A1affine", left, right, (0.7, 0.4))
    out = ms.inner_product(req)
    assert out.pole
    assert out.value is None
    assert out.denominator == 0


def test_pole_tolerance_is_adjustable():
    req = _request("A1affine", (-1, -1), (1 - 1e-9, 1), (0.0, 0.0))
    assert not ms.inner_product(req).pole
    assert ms.inner_product(req, pole_tolerance=1e-6).pole


def test_pole_only_on_the_central_locus():
    """Nonzero central values never report a pole, arbitrarily small
    truncation values included."""
    req = _request("A1affine", (-1, -1), (-1, -1), (1e-300, 0.0))
    out = ms.inner_product(req)
    assert not out.pole
    assert out.denominator == -4


def test_exact_central_values_are_poles_only_at_zero():
    """An exact summed parameter is a pole exactly when its central value
    is 0; a nonzero one below the tolerance used to be reported as a pole,
    with denominator (1e-13+0j).  Floats, and the truncation denominator,
    keep the tolerance."""
    cm = _cm("A1affine")
    tiny, zero = criterion.functional((Fraction(1, 10**13), 0)), criterion.functional((0, 0))
    out = ms.pairing_kernel(cm, 1, tiny, zero, (0, 0))
    assert not out.pole
    assert out.denominator == complex(1e-13)
    assert out.value == 1 / complex(1e-13) and cmath.isfinite(out.value)
    assert ms.pairing_kernel(cm, 1, zero, zero, (0, 0)).pole
    assert ms.pairing_kernel(cm, 1, tiny, zero, (0, 0), denominator=ms.DENOMINATOR_TRUNCATION).pole
    assert ms.pairing_kernel(cm, 1, criterion.functional((1e-13, 0)), zero, (0, 0)).pole
    # the scan agrees point by point: nu = tiny - rho, nu' = -rho
    nu = criterion.functional((Fraction(1, 10**13) - 1, -1))
    report = ms.region_scan(cm, [nu], [criterion.functional((-1, -1))], (0, 0))
    assert report.n_poles == 0
    assert report.points[0].value == -out.value
    # a nonzero exact denominator that a float cannot hold is refused, not a pole
    tinier = criterion.functional((Fraction(1, 10**400), 0))
    with pytest.raises(RegionError, match="^kernel denominator underflows a float$"):
        ms.pairing_kernel(cm, 1, tinier, zero, (0, 0))


def test_pole_and_boundary_tolerance_are_one_rule():
    assert ms.POLE_TOLERANCE is criterion.BOUNDARY_TOLERANCE
    assert ms.POLE_TOLERANCE == 1e-12


def test_truncation_denominator_has_its_own_pole_locus():
    cm = _cm("A1affine")
    mu = criterion.functional((-1.0, 1.0))
    mu_p = criterion.functional((-1.0, 1.0))
    # summed = (-2, 2): central vanishes, the truncation value need not
    central = ms.pairing_kernel(cm, 1.0, mu, mu_p, (0.0, 0.0))
    assert central.pole
    trunc = ms.pairing_kernel(
        cm, 1.0, mu, mu_p, (0.5, 0.0), denominator=ms.DENOMINATOR_TRUNCATION
    )
    assert not trunc.pole
    assert trunc.denominator == -1
    assert abs(trunc.value - cmath.exp(-1) / -1) <= 1e-15


def test_unknown_denominator_mode():
    cm = _cm("A1affine")
    f = criterion.functional((-1, -1))
    with pytest.raises(ValueError):
        ms.pairing_kernel(cm, 1.0, f, f, (0.0, 0.0), denominator="norm")
    with pytest.raises(RegionError, match="denominator mode"):
        ms.pairing_kernel(cm, 1.0, f, f, (0.0, 0.0), denominator="x")


# --- closed form ------------------------------------------------------------


def test_closed_form_small_cases():
    # summed (-3, -2), truncation (1, 2): exponent -7, central -5
    req = _request("A1affine", (-2, -1), (-1, -1), (1.0, 2.0), pairing=3.0)
    out = ms.inner_product(req)
    assert out.denominator == -5
    assert abs(out.value - 3.0 * math.exp(-7.0) / 5.0) <= 1e-15


def test_conjugation_swap_symmetry():
    left = (-1 + 1j, -2 - 3j, -1.5 + 0.25j)
    right = (-2 - 1j, -1 + 2j, -0.5 - 1j)
    trunc = (0.4, -0.2, 0.1)
    a = ms.inner_product(_request("A2affine", left, right, trunc, pairing=2.0))
    b = ms.inner_product(_request("A2affine", right, left, trunc, pairing=2.0))
    assert abs(b.value - a.value.conjugate()) <= 1e-13
    assert abs(b.denominator - a.denominator.conjugate()) <= 1e-13


@given(finite_floats, finite_floats, finite_floats)
def test_linear_in_the_cusp_pairing(x, y, scale):
    req = _request("A1affine", (x - 3, -2.5), (y - 3, -2.5), (0.1, 0.2))
    base = ms.inner_product(req)
    scaled = ms.inner_product(
        ms.TruncatedPairing(
            ambient=req.ambient,
            cusp_pairing=scale,
            left=req.left,
            right=req.right,
            truncation=req.truncation,
        )
    )
    if base.pole:
        assert scaled.pole
    else:
        assert abs(scaled.value - scale * base.value) <= 1e-12 * max(1.0, abs(base.value))


def test_against_high_precision_oracle():
    """Recompute the closed form with 50-digit arithmetic."""
    mpmath.mp.dps = 50
    cases = [
        ("A1affine", (-1.25 + 0.5j, -2.5 - 1j), (-0.75 - 0.25j, -1.5 + 2j), (0.3, -0.7), 1.5),
        ("A2affine", (-2.1, -1.3, -0.7), (-1.9, -0.4, -1.1), (0.25, 0.5, -0.125), -2.0),
        ("G2affine", (-3 + 1j, -2, -1 - 1j), (-1, -2 + 0.5j, -3), (0.1, 0.2, 0.3), 0.5 + 0.5j),
    ]
    for label, left, right, trunc, pairing in cases:
        cm = _cm(label)
        out = ms.inner_product(_request(label, left, right, trunc, pairing=pairing))
        weights = [int(w) for w in roots.central_coroot(cm)]
        summed = [mpmath.mpc(a) + mpmath.conj(mpmath.mpc(b)) for a, b in zip(left, right)]
        exponent = sum(s * mpmath.mpf(t) for s, t in zip(summed, trunc))
        denominator = sum(w * s for w, s in zip(weights, summed))
        expected = -mpmath.mpc(pairing) * mpmath.exp(exponent) / denominator
        got = mpmath.mpc(out.value)
        assert mpmath.fabs(got - expected) <= mpmath.mpf("1e-13") * max(1, mpmath.fabs(expected))


def test_bounded_near_a_simple_pole():
    """value * denominator stays pinned to -pairing * exp(exponent) as the
    central value approaches zero."""
    pairing = 2.5
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        left = (-1 + eps, -1)
        right = (1, 1)  # summed = (eps, 0)
        req = _request("A1affine", left, right, (0.9, 0.1), pairing=pairing)
        out = ms.inner_product(req)
        assert not out.pole
        residue = out.value * out.denominator
        target = -pairing * math.exp(eps * 0.9)
        assert abs(residue - target) <= 1e-6 * abs(target)


# --- positivity -------------------------------------------------------------


@given(st.data())
def test_positive_for_real_parameters_with_negative_central(data):
    """Equal real parameters with a negative central value and a positive
    cusp pairing always give a positive inner product."""
    label = data.draw(st.sampled_from(["A1affine", "A2affine", "C2affine"]))
    cm = _cm(label)
    sigma = tuple(
        data.draw(st.floats(min_value=-6, max_value=-0.01)) for _ in range(cm.size)
    )
    trunc = tuple(data.draw(finite_floats) for _ in range(cm.size))
    f = criterion.functional(sigma)
    assert criterion.central_value(cm, f).real < 0
    req = ms.TruncatedPairing(
        ambient=cm, cusp_pairing=4.0, left=f, right=f, truncation=trunc
    )
    out = ms.inner_product(req)
    assert not out.pole
    assert out.value.real > 0
    assert out.value.imag == 0


# --- grid scans -------------------------------------------------------------


def test_region_scan_shape_and_order():
    cm = _cm("A1affine")
    nus = [criterion.functional((x, -3.0)) for x in (-4.0, -3.5, -3.0)]
    nu_primes = [criterion.functional((y, -3.0)) for y in (-4.0, -3.0)]
    report = ms.region_scan(cm, nus, nu_primes, (0.0, 0.0))
    assert report.n_points == 6
    assert report.n_poles == 0
    assert [p.nu[0] for p in report.points] == [-4.0, -4.0, -3.5, -3.5, -3.0, -3.0]
    assert [p.nu_prime[0] for p in report.points] == [-4.0, -3.0] * 3
    again = ms.region_scan(cm, nus, nu_primes, (0.0, 0.0))
    assert again == report


def test_region_scan_applies_the_shift():
    """Scan rows are the inner products of the shifted parameters."""
    cm = _cm("A1affine")
    nu = criterion.functional((-3.0, -2.0))
    nu_prime = criterion.functional((-2.5, -1.5))
    report = ms.region_scan(cm, [nu], [nu_prime], (0.2, 0.3), cusp_pairing=2.0)
    point = report.points[0]
    assert point.nu == (-3.0, -2.0)
    direct = ms.inner_product(
        ms.TruncatedPairing(
            ambient=cm,
            cusp_pairing=2.0,
            left=criterion.shift_by_weyl_vector(nu),
            right=criterion.shift_by_weyl_vector(nu_prime),
            truncation=(0.2, 0.3),
        )
    )
    assert point.value == direct.value
    assert point.denominator == direct.denominator


def test_region_scan_counts_poles():
    cm = _cm("A1affine")
    # shifted sum vanishes when nu + conj(nu') = -2 rho
    nus = [criterion.functional((-1.0, -1.0)), criterion.functional((-3.0, -3.0))]
    nu_primes = [criterion.functional((-1.0, -1.0))]
    report = ms.region_scan(cm, nus, nu_primes, (0.0, 0.0))
    assert report.n_points == 2
    assert report.n_poles == 1
    assert report.points[0].pole
    assert not report.points[1].pole


def _pointwise_scan(cm, nus, nu_primes, truncation, pairing=1.0, tolerance=ms.POLE_TOLERANCE):
    """Reference scan in two passes: one validated request per grid point,
    every request built in grid order before any is evaluated."""
    truncation = tuple(truncation)
    requests = [
        (nu, nu_prime, ms.TruncatedPairing(
            ambient=cm,
            cusp_pairing=pairing,
            left=criterion.shift_by_weyl_vector(nu),
            right=criterion.shift_by_weyl_vector(nu_prime),
            truncation=truncation,
        ))
        for nu in nus
        for nu_prime in nu_primes
    ]
    points = []
    for nu, nu_prime, request in requests:
        out = ms.inner_product(request, pole_tolerance=tolerance)
        points.append((nu.values, nu_prime.values, out.denominator, out.pole, out.value))
    return points


def _scan_points(report):
    return [(p.nu, p.nu_prime, p.denominator, p.pole, p.value) for p in report.points]


def _mixed_grid(label, seed):
    """Float, complex, int and Fraction parameters; the last two second
    parameters are pole partners -conj(nu) - 2 of two first ones."""
    rng = random.Random(seed)
    cm = _cm(label)

    def number():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.uniform(-4.0, 1.0)
        if kind == 1:
            return complex(rng.uniform(-4.0, 1.0), rng.uniform(-3.0, 3.0))
        if kind == 2:
            return rng.randint(-5, 3)
        return Fraction(rng.randint(-20, 8), rng.randint(1, 6))

    nus = [criterion.functional(number() for _ in range(cm.size)) for _ in range(6)]
    nu_primes = [criterion.functional(number() for _ in range(cm.size)) for _ in range(4)]
    nu_primes += [criterion.functional(-x.conjugate() - 2 for x in nus[k].values) for k in (1, 4)]
    truncation = tuple(
        (rng.uniform(-0.5, 0.5), rng.randint(-1, 1), Fraction(rng.randint(-4, 4), 8))[rng.randrange(3)]
        for _ in range(cm.size)
    )
    pairing = (1.0, 2, Fraction(3, 2), 1 - 2j)[seed % 4]
    return cm, nus, nu_primes, truncation, pairing


def _float_grid(label, seed):
    """Exactly float and complex parameters, with signed zeros, real floats
    and complexes with a zero imaginary part among them, and a truncation
    point of every number kind.  The first parameter on each side is real
    and below -1; the last two second parameters are pole partners of two
    first ones.  Seed 3 truncates at a point with no positive coordinate
    under a pairing with a real part of -0.0: the real point's exponent is
    a sum of zeros of one sign there, which ``sum`` starts from 0.0.
    Seed 4 has poles alone, exactly, under a cusp pairing too large for a
    float: every first parameter has the central value of the first, so
    each pole partner pairs to zero with every row."""
    rng = random.Random(seed)
    cm = _cm(label)

    def number():
        kind = rng.randrange(5)
        if kind == 0:
            return rng.uniform(-4.0, 1.0)
        if kind == 1:
            return complex(rng.uniform(-4.0, 1.0), rng.uniform(-3.0, 3.0))
        if kind == 2:
            return complex(rng.uniform(-4.0, 1.0), rng.choice((0.0, -0.0)))
        if kind == 3:
            return rng.choice((0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)))
        return rng.randint(-32, 8) / 8 + rng.randint(-24, 24) / 8 * 1j

    def real():
        return tuple(rng.choice((x, complex(x, -0.0))) for x in (rng.uniform(-4.0, -1.0) for _ in range(cm.size)))

    if seed < 4:
        nus = [real()] + [tuple(number() for _ in range(cm.size)) for _ in range(5)]
        nu_primes = [real()] + [tuple(number() for _ in range(cm.size)) for _ in range(3)]
        partners = (1, 4)
    else:  # dyadic values, so every sum below is exact
        weights = roots._central_coroot(cm)
        nus = [tuple(rng.randint(-32, 8) / 8 for _ in range(cm.size - 1)) for _ in range(4)]
        central = sum(w * x for w, x in zip(weights, nus[0])) - 1.5j
        nus = [(*nu, central - sum(w * x for w, x in zip(weights, nu))) for nu in nus]
        nu_primes, partners = [], range(4)
    nu_primes += [tuple(-x.conjugate() - 2 for x in nus[k]) for k in partners]
    if seed == 3:
        kinds = lambda: (rng.uniform(-0.5, 0.0), -0.0, rng.randint(-1, 0), Fraction(rng.randint(-4, 0), 8))
    else:
        kinds = lambda: (rng.uniform(-0.5, 0.5), -0.0, rng.randint(-1, 1), Fraction(rng.randint(-4, 4), 8))
    truncation = tuple(rng.choice(kinds()) for _ in range(cm.size))
    pairing = (1.0, 2, Fraction(3, 2), complex(-0.0, 2.0), 10**400)[seed]
    return cm, list(map(criterion.functional, nus)), list(map(criterion.functional, nu_primes)), truncation, pairing


@pytest.mark.parametrize("label", ["A1affine", "G2affine", "E8affine"])
@pytest.mark.parametrize(
    "grid, seed",
    [pytest.param(_mixed_grid, seed, id=str(seed)) for seed in range(4)]
    + [pytest.param(_float_grid, seed, id=f"float{seed}") for seed in range(5)],
)
def test_region_scan_matches_pointwise_inner_product(label, grid, seed, body_calls):
    """Each grid is one block, so one ``_points`` call; a float grid's
    sums come from ``_float_sums``, so its numpy path is what equals the
    reference here, and a mixed grid never enters it."""
    cm, nus, nu_primes, truncation, pairing = grid(label, seed)
    assert all(type(x) in (float, complex) for f in nus + nu_primes for x in f.values) == (grid is _float_grid)
    report = ms.region_scan(cm, nus, nu_primes, truncation, pairing)
    expected = _pointwise_scan(cm, nus, nu_primes, truncation, pairing)
    assert repr(_scan_points(report)) == repr(expected)  # signed zeros included
    assert report.n_poles == sum(point[3] for point in expected) >= 2
    if seed == 4:
        assert report.n_poles == report.n_points == 16
    scan = lambda: ms.region_scan(cm, nus, nu_primes, truncation, pairing)
    assert body_calls(ms._points, scan) == 1
    assert body_calls(ms._float_sums, scan) == (grid is _float_grid)


def test_a_float_scan_works_a_block_of_rows_at_a_time():
    """tracemalloc sees numpy's arrays too: the peak during a 300 x 300
    float scan stays within 1.25 times the report it returns, where arrays
    over the whole grid would take the peak past 1.6 times."""
    cm = _cm("A1affine")
    rng = random.Random(38)
    side = [
        criterion.functional((rng.uniform(-4.0, 0.0), complex(rng.uniform(-4.0, 0.0), rng.uniform(-3.0, 3.0))))
        for _ in range(300)
    ]
    ms.region_scan(cm, side[:2], side[:2], (0.25, 0.5))  # numpy's import and first calls, before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = ms.region_scan(cm, side, side, (0.25, 0.5))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_points == 90_000
    assert peak - before <= 1.25 * (held - before)


def _three_block_grid(case):
    """A1affine at 130 x 70, 9,100 points: a float scan takes it as two
    blocks of 58 rows and one of 14.  Row 65 sits in the second block; row
    3 in the first.  ``pole`` puts there (1e308, -1e308), whose central
    value with every second parameter, all of them real, is exactly 0 and
    whose exponent at (10, -10) is infinite: poles, no error.  ``infinite``
    pairs it with a second parameter whose summed parameter is infinite in
    its imaginary part, ``exp`` gives it an exponential that overflows
    where every sum is finite, and ``first`` adds a row-3 overflow ahead of
    the second block's infinite sum."""
    cm = _cm("A1affine")
    rng = random.Random(40)
    nus = [
        (rng.uniform(-4.0, 0.0), complex(rng.uniform(-4.0, 0.0), rng.uniform(-3.0, 3.0))) for _ in range(130)
    ]
    nu_primes, truncation = nus[:70], (1.0, 1.0)
    if case == "pole":
        nus[65], truncation = (1e308, -1e308), (10.0, -10.0)
        nu_primes = [(a, b.real) for a, b in nu_primes]
    if case in ("infinite", "first"):
        nus[65], nu_primes[7] = (-1.0 + 1e308j, -1.0), (-1.0 - 1e308j, -1.0)
    if case == "exp":
        nus[65] = (400.0, 400.0)
    if case == "first":
        nus[3] = (400.0, 400.0)
    return cm, list(map(criterion.functional, nus)), list(map(criterion.functional, nu_primes)), truncation


@pytest.mark.parametrize("case", ["pole", "infinite", "exp", "first"])
def test_a_float_block_that_is_not_finite_falls_back_alone(case, body_calls):
    """A block whose float sums are not all finite takes ``_sums`` by
    itself, between blocks that take numpy's: the scan equals the
    pointwise reference point for point or error for error, and no numpy
    warning escapes."""
    cm, nus, nu_primes, truncation = _three_block_grid(case)
    assert ms._BLOCK_POINTS // len(nu_primes) == 58 and 2 * 58 < len(nus) <= 3 * 58
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(lambda: _pointwise_scan(cm, nus, nu_primes, truncation))
        scan = lambda: _outcome(lambda: _scan_points(ms.region_scan(cm, nus, nu_primes, truncation)))
        assert repr(scan()) == repr(expected)  # signed zeros included
        blocks = {"pole": 3, "first": 1}.get(case, 2)
        assert body_calls(ms._points, scan) == blocks
        assert body_calls(ms._float_sums, scan) == blocks
    if case == "pole":
        assert sum(point[3] for point in expected) == len(nu_primes)
    else:
        error, message = expected
        assert error is RegionError
        assert ("functional value infj is not finite" if case == "infinite" else "overflows a float") in message


MIXED_SCANS_SHA256 = "0701b1e16b37ab6bfb13978f91a4b799429c255ecb4b241b77f51a188595e975"


def test_mixed_scans_are_pinned():
    """sha256 of the point reprs of all twelve mixed-type grids, as the
    per-point scan computed them; the equality test above shares the
    kernel formula with its reference, so only this catches a change to
    the formula itself."""
    digest = hashlib.sha256()
    for label in ["A1affine", "G2affine", "E8affine"]:
        for seed in range(4):
            digest.update(repr(_scan_points(ms.region_scan(*_mixed_grid(label, seed)))).encode())
    assert digest.hexdigest() == MIXED_SCANS_SHA256


def _compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 adds: ints exactly until the first other
    term; then, while the total is a float, each float term with
    Neumaier's compensation and each int term plainly, the compensation
    added back where that run ends; every other addition is plain."""
    items, total = iter(iterable), start
    if type(total) is int:
        for x in items:
            total = total + x
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for x in items:
            if type(x) is float:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif type(x) is int:
                total += float(x)
            else:
                total = (total + c if c and math.isfinite(c) else total) + x
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for x in items:
        total = total + x
    return total


def test_float_outputs_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    """Every float sum of the library is a left fold from 0, so a
    compensated ``sum`` in ``builtins``, as Python 3.12 and later have,
    moves no output: the scan pins, the numpy and per-point paths of a
    float scan against each other, and a float central value whose plain
    sum and compensated sum fall in different regions."""
    terms = (1e16, -3.0, -1e16)
    assert _compensated_sum(terms) == -3.0 != terms[0] + terms[1] + terms[2] == -4.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    test_mixed_scans_are_pinned()
    test_scan_json_is_pinned()
    for label in ["A1affine", "G2affine", "E8affine"]:
        cm, nus, nu_primes, truncation, pairing = _float_grid(label, 1)
        expected = _pointwise_scan(cm, nus, nu_primes, truncation, pairing)
        assert repr(_scan_points(ms.region_scan(cm, nus, nu_primes, truncation, pairing))) == repr(expected)
    report = criterion.godement_cuspidal(_cm("A2affine"), criterion.functional(terms))  # g = 3
    assert (report.central, report.region) == (-4.0, criterion.REGION_CONTINUED)


def test_scan_point_keeps_the_frozen_dataclass_contract():
    """The repr format, the hash (a frozen dataclass hashes the tuple of
    its fields), attribute access and immutability are those of the frozen
    dataclass a point used to be; the reprs were printed by it."""
    cm = _cm("A1affine")
    nus = [criterion.functional((-3.0, -2)), criterion.functional((-1, -1))]
    nu_primes = [criterion.functional((-2.5, 1 - 1.5j)), criterion.functional((-1, -1))]
    points = ms.region_scan(cm, nus, nu_primes, (0.25, 0.5)).points
    assert [repr(p) for p in points[::3]] == [
        "ScanPoint(nu=(-3.0, -2), nu_prime=(-2.5, (1-1.5j)), denominator=(-2.5+1.5j), pole=False, "
        "value=(0.06523297291888962+0.22653298846029774j))",
        "ScanPoint(nu=(-1, -1), nu_prime=(-1, -1), denominator=0j, pole=True, value=None)",
    ]
    for p in points:
        fields = (p.nu, p.nu_prime, p.denominator, p.pole, p.value)
        assert hash(p) == hash(fields)
        assert p == fields  # unlike the dataclass, a point equals the plain tuple
        for name in ms.ScanPoint._fields:
            with pytest.raises(AttributeError):
                setattr(p, name, None)
    assert ms.ScanPoint._fields == ("nu", "nu_prime", "denominator", "pole", "value")


@pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (5, 1), (4, 7)])
def test_region_scan_calls_the_kernel_once_per_row(n, m, body_calls, monkeypatch):
    """Call counts, not timings: every row, the first included, starts one
    ``_sums`` generator, and the grid is one block, so one ``_points`` call
    takes them all.  ``_sums`` is counted by a wrapper: a profiler sees
    each resume of a generator as a call."""
    cm, nus, nu_primes, truncation, pairing = _mixed_grid("G2affine", 1)
    nus, nu_primes = (nus * 2)[:n], (nu_primes * 2)[:m]
    report = ms.region_scan(cm, nus, nu_primes, truncation, pairing)
    assert report.n_points == n * m
    scan = lambda: ms.region_scan(cm, nus, nu_primes, truncation, pairing)
    assert body_calls(ms._points, scan) == 1
    rows = []
    sums = ms._sums
    monkeypatch.setattr(ms, "_sums", lambda *args: rows.append(args) or sums(*args))
    assert scan() == report
    assert len(rows) == n


# --- validation -------------------------------------------------------------


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the error class and message are the outcome
        return type(exc), str(exc)


def test_region_scan_raises_what_the_pointwise_scan_raises():
    """A grid fails as the two-pass reference does: every input is checked
    before any point is evaluated, so a malformed input is reported even
    when a valid point before it overflows.  Float grids take the numpy
    path and hand every failure back to the kernel, so warnings are
    errors here: a numpy RuntimeWarning must not escape either."""
    cm = _cm("A1affine")
    good = [criterion.functional((-1.5 + 0.5j * k, -2.0 - k)) for k in range(3)]
    # exp overflows at the truncation point (1, 1), exact and as floats
    overflows = [criterion.functional((400, 400)), criterion.functional((400.0, 400.0))]
    malformed = [criterion.functional((math.nan, -1.0)), criterion.functional((-1.0,)), (-1.0, -1.0)]
    cases = []
    for first in (good[0], *overflows):
        for bad in malformed:
            for side in (0, 1):
                for pos in range(3):
                    grid = [[first, *good[1:]], list(good)]
                    grid[side][pos] = bad
                    cases.append((grid, (1.0, 1.0), 1.0, ms.POLE_TOLERANCE))
        grid = [[first, *good[1:]], list(good)]
        for truncation in [(1.0,), (math.nan, 1.0), (1.0, 10**400)]:
            cases.append((grid, truncation, 1.0, ms.POLE_TOLERANCE))
        cases.append((grid, (1.0, 1.0), math.inf, ms.POLE_TOLERANCE))
        cases.append((grid, (1.0, 1.0), 1.0, 0.0))
    # well-formed grids that fail only when evaluated: a valid point that
    # overflows, exact and float; finite parameters whose summed parameter
    # is infinite, in the real and in the imaginary part; a finite summed
    # parameter whose exponential overflows, or whose central value does
    # under a finite exponent; a finite exponential over a finite central
    # value whose quotient overflows; and a pole whose exponent is
    # infinite, which is no error, before a point whose exponent is
    # infinite too
    huge = criterion.functional((1e308, -1.0))
    pole_row = [criterion.functional((1e308, -1e308))]
    pole_partner = criterion.functional((-1.0, -1.0))
    evaluated = [  # (a part of the message, first parameters, second parameters, truncation point)
        *(("overflows a float", [first, *good[1:]], good, (1.0, 1.0)) for first in overflows),
        ("functional value inf is not finite", [huge], [huge], (1.0, 1.0)),
        (
            "functional value infj is not finite",
            [criterion.functional((-1.0 + 1e308j, -1.0))],
            [criterion.functional((-1.0 - 1e308j, -1.0))],
            (1.0, 1.0),
        ),
        ("overflows a float", [huge], [criterion.functional((1e308j, -1.0))], (1.0, 1.0)),
        ("overflows a float", [criterion.functional((1e308, 1e308))], [pole_partner], (-0.25, 0.25)),
        # shifted (1417.99, -1417.98): exp(709.0) is finite, and so is 0.01
        ("overflows a float", [criterion.functional((1416.99, -1418.98))], [pole_partner], (1.0, 0.5)),
        ("overflows a float", pole_row, [pole_partner, criterion.functional((-1e307, -1.0))], (10.0, -10.0)),
    ]
    for _, nus, nu_primes, truncation in evaluated:
        cases.append(((nus, nu_primes), truncation, 1.0, ms.POLE_TOLERANCE))
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (nus, nu_primes), truncation, pairing, tolerance in cases:
            expected = _outcome(lambda: _pointwise_scan(cm, nus, nu_primes, truncation, pairing, tolerance))
            assert isinstance(expected[0], type)
            got = _outcome(
                lambda: _scan_points(
                    ms.region_scan(cm, nus, nu_primes, truncation, pairing, pole_tolerance=tolerance)
                )
            )
            assert got == expected
            outcomes.append(got)
        (pole,) = ms.region_scan(cm, pole_row, [pole_partner], (10.0, -10.0)).points
    assert pole.pole and pole.denominator == 0
    for (error, message), (want, *_) in zip(outcomes[-len(evaluated):], evaluated):
        assert error is RegionError and want in message


@pytest.mark.parametrize("side", [0, 1])
def test_region_scan_with_an_empty_side_checks_nothing(side):
    cm = _cm("A1affine")
    grid = [[criterion.functional((math.nan, 0.0)), None], [None]]
    grid[side] = []
    report = ms.region_scan(cm, *grid, None, cusp_pairing=math.nan, pole_tolerance=-1.0)
    assert report == ms.ScanReport(points=(), n_points=0, n_poles=0)


def test_region_scan_accepts_a_generator_truncation_point():
    # the per-point loop exhausted it at the first point
    cm = _cm("A1affine")
    nus = [criterion.functional((-3.0, -2.0)), criterion.functional((-2.0, -2.5))]
    report = ms.region_scan(cm, nus, nus, (0.25 for _ in range(2)))
    assert report == ms.region_scan(cm, nus, nus, (0.25, 0.25))


def test_truncated_pairing_keeps_a_generator_truncation_point():
    # the check used to exhaust it, so inner_product read an empty point
    cm = _cm("A1affine")
    f = criterion.functional((-0.5, -0.5))
    request = ms.TruncatedPairing(cm, 1.0, f, f, (0.25 for _ in range(2)))
    assert request == ms.TruncatedPairing(cm, 1.0, f, f, (0.25, 0.25))
    assert ms.inner_product(request) == ms.inner_product(ms.TruncatedPairing(cm, 1.0, f, f, [0.25, 0.25]))


def test_scalar_lists_and_points_are_rejected():
    # these used to raise a raw TypeError
    cm = _cm("A1affine")
    f = criterion.functional((-1, -1))
    calls = [
        ("first parameter list", lambda: ms.region_scan(cm, 5, [f], (0, 0))),
        ("second parameter list", lambda: ms.region_scan(cm, [f], 5, (0, 0))),
        ("truncation point", lambda: ms.region_scan(cm, [f], [f], 0.5)),
        ("truncation point", lambda: ms.pairing_kernel(cm, 1.0, f, f, 0.5)),
        ("truncation point", lambda: ms.TruncatedPairing(cm, 1.0, f, f, 0.5)),
    ]
    for what, call in calls:
        with pytest.raises(InvalidSubsetError, match=f"{what} .* is not a sequence"):
            call()


@pytest.mark.parametrize("request_", [None, (1, 2), "x"])
def test_inner_product_takes_a_truncated_pairing(request_):
    # None used to raise a raw AttributeError
    with pytest.raises(NumberTypeError, match="is not a TruncatedPairing"):
        ms.inner_product(request_)


def test_parameters_must_be_linear_functionals():
    # plain value lists used to raise a raw AttributeError
    cm = _cm("A2affine")
    good = criterion.functional((-1, -1, -1))
    calls = [
        lambda: ms.region_scan(cm, [[1, 2, 3]], [[1, 2, 3]], (0, 0, 0)),
        lambda: ms.region_scan(cm, [good], [(1, 2, 3)], (0, 0, 0)),
        lambda: ms.pairing_kernel(cm, 1.0, [1, 2, 3], good, (0, 0, 0)),
        lambda: ms.TruncatedPairing(cm, 1.0, good, None, (0, 0, 0)),
    ]
    for call in calls:
        with pytest.raises(NumberTypeError, match="is not a LinearFunctional"):
            call()


def test_request_validation():
    cm = _cm("A1affine")
    good = criterion.functional((-1, -1))
    with pytest.raises(InvalidSubsetError):
        ms.TruncatedPairing(
            ambient=cm, cusp_pairing=1.0, left=good, right=good, truncation=(0.0,)
        )
    with pytest.raises(InvalidSubsetError):
        ms.TruncatedPairing(
            ambient=cm,
            cusp_pairing=1.0,
            left=criterion.functional((-1,)),
            right=good,
            truncation=(0.0, 0.0),
        )
    with pytest.raises(InvalidCartanMatrixError):
        ms.TruncatedPairing(
            ambient=_cm("A2"),
            cusp_pairing=1.0,
            left=good,
            right=good,
            truncation=(0.0, 0.0),
        )


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(math.inf, 1)])
def test_non_finite_parameters_are_rejected(bad):
    cm = _cm("A1affine")
    good = criterion.functional((-1, -1))
    with pytest.raises(RegionError):
        ms.TruncatedPairing(
            ambient=cm,
            cusp_pairing=1.0,
            left=criterion.functional((-1, bad)),
            right=good,
            truncation=(0.0, 0.0),
        )
    with pytest.raises(RegionError):
        ms.pairing_kernel(cm, 1.0, good, criterion.functional((bad, -1)), (0.0, 0.0))
    with pytest.raises(RegionError):
        ms.region_scan(cm, [criterion.functional((bad, bad))], [good], (0.0, 0.0))


@pytest.mark.parametrize("truncation", [(0.5,), (0.1, 0.2, 0.3)])
def test_kernel_checks_the_truncation_length(truncation):
    # a short point used to be zipped silently, a long one accepted
    cm = _cm("A1affine")
    f = criterion.functional((0.5, 0.5))
    with pytest.raises(InvalidSubsetError, match="truncation point"):
        ms.pairing_kernel(cm, 1.0, f, f, truncation)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_truncation_and_pairing_are_rejected(bad):
    # these used to return nan or -0 with pole=False
    cm = _cm("A1affine")
    f = criterion.functional((0.5, 0.5))
    with pytest.raises(RegionError, match="truncation coordinate"):
        ms.pairing_kernel(cm, 1.0, f, f, (bad, 0.0))
    with pytest.raises(RegionError, match="truncation coordinate"):
        ms.TruncatedPairing(ambient=cm, cusp_pairing=1.0, left=f, right=f, truncation=(0.0, bad))
    with pytest.raises(RegionError, match="cusp pairing"):
        ms.pairing_kernel(cm, complex(1.0, bad), f, f, (0.0, 0.0))
    with pytest.raises(RegionError, match="cusp pairing"):
        ms.region_scan(cm, [f], [f], (0.0, 0.0), cusp_pairing=bad)


def test_exp_overflow_is_a_region_error():
    # cmath.exp used to escape with a raw OverflowError
    cm = _cm("A1affine")
    f = criterion.functional((401, 401))
    request = ms.TruncatedPairing(ambient=cm, cusp_pairing=1.0, left=f, right=f, truncation=(1.0, 1.0))
    with pytest.raises(RegionError, match="overflows"):
        ms.inner_product(request)
    with pytest.raises(RegionError, match="overflows"):
        ms.pairing_kernel(cm, 1.0, f, f, (1.0, 1.0), denominator=ms.DENOMINATOR_TRUNCATION)


def test_huge_integer_parameter_is_a_region_error():
    # the summed parameter used to be formed outside the overflow handler,
    # so int + float escaped as a raw OverflowError
    cm = _cm("A2affine")
    huge = criterion.functional((10**400, -1, -1))
    small = criterion.functional((0.5, -1, -1))
    with pytest.raises(RegionError, match="overflows"):
        ms.region_scan(cm, [huge], [small], (0.1, 0.2, 0.3))
    with pytest.raises(RegionError, match="overflows"):
        ms.pairing_kernel(cm, 1.0, huge, small, (0.1, 0.2, 0.3))


@pytest.mark.parametrize(
    "bad", ["1", "x", None, True, [1.0], Decimal("1"), numpy.float32(1), numpy.int64(1)]
)
def test_non_numeric_truncation_and_pairing_are_rejected(bad):
    # One number rule for every number input: int, float, complex or Fraction.
    # "1" used to be read through complex(), and the other non-numbers raised raw
    # errors.  Truncation coordinates and cusp pairings raised RegionError and
    # took any numbers.Number, so Decimal and numpy.float32 were evaluated.
    cm = _cm("A2affine")
    f = criterion.functional((0.5, -1, -1))
    calls = {
        "functional value": [lambda: criterion.functional((0.5, bad, -1))],
        "central target": [lambda: criterion.extend_from_central(cm, bad)],
        "truncation coordinate": [
            lambda: ms.region_scan(cm, [f], [f], (bad, 0, 0)),
            lambda: ms.pairing_kernel(cm, 1.0, f, f, (0, bad, 0)),
            lambda: ms.TruncatedPairing(ambient=cm, cusp_pairing=1.0, left=f, right=f, truncation=(0, 0, bad)),
        ],
        "cusp pairing": [
            lambda: ms.region_scan(cm, [f], [f], (0, 0, 0), cusp_pairing=bad),
            lambda: ms.pairing_kernel(cm, bad, f, f, (0, 0, 0)),
            lambda: ms.TruncatedPairing(ambient=cm, cusp_pairing=bad, left=f, right=f, truncation=(0, 0, 0)),
        ],
    }
    if bad is not None:  # a d value of None means there is none
        calls["d value"] = [lambda: criterion.functional((0.5, -1, -1), d_value=bad)]
    for what, runs in calls.items():
        for run in runs:
            with pytest.raises(NumberTypeError, match=f"{what} .* is not a number"):
                run()


@pytest.mark.parametrize("tolerance", ["x", None, True, 1e-9j, numpy.float32(1e-9), numpy.int64(1)])
def test_non_real_pole_tolerance_is_rejected(tolerance):
    cm = _cm("A2affine")
    f = criterion.functional((0.5, -1, -1))
    request = ms.TruncatedPairing(ambient=cm, cusp_pairing=1.0, left=f, right=f, truncation=(0, 0, 0))
    for run in (
        lambda: ms.inner_product(request, pole_tolerance=tolerance),
        lambda: ms.pairing_kernel(cm, 1.0, f, f, (0, 0, 0), pole_tolerance=tolerance),
        lambda: ms.region_scan(cm, [f], [f], (0, 0, 0), pole_tolerance=tolerance),
    ):
        with pytest.raises(RegionError, match="pole tolerance .* is not a real number"):
            run()


def test_numeric_truncation_kinds_are_accepted():
    cm = _cm("A2affine")
    f = criterion.functional((0.5, -1, -1))
    want = ms.pairing_kernel(cm, 1.0, f, f, (0.5, 0.0, 1.0))
    assert ms.pairing_kernel(cm, 1, f, f, (Fraction(1, 2), 0, 1 + 0j)) == want
    assert ms.pairing_kernel(cm, 1.0, f, f, (0.5, 0, 1), pole_tolerance=Fraction(1, 10**12)) == want


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_pole_tolerance_must_be_positive_and_finite(tolerance):
    # a zero, negative or NaN tolerance let an exact pole divide by zero
    f = criterion.functional((-1, -1))
    request = _request("A1affine", (0, 0), (0, 0), (0.0, 0.0))
    with pytest.raises(ValueError, match="pole tolerance"):
        ms.inner_product(request, pole_tolerance=tolerance)
    with pytest.raises(ValueError, match="pole tolerance"):
        ms.pairing_kernel(_cm("A1affine"), 1.0, f, f, (0.0, 0.0), pole_tolerance=tolerance)
    with pytest.raises(RegionError, match="pole tolerance"):
        ms.inner_product(request, pole_tolerance=tolerance)
    with pytest.raises(RegionError, match="pole tolerance"):
        ms.pairing_kernel(_cm("A1affine"), 1.0, f, f, (0.0, 0.0), pole_tolerance=tolerance)


def test_kernel_accepts_a_generator_truncation_point():
    cm = _cm("A1affine")
    f = criterion.functional((-0.5, -0.5))
    value = ms.pairing_kernel(cm, 1.0, f, f, (0.0 for _ in range(2)))
    assert value == ms.pairing_kernel(cm, 1.0, f, f, (0.0, 0.0))


# --- serialization ----------------------------------------------------------


def test_value_json():
    req = _request("A1affine", (-0.5, -0.5), (-0.5, -0.5), (0.0, 0.0))
    obj = ms.value_to_json(ms.inner_product(req))
    assert obj == {"value": [0.5, 0.0], "pole": False, "denominator": -2}

    pole = ms.inner_product(_request("A1affine", (-1, -1), (1, 1), (0.0, 0.0)))
    assert ms.value_to_json(pole) == {"value": None, "pole": True, "denominator": 0}


def test_scan_json():
    cm = _cm("A1affine")
    report = ms.region_scan(
        cm,
        [criterion.functional((-3.0, -3.0))],
        [criterion.functional((-3.0, -3.0))],
        (0.0, 0.0),
    )
    obj = ms.scan_to_json(report)
    assert obj["n_points"] == 1
    assert obj["n_poles"] == 0
    point = obj["points"][0]
    assert point["nu"] == [-3, -3]
    assert point["pole"] is False
    assert point["denominator"] == -8
    assert point["value"] == [0.125, 0.0]


@pytest.mark.parametrize("label", ["A1affine", "E8affine"])
def test_scan_json_matches_pointwise_encoding(label):
    report = ms.region_scan(*_mixed_grid(label, 5))
    expected = {
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
    obj = ms.scan_to_json(report)
    assert json.dumps(obj) == json.dumps(expected)
    # a row shares its encoded first parameter, a column its second
    points = obj["points"]
    assert points[0]["nu"] is points[1]["nu"]
    assert points[0]["nu_prime"] is points[6]["nu_prime"]


SCAN_SHA256 = "2315a25425ba0c14f800061151e07c28ea47b6ef6e4a7594e7fe74532184597b"


def test_scan_json_is_pinned():
    """sha256 of the JSON text of a 30 x 30 E8affine scan with a pole
    partner in every fifth column, as computed by the per-point scan that
    built a request for every grid point."""
    rng = random.Random(20100)
    cm = _cm("E8affine")

    def parameter():
        return criterion.functional(
            complex(rng.uniform(-4.0, 0.0), rng.uniform(-3.0, 3.0)) for _ in range(cm.size)
        )

    nus = [parameter() for _ in range(30)]
    nu_primes = [
        criterion.functional(-x.conjugate() - 2 for x in nus[k].values) if k % 5 == 0 else parameter()
        for k in range(30)
    ]
    truncation = tuple(rng.uniform(-0.5, 0.5) for _ in range(cm.size))
    report = ms.region_scan(cm, nus, nu_primes, truncation)
    assert report.n_poles == 6
    text = json.dumps(ms.scan_to_json(report))
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_SHA256

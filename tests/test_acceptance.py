"""Release gate.

Ten end-to-end checks over the public API, each printing one
"ACCEPTANCE n: PASS" (or FAIL) line on the real stdout.  Tolerances are
pinned in the assertions; everything not explicitly floating is exact
integer or rational arithmetic.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import ambient
import series_counts
from loopatlas import cartan, criterion, maass_selberg as ms, parabolic, roots, weyl

ALL_AFFINE = cartan.all_types(max_rank=8, affine=True)
CORE_TYPES = ("A1affine", "A2affine", "C2affine", "G2affine")
BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@pytest.fixture
def gate(request):
    """Context manager printing one uncaptured pass/fail line per check."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def _gate(n):
        try:
            yield
        except BaseException:
            emit(f"ACCEPTANCE {n}: FAIL")
            raise
        emit(f"ACCEPTANCE {n}: PASS")

    return _gate


def test_criterion_01_no_self_associate_maximal_subset(gate):
    """Every maximal subset of every affine type has a negative verdict,
    and every certificate verifies, its ball of radius 16 included."""
    with gate(1):
        started = time.monotonic()
        assert len(ALL_AFFINE) == 31
        for cm in ALL_AFFINE:
            certs = parabolic.maximal_certificates(cm, search_bound=16)
            assert len(certs) == cm.size
            series, rank = cm.label[0], cm.finite_rank
            expected_searched = sum(series_counts.affine_counts(series, rank, 16))
            delta = roots.delta(cm)
            for cert in certs:
                assert not cert.self_associate
                assert cert.witness is None
                assert cert.search_bound == 16
                assert cert.searched == expected_searched
                assert cert.removed_image[cert.removed_node - 1] == 1
                assert roots.is_positive(cert.removed_image)
                assert cert.null_root == delta
            for i in cm.nodes:
                assert roots.reflect(cm, delta, i) == delta
        # direct fixed-vector corroboration on a sample of whole elements
        for label in CORE_TYPES:
            cm = cartan.parse_type(label)
            for w in weyl.enumerate_elements(cm, 4):
                assert weyl.act(w, roots.delta(cm)) == roots.delta(cm)
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"witness sweep took {elapsed:.1f}s"


def test_criterion_02_e6_branch_levi_and_trivial_constant_term(gate):
    with gate(2):
        cm = cartan.parse_type("E6affine")
        p = parabolic.parabolic_subset(cm, tuple(i for i in cm.nodes if i != 4))
        lt = parabolic.levi_type(p)
        assert lt.components == (("A", 2), ("A", 2), ("A", 2))
        report = parabolic.constant_term_is_trivial(p)
        assert report.trivial is True


def test_criterion_03_e8_affine_node_levi(gate):
    with gate(3):
        cm = cartan.parse_type("E8affine")
        p = parabolic.parabolic_subset(cm, tuple(i for i in cm.nodes if i != 9))
        assert parabolic.levi_type(p).components == (("E", 8),)


def test_criterion_04_e7_node_four_is_unmatched(gate):
    with gate(4):
        cm = cartan.parse_type("E7affine")
        p4 = parabolic.parabolic_subset(cm, tuple(i for i in cm.nodes if i != 4))
        for other in parabolic.maximal_parabolics(cm):
            if other.nodes == p4.nodes:
                continue
            assert parabolic.associate_necessary(p4, other) is False


def test_criterion_05_unit_functional_pairs_to_dual_coxeter(gate):
    """central_value of the all-ones functional is g, matching both the
    series formula for A and the highest-coroot expansion oracle."""
    with gate(5):
        for cm in ALL_AFFINE:
            g = roots.dual_coxeter(cm)
            assert criterion.central_value(cm, criterion.weyl_vector(cm)) == g
            series, rank = cm.label[0], cm.finite_rank
            oracle = 1 + sum(ambient.comark_coords(series, rank))
            assert g == oracle
        for l in range(1, 9):
            cm = cartan.affinize(cartan.finite_cartan("A", l))
            assert roots.dual_coxeter(cm) == l + 1


def test_criterion_06_minimal_parameters_land_below_minus_two_g(gate):
    with gate(6):
        rng = random.Random(600)
        violations = 0
        for k in range(10_000):
            cm = ALL_AFFINE[k % len(ALL_AFFINE)]
            values = [-2 - 1e-9 - rng.uniform(0, 8) for _ in range(cm.size)]
            f = criterion.functional(values)
            assert criterion.godement_minimal(f)
            g = roots.dual_coxeter(cm)
            if not criterion.central_value(cm, f) < -2 * g:
                violations += 1
        assert violations == 0


def test_criterion_07_extension_round_trip(gate):
    with gate(7):
        rng = random.Random(700)
        for k in range(1_000):
            cm = ALL_AFFINE[k % len(ALL_AFFINE)]
            g = roots.dual_coxeter(cm)
            if k % 2 == 0:
                target = -2 * g - Fraction(rng.randint(1, 400), rng.randint(1, 50))
                f = criterion.extend_from_central(cm, target)
                assert criterion.central_value(cm, f) == target
            else:
                target = -2 * g - rng.uniform(1e-6, 50.0)
                f = criterion.extend_from_central(cm, target)
                got = criterion.central_value(cm, f)
                assert abs(got - target) <= 1e-12 * abs(target)
            assert criterion.godement_minimal(f)
            assert criterion.godement_cuspidal(cm, f).region == criterion.REGION_CONVERGENT


def test_criterion_08_reflection_group_core(gate):
    with gate(8):
        for label in CORE_TYPES:
            cm = cartan.parse_type(label)
            ident = weyl.identity(cm).matrix
            for i in cm.nodes:
                s = weyl.simple(cm, i)
                assert weyl.compose(s, s).matrix == ident
            for i in cm.nodes:
                for j in cm.nodes:
                    if i >= j:
                        continue
                    bond = cm.entry(i, j) * cm.entry(j, i)
                    if bond >= 4:
                        continue
                    order = BOND_ORDER[bond]
                    prod = weyl.compose(weyl.simple(cm, i), weyl.simple(cm, j))
                    power = weyl.identity(cm)
                    for _ in range(order):
                        power = weyl.compose(prod, power)
                    assert power.matrix == ident
                    assert order >= 2
            delta = roots.delta(cm)
            seen = 0
            for w in weyl.enumerate_elements(cm, 8):
                seen += 1
                assert weyl.act(w, delta) == delta
                assert len(weyl.inversions(w)) == w.length
            series, rank = label[0], cm.finite_rank
            assert seen == sum(series_counts.affine_counts(series, rank, 8))
        assert len(list(weyl.enumerate_elements(cartan.parse_type("A2"), 20))) == 6
        assert len(list(weyl.enumerate_elements(cartan.parse_type("B2"), 20))) == 8


def test_criterion_09_truncated_pairing_shape(gate):
    with gate(9):
        cm = cartan.parse_type("A1affine")

        # positivity on a 100-point grid of equal real parameters
        grid = [-5.0 + 0.45 * k for k in range(10)]  # all below -0.5
        for a in grid:
            for b in grid:
                sigma = criterion.functional((a, b))
                assert criterion.central_value(cm, sigma) < 0
                req = ms.TruncatedPairing(
                    ambient=cm,
                    cusp_pairing=2.0,
                    left=sigma,
                    right=sigma,
                    truncation=(0.3, -0.2),
                )
                out = ms.inner_product(req)
                assert not out.pole
                assert out.value.real > 0
                assert out.value.imag == 0

        # the pole is flagged exactly on the vanishing-central locus
        zero = criterion.functional((0.0, 0.0))
        for x in (-3.0, -1.0, 0.0, 0.25, 2.0):
            on = ms.TruncatedPairing(
                ambient=cm,
                cusp_pairing=1.0,
                left=criterion.functional((x, -x)),
                right=zero,
                truncation=(0.1, 0.9),
            )
            assert ms.inner_product(on).pole
            off = ms.TruncatedPairing(
                ambient=cm,
                cusp_pairing=1.0,
                left=criterion.functional((x + 1e-9, -x)),
                right=zero,
                truncation=(0.1, 0.9),
            )
            assert not ms.inner_product(off).pole

        # simple-pole boundedness: value * denominator pins the numerator
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            left = criterion.functional((-1 + eps, -1))
            right = criterion.functional((1, 1))
            req = ms.TruncatedPairing(
                ambient=cm, cusp_pairing=3.0, left=left, right=right, truncation=(0.9, 0.1)
            )
            out = ms.inner_product(req)
            assert not out.pole
            target = -3.0 * math.exp(eps * 0.9)
            assert abs(out.value * out.denominator - target) <= 1e-6 * abs(target)

        # the degenerate self-dual point gives exactly one half
        half = criterion.functional((-0.5, -0.5))
        req = ms.TruncatedPairing(
            ambient=cm, cusp_pairing=1.0, left=half, right=half, truncation=(0.0, 0.0)
        )
        assert abs(ms.inner_product(req).value - 0.5) <= 1e-15


def test_criterion_10_positive_count_equals_longest_length(gate):
    with gate(10):
        for cm in cartan.all_types(max_rank=6, affine=False):
            count = len(roots.positive_roots(cm))
            w0 = weyl.longest_element(cm, cm.nodes)
            assert count == w0.length
        e6 = cartan.finite_cartan("E", 6)
        assert len(roots.positive_roots(e6)) == 36
        assert weyl.longest_element(e6, e6.nodes).length == 36
        assert len(ambient.positive_root_coords("E", 6)) == 36

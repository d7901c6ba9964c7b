import dataclasses
import functools
import json
import math
import re
from fractions import Fraction

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DERANDOMIZED,
    cgf_numeric_cumulants,
    density_at,
    density_at_direct,
    random_block_diagonal_model,
    random_model,
    rel_close,
    scalar_pair_model,
    scalar_ring,
)

from infodensity import (
    CumulantOverflow,
    DimensionMismatch,
    HomogeneousModel,
    NonFiniteInput,
    OutOfDomain,
    cgf,
    cgf_domain,
    cumulants,
    homogeneous_covariance,
    homogeneous_cumulant,
    multiinformation,
    multiinformation_from_gamma,
    validate_model,
    variance,
)
from infodensity.cli import main
from infodensity.measures import MAX_CUMULANT_ORDER

EQUI3 = validate_model(None, np.full((3, 3), 0.5) + 0.5 * np.eye(3), [1, 1, 1])


def paired_power_sum(lam, l):
    """sum lambda^l as one fsum of |lambda|^l over the spectrum scaled by 2^e, lambda's sign at odd l."""
    e = math.frexp(float(np.max(np.abs(lam))))[1]
    size = np.abs(np.ldexp(lam, -e)) ** l
    return math.ldexp(math.fsum(np.sign(lam) * size if l % 2 else size), l * e)


class TestMultiinformation:
    def test_block_diagonal_is_zero(self):
        rng = np.random.default_rng(1)
        model = random_block_diagonal_model(rng, [2, 1, 3])
        assert abs(multiinformation(model)) < 1e-12

    def test_scalar_pair_closed_form(self):
        assert multiinformation(scalar_pair_model(0.5)) == pytest.approx(
            -0.5 * math.log1p(-0.25), abs=1e-12
        )

    def test_equicorrelation_closed_form(self):
        expected = -0.5 * (2 * math.log(0.5) + math.log(2.0))
        assert multiinformation(EQUI3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.346574, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_under_dependence(self, seed):
        model = random_model(np.random.default_rng(300 + seed))
        assert multiinformation(model) > 0.0
        assert variance(model) > 0.0


class TestMultiinformationFromGamma:
    def test_zero_coupling(self):
        model = validate_model(None, np.eye(3), [1, 2])
        assert multiinformation_from_gamma(model) == 0.0

    def test_scalar_pair(self):
        model = scalar_pair_model(0.5)
        expected = -0.5 * (math.log(0.5) + math.log(1.5))
        assert multiinformation_from_gamma(model) == pytest.approx(expected, abs=1e-12)

    def test_equicorrelation(self):
        assert multiinformation_from_gamma(EQUI3) == pytest.approx(0.346574, abs=1e-6)
        assert multiinformation_from_gamma(EQUI3) == pytest.approx(
            multiinformation(EQUI3), abs=1e-9
        )


class TestDensity:
    def test_at_mean_equals_multiinformation(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, d=5)
        assert density_at(model, model.mean) == pytest.approx(
            multiinformation(model), abs=1e-12
        )

    def test_block_diagonal_identically_zero(self):
        rng = np.random.default_rng(8)
        model = random_block_diagonal_model(rng, [2, 2])
        for _ in range(10):
            x = rng.standard_normal(4) * 3.0
            assert abs(density_at(model, x)) < 1e-10

    def test_scalar_pair_value(self):
        model = scalar_pair_model(0.5)
        expected = -0.5 * math.log1p(-0.25) + 1.0 / 3.0
        assert density_at(model, [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.477175, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_direct_log_ratio(self, seed):
        rng = np.random.default_rng(400 + seed)
        model = random_model(rng)
        for _ in range(5):
            x = model.mean + rng.standard_normal(model.dimension) * 2.0
            assert density_at(model, x) == pytest.approx(
                density_at_direct(model, x), abs=1e-9
            )

    @pytest.mark.parametrize("rho", [1e-10, 1e-5, 0.5, 0.99])
    def test_scalar_pair_quadratic_form_exact(self, rho):
        # The exact form (2 rho x y - rho^2 (x^2 + y^2)) / (2 (1 - rho^2)) in
        # rationals. The difference |L_B^{-1} r|^2 - |L^{-1} r|^2 of two
        # near-equal squares misses it by about 1e-4 of its value at rho = 1e-10.
        model = scalar_pair_model(rho)
        info = multiinformation(model)
        r = Fraction(rho)
        for x, y in np.random.default_rng(470).standard_normal((50, 2)):
            fx, fy = Fraction(x), Fraction(y)
            exact = (2 * r * fx * fy - r * r * (fx * fx + fy * fy)) / (2 * (1 - r * r))
            assert abs(Fraction(density_at(model, [x, y]) - info) - exact) <= Fraction(1e-13) * abs(exact)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            density_at(scalar_pair_model(0.2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("density", [density_at, density_at_direct])
    @pytest.mark.parametrize(
        "point, d, shape",
        [([[1.0, 2.0], [3.0, 4.0]], 4, "(2, 2)"), ([[1.0], [2.0]], 2, "(2, 1)"), (1.0, 2, "()")],
        ids=["2x2 on d=4", "2x1 on d=2", "scalar on d=2"],
    )
    def test_point_of_another_shape_rejected(self, density, point, d, shape):
        # Only shape (d,) is a point: the entries of a 2 x 2 or 2 x 1 array are not read as a flat one.
        model = validate_model(None, np.eye(d) + 0.25, [1] * d)
        with pytest.raises(DimensionMismatch, match=rf"^point has shape {re.escape(shape)}, model dimension is {d}$"):
            density(model, point)


class TestCgfDomain:
    def test_zero_coupling_unbounded(self):
        dom = cgf_domain(validate_model(None, np.eye(4), [2, 2]))
        assert dom.lower == -math.inf and dom.upper == math.inf

    def test_scalar_pair(self):
        dom = cgf_domain(scalar_pair_model(0.5))
        assert (dom.lower, dom.upper) == pytest.approx((-2.0, 2.0))

    def test_equicorrelation(self):
        dom = cgf_domain(EQUI3)
        assert (dom.lower, dom.upper) == pytest.approx((-2.0, 1.0))


class TestCgf:
    def test_zero_at_origin_exactly(self):
        rng = np.random.default_rng(9)
        assert cgf(random_model(rng), 0.0) == 0.0

    def test_scalar_pair_value(self):
        assert cgf(scalar_pair_model(0.5), 1.0) == pytest.approx(0.287682, abs=1e-6)

    def test_boundary_rejected(self):
        with pytest.raises(OutOfDomain) as exc:
            cgf(scalar_pair_model(0.5), 2.0)
        assert exc.value.domain.upper == pytest.approx(2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused_before_the_domain(self, t):
        with pytest.raises(NonFiniteInput, match=rf"^t={t} is not finite$"):
            cgf(scalar_pair_model(0.5), t)
        # On independent blocks the domain is the whole line, and inf is still no point of it.
        with pytest.raises(NonFiniteInput, match=rf"^t={t} is not finite$"):
            cgf(validate_model(None, np.eye(3), [1, 2]), t)

    @pytest.mark.parametrize(
        "t, message",
        [
            (np.array([0.1 + 1j]), "t must be real, got dtype complex128"),
            (np.complex128(0.1 + 1j), "t must be real, got dtype complex128"),
            ([np.complex128(0.1 + 1j)], "t must be real, got dtype complex128"),
            (0.1 + 1j, "t must be an array of numbers: "),
        ],
        ids=["array", "numpy scalar", "list of a numpy scalar", "Python complex"],
    )
    def test_complex_point_refused(self, t, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            cgf(scalar_pair_model(0.5), t)

    def test_first_non_finite_point_named_before_an_earlier_point_outside(self):
        with pytest.raises(NonFiniteInput, match=r"^t=-inf is not finite$"):
            cgf(scalar_pair_model(0.5), [0.5, 5.0, -math.inf, math.nan])

    def test_finite_point_outside_still_out_of_domain(self):
        with pytest.raises(OutOfDomain) as exc:
            cgf(scalar_pair_model(0.5), [0.5, -3.0, 5.0])
        assert exc.value.t == -3.0

    @pytest.mark.parametrize("seed", range(20))
    def test_logdet_path_agreement(self, seed):
        rng = np.random.default_rng(500 + seed)
        model = random_model(rng, d=int(rng.integers(2, 9)))
        dom = cgf_domain(model)
        info = multiinformation(model)
        for t in np.linspace(0.9 * dom.lower, 0.9 * dom.upper, 10):
            sign, logabsdet = np.linalg.slogdet(
                np.eye(model.dimension) - t * model.gamma
            )
            assert sign > 0
            direct = t * info - 0.5 * logabsdet
            assert abs(cgf(model, float(t)) - direct) < 1e-9


class TestCumulants:
    def test_order_must_be_integral(self):
        model = scalar_pair_model(0.5)
        assert cumulants(model, 4.0) == cumulants(model, np.int64(4)) == cumulants(model, 4)
        for order in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="order must be an integer"):
                cumulants(model, order)
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            cumulants(model, 0)

    @pytest.mark.parametrize("l", [0, 5])
    def test_kappa_outside_computed_orders(self, l):
        with pytest.raises(IndexError, match=f"order {l} outside 1..4"):
            cumulants(scalar_pair_model(0.5), 4).kappa(l)

    def test_identity_covariance_all_zero(self):
        model = validate_model(None, np.eye(5), [2, 3])
        assert cumulants(model, 6).values == (0.0,) * 6

    def test_scalar_pair_closed_forms(self):
        seq = cumulants(scalar_pair_model(0.5), 4)
        assert seq.kappa(1) == pytest.approx(0.143841, abs=1e-6)
        assert seq.kappa(2) == pytest.approx(0.25, abs=1e-12)
        assert seq.kappa(3) == pytest.approx(0.0, abs=1e-12)
        assert seq.kappa(4) == pytest.approx(0.375, abs=1e-12)

    def test_equicorrelation_closed_forms(self):
        seq = cumulants(EQUI3, 3)
        assert seq.kappa(2) == pytest.approx(0.75, abs=1e-9)
        assert seq.kappa(3) == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_matrix_power_traces(self, seed):
        rng = np.random.default_rng(600 + seed)
        model = random_model(rng)
        seq = cumulants(model, 8)
        for l in range(2, 9):
            trace = np.trace(np.linalg.matrix_power(model.gamma, l))
            expected = math.factorial(l - 1) / 2.0 * float(trace)
            assert rel_close(seq.kappa(l), expected, 1e-9)

    def test_overflow_reports_failing_order(self):
        cov = np.full((50, 50), 0.9) + 0.1 * np.eye(50)
        model = validate_model(None, cov, [1] * 50)
        with pytest.raises(CumulantOverflow) as exc:
            cumulants(model, 200)
        assert 2 < exc.value.order < 200
        # every order below the failing one is representable
        seq = cumulants(model, exc.value.order - 1)
        assert all(math.isfinite(v) for v in seq.values)

    @pytest.mark.parametrize("size", [1, 3, 50])
    def test_overflow_order_as_logsumexp(self, size):
        rng = np.random.default_rng(640 + size)
        base = scalar_pair_model(0.5)
        log_max = math.log(np.finfo(float).max)
        for log10_scale in [0.0, 0.5, 1.0, 2.0, 3.5, 7.0, 20.0, 60.0, 150.0, 300.0]:
            lam = rng.uniform(-1.0, 1.0, size) * 10.0**log10_scale
            lam[0] = 10.0**log10_scale  # repeated magnitudes at the top
            log_abs = np.log(np.abs(lam))
            expected = next(
                l for l in range(2, 400) if math.lgamma(l) - math.log(2.0) + np.logaddexp.reduce(l * log_abs) > log_max
            )
            model = dataclasses.replace(base, gamma_eigenvalues=lam)
            with pytest.raises(CumulantOverflow) as exc:
                cumulants(model, 400)
            assert exc.value.order == expected
            assert all(math.isfinite(v) for v in cumulants(model, expected - 1).values)

    @pytest.mark.parametrize("d, rho", [(3, 0.001), (4, -0.002), (10, 0.05)])
    def test_small_spectrum_at_high_orders(self, d, rho):
        # lambda^l underflows in linear space (0.002^170 ~ 1e-459) where kappa_l does not.
        hm = HomogeneousModel(d, rho)
        lam = homogeneous_covariance(hm).gamma_eigenvalues
        seq = cumulants(homogeneous_covariance(hm), 170)
        for l in range(2, seq.order + 1):
            if l <= 20:  # below the log-space switch the linear-space sum stands
                assert seq.kappa(l) == math.factorial(l - 1) / 2.0 * paired_power_sum(lam, l)
            expected = homogeneous_cumulant(hm, l)
            assert expected != 0.0
            assert abs(seq.kappa(l) - expected) <= 1e-9 * abs(expected)

    @pytest.mark.parametrize("rho", [1e-16, 3e-17])
    def test_weak_coupling_matches_exact_power_sums(self, rho):
        # rho^20 is subnormal (1e-320) or below every double (3.5e-332); kappa_20 is 19! times it.
        model = scalar_pair_model(rho)
        seq = cumulants(model, 20)
        lam = [Fraction(float(v)) for v in model.gamma_eigenvalues]
        for l in range(2, 21):
            terms = [Fraction(math.factorial(l - 1), 2) * v**l for v in lam]
            exact = float(sum(terms))  # 0 at odd l, where numpy's powers of -rho and rho round apart
            scale = float(sum(abs(t) for t in terms))
            if l % 2:  # the terms of -rho and rho cancel exactly
                assert seq.kappa(l) == exact == 0.0
            elif scale >= np.finfo(float).tiny:
                assert abs(seq.kappa(l) - exact) <= 1e-14 * scale
            else:  # subnormal: correctly rounded, not flushed to zero
                assert seq.kappa(l) == exact != 0.0

    def test_zero_spectrum_gives_zero(self):
        model = dataclasses.replace(scalar_pair_model(0.5), gamma_eigenvalues=np.zeros(2))
        assert cumulants(model, 30).values[1:] == (0.0,) * 29
        model = dataclasses.replace(model, gamma_eigenvalues=np.array([0.0, -0.25, 0.0, 0.25]))
        assert cumulants(model, 30).values[2::2] == (0.0,) * 14

    def test_order_cap_on_independent_blocks(self):
        # A zero spectrum never overflows, so only the cap bounds the work.
        model = random_block_diagonal_model(np.random.default_rng(660), [2, 3])
        seq = cumulants(model, MAX_CUMULANT_ORDER)
        assert seq.order == MAX_CUMULANT_ORDER
        assert seq.values[1:] == (0.0,) * (MAX_CUMULANT_ORDER - 1)
        with pytest.raises(CumulantOverflow) as exc:
            cumulants(model, MAX_CUMULANT_ORDER + 1)
        assert exc.value.order == MAX_CUMULANT_ORDER + 1

    def test_order_cap_checked_before_the_spectrum_is_read(self):
        model = dataclasses.replace(scalar_pair_model(0.5), gamma_eigenvalues=None)
        with pytest.raises(CumulantOverflow):
            cumulants(model, MAX_CUMULANT_ORDER + 1)

    def test_shift_relation(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        seq = cumulants(model, 6)
        assert seq.kappa(1) == multiinformation(model)
        lam = model.gamma_eigenvalues
        for l in range(2, 7):
            centered = math.factorial(l - 1) / 2.0 * paired_power_sum(lam, l)
            assert seq.kappa(l) == centered

    @pytest.mark.parametrize("rho", [0.5, 0.55, 0.65])
    def test_scalar_pair_odd_orders_exactly_zero(self, rho):
        # The spectrum is exactly {-rho, rho}; numpy's powers of the two round apart at 0.55 and 0.65.
        seq = cumulants(scalar_pair_model(rho), 9)
        assert [seq.kappa(l) for l in (3, 5, 7, 9)] == [0.0] * 4


RING_BLOCKS = 1000
UNIT_ROUNDOFF = 2.0**-53
# 1 + lambda_min = 1e-4 (near-singular), and max|lambda| = 2e-8 (weakly coupled).
RING_COUPLINGS = {"near-singular": (1.0 - 1e-4) / 2.0, "weak": 1e-8}


@functools.cache
def _ring(name):
    """``(model, reference, delta)`` for the ring of that name, built once per session."""
    c = RING_COUPLINGS[name]
    return (*scalar_ring(RING_BLOCKS, c), _ring_eigenvalue_bound(c))


@pytest.fixture(params=list(RING_COUPLINGS))
def ring(request):
    return _ring(request.param)


def _ring_eigenvalue_bound(c):
    """delta, the bound on |computed - reference| for each eigenvalue of the ring, in ascending order.

    G and the whitened matrix W that ``eigvalsh`` reads are c (C + C^T)
    exactly: the diagonal is 1, so the scalings divide by 1, and halving W
    and adding its transpose are exact. ``eigvalsh`` is backward stable: its
    values are the exact spectrum of W + E with ||E||_2 <= p(d) u ||W||_2,
    LAPACK's p(d) taken as d, and by Weyl's inequality the i-th smallest
    moves by at most ||E||_2, with ||W||_2 = 2|c|. The reference angle
    2 pi k / N carries math.pi's error and two roundings, at most 3u
    relative, so its cosine moves by at most 3u * 2 pi; math.cos adds an ulp
    and the product with 2c one rounding: 2|c| (6 pi + 2) u in all.
    """
    return 2.0 * abs(c) * (RING_BLOCKS + 6.0 * math.pi + 2.0) * UNIT_ROUNDOFF


def _ring_mi_bound(reference, delta):
    """Bound on |multiinformation_from_gamma - (-1/2) sum log1p(reference)|.

    First order in delta: each log1p(lambda) moves by at most
    delta / (1 + lambda - delta). Rounding, first order in u: each log1p is
    within 2 ulp (4u relative) on each side, the package's sum of d terms in
    any order adds at most (d - 1) u sum|log1p|, and the reference's fsum u.
    """
    logs = np.abs(np.log1p(reference))
    perturbation = math.fsum((delta / (1.0 + reference - delta)).tolist())
    return 0.5 * (perturbation + (RING_BLOCKS + 8) * UNIT_ROUNDOFF * math.fsum(logs.tolist()))


def _ring_kappa_bound(reference, delta, l):
    """Bound on |kappa_l - (l-1)!/2 sum lambda^l| with lambda the reference, or the exact spectrum.

    lambda^l moves by at most l (|lambda| + delta)^(l-1) delta, the first
    order term at its worst over the interval each eigenvalue can move in.
    Rounding: each l-th power is within an ulp (2u) on each side, each fsum
    and the product with (l-1)!/2 round once more, 8u of sum (|lambda| + delta)^l.
    """
    top = np.abs(reference) + delta
    terms = l * top ** (l - 1) * delta + 8.0 * UNIT_ROUNDOFF * top**l
    return math.factorial(l - 1) / 2.0 * math.fsum(terms.tolist())


class TestScalarRing:
    """The scalar ring S = I + c (C + C^T) at d = 1000 against its reference spectrum 2c cos(2 pi k / N).

    Every bound is derived from the eigenvalue bound of ``_ring_eigenvalue_bound``.
    """

    def test_spectrum_within_weyl_bound(self, ring):
        model, reference, delta = ring
        assert np.max(np.abs(model.gamma_eigenvalues - reference)) <= delta

    def test_multiinformation_from_gamma(self, ring):
        model, reference, delta = ring
        expected = -0.5 * math.fsum(np.log1p(reference).tolist())
        assert abs(multiinformation_from_gamma(model) - expected) <= _ring_mi_bound(reference, delta)

    @pytest.mark.parametrize("l", [2, 4, 6])
    def test_even_cumulants(self, ring, l):
        model, reference, delta = ring
        expected = math.factorial(l - 1) / 2.0 * math.fsum((reference**l).tolist())
        assert abs(cumulants(model, l).kappa(l) - expected) <= _ring_kappa_bound(reference, delta, l)

    @pytest.mark.parametrize("l", [3, 5])
    def test_odd_cumulants_vanish_on_an_even_ring(self, ring, l):
        model, reference, delta = ring
        assert abs(cumulants(model, l).kappa(l)) <= _ring_kappa_bound(reference, delta, l)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 22: the pivot-ratio multiinformation, one fsum of ln(diag L_B / diag L), takes its "
        "error from the Cholesky of S and keeps no digit of a value near 5e-14",
    )
    def test_logdet_multiinformation_under_weak_coupling(self):
        model, reference, _ = _ring("weak")
        expected = -0.5 * math.fsum(np.log1p(reference).tolist())
        # Not even one correct digit is asked for.
        assert abs(multiinformation(model) - expected) <= 0.1 * expected


class TestVariance:
    def test_three_scalar_blocks(self):
        cov = np.array([[1, 0.3, 0.1], [0.3, 1, 0.2], [0.1, 0.2, 1.0]])
        model = validate_model(None, cov, [1, 1, 1])
        assert variance(model) == pytest.approx(0.14, abs=1e-12)

    def test_block_diagonal_exactly_zero(self):
        rng = np.random.default_rng(11)
        assert variance(random_block_diagonal_model(rng, [3, 2])) == 0.0

    def test_scalar_pair(self):
        assert variance(scalar_pair_model(0.5)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_second_cumulant(self, seed):
        model = random_model(np.random.default_rng(700 + seed))
        assert rel_close(variance(model), cumulants(model, 2).kappa(2), 1e-10)


class TestNumericCumulants:
    def test_zero_coupling(self):
        model = validate_model(None, np.eye(4), [1, 3])
        seq = cgf_numeric_cumulants(model, 4)
        assert all(abs(v) < 1e-6 for v in seq.values[1:])

    def test_scalar_pair_second_order(self):
        seq = cgf_numeric_cumulants(scalar_pair_model(0.5), 2, step=1e-3)
        assert seq.kappa(2) == pytest.approx(0.25, abs=1e-6)

    def test_equicorrelation_third_order(self):
        # Frozen oracle output at step 1e-2; truncation error of the minimal
        # order-2 stencil is kappa_5 * step^2 / 8 ~ 1.4e-4 here.
        seq = cgf_numeric_cumulants(EQUI3, 3, step=1e-2)
        assert seq.kappa(3) == pytest.approx(0.7501406489975394, abs=1e-12)
        assert seq.kappa(3) == pytest.approx(0.75, abs=2e-4)

    def test_first_order_recovers_multiinformation(self):
        model = random_model(np.random.default_rng(12))
        seq = cgf_numeric_cumulants(model, 1)
        assert seq.kappa(1) == pytest.approx(multiinformation(model), abs=1e-7)

    def test_stencil_outside_domain(self):
        with pytest.raises(OutOfDomain):
            cgf_numeric_cumulants(scalar_pair_model(0.9), 6, step=0.5)

    def test_order_capped(self):
        with pytest.raises(ValueError):
            cgf_numeric_cumulants(scalar_pair_model(0.5), 7)

    def test_order_must_be_integral(self):
        model = scalar_pair_model(0.5)
        assert cgf_numeric_cumulants(model, 4.0) == cgf_numeric_cumulants(model, 4)
        for order in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="order must be an integer in 1..6"):
                cgf_numeric_cumulants(model, order)

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf"), -float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            cgf_numeric_cumulants(scalar_pair_model(0.5), 4, step=step)


class TestIndependenceEquivalence:
    def test_block_diagonal_suite(self):
        rng = np.random.default_rng(13)
        model = random_block_diagonal_model(rng, [2, 1, 2])
        assert abs(multiinformation(model)) < 1e-12
        assert variance(model) == 0.0
        for _ in range(100):
            x = model.mean + rng.standard_normal(5) * 2.5
            assert abs(density_at(model, x)) < 1e-10


class TestChainRule:
    """Merged into contiguous coarse blocks K: I(fine) = I(coarse) + sum over K of I(K's fine blocks).

    The identity is exact. Merging scalar blocks moves them from ``compute_gamma``'s size-1
    scaling to its block strips, so each MI route is checked across both of G's paths.
    """

    @DERANDOMIZED
    @given(model_seed=st.integers(0, 2**32 - 1), fine=st.lists(st.integers(1, 3), min_size=3, max_size=7))
    def test_merging_blocks(self, model_seed, fine):
        rng = np.random.default_rng(model_seed)
        d = sum(fine)
        cov = random_model(rng, d, fine).covariance
        # 2..len(fine) - 1 coarse blocks, so at least one merges two or more fine blocks.
        cuts = np.sort(rng.choice(np.arange(1, len(fine)), int(rng.integers(1, len(fine) - 1)), replace=False))
        groups = [fine[a:b] for a, b in zip([0, *cuts], [*cuts, len(fine)])]
        edges = np.cumsum([0, *map(sum, groups)])
        for route in (multiinformation, multiinformation_from_gamma):
            whole = route(validate_model(None, cov, fine))
            coarse = route(validate_model(None, cov, list(map(sum, groups))))
            inside = [
                route(validate_model(None, cov[a:b, a:b], group))
                for group, a, b in zip(groups, edges[:-1], edges[1:])
                if len(group) > 1
            ]
            # A bound fixed before any run: 64 d unit roundoffs of the larger of 1 and |I|.
            assert abs(whole - coarse - math.fsum(inside)) <= 64 * d * 2**-53 * max(1.0, abs(whole))


class TestVarianceIrrelevance:
    @pytest.mark.parametrize("seed", range(8))
    def test_cgf_and_cumulants_scale_invariant(self, seed):
        rng = np.random.default_rng(800 + seed)
        model = random_model(rng, zero_mean=True)
        scales = np.exp(rng.uniform(-1.0, 1.0, model.dimension))
        scaled = validate_model(
            model.mean,
            model.covariance * np.outer(scales, scales),
            model.partition.block_sizes,
        )
        dom = cgf_domain(model)
        for t in np.linspace(0.9 * dom.lower, 0.9 * dom.upper, 9):
            assert abs(cgf(model, float(t)) - cgf(scaled, float(t))) < 1e-9
        a = cumulants(model, 6)
        b = cumulants(scaled, 6)
        for l in range(1, 7):
            assert rel_close(a.kappa(l), b.kappa(l), 1e-9)


class TestScaleExactness:
    """Scaling block n's coordinates by 2^{k_n} changes no ``analyze`` or ``simulate`` field but the fingerprint, bit for bit.

    S -> D S D and mu -> D mu with D = diag(2^k) are exact in binary floating
    point, and so is every step the report takes from them: the factors
    scale by D, and every reported quantity reads a ratio in which the
    powers of two cancel. The sampler's kernel L^{-1} G L keeps its bits
    because it inverts L with each row scaled to a unit-range diagonal.
    The 20+30+50 model is large enough that the factors' bits follow the
    BLAS thread count, so CI runs this file under one BLAS thread as well.
    """

    @staticmethod
    def _reports(capsys, path, mean, cov, sizes):
        path.write_text(json.dumps({"mean": mean.tolist(), "covariance": cov.tolist(), "partition": sizes}))
        analyze = ["--cumulants", "8", "--t-grid=-0.2:0.2:5", "--oracle-max-l", "3", "--mc-n", "70000"]
        reports = []
        for argv in (["analyze", str(path), *analyze], ["simulate", str(path), "--n", "70000"]):
            assert main(argv) == 0
            report = orjson.loads(capsys.readouterr().out)
            del report["fingerprint"]
            reports.append(orjson.dumps(report))
        return reports

    @pytest.mark.parametrize("sizes", [[2, 3, 4], [3, 1, 4, 1, 5], [4] * 10, [1] * 30, [20, 30, 50]])
    def test_power_of_two_block_scaling(self, capsys, tmp_path, sizes):
        rng = np.random.default_rng(sum(sizes) + len(sizes))
        d = sum(sizes)
        a = rng.standard_normal((d, 2 * d))
        cov = a @ a.T / (2 * d) + 0.5 * np.eye(d)
        mean = rng.standard_normal(d)
        k = np.repeat(rng.integers(-300, 301, size=len(sizes)), sizes)
        plain = self._reports(capsys, tmp_path / "plain.json", mean, cov, sizes)
        scaled = self._reports(capsys, tmp_path / "scaled.json", np.ldexp(mean, k), np.ldexp(cov, k[:, None] + k), sizes)
        assert scaled == plain


class TestTaylorConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_partial_sum_matches_cgf(self, seed):
        rng = np.random.default_rng(900 + seed)
        model = random_model(rng)
        lam = model.gamma_eigenvalues
        lam_abs = np.max(np.abs(lam))
        info = multiinformation(model)
        d = model.dimension

        def partial_sum(t, top):
            return sum(t**l * float(np.sum(lam**l)) / (2 * l) for l in range(2, top + 1))

        # Inside half the spectral radius the l=30 truncation is provably
        # below 1e-8 for these dimensions.
        for t in np.linspace(-0.5 / lam_abs, 0.5 / lam_abs, 7):
            if t == 0.0:
                continue
            assert abs(cgf(model, float(t)) - t * info - partial_sum(t, 30)) < 1e-8
        # Near the edge, the geometric remainder bound is the attainable one.
        for t in (-0.9 / lam_abs, 0.9 / lam_abs):
            remainder = d * 0.9**31 / (62 * (1 - 0.9))
            assert abs(cgf(model, float(t)) - t * info - partial_sum(t, 30)) < remainder + 1e-8


def precision_model(model):
    """The zero-mean model of P = S^{-1}, with P from numpy's own factor of S, never the model's."""
    inverse = np.linalg.inv(np.linalg.cholesky(model.covariance))
    return validate_model(None, inverse.T @ inverse, model.partition.block_sizes)


def duality_bound(d, value):
    """64 d u max(1, |value|), with u = 2^-53 the unit roundoff."""
    return 64 * d * 2.0**-53 * max(1.0, abs(value))


def logdet(a):
    return 2.0 * float(np.sum(np.log(np.diagonal(np.linalg.cholesky(a)))))


class TestPrecisionDuality:
    """The model of S against the model of its precision matrix P = S^{-1} (ROADMAP item 24).

    P's model is validated on its own, so validation, G, the spectrum and the
    density run on a matrix that shares no arithmetic with S's: a defect must
    hit both the same way to hide. For two blocks the duality leaves the
    density unchanged, and for any number of blocks I(P) is the dual total
    correlation of S (Han 1978).
    """

    @pytest.mark.parametrize("sizes, seed", [([3, 5], 2400), ([1, 1], 2401)])
    def test_two_blocks_are_self_dual(self, sizes, seed):
        # I(P) = I(S), the spectra agree, and iota_S(x) = 2I - iota_P(P(x - mu)).
        rng = np.random.default_rng(seed)
        model = random_model(rng, sum(sizes), sizes)
        dual = precision_model(model)
        d, info = model.dimension, multiinformation(model)
        assert abs(multiinformation(dual) - info) <= duality_bound(d, info)
        lam = model.gamma_eigenvalues
        assert np.max(np.abs(dual.gamma_eigenvalues - lam)) <= duality_bound(d, np.max(np.abs(lam)))
        for x in model.mean + rng.standard_normal((5, d)):
            value = density_at_direct(model, x)
            mirrored = 2.0 * info - density_at_direct(dual, dual.covariance @ (x - model.mean))
            assert abs(value - mirrored) <= duality_bound(d, value)

    @pytest.mark.parametrize("sizes, seed", [([2, 3, 4], 2402), ([1] * 5, 2403), ([10, 20, 30, 40], 2404)])
    def test_precision_multiinformation_is_dual_total_correlation(self, sizes, seed):
        # H(X) - sum_n H(X_n | X_-n) = (ln|S| - sum_n ln|S_n|-n|) / 2, each conditional covariance
        # S_nn - S_n,-n S_-n,-n^{-1} S_-n,n formed and factored on its own.
        model = random_model(np.random.default_rng(seed), sum(sizes), sizes)
        s = model.covariance
        conditional = 0.0
        for n in range(model.partition.n_blocks):
            block = np.zeros(len(s), dtype=bool)
            block[model.partition.block_slice(n)] = True
            rest = s[~block][:, ~block]
            cross = s[~block][:, block]
            conditional += logdet(s[block][:, block] - cross.T @ np.linalg.solve(rest, cross))
        dual_total_correlation = 0.5 * (logdet(s) - conditional)
        value = multiinformation(precision_model(model))
        assert abs(value - dual_total_correlation) <= duality_bound(model.dimension, dual_total_correlation)

import decimal
import math

import numpy as np
import pytest

from conftest import equicorrelation_gamma_power, rel_close

import infodensity.homogeneous as homogeneous
from infodensity import (
    CumulantOverflow,
    HomogeneousModel,
    NotPositiveDefinite,
    ZeroVariance,
    asymptotic_standardized_limit,
    cumulants,
    homogeneous_covariance,
    homogeneous_cumulant,
    multiinformation,
    standardized_cumulant,
    validate_model,
)


def equicorrelation_matrix(d, rho):
    out = np.full((d, d), rho)
    np.fill_diagonal(out, 1.0)
    return out


class TestHomogeneousModel:
    def test_bounds_enforced(self):
        HomogeneousModel(3, -0.49)  # just inside -1/2
        with pytest.raises(ValueError):
            HomogeneousModel(3, -0.5)
        with pytest.raises(ValueError):
            HomogeneousModel(3, 1.0)
        with pytest.raises(ValueError):
            HomogeneousModel(1, 0.2)

    def test_dimension_must_be_integral(self):
        hm = HomogeneousModel(4.0, 0.1)
        assert hm.dimension == 4 and type(hm.dimension) is int
        assert HomogeneousModel(np.int64(5), 0.1).dimension == 5
        for dimension in (3.7, "5", True, np.bool_(True), None, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                HomogeneousModel(dimension, 0.1)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.complex128(0.3 + 2j), "rho must be real, got dtype complex128"),
            (np.array(0.3 + 2j), "rho must be real, got dtype complex128"),
            (0.3 + 2j, "rho must be an array of numbers: "),
        ],
        ids=["numpy scalar", "0-d array", "Python complex"],
    )
    def test_complex_rho_rejected(self, rho, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            HomogeneousModel(5, rho)

    @pytest.mark.parametrize(
        "function", [homogeneous_cumulant, standardized_cumulant, lambda hm, l: asymptotic_standardized_limit(l)]
    )
    def test_order_must_be_integral(self, function):
        hm = HomogeneousModel(5, 0.3)
        assert function(hm, 4.0) == function(hm, np.int64(4)) == function(hm, 4)
        for order in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="order must be an integer"):
                function(hm, order)
        # kappa_1 is a closed form too; the standardized cumulants start at order 2.
        low = 1 if function is homogeneous_cumulant else 2
        with pytest.raises(ValueError, match=f"order must be >= {low}, got {low - 1}"):
            function(hm, low - 1)

    def test_covariance_d2(self):
        model = homogeneous_covariance(HomogeneousModel(2, 0.5))
        assert model.covariance == pytest.approx(np.array([[1, 0.5], [0.5, 1]]))
        assert model.partition.block_sizes == (1, 1)
        assert np.array_equal(model.mean, np.zeros(2))

    def test_covariance_rho_zero_is_identity(self):
        model = homogeneous_covariance(HomogeneousModel(3, 0.0))
        assert np.array_equal(model.covariance, np.eye(3))

    def test_pd_boundary_of_raw_matrix(self):
        d = 3
        edge = -1.0 / (d - 1)
        validate_model(None, equicorrelation_matrix(d, edge + 1e-6), [1] * d)
        with pytest.raises(NotPositiveDefinite):
            validate_model(None, equicorrelation_matrix(d, edge), [1] * d)


class TestClosedForms:
    def test_mean_values(self):
        zero = homogeneous_cumulant(HomogeneousModel(3, 0.0), 1)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert homogeneous_cumulant(HomogeneousModel(3, 0.5), 1) == pytest.approx(0.346574, abs=1e-6)
        assert homogeneous_cumulant(HomogeneousModel(2, 0.5), 1) == pytest.approx(0.143841, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.5, -0.3])
    def test_two_dimensional_kappa_1_is_the_multiinformation(self, rho):
        # d = 2 has no rooted loop of odd length, but kappa_1 is I = -ln(1 - rho^2)/2, not a loop sum.
        hm = HomogeneousModel(2, rho)
        assert homogeneous_cumulant(hm, 1) == -0.5 * (math.log1p(-rho) + math.log1p(rho)) > 0.0
        assert rel_close(homogeneous_cumulant(hm, 1), multiinformation(homogeneous_covariance(hm)), 1e-12)
        assert homogeneous_cumulant(hm, 3) == 0.0

    def test_variance_formula(self):
        for d, rho in [(2, 0.5), (5, 0.3), (20, -0.02)]:
            hm = HomogeneousModel(d, rho)
            assert homogeneous_cumulant(hm, 2) == pytest.approx(
                rho**2 * d * (d - 1) / 2.0, abs=1e-12
            )

    def test_third_cumulant_value(self):
        assert homogeneous_cumulant(HomogeneousModel(3, 0.5), 3) == pytest.approx(0.75, abs=1e-12)

    def test_zero_correlation(self):
        assert homogeneous_cumulant(HomogeneousModel(4, 0.0), 5) == 0.0


class TestAgainstGeneralMachinery:
    @pytest.mark.parametrize("d", [2, 5, 20])
    @pytest.mark.parametrize("rho_kind", ["edge", "small", "large"])
    def test_closed_forms_match(self, d, rho_kind):
        rho = {"edge": -1.0 / (2 * (d - 1)), "small": 0.1, "large": 0.7}[rho_kind]
        hm = HomogeneousModel(d, rho)
        model = homogeneous_covariance(hm)
        seq = cumulants(model, 6)
        assert seq.kappa(1) == multiinformation(model)
        for l in range(1, 7):
            assert rel_close(homogeneous_cumulant(hm, l), seq.kappa(l), 1e-9)
        for l in range(1, 7):
            closed = equicorrelation_gamma_power(d, rho, l)
            numeric = np.linalg.matrix_power(model.gamma, l)
            scale = max(1.0, np.max(np.abs(closed)))
            assert np.max(np.abs(closed - numeric)) < 1e-9 * scale


class TestStandardizedCumulants:
    def test_self_normalization(self):
        assert standardized_cumulant(HomogeneousModel(7, 0.4), 2) == 1.0

    def test_large_dimension_near_limits(self):
        hm = HomogeneousModel(1000, 0.3)
        limit3 = 2.0 * math.sqrt(2.0)
        assert abs(standardized_cumulant(hm, 3) - limit3) / limit3 < 0.01
        assert abs(standardized_cumulant(hm, 4) - 12.0) / 12.0 < 0.02

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            standardized_cumulant(HomogeneousModel(4, 0.0), 3)

    def test_monotone_approach_to_limit(self):
        limit = 2.0 * math.sqrt(2.0)
        gaps = [
            abs(standardized_cumulant(HomogeneousModel(d, 0.3), 3) - limit)
            for d in (10, 100, 1000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_consistent_with_raw_ratio(self):
        hm = HomogeneousModel(12, 0.25)
        k2 = homogeneous_cumulant(hm, 2)
        for l in (3, 4, 5):
            direct = homogeneous_cumulant(hm, l) / k2 ** (l / 2.0)
            assert standardized_cumulant(hm, l) == pytest.approx(direct, rel=1e-12)


# The grid of the rho-free checks: every order from 3 to 160, the last at which the
# large-d limit is finite, on these dimensions, skipping d = 2 at odd orders (exactly 0).
RHO_FREE_DIMENSIONS = [2, 3, 4, 5, 7, 50, 1000, 10**6, 10**12]
RHO_FREE_RHOS = [0.3, 0.5, 0.9, 1e-8, 1e-300]


def _rho_free_grid():
    for d in RHO_FREE_DIMENSIONS:
        for l in range(3, 161):
            if not (d == 2 and l % 2 == 1):
                yield d, l


def _exact_standardized(d, l):
    """2^{l/2-1} (l-1)! (1 - 1/d)^{l/2} (1 + (-1)^l (d-1)^{1-l}) to the context's precision."""
    d = decimal.Decimal(d)
    root = (decimal.Decimal(2) ** (l - 2) * ((d - 1) / d) ** l).sqrt()
    return root * math.factorial(l - 1) * (1 + (-1) ** l * (d - 1) ** (1 - l))


class TestRhoFreeStandardized:
    """rho^l divides out of kappa_l / kappa_2^{l/2}: the value is a function of d and l alone."""

    def test_same_bits_for_every_rho_of_one_sign(self):
        for d, l in _rho_free_grid():
            try:
                value = standardized_cumulant(HomogeneousModel(d, RHO_FREE_RHOS[0]), l)
            except CumulantOverflow:
                continue
            for rho in RHO_FREE_RHOS:
                assert repr(standardized_cumulant(HomogeneousModel(d, rho), l)) == repr(value), (d, rho, l)
                if -rho > -1.0 / (d - 1):
                    signed = -value if l % 2 == 1 else value
                    assert repr(standardized_cumulant(HomogeneousModel(d, -rho), l)) == repr(signed), (d, -rho, l)

    def test_within_rounding_bound_of_exact(self):
        # B bounds the absolute error of the log ratio: the magnitudes of its terms, each
        # rounded to a few ulp, plus one for exp's own rounding. exp turns it into a
        # relative error of about B. B is derived from the terms, not fitted to results.
        u = 2.0**-53
        failures = {}
        with decimal.localcontext(decimal.Context(prec=60)):
            for d, l in _rho_free_grid():
                try:
                    value = standardized_cumulant(HomogeneousModel(d, 0.5), l)
                except CumulantOverflow:
                    continue
                exact = _exact_standardized(d, l)
                error = float(abs(decimal.Decimal(value) - exact) / exact)
                bound = 8 * u * (abs(math.lgamma(l)) + l / 2 * math.log(2.0) + l / 2 * abs(math.log1p(-1.0 / d)) + 1)
                if error > bound:
                    failures[d, l] = (error, bound)
        assert failures == {}


class TestNormalityDiagnostic:
    """The standardized cumulants and their nonzero large-d limits, as ``homogeneous`` reports them."""

    def test_rows_and_limits(self):
        hm = HomogeneousModel(10, 0.5)
        for l in (3, 4):
            assert 0.0 < standardized_cumulant(hm, l) < asymptotic_standardized_limit(l)
        assert asymptotic_standardized_limit(3) == pytest.approx(2.828427, abs=1e-6)
        assert asymptotic_standardized_limit(4) == pytest.approx(12.0, abs=1e-9)

    def test_zero_variance_propagates(self):
        with pytest.raises(ZeroVariance):
            standardized_cumulant(HomogeneousModel(10, 0.0), 3)

    def test_two_dimensional_odd_orders_vanish(self):
        assert standardized_cumulant(HomogeneousModel(2, 0.5), 3) == 0.0
        assert asymptotic_standardized_limit(3) == pytest.approx(2.828427, abs=1e-6)  # limit is a d->inf statement

    def test_limit_function(self):
        assert asymptotic_standardized_limit(3) == pytest.approx(2 * math.sqrt(2))
        assert asymptotic_standardized_limit(4) == 12.0

    def test_limit_within_two_ulp_of_exact(self):
        # Against 2^{l/2-1} (l-1)! = sqrt(2^{l-2} (l-1)!^2) to 60 digits, at every order
        # up to 160, the last whose limit is finite in double.
        errors = {}
        with decimal.localcontext(decimal.Context(prec=60)):
            for l in range(2, 161):
                exact = (decimal.Decimal(2) ** (l - 2) * decimal.Decimal(math.factorial(l - 1)) ** 2).sqrt()
                errors[l] = abs(decimal.Decimal(asymptotic_standardized_limit(l)) - exact) / exact
        assert {l: error for l, error in errors.items() if error > decimal.Decimal("4.5e-16")} == {}


# Values of the closed forms pinned bit for bit: (order, cumulant, standardized cumulant),
# with CumulantOverflow where they overflow. The cumulants are those from before the closed
# forms were rewritten over ``rooted_loop_count``; the standardized cumulants are those of
# the form in d and l alone, so they do not depend on |rho|. rho = -0.05 lies below
# -1/(d-1) for d = 50 and d = 1000.
PINNED = {
    (2, 0.3): [(2, 0.09, 1.0), (3, 0.0, 0.0), (20, 4241502.3856359385, 1.2164510040883294e17), (21, 0.0, 0.0),
               (60, 5.878938028370789e48, 1.3868311854568818e80), (400, CumulantOverflow, CumulantOverflow)],
    (2, -0.05): [(2, 0.0025000000000000005, 1.0), (3, 0.0, 0.0), (20, 1.1600980797656263e-09, 1.2164510040883294e17),
                 (21, 0.0, 0.0), (60, 120.28843073144049, 1.3868311854568818e80),
                 (400, CumulantOverflow, CumulantOverflow)],
    (2, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 0.0), (20, 0.0, 1.2164510040883294e17), (21, 0.0, 0.0),
                  (60, 0.0, 1.3868311854568818e80), (400, 0.0, CumulantOverflow)],
    (3, 0.3): [(2, 0.27, 1.0), (3, 0.16199999999999998, 1.1547005383792512),
               (20, 2223773044262.6807, 1.0800722797718216e18), (21, 26685200184109.156, 2.494312949588665e19),
               (60, 3.38897703857977e66, 3.882895491190065e83), (400, CumulantOverflow, CumulantOverflow)],
    (3, -0.05): [(2, 0.0075000000000000015, 1.0), (3, -0.0007500000000000002, -1.1547005383792512),
                 (20, 0.0006082266621422405, 1.0800722797718216e18),
                 (21, -0.0012164498439902443, -2.494312949588665e19),
                 (60, 6.93415592728443e19, 3.882895491190065e83), (400, CumulantOverflow, CumulantOverflow)],
    (3, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 1.1547005383792512), (20, 0.0, 1.0800722797718216e18),
                  (21, 0.0, 2.494312949588665e19), (60, 0.0, 3.882895491190065e83), (400, 0.0, CumulantOverflow)],
    (50, 0.3): [(2, 110.25, 1.0), (3, 3175.1999999999994, 2.7428571428571416),
                (20, 1.350241091188814e40, 5.0889166661203e19), (21, 3.9697088080950705e42, 1.424896666513682e21),
                (60, 7.586364201916969e149, 4.061399808812897e88), (400, CumulantOverflow, CumulantOverflow)],
    (50, -0.05): ValueError,
    (50, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 2.7428571428571416), (20, 0.0, 5.0889166661203e19),
                   (21, 0.0, 1.424896666513682e21), (60, 0.0, 4.061399808812897e88), (400, 0.0, CumulantOverflow)],
    (1000, 0.3): [(2, 44955.0, 1.0), (3, 26919053.999999996, 2.824182715053685),
                  (20, 2.078736704274127e66, 6.166226373753107e19), (21, 1.2459947805419286e70, 1.743199939070119e21),
                  (60, 2.7682045623398652e228, 7.225337200105954e88), (400, CumulantOverflow, CumulantOverflow)],
    (1000, -0.05): ValueError,
    (1000, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 2.824182715053685), (20, 0.0, 6.166226373753107e19),
                     (21, 0.0, 1.743199939070119e21), (60, 0.0, 7.225337200105954e88), (400, 0.0, CumulantOverflow)],
}


def _pinned_check(function, hm, l, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            function(hm, l)
    else:
        assert repr(function(hm, l)) == repr(expected)  # repr round-trips, and tells -0.0 from 0.0


class TestOneLoopCount:
    @pytest.mark.parametrize(("d", "rho"), sorted(PINNED))
    def test_pinned_values(self, d, rho):
        if PINNED[d, rho] is ValueError:
            with pytest.raises(ValueError):
                HomogeneousModel(d, rho)
            return
        hm = HomogeneousModel(d, rho)
        for l, kappa, standardized in PINNED[d, rho]:
            _pinned_check(homogeneous_cumulant, hm, l, kappa)
            _pinned_check(standardized_cumulant, hm, l, standardized)

    def test_count_and_factorial_formed_only_up_to_order_20(self, monkeypatch):
        count, factorial = homogeneous.rooted_loop_count, math.factorial

        def bounded_count(d, l):
            assert l <= 20, f"rooted_loop_count formed at order {l}"
            return count(d, l)

        def bounded_factorial(k):
            assert k < 20, f"factorial({k}) formed"
            return factorial(k)

        monkeypatch.setattr(homogeneous, "rooted_loop_count", bounded_count)
        monkeypatch.setattr(math, "factorial", bounded_factorial)
        for d, rho in [(2, -0.3), (3, 0.3), (50, 1e-300), (1000, -0.001), (10**6, 1e-7)]:
            hm = HomogeneousModel(d, rho)
            for l in range(2, 401):
                for function in (homogeneous_cumulant, standardized_cumulant):
                    try:
                        function(hm, l)
                    except CumulantOverflow:
                        pass

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
    homogeneous_mean,
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
        "function", [homogeneous_cumulant, standardized_cumulant, lambda hm, l: asymptotic_standardized_limit(l)]
    )
    def test_order_must_be_integral(self, function):
        hm = HomogeneousModel(5, 0.3)
        assert function(hm, 4.0) == function(hm, np.int64(4)) == function(hm, 4)
        for order in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="order must be an integer"):
                function(hm, order)
        with pytest.raises(ValueError, match="order must be >= 2, got 1"):
            function(hm, 1)

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
        assert homogeneous_mean(HomogeneousModel(3, 0.0)) == 0.0
        assert homogeneous_mean(HomogeneousModel(3, 0.5)) == pytest.approx(0.346574, abs=1e-6)
        assert homogeneous_mean(HomogeneousModel(2, 0.5)) == pytest.approx(0.143841, abs=1e-6)

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
        assert rel_close(homogeneous_mean(hm), multiinformation(model), 1e-9)
        seq = cumulants(model, 6)
        for l in range(2, 7):
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


# Values of the closed forms before they were rewritten over ``rooted_loop_count``, pinned
# bit for bit: (order, cumulant, standardized cumulant), with CumulantOverflow where they
# overflowed. rho = -0.05 lies below -1/(d-1) for d = 50 and d = 1000.
PINNED = {
    (2, 0.3): [(2, 0.09, 1.0), (3, 0.0, 0.0), (20, 4241502.3856359385, 1.2164510040883208e17), (21, 0.0, 0.0),
               (60, 5.878938028370789e48, 1.3868311854568818e80), (400, CumulantOverflow, CumulantOverflow)],
    (2, -0.05): [(2, 0.0025000000000000005, 1.0), (3, 0.0, 0.0), (20, 1.1600980797656263e-09, 1.2164510040883122e17),
                 (21, 0.0, 0.0), (60, 120.28843073144049, 1.3868311854568818e80),
                 (400, CumulantOverflow, CumulantOverflow)],
    (2, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 0.0), (20, 0.0, 1.2164510040893838e17), (21, 0.0, 0.0),
                  (60, 0.0, 1.3868311854592469e80), (400, 0.0, CumulantOverflow)],
    (3, 0.3): [(2, 0.27, 1.0), (3, 0.16199999999999998, 1.154700538379251),
               (20, 2223773044262.6807, 1.0800722797718139e18), (21, 26685200184109.156, 2.494312949588665e19),
               (60, 3.38897703857977e66, 3.8828954911899546e83), (400, CumulantOverflow, CumulantOverflow)],
    (3, -0.05): [(2, 0.0075000000000000015, 1.0), (3, -0.0007500000000000002, -1.15470053837925),
                 (20, 0.0006082266621422405, 1.0800722797718216e18),
                 (21, -0.0012164498439902443, -2.4943129495886295e19),
                 (60, 6.93415592728443e19, 3.8828954911899546e83), (400, CumulantOverflow, CumulantOverflow)],
    (3, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 1.1547005383790252), (20, 0.0, 1.0800722797722744e18),
                  (21, 0.0, 2.4943129495859356e19), (60, 0.0, 3.8828954912068397e83), (400, 0.0, CumulantOverflow)],
    (50, 0.3): [(2, 110.25, 1.0), (3, 3175.1999999999994, 2.7428571428571393),
                (20, 1.350241091188814e40, 5.088916666120264e19), (21, 3.9697088080950705e42, 1.424896666513682e21),
                (60, 7.586364201916969e149, 4.061399808812897e88), (400, CumulantOverflow, CumulantOverflow)],
    (50, -0.05): ValueError,
    (50, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 2.742857142856467), (20, 0.0, 5.088916666121891e19),
                   (21, 0.0, 1.424896666512487e21), (60, 0.0, 4.0613998088217856e88), (400, 0.0, CumulantOverflow)],
    (1000, 0.3): [(2, 44955.0, 1.0), (3, 26919053.999999996, 2.8241827150536754),
                  (20, 2.078736704274127e66, 6.166226373752976e19), (21, 1.2459947805419286e70, 1.743199939070119e21),
                  (60, 2.7682045623398652e228, 7.225337200105954e88), (400, CumulantOverflow, CumulantOverflow)],
    (1000, -0.05): ValueError,
    (1000, 1e-300): [(2, 0.0, 1.0), (3, 0.0, 2.824182715052), (20, 0.0, 6.166226373755079e19),
                     (21, 0.0, 1.7431999390672455e21), (60, 0.0, 7.225337200135116e88), (400, 0.0, CumulantOverflow)],
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

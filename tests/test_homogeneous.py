import math

import numpy as np
import pytest

from infodensity import (
    HomogeneousModel,
    NotPositiveDefinite,
    ZeroVariance,
    asymptotic_standardized_limit,
    cumulants,
    homogeneous_covariance,
    homogeneous_cumulant,
    homogeneous_gamma_power,
    homogeneous_mean,
    multiinformation,
    standardized_cumulant,
    validate_model,
)
from infodensity._linalg import rel_close


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

    def test_gamma_power_first(self):
        hm = HomogeneousModel(3, 0.5)
        u_minus_i = np.ones((3, 3)) - np.eye(3)
        assert homogeneous_gamma_power(hm, 1) == pytest.approx(0.5 * u_minus_i)

    def test_gamma_power_square_d2(self):
        assert homogeneous_gamma_power(HomogeneousModel(2, 0.5), 2) == pytest.approx(
            0.25 * np.eye(2)
        )

    def test_gamma_power_rho_zero(self):
        assert np.array_equal(homogeneous_gamma_power(HomogeneousModel(5, 0.0), 3), np.zeros((5, 5)))


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
            closed = homogeneous_gamma_power(hm, l)
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

import math

import numpy as np
import pytest

from conftest import random_block_diagonal_model, random_model, scalar_pair_model

from infodensity import (
    BatchTooSmall,
    HomogeneousModel,
    cgf,
    homogeneous_covariance,
    k_statistics,
    kstat_sampling_variances,
    mc_validate,
    sample_density,
    validate_model,
)
from infodensity.sampling import _standard_normal_block


class TestSampleDensity:
    def test_block_diagonal_values_vanish(self):
        model = random_block_diagonal_model(np.random.default_rng(1), [2, 2])
        batch = sample_density(model, 1000, seed=3)
        assert np.max(np.abs(batch.values)) < 1e-10

    def test_deterministic_across_thread_counts(self):
        model = scalar_pair_model(0.5)
        one = sample_density(model, 200_000, seed=11, threads=1)
        four = sample_density(model, 200_000, seed=11, threads=4)
        assert np.array_equal(one.values, four.values)
        # d = 20 over six chunks: two 655-row tiles per full chunk, then 3 rows.
        model = random_model(np.random.default_rng(1520), d=20, sizes=[5, 5, 5, 5])
        one = sample_density(model, 5003, seed=5, chunk_size=1000, threads=1)
        three = sample_density(model, 5003, seed=5, chunk_size=1000, threads=3)
        assert np.array_equal(one.values, three.values)

    def test_deterministic_rerun(self):
        model = scalar_pair_model(0.3)
        batch = sample_density(model, 5000, seed=9)
        assert np.array_equal(batch.values, sample_density(model, 5000, seed=9).values)
        assert np.all(np.isfinite(batch.values))
        assert batch.n == 5000

    def test_seed_sensitivity(self):
        model = scalar_pair_model(0.5)
        means = {float(np.mean(sample_density(model, 4000, seed=s).values)) for s in (1, 2, 3)}
        assert len(means) == 3

    def test_minimum_size(self):
        with pytest.raises(BatchTooSmall):
            sample_density(scalar_pair_model(0.5), 1, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            sample_density(scalar_pair_model(0.5), 1000, seed=0, threads=threads)

    def test_mean_within_five_se(self):
        model = scalar_pair_model(0.5)
        batch = sample_density(model, 10**6, seed=42)
        info = -0.5 * math.log1p(-0.25)
        se = math.sqrt(0.25 / 10**6)
        assert abs(float(np.mean(batch.values)) - info) < 5 * se

    def test_variance_rescaling_matches_pointwise(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, d=4, zero_mean=True)
        scales = np.exp(rng.uniform(-1.0, 1.0, 4))
        scaled = validate_model(
            model.mean, model.covariance * np.outer(scales, scales), model.partition.block_sizes
        )
        a = sample_density(model, 20_000, seed=5).values
        b = sample_density(scaled, 20_000, seed=5).values
        assert np.max(np.abs(a - b)) < 1e-9


class TestKStatistics:
    def test_constant_batch(self):
        ks = k_statistics(np.full(100, 3.25))
        assert ks.k1 == 3.25
        assert ks.k2 == ks.k3 == ks.k4 == 0.0

    def test_three_values(self):
        ks = k_statistics(np.array([1.0, 2.0, 3.0]))
        assert ks.k1 == 2.0
        assert ks.k2 == pytest.approx(1.0, abs=1e-15)
        assert math.isnan(ks.k4)

    def test_standard_normal_higher_orders(self):
        z = _standard_normal_block(seed=7, chunk_index=0, count=10**6)
        ks = k_statistics(z)
        normal_kappa = (math.nan, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        v1, v2, v3, v4 = kstat_sampling_variances(normal_kappa, 10**6)
        assert abs(ks.k1) < 5 * math.sqrt(v1)
        assert abs(ks.k2 - 1.0) < 5 * math.sqrt(v2)
        assert abs(ks.k3) < 5 * math.sqrt(v3)
        assert abs(ks.k4) < 5 * math.sqrt(v4)

    def test_standard_errors_positive(self):
        ks = k_statistics(np.random.default_rng(3).standard_normal(500))
        assert ks.se1 > 0 and ks.se2 > 0
        assert ks.se1 == pytest.approx(math.sqrt(ks.k2 / 500))

    def test_accepts_batch_object(self):
        batch = sample_density(scalar_pair_model(0.4), 1000, seed=1)
        assert k_statistics(batch).k1 == pytest.approx(float(np.mean(batch.values)))

    def test_too_small(self):
        with pytest.raises(BatchTooSmall):
            k_statistics(np.array([1.0]))


class TestMcValidate:
    def test_zero_coupling_passes_with_zeros(self):
        model = validate_model(None, np.eye(4), [2, 2])
        report = mc_validate(model, 1000, seed=0)
        assert report["ok"]
        for row in report["rows"]:
            assert row["analytic"] == 0.0 and row["z"] == 0.0

    def test_scalar_pair_passes(self):
        report = mc_validate(scalar_pair_model(0.5), 10**6, seed=42, max_order=2)
        assert report["ok"]
        assert report["rows"][0]["analytic"] == pytest.approx(0.143841, abs=1e-6)
        assert report["rows"][1]["analytic"] == pytest.approx(0.25)

    def test_third_order_of_two_block_is_zero(self):
        report = mc_validate(scalar_pair_model(0.5), 200_000, seed=8, max_order=3)
        row = report["rows"][2]
        assert row["analytic"] == 0.0
        assert abs(row["z"]) < 5

    def test_corrupt_order_fails(self):
        report = mc_validate(scalar_pair_model(0.5), 50_000, seed=42, corrupt_order=2)
        assert not report["ok"]
        assert not report["rows"][1]["ok"]

    def test_small_n_rejected(self):
        with pytest.raises(BatchTooSmall):
            mc_validate(scalar_pair_model(0.5), 1, seed=0)


class TestEmpiricalCgf:
    def test_log_mean_exponential_matches(self):
        model = scalar_pair_model(0.5)
        values = sample_density(model, 10**6, seed=42).values
        rng = np.random.default_rng(123)
        for t in (-0.5, 0.5):
            y = np.exp(t * values)
            estimate = math.log(float(np.mean(y)))
            resampled = [
                math.log(float(np.mean(y[rng.integers(0, len(y), len(y))])))
                for _ in range(60)
            ]
            se = float(np.std(resampled, ddof=1))
            assert abs(estimate - cgf(model, t)) < 5 * se


class TestHomogeneousMonteCarlo:
    def test_second_cumulant_within_five_se(self):
        model = homogeneous_covariance(HomogeneousModel(3, 0.5))
        report = mc_validate(model, 10**6, seed=7, max_order=2)
        assert report["ok"]
        assert report["rows"][1]["analytic"] == pytest.approx(0.75)

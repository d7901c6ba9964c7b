import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_block_diagonal_model, random_model, sampled_values, scalar_pair_model, standard_normal_block

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
from infodensity.sampling import CentralMoments, SampleBatch, _central_moments


def _summary(x):
    return _central_moments(x, np.empty_like(x), np.empty_like(x))


def _exact_k_statistics(x):
    """k_1..k_4 of the float values x in exact rational arithmetic."""
    values = [Fraction(v) for v in x]
    n = Fraction(len(values))
    mean = sum(values) / n
    m2, m3, m4 = (sum((v - mean) ** p for v in values) / n for p in (2, 3, 4))
    k2 = n / (n - 1) * m2
    k3 = n * n / ((n - 1) * (n - 2)) * m3
    k4 = n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2) / ((n - 1) * (n - 2) * (n - 3))
    return tuple(float(k) for k in (mean, k2, k3, k4))


class TestSampleDensity:
    def test_block_diagonal_values_vanish(self):
        model = random_block_diagonal_model(np.random.default_rng(1), [2, 2])
        values = sampled_values(model, 1000, seed=3)
        assert np.max(np.abs(values)) < 1e-10

    def test_deterministic_across_thread_counts(self):
        model = scalar_pair_model(0.5)
        one = sample_density(model, 200_000, seed=11, threads=1)
        four = sample_density(model, 200_000, seed=11, threads=4)
        assert one == four
        # d = 20 over six chunks: two 655-row tiles per full chunk, then 3 rows.
        model = random_model(np.random.default_rng(1520), d=20, sizes=[5, 5, 5, 5])
        one = sample_density(model, 5003, seed=5, chunk_size=1000, threads=1)
        three = sample_density(model, 5003, seed=5, chunk_size=1000, threads=3)
        assert one == three

    def test_deterministic_rerun(self):
        model = scalar_pair_model(0.3)
        batch = sample_density(model, 5000, seed=9)
        assert batch == sample_density(model, 5000, seed=9)
        values = sampled_values(model, 5000, seed=9)
        assert np.array_equal(values, sampled_values(model, 5000, seed=9))
        assert np.all(np.isfinite(values))
        assert batch.n == 5000

    def test_seed_sensitivity(self):
        model = scalar_pair_model(0.5)
        means = {k_statistics(sample_density(model, 4000, seed=s)).k1 for s in (1, 2, 3)}
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
        assert abs(k_statistics(batch).k1 - info) < 5 * se

    def test_variance_rescaling_matches_pointwise(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, d=4, zero_mean=True)
        scales = np.exp(rng.uniform(-1.0, 1.0, 4))
        scaled = validate_model(
            model.mean, model.covariance * np.outer(scales, scales), model.partition.block_sizes
        )
        a = sampled_values(model, 20_000, seed=5)
        b = sampled_values(scaled, 20_000, seed=5)
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
        z = standard_normal_block(seed=7, chunk_index=0, count=10**6)
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
        model = scalar_pair_model(0.4)
        batch = sample_density(model, 1000, seed=1)
        assert k_statistics(batch).k1 == pytest.approx(float(np.mean(sampled_values(model, 1000, seed=1))))

    def test_too_small(self):
        with pytest.raises(BatchTooSmall):
            k_statistics(np.array([1.0]))


class TestStreaming:
    def test_summaries_and_reports_identical_across_threads(self):
        model = random_model(np.random.default_rng(1520), d=20, sizes=[5, 5, 5, 5])
        batches = [sample_density(model, 5003, seed=5, chunk_size=1000, threads=t) for t in (1, 2, 3, 4)]
        assert all(batch == batches[0] for batch in batches)
        reports = [mc_validate(model, 5003, seed=5, chunk_size=1000, threads=t) for t in (1, 2, 3, 4)]
        assert all(report == reports[0] for report in reports)

    def test_batch_is_the_summary_of_its_draws(self):
        model = random_model(np.random.default_rng(1521), d=6, sizes=[2, 4])
        batch = sample_density(model, 5003, seed=2, chunk_size=1000, threads=2)
        values = sampled_values(model, 5003, seed=2, chunk_size=1000)
        got, expected = k_statistics(batch), k_statistics(values)
        for order in (1, 2, 3, 4):
            a, b = got.estimate(order), expected.estimate(order)
            assert abs(a - b) <= 1e-12 * abs(b)

    # The n-length value array of earlier versions alone was 1.6 / 6.4 MB,
    # and each thread held 2 * 65536 * 20 * 8 bytes (21 MB) of chunk buffers.
    @pytest.mark.parametrize("n", [200_000, 800_000])
    def test_peak_memory_independent_of_n(self, n):
        model = random_model(np.random.default_rng(1522), d=20, sizes=[5, 5, 5, 5])
        mc_validate(model, 1000, seed=0, threads=2)
        tracemalloc.start()
        try:
            report = mc_validate(model, n, seed=1, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["n"] == n
        assert peak < 4 * 2**20


class TestMerge:
    SPLITS = {
        "ones": [1] * 9,
        "one_two_three": [1, 2, 3, 3, 2, 1, 5],
        "uneven": [1, 4000, 2, 3, 997, 1, 1500],
    }

    @staticmethod
    def _data(kind, n):
        rng = np.random.default_rng(1700)
        if kind == "skewed":
            return rng.gamma(2.0, 1.5, n) - 1.0
        return 1e8 + rng.standard_normal(n)  # mean 1e8, sd 1

    @staticmethod
    def _merged(x, sizes):
        edges = np.cumsum([0, *sizes])
        summaries = [_summary(x[a:b]) for a, b in zip(edges[:-1], edges[1:])]
        merged = functools.reduce(CentralMoments.merge, summaries)
        return k_statistics(SampleBatch(moments=merged, seed=0, fingerprint=""))

    @pytest.mark.parametrize("kind", ["skewed", "offset"])
    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_chunk_order_merge_matches_two_pass(self, kind, split):
        sizes = self.SPLITS[split]
        x = self._data(kind, sum(sizes))
        merged = self._merged(x, sizes)
        two_pass = k_statistics(x)
        assert merged.k1 == pytest.approx(two_pass.k1, rel=1e-15)
        for order in (2, 3, 4):
            a, b = merged.estimate(order), two_pass.estimate(order)
            assert abs(a - b) <= 1e-12 * abs(b)
        assert abs(merged.se2 - two_pass.se2) <= 1e-12 * two_pass.se2

    @pytest.mark.parametrize("kind", ["skewed", "offset"])
    def test_merge_matches_exact_arithmetic(self, kind):
        sizes = self.SPLITS["uneven"]
        x = self._data(kind, sum(sizes))
        merged = self._merged(x, sizes)
        for order, exact in enumerate(_exact_k_statistics(x), start=1):
            assert abs(merged.estimate(order) - exact) <= 1e-12 * abs(exact)

    def test_offset_data_defeat_raw_power_sums(self):
        # The case the merge must survive: from raw sums of x and x^2 the
        # variance of 1e8 + N(0, 1) data cancels to nothing.
        x = self._data("offset", 6504)
        n = x.size
        naive_k2 = (np.sum(x * x) - np.sum(x) ** 2 / n) / (n - 1)
        exact_k2 = _exact_k_statistics(x)[1]
        assert abs(naive_k2 - exact_k2) > 0.1 * exact_k2
        assert abs(self._merged(x, self.SPLITS["uneven"]).k2 - exact_k2) <= 1e-12 * exact_k2

    def test_small_arrays_leave_higher_orders_nan(self):
        two = k_statistics(np.array([1.0, 4.0]))
        assert two.k2 == 4.5
        assert math.isnan(two.k3) and math.isnan(two.k4)
        three = k_statistics(np.array([1.0, 2.0, 6.0]))
        assert math.isfinite(three.k3)
        assert math.isnan(three.k4)


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
        values = sampled_values(model, 10**6, seed=42)
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

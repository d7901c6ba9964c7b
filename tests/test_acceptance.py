"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    equicorrelation_gamma_power,
    random_block_diagonal_model,
    random_correlation_model,
    random_model,
    random_partition,
    rel_close,
    scalar_pair_cgf,
    scalar_pair_model,
    squared_multiple_correlation,
)

from infodensity import (
    HomogeneousModel,
    cgf,
    cgf_domain,
    cgf_numeric_cumulants,
    cumulants,
    density_at,
    homogeneous_covariance,
    homogeneous_cumulant,
    mc_validate,
    multiinformation,
    multiinformation_from_gamma,
    canonical_correlations,
    standardized_cumulant,
    trace_via_loops,
    validate_model,
    variance,
)


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s exceeds budget {budget_seconds}s"
    print(f"[{label}] PASS ({elapsed:.2f}s)")


def seeded_models(base_seed, count, max_d=10, max_block=None):
    out = []
    for i in range(count):
        rng = np.random.default_rng(base_seed + i)
        d = int(rng.integers(2, max_d + 1))
        sizes = random_partition(rng, d, max_blocks=max_block)
        out.append(random_model(rng, d=d, sizes=sizes, zero_mean=True))
    return out


def test_c01_scalar_pair_closed_forms():
    with criterion("C01 scalar-pair closed forms", 1.0):
        for rho in (0.1, 0.5, 0.9):
            model = scalar_pair_model(rho)
            seq = cumulants(model, 5)
            assert abs(seq.kappa(2) - rho**2) < 1e-9
            assert abs(seq.kappa(4) - 6 * rho**4) < 1e-9
            assert abs(seq.kappa(3)) < 1e-9
            assert abs(seq.kappa(5)) < 1e-9
            assert abs(multiinformation(model) - (-0.5 * math.log1p(-rho * rho))) < 1e-12


def test_c02_multiinformation_equivalence():
    with criterion("C02 multiinformation two-formula equivalence", 5.0):
        for model in seeded_models(1000, 50):
            assert abs(multiinformation(model) - multiinformation_from_gamma(model)) < 1e-9


def test_c03_variance_triple_path():
    with criterion("C03 variance triple path", 5.0):
        for model in seeded_models(1000, 50):
            block_sum = variance(model)
            matrix_path = 0.5 * float(np.trace(model.gamma @ model.gamma))
            eigen_path = cumulants(model, 2).kappa(2)
            assert rel_close(block_sum, matrix_path, 1e-10)
            assert rel_close(block_sum, eigen_path, 1e-10)
        # all-scalar partitions reduce to the sum of squared correlations
        for i in range(10):
            rng = np.random.default_rng(3000 + i)
            d = int(rng.integers(2, 8))
            model = random_correlation_model(rng, d)
            corr = model.covariance
            expected = sum(
                corr[m, n] ** 2 for m in range(d) for n in range(m + 1, d)
            )
            assert rel_close(variance(model), float(expected), 1e-10)


def test_c04_loop_oracle():
    with criterion("C04 loop-enumeration oracle", 30.0):
        for i in range(20):
            rng = np.random.default_rng(4000 + i)
            n_blocks = int(rng.integers(2, 6))
            sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
            model = random_model(rng, d=sum(sizes), sizes=sizes, zero_mean=True)
            for l in range(1, 7):
                reference = float(np.trace(np.linalg.matrix_power(model.gamma, l)))
                assert rel_close(trace_via_loops(model, l), reference, 1e-9)
            if n_blocks == 2:
                for l in (3, 5):
                    assert trace_via_loops(model, l) == 0.0


def test_c05_two_block_identities():
    with criterion("C05 two-block identities", 5.0):
        for i in range(20):
            rng = np.random.default_rng(5000 + i)
            sizes = [int(rng.integers(1, 5)), int(rng.integers(1, 5))]
            model = random_model(rng, d=sum(sizes), sizes=sizes, zero_mean=True)
            spectrum = canonical_correlations(model)
            assert abs(sum(spectrum) - variance(model)) < 1e-9
        for i in range(10):
            rng = np.random.default_rng(5500 + i)
            sizes = [1, int(rng.integers(1, 5))]
            model = random_model(rng, d=sum(sizes), sizes=sizes, zero_mean=True)
            r2 = squared_multiple_correlation(model)
            seq = cumulants(model, 8)
            for l in (2, 4, 6, 8):
                assert rel_close(seq.kappa(l), math.factorial(l - 1) * r2 ** (l // 2), 1e-9)


def test_c06_homogeneous_closed_forms():
    with criterion("C06 equicorrelation closed forms", 10.0):
        for d in (2, 5, 20):
            for rho in (-1.0 / (2 * (d - 1)), 0.1, 0.7):
                hm = HomogeneousModel(d, rho)
                model = homogeneous_covariance(hm)
                seq = cumulants(model, 6)
                assert seq.kappa(1) == multiinformation(model)
                for l in range(1, 7):
                    assert rel_close(homogeneous_cumulant(hm, l), seq.kappa(l), 1e-9)
                for l in range(1, 7):
                    closed = equicorrelation_gamma_power(d, rho, l)
                    numeric = np.linalg.matrix_power(model.gamma, l)
                    scale = max(1.0, float(np.max(np.abs(closed))))
                    assert float(np.max(np.abs(closed - numeric))) < 1e-9 * scale
        big = HomogeneousModel(1000, 0.3)
        limit3 = 2.0 * math.sqrt(2.0)
        assert abs(standardized_cumulant(big, 3) - limit3) / limit3 < 0.01
        assert abs(standardized_cumulant(big, 4) - 12.0) / 12.0 < 0.02


def test_c07_variance_irrelevance():
    with criterion("C07 variance irrelevance", 5.0):
        for i, model in enumerate(seeded_models(7000, 20, max_d=8)):
            rng = np.random.default_rng(7500 + i)
            scales = np.exp(rng.uniform(-1.0, 1.0, model.dimension))
            scaled = validate_model(
                model.mean,
                model.covariance * np.outer(scales, scales),
                model.partition.block_sizes,
            )
            dom = cgf_domain(model)
            for t in np.linspace(0.9 * dom.lower, 0.9 * dom.upper, 9):
                assert abs(cgf(model, float(t)) - cgf(scaled, float(t))) < 1e-9
            a, b = cumulants(model, 6), cumulants(scaled, 6)
            for l in range(1, 7):
                assert rel_close(a.kappa(l), b.kappa(l), 1e-9)


def test_c08_finite_difference_oracle():
    with criterion("C08 finite-difference derivatives", 5.0):
        for model in seeded_models(8000, 10, max_d=8):
            seq = cumulants(model, 3)
            numeric = cgf_numeric_cumulants(model, 3)
            assert abs(numeric.kappa(2) - seq.kappa(2)) < 1e-6
            assert abs(numeric.kappa(3) - seq.kappa(3)) < 1e-4


def test_c09_monte_carlo():
    with criterion("C09 Monte Carlo cumulant validation", 60.0):
        pair_report = mc_validate(scalar_pair_model(0.5), 10**6, seed=42, max_order=3)
        assert pair_report["ok"]
        assert pair_report["rows"][2]["analytic"] == 0.0
        equi_report = mc_validate(
            homogeneous_covariance(HomogeneousModel(3, 0.5)), 10**6, seed=7, max_order=3
        )
        assert equi_report["ok"]
        assert abs(equi_report["rows"][2]["analytic"] - 0.75) < 1e-9


def test_c10_independence_equivalence():
    with criterion("C10 independence equivalence", 2.0):
        for i in range(5):
            rng = np.random.default_rng(9000 + i)
            n_blocks = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
            model = random_block_diagonal_model(rng, sizes)
            assert abs(multiinformation(model)) < 1e-12
            assert variance(model) == 0.0
            for _ in range(100):
                x = model.mean + rng.standard_normal(model.dimension) * 2.0
                assert abs(density_at(model, x)) < 1e-10
        for model in seeded_models(9500, 5):
            assert multiinformation(model) > 0.0
            assert variance(model) > 0.0


def test_c11_scalar_cgf_half_log_form():
    with criterion("C11 scalar CGF half-log form", 1.0):
        rho = 0.5
        model = scalar_pair_model(rho)
        for t in np.linspace(-1.9, 1.9, 15):
            t = float(t)
            general = cgf(model, t)
            assert abs(scalar_pair_cgf(rho, t) - general) < 1e-12
            # The variant without the 1/2 on the log term misses the general
            # value by exactly half the log term.
            no_half = -(t / 2.0) * math.log1p(-rho * rho) - math.log1p(-t * t * rho * rho)
            assert abs((no_half - general) - (-0.5 * math.log1p(-t * t * rho * rho))) < 1e-12

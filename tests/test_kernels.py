"""The vectorised kernels against the Python loops they replaced.

``_loop_cholesky`` and ``_loop_variance`` are the earlier pivot-loop Cholesky
factorization and pairwise variance sum, kept here as references. The loop
Cholesky uses the per-coordinate pivot threshold d * eps * a_jj of the current
``cholesky_lower``, so the two must name the same failing pivot.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import random_model, random_partition

from infodensity import (
    NotPositiveDefinite,
    OutOfDomain,
    cgf,
    cgf_domain,
    compute_gamma,
    compute_phi,
    cumulants,
    density_at,
    multiinformation,
    validate_model,
    variance,
)
from infodensity._linalg import cholesky_lower

EPS = np.finfo(float).eps


def _loop_cholesky(a):
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    L = np.zeros_like(a)
    for j in range(d):
        threshold = d * EPS * a[j, j]
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > threshold:
            raise NotPositiveDefinite(f"pivot {pivot} at index {j}", pivot_index=j)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _loop_solve(L, b):
    return solve_triangular(L.T, solve_triangular(L, b, lower=True), lower=False)


def _loop_variance(model):
    p = model.partition
    reg_cols = []
    for n in range(p.n_blocks):
        col = p.block_slice(n)
        L_nn = _loop_cholesky(model.covariance[col, col])
        reg_cols.append(_loop_solve(L_nn, model.covariance[:, col].T).T)
    total = 0.0
    for m in range(p.n_blocks):
        row_m = p.block_slice(m)
        for n in range(m + 1, p.n_blocks):
            reg_mn = reg_cols[n][row_m]
            reg_nm = reg_cols[m][p.block_slice(n)]
            total += float(np.sum(reg_mn * reg_nm.T))
    return total


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * d * np.eye(d)


def _pivot_index(factor, a):
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    return exc.value.pivot_index


class TestCholeskyAgainstLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_factor_matches(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(1, 61))
        a = _random_spd(rng, d)
        L = cholesky_lower(a)
        assert np.array_equal(L, np.tril(L))
        tol = 64 * d * EPS * np.linalg.norm(a, 2)
        assert np.max(np.abs(L - _loop_cholesky(a))) <= tol

    def test_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert _pivot_index(cholesky_lower, a) == _pivot_index(_loop_cholesky, a) == 1

    def test_positive_pivot_below_threshold(self):
        r = 1.0 - 2.0**-53
        a = np.array([[1.0, r], [r, 1.0]])
        pivot = 1.0 - r * r
        assert 0.0 < pivot <= 2 * EPS
        assert _pivot_index(cholesky_lower, a) == _pivot_index(_loop_cholesky, a) == 1

    def test_fails_at_later_index(self):
        a = np.eye(5)
        a[3, 0] = a[0, 3] = 0.8
        a[3, 1] = a[1, 3] = 0.8
        assert _pivot_index(cholesky_lower, a) == _pivot_index(_loop_cholesky, a) == 3

    def test_threshold_follows_each_coordinate(self):
        # Pivot 1 is 0.75 * 1e-30, far below eps * max(diag) = eps, yet it is
        # 75% of its own coordinate's variance.
        a = np.array([[1.0, 0.5e-15], [0.5e-15, 1e-30]])
        assert np.max(np.abs(cholesky_lower(a) - _loop_cholesky(a))) <= 64 * 2 * EPS * 1e-15


class TestVarianceAgainstLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_partitions(self, seed):
        rng = np.random.default_rng(1100 + seed)
        d = int(rng.integers(2, 61))
        model = random_model(rng, d=d, sizes=random_partition(rng, d))
        expected = _loop_variance(model)
        assert abs(variance(model) - expected) <= 1e-12 * abs(expected)


class TestCgfGrid:
    @pytest.mark.parametrize("seed", range(6))
    def test_grid_matches_scalar_calls(self, seed):
        rng = np.random.default_rng(1200 + seed)
        model = random_model(rng, d=int(rng.integers(2, 30)))
        gamma = compute_gamma(model)
        dom = cgf_domain(gamma)
        grid = np.linspace(0.95 * dom.lower, 0.95 * dom.upper, 41)
        values = cgf(model, grid, gamma=gamma)
        assert values.shape == grid.shape
        for t, value in zip(grid, values):
            scalar = cgf(model, float(t), gamma=gamma)
            assert isinstance(scalar, float)
            assert abs(value - scalar) <= 1e-13 * max(abs(value), abs(scalar))

    def test_point_outside_raises_with_that_point(self):
        model = validate_model(None, [[1.0, 0.5], [0.5, 1.0]], [1, 1])
        grid = np.array([-1.0, 0.5, 2.5, 1.0, -3.0])
        with pytest.raises(OutOfDomain) as exc:
            cgf(model, grid)
        assert exc.value.t == 2.5
        assert exc.value.domain.upper == pytest.approx(2.0)


class TestFactorOnce:
    def test_model_carries_its_factors(self):
        rng = np.random.default_rng(1300)
        model = random_model(rng, d=7, sizes=[3, 1, 3])
        L, L_B = model.factor, model.block_factor
        assert np.allclose(L @ L.T, model.covariance, rtol=0, atol=1e-12 * np.max(model.covariance))
        for n in range(model.partition.n_blocks):
            sl = model.partition.block_slice(n)
            block = model.diagonal_block(n)
            assert np.allclose(L_B[sl, sl] @ L_B[sl, sl].T, block, rtol=0, atol=1e-12 * np.max(block))
            outside = np.ones(model.dimension, dtype=bool)
            outside[sl] = False
            assert not np.any(L_B[sl][:, outside])
        assert not L.flags.writeable and not L_B.flags.writeable

    def test_analyses_never_refactor(self, monkeypatch):
        rng = np.random.default_rng(1301)
        model = random_model(rng, d=6)

        def refuse(*args, **kwargs):
            raise AssertionError("analysis re-factored a validated model")

        monkeypatch.setattr("infodensity.model.cholesky_lower", refuse)
        monkeypatch.setattr("infodensity.measures.cholesky_lower", refuse)
        gamma = compute_gamma(model)
        compute_phi(model)
        multiinformation(model)
        variance(model)
        cumulants(model, 6, gamma=gamma)
        cgf(model, np.linspace(-0.1, 0.1, 5) * cgf_domain(gamma).half_width)
        density_at(model, model.mean + 1.0)

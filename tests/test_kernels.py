"""The vectorised kernels against the Python loops they replaced.

``_loop_cholesky`` and ``_loop_variance`` are the earlier pivot-loop Cholesky
factorization and pairwise variance sum, kept here as references. The loop
Cholesky uses the per-coordinate pivot threshold d * eps * a_jj of the current
``cholesky_lower``, so the two must name the same failing pivot.
``_coupling_matrix`` is the earlier dense path to G and W, three d x d
solves against the block-diagonal L_B, which it builds from its own LAPACK
factors of the diagonal blocks.

``_reference_normal_block``, ``_reference_sample_density`` and
``_reference_k_statistics`` are the earlier sampler kernels: a chunk's normals
drawn in one call from a generator built here, each chunk mapped through L
and then through P = blockdiag(S_nn)^{-1} - S^{-1}, built from its
definition, in two products, and the third and fourth central moments taken
with ``**3`` and ``**4``. ``_reference_chunk_wide_values`` is the sampler
without tiles: each chunk's normals mapped by the folded kernel in one
chunk-wide product instead of row tiles.
"""

import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    DERANDOMIZED,
    correlation_model,
    density_at,
    diagonal_block,
    phi_from_definition,
    random_block_diagonal_model,
    random_model,
    random_partition,
    record_block_factors,
    sampled_values,
    standard_normal_block,
    two_pass_batch,
)

import infodensity
from infodensity import (
    NotPositiveDefinite,
    OutOfDomain,
    cgf,
    cgf_domain,
    cumulants,
    k_statistics,
    multiinformation,
    sample_density,
    validate_model,
    variance,
)
from infodensity import cli
from infodensity._linalg import _inverse_lower, cholesky_lower
from infodensity.sampling import _folded_kernel, _normal_stream

EPS = np.finfo(float).eps


def _loop_cholesky(a):
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    L = np.zeros_like(a)
    for j in range(d):
        threshold = d * EPS * a[j, j]
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > threshold:
            raise NotPositiveDefinite(f"pivot {float(pivot)!r} at index {j}", pivot_index=j)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _loop_solve(L, b):
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _coupling_matrix(model):
    """(G, W) from H = L_B^{-1} S: G = (L_B^{-T} H)^T, W = L_B^{-1} H^T, diagonal blocks zeroed."""
    block_factor = np.zeros_like(model.covariance)
    for n in range(model.partition.n_blocks):
        sl = model.partition.block_slice(n)
        block_factor[sl, sl] = np.linalg.cholesky(diagonal_block(model, n))
    half = np.linalg.solve(block_factor, model.covariance)
    w = np.linalg.solve(block_factor, half.T)
    g = np.linalg.solve(block_factor.T, half).T
    for start, size in zip(model.partition.offsets, model.partition.block_sizes):
        g[start : start + size, start : start + size] = 0.0
        w[start : start + size, start : start + size] = 0.0
    return g, w


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


def _reference_normal_block(seed, chunk_index, count):
    entropy = np.random.SeedSequence([seed % 2**64, chunk_index])
    return np.random.Generator(np.random.SFC64(entropy)).standard_normal(count)


def _reference_sample_density(model, n, seed, chunk_size):
    d = model.dimension
    L = cholesky_lower(model.covariance)
    phi = phi_from_definition(model)
    info = multiinformation(model)
    parts = []
    for c in range(-(-n // chunk_size)):
        rows = min(chunk_size, n - c * chunk_size)
        z = _reference_normal_block(seed, c, rows * d).reshape(rows, d)
        w = z @ L.T
        parts.append(info + 0.5 * np.einsum("ij,ij->i", w @ phi, w))
    return np.concatenate(parts)


def _reference_chunk_wide_values(model, n, seed, chunk_size):
    d = model.dimension
    kernel = _folded_kernel(model)
    info = multiinformation(model)
    parts = []
    for c in range(-(-n // chunk_size)):
        rows = min(chunk_size, n - c * chunk_size)
        z = _reference_normal_block(seed, c, rows * d).reshape(rows, d)
        parts.append(0.5 * np.einsum("ij,ij->i", z @ kernel, z) + info)
    return np.concatenate(parts)


def _reference_k_statistics(values):
    n = values.size
    nf = float(n)
    k1 = float(np.mean(values))
    centered = values - k1
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    k2 = nf / (nf - 1.0) * m2
    k3 = nf * nf / ((nf - 1.0) * (nf - 2.0)) * m3 if n >= 3 else math.nan
    if n >= 4:
        k4 = nf * nf * ((nf + 1.0) * m4 - 3.0 * (nf - 1.0) * m2 * m2) / (
            (nf - 1.0) * (nf - 2.0) * (nf - 3.0)
        )
    else:
        k4 = math.nan
    return k1, k2, k3, k4


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * d * np.eye(d)


def _pivot_index(factor, a):
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    return exc.value.pivot_index


def _failing_pivot(factor, a):
    """(index, value) of the pivot that ``factor`` refuses, the value read from its message."""
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    return exc.value.pivot_index, float(re.search(r"pivot (\S+) at index", str(exc.value)).group(1))


def _failing_at(rng, d, j, kind, scale):
    """A d x d matrix whose first failing Cholesky pivot is j, of the given kind.

    a = M diag(p) M^T with M unit lower triangular, entries in {0, +-1/2, +-1},
    pivots p_i in {1/4, 1, 4} except p_j, all scaled by 4^scale. Every factor
    entry is then a power of two or zero and every sum a short dyadic, so any
    order of Cholesky arithmetic computes the pivots exactly. Pivot j is
    negative, or zero, or ("tiny") p_j = 0 with a_jj raised by one unit in the
    last place: positive, but at most eps * a_jj, below the threshold.
    """
    m = np.tril(rng.integers(-2, 3, (d, d)) / 2.0, -1) + np.eye(d)
    if j > 0:
        m[j, j - 1] = 1.0  # a_jj > 0, so "tiny" has a unit to add
    pivots = rng.choice([0.25, 1.0, 4.0], d)
    pivots[j] = -rng.choice([0.25, 1.0, 4.0]) if kind == "negative" else 0.0
    a = (m * pivots) @ m.T * 4.0**scale
    if kind == "tiny":
        a[j, j] += np.spacing(a[j, j])
    return a


# At index 0 a positive pivot is a_00 itself and always passes, so the first
# pivot fails only by its sign.
FAILING_PIVOTS = [("first", "negative"), ("first", "zero")] + [
    (position, kind) for position in ("middle", "last") for kind in ("negative", "zero", "tiny")
]


class TestCholeskyAgainstLoop:
    @pytest.mark.parametrize("position, kind", FAILING_PIVOTS)
    @DERANDOMIZED
    @given(d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), scale=st.integers(-100, 100))
    def test_failing_pivot_matches_loop(self, position, kind, d, seed, scale):
        j = {"first": 0, "middle": d // 2, "last": d - 1}[position]
        assume(j > 0 or kind != "tiny")  # d = 1
        a = _failing_at(np.random.default_rng(seed), d, j, kind, scale)
        index, pivot = _failing_pivot(cholesky_lower, a)
        loop_index, loop_pivot = _failing_pivot(_loop_cholesky, a)
        assert index == loop_index == j
        # The message prints 6 significant digits.
        assert abs(pivot - loop_pivot) <= 1e-5 * abs(loop_pivot)

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
        dom = cgf_domain(model)
        grid = np.linspace(0.95 * dom.lower, 0.95 * dom.upper, 41)
        values = cgf(model, grid)
        assert values.shape == grid.shape
        for t, value in zip(grid, values):
            scalar = cgf(model, float(t))
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
        L, diagonal = model.factor, model.block_factor_diagonal
        assert np.allclose(L @ L.T, model.covariance, rtol=0, atol=1e-12 * np.max(model.covariance))
        assert diagonal.shape == (model.dimension,)
        for n in range(model.partition.n_blocks):
            sl = model.partition.block_slice(n)
            block = diagonal_block(model, n)
            # diag(L_n) of the block's own factor; the squares are its pivots, whose product is det(S_nn).
            assert np.array_equal(diagonal[sl], np.diagonal(np.linalg.cholesky(block)))
            assert np.prod(np.square(diagonal[sl])) == pytest.approx(np.linalg.det(block), rel=1e-12)
        assert not L.flags.writeable and not diagonal.flags.writeable

    def test_analyses_never_refactor(self, monkeypatch):
        rng = np.random.default_rng(1301)
        model = random_model(rng, d=6)

        def refuse(*args, **kwargs):
            raise AssertionError("analysis re-factored a validated model")

        monkeypatch.setattr("infodensity.model.cholesky_lower", refuse)
        # The measures module cannot factor or invert a model: it binds neither routine.
        assert not hasattr(infodensity.measures, "cholesky_lower")
        assert not hasattr(infodensity.measures, "_inverse_lower")
        multiinformation(model)
        variance(model)
        cumulants(model, 6)
        cgf(model, np.linspace(-0.1, 0.1, 5) * cgf_domain(model).half_width)
        density_at(model, model.mean + 1.0)

    def test_sampler_reads_stored_factor(self, monkeypatch):
        model = random_model(np.random.default_rng(1302), d=6)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return cholesky_lower(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("infodensity") and hasattr(module, "cholesky_lower"):
                monkeypatch.setattr(module, "cholesky_lower", counted)
        assert sample_density(model, 5000, seed=3, threads=1).n == 5000
        assert calls[0] == 0


class TestCouplingFromHalfSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_gamma_matrix_matches_coupling_matrix(self, seed):
        rng = np.random.default_rng(1400 + seed)
        d = int(rng.integers(2, 41))
        model = random_model(rng, d=d, sizes=random_partition(rng, d))
        g = model.gamma
        expected, _ = _coupling_matrix(model)
        assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))
        for start, size in zip(model.partition.offsets, model.partition.block_sizes):
            assert not np.any(g[start : start + size, start : start + size])


class TestCouplingOnce:
    def test_formed_once_per_model(self, capsys, tmp_path, monkeypatch):
        path = self._model_file(tmp_path, 24)
        calls = [0]
        original = infodensity.model.compute_gamma

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(infodensity.model, "compute_gamma", counted)
        argv = ["analyze", path, "--cumulants", "8", "--t-grid=-0.1:0.1:11", "--oracle-max-l", "3"]
        assert cli.main(argv + ["--mc-n", "2000"]) == 0
        capsys.readouterr()
        assert calls[0] == 1
        rng = np.random.default_rng(1450)
        model = random_model(rng, d=7, sizes=[3, 1, 3])
        scales, corr = correlation_model(model)
        # The correlation model's own G~ = D^{-1} G D, not the parent's G.
        assert not np.array_equal(corr.gamma, model.gamma)
        expected = model.gamma * np.outer(1.0 / scales, scales)
        assert np.max(np.abs(corr.gamma - expected)) <= 1e-10 * np.max(np.abs(expected))

    @staticmethod
    def _count_dense_calls(monkeypatch, d, modules=("model", "_linalg")):
        """Count inversions of a d x d factor, per calling module, and spectra."""
        counts = {**dict.fromkeys(modules, 0), "eigvalsh": 0}
        for module in modules:

            def counting_inverse(L, _module=module):
                if np.shape(L) == (d, d):
                    counts[_module] += 1
                return _inverse_lower(L)

            monkeypatch.setattr(f"infodensity.{module}._inverse_lower", counting_inverse)
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(*args, **kwargs):
            counts["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        return counts

    @staticmethod
    def _model_file(tmp_path, d, sizes=None):
        rng = np.random.default_rng(1451)
        model = random_model(rng, d=d, sizes=sizes or [d // 4] * 4)
        path = tmp_path / "model.json"
        doc = {"covariance": model.covariance.tolist(), "partition": list(model.partition.block_sizes)}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_analyze_solves_no_dense_system(self, capsys, tmp_path, monkeypatch):
        path = self._model_file(tmp_path, 24)
        counts = self._count_dense_calls(monkeypatch, 24)
        assert cli.main(["analyze", path, "--cumulants", "8", "--t-grid=-0.1:0.1:11"]) == 0
        capsys.readouterr()
        # compute_gamma inverts the 6 x 6 block factors only; one spectrum.
        assert counts == {"model": 0, "_linalg": 0, "eigvalsh": 1}

    def test_simulate_solves_no_dense_system(self, capsys, tmp_path, monkeypatch):
        path = self._model_file(tmp_path, 20)
        counts = self._count_dense_calls(monkeypatch, 20, modules=("model", "_linalg", "sampling"))
        assert cli.main(["simulate", path, "--n", "2000", "--threads", "1"]) == 0
        capsys.readouterr()
        # K = L^{-1} G L: the stored factor of S is inverted once, by the sampler, and no P is formed.
        assert counts == {"model": 0, "_linalg": 0, "sampling": 1, "eigvalsh": 1}

    def test_analyze_lapack_calls_are_two_choleskys_and_one_eigvalsh(self, capsys, tmp_path, monkeypatch):
        path = self._model_file(tmp_path, 12, sizes=[1] * 12)
        calls = [0]
        lapack = {}

        def counted(*args, **kwargs):
            calls[0] += 1
            return cholesky_lower(*args, **kwargs)

        for name in ("cholesky", "eigvalsh", "eigh", "eigvals", "eig", "inv", "solve", "lstsq", "det", "slogdet"):

            def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                lapack.setdefault(_name, []).append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for name, module in list(sys.modules.items()):
            if name.startswith("infodensity") and hasattr(module, "cholesky_lower"):
                monkeypatch.setattr(module, "cholesky_lower", counted)
        assert cli.main(["analyze", path, "--cumulants", "8", "--t-grid=-0.1:0.1:11"]) == 0
        capsys.readouterr()
        # cholesky_lower factors the covariance only: the twelve 1 x 1 blocks
        # are one stacked potrf, one call per block size, and need no inverse,
        # so numpy's LAPACK sees those two factorizations and the one spectrum.
        assert calls[0] == 1
        assert lapack == {"cholesky": [(12, 12), (12, 1, 1)], "eigvalsh": [(12, 12)]}

    def test_block_factors_inverted_one_stack_per_size(self, capsys, tmp_path, monkeypatch):
        path = self._model_file(tmp_path, 32, sizes=[1, 2, 1, 1, 3] * 4)
        inverted = []
        inv = np.linalg.inv

        def counting(a, *args, **kwargs):
            inverted.append(np.shape(a))
            return inv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting)
        assert cli.main(["analyze", path, "--cumulants", "8", "--t-grid=-0.1:0.1:11"]) == 0
        capsys.readouterr()
        # The four blocks of size 2 and the four of size 3 are each one stack; the
        # size-1 blocks are scalings and need no inverse.
        assert inverted == [(4, 2, 2), (4, 3, 3)]


class TestBlockStructuredCoupling:
    PARTITIONS = {"scalar": [1] * 30, "four-blocks": [6] * 4, "mixed": [1, 3, 1, 5, 2], "large": [130, 70]}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(PARTITIONS))
    def test_matches_dense_reference(self, kind, seed):
        sizes = self.PARTITIONS[kind]
        model = random_model(np.random.default_rng(1460 + seed), d=sum(sizes), sizes=sizes)
        g, w = _coupling_matrix(model)
        assert np.max(np.abs(model.gamma - g)) <= 1e-12 * np.max(np.abs(g))
        expected = np.linalg.eigvalsh((w + w.T) / 2.0)
        lam = model.gamma_eigenvalues
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", sorted(PARTITIONS))
    def test_block_factor_as_per_block_cholesky(self, kind, monkeypatch):
        # The per-size stacks that compute_gamma inverts, one per size above 1, and the model's diag(L_B).
        received = record_block_factors(monkeypatch)
        sizes = self.PARTITIONS[kind]
        model = random_model(np.random.default_rng(1470), d=sum(sizes), sizes=sizes)
        expected = {}
        for n in range(model.partition.n_blocks):
            sl = model.partition.block_slice(n)
            expected.setdefault(sizes[n], []).append(cholesky_lower(model.covariance[sl, sl]))
        assert [stack.shape[-1] for stack in received] == sorted(b for b in expected if b > 1)
        for stack in received:
            assert np.array_equal(stack, np.array(expected[stack.shape[-1]])), stack.shape
        diagonal = [np.diagonal(expected[b][sizes[:n].count(b)]) for n, b in enumerate(sizes)]
        assert np.array_equal(model.block_factor_diagonal, np.concatenate(diagonal))

    @pytest.mark.parametrize("b", [2, 50, 100, 130])
    def test_stacked_inverse_matches_each_block(self, b):
        # b = 2 and 50 are inverted by LAPACK alone; 100 and 130 recurse through halves.
        rng = np.random.default_rng(1490 + b)
        stack = np.array([np.linalg.cholesky(_random_spd(rng, b)) for _ in range(3)])
        inverses = _inverse_lower(stack)
        assert inverses.shape == stack.shape
        for inverse, factor in zip(inverses, stack):
            assert np.array_equal(inverse, _inverse_lower(factor))

    def test_scalar_factors_as_one_by_one_cholesky(self):
        tiny = np.finfo(float).tiny
        variances = [1.0, 2.0, 1e-300, 5e-324, tiny, 1e300, 3.7]
        model = validate_model(None, np.diag(variances), [1] * len(variances))
        factors = [cholesky_lower(np.array([[v]]))[0, 0] for v in variances]
        assert np.array_equal(model.block_factor_diagonal, factors)

    def test_eigvalsh_matches_numpy(self):
        # The symmetric solver's spectrum of W - I against the general solver on G itself.
        model = random_model(np.random.default_rng(1480), d=40, sizes=[10, 1, 9, 20])
        expected = np.sort(np.linalg.eigvals(model.gamma).real)
        lam = model.gamma_eigenvalues
        assert np.max(np.abs(lam - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSamplerAgainstTwoProducts:
    # n = 2503 is a multiple of neither the chunk size nor the 2048-row tile
    # height; each 1000-draw chunk is one tile at every d, so tile boundaries
    # are left to test_tiles_match_chunk_wide_product.
    @pytest.mark.parametrize("d", [2, 20, 100, 128, 200, 600])
    def test_folded_kernel_matches_two_products(self, set_chunk_size, d):
        set_chunk_size(1000)
        rng = np.random.default_rng(1500 + d)
        model = random_model(rng, d=d, sizes=random_partition(rng, d, max_blocks=5))
        values = sampled_values(model, 2503, seed=77)
        expected = _reference_sample_density(model, 2503, 77, 1000)
        assert values.shape == expected.shape
        assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    # 4500-draw chunks run as tiles of 2048, 2048 and 404 rows, and the last
    # chunk as one row; each value must be the chunk-wide product's bit for bit.
    # Except at d = 20: there the tile products (up to 2048 * 20**2 = 819,200
    # multiply-adds) are within the 10**6 up to which OpenBLAS runs its
    # small-matrix kernel on AVX-512 hosts, and the chunk-wide one (1.8e6) is
    # not; the two kernels sum in different orders, so the values agree to rounding.
    @pytest.mark.parametrize("d", [2, 20, 128, 200, 600])
    def test_tiles_match_chunk_wide_product(self, set_chunk_size, d):
        set_chunk_size(4500)
        rng = np.random.default_rng(1540 + d)
        model = random_model(rng, d=d, sizes=random_partition(rng, d, max_blocks=5))
        values = sampled_values(model, 9001, seed=13)
        expected = _reference_chunk_wide_values(model, 9001, 13, 4500)
        if d == 20:
            assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        else:
            assert np.array_equal(values, expected)

    @pytest.mark.parametrize("seed", [0, 9, 2**64 + 3, -1])
    @pytest.mark.parametrize("count", [1, 2, 999, 4096])
    def test_normals_bit_identical(self, seed, count):
        assert np.array_equal(
            standard_normal_block(seed, 3, count), _reference_normal_block(seed, 3, count)
        )

    @pytest.mark.parametrize("seed", [4, 2**64 - 1])
    def test_normals_over_uneven_tiles_bit_identical(self, seed):
        pieces = [1, 7, 0, 655, 2**15 + 3, 2, 2**16, 13100]
        stream = _normal_stream(seed, 5)
        streamed = np.empty(sum(pieces))
        start = 0
        for size in pieces:
            stream.standard_normal(out=streamed[start : start + size])
            start += size
        assert np.array_equal(streamed, _reference_normal_block(seed, 5, streamed.size))

    # At d <= 64 every d x d product of the set-up is also at most 2**18
    # multiply-adds; above that the set-up's own BLAS/LAPACK calls may round
    # differently with their thread count (seen at d = 100 and d = 128). So at
    # d = 200 the children unpickle the parent's validated model, and what is
    # compared is ``sample_density`` on 2 threads, the kernel set-up included.
    # One child runs at OpenBLAS's default thread count and one at 1, so two
    # settings are compared whatever ``OPENBLAS_NUM_THREADS`` this process has.
    @pytest.mark.parametrize("d", [20, 64, 200])
    def test_output_independent_of_blas_threads(self, tmp_path, set_chunk_size, d):
        chunk_size = 1000 if d <= 64 else 2500
        set_chunk_size(chunk_size)
        rng = np.random.default_rng(1530 + d)
        sizes = [d // 4] * 4
        cov = random_model(rng, d=d, sizes=sizes).covariance
        model = validate_model(None, cov, sizes)
        np.save(tmp_path / "cov.npy", cov)
        (tmp_path / "model.pickle").write_bytes(pickle.dumps(model))
        if d <= 64:
            load = f"validate_model(None, np.load(sys.argv[1]), {sizes})"
            summary = "hashlib.sha256(sampled_values(model, 5003, seed=8).tobytes()).hexdigest()"
            expected = hashlib.sha256(sampled_values(model, 5003, seed=8).tobytes()).hexdigest()
        else:
            load = "pickle.loads(open(sys.argv[2], 'rb').read())"
            summary = "repr(sample_density(model, 5003, seed=8, threads=2))"
            expected = repr(sample_density(model, 5003, seed=8, threads=2))
        script = (
            "import hashlib, pickle, sys, numpy as np\n"
            "from conftest import sampled_values\n"
            "from infodensity import sample_density, sampling, validate_model\n"
            f"sampling.CHUNK_SIZE = {chunk_size}\n"
            f"model = {load}\n"
            f"print({summary})\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(infodensity.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / "cov.npy"), str(tmp_path / "model.pickle")],
                env=child_env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for child_env in (env, dict(env, OPENBLAS_NUM_THREADS="1"))
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
            assert out.strip() == expected


class TestFoldedKernelUnderWeakCoupling:
    # S = blockdiag(S_nn) + eps (A + A^T) couples the blocks at order eps, and K must keep the
    # coupling spectrum to a relative 64 d u, a bound fixed before the test first ran. A kernel
    # formed as a product of the factors minus I, such as L^T S_B^{-1} L - I, cancels I against
    # I + O(eps) and misses the spectrum by about u / eps relative.
    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("sizes", [[2, 3, 4], [50] * 4], ids=["2+3+4", "4x50"])
    def test_symmetric_part_keeps_the_spectrum(self, sizes, eps):
        rng = np.random.default_rng(1620)
        d = sum(sizes)
        a = rng.standard_normal((d, d))
        cov = random_block_diagonal_model(rng, sizes).covariance + eps * (a + a.T)
        model = validate_model(None, cov, sizes)
        kernel = _folded_kernel(model)
        lam = model.gamma_eigenvalues
        spectrum = np.linalg.eigvalsh((kernel + kernel.T) / 2.0)
        assert np.max(np.abs(spectrum - lam)) <= 64 * d * (EPS / 2) * np.max(np.abs(lam))


class TestKStatisticsAgainstPow:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 200_001])
    def test_matches_pow_reference(self, n):
        rng = np.random.default_rng(1600 + n)
        values = rng.gamma(2.0, 1.5, n) - 1.0
        stats = k_statistics(two_pass_batch(values))
        for a, b in zip(stats.values, _reference_k_statistics(values), strict=True):
            if math.isnan(b):
                assert math.isnan(a)
            else:
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_input_array_left_unchanged(self):
        values = np.random.default_rng(1610).standard_normal(100)
        before = values.copy()
        k_statistics(two_pass_batch(values))
        assert np.array_equal(values, before)

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    correlation_model,
    phi_from_definition,
    random_block_diagonal_model,
    random_model,
    record_block_factors,
    scalar_pair_model,
)

from infodensity import (
    BadPartition,
    DimensionMismatch,
    EigenvalueOutOfRange,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    Partition,
    cumulants,
    density_at,
    density_at_direct,
    model_fingerprint,
    multiinformation,
    validate_model,
    variance,
)
from infodensity._linalg import cholesky_lower


class TestValidateModel:
    def test_valid_scalar_pair(self):
        model = validate_model([0, 0], [[1, 0.5], [0.5, 1]], [1, 1])
        assert model.dimension == 2
        assert model.partition.block_sizes == (1, 1)

    def test_indefinite_correlation_rejected(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_model([0, 0], [[1, 1.5], [1.5, 1]], [1, 1])
        assert exc.value.pivot_index == 1

    @pytest.mark.parametrize("scales", [(1e-10, 1.0), (1e-75, 1e75)])
    def test_pd_check_is_scale_free(self, scales):
        # Variances (1e-20, 1) failed the earlier d * eps * max(diag) threshold.
        s = np.asarray(scales)
        cov = np.array([[1.0, 0.5], [0.5, 1.0]]) * np.outer(s, s)
        model = validate_model(None, cov, [1, 1])
        assert math.isclose(multiinformation(model), -0.5 * math.log(0.75), rel_tol=0, abs_tol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("partition", [[1, 1, 1], [2, 1], [1, 2]])
    @pytest.mark.parametrize("scale", [1e-150, 1e150, 1.3e154])
    def test_rescaling_accepted_up_to_the_double_range(self, scale, partition):
        # At 1.3e154 the rescaled variances are 1.69e308, and s_ij + s_ji overflows.
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        s = np.array([scale, 1.0, scale])
        unit = validate_model(None, cov, partition)
        scaled = validate_model(None, cov * np.outer(s, s), partition)
        for measure in (multiinformation, variance, lambda model: cumulants(model, 4).values[1:]):
            for expected, value in zip(np.atleast_1d(measure(unit)), np.atleast_1d(measure(scaled))):
                assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariance_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            validate_model([0, 0], [[1.0, bad], [bad, 1.0]], [1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            validate_model([bad, 0.0], np.eye(2), [1, 1])

    def test_partition_sum_mismatch(self):
        with pytest.raises(BadPartition):
            validate_model([0, 0, 0], np.eye(3), [2, 2])

    def test_single_block_rejected(self):
        with pytest.raises(BadPartition):
            validate_model([0, 0], np.eye(2), [2])

    @pytest.mark.parametrize("n", [-1, 2])
    def test_block_slice_out_of_range(self, n):
        with pytest.raises(IndexError, match=f"block index {n} out of range for 2 blocks"):
            Partition((2, 1)).block_slice(n)

    def test_zero_block_size_rejected(self):
        with pytest.raises(BadPartition):
            Partition((2, 0))

    @pytest.mark.parametrize(
        "sizes", [[1.5, 1.5, 1], [2.5, 0.5], [math.nan, 1], [math.inf, 1], [2, True], [np.bool_(True), 2]]
    )
    def test_non_integral_block_size_rejected(self, sizes):
        with pytest.raises(BadPartition):
            Partition(tuple(sizes))
        with pytest.raises(BadPartition):
            validate_model(None, np.eye(3), sizes)

    def test_integral_block_sizes_of_any_type_accepted(self):
        assert Partition((2.0, np.int64(1))).block_sizes == (2, 1)
        model = validate_model(None, np.eye(3), np.array([2, 1]))
        assert model.partition.block_sizes == (2, 1)

    def test_mean_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_model([0, 0, 0], np.eye(2), [1, 1])

    @pytest.mark.parametrize(
        "mean, d, shape", [([[1, 2], [3, 4]], 4, "(2, 2)"), ([[0, 0]], 2, "(1, 2)"), (0.0, 2, "()")]
    )
    def test_mean_not_a_vector_rejected(self, mean, d, shape):
        # Not flattened: a 2 x 2 mean is not the vector [1, 2, 3, 4] of a d = 4 model.
        with pytest.raises(DimensionMismatch, match=rf"mean has shape {re.escape(shape)}, covariance is {d}x{d}"):
            validate_model(mean, np.eye(d), [1] * d)

    def test_nonsquare_covariance(self):
        with pytest.raises(DimensionMismatch):
            validate_model([0, 0], np.ones((2, 3)), [1, 1])

    def test_small_asymmetry_symmetrized(self):
        cov = np.array([[1.0, 0.5 + 1e-10], [0.5, 1.0]])
        model = validate_model([0, 0], cov, [1, 1])
        assert np.array_equal(model.covariance, model.covariance.T)
        # Averaged by halves; the diagonal, equal to its mirror, and the caller's array are left as they are.
        assert model.covariance[0, 1] == (0.5 + 1e-10) / 2.0 + 0.5 / 2.0
        assert np.array_equal(np.diagonal(model.covariance), [1.0, 1.0])
        assert cov.flags.writeable and not np.shares_memory(model.covariance, cov)

    def test_entries_equal_to_their_mirror_kept_bit_for_bit(self):
        # Halving 5e-324 gives 0, and 1.5e-323 / 2 + 1.5e-323 / 2 gives 2e-323.
        for cov in (np.diag([1.0, 5e-324]), np.array([[1.0, 1.5e-323], [1.5e-323, 1.0]])):
            model = validate_model(None, cov, [1, 1])
            assert np.array_equal(model.covariance, cov)

    def test_large_asymmetry_rejected(self):
        cov = np.array([[1.0, 0.6], [0.5, 1.0]])
        with pytest.raises(NotSymmetric) as exc:
            validate_model([0, 0], cov, [1, 1])
        assert str(exc.value) == "covariance asymmetry 0.1 at (0, 1) exceeds 1e-08 * sqrt(|s_ii s_jj|) = 1e-08"

    def test_asymmetry_rejected_at_every_scale(self):
        # The rescaled copy's asymmetry, about 1e-101, is far below 1e-8 * max|S|,
        # so only a bound per pair rejects it.
        r = np.array([[1.0, 0.5, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        d = np.diag([1e-50, 1e-50, 1e100])
        for cov in (r, d @ r @ d):
            with pytest.raises(NotSymmetric, match=r"at \(0, 1\)"):
                validate_model(None, cov, [1, 1, 1])

    @staticmethod
    def _law_covariance(d):
        """The benchmark's law S = A A^T + 0.5 d I, averaged with its transpose."""
        a = np.random.default_rng(41).standard_normal((d, d))
        s = a @ a.T + 0.5 * d * np.eye(d)
        return (s + s.T) / 2.0

    def test_exactly_symmetric_covariance_kept_without_repair(self, monkeypatch):
        def refused(a):
            raise AssertionError("an exactly symmetric covariance went through the repair")

        monkeypatch.setattr("infodensity.model.symmetrize", refused)
        pair = np.eye(3)
        pair[0, 2] = -0.0  # a +-0.0 mirror pair: equal, though their bits differ
        for cov, sizes in ((self._law_covariance(200), [50] * 4), (pair, [1, 2]), (np.diag([1.0, 5e-324]), [1, 1])):
            model = validate_model(None, cov, sizes)
            assert np.array_equal(model.covariance.view(np.uint64), cov.view(np.uint64))
            assert cov.flags.writeable and not np.shares_memory(model.covariance, cov)

    def test_fortran_ordered_input_gives_the_same_bits(self):
        cov = self._law_covariance(200)
        expected = validate_model(None, cov, [50] * 4)
        model = validate_model(None, np.asfortranarray(cov), [50] * 4)
        assert model.covariance.flags.c_contiguous
        for name in ("covariance", "factor", "block_factor_diagonal", "gamma", "gamma_eigenvalues"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name

    def test_default_mean_is_zero(self):
        model = validate_model(None, np.eye(3), [1, 2])
        assert np.array_equal(model.mean, np.zeros(3))

    def test_model_arrays_read_only_and_apart_from_the_inputs(self):
        mean = np.array([0.5, -1.0, 2.0])
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        model = validate_model(mean, cov, [1, 2])
        assert mean.flags.writeable and cov.flags.writeable
        assert not np.shares_memory(model.mean, mean) and not np.shares_memory(model.covariance, cov)
        arrays = [f.name for f in dataclasses.fields(model) if isinstance(getattr(model, f.name), np.ndarray)]
        assert arrays == ["mean", "covariance", "factor", "block_factor_diagonal", "gamma", "gamma_eigenvalues"]
        for name in arrays:
            assert not getattr(model, name).flags.writeable, name

    @staticmethod
    def _stacks_fail(monkeypatch, sizes):
        """Make numpy's factorization of a stack of b x b blocks raise for each b in ``sizes``."""
        cholesky = np.linalg.cholesky

        def failing(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[-1] in sizes:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing)

    @staticmethod
    def _spied_cholesky(monkeypatch, fail=None, covariance_passes=False):
        """Record the ``what`` of each ``cholesky_lower`` call of validation, in order.

        ``fail`` names a call that raises instead. With ``covariance_passes``
        the covariance's check is skipped, so that its diagonal blocks can fail
        on their own: a covariance that passes its own check passes every
        diagonal block's.
        """
        factored = []

        def spied(a, what="matrix"):
            factored.append(what)
            if what == fail:
                raise NotPositiveDefinite(f"{what} is not positive definite", pivot_index=2)
            if covariance_passes and what == "covariance":
                return np.eye(len(a))
            return cholesky_lower(a, what=what)

        monkeypatch.setattr("infodensity.model.cholesky_lower", spied)
        return factored

    def test_diagonal_block_failure_names_the_block(self, monkeypatch):
        # Both stacks fail, so every block goes through cholesky_lower, and block 1's raises.
        self._stacks_fail(monkeypatch, {2, 3})
        factored = self._spied_cholesky(monkeypatch, fail="diagonal block 1")
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_model(None, np.eye(5) + 0.1, [2, 3])
        assert factored == ["covariance", "diagonal block 0", "diagonal block 1"]
        assert str(exc.value) == "diagonal block 1 is not positive definite"
        assert exc.value.pivot_index == 2

    def test_failed_scalar_block_goes_through_cholesky(self, monkeypatch):
        cov = np.eye(5) + 0.1 * np.arange(1, 6)[:, None] * np.arange(1, 6) / 5
        reference = validate_model(None, cov, [1, 2, 1, 1])
        received = record_block_factors(monkeypatch)
        self._stacks_fail(monkeypatch, {1})
        factored = self._spied_cholesky(monkeypatch)
        model = validate_model(None, cov, [1, 2, 1, 1])
        # The size-1 blocks, in block order; the 2 x 2 block's stack passed.
        assert factored == ["covariance", "diagonal block 0", "diagonal block 2", "diagonal block 3"]
        assert np.array_equal(model.block_factor_diagonal, reference.block_factor_diagonal)
        assert np.array_equal(model.gamma, reference.gamma)
        # Each re-factored block went back into its stack, whose diagonal the model keeps
        # and the size-1 scaling reads; the one stack inverted, the 2 x 2 block's, has the
        # bits of one potrf.
        scalars = [np.linalg.cholesky(model.diagonal_block(n))[0, 0] for n in (0, 2, 3)]
        assert np.array_equal(model.block_factor_diagonal[[0, 3, 4]], scalars)
        (stack,) = received
        assert np.array_equal(stack, np.linalg.cholesky(model.diagonal_block(1))[None])

    def test_first_failing_block_named_across_sizes(self, monkeypatch):
        # Blocks 0 (size 3) and 1 (size 1) of [3, 1, 2, 1] are not positive
        # definite, so both stacks fail; the size-1 stack is factored first,
        # but the error names block 0, the first in block order.
        cov = np.eye(7)
        cov[:3, :3] = [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
        cov[3, 3] = -1.0
        with pytest.raises(NotPositiveDefinite) as expected:
            cholesky_lower(cov[:3, :3], what="diagonal block 0")
        factored = self._spied_cholesky(monkeypatch, covariance_passes=True)
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_model(None, cov, [3, 1, 2, 1])
        assert factored == ["covariance", "diagonal block 0"]
        assert str(exc.value) == str(expected.value)
        assert exc.value.pivot_index == expected.value.pivot_index == 2

    def test_failed_pivot_goes_through_cholesky(self, monkeypatch):
        # potrf factors [[1, r], [r, 1]] with r = 1 - eps / 2, but its pivot 1 - r^2
        # is not above 2 eps, so the stack passes and the pivot check sends the
        # block to cholesky_lower.
        r = 1.0 - np.finfo(float).eps / 2
        cov = np.eye(4)
        cov[2:, 2:] = [[1.0, r], [r, 1.0]]
        factored = self._spied_cholesky(monkeypatch, covariance_passes=True)
        with pytest.raises(NotPositiveDefinite, match="^diagonal block 1 is not positive definite: pivot ") as exc:
            validate_model(None, cov, [2, 2])
        assert factored == ["covariance", "diagonal block 1"]
        assert exc.value.pivot_index == 1

    def test_invalid_spectrum_rejected(self):
        # Equicorrelation at d = 50 with rho = 1 - 50 eps passes every pivot
        # check, but its computed spectrum has 1 + lambda_min = -8.88e-16.
        d = 50
        cov = np.full((d, d), 1.0 - 50 * np.finfo(float).eps)
        np.fill_diagonal(cov, 1.0)
        with pytest.raises(EigenvalueOutOfRange, match=r"^coupling spectrum has 1 \+ lambda_min = "):
            validate_model(None, cov, [1] * d)


def gamma_block(model, m, n):
    """Block (m, n) of G, the regression coefficients C_{m|n} = S_mn S_nn^{-1}."""
    return model.gamma[model.partition.block_slice(m), model.partition.block_slice(n)]


class TestRegressionBlock:
    """The regression coefficients C_{m|n} are read from G's off-diagonal blocks."""

    def test_scalar_pair(self):
        model = scalar_pair_model(0.5)
        assert gamma_block(model, 0, 1) == pytest.approx(np.array([[0.5]]))
        assert gamma_block(model, 1, 0) == pytest.approx(np.array([[0.5]]))

    def test_unequal_variances(self):
        # Block (m, n) regresses block m on block n: S_01 / S_11 = 1 and S_10 / S_00 = 0.25.
        model = validate_model([0, 0], [[4, 1], [1, 1]], [1, 1])
        assert np.array_equal(model.gamma, [[0.0, 1.0], [0.25, 0.0]])
        assert model.gamma_eigenvalues == pytest.approx([-0.5, 0.5])

    def test_block_diagonal_gives_zero(self):
        model = random_block_diagonal_model(np.random.default_rng(5), [2, 3])
        assert np.array_equal(gamma_block(model, 0, 1), np.zeros((2, 3)))
        assert np.array_equal(gamma_block(model, 1, 0), np.zeros((3, 2)))
        assert np.array_equal(model.gamma_eigenvalues, np.zeros(5))


class TestComputeGamma:
    def test_identity_covariance(self):
        model = validate_model(None, np.eye(4), [2, 2])
        assert np.array_equal(model.gamma, np.zeros((4, 4)))
        assert np.max(np.abs(model.gamma_eigenvalues)) < 1e-13
        assert not model.gamma.flags.writeable and not model.gamma_eigenvalues.flags.writeable

    def test_scalar_pair(self):
        model = scalar_pair_model(0.5)
        assert model.gamma == pytest.approx(np.array([[0, 0.5], [0.5, 0]]))
        assert model.gamma_eigenvalues == pytest.approx([-0.5, 0.5])

    def test_equicorrelation_spectrum(self):
        cov = np.full((3, 3), 0.5)
        np.fill_diagonal(cov, 1.0)
        model = validate_model(None, cov, [1, 1, 1])
        assert sorted(model.gamma_eigenvalues) == pytest.approx([-0.5, -0.5, 1.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        d = model.dimension
        diag = np.zeros((d, d))
        for n in range(model.partition.n_blocks):
            sl = model.partition.block_slice(n)
            diag[sl, sl] = model.diagonal_block(n)
        direct = model.covariance @ np.linalg.inv(diag) - np.eye(d)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(model.gamma - direct)) < 1e-10 * scale
        # exact-zero diagonal blocks and exact-zero trace
        for n in range(model.partition.n_blocks):
            sl = model.partition.block_slice(n)
            assert np.array_equal(model.gamma[sl, sl], np.zeros_like(model.gamma[sl, sl]))
        assert np.trace(model.gamma) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_eigenvalues_real_above_minus_one(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(rng)
        assert model.gamma_eigenvalues.min() > -1.0
        # spectrum of the similar symmetric matrix matches the raw matrix
        raw = np.sort(np.linalg.eigvals(model.gamma).real)
        assert np.max(np.abs(raw - np.sort(model.gamma_eigenvalues))) < 1e-9


class TestComputePhi:
    """The kernel P of the density I + r^T P r / 2, which the package never forms.

    ``density_at`` takes r^T P r from L and G; these checks hold it to P as
    ``phi_from_definition`` builds it here.
    """

    def test_identity_covariance(self):
        model = validate_model(None, np.eye(3), [1, 2])
        for x in ([0.0, 0.0, 0.0], [1.0, -2.0, 3.0]):
            assert density_at(model, x) == 0.0

    def test_scalar_pair_closed_form(self):
        model = scalar_pair_model(0.5)
        phi = np.array([[-1 / 3, 2 / 3], [2 / 3, -1 / 3]])
        assert phi_from_definition(model) == pytest.approx(phi)
        info = multiinformation(model)
        for x in np.random.default_rng(16).standard_normal((10, 2)) * 2.0:
            assert density_at(model, x) - info == pytest.approx(0.5 * x @ phi @ x, rel=1e-12, abs=1e-15)

    def test_block_diagonal_gives_exact_zero(self):
        rng = np.random.default_rng(17)
        model = random_block_diagonal_model(rng, [2, 2, 1])
        info = multiinformation(model)
        for _ in range(10):
            assert density_at(model, model.mean + rng.standard_normal(5) * 3.0) == info

    @pytest.mark.parametrize("seed", range(8))
    def test_definition_and_factorization(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = random_model(rng)
        phi = phi_from_definition(model)
        gamma = model.gamma
        # S P = G, the identity that density_at's quadratic form rests on.
        product = model.covariance @ phi
        assert np.max(np.abs(product - gamma)) < 1e-10 * max(1.0, np.max(np.abs(gamma)))
        info = multiinformation(model)
        for _ in range(5):
            r = rng.standard_normal(model.dimension) * 2.0
            scale = 0.5 * np.abs(r) @ np.abs(phi) @ np.abs(r)
            assert abs(density_at(model, model.mean + r) - info - 0.5 * r @ phi @ r) < 1e-10 * max(1.0, scale)


class TestCorrelationModel:
    def test_explicit_two_by_two(self):
        model = validate_model([0, 0], [[4, 1], [1, 1]], [1, 1])
        scales, corr = correlation_model(model)
        assert scales == pytest.approx([2, 1])
        assert corr.covariance == pytest.approx(np.array([[1, 0.5], [0.5, 1]]))

    def test_already_unit_diagonal(self):
        model = scalar_pair_model(0.3)
        scales, corr = correlation_model(model)
        assert scales == pytest.approx([1, 1])
        assert corr.covariance == pytest.approx(model.covariance)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, d=5)
        scales, corr = correlation_model(model)
        assert np.max(np.abs(np.diagonal(corr.covariance) - 1.0)) < 1e-12
        eig_a = np.sort(model.gamma_eigenvalues)
        eig_b = np.sort(corr.gamma_eigenvalues)
        assert np.max(np.abs(eig_a - eig_b)) < 1e-9

    def test_gamma_similarity(self):
        rng = np.random.default_rng(34)
        model = random_model(rng, d=6)
        scales, corr = correlation_model(model)
        g = model.gamma
        g_tilde = corr.gamma
        recovered = np.diag(scales) @ g_tilde @ np.diag(1.0 / scales)
        assert np.max(np.abs(g - recovered)) < 1e-10 * max(1.0, np.max(np.abs(g)))


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = scalar_pair_model(0.5)
        b = validate_model([0, 0], [[1, 0.5], [0.5, 1]], [1, 1])
        c = scalar_pair_model(0.6)
        assert model_fingerprint(a) == model_fingerprint(b)
        assert model_fingerprint(a) != model_fingerprint(c)

    def test_arrays_hashed_without_a_copy(self):
        # The digest is that of the inputs' little-endian bytes, and forming it holds no
        # copy of the covariance: a .tobytes() copy alone would be d^2 * 8 bytes (1.3 MB).
        d = 400
        model = random_model(np.random.default_rng(40), d=d, sizes=[100] * 4)
        reference = hashlib.sha256(
            b"infodensity-model-v1"
            + np.asarray(model.partition.block_sizes, dtype="<i8").tobytes()
            + np.asarray(model.mean, dtype="<f8").tobytes()
            + np.asarray(model.covariance, dtype="<f8").tobytes()
        ).hexdigest()
        model_fingerprint(model)
        tracemalloc.start()
        try:
            digest = model_fingerprint(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == reference
        assert peak < 0.1 * d * d * 8


class TestNonFinitePoint:
    def test_density_rejects_infinite_point(self):
        model = scalar_pair_model(0.5)
        for density in (density_at, density_at_direct):
            with pytest.raises(NonFiniteInput):
                density(model, [math.inf, 0.0])
            with pytest.raises(NonFiniteInput):
                density(model, [0.0, math.nan])


class TestValidationMemory:
    """What a validated model keeps and what validation peaks at, by ``tracemalloc``.

    The model keeps S, L and G, 3 d^2 doubles, plus O(d): the mean, diag(L_B),
    the spectrum and the partition; no d x d block-diagonal factor. At these
    shapes validation peaks under 6.4 d^2 doubles (5.5, 6.0, 6.2, 6.1 and 6.2
    measured): the blocks' factors are freed once inverted, so a block of
    nearly d adds one d^2, its inverse, beside S, L, H, G and W.
    """

    RETAINED_PER_D = 10
    PEAK_D2 = 6.4

    @pytest.mark.parametrize(
        "sizes",
        [[50] * 4, [1] * 100, [1, 199], [10, 190], [3, 5, 192]],
        ids=["4x50", "100x1", "1+199", "10+190", "3+5+192"],
    )
    def test_retained_and_peak_memory(self, sizes):
        d = sum(sizes)
        cov = random_model(np.random.default_rng(5), d=d, sizes=sizes).covariance.copy()
        validate_model(None, cov, sizes)
        tracemalloc.start()
        try:
            model = validate_model(None, cov, sizes)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.dimension == d
        assert retained <= (3 * d * d + self.RETAINED_PER_D * d) * 8
        assert peak < self.PEAK_D2 * d * d * 8

"""Tests of ``canonical_correlations`` and of the two-block closed forms in ``conftest``.

``_chain_trace`` is the earlier second path to tr(G^l) for even l, kept
here as the reference: the trace of an alternating l-factor product of the
two regression blocks, which ``conftest.regression_block`` solves apart from
G, taken once starting from each block.
"""

import math

import numpy as np
import pytest

from conftest import (
    canonical_correlations,
    random_block_diagonal_model,
    random_model,
    regression_block,
    rel_close,
    scalar_pair_cgf,
    scalar_pair_model,
    squared_multiple_correlation,
    two_block_trace,
)

from infodensity import (
    BadPartition,
    OutOfDomain,
    cgf,
    cumulants,
    validate_model,
    variance,
)


def random_two_block(rng, max_size=4, scalar_first=False):
    n1 = 1 if scalar_first else int(rng.integers(1, max_size + 1))
    n2 = int(rng.integers(1, max_size + 1))
    return random_model(rng, d=n1 + n2, sizes=[n1, n2], zero_mean=True)


def exact_canonical_model(a, b, rho):
    """S = [[A A^T, A C B^T], [B C^T A^T, B B^T]], C zero but for ``rho`` on its diagonal.

    Its canonical correlations are ``rho``, padded with zeros. The A and B used
    below are small integers: each entry of A C B^T is a sum of at most two
    products of a rho with integers, and every such sum is exact in double
    precision, so S holds the model exactly.
    """
    c = np.zeros((len(a), len(b)))
    c[np.diag_indices(len(rho))] = rho
    cross = a @ c @ b.T
    return validate_model(None, np.block([[a @ a.T, cross], [cross.T, b @ b.T]]), [len(a), len(b)])


def _chain_trace(first, second, l):
    """Trace of the alternating product first @ second @ first @ ... of l factors."""
    out = first
    for i in range(1, l):
        out = out @ (second if i % 2 == 1 else first)
    return float(np.trace(out))


class TestAsTwoBlock:
    def test_requires_two_blocks(self):
        model = validate_model(None, np.eye(3), [1, 1, 1])
        odd, even = (lambda m: two_block_trace(m, 3)), (lambda m: two_block_trace(m, 4))
        for analysis in (odd, even, canonical_correlations):
            with pytest.raises(BadPartition):
                analysis(model)

    def test_cross_blocks_are_transposes(self):
        model = random_model(np.random.default_rng(0), d=5, sizes=[2, 3])
        first, second = (model.partition.block_slice(n) for n in (0, 1))
        assert np.array_equal(model.covariance[second, first], model.covariance[first, second].T)


class TestTwoBlockTrace:
    def test_odd_orders_vanish(self):
        tb = random_two_block(np.random.default_rng(1))
        assert two_block_trace(tb, 3) == 0.0
        assert two_block_trace(tb, 5) == 0.0

    def test_scalar_pair_second_order(self):
        assert two_block_trace(scalar_pair_model(0.5), 2) == pytest.approx(0.5, abs=1e-12)

    def test_order_must_be_integral(self):
        model = scalar_pair_model(0.5)
        assert two_block_trace(model, 4.0) == two_block_trace(model, 4)
        for l in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="l must be an integer"):
                two_block_trace(model, l)

    def test_block_diagonal(self):
        model = random_block_diagonal_model(np.random.default_rng(2), [2, 2])
        for l in range(1, 7):
            assert two_block_trace(model, l) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_general_power_trace(self, seed):
        rng = np.random.default_rng(40 + seed)
        model = random_two_block(rng)
        for l in range(1, 9):
            general = float(np.trace(np.linalg.matrix_power(model.gamma, l)))
            assert rel_close(two_block_trace(model, l), general, 1e-9)


class TestChainTraces:
    @pytest.mark.parametrize("seed", range(10))
    def test_duality_for_even_orders(self, seed):
        rng = np.random.default_rng(60 + seed)
        model = random_two_block(rng)
        c01, c10 = regression_block(model, 0, 1), regression_block(model, 1, 0)
        for l in (2, 4, 6, 8):
            left, right = _chain_trace(c01, c10, l), _chain_trace(c10, c01, l)
            assert abs(left - right) < 1e-10 * max(1.0, abs(left))
            assert rel_close(left + right, two_block_trace(model, l), 1e-10)


class TestCanonicalCorrelations:
    def test_block_diagonal_all_zero(self):
        model = random_block_diagonal_model(np.random.default_rng(3), [2, 3])
        assert canonical_correlations(model) == (0.0, 0.0)

    def test_weak_correlation_kept(self):
        # rho^2 = 1e-14 is a real squared correlation, not rounding: it is the variance.
        model = scalar_pair_model(1e-7)
        (value,) = canonical_correlations(model)
        assert abs(value - 1e-14) <= 1e-12 * 1e-14
        assert abs(value - variance(model)) <= 1e-12 * variance(model)

    def test_scalar_pair(self):
        spectrum = canonical_correlations(scalar_pair_model(0.5))
        assert spectrum == pytest.approx((0.25,), abs=1e-12)

    def test_one_against_two(self):
        cov = np.array([[1.0, 0.3, 0.4], [0.3, 1.0, 0.0], [0.4, 0.0, 1.0]])
        model = validate_model(None, cov, [1, 2])
        spectrum = canonical_correlations(model)
        assert spectrum == pytest.approx((0.25,), abs=1e-12)
        assert sum(spectrum) == pytest.approx(variance(model), abs=1e-9)

    # The eigenvalues of Y Y^T gave the first two weak values as 2.8e-17 and
    # 6.9e-18. The whitened block taken left to right, L_0^{-1} S_01 L_1^{-T},
    # gave the second 3.7e-5 off relative, and the route through
    # C_01 = S_01 S_11^{-1} gave the third 2.0e-4 off.
    @pytest.mark.parametrize(
        "a, b, rho",
        [
            (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), (0.9, 1e-9)),
            (
                np.array([[1.0, 1.0], [0.0, 1.0]]),
                np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
                (0.5, 3e-12),
            ),
            (np.array([[1.0, 2.0], [2.0, -2.0]]), np.array([[0.0, 2.0], [-1.0, -2.0]]), (0.75, 2.0**-40)),
        ],
    )
    def test_weak_beside_strong_kept(self, a, b, rho):
        model = exact_canonical_model(a, b, rho)
        strong, weak = canonical_correlations(model)
        assert abs(strong - rho[0] ** 2) <= 1e-12
        assert abs(weak - rho[1] ** 2) <= 1e-9 * rho[1] ** 2
        assert abs(strong + weak - variance(model)) <= 1e-9 * variance(model)
        assert abs(strong + weak - cumulants(model, 2).kappa(2)) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_sum_equals_variance(self, seed):
        rng = np.random.default_rng(80 + seed)
        model = random_two_block(rng)
        spectrum = canonical_correlations(model)
        assert isinstance(spectrum, tuple)
        assert all(0.0 <= v < 1.0 for v in spectrum)
        assert list(spectrum) == sorted(spectrum, reverse=True)
        assert len(spectrum) == min(model.partition.block_sizes)
        assert abs(sum(spectrum) - variance(model)) < 1e-9


class TestMultipleCorrelation:
    def test_uncorrelated(self):
        model = validate_model(None, np.eye(3), [1, 2])
        assert squared_multiple_correlation(model) == 0.0

    def test_one_against_two(self):
        cov = np.array([[1.0, 0.3, 0.4], [0.3, 1.0, 0.0], [0.4, 0.0, 1.0]])
        model = validate_model(None, cov, [1, 2])
        r2 = squared_multiple_correlation(model)
        assert r2 == pytest.approx(0.25, abs=1e-12)
        seq = cumulants(model, 4)
        assert seq.kappa(2) == pytest.approx(r2, abs=1e-9)
        assert seq.kappa(4) == pytest.approx(6 * r2**2, abs=1e-9)

    def test_scalar_pair_is_squared_correlation(self):
        assert squared_multiple_correlation(scalar_pair_model(0.7)) == pytest.approx(0.49, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_even_cumulants_from_multiple_correlation(self, seed):
        rng = np.random.default_rng(120 + seed)
        model = random_two_block(rng, scalar_first=True)
        r2 = squared_multiple_correlation(model)
        seq = cumulants(model, 8)
        for l in (2, 4, 6, 8):
            expected = math.factorial(l - 1) * r2 ** (l // 2)
            assert rel_close(seq.kappa(l), expected, 1e-9)


class TestScalarPairCgf:
    def test_zero_correlation(self):
        assert scalar_pair_cgf(0.0, 12.0) == 0.0

    def test_value_at_one(self):
        assert scalar_pair_cgf(0.5, 1.0) == pytest.approx(0.287682, abs=1e-6)

    def test_boundary_rejected(self):
        with pytest.raises(OutOfDomain):
            scalar_pair_cgf(0.5, 2.0)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            scalar_pair_cgf(1.0, 0.1)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, -0.6])
    def test_matches_general_cgf(self, rho):
        model = scalar_pair_model(rho)
        for t in np.linspace(-0.95 / abs(rho), 0.95 / abs(rho), 9):
            assert abs(scalar_pair_cgf(rho, float(t)) - cgf(model, float(t))) < 1e-12


class TestOddCumulantVanishing:
    @pytest.mark.parametrize("seed", range(20))
    def test_odd_orders_negligible(self, seed):
        rng = np.random.default_rng(160 + seed)
        model = random_two_block(rng)
        seq = cumulants(model, 7)
        k2 = seq.kappa(2)
        for l in (3, 5, 7):
            assert abs(seq.kappa(l)) < 1e-9 * max(1.0, k2 ** (l / 2))

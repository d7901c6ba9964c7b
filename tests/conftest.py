"""Shared seeded-model builders, closed forms, oracles and comparisons for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings

import infodensity.model
from infodensity import (
    BadPartition,
    CgfDomain,
    CumulantSequence,
    DimensionMismatch,
    NonFiniteInput,
    OutOfDomain,
    cgf,
    cgf_domain,
    loops,
    multiinformation,
    sampling,
    validate_model,
)
from infodensity._linalg import _inverse_lower, cholesky_lower, logdet_from_lower
from infodensity.model import _integral, _integral_at_least
from infodensity.sampling import (
    SampleBatch,
    _chunk_tiles,
    _folded_kernel,
    _moment_sums,
    _normal_stream,
)

# A fixed example set, so every run (CI included) draws the same cases.
DERANDOMIZED = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def random_partition(rng, d, max_blocks=None):
    """Random block sizes summing to d, at least 2 blocks."""
    upper = min(d, max_blocks) if max_blocks else d
    n_blocks = 2 if d == 2 else int(rng.integers(2, upper + 1))
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False))
    return [int(s) for s in np.diff([0, *cuts, d])]


def random_model(rng, d=None, sizes=None, zero_mean=False):
    """Random solidly-PD model with a random (or given) partition."""
    if d is None:
        d = int(rng.integers(2, 9))
    if sizes is None:
        sizes = random_partition(rng, d)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * d * np.eye(d)
    mean = np.zeros(d) if zero_mean else rng.standard_normal(d)
    return validate_model(mean, cov, sizes)


def random_block_diagonal_model(rng, sizes):
    """Mutually independent blocks: PD blocks embedded on the diagonal."""
    d = sum(sizes)
    cov = np.zeros((d, d))
    start = 0
    for s in sizes:
        a = rng.standard_normal((s, s))
        cov[start : start + s, start : start + s] = a @ a.T + 0.5 * (s + 1) * np.eye(s)
        start += s
    return validate_model(rng.standard_normal(d), cov, sizes)


def scalar_pair_model(rho):
    return validate_model([0.0, 0.0], [[1.0, rho], [rho, 1.0]], [1, 1])


def correlation_model(model):
    """``(scales, R-model)``: the standard deviations, and the model of x / scales."""
    scales = np.sqrt(np.diagonal(model.covariance))
    corr = model.covariance / np.outer(scales, scales)
    return scales, validate_model(model.mean / scales, corr, model.partition.block_sizes)


def random_correlation_model(rng, d, sizes=None):
    """Unit-diagonal random model, handy when correlations must be read off directly."""
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * d * np.eye(d)
    return correlation_model(validate_model(np.zeros(d), cov, sizes or [1] * d))[1]


def scalar_ring(n_blocks, c):
    """``(model, reference)``: S = I + c (C + C^T) on ``n_blocks`` >= 3 scalar blocks, C the cyclic shift.

    G = c (C + C^T), whose spectrum is 2c cos(2 pi k / N), k = 0..N-1 (ROADMAP
    item 27). ``reference`` holds those values, each from ``math.cos``, in
    ascending order. On an even ring the spectrum is symmetric about 0, so
    every odd power sum, and every odd cumulant, is exactly 0.
    """
    cov = np.eye(n_blocks)
    i = np.arange(n_blocks)
    cov[i, (i + 1) % n_blocks] = cov[(i + 1) % n_blocks, i] = c
    reference = sorted(2.0 * c * math.cos(2.0 * math.pi * k / n_blocks) for k in range(n_blocks))
    return validate_model(None, cov, [1] * n_blocks), np.array(reference)


def equicorrelation_gamma_power(d, rho, l):
    """rho^l [(-1)^l I + ((d-1)^l - (-1)^l)/d U], the l-th power of G = rho (U - I)."""
    u_coef = float(((d - 1) ** l - (-1) ** l) // d)
    return rho**l * (u_coef * np.ones((d, d)) + (-1.0) ** l * np.eye(d))


def count_loop_trace(monkeypatch):
    """Wrap ``loops.loop_trace`` for the test; the returned one-item list holds its call count."""
    calls = [0]
    original = loops.loop_trace

    def counted(closing, walk):
        calls[0] += 1
        return original(closing, walk)

    monkeypatch.setattr(loops, "loop_trace", counted)
    return calls


def record_block_factors(monkeypatch):
    """Wrap ``compute_gamma``'s inverse for the test; the returned list gets a copy of each stack it inverts.

    Those are the (count, b, b) stacks of the factors of the diagonal blocks of each size b > 1, in block order.
    """
    received = []
    original = infodensity.model._inverse_lower

    def recorded(stack):
        received.append(stack.copy())
        return original(stack)

    monkeypatch.setattr(infodensity.model, "_inverse_lower", recorded)
    return received


def squared_multiple_correlation(model):
    """R^2 of coordinate 0 on all the others: 1 - 1 / (s_00 (S^-1)_00)."""
    s = model.covariance
    return 1.0 - 1.0 / (s[0, 0] * np.linalg.inv(s)[0, 0])


@pytest.fixture
def set_chunk_size(monkeypatch):
    """A setter of ``sampling.CHUNK_SIZE`` for the test, which gives small chunks cheap multi-chunk runs.

    The sampler and ``sampled_values`` read the constant at each call, and the
    test's end puts it back.
    """
    return lambda size: monkeypatch.setattr(sampling, "CHUNK_SIZE", size)


def sampled_tiles(model, n, seed):
    """Copies of the tiles of values y, in chunk and tile order, that ``sample_density`` reduces to its sums.

    ``sample_density`` keeps no draws; this runs the per-chunk generator its
    threads run, over chunks of ``sampling.CHUNK_SIZE``.
    """
    kernel = _folded_kernel(model)
    chunk_size = sampling.CHUNK_SIZE
    return [
        tile.copy()
        for c in range(-(-n // chunk_size))
        for tile in _chunk_tiles(kernel, seed, c, min(chunk_size, n - c * chunk_size))
    ]


def sampled_values(model, n, seed):
    """The n density values I + y, in chunk order: the tiles of ``sampled_tiles`` plus the multiinformation I."""
    return np.concatenate(sampled_tiles(model, n, seed)) + multiinformation(model)


def two_pass_batch(values):
    """The ``SampleBatch`` of ``values`` about their mean: numpy's mean first, then the power sums about it.

    The two-pass reference the streamed batches are checked against; ``values``
    is left unchanged.
    """
    values = np.asarray(values, dtype=float).ravel()
    center = float(np.mean(values))
    return SampleBatch(values.size, center, *_moment_sums(values - center))


def standard_normal_block(seed, chunk_index, count):
    """The first ``count`` normals of chunk ``chunk_index``'s stream."""
    return _normal_stream(seed, chunk_index).standard_normal(count)


def diagonal_block(model, n):
    """The diagonal block S_nn of the model's covariance."""
    sl = model.partition.block_slice(n)
    return model.covariance[sl, sl]


def density_at(model, x):
    """Evaluate the multiinformation density at a point, in nats.

    With P = S^{-1} G and S = L L^T, the quadratic form r^T P r is
    (L^{-1} r) . (L^{-1} G r), so no d x d P is formed. G r is small when the
    coupling is weak, so the form keeps its relative accuracy there, where
    |L_B^{-1} r|^2 - |L^{-1} r|^2, equal in exact arithmetic, would cancel.
    """
    r = _point(model, x) - model.mean
    inverse = _inverse_lower(model.factor)
    return multiinformation(model) + 0.5 * float((inverse @ r) @ (inverse @ (model.gamma @ r)))


def density_at_direct(model, x):
    """Same quantity from its definition, ln f(x) - sum_n ln f_n(x_n).

    Independent of the quadratic-form path; used as its oracle.
    """
    x = _point(model, x)
    total = _gaussian_logpdf(x, model.mean, model.covariance)
    for n in range(model.partition.n_blocks):
        sl = model.partition.block_slice(n)
        total -= _gaussian_logpdf(x[sl], model.mean[sl], diagonal_block(model, n))
    return total


def _point(model, x):
    """An evaluation point as an array of shape (d,); any other shape raises DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dimension,):
        raise DimensionMismatch(f"point has shape {x.shape}, model dimension is {model.dimension}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("evaluation point must be finite (no NaN or inf)")
    return x


def _gaussian_logpdf(x, mean, cov):
    L = cholesky_lower(cov)
    y = _inverse_lower(L) @ (x - mean)
    k = len(x)
    return -0.5 * (k * math.log(2.0 * math.pi) + logdet_from_lower(L) + float(y @ y))


def phi_from_definition(model):
    """P = blockdiag(S_nn)^{-1} - S^{-1}, the kernel of the density I + r^T P r / 2, by its definition."""
    block_diagonal = np.zeros_like(model.covariance)
    for n in range(model.partition.n_blocks):
        sl = model.partition.block_slice(n)
        block_diagonal[sl, sl] = diagonal_block(model, n)
    return np.linalg.inv(block_diagonal) - np.linalg.inv(model.covariance)


def rel_close(a, b, tol):
    """Mixed absolute/relative comparison: |a-b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def regression_block(model, m, n):
    """C_{m|n} = S_mn S_nn^{-1} by numpy's solve of S_nn X = S_nm, apart from G and the model's factors."""
    cross = model.covariance[model.partition.block_slice(n), model.partition.block_slice(m)]
    return np.linalg.solve(diagonal_block(model, n), cross).T


def canonical_correlations(model):
    """Squared canonical correlations between the two blocks, sorted descending.

    They are the squared singular values of the whitened cross-covariance
    Y = L_0^{-1} S_01 L_1^{-T}, with L_n the factor of S_nn (Bjorck & Golub
    1973): min(n_0, n_1) values, none negative, and a weak one beside a strong
    one keeps its digits, which the eigenvalues of Y Y^T would lose. Each side
    is whitened by its own factor, Y = L_0^{-1} (L_1^{-1} S_10)^T: taken left
    to right, the product lost the weak value of the 2 + 3 model the tests pin
    to 3.7e-5 relative. Only S_00, S_11 and S_01 are read, and each diagonal
    block is factored here, never G or validation's factors, so this is a
    route to the two-block spectrum apart from G's.
    They add up to the variance. With a scalar block the one value is the
    squared multiple correlation of that coordinate on the other block, and
    with two scalar blocks the squared correlation coefficient.
    """
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")
    first, second = (model.partition.block_slice(n) for n in (0, 1))
    factor_0, factor_1 = (np.linalg.cholesky(diagonal_block(model, n)) for n in (0, 1))
    half = _inverse_lower(factor_1) @ model.covariance[second, first]
    whitened = _inverse_lower(factor_0) @ half.T
    values = tuple(float(s) ** 2 for s in np.linalg.svd(whitened, compute_uv=False))
    if values[0] >= 1.0:
        raise ValueError(f"squared canonical correlation {values[0]} >= 1; model is singular")
    return values


def two_block_trace(model, l):
    """tr(G^l) for a two-block model: 0 for odd l, 2 tr[(C_01 C_10)^{l/2}] for even l.

    With two blocks G is block anti-diagonal, so odd powers have zero trace
    and even powers reduce to powers of the product of the two regression
    blocks. l is integral by ``Partition``'s rule: 4.0 is 4; 2.5 or True
    raises ValueError.
    """
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")
    l = _integral_at_least(l, 1, "l")
    if l % 2 == 1:
        return 0.0
    product = regression_block(model, 0, 1) @ regression_block(model, 1, 0)
    return 2.0 * float(np.trace(np.linalg.matrix_power(product, l // 2)))


def scalar_pair_cgf(rho, t):
    """CGF for two scalar blocks with correlation rho.

    -(t/2) ln(1 - rho^2) - (1/2) ln(1 - t^2 rho^2); finite for |t| < 1/|rho|.
    The 1/2 coefficient on the second term makes this the exact reduction of
    the general determinant form, whose 2x2 determinant is 1 - t^2 rho^2.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    if rho == 0.0:
        return 0.0
    bound = 1.0 / abs(rho)
    if not -bound < t < bound:
        raise OutOfDomain(t, CgfDomain(lower=-bound, upper=bound))
    return -(t / 2.0) * math.log1p(-rho * rho) - 0.5 * math.log1p(-t * t * rho * rho)


def cgf_numeric_cumulants(model, order, step=None):
    """Finite-difference cumulant estimates from the CGF at 0 (cross-check oracle).

    Order l uses the minimal central stencil of l+1 points (integer offsets
    for even l, half-integer for odd l), accurate to O(step^2). The default
    step is 1e-3 times the smaller of 1 and the symmetric half-width of the
    CGF domain. OutOfDomain is raised when a stencil node would leave the
    domain. ``order`` is integral by ``Partition``'s rule (4.0 is 4; 2.5 or
    True raises ValueError), and a given ``step`` must be finite and > 0.
    """
    if _integral(order) not in range(1, 7):
        raise ValueError(f"order must be an integer in 1..6, got {order!r}")
    if step is not None and not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    order = int(order)
    domain = cgf_domain(model)
    if step is None:
        step = 1e-3 * min(1.0, domain.half_width)
    values = []
    for l in range(1, order + 1):
        reach = (l / 2.0) * step
        if not (domain.lower < reach < domain.upper and domain.lower < -reach < domain.upper):
            raise OutOfDomain(reach, domain)
        acc = 0.0
        for k in range(l + 1):
            node = (l / 2.0 - k) * step
            acc += (-1.0) ** k * math.comb(l, k) * cgf(model, node)
        values.append(acc / step**l)
    return CumulantSequence(values=tuple(values))

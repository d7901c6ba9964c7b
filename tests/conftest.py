"""Shared seeded-model builders for the test suite."""

import numpy as np
from hypothesis import settings

from infodensity import loops, multiinformation, validate_model
from infodensity.sampling import DEFAULT_CHUNK_SIZE, _chunk_values, _folded_kernel, _normal_stream

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


def squared_multiple_correlation(model):
    """R^2 of coordinate 0 on all the others: 1 - 1 / (s_00 (S^-1)_00)."""
    s = model.covariance
    return 1.0 - 1.0 / (s[0, 0] * np.linalg.inv(s)[0, 0])


def sampled_values(model, n, seed, chunk_size=DEFAULT_CHUNK_SIZE):
    """The n density values I + y, in chunk order, whose parts y ``sample_density`` summarizes.

    ``sample_density`` keeps no draws; this concatenates the per-chunk
    function its threads call and adds the multiinformation I.
    """
    kernel = _folded_kernel(model)
    info = multiinformation(model)
    chunks = range(-(-n // chunk_size))
    return np.concatenate(
        [_chunk_values(kernel, seed, c, min(chunk_size, n - c * chunk_size)) for c in chunks]
    ) + info


def standard_normal_block(seed, chunk_index, count):
    """The first ``count`` normals of chunk ``chunk_index``'s stream."""
    return _normal_stream(seed, chunk_index).standard_normal(count)

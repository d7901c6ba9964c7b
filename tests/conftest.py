"""Shared seeded-model builders for the test suite."""

import numpy as np

from infodensity import multiinformation, validate_model
from infodensity.sampling import DEFAULT_CHUNK_SIZE, _chunk_values, _fill_normals, _folded_kernel, _philox


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


def random_correlation_model(rng, d, sizes=None):
    """Unit-diagonal random model, handy when correlations must be read off directly."""
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * d * np.eye(d)
    scales = np.sqrt(np.diagonal(cov))
    corr = cov / np.outer(scales, scales)
    return validate_model(np.zeros(d), corr, sizes or [1] * d)


def sampled_values(model, n, seed, chunk_size=DEFAULT_CHUNK_SIZE):
    """The n density values that ``sample_density`` summarizes, in chunk order.

    ``sample_density`` keeps no draws; this concatenates the per-chunk
    function its threads call.
    """
    kernel = _folded_kernel(model)
    info = multiinformation(model)
    chunks = range(-(-n // chunk_size))
    return np.concatenate(
        [_chunk_values(kernel, info, seed, c, np.empty(min(chunk_size, n - c * chunk_size))) for c in chunks]
    )


def standard_normal_block(seed, chunk_index, count):
    """The first ``count`` normals of chunk ``chunk_index``'s stream."""
    z = np.empty(count)
    _fill_normals(_philox(seed, chunk_index), z)
    return z

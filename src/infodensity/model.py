"""Partitioned Gaussian model types and the coupling matrices derived from them.

A model is a mean vector, a positive-definite covariance, and a partition of
the coordinates into N >= 2 blocks. From it we build:

* the regression-coefficient blocks C_{m|n} = S_mn S_nn^{-1},
* the coupling matrix G = S * blockdiag(S_11..S_NN)^{-1} - I with
  exact-zero diagonal blocks, and its real spectrum,
* the quadratic-form kernel P = blockdiag(...)^{-1} - S^{-1} with
  S P = G (``compute_phi``),
* the correlation-normalized model, which shares G's spectrum.

Validation factors the covariance and its diagonal blocks once, then forms G
and its spectrum from those factors; the model carries all four, and every
analytic quantity reads them instead of factoring again. All types are frozen
dataclasses holding read-only arrays, and ``compute_phi`` returns a read-only
array.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _solve_lower, cholesky_lower, solve_pd_from_lower, symmetrize
from .errors import (
    BadPartition,
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    SameBlock,
)

SYMMETRY_RTOL = 1e-8


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


@dataclass(frozen=True)
class Partition:
    """Block sizes of a partition, with derived starting offsets.

    Blocks are indexed 0..n_blocks-1.
    """

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            sizes = tuple(int(s) for s in self.block_sizes)
        except (TypeError, ValueError, OverflowError):
            sizes = None
        # (1, True) == (1, 1), so booleans are refused by type.
        if sizes is None or sizes != tuple(self.block_sizes) or any(
            isinstance(s, (bool, np.bool_)) for s in self.block_sizes
        ):
            raise BadPartition(f"block sizes must be integers, got {tuple(self.block_sizes)}")
        if len(sizes) < 2:
            raise BadPartition(f"need at least 2 blocks, got {len(sizes)}")
        if any(s < 1 for s in sizes):
            raise BadPartition(f"every block size must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(sizes[:-1], initial=0)))

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dimension(self) -> int:
        return self.offsets[-1] + self.block_sizes[-1]

    def block_slice(self, n: int) -> slice:
        if not 0 <= n < self.n_blocks:
            raise IndexError(f"block index {n} out of range for {self.n_blocks} blocks")
        start = self.offsets[n]
        return slice(start, start + self.block_sizes[n])


@dataclass(frozen=True)
class GaussianModel:
    """Validated partitioned Gaussian model (construct via ``validate_model``).

    ``factor`` is the lower Cholesky factor L of the covariance S, and
    ``block_factor`` the block-diagonal L_B = blockdiag(L_1..L_N) of the
    factors of the diagonal blocks S_nn. ``gamma`` is the coupling matrix
    G = S blockdiag(S_nn)^{-1} - I, whose block (m, n) regresses block m on
    block n and whose diagonal blocks are exact zeros, and
    ``gamma_eigenvalues`` its spectrum, sorted ascending; it is real, and
    every entry exceeds -1 for a valid model. Validation computes all four.
    """

    mean: np.ndarray
    covariance: np.ndarray
    partition: Partition
    factor: np.ndarray = field(repr=False)
    block_factor: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    gamma_eigenvalues: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.partition.dimension

    def covariance_block(self, m: int, n: int) -> np.ndarray:
        return self.covariance[self.partition.block_slice(m), self.partition.block_slice(n)]

    def diagonal_block(self, n: int) -> np.ndarray:
        return self.covariance_block(n, n)


def validate_model(mean, covariance, block_sizes) -> GaussianModel:
    """Validate raw inputs and return a symmetrized, PD-checked model.

    Asymmetry up to a relative 1e-8 is repaired by averaging with the
    transpose; anything larger raises NotSymmetric, and any NaN or inf raises
    NonFiniteInput. Positive definiteness is established by Cholesky pivots
    both for the full matrix and for every diagonal block; the model keeps
    those factors, and the coupling matrix and its spectrum formed from them.
    """
    cov = _float_array(covariance, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    d = cov.shape[0]
    mu = np.zeros(d) if mean is None else _float_array(mean, "mean").reshape(-1)
    if mu.shape != (d,):
        raise DimensionMismatch(f"mean has length {mu.shape[0]}, covariance is {d}x{d}")
    for name, a in (("mean", mu), ("covariance", cov)):
        bad = np.count_nonzero(~np.isfinite(a))
        if bad:
            raise NonFiniteInput(f"{name} has {bad} non-finite entries (NaN or inf)")
    del a  # else the unsymmetrized copy of the covariance lives on while G is formed

    try:
        sizes = tuple(block_sizes)
    except TypeError:
        raise BadPartition(f"block sizes must be a sequence of integers, got {block_sizes!r}") from None
    partition = Partition(sizes)
    if partition.dimension != d:
        raise BadPartition(
            f"block sizes {partition.block_sizes} sum to {partition.dimension}, "
            f"covariance is {d}x{d}"
        )

    scale = float(np.max(np.abs(cov))) if cov.size else 0.0
    asym = float(np.max(np.abs(cov - cov.T)))
    if scale > 0 and asym > SYMMETRY_RTOL * scale:
        raise NotSymmetric(
            f"covariance asymmetry {asym:.3g} exceeds {SYMMETRY_RTOL:g} * max|entry| = "
            f"{SYMMETRY_RTOL * scale:.3g}"
        )
    cov = symmetrize(cov)

    factor = cholesky_lower(cov, what="covariance")
    block_factor = np.zeros_like(cov)
    for n in range(partition.n_blocks):
        sl = partition.block_slice(n)
        try:
            block_factor[sl, sl] = cholesky_lower(cov[sl, sl], what=f"diagonal block {n}")
        except NotPositiveDefinite as exc:  # implied by full PD; asserted independently
            raise NotPositiveDefinite(
                f"diagonal block {n} failed positive definiteness: {exc}",
                pivot_index=exc.pivot_index,
            ) from exc
    # Rebinding frees the writable copies before G's d x d temporaries exist.
    cov, factor, block_factor = _frozen(cov), _frozen(factor), _frozen(block_factor)
    gamma, eigenvalues = compute_gamma(cov, block_factor, partition)
    return GaussianModel(
        mean=_frozen(mu),
        covariance=cov,
        partition=partition,
        factor=factor,
        block_factor=block_factor,
        gamma=_frozen(gamma),
        gamma_eigenvalues=_frozen(eigenvalues),
    )


def regression_block(model: GaussianModel, m: int, n: int) -> np.ndarray:
    """Regression coefficients of block m on block n: S_mn S_nn^{-1}."""
    if m == n:
        raise SameBlock(f"regression block requires distinct blocks, got m = n = {m}")
    s_mn = model.covariance_block(m, n)
    col = model.partition.block_slice(n)
    # Solve S_nn X^T = S_mn^T, exploiting symmetry of S_nn.
    return solve_pd_from_lower(model.block_factor[col, col], s_mn.T).T


def compute_gamma(covariance: np.ndarray, block_factor: np.ndarray, partition: Partition):
    """G = S blockdiag(S_nn)^{-1} - I and its ascending spectrum, as ``(G, eigenvalues)``.

    From H = L_B^{-1} S: G = (L_B^{-T} H)^T (block (m, n) regresses m on n)
    and the eigenvalues of W - I, W = L_B^{-1} H^T real-symmetric and similar
    to G + I. Diagonal blocks of both are exact zeros, so tr G = 0 exactly.
    """
    half = _solve_lower(block_factor, covariance)
    w = _solve_lower(block_factor, half.T)
    g = _solve_lower(block_factor, half, transpose=True).T
    for n in range(partition.n_blocks):
        sl = partition.block_slice(n)
        w[sl, sl] = g[sl, sl] = 0.0
    return g, np.linalg.eigvalsh(symmetrize(w))


def compute_phi(model: GaussianModel) -> np.ndarray:
    """Quadratic-form kernel P, computed as S^{-1} G so that S P = G holds tightly.

    The result is a symmetrized read-only array; it agrees with the definition
    blockdiag(S_nn)^{-1} - S^{-1} to within solver roundoff, and is exactly
    zero whenever the coupling matrix is exactly zero.
    """
    phi = solve_pd_from_lower(model.factor, model.gamma)
    return _frozen(symmetrize(phi))


def to_correlation_model(model: GaussianModel):
    """Split the covariance into scale factors and a unit-diagonal model.

    Returns ``(scales, corr_model)`` where ``scales[k]`` is the standard
    deviation of coordinate k and ``corr_model`` has covariance
    R = D^{-1} S D^{-1} with the same partition. The coupling matrices of the
    two models are similar (G = D G~ D^{-1}), so they share eigenvalues, CGF,
    and cumulants.
    """
    scales = np.sqrt(np.diagonal(model.covariance))
    corr = model.covariance / np.outer(scales, scales)
    corr_model = validate_model(model.mean / scales, corr, model.partition.block_sizes)
    return _frozen(scales), corr_model


def model_fingerprint(model: GaussianModel) -> str:
    """Stable hex digest of (partition, mean, covariance).

    Hashes the little-endian IEEE-754 bytes of the symmetrized inputs, so the
    value is reproducible across runs and platforms.
    """
    h = hashlib.sha256()
    h.update(b"infodensity-model-v1")
    h.update(np.asarray(model.partition.block_sizes, dtype="<i8").tobytes())
    h.update(np.asarray(model.mean, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(model.covariance, dtype="<f8").tobytes())
    return h.hexdigest()

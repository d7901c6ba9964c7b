"""Partitioned Gaussian model types and the coupling matrices derived from them.

A model is a mean vector, a positive-definite covariance, and a partition of
the coordinates into N >= 2 blocks. From it we build:

* the regression-coefficient blocks C_{m|n} = S_mn S_nn^{-1},
* the coupling matrix G = S * blockdiag(S_11..S_NN)^{-1} - I with
  exact-zero diagonal blocks (``GammaMatrix``),
* the quadratic-form kernel P = blockdiag(...)^{-1} - S^{-1} with
  S P = G (``PhiMatrix``),
* the correlation-normalized model, which shares G's spectrum.

Validation factors the covariance and its diagonal blocks once, and the model
carries those Cholesky factors; every analytic quantity reads them instead of
factoring again. All types are frozen dataclasses holding read-only arrays;
every operation is a pure function of its inputs.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from ._linalg import cholesky_lower, solve_pd_from_lower, symmetrize
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


@dataclass(frozen=True)
class Partition:
    """Block sizes of a partition, with derived starting offsets.

    Blocks are indexed 0..n_blocks-1.
    """

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
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
    factors of the diagonal blocks S_nn, both computed by validation.
    """

    mean: np.ndarray
    covariance: np.ndarray
    partition: Partition
    factor: np.ndarray = field(repr=False)
    block_factor: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.partition.dimension

    def covariance_block(self, m: int, n: int) -> np.ndarray:
        return self.covariance[self.partition.block_slice(m), self.partition.block_slice(n)]

    def diagonal_block(self, n: int) -> np.ndarray:
        return self.covariance_block(n, n)


@dataclass(frozen=True)
class GammaMatrix:
    """Coupling matrix with exact-zero diagonal blocks and its real spectrum.

    ``eigenvalues`` is sorted ascending; it is computed from a symmetric
    matrix similar to ``matrix``, so it is real and all entries exceed -1 for
    a valid model.
    """

    matrix: np.ndarray
    partition: Partition
    eigenvalues: np.ndarray

    def block(self, m: int, n: int) -> np.ndarray:
        return self.matrix[self.partition.block_slice(m), self.partition.block_slice(n)]


@dataclass(frozen=True)
class PhiMatrix:
    """Symmetric quadratic-form kernel satisfying covariance @ matrix = coupling."""

    matrix: np.ndarray


def validate_model(mean, covariance, block_sizes) -> GaussianModel:
    """Validate raw inputs and return a symmetrized, PD-checked model.

    Asymmetry up to a relative 1e-8 is repaired by averaging with the
    transpose; anything larger raises NotSymmetric, and any NaN or inf raises
    NonFiniteInput. Positive definiteness is established by Cholesky pivots
    both for the full matrix and for every diagonal block; the model keeps
    those factors.
    """
    cov = np.array(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    d = cov.shape[0]
    mu = np.zeros(d) if mean is None else np.array(mean, dtype=float).reshape(-1)
    if mu.shape != (d,):
        raise DimensionMismatch(f"mean has length {mu.shape[0]}, covariance is {d}x{d}")
    for name, a in (("mean", mu), ("covariance", cov)):
        bad = np.count_nonzero(~np.isfinite(a))
        if bad:
            raise NonFiniteInput(f"{name} has {bad} non-finite entries (NaN or inf)")

    partition = Partition(tuple(int(s) for s in block_sizes))
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
    return GaussianModel(
        mean=_frozen(mu),
        covariance=_frozen(cov),
        partition=partition,
        factor=_frozen(factor),
        block_factor=_frozen(block_factor),
    )


def regression_block(model: GaussianModel, m: int, n: int) -> np.ndarray:
    """Regression coefficients of block m on block n: S_mn S_nn^{-1}."""
    if m == n:
        raise SameBlock(f"regression block requires distinct blocks, got m = n = {m}")
    s_mn = model.covariance_block(m, n)
    col = model.partition.block_slice(n)
    # Solve S_nn X^T = S_mn^T, exploiting symmetry of S_nn.
    return solve_pd_from_lower(model.block_factor[col, col], s_mn.T).T


def _coupling_matrix(model: GaussianModel) -> np.ndarray:
    """G = S blockdiag(S_nn)^{-1} - I from the stored block factors.

    Column block n is S_{:,n} S_nn^{-1}; its row block m is the regression
    block of m on n. Diagonal blocks are written as exact zeros.
    """
    half = solve_triangular(model.block_factor, model.covariance, lower=True)
    return _coupling_from_half(model, half)


def _coupling_from_half(model: GaussianModel, half: np.ndarray) -> np.ndarray:
    """G from the half-solve L_B^{-1} S: G^T = L_B^{-T} half, diagonal blocks zeroed."""
    g = solve_triangular(model.block_factor.T, half, lower=False).T
    _zero_diagonal_blocks(g, model.partition)
    return g


def _zero_diagonal_blocks(a: np.ndarray, partition: Partition) -> None:
    for start, size in zip(partition.offsets, partition.block_sizes):
        a[start : start + size, start : start + size] = 0.0


def compute_gamma(model: GaussianModel) -> GammaMatrix:
    """Assemble the coupling matrix from regression blocks.

    Diagonal blocks are written as exact zeros, making the trace exactly zero
    and keeping loop-enumeration cross-checks clean. Eigenvalues come from
    the block-whitened W - I with W = L_B^{-1} S L_B^{-T}, which is similar
    to G + I and real-symmetric by construction; its diagonal blocks are the
    identity and are likewise written as exact zeros.
    """
    L_B = model.block_factor
    half = solve_triangular(L_B, model.covariance, lower=True)
    w = solve_triangular(L_B, half.T, lower=True)
    _zero_diagonal_blocks(w, model.partition)
    eigenvalues = np.linalg.eigvalsh(symmetrize(w))
    g = _coupling_from_half(model, half)
    return GammaMatrix(matrix=_frozen(g), partition=model.partition, eigenvalues=_frozen(eigenvalues))


def compute_phi(model: GaussianModel) -> PhiMatrix:
    """Quadratic-form kernel, computed as S^{-1} G so that S P = G holds tightly.

    The result is symmetrized; it agrees with the definition
    blockdiag(S_nn)^{-1} - S^{-1} to within solver roundoff, and is exactly
    zero whenever the coupling matrix is exactly zero.
    """
    phi = solve_pd_from_lower(model.factor, _coupling_matrix(model))
    return PhiMatrix(matrix=_frozen(symmetrize(phi)))


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

"""Multiinformation, its density, the CGF with exact domain, and cumulants.

For a partitioned Gaussian model the log-ratio of the joint density to the
product of block marginals is

    value(x) = I + (x - mu)^T P (x - mu) / 2,

where I is the multiinformation and P = S^{-1} G the quadratic-form kernel.
Its cumulant-generating function is

    cgf(t) = t I - ln|I_d - t G| / 2,

finite exactly on the open interval where 1 - t*lambda > 0 for every
eigenvalue lambda of the coupling matrix G. Cumulants follow as
kappa_1 = I and kappa_l = (l-1)!/2 * sum(lambda^l) for l >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _inverse_lower, cholesky_lower, logdet_from_lower
from .errors import CumulantOverflow, DimensionMismatch, EigenvalueOutOfRange, NonFiniteInput, OutOfDomain
from .model import GaussianModel, _integral, _integral_at_least

# (l-1)! stays exactly representable territory up to here; beyond, log-space.
_EXACT_FACTORIAL_MAX_ORDER = 20
_LOG_DBL_MAX = math.log(np.finfo(float).max)
# Highest cumulant order ``cumulants`` computes. A spectrum of order-one
# magnitude overflows long before it ((l-1)! outgrows any power), but a zero
# or tiny one does not, and each order costs O(d) work and one more reported
# value, so without a bound both grow linearly in the requested order.
MAX_CUMULANT_ORDER = 10_000


@dataclass(frozen=True)
class CumulantSequence:
    """Cumulants kappa_1..kappa_L in nats^l, 1-indexed via ``kappa``."""

    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def kappa(self, l: int) -> float:
        if not 1 <= l <= self.order:
            raise IndexError(f"order {l} outside 1..{self.order}")
        return self.values[l - 1]


@dataclass(frozen=True)
class CgfDomain:
    """Open interval (lower, upper) on which the CGF is finite; 0 is interior."""

    lower: float
    upper: float

    def contains(self, t: float) -> bool:
        return self.lower < t < self.upper

    @property
    def half_width(self) -> float:
        """Half-width of the largest symmetric interval around 0 inside the domain."""
        return min(-self.lower, self.upper)


def multiinformation(model: GaussianModel) -> float:
    """Multiinformation in nats via Cholesky log-determinants.

    Equals (sum_n ln|S_nn| - ln|S|) / 2; zero iff the blocks are mutually
    independent. Both log-determinants come from the model's stored factors.
    """
    return 0.5 * (logdet_from_lower(model.block_factor) - logdet_from_lower(model.factor))


def multiinformation_from_gamma(model: GaussianModel) -> float:
    """Multiinformation recovered from the coupling spectrum: -sum ln(1+lambda)/2."""
    lam = model.gamma_eigenvalues
    if np.any(lam <= -1.0):
        raise EigenvalueOutOfRange(
            f"eigenvalue {lam.min():.6g} <= -1; not the spectrum of a valid coupling matrix"
        )
    return -0.5 * float(np.sum(np.log1p(lam)))


def density_at(model: GaussianModel, x) -> float:
    """Evaluate the multiinformation density at a point, in nats.

    With P = S^{-1} G and S = L L^T, the quadratic form r^T P r is
    (L^{-1} r) . (L^{-1} G r), so no d x d P is formed. G r is small when the
    coupling is weak, so the form keeps its relative accuracy there, where
    |L_B^{-1} r|^2 - |L^{-1} r|^2, equal in exact arithmetic, would cancel.
    """
    r = _point(model, x) - model.mean
    inverse = _inverse_lower(model.factor)
    return multiinformation(model) + 0.5 * float((inverse @ r) @ (inverse @ (model.gamma @ r)))


def density_at_direct(model: GaussianModel, x) -> float:
    """Same quantity from its definition, ln f(x) - sum_n ln f_n(x_n).

    Independent of the quadratic-form path; used as its oracle.
    """
    x = _point(model, x)
    total = _gaussian_logpdf(x, model.mean, model.covariance)
    for n in range(model.partition.n_blocks):
        sl = model.partition.block_slice(n)
        total -= _gaussian_logpdf(x[sl], model.mean[sl], model.diagonal_block(n))
    return total


def _point(model: GaussianModel, x) -> np.ndarray:
    """An evaluation point as a flat array, checked against the model's dimension and mean."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (model.dimension,):
        raise DimensionMismatch(f"point has length {x.shape[0]}, model dimension is {model.dimension}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(model.mean))):
        raise NonFiniteInput("evaluation point and mean must be finite (no NaN or inf)")
    return x


def _gaussian_logpdf(x, mean, cov) -> float:
    L = cholesky_lower(cov)
    y = _inverse_lower(L) @ (x - mean)
    k = len(x)
    return -0.5 * (k * math.log(2.0 * math.pi) + logdet_from_lower(L) + float(y @ y))


def cgf_domain(model: GaussianModel) -> CgfDomain:
    """Exact maximal open interval where the CGF is finite.

    1 - t*lambda must stay positive for every eigenvalue, so the upper end is
    1/lambda_max when lambda_max > 0 (else +inf) and the lower end 1/lambda_min
    when lambda_min < 0 (else -inf).
    """
    lam = model.gamma_eigenvalues
    lam_max = float(lam.max())
    lam_min = float(lam.min())
    upper = 1.0 / lam_max if lam_max > 0 else math.inf
    lower = 1.0 / lam_min if lam_min < 0 else -math.inf
    return CgfDomain(lower=lower, upper=upper)


def cgf(model: GaussianModel, t):
    """Cumulant-generating function of the density at t, in nats.

    Evaluated as t*I - sum(ln(1 - t*lambda))/2 over the coupling spectrum.
    ``t`` is a scalar (a float comes back) or an array of points (an array of
    the same shape comes back); the multiinformation is computed once either
    way. Raises OutOfDomain for the first t on or outside the boundary of the
    finite range.
    """
    domain = cgf_domain(model)
    ts = np.asarray(t, dtype=float)
    outside = ~((domain.lower < ts) & (ts < domain.upper))
    if np.any(outside):
        raise OutOfDomain(float(ts.flat[np.argmax(outside)]), domain)
    logs = np.log1p(-np.multiply.outer(ts, model.gamma_eigenvalues))
    values = ts * multiinformation(model) - 0.5 * np.sum(logs, axis=-1)
    return float(values) if values.ndim == 0 else values


def cumulants(model: GaussianModel, order: int) -> CumulantSequence:
    """Cumulants of the density up to the requested order.

    kappa_1 is the multiinformation; higher orders use the eigenvalue power
    sums of the coupling matrix. The power sum is taken over the spectrum
    scaled toward max|lambda|, so a small spectrum does not underflow: up to
    order 20 by 2^e, the smallest power of two above it, beyond order 20
    by max|lambda| itself, with the factorial and the power sum combined in
    log space. An order whose magnitude bound (l-1)! * sum|lambda|^l exceeds
    the double range raises CumulantOverflow rather than saturating. An order
    above MAX_CUMULANT_ORDER raises CumulantOverflow before any work, with
    ``order`` MAX_CUMULANT_ORDER + 1, the first order refused. ``order``
    is integral by ``Partition``'s rule: 4.0 is 4; 2.5 or True raises
    ValueError.
    """
    order = _integral_at_least(order, 1, "order")
    if order > MAX_CUMULANT_ORDER:
        raise CumulantOverflow(
            MAX_CUMULANT_ORDER + 1,
            f"cumulant order {order} exceeds the cap of {MAX_CUMULANT_ORDER} (MAX_CUMULANT_ORDER)",
        )
    lam = model.gamma_eigenvalues
    values = [multiinformation(model)]
    abs_lam = np.abs(lam)
    nonzero = abs_lam > 0.0
    log_abs = np.log(abs_lam[nonzero]) if np.any(nonzero) else None
    for l in range(2, order + 1):
        values.append(_kappa_from_spectrum(lam, log_abs, l))
    return CumulantSequence(values=tuple(values))


def _kappa_from_spectrum(lam: np.ndarray, log_abs: np.ndarray | None, l: int) -> float:
    if log_abs is None:
        return 0.0
    # log sum |lambda|^l, shifted by its largest term so that no exp overflows.
    scaled = l * log_abs
    top = float(scaled.max())
    log_bound = math.lgamma(l) - math.log(2.0) + top + math.log(float(np.sum(np.exp(scaled - top))))
    if log_bound > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    if l <= _EXACT_FACTORIAL_MAX_ORDER:
        # sum lambda^l = 2^(l e) * sum r^l with r = lambda * 2^-e, e the binary
        # exponent of max|lambda|: scaling by a power of two is exact, and the
        # leading terms r^l stay normal where lambda^l would be subnormal.
        e = math.frexp(float(np.abs(lam).max()))[1]
        return math.ldexp(math.factorial(l - 1) / 2.0 * float(np.sum(np.ldexp(lam, -e) ** l)), l * e)
    # sum lambda^l = m^l * sum (lambda/m)^l with m = max|lambda| = exp(top / l):
    # the scaled terms lie in [-1, 1], so a small spectrum does not underflow.
    scaled_sum = float(np.sum((lam / np.abs(lam).max()) ** l))
    if scaled_sum == 0.0:
        return 0.0
    magnitude = math.exp(math.lgamma(l) - math.log(2.0) + top + math.log(abs(scaled_sum)))
    return math.copysign(magnitude, scaled_sum)


def variance(model: GaussianModel) -> float:
    """Variance of the density from the pairwise block sum.

    sum_{m<n} tr(S_mn S_nn^{-1} S_nm S_mm^{-1}), i.e. the trace of the
    product of the two opposing regression blocks for every pair, evaluated
    elementwise over the regression columns of the model's coupling matrix.
    Equals tr(G^2)/2 and the second cumulant.
    """
    g = model.gamma
    # sum(G * G^T) = tr(G^2) counts every pair (m, n) twice: tr(C_mn C_nm) + tr(C_nm C_mn).
    return 0.5 * float(np.sum(g * g.T))


def cgf_numeric_cumulants(model: GaussianModel, order: int, step: float | None = None) -> CumulantSequence:
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
        if not (domain.contains(reach) and domain.contains(-reach)):
            raise OutOfDomain(reach, domain)
        acc = 0.0
        for k in range(l + 1):
            node = (l / 2.0 - k) * step
            acc += (-1.0) ** k * math.comb(l, k) * cgf(model, node)
        values.append(acc / step**l)
    return CumulantSequence(values=tuple(values))

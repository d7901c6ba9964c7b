"""Multiinformation, the CGF with exact domain, and cumulants of the density.

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

from ._linalg import logdet_from_lower
from .errors import CumulantOverflow, NonFiniteInput, OutOfDomain
from .model import GaussianModel, _integral_at_least

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
    """Cumulants kappa_1..kappa_L in nats^l, 1-indexed via ``kappa``.

    ``kappa(l)`` reads l by the package's integral rule: 2.0 is 2, and 2.5
    or True raises ValueError; an integral l outside 1..L raises IndexError.
    Estimates use the same type: ``k_statistics`` returns k_1..k_4, with NaN
    at an order the sample is too small for.
    """

    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def kappa(self, l: int) -> float:
        l = _integral_at_least(l, -math.inf, "order")
        if not 1 <= l <= self.order:
            raise IndexError(f"order {l} outside 1..{self.order}")
        return self.values[l - 1]


@dataclass(frozen=True)
class CgfDomain:
    """Open interval (lower, upper) on which the CGF is finite; 0 is interior."""

    lower: float
    upper: float

    @property
    def half_width(self) -> float:
        """Half-width of the largest symmetric interval around 0 inside the domain."""
        return min(-self.lower, self.upper)


def multiinformation(model: GaussianModel) -> float:
    """Multiinformation in nats via Cholesky log-determinants.

    Equals (sum_n ln|S_nn| - ln|S|) / 2; zero iff the blocks are mutually
    independent. Both log-determinants come from the model's stored factors:
    ln|S| from L, and sum_n ln|S_nn| as twice the sum of the logs of
    diag(L_B), the model's ``block_factor_diagonal``.
    """
    return 0.5 * (2.0 * float(np.sum(np.log(model.block_factor_diagonal))) - logdet_from_lower(model.factor))


def multiinformation_from_gamma(model: GaussianModel) -> float:
    """Multiinformation recovered from the coupling spectrum: -sum ln(1+lambda)/2.

    A zero spectrum gives 0.0, not -0.0.
    """
    return 0.0 - 0.5 * float(np.sum(np.log1p(model.gamma_eigenvalues)))


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
    way. Raises NonFiniteInput for the first t that is NaN or infinite, and
    then OutOfDomain for the first t on or outside the boundary of the
    finite range.
    """
    ts = np.asarray(t, dtype=float)
    if not np.isfinite(ts).all():
        raise NonFiniteInput(f"t={ts[~np.isfinite(ts)][0]} is not finite")
    domain = cgf_domain(model)
    outside = ~((domain.lower < ts) & (ts < domain.upper))
    if np.any(outside):
        raise OutOfDomain(float(ts.flat[np.argmax(outside)]), domain)
    logs = np.log1p(-np.multiply.outer(ts, model.gamma_eigenvalues))
    # Adding 0.0 - x rather than subtracting x: at I = 0 and a zero spectrum, t < 0 reads 0.0, not -0.0.
    values = ts * multiinformation(model) + (0.0 - 0.5 * np.sum(logs, axis=-1))
    return float(values) if values.ndim == 0 else values


def cumulants(model: GaussianModel, order: int) -> CumulantSequence:
    """Cumulants of the density up to the requested order.

    kappa_1 is the multiinformation; higher orders use the eigenvalue power
    sums of the coupling matrix, each one pass of ``_power_sums`` over the
    spectrum scaled toward max|lambda|, so a small spectrum does not
    underflow. The spectrum is scaled once per call, not once per order: by
    2^e, the smallest power of two above max|lambda|, for orders up to 20
    (``_binary_scaled``, the loop oracle's scaling too), and by max|lambda|
    itself for the orders above, whose factorial and power sum are combined
    in log space. The same pass gives the magnitude bound
    (l-1)! * sum|lambda|^l / 2; an order whose bound exceeds the double range
    raises CumulantOverflow rather than saturating. An order above
    MAX_CUMULANT_ORDER raises CumulantOverflow before any work, with
    ``order`` MAX_CUMULANT_ORDER + 1, the first order refused. ``order``
    is read by the package's integral rule.
    """
    order = _cumulant_order(order)
    lam = model.gamma_eigenvalues
    top, binary, e = _binary_scaled(lam)
    unit = lam / top if top and order > _EXACT_FACTORIAL_MAX_ORDER else None
    kappas = [_kappa_from_spectrum(binary, e, unit, top, l) if top else 0.0 for l in range(2, order + 1)]
    return CumulantSequence(values=(multiinformation(model), *kappas))


def _cumulant_order(order) -> int:
    """``order`` as an int by ``_integral_at_least``'s rule, at least 1 and at most MAX_CUMULANT_ORDER.

    An order above the cap raises CumulantOverflow with ``order``
    MAX_CUMULANT_ORDER + 1; ``cumulants`` and the ``homogeneous`` subcommand
    both refuse it here, before any work.
    """
    order = _integral_at_least(order, 1, "order")
    if order > MAX_CUMULANT_ORDER:
        raise CumulantOverflow(
            MAX_CUMULANT_ORDER + 1,
            f"cumulant order {order} exceeds the cap of {MAX_CUMULANT_ORDER} (MAX_CUMULANT_ORDER)",
        )
    return order


def _kappa_from_spectrum(binary: np.ndarray, e: int, unit: np.ndarray | None, top: float, l: int) -> float:
    """kappa_l >= 2 from the spectrum already scaled: ``binary`` = lambda / 2^e, ``unit`` = lambda / ``top``.

    Up to order 20 it reads ``binary``: (l-1)!/2 is a double and scaling back
    by 2^{l e} is exact, and the leading terms stay normal where lambda^l
    would be subnormal. Beyond, it reads ``unit``, whose top term is 1, so
    the sum is at least 1, and works in log space.
    """
    exact = l <= _EXACT_FACTORIAL_MAX_ORDER
    signed, size = _power_sums(binary if exact else unit, l)
    log_scale = math.lgamma(l) - math.log(2.0) + l * (e * math.log(2.0) if exact else math.log(top))
    if log_scale + math.log(size) > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    if exact:
        return math.ldexp(math.factorial(l - 1) / 2.0 * signed, l * e)
    return math.copysign(math.exp(log_scale + math.log(abs(signed))), signed) if signed else 0.0


def _binary_scaled(lam: np.ndarray) -> tuple[float, np.ndarray, int]:
    """max|lambda|, lambda / 2^e and e, with 2^e the smallest power of two above max|lambda|.

    The division is exact short of underflow, and e = 0 for a zero spectrum.
    """
    top = float(np.abs(lam).max())
    e = math.frexp(top)[1]
    return top, np.ldexp(lam, -e), e


def _matrix_traces(model: GaussianModel, max_l: int) -> list[float]:
    """sum lambda^l = tr(G^l) for l = 1..max_l, the loop oracle's reference; no power of G is formed.

    Each is ``cumulants``' paired-sign ``_power_sums`` over the same
    lambda / 2^e, scaled back by 2^{l e}, so up to order 20 (l-1)!/2 times
    the trace is kappa_l bit for bit.
    """
    _, binary, e = _binary_scaled(model.gamma_eigenvalues)
    return [math.ldexp(_power_sums(binary, l)[0], l * e) for l in range(1, max_l + 1)]


def _power_sums(ratio: np.ndarray, l: int) -> tuple[float, float]:
    """sum ratio^l and sum |ratio|^l for a spectrum divided by a scale, each one ``math.fsum``.

    The terms are |ratio|^l with ratio's sign put back at odd l, so a value
    and its negative give terms that cancel exactly, as numpy's powers of r
    and -r need not. ``cumulants`` and ``_matrix_traces`` both read it.
    """
    terms = np.abs(ratio) ** l
    size = math.fsum(terms.tolist())  # fsum reads a list of floats faster than an array
    return (math.fsum(np.copysign(terms, ratio).tolist()) if l % 2 else size), size


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

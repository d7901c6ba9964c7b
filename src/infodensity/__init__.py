"""Exact cumulant analysis of the multiinformation density of partitioned
Gaussian models, validated by loop enumeration against the spectrum and by
seeded Monte Carlo. The finite-difference oracle of the cumulants lives only
in the tests."""

from .errors import (
    BadPartition,
    BatchTooSmall,
    CombinatorialLimit,
    CumulantOverflow,
    DimensionMismatch,
    EigenvalueOutOfRange,
    InfoDensityError,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    OutOfDomain,
    ZeroVariance,
)
from .homogeneous import (
    HomogeneousModel,
    asymptotic_standardized_limit,
    homogeneous_covariance,
    homogeneous_cumulant,
    standardized_cumulant,
)
from .loops import (
    DEFAULT_LOOP_CAP,
    loop_trace,
    rooted_loop_count,
    trace_via_loops,
)
from .measures import (
    CgfDomain,
    CumulantSequence,
    cgf,
    cgf_domain,
    cumulants,
    multiinformation,
    multiinformation_from_gamma,
    variance,
)
from .model import (
    GaussianModel,
    Partition,
    model_fingerprint,
    validate_model,
)
from .sampling import (
    SampleBatch,
    k_statistics,
    kstat_sampling_variances,
    mc_validate,
    sample_density,
)

__version__ = "0.1.0"

__all__ = [
    "BadPartition",
    "BatchTooSmall",
    "CgfDomain",
    "CombinatorialLimit",
    "CumulantOverflow",
    "CumulantSequence",
    "DEFAULT_LOOP_CAP",
    "DimensionMismatch",
    "EigenvalueOutOfRange",
    "GaussianModel",
    "HomogeneousModel",
    "InfoDensityError",
    "NonFiniteInput",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OutOfDomain",
    "Partition",
    "SampleBatch",
    "ZeroVariance",
    "asymptotic_standardized_limit",
    "cgf",
    "cgf_domain",
    "cumulants",
    "homogeneous_covariance",
    "homogeneous_cumulant",
    "k_statistics",
    "kstat_sampling_variances",
    "loop_trace",
    "mc_validate",
    "model_fingerprint",
    "multiinformation",
    "multiinformation_from_gamma",
    "rooted_loop_count",
    "sample_density",
    "standardized_cumulant",
    "trace_via_loops",
    "validate_model",
    "variance",
]

"""Non-central Wishart laws and canonical cone measures.

Implements the family NCW(2p, w, Sigma) on the cone of positive
semidefinite d x d matrices together with the canonical measures m(2p, k, d)
it reduces to: existence classification, closed-form Laplace transforms,
zonal-polynomial density series, explicit d=2 densities, samplers, and a
verification harness that checks every identity numerically.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .symcore import (
    ConePoint2,
    DomainError,
    TruncationError,
    lebesgue_coords,
    coords_to_matrix,
    phi2,
    rank_psd,
)
from .zonal import (
    Partition,
    delta_kappa,
    phi_kappa_mc,
    c_kappa_identity,
    multivariate_gamma,
    pochhammer_kappa,
    zonal_C,
    zonal_layer,
    exp_trace_partial_sum,
    zonal_lemma_checks,
)
from .measures import (
    ExistenceVerdict,
    MeasureSpec,
    NcwParams,
    VerdictReason,
    exists_m,
    exists_ncw,
    laplace_ncw,
    laplace_m,
    reduce_to_canonical,
    density_m_fullrank,
    density_fd,
    lt_fd_series,
    singular_r_laplace,
    m122_singular_density,
    m122_ac_density,
    m122_laplace_cone,
    m111_density,
    faa_di_bruno_check,
)
from .samplers import (
    MeanDecomposition,
    RankExceedsShapeError,
    WeightedSample,
    decompose_w,
    ncw_sample,
    m_measure_sample,
    singular_r_sample,
    empirical_laplace,
    weighted_laplace_estimate,
    subspace_intersection_experiment,
    rank_additivity_experiment,
    convolution_support_experiment,
)
from .report import (
    CheckRecord,
    MatrixFileError,
    Provenance,
    Report,
    read_matrix_file,
    write_matrix_file,
    write_samples_csv,
)
from .verify import RunConfig, SUITES, run_suite

__all__ = [
    "__version__",
    # symcore
    "ConePoint2",
    "DomainError",
    "TruncationError",
    "lebesgue_coords",
    "coords_to_matrix",
    "phi2",
    "rank_psd",
    # zonal
    "Partition",
    "delta_kappa",
    "phi_kappa_mc",
    "c_kappa_identity",
    "multivariate_gamma",
    "pochhammer_kappa",
    "zonal_C",
    "zonal_layer",
    "exp_trace_partial_sum",
    "zonal_lemma_checks",
    # measures
    "ExistenceVerdict",
    "MeasureSpec",
    "NcwParams",
    "VerdictReason",
    "exists_m",
    "exists_ncw",
    "laplace_ncw",
    "laplace_m",
    "reduce_to_canonical",
    "density_m_fullrank",
    "density_fd",
    "lt_fd_series",
    "singular_r_laplace",
    "m122_singular_density",
    "m122_ac_density",
    "m122_laplace_cone",
    "m111_density",
    "faa_di_bruno_check",
    # samplers
    "MeanDecomposition",
    "RankExceedsShapeError",
    "WeightedSample",
    "decompose_w",
    "ncw_sample",
    "m_measure_sample",
    "singular_r_sample",
    "empirical_laplace",
    "weighted_laplace_estimate",
    "subspace_intersection_experiment",
    "rank_additivity_experiment",
    "convolution_support_experiment",
    # report / verify
    "CheckRecord",
    "MatrixFileError",
    "Provenance",
    "Report",
    "read_matrix_file",
    "write_matrix_file",
    "write_samples_csv",
    "RunConfig",
    "SUITES",
    "run_suite",
]

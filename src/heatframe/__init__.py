"""Heat kernels, localization envelopes, and quantitative doubling estimates
on discretized metric measure spaces, with a verification suite that checks
every printed constant on explicit samples."""
from __future__ import annotations

from .envelope import (
    EnvelopeParams,
    EstimateConstants,
    constants_for,
    envelope,
    verify_envelope_lp,
    verify_envelope_scaling,
    verify_lemma_integrals,
)
from .errors import (
    ContractError,
    DomainError,
    ExactnessError,
    HeatframeError,
    PreconditionError,
    SamplingError,
    TruncationError,
    TruncationWarning,
)
from .geometry import (
    DoublingProfile,
    MetricMeasureSpace,
    ball_volume,
    ball_volumes_at_nodes,
    estimate_doubling,
    lp_norm,
    make_jacobi_space,
    verify_ball_growth,
)
from .heat import (
    FactoredKernel,
    HeatKernelEval,
    factored_kernel,
    fit_gaussian_bounds,
    heat_kernel,
    kernel_to_csv,
    verify_eigen_action,
    verify_holder,
    verify_markov,
    verify_semigroup,
)
from .jacobi import (
    JacobiParams,
    SpectralBasis,
    apply_L,
    build_basis,
    carre_du_champ,
    carre_du_champ_gradient,
    coefficients,
    derivative_values,
    effective_degree,
    eigenvalue,
    form_omega,
    random_polynomials,
    synthesize,
    verify_poincare,
)
from .nets import (
    Net,
    build_maximal_net,
    build_partition,
    cell_masses,
    load_net,
    net_from_json,
    net_to_json,
    save_net,
    verify_net_sums,
)
from .operators import (
    BandDecomposition,
    DominationCertificate,
    KernelOperator,
    apply_operator,
    band_decompose,
    band_index,
    decomposition_to_csv,
    dominated_operator,
    spectral_multiplier,
    verify_band_decomposition,
    verify_schur,
    verify_young,
)
from .reporting import (
    CHECK_IDS,
    FIT_CHECK_IDS,
    VerificationReport,
    aggregate,
    compare_stability,
    gate,
    make_report,
    to_json,
)

__version__ = "0.1.0"

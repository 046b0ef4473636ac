"""Time semi-discrete stability toolkit for damped second-order modal systems.

Simulates the midpoint and two-stage viscous schemes on modal truncations
of damped wave-type systems and verifies the quantitative ingredients of
their uniform polynomial stability: per-step energy identities, sampled
exponential-sum (Ingham-type) estimates, observability ratios,
high-frequency contraction, and polynomial decay envelopes.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DiagnosticFailure,
    DimensionMismatchError,
    DomainError,
    NonFiniteStateError,
    PolystabError,
)
from .modal import (
    ModalState,
    ModalSystem,
    energy,
    norm_domain,
    pair_norm_sq,
)
from .schemes import (
    EnergyTrace,
    SchemeConfig,
    SchemeSolver,
    StepRecord,
    factorize,
    modal_multiplier,
    substep_count,
)
from .spectra import (
    ExampleParams,
    FilterCutoff,
    GapAudit,
    ObsLowerBound,
    SpectrumReport,
    audit_spectrum,
    build_boundary_coupled_waves,
    build_coupled_waves,
    check_gap,
    check_obs_lower_bound,
    cluster_partition,
    filtering_cutoff,
    sine_overlap,
)
from .ingham import (
    InghamConfig,
    InghamEstimate,
    estimate_clustered,
    estimate_scalar,
    ingham_ratio_scalar,
    q_form,
)
from .diagnostics import (
    DecayFit,
    DecayStudy,
    DecayRecursionResult,
    ObservabilityReport,
    ObservabilityStudy,
    decay_fit,
    high_freq_contraction,
    high_freq_observability,
    inverse_inequality_check,
    decay_recursion_oracle,
    observability_constant_study,
    observability_functional,
    observation_time,
    synthetic_trace,
    uniform_decay_study,
    worst_case_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]

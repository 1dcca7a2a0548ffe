"""spikesim: matter-radiation spike dynamics.

Deterministic rate-equation model with full linear stability analysis, exact
simulation of its three stochastic jump-process limits (global N-unit,
frozen mean-field, one-unit), Foster-Lyapunov drift scans for positive
recurrence, and spike/plateau statistics.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    GammaBoundaries,
    ModelParams,
    Regime,
    StabilityReport,
    State,
    UndefinedStationaryPointError,
    classify_regime,
    discriminant,
    eigenvalues,
    gamma_boundaries,
    jacobian,
    stability_report,
    stationary_point,
    vector_field,
)
from .ode import (  # noqa: F401
    IntegrationBlowupError,
    NegativeOvershootError,
    Trajectory,
    integrate,
)
from .jump import (  # noqa: F401
    CHANNEL_LABELS,
    EventCapError,
    JumpChunk,
    JumpStream,
    JumpTrajectory,
    LatticeState,
    ProcessKind,
    ProcessSpec,
    Termination,
    build_global,
    build_meanfield,
    build_oneunit,
    derive_path_seed,
    expected_drift,
    meanfield_drift_field,
    next_jump,
    simulate,
    simulate_chunks,
)
from .lyapunov import (  # noqa: F401
    DriftReport,
    ErgodicityCheck,
    drift_closed_form,
    drift_via_generator,
    ergodicity_condition,
    in_exceptional_set,
    scan_drift_condition,
)
from .spikes import (  # noqa: F401
    CorrelationSummary,
    CoverageError,
    ExcursionScan,
    InsufficientDataError,
    PathSeries,
    TailFit,
    correlation,
    detect_plateaus,
    detect_spikes,
    fit_exponential,
    lln_sup_distance,
    pair_plateau_spike,
    scan_levels,
    tail_survival,
)

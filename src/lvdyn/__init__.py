"""Two-species Lotka-Volterra analysis for paired economic time series.

The package fits the discrete Leslie form of the system to annual data,
classifies the interaction regime from the cross-coefficient signs, analyses
equilibria and their stability, samples phase-plane geometry, and attributes
equilibrium variance to the model parameters with Sobol' indices.  A CLI
(``lvdyn``) chains everything into a reproducible pipeline.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateVariance,
    DenominatorNearZero,
    DomainError,
    InsufficientData,
    InvalidBBox,
    InvalidN,
    IoError,
    LengthMismatch,
    LvdynError,
    NegativeState,
    NonPositiveValue,
    NumericalError,
    ParseError,
    PipelineStageError,
    SingularDesign,
    StepTooLarge,
    TooManyRejections,
    TrajectoryOverflow,
    ValidationError,
    ZeroBaseline,
    ZeroObserved,
)
from .params import (
    PARAM_NAMES,
    ContinuousParams,
    DiscreteParams,
    InteractionKind,
    InteractionType,
    RegressionCoeffs,
    classify_interaction,
    continuous_to_discrete,
    discrete_to_continuous,
    discrete_to_regression,
    regression_to_discrete,
)
from .fitting import (
    FitMode,
    TimeSeries,
    build_ratio_rows,
    fit_details,
    fitted_trajectories,
    free_run,
    mape,
    one_step_predictions,
)
from .dynamics import (
    BBox,
    EquilibriumSet,
    PhaseGeometry,
    Stability,
    StabilityReport,
    Trajectory,
    classify_stability,
    eigenvalues,
    equilibrium_set,
    integrate_ode,
    interior_equilibrium,
    jacobian_at,
    phase_geometry,
    stability_at,
)
from .sensitivity import (
    ParamBounds,
    SaltelliDesign,
    SobolResult,
    analyze_sensitivity,
    bounds_from_baseline,
    evaluate_equilibria,
    saltelli_sample,
    sobol_indices,
)
from .baselines import BASELINES, SubsystemBaseline
from .pipeline import (
    AnalysisConfig,
    Report,
    export_phase_data,
    fixture_path,
    load_series,
    run_pipeline,
    write_report,
)

__all__ = [name for name in dir()
           if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]

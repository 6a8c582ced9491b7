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
    IoError,
    LvdynError,
    NumericalError,
    PipelineStageError,
    ValidationError,
)
from .params import (
    PARAM_NAMES,
    ContinuousParams,
    DiscreteParams,
    InteractionKind,
    RegressionCoeffs,
    classify_interaction,
    continuous_to_discrete,
    discrete_to_continuous,
    discrete_to_regression,
    regression_to_discrete,
)
from .fitting import TimeSeries, fit_details, free_run, mape
from .dynamics import (
    BBox,
    PhaseGeometry,
    Stability,
    Trajectory,
    equilibrium_set,
    integrate_ode,
    interior_equilibrium,
    phase_geometry,
    stability_at,
)
from .sensitivity import analyze_sensitivity
from .baselines import BASELINES
from .pipeline import (
    AnalysisConfig,
    Report,
    fixture_path,
    load_series,
    run_pipeline,
    write_report,
)

__all__ = [name for name in dir()
           if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]

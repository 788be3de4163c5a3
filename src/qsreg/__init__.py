"""qsreg: Nyquist-lattice sampling regression for variational eigensolving.

The package reconstructs a parametrized quantum expectation-value landscape
from the minimal number of samples (one batched backend query over a uniform
lattice), fits a band-limited trigonometric model, and minimizes the model
classically; a conventional optimize-in-the-loop eigensolver is included as
the baseline, together with an analytical cost model for deciding which
approach is cheaper at a given ansatz size.
"""

from .ansatz import (
    Ansatz,
    BandwidthAxisCheck,
    BandwidthReport,
    deuteron_ansatz_1,
    deuteron_ansatz_2,
    exact_objective,
    verify_bandwidth,
)
from .complexity import (
    ComplexityParams,
    EmptyWindowError,
    ModelReport,
    SubcriticalError,
    advantage_threshold,
    crossover_points,
    discrete_window_efficiency,
    efficiency,
    efficiency_integral,
    efficiency_sweep,
    fit_cost_heuristic,
    is_supercritical,
    model_report,
    peak,
    rescale_natural_units,
    resource_ratio,
    threshold_sweep,
    window_width,
)
from .objective import EvalLedger, ObjectiveSpec, evaluate, evaluate_batch
from .observables import (
    ObservableError,
    ObservableSum,
    PauliString,
    Spectrum,
    exact_spectrum,
    parse_observable,
)
from .optimizers import (
    OptimizationResult,
    nelder_mead_minimize,
    qsr_run,
    regression_global_minimize,
    vqe_run,
    wrap_angles,
)
from .regression import (
    FourierBasis,
    FourierModel,
    SampleSet,
    fit_fourier_model,
    nyquist_lattice,
    uniform_lattice,
)
from .specfun import gen_upper_incomplete_gamma, lambert_w0, lambert_wm1
from .statevector import Gate

__version__ = "0.1.0"

__all__ = [
    "Ansatz",
    "BandwidthAxisCheck",
    "BandwidthReport",
    "ComplexityParams",
    "EmptyWindowError",
    "EvalLedger",
    "FourierBasis",
    "FourierModel",
    "Gate",
    "ModelReport",
    "ObjectiveSpec",
    "ObservableError",
    "ObservableSum",
    "OptimizationResult",
    "PauliString",
    "SampleSet",
    "Spectrum",
    "SubcriticalError",
    "advantage_threshold",
    "crossover_points",
    "deuteron_ansatz_1",
    "deuteron_ansatz_2",
    "discrete_window_efficiency",
    "efficiency",
    "efficiency_integral",
    "efficiency_sweep",
    "evaluate",
    "evaluate_batch",
    "exact_objective",
    "exact_spectrum",
    "fit_cost_heuristic",
    "fit_fourier_model",
    "gen_upper_incomplete_gamma",
    "is_supercritical",
    "lambert_w0",
    "lambert_wm1",
    "model_report",
    "nelder_mead_minimize",
    "nyquist_lattice",
    "parse_observable",
    "peak",
    "qsr_run",
    "regression_global_minimize",
    "rescale_natural_units",
    "resource_ratio",
    "threshold_sweep",
    "uniform_lattice",
    "verify_bandwidth",
    "vqe_run",
    "window_width",
    "wrap_angles",
]

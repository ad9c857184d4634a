"""proxflow: proximal splitting solvers derived from damped gradient flows.

The package bundles three accelerated operator-splitting families (a
balance-coefficient extension of ADMM, three-operator splitting with its
Douglas-Rachford and forward-backward reductions, and forward-backward-
forward splitting), the momentum schedules that accelerate them, a
resolvent calculus for set-valued terms, a reference-ODE lab that
measures integrator order and continuous decay rates, and desk-scale
regression / matrix completion experiment suites.
"""

from .damping import (
    CombinedDamping,
    ConstantDamping,
    DecayingDamping,
    NoDamping,
    extrapolate,
    gamma,
)
from .errors import (
    ConfigurationError,
    NumericalError,
    ParameterError,
    ShapeMismatchError,
)
from .solvers import (
    Problem,
    SolverState,
    StepConfig,
    Trace,
    dy_fixed_point_operator,
    initial_state,
    run,
    step_admm,
    step_davis_yin,
    step_tseng,
    stop_on_estimate_change,
    stop_on_residual,
)
from .space import inner, norm

__version__ = "0.1.0"

__all__ = [
    "CombinedDamping", "ConstantDamping", "DecayingDamping", "NoDamping",
    "gamma", "extrapolate",
    "ConfigurationError", "NumericalError", "ParameterError", "ShapeMismatchError",
    "Problem", "SolverState", "StepConfig", "Trace",
    "initial_state", "run",
    "step_admm", "step_davis_yin", "step_tseng",
    "dy_fixed_point_operator",
    "stop_on_residual", "stop_on_estimate_change",
    "inner", "norm",
    "__version__",
]

"""Rigorous upper bounds on the Lyapunov dimension of delay-system attractors,
with numerical cross checks.

Layers:

- tensor / cocycle: exterior-power volume calculus, singular value functions,
  QR volume growth, uniform exponents, Kaplan-Yorke machinery
- delayop: weighted inner products, delay-operator adjoints and their
  additive symmetrization on the head-plus-tail phase space
- bounds / charroots: closed-form dimension bounds via a Lambert-type root,
  characteristic-root tables, argument-principle counts, asymptotic slopes
- dde: method-of-steps integration, monodromy matrices, numerical spectra
- cli: the `lyapdim` command
"""

from .bounds import (
    BoundProblem,
    DimensionBound,
    alpha_plus,
    lambert_root,
    mackey_glass_bound,
    mackey_glass_scaled_bound,
    scalar_bound,
    scaled_bound,
    suarez_schopf_bound,
    suarez_schopf_scaled_bound,
)
from .charroots import (
    CharProblem,
    RootSet,
    asymptotic_slope,
    char_roots,
    determined_roots,
    halfplane_count,
    local_dimension,
    unstable_count,
)
from .cocycle import (
    MatrixCocycle,
    kaplan_yorke,
    liouville_check,
    lyapunov_dimension,
    lyapunov_metric,
    uniform_exponents,
    volume_growth_qr,
)
from .dde import (
    DelayModel,
    HistorySegment,
    integrate,
    invariant_ball_check,
    linearized_monodromy,
    mackey_glass,
    numerical_lyapunov_spectrum,
    suarez_schopf,
)
from .errors import (
    DegenerateMetricError,
    InputError,
    NeedsMoreRootsError,
    NumericalFailure,
)
from .tensor import (
    compound_additive,
    compound_multiplicative,
    omega_d,
    singular_values,
    trace_numbers,
    wedge_gram,
)

__version__ = "0.1.0"

__all__ = [
    "BoundProblem",
    "CharProblem",
    "DegenerateMetricError",
    "DelayModel",
    "DimensionBound",
    "HistorySegment",
    "InputError",
    "MatrixCocycle",
    "NeedsMoreRootsError",
    "NumericalFailure",
    "RootSet",
    "alpha_plus",
    "asymptotic_slope",
    "char_roots",
    "compound_additive",
    "compound_multiplicative",
    "determined_roots",
    "halfplane_count",
    "integrate",
    "invariant_ball_check",
    "kaplan_yorke",
    "lambert_root",
    "linearized_monodromy",
    "liouville_check",
    "local_dimension",
    "lyapunov_dimension",
    "lyapunov_metric",
    "mackey_glass",
    "mackey_glass_bound",
    "mackey_glass_scaled_bound",
    "numerical_lyapunov_spectrum",
    "omega_d",
    "scalar_bound",
    "scaled_bound",
    "singular_values",
    "suarez_schopf",
    "suarez_schopf_bound",
    "suarez_schopf_scaled_bound",
    "trace_numbers",
    "uniform_exponents",
    "unstable_count",
    "volume_growth_qr",
    "wedge_gram",
    "__version__",
]

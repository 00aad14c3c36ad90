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

import importlib

__version__ = "0.1.0"

# each public name and the layer it lives in; a layer is imported on first
# use (PEP 562), so `import lyapdim` loads neither numpy nor any layer
_LAYERS = {
    "bounds": ("BoundProblem", "DimensionBound", "alpha_plus", "lambert_root",
               "mackey_glass_bound", "mackey_glass_scaled_bound", "scalar_bound",
               "scaled_bound", "suarez_schopf_bound", "suarez_schopf_scaled_bound"),
    "charroots": ("CharProblem", "RootSet", "asymptotic_slope", "char_roots",
                  "determined_roots", "halfplane_count", "local_dimension", "unstable_count"),
    "cocycle": ("MatrixCocycle", "kaplan_yorke", "liouville_check", "lyapunov_dimension",
                "lyapunov_metric", "uniform_exponents", "volume_growth_qr"),
    "dde": ("DelayModel", "HistorySegment", "integrate", "invariant_ball_check",
            "linearized_monodromy", "mackey_glass", "numerical_lyapunov_spectrum",
            "suarez_schopf"),
    "errors": ("DegenerateMetricError", "InputError", "NeedsMoreRootsError", "NumericalFailure"),
    "tensor": ("compound_additive", "compound_multiplicative", "omega_d", "singular_values",
               "trace_numbers", "wedge_gram"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)

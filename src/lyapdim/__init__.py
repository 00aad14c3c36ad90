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

The Python API is the layers themselves (`from lyapdim import charroots`);
each declares its public names in its own `__all__`.  Importing the package
loads no layer.
"""

__version__ = "0.1.0"

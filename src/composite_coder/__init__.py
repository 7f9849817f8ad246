"""Capacity and end-to-end distortion metrics for composite channels.

Library layout:

- :mod:`composite_coder.specfn`: scalar special functions and the binary
  entropy inverse (one numpy routine for scalars and arrays), quadrature,
  golden-section minimization, Pareto hulls.
- :mod:`composite_coder.channels`: channel models and capacity metrics
  (capacity versus outage, outage capacity, expected capacity).
- :mod:`composite_coder.gaussian_system`: Gaussian source over a slow
  Rayleigh channel under outage and expected-distortion metrics.
- :mod:`composite_coder.bss_system`: binary symmetric source over a
  two-state composite BSC; scheme evaluations, distortion regions,
  best-scheme frontiers and interface-complexity tradeoffs.
- :mod:`composite_coder.montecarlo`: reproducible desk-scale simulations of
  the explicit coding constructions.
- :mod:`composite_coder.cli`: figure-ready CSV/JSON front end.
"""

__version__ = "0.1.0"

from .channels import CompositeBsc, RatePair, RayleighSystem

__all__ = ["CompositeBsc", "RatePair", "RayleighSystem", "__version__"]

"""Numerical laboratory for a dual-field variational formulation of
incompressible viscous flow.

The package evaluates the paired-field space-time functional, assembles its
stationarity system, and verifies the analytic structure numerically:
antisymmetry under the field swap, zero value at the stationary point,
difference-field energy balance, the steady uniqueness certificate, and
boundary-condition recovery from the extended functional.
"""

__version__ = "0.1.0"

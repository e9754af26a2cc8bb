"""Pseudo-spectral decay laboratory for the fractional pseudo-parabolic
equation u_t - m Lap(u_t) + (-Lap)^alpha u = u^(theta+1).

The package computes the exact linear semigroup and the mild (Duhamel)
nonlinear flow on a periodic lattice, measures algebraic decay rates
against a continuum quadrature oracle, and probes the gain/loss dichotomy
of the high-frequency dissipation.
"""

__version__ = "0.1.0"

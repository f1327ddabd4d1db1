"""Radial finite-volume laboratory for a chemotaxis-consumption system.

Simulates u_t = div(D(u) grad u - u grad v) coupled to the quasi-static
signal equation 0 = Lap(v) - u v on a ball in R^n, reduced to one radial
variable, with power-law diffusion D(u) = kappa (u+1)^(-alpha). Provides
verification of the discrete conservation/comparison identities and sweep
experiments around the decay exponent alpha = 1 separating bounded runs
from blow-up candidates.
"""

__version__ = "0.1.0"

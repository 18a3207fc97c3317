"""Numerical laboratory for scalar SDEs with volatility ambiguity.

The state follows dX = f(X, t) dt + g(X, t) dB where the driver B has an
uncertain variance rate confined to a band [sigma_lower^2, sigma_upper^2].
The package simulates paths under adversarial volatility scenarios,
machine-checks Lyapunov-style decay and growth certificates that hold
uniformly over the band, and estimates worst-case pathwise exponential
rates empirically.

Each name is imported from the module that defines it, for example
``from gsde.expr import parse``; ``gsde.cli`` is the command line.
"""

__version__ = "0.1.0"

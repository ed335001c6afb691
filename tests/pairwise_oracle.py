"""The reference minimizer that the tests hold ``estimate_theta`` to.

It sees the objective only through :func:`divtol.pairwise_objective`, the
literal O(n^2) double sum over pairs of animals, and shares none of the
group statistics that the closed form is built from.
"""

import numpy as np

from divtol import pairwise_objective

#: 10^6 + 1 points on [0, 1]: a minimizer lies within 5e-7 of one of them
GRID = np.linspace(0.0, 1.0, 10**6 + 1)


def grid_argmin(ds, spec) -> float:
    """Argmin over :data:`GRID` of the double sum, read at theta = 0, 1/2 and 1.

    The objective is a quadratic in theta, so those three values fix it
    exactly: ``psi(t) = a t^2 + b t + c`` with ``c = psi(0)``,
    ``a = 2 (psi(0) + psi(1)) - 4 psi(1/2)`` and ``b = psi(1) - psi(0) - a``.
    """
    f0, fh, f1 = (pairwise_objective(t, ds, spec) for t in (0.0, 0.5, 1.0))
    a = 2.0 * (f0 + f1) - 4.0 * fh
    b = f1 - f0 - a
    return float(GRID[np.argmin((a * GRID + b) * GRID + f0)])

"""Matrix-parameter optimization and verification toolkit.

Subpackages:
    matcore      dense matrix primitives (norms, singular values, polar factors)
    optim        optimizer steppers and stepsize schedules
    problems     objective oracles (quadratic, linear MSE, small MLP) and data
    diagnostics  per-step curvature and norm diagnostics
    verify       executable checks of convergence bounds and norm inequalities
    harness      experiment runner, tuning grids, CSV/JSON emission, CLI
"""

from . import matcore, optim, problems, diagnostics, verify, harness

__all__ = ["matcore", "optim", "problems", "diagnostics", "verify", "harness"]

"""spinctl: optimal control-field histories for a spin under colored noise.

Submodules
----------
quat        quaternion algebra (scalar types + batched array helpers)
magnus      ordered exponentials and their exact rotation-vector resummation
noise       stationary covariance kernels (1/f flagship), their lag convolution, path sampling
evolution   rotating-triad kinematics, control recovery, targets, drift
fidelity    closed-form fidelity for arbitrary spin + Monte Carlo estimator
optimizer   constrained variational solver and its lambda_inv sweep
cli         batch front end (JSON configs -> CSV/JSON artifacts); not imported
            by the package, so ``python -m spinctl.cli`` runs it as a script

SciPy is imported inside the functions that use it, never at module level,
so ``import spinctl`` loads numpy only and ``magnus-check`` never loads SciPy;
so is the Monte Carlo thread pool, which no other kind starts.  A solution's
force-balance certificate is computed when first read, so ``mc-validate`` at
lambda_inv = 0, which never reads it, loads ``scipy.special`` only.
"""

__version__ = "0.1.0"

from . import evolution, fidelity, magnus, noise, optimizer, quat  # noqa: F401
from .errors import (  # noqa: F401
    AmbiguousAxis,
    AxisRequired,
    BCUnreachable,
    ConfigError,
    DegenerateSample,
    DomainError,
    NoDescent,
    NotPSD,
    SingularCot,
    SolveFailed,
    SpinctlError,
    UnsupportedOrder,
)

"""toepsolve: fast solvers for bordered two-level block-Toeplitz systems.

Preconditioned GMRES with a block-circulant DFT matvec, a direct block
bordering solver with Schur border elimination, a deterministic
synthetic problem generator with a binary file format, and a command
line (``toepsolve``) to generate, solve and verify.
"""

from . import errors, numerics, problems, solvers, toeplitz
from .errors import ToepsolveError

__all__ = ["errors", "numerics", "problems", "solvers", "toeplitz", "ToepsolveError"]
__version__ = "0.1.0"

"""Effective-generator expansions of periodically driven Lindblad
dynamics.

The package builds vectorized GKLS superoperators for piecewise-constant
periodic drives on up to six spin-1/2 sites, computes stroboscopic and
kick-free high-frequency expansions of the one-period effective
generator, extracts the canonical (Hamiltonian, coefficient-matrix)
decomposition over the normalized Pauli basis, certifies whether each
truncation is a valid Lindblad generator, verifies the structural
theorems obeyed by the coefficient matrices (sparsity, block structure,
triangular negativity, growth bounds), and probes the resulting
dynamics (stroboscopic accuracy, complete positivity, stationary
states, unraveling feasibility).
"""

from .core import *
from .dynamics import *
from .errors import *
from .lindblad import *
from .liouvillianity import *
from .locality import *
from .magnus import *
from .models import *
from .pauli import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *errors.__all__,
    *pauli.__all__,
    *lindblad.__all__,
    *magnus.__all__,
    *liouvillianity.__all__,
    *locality.__all__,
    *models.__all__,
    *dynamics.__all__,
]

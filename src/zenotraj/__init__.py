"""Post-selected open-quantum-system dynamics on superposed interferometer paths.

A qubit is sent through an N-arm interferometer so that it interacts with its
environment in a coherent superposition of trajectories; projecting the path
register afterwards reshapes the reduced dynamics. This package provides the
exact post-selected dynamics for dissipative and pure-dephasing spin-boson
models, the associated spectral filter functions and overlap-integral decay
factors, a collective-decay (indefinite-position) scenario, perturbative
second-order machinery for arbitrary couplings, and non-Markovianity /
CP-divisibility diagnostics, plus a CLI for reproducible data generation.
"""

from . import core, dephasing, dicke, dissipative, errors, filters, numerics, perturbation
from .core import *  # noqa: F401,F403
from .dephasing import *  # noqa: F401,F403
from .dicke import *  # noqa: F401,F403
from .dissipative import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .perturbation import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = ["__version__"] + [
    name
    for module in (errors, numerics, core, dissipative, dephasing, filters, dicke, perturbation)
    for name in module.__all__
]

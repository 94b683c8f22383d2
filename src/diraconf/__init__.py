"""Bound states of the Dirac equation with Coulomb plus linear confining
potentials: the exact preservation mechanism, its effective-operator
explanation, its uniqueness, and the antiparticle counterpart.

Natural units hbar = c = 1 throughout; masses default to 1.
"""

__version__ = "0.1.0"

from .ansatz import *
from .coulomb import *
from .errors import *
from .fw_effective import *
from .quantum_numbers import *
from .radial_solver import *
from .rescale import *
from .special_functions import *


def __getattr__(name):
    # ``kernel_backend`` is looked up, not bound at import: the kernel
    # backend is selected on the first kernel call, which this triggers
    if name == "kernel_backend":
        from ._kernels import backend
        return backend()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Fractional gradients, norms, and interpolation diagnostics on periodic grids.

The public names are those in each module's __all__; the package exports
every one of them and lists none itself.
"""

__version__ = "0.1.0"

from . import config, core, direct, interp, norms, spectral, verify
from .config import *
from .core import *
from .direct import *
from .interp import *
from .norms import *
from .spectral import *
from .verify import *

__all__ = ["__version__", *config.__all__, *core.__all__, *direct.__all__, *interp.__all__,
           *norms.__all__, *spectral.__all__, *verify.__all__]

"""Abelian periodicity of fixed points of binary morphisms.

The library decides, as far as proofs or configurable bounds allow, whether
the infinite fixed point f^omega(a) of a binary morphism prolongable on a is
abelian periodic, purely abelian periodic, or neither. Exact integer and
rational arithmetic throughout; prefixes for brute-force cross-checks are
numpy byte arrays, one byte per letter, built in place: 1e8 letters peak at
about 101 MB.
"""

# Set before the submodules load: classify's reports read it.
__version__ = "0.1.0"

# The star import below rebinds `classify` to the function, hence the alias.
from . import analysis, classify as _classify, errors, lift, matrices, periodic, rank1, words
from .analysis import *
from .classify import *
from .errors import *
from .lift import *
from .matrices import *
from .periodic import *
from .rank1 import *
from .words import *

__all__ = ["__version__"]
__all__ += words.__all__
__all__ += matrices.__all__
__all__ += analysis.__all__
__all__ += rank1.__all__
__all__ += lift.__all__
__all__ += periodic.__all__
__all__ += _classify.__all__
__all__ += errors.__all__

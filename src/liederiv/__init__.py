"""Exact-arithmetic derivation algebras of block parabolic subalgebras of gl_n.

Everything is computed over the rationals with no floating point anywhere:
the block parabolic q of gl_n for a composition of n is built with an
adapted basis, its derivation algebra is found as the exact kernel of the
Leibniz system, and every derivation splits as a center-valued map plus an
inner one. The split is produced constructively, and the dimension count
(center + simple - selected) * center + dim(trace-zero part)
is verified against the kernel dimension for every composition swept. The
test suite cross-checks the split against an independent linear
projection; at run time none is needed, because the residual of the split
lies in the center-valued ideal, and where the sum is direct the split
into the two summands is unique.
"""

from .derivations import *
from .lie import *
from .linalg import *
from .parabolic import *

# each module's __all__ is the one list of its public names
__all__ = derivations.__all__ + lie.__all__ + linalg.__all__ + parabolic.__all__

__version__ = "0.1.0"

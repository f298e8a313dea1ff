"""Many qubits in a single quantum rotor.

A planar rotor's integer momentum lattice is large enough to carry a whole
register: N qudits of dimension d, protected against angle drifts up to
pi/m and momentum kicks up to delta_L, live in one rotor via the comb
codewords built here.  The package provides the momentum-window state
representation, the shift-diagonal operator algebra (logical Weyl pairs,
entangling phase gate, stabilizers), codeword constructors for four
normalizable approximant families, syndrome extraction and correction, and
quadrature / closed-form / Monte Carlo routes to the noncorrectable-error
probability.
"""

from . import analysis, code_space, errors, noise_correction, rotor_state, weyl_algebra
from .analysis import *  # noqa: F403 - each module's __all__ is its public surface
from .code_space import *  # noqa: F403
from .errors import *  # noqa: F403
from .noise_correction import *  # noqa: F403
from .rotor_state import *  # noqa: F403
from .weyl_algebra import *  # noqa: F403

__version__ = "0.1.0"

# The package has no compiled kernel; these constants stay only because
# benchmark environment records still read them.
HAS_NUMBA = False
USING_NUMBA = False

__all__ = ["__version__", "HAS_NUMBA", "USING_NUMBA"] + [
    name
    for module in (errors, rotor_state, weyl_algebra, code_space, noise_correction, analysis)
    for name in module.__all__
]

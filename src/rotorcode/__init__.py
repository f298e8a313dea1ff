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

from .analysis import (
    PeResult,
    SweepSpec,
    angle_deviation_sampler,
    compute_pe,
    pe_asymptotic,
    pe_closed_form,
    pe_monte_carlo,
    pe_pure_guess,
    pe_quadrature,
    sweep,
)
from .code_space import (
    Approximant,
    CodeParams,
    LogicalLabels,
    approx_basis_state,
    approx_codeword,
    binary_labels,
    binary_table,
    default_window_half,
    digits_to_k,
    encoding_table,
    envelope_coefficients,
    ideal_codeword,
    ideal_comb,
    k_to_digits,
    logical_encode,
    logical_labels,
    reconstruct_momentum,
)
from .errors import NumericalError
from .noise_correction import (
    ErrorEvent,
    RoundTripSummary,
    Syndrome,
    apply_error,
    centered_angle,
    centered_residue,
    correct,
    measure_syndrome_expected,
    measure_syndrome_sampled,
    run_round_trip,
)
from .rotor_state import (
    AngleGrid,
    RotorState,
    angle_distribution,
    fidelity,
    from_amplitudes,
    inner,
    make_state,
    pad_state,
    sample_angle,
    sample_momentum,
    theta_wavefunction,
)
from .weyl_algebra import (
    ShiftDiagonalOperator,
    angle_shift,
    apply,
    commutator_norm,
    compose,
    identity,
    invariant_residuals,
    momentum_shift,
    residual_rotor_phase,
    scaled,
    operator_difference_norm,
    phase_gate,
    qubit_X,
    qubit_Z,
    qudit_pair,
    random_probes,
    stabilizer_ops,
)

__version__ = "0.1.0"

# The package has no compiled kernel; these constants stay only because
# benchmark environment records still read them.
HAS_NUMBA = False
USING_NUMBA = False

__all__ = [
    "__version__",
    "HAS_NUMBA",
    "USING_NUMBA",
    "NumericalError",
    # states
    "RotorState",
    "AngleGrid",
    "make_state",
    "from_amplitudes",
    "pad_state",
    "inner",
    "fidelity",
    "theta_wavefunction",
    "angle_distribution",
    "sample_momentum",
    "sample_angle",
    # operators
    "ShiftDiagonalOperator",
    "apply",
    "identity",
    "angle_shift",
    "momentum_shift",
    "qubit_Z",
    "qubit_X",
    "qudit_pair",
    "phase_gate",
    "stabilizer_ops",
    "residual_rotor_phase",
    "scaled",
    "compose",
    "commutator_norm",
    "operator_difference_norm",
    "random_probes",
    "invariant_residuals",
    # code space
    "CodeParams",
    "Approximant",
    "LogicalLabels",
    "logical_labels",
    "digits_to_k",
    "k_to_digits",
    "reconstruct_momentum",
    "binary_labels",
    "encoding_table",
    "envelope_coefficients",
    "binary_table",
    "default_window_half",
    "ideal_comb",
    "ideal_codeword",
    "approx_basis_state",
    "approx_codeword",
    "logical_encode",
    # noise and correction
    "ErrorEvent",
    "Syndrome",
    "RoundTripSummary",
    "apply_error",
    "centered_angle",
    "centered_residue",
    "measure_syndrome_expected",
    "measure_syndrome_sampled",
    "correct",
    "run_round_trip",
    # analysis
    "PeResult",
    "SweepSpec",
    "pe_quadrature",
    "pe_closed_form",
    "pe_asymptotic",
    "pe_pure_guess",
    "pe_monte_carlo",
    "compute_pe",
    "angle_deviation_sampler",
    "sweep",
]

"""Error channel, syndrome extraction, and correction round trips.

The modeled channel is a rigid rotation-plus-kick

    E(eps, e) = V^e . e^{i eps L}

(drift the angle by eps, then shift every momentum by e).  Both syndromes
are read without disturbing the encoded content:

* angular residue: the phase of <V^m>, divided by -m, lands in the sector
  (-pi/m, pi/m] (the boundary +pi/m is kept in the sector);
* momentum residue: the tooth residue class mod r, either from a sampled
  momentum (with the projective collapse onto that residue class) or from
  the phase of the diagonal stabilizer expectation <S_L>.

Correction applies V^{-q} e^{-i theta L}.  A kick beyond the protected
range |e| <= delta_L aliases onto the wrong residue representative and the
correction walks the state onto another codeword: a logical error.

run_round_trip also models what a projective angular measurement would do
to the approximant's own spread: each trial draws a latent deviation u from
the angle density and classifies the wrap of eps + u out of the sector as a
logical phase error.  For the fixed channel the state-level pass is fully
deterministic, so it is evaluated once per call and its fidelity is shared
by every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import weyl_algebra as wa
from .analysis import angle_deviation_sampler
from .errors import NumericalError
from .code_space import Approximant, CodeParams, logical_encode
from .rotor_state import RotorState, fidelity, sample_momentum

EXPECTATION_TOL = 1e-12
RESIDUE_MASS_TOL = 1e-15


@dataclass(frozen=True)
class ErrorEvent:
    """One rigid channel use: angle drift epsilon, momentum kick e."""

    epsilon: float
    e: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        object.__setattr__(self, "e", int(self.e))


@dataclass(frozen=True)
class Syndrome:
    """Angular residue in (-pi/m, pi/m] and centered momentum residue."""

    theta_residue: float
    q: int


def centered_angle(x: float | np.ndarray, period: float) -> tuple:
    """Reduce x (a float or an array) into (-period/2, period/2]; return
    (residue, wrap count), as (float, int) or (float64, int64) arrays.

    The boundary is tied upward: x = -period/2 maps to +period/2.  An x whose
    residue the double cannot place in the sector (from about 2^52 periods
    on) raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    q = x / period
    if not np.all(np.abs(q) < 2.0**63):
        raise ValueError(f"angle must be finite and under 2^63 periods of {period!r} from 0")
    wrap = np.rint(q).astype(np.int64)
    res = x - wrap * period  # an int wrap: x = -0.0 keeps its sign, as x - 0 * period does
    # a tie, or x within an ulp of a sector edge (q rounds onto the half-integer), leaves
    # res on or past an edge: one period more or less puts it in, exactly (Sterbenz's lemma),
    # and a tie at -period/2 wraps up to +period/2
    half = period / 2
    step = (res > half).astype(np.int64) - (res <= -half)
    wrap, res = wrap + step, res - step * period
    if not np.all((res > -half) & (res <= half)):
        raise ValueError(f"a double cannot reduce this angle into (-{half!r}, {half!r}]")
    return (float(res), int(wrap)) if x.ndim == 0 else (res, wrap)


def centered_residue(value: int, r: int) -> int:
    """Reduce an integer into [-(r-1)/2, (r-1)/2] for odd r."""
    half = (r - 1) // 2
    return (value + half) % r - half


def apply_error(s: RotorState, event: ErrorEvent) -> RotorState:
    """Apply V^e e^{i eps L} exactly; the window grows by |e| on the kick side."""
    op = wa.compose(wa.momentum_shift(event.e), wa.angle_shift(event.epsilon))
    return wa.apply(op, s)


def _vm_expectation(s: RotorState, m: int) -> complex:
    if s.l_max - s.l_min + 1 <= m:
        raise ValueError(
            f"window spans fewer than m+1 = {m + 1} momenta; angular syndrome undefined"
        )
    # <V^m> = sum_l conj(a_{l+m}) a_l over the l whose l + m is in the support too
    _, up, down = np.intersect1d(
        s.support, s.support + m, assume_unique=True, return_indices=True
    )
    return complex(np.vdot(s.values[up], s.values[down]))


def _theta_residue_from_state(s: RotorState, m: int) -> float:
    ev = _vm_expectation(s, m)
    if abs(ev) < EXPECTATION_TOL:
        raise NumericalError(
            "angular stabilizer expectation is numerically zero; "
            "the angular residue is undefined on this state"
        )
    theta = -np.angle(ev) / m
    res, _ = centered_angle(theta, 2.0 * math.pi / m)
    return res


def measure_syndrome_expected(s: RotorState, params: CodeParams) -> Syndrome:
    """Non-collapsing syndrome read-off from stabilizer expectation values."""
    theta = _theta_residue_from_state(s, params.m)
    r = params.r
    if r == 1:
        return Syndrome(theta_residue=theta, q=0)
    weights = np.abs(s.values) ** 2
    phases = np.exp(2j * math.pi * (s.support % r) / r)
    ev = complex(np.sum(weights * phases))
    if abs(ev) < EXPECTATION_TOL:
        raise NumericalError(
            "momentum stabilizer expectation is numerically zero; "
            "the residue is undefined on this state"
        )
    q = round(r * float(np.angle(ev)) / (2.0 * math.pi))
    return Syndrome(theta_residue=theta, q=centered_residue(q, r))


def measure_syndrome_sampled(
    s: RotorState, params: CodeParams, rng: np.random.Generator
) -> tuple[Syndrome, RotorState]:
    """Sample one momentum, collapse onto its residue class mod r, read theta.

    Returns the syndrome and the post-measurement state.  The angular part
    is read from <V^m> on the collapsed state, which commutes with the
    residue projection, so the encoded angle information is untouched.
    """
    r = params.r
    if not s.normalized:
        raise ValueError("syndrome sampling needs a normalized state")
    residue = sample_momentum(s, rng) % r

    mask = (s.support % r) == residue
    kept = s.values[mask]
    mass = float(np.sum(np.abs(kept) ** 2))
    if mass < RESIDUE_MASS_TOL:
        raise NumericalError(
            f"sampled residue class {residue} (mod {r}) carries mass "
            f"{mass:.3e} < {RESIDUE_MASS_TOL:.0e}"
        )
    collapsed = RotorState(s.l_min, s.l_max, s.support[mask], kept / math.sqrt(mass), True)

    theta = _theta_residue_from_state(collapsed, params.m)
    return Syndrome(theta_residue=theta, q=centered_residue(residue, r)), collapsed


def correct(s: RotorState, syndrome: Syndrome, params: CodeParams) -> RotorState:
    """Undo the diagnosed drift and kick: V^{-q} e^{-i theta L}."""
    op = wa.compose(
        wa.momentum_shift(-syndrome.q), wa.angle_shift(-syndrome.theta_residue)
    )
    return wa.apply(op, s)


@dataclass(frozen=True)
class RoundTripSummary:
    """Aggregate of a round-trip run and its per-trial columns.

    u, theta_outcome, wrap and angle_error are read-only arrays with one
    entry per trial; q_outcome, digit_shift, momentum_error and
    state_fidelity are shared by every trial.
    """

    params: CodeParams
    k: int
    epsilon: float
    e: int
    trials: int
    angle_errors: int
    momentum_errors: int
    errors: int
    error_rate: float
    standard_error: float
    state_fidelity: float
    q_outcome: int
    digit_shift: int
    momentum_error: bool
    u: np.ndarray = field(repr=False)
    theta_outcome: np.ndarray = field(repr=False)
    wrap: np.ndarray = field(repr=False)
    angle_error: np.ndarray = field(repr=False)


def run_round_trip(
    params: CodeParams,
    k: int,
    event: ErrorEvent,
    trials: int,
    rng: np.random.Generator,
    approx: Approximant | None = None,
    l_lo: int | None = None,
    l_hi: int | None = None,
    syndrome_mode: str = "sampled",
) -> RoundTripSummary:
    """Encode, corrupt, diagnose, correct; classify the logical outcome.

    Per trial, a latent angular deviation u is drawn from the approximant's
    angle density (u = 0 for the ideal comb) and the total displacement
    epsilon + u is reduced into the sector (-pi/m, pi/m]: a nonzero wrap is
    a logical phase error.  The kick residue determines the digit shift
    (e - q)/r, nonzero mod n being a logical momentum error.  The
    state-level encode/corrupt/correct pass is deterministic for the fixed
    channel, so its fidelity against the original codeword is computed once.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if syndrome_mode not in ("sampled", "expected"):
        raise ValueError(f"unknown syndrome_mode {syndrome_mode!r}")

    m, r, n = params.m, params.r, params.n

    # state-level pass (deterministic for the fixed event)
    codeword = logical_encode(params, k, approx, l_lo, l_hi)
    corrupted = apply_error(codeword, event)
    if syndrome_mode == "sampled":
        syndrome, post = measure_syndrome_sampled(corrupted, params, rng)
    else:
        syndrome, post = measure_syndrome_expected(corrupted, params), corrupted
    corrected = correct(post, syndrome, params)
    state_fid = fidelity(corrected, codeword)
    sector = 2.0 * math.pi / m  # after the encode, whose window check refuses a huge m

    # measurement-statistics pass
    if approx is None:
        us = np.zeros(trials)
    else:
        us = angle_deviation_sampler(approx)(rng, trials)

    q_out = centered_residue(event.e % r, r)
    digit_shift = ((event.e - q_out) // r) % n
    momentum_error = digit_shift != 0

    theta_out, wrap = centered_angle(event.epsilon + us, sector)
    angle_error = wrap != 0
    for column in (us, theta_out, wrap, angle_error):
        column.flags.writeable = False
    angle_errors = int(np.count_nonzero(angle_error))
    errors = trials if momentum_error else angle_errors
    rate = errors / trials
    se = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    return RoundTripSummary(
        params=params,
        k=k,
        epsilon=event.epsilon,
        e=event.e,
        trials=trials,
        angle_errors=angle_errors,
        momentum_errors=trials if momentum_error else 0,
        errors=errors,
        error_rate=rate,
        standard_error=se,
        state_fidelity=state_fid,
        q_outcome=q_out,
        digit_shift=digit_shift,
        momentum_error=momentum_error,
        u=us,
        theta_outcome=theta_out,
        wrap=wrap,
        angle_error=angle_error,
    )


__all__ = [
    "ErrorEvent",
    "Syndrome",
    "RoundTripSummary",
    "centered_angle",
    "centered_residue",
    "apply_error",
    "measure_syndrome_expected",
    "measure_syndrome_sampled",
    "correct",
    "run_round_trip",
]

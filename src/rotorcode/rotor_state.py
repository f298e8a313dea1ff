"""Finite-truncation rotor states in the angular-momentum basis.

A rotor carries one 2pi-periodic coordinate theta and a conjugate integer
angular momentum l.  States are stored as complex amplitude vectors over a
truncated momentum window [l_min, l_max]:

    |s> = sum_l a_l |l>,     psi(theta) = <theta|s> = sum_l a_l e^{i l theta},

with <theta|l> = e^{i l theta}.  All angular densities and integrals use the
measure dtheta/(2pi), under which a normalized amplitude vector has a unit-
mass angular density (Parseval).

States are immutable values: every operation returns a fresh state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import evaluate_psi, grid_sampler, psi_on_grid

TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-12


@dataclass(frozen=True)
class RotorState:
    """Amplitudes over the momentum window [l_min, l_max] (inclusive)."""

    l_min: int
    l_max: int
    amplitudes: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        if self.l_min > self.l_max:
            raise ValueError(f"empty window: l_min={self.l_min} > l_max={self.l_max}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != self.l_max - self.l_min + 1:
            raise ValueError(
                f"amplitude length {amps.shape} does not match window "
                f"[{self.l_min}, {self.l_max}]"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitude")
        if self.normalized:
            norm2 = float(np.sum(np.abs(amps) ** 2))
            if abs(norm2 - 1.0) > NORM_TOL:
                raise ValueError(f"normalized flag set but |a|^2 sums to {norm2!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def ls(self) -> np.ndarray:
        """Momentum values carried by the window."""
        return np.arange(self.l_min, self.l_max + 1)

    def amplitude_at(self, l: int) -> complex:
        """a_l, zero outside the window."""
        if l < self.l_min or l > self.l_max:
            return 0.0 + 0.0j
        return complex(self.amplitudes[l - self.l_min])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def support_hull(self, cutoff: float = 0.0) -> tuple[int, int]:
        """Tight [l_lo, l_hi] containing every amplitude with |a| > cutoff."""
        idx = np.nonzero(np.abs(self.amplitudes) > cutoff)[0]
        if idx.size == 0:
            raise ValueError("state has no support above cutoff")
        return int(self.l_min + idx[0]), int(self.l_min + idx[-1])


@dataclass(frozen=True)
class AngleGrid:
    """Uniform grid of angles in [-pi, pi) and the density |psi|^2 there.

    densities are probability densities with respect to dtheta/(2pi): a
    normalized state integrates to 1 over one period.
    """

    points: np.ndarray
    densities: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        dens = np.asarray(self.densities, dtype=np.float64)
        if pts.shape != dens.shape or pts.ndim != 1:
            raise ValueError("points/densities shape mismatch")
        if np.any(dens < 0.0):
            raise ValueError("negative density")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "densities", dens)

    def total_mass(self) -> float:
        """Trapezoid integral of the density over one period, measure dtheta/2pi.

        The grid covers [-pi, pi) so the trapezoid closes periodically
        through the wrap point at +pi.
        """
        closed = np.concatenate([self.densities, self.densities[:1]])
        pts = np.concatenate([self.points, [self.points[0] + TWO_PI]])
        return float(np.trapezoid(closed, pts) / TWO_PI)


def make_state(
    entries: list[tuple[int, complex]],
    normalize: bool = True,
    pad: int = 0,
) -> RotorState:
    """Build a state from (l, amplitude) pairs on the tight momentum hull.

    pad widens the window symmetrically with zero amplitudes, which strict
    operator application requires as a safety margin.
    """
    if not entries:
        raise ValueError("entries must be non-empty")
    ls = [int(l) for l, _ in entries]
    if len(set(ls)) != len(ls):
        raise ValueError(f"duplicate momentum index in entries: {sorted(ls)}")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    l_min, l_max = min(ls) - pad, max(ls) + pad
    amps = np.zeros(l_max - l_min + 1, dtype=np.complex128)
    for l, a in entries:
        amps[l - l_min] = a
    nrm = np.linalg.norm(amps)
    if normalize:
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        amps = amps / nrm
    return RotorState(l_min, l_max, amps, normalized=normalize or abs(nrm - 1.0) <= NORM_TOL)


def from_amplitudes(l_min: int, amplitudes: np.ndarray, normalize: bool = True) -> RotorState:
    """Wrap an amplitude array starting at l_min into a state."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    nrm = np.linalg.norm(amps)
    if normalize:
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        amps = amps / nrm
    return RotorState(
        int(l_min),
        int(l_min) + amps.shape[0] - 1,
        amps,
        normalized=normalize or abs(nrm - 1.0) <= NORM_TOL,
    )


def pad_state(s: RotorState, margin: int) -> RotorState:
    """Same state on a window widened by `margin` zeros on both sides."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if margin == 0:
        return s
    amps = np.concatenate(
        [
            np.zeros(margin, dtype=np.complex128),
            s.amplitudes,
            np.zeros(margin, dtype=np.complex128),
        ]
    )
    return RotorState(s.l_min - margin, s.l_max + margin, amps, s.normalized)


def inner(a: RotorState, b: RotorState) -> complex:
    """<a|b> = sum_l conj(a_l) b_l over the window intersection."""
    lo = max(a.l_min, b.l_min)
    hi = min(a.l_max, b.l_max)
    if lo > hi:
        return 0.0 + 0.0j
    sa = a.amplitudes[lo - a.l_min : hi - a.l_min + 1]
    sb = b.amplitudes[lo - b.l_min : hi - b.l_min + 1]
    return complex(np.vdot(sa, sb))


def fidelity(a: RotorState, b: RotorState) -> float:
    """|<a|b>|^2 for normalized states."""
    if not (a.normalized and b.normalized):
        raise ValueError("fidelity requires normalized states")
    return float(abs(inner(a, b)) ** 2)


def _reduce_angles(thetas: np.ndarray) -> np.ndarray:
    """IEEE remainder of each angle by 2pi, the value math.remainder gives.

    fmod and the one correcting step of 2pi are both exact, so equal reduced
    angles give bit-identical wavefunction values.
    """
    if np.any(np.isinf(thetas)):
        raise ValueError("theta must be finite")
    r = np.fmod(thetas, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    r = np.where(r < -math.pi, r + TWO_PI, r)
    # |r| = pi is a tie: math.remainder picks the even quotient
    ties = np.nonzero(np.abs(r) == math.pi)[0]
    r[ties] = [math.remainder(float(t), TWO_PI) for t in thetas[ties]]
    return r


def theta_wavefunction(s: RotorState, theta):
    """psi(theta) = sum_l a_l e^{i l theta}; 2pi-periodic, scalar or array theta."""
    th = np.asarray(theta, dtype=np.float64)
    out = evaluate_psi(s.amplitudes, s.l_min, _reduce_angles(th.ravel()))
    if np.isscalar(theta):
        return complex(out[0])
    return out.reshape(th.shape)


def angle_distribution(s: RotorState, resolution: int = 4096) -> AngleGrid:
    """|psi(theta)|^2 on a uniform grid over [-pi, pi), measure dtheta/2pi."""
    if not s.normalized:
        raise ValueError("angle_distribution requires a normalized state")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    pts = -math.pi + TWO_PI * np.arange(resolution) / resolution
    psi = psi_on_grid(s.amplitudes, s.l_min, resolution)
    return AngleGrid(points=pts, densities=np.abs(psi) ** 2)


def sample_momentum(s: RotorState, rng: np.random.Generator) -> int:
    """Draw l with Born probability |a_l|^2."""
    if not s.normalized:
        raise ValueError("sample_momentum requires a normalized state")
    probs = np.abs(s.amplitudes) ** 2
    probs = probs / probs.sum()
    return int(s.l_min + rng.choice(probs.shape[0], p=probs))


def sample_angle(
    s: RotorState, rng: np.random.Generator, resolution: int = 4096
) -> float:
    """Inverse-CDF draw of theta from |psi|^2, linear between grid points."""
    grid = angle_distribution(s, resolution)
    return float(grid_sampler(grid.densities)(rng))


__all__ = [
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
]

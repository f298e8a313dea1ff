"""Finite-truncation rotor states in the angular-momentum basis.

A rotor carries one 2pi-periodic coordinate theta and a conjugate integer
angular momentum l.  A state is a finite superposition inside a truncated
momentum window [l_min, l_max]:

    |s> = sum_l a_l |l>,     psi(theta) = <theta|s> = sum_l a_l e^{i l theta},

with <theta|l> = e^{i l theta}.  Only the a_l != 0 are stored, in `values`,
at the sorted momenta `support`, so every operation costs O(support), not
O(window).  All angular densities and integrals use the measure
dtheta/(2pi), under which a normalized state has a unit-mass angular
density (Parseval).

States are immutable values: every operation returns a fresh state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import evaluate_psi, psi_on_grid, rejection_draw

TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-12


@dataclass(frozen=True)
class RotorState:
    """Amplitudes `values` at the sorted, distinct momenta `support`, inside
    the momentum window [l_min, l_max] (inclusive)."""

    l_min: int
    l_max: int
    support: np.ndarray
    values: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        if self.l_min > self.l_max:
            raise ValueError(f"empty window: l_min={self.l_min} > l_max={self.l_max}")
        ls = np.array(self.support, dtype=np.int64)
        vals = np.array(self.values, dtype=np.complex128)
        if ls.ndim != 1 or vals.shape != ls.shape:
            raise ValueError(f"support {ls.shape} does not match values {vals.shape}")
        if not np.isfinite(vals.view(np.float64)).all():
            raise ValueError("non-finite amplitude")
        if ls.shape[0] and not (
            self.l_min <= ls[0] and ls[-1] <= self.l_max and (ls[1:] > ls[:-1]).all()
        ):
            raise ValueError(
                f"support must be sorted, distinct and inside the window "
                f"[{self.l_min}, {self.l_max}]"
            )
        if self.normalized:
            norm2 = np.vdot(vals, vals).real
            if abs(norm2 - 1.0) > NORM_TOL:
                raise ValueError(f"normalized flag set but |a|^2 sums to {float(norm2)!r}")
        ls.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "support", ls)
        object.__setattr__(self, "values", vals)

    @property
    def ls(self) -> np.ndarray:
        """Momentum values carried by the window."""
        return np.arange(self.l_min, self.l_max + 1)

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only dense amplitudes over the window, zero off the support."""
        amps = np.zeros(self.l_max - self.l_min + 1, dtype=np.complex128)
        amps[self.support - self.l_min] = self.values
        amps.flags.writeable = False
        return amps

    def amplitude_at(self, l: int) -> complex:
        """a_l, zero off the support."""
        i = int(self.support.searchsorted(l))
        if i < self.support.shape[0] and self.support[i] == l:
            return complex(self.values[i])
        return 0.0 + 0.0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def support_hull(self, cutoff: float = 0.0) -> tuple[int, int]:
        """Tight [l_lo, l_hi] containing every amplitude with |a| > cutoff."""
        idx = np.nonzero(np.abs(self.values) > cutoff)[0]
        if idx.size == 0:
            raise ValueError("state has no support above cutoff")
        return int(self.support[idx[0]]), int(self.support[idx[-1]])


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
        through the wrap point at +pi.  The sum is 1 only when no two support
        momenta share a residue mod M; otherwise the exact point values alias
        (3.54 for an N = 14, delta_L = 1 trunc-gauss codeword at M = 4096).
        """
        closed = np.concatenate([self.densities, self.densities[:1]])
        pts = np.concatenate([self.points, [self.points[0] + TWO_PI]])
        return float(np.sum(np.diff(pts) * (closed[1:] + closed[:-1]) / 2.0) / TWO_PI)


def _state(l_min: int, l_max: int, support, values, normalize: bool) -> RotorState:
    nrm = np.linalg.norm(values)
    if normalize:
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        values = values / nrm
    return RotorState(l_min, l_max, support, values, normalize or abs(nrm - 1.0) <= NORM_TOL)


def make_state(entries: list[tuple[int, complex]], normalize: bool = True) -> RotorState:
    """Build a state from (l, amplitude) pairs on the tight momentum hull."""
    if not entries:
        raise ValueError("entries must be non-empty")
    ls, values = zip(*sorted(((int(l), a) for l, a in entries), key=lambda e: e[0]))
    if len(set(ls)) != len(ls):
        raise ValueError(f"duplicate momentum index in entries: {list(ls)}")
    values = np.array(values, dtype=np.complex128)
    keep = values != 0
    return _state(ls[0], ls[-1], np.array(ls)[keep], values[keep], normalize)


def from_amplitudes(l_min: int, amplitudes: np.ndarray, normalize: bool = True) -> RotorState:
    """Wrap a dense amplitude array starting at l_min into a state."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    idx = (amps != 0).nonzero()[0]
    l_min = int(l_min)
    return _state(l_min, l_min + amps.shape[0] - 1, l_min + idx, amps[idx], normalize)


def pad_state(s: RotorState, margin: int) -> RotorState:
    """Same state on a window widened by `margin` momenta on both sides.

    Operator application never needs it: `apply` widens its output window by
    the operator's shift hull.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if margin == 0:
        return s
    return replace(s, l_min=s.l_min - margin, l_max=s.l_max + margin)


def inner(a: RotorState, b: RotorState) -> complex:
    """<a|b> = sum_l conj(a_l) b_l over the momenta both supports hold."""
    _, ia, ib = np.intersect1d(a.support, b.support, assume_unique=True, return_indices=True)
    return complex(np.vdot(a.values[ia], b.values[ib]))


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
    if not np.all(np.isfinite(thetas)):
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
    out = evaluate_psi(s.values, s.support, _reduce_angles(th.ravel()))
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
    psi = psi_on_grid(s.values, s.support, resolution)
    return AngleGrid(points=pts, densities=np.abs(psi) ** 2)


def sample_momentum(s: RotorState, rng: np.random.Generator) -> int:
    """Draw l with Born probability |a_l|^2."""
    if not s.normalized:
        raise ValueError("sample_momentum requires a normalized state")
    probs = np.abs(s.values) ** 2
    probs = probs / probs.sum()
    return int(s.support[rng.choice(probs.shape[0], p=probs)])


def sample_angle(s: RotorState, rng: np.random.Generator, resolution: int = 4096) -> float:
    """Exact draw of theta in [-pi, pi) from |psi|^2: uniform theta kept when
    U B <= |psi(theta)|^2, B = (sum |a_l|)^2 <= |support|.  A draw costs about
    B |support| psi terms, O(S^2) for a dense support of S momenta.  resolution
    is ignored; it stays for callers that pass it positionally."""
    if not s.normalized:
        raise ValueError("sample_angle requires a normalized state")
    bound = float(np.sum(np.abs(s.values))) ** 2
    spread = math.ceil(bound)  # n draws asked: spread * n proposals keep ~n

    def propose(rng: np.random.Generator, n: int) -> tuple:
        thetas = TWO_PI * rng.random(spread * n) - math.pi
        dens = np.abs(evaluate_psi(s.values, s.support, thetas)) ** 2
        return thetas, rng.random(spread * n) * bound <= dens

    return float(rejection_draw(propose, rng, 1)[0])


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

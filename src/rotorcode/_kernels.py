"""Angular wavefunction kernels and the tabulated inverse-CDF sampler of sample_angle.

psi(theta) = sum_j a_j e^{i l_j theta} over a state's support (momenta l_j,
amplitudes a_j) is evaluated two ways:

* on the uniform grid theta_j = -pi + 2 pi j / M by one inverse FFT of the
  amplitudes folded mod M (angle distributions, sample_angle);
* at scattered angles by a chunked sum over the support (theta_wavefunction).

The folding is integer arithmetic, so the grid path is exact for supports
wider than M and for supports far from l = 0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError

TWO_PI = 2.0 * math.pi


def evaluate_psi(amps: np.ndarray, ls: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """psi(theta_i) = sum_j amps[j] e^{i ls[j] theta_i}."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    base = int(ls[0]) if ls.shape[0] else 0
    offsets = ls - base
    out = np.empty(thetas.shape[0], dtype=np.complex128)
    # ~32 MB of complex128 per chunk of the phase matrix
    chunk = max(1, (2 << 20) // max(1, offsets.shape[0]))
    for start in range(0, thetas.shape[0], chunk):
        block = thetas[start : start + chunk]
        # e^{i ls[0] theta} factored out, so |psi| keeps its accuracy at large |l|
        phases = np.exp(1j * np.outer(block, offsets))
        out[start : start + chunk] = (phases @ amps) * np.exp(1j * base * block)
    return out


def psi_on_grid(amps: np.ndarray, ls: np.ndarray, resolution: int) -> np.ndarray:
    """psi at theta_j = -pi + 2 pi j / M, j = 0..M-1, for M = resolution.

    psi(theta_j) = M ifft(b)_j with b_k = sum_{l = k (mod M)} (-1)^l a_l.
    """
    M = int(resolution)
    b = np.zeros(M, dtype=np.complex128)
    np.add.at(b, ls % M, np.where(ls % 2 == 0, amps, -amps))
    return M * np.fft.ifft(b)


def grid_sampler(
    densities: np.ndarray,
) -> Callable[[np.random.Generator, int | None], np.ndarray | float]:
    """sample_angle's inverse-CDF sampler for a density tabulated at theta_j = -pi + 2 pi j / M.

    The M intervals close periodically through +pi; the cumulative
    trapezoid is normalized and inverted by linear interpolation, so every
    draw lies in [-pi, pi].  draw(rng, size) takes one uniform per draw.
    """
    dens = np.asarray(densities, dtype=np.float64)
    M = dens.shape[0]
    pts = -math.pi + TWO_PI * np.arange(M + 1) / M
    closed = np.append(dens, dens[0])
    steps = 0.5 * (closed[1:] + closed[:-1]) * np.diff(pts)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    total = cdf[-1]
    if not (math.isfinite(total) and total > 0.0):
        raise NumericalError("angle density integrates to zero")
    cdf /= total

    def draw(rng: np.random.Generator, size: int | None = None):
        return np.interp(rng.random(size), cdf, pts)

    return draw


__all__ = ["evaluate_psi", "psi_on_grid", "grid_sampler"]

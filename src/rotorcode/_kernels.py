"""Angular wavefunction kernels and the tabulated inverse-CDF sampler.

psi(theta) = sum_l a_l e^{i l theta} is evaluated two ways:

* on the uniform grid theta_j = -pi + 2 pi j / M by one inverse FFT of the
  amplitudes folded mod M (angle distributions, angle samplers);
* at scattered angles by a direct chunked sum (theta_wavefunction).

The folding is integer arithmetic, so the grid path is exact for windows
wider than M and for windows far from l = 0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError

TWO_PI = 2.0 * math.pi


def evaluate_psi(amplitudes: np.ndarray, l_min: int, thetas: np.ndarray) -> np.ndarray:
    """psi(theta_i) = sum_l amplitudes[l - l_min] * e^{i l theta_i}."""
    amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    ls = int(l_min) + np.arange(amplitudes.shape[0])
    out = np.empty(thetas.shape[0], dtype=np.complex128)
    # ~32 MB of complex128 per chunk of the phase matrix
    chunk = max(1, (2 << 20) // max(1, ls.shape[0]))
    for start in range(0, thetas.shape[0], chunk):
        block = thetas[start : start + chunk]
        out[start : start + chunk] = np.exp(1j * np.outer(block, ls)) @ amplitudes
    return out


def psi_on_grid(amplitudes: np.ndarray, l_min: int, resolution: int) -> np.ndarray:
    """psi at theta_j = -pi + 2 pi j / M, j = 0..M-1, for M = resolution.

    psi(theta_j) = M ifft(b)_j with b_k = sum_{l = k (mod M)} (-1)^l a_l.
    """
    n = len(amplitudes)
    M = int(resolution)
    rows = -(-n // M)
    folded = np.zeros(rows * M, dtype=np.complex128)
    folded[:n] = amplitudes
    # (-1)^l from the parity of l = l_min + i
    folded[(int(l_min) + 1) % 2 : n : 2] *= -1.0
    b = np.roll(folded.reshape(rows, M).sum(axis=0), int(l_min) % M)
    return M * np.fft.ifft(b)


def grid_sampler(
    densities: np.ndarray,
) -> Callable[[np.random.Generator, int | None], np.ndarray | float]:
    """Inverse-CDF sampler for a density tabulated at theta_j = -pi + 2 pi j / M.

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

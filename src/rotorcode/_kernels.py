"""Angular wavefunction kernels and the one rejection loop behind every angle draw.

psi(theta) = sum_j a_j e^{i l_j theta} over a state's support (momenta l_j,
amplitudes a_j) is evaluated two ways:

* on the uniform grid theta_j = -pi + 2 pi j / M by one inverse FFT of the
  amplitudes folded mod M (angle distributions);
* at scattered angles by a chunked sum over the support (theta_wavefunction,
  sample_angle).

The folding is integer arithmetic, so the grid path is exact for supports
wider than M and for supports far from l = 0.

rejection_draw is the one draw loop (Devroye, Non-Uniform Random Variate
Generation, 1986, II.3): sample_angle and angle_deviation_sampler propose.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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


PROPOSAL_BLOCK = 1 << 15  # proposals per round: memory stays flat for any draw count


def rejection_draw(propose: Callable, rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws kept from rounds of propose(rng, n) -> (n candidates, keep mask or slice),
    each asking for twice the draws still missing, at most PROPOSAL_BLOCK."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        u, keep = propose(rng, min(PROPOSAL_BLOCK, 2 * (size - filled)))
        got = u[keep][: size - filled]
        out[filled : filled + got.size] = got
        filled += got.size
    return out


__all__ = ["evaluate_psi", "psi_on_grid", "rejection_draw"]

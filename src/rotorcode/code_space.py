"""Code parameters, logical labels, and codeword constructors.

A register of N qudits of dimension d, protected against momentum kicks of
size at most delta_L, is laid out on the rotor's momentum lattice with

    r = 2 delta_L + 1   (correctable-residue spacing)
    n = d ** N          (logical dimension)
    m = n * r           (comb period / angular stabilizer order)

Momentum l decomposes uniquely as

    l = sum_j p_j d^{j-1} r  +  q  +  t m,

with q = l mod r the residue used for momentum-error diagnosis, p_j the
base-d digits carrying the logical content, and t the residual rotor index.

Ideal codewords are equal-weight combs over l = k r (mod m); physical
(normalizable) codewords weight the comb teeth with the momentum envelope
c_l of a chosen angle-approximant family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .errors import NumericalError
from .rotor_state import RotorState

TAIL_TOL = 1e-12

# Largest momentum window a codeword may span (512 MiB of complex128
# amplitudes). A tiny cosine-power exponent or an explicit --window-half can
# ask for terabytes; those fail with ValueError before anything is allocated.
MAX_WINDOW_MOMENTA = 1 << 25

FAMILIES = (
    "truncated_gaussian",
    "cosine_power",
    "gaussian_envelope",
    "grating",
)


@dataclass(frozen=True)
class CodeParams:
    """Register shape: N qudits of dimension d, kick protection delta_L."""

    d: int = 2
    N: int = 1
    delta_L: int = 0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("qudit dimension d must be >= 2")
        if self.N < 1:
            raise ValueError("register size N must be >= 1")
        if self.delta_L < 0:
            raise ValueError("delta_L must be >= 0")

    @property
    def r(self) -> int:
        return 2 * self.delta_L + 1

    @property
    def n(self) -> int:
        return self.d**self.N

    @property
    def m(self) -> int:
        return self.n * self.r


@dataclass(frozen=True)
class Approximant:
    """Normalizable angle profile standing in for a perfectly sharp angle.

    family            parameter meaning
    truncated_gaussian  xi      inverse angular width (squeezing)
    cosine_power        gamma   power of cos(u/2); even integers are
                                exactly bandlimited to |l| <= gamma/2
    gaussian_envelope   sigma   momentum-side Gaussian width
    grating             L_M     flat momentum window |l| <= L_M

    The cosine-power profile is psi(u) ~ cos^gamma(u/2), so its angle
    density is |psi(u)|^2 ~ cos^(2 gamma)(u/2).  The paper's own exponent
    convention is not in the repository yet; this one is what the code,
    the tests and the README use.
    """

    family: str
    parameter: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        p = float(self.parameter)
        if not math.isfinite(p) or p <= 0:
            raise ValueError("approximant parameter must be positive and finite")
        if self.family == "grating" and (p != int(p) or int(p) < 1):
            raise ValueError("grating parameter must be an integer >= 1")
        object.__setattr__(self, "parameter", p)


@dataclass(frozen=True)
class LogicalLabels:
    """Decomposition of one momentum value into code labels."""

    q: int
    digits: tuple[int, ...]
    rotor_index: int


def logical_labels(l: int, params: CodeParams) -> LogicalLabels:
    """Split momentum l into (q, digits, rotor index); exact for any sign."""
    l = int(l)
    q = l % params.r
    u = (l - q) // params.r
    digits = tuple((u // params.d ** (j - 1)) % params.d for j in range(1, params.N + 1))
    t = l // params.m
    return LogicalLabels(q=q, digits=digits, rotor_index=t)


def digits_to_k(digits: Sequence[int], d: int) -> int:
    """Little-endian base-d digits -> logical index k."""
    return sum(int(p) * d**j for j, p in enumerate(digits))


def k_to_digits(k: int, params: CodeParams) -> tuple[int, ...]:
    if not 0 <= k < params.n:
        raise ValueError(f"logical index {k} outside [0, {params.n})")
    return tuple((k // params.d ** (j - 1)) % params.d for j in range(1, params.N + 1))


def reconstruct_momentum(labels: LogicalLabels, params: CodeParams) -> int:
    """Inverse of logical_labels: l = sum_j p_j d^{j-1} r + q + t m."""
    l = labels.q + labels.rotor_index * params.m
    for j, p in enumerate(labels.digits):
        l += p * params.d**j * params.r
    return l


def binary_labels(l: int, bits: int) -> tuple[int, ...]:
    """Sign-magnitude bit labels: b_1 = [l < 0], b_j = floor(|l|/2^{j-2}) mod 2."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    l = int(l)
    out = [1 if l < 0 else 0]
    a = abs(l)
    for j in range(2, bits + 1):
        out.append((a >> (j - 2)) & 1)
    return tuple(out)


def encoding_table(
    params: CodeParams, l_lo: int, l_hi: int
) -> list[dict[str, object]]:
    """Rows (l, q, digits, k, rotor_index) for each momentum in [l_lo, l_hi]."""
    if l_hi < l_lo:
        raise ValueError("need l_lo <= l_hi")
    rows = []
    for l in range(l_lo, l_hi + 1):
        lab = logical_labels(l, params)
        rows.append(
            {
                "l": l,
                "q": lab.q,
                "digits": lab.digits,
                "k": digits_to_k(lab.digits, params.d),
                "rotor_index": lab.rotor_index,
            }
        )
    return rows


def binary_table(l_lo: int, l_hi: int, bits: int) -> list[dict[str, object]]:
    """Rows (l, bits) of the sign-magnitude labeling for l in [l_lo, l_hi]."""
    if l_hi < l_lo:
        raise ValueError("need l_lo <= l_hi")
    return [{"l": l, "bits": binary_labels(l, bits)} for l in range(l_lo, l_hi + 1)]


def _cosine_window_need(gamma: float) -> int:
    if float(gamma).is_integer() and int(gamma) % 2 == 0:
        return int(gamma) // 2 + 6
    # Non-bandlimited case: coefficients fall off like l^{-(gamma+1)}, so the
    # out-of-window mass scales like W^{-(2 gamma + 1)}.
    decay = 2.0 * gamma + 1.0
    return int(math.ceil(4.0 * 1e12 ** (1.0 / decay) + gamma / 2.0)) + 6


def default_window_half(
    params: CodeParams, approx: Approximant | None = None
) -> int:
    """Momentum half-window W (a multiple of m) covering the envelope's mass."""
    m = params.m
    need = 4 * m
    if approx is not None:
        p = approx.parameter
        if approx.family == "truncated_gaussian":
            need = max(need, int(math.ceil(6.0 * p + 10.0)))
        elif approx.family == "cosine_power":
            need = max(need, _cosine_window_need(p))
        elif approx.family == "gaussian_envelope":
            need = max(need, int(math.ceil(6.0 * p + 10.0)))
        elif approx.family == "grating":
            need = max(need, int(p))
    w = m * int(math.ceil(need / m))
    _check_window_size(-w, w)
    return w


def _check_window_size(l_lo: int, l_hi: int) -> None:
    count = l_hi - l_lo + 1
    if count > MAX_WINDOW_MOMENTA:
        raise ValueError(
            f"momentum window [{l_lo}, {l_hi}] holds {count} momenta, more than "
            f"the cap of {MAX_WINDOW_MOMENTA}"
        )


def ideal_comb(residue: int, period: int, l_lo: int, l_hi: int) -> RotorState:
    """Equal-weight normalized comb over l = residue (mod period) in a window."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if l_hi < l_lo:
        raise ValueError("need l_lo <= l_hi")
    _check_window_size(l_lo, l_hi)
    ls = np.arange(l_lo, l_hi + 1)
    mask = (ls - residue) % period == 0
    teeth = int(np.count_nonzero(mask))
    if teeth == 0:
        raise ValueError(
            f"no l = {residue} (mod {period}) inside [{l_lo}, {l_hi}]"
        )
    amps = np.where(mask, 1.0 / math.sqrt(teeth), 0.0).astype(np.complex128)
    return RotorState(l_lo, l_hi, amps, True)


def ideal_codeword(
    params: CodeParams,
    k: int,
    l_lo: int | None = None,
    l_hi: int | None = None,
) -> RotorState:
    """Equal-weight comb codeword |k>: teeth on l = k r (mod m)."""
    if not 0 <= k < params.n:
        raise ValueError(f"logical index {k} outside [0, {params.n})")
    if l_lo is None or l_hi is None:
        w = default_window_half(params, None)
        l_lo, l_hi = -w, w
    state = ideal_comb((k * params.r) % params.m, params.m, l_lo, l_hi)
    if int(np.count_nonzero(state.amplitudes)) < 2:
        raise ValueError("window holds fewer than two comb teeth; widen it")
    return state


# ln(Gamma(x+1/2) / Gamma(x+1)) + ln(x)/2 = sum_k _LOG_RATIO_SERIES[k] / x^(2k+1)
# (Bernoulli-polynomial coefficients); the next term is below 3e-19 at x = 10
_LOG_RATIO_SERIES = (
    -1.0 / 8.0,
    1.0 / 192.0,
    -1.0 / 640.0,
    17.0 / 14336.0,
    -31.0 / 18432.0,
    691.0 / 180224.0,
    -5461.0 / 425984.0,
    929569.0 / 15728640.0,
    -3202291.0 / 8912896.0,
)


def _half_gamma_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x + 1) for x > 0, to ~1e-15 relative.

    A difference of log-gammas loses ~1e-12 relative by cancellation at
    x ~ 10^4, so this sums the asymptotic series of the log ratio at
    x >= 10 and reaches smaller x through Gamma(y + 1) = y Gamma(y).
    """
    steps = max(0, math.ceil(10.0 - x))
    num = den = 1.0
    for k in range(steps):
        num *= x + k + 1.0
        den *= x + k + 0.5
    y = x + steps
    t = 1.0 / (y * y)
    acc = 0.0
    for c in reversed(_LOG_RATIO_SERIES):
        acc = acc * t + c
    return math.exp(acc / y) / math.sqrt(y) * num / den


def _tg_height(xi: float) -> float:
    c = xi * math.sqrt(math.pi) * special.erf(math.pi * xi)
    return xi * math.sqrt(2.0 * math.pi) / math.sqrt(c)


def _cos_height(gamma: float) -> float:
    # a^2 = 2 pi / Integral cos^(2 gamma)(u/2) du = sqrt(pi) Gamma(gamma+1) / Gamma(gamma+1/2)
    return math.sqrt(math.sqrt(math.pi) / _half_gamma_ratio(gamma))


def _tg_coefficients(xi: float, ls: np.ndarray) -> np.ndarray:
    # (1/2pi) Integral_{-pi}^{pi} a e^{-xi^2 u^2 / 2} e^{-i l u} du: the
    # untruncated Gaussian minus the two tails beyond +-pi, written through
    # the Faddeeva function so nothing overflows
    l = ls.astype(np.float64)
    tails = special.wofz((l / xi + 1j * math.pi * xi) / math.sqrt(2.0)).real
    sign = np.where(ls % 2 == 0, 1.0, -1.0)
    edge = math.exp(-0.5 * (math.pi * xi) * (math.pi * xi))
    bracket = np.exp(-0.5 * (l / xi) ** 2) - sign * edge * tails
    return _tg_height(xi) / (xi * math.sqrt(2.0 * math.pi)) * bracket


def _cos_coefficients(gamma: float, ls: np.ndarray) -> np.ndarray:
    # c_l = a Gamma(gamma+1) / (2^gamma Gamma(gamma/2+l+1) Gamma(gamma/2-l+1)):
    # c_0 by the duplication formula, then c_l / c_{l-1} = (h-l+1)/(h+l),
    # h = gamma/2, which vanishes past l = h for even gamma
    h = 0.5 * gamma
    c0 = _cos_height(gamma) * _half_gamma_ratio(h) / math.sqrt(math.pi)
    reach = int(np.max(np.abs(ls), initial=0))
    js = np.arange(1, reach + 1, dtype=np.float64)
    table = c0 * np.concatenate([[1.0], np.cumprod((h - js + 1.0) / (h + js))])
    return table[np.abs(ls)]


def _envelope_reach(sigma: float) -> int:
    """Largest |l| kept in the Gaussian-envelope series."""
    return int(math.ceil(6.0 * sigma)) + 40


def _envelope_norm_sum(sigma: float) -> float:
    reach = _envelope_reach(sigma)
    ls = np.arange(-reach, reach + 1, dtype=np.float64)
    return float(np.sum(np.exp(-(ls**2) / sigma**2)))


def envelope_coefficients(approx: Approximant, ls: np.ndarray) -> np.ndarray:
    """Momentum coefficients c_l of the unit-norm approximant at the given l."""
    ls = np.asarray(ls, dtype=np.int64)
    p = approx.parameter
    if approx.family == "truncated_gaussian":
        return _tg_coefficients(p, ls)
    if approx.family == "cosine_power":
        return _cos_coefficients(p, ls)
    if approx.family == "gaussian_envelope":
        norm = math.sqrt(_envelope_norm_sum(p))
        return np.exp(-(ls.astype(np.float64) ** 2) / (2.0 * p**2)) / norm
    # grating
    half = int(p)
    vals = np.where(np.abs(ls) <= half, 1.0 / math.sqrt(2 * half + 1), 0.0)
    return vals.astype(np.float64)


def _check_tail(cs: np.ndarray, l_lo: int, l_hi: int) -> None:
    captured = float(np.sum(np.abs(cs) ** 2))
    tail = 1.0 - captured
    if tail > TAIL_TOL:
        raise NumericalError(
            f"momentum window [{l_lo}, {l_hi}] misses envelope mass "
            f"{tail:.3e} > {TAIL_TOL:.0e}; widen the window"
        )


def approx_basis_state(
    approx: Approximant,
    theta0: float = 0.0,
    l_lo: int | None = None,
    l_hi: int | None = None,
    params: CodeParams | None = None,
) -> RotorState:
    """Normalizable angle state centered at theta0: sum_l c_l e^{-i l theta0}|l>."""
    if l_lo is None or l_hi is None:
        w = default_window_half(params if params is not None else CodeParams(), approx)
        l_lo, l_hi = -w, w
    _check_window_size(l_lo, l_hi)
    ls = np.arange(l_lo, l_hi + 1)
    cs = envelope_coefficients(approx, ls)
    _check_tail(cs, l_lo, l_hi)
    amps = cs * np.exp(-1j * float(theta0) * ls)
    amps = amps / np.linalg.norm(amps)
    return RotorState(l_lo, l_hi, amps.astype(np.complex128), True)


def approx_codeword(
    params: CodeParams,
    k: int,
    approx: Approximant,
    l_lo: int | None = None,
    l_hi: int | None = None,
) -> RotorState:
    """Physical codeword |k>: the m angle states at theta_j = 2 pi j / m,
    superposed with phases e^{2 i pi k j / n}.

    The phases cancel every momentum except l = k r (mod m), leaving the
    envelope-weighted comb; the result is renormalized on its window.
    """
    if not 0 <= k < params.n:
        raise ValueError(f"logical index {k} outside [0, {params.n})")
    if l_lo is None or l_hi is None:
        w = default_window_half(params, approx)
        l_lo, l_hi = -w, w
    _check_window_size(l_lo, l_hi)
    ls = np.arange(l_lo, l_hi + 1)
    cs = envelope_coefficients(approx, ls)
    _check_tail(cs, l_lo, l_hi)
    mask = (ls - k * params.r) % params.m == 0
    amps = np.where(mask, cs, 0.0)
    teeth_mass = float(np.sum(np.abs(amps) ** 2))
    if int(np.count_nonzero(np.abs(amps) > 0.0)) < 2:
        raise ValueError(
            "window holds fewer than two comb teeth with weight; widen it"
        )
    amps = amps / math.sqrt(teeth_mass)
    return RotorState(l_lo, l_hi, amps.astype(np.complex128), True)


def logical_encode(
    params: CodeParams,
    k: int | Sequence[int],
    approx: Approximant | None = None,
    l_lo: int | None = None,
    l_hi: int | None = None,
) -> RotorState:
    """Encode logical index k (or a digit tuple); approx=None gives the ideal comb."""
    if not isinstance(k, (int, np.integer)):
        k = digits_to_k(k, params.d)
    k = int(k)
    if approx is None:
        return ideal_codeword(params, k, l_lo, l_hi)
    return approx_codeword(params, k, approx, l_lo, l_hi)


__all__ = [
    "CodeParams",
    "Approximant",
    "LogicalLabels",
    "FAMILIES",
    "TAIL_TOL",
    "MAX_WINDOW_MOMENTA",
    "logical_labels",
    "digits_to_k",
    "k_to_digits",
    "reconstruct_momentum",
    "binary_labels",
    "encoding_table",
    "binary_table",
    "default_window_half",
    "ideal_comb",
    "ideal_codeword",
    "envelope_coefficients",
    "approx_basis_state",
    "approx_codeword",
    "logical_encode",
]

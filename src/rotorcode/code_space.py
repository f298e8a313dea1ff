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
c_l of a chosen angle-approximant family.  Every codeword lies on a window
[-W, W]: W = window_half, or default_window_half's when that is None.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .rotor_state import RotorState, from_amplitudes

TAIL_TOL = 1e-12

# Largest momentum window a codeword may span: the encode evaluates its
# envelope on the whole window. A tiny cosine-power exponent or an explicit
# --window-half can ask for terabytes; those fail with ValueError before
# anything is allocated.
MAX_WINDOW_MOMENTA = 1 << 25

# Largest label table, in cells (rows x columns): the table is built whole in
# memory before it is written.
MAX_TABLE_CELLS = 1 << 25

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
    gaussian_envelope   sigma   momentum-side Gaussian width, no cut-off in l;
                                angle profile sum_n e^{-sigma^2 (u - 2 pi n)^2 / 2}
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


def _table_momenta(l_lo: int, l_hi: int, columns: int, reach: int) -> np.ndarray:
    """The column l = l_lo..l_hi of a table with this many columns.

    int64 while |l| and reach (the largest modulus a column divides by) stay
    below 2^62, so no column expression can overflow; Python ints past that.
    """
    if l_hi < l_lo:
        raise ValueError("need l_lo <= l_hi")
    rows = l_hi - l_lo + 1
    if rows * columns > MAX_TABLE_CELLS:
        # past 2^64 the range is named by its size: a decimal of thousands of digits says
        # nothing, and past 4300 digits Python refuses to form it
        if max(abs(l_lo), abs(l_hi)) < 1 << 64:
            momenta = f"momenta [{l_lo}, {l_hi}]"
        else:
            momenta = f"~10^{int((int(rows).bit_length() - 1) * math.log10(2))} momenta"
        raise ValueError(
            f"table of {momenta} with {columns} columns holds more "
            f"than the cap of {MAX_TABLE_CELLS} cells"
        )
    wide = max(abs(l_lo), abs(l_hi), reach) >= 1 << 62
    return np.arange(l_lo, l_hi + 1, dtype=object if wide else np.int64)


def encoding_table(params: CodeParams, l_lo: int, l_hi: int) -> dict[str, np.ndarray]:
    """Columns l, q, p1..pN, k, rotor_index of logical_labels over [l_lo, l_hi]."""
    d, r = params.d, params.r
    l = _table_momenta(l_lo, l_hi, params.N + 4, params.m)
    q = l % r
    u = (l - q) // r
    digits = {f"p{j}": (u // d ** (j - 1)) % d for j in range(1, params.N + 1)}
    return {"l": l, "q": q, **digits, "k": u % params.n, "rotor_index": l // params.m}


def binary_table(l_lo: int, l_hi: int, bits: int) -> dict[str, np.ndarray]:
    """Columns l, b1..b<bits> of binary_labels over [l_lo, l_hi]."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    l = _table_momenta(l_lo, l_hi, bits + 1, 0)
    a = np.abs(l)
    top = int(a.max()).bit_length()  # a >> top is 0: no shift past the dtype's width
    magnitude_bits = {f"b{j}": (a >> min(j - 2, top)) & 1 for j in range(2, bits + 1)}
    return {"l": l, "b1": (l < 0).astype(np.int64), **magnitude_bits}


def _cosine_window_need(gamma: float) -> int:
    if float(gamma).is_integer() and int(gamma) % 2 == 0:
        return int(gamma) // 2 + 6
    # Non-bandlimited case: coefficients fall off like l^{-(gamma+1)}, so the
    # out-of-window mass scales like W^{-(2 gamma + 1)}.
    decay = 2.0 * gamma + 1.0
    return int(math.ceil(4.0 * 1e12 ** (1.0 / decay) + gamma / 2.0)) + 6


def _tg_tail_need(xi: float) -> int:
    """Half-window past which the truncated Gaussian's l^-2 tail holds < TAIL_TOL.

    The periodized profile's slope jumps at u = +-pi, so c_l -> A / l^2 with
    A = a xi^2 e^{-pi^2 xi^2 / 2} (a = _tg_height), and the mass past W is
    2 A^2 / 3 W^3.
    """
    edge = math.exp(-0.5 * (math.pi * xi) * (math.pi * xi))  # 0 past xi ~ 12: no tail
    if edge == 0.0:
        return 0
    tail = _tg_height(xi) * xi * xi * edge
    return math.ceil((2.0 * tail * tail / (3.0 * TAIL_TOL)) ** (1.0 / 3.0)) + 4


def default_window_half(
    params: CodeParams, approx: Approximant | None = None
) -> int:
    """Momentum half-window W (a multiple of m) covering the envelope's mass."""
    m = params.m
    need = 4 * m
    if approx is not None:
        p = approx.parameter
        if approx.family in ("truncated_gaussian", "gaussian_envelope"):
            need = max(need, math.ceil(min(6.0 * p + 10.0, MAX_WINDOW_MOMENTA)))  # 6p may be inf
            if approx.family == "truncated_gaussian":
                need = max(need, _tg_tail_need(p))
        elif approx.family == "cosine_power":
            need = max(need, _cosine_window_need(p))
        elif approx.family == "grating":
            need = max(need, int(p))
    w = m * int(math.ceil(need / m))
    _check_window_half(w)
    return w


def _check_window_size(l_lo: int, l_hi: int) -> None:
    count = l_hi - l_lo + 1
    if count > MAX_WINDOW_MOMENTA:
        raise ValueError(
            f"momentum window [{l_lo}, {l_hi}] holds {count} momenta, more than "
            f"the cap of {MAX_WINDOW_MOMENTA}"
        )


def _check_window_half(w: int) -> None:
    if w < 1:
        raise ValueError("window_half must be >= 1")
    _check_window_size(-w, w)


def ideal_comb(residue: int, period: int, window_half: int) -> RotorState:
    """Equal-weight normalized comb over l = residue (mod period) in [-W, W]."""
    if period < 1:
        raise ValueError("period must be >= 1")
    w = window_half
    _check_window_half(w)
    teeth = _teeth(residue, period, w)
    if teeth.size == 0:
        raise ValueError(f"no l = {residue} (mod {period}) inside [{-w}, {w}]")
    return RotorState(-w, w, teeth, np.full(teeth.size, 1.0 / math.sqrt(teeth.size)))


def _teeth(residue: int, period: int, w: int) -> np.ndarray:
    """The momenta l = residue (mod period) inside [-w, w], ascending.

    Python ints until the window bounds them: a period past int64 gives at
    most one tooth, not an OverflowError.
    """
    first = min(-w + (residue + w) % period, w + 1)
    return np.arange(first, w + 1, min(period, 2 * w + 1), dtype=np.int64)


def ideal_codeword(params: CodeParams, k: int, window_half: int | None = None) -> RotorState:
    """Equal-weight comb codeword |k>: teeth on l = k r (mod m) in [-W, W]."""
    if not 0 <= k < params.n:
        raise ValueError(f"logical index {k} outside [0, {params.n})")
    w = default_window_half(params) if window_half is None else window_half
    state = ideal_comb((k * params.r) % params.m, params.m, w)
    if state.support.shape[0] < 2:
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
    from scipy import special  # scipy loads on first use: import rotorcode stays light
    c = xi * math.sqrt(math.pi) * special.erf(math.pi * xi)
    if c < sys.float_info.min:  # ~2 pi xi^2: subnormal or 0 below xi ~ 6e-155
        raise NumericalError(
            f"trunc-gauss xi={xi!r}: the envelope's norm xi sqrt(pi) erf(pi xi) underflows"
        )
    return xi * math.sqrt(2.0 * math.pi) / math.sqrt(c)


def _cos_height(gamma: float) -> float:
    # a^2 = 2 pi / Integral cos^(2 gamma)(u/2) du = sqrt(pi) Gamma(gamma+1) / Gamma(gamma+1/2)
    return math.sqrt(math.sqrt(math.pi) / _half_gamma_ratio(gamma))


def _tg_coefficients(xi: float, ls: np.ndarray) -> np.ndarray:
    # (1/2pi) Integral_{-pi}^{pi} a e^{-xi^2 u^2 / 2} e^{-i l u} du: the
    # untruncated Gaussian minus the two tails beyond +-pi, written through
    # the Faddeeva function so nothing overflows
    from scipy import special
    height = _tg_height(xi)
    l = ls.astype(np.float64)
    tails = special.wofz((l / xi + 1j * math.pi * xi) / math.sqrt(2.0)).real
    sign = np.where(ls % 2 == 0, 1.0, -1.0)
    edge = math.exp(-0.5 * (math.pi * xi) * (math.pi * xi))
    with np.errstate(over="ignore"):  # (l / xi)^2 = inf at tiny xi, and e^{-inf} = 0
        bracket = np.exp(-0.5 * (l / xi) ** 2) - sign * edge * tails
    y = math.pi * xi / math.sqrt(2.0)
    if y < 0.5:  # at l = 0 the bracket 1 - e^{-y^2} Re w(iy) is erf(y), and cancels here
        bracket[ls == 0] = special.erf(y)
    return height / (xi * math.sqrt(2.0 * math.pi)) * bracket


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


def _envelope_images(sigma: float) -> tuple[float, np.ndarray, float, float]:
    """(s, n, E, O) for the Poisson-summed envelope sum_l e^{-l^2/2s^2} e^{ilu} =
    sqrt(2 pi) s sum_n e^{-s^2 (u - 2 pi n)^2 / 2}: images |n| <= ceil(2/s), each
    dropped one below e^{-39} of the sum; E, O sum e^{-pi^2 s^2 n^2} over even and
    odd n, and the squared norm sum_l e^{-l^2/s^2} is sqrt(pi) s (E + O)."""
    # below sigma = 0.1 the angle density is 1/2pi to double precision: its
    # first Fourier coefficient, 2 e^{-1/2 sigma^2}, is < 4e-22
    s = max(sigma, 0.1)
    n = np.arange(-math.ceil(2.0 / s), math.ceil(2.0 / s) + 1)
    with np.errstate(over="ignore"):  # e^{-inf} = 0 past s ~ 1e153
        w = np.exp(-((math.pi * (s * n)) ** 2))
    return s, n, float(w[n % 2 == 0].sum()), float(w[n % 2 == 1].sum())


def envelope_coefficients(approx: Approximant, ls: np.ndarray) -> np.ndarray:
    """Momentum coefficients c_l of the unit-norm approximant at the given l."""
    ls = np.asarray(ls, dtype=np.int64)
    p = approx.parameter
    if approx.family == "truncated_gaussian":
        return _tg_coefficients(p, ls)
    if approx.family == "cosine_power":
        return _cos_coefficients(p, ls)
    if approx.family == "gaussian_envelope":
        s, _, even, odd = _envelope_images(p)
        norm = math.sqrt(math.sqrt(math.pi) * s * (even + odd))
        return np.exp(-(ls.astype(np.float64) ** 2) / (2.0 * p**2)) / norm
    # grating
    half = int(p)
    vals = np.where(np.abs(ls) <= half, 1.0 / math.sqrt(2 * half + 1), 0.0)
    return vals.astype(np.float64)


def _enveloped_window(
    approx: Approximant, params: CodeParams, window_half: int | None
) -> tuple[int, np.ndarray, np.ndarray]:
    """W, the momenta -W..W and the envelope c_l on them; refuses a window that
    misses more than TAIL_TOL of the envelope's mass, twice the tail past W."""
    w = default_window_half(params, approx) if window_half is None else window_half
    _check_window_half(w)
    ls = np.arange(-w, w + 1)
    cs = envelope_coefficients(approx, ls)
    tail = 1.0 - float(np.sum(np.abs(cs) ** 2))
    if tail > TAIL_TOL:
        fix = "the default window is too narrow" if window_half is None else "widen the window"
        raise NumericalError(
            f"momentum window [{-w}, {w}] misses envelope mass "
            f"{tail:.3e} > {TAIL_TOL:.0e}; {fix}"
        )
    return w, ls, cs


def approx_basis_state(
    approx: Approximant,
    theta0: float = 0.0,
    window_half: int | None = None,
    params: CodeParams | None = None,
) -> RotorState:
    """Normalizable angle state centered at theta0: sum_{|l| <= W} c_l e^{-i l theta0}|l>."""
    w, ls, cs = _enveloped_window(approx, params or CodeParams(), window_half)
    return from_amplitudes(-w, cs * np.exp(-1j * float(theta0) * ls))


def approx_codeword(
    params: CodeParams,
    k: int,
    approx: Approximant,
    window_half: int | None = None,
) -> RotorState:
    """Physical codeword |k>: the m angle states at theta_j = 2 pi j / m,
    superposed with phases e^{2 i pi k j / n}.

    The phases cancel every momentum except l = k r (mod m), leaving the
    envelope-weighted comb on [-W, W]; the result is renormalized there.
    """
    if not 0 <= k < params.n:
        raise ValueError(f"logical index {k} outside [0, {params.n})")
    w, _, cs = _enveloped_window(approx, params, window_half)
    teeth = _teeth(k * params.r, params.m, w)
    amps = cs[teeth + w]
    weighted = amps != 0
    teeth, amps = teeth[weighted], amps[weighted]
    if teeth.shape[0] < 2:
        # no wider window helps once the envelope is 0 on both sides of it
        vanishes = not envelope_coefficients(approx, np.array([-w - 1, w + 1])).any()
        bandlimited = approx.family == "grating" or (
            approx.family == "cosine_power" and approx.parameter % 2 == 0
        )
        zero = "is 0" if bandlimited else "underflows"
        fix = f"the envelope {zero} beyond it" if vanishes else "widen it"
        raise ValueError(f"window holds fewer than two comb teeth with weight; {fix}")
    return RotorState(-w, w, teeth, amps / math.sqrt(float(np.sum(amps**2))))


def logical_encode(
    params: CodeParams,
    k: int | Sequence[int],
    approx: Approximant | None = None,
    window_half: int | None = None,
) -> RotorState:
    """Encode logical index k (or a digit tuple) on [-W, W]; approx=None gives the ideal comb."""
    if not isinstance(k, (int, np.integer)):
        k = digits_to_k(k, params.d)
    k = int(k)
    if approx is None:
        return ideal_codeword(params, k, window_half)
    return approx_codeword(params, k, approx, window_half)


__all__ = [
    "CodeParams",
    "Approximant",
    "LogicalLabels",
    "FAMILIES",
    "TAIL_TOL",
    "MAX_WINDOW_MOMENTA",
    "MAX_TABLE_CELLS",
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

"""Noncorrectable-error probabilities for the approximant families.

An angular deviation u drawn from the approximant's angle density is
correctable when |u| < pi/m: the modular syndrome then points back to the
original codeword.  The noncorrectable probability is the tail mass

    p_e = (1/pi) * Integral_{pi/m}^{pi} |Psi(u)|^2 du

(with the angle density normalized as Integral |Psi|^2 du / 2pi = 1).

Routes: the quadrature method, an exact formula for every family (Fejér
series, image sum, error-function ratio, incomplete beta function), a closed
form and a large-squeezing asymptotic for the truncated-Gaussian family (kept
numerically alive far below double underflow via log-space error functions),
the no-information guess 1 - 1/m, and direct Monte Carlo over angle deviations
drawn exactly from each family's law.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._kernels import rejection_draw
from .code_space import Approximant, CodeParams, _check_window_size, _envelope_images
from .rotor_state import _reduce_angles

LOG10_FLOOR = -300.0  # below this, report value 0.0 and keep log10_value
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PeResult:
    """A noncorrectable-error probability with provenance.

    value is 0.0 below 10^LOG10_FLOOR; log10_value then still carries the
    magnitude (None for the cosine power, which has no log-space route) and
    error_estimate is that threshold rather than an error bar.
    """

    value: float
    method: str
    error_estimate: float
    log10_value: float | None = None


def _grating_pe(half: int, m: int) -> PeResult:
    """Tail of K = 2 L_M + 1 flat slits from the Fejér kernel's Fourier series
    (coefficients 1 - k/K): p_e = (pi - a)/pi - (2/pi) sum_{k<K} (1 - k/K) sin(k a)/k
    with a = pi/m. error_estimate bounds the rounding at 32 eps per unit of summed
    |terms|: 4 eps to form a term, 28 along numpy's pairwise sum of a chunk."""
    _check_window_size(-half, half)
    K = 2 * half + 1
    chunk = 1 << 16  # terms per step: memory stays bounded for any slit count
    mi = min(m, 2 * K)  # j below is k once m >= 2K; keeps a huge m out of int64
    parts: list[float] = []
    magnitude = 0.0
    for k0 in range(1, K, chunk):
        k = np.arange(k0, min(k0 + chunk, K), dtype=np.int64)
        # sin(k pi/m) = (-1)^(k // m) sin(j pi/m), j = min(q, m - q) in [0, m/2]
        q = k % mi
        s = np.sin(np.minimum(q, mi - q) * (math.pi / m))
        s[(k // mi) % 2 == 1] *= -1.0
        t = s * (K - k) / (K * k)
        parts.append(float(t.sum()))
        magnitude += float(np.abs(t).sum())
    p = (1.0 - 1.0 / m) - (2.0 / math.pi) * math.fsum(parts)
    err = 32.0 * EPS * (1.0 + (2.0 / math.pi) * magnitude)
    return PeResult(value=p, method="quadrature", error_estimate=err, log10_value=math.log10(p))


def _envelope_pe(sigma: float, m: int) -> PeResult:
    """Gaussian-envelope tail, p_e = [E (1 - J(a)) + O J(pi - a)] / (E + O) with a = pi/m
    and 1 - J(b) = sum_{j>=0} [erfc(s (2 pi j + b)) - erfc(s (2 pi j + 2 pi - b))]
    (README "p_e by quadrature"). erfc ratios go through erfcx, so ln p_e survives
    underflow; error_estimate bounds the rounding: (32 + 4 x0^2) eps p_e."""
    from scipy import special
    s, images, even, odd = _envelope_images(sigma)
    w = 2.0 * math.pi * s
    if math.isinf(w):
        raise ValueError(f"sigma = {sigma!r} puts 2 pi sigma past the double range")
    x0 = math.pi * s / m
    b = np.array([[x0], [0.5 * w - x0]])  # s a and s (pi - a)
    js = images[images >= 0]
    with np.errstate(over="ignore", divide="ignore"):  # far images: ln 0 = -inf
        x, y = b + w * js, w * (js + 1.0) - b
        # ln erfc(x_j) / erfc(x_0) and ln erfc(y_j) / erfc(x_j)
        lx = np.log(special.erfcx(x) / special.erfcx(b)) - (w * js) * (x + b)
        ly = np.log(special.erfcx(y) / special.erfcx(x)) - (w - 2.0 * b) * (x + y)
        r = np.sum(np.exp(lx) * -np.expm1(ly), axis=1)
    t_in, t_out = special.erfc(b[:, 0]) * r
    p = float(even * t_in + odd * (1.0 - t_out)) / (even + odd)
    # below the floor only the E term is left: O is e^{-pi^2 s^2 (1 - 1/m^2)} smaller
    ln_e = math.log(special.erfcx(x0)) - x0 * x0 + math.log(r[0] * even / (even + odd))
    log10 = math.log10(p) if p > 10.0**LOG10_FLOOR else ln_e / math.log(10.0)
    err = (32.0 + 4.0 * x0 * x0) * EPS * p
    return _with_floor(p, log10, "quadrature", err)


def pe_quadrature(approx: Approximant, m: int) -> PeResult:
    """Tail mass beyond |u| < pi/m by each family's exact formula (README "p_e by quadrature").
    error_estimate: a rounding bound relative to p_e (to the summed terms for the grating)."""
    _check_period(m)
    param = approx.parameter
    if approx.family == "grating":
        return _grating_pe(int(param), m)
    if approx.family == "gaussian_envelope":
        return _envelope_pe(param, m)
    if approx.family == "truncated_gaussian":  # the closed form is this tail exactly
        return replace(pe_closed_form(param, m), method="quadrature")
    from scipy import special

    # x = sin^2(u/2) makes cos^(2 gamma)(u/2) the Beta(1/2, gamma + 1/2) kernel; the
    # complement of x0 = sin^2(pi/2m) keeps what a rounded cos^2(pi/2m) would lose
    x0 = math.sin(0.5 * (math.pi / m)) ** 2
    p = float(special.betaincc(0.5, param + 0.5, x0))
    if p < 10.0**LOG10_FLOOR:  # subnormal: too few bits left, and no log-space route
        return PeResult(value=0.0, method="quadrature", error_estimate=10.0**LOG10_FLOOR)
    err = (8.0 + 4.0 * (param + 0.5) * x0) * EPS * p  # x0's rounding times the tail's slope
    return PeResult(value=p, method="quadrature", error_estimate=err, log10_value=math.log10(p))


def _check_period(m: int) -> None:
    """Every p_e route divides by the comb period m as a float."""
    if m < 2:
        raise ValueError("need comb period m >= 2")
    if m > sys.float_info.max:
        raise ValueError(f"comb period m >= 2^{m.bit_length() - 1} is past the double range")


def _with_floor(p: float, log10: float, method: str, err: float) -> PeResult:
    """p_e and its log10; below LOG10_FLOOR the value 0.0, with the floor as error."""
    if log10 < LOG10_FLOOR:
        return PeResult(value=0.0, method=method, error_estimate=10.0**LOG10_FLOOR, log10_value=log10)
    return PeResult(value=p, method=method, error_estimate=err, log10_value=log10)


def pe_closed_form(xi: float, m: int) -> PeResult:
    """Truncated-Gaussian tail in closed form: 1 - erf(pi xi / m) / erf(pi xi).

    Evaluated as (erfc(a) - erfc(b)) / erf(b) with a = pi xi / m, b = pi xi
    (erf for erfc below a = 1/2), and in log space through scaled complementary
    error functions when the probability underflows double precision.
    error_estimate: (32 + 4 a^2) eps p_e, erfc's slope turning the rounding of
    a into ~2 a^2 eps relative, as for gauss-env.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    _check_period(m)
    from scipy import special
    a = math.pi * xi / m
    b = math.pi * xi
    if a < 0.5:  # erfc(a) - erfc(b) cancels once erfc(a) > erf(a); p > 0.38 here
        p = (special.erf(b) - special.erf(a)) / special.erf(b)
        return _with_floor(p, math.log10(p), "closed_form", (32.0 + 4.0 * a * a) * EPS * p)

    # log-space magnitude, always available
    la = math.log(special.erfcx(a)) - a * a
    lb = math.log(special.erfcx(b)) - b * b
    x = lb - la  # < 0 whenever m > 1
    ln_num = la + math.log(-math.expm1(x)) if x < 0 else -math.inf
    # ln erf(b): erf underflows nowhere, only saturates at 1
    ln_p = ln_num - (math.log(special.erf(b)) if b < 6.0 else 0.0)
    p = float((special.erfc(a) - special.erfc(b)) / special.erf(b))
    return _with_floor(p, ln_p / math.log(10.0), "closed_form", (32.0 + 4.0 * a * a) * EPS * p)


def pe_asymptotic(xi: float, m: int) -> PeResult:
    """Large-squeezing leading term: m exp(-(pi xi / m)^2) / (pi^{3/2} xi)."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    _check_period(m)
    a = math.pi * xi / m
    ln_p = -a * a + math.log(m / (math.pi**1.5 * xi))
    p = math.exp(ln_p)
    return _with_floor(p, ln_p / math.log(10.0), "asymptotic", p / (2.0 * a * a))


def pe_pure_guess(m: int) -> PeResult:
    """No-information baseline: all m sectors equally likely, 1 - 1/m."""
    _check_period(m)
    p = 1.0 - 1.0 / m
    return PeResult(value=p, method="pure_guess", error_estimate=0.0, log10_value=math.log10(p))


def angle_deviation_sampler(
    approx: Approximant,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Exact sampler for angular deviations u ~ |Psi(u)|^2 / 2pi on [-pi, pi].

    Each family draws through the identity its p_e formula integrates (README
    "p_e by quadrature"); trunc-gauss and the grating by rejection, keeping over
    half of their proposals.  propose(rng, n) gives n candidates u and the mask
    (or slice) of those kept; draw(rng, size) is _kernels.rejection_draw on it.
    """
    p = approx.parameter
    if approx.family == "cosine_power":
        def propose(rng: np.random.Generator, n: int) -> tuple:
            # x = sin^2(u/2) ~ Beta(1/2, gamma + 1/2), the substitution behind betaincc
            u = 2.0 * np.arcsin(np.sqrt(rng.beta(0.5, p + 0.5, n)))
            return np.where(rng.random(n) < 0.5, u, -u), slice(None)

    elif approx.family == "gaussian_envelope":
        # the squared image sum is E (wrapped normal at 0) + O (wrapped normal at pi),
        # each of width 1/(sqrt2 s): the mixture behind _envelope_pe
        s, _, even, odd = _envelope_images(p)
        width, odd_share = 1.0 / (math.sqrt(2.0) * s), odd / (even + odd)

        def propose(rng: np.random.Generator, n: int) -> tuple:
            u = rng.standard_normal(n) * width
            u[rng.random(n) < odd_share] += math.pi
            return _reduce_angles(u), slice(None)

    elif approx.family == "truncated_gaussian" and math.pi * p >= 1.0:
        def propose(rng: np.random.Generator, n: int) -> tuple:
            # N(0, 1/2 xi^2) cut at |u| = pi: acceptance erf(pi xi) >= 0.84
            u = rng.standard_normal(n) * (1.0 / (math.sqrt(2.0) * p))
            return u, np.abs(u) <= math.pi

    elif approx.family == "truncated_gaussian":
        def propose(rng: np.random.Generator, n: int) -> tuple:
            # the normal alone would need ~1/xi rounds as xi -> 0; a uniform u kept
            # with probability e^{-xi^2 u^2} keeps sqrt(pi) erf(pi xi) / (2 pi xi) >= 0.74
            u = math.pi * (2.0 * rng.random(n) - 1.0)
            return u, rng.random(n) < np.exp(-((p * u) ** 2))

    else:
        # grating: sin^2(Ku/2) / sin^2(u/2) <= min(K^2, pi^2/u^2), an envelope of mass
        # pi (2K - 1) per side; w is the signed envelope mass up to u, in units of pi
        K = 2.0 * int(p) + 1.0

        def propose(rng: np.random.Generator, n: int) -> tuple:
            w = (2.0 * K - 1.0) * (2.0 * rng.random(n) - 1.0)
            a = np.abs(w)
            u = np.where(a < K, a * (math.pi / K**2), math.pi / (2.0 * K - a))
            # V min(K^2, pi^2/u^2) <= the density, multiplied through by u^2 sin^2(u/2)
            bound = rng.random(n) * np.minimum((K * u) ** 2, math.pi**2) * np.sin(0.5 * u) ** 2
            return np.copysign(u, w), bound <= (u * np.sin(0.5 * K * u)) ** 2

    return functools.partial(rejection_draw, propose)


def pe_monte_carlo(
    approx: Approximant, m: int, trials: int, rng: np.random.Generator
) -> PeResult:
    """Empirical tail fraction of sampled angular deviations, with binomial SE."""
    _check_period(m)
    if trials < 1:
        raise ValueError("need at least one trial")
    draw = angle_deviation_sampler(approx)
    us = draw(rng, trials)
    a = math.pi / m
    # the sector (-pi/m, pi/m] is correctable; +pi/m itself sits inside it
    hits = int(np.count_nonzero((us > a) | (us <= -a)))
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    log10 = math.log10(p) if p > 0 else None
    return PeResult(value=p, method="monte_carlo", error_estimate=se, log10_value=log10)


METHODS = ("quadrature", "closed_form", "asymptotic", "pure_guess", "monte_carlo")


def compute_pe(
    family: str,
    parameter: float,
    m: int,
    method: str = "quadrature",
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> PeResult:
    """One-call dispatcher over the estimation routes."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "pure_guess":
        return pe_pure_guess(m)
    if method in ("closed_form", "asymptotic"):
        if family != "truncated_gaussian":
            raise ValueError(f"{method} is only defined for truncated_gaussian")
        return (pe_closed_form if method == "closed_form" else pe_asymptotic)(parameter, m)
    approx = Approximant(family, parameter)
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo needs a seeded random generator")
        return pe_monte_carlo(approx, m, trials, rng)
    return pe_quadrature(approx, m)


@dataclass(frozen=True)
class SweepSpec:
    """A family sweep: one p_e estimate per parameter value."""

    family: str
    parameters: tuple[float, ...]
    code: CodeParams = field(default_factory=CodeParams)
    method: str = "quadrature"
    trials: int = 100_000
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("sweep needs at least one parameter value")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "monte_carlo" and self.seed is None:
            raise ValueError("monte_carlo sweeps need a seed")
        object.__setattr__(self, "parameters", tuple(float(p) for p in self.parameters))


def sweep(spec: SweepSpec) -> dict[str, object]:
    """Run the sweep: named columns, one row per parameter; the code shape and
    the seed (None unless monte_carlo) are scalars that hold for every row."""
    rng = np.random.default_rng(spec.seed) if spec.method == "monte_carlo" else None
    results = [
        compute_pe(spec.family, p, spec.code.m, spec.method, trials=spec.trials, rng=rng)
        for p in spec.parameters
    ]
    return {
        "family": spec.family,
        "N": spec.code.N,
        "d": spec.code.d,
        "delta_L": spec.code.delta_L,
        "parameter": list(spec.parameters),
        "method": [res.method for res in results],
        "p_e": [res.value for res in results],
        "log10_pe": [res.log10_value for res in results],
        "error_estimate": [res.error_estimate for res in results],
        "seed": spec.seed if spec.method == "monte_carlo" else None,
    }


__all__ = [
    "PeResult",
    "SweepSpec",
    "METHODS",
    "pe_quadrature",
    "pe_closed_form",
    "pe_asymptotic",
    "pe_pure_guess",
    "pe_monte_carlo",
    "compute_pe",
    "angle_deviation_sampler",
    "sweep",
]

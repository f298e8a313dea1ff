"""Noncorrectable-error probabilities for the approximant families.

An angular deviation u drawn from the approximant's angle density is
correctable when |u| < pi/m: the modular syndrome then points back to the
original codeword.  The noncorrectable probability is the tail mass

    p_e = (1/pi) * Integral_{pi/m}^{pi} |Psi(u)|^2 du

(with the angle density normalized as Integral |Psi|^2 du / 2pi = 1).

Routes: adaptive quadrature for every family, a closed form and a large-
squeezing asymptotic for the truncated-Gaussian family (kept numerically
alive far below double underflow via log-space error functions), the
no-information guess 1 - 1/m, and direct Monte Carlo over sampled angle
deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

from ._kernels import grid_sampler, psi_on_grid
from .code_space import (
    Approximant,
    CodeParams,
    _cos_height,
    _envelope_norm_sum,
    _envelope_reach,
    _tg_height,
)
from .errors import NumericalError

LOG10_FLOOR = -300.0  # below this, report value 0.0 and keep log10_value


@dataclass(frozen=True)
class PeResult:
    """A noncorrectable-error probability with provenance.

    value is 0.0 when the probability underflows double precision; in that
    case log10_value still carries the magnitude and error_estimate is the
    underflow threshold rather than a statistical/numerical error bar.
    """

    value: float
    method: str
    error_estimate: float
    log10_value: float | None = None


def _angle_density(approx: Approximant) -> Callable[[np.ndarray], np.ndarray]:
    """Normalized angle density f(u) = |Psi(u)|^2 / 2pi on (-pi, pi].

    For the cosine-power family f(u) ~ cos^(2 gamma)(u/2), the square of the
    cos^gamma(u/2) profile (see ``Approximant``).
    """
    p = approx.parameter
    if approx.family == "truncated_gaussian":
        a2 = _tg_height(p) ** 2 / (2.0 * math.pi)

        def dens(u: np.ndarray) -> np.ndarray:
            return a2 * np.exp(-((p * u) ** 2))

        return dens
    if approx.family == "cosine_power":
        a2 = _cos_height(p) ** 2 / (2.0 * math.pi)
        g = 2.0 * p

        def dens(u: np.ndarray) -> np.ndarray:
            return a2 * np.cos(0.5 * u) ** g

        return dens
    if approx.family == "gaussian_envelope":
        sigma = p
        reach = _envelope_reach(sigma)
        ls = np.arange(1, reach + 1, dtype=np.float64)
        cs = np.exp(-(ls**2) / (2.0 * sigma**2))
        c_norm = _envelope_norm_sum(sigma)

        def dens(u: np.ndarray) -> np.ndarray:
            u = np.atleast_1d(np.asarray(u, dtype=np.float64))
            # Psi(u) = (c_0 + 2 sum_l c_l cos(l u)) / sqrt(C)
            series = 1.0 + 2.0 * np.cos(np.outer(u, ls)) @ cs
            return (series**2 / c_norm) / (2.0 * math.pi)

        return dens
    # grating: Dirichlet kernel of K = 2 L_M + 1 slits
    half = int(p)
    K = 2 * half + 1

    def dens(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        ratio = K * np.sinc(K * u / (2.0 * math.pi)) / np.sinc(u / (2.0 * math.pi))
        return ratio**2 / (K * 2.0 * math.pi)

    return dens


def _grating_breakpoints(half: int, a: float) -> list[float]:
    K = 2 * half + 1
    pts = []
    j = 1
    while j * 2.0 * math.pi / K < math.pi:
        z = j * 2.0 * math.pi / K
        if z > a:
            pts.append(z)
        j += 1
    return pts


def pe_quadrature(approx: Approximant, m: int) -> PeResult:
    """Tail mass of the angle density beyond the correctable sector |u| < pi/m."""
    if m < 2:
        raise ValueError("need comb period m >= 2")
    a = math.pi / m
    dens = _angle_density(approx)

    def f(u: float) -> float:
        return float(dens(np.array([u]))[0])

    pieces: list[tuple[float, float, list[float]]] = []
    if approx.family == "grating":
        pieces.append((a, math.pi, _grating_breakpoints(int(approx.parameter), a)))
    else:
        # Narrow densities keep all their tail mass in a thin boundary layer
        # just above a; force the quadrature to look there.
        if approx.family == "truncated_gaussian":
            width = 1.0 / approx.parameter
        elif approx.family == "gaussian_envelope":
            width = 1.0 / approx.parameter
        else:
            width = 1.0 / math.sqrt(approx.parameter)
        cut = a + 40.0 * width
        if cut < math.pi:
            pieces.append((a, cut, []))
            pieces.append((cut, math.pi, []))
        else:
            pieces.append((a, math.pi, []))

    total = 0.0
    err = 0.0
    for lo, hi, pts in pieces:
        if pts:
            val, e = integrate.quad(
                f, lo, hi, points=pts, epsabs=1e-12, epsrel=1e-12, limit=50 + 10 * len(pts)
            )
        else:
            val, e = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
        total += val
        err += e
    p = 2.0 * total  # both tails
    log10 = math.log10(p) if p > 0 else None
    return PeResult(value=p, method="quadrature", error_estimate=2.0 * err, log10_value=log10)


def _log_erf(x: float) -> float:
    # ln erf(x) for x > 0; erf underflows nowhere, only saturates at 1
    return math.log(special.erf(x)) if x < 6.0 else 0.0


def pe_closed_form(xi: float, m: int) -> PeResult:
    """Truncated-Gaussian tail in closed form: 1 - erf(pi xi / m) / erf(pi xi).

    Evaluated as (erfc(a) - erfc(b)) / erf(b) with a = pi xi / m, b = pi xi,
    and in log space through scaled complementary error functions when the
    probability underflows double precision.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    if m < 2:
        raise ValueError("need comb period m >= 2")
    a = math.pi * xi / m
    b = math.pi * xi

    # log-space magnitude, always available
    la = math.log(special.erfcx(a)) - a * a
    lb = math.log(special.erfcx(b)) - b * b
    x = lb - la  # < 0 whenever m > 1
    ln_num = la + math.log(-math.expm1(x)) if x < 0 else -math.inf
    ln_p = ln_num - _log_erf(b)
    log10 = ln_p / math.log(10.0)

    if log10 < LOG10_FLOOR:
        return PeResult(
            value=0.0,
            method="closed_form",
            error_estimate=10.0**LOG10_FLOOR,
            log10_value=log10,
        )
    p = (special.erfc(a) - special.erfc(b)) / special.erf(b)
    return PeResult(value=p, method="closed_form", error_estimate=4.0 * abs(p) * 2.2e-16 + 5e-324, log10_value=log10)


def pe_asymptotic(xi: float, m: int) -> PeResult:
    """Large-squeezing leading term: m exp(-(pi xi / m)^2) / (pi^{3/2} xi)."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    if m < 2:
        raise ValueError("need comb period m >= 2")
    a = math.pi * xi / m
    ln_p = -a * a + math.log(m / (math.pi**1.5 * xi))
    log10 = ln_p / math.log(10.0)
    if log10 < LOG10_FLOOR:
        return PeResult(
            value=0.0,
            method="asymptotic",
            error_estimate=10.0**LOG10_FLOOR,
            log10_value=log10,
        )
    p = math.exp(ln_p)
    return PeResult(value=p, method="asymptotic", error_estimate=p / (2.0 * a * a), log10_value=log10)


def pe_pure_guess(m: int) -> PeResult:
    """No-information baseline: all m sectors equally likely, 1 - 1/m."""
    if m < 2:
        raise ValueError("need comb period m >= 2")
    p = 1.0 - 1.0 / m
    return PeResult(value=p, method="pure_guess", error_estimate=0.0, log10_value=math.log10(p))


GRID_SIZE = 1 << 17


def _grid_density(approx: Approximant) -> np.ndarray:
    """The angle density at u_j = -pi + 2 pi j / GRID_SIZE, j < GRID_SIZE."""
    if approx.family == "gaussian_envelope":
        # Psi is the momentum series itself: one FFT instead of a cosine table
        sigma = approx.parameter
        reach = _envelope_reach(sigma)
        ls = np.arange(-reach, reach + 1, dtype=np.float64)
        psi = psi_on_grid(np.exp(-(ls**2) / (2.0 * sigma**2)), -reach, GRID_SIZE)
        return np.abs(psi) ** 2 / _envelope_norm_sum(sigma) / (2.0 * math.pi)
    grid = -math.pi + 2.0 * math.pi * np.arange(GRID_SIZE) / GRID_SIZE
    return np.asarray(_angle_density(approx)(grid), dtype=np.float64)


def angle_deviation_sampler(
    approx: Approximant,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Inverse-CDF sampler for angular deviations u ~ |Psi(u)|^2 / 2pi.

    The cumulative distribution is tabulated once on a uniform grid of
    2^17 intervals over [-pi, pi] and inverted by linear interpolation.
    """
    pdf = _grid_density(approx)
    if np.any(~np.isfinite(pdf)) or np.any(pdf < -1e-12):
        raise NumericalError("angle density evaluation failed")
    return grid_sampler(np.clip(pdf, 0.0, None))


def pe_monte_carlo(
    approx: Approximant, m: int, trials: int, rng: np.random.Generator
) -> PeResult:
    """Empirical tail fraction of sampled angular deviations, with binomial SE."""
    if m < 2:
        raise ValueError("need comb period m >= 2")
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
    if method == "closed_form":
        if family != "truncated_gaussian":
            raise ValueError("closed_form is only defined for truncated_gaussian")
        return pe_closed_form(parameter, m)
    if method == "asymptotic":
        if family != "truncated_gaussian":
            raise ValueError("asymptotic is only defined for truncated_gaussian")
        return pe_asymptotic(parameter, m)
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


SWEEP_COLUMNS = (
    "family",
    "N",
    "d",
    "delta_L",
    "parameter",
    "method",
    "p_e",
    "log10_pe",
    "error_estimate",
    "seed",
)


def sweep(spec: SweepSpec) -> list[dict[str, object]]:
    """Run the sweep; one row per parameter, schema SWEEP_COLUMNS."""
    rng = (
        np.random.default_rng(spec.seed)
        if spec.method == "monte_carlo"
        else None
    )
    rows: list[dict[str, object]] = []
    for p in spec.parameters:
        res = compute_pe(
            spec.family, p, spec.code.m, spec.method, trials=spec.trials, rng=rng
        )
        rows.append(
            {
                "family": spec.family,
                "N": spec.code.N,
                "d": spec.code.d,
                "delta_L": spec.code.delta_L,
                "parameter": p,
                "method": res.method,
                "p_e": res.value,
                "log10_pe": res.log10_value,
                "error_estimate": res.error_estimate,
                "seed": spec.seed if spec.method == "monte_carlo" else None,
            }
        )
    return rows


__all__ = [
    "PeResult",
    "SweepSpec",
    "SWEEP_COLUMNS",
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

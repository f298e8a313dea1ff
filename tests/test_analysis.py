"""Noncorrectable-error probability routes against frozen reference values."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import rotorcode
from rotorcode import (
    Approximant,
    CodeParams,
    SweepSpec,
    angle_deviation_sampler,
    compute_pe,
    pe_asymptotic,
    pe_closed_form,
    pe_monte_carlo,
    pe_pure_guess,
    pe_quadrature,
    sweep,
)
from rotorcode.analysis import LOG10_FLOOR, METHODS

# Frozen reference values, computed from closed forms / exact antiderivatives
# outside this package (error-function ratios, multiple-angle expansions of
# cos^{2 gamma}, and the Fejer-type expansion of the squared Dirichlet kernel).
TG_REFERENCE = {
    (2.0, 2): 8.876146367686744e-06,
    (2.0, 6): 0.13861697183973642,
    (6.0, 6): 8.876146367686744e-06,
    (12.0, 12): 8.876146367686744e-06,
    (3.0, 6): 0.026321074921741405,
}
COS_REFERENCE = {
    (6.0, 6): 0.35162158879937333,
    (96.0, 96): 0.8204039929063309,
}
GRATING_REFERENCE = {
    (1, 2): 0.07558681842161243,
    (1, 6): 0.5292385933071743,
    (6, 6): 0.09485284255395786,
    (96, 96): 0.09716762403748307,
    (200, 2): 0.0007957697420228884,
}


@pytest.mark.parametrize("xi_m, expected", sorted(TG_REFERENCE.items()))
def test_trunc_gauss_closed_form_reference_values(xi_m, expected):
    xi, m = xi_m
    res = pe_closed_form(xi, m)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.log10_value == pytest.approx(math.log10(expected), abs=1e-10)


@pytest.mark.parametrize("xi_m, expected", sorted(TG_REFERENCE.items()))
def test_trunc_gauss_quadrature_matches_closed_form(xi_m, expected):
    xi, m = xi_m
    res = pe_quadrature(Approximant("truncated_gaussian", xi), m)
    assert res.method == "quadrature"
    assert res.value == pytest.approx(expected, abs=1e-11)
    assert res.error_estimate < 1e-10


@pytest.mark.parametrize("gm, expected", sorted(COS_REFERENCE.items()))
def test_cosine_power_quadrature_reference_values(gm, expected):
    gamma, m = gm
    res = pe_quadrature(Approximant("cosine_power", gamma), m)
    assert res.value == pytest.approx(expected, abs=1e-11)


def test_cosine_power_quadrature_keeps_precision_at_large_gamma():
    # a rounded cos(u/2) raised to 2 gamma was 1.0e-11 relative off here
    gamma, m = 471859.2, 3072
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma)
        a = mpmath.pi / m
        height2 = mpmath.sqrt(mpmath.pi) * mpmath.gamma(g + 1) / mpmath.gamma(g + 0.5)
        tail = mpmath.quad(
            lambda u: mpmath.cos(u / 2) ** (2 * g), [a, a + 40 / mpmath.sqrt(g), mpmath.pi]
        )
        exact = float(height2 * tail / mpmath.pi)
    res = pe_quadrature(Approximant("cosine_power", gamma), m)
    assert res.value == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lm, expected", sorted(GRATING_REFERENCE.items()))
def test_grating_quadrature_reference_values(lm, expected):
    half, m = lm
    res = pe_quadrature(Approximant("grating", float(half)), m)
    assert res.value == pytest.approx(expected, abs=1e-11)


SERIES_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def _grating_pe_by_quadrature(half, m):
    # QUADPACK on the Dirichlet density, broken at its zeros 2 pi j / K
    K = 2 * half + 1
    a = math.pi / m
    zeros = [2.0 * math.pi * j / K for j in range(1, half + 1)]
    pts = [z for z in zeros if z > a]
    val, _ = integrate.quad(
        lambda u: (math.sin(K * u / 2) / math.sin(u / 2)) ** 2 / K, a, math.pi,
        points=pts or None, epsabs=1e-13, epsrel=1e-13, limit=50 + 10 * len(pts),
    )
    return val / math.pi


@SERIES_PROPERTY
@given(half=st.integers(1, 200), m=st.integers(2, 400))
def test_grating_series_matches_breakpoint_quadrature(half, m):
    res = pe_quadrature(Approximant("grating", float(half)), m)
    assert res.value == pytest.approx(_grating_pe_by_quadrature(half, m), abs=1e-12)
    assert res.error_estimate < 1e-12


@SERIES_PROPERTY
@given(half=st.integers(1, 200), m=st.integers(2, 399))
def test_grating_pe_is_non_decreasing_in_m(half, m):
    approx = Approximant("grating", float(half))
    assert pe_quadrature(approx, m + 1).value >= pe_quadrature(approx, m).value - 1e-15


@pytest.mark.parametrize("half, m", [(96, 96), (6, 6), (150, 96), (1, 2), (40, 6)])
def test_grating_series_matches_30_digit_integral(half, m):
    K = 2 * half + 1
    with mpmath.workdps(30):
        a = mpmath.pi / m
        zeros = [z for z in (2 * mpmath.pi * j / K for j in range(1, half + 1)) if z > a]
        tail = mpmath.quad(
            lambda u: (mpmath.sin(K * u / 2) / mpmath.sin(u / 2)) ** 2 / K,
            [a, *zeros[::4], mpmath.pi],
            method="gauss-legendre",
        )
        exact = float(tail / mpmath.pi)
    assert abs(pe_quadrature(Approximant("grating", float(half)), m).value - exact) <= 5e-16


def test_grating_series_takes_comb_periods_past_int64():
    # N = 70 qubits, delta_L = 1: m = 3 * 2^70 does not fit a numpy int64
    res = pe_quadrature(Approximant("grating", 6.0), 3 * 2**70)
    assert res.value == pytest.approx(1.0, abs=1e-15)
    assert res.error_estimate < 1e-12


def test_grating_series_memory_stays_bounded_and_accurate():
    # K = 2^21 + 1 slits: the terms are summed in fixed-size chunks
    half, m = 1 << 20, 6
    tracemalloc.start()
    try:
        res = pe_quadrature(Approximant("grating", float(half)), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert res.error_estimate < 1e-12
    # the same series with sin(k pi/m) from a 30-digit table over one period;
    # sin(k * (pi/m)) in floats puts the sum 4.4e-15 off
    K = 2 * half + 1
    with mpmath.workdps(30):
        table = np.array([float(mpmath.sin(mpmath.pi * r / m)) for r in range(2 * m)])
    k = np.arange(1, K, dtype=np.int64)
    terms = table[k % (2 * m)] * (K - k) / (K * k)
    exact = (1.0 - 1.0 / m) - (2.0 / math.pi) * math.fsum(terms.tolist())
    assert abs(res.value - exact) <= 5e-16


def test_gaussian_envelope_matches_matched_width_gaussian():
    # For sigma well below the band edge the envelope density is the
    # periodized Gaussian, so its tail equals the truncated-Gaussian one.
    res = pe_quadrature(Approximant("gaussian_envelope", 3.0), 6)
    assert res.value == pytest.approx(TG_REFERENCE[(3.0, 6)], abs=1e-10)


@pytest.mark.parametrize(
    "sigma, m", [(96.0, 96), (768.0, 3072), (6144.0, 3072), (300.0, 96), (3.0, 6), (12.0, 2)]
)
def test_gaussian_envelope_image_sum_equals_closed_form_for_wide_sigma(sigma, m):
    # for sigma >= 3 every image past the first is below e^{-pi^2 sigma^2} of
    # the tail; a series cut at |l| = 6 sigma + 40 put (300, 96) at 1.7e-18,
    # not 7.9e-44, and (768, 3072) 3.8e-10 off
    res = pe_quadrature(Approximant("gaussian_envelope", sigma), m)
    ref = pe_closed_form(sigma, m)
    assert res.method == "quadrature"
    assert res.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
    assert abs(res.value - ref.value) <= res.error_estimate
    assert res.log10_value == pytest.approx(ref.log10_value, rel=1e-13)


@pytest.mark.parametrize("sigma, m", [(16.0, 2), (12.0, 3), (30.0, 6)])
def test_gaussian_envelope_error_estimate_covers_the_steep_tail(sigma, m):
    # erfc(pi sigma / m) there turns the rounding of pi/m into ~5e-14 relative;
    # the images past the first are below e^{-pi^2 sigma^2 (1 - 1/m^2)} of it
    res = pe_quadrature(Approximant("gaussian_envelope", sigma), m)
    with mpmath.workdps(40):
        b = mpmath.pi * sigma
        exact = float((mpmath.erfc(b / m) - mpmath.erfc(b)) / mpmath.erf(b))
    assert abs(res.value - exact) <= res.error_estimate < 1e-12 * exact


@pytest.mark.parametrize("sigma, m", [(1e5, 6), (1e9, 2), (30.0, 2)])
def test_gaussian_envelope_below_floor_keeps_log_magnitude(sigma, m):
    res = pe_quadrature(Approximant("gaussian_envelope", sigma), m)
    assert res.value == 0.0
    assert res.error_estimate == 10.0**LOG10_FLOOR
    assert res.log10_value < LOG10_FLOOR
    assert res.log10_value == pytest.approx(pe_closed_form(sigma, m).log10_value, rel=1e-12)


def test_gaussian_envelope_past_float_squares_underflows_cleanly():
    # (pi sigma / m)^2 overflows a double: p_e 0 and log10 -inf, as the
    # closed form gives, and no floating-point warning on the way
    approx = Approximant("gaussian_envelope", 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pe_quadrature(approx, 6)
        us = angle_deviation_sampler(approx)(np.random.default_rng(2), 1000)
    assert (res.value, res.log10_value) == (0.0, -math.inf)
    assert res.log10_value == pe_closed_form(1e200, 6).log10_value
    assert np.all(np.abs(us) < 1e-4)
    with pytest.raises(ValueError, match="past the double range"):
        pe_quadrature(Approximant("gaussian_envelope", 1e308), 6)


def _envelope_pe_50_digits(sigma, m):
    # psi ~ theta_3(u/2, q) = sum_l q^{l^2} e^{i l u}, q = e^{-1/2 sigma^2}: the
    # whole momentum series, whose Poisson dual is the periodized Gaussian
    with mpmath.workdps(50):
        q = mpmath.exp(-1 / (2 * mpmath.mpf(sigma) ** 2))
        norm = mpmath.jtheta(3, 0, q**2)
        tail = mpmath.quad(lambda u: mpmath.jtheta(3, u / 2, q) ** 2, [mpmath.pi / m, mpmath.pi])
        return float(tail / (norm * mpmath.pi))


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("m", [2, 6])
def test_gaussian_envelope_matches_50_digit_integral(sigma, m):
    # here the images matter: at sigma = 1, m = 2 the value is 4e-3 relative
    # off the closed form of the single Gaussian
    res = pe_quadrature(Approximant("gaussian_envelope", sigma), m)
    exact = _envelope_pe_50_digits(sigma, m)
    assert res.value == pytest.approx(exact, abs=1e-14)
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize(
    "family", ["truncated_gaussian", "cosine_power", "gaussian_envelope", "grating"]
)
def test_pe_quadrature_needs_no_quadpack(monkeypatch, family):
    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(integrate, "quad", refuse)
    res = pe_quadrature(Approximant(family, 6.0), 6)
    reference = {
        "truncated_gaussian": TG_REFERENCE[(6.0, 6)],
        "cosine_power": COS_REFERENCE[(6.0, 6)],
        "gaussian_envelope": TG_REFERENCE[(6.0, 6)],
        "grating": GRATING_REFERENCE[(6, 6)],
    }[family]
    assert res.value == pytest.approx(reference, rel=1e-13)


SCIPY_FREE_PROBE = """
import contextlib, io, sys
import numpy as np

def step(name, run=lambda: 0):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run()
    print(name, code, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))

step("import")
import rotorcode
from rotorcode import cli, weyl_algebra as wa
step("import rotorcode")
step("tables", lambda: cli.main(["tables", "--N", "2"]))
step("tables --binary", lambda: cli.main(["tables", "--binary"]))
step("check", lambda: cli.main(["check", "--delta-L", "1", "--seed", "1"]))
step("codeword ideal", lambda: cli.main(["codeword", "--family", "ideal", "--N", "3"]))
params = rotorcode.CodeParams(d=2, N=2, delta_L=1)
word = rotorcode.ideal_codeword(params, 1, -60, 60)
op = wa.compose(wa.qubit_X(1, params.r), wa.phase_gate(1, 2, params.r))
step("operator algebra", lambda: int(wa.apply(op, word).amplitudes.size == 0))
for family, flag in (("trunc-gauss", "--xi"), ("cos-power", "--gamma"), ("gauss-env", "--sigma"),
                     ("grating", "--slits")):
    step(f"pe {family} monte-carlo", lambda: cli.main([
        "pe", "--family", family, flag, "3", "--method", "monte-carlo", "--seed", "1",
        "--trials", "1000"]))
"""


def test_import_leaves_scipy_unloaded():
    # scipy.special loads on first use, inside the functions that call it, so the
    # package and every command that needs no envelope or exact p_e runs without it
    src = str(Path(rotorcode.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PROBE], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    steps = [line.rsplit(" ", 2) for line in out.splitlines()]
    assert [name for name, _, _ in steps] == [
        "import", "import rotorcode", "tables", "tables --binary", "check",
        "codeword ideal", "operator algebra", "pe trunc-gauss monte-carlo",
        "pe cos-power monte-carlo", "pe gauss-env monte-carlo", "pe grating monte-carlo",
    ]
    assert [step for step in steps if step[1:] != ["0", "False"]] == []


TOP_LEVEL_NAMES = {
    "__version__", "HAS_NUMBA", "USING_NUMBA", "NumericalError",
    # states
    "RotorState", "AngleGrid", "make_state", "from_amplitudes", "pad_state", "inner",
    "fidelity", "theta_wavefunction", "angle_distribution", "sample_momentum", "sample_angle",
    # operators
    "ShiftDiagonalOperator", "apply", "identity", "angle_shift", "momentum_shift", "qubit_Z",
    "qubit_X", "qudit_pair", "phase_gate", "stabilizer_ops", "residual_rotor_phase", "scaled",
    "compose", "commutator_norm", "operator_difference_norm", "random_probes",
    "invariant_residuals",
    # code space
    "CodeParams", "Approximant", "LogicalLabels", "FAMILIES", "TAIL_TOL", "MAX_WINDOW_MOMENTA",
    "MAX_TABLE_CELLS", "logical_labels", "digits_to_k", "k_to_digits", "reconstruct_momentum",
    "binary_labels", "encoding_table", "binary_table", "envelope_coefficients",
    "default_window_half", "ideal_comb", "ideal_codeword", "approx_basis_state",
    "approx_codeword", "logical_encode",
    # noise and correction
    "ErrorEvent", "Syndrome", "RoundTripSummary", "apply_error", "centered_angle",
    "centered_residue", "measure_syndrome_expected", "measure_syndrome_sampled", "correct",
    "run_round_trip",
    # analysis
    "PeResult", "SweepSpec", "METHODS", "pe_quadrature", "pe_closed_form", "pe_asymptotic",
    "pe_pure_guess", "pe_monte_carlo", "compute_pe", "angle_deviation_sampler", "sweep",
}


def test_top_level_names_are_the_modules_public_names():
    assert len(rotorcode.__all__) == len(TOP_LEVEL_NAMES) == 74
    assert set(rotorcode.__all__) == TOP_LEVEL_NAMES
    assert all(hasattr(rotorcode, name) for name in TOP_LEVEL_NAMES)


ANGLE_DENSITY = {  # |Psi(u)|^2 up to its normalization
    "truncated_gaussian": lambda p, u: mpmath.exp(-((p * u) ** 2)),
    "cosine_power": lambda p, u: mpmath.cos(u / 2) ** (2 * p),
}


def _tail_of_sampler_density(approx, m, width):
    # the family's angle density, its tail over its mass on (0, pi), by 30-digit mpmath
    with mpmath.workdps(30):
        p, a = mpmath.mpf(approx.parameter), mpmath.pi / m
        cut = [a + 40 * width] if a + 40 * width < mpmath.pi else []
        dens = partial(ANGLE_DENSITY[approx.family], p)
        tail = mpmath.quad(dens, [a, *cut, mpmath.pi])
        return float(tail / (mpmath.quad(dens, [0, a]) + tail))


@pytest.mark.parametrize(
    "family, parameter, m",
    [
        ("truncated_gaussian", 2.0, 6),
        ("truncated_gaussian", 6.0, 6),
        ("truncated_gaussian", 0.3, 2),
        ("truncated_gaussian", 40.0, 96),
        ("cosine_power", 6.0, 6),
        ("cosine_power", 7.3, 6),
        ("cosine_power", 0.5, 2),
        ("cosine_power", 9000.0, 96),
    ],
)
def test_pe_quadrature_matches_the_sampler_density(family, parameter, m):
    width = 1.0 / (math.sqrt(parameter) if family == "cosine_power" else parameter)
    approx = Approximant(family, parameter)
    exact = _tail_of_sampler_density(approx, m, width)
    assert pe_quadrature(approx, m).value == pytest.approx(exact, rel=1e-13, abs=0.0)


def _cos_power_pe_60_digits(gamma, m):
    # I_{cos^2(pi/2m)}(gamma + 1/2, 1/2): the lower form, since the upper one
    # cancels to nothing at 60 digits once p_e is below 1e-60
    with mpmath.workdps(60):
        c2 = mpmath.cos(mpmath.pi / (2 * m)) ** 2
        return mpmath.betainc(mpmath.mpf(gamma) + 0.5, mpmath.mpf(0.5), 0, c2, regularized=True)


@pytest.mark.parametrize(
    "gamma, m",
    [(236363.64, 32), (2273636.36, 1024), (1e7, 1024), (900.0, 2), (50.0, 3), (0.001, 2), (96.0, 96)],
)
def test_cosine_power_pe_is_the_incomplete_beta_tail(gamma, m):
    # QUADPACK put (236363.64, 32) at 8.5104e-250, 0.54 % off; betainc on a
    # rounded cos^2(pi/2m) put (2273636.36, 1024) 2.5e-10 off
    res = pe_quadrature(Approximant("cosine_power", gamma), m)
    exact = _cos_power_pe_60_digits(gamma, m)
    assert res.value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert abs(res.value - exact) <= res.error_estimate
    assert res.log10_value == pytest.approx(float(mpmath.log10(exact)), rel=1e-14)


def test_cosine_power_pe_below_the_floor_is_zero_without_log():
    # gamma = 3e5, m = 32: p_e = 1.8e-316 is subnormal, 7.8e-9 relative off
    res = pe_quadrature(Approximant("cosine_power", 3e5), 32)
    assert (res.value, res.log10_value, res.error_estimate) == (0.0, None, 10.0**LOG10_FLOOR)


@pytest.mark.parametrize(
    "xi, m", [(4.596807787, 6), (81.29551105, 96), (30.0, 6), (1e-9, 2), (1e-3, 32), (0.1, 2)]
)
def test_trunc_gauss_pe_matches_50_digit_error_functions(xi, m):
    # QUADPACK was 6.9e-9 and 1.3e-9 relative off at the first two points; an
    # erfc difference 3e-10 off at xi = 1e-9, where erfc(pi xi / m) is near 1
    with mpmath.workdps(50):
        b = mpmath.pi * mpmath.mpf(xi)
        exact = (mpmath.erfc(b / m) - mpmath.erfc(b)) / mpmath.erf(b)
    res = pe_quadrature(Approximant("truncated_gaussian", xi), m)
    assert res.method == "quadrature"
    assert res.value == pytest.approx(float(exact), rel=1e-13, abs=0.0)
    assert abs(res.value - exact) <= res.error_estimate
    assert res.log10_value == pytest.approx(float(mpmath.log10(exact)), rel=1e-13, abs=1e-16)
    assert pe_closed_form(xi, m).value == res.value


@pytest.mark.parametrize("xi, m", [(4.596807787, 2), (4.596807787, 6), (30.0, 6), (1e-9, 2)])
def test_closed_form_error_estimate_covers_the_rounding_of_a(xi, m):
    # 1.3e-15, 9.5e-16 and 6.9e-14 relative off at the first three points: past
    # the old 4 eps p_e, which left out erfc's slope times the rounding of pi xi / m
    with mpmath.workdps(50):
        b = mpmath.pi * mpmath.mpf(xi)
        exact = (mpmath.erfc(b / m) - mpmath.erfc(b)) / mpmath.erf(b)
    res = pe_closed_form(xi, m)
    assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate == pe_quadrature(Approximant("truncated_gaussian", xi), m).error_estimate


@SERIES_PROPERTY
@given(log_xi=st.floats(-3.0, 4.0), widen=st.floats(1.0, 4.0), m=st.integers(2, 4096), step=st.integers(1, 64))
def test_trunc_gauss_pe_is_monotone_in_xi_and_m(log_xi, widen, m, step):
    xi = 10.0**log_xi
    base = pe_quadrature(Approximant("truncated_gaussian", xi), m)
    wider = pe_quadrature(Approximant("truncated_gaussian", xi * widen), m)
    finer = pe_quadrature(Approximant("truncated_gaussian", xi), m + step)
    assert wider.value <= base.value + 1e-15
    assert finer.value >= base.value - 1e-15
    # underflowed values order by their log magnitude
    if base.value == 0.0:
        assert wider.log10_value <= base.log10_value * (1.0 - 1e-12)
    if finer.value == 0.0:
        assert finer.log10_value >= base.log10_value * (1.0 + 1e-12)


@SERIES_PROPERTY
@given(log_gamma=st.floats(-3.0, 7.0), widen=st.floats(1.0, 4.0), m=st.integers(2, 4096), step=st.integers(1, 64))
def test_cosine_power_pe_is_monotone_in_gamma_and_m(log_gamma, widen, m, step):
    gamma = 10.0**log_gamma
    base = pe_quadrature(Approximant("cosine_power", gamma), m).value
    assert pe_quadrature(Approximant("cosine_power", gamma * widen), m).value <= base + 1e-15
    assert pe_quadrature(Approximant("cosine_power", gamma), m + step).value >= base - 1e-15


@pytest.mark.parametrize(
    "route",
    [
        lambda m: pe_quadrature(Approximant("cosine_power", 3.0), m),
        lambda m: pe_closed_form(3.0, m),
        lambda m: pe_asymptotic(3.0, m),
        lambda m: pe_pure_guess(m),
        lambda m: pe_monte_carlo(Approximant("grating", 3.0), m, 10, np.random.default_rng(0)),
    ],
    ids=["quadrature", "closed_form", "asymptotic", "pure_guess", "monte_carlo"],
)
def test_every_route_refuses_a_period_past_the_double_range(route):
    with pytest.raises(ValueError, match=r"comb period m >= 2\^1101"):
        route(3 * 2**1100)
    with pytest.raises(ValueError, match="m >= 2"):
        route(1)


@pytest.mark.parametrize("sigma", [1e-9, 1e-3])
@pytest.mark.parametrize("m", [2, 6])
def test_gaussian_envelope_vanishing_sigma_is_flat_and_fast(sigma, m):
    # the density is 1/2pi to double precision; the images stay few
    approx = Approximant("gaussian_envelope", sigma)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        res = pe_quadrature(approx, m)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3
    assert res.value == pytest.approx(1.0 - 1.0 / m, abs=1e-15)


@SERIES_PROPERTY
@given(
    log_sigma=st.floats(-3.0, 5.0),
    widen=st.floats(1.0, 4.0),
    m=st.integers(2, 4096),
    step=st.integers(1, 64),
)
def test_gaussian_envelope_pe_is_monotone_in_sigma_and_m(log_sigma, widen, m, step):
    sigma = 10.0**log_sigma
    base = pe_quadrature(Approximant("gaussian_envelope", sigma), m)
    wider = pe_quadrature(Approximant("gaussian_envelope", sigma * widen), m)
    finer = pe_quadrature(Approximant("gaussian_envelope", sigma), m + step)
    assert wider.value <= base.value + 1e-15
    assert finer.value >= base.value - 1e-15
    # underflowed values order by their log magnitude
    if base.value == 0.0:
        assert wider.log10_value <= base.log10_value * (1.0 - 1e-12)
    if finer.value == 0.0:
        assert finer.log10_value >= base.log10_value * (1.0 + 1e-12)


def test_asymptotic_formula_and_regime():
    xi, m = 3.0, 2
    res = pe_asymptotic(xi, m)
    direct = m * math.exp(-((math.pi * xi / m) ** 2)) / (math.pi**1.5 * xi)
    assert res.value == pytest.approx(direct, rel=1e-15)
    # deep in the squeezed regime the closed form approaches the asymptote
    lc = pe_closed_form(10.0 * 6, 6).log10_value
    la = pe_asymptotic(10.0 * 6, 6).log10_value
    assert 10.0 ** (lc - la) == pytest.approx(0.9994941620869403, abs=1e-9)


def test_underflow_keeps_log_magnitude():
    res = pe_closed_form(60.0, 6)
    assert res.value == 0.0
    assert res.error_estimate == 10.0**LOG10_FLOOR
    assert res.log10_value == pytest.approx(-430.3774175433517, abs=1e-9)
    asym = pe_asymptotic(60.0, 6)
    assert asym.value == 0.0
    assert asym.log10_value < LOG10_FLOOR


def test_pure_guess_values():
    res = pe_pure_guess(6)
    assert res.value == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert res.error_estimate == 0.0
    assert pe_pure_guess(2).value == pytest.approx(0.5)


@pytest.mark.parametrize(
    "family, parameter",
    [
        ("truncated_gaussian", 1e-3),
        ("cosine_power", 1e-3),
        ("gaussian_envelope", 1e-3),
    ],
)
def test_vanishing_parameter_approaches_pure_guess(family, parameter):
    for m in (2, 6):
        flat = pe_quadrature(Approximant(family, parameter), m).value
        assert flat == pytest.approx(1.0 - 1.0 / m, abs=1e-3)


def test_validation_errors():
    with pytest.raises(ValueError, match="m >= 2"):
        pe_closed_form(2.0, 1)
    with pytest.raises(ValueError, match="xi must be positive"):
        pe_closed_form(0.0, 6)
    with pytest.raises(ValueError, match="m >= 2"):
        pe_quadrature(Approximant("truncated_gaussian", 2.0), 0)
    with pytest.raises(ValueError, match="at least one trial"):
        pe_monte_carlo(
            Approximant("truncated_gaussian", 2.0), 6, 0, np.random.default_rng(0)
        )
    with pytest.raises(ValueError, match="unknown method"):
        compute_pe("truncated_gaussian", 2.0, 6, method="tarot")
    with pytest.raises(ValueError, match="only defined for truncated_gaussian"):
        compute_pe("cosine_power", 6.0, 6, method="closed_form")
    with pytest.raises(ValueError, match="seeded random generator"):
        compute_pe("truncated_gaussian", 2.0, 6, method="monte_carlo")


def test_sampler_draws_match_the_density_tail():
    approx = Approximant("truncated_gaussian", 2.0)
    draw = angle_deviation_sampler(approx)
    rng = np.random.default_rng(314)
    us = draw(rng, 50_000)
    assert np.all((us >= -math.pi) & (us <= math.pi))
    p_ref = TG_REFERENCE[(2.0, 6)]
    frac = np.mean(np.abs(us) > math.pi / 6.0)
    se = math.sqrt(p_ref * (1 - p_ref) / us.size)
    assert abs(frac - p_ref) < 4.0 * se


@pytest.mark.parametrize(
    "family, parameter",
    [("cosine_power", 0.3), ("gaussian_envelope", 0.2), ("grating", 1.0)],
)
def test_sampler_draws_stay_in_range_for_wide_densities(family, parameter):
    # these densities keep mass near +-pi: no draw may land past the circle's edge
    us = angle_deviation_sampler(Approximant(family, parameter))(
        np.random.default_rng(8), 20_000
    )
    assert np.all((us >= -math.pi) & (us <= math.pi))
    assert np.max(np.abs(us)) > 3.0


def test_gaussian_envelope_sampler_matches_quadrature_and_stays_small():
    # sigma = 6144 = 2 m at N = 10, delta_L = 1, and sigma = 1e8, where a momentum
    # series would need 6e8 terms: the draws need only the weights of 3 images
    for sigma in (6144.0, 1e8):
        tracemalloc.start()
        try:
            draw = angle_deviation_sampler(Approximant("gaussian_envelope", sigma))
            us = draw(np.random.default_rng(5), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all((us >= -math.pi) & (us <= math.pi))
    # at sigma = 8 the sampled tail agrees with the quadrature tail
    approx = Approximant("gaussian_envelope", 8.0)
    p_ref = pe_quadrature(approx, 24).value
    us = angle_deviation_sampler(approx)(np.random.default_rng(6), 50_000)
    frac = np.mean(np.abs(us) > math.pi / 24)
    assert abs(frac - p_ref) < 4.0 * math.sqrt(p_ref * (1 - p_ref) / 50_000)


# far out on each family, where a 2^17-point tabulated CDF pulled +3.9, +47.5, +7.8,
# -10.4, +371 and +1.6 standard errors off the exact tail
PULL_POINTS = [
    ("truncated_gaussian", 2000.0, 3072, 4_000_000),
    ("cosine_power", 1e8, 12288, 4_000_000),
    ("truncated_gaussian", 3000.0, 9216, 2_000_000),
    ("grating", 30000.0, 9216, 2_000_000),
    ("truncated_gaussian", 20000.0, 82944, 2_000_000),
    ("gaussian_envelope", 1500.0, 3072, 2_000_000),
]


@pytest.mark.parametrize("family, parameter, m, trials", PULL_POINTS)
def test_monte_carlo_pulls_within_four_standard_errors_at_large_m(family, parameter, m, trials):
    approx = Approximant(family, parameter)
    exact = pe_quadrature(approx, m).value
    mc = pe_monte_carlo(approx, m, trials, np.random.default_rng(2026))
    assert abs(mc.value - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


@pytest.mark.parametrize(
    "family, parameter",
    [
        ("truncated_gaussian", 0.3),  # pi xi < 1: the uniform proposal
        ("truncated_gaussian", 4.0),  # the normal proposal
        ("cosine_power", 0.3),
        ("cosine_power", 40.0),
        ("gaussian_envelope", 0.7),  # the mixture at pi holds 1.6 % of the mass
        ("gaussian_envelope", 0.05),
        ("grating", 1.0),
        ("grating", 20.0),
    ],
)
def test_sampled_tails_match_the_exact_ones_for_every_period(family, parameter):
    # a Kolmogorov-Smirnov bound on |u| at the thresholds pi/m: 1.63/sqrt(n) is its 1 % level
    approx, n = Approximant(family, parameter), 200_000
    us = np.abs(angle_deviation_sampler(approx)(np.random.default_rng(17), n))
    gap = max(abs(np.mean(us > math.pi / m) - pe_quadrature(approx, m).value) for m in range(2, 65))
    assert gap < 1.63 / math.sqrt(n)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["truncated_gaussian", "cosine_power", "gaussian_envelope", "grating"]),
    log_p=st.floats(-6.0, 12.0),
    size=st.integers(1, 70_000),
)
def test_sampler_draws_are_finite_and_on_the_circle_for_any_parameter(family, log_p, size):
    # slits L_M from 1 to 1e6, every other parameter from 1e-6 to 1e12
    parameter = float(round(10.0 ** ((log_p + 6.0) / 3.0))) if family == "grating" else 10.0**log_p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        us = angle_deviation_sampler(Approximant(family, parameter))(np.random.default_rng(3), size)
    assert us.shape == (size,)
    assert np.all(np.isfinite(us) & (np.abs(us) <= math.pi))


@pytest.mark.parametrize("family", ["truncated_gaussian", "cosine_power", "gaussian_envelope", "grating"])
def test_sampler_memory_is_the_draws_plus_one_block_of_proposals(family):
    # proposals come 2^15 at a time: 1M draws take their own 8 MB and little more
    draw = angle_deviation_sampler(Approximant(family, 3.0))
    tracemalloc.start()
    try:
        draw(np.random.default_rng(9), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000 + 4 * 2**20


def test_monte_carlo_is_seed_deterministic_and_consistent():
    approx = Approximant("grating", 6.0)
    a = pe_monte_carlo(approx, 6, 20_000, np.random.default_rng(99))
    b = pe_monte_carlo(approx, 6, 20_000, np.random.default_rng(99))
    assert a.value == b.value
    ref = GRATING_REFERENCE[(6, 6)]
    assert abs(a.value - ref) < 4.0 * a.error_estimate
    assert a.method == "monte_carlo"


def test_monte_carlo_zero_hits_reports_floor_spread():
    res = pe_monte_carlo(
        Approximant("truncated_gaussian", 8.0), 2, 100, np.random.default_rng(1)
    )
    assert res.value == 0.0
    assert res.log10_value is None
    assert res.error_estimate == pytest.approx(0.01)


def test_compute_pe_dispatch_matches_direct_routes():
    assert (
        compute_pe("truncated_gaussian", 2.0, 6).value
        == pe_quadrature(Approximant("truncated_gaussian", 2.0), 6).value
    )
    assert (
        compute_pe("truncated_gaussian", 2.0, 6, method="closed_form").value
        == pe_closed_form(2.0, 6).value
    )
    assert compute_pe("grating", 6.0, 6, method="pure_guess").value == pytest.approx(
        5.0 / 6.0
    )
    assert set(METHODS) == {
        "quadrature",
        "closed_form",
        "asymptotic",
        "pure_guess",
        "monte_carlo",
    }


def test_sweep_rows_schema_and_reproducibility():
    spec = SweepSpec(
        family="truncated_gaussian",
        parameters=(1.0, 2.0, 4.0),
        code=CodeParams(d=2, N=1, delta_L=1),
        method="quadrature",
    )
    table = sweep(spec)
    # the CSV's columns in its order; the code shape and seed hold for every row
    assert tuple(table) == (
        "family", "N", "d", "delta_L", "parameter", "method", "p_e", "log10_pe",
        "error_estimate", "seed",
    )
    assert (table["family"], table["N"], table["d"], table["delta_L"], table["seed"]) == (
        "truncated_gaussian", 1, 2, 1, None,
    )
    for name in ("parameter", "method", "p_e", "log10_pe", "error_estimate"):
        assert isinstance(table[name], list) and len(table[name]) == 3
    assert table["parameter"] == [1.0, 2.0, 4.0]
    assert table["method"] == ["quadrature"] * 3
    assert table["p_e"][1] == pytest.approx(TG_REFERENCE[(2.0, 6)], abs=1e-11)
    # monte carlo sweeps demand a seed, and the seed fixes the output
    with pytest.raises(ValueError, match="seed"):
        SweepSpec(family="grating", parameters=(6.0,), method="monte_carlo")
    mc = SweepSpec(
        family="grating",
        parameters=(6.0,),
        code=CodeParams(d=2, N=1, delta_L=1),
        method="monte_carlo",
        trials=5_000,
        seed=7,
    )
    assert sweep(mc)["p_e"] == sweep(mc)["p_e"]
    assert sweep(mc)["seed"] == 7


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least one parameter"):
        SweepSpec(family="truncated_gaussian", parameters=())
    with pytest.raises(ValueError, match="unknown method"):
        SweepSpec(family="truncated_gaussian", parameters=(1.0,), method="magic")

"""Noncorrectable-error probability routes against frozen reference values."""

import math
import tracemalloc

import numpy as np
import pytest

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
from rotorcode.analysis import LOG10_FLOOR, METHODS, SWEEP_COLUMNS

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


@pytest.mark.parametrize("lm, expected", sorted(GRATING_REFERENCE.items()))
def test_grating_quadrature_reference_values(lm, expected):
    half, m = lm
    res = pe_quadrature(Approximant("grating", float(half)), m)
    assert res.value == pytest.approx(expected, abs=1e-11)


def test_gaussian_envelope_matches_matched_width_gaussian():
    # For sigma well below the band edge the envelope density is the
    # periodized Gaussian, so its tail equals the truncated-Gaussian one.
    res = pe_quadrature(Approximant("gaussian_envelope", 3.0), 6)
    assert res.value == pytest.approx(TG_REFERENCE[(3.0, 6)], abs=1e-10)


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
    # these densities keep mass at +-pi, where the tabulated CDF closes
    us = angle_deviation_sampler(Approximant(family, parameter))(
        np.random.default_rng(8), 20_000
    )
    assert np.all((us >= -math.pi) & (us <= math.pi))
    assert np.max(np.abs(us)) > 3.0


def test_gaussian_envelope_sampler_matches_quadrature_and_stays_small():
    # sigma = 6144 = 2 m at N = 10, delta_L = 1: a cosine table would need 39 GB
    tracemalloc.start()
    try:
        draw = angle_deviation_sampler(Approximant("gaussian_envelope", 6144.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    us = draw(np.random.default_rng(5), 200_000)
    assert np.all((us >= -math.pi) & (us <= math.pi))
    # at sigma = 8 the sampled tail agrees with the quadrature tail
    approx = Approximant("gaussian_envelope", 8.0)
    p_ref = pe_quadrature(approx, 24).value
    us = angle_deviation_sampler(approx)(np.random.default_rng(6), 50_000)
    frac = np.mean(np.abs(us) > math.pi / 24)
    assert abs(frac - p_ref) < 4.0 * math.sqrt(p_ref * (1 - p_ref) / 50_000)


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
    rows = sweep(spec)
    assert len(rows) == 3
    for row in rows:
        assert tuple(row.keys()) == SWEEP_COLUMNS
        assert row["N"] == 1 and row["delta_L"] == 1 and row["seed"] is None
    assert rows[1]["p_e"] == pytest.approx(TG_REFERENCE[(2.0, 6)], abs=1e-11)
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
    assert sweep(mc)[0]["p_e"] == sweep(mc)[0]["p_e"]
    assert sweep(mc)[0]["seed"] == 7


def test_sweep_validation():
    with pytest.raises(ValueError, match="at least one parameter"):
        SweepSpec(family="truncated_gaussian", parameters=())
    with pytest.raises(ValueError, match="unknown method"):
        SweepSpec(family="truncated_gaussian", parameters=(1.0,), method="magic")

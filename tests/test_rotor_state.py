"""Momentum-window states: construction, overlaps, angle densities, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rotorcode import (
    AngleGrid,
    Approximant,
    CodeParams,
    NumericalError,
    RotorState,
    ShiftDiagonalOperator,
    angle_distribution,
    apply,
    approx_basis_state,
    approx_codeword,
    centered_angle,
    centered_residue,
    fidelity,
    from_amplitudes,
    ideal_comb,
    identity,
    inner,
    logical_encode,
    make_state,
    measure_syndrome_expected,
    measure_syndrome_sampled,
    momentum_shift,
    pad_state,
    pe_quadrature,
    sample_angle,
    sample_momentum,
    scaled,
    theta_wavefunction,
)
from rotorcode._kernels import evaluate_psi, psi_on_grid
from rotorcode.noise_correction import EXPECTATION_TOL, RESIDUE_MASS_TOL, _vm_expectation
from rotorcode.rotor_state import NORM_TOL, _reduce_angles
from rotorcode.weyl_algebra import _aligned_difference


def test_make_state_tight_hull_and_normalization():
    s = make_state([(-2, 1.0), (3, 1.0j)])
    assert (s.l_min, s.l_max) == (-2, 3)
    assert s.normalized
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert s.amplitude_at(-2) == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.amplitude_at(3) == pytest.approx(1.0j / math.sqrt(2.0))
    assert s.amplitude_at(0) == 0.0
    assert s.amplitude_at(99) == 0.0  # outside the window


@pytest.mark.parametrize(
    "entries, message",
    [
        ([], "non-empty"),
        ([(0, 1.0), (0, 0.5)], "duplicate"),
        ([(0, 0.0)], "zero state"),
    ],
)
def test_make_state_rejects_bad_input(entries, message):
    with pytest.raises(ValueError, match=message):
        make_state(entries)


def test_rotor_state_validation():
    with pytest.raises(ValueError, match="empty window"):
        RotorState(3, 1, np.zeros(0, dtype=np.int64), np.zeros(0))
    with pytest.raises(ValueError, match="does not match"):
        RotorState(0, 2, np.arange(2), np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        RotorState(0, 0, np.array([0]), np.array([np.nan + 0j]))


def test_amplitudes_are_immutable():
    s = make_state([(0, 1.0)])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_from_amplitudes_window_placement():
    s = from_amplitudes(-1, np.array([1.0, 0.0, 1.0]))
    assert (s.l_min, s.l_max) == (-1, 1)
    assert s.amplitude_at(-1) == pytest.approx(1.0 / math.sqrt(2.0))
    unnorm = from_amplitudes(0, np.array([2.0]), normalize=False)
    assert not unnorm.normalized
    assert unnorm.norm() == pytest.approx(2.0)


def test_pad_state_preserves_amplitudes():
    s = make_state([(1, 1.0), (2, 1.0)])
    p = pad_state(s, 4)
    assert (p.l_min, p.l_max) == (-3, 6)
    assert p.normalized
    assert inner(p, s) == pytest.approx(1.0)
    assert p.amplitudes[0] == 0.0
    assert p.support_hull() == (1, 2)
    assert pad_state(s, 0) is s


def test_inner_uses_window_intersection():
    a = make_state([(0, 1.0), (1, 1.0)])
    b = make_state([(1, 1.0), (2, 1.0)])
    assert inner(a, b) == pytest.approx(0.5)
    c = make_state([(10, 1.0)])
    assert inner(a, c) == 0.0


def test_inner_is_conjugate_linear_in_the_left_slot():
    a = make_state([(0, 1.0j)])
    b = make_state([(0, 1.0)])
    assert inner(a, b) == pytest.approx(-1.0j)
    assert inner(b, a) == pytest.approx(1.0j)


def test_fidelity_basics():
    a = make_state([(0, 1.0), (5, 1.0)])
    b = make_state([(0, 1.0), (5, -1.0)])
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="normalized"):
        fidelity(a, from_amplitudes(0, np.array([2.0]), normalize=False))


def test_wavefunction_matches_direct_fourier_sum():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    s = from_amplitudes(-4, amps)
    thetas = rng.uniform(-math.pi, math.pi, size=32)
    direct = np.array(
        [sum(s.amplitude_at(l) * np.exp(1j * l * t) for l in range(-4, 5)) for t in thetas]
    )
    np.testing.assert_allclose(theta_wavefunction(s, thetas), direct, atol=1e-12)


def test_wavefunction_scalar_and_shape():
    s = make_state([(0, 1.0), (1, 1.0)])
    val = theta_wavefunction(s, 0.3)
    assert isinstance(val, complex)
    arr = theta_wavefunction(s, np.zeros((2, 3)))
    assert arr.shape == (2, 3)


def test_wavefunction_periodicity():
    rng = np.random.default_rng(5)
    s = from_amplitudes(-6, rng.normal(size=13) + 1j * rng.normal(size=13))
    # exactly representable shifts reduce to bit-identical values
    assert theta_wavefunction(s, 0.0) == theta_wavefunction(s, 2.0 * math.pi)
    for t in rng.uniform(-math.pi, math.pi, size=16):
        a = theta_wavefunction(s, float(t))
        b = theta_wavefunction(s, float(t) + 2.0 * math.pi)
        assert abs(a - b) < 1e-12


def test_angle_distribution_total_mass_is_one():
    rng = np.random.default_rng(3)
    s = from_amplitudes(-8, rng.normal(size=17) + 1j * rng.normal(size=17))
    grid = angle_distribution(s, resolution=4096)
    assert isinstance(grid, AngleGrid)
    assert grid.points[0] == pytest.approx(-math.pi)
    assert grid.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_total_mass_needs_no_numpy_2(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.trapezoid
    monkeypatch.delattr(np, "trapezoid", raising=False)
    s = make_state([(-3, 1.0), (0, 0.5j), (4, -0.25)])
    assert angle_distribution(s, resolution=256).total_mass() == pytest.approx(1.0, abs=1e-12)


def test_angle_distribution_momentum_eigenstate_is_flat():
    s = make_state([(7, 1.0)])
    grid = angle_distribution(s)
    np.testing.assert_allclose(grid.densities, 1.0, atol=1e-12)


def test_angle_distribution_validation():
    with pytest.raises(ValueError, match="normalized"):
        angle_distribution(from_amplitudes(0, np.array([2.0]), normalize=False))
    with pytest.raises(ValueError, match="resolution"):
        angle_distribution(make_state([(0, 1.0)]), resolution=4)


def test_sample_momentum_matches_born_weights():
    s = make_state([(0, 1.0), (3, 2.0)])  # weights 1/5, 4/5
    rng = np.random.default_rng(42)
    draws = np.array([sample_momentum(s, rng) for _ in range(4000)])
    assert set(np.unique(draws)) <= {0, 3}
    assert np.mean(draws == 3) == pytest.approx(0.8, abs=0.03)


def test_sample_angle_concentrates_where_density_does():
    # two-tooth comb: |psi|^2 ~ cos^2, peaked at theta = 0 mod pi
    s = make_state([(0, 1.0), (2, 1.0)])
    rng = np.random.default_rng(9)
    draws = np.array([sample_angle(s, rng) for _ in range(800)])
    assert np.all((draws >= -math.pi) & (draws <= math.pi))
    folded = np.abs(np.remainder(draws + math.pi / 2.0, math.pi) - math.pi / 2.0)
    assert np.mean(folded < math.pi / 4.0) > 0.7


def test_support_hull_cutoff():
    s = make_state([(-1, 1e-8), (0, 1.0), (4, 1e-8)], normalize=False)
    assert s.support_hull() == (-1, 4)
    assert s.support_hull(cutoff=1e-6) == (0, 0)
    with pytest.raises(ValueError, match="no support"):
        s.support_hull(cutoff=2.0)


def test_kernel_fallback_agrees_with_dispatcher():
    rng = np.random.default_rng(17)
    amps = rng.normal(size=257) + 1j * rng.normal(size=257)
    s = from_amplitudes(-128, amps)
    thetas = rng.uniform(-math.pi, math.pi, size=64)
    via_state = theta_wavefunction(s, thetas)
    reference = evaluate_psi(s.values, s.support, thetas)
    np.testing.assert_allclose(via_state, reference, atol=5e-12)


def test_scattered_psi_stays_accurate_far_from_zero_momentum():
    # a direct e^{i l theta} sum loses ~|l| eps; at l_min = 1e6 that was
    # 2.2e-10 of the peak against the integer-folded FFT grid
    rng = np.random.default_rng(5)
    amps = rng.normal(size=400) + 1j * rng.normal(size=400)
    M = 4096
    thetas = -math.pi + 2.0 * math.pi * np.arange(M) / M
    ls = 10**6 + np.arange(400)
    scattered = np.abs(evaluate_psi(amps, ls, thetas)) ** 2
    grid = np.abs(psi_on_grid(amps, ls, M)) ** 2
    assert np.max(np.abs(scattered - grid)) <= 1e-13 * np.max(grid)


def _psi_exact_phases(s, M, js):
    # e^{i l theta_j} at theta_j = -pi + 2 pi j / M equals e^{2 pi i k / M} with
    # k = l (j - M/2) mod M, reduced in integers so no phase loses accuracy
    k = np.outer(np.asarray(js) - M // 2, s.ls) % M
    return np.exp(2j * math.pi * k / M) @ s.amplitudes


def _grid_density_exact_phases(s, resolution):
    return np.abs(_psi_exact_phases(s, resolution, np.arange(resolution))) ** 2


@pytest.mark.parametrize(
    "l_min, width, resolution",
    [(-1500, 3001, 1024), (100_003, 400, 4096), (-7, 15, 16)],
    ids=["window-wider-than-grid", "far-from-zero", "small"],
)
def test_fft_grid_density_equals_direct_sum(l_min, width, resolution):
    rng = np.random.default_rng(l_min % 97)
    amps = rng.normal(size=width) + 1j * rng.normal(size=width)
    s = from_amplitudes(l_min, amps)
    grid = angle_distribution(s, resolution)
    reference = _grid_density_exact_phases(s, resolution)
    assert np.max(np.abs(grid.densities - reference)) <= 1e-12 * np.max(reference)
    np.testing.assert_array_equal(
        grid.points, -math.pi + 2.0 * math.pi * np.arange(resolution) / resolution
    )


@st.composite
def patterned_states(draw):
    """Unnormalized states whose amplitudes vanish on a random pattern of momenta.

    |l| <= 100 keeps l times the rounding of a float grid angle under 1e-13.
    """
    width = draw(st.integers(1, 60))
    l_min = draw(st.integers(-100, 100 - width + 1))
    values = draw(st.lists(
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0)),
        min_size=width,
        max_size=width,
    ))
    return from_amplitudes(l_min, np.array(values, dtype=np.complex128), normalize=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    s=patterned_states(),
    M=st.sampled_from([16, 64, 1024, 4096]),
    js=st.lists(st.integers(0, 4095), min_size=1, max_size=32),
)
@example(s=from_amplitudes(-3, [0, 0, 0, 0.6 + 0.8j, 0, 0, 0], normalize=False), M=16,
         js=[0, 5, 8, 15])  # one nonzero momentum
@example(s=from_amplitudes(7, [0, 0.5, 0, 0, -0.5j, 0], normalize=False), M=64,
         js=[0, 1, 31, 32, 63])  # zeros at both edges
@example(s=from_amplitudes(-2, np.zeros(5), normalize=False), M=16,
         js=[0, 3, 8])  # all zero
def test_scattered_psi_over_the_nonzero_momenta_matches_exact_phases(s, M, js):
    js = np.asarray(js) % M
    psi = evaluate_psi(s.values, s.support, -math.pi + 2.0 * math.pi * js / M)
    # the bound is 0 for the zero vector: psi must vanish exactly there
    bound = 1e-13 * np.sum(np.abs(s.amplitudes))
    assert np.max(np.abs(psi - _psi_exact_phases(s, M, js))) <= bound


def test_scattered_psi_of_a_wide_comb_touches_only_its_teeth():
    # N = 14 trunc-gauss xi = m: a window of 688,129 momenta holds 14 teeth; a
    # sum over the whole window built a 72 MB phase matrix for 64 angles
    params = CodeParams(2, 14, 1)
    s = logical_encode(params, 5, Approximant("truncated_gaussian", float(params.m)))
    assert (s.amplitudes.shape[0], np.count_nonzero(s.amplitudes)) == (688_129, 14)
    M = 4096
    grid = angle_distribution(s, M)
    rng = np.random.default_rng(14)
    idx = rng.choice(M, size=64, replace=False)
    thetas = grid.points[idx] + 2.0 * math.pi * rng.integers(-3, 4, size=64)
    tracemalloc.start()
    try:
        psi = theta_wavefunction(s, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    peak_density = np.max(grid.densities)
    assert np.max(np.abs(np.abs(psi) ** 2 - grid.densities[idx])) <= 1e-12 * peak_density


def test_angle_reduction_is_ieee_remainder():
    rng = np.random.default_rng(23)
    two_pi = 2.0 * math.pi
    thetas = np.concatenate([
        rng.uniform(-40.0, 40.0, size=500),
        rng.uniform(-1e6, 1e6, size=100),
        [0.0, -0.0, math.pi, -math.pi, two_pi, -two_pi, 3.0 * math.pi,
         -3.0 * math.pi, 5.0 * math.pi, math.nextafter(math.pi, 4.0), 1e-300],
    ])
    got = _reduce_angles(thetas)
    want = np.array([math.remainder(float(t), two_pi) for t in thetas])
    np.testing.assert_array_equal(got, want)
    assert np.all(np.abs(got) <= math.pi)
    with pytest.raises(ValueError, match="finite"):
        theta_wavefunction(make_state([(0, 1.0)]), [0.0, math.inf])


@pytest.mark.parametrize("theta", [math.nan, [0.0, math.nan]])
def test_theta_wavefunction_refuses_a_nan_angle(theta):
    # a NaN angle used to slip past the infinity check and return nan+nanj
    with pytest.raises(ValueError, match="theta must be finite"):
        theta_wavefunction(make_state([(0, 1.0), (2, 1.0)]), theta)


def test_sample_angle_stays_in_range_when_density_peaks_at_pi():
    # psi = 1 - e^{i theta}: |psi|^2 = 2 - 2 cos(theta), largest at +-pi
    s = make_state([(0, 1.0), (1, -1.0)])
    rng = np.random.default_rng(41)
    draws = np.array([sample_angle(s, rng, resolution=16) for _ in range(2000)])
    assert np.all((draws >= -math.pi) & (draws <= math.pi))
    assert np.mean(np.abs(draws) > math.pi / 2.0) > 0.75


def _exact_angle_cdf(s, thetas):
    """P(theta' <= theta) under |psi|^2 dtheta/2pi on [-pi, pi), in closed form:
    (theta + pi)/2pi + sum_{j != k} a_j conj(a_k) (e^{i D theta} - (-1)^D) / (2 pi i D),
    D = l_j - l_k."""
    ls, vals = s.support, s.values
    off = ~np.eye(ls.shape[0], dtype=bool)
    d = (ls[:, None] - ls[None, :])[off]
    w = (vals[:, None] * np.conj(vals[None, :]))[off]
    th = np.atleast_1d(np.asarray(thetas, dtype=np.float64))[:, None]
    terms = w * (np.exp(1j * d * th) - np.where(d % 2 == 0, 1.0, -1.0)) / (2j * math.pi * d)
    return (th[:, 0] + math.pi) / (2.0 * math.pi) + terms.sum(axis=1).real


def _fold(draws, g):
    """g theta reduced into [-pi, pi): the place of theta within its period 2pi/g."""
    return np.remainder(g * np.asarray(draws) + math.pi, 2.0 * math.pi) - math.pi


def _folded_ks_pvalue(s, g, draws):
    """KS p-value of the folded draws against the exact law, for |psi|^2 of period 2pi/g."""
    lo = _exact_angle_cdf(s, -math.pi / g)[0]
    return stats.kstest(
        _fold(draws, g), lambda x: g * (_exact_angle_cdf(s, np.asarray(x) / g) - lo)
    ).pvalue


@pytest.mark.parametrize("N", [6, 8, 10, 12])
def test_sample_angle_is_exact_on_a_codeword_comb(N):
    # trunc-gauss xi = m, delta_L = 1: |psi|^2 has period 2pi/m and peaks at its multiples;
    # a 4096-point grid holds ~5 points per period at N = 8, ~1.3 at N = 10 and 1/3 at
    # N = 12, and its interpolated CDF put 0.67 (N = 8) and 0.22 (N = 10) of the draws near a peak
    params = CodeParams(2, N, 1)
    m = params.m
    word = logical_encode(params, 1, Approximant("truncated_gaussian", m))
    rng = np.random.default_rng(2800 + N)
    draws = np.array([sample_angle(word, rng) for _ in range(2000)])
    assert np.all((draws >= -math.pi) & (draws < math.pi))
    share = m * float(np.diff(_exact_angle_cdf(word, [-1.0 / m, 1.0 / m]))[0])
    assert share == pytest.approx(0.8426, abs=1e-4)
    near = np.mean(np.abs(_fold(draws, m)) < 1.0)
    assert abs(near - share) < 5.0 * math.sqrt(share * (1.0 - share) / draws.size)
    assert _folded_ks_pvalue(word, m, draws) > 1e-3


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    l0=st.integers(-50, 50),
    g=st.sampled_from([1, 3, 64, 1000, 3001]),
    offsets=st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True),
    mags=st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
    phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(l0=7, g=3001, offsets=[0, 1, 3], mags=[1.0, 0.5, 0.8, 1.0, 1.0],
         phases=[0.0, 1.0, 2.0, 0.0, 0.0], seed=1)
def test_sample_angle_follows_the_exact_cdf_on_sparse_states(l0, g, offsets, mags, phases, seed):
    # support l0 + g t: |psi|^2 has period 2pi/g, finer than a 4096-point grid resolves
    # once g passes ~1000
    s = make_state([(l0 + g * t, r * np.exp(1j * p)) for t, r, p in zip(offsets, mags, phases)])
    rng = np.random.default_rng(seed)
    draws = np.array([sample_angle(s, rng) for _ in range(400)])
    assert np.all((draws >= -math.pi) & (draws < math.pi))
    assert _folded_ks_pvalue(s, g, draws) > 1e-4
    assert stats.kstest(draws, lambda x: _exact_angle_cdf(s, x)).pvalue > 1e-4


@pytest.mark.parametrize(
    "approx",
    [
        Approximant("truncated_gaussian", 2.0),
        Approximant("cosine_power", 6.0),
        Approximant("gaussian_envelope", 1.0),
        Approximant("grating", 3),
    ],
    ids=lambda a: a.family,
)
def test_sample_angle_tail_matches_pe_quadrature(approx):
    # p_e is the mass of |Psi|^2 beyond |u| = pi/m: 0.14, 0.35, 0.46 and 0.17 here at m = 6
    m = 6
    rng = np.random.default_rng(2806)
    state = approx_basis_state(approx)
    draws = np.array([sample_angle(state, rng) for _ in range(4000)])
    pe = pe_quadrature(approx, m).value
    tail = np.mean(np.abs(draws) > math.pi / m)
    assert abs(tail - pe) < 5.0 * math.sqrt(pe * (1.0 - pe) / draws.size)


def test_sample_angle_refuses_an_unnormalized_state():
    unnormalized = from_amplitudes(0, np.array([2.0]), normalize=False)
    with pytest.raises(ValueError, match="sample_angle requires a normalized state"):
        sample_angle(unnormalized, np.random.default_rng(0))


# The support layout against dense references: each reference is the
# dense-window computation the support replaced.
SUPPORT_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
ALL_ZERO = from_amplitudes(-2, np.zeros(5), normalize=False)
EDGE_ZEROS = from_amplitudes(7, [0, 0.5, 0, 0, -0.5j, 0], normalize=False)
SYNDROME_PARAMS = st.sampled_from([
    CodeParams(2, 1, 0), CodeParams(2, 1, 1), CodeParams(3, 1, 1), CodeParams(2, 1, 2),
    CodeParams(2, 2, 2),
])  # m = 2, 6, 9, 10, 20


def _scale(*states):
    """(sum |a|)^2 over the states: the size of a rounding-level difference."""
    return sum(float(np.sum(np.abs(s.amplitudes))) for s in states) ** 2


def _inner_dense(a, b):
    lo, hi = max(a.l_min, b.l_min), min(a.l_max, b.l_max)
    if lo > hi:
        return 0j
    sa = a.amplitudes[lo - a.l_min : hi - a.l_min + 1]
    sb = b.amplitudes[lo - b.l_min : hi - b.l_min + 1]
    return complex(np.vdot(sa, sb))


def _aligned_difference_dense(x, y):
    lo, hi = min(x.l_min, y.l_min), max(x.l_max, y.l_max)
    buf = np.zeros(hi - lo + 1, dtype=np.complex128)
    buf[x.l_min - lo : x.l_max - lo + 1] += x.amplitudes
    buf[y.l_min - lo : y.l_max - lo + 1] -= y.amplitudes
    return float(np.linalg.norm(buf))


def _vm_expectation_dense(s, m):
    amps = s.amplitudes
    return complex(np.vdot(amps[m:], amps[:-m]))


def _momentum_expectation_dense(s, r):
    weights = np.abs(s.amplitudes) ** 2
    return complex(np.sum(weights * np.exp(2j * math.pi * (s.ls % r) / r)))


def _collapse_dense(s, r, rng):
    """Born draw over the whole window, then the projection onto its residue mod r."""
    probs = np.abs(s.amplitudes) ** 2
    idx = int(rng.choice(probs.shape[0], p=probs / probs.sum()))
    residue = (s.l_min + idx) % r
    mask = (s.ls % r) == residue
    mass = float(np.sum(np.abs(s.amplitudes[mask]) ** 2))
    return residue, mass, np.where(mask, s.amplitudes, 0.0) / math.sqrt(mass)


def _sector_distance(a, b, m):
    return abs(centered_angle(a - b, 2.0 * math.pi / m)[0])


@SUPPORT_PROPERTY
@given(
    l_min=st.integers(-100, 100),
    values=st.lists(
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0)), min_size=1, max_size=60
    ),
)
@example(l_min=-2, values=[0j] * 5)  # all zero
@example(l_min=7, values=[0, 0.5, 0, 0, -0.5j, 0])  # zeros at both edges
def test_from_amplitudes_keeps_exactly_the_nonzero_momenta(l_min, values):
    a = np.array(values, dtype=np.complex128)
    s = from_amplitudes(l_min, a, normalize=False)
    assert (s.l_min, s.l_max) == (l_min, l_min + a.shape[0] - 1)
    np.testing.assert_array_equal(s.amplitudes, a)
    np.testing.assert_array_equal(s.support, l_min + np.flatnonzero(a))
    np.testing.assert_array_equal(s.values, a[a != 0])


@SUPPORT_PROPERTY
@given(a=patterned_states(), b=patterned_states())
@example(a=ALL_ZERO, b=EDGE_ZEROS)
@example(a=EDGE_ZEROS, b=EDGE_ZEROS)
def test_inner_and_aligned_difference_match_the_dense_window(a, b):
    bound = 1e-15 * _scale(a, b)
    assert abs(inner(a, b) - _inner_dense(a, b)) <= bound
    assert abs(_aligned_difference(a, b) - _aligned_difference_dense(a, b)) <= bound


@SUPPORT_PROPERTY
@given(s=patterned_states(), params=SYNDROME_PARAMS)
@example(s=ALL_ZERO, params=CodeParams(2, 1, 0))
@example(s=EDGE_ZEROS, params=CodeParams(2, 1, 0))
def test_expected_syndrome_matches_the_dense_window(s, params):
    m, r = params.m, params.r
    if s.l_max - s.l_min + 1 <= m:
        with pytest.raises(ValueError, match="fewer than m"):
            measure_syndrome_expected(s, params)
        return
    bound = 1e-15 * _scale(s)
    ev_theta = _vm_expectation_dense(s, m)
    assert abs(_vm_expectation(s, m) - ev_theta) <= bound
    ev_l = _momentum_expectation_dense(s, r)
    if abs(ev_theta) < EXPECTATION_TOL or (r > 1 and abs(ev_l) < EXPECTATION_TOL):
        with pytest.raises(NumericalError, match="numerically zero"):
            measure_syndrome_expected(s, params)
        return
    syndrome = measure_syndrome_expected(s, params)
    q = centered_residue(round(r * float(np.angle(ev_l)) / (2.0 * math.pi)), r) if r > 1 else 0
    assert syndrome.q == q
    theta = -float(np.angle(ev_theta)) / m
    # |d arg ev| <= |d ev| / |ev|
    assert _sector_distance(syndrome.theta_residue, theta, m) <= bound / (m * abs(ev_theta)) + 1e-15


@SUPPORT_PROPERTY
@given(s=patterned_states(), params=SYNDROME_PARAMS, seed=st.integers(0, 2**32 - 1))
@example(s=EDGE_ZEROS, params=CodeParams(2, 1, 0), seed=0)
def test_sampled_syndrome_draws_and_collapses_like_the_dense_window(s, params, seed):
    if s.norm() == 0.0:
        return  # a zero state cannot be normalized, so it has no Born draw
    s = from_amplitudes(s.l_min, s.amplitudes)
    m, r = params.m, params.r
    residue, mass, collapsed = _collapse_dense(s, r, np.random.default_rng(seed))
    narrow = s.l_max - s.l_min + 1 <= m
    if narrow or mass < RESIDUE_MASS_TOL:
        with pytest.raises((ValueError, NumericalError)):
            measure_syndrome_sampled(s, params, np.random.default_rng(seed))
        return
    ev_theta = complex(np.vdot(collapsed[m:], collapsed[:-m]))
    if abs(ev_theta) < EXPECTATION_TOL:
        with pytest.raises(NumericalError, match="numerically zero"):
            measure_syndrome_sampled(s, params, np.random.default_rng(seed))
        return
    syndrome, post = measure_syndrome_sampled(s, params, np.random.default_rng(seed))
    assert syndrome.q == centered_residue(residue, r)
    assert (post.l_min, post.l_max) == (s.l_min, s.l_max)
    assert np.max(np.abs(post.amplitudes - collapsed)) <= 1e-15 * _scale(s)


@SUPPORT_PROPERTY
@given(ls=st.lists(st.integers(-50, 50), min_size=2, max_size=12, unique=True),
       pad=st.integers(0, 5))
def test_constructor_rejects_a_malformed_support(ls, pad):
    ls = sorted(ls)
    lo, hi = ls[0] - pad, ls[-1] + pad
    vals = np.ones(len(ls), dtype=np.complex128)
    assert RotorState(lo, hi, ls, vals).support.tolist() == ls
    bad = "sorted, distinct and inside the window"
    with pytest.raises(ValueError, match=bad):  # unsorted
        RotorState(lo, hi, [ls[1], ls[0], *ls[2:]], vals)
    with pytest.raises(ValueError, match=bad):  # a duplicate momentum
        RotorState(lo, hi, [ls[0], *ls[:-1]], vals)
    with pytest.raises(ValueError, match=bad):  # the lowest momentum below the window
        RotorState(ls[0] + 1, hi, ls, vals)
    with pytest.raises(ValueError, match=bad):  # the highest momentum above it
        RotorState(lo, ls[-1] - 1, ls, vals)
    with pytest.raises(ValueError, match="does not match"):
        RotorState(lo, hi, ls, vals[:-1])


def test_a_norm_just_past_the_tolerance_is_unnormalized_not_an_error():
    # |a| = 1 + 0.8e-12 is within 1e-12 of 1, but |a|^2 = 1 + 1.6e-12 is past NORM_TOL
    f = 1 + 0.8e-12
    states = [
        make_state([(0, f)], normalize=False),
        from_amplitudes(0, np.array([f]), normalize=False),
        apply(scaled(identity(), f), make_state([(0, 1.0)])),
    ]
    for s in states:
        assert not s.normalized
        assert s.values.tolist() == [f]


def _norm_within_tolerance(s):
    return abs(np.vdot(s.values, s.values).real - 1.0) <= NORM_TOL


@SUPPORT_PROPERTY
@given(
    s=patterned_states(),
    factor=st.sampled_from([1.0, 1 + 0.4e-12, 1 - 0.4e-12, 1 + 0.8e-12, 1 - 0.8e-12, 0.5, 3.0]),
    normalize=st.booleans(),
    shift=st.integers(-7, 7),
    period=st.integers(1, 9),
    residue=st.integers(-20, 20),
    family=st.sampled_from([("truncated_gaussian", 3.0), ("cosine_power", 9.0),
                            ("gaussian_envelope", 2.0), ("grating", 4.0)]),
    kick=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalized_is_read_from_the_values(
    s, factor, normalize, shift, period, residue, family, kick, seed
):
    if s.norm() == 0.0:
        return  # the zero state cannot be normalized
    unit = from_amplitudes(s.l_min, s.amplitudes)
    entries = [(int(l), a * factor) for l, a in zip(unit.support, unit.values)]
    params = CodeParams(2, 1, 1)  # m = 6, r = 3
    word = approx_codeword(params, 1, Approximant(*family))
    # word plus a kicked copy: two residue classes mod r, one kept by the collapse
    mixed = apply(ShiftDiagonalOperator(identity().terms + scaled(momentum_shift(1), kick).terms),
                  word)
    mixed = from_amplitudes(mixed.l_min, mixed.amplitudes)
    _, collapsed = measure_syndrome_sampled(mixed, params, np.random.default_rng(seed))
    built = [
        make_state(entries, normalize=normalize),
        from_amplitudes(unit.l_min, unit.amplitudes * factor, normalize=normalize),
        apply(scaled(momentum_shift(shift), factor), unit),
        apply(scaled(identity(), factor), s),
        ideal_comb(residue, period, 30),
        word,
        collapsed,
    ]
    for state in built:
        assert state.normalized == _norm_within_tolerance(state)
    if normalize:
        assert built[0].normalized and built[1].normalized
    assert all(state.normalized for state in built[4:])

"""Momentum-window states: construction, overlaps, angle densities, sampling."""

import math

import numpy as np
import pytest

from rotorcode import (
    AngleGrid,
    RotorState,
    angle_distribution,
    fidelity,
    from_amplitudes,
    inner,
    make_state,
    pad_state,
    sample_angle,
    sample_momentum,
    theta_wavefunction,
)
from rotorcode._kernels import evaluate_psi
from rotorcode.rotor_state import _reduce_angles


def test_make_state_tight_hull_and_normalization():
    s = make_state([(-2, 1.0), (3, 1.0j)])
    assert (s.l_min, s.l_max) == (-2, 3)
    assert s.normalized
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert s.amplitude_at(-2) == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.amplitude_at(3) == pytest.approx(1.0j / math.sqrt(2.0))
    assert s.amplitude_at(0) == 0.0
    assert s.amplitude_at(99) == 0.0  # outside the window


def test_make_state_pad_widens_with_zeros():
    s = make_state([(0, 1.0)], pad=3)
    assert (s.l_min, s.l_max) == (-3, 3)
    assert s.amplitudes[0] == 0.0
    assert s.amplitude_at(0) == 1.0
    assert s.support_hull() == (0, 0)


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


def test_make_state_negative_pad_rejected():
    with pytest.raises(ValueError, match="pad"):
        make_state([(0, 1.0)], pad=-1)


def test_rotor_state_validation():
    with pytest.raises(ValueError, match="empty window"):
        RotorState(3, 1, np.zeros(0), normalized=False)
    with pytest.raises(ValueError, match="does not match"):
        RotorState(0, 2, np.zeros(2), normalized=False)
    with pytest.raises(ValueError, match="non-finite"):
        RotorState(0, 0, np.array([np.nan + 0j]), normalized=False)
    with pytest.raises(ValueError, match="normalized flag"):
        RotorState(0, 1, np.array([1.0, 1.0], dtype=complex), normalized=True)


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
    reference = evaluate_psi(s.amplitudes, s.l_min, thetas)
    np.testing.assert_allclose(via_state, reference, atol=5e-12)


def _grid_density_exact_phases(s, resolution):
    # e^{i l theta_j} at theta_j = -pi + 2 pi j / M equals e^{2 pi i k / M} with
    # k = l (j - M/2) mod M, reduced in integers so no phase loses accuracy
    M = resolution
    js = np.arange(M) - M // 2
    k = np.outer(js, s.ls) % M
    psi = np.exp(2j * math.pi * k / M) @ s.amplitudes
    return np.abs(psi) ** 2


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


def test_sample_angle_stays_in_range_when_density_peaks_at_pi():
    # psi = 1 - e^{i theta}: |psi|^2 = 2 - 2 cos(theta), largest at +-pi
    s = make_state([(0, 1.0), (1, -1.0)])
    rng = np.random.default_rng(41)
    draws = np.array([sample_angle(s, rng, resolution=16) for _ in range(2000)])
    assert np.all((draws >= -math.pi) & (draws <= math.pi))
    assert np.mean(np.abs(draws) > math.pi / 2.0) > 0.75

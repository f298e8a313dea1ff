"""Code parameters, label algebra, table cells, ideal and approximate codewords."""

import math

import numpy as np
import pytest

from rotorcode import (
    Approximant,
    CodeParams,
    NumericalError,
    approx_basis_state,
    approx_codeword,
    binary_labels,
    binary_table,
    default_window_half,
    digits_to_k,
    encoding_table,
    envelope_coefficients,
    fidelity,
    ideal_codeword,
    ideal_comb,
    inner,
    k_to_digits,
    logical_encode,
    logical_labels,
    reconstruct_momentum,
    theta_wavefunction,
)

# Frozen independent values (closed forms evaluated outside this package).
# c_0 = erf(pi xi / sqrt(2)) / sqrt(xi sqrt(pi) erf(pi xi)) at xi = 4
C0_TRUNC_GAUSS_XI4 = 0.37556277223247125
ENVELOPE_NORM_SIGMA3 = 5.317361552716548  # sum_l exp(-l^2/9) = 3 sqrt(pi)


def test_code_params_derived_quantities():
    p = CodeParams(d=2, N=2, delta_L=1)
    assert (p.r, p.n, p.m) == (3, 4, 12)
    q = CodeParams(d=3, N=2, delta_L=2)
    assert (q.r, q.n, q.m) == (5, 9, 45)
    assert CodeParams().m == 2  # one qubit, no momentum protection


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(d=1), "d must be >= 2"),
        (dict(N=0), "N must be >= 1"),
        (dict(delta_L=-1), "delta_L"),
    ],
)
def test_code_params_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CodeParams(**kwargs)


def test_approximant_validation():
    with pytest.raises(ValueError, match="unknown family"):
        Approximant("boxcar", 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        Approximant("truncated_gaussian", 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        Approximant("cosine_power", math.inf)
    with pytest.raises(ValueError, match="integer >= 1"):
        Approximant("grating", 2.5)
    assert Approximant("grating", 3.0).parameter == 3.0


@pytest.mark.parametrize(
    "params",
    [
        CodeParams(d=2, N=1, delta_L=0),
        CodeParams(d=2, N=2, delta_L=1),
        CodeParams(d=3, N=3, delta_L=2),
    ],
)
def test_label_split_is_a_bijection(params):
    for l in range(-3 * params.m - 5, 3 * params.m + 6):
        lab = logical_labels(l, params)
        assert 0 <= lab.q < params.r
        assert all(0 <= p < params.d for p in lab.digits)
        assert reconstruct_momentum(lab, params) == l


def test_label_example_with_negative_momentum():
    lab = logical_labels(-13, CodeParams(d=2, N=2, delta_L=1))
    assert (lab.q, lab.digits, lab.rotor_index) == (2, (1, 1), -2)


def test_digit_index_round_trip():
    params = CodeParams(d=3, N=3, delta_L=0)
    for k in range(params.n):
        digits = k_to_digits(k, params)
        assert digits_to_k(digits, params.d) == k
    with pytest.raises(ValueError, match="outside"):
        k_to_digits(params.n, params)


# --- frozen table cells -----------------------------------------------------

def test_single_qubit_parity_table_cells():
    rows = encoding_table(CodeParams(d=2, N=1, delta_L=0), -4, 4)
    assert [r["digits"][0] for r in rows] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert [r["rotor_index"] for r in rows] == [-2, -2, -1, -1, 0, 0, 1, 1, 2]


def test_three_qubit_table_cells():
    rows = encoding_table(CodeParams(d=2, N=3, delta_L=0), -4, 4)
    assert [r["digits"][0] for r in rows] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert [r["digits"][1] for r in rows] == [0, 0, 1, 1, 0, 0, 1, 1, 0]
    assert [r["digits"][2] for r in rows] == [1, 1, 1, 1, 0, 0, 0, 0, 1]
    assert [r["rotor_index"] for r in rows] == [-1, -1, -1, -1, 0, 0, 0, 0, 0]
    # the digit pattern repeats every 2^3 momenta
    again = encoding_table(CodeParams(d=2, N=3, delta_L=0), -4 + 8, 4 + 8)
    assert [r["digits"] for r in again] == [r["digits"] for r in rows]


def test_sign_magnitude_binary_table_cells():
    rows = binary_table(-4, 4, 3)
    assert [r["bits"][0] for r in rows] == [1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert [r["bits"][1] for r in rows] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert [r["bits"][2] for r in rows] == [0, 1, 1, 0, 0, 0, 1, 1, 0]


def test_two_qubit_protected_table_cells():
    rows = encoding_table(CodeParams(d=2, N=2, delta_L=1), 0, 12)
    assert [r["q"] for r in rows] == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert [r["digits"][0] for r in rows] == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0]
    assert [r["digits"][1] for r in rows] == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0]
    assert [r["rotor_index"] for r in rows] == [0] * 12 + [1]
    assert [r["k"] for r in rows] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0]


def test_binary_labels_validation():
    with pytest.raises(ValueError, match="bits"):
        binary_labels(3, 0)


# --- ideal codewords ---------------------------------------------------------

def test_ideal_comb_teeth_and_normalization():
    s = ideal_comb(1, 4, -8, 8)
    teeth = [l for l in range(-8, 9) if (l - 1) % 4 == 0]
    assert s.norm() == pytest.approx(1.0)
    for l in teeth:
        assert s.amplitude_at(l) == pytest.approx(1.0 / math.sqrt(len(teeth)))
    assert s.amplitude_at(0) == 0.0
    with pytest.raises(ValueError, match="no l"):
        ideal_comb(1, 4, 2, 4)
    with pytest.raises(ValueError, match="period"):
        ideal_comb(0, 0, -4, 4)


def test_ideal_codeword_residues_and_orthogonality():
    params = CodeParams(d=2, N=2, delta_L=1)  # m=12
    words = [ideal_codeword(params, k, -24, 24) for k in range(4)]
    for k, w in enumerate(words):
        nonzero = [int(l) for l in w.ls if abs(w.amplitude_at(int(l))) > 0]
        assert all(l % 12 == (3 * k) % 12 for l in nonzero)
    for a in range(4):
        for b in range(a + 1, 4):
            assert abs(inner(words[a], words[b])) == 0.0


def test_ideal_codeword_default_window_and_guards():
    params = CodeParams(d=2, N=1, delta_L=1)  # m=6
    w = ideal_codeword(params, 1)
    assert w.l_min % params.m == 0 and w.l_min == -w.l_max
    with pytest.raises(ValueError, match="outside"):
        ideal_codeword(params, 2)
    with pytest.raises(ValueError, match="fewer than two comb teeth"):
        ideal_codeword(params, 0, -2, 2)


# --- envelopes ----------------------------------------------------------------

def test_trunc_gauss_center_coefficient_matches_closed_form():
    ls = np.arange(-50, 51)
    cs = envelope_coefficients(Approximant("truncated_gaussian", 4.0), ls)
    assert cs[50] == pytest.approx(C0_TRUNC_GAUSS_XI4, abs=1e-12)
    assert float(np.sum(cs**2)) == pytest.approx(1.0, abs=1e-12)
    # even envelope: symmetric coefficients
    np.testing.assert_allclose(cs, cs[::-1], atol=1e-14)


def test_cosine_power_even_exponent_is_bandlimited():
    ls = np.arange(-10, 11)
    cs = envelope_coefficients(Approximant("cosine_power", 6.0), ls)
    inside = np.abs(ls) <= 3
    assert np.all(np.abs(cs[~inside]) < 1e-13)
    assert float(np.sum(cs**2)) == pytest.approx(1.0, abs=1e-12)
    # gamma = 2: psi ~ (1 + cos u)/2, so c_{+-1}/c_0 = 1/2 exactly
    cs2 = envelope_coefficients(Approximant("cosine_power", 2.0), ls)
    assert cs2[11] / cs2[10] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("gamma", [6.0, 7.5, 96.0, 4608.3, 9216.0])
def test_cosine_power_coefficients_match_gamma_ratio(gamma):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = mp.mpf(gamma)
    # c_l = a Gamma(g+1) / (2^g Gamma(g/2+l+1) Gamma(g/2-l+1)),
    # a^2 = sqrt(pi) Gamma(g+1) / Gamma(g+1/2)
    a = mp.sqrt(mp.sqrt(mp.pi) * mp.gamma(g + 1) / mp.gamma(g + mp.mpf(1) / 2))
    scale = a * mp.gamma(g + 1) / mp.power(2, g)
    reach = int(gamma / 2) + 40
    ls = np.unique(np.linspace(-reach, reach, 161).astype(np.int64))
    cs = envelope_coefficients(Approximant("cosine_power", gamma), ls)
    ref = [float(scale * mp.rgamma(g / 2 + l + 1) * mp.rgamma(g / 2 - l + 1))
           for l in ls.tolist()]
    np.testing.assert_allclose(cs, ref, rtol=0, atol=1e-13)
    if gamma % 2 == 0:
        # bandlimited exactly, not to roundoff
        assert np.all(cs[np.abs(ls) > gamma / 2] == 0.0)


@pytest.mark.parametrize("N", [8, 9, 10])
def test_trunc_gauss_codeword_at_xi_equal_m_keeps_envelope_mass(N):
    params = CodeParams(2, N, 1)
    approx = Approximant("truncated_gaussian", params.m)
    word = logical_encode(params, 5, approx)
    cs = envelope_coefficients(approx, word.ls)
    assert float(np.sum(cs**2)) >= 1.0 - 1e-12


def test_trunc_gauss_codeword_that_lost_mass_to_quadrature():
    params = CodeParams(2, 6, 0)  # m = 64
    approx = Approximant("truncated_gaussian", 26.29509364)
    word = logical_encode(params, 17, approx)
    assert float(np.sum(envelope_coefficients(approx, word.ls) ** 2)) >= 1.0 - 1e-12


def test_tiny_cosine_power_exponent_fails_before_allocating():
    approx = Approximant("cosine_power", 0.001)
    with pytest.raises(ValueError, match="more than the cap"):
        default_window_half(CodeParams(), approx)
    with pytest.raises(ValueError, match="more than the cap"):
        approx_codeword(CodeParams(), 0, Approximant("cosine_power", 6.0), -2**40, 2**40)


def test_gaussian_envelope_coefficients():
    ls = np.arange(-40, 41)
    cs = envelope_coefficients(Approximant("gaussian_envelope", 3.0), ls)
    assert cs[40] == pytest.approx(1.0 / math.sqrt(ENVELOPE_NORM_SIGMA3), abs=1e-12)
    assert cs[43] == pytest.approx(
        math.exp(-9.0 / 18.0) / math.sqrt(ENVELOPE_NORM_SIGMA3), abs=1e-12
    )


def test_grating_coefficients_are_flat():
    ls = np.arange(-6, 7)
    cs = envelope_coefficients(Approximant("grating", 4.0), ls)
    inside = np.abs(ls) <= 4
    np.testing.assert_allclose(cs[inside], 1.0 / 3.0, atol=1e-15)
    assert np.all(cs[~inside] == 0.0)


def test_tail_guard_rejects_underresolved_envelopes():
    with pytest.raises(NumericalError, match="widen the window"):
        approx_basis_state(Approximant("cosine_power", 0.5), l_lo=-8, l_hi=8)
    # a generous window passes
    approx_basis_state(Approximant("truncated_gaussian", 4.0), l_lo=-60, l_hi=60)


# --- approximate codewords -----------------------------------------------------

def test_approx_basis_state_centering_phases():
    theta0 = 0.9
    s = approx_basis_state(
        Approximant("truncated_gaussian", 3.0), theta0, l_lo=-40, l_hi=40
    )
    assert s.norm() == pytest.approx(1.0)
    peak = abs(theta_wavefunction(s, theta0))
    away = abs(theta_wavefunction(s, theta0 + 2.0))
    assert peak > 10 * away


def test_approx_codeword_comb_structure():
    params = CodeParams(d=2, N=2, delta_L=1)  # m=12, teeth at 3k mod 12
    approx = Approximant("truncated_gaussian", 3.0)
    for k in range(4):
        w = approx_codeword(params, k, approx, -48, 48)
        assert w.norm() == pytest.approx(1.0)
        nonzero = [int(l) for l in w.ls if abs(w.amplitude_at(int(l))) > 1e-14]
        assert all(l % 12 == 3 * k % 12 for l in nonzero)
    w0 = approx_codeword(params, 0, approx, -48, 48)
    w1 = approx_codeword(params, 1, approx, -48, 48)
    assert abs(inner(w0, w1)) == 0.0


def test_approx_codeword_amplitudes_follow_the_envelope():
    params = CodeParams(d=2, N=1, delta_L=1)  # m=6
    approx = Approximant("gaussian_envelope", 3.0)
    w = approx_codeword(params, 0, approx, -30, 30)
    teeth = np.arange(-30, 31, 6)
    env = np.exp(-(teeth**2) / 18.0)
    env = env / np.linalg.norm(env)
    got = np.array([w.amplitude_at(int(l)).real for l in teeth])
    np.testing.assert_allclose(got, env, atol=1e-12)


def test_flat_grating_codeword_equals_ideal_comb():
    params = CodeParams(d=2, N=1, delta_L=1)
    w = approx_codeword(params, 1, Approximant("grating", 30.0), -30, 30)
    ideal = ideal_codeword(params, 1, -30, 30)
    assert fidelity(w, ideal) == pytest.approx(1.0, abs=1e-13)


def test_approx_codeword_guards():
    params = CodeParams(d=2, N=1, delta_L=1)
    with pytest.raises(ValueError, match="fewer than two comb teeth"):
        approx_codeword(params, 0, Approximant("grating", 2.0), -2, 2)
    with pytest.raises(ValueError, match="outside"):
        approx_codeword(params, 5, Approximant("grating", 12.0))


def test_default_window_half_covers_envelope_and_is_comb_aligned():
    params = CodeParams(d=2, N=2, delta_L=1)  # m=12
    for approx in (
        None,
        Approximant("truncated_gaussian", 8.0),
        Approximant("cosine_power", 6.0),
        Approximant("gaussian_envelope", 10.0),
        Approximant("grating", 100.0),
    ):
        w = default_window_half(params, approx)
        assert w % params.m == 0
        assert w >= 4 * params.m or approx is not None
    assert default_window_half(params, Approximant("grating", 100.0)) >= 100


def test_logical_encode_accepts_digits_or_index():
    params = CodeParams(d=2, N=2, delta_L=1)
    by_k = logical_encode(params, 3)
    by_digits = logical_encode(params, (1, 1))
    assert fidelity(by_k, by_digits) == pytest.approx(1.0)
    approx = Approximant("truncated_gaussian", 3.0)
    assert fidelity(
        logical_encode(params, 2, approx), approx_codeword(params, 2, approx)
    ) == pytest.approx(1.0)

"""Code parameters, label algebra, table cells, ideal and approximate codewords."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotorcode import (
    MAX_TABLE_CELLS,
    TAIL_TOL,
    Approximant,
    CodeParams,
    LogicalLabels,
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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    d=st.integers(2, 5),
    N=st.integers(1, 4),
    delta_L=st.integers(0, 3),
    l=st.integers(-(10**6), 10**6),
)
def test_label_split_is_a_bijection_for_any_momentum(d, N, delta_L, l):
    params = CodeParams(d=d, N=N, delta_L=delta_L)
    assert reconstruct_momentum(logical_labels(l, params), params) == l


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
    table = encoding_table(CodeParams(d=2, N=1, delta_L=0), -4, 4)
    assert list(table) == ["l", "q", "p1", "k", "rotor_index"]
    assert table["p1"].tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert table["rotor_index"].tolist() == [-2, -2, -1, -1, 0, 0, 1, 1, 2]


def test_three_qubit_table_cells():
    table = encoding_table(CodeParams(d=2, N=3, delta_L=0), -4, 4)
    assert table["p1"].tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert table["p2"].tolist() == [0, 0, 1, 1, 0, 0, 1, 1, 0]
    assert table["p3"].tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 1]
    assert table["rotor_index"].tolist() == [-1, -1, -1, -1, 0, 0, 0, 0, 0]
    # the digit pattern repeats every 2^3 momenta
    again = encoding_table(CodeParams(d=2, N=3, delta_L=0), -4 + 8, 4 + 8)
    for digit in ("p1", "p2", "p3"):
        assert again[digit].tolist() == table[digit].tolist()


def test_sign_magnitude_binary_table_cells():
    table = binary_table(-4, 4, 3)
    assert list(table) == ["l", "b1", "b2", "b3"]
    assert table["b1"].tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert table["b2"].tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert table["b3"].tolist() == [0, 1, 1, 0, 0, 0, 1, 1, 0]


def test_two_qubit_protected_table_cells():
    table = encoding_table(CodeParams(d=2, N=2, delta_L=1), 0, 12)
    assert table["q"].tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert table["p1"].tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0]
    assert table["p2"].tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0]
    assert table["rotor_index"].tolist() == [0] * 12 + [1]
    assert table["k"].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0]


def _table_rows(table):
    return [dict(zip(table, row)) for row in zip(*(col.tolist() for col in table.values()))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 1, 0), (2, 3, 1), (3, 2, 0), (3, 3, 2), (2, 2, 2), (5, 2, 1)]),
    start=st.integers(-(10**6), 10**6),
    rows=st.integers(1, 40),
)
@example(shape=(2, 70, 0), start=0, rows=6)  # m = 2^70: past int64
@example(shape=(2, 70, 0), start=-5, rows=6)
@example(shape=(3, 2, 2), start=2**63 - 10, rows=10)  # l up to 2^63 - 1
@example(shape=(2, 3, 1), start=-(2**63) - 4, rows=8)  # l down past -2^63
@example(shape=(2, 1, 0), start=2**62 - 3, rows=6)  # across the int64 switch
def test_table_rows_are_the_scalar_labels(shape, start, rows):
    params = CodeParams(*shape)
    table = encoding_table(params, start, start + rows - 1)
    assert list(table) == ["l", "q"] + [f"p{j}" for j in range(1, params.N + 1)] + ["k", "rotor_index"]
    assert table["l"].tolist() == list(range(start, start + rows))
    for row in _table_rows(table):
        lab = logical_labels(row["l"], params)
        digits = tuple(row[f"p{j}"] for j in range(1, params.N + 1))
        assert (row["q"], digits, row["rotor_index"]) == (lab.q, lab.digits, lab.rotor_index)
        assert row["k"] == digits_to_k(digits, params.d)
        assert reconstruct_momentum(LogicalLabels(row["q"], digits, row["rotor_index"]), params) == row["l"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(start=st.integers(-(10**9), 10**9), rows=st.integers(1, 40), bits=st.integers(1, 70))
@example(start=2**63 - 8, rows=8, bits=70)
@example(start=-(2**63) - 3, rows=10, bits=66)
@example(start=2**62 - 3, rows=6, bits=64)
@example(start=-3, rows=7, bits=63)
def test_binary_table_rows_are_the_scalar_labels(start, rows, bits):
    table = binary_table(start, start + rows - 1, bits)
    assert list(table) == ["l"] + [f"b{j}" for j in range(1, bits + 1)]
    for row in _table_rows(table):
        assert tuple(row[f"b{j}"] for j in range(1, bits + 1)) == binary_labels(row["l"], bits)


def test_tables_past_the_cell_cap_are_refused_before_allocating():
    # N = 20 by default spans [-m, m]: 2^21 + 1 rows of 24 columns
    params = CodeParams(d=2, N=20)
    with pytest.raises(ValueError, match="more than the cap of 33554432 cells"):
        encoding_table(params, -params.m, params.m)
    with pytest.raises(ValueError, match="more than the cap"):
        encoding_table(CodeParams(d=2, N=10_000), -1, 2**10_000)
    with pytest.raises(ValueError, match="more than the cap"):
        binary_table(-(10**8), 10**8, 3)
    with pytest.raises(ValueError, match="more than the cap"):
        binary_table(0, MAX_TABLE_CELLS // 2, 1)  # one row past the cap
    with pytest.raises(ValueError, match="need l_lo <= l_hi"):
        encoding_table(params, 1, 0)


def test_binary_labels_validation():
    with pytest.raises(ValueError, match="bits"):
        binary_labels(3, 0)


# --- ideal codewords ---------------------------------------------------------

def test_ideal_comb_teeth_and_normalization():
    s = ideal_comb(1, 4, 8)
    teeth = [l for l in range(-8, 9) if (l - 1) % 4 == 0]
    assert s.norm() == pytest.approx(1.0)
    for l in teeth:
        assert s.amplitude_at(l) == pytest.approx(1.0 / math.sqrt(len(teeth)))
    assert s.amplitude_at(0) == 0.0
    with pytest.raises(ValueError, match="no l"):
        ideal_comb(2, 4, 1)
    with pytest.raises(ValueError, match="period"):
        ideal_comb(0, 0, 4)


def test_ideal_codeword_residues_and_orthogonality():
    params = CodeParams(d=2, N=2, delta_L=1)  # m=12
    words = [ideal_codeword(params, k, 24) for k in range(4)]
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
        ideal_codeword(params, 0, 2)


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


@pytest.mark.parametrize("xi", [0.1, 1e-7, 1e-8, 1e-20, 1e-100])
def test_trunc_gauss_center_coefficient_keeps_every_bit_at_tiny_xi(xi):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    x = mp.mpf(xi)
    # c_0 = erf(y) / sqrt(xi sqrt(pi) erf(pi xi)), y = pi xi / sqrt2; the bracket
    # 1 - e^{-y^2} Re w(iy) cancelled to 1e-8 relative at xi = 1e-8 and to 0 at 1e-20
    ref = mp.erf(mp.pi * x / mp.sqrt(2)) / mp.sqrt(x * mp.sqrt(mp.pi) * mp.erf(mp.pi * x))
    c0 = envelope_coefficients(Approximant("truncated_gaussian", xi), np.array([0]))[0]
    assert c0 == pytest.approx(float(ref), rel=1e-14)


@pytest.mark.parametrize("xi", [1e-7, 1e-8, 1e-20])
@pytest.mark.parametrize("k", [0, 1])
def test_trunc_gauss_codeword_at_tiny_xi(xi, k):
    # psi is flat on [-pi, pi) to within xi: c_l for l != 0 is O(xi^2 / l^2)
    word = logical_encode(CodeParams(2, 1, 0), k, Approximant("truncated_gaussian", xi))
    assert word.normalized
    if k == 0:
        assert float(np.sum(np.abs(word.values[word.support != 0]) ** 2)) < 1e-20


@pytest.mark.parametrize("xi", [1e-150, 1e-154])
def test_trunc_gauss_codeword_whose_teeth_underflow_is_refused_without_warning(xi):
    # (l / xi)^2 overflows to inf for every l != 0; e^{-inf} = 0 is right, and quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="with weight; the envelope underflows beyond it"):
            logical_encode(CodeParams(2, 1, 0), 0, Approximant("truncated_gaussian", xi))


def test_tiny_cosine_power_exponent_fails_before_allocating():
    approx = Approximant("cosine_power", 0.001)
    with pytest.raises(ValueError, match="more than the cap"):
        default_window_half(CodeParams(), approx)
    with pytest.raises(ValueError, match="more than the cap"):
        approx_codeword(CodeParams(), 0, Approximant("cosine_power", 6.0), 2**40)


def test_gaussian_envelope_coefficients():
    ls = np.arange(-40, 41)
    cs = envelope_coefficients(Approximant("gaussian_envelope", 3.0), ls)
    assert cs[40] == pytest.approx(1.0 / math.sqrt(ENVELOPE_NORM_SIGMA3), abs=1e-12)
    assert cs[43] == pytest.approx(
        math.exp(-9.0 / 18.0) / math.sqrt(ENVELOPE_NORM_SIGMA3), abs=1e-12
    )


@pytest.mark.parametrize("sigma", [1e-9, 0.05, 0.3, 0.7, 2.0, 40.0])
def test_gaussian_envelope_coefficients_have_unit_norm(sigma):
    # the image-sum norm against the direct momentum sum, to a few ulp
    reach = int(12 * sigma) + 2
    ls = np.arange(-reach, reach + 1)
    cs = envelope_coefficients(Approximant("gaussian_envelope", sigma), ls)
    assert math.fsum(cs**2) == pytest.approx(1.0, abs=1e-15)


def test_grating_coefficients_are_flat():
    ls = np.arange(-6, 7)
    cs = envelope_coefficients(Approximant("grating", 4.0), ls)
    inside = np.abs(ls) <= 4
    np.testing.assert_allclose(cs[inside], 1.0 / 3.0, atol=1e-15)
    assert np.all(cs[~inside] == 0.0)


def test_tail_guard_rejects_underresolved_envelopes():
    with pytest.raises(NumericalError, match="widen the window"):
        approx_basis_state(Approximant("cosine_power", 0.5), window_half=8)
    # a generous window passes
    approx_basis_state(Approximant("truncated_gaussian", 4.0), window_half=60)


# --- approximate codewords -----------------------------------------------------

def test_approx_basis_state_centering_phases():
    theta0 = 0.9
    s = approx_basis_state(
        Approximant("truncated_gaussian", 3.0), theta0, window_half=40
    )
    assert s.norm() == pytest.approx(1.0)
    peak = abs(theta_wavefunction(s, theta0))
    away = abs(theta_wavefunction(s, theta0 + 2.0))
    assert peak > 10 * away


def test_approx_codeword_comb_structure():
    params = CodeParams(d=2, N=2, delta_L=1)  # m=12, teeth at 3k mod 12
    approx = Approximant("truncated_gaussian", 3.0)
    for k in range(4):
        w = approx_codeword(params, k, approx, 48)
        assert w.norm() == pytest.approx(1.0)
        nonzero = [int(l) for l in w.ls if abs(w.amplitude_at(int(l))) > 1e-14]
        assert all(l % 12 == 3 * k % 12 for l in nonzero)
    w0 = approx_codeword(params, 0, approx, 48)
    w1 = approx_codeword(params, 1, approx, 48)
    assert abs(inner(w0, w1)) == 0.0


def test_approx_codeword_amplitudes_follow_the_envelope():
    params = CodeParams(d=2, N=1, delta_L=1)  # m=6
    approx = Approximant("gaussian_envelope", 3.0)
    w = approx_codeword(params, 0, approx, 30)
    teeth = np.arange(-30, 31, 6)
    env = np.exp(-(teeth**2) / 18.0)
    env = env / np.linalg.norm(env)
    got = np.array([w.amplitude_at(int(l)).real for l in teeth])
    np.testing.assert_allclose(got, env, atol=1e-12)


def test_flat_grating_codeword_equals_ideal_comb():
    params = CodeParams(d=2, N=1, delta_L=1)
    w = approx_codeword(params, 1, Approximant("grating", 30.0), 30)
    ideal = ideal_codeword(params, 1, 30)
    assert fidelity(w, ideal) == pytest.approx(1.0, abs=1e-13)


def test_approx_codeword_guards():
    params = CodeParams(d=2, N=1, delta_L=1)
    with pytest.raises(ValueError, match="fewer than two comb teeth with weight; the envelope is 0"):
        approx_codeword(params, 0, Approximant("grating", 2.0), 2)
    # the teeth at |l| = 6, just past the window, carry c_l = 1e-8: a wider one holds them
    with pytest.raises(ValueError, match="fewer than two comb teeth with weight; widen it"):
        approx_codeword(params, 0, Approximant("gaussian_envelope", 1.0), 5)
    # c_l ~ e^{-200 l^2} is not 0 at the teeth l = +-2, it only underflows there
    with pytest.raises(ValueError, match="with weight; the envelope underflows beyond it"):
        approx_codeword(CodeParams(d=2, N=1), 0, Approximant("gaussian_envelope", 0.05))
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


@pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 1.45])
def test_trunc_gauss_tail_window_matches_the_summed_tail(xi):
    # the slope of a e^{-xi^2 u^2 / 2} jumps at u = +-pi, so c_l -> A / l^2 with
    # A = a xi^2 e^{-pi^2 xi^2 / 2}, a^2 = 2 sqrt(pi) xi / erf(pi xi) (unit norm)
    a = math.sqrt(2.0 * math.sqrt(math.pi) * xi / math.erf(math.pi * xi))
    A = a * xi * xi * math.exp(-0.5 * (math.pi * xi) ** 2)
    W = 1000
    cs = envelope_coefficients(Approximant("truncated_gaussian", xi), np.arange(W + 1, 10**6))
    summed = 2.0 * math.fsum(cs**2)  # the tail past 10^6 is ~1e-9 of it
    assert summed == pytest.approx(2.0 * A * A / (3.0 * W**3), rel=0.01)
    # the default window keeps all but TAIL_TOL, for one qubit and three
    for params in (CodeParams(), CodeParams(d=2, N=3)):
        w = default_window_half(params, Approximant("truncated_gaussian", xi))
        assert 2.0 * A * A / (3.0 * w**3) <= TAIL_TOL


def test_logical_encode_accepts_digits_or_index():
    params = CodeParams(d=2, N=2, delta_L=1)
    by_k = logical_encode(params, 3)
    by_digits = logical_encode(params, (1, 1))
    assert fidelity(by_k, by_digits) == pytest.approx(1.0)
    approx = Approximant("truncated_gaussian", 3.0)
    assert fidelity(
        logical_encode(params, 2, approx), approx_codeword(params, 2, approx)
    ) == pytest.approx(1.0)


@pytest.mark.parametrize("half", [0, -3])
def test_a_window_half_below_one_is_bad_input(half):
    # refused as bad input before any envelope-mass check can call it a numerical failure
    for approx in (None, Approximant("grating", 2.0), Approximant("truncated_gaussian", 3.0)):
        with pytest.raises(ValueError, match="window_half must be >= 1"):
            logical_encode(CodeParams(), 0, approx, half)
        if approx is not None:
            with pytest.raises(ValueError, match="window_half must be >= 1"):
                approx_codeword(CodeParams(), 0, approx, half)
            with pytest.raises(ValueError, match="window_half must be >= 1"):
                approx_basis_state(approx, 0.0, half)
    with pytest.raises(ValueError, match="window_half must be >= 1"):
        ideal_codeword(CodeParams(), 0, half)
    with pytest.raises(ValueError, match="window_half must be >= 1"):
        ideal_comb(0, 2, half)


PARAMETERS = {
    "truncated_gaussian": st.floats(0.5, 30.0),
    "cosine_power": st.floats(1.0, 40.0),
    "gaussian_envelope": st.floats(0.5, 30.0),
    "grating": st.integers(1, 40).map(float),
}
APPROXIMANTS = st.one_of(
    st.none(),
    st.sampled_from(sorted(PARAMETERS)).flatmap(
        lambda family: PARAMETERS[family].map(lambda p: Approximant(family, p))
    ),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d=st.integers(2, 3),
    N=st.integers(1, 2),
    delta_L=st.integers(0, 1),
    k=st.integers(0, 8),
    approx=APPROXIMANTS,
    theta0=st.floats(-math.pi, math.pi),
)
def test_window_half_none_is_the_default_window_half(d, N, delta_L, k, approx, theta0):
    params = CodeParams(d, N, delta_L)
    k %= params.n
    w = default_window_half(params, approx)
    pairs = [(logical_encode(params, k, approx), logical_encode(params, k, approx, w))]
    if approx is not None:
        pairs.append((approx_basis_state(approx, theta0, None, params),
                      approx_basis_state(approx, theta0, w, params)))
    for default, explicit in pairs:
        assert (default.l_min, default.l_max) == (explicit.l_min, explicit.l_max) == (-w, w)
        assert np.array_equal(default.support, explicit.support)
        assert np.array_equal(default.values, explicit.values)

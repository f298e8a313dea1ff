"""Error channel, syndrome read-off, correction, and round-trip statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotorcode import (
    Approximant,
    CodeParams,
    ErrorEvent,
    NumericalError,
    angle_distribution,
    apply,
    apply_error,
    centered_angle,
    centered_residue,
    correct,
    fidelity,
    ideal_codeword,
    ideal_comb,
    make_state,
    measure_syndrome_expected,
    measure_syndrome_sampled,
    logical_encode,
    pe_monte_carlo,
    qubit_X,
    run_round_trip,
    theta_wavefunction,
)
from rotorcode import analysis
from rotorcode.code_space import approx_codeword

PARAMS = CodeParams(d=2, N=1, delta_L=1)  # r=3, n=2, m=6
TWO_QUBIT = CodeParams(d=2, N=2, delta_L=1)  # r=3, n=4, m=12
TIE_PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)


def test_centered_angle_reduction_and_ties():
    res, wrap = centered_angle(0.3, 2.0 * math.pi)
    assert (res, wrap) == (0.3, 0)
    res, wrap = centered_angle(3.5, 2.0 * math.pi)
    assert res == pytest.approx(3.5 - 2.0 * math.pi)
    assert wrap == 1
    # boundary convention: -period/2 ties upward to +period/2
    res, wrap = centered_angle(-math.pi, 2.0 * math.pi)
    assert res == pytest.approx(math.pi)
    assert wrap == -1
    res, wrap = centered_angle(math.pi, 2.0 * math.pi)
    assert (res, wrap) == (math.pi, 0)


def test_centered_angle_keeps_one_ulp_above_the_lower_boundary():
    # ceil(x / period - 0.5) rounded x / period = -1/2 + 2^-54 to a wrap of -1
    period = 2.0 * math.pi / 6
    x = math.nextafter(-period / 2, 0.0)
    assert centered_angle(x, period) == (x, 0)
    assert centered_angle(np.array([x]), period)[1].tolist() == [0]


def test_centered_angle_refuses_what_int64_cannot_count():
    for x in (math.nan, math.inf, 1e300, np.array([0.0, 1e20])):
        with pytest.raises(ValueError, match="2\\^63 periods"):
            centered_angle(x, 2.0 * math.pi / 6)


def test_centered_angle_refuses_a_drift_the_double_cannot_reduce():
    # 1e18 is ~3e17 periods of pi: x - wrap * period kept no sub-sector bits and gave 128
    for x in (1e18, np.array([0.0, 1e18])):
        with pytest.raises(ValueError, match="cannot reduce"):
            centered_angle(x, math.pi)


def test_centered_angle_places_a_residue_rounded_onto_a_sector_edge():
    # pi / (2 pi / 3) rounds to 1.5, though pi lies past 3/2 periods: pi - period
    # overshoots +period/2 by an ulp, and one more wrap puts it just above -period/2
    period = 2.0 * math.pi / 3
    assert math.pi - period > period / 2
    assert centered_angle(math.pi, period) == (math.pi - 2.0 * period, 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(2, 10**12),
    xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10),
    ks=st.lists(st.integers(-(2**62), 2**62), max_size=10),
)
def test_every_accepted_angle_lands_in_the_sector(m, xs, ks):
    period = 2.0 * math.pi / m
    edges = [(k + 0.5) * period for k in ks]  # q rounds onto a half-integer here
    xs = [*xs, *edges, *(math.nextafter(x, sign) for x in edges for sign in (-math.inf, math.inf))]
    accepted = []
    for x in (x for x in xs if abs(x / period) < 2.0**63):
        try:
            res, wrap = centered_angle(x, period)
        except ValueError as ex:
            assert "cannot reduce" in str(ex)
            assert abs(x / period) >= 2.0**52  # where the double keeps no sub-sector bits
            continue
        assert -period / 2 < res <= period / 2
        accepted.append((x, res, wrap))
    if accepted:
        res, wrap = centered_angle(np.array([x for x, _, _ in accepted]), period)
        assert list(zip(res.tolist(), wrap.tolist())) == [(r, w) for _, r, w in accepted]


@TIE_PROPERTY
@given(m=st.integers(2, 10**12), xs=st.lists(st.floats(-1e6, 1e6), max_size=20))
# 1.85e16 periods: past 2^52, both forms refuse it
@example(m=124_999_999_997, xs=[929555.0])
def test_array_centered_angle_is_the_scalar_one_bit_for_bit(m, xs):
    period = 2.0 * math.pi / m
    xs = [*xs, -period / 2, period / 2, -0.0]
    reduced = []
    for x in xs:
        try:
            reduced.append((x, *centered_angle(x, period)))
        except ValueError:
            with pytest.raises(ValueError):
                centered_angle(np.array(xs), period)
    res, wrap = centered_angle(np.array([x for x, _, _ in reduced]), period)
    assert (res.dtype, wrap.dtype) == (np.float64, np.int64)
    for (_, scalar_r, scalar_w), r, w in zip(reduced, res.tolist(), wrap.tolist()):
        assert (scalar_r.hex(), scalar_w) == (r.hex(), w)
    # both ties land on +period/2: -period/2 wraps once downward, +period/2 not at all
    assert (res[-3], wrap[-3]) == (period / 2, -1)
    assert (res[-2], wrap[-2]) == (period / 2, 0)


@TIE_PROPERTY
@given(m=st.integers(2, 10**12), us=st.lists(st.floats(-math.pi, math.pi), max_size=20))
def test_centered_angle_wraps_exactly_outside_the_sector(m, us):
    # pe_monte_carlo's test: the sector (-pi/m, pi/m] is correctable
    a = math.pi / m
    us = np.array([*us, a, -a, math.nextafter(a, 4.0), math.nextafter(-a, 0.0)])
    wrapped = centered_angle(us, 2.0 * math.pi / m)[1] != 0
    assert np.array_equal(wrapped, (us > a) | (us <= -a))


@TIE_PROPERTY
@given(m=st.integers(2, 10**12), inside=st.lists(st.booleans(), min_size=1, max_size=30))
def test_pe_monte_carlo_keeps_plus_pi_over_m_and_drops_minus(m, inside):
    us = np.where(inside, math.pi / m, -math.pi / m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "angle_deviation_sampler", lambda approx: lambda rng, n: us)
        res = pe_monte_carlo(Approximant("grating", 1.0), m, len(inside), np.random.default_rng(0))
    assert res.value == inside.count(False) / len(inside)


@pytest.mark.parametrize(
    "value, r, expected",
    [(0, 3, 0), (1, 3, 1), (2, 3, -1), (4, 3, 1), (-2, 3, 1), (0, 1, 0), (7, 5, 2)],
)
def test_centered_residue(value, r, expected):
    assert centered_residue(value, r) == expected


def test_error_event_validation():
    with pytest.raises(ValueError, match="finite"):
        ErrorEvent(epsilon=math.inf, e=0)
    assert ErrorEvent(epsilon=0.1, e=2.0).e == 2


def test_apply_error_is_the_exact_rigid_channel():
    word = ideal_codeword(PARAMS, 1, 24)
    eps, e = 0.21, 2
    out = apply_error(word, ErrorEvent(eps, e))
    # diagonal drift then kick: a_l -> e^{i eps l} a_{l-e}
    for l in range(-20, 21):
        expect = np.exp(1j * eps * (l - e)) * word.amplitude_at(l - e)
        assert out.amplitude_at(l) == pytest.approx(expect, abs=1e-14)


def test_expected_syndrome_reads_exact_drift_and_kick():
    word = ideal_codeword(PARAMS, 0, 24)
    eps, e = 0.31, 1
    syn = measure_syndrome_expected(apply_error(word, ErrorEvent(eps, e)), PARAMS)
    assert syn.theta_residue == pytest.approx(eps, abs=1e-12)
    assert syn.q == 1
    # kicks alias mod r onto the centered representative
    syn2 = measure_syndrome_expected(apply_error(word, ErrorEvent(0.0, -1)), PARAMS)
    assert syn2.q == -1


def test_sampled_syndrome_collapses_onto_residue_class():
    word = ideal_codeword(TWO_QUBIT, 1, 36)  # teeth at 3 mod 12
    damaged = apply_error(word, ErrorEvent(0.05, 1))
    rng = np.random.default_rng(5)
    syn, post = measure_syndrome_sampled(damaged, TWO_QUBIT, rng)
    assert syn.q == 1
    assert syn.theta_residue == pytest.approx(0.05, abs=1e-12)
    residues = {int(l) % 3 for l in post.ls if abs(post.amplitude_at(int(l))) > 0}
    assert residues == {1}
    assert post.norm() == pytest.approx(1.0)


def test_sampled_syndrome_requires_normalized_state():
    from rotorcode import from_amplitudes

    bad = from_amplitudes(0, np.array([2.0]), normalize=False)
    with pytest.raises(ValueError, match="normalized"):
        measure_syndrome_sampled(bad, PARAMS, np.random.default_rng(0))


def test_angular_syndrome_needs_window_wider_than_m():
    tiny = make_state([(0, 1.0), (1, 1.0)])
    with pytest.raises(ValueError, match="fewer than m"):
        measure_syndrome_expected(tiny, PARAMS)


def test_angular_syndrome_undefined_when_expectation_vanishes():
    # equal comb with period 2m has <V^m> = 0 on matched support
    state = ideal_comb(0, 12, 24)
    with pytest.raises(NumericalError, match="numerically zero"):
        measure_syndrome_expected(state, PARAMS)


def test_in_bound_error_round_trip_restores_the_codeword():
    word = ideal_codeword(PARAMS, 1, 24)
    for eps in (-0.4, 0.0, 0.3):
        for e in (-1, 0, 1):
            damaged = apply_error(word, ErrorEvent(eps, e))
            syn = measure_syndrome_expected(damaged, PARAMS)
            fixed = correct(damaged, syn, PARAMS)
            assert fidelity(fixed, word) == pytest.approx(1.0, abs=1e-12)


def test_out_of_bound_kick_lands_on_the_wrong_codeword():
    word = ideal_codeword(PARAMS, 0, 24)
    damaged = apply_error(word, ErrorEvent(0.0, 2))  # beyond delta_L = 1
    syn = measure_syndrome_expected(damaged, PARAMS)
    assert syn.q == -1  # 2 aliases to -1 mod 3
    fixed = correct(damaged, syn, PARAMS)
    assert fidelity(fixed, word) < 1e-20
    # the survivor is the other codeword's comb on the shifted support hull
    lo, hi = fixed.support_hull(cutoff=1e-12)
    wrong = make_state([(l, 1.0) for l in range(lo, hi + 1) if l % 6 == 3])
    assert fidelity(fixed, wrong) == pytest.approx(1.0, abs=1e-12)


def test_approximant_drift_correction_is_exact_for_rigid_drifts():
    word = approx_codeword(PARAMS, 0, Approximant("truncated_gaussian", 3.0), 30)
    damaged = apply_error(word, ErrorEvent(0.27, 0))
    syn = measure_syndrome_expected(damaged, PARAMS)
    assert syn.theta_residue == pytest.approx(0.27, abs=1e-12)
    fixed = correct(damaged, syn, PARAMS)
    assert fidelity(fixed, word) == pytest.approx(1.0, abs=1e-12)
    # the corrected peak sits back at theta = 0
    assert abs(theta_wavefunction(fixed, 0.0)) > abs(theta_wavefunction(fixed, 0.5))


def test_round_trip_ideal_in_bound_is_error_free():
    rng = np.random.default_rng(12)
    summary = run_round_trip(PARAMS, 1, ErrorEvent(0.2, 1), 64, rng)
    assert summary.errors == 0
    assert summary.error_rate == 0.0
    assert summary.state_fidelity == pytest.approx(1.0, abs=1e-12)
    assert summary.angle_errors == 0 and summary.momentum_errors == 0
    for column in (summary.u, summary.theta_outcome, summary.wrap, summary.angle_error):
        assert column.shape == (64,)
        assert not column.flags.writeable
    assert np.all(summary.u == 0.0)
    assert summary.theta_outcome == pytest.approx(np.full(64, 0.2))
    assert summary.q_outcome == 1
    assert not summary.angle_error.any() and not summary.momentum_error


def test_round_trip_flags_angle_wrap_beyond_sector():
    rng = np.random.default_rng(12)
    eps = math.pi / 6 + 0.1  # beyond the sector half-width pi/m = pi/6
    summary = run_round_trip(PARAMS, 0, ErrorEvent(eps, 0), 16, rng)
    assert summary.angle_errors == 16
    assert summary.error_rate == 1.0
    assert np.all(summary.wrap == 1)
    # the reduced angle re-centers into the sector
    assert summary.theta_outcome[0] == pytest.approx(eps - math.pi / 3)


def test_round_trip_flags_out_of_bound_kick():
    rng = np.random.default_rng(3)
    summary = run_round_trip(PARAMS, 0, ErrorEvent(0.0, 2), 8, rng)
    assert summary.momentum_errors == 8
    assert summary.error_rate == 1.0
    assert summary.digit_shift == 1
    assert summary.q_outcome == -1


def test_round_trip_sector_ties_like_pe_monte_carlo():
    # PARAMS has m = 6: a drift of exactly +pi/6 is corrected, -pi/6 is not
    for eps, angle_errors in ((math.pi / 6, 0), (-math.pi / 6, 8)):
        summary = run_round_trip(PARAMS, 0, ErrorEvent(eps, 0), 8, np.random.default_rng(1))
        assert summary.angle_errors == angle_errors
        assert summary.theta_outcome.tolist() == [math.pi / 6] * 8


@TIE_PROPERTY
@given(
    eps=st.one_of(st.floats(-1.5, 1.5), st.sampled_from([math.pi / 6, -math.pi / 6])),
    kick=st.integers(-3, 3),
    xi=st.one_of(st.none(), st.floats(2.0, 6.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_columns_agree_with_the_counts(eps, kick, xi, seed):
    approx = None if xi is None else Approximant("truncated_gaussian", xi)
    summary = run_round_trip(
        PARAMS, 1, ErrorEvent(eps, kick), 40, np.random.default_rng(seed),
        approx=approx, window_half=60,
    )
    assert np.array_equal(summary.angle_error, summary.wrap != 0)
    assert summary.angle_errors == np.count_nonzero(summary.angle_error)
    assert summary.errors == np.count_nonzero(summary.angle_error | summary.momentum_error)
    assert summary.momentum_errors == (40 if summary.momentum_error else 0)
    for u, theta, w in zip(summary.u.tolist(), summary.theta_outcome.tolist(), summary.wrap.tolist()):
        assert centered_angle(eps + u, 2.0 * math.pi / PARAMS.m) == (theta, w)


def test_round_trip_approximant_rate_tracks_tail_mass():
    rng = np.random.default_rng(2026)
    approx = Approximant("truncated_gaussian", 2.0)
    summary = run_round_trip(
        PARAMS, 0, ErrorEvent(0.0, 0), 20_000, rng, approx=approx, window_half=30
    )
    p_ref = 0.13861697183973642  # frozen closed-form tail for xi=2, m=6
    assert abs(summary.error_rate - p_ref) < 4.0 * summary.standard_error
    assert summary.state_fidelity == pytest.approx(1.0, abs=1e-12)


def test_round_trip_expected_mode_and_validation():
    rng = np.random.default_rng(8)
    summary = run_round_trip(
        PARAMS, 1, ErrorEvent(0.1, -1), 4, rng, syndrome_mode="expected"
    )
    assert summary.state_fidelity == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="syndrome_mode"):
        run_round_trip(PARAMS, 1, ErrorEvent(0.0, 0), 4, rng, syndrome_mode="psychic")
    with pytest.raises(ValueError, match="at least one trial"):
        run_round_trip(PARAMS, 1, ErrorEvent(0.0, 0), 0, rng)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_register_chain_costs_its_support_not_its_window():
    # N = 14 trunc-gauss xi = m: 14 teeth in a window of 688,129 momenta; the
    # dense window peaked at ~53 MB over this chain and ~42 MB on the grid
    params = CodeParams(2, 14, 1)
    word = logical_encode(params, 5, Approximant("truncated_gaussian", float(params.m)))

    def chain():
        gated = apply(qubit_X(1, params.r), word)
        hit = apply_error(gated, ErrorEvent(2e-5, -1))
        expected = measure_syndrome_expected(hit, params)
        sampled, post = measure_syndrome_sampled(hit, params, np.random.default_rng(14))
        fids = [fidelity(correct(hit, expected, params), gated),
                fidelity(correct(post, sampled, params), gated)]
        return expected, sampled, fids

    (expected, sampled, fids), peak = _traced_peak(chain)
    assert peak < 1 << 20
    # the syndromes the dense window gave: q = -1, theta = 2e-05
    for syndrome in (expected, sampled):
        assert syndrome.q == -1
        assert abs(syndrome.theta_residue - 2e-05) <= 1e-15
    assert min(fids) == pytest.approx(1.0, abs=1e-12)
    _, peak = _traced_peak(lambda: angle_distribution(word, 4096))
    assert peak < 1 << 20

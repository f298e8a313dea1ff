"""Shift-diagonal operators: exact actions on any window, invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotorcode import (
    CodeParams,
    ShiftDiagonalOperator,
    angle_shift,
    apply,
    commutator_norm,
    compose,
    from_amplitudes,
    identity,
    invariant_residuals,
    make_state,
    momentum_shift,
    operator_difference_norm,
    pad_state,
    phase_gate,
    qubit_X,
    qubit_Z,
    qudit_pair,
    random_probes,
    residual_rotor_phase,
    scaled,
    stabilizer_ops,
)
from rotorcode.weyl_algebra import _aligned_difference


def basis(l, pad=4):
    return pad_state(make_state([(l, 1.0)]), pad)


def test_operator_requires_terms():
    with pytest.raises(ValueError, match="at least one term"):
        ShiftDiagonalOperator(())


def test_identity_and_momentum_shift_actions():
    s = basis(2)
    assert apply(identity(), s).amplitude_at(2) == pytest.approx(1.0)
    shifted = apply(momentum_shift(3), s)
    assert shifted.amplitude_at(5) == pytest.approx(1.0)
    assert shifted.amplitude_at(2) == 0.0
    back = apply(momentum_shift(-3), shifted)
    assert back.amplitude_at(2) == pytest.approx(1.0)


def test_angle_shift_is_a_momentum_diagonal_phase():
    s = make_state([(-1, 1.0), (2, 1.0)])
    out = apply(angle_shift(0.3), s)
    assert out.amplitude_at(-1) == pytest.approx(np.exp(-0.3j) / math.sqrt(2))
    assert out.amplitude_at(2) == pytest.approx(np.exp(0.6j) / math.sqrt(2))


def test_apply_widens_a_tight_window():
    s = make_state([(0, 1.0)])  # tight window [0, 0], weight on both edges
    out = apply(momentum_shift(1), s)
    assert (out.l_min, out.l_max) == (0, 1)
    assert out.amplitude_at(1) == 1.0
    assert out.normalized


def test_strict_apply_widens_window_by_shift_hull():
    s = basis(0, pad=2)  # window [-2, 2]
    out = apply(momentum_shift(2), s)
    assert (out.l_min, out.l_max) == (-2, 4)
    assert out.normalized


@pytest.mark.parametrize("r", [1, 3])
def test_qubit_Z_sign_pattern(r):
    Z = qubit_Z(1, r)
    for l in range(-3 * r, 3 * r + 1):
        out = apply(Z, basis(l))
        assert out.amplitude_at(l) == pytest.approx((-1.0) ** (l // r))


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("j", [1, 2])
def test_qubit_X_flips_digit_j(j, r):
    s_step = 2 ** (j - 1) * r
    X = qubit_X(j, r)
    for base in (-4 * s_step, 0, 2 * s_step):
        lo = base  # digit j even here
        hi = base + s_step  # digit j odd here
        up = apply(X, basis(lo, pad=2 * s_step))
        assert up.amplitude_at(hi) == pytest.approx(1.0)
        assert sum(abs(up.amplitudes) ** 2) == pytest.approx(1.0)
        down = apply(X, basis(hi, pad=2 * s_step))
        assert down.amplitude_at(lo) == pytest.approx(1.0)


def test_qubit_X_squares_to_identity_on_random_states():
    rng = np.random.default_rng(23)
    X = qubit_X(1, 3)
    for p in random_probes(rng, count=5):
        twice = apply(X, apply(X, p))
        assert operator_difference_norm(identity(), identity(), [p]) == 0.0
        overlap = sum(
            np.conj(twice.amplitude_at(int(l))) * p.amplitude_at(int(l))
            for l in p.ls
        )
        assert abs(overlap - 1.0) < 1e-12


def test_qudit_cyclic_raise_and_clock():
    d, r = 3, 2
    Z, X = qudit_pair(1, d, r)
    s = d ** 0 * r
    # digit 0 -> 1 -> 2 -> 0 (the top digit wraps by the -ds shift)
    state = basis(0, pad=3 * d * s)
    seen = []
    for _ in range(d):
        state = apply(X, state)
        hull = state.support_hull(cutoff=1e-9)
        assert hull[0] == hull[1]
        seen.append(hull[0])
    assert seen == [s, 2 * s, 0]
    omega = np.exp(2j * np.pi / d)
    for l in range(-2 * d * s, 2 * d * s + 1):
        out = apply(Z, basis(l))
        assert out.amplitude_at(l) == pytest.approx(omega ** ((l // s) % d))


def test_qudit_validation():
    with pytest.raises(ValueError, match="d must be >= 2"):
        qudit_pair(1, 1)
    with pytest.raises(ValueError, match="j >= 1"):
        qudit_pair(0, 3)


def test_phase_gate_sign_table():
    r = 1
    R = phase_gate(1, 2, r)
    # digits (p1, p2) at l = p1 + 2 p2 within the fundamental block
    expected = {0: 1.0, 1: 1.0, 2: 1.0, 3: -1.0}
    for l, sign in expected.items():
        out = apply(R, basis(l))
        assert out.amplitude_at(l) == pytest.approx(sign)


def test_phase_gate_rejects_equal_indices():
    with pytest.raises(ValueError, match="distinct"):
        phase_gate(2, 2)


def test_stabilizer_ops_match_code_parameters():
    params = CodeParams(d=2, N=2, delta_L=1)  # r=3, m=12
    S_theta, S_L = stabilizer_ops(params)
    assert S_theta.shifts() == (12,)
    out = apply(S_L, basis(5))
    assert out.amplitude_at(5) == pytest.approx(np.exp(2j * np.pi * 2 / 3))


def test_residual_rotor_phase_uses_floor_toward_minus_infinity():
    T = residual_rotor_phase(0.5, 12)
    assert apply(T, basis(-1)).amplitude_at(-1) == pytest.approx(np.exp(-0.5j))
    assert apply(T, basis(11)).amplitude_at(11) == pytest.approx(1.0)
    assert apply(T, basis(12)).amplitude_at(12) == pytest.approx(np.exp(0.5j))


def test_compose_applies_right_factor_first():
    a = 0.7
    s = basis(2)
    left = apply(compose(angle_shift(a), momentum_shift(1)), s)
    # V first, then the diagonal phase sees l = 3
    assert left.amplitude_at(3) == pytest.approx(np.exp(1j * a * 3))
    right = apply(compose(momentum_shift(1), angle_shift(a)), s)
    assert right.amplitude_at(3) == pytest.approx(np.exp(1j * a * 2))


def test_scaled_multiplies_the_action():
    s = basis(1)
    out = apply(scaled(momentum_shift(2), 0.5j), s)
    assert out.amplitude_at(3) == pytest.approx(0.5j)


def test_commutator_and_difference_norms():
    rng = np.random.default_rng(31)
    probes = random_probes(rng, count=6)
    assert commutator_norm(qubit_Z(1), qubit_Z(2), probes) == 0.0
    # {X1, Z1} = 0 means the commutator norm is 2 ||X1 Z1 probe||-ish, > 0
    assert commutator_norm(qubit_X(1), qubit_Z(1), probes) > 0.5
    assert operator_difference_norm(qubit_Z(1), qubit_Z(1), probes) == 0.0
    assert operator_difference_norm(qubit_Z(1), qubit_Z(2), probes) > 0.5


def test_random_probes_respect_margin():
    rng = np.random.default_rng(7)
    probes = random_probes(rng, count=10)
    for p in probes:
        lo, hi = p.support_hull()
        assert (p.l_min, p.l_max) == (-256, 256)
        assert lo >= -192 and hi <= 192
        assert p.normalized


@pytest.mark.parametrize("r", [1, 3])
def test_invariant_suite_is_numerically_exact(r):
    rng = np.random.default_rng(101)
    checks = invariant_residuals(r, rng, probes=20)
    assert len(checks) == 27
    worst = max(res for _, res in checks)
    assert worst < 1e-12, f"worst residual {worst}"
    names = [name for name, _ in checks]
    assert any("residual rotor" in n for n in names)
    assert any("omega" in n for n in names)


def test_invariant_suite_flags_a_corrupted_operator():
    # X1 + 0.5e-6 V^{-r}: V^{-r} anticommutes with Z1 and commutes with both
    # stabilizers, so exactly these identities see it
    rng = np.random.default_rng(101)
    checks = invariant_residuals(3, rng, probes=20, corrupt=True)
    bad = [name for name, res in checks if res > 1e-12]
    assert bad == [
        "X1.X1 = 1",
        "[X1, Z2] = 0",
        "[X1, X2] = 0",
        "qudit d=2 X matches qubit X",
        "R12.X1.R12 = X1.Z2",
        "residual rotor: [T, X1] = 0",
    ]


# property tests: a fixed example sequence keeps the suite deterministic
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
DIGITS = st.integers(1, 3)
RS = st.sampled_from([1, 3, 5])
SEEDS = st.integers(0, 2**32 - 1)


def _literal_qubit_pair(s, l_min, amps):
    """The paper's Z = (-1)^floor(l/s) and X = ((1+Z) V^{-s} + V^s (1+Z)) / 2.

    Acts on amplitudes from l_min; X's output window is wider by s each side.
    """
    n = amps.shape[0]
    ls = l_min + np.arange(n)

    def z(ls):
        return np.where((ls // s) % 2 == 0, 1.0, -1.0)

    x = np.zeros(n + 2 * s, dtype=np.complex128)
    x[:n] += 0.5 * (1.0 + z(ls - s)) * amps  # (1+Z) V^{-s}
    x[2 * s :] += 0.5 * (1.0 + z(ls)) * amps  # V^s (1+Z)
    return z(ls) * amps, x


@PROPERTY
@given(j=DIGITS, r=RS, seed=SEEDS)
def test_qubit_pair_equals_the_literal_formulas(j, r, seed):
    s = 2 ** (j - 1) * r
    for p in random_probes(np.random.default_rng(seed), count=3):
        z_ref, x_ref = _literal_qubit_pair(s, p.l_min, p.amplitudes)
        z, x = apply(qubit_Z(j, r), p), apply(qubit_X(j, r), p)
        assert (z.l_min, x.l_min) == (p.l_min, p.l_min - s)
        np.testing.assert_array_equal(z.amplitudes, z_ref)
        np.testing.assert_array_equal(x.amplitudes, x_ref)


@PROPERTY
@given(j=DIGITS, r=RS, lo=st.integers(-10**6, 10**6))
def test_qudit_clock_is_exact_at_quarter_turns(j, r, lo):
    ls = np.arange(lo, lo + 200, dtype=np.int64)
    for d in (2, 4):
        (shift, diag), = qudit_pair(j, d, r)[0].terms
        digits = (ls // (d ** (j - 1) * r)) % d
        expected = [1j ** int(4 * k // d) for k in digits]
        assert shift == 0
        assert np.array_equal(diag(ls), expected)


OPERATORS = {
    "X": qubit_X,
    "Z": qubit_Z,
    "qutrit X": lambda j, r: qudit_pair(j, 3, r)[1],
    "qutrit Z": lambda j, r: qudit_pair(j, 3, r)[0],
    "R": lambda j, r: phase_gate(j, j % 3 + 1, r),
    "V": lambda j, r: momentum_shift(2 * r - 3 * j),
    "angle": lambda j, r: angle_shift(0.3 * j),
    "T": lambda j, r: residual_rotor_phase(0.7, 4 * r),
    "S_theta": lambda j, r: stabilizer_ops(CodeParams(d=2, N=2, delta_L=(r - 1) // 2))[0],
}
KINDS = st.sampled_from(sorted(OPERATORS))


@PROPERTY
@given(a=KINDS, b=KINDS, j=DIGITS, r=RS, seed=SEEDS)
def test_compose_equals_sequential_apply(a, b, j, r, seed):
    op_a, op_b = OPERATORS[a](j, r), OPERATORS[b](j, r)
    ab = compose(op_a, op_b)
    for p in random_probes(np.random.default_rng(seed), count=3):
        assert _aligned_difference(apply(ab, p), apply(op_a, apply(op_b, p))) <= 1e-14


# operators from every constructor, alone or composed in pairs: all unitary
ATOMS = st.one_of(
    st.builds(momentum_shift, st.integers(-40, 40)),
    st.builds(angle_shift, st.floats(-4.0, 4.0)),
    st.builds(qubit_X, DIGITS, RS),
    st.builds(qubit_Z, DIGITS, RS),
    st.builds(lambda j, d, r, which: qudit_pair(j, d, r)[which],
              DIGITS, st.integers(2, 5), RS, st.integers(0, 1)),
    st.builds(lambda j, step, r: phase_gate(j, j + step, r), DIGITS, st.integers(1, 2), RS),
)
UNITARIES = st.one_of(ATOMS, st.builds(compose, ATOMS, ATOMS))
SPARSE = st.dictionaries(
    st.integers(-60, 60),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
    min_size=1,
    max_size=6,
)


@PROPERTY
@given(op=UNITARIES, entries=SPARSE, pad=st.integers(0, 40))
def test_apply_is_exact_on_a_tight_window(op, entries, pad):
    s = make_state(sorted(entries.items()))
    assert s.support_hull() == (s.l_min, s.l_max)
    tight, padded = apply(op, s), apply(op, pad_state(s, pad))
    shifts = op.shifts()
    assert (tight.l_min, tight.l_max) == (
        s.l_min + min(0, min(shifts)),
        s.l_max + max(0, max(shifts)),
    )
    assert (padded.l_min, padded.l_max) == (tight.l_min - pad, tight.l_max + pad)
    widened = np.zeros_like(padded.amplitudes)
    widened[pad : pad + tight.amplitudes.shape[0]] = tight.amplitudes
    assert np.max(np.abs(padded.amplitudes - widened)) <= 1e-15
    assert tight.normalized
    assert tight.norm() == pytest.approx(1.0, abs=1e-12)


def _dense_apply(op, s):
    """Every term over the whole window, in term order: (output l_min, amplitudes)."""
    shifts = op.shifts()
    lo = s.l_min + min(0, min(shifts))
    out = np.zeros(s.l_max + max(0, max(shifts)) - lo + 1, dtype=np.complex128)
    for k, f in op.terms:
        start = s.l_min + k - lo
        out[start : start + s.amplitudes.shape[0]] += (
            np.asarray(f(s.ls), dtype=np.complex128) * s.amplitudes
        )
    return lo, out


@st.composite
def patterned_states(draw):
    """Unnormalized states whose amplitudes vanish on a random pattern of momenta."""
    width = draw(st.integers(1, 80))
    l_min = draw(st.integers(-10**6, 10**6))
    values = draw(st.lists(
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0)),
        min_size=width,
        max_size=width,
    ))
    return from_amplitudes(l_min, np.array(values, dtype=np.complex128), normalize=False)


# a sum of three operators: one output momentum collects several terms, so
# the order in which apply adds them shows in the last bit
TERM_SUMS = st.builds(
    lambda a, b, c: ShiftDiagonalOperator(a.terms + b.terms + c.terms), ATOMS, ATOMS, ATOMS
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(op=st.one_of(UNITARIES, TERM_SUMS), s=patterned_states())
@example(op=compose(qubit_X(1, 1), qudit_pair(2, 3, 1)[1]),
         s=from_amplitudes(-3, [0, 0, 0, 0.6 + 0.8j, 0, 0, 0], normalize=False))  # one nonzero momentum
@example(op=compose(phase_gate(1, 2, 3), angle_shift(0.3)),
         s=from_amplitudes(7, [0, 0.5, 0, 0, -0.5j, 0], normalize=False))  # zeros at both edges
@example(op=qudit_pair(1, 5, 1)[1], s=from_amplitudes(-2, np.zeros(5), normalize=False))  # all zero
def test_apply_on_the_support_is_bit_identical_to_the_dense_term_sum(op, s):
    lo, dense = _dense_apply(op, s)
    out = apply(op, s)
    assert (out.l_min, out.l_max) == (lo, lo + dense.shape[0] - 1)
    assert out.amplitudes.tobytes() == dense.tobytes()


def test_apply_refuses_a_window_past_the_momentum_cap():
    # the kicked window would hold 10^12 momenta (14.6 TiB): refused before allocating
    with pytest.raises(ValueError, match="cap of 33554432"):
        apply(momentum_shift(10**12), basis(0))

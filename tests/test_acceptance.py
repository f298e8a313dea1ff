"""Acceptance gate: one test per numbered acceptance criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line per
criterion.  Every assertion message carries the measured values, so a red
line is self-explanatory without re-running anything.
"""

import csv
import math
import time

import numpy as np

from rotorcode.analysis import (
    pe_asymptotic,
    pe_closed_form,
    pe_monte_carlo,
    pe_quadrature,
)
from rotorcode.cli import main
from rotorcode.code_space import (
    Approximant,
    CodeParams,
    ideal_codeword,
    ideal_comb,
)
from rotorcode.noise_correction import (
    ErrorEvent,
    apply_error,
    correct,
    measure_syndrome_expected,
)
from rotorcode.rotor_state import fidelity, inner
from rotorcode.weyl_algebra import apply, invariant_residuals, phase_gate, qubit_X


def _columns(capsys, *argv):
    """Run the tables subcommand and return {column name: [cells as text]}."""
    code = main(["tables", *argv])
    out = capsys.readouterr().out
    assert code == 0, f"tables exited {code}"
    data = list(
        csv.reader(ln for ln in out.strip().splitlines() if not ln.startswith("#"))
    )
    header, body = data[0], data[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _round_trip(word, params, epsilon, e):
    corrupted = apply_error(word, ErrorEvent(epsilon=epsilon, e=e))
    syndrome = measure_syndrome_expected(corrupted, params)
    return correct(corrupted, syndrome, params)


def test_criterion_01_quadrature_matches_closed_form():
    t0 = time.perf_counter()
    worst, worst_at = -1.0, ""
    for n_qubits, delta_l in ((1, 0), (1, 1), (2, 1)):
        m = CodeParams(2, n_qubits, delta_l).m
        for xi in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            quad = pe_quadrature(Approximant("truncated_gaussian", xi), m).value
            closed = pe_closed_form(xi, m).value
            gap = abs(quad - closed)
            if gap > worst:
                worst, worst_at = gap, f"xi={xi}, m={m}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max |quadrature - closed form| = {worst:.3e} at {worst_at}")
    assert worst < 1e-8, f"|quadrature - closed form| = {worst:.3e} at {worst_at}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_02_truncated_gaussian_band_at_xi_equals_m():
    for n_qubits in (1, 5, 20):
        m = CodeParams(2, n_qubits, 1).m
        p = pe_closed_form(float(m), m).value
        print(f"criterion 2: N={n_qubits}, m={m}: p_e = {p:.6e}")
        assert 3e-6 <= p <= 3e-5, (
            f"N={n_qubits}: p_e(xi=m={m}) = {p:.6e} outside [3e-6, 3e-5]"
        )


def _cos_power_tail_exact(gamma: int, m: int) -> float:
    """Exact p_e for the cos^{2 gamma}(u/2) angle density at integer gamma.

    Expanding cos^{2g}(u/2) = 4^-g [C(2g,g) + 2 sum_l C(2g,g+l) cos(l u)] and
    integrating over the two tails |u| > a = pi/m gives the finite sum
    p_e = (pi - a)/pi - 2/(pi C(2g,g)) sum_{l=1}^{g} C(2g,g+l) sin(l a)/l.
    """
    a = math.pi / m
    tail = math.fsum(
        math.comb(2 * gamma, gamma + l) * math.sin(l * a) / l
        for l in range(1, gamma + 1)
    )
    central = math.comb(2 * gamma, gamma)
    return (math.pi - a) / math.pi - 2.0 / (math.pi * central) * tail


def test_criterion_03_cosine_power_band_at_gamma_equals_m():
    # psi ~ cos^gamma(u/2) is the profile whose even powers are bandlimited to
    # |l| <= gamma/2 (Approximant; test_cosine_power_even_exponent_is_bandlimited),
    # so the angle density is cos^{2 gamma}(u/2).  At gamma = m its tail mass
    # crosses one half between m = 11 and m = 12.
    listed = [CodeParams(2, n_qubits, 1).m for n_qubits in (1, 5)]
    sizes = sorted({*listed, 11, 12})
    measured = {
        m: pe_quadrature(Approximant("cosine_power", float(m)), m).value
        for m in sizes
    }
    exact = {m: _cos_power_tail_exact(m, m) for m in sizes}
    values = {m: (round(measured[m], 14), round(exact[m], 14)) for m in sizes}
    print(f"criterion 3: (measured, exact) p_e(gamma=m) by m: {values}")
    gap = max(abs(measured[m] - exact[m]) for m in sizes)
    assert gap < 1e-11, (
        f"quadrature p_e(gamma=m) differs from the exact cos^(2 gamma) tail by "
        f"{gap:.3e}; (measured, exact) by m: {values}"
    )
    pes = [measured[m] for m in sizes]
    assert all(lo < hi for lo, hi in zip(pes, pes[1:])), (
        f"p_e(gamma=m) must rise with m; (measured, exact) by m: {values}"
    )
    assert [p > 0.5 for p in pes] == [m >= 12 for m in sizes], (
        f"p_e(gamma=m) must exceed 1/2 exactly at the sizes m >= 12; "
        f"(measured, exact) by m: {values}"
    )


def test_criterion_04_gaussian_envelope_band_at_sigma_equals_m():
    for n_qubits in (1, 5):
        m = CodeParams(2, n_qubits, 1).m
        p = pe_quadrature(Approximant("gaussian_envelope", float(m)), m).value
        print(f"criterion 4: N={n_qubits}, m={m}: p_e = {p:.6e}")
        assert 1e-6 <= p <= 1e-4, (
            f"N={n_qubits}: p_e(sigma=m={m}) = {p:.6e} outside [1e-6, 1e-4]"
        )


def test_criterion_05_grating_band_at_slit_count_equals_m():
    for n_qubits in (1, 5):
        m = CodeParams(2, n_qubits, 1).m
        p = pe_quadrature(Approximant("grating", float(m)), m).value
        print(f"criterion 5: N={n_qubits}, m={m}: p_e = {p:.6e}")
        assert 3e-2 <= p <= 3e-1, (
            f"N={n_qubits}: p_e(L_M=m={m}) = {p:.6e} outside [3e-2, 3e-1]"
        )


def test_criterion_06_vanishing_parameter_reaches_pure_guess():
    # the grating family is excluded: its parameter is an integer slit count
    worst, worst_at = -1.0, ""
    for n_qubits, delta_l in ((1, 0), (1, 1), (5, 1)):
        m = CodeParams(2, n_qubits, delta_l).m
        guess = 1.0 - 1.0 / m
        for family in ("truncated_gaussian", "cosine_power", "gaussian_envelope"):
            p = pe_quadrature(Approximant(family, 1e-3), m).value
            gap = abs(p - guess)
            if gap > worst:
                worst, worst_at = gap, f"{family}, m={m}"
    print(f"criterion 6: max |p_e - (1 - 1/m)| = {worst:.3e} at {worst_at}")
    assert worst < 1e-3, f"|p_e - (1 - 1/m)| = {worst:.3e} at {worst_at}"


def test_criterion_07_closed_form_approaches_asymptotic_form():
    for n_qubits, delta_l in ((1, 0), (1, 1)):
        m = CodeParams(2, n_qubits, delta_l).m
        xi = 10.0 * m
        lc = pe_closed_form(xi, m).log10_value
        la = pe_asymptotic(xi, m).log10_value
        ratio = 10.0 ** (lc - la)
        print(f"criterion 7: m={m}, xi={xi}: closed/asymptotic = {ratio:.6f}")
        assert 0.95 <= ratio <= 1.05, (
            f"m={m}, xi={xi}: closed/asymptotic ratio {ratio:.6f} "
            "outside [0.95, 1.05]"
        )


def test_criterion_08_encoding_tables_reproduce_reference_cells(capsys):
    single = _columns(
        capsys, "--d", "2", "--N", "1", "--delta-L", "0", "--range", "-4", "4"
    )
    assert single["l"] == [str(l) for l in range(-4, 5)]
    assert single["p1"] == list("010101010")
    assert single["rotor_index"] == ["-2", "-2", "-1", "-1", "0", "0", "1", "1", "2"]

    three = _columns(
        capsys, "--d", "2", "--N", "3", "--delta-L", "0", "--range", "-4", "4"
    )
    assert three["p1"] == list("010101010")
    assert three["p2"] == list("001100110")
    assert three["p3"] == list("111100001")
    assert three["rotor_index"] == ["-1", "-1", "-1", "-1", "0", "0", "0", "0", "0"]

    binary = _columns(capsys, "--binary", "--N", "3", "--range", "-4", "4")
    assert binary["b1"] == list("111100000")
    assert binary["b2"] == list("010101010")
    assert binary["b3"] == list("011000110")

    protected = _columns(
        capsys, "--d", "2", "--N", "2", "--delta-L", "1", "--range", "0", "12"
    )
    assert protected["q"] == list("0120120120120")
    assert protected["p1"] == list("0001110001110")
    assert protected["p2"] == list("0000001111110")
    assert protected["rotor_index"] == ["0"] * 12 + ["1"]
    assert protected["k"] == list("0001112223330")
    print("criterion 8: all four encoding tables match cell-for-cell")


def test_criterion_09_operator_identity_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    worst, worst_name = -1.0, ""
    total = 0
    for r in (1, 3):
        for name, residual in invariant_residuals(r, rng, probes=20):
            total += 1
            if residual > worst:
                worst, worst_name = residual, f"r={r}: {name}"
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9: {total} identities, largest residual {worst:.3e} "
        f"({worst_name}), {elapsed:.2f}s"
    )
    assert worst < 1e-12, f"residual {worst:.3e} from {worst_name}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_10_round_trip_recovery_and_definite_failure():
    checked = 0
    for n_qubits in (1, 2):
        for delta_l in (0, 1):
            params = CodeParams(2, n_qubits, delta_l)
            m, r, n = params.m, params.r, params.n
            eps_grid = np.linspace(-0.9 * math.pi / m, 0.9 * math.pi / m, 7)
            for k in range(n):
                word = ideal_codeword(params, k)
                for eps in eps_grid:
                    for e in range(-delta_l, delta_l + 1):
                        fid = fidelity(_round_trip(word, params, float(eps), e), word)
                        checked += 1
                        assert fid > 1.0 - 1e-10, (
                            f"N={n_qubits}, dL={delta_l}, k={k}, eps={eps:.4f}, "
                            f"e={e}: recovered fidelity {fid:.15f}"
                        )
                # one momentum step beyond the protected range lands on the
                # next logical index: u = (l - q)/r grows by exactly one
                corrected = _round_trip(word, params, 0.0, delta_l + 1)
                fid_orig = fidelity(corrected, word)
                lo, hi = corrected.support_hull()
                wrong = ideal_comb((((k + 1) % n) * r) % m, m, lo, hi)
                fid_wrong = fidelity(corrected, wrong)
                assert fid_orig < 1e-10, (
                    f"N={n_qubits}, dL={delta_l}, k={k}, e={delta_l + 1}: "
                    f"fidelity vs original {fid_orig:.3e} not < 1e-10"
                )
                assert fid_wrong > 1.0 - 1e-10, (
                    f"N={n_qubits}, dL={delta_l}, k={k}, e={delta_l + 1}: "
                    f"fidelity vs predicted wrong codeword {fid_wrong:.15f}"
                )
    print(f"criterion 10: {checked} in-bound grid points recovered; "
          "every out-of-bound kick produced the predicted wrong codeword")


def test_criterion_11_monte_carlo_consistent_with_quadrature():
    t0 = time.perf_counter()
    m = CodeParams(2, 1, 1).m
    points = (
        ("truncated_gaussian", 2.0),
        ("cosine_power", 6.0),
        ("gaussian_envelope", 3.0),
        ("grating", 6.0),
    )
    rng = np.random.default_rng(13579)
    for family, parameter in points:
        approx = Approximant(family, parameter)
        quad = pe_quadrature(approx, m).value
        mc = pe_monte_carlo(approx, m, 100_000, rng)
        pull = abs(mc.value - quad) / mc.error_estimate
        print(
            f"criterion 11: {family}({parameter:g}): mc={mc.value:.6f} "
            f"quad={quad:.6f} pull={pull:.2f} sigma"
        )
        assert abs(mc.value - quad) <= 3.0 * mc.error_estimate, (
            f"{family}({parameter:g}): |{mc.value:.6f} - {quad:.6f}| "
            f"> 3 sigma = {3.0 * mc.error_estimate:.6f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_12_logical_gate_semantics():
    params = CodeParams(2, 2, 1)
    r, n, m = params.r, params.n, params.m
    for j in (1, 2):
        op = qubit_X(j, r)
        for k in range(n):
            moved = apply(op, ideal_codeword(params, k))
            lo, hi = moved.support_hull()
            target_k = k ^ (1 << (j - 1))
            fid = fidelity(moved, ideal_comb((target_k * r) % m, m, lo, hi))
            assert fid > 1.0 - 1e-12, (
                f"X_{j} on |{k}>: fidelity vs |{target_k}> is {fid:.15f}"
            )
    signs = {}
    cz = phase_gate(1, 2, r)
    for k in range(n):
        word = ideal_codeword(params, k)
        overlap = inner(apply(cz, word), word)
        signs[k] = overlap
        expected = -1.0 if k == 3 else 1.0
        assert abs(overlap - expected) < 1e-12, (
            f"phase gate on |{k}>: <out|in> = {overlap}, expected {expected:+.0f}"
        )
    print(
        "criterion 12: X_j flips exactly its target digit; phase gate signs "
        + ", ".join(f"|{k}> -> {signs[k].real:+.0f}" for k in range(n))
    )

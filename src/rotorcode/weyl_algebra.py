"""Shift-diagonal operator algebra for the rotor.

Every operator used by the encoding is a finite sum of terms

    (shift k, diagonal f):   a_l |l>  ->  f(l) a_l |l + k>,

kept symbolic (never materialized as a matrix), so application is exact on
any window and evaluates diagonals only where the state has weight.  The
constructors cover the rotor Weyl pair (V, e^{i alpha L}), the encoded
qubit/qudit Weyl pairs, the entangling phase gate, and the stabilizer pair.

Floor convention: floor(l / k) rounds toward -infinity for negative l
(python integer division), which is what makes the digit patterns periodic
over the whole lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .code_space import _check_window_size
from .rotor_state import RotorState, from_amplitudes

DiagonalFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ShiftDiagonalOperator:
    """Sum of (momentum shift, momentum-diagonal function) terms.

    Diagonal functions must be pure and accept an int64 array of momenta,
    returning complex values; the operator's action is the sum over terms.
    """

    terms: tuple[tuple[int, DiagonalFn], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("operator needs at least one term")
        object.__setattr__(
            self, "terms", tuple((int(k), f) for k, f in self.terms)
        )

    @property
    def max_abs_shift(self) -> int:
        return max(abs(k) for k, _ in self.terms)

    def shifts(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.terms)


def apply(op: ShiftDiagonalOperator, s: RotorState) -> RotorState:
    """The operator's action, exact on any window.

    The output window is the input's widened by the shift hull
    [min(0, min shift), max(0, max shift)], so no amplitude is ever lost.
    The output support is the union of the shifted supports, less the
    momenta where the terms cancel exactly.
    """
    shifts = op.shifts()
    lo = s.l_min + min(0, min(shifts))
    hi = s.l_max + max(0, max(shifts))
    _check_window_size(lo, hi)
    ls, amps = s.support, s.values
    if min(shifts) == max(shifts):
        out_ls = ls + shifts[0]
    else:
        out_ls = np.unique(np.concatenate([ls + k for k in shifts]))
    out = np.zeros(out_ls.shape[0], dtype=np.complex128)
    for k, f in op.terms:
        out[out_ls.searchsorted(ls + k)] += np.asarray(f(ls), dtype=np.complex128) * amps
    keep = out != 0
    if not keep.all():
        out_ls, out = out_ls[keep], out[keep]
    return RotorState(lo, hi, out_ls, out, abs(np.linalg.norm(out) - 1.0) <= 1e-12)


def identity() -> ShiftDiagonalOperator:
    return ShiftDiagonalOperator(((0, lambda ls: np.ones(ls.shape[0])),), "1")


def angle_shift(alpha: float) -> ShiftDiagonalOperator:
    """e^{i alpha L}: shifts |theta> -> |theta - alpha>; diagonal e^{i alpha l}."""
    a = float(alpha)

    def diag(ls: np.ndarray) -> np.ndarray:
        return np.exp(1j * a * ls)

    return ShiftDiagonalOperator(((0, diag),), f"exp(i {a} L)")


def momentum_shift(k: int) -> ShiftDiagonalOperator:
    """V^k: |l> -> |l + k>."""
    return ShiftDiagonalOperator(
        ((int(k), lambda ls: np.ones(ls.shape[0])),), f"V^{k}"
    )


def qudit_pair(
    j: int, d: int, r: int = 1
) -> tuple[ShiftDiagonalOperator, ShiftDiagonalOperator]:
    """Weyl pair (Z_j, X_j) of the j-th encoded qudit of dimension d.

    Z_j = omega^{floor(l / s)}, omega = e^{2 i pi / d}, s = d^{j-1} r.
    X_j = V^s - (1 - V^{-ds}) P_1 V^s, where P_1 projects onto digit 0
    (floor(l/s) = 0 mod d): the cyclic digit raise, sending digit d-1 back
    to 0 by the -ds shift.
    """
    if d < 2:
        raise ValueError("qudit dimension d must be >= 2")
    if j < 1 or r < 1:
        raise ValueError("need j >= 1 and r >= 1")
    s = d ** (j - 1) * r
    # omega^p from a table that is exact at quarter turns (4p = 0 mod d)
    p = np.arange(d)
    roots = np.exp(2j * np.pi * p / d)
    quarter = (4 * p) % d == 0
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * p[quarter] // d]

    def z_diag(ls: np.ndarray) -> np.ndarray:
        return roots[(ls // s) % d]

    def digit_top_after_shift(ls: np.ndarray) -> np.ndarray:
        # indicator of digit d-1, evaluated where P_1 acts (after V^s)
        return ((ls // s) % d == d - 1).astype(np.complex128)

    def one_minus_top(ls: np.ndarray) -> np.ndarray:
        return ((ls // s) % d != d - 1).astype(np.complex128)

    Z = ShiftDiagonalOperator(((0, z_diag),), f"Z_{j}^({d})")
    X = ShiftDiagonalOperator(
        (
            (s, one_minus_top),
            (s - d * s, digit_top_after_shift),
        ),
        f"X_{j}^({d})",
    )
    return Z, X


def qubit_Z(j: int, r: int = 1) -> ShiftDiagonalOperator:
    """Z_j = (-1)^floor(l / (2^{j-1} r)): the d = 2 qudit clock."""
    return qudit_pair(j, 2, r)[0]


def qubit_X(j: int, r: int = 1) -> ShiftDiagonalOperator:
    """X_j: the d = 2 qudit raise, flipping digit j by V^{+-2^{j-1} r}."""
    return qudit_pair(j, 2, r)[1]


def phase_gate(j: int, k: int, r: int = 1) -> ShiftDiagonalOperator:
    """R_jk: diagonal two-qubit controlled-Z on digits j and k.

    Value (1 + (-1)^{l_j})/2 + (1 - (-1)^{l_j})/2 * (-1)^{l_k} with
    l_j = floor(l / (2^{j-1} r)): -1 exactly when both digits are odd.
    """
    if j == k:
        raise ValueError("phase gate needs two distinct qubit indices")
    if j < 1 or k < 1 or r < 1:
        raise ValueError("need j, k >= 1 and r >= 1")
    sj = 2 ** (j - 1) * r
    sk = 2 ** (k - 1) * r

    def diag(ls: np.ndarray) -> np.ndarray:
        pj = (ls // sj) % 2
        pk = (ls // sk) % 2
        return np.where((pj == 1) & (pk == 1), -1.0, 1.0).astype(np.complex128)

    return ShiftDiagonalOperator(((0, diag),), f"R_{j}{k}")


def stabilizer_ops(params) -> tuple[ShiftDiagonalOperator, ShiftDiagonalOperator]:
    """(S_theta, S_L) = (V^m, diag e^{2 i pi l / r}) for the given code."""
    m, r = params.m, params.r

    def sl_diag(ls: np.ndarray) -> np.ndarray:
        return np.exp(2j * np.pi * (ls % r) / r)

    s_theta = ShiftDiagonalOperator(
        ((m, lambda ls: np.ones(ls.shape[0])),), "S_theta"
    )
    s_l = ShiftDiagonalOperator(((0, sl_diag),), "S_L")
    return s_theta, s_l


def residual_rotor_phase(alpha: float, m: int) -> ShiftDiagonalOperator:
    """e^{i alpha floor(L/m)}: the residual rotor's angle shift."""
    a = float(alpha)

    def diag(ls: np.ndarray) -> np.ndarray:
        return np.exp(1j * a * (ls // m))

    return ShiftDiagonalOperator(((0, diag),), f"exp(i {a} floor(L/{m}))")


def compose(
    a: ShiftDiagonalOperator, b: ShiftDiagonalOperator
) -> ShiftDiagonalOperator:
    """Operator product a.b: applying the composite equals b then a.

    Term rule: (s_a, f_a)(s_b, f_b) = (s_a + s_b, l -> f_a(l + s_b) f_b(l)).
    """

    def product(fa: DiagonalFn, fb: DiagonalFn, sb: int) -> DiagonalFn:
        def diag(ls: np.ndarray) -> np.ndarray:
            return np.asarray(fa(ls + sb)) * np.asarray(fb(ls))

        return diag

    terms = tuple(
        (sa + sb, product(fa, fb, sb)) for sa, fa in a.terms for sb, fb in b.terms
    )
    return ShiftDiagonalOperator(terms, f"{a.label}.{b.label}")


def _aligned_difference(x: RotorState, y: RotorState) -> float:
    ls = np.union1d(x.support, y.support)
    buf = np.zeros(ls.shape[0], dtype=np.complex128)
    buf[ls.searchsorted(x.support)] += x.values
    buf[ls.searchsorted(y.support)] -= y.values
    return float(np.linalg.norm(buf))


def commutator_norm(
    a: ShiftDiagonalOperator,
    b: ShiftDiagonalOperator,
    probes: Sequence[RotorState],
) -> float:
    """max over probes of || (ab - ba) |probe> ||."""
    worst = 0.0
    for p in probes:
        ab = apply(a, apply(b, p))
        ba = apply(b, apply(a, p))
        worst = max(worst, _aligned_difference(ab, ba))
    return worst


def operator_difference_norm(
    a: ShiftDiagonalOperator,
    b: ShiftDiagonalOperator,
    probes: Sequence[RotorState],
) -> float:
    """max over probes of || (a - b) |probe> ||: action-level operator equality."""
    worst = 0.0
    for p in probes:
        worst = max(worst, _aligned_difference(apply(a, p), apply(b, p)))
    return worst


def scaled(op: ShiftDiagonalOperator, factor: complex) -> ShiftDiagonalOperator:
    """The operator multiplied by a scalar."""

    def scale(f: DiagonalFn) -> DiagonalFn:
        def diag(ls: np.ndarray) -> np.ndarray:
            return factor * np.asarray(f(ls))

        return diag

    return ShiftDiagonalOperator(
        tuple((k, scale(f)) for k, f in op.terms), f"({factor})*{op.label}"
    )


def random_probes(
    rng: np.random.Generator,
    count: int = 20,
    window_half: int = 256,
    support: int = 8,
    margin: int = 64,
) -> list[RotorState]:
    """count >= 1 random sparse normalized states on [-window_half, window_half].

    Support momenta are drawn inside [-window_half + margin,
    window_half - margin]; the margin only fixes that draw range.
    """
    if count < 1:
        raise ValueError(f"need at least one probe state, got {count}")
    if margin >= window_half:
        raise ValueError("margin must be smaller than window_half")
    probes = []
    for _ in range(count):
        ls = rng.integers(
            -window_half + margin, window_half - margin + 1, size=support
        )
        amps = rng.normal(size=support) + 1j * rng.normal(size=support)
        buf = np.zeros(2 * window_half + 1, dtype=np.complex128)
        np.add.at(buf, ls + window_half, amps)  # a repeated momentum sums its draws
        probes.append(from_amplitudes(-window_half, buf))
    return probes


def invariant_residuals(
    r: int,
    rng: np.random.Generator,
    probes: int = 20,
    corrupt: bool = False,
) -> list[tuple[str, float]]:
    """Action residuals of the defining operator identities, one per check.

    All residuals are exact zeros of the algebra (up to float rounding) for
    a correct implementation.  The qubit pair is checked against the paper's
    literal formulas Z = (-1)^floor(l/r), X = ((1+Z) V^{-r} + V^r (1+Z)) / 2.
    With corrupt=True, X_1 gains the term 0.5e-6 V^{-r}; six identities
    flag it (the others hold because V^{-r} anticommutes with Z_1 and
    commutes with both stabilizers).
    """
    ps = random_probes(rng, count=probes)
    one = identity()
    X1, Z1 = qubit_X(1, r), qubit_Z(1, r)
    if corrupt:
        X1 = ShiftDiagonalOperator(
            X1.terms + scaled(momentum_shift(-r), 0.5e-6).terms, "X_1(corrupted)"
        )
    # the literal qubit pair, the reference of the two "qudit d=2" rows
    Z_lit = ShiftDiagonalOperator(((0, lambda ls: 1.0 - 2.0 * ((ls // r) % 2)),))
    half_1pZ = scaled(ShiftDiagonalOperator(one.terms + Z_lit.terms), 0.5)
    X_lit = ShiftDiagonalOperator(
        compose(half_1pZ, momentum_shift(-r)).terms
        + compose(momentum_shift(r), half_1pZ).terms
    )
    X2, Z2 = qubit_X(2, r), qubit_Z(2, r)
    Zq3, Xq3 = qudit_pair(1, 3, r)
    omega = complex(np.exp(2j * np.pi / 3.0))
    R12, R21 = phase_gate(1, 2, r), phase_gate(2, 1, r)
    S_theta, S_L = stabilizer_ops(SimpleNamespace(m=4 * r, r=r))
    T = residual_rotor_phase(0.7, 4 * r)
    V, Vdag = momentum_shift(1), momentum_shift(-1)

    checks: list[tuple[str, float]] = [
        ("X1.X1 = 1", operator_difference_norm(compose(X1, X1), one, ps)),
        ("Z1.Z1 = 1", operator_difference_norm(compose(Z1, Z1), one, ps)),
        (
            "X1.Z1 = -Z1.X1",
            operator_difference_norm(
                compose(X1, Z1), scaled(compose(Z1, X1), -1.0), ps
            ),
        ),
        ("[X1, Z2] = 0", commutator_norm(X1, Z2, ps)),
        ("[X1, X2] = 0", commutator_norm(X1, X2, ps)),
        ("[Z1, Z2] = 0", commutator_norm(Z1, Z2, ps)),
        ("qudit d=2 X matches qubit X", operator_difference_norm(X1, X_lit, ps)),
        ("qudit d=2 Z matches qubit Z", operator_difference_norm(Z1, Z_lit, ps)),
        (
            "d=3: X.X.X = 1",
            operator_difference_norm(compose(Xq3, compose(Xq3, Xq3)), one, ps),
        ),
        (
            "d=3: Z.Z.Z = 1",
            operator_difference_norm(compose(Zq3, compose(Zq3, Zq3)), one, ps),
        ),
        (
            "d=3: Z.X = omega X.Z",
            operator_difference_norm(
                compose(Zq3, Xq3), scaled(compose(Xq3, Zq3), omega), ps
            ),
        ),
        ("R12.R12 = 1", operator_difference_norm(compose(R12, R12), one, ps)),
        ("R12 = R21", operator_difference_norm(R12, R21, ps)),
        (
            "R12.X1.R12 = X1.Z2",
            operator_difference_norm(
                compose(R12, compose(X1, R12)), compose(X1, Z2), ps
            ),
        ),
        ("[R12, Z1] = 0", commutator_norm(R12, Z1, ps)),
        ("[S_theta, S_L] = 0", commutator_norm(S_theta, S_L, ps)),
        ("[S_theta, X1] = 0", commutator_norm(S_theta, X1, ps)),
        ("[S_theta, Z1] = 0", commutator_norm(S_theta, Z1, ps)),
        ("[S_L, X1] = 0", commutator_norm(S_L, X1, ps)),
        ("[S_L, Z1] = 0", commutator_norm(S_L, Z1, ps)),
        (
            "residual rotor: T.S_theta = e^{ia} S_theta.T",
            operator_difference_norm(
                compose(T, S_theta),
                scaled(compose(S_theta, T), complex(np.exp(0.7j))),
                ps,
            ),
        ),
        ("residual rotor: [T, X1] = 0", commutator_norm(T, X1, ps)),
        ("residual rotor: [T, Z1] = 0", commutator_norm(T, Z1, ps)),
        ("residual rotor: [T, S_L] = 0", commutator_norm(T, S_L, ps)),
        ("V.V† = 1", operator_difference_norm(compose(V, Vdag), one, ps)),
        (
            "e^{iaL}.e^{-iaL} = 1",
            operator_difference_norm(
                compose(angle_shift(0.7), angle_shift(-0.7)), one, ps
            ),
        ),
        (
            "e^{iaL}.V = e^{ia} V.e^{iaL}",
            operator_difference_norm(
                compose(angle_shift(0.7), V),
                scaled(compose(V, angle_shift(0.7)), complex(np.exp(0.7j))),
                ps,
            ),
        ),
    ]
    return checks


__all__ = [
    "ShiftDiagonalOperator",
    "apply",
    "identity",
    "angle_shift",
    "momentum_shift",
    "qubit_Z",
    "qubit_X",
    "qudit_pair",
    "phase_gate",
    "stabilizer_ops",
    "residual_rotor_phase",
    "compose",
    "commutator_norm",
    "operator_difference_norm",
    "scaled",
    "random_probes",
    "invariant_residuals",
]

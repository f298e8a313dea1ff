"""Seeded op mixes for the three workloads, their execution and output checks.

A workload is a fixed deck of op slots. Each pass over the deck draws every
slot's exact inputs (parameters jittered by a few percent, logical index,
gate digit, drift, kick sign, per-op RNG seed) from ``(seed, pass index)``
and shuffles the order, so every pass has the same composition and the same
seed always gives the same inputs.

Workloads (all closed loop, one client, one process):

* ``cli_sweep``: in-process ``rotorcode.cli.main`` ``sweep``/``pe`` calls
  over all four families at N = 1, 5, 10 (d = 2, delta_L = 1), mostly
  quadrature, plus closed-form, asymptotic, pure-guess and 100k-trial Monte
  Carlo. No codeword is built: this is the bypass workload for encode, angle
  and round-trip changes.
* ``cli_roundtrip``: in-process ``roundtrip`` calls with 100k trials (ideal
  and all families, N = 1, 5, 10, sampled and expected syndromes, kicks and
  drifts inside and outside the protected range) with ``codeword`` and
  ``check`` calls interleaved. Per-trial records and CSV output dominate.
* ``codec_angle``: library calls. Each op encodes, applies one logical gate,
  reads the angle out (4096-point grid, one inverse-CDF draw, psi at 64
  scattered angles), then corrupts, diagnoses, corrects and takes the
  fidelity. Envelope quadrature, psi evaluation and the operator algebra
  dominate.

Known defects stay in the mix and count as failed ops; see KNOWN_DEFECTS.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from rotorcode import analysis, cli, code_space, noise_correction, rotor_state, weyl_algebra

WORKLOADS = ("cli_sweep", "cli_roundtrip", "codec_angle")

# analysis.angle_deviation_sampler tabulates the gauss-env angle density as a
# (2^17 + 1) x (ceil(6 sigma) + 41) float64 cosine matrix. numpy raises an
# uncaught ArrayMemoryError (a traceback, not exit 1 or 2) when it does not
# fit, so the generator never asks for a table above this budget. That
# excludes every gauss-env sampling input at N = 10, where a codeword needs
# sigma >= m/4 (4.9 GB and up). cos-power codewords at m >= 768 are not
# generated either: they need gamma ~ m^2, i.e. 10^5-10^7 quadratures.
SAMPLER_GRID_POINTS = (1 << 17) + 1
SAMPLER_TABLE_BUDGET = int(1.5 * 2**30)

# Known defects of the program, by the text their failure leaves; both hit
# trunc-gauss ops only. A failure counts as known only if it carries one.
KNOWN_DEFECTS = {
    # The envelope coefficients come from one quadrature per momentum, and the
    # encode's tail check raises NumericalError (CLI exit 2) when their
    # squares miss more than 1e-12 of the mass. That always happens at
    # m >= 768 with xi >= m (~2e-3 missed); the mix keeps one such op per
    # pass. It also happens sporadically, e.g. m = 64, xi = 26.29509364.
    "misses envelope mass": "trunc-gauss envelope quadrature loses mass",
    # pe_quadrature asks QUADPACK for 1e-12 but now and then lands further
    # from the closed form: 7e-9 relative at N = 1, xi = 4.596807787, about
    # once in 4000 grid points. Errors above 1e-6 are not this defect.
    "quadrature strays from closed form": "trunc-gauss p_e quadrature misses 1e-9",
}

TRIALS = 100_000
ANGLE_RESOLUTION = 4096
GRID_THETAS = 48
OFF_GRID_THETAS = 16

FAMILY_CLI = {
    "truncated_gaussian": ("trunc-gauss", "--xi"),
    "cosine_power": ("cos-power", "--gamma"),
    "gaussian_envelope": ("gauss-env", "--sigma"),
    "grating": ("grating", "--slits"),
}


@dataclass
class Op:
    """One request: a CLI argv (``cli``) or a library call sequence (``codec``)."""

    kind: str
    label: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    known_defect: str | None = None


@dataclass
class Outcome:
    """What one op did: its latency, whether it passed, and why not."""

    label: str
    elapsed: float
    ok: bool
    failure: str = ""
    known_defect: bool = False
    digest: str = ""


def sampler_table_bytes(sigma: float) -> int:
    return SAMPLER_GRID_POINTS * (math.ceil(6.0 * sigma) + 41) * 8


def within_sampler_budget(family: str, parameter: float) -> bool:
    if family != "gaussian_envelope":
        return True
    return sampler_table_bytes(parameter) <= SAMPLER_TABLE_BUDGET


def tg_defect(family: str, parameter: float, m: int) -> str | None:
    """Names the known defect when this encode always hits it."""
    if family == "truncated_gaussian" and m >= 768 and parameter >= m:
        return "tg-envelope-mass"
    return None


def _code_m(d: int, N: int, delta_L: int) -> int:
    return d**N * (2 * delta_L + 1)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


# ---------------------------------------------------------------- generation


def _jitter(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.97, 1.03))


def _cli_sweep_deck(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for N in (1, 5, 10):
        m = _code_m(2, N, 1)
        code = ["--N", str(N), "--d", "2", "--delta-L", "1"]

        def add(family: str, grid: list[float], method: str, seeded: bool = False) -> None:
            cli_name, flag = FAMILY_CLI[family]
            if family == "grating":
                grid = sorted({float(round(g)) for g in grid})
            grid = [float(_fmt(g)) for g in grid]
            if len(grid) == 1:
                argv = ["pe", *code, "--family", cli_name, flag, _fmt(grid[0])]
            else:
                argv = ["sweep", *code, "--family", cli_name,
                        "--grid", ",".join(_fmt(g) for g in grid)]
            argv += ["--method", method]
            if seeded:
                argv += ["--trials", str(TRIALS), "--seed", str(int(rng.integers(1 << 31)))]
            ops.append(Op(
                "cli", f"{argv[0]} {cli_name} {method} N={N}", argv,
                {"check": "pe_rows", "family": family, "grid": grid, "m": m,
                 "method": method},
            ))

        def scaled(lo: float, hi: float, count: int) -> list[float]:
            return list(np.linspace(lo * m, hi * m, count) * _jitter(rng))

        # Most ops are quadrature sweeps. The deck's shape keeps p50_ms and
        # tail_ms inside groups of ops of about equal cost: as many ops cost
        # less than the trunc-gauss / cos-power sweeps at N = 5, 10 (~5 ms)
        # as cost more, and the three grating ops at N = 10 are the slowest.
        for lo, hi in ((0.25, 1.4), (0.5, 1.0), (0.3, 1.2)):
            add("truncated_gaussian", scaled(lo, hi, 9), "quadrature")
        for lo, hi in ((0.5, 4.0), (1.0, 2.0), (0.75, 3.0)):
            add("cosine_power", scaled(lo, hi, 9), "quadrature")
        for lo, hi in ((0.25, 2.0), (0.5, 1.0), (0.3, 1.5))[: 3 if N == 5 else 1]:
            add("gaussian_envelope", scaled(lo, hi, 9), "quadrature")
        if N < 10:
            add("grating", scaled(1.0, 3.0, 9), "quadrature")
        else:
            # one slit count per op (~0.45 s each)
            for _ in range(3):
                add("grating", scaled(1.0, 1.0, 1), "quadrature")
        for lo, hi in ((0.25, 4.0), (0.5, 2.0)):
            add("truncated_gaussian", scaled(lo, hi, 7), "closed-form")
        for lo, hi in ((1.0, 4.0), (1.5, 3.0)):
            add("truncated_gaussian", scaled(lo, hi, 7), "asymptotic")
        add("truncated_gaussian", [float(m)], "pure-guess")
        for family, factor in (
            ("truncated_gaussian", 0.5),
            ("cosine_power", 1.0),
            ("grating", 1.0),
            ("gaussian_envelope", 0.25),
        ):
            value = scaled(factor, factor, 1)
            if within_sampler_budget(family, value[0]):
                add(family, value, "monte-carlo", seeded=True)
    return ops


# (family, N, parameter factor of m, or of m^2 for cos-power; kick; drift;
# syndrome). Kick "in" is |e| <= delta_L, "out" aliases onto another codeword;
# drift "in" stays inside the sector (-pi/m, pi/m], "out" leaves it. The
# trunc-gauss slot at N = 10 is the known envelope-mass defect; the gauss-env
# slot at N = 10 is always dropped by the sampler memory budget. The four
# cos-power / gauss-env slots at N = 5 are the slowest successes and cost
# about the same, which keeps tail_ms steady.
ROUNDTRIP_SLOTS = (
    (None, 1, None, "in", "in", "sampled"),
    (None, 5, None, "out", "in", "expected"),
    (None, 10, None, "in", "out", "sampled"),
    (None, 10, None, "out", "out", "expected"),
    ("truncated_gaussian", 1, 1.0, "in", "in", "sampled"),
    ("truncated_gaussian", 5, 0.4, "out", "in", "expected"),
    ("truncated_gaussian", 10, 1.0, "in", "in", "sampled"),
    ("cosine_power", 1, 1.0, "in", "in", "expected"),
    ("cosine_power", 5, 0.5, "out", "in", "sampled"),
    ("cosine_power", 5, 0.5, "in", "in", "expected"),
    ("gaussian_envelope", 1, 0.5, "in", "in", "sampled"),
    ("gaussian_envelope", 5, 0.25, "in", "out", "expected"),
    ("gaussian_envelope", 5, 0.25, "out", "in", "sampled"),
    ("gaussian_envelope", 10, 0.5, "in", "in", "sampled"),
    ("grating", 1, 1.5, "in", "in", "expected"),
    ("grating", 5, 1.5, "out", "in", "sampled"),
    ("grating", 10, 1.5, "in", "in", "sampled"),
)


def _family_value(family: str, factor: float, m: int, rng: np.random.Generator) -> float:
    base = factor * (m * m if family == "cosine_power" else m)
    if family == "truncated_gaussian" and factor >= 1.0:
        value = base * float(rng.uniform(1.0, 1.06))  # keeps xi >= m
    else:
        value = base * _jitter(rng)
    if family == "grating":
        return float(int(round(value)))
    return float(_fmt(value))


def _kick(kind: str, delta_L: int, rng: np.random.Generator) -> int:
    sign = 1 if rng.random() < 0.5 else -1
    if kind == "in":
        return sign * int(rng.integers(0, delta_L + 1))
    r = 2 * delta_L + 1
    return sign * int(rng.integers(delta_L + 1, r + delta_L + 1))


def _drift(kind: str, m: int, rng: np.random.Generator) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    frac = rng.uniform(0.0, 0.8) if kind == "in" else rng.uniform(1.2, 2.8)
    return float(_fmt(sign * frac * math.pi / m))


def _cli_roundtrip_deck(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    delta_L = 1
    for family, N, factor, kick_kind, drift_kind, syndrome in ROUNDTRIP_SLOTS:
        m = _code_m(2, N, delta_L)
        argv = ["roundtrip", "--N", str(N), "--d", "2", "--delta-L", str(delta_L)]
        value = None
        defect = None
        if family is None:
            argv += ["--family", "ideal"]
            cli_name = "ideal"
        else:
            value = _family_value(family, factor, m, rng)
            if not within_sampler_budget(family, value):
                continue
            cli_name, flag = FAMILY_CLI[family]
            argv += ["--family", cli_name, flag, _fmt(value)]
            defect = tg_defect(family, value, m)
        e = _kick(kick_kind, delta_L, rng)
        eps = _drift(drift_kind, m, rng)
        k = int(rng.integers(2**N))
        # signed values go after "=": argparse reads "-4e-05" as an option
        argv += ["--k", str(k), f"--epsilon={_fmt(eps)}", f"--kick={e}",
                 "--trials", str(TRIALS), "--seed", str(int(rng.integers(1 << 31))),
                 "--syndrome", syndrome]
        ops.append(Op(
            "cli", f"roundtrip {cli_name} N={N} kick={kick_kind} drift={drift_kind} {syndrome}",
            argv,
            {"check": "roundtrip", "family": family, "m": m, "n": 2**N,
             "delta_L": delta_L, "e": e, "epsilon": eps},
            defect,
        ))
    for family, N, factor in (("truncated_gaussian", 5, 0.4), ("grating", 10, 1.5),
                              ("cosine_power", 1, 1.0)):
        m = _code_m(2, N, 1)
        value = _family_value(family, factor, m, rng)
        cli_name, flag = FAMILY_CLI[family]
        k = int(rng.integers(2**N))
        ops.append(Op(
            "cli", f"codeword {cli_name} N={N}",
            ["codeword", "--N", str(N), "--d", "2", "--delta-L", "1",
             "--family", cli_name, flag, _fmt(value), "--k", str(k)],
            {"check": "codeword", "family": family, "m": m, "r": 3, "k": k},
        ))
    for delta_L in (0, 2):
        ops.append(Op(
            "cli", f"check delta_L={delta_L}",
            ["check", "--delta-L", str(delta_L), "--seed",
             str(int(rng.integers(1 << 31)))],
            {"check": "check"},
        ))
    return ops


# (d, N, delta_L, family, parameter factor of m or of m^2 for cos-power,
# gate kind, syndrome mode). The trunc-gauss slot at N = 8 with factor 1.0 is
# the known envelope-mass defect.
CODEC_SLOTS = (
    (2, 1, 0, None, None, "X", "expected"),
    (2, 1, 2, "cosine_power", 1.0, "Z", "sampled"),
    (2, 2, 1, "gaussian_envelope", 0.4, "R", "sampled"),
    (2, 3, 1, "truncated_gaussian", 0.4, "X", "expected"),
    (2, 4, 2, "grating", 1.5, "qX", "sampled"),
    (2, 4, 1, None, None, "R", "sampled"),
    (2, 4, 2, "truncated_gaussian", 0.4, "Z", "expected"),
    (2, 5, 1, "truncated_gaussian", 0.35, "X", "sampled"),
    (2, 5, 1, "gaussian_envelope", 0.4, "R", "expected"),
    (2, 6, 0, "truncated_gaussian", 0.4, "qX", "sampled"),
    (2, 7, 0, None, None, "X", "expected"),
    (2, 5, 0, "cosine_power", 1.0, "qZ", "expected"),
    (2, 6, 1, "gaussian_envelope", 0.4, "qX", "expected"),
    (2, 7, 0, "grating", 1.5, "Z", "sampled"),
    (2, 8, 1, "truncated_gaussian", 0.4, "X", "expected"),
    (2, 8, 1, "truncated_gaussian", 1.0, "X", "sampled"),
    (3, 1, 1, "gaussian_envelope", 0.4, "qX", "sampled"),
    (3, 2, 2, None, None, "qZ", "expected"),
    (3, 3, 1, "grating", 1.5, "qX", "expected"),
    (3, 3, 1, None, None, "qZ", "sampled"),
    (3, 4, 0, "gaussian_envelope", 0.4, "qX", "expected"),
    (3, 4, 0, "cosine_power", 1.0, "qX", "sampled"),
    (3, 5, 0, "truncated_gaussian", 0.4, "qX", "expected"),
)


def _codec_deck(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for d, N, delta_L, family, factor, gate, syndrome in CODEC_SLOTS:
        m = _code_m(d, N, delta_L)
        value = None if family is None else _family_value(family, factor, m, rng)
        # gates act on the low digits: a gate's shift widens the window that
        # every later step works on, and a high digit would make an op's cost
        # depend on the draw
        j = int(rng.integers(1, min(N, 3) + 1))
        j2 = int(rng.choice([i for i in range(1, N + 1) if i != j])) if gate == "R" else 0
        idx = rng.choice(ANGLE_RESOLUTION, size=GRID_THETAS, replace=False)
        wraps = rng.integers(-3, 4, size=GRID_THETAS)
        off_grid = rng.uniform(-4 * math.pi, 4 * math.pi, size=OFF_GRID_THETAS)
        ops.append(Op(
            "codec",
            f"codec d={d} N={N} dL={delta_L} {family or 'ideal'} {gate} {syndrome}",
            params={
                "d": d, "N": N, "delta_L": delta_L, "family": family, "value": value,
                "k": int(rng.integers(d**N)), "gate": gate, "j": j, "j2": j2,
                "e": _kick("in", delta_L, rng), "epsilon": _drift("in", m, rng),
                "syndrome": syndrome, "seed": int(rng.integers(1 << 31)),
                "grid_idx": idx, "grid_wraps": wraps, "off_grid": off_grid,
            },
            known_defect=None if family is None else tg_defect(family, value, m),
        ))
    return ops


DECKS = {
    "cli_sweep": _cli_sweep_deck,
    "cli_roundtrip": _cli_roundtrip_deck,
    "codec_angle": _codec_deck,
}


def make_pass(workload: str, seed: int, index: int, tiny: bool = False) -> list[Op]:
    """The ops of pass ``index``: the workload's deck, drawn and shuffled.

    ``tiny`` keeps only the ops at register sizes N <= 2 (for quick tests).
    """
    rng = np.random.default_rng([seed, index])
    ops = DECKS[workload](rng)
    if tiny:
        ops = [op for op in ops if _is_tiny(op)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _is_tiny(op: Op) -> bool:
    if op.kind == "codec":
        return op.params["N"] <= 2
    if op.argv[0] == "check":
        return True
    return int(op.argv[op.argv.index("--N") + 1]) <= 1


# ---------------------------------------------------------------- execution


class Runner:
    """Runs ops, times them, checks their outputs.

    Only the library or CLI calls are timed; output checks and file cleanup
    run outside the timed region. CLI ops write their CSV to a fresh file
    under ``out_dir``, removed after the check.
    """

    def __init__(self, out_dir: str, digests: bool = False):
        self.out_dir = out_dir
        self.digests = digests
        self._count = 0
        self._quad_ref: dict[tuple, float] = {}
        self.tracer = None
        os.makedirs(out_dir, exist_ok=True)

    def run(self, op: Op, op_id: int = 0) -> Outcome:
        if op.kind == "cli":
            return self._run_cli(op, op_id)
        return self._run_codec(op, op_id)

    # -- timing helpers

    def _timed(self, op_id: int):
        tracer = self.tracer
        return tracer.op(op_id) if tracer is not None else contextlib.nullcontext()

    def _finish(self, op: Op, elapsed: float, failure: str, digest: str = "") -> Outcome:
        return Outcome(
            label=op.label,
            elapsed=elapsed,
            ok=not failure,
            failure=failure,
            known_defect=op.params.get("family") == "truncated_gaussian"
            and any(signature in failure for signature in KNOWN_DEFECTS),
            digest=digest,
        )

    # -- CLI ops

    def _run_cli(self, op: Op, op_id: int) -> Outcome:
        self._count += 1
        path = os.path.join(self.out_dir, f"op{self._count}.csv")
        argv = op.argv + ["--output", path]
        err = io.StringIO()
        failure = ""
        with self._timed(op_id), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as ex:  # an uncaught error is a failed op, not a crash
                rc = None
                failure = f"raised {type(ex).__name__}: {ex}"
            elapsed = time.perf_counter() - t0
        digest = ""
        if not failure and rc != 0:
            failure = f"exit {rc}: {err.getvalue().strip()[:200]}"
        try:
            if not failure:
                with open(path, "rb") as fh:
                    data = fh.read()
                if self.digests:
                    digest = hashlib.sha256(data).hexdigest()
                failure = self._check_cli(op, data.decode("utf-8"))
        finally:
            if os.path.exists(path):
                os.unlink(path)
        return self._finish(op, elapsed, failure, digest)

    def _check_cli(self, op: Op, text: str) -> str:
        kind = op.params["check"]
        if kind == "pe_rows":
            return self._check_pe_rows(op.params, text)
        if kind == "roundtrip":
            return self._check_roundtrip(op.params, text)
        if kind == "codeword":
            return self._check_codeword(op.params, text)
        if kind == "check":
            if "# failures: 0/" not in text:
                return "check suite reported failures"
            return ""
        raise ValueError(f"unknown check {kind!r}")

    def _quadrature(self, family: str, value: float, m: int) -> float:
        key = (family, value, m)
        if key not in self._quad_ref:
            approx = code_space.Approximant(family, value)
            self._quad_ref[key] = analysis.pe_quadrature(approx, m).value
        return self._quad_ref[key]

    def _check_pe_rows(self, p: dict, text: str) -> str:
        rows = list(csv.DictReader(line for line in text.splitlines()
                                   if not line.startswith("#")))
        if len(rows) != len(p["grid"]):
            return f"{len(rows)} rows for {len(p['grid'])} grid points"
        m, method, family = p["m"], p["method"], p["family"]
        values = [float(row["p_e"]) for row in rows]
        for x, v, row in zip(p["grid"], values, rows):
            if not 0.0 <= v <= 1.0:
                return f"p_e {v} outside [0, 1] at {x}"
            if method == "pure-guess":
                ref, tol = 1.0 - 1.0 / m, 0.0
            elif method == "closed-form":
                ref, tol = _closed_form_pe(x, m), 1e-9
            elif method == "asymptotic":
                ref, tol = _asymptotic_pe(x, m), 1e-9
            elif method == "quadrature" and family == "truncated_gaussian":
                ref, tol = _closed_form_pe(x, m), 1e-9
            elif method == "monte-carlo":
                if family == "truncated_gaussian":
                    ref = _closed_form_pe(x, m)
                else:
                    ref = self._quadrature(family, x, m)
                se = float(row["error_estimate"])
                if abs(v - ref) > 5.0 * se:
                    return f"monte-carlo {v} vs {ref} is beyond 5 SE ({se}) at {x}"
                continue
            else:
                continue
            rel = abs(v - ref) / abs(ref) if ref else abs(v)
            if rel > tol:
                if method == "quadrature" and rel <= 1e-6:
                    return (f"quadrature strays from closed form: {v!r} vs {ref!r} "
                            f"at {x} ({rel:.1e} relative)")
                return f"{method} p_e {v!r} vs reference {ref!r} at {x}"
        if method == "quadrature" and family in ("cosine_power", "gaussian_envelope"):
            if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
                return f"{family} p_e not non-increasing in its parameter"
        return ""

    def _check_roundtrip(self, p: dict, text: str) -> str:
        summary = {}
        for line in text.splitlines():
            if line.startswith("# summary:"):
                for item in line[len("# summary:"):].split():
                    key, _, value = item.partition("=")
                    summary[key] = float(value)
                break
        else:
            return "no summary line"
        trials = int(summary["trials"])
        data_rows = text.count("\n") - 3  # config, summary, header
        if trials != TRIALS or data_rows != TRIALS:
            return f"{data_rows} rows / trials={trials}, expected {TRIALS}"
        e, delta_L, n, m = p["e"], p["delta_L"], p["n"], p["m"]
        r = 2 * delta_L + 1
        q = (e + delta_L) % r - delta_L
        aliases = ((e - q) // r) % n != 0
        want_momentum = trials if aliases else 0
        if int(summary["momentum_errors"]) != want_momentum:
            return f"momentum_errors={summary['momentum_errors']}, expected {want_momentum}"
        in_sector = abs(p["epsilon"]) < math.pi / m
        if p["family"] is None:
            want_angle = 0 if in_sector else trials
            if int(summary["angle_errors"]) != want_angle:
                return f"ideal angle_errors={summary['angle_errors']}, expected {want_angle}"
        if abs(e) <= delta_L and in_sector and summary["state_fidelity"] < 1.0 - 1e-9:
            return f"in-range state fidelity {summary['state_fidelity']}"
        return ""

    def _check_codeword(self, p: dict, text: str) -> str:
        rows = list(csv.DictReader(line for line in text.splitlines()
                                   if not line.startswith("#")))
        total = math.fsum(float(row["probability"]) for row in rows)
        if abs(total - 1.0) > 1e-12:
            return f"codeword probabilities sum to {total!r}"
        for row in rows:
            if (int(row["l"]) - p["k"] * p["r"]) % p["m"] != 0:
                return f"codeword weight off the comb at l={row['l']}"
        return ""

    # -- codec ops

    def _gate(self, p: dict, r: int):
        wa, gate, j, d = weyl_algebra, p["gate"], p["j"], p["d"]
        digits = list(code_space.k_to_digits(p["k"], code_space.CodeParams(d, p["N"], p["delta_L"])))
        if gate == "X":
            op = wa.qubit_X(j, r)
            digits[j - 1] ^= 1
        elif gate == "Z":
            op = wa.qubit_Z(j, r)
        elif gate == "R":
            op = wa.phase_gate(j, p["j2"], r)
        elif gate == "qX":
            op = wa.qudit_pair(j, d, r)[1]
            digits[j - 1] = (digits[j - 1] + 1) % d
        else:
            op = wa.qudit_pair(j, d, r)[0]
        return op, code_space.digits_to_k(digits, d)

    def _run_codec(self, op: Op, op_id: int) -> Outcome:
        p = op.params
        cs, rs, nc, wa = code_space, rotor_state, noise_correction, weyl_algebra
        params = cs.CodeParams(p["d"], p["N"], p["delta_L"])
        approx = None if p["family"] is None else cs.Approximant(p["family"], p["value"])
        gate_op, k_target = self._gate(p, params.r)
        rng = np.random.default_rng(p["seed"])
        grid_points = -math.pi + 2.0 * math.pi * p["grid_idx"] / ANGLE_RESOLUTION
        thetas = np.concatenate([grid_points + 2.0 * math.pi * p["grid_wraps"],
                                 p["off_grid"]])
        out = {}
        failure = ""
        with self._timed(op_id):
            t0 = time.perf_counter()
            try:
                word = cs.logical_encode(params, p["k"], approx)
                gated = wa.apply(gate_op, rs.pad_state(word, gate_op.max_abs_shift))
                grid = rs.angle_distribution(gated, ANGLE_RESOLUTION)
                theta = rs.sample_angle(gated, rng, ANGLE_RESOLUTION)
                psi = rs.theta_wavefunction(gated, thetas)
                hit = nc.apply_error(gated, nc.ErrorEvent(p["epsilon"], p["e"]))
                if p["syndrome"] == "sampled":
                    syndrome, post = nc.measure_syndrome_sampled(hit, params, rng)
                else:
                    syndrome, post = nc.measure_syndrome_expected(hit, params), hit
                fixed = nc.correct(post, syndrome, params)
                fid = rs.fidelity(fixed, gated)
                out = {"word": word, "gated": gated, "grid": grid, "theta": theta,
                       "psi": psi, "fixed": fixed, "fidelity": fid}
            except Exception as ex:  # a library error is a failed op, not a crash
                failure = f"raised {type(ex).__name__}: {ex}"
            elapsed = time.perf_counter() - t0
        digest = ""
        if not failure:
            failure = self._check_codec(p, params, k_target, out)
            if self.digests:
                digest = _codec_digest(out)
        return self._finish(op, elapsed, failure, digest)

    def _check_codec(self, p: dict, params, k_target: int, out: dict) -> str:
        m, r = params.m, params.r
        for name, state, k in (("codeword", out["word"], p["k"]),
                               ("gate output", out["gated"], k_target)):
            mass = np.abs(state.amplitudes) ** 2
            off = float(np.sum(mass[(state.ls - k * r) % m != 0])) / float(np.sum(mass))
            if off > 1e-12:
                return f"{name} has mass {off:.3e} off the comb class {k}r mod {m}"
        grid = out["grid"]
        total = grid.total_mass()
        if abs(total - 1.0) > 1e-9:
            return f"angle distribution mass {total!r}"
        on_grid = np.abs(out["psi"][:GRID_THETAS]) ** 2
        ref = grid.densities[p["grid_idx"]]
        if np.max(np.abs(on_grid - ref)) > 1e-9 * max(1.0, float(np.max(grid.densities))):
            return "|theta_wavefunction|^2 differs from the grid density"
        if not (math.isfinite(out["theta"]) and -math.pi <= out["theta"] <= math.pi):
            return f"sampled angle {out['theta']!r} outside [-pi, pi]"
        if out["fidelity"] < 1.0 - 1e-9:
            return f"corrected fidelity {out['fidelity']!r}"
        return ""


def _codec_digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in ("word", "gated", "fixed"):
        state = out[key]
        h.update(f"{state.l_min}:{state.l_max}".encode())
        h.update(state.amplitudes.tobytes())
    h.update(out["grid"].densities.tobytes())
    h.update(np.asarray(out["psi"]).tobytes())
    h.update(repr((out["theta"], out["fidelity"])).encode())
    return h.hexdigest()


def _closed_form_pe(xi: float, m: int) -> float:
    """1 - erf(pi xi / m) / erf(pi xi), written independently of the package."""
    a, b = math.pi * xi / m, math.pi * xi
    return (math.erfc(a) - math.erfc(b)) / math.erf(b)


def _asymptotic_pe(xi: float, m: int) -> float:
    a = math.pi * xi / m
    return m * math.exp(-a * a) / (math.pi**1.5 * xi)

"""Command-line interface.

Subcommands:
    tables     momentum -> label tables (digit or sign-magnitude binary)
    codeword   construct a codeword and dump its momentum amplitudes
    pe         one noncorrectable-error probability estimate
    sweep      p_e over a grid of approximant parameters
    roundtrip  encode / corrupt / diagnose / correct, with trial records
    check      operator-algebra invariant suite

Families are spelled trunc-gauss (--xi), cos-power (--gamma), gauss-env
(--sigma), grating (--slits), plus ideal where a perfect comb makes sense.

Options may come from a config file of key=value lines (--config); explicit
flags win over config values.  Output is CSV (default) or pretty text, to
stdout or --output.  Exit status: 0 success, 1 invalid input, 2 numerical
failure (including failed invariant checks).
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from . import analysis, weyl_algebra
from .code_space import (
    Approximant,
    CodeParams,
    binary_table,
    encoding_table,
    logical_encode,
)
from .errors import NumericalError
from .noise_correction import ErrorEvent, run_round_trip

FAMILY_BY_CLI = {
    "trunc-gauss": "truncated_gaussian",
    "cos-power": "cosine_power",
    "gauss-env": "gaussian_envelope",
    "grating": "grating",
}
CLI_BY_FAMILY = {v: k for k, v in FAMILY_BY_CLI.items()}
PARAM_FLAG = {
    "trunc-gauss": "xi",
    "cos-power": "gamma",
    "gauss-env": "sigma",
    "grating": "slits",
}
CLI_BY_METHOD = {m: m.replace("_", "-") for m in analysis.METHODS}
METHOD_BY_CLI = {v: k for k, v in CLI_BY_METHOD.items()}

CHECK_TOL = 1e-12


class UsageError(ValueError):
    """Malformed command line or config: exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _cast_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise UsageError(f"cannot read config file {path}: {ex}") from ex
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


class Settings:
    """Flag-over-config resolver that remembers what it handed out."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg
        self.used: dict[str, object] = {}

    def get(self, name, cast=str, default=None, required=False):
        value = getattr(self.args, name, None)
        if value is None and name in self.cfg:
            raw = self.cfg[name]
            try:
                value = cast(raw)
            except (TypeError, ValueError) as ex:
                raise UsageError(f"config value {name}={raw!r}: {ex}") from ex
        if value is None:
            if required:
                raise UsageError(f"--{name.replace('_', '-')} is required")
            value = default
        if value is not None:
            self.used[name] = value
        return value

    def flag_is_set(self, name) -> bool:
        return getattr(self.args, name, None) is not None


def _code_params(s: Settings) -> CodeParams:
    return CodeParams(
        d=s.get("d", int, 2),
        N=s.get("N", int, 1),
        delta_L=s.get("delta_L", int, 0),
    )


def _resolve_family(s: Settings, allow_ideal: bool) -> tuple[str, float] | None:
    """The library family name and its parameter value; None for ideal."""
    fam = s.get("family", str, "ideal" if allow_ideal else None, required=not allow_ideal)
    if fam == "ideal":
        if not allow_ideal:
            raise UsageError("this command needs a normalizable family, not ideal")
        for other in PARAM_FLAG.values():
            if s.flag_is_set(other):
                raise UsageError(f"--{other} makes no sense with family ideal")
        return None
    if fam not in FAMILY_BY_CLI:
        raise UsageError(
            f"unknown family {fam!r}; choose from "
            f"{', '.join(list(FAMILY_BY_CLI) + ['ideal'])}"
        )
    flag = PARAM_FLAG[fam]
    for other in PARAM_FLAG.values():
        if other != flag and s.flag_is_set(other):
            raise UsageError(f"family {fam} takes --{flag}, not --{other}")
    value = s.get(flag, float, None)
    if value is None:
        raise UsageError(f"family {fam} needs --{flag}")
    return FAMILY_BY_CLI[fam], value


def _resolve_approx(s: Settings) -> Approximant | None:
    resolved = _resolve_family(s, allow_ideal=True)
    return None if resolved is None else Approximant(*resolved)


def _parse_int_range(value: str | Sequence[str]) -> tuple[int, int]:
    """Accept two tokens (``LO HI``) or a single ``LO:HI`` string."""
    tokens: list[str] = []
    for item in [value] if isinstance(value, str) else list(value):
        tokens.extend(str(item).replace(":", " ").split())
    if len(tokens) != 2:
        raise UsageError(f"expected LO HI or LO:HI, got {value!r}")
    try:
        lo, hi = int(tokens[0]), int(tokens[1])
    except ValueError as ex:
        raise UsageError(f"expected integers in the range, got {value!r}") from ex
    if hi < lo:
        raise UsageError(f"empty range {value!r}")
    return lo, hi


def _get_range(s: Settings, default: tuple[int, int]) -> tuple[int, int]:
    raw = s.get("range", str, None)
    return default if raw is None else _parse_int_range(raw)


def parse_grid(text: str) -> list[float]:
    """A:B (11 points), A:B:COUNT, a comma list, or a single value."""
    text = text.strip()
    try:
        if "," in text:
            return [float(x) for x in text.split(",") if x.strip()]
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 2:
                a, b, count = float(parts[0]), float(parts[1]), 11
            elif len(parts) == 3:
                a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
            else:
                raise UsageError(f"expected A:B or A:B:COUNT, got {text!r}")
            if count < 1:
                raise UsageError("grid needs at least one point")
            if count == 1:
                return [a]
            return [float(v) for v in np.linspace(a, b, count)]
        return [float(text)]
    except ValueError as ex:
        raise UsageError(f"bad grid {text!r}: {ex}") from ex


def _fmt(values: object) -> str | list[str]:
    """A scalar as one cell, or a column as a list of cells.

    One % conversion serves the whole column, picked from the type of its
    first entry that is not None: %d for ints and bools (1/0), %.17g for
    floats, %s otherwise.  None is an empty cell.
    """
    column = isinstance(values, (list, tuple, range, np.ndarray))
    items = values.tolist() if isinstance(values, np.ndarray) else values if column else [values]
    sample = next((v for v in items if v is not None), None)
    conv = "%d" if isinstance(sample, (int, np.integer, np.bool_)) else "%s"
    conv = "%.17g" if isinstance(sample, (float, np.floating)) else conv
    cells = ["" if v is None else conv % (v,) for v in items]
    return cells if column else cells[0]


def _quote(cell: str) -> str:
    """A cell as csv.QUOTE_MINIMAL writes it: quoted, with inner quotes doubled,
    when it holds a comma, a quote, a newline or a carriage return."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv(table: dict[str, object]) -> str:
    """The header and rows of a table as CSV, every row from one % template.

    A scalar is formatted once into the template's text.  A range or an int or
    bool array fills a %d slot and a float array a %.17g slot, the conversions
    _fmt would pick; any other column is formatted by _fmt into a %s slot.
    """
    lone = '""' if len(table) == 1 else ""  # a lone empty cell: "", not a blank line
    slots, columns = [], []
    for col in table.values():
        numeric = isinstance(col, np.ndarray) and col.dtype.kind in "biuf"
        if numeric or isinstance(col, range):
            slots.append("%.17g" if numeric and col.dtype.kind == "f" else "%d")
            columns.append(col.tolist() if numeric else col)
        elif isinstance(col, (list, tuple, np.ndarray)):
            slots.append("%s")
            columns.append([_quote(c) or lone for c in _fmt(col)])
        else:
            slots.append((_quote(_fmt(col)) or lone).replace("%", "%%"))
    template = ",".join(slots) + "\n"
    rows = zip(*columns) if columns or not table else [()]  # scalars alone make one row
    return (",".join(map(_quote, table)) or lone) + "\n" + "".join(map(template.__mod__, rows))


def _emit(s: Settings, command: str, table: dict[str, object], comments: Sequence[str] = ()):
    """Write named columns as rows; a scalar column repeats on every row."""
    fmt = s.get("format", str, "csv")
    if fmt not in ("csv", "pretty"):
        raise UsageError(f"unknown format {fmt!r}; choose csv or pretty")
    out_path = s.get("output", str, None)

    config_items = " ".join(
        f"{k}={_fmt(v)}" for k, v in sorted(s.used.items()) if k not in ("format", "output")
    )
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        if fmt == "csv":
            fh.write(f"# config: command={command} {config_items}".rstrip() + "\n")
            fh.writelines(f"# {c}\n" for c in comments)
            fh.write(_csv(table))
        else:
            cells = {name: _fmt(col) for name, col in table.items()}
            n_rows = max((len(c) for c in cells.values() if isinstance(c, list)), default=1)
            cells = {name: c if isinstance(c, list) else [c] * n_rows for name, c in cells.items()}
            widths = [max(map(len, (name, *col))) for name, col in cells.items()]
            fh.write(f"[{command}] {config_items}".rstrip() + "\n")
            fh.writelines(f"{c}\n" for c in comments)
            fh.writelines(
                "  ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n"
                for row in (cells.keys(), *zip(*cells.values()))
            )


def cmd_tables(s: Settings) -> int:
    if s.get("binary", _cast_bool, False):
        bits = s.get("bits", int, None)
        if bits is None:
            bits = s.get("N", int, 3)
        lo, hi = _get_range(s, (-8, 8))
        table = binary_table(lo, hi, bits)
    else:
        params = _code_params(s)
        lo, hi = _get_range(s, (-params.m, params.m))
        table = encoding_table(params, lo, hi)
    # formed past the cell cap: the decimal of a default range at N ~ 15000 passes Python's limit
    s.used["range"] = f"{lo}:{hi}"
    _emit(s, "tables", table)
    return 0


def cmd_codeword(s: Settings) -> int:
    params = _code_params(s)
    approx = _resolve_approx(s)
    k = s.get("k", int, 0)
    wh = s.get("window_half", int, None)
    if wh is not None and wh < 1:
        raise UsageError("--window-half must be >= 1")
    state = logical_encode(params, k, approx, *((-wh, wh) if wh is not None else ()))
    amps = state.values
    table = {
        "l": state.support,
        "amplitude_re": amps.real,
        "amplitude_im": amps.imag,
        "probability": np.abs(amps) ** 2,
    }
    _emit(s, "codeword", table, [f"window: [{state.l_min}, {state.l_max}]"])
    return 0


def _emit_pe(s: Settings, command: str, family: str, grid: list[float]) -> int:
    """The analysis.sweep columns, one row per grid value, in CLI spellings."""
    params = _code_params(s)
    method_cli = s.get("method", str, "quadrature")
    if method_cli not in METHOD_BY_CLI:
        raise UsageError(
            f"unknown method {method_cli!r}; choose from {', '.join(METHOD_BY_CLI)}"
        )
    trials = s.get("trials", int, 100_000)
    seed = s.get("seed", int, None)
    if method_cli == "monte-carlo" and seed is None:
        raise UsageError("--seed is required with --method monte-carlo")
    spec = analysis.SweepSpec(
        family, tuple(grid), code=params, method=METHOD_BY_CLI[method_cli],
        trials=trials, seed=seed,
    )
    table = analysis.sweep(spec)
    table["family"] = CLI_BY_FAMILY[family]
    table["method"] = [CLI_BY_METHOD[method] for method in table["method"]]
    _emit(s, command, table)
    return 0


def cmd_pe(s: Settings) -> int:
    family, value = _resolve_family(s, allow_ideal=False)
    return _emit_pe(s, "pe", family, [value])


def cmd_sweep(s: Settings) -> int:
    grid = parse_grid(s.get("grid", str, None, required=True))
    fam_cli = s.get("family", str, None, required=True)
    if fam_cli not in FAMILY_BY_CLI:
        raise UsageError(f"unknown family {fam_cli!r}")
    for flag in PARAM_FLAG.values():
        if s.flag_is_set(flag):
            raise UsageError("sweep takes the parameter grid via --grid, not a family flag")
    return _emit_pe(s, "sweep", FAMILY_BY_CLI[fam_cli], grid)


def cmd_roundtrip(s: Settings) -> int:
    params = _code_params(s)
    approx = _resolve_approx(s)
    k = s.get("k", int, 0)
    epsilon = s.get("epsilon", float, 0.0)
    kick = s.get("kick", int, 0)
    trials = s.get("trials", int, 1000)
    seed = s.get("seed", int, None, required=True)
    syndrome_mode = s.get("syndrome", str, "sampled")
    if syndrome_mode not in ("sampled", "expected"):
        raise UsageError("--syndrome must be sampled or expected")
    wh = s.get("window_half", int, None)
    lo, hi = (-wh, wh) if wh is not None else (None, None)
    rng = np.random.default_rng(seed)
    summary = run_round_trip(
        params, k, ErrorEvent(epsilon, kick), trials, rng,
        approx=approx, l_lo=lo, l_hi=hi, syndrome_mode=syndrome_mode,
    )
    comment = (
        f"summary: trials={summary.trials} angle_errors={summary.angle_errors} "
        f"momentum_errors={summary.momentum_errors} errors={summary.errors} "
        f"error_rate={_fmt(summary.error_rate)} "
        f"standard_error={_fmt(summary.standard_error)} "
        f"state_fidelity={_fmt(summary.state_fidelity)}"
    )
    table = {
        "trial": range(summary.trials),
        "u": summary.u,
        "theta_outcome": summary.theta_outcome,
        "q_outcome": summary.q_outcome,
        "wrap": summary.wrap,
        "digit_shift": summary.digit_shift,
        "angle_error": summary.angle_error,
        "momentum_error": summary.momentum_error,
        "fidelity": summary.state_fidelity,
    }
    if s.get("format", str, "csv") == "pretty":
        table = dict.fromkeys(table, ())  # the header only
    _emit(s, "roundtrip", table, [comment])
    return 0


def cmd_check(s: Settings) -> int:
    delta_L = s.get("delta_L", int, 0)
    probes = s.get("probes", int, 20)
    seed = s.get("seed", int, None, required=True)
    corrupt = s.get("corrupt", _cast_bool, False)
    r = 2 * delta_L + 1
    rng = np.random.default_rng(seed)
    checks = weyl_algebra.invariant_residuals(r, rng, probes=probes, corrupt=corrupt)
    names, residuals = zip(*checks)
    status = ["PASS" if residual < CHECK_TOL else "FAIL" for residual in residuals]
    failures = status.count("FAIL")
    comments = [f"threshold: {CHECK_TOL:.0e}", f"failures: {failures}/{len(status)}"]
    _emit(s, "check", {"check": names, "residual": residuals, "status": status}, comments)
    return 0 if failures == 0 else 2


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later one.

    Nothing changes it after the build: parse_args fills a fresh namespace, and
    help is laid out when it is printed, so COLUMNS is read then.
    """
    parser = _Parser(prog="rotorcode", description="Many qubits in one quantum rotor: tables, "
                     "codewords, error probabilities, correction round trips.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add_common(p: _Parser, code=True):
        p.add_argument("--config", help="key=value settings file (flags win)")
        p.add_argument("--format", choices=["csv", "pretty"], default=None)
        p.add_argument("--output", help="write to this file instead of stdout")
        if code:
            p.add_argument("--d", type=int, default=None, help="qudit dimension (default 2)")
            p.add_argument("--N", type=int, default=None, help="register size (default 1)")
            p.add_argument("--delta-L", dest="delta_L", type=int, default=None,
                           help="protected kick range (default 0)")

    def add_family(p: _Parser, with_ideal=True):
        choices = list(FAMILY_BY_CLI)
        if with_ideal:
            choices.append("ideal")
        p.add_argument("--family", choices=choices, default=None)
        p.add_argument("--xi", type=float, default=None, help="trunc-gauss squeezing")
        p.add_argument("--gamma", type=float, default=None, help="cos-power exponent")
        p.add_argument("--sigma", type=float, default=None, help="gauss-env width")
        p.add_argument("--slits", type=float, default=None, help="grating half-width")

    p = sub.add_parser("tables", help="momentum -> label tables")
    add_common(p)
    p.add_argument("--range", nargs="+", default=None,
                   help="momentum range: LO HI or LO:HI")
    p.add_argument("--binary", action="store_true", default=None,
                   help="sign-magnitude binary labels instead of code digits")
    p.add_argument("--bits", type=int, default=None, help="bit count for --binary")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("codeword", help="dump codeword amplitudes")
    add_common(p)
    add_family(p)
    p.add_argument("--k", type=int, default=None, help="logical index")
    p.add_argument("--window-half", dest="window_half", type=int, default=None)
    p.set_defaults(func=cmd_codeword)

    p = sub.add_parser("pe", help="one noncorrectable-error probability")
    add_common(p)
    add_family(p, with_ideal=False)
    p.add_argument("--method", choices=list(METHOD_BY_CLI), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pe)

    p = sub.add_parser("sweep", help="p_e over a parameter grid")
    add_common(p)
    add_family(p, with_ideal=False)
    p.add_argument("--grid", help="A:B, A:B:COUNT, or comma list")
    p.add_argument("--method", choices=list(METHOD_BY_CLI), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roundtrip", help="encode / corrupt / correct")
    add_common(p)
    add_family(p)
    p.add_argument("--k", type=int, default=None, help="logical index")
    p.add_argument("--epsilon", type=float, default=None, help="angle drift")
    p.add_argument("--kick", type=int, default=None, help="momentum kick")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--syndrome", choices=["sampled", "expected"], default=None)
    p.add_argument("--window-half", dest="window_half", type=int, default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("check", help="operator invariant suite")
    add_common(p, code=False)
    p.add_argument("--delta-L", dest="delta_L", type=int, default=None,
                   help="protected kick range fixing r = 2*delta_L + 1")
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corrupt", action="store_true", default=None,
                   help="deliberately break one operator; the suite must fail")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        settings = Settings(args, cfg)
        return args.func(settings)
    except ValueError as ex:  # UsageError included
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except NumericalError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

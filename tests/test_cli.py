"""Command-line surface: output contracts, config precedence, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorcode import code_space, pe_closed_form
from rotorcode.cli import Settings, _emit, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = [ln for ln in out.strip().splitlines()]
    comments = [ln for ln in lines if ln.startswith("#")]
    data = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, data[0], data[1:]


def test_tables_single_qubit_cells(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--d", "2", "--N", "1", "--delta-L", "0", "--range", "-4", "4"
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert comments[0].startswith("# config: command=tables")
    assert header == ["l", "q", "p1", "k", "rotor_index"]
    assert [r[2] for r in rows] == ["0", "1", "0", "1", "0", "1", "0", "1", "0"]
    assert [r[4] for r in rows] == ["-2", "-2", "-1", "-1", "0", "0", "1", "1", "2"]


def test_tables_colon_range_form(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "tables", "--N", "2", "--delta-L", "1", "--range=0:12"
    )
    code_b, out_b, _ = run_cli(
        capsys, "tables", "--N", "2", "--delta-L", "1", "--range", "0", "12"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_tables_binary_cells(capsys):
    code, out, _ = run_cli(capsys, "tables", "--binary", "--N", "3", "--range", "-4", "4")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["l", "b1", "b2", "b3"]
    assert [r[1] for r in rows] == ["1", "1", "1", "1", "0", "0", "0", "0", "0"]
    assert [r[3] for r in rows] == ["0", "1", "1", "0", "0", "0", "1", "1", "0"]


def test_codeword_ideal_probabilities(capsys):
    code, out, _ = run_cli(
        capsys,
        "codeword", "--N", "1", "--delta-L", "1", "--k", "1", "--window-half", "12",
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["l", "amplitude_re", "amplitude_im", "probability"]
    ls = [int(r[0]) for r in rows]
    assert all(l % 6 == 3 for l in ls)  # teeth at k r = 3 (mod 6)
    probs = [float(r[3]) for r in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert any("window:" in c for c in comments)


# each family's parameter flag and a value that puts a few teeth in the window at period m
FAMILY_AT_PERIOD = {
    "trunc-gauss": ("--xi", lambda m: m / 2.4),
    "cos-power": ("--gamma", lambda m: m * m / 2.0),
    "gauss-env": ("--sigma", lambda m: m / 2.0),
    "grating": ("--slits", lambda m: 2 * m),
}


@pytest.mark.parametrize("family", FAMILY_AT_PERIOD)
def test_codeword_probability_is_the_correctly_rounded_square(capsys, family):
    flag, value = FAMILY_AT_PERIOD[family]
    for N in range(1, 7):
        for k in ("0", "1"):
            argv = ["codeword", "--N", str(N), "--delta-L", "1", "--k", k, "--family", family]
            code, out, err = run_cli(capsys, *argv, flag, repr(value(3 * 2**N)))
            assert code == 0, err
            _, _, rows = parse_csv(out)
            assert all(float(im) == 0.0 for _, _, im, _ in rows)  # every amplitude is real
            for _, real, _, probability in rows:
                assert float(probability) == float(Fraction(float(real)) ** 2)


def test_codeword_family_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "codeword", "--N", "1", "--delta-L", "1",
        "--family", "trunc-gauss", "--xi", "3", "--window-half", "30",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    by_l = {int(r[0]): float(r[3]) for r in rows}
    assert by_l[0] > by_l[6] > by_l[12]


def test_pe_closed_form_full_precision(capsys):
    code, out, _ = run_cli(
        capsys,
        "pe", "--family", "trunc-gauss", "--xi", "2", "--N", "1", "--delta-L", "1",
        "--method", "closed-form",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:6] == ["family", "N", "d", "delta_L", "parameter", "method"]
    assert len(rows) == 1
    assert float(rows[0][6]) == pe_closed_form(2.0, 6).value
    assert rows[0][5] == "closed-form"


def test_pe_pure_guess(capsys):
    code, out, _ = run_cli(
        capsys,
        "pe", "--family", "grating", "--slits", "6", "--N", "1", "--delta-L", "1",
        "--method", "pure-guess",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][6]) == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_pe_monte_carlo_needs_seed_and_is_deterministic(capsys):
    argv = [
        "pe", "--family", "cos-power", "--gamma", "6", "--N", "1", "--delta-L", "1",
        "--method", "monte-carlo", "--trials", "2000",
    ]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "--seed is required" in err
    code_a, out_a, _ = run_cli(capsys, *argv, "--seed", "11")
    code_b, out_b, _ = run_cli(capsys, *argv, "--seed", "11")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sweep_grid_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--family", "trunc-gauss", "--grid", "1:4:4",
        "--N", "1", "--delta-L", "1",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[-4:] == ["p_e", "log10_pe", "error_estimate", "seed"]
    assert [float(r[4]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
    # p_e falls monotonically with squeezing on this grid
    pes = [float(r[6]) for r in rows]
    assert pes == sorted(pes, reverse=True)


def test_sweep_rejects_family_parameter_flag(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "trunc-gauss", "--grid", "1:2", "--xi", "3",
    )
    assert code == 1
    assert "via --grid" in err


def test_roundtrip_summary_comment_and_determinism(capsys):
    argv = [
        "roundtrip", "--N", "1", "--delta-L", "1", "--k", "1",
        "--epsilon", "0.2", "--kick", "1", "--trials", "32", "--seed", "5",
    ]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    comments, header, rows = parse_csv(out_a)
    assert header == [
        "trial", "u", "theta_outcome", "q_outcome", "wrap", "digit_shift",
        "angle_error", "momentum_error", "fidelity",
    ]
    assert len(rows) == 32
    summary = next(c for c in comments if "error_rate" in c)
    assert "error_rate=0" in summary
    assert all(r[8] in ("1", "0.99999999999999989", "1.0000000000000002") or float(r[8]) > 0.999999 for r in rows)


def test_check_passes_and_corrupt_fails(capsys):
    code, out, _ = run_cli(capsys, "check", "--delta-L", "1", "--seed", "3")
    assert code == 0
    comments, _, rows = parse_csv(out)
    assert any("failures: 0/" in c for c in comments)
    assert all(r[2] == "PASS" for r in rows)
    code2, out2, _ = run_cli(capsys, "check", "--delta-L", "1", "--seed", "3", "--corrupt")
    assert code2 == 2
    _, _, rows2 = parse_csv(out2)
    assert any(r[2] == "FAIL" for r in rows2)


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep settings\nfamily = trunc-gauss\nxi = 2.0\nN = 1\ndelta-L = 1\n"
    )
    code, out, _ = run_cli(capsys, "pe", "--config", str(cfg))
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][4]) == 2.0
    # explicit flag wins over the config value
    code2, out2, _ = run_cli(capsys, "pe", "--config", str(cfg), "--xi", "3.0")
    assert code2 == 0
    _, _, rows2 = parse_csv(out2)
    assert float(rows2[0][4]) == 3.0
    comments2, _, _ = parse_csv(out2)
    assert "xi=3" in comments2[0]


def test_config_file_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "pe", "--config", str(tmp_path / "missing.cfg"))
    assert code == 1
    assert "cannot read config" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code2, _, err2 = run_cli(capsys, "pe", "--config", str(bad))
    assert code2 == 1
    assert "expected key=value" in err2


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        "tables", "--N", "1", "--delta-L", "0", "--range", "-2", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# config: command=tables")
    assert "l,q,p1,k,rotor_index" in text


def test_pretty_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "tables", "--N", "1", "--delta-L", "0", "--range", "0", "3",
        "--format", "pretty",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[tables]")
    assert "rotor_index" in lines[1]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("tables", "--range", "1", "oops"), "expected integers"),
        (("tables", "--range", "oops"), "expected LO HI"),
        (("tables", "--range", "4", "1"), "empty range"),
        (("pe", "--family", "trunc-gauss"), "needs --xi"),
        (("pe", "--family", "trunc-gauss", "--xi", "2", "--gamma", "3"), "takes --xi"),
        (("pe",), "--family is required"),
        (("codeword", "--family", "ideal", "--xi", "2"), "makes no sense"),
        (("codeword", "--window-half", "0"), "must be >= 1"),
        (("pe", "--family", "trunc-gauss", "--xi", "2", "--method", "closd"), None),
        (("sweep", "--family", "trunc-gauss", "--grid", "1:2:0"), "at least one point"),
        (("roundtrip", "--trials", "8"), "--seed is required"),
        (("codeword", "--family", "cos-power", "--gamma", "0.001"), "more than the cap"),
        (("sweep", "--family", "trunc-gauss", "--grid", ","), "at least one parameter"),
        # m = 3 * 2^1100 has no double: every p_e route refuses it by name
        (("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "1100"), "comb period m"),
        (("pe", "--family", "grating", "--slits", "3", "--N", "1100"), "comb period m"),
        (("pe", "--family", "cos-power", "--gamma", "3", "--N", "1100"), "comb period m"),
        (("pe", "--family", "gauss-env", "--sigma", "3", "--N", "1100"), "comb period m"),
        (("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "1100", "--method", "pure-guess"),
         "comb period m"),
        (("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "1100", "--method", "closed-form"),
         "comb period m"),
        (("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "1100", "--method", "asymptotic"),
         "comb period m"),
        # 6 sigma + 10 overflows a double on its way to the window size
        (("codeword", "--family", "gauss-env", "--sigma", "1e308", "--N", "1"), "cap of 33554432"),
        (("codeword", "--family", "trunc-gauss", "--xi", "1e308", "--N", "1"), "cap of 33554432"),
        (("roundtrip", "--N", "1100", "--trials", "5", "--seed", "1"), "cap of 33554432"),
        # m = 2^70 is past int64: the teeth come from Python ints, one lands in the window
        (("codeword", "--N", "70", "--window-half", "8"), "fewer than two comb teeth"),
        (("codeword", "--N", "70", "--window-half", "8", "--family", "grating", "--slits", "3"),
         "fewer than two comb teeth"),
        (("roundtrip", "--N", "70", "--window-half", "8", "--trials", "5", "--seed", "1"),
         "fewer than two comb teeth"),
        # a wrap count past int64
        (("roundtrip", "--epsilon", "1e300", "--trials", "5", "--seed", "1"), "2^63 periods"),
        # ~3e17 sectors: the double keeps no bits to place the residue in (-pi/2, pi/2]
        (("roundtrip", "--epsilon", "1e18", "--trials", "3", "--seed", "1"), "cannot reduce"),
        # a suite of no probe states checks nothing, so it must not report a pass
        (("check", "--corrupt", "--probes", "0", "--seed", "1"), "at least one probe"),
        (("check", "--probes=-3", "--seed", "1"), "at least one probe"),
        # the kicked window would hold 10^12 momenta: refused before it is allocated
        (("roundtrip", "--N", "1", "--trials", "10", "--seed", "1", "--kick", "1000000000000"),
         "cap of 33554432"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    if fragment:
        assert fragment in err


@pytest.mark.parametrize(
    "argv",
    [
        # psi ~ cos^2(u/2) is 0 past |l| = 1: only the tooth at l = 0 has weight
        ("codeword", "--N", "1", "--delta-L", "0", "--family", "cos-power", "--gamma", "2",
         "--k", "0", "--window-half", "200"),
        # one slit each side of l = 0, and the teeth of k = 3 sit at 9 (mod 24)
        ("codeword", "--N", "3", "--family", "grating", "--slits", "1", "--k", "3"),
        # e^{-l^2 / 2 sigma^2} underflows to 0 well before the teeth at |l| = m = 96
        ("roundtrip", "--N", "5", "--family", "gauss-env", "--sigma", "0.7", "--trials", "5",
         "--seed", "1"),
    ],
)
def test_band_limited_envelope_with_too_few_teeth_does_not_say_widen(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "fewer than two comb teeth" in err
    assert "widen" not in err


def test_numerical_failure_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "codeword", "--family", "cos-power", "--gamma", "0.5",
        "--window-half", "8", "--N", "1", "--delta-L", "0",
    )
    assert code == 2
    assert "widen the window" in err


def test_roundtrip_gaussian_envelope_at_ten_qubits(capsys):
    code, out, err = run_cli(
        capsys, "roundtrip", "--N", "10", "--family", "gauss-env", "--sigma", "1536",
        "--trials", "1000", "--seed", "4",
    )
    assert code == 0, err
    comments, _, rows = parse_csv(out)
    assert len(rows) == 1000
    summary = next(c for c in comments if "state_fidelity=" in c)
    assert float(summary.split("state_fidelity=")[1].split()[0]) > 1.0 - 1e-9


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_csv_floats_round_trip_at_full_precision(capsys):
    code, out, _ = run_cli(
        capsys,
        "pe", "--family", "gauss-env", "--sigma", "3", "--N", "1", "--delta-L", "1",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    value = float(rows[0][6])
    # '.17g' formatting is lossless for doubles
    assert math.isfinite(value)
    assert abs(value - 0.026321074921741405) < 1e-10


def test_pe_grating_past_the_window_cap_exits_one_quickly(capsys):
    # K = 2^25 + 1 slits: refused before any term is summed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pe", "--family", "grating", "--slits", "16777216", "--N", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "cap of 33554432" in err


def test_pe_gauss_env_at_huge_sigma_exits_zero_quickly(capsys):
    # a momentum series cut at 6 sigma + 40 would need tens of GB here
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "pe", "--family", "gauss-env", "--sigma", "1e9", "--N", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["p_e"]) == 0.0
    assert math.isfinite(float(row["log10_pe"]))


# cells the emitter must quote, escape or keep: separators, quotes, line breaks, %
TEXT = st.text(st.sampled_from(' ab,"\r\n%'), max_size=5)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT


def _columns(n: int):
    """Every kind of column _emit takes, n cells long, or a scalar."""
    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])

    def some(cells):
        return st.lists(cells, min_size=n, max_size=n)
    return st.one_of(
        SCALARS,
        some(st.none() | TEXT),
        some(st.none() | st.integers()),
        some(st.none() | st.booleans()),
        some(st.none() | floats),
        st.integers(-5, 5).map(lambda start: range(start, start + n)),
        some(floats).map(lambda v: np.array(v, dtype=np.float64)),
        some(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        some(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    )


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 4))
    names = draw(st.lists(TEXT, max_size=4, unique=True))
    return {name: draw(_columns(n)) for name in names}


def _reference_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _reference_line(cells) -> str:
    # \r in the writer's terminator makes it quote cells holding a \r, as csv.reader needs
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _reference_csv(table) -> str:
    columns = [
        [_reference_cell(v) for v in col] if isinstance(col, (list, range, np.ndarray)) else col
        for col in table.values()
    ]
    n_rows = max((len(c) for c in columns if isinstance(c, list)), default=1)
    columns = [c if isinstance(c, list) else [_reference_cell(c)] * n_rows for c in columns]
    return "".join(map(_reference_line, [list(table), *zip(*columns)]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(table=_tables())
def test_emitted_csv_is_what_csv_writer_writes(table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(Settings(argparse.Namespace(), {}), "test", table)
    config, body = out.getvalue().split("\n", 1)
    assert config == "# config: command=test"
    assert body == _reference_csv(table)


# SHA-256 of stdout, recorded from the row-dict tables and sweep that the
# column-shaped ones replaced (numpy 2.4, scipy 1.17): integer tables, p_e by
# every route, and trunc-gauss codewords and round trips at xi >= 2.
FROZEN_OUTPUTS = (
    ("tables",
     "da38966c78bb2ebe24edcda734b450120c7ff1020e9c43c64ebb8fb475a84126"),
    ("tables --N 3 --range=-40:-3",
     "0d1fd003b4f5112198e4ce5cf959e5da92389a871710af5275ea8d7a2b87fc3e"),
    ("tables --d 3 --N 2",
     "027932874a4c8d30b3ea800f3761bca6214de697285b33c68080ad449674a3d6"),
    ("tables --N 2 --delta-L 2 --range=-50:10",
     "f37886ee7136b932a10dcfb2c4f3a2a4aa16070ffa9b8b4650c2e59b32f7e40f"),
    ("tables --binary",
     "e7b872b42aa319f44a4d2ba5207f22f650d413aa09dc7f8f34c02bfd9981f044"),
    ("tables --binary --bits 70 --range=-5:5",
     "a8288182004a27612da213dccd13a9e528bd88b7b31729eee43e9b67ae6705b2"),
    ("tables --N 3 --format pretty",
     "a0e2625f3eeaec6aeb6c628f7720c72bdc88ba620eda1192825ad0325ae70e5c"),
    ("tables --binary --format pretty --range=-3:3",
     "9983f1163f20a313db307958c8f4ce79d9f0c425079fef563553dfd827d3bfa1"),
    ("tables --N 70 --range 0:5",
     "454560c9e539fd428db3f777f4a0e427612af0a921fb5693081bb3ceaed0f360"),
    ("tables --d 3 --N 3 --delta-L 2 --range 9223372036854775777:9223372036854775807",
     "e02ef5f0c4818cf20593e917bb8890ede0cabff429e7de2115db6fae2b572b67"),
    ("tables --binary --bits 70 --range 9223372036854775800:9223372036854775807",
     "3fee48ca98e99bea1e7bb4e3769e46ac6d0f5c35fc72f8a26a3ac669c66c5c69"),
    ("tables --range=-9223372036854775808:-9223372036854775800",
     "53a6910c033257e93eb4f18364d960907ef883d00fc53d6f801b02a49b8da5b5"),
    ("pe --N 3 --delta-L 1 --family trunc-gauss --xi 3 --method quadrature",
     "6d3433c11d58b1f8998a27a04c9d2a39b4d1596f11342b101716b48343ce9ba6"),
    ("sweep --N 2 --family trunc-gauss --grid 1:30:5 --method quadrature",
     "e99e6864ec8f7ecbb0398318d85c4bbc7f85312fff74b76f77c027993318d27f"),
    ("pe --N 3 --delta-L 1 --family trunc-gauss --xi 3 --method closed-form",
     "9635affce8c6d8c3a7842136d89a26683a622fa83feea8e590becb6248c44a4d"),
    ("sweep --N 2 --family trunc-gauss --grid 1:30:5 --method closed-form",
     "3a37b80fd773b92252437fe70be2440c08b7535f6fd31c2673c0faeefb3c319a"),
    ("pe --N 3 --delta-L 1 --family trunc-gauss --xi 3 --method asymptotic",
     "bce69bb7d5f64f8c6d82bd205bcdd91e5a9977e9e4dc0439244f7029b3103789"),
    ("sweep --N 2 --family trunc-gauss --grid 1:30:5 --method asymptotic",
     "fb8fbf3eaff2a0f2b471557c8e6a2ff353727f8ee3f733195e8f46a46e65cd63"),
    ("pe --N 3 --delta-L 1 --family trunc-gauss --xi 3 --method pure-guess",
     "ca8e46b43e34a8683ea503f8bdcfeb90b2c6da533a5586a08a43efde8d14498d"),
    ("sweep --N 2 --family trunc-gauss --grid 1:30:5 --method pure-guess",
     "4d322b2f7ef45e46ed18fd286da0347a47122cb99abeecdce75e409e20506cfb"),
    ("pe --N 3 --delta-L 1 --family trunc-gauss --xi 3 --method monte-carlo --trials 3000 --seed 5",
     "b9d26f045491f04910206787feeca944c7c81cf6d2fe175c94184a2143ec94e3"),
    ("sweep --N 2 --family trunc-gauss --grid 1:30:5 --method monte-carlo --trials 3000 --seed 5",
     "ac21448a0eed79415b29394ec24412e61f90ada2b7faf27c9b3f887c47f0567b"),
    ("pe --N 3 --delta-L 1 --family cos-power --gamma 6 --method quadrature",
     "9de7566744ed974219dd8cf292bf5de9405454a3fa2b83d0f7980fc64008c875"),
    ("sweep --N 2 --family cos-power --grid 1:40:5 --method quadrature",
     "2575267cc10c619477dba098502e588da4e0405334ac606a3cb734491e244465"),
    ("pe --N 3 --delta-L 1 --family cos-power --gamma 6 --method pure-guess",
     "afa66e1d0891f3ff9cdf4b67add42a5d3afedb32aa9dc45274a49ad3ffaf9dc1"),
    ("sweep --N 2 --family cos-power --grid 1:40:5 --method pure-guess",
     "db71789f970f0ca0f8a06386bb5f8cbeb96a5c0bf105961b782a41080223439a"),
    ("pe --N 3 --delta-L 1 --family cos-power --gamma 6 --method monte-carlo --trials 3000 --seed 5",
     "9c0af08934138dcace25780406d28188728a94f1b2edf3d4ec1260594769f55f"),
    ("sweep --N 2 --family cos-power --grid 1:40:5 --method monte-carlo --trials 3000 --seed 5",
     "e56fc340ba93a85bcdf5dac5add8e1f59e83b12be294bc52e8cb2d0c17062981"),
    ("pe --N 3 --delta-L 1 --family gauss-env --sigma 3 --method quadrature",
     "555a02ea8af2654e2e16c40d5734a2b753497ea741460dcc55f4b081cead3e4f"),
    ("sweep --N 2 --family gauss-env --grid 0.5:6:4 --method quadrature",
     "496ba317fac556bf72605f685f2cf71b2bf6e35249d33812c1ecbd92a147b165"),
    ("pe --N 3 --delta-L 1 --family gauss-env --sigma 3 --method pure-guess",
     "2ea42f674b13b9a8560d10a1b4c967c071b4efb5a038ca903966c0a4fa3b28d1"),
    ("sweep --N 2 --family gauss-env --grid 0.5:6:4 --method pure-guess",
     "e4f435de5d81b44196288f4ed5c9d96f195ffe3e78e16e7d878bf0e29f39ba50"),
    ("pe --N 3 --delta-L 1 --family gauss-env --sigma 3 --method monte-carlo --trials 3000 --seed 5",
     "a4bccbd045d5d09ca18140ed19ee66781ba4fdb75f678dcb0c1835f556d011ab"),
    ("sweep --N 2 --family gauss-env --grid 0.5:6:4 --method monte-carlo --trials 3000 --seed 5",
     "1568740e2f5bf2ea38264f46429987a492fd376282f09b67d33d8b7d815501d0"),
    ("pe --N 3 --delta-L 1 --family grating --slits 4 --method quadrature",
     "a02ff3f0472b5b4c4a14299c8de1f5fd438b5480493496e47f1533e4e70056cc"),
    ("sweep --N 2 --family grating --grid 1,2,3,9 --method quadrature",
     "b30126f7e10ac8a80905f339a4a97916764842a183edcc572d4921b71f587a4a"),
    ("pe --N 3 --delta-L 1 --family grating --slits 4 --method pure-guess",
     "4d3b49eff2056b14cfef3f70698fd4b093d5f6851bac19cfa7f31b81beb0f1fb"),
    ("sweep --N 2 --family grating --grid 1,2,3,9 --method pure-guess",
     "dbfaedf767e141c17263319d078dfea93d1b09a7a61bd9f73f2beff3894abd08"),
    ("pe --N 3 --delta-L 1 --family grating --slits 4 --method monte-carlo --trials 3000 --seed 5",
     "88a1ba94f374bbbb9799ad3643844eaf7d116d31bd33effa298899f9a94717df"),
    ("sweep --N 2 --family grating --grid 1,2,3,9 --method monte-carlo --trials 3000 --seed 5",
     "8de85e79e701d2770f2112030680a5f6b59024ba523c110223999fb41945ceda"),
    ("sweep --d 3 --N 4 --family trunc-gauss --grid 2,20,200 --format pretty",
     "a29a99e9c00276ccddfe6f1c94b699fd10723f898a5aa410fc6c8ff320cace55"),
    ("codeword --family trunc-gauss --xi 2",
     "dd77c09a685d2729a6820ba2c6a7e95f76aafb35e8f3778bdeaa5ce5eea04cc2"),
    ("codeword --family trunc-gauss --xi 24 --N 3 --delta-L 1 --k 5",
     "0e682e7972c6415bc205bde07de65736dc0e5591a696cbe0ef5664ecfffd0581"),
    ("codeword --family trunc-gauss --xi 2.5 --format pretty",
     "3378408c1797f099ce42141c5bed87a738abc678964bb5c39e755a1b677a635e"),
    ("roundtrip --family trunc-gauss --xi 2 --trials 200 --seed 3",
     "215b50fb15a4d354773fd074bd13e94accf73a61dcc47db6f75dbba8dfcfc97e"),
    ("roundtrip --family trunc-gauss --xi 24 --N 3 --delta-L 1 --trials 300 --seed 4 --epsilon 0.05",
     "5e83aeca70b8ba0be5aa3fb533a20b5f54a0886819c59abf352ab051fccb91b1"),
)


@pytest.mark.parametrize("argv, digest", FROZEN_OUTPUTS)
def test_output_is_byte_identical_to_the_recorded_grid(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("xi", ["0.01", "0.1", "0.5", "1", "1.45"])
def test_trunc_gauss_default_window_holds_the_envelope_at_small_xi(capsys, xi, N):
    # the l^-2 tail from the slope's jump at +-pi outreaches 6 xi + 10 here
    family = ("--family", "trunc-gauss", "--xi", xi, "--N", str(N))
    code, _, err = run_cli(capsys, "codeword", *family)
    assert code == 0, err
    code, _, err = run_cli(capsys, "roundtrip", *family, "--trials", "20", "--seed", "1")
    assert code == 0, err


def test_default_window_that_misses_mass_does_not_say_widen(capsys, monkeypatch):
    monkeypatch.setattr(code_space, "_tg_tail_need", lambda xi: 0)  # the Gaussian reach alone
    code, _, err = run_cli(capsys, "codeword", "--family", "trunc-gauss", "--xi", "1")
    assert code == 2
    assert "misses envelope mass" in err and "the default window is too narrow" in err
    assert "widen" not in err


def _address_space_1gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_child(*args, **kwargs):
    """A fresh interpreter on this checkout's sources: python ARGS, text output."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60, **kwargs
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--N", "20"),  # 2^21 + 1 rows of 24 columns
        ("tables", "--binary", "--range=-100000000:100000000"),
    ],
)
def test_tables_past_the_cell_cap_exit_one_at_once(argv):
    # main's own time is printed to stderr; a table built before the check would
    # take seconds or hit the 1 GB address-space limit with a MemoryError
    child = (
        "import sys, time; from rotorcode.cli import main; t = time.perf_counter(); "
        "rc = main(sys.argv[1:]); print(f'elapsed={time.perf_counter() - t}', file=sys.stderr); "
        "sys.exit(rc)"
    )
    proc = run_child("-c", child, *argv, preexec_fn=_address_space_1gb)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "more than the cap of 33554432 cells" in proc.stderr
    assert float(proc.stderr.split("elapsed=")[1]) < 1.0


@pytest.mark.parametrize("N", ["10000", "15000"])
def test_tables_default_range_past_the_digit_limit_names_the_cap_briefly(N):
    # the default range -m:m, m = 2^N, is never written in decimal before the cap refuses it:
    # at N = 15000 that decimal passes Python's 4300-digit limit, at 10000 it filled 6 kB
    proc = run_child("-m", "rotorcode", "tables", "--N", N)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "more than the cap of 33554432 cells" in proc.stderr
    assert len(proc.stderr.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("codeword", "--family", "trunc-gauss", "--xi", "1e-300"),
        ("codeword", "--family", "trunc-gauss", "--xi", "1e-170"),
        ("codeword", "--family", "trunc-gauss", "--xi", "1e-300", "--window-half", "5"),
        ("roundtrip", "--family", "trunc-gauss", "--xi", "1e-300", "--seed", "1"),
    ],
)
def test_trunc_gauss_norm_underflow_at_tiny_xi_exits_two(argv):
    # the norm xi sqrt(pi) erf(pi xi) ~ 2 pi xi^2 is 0 in a double here, and the height
    # divides by its square root
    proc = run_child("-m", "rotorcode", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    xi = float(argv[argv.index("--xi") + 1])
    assert f"xi={xi!r}" in proc.stderr and "underflows" in proc.stderr


@pytest.mark.parametrize("xi", ["1e-7", "1e-8", "1e-20"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_trunc_gauss_codeword_at_tiny_xi_exits_zero(capsys, xi, k):
    # the l = 0 bracket cancelled there, and its lost mass read as "the default window
    # is too narrow" (exit 2), which no window could mend
    code, out, err = run_cli(capsys, "codeword", "--family", "trunc-gauss", "--xi", xi, "--k", k)
    assert code == 0, err
    assert out.splitlines()[2] == "l,amplitude_re,amplitude_im,probability"


@pytest.mark.parametrize("xi", ["1e-150", "1e-154"])
def test_trunc_gauss_codeword_whose_teeth_underflow_exits_one_without_a_warning(xi):
    # numpy printed "RuntimeWarning: overflow encountered in square" before the message
    proc = run_child("-W", "default", "-m", "rotorcode", "codeword", "--family", "trunc-gauss",
                     "--xi", xi)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "the envelope underflows beyond it" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    # count every ArgumentParser made: none on import, some on the first main call
    child = textwrap.dedent("""
        import argparse, os
        made = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        import rotorcode.cli
        print(len(made))
        rotorcode.cli.main(["tables", "--N", "1", "--output", os.devnull])
        print(len(made))
    """)
    proc = run_child("-c", child)
    assert proc.returncode == 0, proc.stderr
    at_import, after_main = map(int, proc.stdout.split())
    assert at_import == 0 and after_main > 0


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # one process reuses one parser; each call must still behave as a fresh `python -m rotorcode`
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = cos-power\ngamma = 6\nN = 2\n")
    sequence = [
        ("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "2"),
        ("sweep", "--family", "grating", "--grid", "1:4:4", "--delta-L", "1"),
        ("sweep", "--family", "trunc-gauss", "--grid", "1:3", "--method", "closd"),  # exit 1
        ("pe", "--config", str(cfg), "--delta-L", "1"),
        ("tables", "--N", "2", "--format", "pretty"),
        ("pe", "--family", "trunc-gauss", "--xi", "3", "--N", "2"),
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    fresh = [run_child("-m", "rotorcode", *argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [0, 0, 1, 0, 0, 0]
    for argv, ours, child in zip(sequence, in_process, fresh):
        assert ours == (child.returncode, child.stdout, child.stderr), argv


@pytest.mark.parametrize("command", [("codeword",), ("roundtrip", "--trials", "5", "--seed", "1")])
@pytest.mark.parametrize("family", [(), ("--family", "trunc-gauss", "--xi", "5")])
@pytest.mark.parametrize("half", ["0", "-3"])
def test_window_half_below_one_is_bad_input(capsys, command, family, half):
    # bad input (exit 1) in both commands, not a window that misses the envelope (exit 2)
    code, out, err = run_cli(capsys, *command, *family, f"--window-half={half}")
    assert (code, out, err) == (1, "", "error: window_half must be >= 1\n")


def test_config_key_the_command_does_not_take_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("family = trunc-gauss\nxi = 3\ntrails = 5\ngrid = 1:2\n")
    code, out, err = run_cli(capsys, "pe", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "pe takes no config key grid, trails" in err
    # the same keys are fine where the command reads them
    cfg.write_text("family = trunc-gauss\ngrid = 1:2:2\ntrials = 5\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0, err
    assert "grid=1:2:2" in out.splitlines()[0]


@pytest.mark.parametrize("line", ["command = sweep", "func = x", "config = /nonexistent"])
def test_config_cannot_set_the_parsers_own_entries(tmp_path, capsys, line):
    # vars(args) holds command, func and config too; none of them is a setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"family = trunc-gauss\nxi = 3\n{line}\n")
    code, out, err = run_cli(capsys, "pe", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: pe takes no config key {line.split()[0]}\n"


@pytest.mark.parametrize(
    "argv, xi",
    [
        (("pe", "--family", "trunc-gauss", "--xi", "1e-170"), 1e-170),
        (("pe", "--family", "trunc-gauss", "--xi", "1e-320"), 1e-320),
        (("sweep", "--family", "trunc-gauss", "--grid", "1e-170,1"), 1e-170),
    ],
)
def test_asymptotic_pe_whose_exponent_underflows_exits_two(capsys, argv, xi):
    code, out, err = run_cli(capsys, *argv, "--method", "asymptotic")
    assert (code, out) == (2, "")
    assert err == f"numerical failure: asymptotic p_e at xi={xi!r}: (pi xi / m)^2 underflows\n"
    # one decade of xi up, (pi xi / m)^2 is a subnormal and the row prints as before
    code, out, err = run_cli(capsys, "pe", "--family", "trunc-gauss", "--xi", "1e-160",
                             "--method", "asymptotic")
    _, header, rows = parse_csv(out)
    assert code == 0 and rows[0][header.index("error_estimate")] == "inf"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pe", "--family", "trunc-gauss", "--xi", "nan", "--method", "closed-form"),
         "approximant parameter must be positive and finite"),
        (("sweep", "--family", "trunc-gauss", "--grid", "1,nan,3", "--method", "closed-form"),
         "approximant parameter must be positive and finite"),
        (("pe", "--family", "trunc-gauss", "--xi", "inf", "--method", "closed-form"),
         "approximant parameter must be positive and finite"),
        (("pe", "--family", "trunc-gauss", "--xi", "nan", "--method", "asymptotic"),
         "approximant parameter must be positive and finite"),
        (("pe", "--family", "trunc-gauss", "--xi", "-3", "--method", "pure-guess"),
         "approximant parameter must be positive and finite"),
        (("pe", "--family", "grating", "--slits", "2.5", "--method", "pure-guess"),
         "grating parameter must be an integer >= 1"),
        (("pe", "--family", "cos-power", "--gamma", "nan", "--method", "quadrature"),
         "approximant parameter must be positive and finite"),
        (("pe", "--family", "gauss-env", "--sigma", "-1", "--method", "monte-carlo", "--seed", "1"),
         "approximant parameter must be positive and finite"),
    ],
)
def test_every_pe_method_refuses_a_bad_family_parameter(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")

"""Command-line surface: output contracts, config precedence, exit codes."""

import csv
import math

import numpy as np
import pytest

from rotorcode import pe_closed_form
from rotorcode.cli import main


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
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    if fragment:
        assert fragment in err


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

"""Command-line driver: outputs, determinism, config merging, exit codes."""

import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stimpairs
import stimpairs.verify as verify_mod
from stimpairs import cli
from stimpairs.cli import main
from stimpairs.tomography import (
    TomographyRecord,
    fidelity,
    project_physical,
    rho_from_json,
    simulate_tomography,
)
from stimpairs.polarization import bell_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sweep-phase", "--help"]) == 0


def test_unknown_command_exits_one(capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1
    assert "invalid" in err


def test_sweep_phase_csv(capsys):
    code, out, _ = run(
        capsys, "sweep-phase", "--n-list", "1,2", "--phi-steps", "3", "--tau", "0.001"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# stimpairs sweep-phase"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "N,phi,tau,M,P_exact,P_approx,contamination"
    data = [ln.split(",") for ln in lines[3:]]
    assert len(data) == 6
    assert data[0][0] == "1" and data[-1][0] == "2"
    # Round-trippable floats.
    assert float(data[3][4]) == pytest.approx(7.999914667184354e-06)


def test_sweep_phase_json(capsys):
    code, out, _ = run(
        capsys, "sweep-phase", "--n-list", "3", "--phi-steps", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "sweep-phase"
    assert doc["columns"][0] == "N"
    assert len(doc["rows"]) == 2


def test_sweep_phase_rows_are_the_scalar_values_byte_for_byte(capsys):
    # The library returns one float table; the CLI writes N and M as ints and
    # every float by repr, each equal to the scalar functions at its (N, phi).
    # CSV rows are written a block at a time: the second grid passes two block
    # edges and ends two rows into a third block, the third is exactly one block.
    from stimpairs.resonator import (
        ResonatorConfig,
        multiphoton_contamination,
        pair_probability_approx,
        pair_probability_exact,
    )

    for n_list, m, tau, steps in [
        ((10, 1, 129), 3, 0.05, 7),
        ((2, 1), 1, 0.01, cli._BLOCK_ROWS + 1),
        ((1, 2, 4, 8), 2, 0.02, cli._BLOCK_ROWS // 4),
    ]:
        argv = ["sweep-phase", "--n-list", ",".join(map(str, n_list)), "--m", str(m),
                "--tau", str(tau), "--phi-steps", str(steps)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        config = json.loads(lines[1].removeprefix("# config: "))
        phis = np.linspace(config["phi_min"], config["phi_max"], steps).tolist()
        want = []
        for n in n_list:
            for phi in phis:
                cfg = ResonatorConfig(n, phi, tau)
                want.append(
                    [n, phi, tau, m, pair_probability_exact(m, cfg),
                     pair_probability_approx(m, cfg), multiphoton_contamination(cfg)]
                )
        assert out.endswith("\n") and lines[3:] == [
            f"{n},{phi!r},{tau!r},{m},{exact!r},{approx!r},{c!r}"
            for n, phi, tau, m, exact, approx, c in want
        ]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows == want
        assert all(type(r[0]) is int and type(r[3]) is int for r in rows)


def test_sweep_phase_bad_n_list(capsys):
    code, _, err = run(capsys, "sweep-phase", "--n-list", "1,x")
    assert code == 1
    assert "n-list" in err


def test_sweep_phase_single_pass_phi_independent(capsys):
    code, out, _ = run(capsys, "sweep-phase", "--n-list", "1", "--phi-steps", "9")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[3:]]
    exact_column = {row[4] for row in rows}
    assert len(exact_column) == 1  # |A| = 1 regardless of phi


def test_sweep_phase_p_approx_is_the_unclipped_limit(capsys):
    # At N = 7, phi = 0, tau = 0.3 the small-tau limit 3 (2.1)^4 = 58.3443 is
    # far above 1; the column reports it as it is, with no RuntimeWarning.
    # Past the float range the limit is a numerical failure.
    argv = ["sweep-phase", "--m", "2", "--n-list", "7", "--tau", "0.3", "--phi-steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    approx = [float(line.split(",")[5]) for line in out.splitlines()[3:]]
    assert approx[0] == approx[2] == pytest.approx(58.3443, rel=1e-12)
    code, out, err = run(capsys, "sweep-phase", "--m", "40", "--n-list", "64", "--tau", "1e10")
    assert code == 2 and out == "" and "numerical failure" in err


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.002, "n_list": "4", "phi_steps": 2}))
    code, out, _ = run(capsys, "sweep-phase", "--config", str(cfg))
    assert code == 0
    assert '"tau": 0.002' in out.splitlines()[1]
    # Explicit flag beats the file.
    code, out, _ = run(capsys, "sweep-phase", "--config", str(cfg), "--tau", "0.004")
    assert '"tau": 0.004' in out.splitlines()[1]


def test_sweep_phase_workers_flag_removed(tmp_path, capsys):
    code, _, err = run(capsys, "sweep-phase", "--workers", "2")
    assert code == 1
    assert "--workers" in err
    # A config file that still carries "workers" runs; the key is ignored
    # like any other unused key and is not echoed.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": "2", "phi_steps": 3, "workers": 4}))
    code, out, _ = run(capsys, "sweep-phase", "--config", str(cfg))
    assert code == 0
    assert "workers" not in out
    assert len(out.strip().splitlines()) == 3 + 3


def test_config_file_invalid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "sweep-phase", "--config", str(cfg))
    assert code == 1
    assert "schema" in err


def test_config_jeffreys_must_be_bool(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jeffreys": "false", "shots": 1e3, "seed": 1}))
    code, out, err = run(capsys, "tomography", "--config", str(cfg))
    assert code == 1
    assert "jeffreys" in err and out == ""
    cfg.write_text(json.dumps({"jeffreys": False, "shots": 1e3, "seed": 1}))
    code, out, _ = run(capsys, "tomography", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["jeffreys"] is False


@pytest.mark.parametrize("seed", [True, 3.7, "7"])
def test_config_seed_must_be_integral(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed, "alpha_steps": 21}))
    code, out, err = run(capsys, "fig4", "--config", str(cfg))
    assert code == 1
    assert "seed" in err and out == ""
    # An integral float is still an integer seed.
    cfg.write_text(json.dumps({"seed": 3.0, "alpha_steps": 21, "format": "json"}))
    code, out, _ = run(capsys, "fig4", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("fig4", "alpha_steps", 21.9),
        ("fig4", "alpha_steps", True),
        ("fig4", "n_passes", 2.5),
        ("fig4", "shots", False),
        ("fig4", "tau", "0.001"),
        ("sweep-phase", "phi_steps", 3.5),
        ("sweep-phase", "m", True),
        ("fringe", "scan_steps", "37"),
        ("fringe", "qwp_a_deg", True),
        ("tomography", "shots", True),
        ("tomography", "shots", "1e5"),
        ("rates", "coincidences", "1e3"),
        ("rates", "singles", True),
        ("sweep-phase", "tau", None),
        ("fringe", "state", 5),
        ("tomography", "state", 5),
        ("tomography", "basis", ["H", "V", "D", "R"]),
        ("tomography", "target", "ghz"),
        ("tomography", "method", "fast"),
        ("fig4", "model", "fast"),
        ("sweep-phase", "format", "xml"),
        # Python's json reads NaN; an integer literal can pass the float range.
        ("rates", "expected", float("nan")),
        pytest.param("sweep-phase", "tau", 10**400, id="sweep-phase-tau-400-digits"),
    ],
)
def test_config_numbers_are_exact(tmp_path, capsys, command, key, value):
    # No silent coercion: 21.9 steps is not 21, true shots is not 1, 5 is not
    # a state, a choice takes only the values --help lists, and a number is
    # finite.
    doc = {"seed": 1, "shots": 1e3} if command == "tomography" else {}
    if command == "rates":
        doc = {"singles": 1e5, "coincidences": 1e3}
    doc[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert "invalid configuration" in err and key in err and out == ""


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("tau", list(range(100_000)), "a JSON array of 100000 entries"),
        ("phi_steps", {str(i): i for i in range(50_000)}, "a JSON object of 50000 keys"),
        ("format", "x" * 300_000, f'a JSON string of 300000 characters, "{"x" * 64}"...'),
    ],
    ids=["array", "object", "string"],
)
def test_config_value_of_any_size_is_shown_in_a_short_message(tmp_path, capsys, key, value, shown):
    # The value is shown by its JSON type and size, not echoed whole; the
    # message still names the key.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, "sweep-phase", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"stimpairs: invalid configuration: {key} must be ") and err.endswith(f", got {shown}\n")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["fringe", "--state", "q" * 100_000], f'unknown state a JSON string of 100000 characters, "{"q" * 64}"...'),
        (["fringe", "--state", "dephased:" + "x" * 100_000], "bad dephasing strength in a JSON string of 100009 "),
        (["tomography", "--state", "q" * 100_000], "unknown state a JSON string of 100000 characters"),
        (["tomography", "--basis", "H" * 100_000],
         "basis needs 4 of the letters HVDARL, got a JSON string of 100000 characters"),
    ],
    ids=["fringe-state", "fringe-dephased-value", "tomography-state", "tomography-basis"],
)
def test_outside_text_of_any_size_is_shown_in_a_short_message(capsys, argv, shown):
    # A --state or --basis value is shown by its kind, its length and its
    # first 64 characters, not echoed whole.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"stimpairs: invalid configuration: {shown}")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "text, cause",
    [
        ('{"tau": ' + "1" * 5000 + "}", "integer string conversion"),
        ("[" * 200_000 + "]" * 200_000, "recursion depth"),
    ],
    ids=["5000-digit-integer", "200000-deep"],
)
def test_every_json_refusal_is_a_schema_error_naming_the_file(tmp_path, capsys, text, cause):
    # json.loads refuses these with a plain ValueError and a RecursionError,
    # not a JSONDecodeError: each is still a schema error, exit 1.
    if cause.startswith("integer") and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python parses integers of any length")
    path = tmp_path / "c.json"
    path.write_text(text)
    code, out, err = run(capsys, "sweep-phase", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"stimpairs: schema error: config {path}: invalid JSON: ") and cause in err
    code, out, err = run(capsys, "tomography", "--counts", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"stimpairs: schema error: counts {path}: invalid JSON: ") and cause in err


@pytest.mark.parametrize("flag,value", [("--target", "ghz"), ("--method", "fast")])
def test_bad_choice_flag_exits_one(capsys, flag, value):
    code, out, err = run(capsys, "tomography", flag, value, "--shots", "1e3", "--seed", "1")
    assert code == 1
    assert "invalid configuration" in err and value in err and out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_number_flag_exits_one(capsys, value):
    # argparse's float() reads nan and inf; echoed, they would put NaN and
    # Infinity into the rates JSON, which strict JSON readers reject.
    code, out, err = run(
        capsys, "rates", "--singles", "1e5", "--coincidences", "1e3", "--expected", value
    )
    assert code == 1
    assert "invalid configuration" in err and "expected" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep-phase", "--phi-min", "-1e-3", "--phi-steps", "2"),
        ("sweep-phase", "--phi-min", "-.5", "--phi-steps", "2"),
        ("fringe", "--qwp-a-deg", "-1e1"),
        ("fig4", "--alpha-min-deg", "-2E1", "--seed", "1"),
    ],
)
def test_negative_flag_values_in_any_float_form_are_values(capsys, argv):
    # argparse before 3.13 takes only -1 and -1.5 as values, so -1e-3 would
    # read as an unknown option and exit 1 with "expected one argument".
    *head, flag, value = argv[:3]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *head, f"{flag}={value}", *argv[3:])


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_negative_non_finite_flag_values_reach_the_number_check(capsys, value):
    code, out, err = run(capsys, "sweep-phase", "--phi-min", value)
    assert (code, out) == (1, "")
    assert err.startswith("stimpairs: invalid configuration: phi_min must be a finite number, got ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-phase", "--n-list", "2,5", "--phi-steps", "4", "--tau", "0.002", "--m", "2"],
        ["fig4", "--alpha-steps", "21", "--seed", "5", "--model", "approx", "--n-passes", "3"],
        ["fringe", "--state", "dephased:0.2", "--pol-b-deg", "30", "--qwp-a-deg", "12.5",
         "--scan-steps", "19", "--seed", "4"],
        ["rates", "--singles", "36000", "--coincidences", "1300", "--expected", "990000"],
        ["tomography", "--state", "dephased:0.2", "--seed", "3", "--shots", "1e4", "--target", "none"],
        ["tomography", "--counts", "COUNTS", "--method", "linear", "--basis", "HVDR"],
    ],
)
def test_config_echo_reproduces_the_run(tmp_path, capsys, argv):
    # The echoed configuration, fed back as a config file, is the same run.
    if "COUNTS" in argv:
        counts = tmp_path / "counts.json"
        counts.write_text(simulate_tomography(bell_state(), 1e4, seed=12).to_json())
        argv = [str(counts) if a == "COUNTS" else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv[0] in ("rates", "tomography"):
        echo = json.loads(out)["config"]
    else:
        echo = json.loads(out.splitlines()[1].removeprefix("# config: "))
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    code, again, _ = run(capsys, argv[0], "--config", str(cfg))
    assert code == 0
    assert again == out


@pytest.mark.parametrize("angle", ["30", "0.1", "12.345", "45"])
def test_fringe_echoes_angles_as_given(capsys, angle):
    code, out, _ = run(capsys, "fringe", "--pol-b-deg", angle, "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["pol_b_deg"] == float(angle)


@pytest.mark.parametrize(
    "argv,column,grid",
    [
        (["fig4", "--seed", "7"], "alpha_deg", (2.0, 15.0, 81)),
        (["fringe", "--seed", "3"], "pol_a_deg", (0.0, 180.0, 37)),
        (["fig4", "--alpha-min-deg", "-15", "--alpha-steps", "61"], "alpha_deg", (-15.0, 15.0, 61)),
    ],
    ids=["fig4", "fringe", "fig4-across-zero"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_first_column_is_the_requested_grid(capsys, argv, column, grid, fmt):
    # The angle column is the linspace grid itself, not its round trip
    # through radians (2.6500000000000004 for 2.65).
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        values = [row[column] for row in json.loads(out)["scan"]]
    else:
        header, *rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert header.split(",")[0] == column
        values = [float(ln.split(",")[0]) for ln in rows]
    assert [repr(v) for v in values] == [repr(v) for v in np.linspace(*grid).tolist()]


_MISSING = object()


@pytest.mark.parametrize(
    "key,value",
    [("L_m", True), ("n_p", "1.53"), ("lambda_p_m", None), pytest.param("n_s", _MISSING, id="n_s-missing")],
)
def test_fig4_geometry_values_must_be_numbers(tmp_path, capsys, key, value):
    # A value that is not a number and a missing key are both schema errors.
    geometry = {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9, key: value}
    if value is _MISSING:
        del geometry[key]
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(geometry))
    # Either way the error names the path fig4's config echo writes the value at.
    problem = "missing" if value is _MISSING else f"expected a finite number, got {json.dumps(value)}"
    expected = (1, "", f"stimpairs: schema error: geometry.{key}: {problem}\n")
    assert run(capsys, "fig4", "--geometry", str(path), "--alpha-steps", "21") == expected
    path.write_text(json.dumps({"geometry": geometry, "alpha_steps": 21}))
    assert run(capsys, "fig4", "--config", str(path)) == expected


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "expected a JSON object"),
     ("{", "invalid JSON at line 1: Expecting property name enclosed in double quotes")],
    ids=["array", "invalid-json"],
)
def test_file_errors_name_the_flag(tmp_path, capsys, text, message):
    # A --geometry file is named as geometry, a --config file as config.
    path = tmp_path / "g.json"
    path.write_text(text)
    for flag, what in (("--geometry", "geometry"), ("--config", "config")):
        code, out, err = run(capsys, "fig4", flag, str(path))
        assert (code, out, err) == (1, "", f"stimpairs: schema error: {what} {path}: {message}\n")


_FLAGS = {
    "sweep-phase": "--config --out --n-list --phi-min --phi-max --phi-steps --tau --m --format",
    "fig4": "--config --out --geometry --alpha-min-deg --alpha-max-deg --alpha-steps "
    "--n-passes --tau --shots --seed --model --format",
    "fringe": "--config --out --state --pol-b-deg --qwp-a-deg --qwp-b-deg --scan-min-deg "
    "--scan-max-deg --scan-steps --shots --seed --format",
    "tomography": "--config --out --state --counts --method --jeffreys --basis --target "
    "--shots --seed",
    "rates": "--config --out --singles --coincidences --expected",
    "verify": "--config --out --json-out",
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: stimpairs {command}")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *_FLAGS[command].split()}


def test_config_integral_floats_are_integers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_steps": 21.0, "n_passes": 2, "shots": 100000000, "format": "json"}))
    code, out, _ = run(capsys, "fig4", "--config", str(cfg))
    assert code == 0
    config = json.loads(out)["config"]
    assert config["alpha_steps"] == 21 and isinstance(config["alpha_steps"], int)
    assert config["shots"] == 1e8 and isinstance(config["shots"], float)
    assert len(json.loads(out)["scan"]) == 21


def test_seeded_output_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["fig4", "--seed", "42", "--alpha-steps", "21", "--shots", "1e8"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fig4_json_structure(capsys):
    code, out, _ = run(
        capsys, "fig4", "--alpha-steps", "21", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "scan", "fit"}
    assert doc["config"]["seed"] is None
    # The exact emission model bends the cosine by O(tau^2), so noiseless
    # B sits a few 1e-6 under 1.
    assert doc["fit"]["B"] == pytest.approx(1.0, abs=1e-4)
    assert doc["fit"]["p2_over_p1"] == pytest.approx(4.0, abs=2e-4)
    assert len(doc["scan"]) == 21


def test_fig4_csv_embeds_fit(capsys):
    code, out, _ = run(capsys, "fig4", "--alpha-steps", "21")
    assert code == 0
    fit_lines = [ln for ln in out.splitlines() if ln.startswith("# fit: ")]
    assert len(fit_lines) == 1
    fit = json.loads(fit_lines[0][len("# fit: ") :])
    assert fit["B"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig4_fits_one_harmonic_fewer_than_its_passes(capsys, fmt):
    # The small-tau three-pass fringe is 3 + 4 cos phi + 2 cos 2 phi over the
    # one-pass rate: harmonics 4/3 and 2/3 over the mean, enhancement 9.  No
    # one-harmonic key (B, C, visibility, p2_over_p1) is written past N = 2.
    code, out, _ = run(capsys, "fig4", "--n-passes", "3", "--model", "approx", "--format", fmt)
    assert code == 0
    if fmt == "json":
        fit = json.loads(out)["fit"]
    else:
        lines = out.splitlines()
        assert lines[2].startswith("# fit: ") and lines[3] == "alpha_deg,phase_rad,counts"
        fit = json.loads(lines[2].removeprefix("# fit: "))
    assert set(fit) == {"A", "harmonics", "enhancement", "cov", "residual"}
    (r1, c1), (r2, c2) = fit["harmonics"]
    assert (r1, r2) == (pytest.approx(4.0 / 3.0, abs=1e-12), pytest.approx(2.0 / 3.0, abs=1e-12))
    assert min(c1, 2.0 * math.pi - c1) < 1e-12 and min(c2, 2.0 * math.pi - c2) < 1e-12
    assert fit["enhancement"] == pytest.approx(9.0, rel=1e-12)
    assert np.array(fit["cov"]).shape == (5, 5)


def test_fig4_seeded_many_pass_fits_report_their_enhancement(capsys):
    # A seeded exact-model fringe at N = 5 and N = 34: N - 1 harmonics, an
    # enhancement near N^2.  N = 34 is the largest the default 81 tilts take
    # (N = 35 is refused below).
    for n_passes in (5, 34):
        code, out, _ = run(capsys, "fig4", "--n-passes", str(n_passes), "--seed", "7")
        assert code == 0
        fit = json.loads(out.splitlines()[2].removeprefix("# fit: "))
        assert len(fit["harmonics"]) == n_passes - 1
        assert fit["enhancement"] == pytest.approx(n_passes**2, rel=0.01)


@pytest.mark.parametrize(
    "n_passes,message",
    [
        # One pass: a flat fringe, refused as before.
        ("1", re.escape("fit parameters are degenerate (flat or constant scan)")),
        ("35", re.escape("fit parameters are degenerate (flat scan, or harmonics the phases do not "
                         "resolve): 34 harmonics on 81 points")),
        # The design is judged before the amplitude's sign, which a near-singular
        # solve leaves to rounding: once refused as a negative amplitude.
        ("37", re.escape("fit parameters are degenerate (flat scan, or harmonics the phases do not "
                         "resolve): 36 harmonics on 81 points")),
        ("38", re.escape("fit parameters are degenerate (flat scan, or harmonics the phases do not "
                         "resolve): 37 harmonics on 81 points")),
        ("39", "need at least 82 points to fit 38 harmonics, got 81"),
        ("40", "need at least 84 points to fit 39 harmonics, got 81"),
        ("41", "need at least 86 points to fit 40 harmonics, got 81"),
    ],
)
def test_fig4_pass_counts_the_tilts_cannot_fit_exit_two(capsys, n_passes, message):
    # Every refusal past N = 2 names the harmonic count and the number of tilts.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fig4", "--n-passes", n_passes)
    assert (code, out) == (2, "")
    assert re.fullmatch(f"stimpairs: numerical failure: {message}\n", err), err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep-phase", "--phi-steps", "1"], "need phi-max > phi-min and phi-steps >= 2"),
        (["fig4", "--alpha-min-deg", "9", "--alpha-max-deg", "3"],
         "need alpha-max-deg > alpha-min-deg and alpha-steps >= 2"),
        (["fringe", "--scan-min-deg", "5", "--scan-max-deg", "5"],
         "need scan-max-deg > scan-min-deg and scan-steps >= 2"),
    ],
    ids=["sweep-phase", "fig4", "fringe"],
)
def test_scan_grid_rule(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"stimpairs: invalid configuration: {message}\n")


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["sweep-phase", "--n-list", ","], None, "invalid configuration: n-list is empty"),
        (["fig4"], {"seed": 2**64}, f"invalid configuration: seed must be a u64, got {2**64}"),
        (["fringe"], {"seed": -1}, "invalid configuration: seed must be a u64, got -1"),
        (["fringe", "--state", "dephased:x"], None,
         'invalid configuration: bad dephasing strength in "dephased:x"'),
        # The state is checked before the scan grid.
        (["fringe", "--state", "ghz", "--scan-steps", "1"], None,
         'invalid configuration: unknown state "ghz", expected "bell" or "dephased:<d>"'),
        # A form takes a :<value> exactly when its row has a parameter.
        (["fringe", "--state", "bell:0.3"], None,
         'invalid configuration: unknown state "bell:0.3", expected "bell" or "dephased:<d>"'),
        (["tomography"], {"state": "dephased"},
         'invalid configuration: unknown state "dephased", expected "bell" or "dephased:<d>"'),
        (["tomography", "--state", "dephased:"], None,
         'invalid configuration: bad dephasing strength in "dephased:"'),
        (["fig4"], {"geometry": 5}, "schema error: geometry: expected a JSON object"),
        # S = eta R and C = eta^2 R, so C > S would need an efficiency above 1.
        (["rates", "--singles", "10", "--coincidences", "100"], None,
         "invalid configuration: coincidences 100.0 exceed singles 10.0: "
         "the implied detection efficiency C / S is above 1"),
        (["rates", "--singles", "0", "--coincidences", "1"], None,
         "invalid configuration: coincidences 1.0 exceed singles 0.0: "
         "the implied detection efficiency C / S is above 1"),
    ],
    ids=[
        "empty-n-list", "seed-2^64", "seed-negative", "dephasing-strength", "state-before-grid",
        "bell-with-value", "dephased-without-value", "dephased-empty-value",
        "geometry", "rates-coincidences-above-singles", "rates-zero-singles",
    ],
)
def test_rejected_inputs_exit_one(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"stimpairs: {message}\n")


def test_fringe_command(capsys):
    # The diagonal fringe's visibility is 1 - d; dephasing keeps the H/V
    # fringe's at 1, so d = 1 still fits there.
    for argv, visibility in (
        (["--state", "dephased:0.3"], 0.7),
        (["--state", "dephased:1", "--pol-b-deg", "0"], 1.0),
    ):
        code, out, _ = run(capsys, "fringe", *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"]["B"] == pytest.approx(visibility, abs=1e-6)


def test_fringe_bad_state(capsys):
    code, _, err = run(capsys, "fringe", "--state", "wobbly")
    assert code == 1
    assert "wobbly" in err


def test_tomography_simulated(capsys):
    code, out, _ = run(
        capsys, "tomography", "--state", "bell", "--shots", "1e4", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_to_singlet"] > 0.99
    assert doc["physical"] is True
    matrix = doc["rho"]["matrix"]
    assert len(matrix) == 4 and len(matrix[0]) == 4


def test_tomography_noiseless_mle_writes_strict_json(capsys):
    # The noiseless record's MLE optimum has rates of order 1e-33 on HH and
    # VV; its log-likelihood is finite, never -Infinity, which is not JSON.
    code, out, _ = run(capsys, "tomography", "--state", "dephased:0.2")
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse_literal)
    assert math.isfinite(doc["log_likelihood"])


def test_tomography_linear_method(capsys):
    code, out, _ = run(
        capsys,
        "tomography",
        "--state",
        "dephased:0.2",
        "--method",
        "linear",
        "--shots",
        "1e6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["method"] == "linear"
    assert doc["iterations"] is None


def test_tomography_linear_fidelity_is_the_nearest_states(capsys):
    # Shot noise gives this linear estimate a negative eigenvalue; its
    # fidelity is the nearest state's, 0.9957, recomputed bit for bit from
    # the printed rho.
    code, out, _ = run(capsys, "tomography", "--method", "linear", "--shots", "1e3", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_eigenvalue"] < 0.0
    assert doc["fidelity_to_singlet"] > 0.99
    rho = rho_from_json(json.dumps(doc["rho"]))
    assert doc["fidelity_to_singlet"] == fidelity(project_physical(rho), bell_state())


def test_tomography_from_counts_file(tmp_path, capsys):
    record = simulate_tomography(bell_state(), 1e4, seed=12)
    path = tmp_path / "counts.json"
    path.write_text(record.to_json())
    code, out, _ = run(capsys, "tomography", "--counts", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_to_singlet"] > 0.99
    # The echo is the resolved settings: shots and seed are echoed, not used.
    assert doc["config"]["counts"] == str(path) and doc["config"]["state"] is None
    assert doc["config"]["shots"] == 1e5 and doc["config"]["seed"] is None


def test_tomography_bad_counts_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"shots": 10}')
    code, _, err = run(capsys, "tomography", "--counts", str(path))
    assert code == 1
    assert "schema" in err


def test_counts_schema_errors_name_the_file(tmp_path, capsys):
    # A counts record's schema error begins "counts <path>:", the form
    # --config and --geometry errors take, then the path inside the record.
    record = json.loads(simulate_tomography(bell_state(), 1e4, seed=12).to_json())
    record["settings"][0]["arm_b"]["pol_deg"] = "x"
    path = tmp_path / "bad-record.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "tomography", "--counts", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f'stimpairs: schema error: counts {path}: settings[0].arm_b.pol_deg: expected a finite number, got "x"\n'
    )
    path.write_text("{broken")
    code, out, err = run(capsys, "tomography", "--counts", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"stimpairs: schema error: counts {path}: invalid JSON at line 1: ")


def test_counts_record_with_a_long_integer_gets_a_short_message(tmp_path, capsys):
    # shots of 4,001 digits, under the int-to-str limit, so the reader takes
    # it: the refusal shows it by its size, not its digits.
    text = simulate_tomography(bell_state(), 1e4, seed=12).to_json()
    path = tmp_path / "long-shots.json"
    path.write_text(text.replace('"shots": 10000.0', '"shots": ' + "1" * 4001, 1))
    code, out, err = run(capsys, "tomography", "--counts", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"stimpairs: schema error: counts {path}: shots: expected a finite number, "
        "got an integer of 13288 bits\n"
    )
    assert len(err.encode()) < 1024


def test_tomography_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "tomography", "--counts", "/no/such/file.json")
    assert code == 3
    assert "i/o" in err


def test_tomography_state_and_counts_conflict(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{}")
    code, _, err = run(
        capsys, "tomography", "--state", "bell", "--counts", str(path)
    )
    assert code == 1


def test_rates_output(capsys):
    code, out, _ = run(
        capsys, "rates", "--singles", "1e5", "--coincidences", "1e3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == pytest.approx(1e7)
    assert "note" not in doc


def test_rates_discrepancy_note(capsys):
    code, out, _ = run(
        capsys,
        "rates",
        "--singles",
        "1e5",
        "--coincidences",
        "1e3",
        "--expected",
        "1e3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_ratio"] == pytest.approx(1e4)
    assert "unit conventions" in doc["note"]


@pytest.mark.parametrize("expected", ["0", "-5"])
def test_rates_non_positive_expected_exits_one(capsys, expected):
    # A reference of zero or below has no ratio; it is refused, not ignored.
    code, out, err = run(
        capsys, "rates", "--singles", "1e5", "--coincidences", "1e3", "--expected", expected
    )
    assert code == 1
    assert "invalid configuration" in err and "expected" in err and out == ""


def test_rates_config_null_expected_is_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"singles": 1e5, "coincidences": 1e3, "expected": None}))
    code, out, _ = run(capsys, "rates", "--config", str(cfg))
    assert code == 0
    assert set(json.loads(out)) == {"command", "config", "rate"}


def test_rates_requires_inputs(capsys):
    code, _, err = run(capsys, "rates", "--singles", "1e5")
    assert code == 1


def test_rates_zero_coincidences_exits_one(capsys):
    code, _, err = run(
        capsys, "rates", "--singles", "1e5", "--coincidences", "0"
    )
    assert code == 1


@pytest.mark.parametrize(
    "singles,coincidences,rate",
    [("1e-200", "1e-200", 1e-200), ("1e300", "1e300", 1e300), ("36000", "1300", 996923.0769230769)],
    ids=["square-underflows", "square-overflows", "ordinary"],
)
def test_rates_in_range_whatever_singles_squared(capsys, singles, coincidences, rate):
    code, out, err = run(capsys, "rates", "--singles", singles, "--coincidences", coincidences)
    assert code == 0 and err == ""
    assert json.loads(out)["rate"] == rate


@pytest.mark.parametrize(
    "singles,coincidences", [("1e150", "1e-300"), ("1e200", "1")], ids=["quotient", "power"]
)
def test_rates_past_float_range_exits_two(capsys, singles, coincidences):
    # S^2 / C past the float range is a numerical failure, never "rate": Infinity.
    code, out, err = run(capsys, "rates", "--singles", singles, "--coincidences", coincidences)
    assert code == 2
    assert "numerical failure" in err and "overflows" in err and out == ""


@pytest.mark.parametrize(
    "singles,coincidences,expected",
    [("1e200", "1e100", "1e-300"), ("1e-200", "1e-200", "1e300")],
    ids=["ratio-overflows", "ratio-underflows"],
)
def test_rates_expected_ratio_past_float_range_exits_two(capsys, singles, coincidences, expected):
    # A ratio rounded to inf is not JSON, and one rounded to 0 is no ratio.
    code, out, err = run(
        capsys, "rates", "--singles", singles, "--coincidences", coincidences,
        "--expected", expected,
    )
    assert code == 2 and out == ""
    assert err.startswith("stimpairs: numerical failure:") and "ratio" in err


def test_rates_order_flag_removed(tmp_path, capsys):
    code, _, err = run(capsys, "rates", "--singles", "1e5", "--coincidences", "1e3", "--order", "3")
    assert code == 1
    assert "--order" in err
    # A config file that still carries "order" runs S^2 / C; the key is
    # ignored like any other unused key and is not echoed.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"singles": 1e5, "coincidences": 1e3, "order": 3}))
    code, out, _ = run(capsys, "rates", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == 1e7 and "order" not in doc["config"]


def test_linalg_error_in_a_handler_exits_two(capsys, monkeypatch):
    # main maps numpy's LinAlgError to exit 2 without importing numpy itself.
    def singular(record):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(stimpairs.tomography, "reconstruct_linear", singular)
    code, out, err = run(capsys, "tomography", "--method", "linear", "--shots", "1e3", "--seed", "1")
    assert code == 2
    assert "numerical failure: Singular matrix" in err and out == ""


@pytest.mark.parametrize(
    "module, callee, argv",
    [
        ("resonator", "sweep_rows", ["sweep-phase"]),
        ("polarization", "simulate_stimulation_fringe", ["fig4"]),
        ("polarization", "simulate_polarization_fringe", ["fringe"]),
    ],
    ids=["sweep-phase", "fig4", "fringe"],
)
def test_memory_error_in_a_handler_exits_two(capsys, monkeypatch, module, callee, argv):
    # A grid too large to allocate raises numpy's _ArrayMemoryError, a
    # MemoryError: a numerical failure, not a traceback with the exit code of
    # bad input.  The callee raises it here without allocating anything.
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(getattr(stimpairs, module), callee, out_of_memory)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"stimpairs: numerical failure: {message}\n")


def test_numerical_failure_exits_two(capsys):
    # Four points cannot constrain the three-parameter fringe model, and at
    # d = 1 the diagonal fringe is flat, so the fit has no phase to find.
    for argv in (["--scan-steps", "4"], ["--state", "dephased:1"]):
        code, _, err = run(capsys, "fringe", *argv)
        assert code == 2
        assert "numerical" in err


def test_fringe_past_the_fit_range_exits_two_without_a_warning(capsys):
    # The fit's sums of squares overflow past about 1e154 counts: a numerical
    # failure naming the count scale, not an overflow warning (an error under
    # tier-1) followed by a wrong "degenerate" verdict.
    code, out, err = run(capsys, "fringe", "--shots", "1e160")
    assert (code, out) == (2, "")
    assert err == "stimpairs: numerical failure: counts up to 5e+159 overflow the fit's sums of squares\n"


@pytest.mark.parametrize("shots", ["1e-155", "1e-160", "1e-165"])
def test_fringe_below_the_fit_range_exits_two_without_a_warning(capsys, shots):
    # The mirror case: counts so small that the fit's sums of squares leave
    # the normal float range are a numerical failure naming the count scale,
    # not a NaN covariance in the fit line or a "degenerate" verdict.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fringe", "--shots", shots)
    assert (code, out) == (2, "")
    top = f"{float(shots) / 2.0:.3g}"
    assert err == f"stimpairs: numerical failure: counts up to {top} underflow the fit's sums of squares\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("sweep-phase", "--tau", "1e308", "--phi-steps", "2"), "|A| tau up to inf "),
        (("sweep-phase", "--tau", "1e308", "--n-list", "2", "--phi-steps", "2", "--format", "json"),
         "|A| tau up to inf "),
        (("fig4", "--tau", "1e308", "--model", "approx"), "|A| tau up to inf "),
        (("fig4", "--tau", "1e308"), "all counts are zero, nothing to fit"),
    ],
    ids=["sweep-csv", "sweep-json", "fig4-approx", "fig4-exact"],
)
def test_tau_with_x_past_the_float_range_exits_two_without_a_warning(capsys, argv, message):
    # x = |A| tau past the float range leaves the small-tau limit without a
    # value: exit 2 naming |A| tau, never inf or Infinity in the output.  The
    # exact model's rate is 0 there, so its fringe has nothing to fit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"stimpairs: numerical failure: {message}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_fit_is_a_numerical_failure_not_json_nan(capsys, monkeypatch, fmt):
    # Every JSON the CLI writes is strict: a NaN or infinity that reaches it
    # is a numerical failure naming its key, and nothing is written.
    real_fit = stimpairs.polarization.fit_fringe

    def nan_covariance(scan):
        fit = real_fit(scan)
        return dataclasses.replace(fit, covariance=np.full((3, 3), math.nan))

    monkeypatch.setattr(stimpairs.polarization, "fit_fringe", nan_covariance)
    code, out, err = run(capsys, "fringe", "--format", fmt)
    assert (code, out) == (2, "")
    key = "cov[0][0]" if fmt == "csv" else "fit.cov[0][0]"
    assert err == f"stimpairs: numerical failure: {key} = nan is not a JSON number\n"


@pytest.mark.parametrize(
    "argv,mean",
    [
        (("fringe", "--shots", "1e300", "--seed", "3"), "5e+299"),
        (("fig4", "--shots", "1e30", "--seed", "1"), "8e+24"),
        (("tomography", "--shots", "1e300", "--seed", "1"), "5e+299"),
    ],
)
def test_seeded_runs_past_the_poisson_limit_exit_one_naming_the_mean(capsys, argv, mean):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"stimpairs: invalid configuration: mean count {mean} is too large for a Poisson draw; "
        "lower the shots or drop the seed\n"
    )


def test_fig4_degenerate_counts_exit_two(capsys):
    # So few shots that every Poisson draw is zero: nothing to fit.
    code, _, err = run(capsys, "fig4", "--shots", "1e-6", "--seed", "1")
    assert code == 2
    assert "numerical" in err


def test_tomography_ingests_maximally_mixed(tmp_path, capsys):
    record = simulate_tomography(np.eye(4, dtype=complex) / 4.0, 1e6, seed=None)
    path = tmp_path / "mixed.json"
    path.write_text(record.to_json())
    code, out, _ = run(capsys, "tomography", "--counts", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_to_singlet"] == pytest.approx(0.25, abs=1e-4)


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(ln.startswith(("PASS", "FAIL")) for ln in lines[:-1])
    assert lines[-1].endswith("checks passed")
    names = {ln.split()[1] for ln in lines[:-1]}
    assert "oracle_pair_probability" in names
    assert len(names) == len(verify_mod.ALL_CHECKS)


def test_verify_json_out(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--json-out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert all(r["passed"] for r in doc["results"])


def _refuse_literal(literal):
    raise ValueError(f"non-JSON literal {literal}")


def test_verify_json_out_is_strict_json_after_a_crash(tmp_path, capsys, monkeypatch):
    # A crashed check reports worst inf and tolerance NaN; the JSON file has
    # neither literal (RFC 8259 refuses both), so they are written as null.
    def boom(theta):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify_mod.resonator, "double_pass_ratio", boom)
    path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--json-out", str(path))
    assert code == 2
    row = next(ln for ln in out.splitlines() if ln.split()[1] == "double_pass")
    assert row.startswith("FAIL double_pass") and row.endswith("RuntimeError: boom")
    assert "worst=inf  tol=nan" in row
    doc = json.loads(path.read_text(), parse_constant=_refuse_literal)
    crashed = [r for r in doc["results"] if not r["passed"]]
    assert crashed == [
        {"name": "double_pass", "passed": False, "tolerance": None, "worst": None,
         "runtime_s": 0.0, "detail": "RuntimeError: boom"}
    ]


def test_verify_nan_error_fails_its_check(tmp_path, capsys, monkeypatch):
    # max(worst, nan) is worst, so a running maximum would pass a NaN error;
    # the runner's maximum propagates it, and both checks that read the
    # closed-form probability fail with worst NaN, written to JSON as null.
    monkeypatch.setattr(verify_mod.resonator, "pair_probability_exact", lambda m, cfg: math.nan)
    path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--json-out", str(path))
    assert code == 2
    failed = [ln.split()[1:3] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failed == [["oracle_pair_probability", "worst=nan"], ["contamination", "worst=nan"]]
    doc = json.loads(path.read_text(), parse_constant=_refuse_literal)
    assert [(r["name"], r["worst"]) for r in doc["results"] if not r["passed"]] == [
        ("oracle_pair_probability", None),
        ("contamination", None),
    ]


def test_verify_reads_no_dense_vector(capsys, monkeypatch):
    # No check lays a Fock state out over the (c+1)^4 space: with the dense
    # constructor and the dense view both refused, all checks still pass.
    def refuse(*args, **kwargs):
        raise AssertionError("dense Fock vector")

    monkeypatch.setattr(verify_mod.fock.FockVector, "__init__", refuse)
    monkeypatch.setattr(verify_mod.fock.FockVector, "amplitudes", property(refuse))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "12/12 checks passed"


def test_closed_form_state_worst_equals_the_dense_difference():
    # The check compares stored entries only; off them both vectors are zero,
    # so its worst value is the dense elementwise maximum bit for bit.
    fock, resonator = verify_mod.fock, verify_mod.resonator
    dense = 0.0
    for n in (1, 2, 3):
        for phi in (0.0, 0.3, math.pi):
            for tau in (0.005, 0.02):
                a_tau = resonator.amplitude_sum(n, phi) * tau
                cutoff = fock.suggest_cutoff(a_tau, floor=8)
                evolved = fock.evolve_vacuum(resonator.ResonatorConfig(n, phi, tau), cutoff)
                closed = fock.disentangled_state(a_tau, cutoff)
                dense = max(dense, float(np.abs(evolved.amplitudes - closed.amplitudes).max()))
    result = verify_mod._run(verify_mod.check_closed_form_state)
    assert result.passed and result.worst == dense > 0.0


def test_verify_detects_mutation(capsys, monkeypatch):
    # A 0.1 percent error in the closed form must trip the oracle check.
    import stimpairs.resonator as resonator_mod

    true_fn = resonator_mod.pair_probability_exact
    monkeypatch.setattr(
        verify_mod.resonator,
        "pair_probability_exact",
        lambda m, cfg: true_fn(m, cfg) * 1.001,
    )
    code, out, _ = run(capsys, "verify")
    assert code == 2
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert any("oracle_pair_probability" in ln for ln in failed)


def test_verify_optimal_interaction_reads_the_library_curve(capsys, monkeypatch):
    # The check searches resonator.pair_probability_vs_u itself, not a copy
    # of (M+1)(1-u)^2 u^M: a curve weighted by u peaks at (M+1)/(M+3), off
    # M/(M+2), and only optimal_interaction fails.
    true_fn = verify_mod.resonator.pair_probability_vs_u
    monkeypatch.setattr(verify_mod.resonator, "pair_probability_vs_u", lambda m, u: u * true_fn(m, u))
    code, out, _ = run(capsys, "verify")
    assert code == 2
    failed = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failed == ["optimal_interaction"]


def test_verify_detects_ccw_weight_mutation(capsys, monkeypatch):
    # A ccw pair term 10 percent too strong breaks the su(1,1) commutators
    # (worst error about 0.46) and must trip the algebra check.
    true_terms = verify_mod.fock._pair_terms

    def mutated(cutoff):
        rows, cols, weights = true_terms(cutoff)
        return rows, cols, np.where(weights < 0, 1.1 * weights, weights)

    monkeypatch.setattr(verify_mod.fock, "_pair_terms", mutated)
    code, out, _ = run(capsys, "verify")
    assert code == 2
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert [ln.split()[1] for ln in failed] == ["su11_algebra"]
    assert float(re.search(r"worst=(\S+)", failed[0]).group(1)) > 0.1


def test_su11_ladder_is_add_at_bit_for_bit():
    # verify applies each pair ladder with np.bincount; np.add.at is the
    # reference.  Both add an entry's terms in index order, so they agree bit
    # for bit: on the pair terms both ways round, and on random terms that
    # repeat rows within and across any split.
    rng = np.random.default_rng(11)
    rows, cols, weights = verify_mod.fock._pair_terms(4)
    cases = [(rows, cols, weights, 625), (cols, rows, weights, 625)]
    cases.append((rng.integers(0, 7, 300), rng.integers(0, 9, 300), rng.normal(size=300), 9))
    for to, frm, w, states in cases:
        y = rng.normal(size=(states, 15))
        want = np.zeros_like(y)
        np.add.at(want, to, w[:, None] * y[frm])
        got = verify_mod._ladder(to, frm, w, y.shape)(y)
        assert got.tobytes() == want.tobytes()


_SCIPY_PROBE = """
import json, sys
import stimpairs
from stimpairs.cli import main

def scipy_loaded():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

out = sys.argv[1]
codes = [
    main(["sweep-phase", "--out", out + "/sweep.csv"]),
    main(["fig4", "--seed", "7", "--out", out + "/fig4.csv"]),
    main(["fringe", "--seed", "3", "--out", out + "/fringe.csv"]),
    main(["rates", "--singles", "36000", "--coincidences", "1300", "--out", out + "/rates.json"]),
    main(["tomography", "--state", "bell", "--method", "linear", "--out", out + "/lin.json"]),
    main(["tomography", "--state", "bell", "--out", out + "/mle.json"]),
]
numpy_only = scipy_loaded()
codes.append(main(["verify", "--out", out + "/verify.txt"]))
print(json.dumps({"codes": codes, "numpy_only": numpy_only, "after_verify": scipy_loaded()}))
"""


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with these arguments, importing stimpairs from this tree."""
    src = str(Path(stimpairs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=True, env=env
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # A fresh interpreter: importing the package and running every command,
    # MLE tomography and verify included, must not load scipy at all.
    doc = _last_json(_fresh_python("-c", _SCIPY_PROBE, str(tmp_path)))
    assert doc["codes"] == [0] * 7
    assert doc["numpy_only"] == []
    # verify builds no sparse operator either: its su11_algebra check applies
    # fock._pair_terms in numpy, so no command loads scipy.
    assert doc["after_verify"] == []


_MODULES_PROBE = """
import json, sys
{code}
loaded = sorted(k.split(".", 1)[1] for k in sys.modules if k.startswith("stimpairs."))
numpy = [k for k in ("numpy", "numpy.random") if k in sys.modules]
print(json.dumps({{"loaded": loaded, "numpy": numpy}}))
"""

_CLOSED_FORM = {"errors", "phase_plate", "resonator"}
_FRINGES = _CLOSED_FORM | {"polarization"}
_ALL_MODULES = _FRINGES | {"cli", "fock", "tomography", "verify"}
# The numpy modules a process loads: none, numpy alone, or numpy.random too
# where a command draws counts (a --seed).
_NUMPY = {"numpy"}
_DRAWS = {"numpy", "numpy.random"}


def _main(argv: list, exit_code: int = 0) -> str:
    """Probe code that runs the command line on argv and checks its exit code."""
    return f"from stimpairs.cli import main\nassert main({argv!r}) == {exit_code}"


@pytest.mark.parametrize(
    "code, expected, numpy",
    [
        ("import stimpairs", set(), set()),
        ("import stimpairs; stimpairs.PlateGeometry", {"errors", "phase_plate"}, _NUMPY),
        ("import stimpairs; stimpairs.pair_rate", {"errors", "rates"}, set()),
        ("import stimpairs; stimpairs.tomography", _FRINGES | {"tomography"}, _NUMPY),
        (["sweep-phase"], _CLOSED_FORM | {"cli"}, _NUMPY),
        (["fig4", "--seed", "7"], _FRINGES | {"cli"}, _DRAWS),
        (["fringe", "--seed", "3"], _FRINGES | {"cli"}, _DRAWS),
        (["rates", "--singles", "36000", "--coincidences", "1300"], {"cli", "errors", "rates"}, set()),
        (["tomography", "--state", "bell"], _FRINGES | {"cli", "tomography"}, _NUMPY),
        (["tomography", "--method", "linear", "--seed", "5"], _FRINGES | {"cli", "tomography"}, _DRAWS),
        (["tomography", "--counts", "COUNTS"], _FRINGES | {"cli", "tomography"}, _NUMPY),
        (["verify"], _ALL_MODULES, _NUMPY),
        # --help and usage errors exit before any handler imports what it runs.
        (_main(["--help"]), {"cli", "errors"}, set()),
        (_main(["rates", "--help"]), {"cli", "errors"}, set()),
        (_main(["sweep-phase", "--phi-steps", "1"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["fringe", "--state", "ghz"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["fig4", "--alpha-steps", "1"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["fringe", "--scan-steps", "1"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["tomography", "--state", "ghz"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["tomography", "--state", "bell:0.3"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["fringe", "--state", "dephased"], exit_code=1), {"cli", "errors"}, set()),
        (_main(["tomography", "--state", "dephased:"], exit_code=1), {"cli", "errors"}, set()),
        (
            _main(["tomography", "--state", "bell", "--counts", "x.json"], exit_code=1),
            {"cli", "errors"},
            set(),
        ),
        (
            _main(["rates", "--singles", "10", "--coincidences", "100"], exit_code=1),
            {"cli", "errors", "rates"},
            set(),
        ),
        (
            _main(
                ["rates", "--singles", "1e200", "--coincidences", "1e100", "--expected", "1e-300"],
                exit_code=2,
            ),
            {"cli", "errors", "rates"},
            set(),
        ),
    ],
    ids=[
        "import", "name", "rates-name", "submodule", "sweep-phase", "fig4", "fringe", "rates",
        "tomography-mle", "tomography-linear", "tomography-counts", "verify", "help", "rates-help",
        "usage-error",
        "fringe-state-error", "fig4-grid-error", "fringe-grid-error", "tomography-state-error",
        "tomography-bell-value-error", "fringe-dephased-no-value-error",
        "tomography-dephased-empty-error",
        "tomography-both-error", "rates-efficiency-error", "rates-ratio-error",
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, code, expected, numpy):
    # The package namespace is lazy and each handler imports what it runs, so
    # a fresh process loads only the submodules its command needs, numpy
    # only where arrays are computed, and numpy.random only where counts are
    # drawn: verify, sweep-phase, a noiseless record and a counts file draw none.
    if isinstance(code, list):
        counts = tmp_path / "counts.json"
        counts.write_text(simulate_tomography(bell_state(), 1e4, seed=12).to_json())
        code = _main([str(counts) if a == "COUNTS" else a for a in code] + ["--out", str(tmp_path / "out")])
    doc = _last_json(_fresh_python("-c", _MODULES_PROBE.format(code=code)))
    assert set(doc["loaded"]) == expected
    assert set(doc["numpy"]) == numpy


def test_missing_numpy_exits_three(tmp_path):
    # A None entry in sys.modules makes `import numpy` fail as if it were not
    # installed: an install fault, not the user's input, so not exit 1.
    code = "import sys\nsys.modules['numpy'] = None\n" + _main(
        ["sweep-phase", "--out", str(tmp_path / "out")], exit_code=3
    )
    proc = _fresh_python("-c", code)
    assert proc.stderr.startswith("stimpairs: missing dependency: ")
    assert "numpy" in proc.stderr


def test_verify_leaves_numpy_ma_unloaded(tmp_path):
    # closed_form_state compares the entries of each vector in turn rather than
    # their np.union1d, which goes through np.unique and imports numpy.ma.
    code = _main(["verify", "--out", str(tmp_path / "verify.txt")])
    code += "\nimport sys; print('numpy.ma' in sys.modules)"
    assert _fresh_python("-c", code).stdout.strip().splitlines()[-1] == "False"


def test_importtime_lists_lazily_loaded_submodules():
    # A submodule that the lazy namespace loads still shows in
    # python -X importtime, which the benchmark reads to time imports.
    code = "import stimpairs; stimpairs.FockVector; stimpairs.tomography"
    proc = _fresh_python("-X", "importtime", "-c", code)
    listed = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"stimpairs.fock", "stimpairs.resonator", "stimpairs.tomography"} <= listed


def test_out_unwritable_exits_three(capsys):
    code, _, err = run(
        capsys, "rates", "--singles", "1", "--coincidences", "1", "--out", "/no/dir/x.json"
    )
    assert code == 3


README = Path(__file__).resolve().parent.parent / "README.md"
_NUMBER = r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"
# A shown number stands on its own (not the 4 of fig4 or the 2 of p2_over_p1).
_SHOWN_NUMBER = rf"(?<![\w.]){_NUMBER}(?![\w.])"


def _readme_examples():
    """(command line, shown lines) of each sh block that a shown-output block follows."""
    block = r"((?:(?!```).)*)```"
    found = re.findall(rf"```sh\n{block}\s*```\n{block}", README.read_text(), re.S)
    return [(command.replace("\\\n", " ").strip(), shown.splitlines()) for command, shown in found]


def _shown_line_matches(shown: str, actual: str) -> bool:
    """True when actual reads as the shown line.

    Text outside numbers must be equal and "..." stands for any text.  A
    shown integer must be printed as it is; a shown decimal must lie within
    half a unit of its last shown digit of the printed one.
    """
    parts = re.split(f"({_SHOWN_NUMBER}|\\.\\.\\.)", shown)
    pattern = "".join(
        ".*" if k % 2 and part == "..." else f"({_NUMBER})" if k % 2 else re.escape(part)
        for k, part in enumerate(parts)
    )
    match = re.fullmatch(pattern, actual)
    if match is None:
        return False
    numbers = [part for k, part in enumerate(parts) if k % 2 and part != "..."]
    for want, got in zip(numbers, match.groups()):
        mantissa, _, exponent = want.partition("e")
        if "." not in mantissa and not exponent:
            if got != want:
                return False
            continue
        decimals = len(mantissa.partition(".")[2])
        half_unit = 0.5 * 10.0 ** (int(exponent or 0) - decimals)
        if abs(float(got) - float(want)) > half_unit * (1.0 + 1e-9):
            return False
    return True


def test_readme_examples_print_what_readme_shows(tmp_path):
    # Every README command whose output the README shows runs in-process with
    # --out; the shown lines must open its output, each compared at the
    # precision shown.  A "..." line ends what is shown.
    examples = _readme_examples()
    assert [command.split()[1] for command, _ in examples] == ["sweep-phase", "fig4", "fig4"]
    for k, (command, shown) in enumerate(examples):
        argv = shlex.split(command)
        assert argv[0] == "stimpairs"
        out = tmp_path / f"example{k}.txt"
        assert main(argv[1:] + ["--out", str(out)]) == 0
        head = shown[: shown.index("...")] if "..." in shown else shown
        assert shown[len(head):] in ([], ["..."])
        actual = out.read_text().splitlines()
        for want, got in zip(head, actual):
            assert _shown_line_matches(want, got), (command, want, got)
        assert len(actual) >= len(head)


def test_shown_line_comparison():
    # The README comparison itself: rounding, elision and integers.
    assert _shown_line_matches(
        '# fit: {"A": 1998.73, ..., "v": 1.0}', '# fit: {"A": 1998.726, "B": 2, "v": 1.0}'
    )
    assert not _shown_line_matches('# fit: {"A": 1999.02, ...}', '# fit: {"A": 1998.726, "B": 2}')
    assert _shown_line_matches("2,0.0,0.0008", "2,0.0,0.0008000000000000001")
    assert not _shown_line_matches("2,0.0,0.0008", "3,0.0,0.0008")
    assert not _shown_line_matches("2,0.0,0.0008", "2.0,0.0,0.0008")
    assert _shown_line_matches("# stimpairs fig4", "# stimpairs fig4")
    assert not _shown_line_matches("# stimpairs fig4", "# stimpairs fig5")
    assert _shown_line_matches("x 1.5e-05", "x 1.54e-05")
    assert not _shown_line_matches("x 1.5e-05", "x 1.56e-05")

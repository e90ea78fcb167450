"""Command-line driver: outputs, determinism, config merging, exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stimpairs
import stimpairs.verify as verify_mod
from stimpairs.cli import main
from stimpairs.tomography import TomographyRecord, simulate_tomography
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


@pytest.mark.parametrize("key,value", [("L_m", True), ("n_p", "1.53"), ("lambda_p_m", None)])
def test_fig4_geometry_values_must_be_numbers(tmp_path, capsys, key, value):
    geometry = {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9, key: value}
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(geometry))
    code, out, err = run(capsys, "fig4", "--geometry", str(path), "--alpha-steps", "21")
    assert code == 1
    assert key in err and out == ""
    path.write_text(json.dumps({"geometry": geometry, "alpha_steps": 21}))
    code, out, err = run(capsys, "fig4", "--config", str(path))
    assert code == 1
    assert key in err and out == ""


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


def test_fringe_command(capsys):
    code, out, _ = run(
        capsys, "fringe", "--state", "dephased:0.3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"]["B"] == pytest.approx(0.7, abs=1e-6)


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


def test_rates_requires_inputs(capsys):
    code, _, err = run(capsys, "rates", "--singles", "1e5")
    assert code == 1


def test_rates_zero_coincidences_exits_one(capsys):
    code, _, err = run(
        capsys, "rates", "--singles", "1e5", "--coincidences", "0"
    )
    assert code == 1


@pytest.mark.parametrize(
    "singles,coincidences", [("1e150", "1e-300"), ("1e200", "1")], ids=["quotient", "power"]
)
def test_rates_past_float_range_exits_two(capsys, singles, coincidences):
    # S^2 / C past the float range is a numerical failure, never "rate": Infinity.
    code, out, err = run(capsys, "rates", "--singles", singles, "--coincidences", coincidences)
    assert code == 2
    assert "numerical failure" in err and "overflows" in err and out == ""


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


def test_numerical_failure_exits_two(capsys):
    # Four points cannot constrain the three-parameter fringe model.
    code, _, err = run(capsys, "fringe", "--scan-steps", "4")
    assert code == 2
    assert "numerical" in err


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


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # A fresh interpreter: importing the package and running every command,
    # MLE tomography and verify included, must not load scipy at all.
    src = str(Path(stimpairs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["codes"] == [0] * 7
    assert doc["numpy_only"] == []
    # verify builds no sparse operator either: its su11_algebra check applies
    # fock._pair_terms in numpy, so no command loads scipy.
    assert doc["after_verify"] == []


def test_out_unwritable_exits_three(capsys):
    code, _, err = run(
        capsys, "rates", "--singles", "1", "--coincidences", "1", "--out", "/no/dir/x.json"
    )
    assert code == 3

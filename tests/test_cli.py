"""Command-line driver: outputs, determinism, config merging, exit codes."""

import json

import numpy as np
import pytest

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
    assert doc["config"]["shots"] is None


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


def test_out_unwritable_exits_three(capsys):
    code, _, err = run(
        capsys, "rates", "--singles", "1", "--coincidences", "1", "--out", "/no/dir/x.json"
    )
    assert code == 3

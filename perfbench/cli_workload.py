"""cli: one op is one fresh `python -m stimpairs.cli` process.

The ops cycle through what users type: sweep-phase (defaults), fig4, fringe
and MLE tomography of a dephased singlet, linear tomography of a counts
record written during set-up, rates, and verify.  Most of each process is
`import stimpairs`, so lazy imports and command-line work show here and
almost nowhere else; verify is the slowest command and runs the fock oracle
checks.  Each op's output is parsed and checked against the documented
format and against reference values.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import reference as ref
from reference import require

NAME = "cli"
RECORD_SHOTS = 1e5
SWEEP_N = (1, 2, 3, 5, 10)
SWEEP_STEPS = 181
FIT_KEYS = {"A", "B", "C", "cov", "residual", "visibility", "p2_over_p1"}
TOMOGRAPHY_KEYS = {
    "command", "config", "rho", "min_eigenvalue", "physical",
    "log_likelihood", "iterations", "fidelity_to_singlet",
}
VERIFY_CHECKS = (
    "oracle_pair_probability", "closed_form_state", "su11_algebra",
    "quadratic_enhancement", "double_pass", "optimal_interaction",
    "plate_phase", "contamination", "fringe_fit", "tomography_linear",
    "dephasing", "singlet_invariance",
)
VERIFY_KEYS = {"name", "passed", "tolerance", "worst", "runtime_s", "detail"}
COMMANDS = ("sweep-phase", "fig4", "fringe", "tomography", "rates", "verify")


@dataclass(frozen=True)
class Op:
    command: str
    args: tuple
    d: float | None = None  # dephasing of the simulated state, when there is one
    rates: tuple | None = None  # (singles, coincidences)


class Workload:
    name = NAME
    cycle_s = 8.0  # about one cycle at the seed commit; see run.py

    def __init__(self, seed: int, workdir):
        from stimpairs import polarization, tomography

        self.seed = seed
        self.peak_child_kb = 0
        self.verify_runtimes: list[dict] = []
        rng = np.random.default_rng([seed])
        self.record_d = float(rng.uniform(0.0, 0.5))
        rho = polarization.dephasing_noise(polarization.bell_state(), self.record_d)
        record = tomography.simulate_tomography(rho, RECORD_SHOTS, seed=int(rng.integers(0, 2**32)))
        self.record_path = workdir / "record.json"
        self.record_path.write_text(record.to_json())
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"
        self.json_path = workdir / "verify.json"

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])

        def draw_seed() -> str:
            return str(int(rng.integers(0, 2**32)))

        def draw_d() -> float:
            return round(float(rng.uniform(0.0, 0.5)), 6)

        d_fringe, d_tomo = draw_d(), draw_d()
        singles = round(float(rng.uniform(1e4, 1e5)), 3)
        coincidences = round(float(rng.uniform(1e2, 5e3)), 3)
        return [
            Op("sweep-phase", ()),
            Op("fig4", ("--seed", draw_seed())),
            Op("fringe", ("--state", f"dephased:{d_fringe!r}", "--seed", draw_seed()), d=d_fringe),
            Op("tomography", ("--state", f"dephased:{d_tomo!r}", "--seed", draw_seed()), d=d_tomo),
            Op("tomography", ("--counts", str(self.record_path), "--method", "linear"), d=self.record_d),
            Op("rates", ("--singles", repr(singles), "--coincidences", repr(coincidences)),
               rates=(singles, coincidences)),
            Op("verify", ("--json-out", str(self.json_path))),
        ]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest command process."""
        return self.peak_child_kb / 1024.0

    def run(self, op: Op, tr) -> int:
        """Run the command as a fresh process; its exit code is the result."""
        argv = [sys.executable, "-m", "stimpairs.cli", op.command, *op.args]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            with tr.span("cli.process", command=op.command):
                proc = subprocess.Popen(argv, stdout=out, stderr=err)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode

    def run_in_process(self, op: Op, tr) -> int:
        """Run the command through stimpairs.cli.main in this (already importing) process."""
        from stimpairs import cli

        argv = [op.command, *op.args, "--out", str(self.stdout_path)]
        self.stderr_path.write_text("")
        with tr.span("cli.main", command=op.command):
            return cli.main(argv)

    def traced_runners(self):
        return (self.run, self.run_in_process)

    def check(self, op: Op, code: int) -> None:
        if code != 0:
            tail = self.stderr_path.read_text()[-300:].strip()
            raise ref.CheckFailure("cli", f"{op.command} exited {code}: {tail}")
        text = self.stdout_path.read_text()
        if op.command == "sweep-phase":
            config, _, header, rows = parse_csv(text, op.command, fit=False)
            require(config.get("n_list") == list(SWEEP_N) and config.get("phi_steps") == SWEEP_STEPS,
                    "cli", f"sweep config {config}")
            require(tuple(header) == ("N", "phi", "tau", "M", "P_exact", "P_approx", "contamination"),
                    "cli", f"sweep header {header}")
            phis = np.linspace(config["phi_min"], config["phi_max"], SWEEP_STEPS)
            table = np.array(rows, dtype=float)
            ref.check_sweep(table, SWEEP_N, phis, config["tau"], config["m"], "cli")
        elif op.command == "fig4":
            config, fit, header, rows = parse_csv(text, op.command, fit=True)
            require(config.get("seed") == int(op.args[1]), "cli", f"fig4 seed echo {config.get('seed')}")
            require(header == ["alpha_deg", "phase_rad", "counts"] and len(rows) == config["alpha_steps"] == 81,
                    "cli", f"fig4 has {len(rows)} rows under {header}")
            counts = np.array(rows, dtype=float)[:, 2]
            ref.check_fit(fit["B"], fit["C"], None, 0.0, counts.sum(), "cli")
        elif op.command == "fringe":
            config, fit, header, rows = parse_csv(text, op.command, fit=True)
            require(config.get("state") == f"dephased:{op.d!r}", "cli", f"fringe state echo {config.get('state')}")
            require(header == ["pol_a_deg", "counts"] and len(rows) == config["scan_steps"] == 37,
                    "cli", f"fringe has {len(rows)} rows under {header}")
            counts = np.array(rows, dtype=float)[:, 1]
            # Default arm b is a bare polarizer at 45 degrees: B = 1 - d, C = pi / 2.
            ref.check_fit(fit["B"], fit["C"], 1.0 - op.d, math.pi / 2.0, counts.sum(), "cli")
        elif op.command == "tomography":
            doc = json.loads(text)
            require(set(doc) == TOMOGRAPHY_KEYS, "cli", f"tomography keys {sorted(doc)}")
            rho = np.array(doc["rho"]["matrix"], dtype=float)
            rho = rho[..., 0] + 1j * rho[..., 1]
            if doc["config"]["method"] == "linear":
                require(doc["iterations"] is None and doc["log_likelihood"] is None,
                        "cli", "linear inversion reported MLE fields")
                ref.check_density(rho, "cli", psd=False)
                err = float(np.abs(rho - ref.dephased_singlet(op.d)).max())
                require(err <= ref.FIT_SIGMAS / math.sqrt(RECORD_SHOTS), "cli", f"linear rho off by {err:.3e}")
            else:
                require(doc["physical"] is True and isinstance(doc["iterations"], int),
                        "cli", f"MLE physical={doc['physical']} iterations={doc['iterations']}")
                ref.check_density(rho, "cli")
                fid = doc["fidelity_to_singlet"]
                noise = ref.FIT_SIGMAS / math.sqrt(doc["config"]["shots"])
                require(abs(fid - (1.0 - op.d / 2.0)) <= noise, "cli",
                        f"fidelity {fid} at d={op.d}")
        elif op.command == "rates":
            doc = json.loads(text)
            require(set(doc) == {"command", "config", "rate"}, "cli", f"rates keys {sorted(doc)}")
            singles, coincidences = op.rates
            want = singles**2 / coincidences
            require(abs(doc["rate"] - want) <= 1e-12 * want, "cli", f"rate {doc['rate']} vs {want}")
        elif op.command == "verify":
            lines = text.splitlines()
            want = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
            require(lines and lines[-1] == want, "cli", f"verify summary {lines[-1:]}")
            doc = json.loads(self.json_path.read_text())
            require(set(doc) == {"command", "results"}, "cli", f"verify keys {sorted(doc)}")
            results = doc["results"]
            require(tuple(r.get("name") for r in results) == VERIFY_CHECKS, "cli", "verify check names")
            require(all(set(r) == VERIFY_KEYS and r["passed"] for r in results), "cli", "verify results")
            self.verify_runtimes.append({r["name"]: r["runtime_s"] for r in results})
        else:
            raise ValueError(f"no check for command {op.command!r}")


def parse_csv(text: str, command: str, fit: bool):
    """Split `# stimpairs`, `# config:` and (when fit) `# fit:` lines, header and rows."""
    lines = text.splitlines()
    require(len(lines) >= 4 and lines[0] == f"# stimpairs {command}", "cli", f"{command} banner {lines[:1]}")
    require(lines[1].startswith("# config: "), "cli", f"{command} config line")
    config = json.loads(lines[1].removeprefix("# config: "))
    fit_doc = None
    at = 2
    if fit:
        require(lines[2].startswith("# fit: "), "cli", f"{command} fit line")
        fit_doc = json.loads(lines[2].removeprefix("# fit: "))
        require(set(fit_doc) == FIT_KEYS, "cli", f"{command} fit keys {sorted(fit_doc)}")
        at = 3
    header = lines[at].split(",")
    rows = [line.split(",") for line in lines[at + 1:]]
    require(all(len(r) == len(header) for r in rows), "cli", f"{command} ragged rows")
    return config, fit_doc, header, rows

"""Smoke-size self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Named so that pytest does not collect it with the library's tests.  Takes
about ten seconds: one cli process per cli test, small oracle points, one
analysis op.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.prepare_environment()

import numpy as np  # noqa: E402

import analysis_workload  # noqa: E402
import calibration  # noqa: E402
import cli_workload  # noqa: E402
import oracle_workload  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402

# Metric names as the benchmark's specification spells them; <check>,
# <command> and <workload> are filled from the lists below.
SPEC_NAMES = """
setup_s throughput_ops_s latency_s.p50 latency_s.tail peak_rss_mb
fock.space_s fock.generator_s fock.evolve_s fock.closed_form_s fock.json_s
fock.evolve_calls fock.state_dim_sum fock.leakage_ratio_max fock.failures
resonator.sweep_s resonator.rows resonator.calls phase_plate.s phase_plate.calls
polarization.simulate_s polarization.fit_s polarization.fit_calls polarization.fit_failures
tomography.simulate_s tomography.linear_s tomography.mle_s tomography.mle_iterations
tomography.failures cli.interpreter_s cli.import_s cli.import.fock_s
cli.import.scipy_sparse_s cli.import.scipy_optimize_s
verify.<check>_s cli.<command>.process_s cli.<command>.command_s trace.<workload>.overhead_s
""".split()

SMALL_ORACLE = oracle_workload.Op(2, 0.3, 0.005, 4)


def spec_name(name: str) -> bool:
    fills = {
        "<check>": "|".join(run.VERIFY_CHECKS),
        "<command>": "|".join(re.escape(c) for c in run.CLI_COMMANDS),
        "<workload>": "|".join(run.WORKLOAD_NAMES),
    }
    for pattern in SPEC_NAMES:
        rx = re.escape(pattern)
        for key, alts in fills.items():
            rx = rx.replace(re.escape(key), f"({alts})")
        if re.fullmatch(rx, name):
            return True
    return False


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_correct_ops_pass(self):
        tally = run.Tally()
        oracle = oracle_workload.Workload(1, self.workdir)
        tally.run(oracle, oracle.run, SMALL_ORACLE, NullTracer())
        analysis = analysis_workload.Workload(1, self.workdir)
        tally.run(analysis, analysis.run, analysis.cycle(0)[0], NullTracer())
        cli = cli_workload.Workload(1, self.workdir)
        rates = next(op for op in cli.cycle(0) if op.command == "rates")
        tally.run(cli, cli.run, rates, NullTracer())
        self.assertEqual(tally.failures, [])
        self.assertEqual(tally.attempted, 3)

    def test_perturbed_amplitude_is_a_failed_op(self):
        from stimpairs import fock

        real = fock.evolve_vacuum

        def perturbed(*args, **kwargs):
            state = real(*args, **kwargs)
            amps = state.amplitudes.copy()
            amps[0] += 1e-6
            return fock.FockVector(amps, state.cutoff, leakage=state.leakage)

        tally = run.Tally()
        wl = oracle_workload.Workload(1, self.workdir)
        with mock.patch.object(fock, "evolve_vacuum", perturbed):
            tally.run(wl, wl.run, SMALL_ORACLE, NullTracer())
        self.assertEqual(tally.attempted, 1)
        self.assertEqual([layer for layer, _ in tally.failures], ["fock"])

    def test_library_exception_is_a_failed_op_with_its_layer(self):
        from stimpairs import tomography
        from stimpairs.errors import ReconstructionError

        wl = analysis_workload.Workload(1, self.workdir)
        tally = run.Tally()
        with mock.patch.object(tomography, "reconstruct_mle", side_effect=ReconstructionError("no")):
            tally.run(wl, wl.run, wl.cycle(0)[0], Tracer())
        self.assertEqual([layer for layer, _ in tally.failures], ["tomography.reconstruct_mle"])

    def test_nonzero_exit_is_a_failed_op(self):
        wl = cli_workload.Workload(1, self.workdir)
        tally = run.Tally()
        tally.run(wl, wl.run, cli_workload.Op("sweep-phase", ("--phi-steps", "1")), NullTracer())
        self.assertEqual(tally.attempted, 1)
        self.assertEqual(len(tally.failures), 1)
        self.assertIn("exited 1", tally.failures[0][1])

    def test_self_times_are_non_negative_and_add_up_to_the_op(self):
        tr = Tracer()
        tally = run.Tally()
        oracle = oracle_workload.Workload(1, self.workdir)
        analysis = analysis_workload.Workload(1, self.workdir)
        tally.run(oracle, oracle.run, SMALL_ORACLE, tr)
        tally.run(analysis, analysis.run, analysis.cycle(0)[0], tr)
        self.assertEqual(tally.failures, [])
        own = self_times(tr.spans)
        roots = [s for s in tr.spans if s["parent"] is None]
        self.assertEqual(len(roots), 2)
        for root in roots:
            members = [s for s in tr.spans if s["op"] == root["op"]]
            self.assertGreater(len(members), 5)
            self.assertTrue(all(own[s["id"]] >= 0.0 for s in members))
            total = sum(own[s["id"]] for s in members)
            self.assertTrue(math.isclose(total, root["end"] - root["start"], rel_tol=1e-9, abs_tol=1e-12))

    def test_metric_names_match_the_specification(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(declared_e2e, run.END_TO_END)
        self.assertEqual(declared_layer, run.PER_LAYER)
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(spec_name(name), name)
        from stimpairs import verify

        names = tuple(c.__name__.removeprefix("check_") for c in verify.ALL_CHECKS)
        self.assertEqual(names, run.VERIFY_CHECKS)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        for n, p in ((7, 50), (28, 64), (96, 89), (384, 97)):
            self.assertEqual(run.tail_percentile(n), p)
            if n >= 20:
                self.assertGreaterEqual(n - np.ceil(n * p / 100.0), 10)

    def test_host_clock_scales_by_the_kernel_time_beside_the_op(self):
        clock = calibration.HostClock.__new__(calibration.HostClock)
        clock.starts = [0.5 * i for i in range(21)]
        clock.seconds = [0.5 * calibration.NOMINAL_S if t < 5.0 else 2.0 * calibration.NOMINAL_S
                         for t in clock.starts]
        self.assertAlmostEqual(clock.scaled(1.5, 0.2), 0.4)
        self.assertAlmostEqual(clock.scaled(8.0, 0.2), 0.1)
        clock.starts, clock.seconds = [0.0, 100.0], [calibration.NOMINAL_S, 3.0 * calibration.NOMINAL_S]
        self.assertAlmostEqual(clock.scaled(50.0, 0.3), 0.15)  # too few in the window: nearest samples

    def test_refuses_to_run_without_the_library(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

"""stimpairs benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload {cli,oracle,analysis,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout that has src/stimpairs; the library is
imported from there, never installed.  Each workload is a closed loop with
one client: the next op starts when the previous one has finished and its
output has been checked.  Output checks run between ops and are not timed.

--trace 0 measures set-up (fresh interpreters, median of several), then runs
a fixed number of whole cycles of the workload's ops, about --seconds of op
time at the seed commit, and prints every end-to-end metric.  A calibration
kernel runs before each op and each set-up probe, and the end-to-end times
are scaled by the host speed it measures (calibration.py); the raw times are
printed beside them.  The run is pinned to one CPU, its children too, so the
kernel and the op share a core.  --trace 1 runs one cycle of
every workload, each op untraced and traced back to back, records spans
around each call into stimpairs, writes them out at the end, and prints every
per-layer metric.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every child, unless the environment says
# otherwise; set before numpy loads, which the workload modules below import.
# The ops are small and the loop has one client, so a second BLAS thread only
# spins: on a shared 2-core host it made analysis ops about a quarter slower
# and their timings noisier, and it left oracle unchanged.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import NOMINAL_S, HostClock  # noqa: E402
from cli_workload import COMMANDS as CLI_COMMANDS, VERIFY_CHECKS  # noqa: E402
from oracle_workload import LEAKAGE_TOL  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
INTERPRETER_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
GENERATOR_POINT = (10, 0.0, 0.05)  # the acceptance grid's cutoff-30 point

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "peak_rss_mb": "MB",
}

WORKLOAD_NAMES = ("cli", "oracle", "analysis")

PER_LAYER = {
    "fock.space_s": "s",
    "fock.generator_s": "s",
    "fock.evolve_s": "s",
    "fock.closed_form_s": "s",
    "fock.json_s": "s",
    "fock.evolve_calls": "count",
    "fock.state_dim_sum": "count",
    "fock.leakage_ratio_max": "ratio",
    "fock.failures": "count",
    "resonator.sweep_s": "s",
    "resonator.rows": "count",
    "resonator.calls": "count",
    "phase_plate.s": "s",
    "phase_plate.calls": "count",
    "polarization.simulate_s": "s",
    "polarization.fit_s": "s",
    "polarization.fit_calls": "count",
    "polarization.fit_failures": "count",
    "tomography.simulate_s": "s",
    "tomography.linear_s": "s",
    "tomography.mle_s": "s",
    "tomography.mle_iterations": "count",
    "tomography.failures": "count",
    **{f"verify.{c}_s": "s" for c in VERIFY_CHECKS},
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import.fock_s": "s",
    "cli.import.scipy_sparse_s": "s",
    "cli.import.scipy_optimize_s": "s",
    **{f"cli.{c}.process_s": "s" for c in CLI_COMMANDS},
    **{f"cli.{c}.command_s": "s" for c in CLI_COMMANDS},
    **{f"trace.{w}.overhead_s": "s" for w in WORKLOAD_NAMES},
}


def prepare_environment() -> None:
    """Import stimpairs from src/, here and in every child."""
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def workload_class(name: str):
    import analysis_workload
    import cli_workload
    import oracle_workload

    return {
        "cli": cli_workload.Workload,
        "oracle": oracle_workload.Workload,
        "analysis": analysis_workload.Workload,
    }[name]


# ----- running ops -----


class Tally:
    """Attempted ops, their latencies, and each failure with its layer."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, wl, runner, op, tr) -> float:
        """Run one op, time it, check it; return its latency.  Never raises."""
        root = tr.span("bench.op", workload=wl.name)
        t0 = time.perf_counter()
        try:
            with root:
                out = runner(op, tr)
        except Exception as exc:
            dt = time.perf_counter() - t0
            self.failures.append((failure_layer(exc), f"{type(exc).__name__}: {exc}"))
        else:
            dt = time.perf_counter() - t0
            try:
                wl.check(op, out)
            except Exception as exc:
                self.failures.append((failure_layer(exc), f"{type(exc).__name__}: {exc}"))
        self.starts.append(t0)
        self.latencies.append(dt)
        return dt


def failure_layer(exc: BaseException) -> str:
    from reference import CheckFailure

    if isinstance(exc, CheckFailure):
        return exc.layer
    return getattr(exc, "bench_span", "bench")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it (>= 50)."""
    if n <= 0:
        return 50
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def percentile(values: list[float], p: float) -> float:
    import numpy as np

    return float(np.percentile(values, p))


# ----- untraced run: end-to-end metrics -----


def measure_setup(workload: str, seed: int, workdir: Path, clock: HostClock) -> tuple[list[float], list[float]]:
    """Start times and wall seconds of fresh interpreters that import stimpairs and build the inputs."""
    samples = []
    starts = []
    for i in range(SETUP_REPEATS):
        clock.sample(samples[-1] if samples else 1.0)
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - t0)
        starts.append(t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
    clock.sample(samples[-1])
    return starts, samples


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import NullTracer

    clock = HostClock()
    setup_starts, setup = measure_setup(workload, seed, workdir, clock)
    wl = workload_class(workload)(seed, workdir)
    tr = NullTracer()
    tally = Tally()
    # A run is a fixed number of whole cycles, about --seconds of work at the
    # seed commit: the same ops on every commit, and a sample count that does
    # not move the tail percentile when the host runs faster or slower.
    cycles = max(1, round(seconds / wl.cycle_s))
    dt = 0.0
    for index in range(cycles):
        for op in wl.cycle(index):
            clock.sample(dt)
            dt = tally.run(wl, wl.run, op, tr)
    clock.sample(dt)
    n = tally.attempted
    tail_p = tail_percentile(n)
    raw = tally.latencies
    lat = [clock.scaled(t0, dt) for t0, dt in zip(tally.starts, raw)]
    setup_scaled = [clock.scaled(t0, dt) for t0, dt in zip(setup_starts, setup)]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "throughput_ops_s": n / sum(lat),
        "latency_s.p50": percentile(lat, 50),
        "latency_s.tail": percentile(lat, tail_p),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "cycles": cycles,
        "busy_s": sum(raw),
        "tail_percentile": tail_p,
        "samples": n,
        "error_ratio": len(tally.failures) / n,
        "raw": {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": n / sum(raw),
            "latency_s.p50": percentile(raw, 50),
            "latency_s.tail": percentile(raw, tail_p),
        },
        "kernel_s": {
            "median": statistics.median(clock.seconds),
            "min": min(clock.seconds),
            "max": max(clock.seconds),
            "samples": len(clock.seconds),
        },
        "setup_samples_s": setup,
        "latencies_s": raw,
        "op_starts_s": [t - clock.starts[0] for t in tally.starts],
        "setup_starts_s": [t - clock.starts[0] for t in setup_starts],
        "kernel_starts_s": [t - clock.starts[0] for t in clock.starts],
        "kernel_samples_s": clock.seconds,
    }
    return {"metrics": metrics, "tally": tally, "notes": notes}


# ----- traced run: per-layer metrics -----


def interpreter_seconds() -> float:
    samples = []
    for _ in range(INTERPRETER_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


IMPORT_MODULES = {
    "cli.import_s": "stimpairs",
    "cli.import.fock_s": "stimpairs.fock",
    "cli.import.scipy_sparse_s": "scipy.sparse",
    "cli.import.scipy_optimize_s": "scipy.optimize",
}


def import_seconds() -> dict[str, float]:
    """Cumulative import time per module from `python -X importtime`, median of runs."""
    runs: dict[str, list[float]] = {k: [] for k in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stimpairs"],
            capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(.+)$", line)
            if m:
                cumulative.setdefault(m.group(2).strip(), int(m.group(1)) * 1e-6)
        for key, module in IMPORT_MODULES.items():
            runs[key].append(cumulative.get(module, 0.0))
    return {k: statistics.median(v) for k, v in runs.items()}


def traced_run(first: str, seed: int, workdir: Path) -> dict:
    """One cycle of every workload, each op untraced and traced; spans give the layer metrics."""
    from tracing import NullTracer, Tracer, self_times

    from stimpairs import fock, resonator

    tr = Tracer()
    tally = Tally()
    overhead = {}
    verify_runs = []
    order = (first,) + tuple(w for w in WORKLOAD_NAMES if w != first)
    for name in order:
        wl = workload_class(name)(seed, workdir)
        runners = getattr(wl, "traced_runners", lambda: (wl.run,))()
        # Each op runs untraced and traced back to back, in alternating order,
        # so drift and first-touch costs fall on both sides equally.
        tracers = (NullTracer(), tr)
        walls = [0.0, 0.0]
        for k, op in enumerate(wl.cycle(0)):
            for runner in runners:
                for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                    walls[side] += tally.run(wl, runner, op, tracers[side])
        overhead[name] = walls[1] - walls[0]
        verify_runs += getattr(wl, "verify_runtimes", [])

    n, phi, tau = GENERATOR_POINT
    cfg = resonator.ResonatorConfig(n, phi, tau)
    space = fock.FockSpace(fock.suggest_cutoff(resonator.amplitude_sum(n, phi) * tau, floor=12))
    with tr.span("fock.build_generator", dim=space.dim):
        fock.build_generator(cfg, space)

    spans = tr.spans
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(own[s["id"]] for s in named(*names))

    def attr_sum(key, *names):
        return sum(s["attrs"].get(key, 0) for s in named(*names))

    def failures(*layers):
        return sum(1 for layer, _ in tally.failures if layer.startswith(layers))

    evolves = named("fock.evolve_vacuum")
    metrics = {
        "fock.space_s": busy("fock.FockSpace"),
        "fock.generator_s": busy("fock.build_generator"),
        "fock.evolve_s": busy("fock.evolve_vacuum", "fock.project_entangled"),
        "fock.closed_form_s": busy("fock.disentangled_state"),
        "fock.json_s": busy("fock.FockVector.to_json", "fock.FockVector.from_json"),
        "fock.evolve_calls": len(evolves),
        "fock.state_dim_sum": attr_sum("dim", "fock.evolve_vacuum"),
        "fock.leakage_ratio_max": max((s["attrs"].get("leakage", 0.0) for s in evolves), default=0.0)
        / LEAKAGE_TOL,
        "fock.failures": failures("fock"),
        "resonator.sweep_s": busy("resonator.sweep_rows"),
        "resonator.rows": attr_sum("rows", "resonator.sweep_rows"),
        "resonator.calls": sum(1 for s in spans if s["name"].startswith("resonator.")),
        "phase_plate.s": busy("phase_plate.relative_phase"),
        "phase_plate.calls": attr_sum("calls", "phase_plate.relative_phase"),
        "polarization.simulate_s": busy(
            "polarization.simulate_stimulation_fringe",
            "polarization.simulate_polarization_fringe",
            "polarization.dephasing_noise",
        ),
        "polarization.fit_s": busy("polarization.fit_fringe"),
        "polarization.fit_calls": len(named("polarization.fit_fringe")),
        "polarization.fit_failures": failures("polarization.fit"),
        "tomography.simulate_s": busy("tomography.simulate_tomography"),
        "tomography.linear_s": busy("tomography.reconstruct_linear"),
        "tomography.mle_s": busy("tomography.reconstruct_mle"),
        "tomography.mle_iterations": attr_sum("iterations", "tomography.reconstruct_mle"),
        "tomography.failures": failures("tomography"),
    }
    for check in VERIFY_CHECKS:
        values = [run[check] for run in verify_runs if check in run]
        metrics[f"verify.{check}_s"] = statistics.median(values) if values else 0.0
    metrics["cli.interpreter_s"] = interpreter_seconds()
    metrics.update(import_seconds())
    for command in CLI_COMMANDS:
        for span_name, suffix in (("cli.process", "process_s"), ("cli.main", "command_s")):
            metrics[f"cli.{command}.{suffix}"] = sum(
                own[s["id"]] for s in named(span_name) if s["attrs"]["command"] == command
            )
    for name in WORKLOAD_NAMES:
        metrics[f"trace.{name}.overhead_s"] = overhead[name]
    return {"metrics": metrics, "tally": tally, "tracer": tr, "notes": {"order": order}}


# ----- provenance and output -----


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stimpairs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def report(workload: str, seed: int, trace: bool, result: dict, registry: dict) -> dict:
    """Print the human-readable summary; return the contract's result object."""
    tally = result["tally"]
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in registry.items()}
    doc = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(f"== {workload} (seed {seed}, trace {int(trace)}) ==")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    notes = result["notes"]
    if not trace:
        print(f"  {'error_ratio':<34} {notes['error_ratio']:.6g} ({doc['failed']}/{doc['attempted']} ops)")
        print(f"  latency_s.tail is p{notes['tail_percentile']} of {notes['samples']} ops "
              f"({notes['cycles']} cycles, {notes['busy_s']:.2f} s busy)")
        k = notes["kernel_s"]
        print(f"  times above are at the nominal host speed; calibration kernel {k['median'] * 1e3:.2f} ms "
              f"median (nominal {NOMINAL_S * 1e3:g} ms, range {k['min'] * 1e3:.2f}-{k['max'] * 1e3:.2f}, "
              f"{k['samples']} samples); raw:")
        for name, value in notes["raw"].items():
            print(f"    {name:<32} {value:.6g} {END_TO_END[name]}")
    for layer, message in tally.failures[:20]:
        print(f"  FAILED [{layer}] {message}")
    prov = provenance(seed)
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{workload}-s{seed}-t{int(trace)}"
    with open(results_dir / f"{stamp}.json", "w") as fh:
        json.dump(dict(doc, workload=workload, notes=notes, failures=tally.failures, provenance=prov), fh, indent=1)
    if trace:
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        result["tracer"].write(traces / f"{stamp}.json", {"provenance": prov, "notes": notes})
    return doc


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        if trace:
            result = traced_run(workload, seed, workdir)
        else:
            result = untraced_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(workload, seed, trace, result, PER_LAYER if trace else END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception: children are killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "stimpairs" / "__init__.py").is_file():
        print(f"perfbench: no stimpairs sources under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    # One CPU for the benchmark and every child: the calibration kernel must
    # run on the core the op runs on, and each core of a shared host changes
    # speed on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        wl = workload_class(args.workload)(args.seed, Path(args.setup_only))
        wl.cycle(0)
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    docs = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for doc in docs:
        print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

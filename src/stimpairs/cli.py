"""Command line driver.

Subcommands:

    sweep-phase   phase/pass-count sweep of pair probabilities (CSV rows)
    fig4          tilt-scan stimulation fringe plus sinusoidal fit
    fringe        polarization fringe of a two-qubit state plus fit
    tomography    simulate and/or reconstruct a two-qubit density matrix
    rates         singles/coincidence rate arithmetic
    verify        run the named self-check suite

Every subcommand accepts --config <json> (a file of long-option keys, CLI
flags win), echoes the resolved configuration and seed into its output
header, and is deterministic under a fixed seed.  Scans are CSV, structured
results JSON.  Exit codes: 0 success, 1 validation error, 2 numerical
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import phase_plate, polarization, resonator, tomography, verify
from .errors import FitError, ReconstructionError, SchemaError, TruncationError

DEFAULT_PLATE = {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9}

_SEED_MAX = 2**64


class _UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise SchemaError(f"config {path}: expected a JSON object")
    return doc


def _resolve(args, config: dict, key: str, default):
    """Explicit flag > config file > built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _resolve_number(args, config: dict, key: str, default, integral: bool = False):
    """_resolve for a numeric option: a float, or an int when integral; None stays None.

    A config file can hold any JSON value: take numbers only, never a bool
    (an int subclass) or a string, and for an integral option never a
    fraction that int() would truncate.
    """
    value = _resolve(args, config, key, default)
    if value is None:
        return None
    kind = "an integer" if integral else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _UsageError(f"{key} must be {kind}, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise _UsageError(f"{key} must be {kind}, got {value!r}")
    return int(value)


def _resolve_seed(args, config: dict) -> int | None:
    seed = _resolve_number(args, config, "seed", None, integral=True)
    if seed is not None and not (0 <= seed < _SEED_MAX):
        raise _UsageError(f"seed must be a u64, got {seed}")
    return seed


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_text(command: str, config: dict, columns, rows, comments=()) -> str:
    """CSV text: command and config lines, any extra comment lines, header, rows."""
    lines = [
        f"# stimpairs {command}",
        f"# config: {json.dumps(config, sort_keys=True)}",
        *comments,
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_fitted_scan(out, fmt, command, echo, columns, rows, fit) -> int:
    """A scan and its fit: CSV with a '# fit:' line, or JSON with scan and fit."""
    if fmt == "csv":
        fit_line = f"# fit: {json.dumps(fit.to_dict(), sort_keys=True)}"
        text = _csv_text(command, echo, columns, rows, comments=[fit_line])
    elif fmt == "json":
        scan = [dict(zip(columns, r)) for r in rows]
        text = _json_text({"command": command, "config": echo, "scan": scan, "fit": fit.to_dict()})
    else:
        raise _UsageError(f"unknown format {fmt!r}")
    _emit(text, out)
    return 0


def _parse_state(spec: str) -> np.ndarray:
    """bell or dephased:<d> into a density matrix."""
    if spec == "bell":
        return polarization.state_density(polarization.bell_state())
    if spec.startswith("dephased:"):
        try:
            d = float(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad dephasing strength in {spec!r}")
        return polarization.dephasing_noise(polarization.bell_state(), d)
    raise _UsageError(f"unknown state {spec!r}, expected 'bell' or 'dephased:<d>'")


def _plate_from(args, config: dict) -> phase_plate.PlateGeometry:
    if getattr(args, "geometry", None) is not None:
        doc = _load_config(args.geometry)
    else:
        doc = config.get("geometry", DEFAULT_PLATE)
    if not isinstance(doc, dict):
        raise SchemaError("geometry must be a JSON object")
    return phase_plate.PlateGeometry.from_dict(doc)


# ----- subcommand handlers -----


def _cmd_sweep_phase(args) -> int:
    config = _load_config(args.config)
    n_list = _resolve(args, config, "n_list", "1,2,3,5,10")
    try:
        n_values = [int(tok) for tok in str(n_list).split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad n-list {n_list!r}, expected comma-separated integers")
    if not n_values:
        raise _UsageError("n-list is empty")
    phi_min = _resolve_number(args, config, "phi_min", 0.0)
    phi_max = _resolve_number(args, config, "phi_max", 2.0 * math.pi)
    phi_steps = _resolve_number(args, config, "phi_steps", 181, integral=True)
    if phi_steps < 2 or phi_max <= phi_min:
        raise _UsageError("need phi-max > phi-min and phi-steps >= 2")
    tau = _resolve_number(args, config, "tau", 1e-3)
    m = _resolve_number(args, config, "m", 1, integral=True)
    fmt = _resolve(args, config, "format", "csv")

    phis = np.linspace(phi_min, phi_max, phi_steps)
    rows = resonator.sweep_rows(n_values, phis, tau, m)
    echo = {
        "n_list": n_values,
        "phi_min": phi_min,
        "phi_max": phi_max,
        "phi_steps": phi_steps,
        "tau": tau,
        "m": m,
    }
    if fmt == "csv":
        _emit(_csv_text("sweep-phase", echo, resonator.SWEEP_COLUMNS, rows), args.out)
    elif fmt == "json":
        doc = {
            "command": "sweep-phase",
            "config": echo,
            "columns": list(resonator.SWEEP_COLUMNS),
            "rows": [list(r) for r in rows],
        }
        _emit(_json_text(doc), args.out)
    else:
        raise _UsageError(f"unknown format {fmt!r}")
    return 0


def _cmd_fig4(args) -> int:
    config = _load_config(args.config)
    geom = _plate_from(args, config)
    alpha_min = _resolve_number(args, config, "alpha_min_deg", 2.0)
    alpha_max = _resolve_number(args, config, "alpha_max_deg", 15.0)
    steps = _resolve_number(args, config, "alpha_steps", 81, integral=True)
    if steps < 2 or alpha_max <= alpha_min:
        raise _UsageError("need alpha-max-deg > alpha-min-deg and alpha-steps >= 2")
    n_passes = _resolve_number(args, config, "n_passes", 2, integral=True)
    tau = _resolve_number(args, config, "tau", 1e-3)
    # Pair probabilities at tau ~ 1e-3 are ~1e-6; default enough shots that
    # the fringe rises well above Poisson noise.
    shots = _resolve_number(args, config, "shots", 1e9)
    seed = _resolve_seed(args, config)
    model = _resolve(args, config, "model", "exact")
    fmt = _resolve(args, config, "format", "csv")

    alphas = np.radians(np.linspace(alpha_min, alpha_max, steps))
    cfg = resonator.ResonatorConfig(n_passes, 0.0, tau)
    scan = polarization.simulate_stimulation_fringe(
        geom, cfg, alphas, shots, seed=seed, model=model
    )
    fit = polarization.fit_fringe(scan)
    echo = {
        "geometry": geom.to_dict(),
        "alpha_min_deg": alpha_min,
        "alpha_max_deg": alpha_max,
        "alpha_steps": steps,
        "n_passes": n_passes,
        "tau": tau,
        "shots": shots,
        "seed": seed,
        "model": model,
    }
    rows = [
        (float(np.degrees(a)), float(ph), float(c))
        for a, ph, c in zip(scan.x, scan.phase, scan.counts)
    ]
    columns = ("alpha_deg", "phase_rad", "counts")
    return _emit_fitted_scan(args.out, fmt, "fig4", echo, columns, rows, fit)


def _cmd_fringe(args) -> int:
    config = _load_config(args.config)
    rho = _parse_state(_resolve(args, config, "state", "bell"))
    pol_b = math.radians(_resolve_number(args, config, "pol_b_deg", 45.0))
    qwp_b = _resolve_number(args, config, "qwp_b_deg", None)
    qwp_a = _resolve_number(args, config, "qwp_a_deg", None)
    scan_min = _resolve_number(args, config, "scan_min_deg", 0.0)
    scan_max = _resolve_number(args, config, "scan_max_deg", 180.0)
    steps = _resolve_number(args, config, "scan_steps", 37, integral=True)
    if steps < 2 or scan_max <= scan_min:
        raise _UsageError("need scan-max-deg > scan-min-deg and scan-steps >= 2")
    shots = _resolve_number(args, config, "shots", 1e6)
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "csv")

    arm_b = polarization.ArmSetting(
        pol=pol_b, qwp=math.radians(qwp_b) if qwp_b is not None else None
    )
    angles = np.radians(np.linspace(scan_min, scan_max, steps))
    scan = polarization.simulate_polarization_fringe(
        rho,
        arm_b,
        angles,
        shots,
        seed=seed,
        arm_a_qwp=math.radians(qwp_a) if qwp_a is not None else None,
    )
    fit = polarization.fit_fringe(scan)
    echo = {
        "state": _resolve(args, config, "state", "bell"),
        "pol_b_deg": math.degrees(pol_b),
        "qwp_a_deg": qwp_a,
        "qwp_b_deg": qwp_b,
        "scan_min_deg": scan_min,
        "scan_max_deg": scan_max,
        "scan_steps": steps,
        "shots": shots,
        "seed": seed,
    }
    rows = [
        (float(np.degrees(a)), float(c)) for a, c in zip(scan.x, scan.counts)
    ]
    return _emit_fitted_scan(args.out, fmt, "fringe", echo, ("pol_a_deg", "counts"), rows, fit)


def _cmd_tomography(args) -> int:
    config = _load_config(args.config)
    counts_path = _resolve(args, config, "counts", None)
    state_spec = _resolve(args, config, "state", None)
    if counts_path is not None and state_spec is not None:
        raise _UsageError("give either --counts or --state, not both")
    method = _resolve(args, config, "method", "mle")
    if method not in ("mle", "linear"):
        raise _UsageError(f"method must be 'mle' or 'linear', got {method!r}")
    jeffreys = True if args.jeffreys else config.get("jeffreys", False)
    if not isinstance(jeffreys, bool):
        raise _UsageError(f"jeffreys must be true or false, got {jeffreys!r}")
    basis = str(_resolve(args, config, "basis", "HVDR"))
    target_spec = _resolve(args, config, "target", "bell")
    shots = _resolve_number(args, config, "shots", 1e5)
    seed = _resolve_seed(args, config)

    if counts_path is not None:
        text = Path(counts_path).read_text()
        record = tomography.TomographyRecord.from_json(text)
    else:
        rho_true = _parse_state(state_spec if state_spec is not None else "bell")
        settings = tomography.standard_settings(tuple(basis))
        record = tomography.simulate_tomography(
            rho_true, shots, seed=seed, settings=settings
        )

    if method == "linear":
        result = tomography.reconstruct_linear(record)
    else:
        result = tomography.reconstruct_mle(record, jeffreys=jeffreys)

    doc = {
        "command": "tomography",
        "config": {
            "source": counts_path if counts_path is not None else (state_spec or "bell"),
            "method": method,
            "jeffreys": jeffreys,
            "basis": basis,
            "shots": None if counts_path is not None else shots,
            "seed": None if counts_path is not None else seed,
        },
        "rho": json.loads(tomography.rho_to_json(result.rho)),
        "min_eigenvalue": result.min_eigenvalue,
        "physical": result.physical,
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
    }
    if target_spec == "bell":
        try:
            doc["fidelity_to_singlet"] = tomography.fidelity(
                tomography.project_physical(result.rho), polarization.bell_state()
            )
        except ReconstructionError:
            doc["fidelity_to_singlet"] = None
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_rates(args) -> int:
    config = _load_config(args.config)
    singles = _resolve_number(args, config, "singles", None)
    coincidences = _resolve_number(args, config, "coincidences", None)
    if singles is None or coincidences is None:
        raise _UsageError("rates needs --singles and --coincidences")
    order = _resolve_number(args, config, "order", 2, integral=True)
    expected = _resolve_number(args, config, "expected", None)
    rate = polarization.nth_order_rate(singles, coincidences, order)
    doc = {
        "command": "rates",
        "config": {
            "singles": singles,
            "coincidences": coincidences,
            "order": order,
            "expected": expected,
        },
        "rate": rate,
    }
    if expected is not None:
        if expected > 0 and rate > 0:
            factor = rate / expected
            doc["expected_ratio"] = factor
            if factor > 10.0 or factor < 0.1:
                doc["note"] = (
                    f"computed rate differs from the supplied reference by a factor "
                    f"{factor:.3e}; the inputs likely use different unit conventions"
                )
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_checks()
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"{status} {r.name:<{width}}  worst={r.worst:.3e}  "
            f"tol={r.tolerance:.1e}  {r.runtime_s:.2f}s"
        )
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if getattr(args, "json_out", None):
        doc = {"command": "verify", "results": [dataclasses.asdict(r) for r in results]}
        Path(args.json_out).write_text(_json_text(doc))
    return 0 if passed == len(results) else 2


# ----- parser -----


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of long-option defaults")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stimpairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-phase", help="pair probabilities over a phase grid")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated pass counts")
    p.add_argument("--phi-min", dest="phi_min", type=float)
    p.add_argument("--phi-max", dest="phi_max", type=float)
    p.add_argument("--phi-steps", dest="phi_steps", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--m", type=int, help="pair order M")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(handler=_cmd_sweep_phase)

    p = sub.add_parser("fig4", help="tilt-scan stimulation fringe and fit")
    _add_common(p)
    p.add_argument("--geometry", help="JSON file with plate geometry")
    p.add_argument("--alpha-min-deg", dest="alpha_min_deg", type=float)
    p.add_argument("--alpha-max-deg", dest="alpha_max_deg", type=float)
    p.add_argument("--alpha-steps", dest="alpha_steps", type=int)
    p.add_argument("--n-passes", dest="n_passes", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--shots", type=float)
    p.add_argument("--seed", type=int, help="Poisson seed; omit for noiseless")
    p.add_argument("--model", choices=("exact", "approx"))
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser("fringe", help="polarization fringe of a two-qubit state")
    _add_common(p)
    p.add_argument("--state", help="bell or dephased:<d>")
    p.add_argument("--pol-b-deg", dest="pol_b_deg", type=float)
    p.add_argument("--qwp-a-deg", dest="qwp_a_deg", type=float)
    p.add_argument("--qwp-b-deg", dest="qwp_b_deg", type=float)
    p.add_argument("--scan-min-deg", dest="scan_min_deg", type=float)
    p.add_argument("--scan-max-deg", dest="scan_max_deg", type=float)
    p.add_argument("--scan-steps", dest="scan_steps", type=int)
    p.add_argument("--shots", type=float)
    p.add_argument("--seed", type=int, help="Poisson seed; omit for noiseless")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(handler=_cmd_fringe)

    p = sub.add_parser("tomography", help="simulate and reconstruct a density matrix")
    _add_common(p)
    p.add_argument("--state", help="bell or dephased:<d> (simulation source)")
    p.add_argument("--counts", help="JSON record of measured counts")
    p.add_argument("--method", choices=("mle", "linear"))
    p.add_argument("--jeffreys", action="store_true", help="add 0.5 to counts in the MLE objective")
    p.add_argument("--basis", help="four analyzer letters, e.g. HVDR or HVDL")
    p.add_argument("--target", help="bell or none (fidelity report)")
    p.add_argument("--shots", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_tomography)

    p = sub.add_parser("rates", help="singles/coincidence rate arithmetic")
    _add_common(p)
    p.add_argument("--singles", type=float)
    p.add_argument("--coincidences", type=float)
    p.add_argument("--order", type=int)
    p.add_argument("--expected", type=float, help="reference value to compare against")
    p.set_defaults(handler=_cmd_rates)

    p = sub.add_parser("verify", help="run the named self-check suite")
    _add_common(p)
    p.add_argument("--json-out", dest="json_out", help="also write machine-readable results")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except SchemaError as exc:
        print(f"stimpairs: schema error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, FitError, ReconstructionError, FloatingPointError) as exc:
        print(f"stimpairs: numerical failure: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError; must precede the catch-all below.
        print(f"stimpairs: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, TypeError) as exc:
        print(f"stimpairs: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"stimpairs: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

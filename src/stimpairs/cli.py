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
results strict JSON: a NaN or infinity bound for JSON output is a numerical
failure naming its key.  Exit codes: 0 success, 1 validation error, 2 numerical
failure or out of memory, 3 I/O error or a missing dependency (numpy not
installed).

Each option is one (key, kind, default, help) row of OPTIONS, which makes
its --flag (the key with '-' for '_') and names its config key.  Every value,
from a flag or a file, must have the row's kind: float (a number), int (an
integer), str (a JSON string), bool (true or false), list (pass counts,
"1,2,5" or a file's [1, 2, 5]) or a tuple of the allowed choices.  The
handlers read the resolved settings, which minus the format are the echo.
The --state forms of fringe and tomography are the rows of one table, STATES.

Each handler imports the submodules it runs, and numpy loads only with code
that computes on arrays: `rates`, --help and usage errors caught before a
handler's imports exit without it.

A command process (`stimpairs`, `python -m stimpairs.cli`) enters through
run(), which turns the cyclic garbage collector off before main loads numpy
and freezes the heap when main returns, so the interpreter's shutdown
collections skip it.  A command leaves a few hundred objects of cyclic
garbage whatever its input (see README), so a process loses nothing by never
collecting.  main(argv) itself leaves the collector as it found it: an
in-process caller (a test run, a benchmark, a notebook) may make garbage of
its own between calls and keeps the collector it chose.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from pathlib import Path

from .errors import FitError, ReconstructionError, SchemaError, TruncationError
from .errors import is_json_number, load_json

DEFAULT_PLATE = {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9}

_SEED_MAX = 2**64

_FORMAT = ("format", ("csv", "json"), "csv", None)
_SEED = ("seed", int, None, "Poisson seed; omit for noiseless")

# The --state forms of fringe and tomography, the first the default: the form,
# what its :<value> is, its parser (which loads nothing) and the builder of the
# 4 x 4 rho from the polarization module and the value.  Builders return a rho;
# a source known only by click probabilities per setting must change that.
STATES = (
    ("bell", None, None, lambda pol: pol.state_density(pol.bell_state())),
    ("dephased:<d>", "dephasing strength", float,
     lambda pol, d: pol.dephasing_noise(pol.bell_state(), d)),
)

# The options of each command (see the module docstring).  --config and --out
# (every command), fig4's --geometry (a file on the command line, an object in
# a config file) and verify's --json-out stay outside the table.
OPTIONS = {
    "sweep-phase": (
        ("n_list", list, "1,2,3,5,10", "comma-separated pass counts"),
        ("phi_min", float, 0.0, None),
        ("phi_max", float, 2.0 * math.pi, None),
        ("phi_steps", int, 181, None),
        ("tau", float, 1e-3, None),
        ("m", int, 1, "pair order M"),
        _FORMAT,
    ),
    "fig4": (
        ("alpha_min_deg", float, 2.0, None),
        ("alpha_max_deg", float, 15.0, None),
        ("alpha_steps", int, 81, None),
        ("n_passes", int, 2, None),
        ("tau", float, 1e-3, None),
        # Pair probabilities at tau ~ 1e-3 are ~1e-6; default enough shots that
        # the fringe rises well above Poisson noise.
        ("shots", float, 1e9, None),
        _SEED,
        ("model", ("exact", "approx"), "exact", None),
        _FORMAT,
    ),
    "fringe": (
        ("state", str, STATES[0][0], " or ".join(row[0] for row in STATES)),
        ("pol_b_deg", float, 45.0, None),
        ("qwp_a_deg", float, None, None),
        ("qwp_b_deg", float, None, None),
        ("scan_min_deg", float, 0.0, None),
        ("scan_max_deg", float, 180.0, None),
        ("scan_steps", int, 37, None),
        ("shots", float, 1e6, None),
        _SEED,
        _FORMAT,
    ),
    "tomography": (
        ("state", str, None, " or ".join(row[0] for row in STATES) + " (simulation source)"),
        ("counts", str, None, "JSON record of measured counts"),
        ("method", ("mle", "linear"), "mle", None),
        ("jeffreys", bool, False, "add 0.5 to counts in the MLE objective"),
        ("basis", str, "HVDR", "four analyzer letters, e.g. HVDR or HVDL"),
        ("target", ("bell", "none"), "bell", "fidelity report"),
        ("shots", float, 1e5, None),
        _SEED,
    ),
    "rates": (
        ("singles", float, None, None),
        ("coincidences", float, None, None),
        ("expected", float, None, "reference value to compare against"),
    ),
    "verify": (),
}

_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string", bool: "true or false"}


class _UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # An argument that starts like a negative number (-1e-3, -.5, -inf, -nan)
        # is a value, not an option; argparse before 3.13 takes only forms like
        # -1 and -1.5.  Subparsers are built from this class, so they agree.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = load_json(Path(path).read_text(), f"config {path}: ")
    if not isinstance(doc, dict):
        raise SchemaError(f"config {path}: expected a JSON object")
    return doc


def _check(key: str, kind, value):
    """value as an option of this kind (see OPTIONS), or _UsageError.

    A config file can hold any JSON value: a number is never a bool (an int
    subclass) or a string, a count is never a fraction that int() would
    truncate, and a float is never NaN, infinite or past the float range.
    """
    if isinstance(kind, tuple):
        if value not in kind:
            raise _UsageError(f"{key} must be one of {', '.join(map(repr, kind))}, got {value!r}")
        return value
    if kind is list:
        return _pass_counts(value)
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise _UsageError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
        return value
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if not (is_json_number(value) if kind is float else whole and not isinstance(value, bool)):
        raise _UsageError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    value = kind(value)
    if key == "seed" and not 0 <= value < _SEED_MAX:
        raise _UsageError(f"seed must be a u64, got {value}")
    return value


def _pass_counts(value) -> list[int]:
    """Pass counts from "1,2,5" (a flag or config string) or a config list [1, 2, 5]."""
    if isinstance(value, list):
        counts = [_check("n_list", int, v) for v in value]
    else:
        try:
            counts = [int(tok) for tok in str(value).split(",") if tok.strip()]
        except ValueError:
            raise _UsageError(f"bad n-list {value!r}, expected comma-separated integers")
    if not counts:
        raise _UsageError("n-list is empty")
    return counts


def _settings(args, config: dict) -> dict:
    """Each option of the command from its flag, else its config key, else its default.

    A config null leaves unset only an option whose default is unset (None).
    """
    settings = {}
    for key, kind, default, _ in OPTIONS[args.command]:
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        if value is not None or default is not None:
            value = _check(key, kind, value)
        settings[key] = value
    return settings


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _dumps(doc: dict, **options) -> str:
    """Strict JSON with sorted keys: a NaN or infinity in doc is a numerical
    failure naming its key, never written as NaN or Infinity."""
    try:
        return json.dumps(doc, allow_nan=False, sort_keys=True, **options)
    except ValueError:
        found = next(_non_finite(doc), None)
        if found is None:
            raise
        raise FloatingPointError("{} = {!r} is not a JSON number".format(*found)) from None


def _non_finite(value, path: str = ""):
    """(path, value) of each NaN or infinity in value, the path as in fit.cov[0][1]."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{i}]")


def _json_text(doc: dict) -> str:
    return _dumps(doc, indent=2) + "\n"


def _emit_scan(args, settings: dict, columns, rows, fit=None) -> int:
    """Scan rows and any fit, echoing every setting but the format: CSV under
    '# stimpairs', '# config:' and '# fit:' lines, or one JSON document.
    """
    echo = {k: v for k, v in settings.items() if k != "format"}
    if settings["format"] == "json":
        doc = {"command": args.command, "config": echo}
        if fit is None:
            doc.update(columns=list(columns), rows=[list(r) for r in rows])
        else:
            doc.update(scan=[dict(zip(columns, r)) for r in rows], fit=fit.to_dict())
        _emit(_json_text(doc), args.out)
        return 0
    lines = [f"# stimpairs {args.command}", f"# config: {_dumps(echo)}"]
    if fit is not None:
        lines.append(f"# fit: {_dumps(fit.to_dict())}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _grid(s: dict, lo: str, hi: str, steps: str) -> np.ndarray:
    """np.linspace over the settings lo to hi in steps points, hi > lo and steps >= 2."""
    if s[steps] < 2 or s[hi] <= s[lo]:
        lo, hi, steps = (key.replace("_", "-") for key in (lo, hi, steps))
        raise _UsageError(f"need {hi} > {lo} and {steps} >= 2")
    import numpy as np

    return np.linspace(s[lo], s[hi], s[steps])


def _state(spec: str):
    """The maker of a --state spec's rho from the polarization module, by STATES.
    Loads nothing, so a bad spec exits before numpy loads; builders check ranges."""
    name, colon, text = spec.partition(":")
    for form, what, parse, build in STATES:
        if form.partition(":")[:2] == (name, colon):
            try:
                params = (parse(text),) if parse else ()
            except ValueError:
                raise _UsageError(f"bad {what} in {spec!r}")
            return lambda pol: build(pol, *params)
    raise _UsageError(f"unknown state {spec!r}, expected {' or '.join(repr(r[0]) for r in STATES)}")


def _plate_from(args, config: dict):
    """The phase_plate.PlateGeometry from --geometry, else the config, else DEFAULT_PLATE."""
    from . import phase_plate

    if args.geometry is not None:
        doc = _load_config(args.geometry)
    else:
        doc = config.get("geometry", DEFAULT_PLATE)
    if not isinstance(doc, dict):
        raise SchemaError("geometry must be a JSON object")
    return phase_plate.PlateGeometry.from_dict(doc)


# ----- subcommand handlers -----


def _cmd_sweep_phase(args, config: dict, s: dict) -> int:
    phis = _grid(s, "phi_min", "phi_max", "phi_steps")  # before numpy loads with resonator
    from . import resonator

    table = resonator.sweep_rows(s["n_list"], phis, s["tau"], s["m"])
    # N and M are exact integers held as floats; CSV and JSON write them as ints.
    n, phi, tau, m, *probs = table.T.tolist()
    rows = zip(map(int, n), phi, tau, map(int, m), *probs)
    return _emit_scan(args, s, resonator.SWEEP_COLUMNS, rows)


def _cmd_fig4(args, config: dict, s: dict) -> int:
    alpha_deg = _grid(s, "alpha_min_deg", "alpha_max_deg", "alpha_steps")  # before any import
    import numpy as np

    from . import polarization, resonator

    geom = _plate_from(args, config)
    alphas = np.radians(alpha_deg)
    cfg = resonator.ResonatorConfig(s["n_passes"], 0.0, s["tau"])
    scan = polarization.simulate_stimulation_fringe(
        geom, cfg, alphas, s["shots"], seed=s["seed"], model=s["model"]
    )
    fit = polarization.fit_fringe(scan)
    rows = zip(alpha_deg.tolist(), scan.phase.tolist(), scan.counts.tolist())
    columns = ("alpha_deg", "phase_rad", "counts")
    return _emit_scan(args, {**s, "geometry": geom.to_dict()}, columns, rows, fit)


def _cmd_fringe(args, config: dict, s: dict) -> int:
    make = _state(s["state"])  # the state error first, then the grid's
    pol_a_deg = _grid(s, "scan_min_deg", "scan_max_deg", "scan_steps")  # before any import
    import numpy as np

    from . import polarization

    rho = make(polarization)
    angles = np.radians(pol_a_deg)
    qwp_a, qwp_b = s["qwp_a_deg"], s["qwp_b_deg"]
    arm_b = polarization.ArmSetting(
        pol=math.radians(s["pol_b_deg"]), qwp=math.radians(qwp_b) if qwp_b is not None else None
    )
    scan = polarization.simulate_polarization_fringe(
        rho,
        arm_b,
        angles,
        s["shots"],
        seed=s["seed"],
        arm_a_qwp=math.radians(qwp_a) if qwp_a is not None else None,
    )
    fit = polarization.fit_fringe(scan)
    rows = zip(pol_a_deg.tolist(), scan.counts.tolist())
    return _emit_scan(args, s, ("pol_a_deg", "counts"), rows, fit)


def _cmd_tomography(args, config: dict, s: dict) -> int:
    counts_path, state_spec = s["counts"], s["state"]
    if counts_path is not None and state_spec is not None:
        raise _UsageError("give either --counts or --state, not both")
    make = _state(STATES[0][0] if state_spec is None else state_spec)  # before any import
    from . import polarization, tomography

    if counts_path is not None:
        text = Path(counts_path).read_text()
        record = tomography.TomographyRecord.from_json(text)
    else:
        rho_true = make(polarization)
        settings = tomography.standard_settings(tuple(s["basis"]))
        record = tomography.simulate_tomography(
            rho_true, s["shots"], seed=s["seed"], settings=settings
        )

    if s["method"] == "linear":
        result = tomography.reconstruct_linear(record)
    else:
        result = tomography.reconstruct_mle(record, jeffreys=s["jeffreys"])

    doc = {
        "command": "tomography",
        "config": s,
        "rho": json.loads(tomography.rho_to_json(result.rho)),
        "min_eigenvalue": result.min_eigenvalue,
        "physical": result.physical,
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
    }
    if s["target"] == "bell":
        doc["fidelity_to_singlet"] = tomography.fidelity(
            tomography.project_physical(result.rho), polarization.bell_state()
        )
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_rates(args, config: dict, s: dict) -> int:
    from .rates import pair_rate

    if s["singles"] is None or s["coincidences"] is None:
        raise _UsageError("rates needs --singles and --coincidences")
    expected = s["expected"]
    if expected is not None and expected <= 0:
        raise _UsageError(f"expected must be positive, got {expected!r}")
    rate = pair_rate(s["singles"], s["coincidences"])
    doc = {"command": "rates", "config": s, "rate": rate}
    if expected is not None and rate > 0:
        factor = rate / expected
        if not 0.0 < factor < math.inf:  # rounded to 0 or inf: no ratio to report
            raise FloatingPointError(f"ratio {rate!r} / {expected!r} is out of the float range")
        doc["expected_ratio"] = factor
        if factor > 10.0 or factor < 0.1:
            doc["note"] = (
                f"computed rate differs from the supplied reference by a factor "
                f"{factor:.3e}; the inputs likely use different unit conventions"
            )
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_verify(args, config: dict, s: dict) -> int:
    import dataclasses

    from . import verify

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
    if args.json_out:
        # A crashed check's tolerance NaN and worst inf are not JSON numbers: write null.
        rows = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()}
            for r in map(dataclasses.asdict, results)
        ]
        Path(args.json_out).write_text(_json_text({"command": "verify", "results": rows}))
    return 0 if passed == len(results) else 2


# ----- parser -----

_COMMANDS = (
    ("sweep-phase", _cmd_sweep_phase, "pair probabilities over a phase grid"),
    ("fig4", _cmd_fig4, "tilt-scan stimulation fringe and fit"),
    ("fringe", _cmd_fringe, "polarization fringe of a two-qubit state"),
    ("tomography", _cmd_tomography, "simulate and reconstruct a density matrix"),
    ("rates", _cmd_rates, "singles/coincidence rate arithmetic"),
    ("verify", _cmd_verify, "run the named self-check suite"),
)


def _flag_options(kind) -> dict:
    """argparse keywords for a flag of this kind; a bool flag is None until given."""
    if isinstance(kind, tuple):
        return {"choices": kind}
    if kind is bool:
        return {"action": "store_true", "default": None}
    return {"type": kind} if kind in (int, float) else {}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stimpairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file of long-option defaults")
        p.add_argument("--out", help="output path (default stdout)")
        for key, kind, _, text in OPTIONS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **_flag_options(kind))
        p.set_defaults(handler=handler)
    sub.choices["fig4"].add_argument("--geometry", help="JSON file with plate geometry")
    sub.choices["verify"].add_argument(
        "--json-out", dest="json_out", help="also write machine-readable results"
    )
    return parser


def _numerical_errors() -> tuple:
    """The exceptions that exit 2.

    numpy's LinAlgError subclasses ValueError, so main must catch it before
    its ValueError catch-all.  It can only have been raised once numpy.linalg
    is loaded, so it is looked up there instead of importing numpy.  A grid
    too large to allocate raises MemoryError (numpy's _ArrayMemoryError).
    """
    linalg = sys.modules.get("numpy.linalg")
    found = (linalg.LinAlgError,) if linalg is not None else ()
    return (
        TruncationError, FitError, ReconstructionError, FloatingPointError, MemoryError, *found
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args.config)
        return args.handler(args, config, _settings(args, config))
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except SchemaError as exc:
        print(f"stimpairs: schema error: {exc}", file=sys.stderr)
        return 1
    except _numerical_errors() as exc:  # evaluated only once an exception gets this far
        print(f"stimpairs: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, TypeError) as exc:
        print(f"stimpairs: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except ImportError as exc:  # numpy not installed: not the user's input
        print(f"stimpairs: missing dependency: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"stimpairs: i/o error: {exc}", file=sys.stderr)
        return 3


def run():
    """The process entry: main on sys.argv, its exit code to sys.exit.

    The collector is off while the command runs and the heap frozen after
    it, so neither the imports' young collections nor the shutdown's full
    ones walk it (see the module docstring).  Finalization, the flush of
    stdout and atexit handlers run as in any process.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

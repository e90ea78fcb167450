"""The process entry, cli.run: what a `stimpairs` process prints and leaves behind."""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stimpairs
from stimpairs import cli

_SRC = Path(stimpairs.__file__).resolve().parents[1]
_ROOT = _SRC.parent


def _process(args: list, code: str | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter importing stimpairs from this tree: `-m stimpairs.cli args`,
    or the script `code` with args as its sys.argv[1:]."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    head = ["-m", "stimpairs.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _mask_runtimes(text: str) -> str:
    # verify's runtime column is the one figure that differs from run to run.
    return re.sub(r"(?m)(tol=\S+  )\d+\.\d\ds", r"\1<runtime>s", text)


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["sweep-phase"], 0),
        (["fig4", "--seed", "7"], 0),
        (["fringe", "--seed", "3"], 0),
        (["tomography", "--seed", "5"], 0),
        (["rates", "--singles", "36000", "--coincidences", "1300"], 0),
        (["verify"], 0),
        (["fringe", "--state", "ghz"], 1),
        (["fringe", "--shots", "1e-160"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_process_prints_what_main_returns(capsys, args, exit_code):
    # A command process (run: collector off, heap frozen at exit) writes the
    # bytes and exits with the code that main(argv) gives in process.
    proc = _process(args)
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert (proc.returncode, code) == (exit_code, exit_code)
    assert _mask_runtimes(proc.stdout) == _mask_runtimes(out)
    assert proc.stderr == err
    assert (out != "") == (exit_code == 0) and (err != "") == (exit_code != 0)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        for args in (["rates", "--singles", "36000", "--coincidences", "1300"], ["sweep-phase"]):
            assert cli.main(args) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        assert cli.main(["fringe", "--state", "ghz"]) == 1
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


# A process that enters through run(), reports at exit whether the collector
# was off and the heap frozen, then unfreezes the heap and counts the cyclic
# garbage a collection finds.  atexit handlers run after run()'s sys.exit.
# The report also holds the process's own peak resident memory in MB, VmHWM
# (which exec resets, unlike ru_maxrss, which starts at the forking parent's
# peak), or null where /proc/self/status is absent.
_GARBAGE_PROBE = """
import atexit, gc, json, sys

def peak_mb():
    try:
        with open("/proc/self/status") as status:
            return next(int(ln.split()[1]) / 1024 for ln in status if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None

def report():
    state = {"enabled": gc.isenabled(), "frozen": gc.get_freeze_count(), "peak_mb": peak_mb()}
    gc.unfreeze()
    state["unreachable"] = gc.collect()
    sys.stderr.write(json.dumps(state) + "\\n")

atexit.register(report)
sys.argv[0] = "stimpairs"
from stimpairs.cli import run
run()
"""


def _garbage(args: list, tmp_path) -> tuple[dict, str]:
    """The exit report of a run() process on args, and its output (all but
    a sweep's, which is dropped unread)."""
    out = tmp_path / "out.txt"
    proc = _process([*args, "--out", str(out)], code=_GARBAGE_PROBE)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stderr.strip().splitlines()[-1])
    text = "" if args[0] == "sweep-phase" else out.read_text()
    out.unlink()
    return state, text


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory) -> list[dict]:
    """The exit reports of `sweep-phase --n-list 2` at 181 and at 200,000 phase steps."""
    tmp_path = tmp_path_factory.mktemp("sweeps")
    return [_garbage(["sweep-phase", "--n-list", "2", "--phi-steps", str(n)], tmp_path)[0]
            for n in (181, 200_000)]


def test_process_runs_without_the_collector_and_freezes_its_heap(tmp_path):
    state, _ = _garbage(["rates", "--singles", "36000", "--coincidences", "1300"], tmp_path)
    assert state["enabled"] is False and state["frozen"] > 1000


def test_cyclic_garbage_does_not_grow_with_the_input(sweeps, tmp_path):
    # A command process never collects, so it must make no cyclic garbage per
    # row or per iteration: a collection at exit finds the same number of
    # unreachable objects (the imports' few hundred) at 181 and at 200,000
    # phase steps, and after MLE runs of 3 and of 13 iterations.
    assert sweeps[0]["unreachable"] == sweeps[1]["unreachable"] > 0
    found, iterations = [], []
    for args in (["--seed", "5"], ["--state", "dephased:0.5", "--shots", "30", "--seed", "2"]):
        state, text = _garbage(["tomography", *args], tmp_path)
        found.append(state["unreachable"])
        iterations.append(json.loads(text)["iterations"])
    assert iterations == [3, 13]
    assert found[0] == found[1] > 0


def test_a_sweep_peaks_at_about_its_table(sweeps):
    # CSV rows are formatted and written a block at a time, so a long sweep
    # holds its float table, not its text: 200,000 rows of 7 float64 columns
    # are 11.2 MB, and the process peaks less than four tables above the
    # 181-step run (all the rows held as text at once came to about 135 MB).
    small, large = (report["peak_mb"] for report in sweeps)
    if small is None:
        pytest.skip("no /proc/self/status to read the peak from")
    table_mb = 200_000 * 7 * 8 / 1e6
    assert large - small < 4 * table_mb, (small, large)


def test_console_script_is_the_process_entry():
    # pyproject's [project.scripts] names run, not main (no tomllib before 3.11).
    text = (_ROOT / "pyproject.toml").read_text()
    section = re.search(r"(?ms)^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text).group(1)
    target = re.search(r'(?m)^stimpairs\s*=\s*"([\w.]+):(\w+)"\s*$', section)
    assert target is not None, section
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.run

"""oracle: one op is one point of the truncated-Fock cross-validation grid.

The grid is the acceptance grid (cutoff max(12, suggest_cutoff)) plus the
grid of `stimpairs verify` (M in {1, 2}, cutoff floor 2M + 4): 96 points with
cutoffs 6 to 30.  fock does nearly all the work, and one cutoff-30 point
(923,521 states) sits beside many small ones, so this workload carries the
oracle's tail and its peak memory.  The JSON round trip is the "write" use of
the same full-space vector.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass

import numpy as np

import reference as ref
from reference import require

NAME = "oracle"
LEAKAGE_TOL = 1e-10  # evolve_vacuum's default tolerance
STATE_TOL = 1e-8
PROB_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    n: int
    phi: float
    tau: float
    floor: int


def grid() -> list[Op]:
    ops = [
        Op(n, phi, tau, 12)
        for n in (1, 2, 3, 5, 10)
        for phi in (0.0, 0.3, math.pi / 2.0, math.pi)
        for tau in (0.005, 0.02, 0.05)
    ]
    ops += [
        Op(n, phi, tau, 2 * m + 4)
        for m in (1, 2)
        for n in (1, 2, 3)
        for phi in (0.0, 0.3, math.pi)
        for tau in (0.005, 0.02)
    ]
    return ops


class Workload:
    name = NAME
    cycle_s = 8.0  # about one cycle at the seed commit; see run.py

    def __init__(self, seed: int, workdir):
        import stimpairs  # noqa: F401  (set-up includes the import)

        self.seed = seed
        self.ops = grid()

    def cycle(self, index: int) -> list[Op]:
        """One pass over the whole grid in a seed-drawn order."""
        rng = np.random.default_rng([self.seed, index])
        return [self.ops[i] for i in rng.permutation(len(self.ops))]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run(self, op: Op, tr):
        from stimpairs import fock, resonator

        cfg = resonator.ResonatorConfig(op.n, op.phi, op.tau)
        with tr.span("resonator.amplitude_sum"):
            a_tau = resonator.amplitude_sum(op.n, op.phi) * op.tau
        with tr.span("fock.suggest_cutoff"):
            cutoff = fock.suggest_cutoff(a_tau, floor=op.floor)
        with tr.span("fock.FockSpace") as s:
            space = fock.FockSpace(cutoff)
            s["dim"] = space.dim
        require(space.dim == (cutoff + 1) ** 4, "fock", f"dim {space.dim} at cutoff {cutoff}")
        with tr.span("fock.evolve_vacuum") as s:
            state = fock.evolve_vacuum(cfg, space, tol=LEAKAGE_TOL)
            s["dim"] = space.dim
            s["leakage"] = state.leakage
        with tr.span("fock.disentangled_state"):
            closed = fock.disentangled_state(a_tau, space)
        with tr.span("fock.project_entangled"):
            amps_m = {m: fock.project_entangled(state, m) for m in (1, 2)}
        with tr.span("fock.FockVector.to_json"):
            text = state.to_json()
        with tr.span("fock.FockVector.from_json"):
            back = fock.FockVector.from_json(text)
        return cutoff, state, closed, amps_m, back

    def check(self, op: Op, out) -> None:
        cutoff, state, closed, amps_m, back = out
        a_tau = complex(ref.amplitude_sum(op.n, op.phi)) * op.tau
        idx, amp = ref.closed_form_support(a_tau, cutoff)
        diff = state.amplitudes.copy()
        diff[idx] -= amp
        worst = float(np.abs(diff).max())
        require(worst <= STATE_TOL, "fock", f"|psi_evolved - psi_closed| = {worst:.3e} at {op}")
        lib = closed.amplitudes.copy()
        lib[idx] -= amp
        worst = float(np.abs(lib).max())
        require(worst <= 1e-12, "fock", f"disentangled_state off by {worst:.3e} at {op}")
        x = abs(a_tau)
        for m, amp_m in amps_m.items():
            dp = abs(abs(amp_m) ** 2 - float(ref.pair_probability(m, x)))
            require(dp <= PROB_TOL, "fock", f"|P_oracle - P_closed| = {dp:.3e} for M={m} at {op}")
        leak = ref.boundary_weight(state.amplitudes, cutoff)
        require(leak <= LEAKAGE_TOL, "fock", f"leakage {leak:.3e} above {LEAKAGE_TOL:.0e}")
        require(
            state.leakage is not None and abs(state.leakage - leak) <= 1e-14,
            "fock",
            f"reported leakage {state.leakage!r} vs {leak!r}",
        )
        kept = np.abs(state.amplitudes) > 1e-15  # stimpairs.fock.AMPLITUDE_EPS
        require(
            back.cutoff == cutoff
            and np.array_equal(back.amplitudes[kept], state.amplitudes[kept])
            and not back.amplitudes[~kept].any(),
            "fock",
            "JSON round trip changed the state",
        )

"""analysis: one op is one synthetic experiment; fock is never called.

Each op draws a dephasing d, a per-pass strength tau and a pair order M, then
runs what an analyst does with the closed forms and the simulators: a
5 x 721 phase sweep, an 81-point tilt-scan fringe with its fit, three
37-point polarization fringes (arm b at H, D and R) with fits, and a
tomography round trip (simulate, linear inversion, MLE, fidelity).
resonator and tomography take most of the time, polarization the rest, so
this workload shows array-native closed forms and a batched Born rule.  MLE
iteration counts range from tens to thousands with d, so the near-pure draws
set the tail.  d is stratified over each cycle of eight ops, so every cycle
holds the same spread of d.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass

import numpy as np

import reference as ref
from reference import require

NAME = "analysis"
PASS_OPS = 8
SWEEP_N = (1, 2, 3, 5, 10)
SWEEP_STEPS = 721
PLATE = {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9}
TILT_DEG = (2.0, 15.0, 81)
TILT_SHOTS = 1e9
POL_STEPS = 37
POL_SHOTS = 1e5
# Arm b's polarizer angle, whether arm b has a quarter-wave plate at 0 (which
# makes the R analyzer) and whether arm a has one.  A bare linear scan against
# a circular analyzer is flat for the singlet, so the R scan puts a plate in
# arm a as well.
POL_ARMS = {
    "H": (0.0, False, False),
    "D": (math.pi / 4.0, False, False),
    "R": (math.pi / 4.0, True, True),
}


@dataclass(frozen=True)
class Op:
    d: float
    tau: float
    m: int
    basis: str
    shots: float
    jeffreys: bool
    seeds: tuple


class Workload:
    name = NAME
    cycle_s = 2.4  # about one cycle at the seed commit; see run.py

    def __init__(self, seed: int, workdir):
        import stimpairs

        self.seed = seed
        self.geom = stimpairs.PlateGeometry.from_dict(PLATE)
        self.phis = np.linspace(0.0, ref.TWO_PI, SWEEP_STEPS)
        self.alphas = np.radians(np.linspace(*TILT_DEG))
        self.pol_angles = np.radians(np.linspace(0.0, 180.0, POL_STEPS))

    def cycle(self, index: int) -> list[Op]:
        """Eight ops with d stratified over [0, 0.5]; two of them sparse (1e3 shots, HVDL)."""
        rng = np.random.default_rng([self.seed, index])
        ds = 0.5 * (rng.permutation(PASS_OPS) + rng.random(PASS_OPS)) / PASS_OPS
        sparse = set(rng.choice(PASS_OPS, PASS_OPS // 4, replace=False).tolist())
        return [
            Op(
                d=float(d),
                tau=float(10.0 ** rng.uniform(-3.0, math.log10(0.02))),
                m=int(rng.integers(1, 3)),
                basis="HVDL" if k in sparse else "HVDR",
                shots=1e3 if k in sparse else 1e5,
                jeffreys=k in sparse,
                seeds=tuple(int(s) for s in rng.integers(0, 2**32, size=5)),
            )
            for k, d in enumerate(ds)
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run(self, op: Op, tr) -> dict:
        from stimpairs import phase_plate, polarization, resonator, tomography

        out = {}
        with tr.span("resonator.sweep_rows") as s:
            out["rows"] = resonator.sweep_rows(SWEEP_N, self.phis, op.tau, op.m)
            s["rows"] = len(out["rows"])

        cfg = resonator.ResonatorConfig(2, 0.0, op.tau)
        with tr.span("polarization.simulate_stimulation_fringe"):
            tilt = polarization.simulate_stimulation_fringe(
                self.geom, cfg, self.alphas, TILT_SHOTS, seed=op.seeds[0]
            )
        with tr.span("polarization.fit_fringe"):
            out["tilt"] = (tilt, polarization.fit_fringe(tilt))
        with tr.span("phase_plate.relative_phase") as s:
            out["delta0"] = phase_plate.relative_phase(self.geom, 0.0)
            out["deltas"] = [phase_plate.relative_phase(self.geom, a) for a in self.alphas]
            s["calls"] = 1 + len(self.alphas)

        with tr.span("polarization.dephasing_noise"):
            rho = polarization.dephasing_noise(polarization.bell_state(), op.d)
        out["rho"] = rho
        for letter, seed in zip(POL_ARMS, op.seeds[1:4]):
            pol_b, qwp_b, qwp_a = POL_ARMS[letter]
            arm_b = polarization.ArmSetting(pol=pol_b, qwp=0.0 if qwp_b else None)
            with tr.span("polarization.simulate_polarization_fringe"):
                scan = polarization.simulate_polarization_fringe(
                    rho, arm_b, self.pol_angles, POL_SHOTS, seed=seed,
                    arm_a_qwp=0.0 if qwp_a else None,
                )
            with tr.span("polarization.fit_fringe"):
                out[letter] = (scan, polarization.fit_fringe(scan))

        settings = tomography.standard_settings(tuple(op.basis))
        with tr.span("tomography.simulate_tomography"):
            out["record"] = tomography.simulate_tomography(
                rho, op.shots, seed=op.seeds[4], settings=settings
            )
        with tr.span("tomography.reconstruct_linear"):
            out["linear"] = tomography.reconstruct_linear(out["record"])
        with tr.span("tomography.reconstruct_mle") as s:
            out["mle"] = tomography.reconstruct_mle(out["record"], jeffreys=op.jeffreys)
            s["iterations"] = out["mle"].iterations
        with tr.span("tomography.fidelity"):
            out["fidelity"] = tomography.fidelity(out["mle"].rho, ref.SINGLET)
        return out

    def check(self, op: Op, out: dict) -> None:
        ref.check_sweep(np.array(out["rows"], dtype=float), SWEEP_N, self.phis, op.tau, op.m, "resonator")

        deltas = np.array(out["deltas"])
        want = ref.plate_offset(PLATE, np.concatenate([[0.0], self.alphas]))
        got = np.concatenate([[out["delta0"]], deltas])
        require(
            bool(np.all(np.abs(got - want) <= 1e-12 * np.abs(want))),
            "phase_plate",
            "relative_phase disagrees with the plate formula",
        )
        tilt, fit = out["tilt"]
        phases = deltas - out["delta0"]
        require(
            bool(np.all(np.abs(tilt.phase - phases) <= 1e-9)),
            "polarization",
            "tilt-scan phase coordinate is not delta(alpha) - delta(0)",
        )
        x = np.abs(ref.amplitude_sum(2, phases)) * op.tau
        require(
            ref.poisson_ok(tilt.counts, TILT_SHOTS * ref.pair_probability(1, x)),
            "polarization",
            "tilt-scan counts off the Born rule",
        )
        # alpha = 0 sits on a fringe maximum, so C is 0 mod 2 pi.
        ref.check_fit(fit.visibility, fit.phase, None, 0.0, tilt.counts.sum(), "polarization.fit")

        rho_ref = ref.dephased_singlet(op.d)
        err = float(np.abs(out["rho"] - rho_ref).max())
        require(err <= 1e-15, "polarization", f"dephased singlet off by {err:.3e}")
        for letter, (pol_b, qwp_b, qwp_a) in POL_ARMS.items():
            scan, fit = out[letter]
            state_b = ref.linear_state(pol_b, qwp_b)

            def prob(a: float) -> float:
                return ref.born(rho_ref, ref.linear_state(a, qwp_a), state_b)

            means = POL_SHOTS * np.array([prob(a) for a in self.pol_angles])
            require(ref.poisson_ok(scan.counts, means), "polarization", f"{letter} fringe counts off the Born rule")
            b_ref, c_ref = ref.fringe_parameters(prob)
            ref.check_fit(fit.visibility, fit.phase, b_ref, c_ref, scan.counts.sum(), "polarization.fit")

        means = op.shots * np.array(
            [ref.born(rho_ref, ref.LETTER_STATES[a], ref.LETTER_STATES[b]) for a in op.basis for b in op.basis]
        )
        require(ref.poisson_ok(out["record"].counts, means), "tomography", "record counts off the Born rule")
        check_tomography(out["linear"].rho, out["mle"].rho, out["fidelity"], op.d, op.shots)


def check_tomography(linear_rho, mle_rho, fid: float, d: float, shots: float) -> None:
    """Linear rho near the truth; MLE rho physical with fidelity near 1 - d/2."""
    noise = ref.FIT_SIGMAS / math.sqrt(shots)
    ref.check_density(linear_rho, "tomography", psd=False)
    err = float(np.abs(np.asarray(linear_rho) - ref.dephased_singlet(d)).max())
    require(err <= noise, "tomography", f"linear rho off by {err:.3e}")
    ref.check_density(mle_rho, "tomography")
    direct = float(np.real(np.vdot(ref.SINGLET, np.asarray(mle_rho) @ ref.SINGLET)))
    require(abs(fid - direct) <= 1e-10, "tomography", f"fidelity {fid!r} vs <psi|rho|psi> {direct!r}")
    require(
        abs(fid - (1.0 - d / 2.0)) <= noise,
        "tomography",
        f"MLE fidelity {fid:.5f}, expected {1.0 - d / 2.0:.5f} at d={d:.4f}",
    )

"""Optical phase of a tilted plane-parallel plate, and the pump/pair offset.

A plate of thickness L tilted by external angle alpha inserts, at vacuum
wavelength lambda and refractive index n, the phase

    phase(alpha) = (2 pi / lambda) n^2 L / sqrt(n^2 - sin^2 alpha),

the single-square-root form of the usual geometric path construction.  For a
pump at lambda_p and a photon pair whose two photons sit at 2 lambda_p, the
pair's summed phase carries the same 2 pi L / lambda_p prefactor, so the
pump-to-pair offset controlling the interference of successive passes is

    delta(alpha) = (2 pi L / lambda_p) [ n_p^2 / sqrt(n_p^2 - sin^2 alpha)
                                       - n_s^2 / sqrt(n_s^2 - sin^2 alpha) ].

Phases are returned raw (thousands of radians for millimeter plates); wrap
with wrap_phase when a mod 2 pi value is wanted.  The fringe machinery
consumes raw phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _check_each(ok, values, message: str) -> None:
    """Raise ValueError(message) naming the first entry of values where ok fails."""
    if not ok.all():
        raise ValueError(message.format(float(np.asarray(values)[~ok].flat[0])))


@dataclass(frozen=True)
class PlateGeometry:
    """Plate thickness, pump/pair indices, and pump vacuum wavelength (SI units)."""

    thickness: float
    n_pump: float
    n_pair: float
    wavelength_pump: float

    def __post_init__(self):
        if not (math.isfinite(self.thickness) and self.thickness > 0.0):
            raise ValueError(f"thickness must be positive, got {self.thickness!r}")
        if not (math.isfinite(self.wavelength_pump) and self.wavelength_pump > 0.0):
            raise ValueError(f"wavelength_pump must be positive, got {self.wavelength_pump!r}")
        for label, n in (("n_pump", self.n_pump), ("n_pair", self.n_pair)):
            if not (math.isfinite(n) and n > 1.0):
                raise ValueError(f"{label} must exceed 1 for a solid plate, got {n!r}")

    def to_dict(self) -> dict:
        return {
            "L_m": self.thickness,
            "n_p": self.n_pump,
            "n_s": self.n_pair,
            "lambda_p_m": self.wavelength_pump,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PlateGeometry":
        missing = [k for k in ("L_m", "n_p", "n_s", "lambda_p_m") if k not in doc]
        if missing:
            raise ValueError(f"plate geometry is missing keys {missing}")
        return cls(
            thickness=float(doc["L_m"]),
            n_pump=float(doc["n_p"]),
            n_pair=float(doc["n_s"]),
            wavelength_pump=float(doc["lambda_p_m"]),
        )


def phase_through_plate(wavelength: float, n: float, thickness: float, alpha):
    """Raw phase crossing the plate at external incidence alpha (float, or array elementwise)."""
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    if not (math.isfinite(thickness) and thickness > 0.0):
        raise ValueError(f"thickness must be positive, got {thickness!r}")
    if not (math.isfinite(n) and n > 0.0):
        raise ValueError(f"refractive index must be positive, got {n!r}")
    alpha = np.asarray(alpha, dtype=float)
    _check_each(np.isfinite(alpha), alpha, "alpha must be finite, got {!r}")
    s = np.abs(np.sin(alpha))
    if (s >= n).any():
        raise ValueError(
            f"|sin alpha| = {s.max():.6f} >= n = {n:.6f}: no propagating solution"
        )
    phase = TWO_PI * n * n * thickness / (wavelength * np.sqrt(n * n - s * s))
    return float(phase) if alpha.ndim == 0 else phase


def relative_phase(geom: PlateGeometry, alpha):
    """Raw pump-minus-pair phase offset delta(alpha); even in alpha, arrays elementwise."""
    pump = phase_through_plate(geom.wavelength_pump, geom.n_pump, geom.thickness, alpha)
    pair = phase_through_plate(geom.wavelength_pump, geom.n_pair, geom.thickness, alpha)
    return pump - pair


def wrap_phase(phase):
    """Reduce a raw phase (float, or array elementwise) to [0, 2 pi).

    A value whose reduction rounds to 2 pi (any phase in (-ulp(2 pi)/2, 0),
    such as -1e-17) is returned as 0.0, the point it stands for.
    """
    phase = np.asarray(phase, dtype=float)
    _check_each(np.isfinite(phase), phase, "phase must be finite, got {!r}")
    wrapped = np.mod(phase, TWO_PI)
    wrapped = np.where(wrapped == TWO_PI, 0.0, wrapped)
    return float(wrapped) if phase.ndim == 0 else wrapped

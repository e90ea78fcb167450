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

from .errors import finite, json_number, positive_float

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlateGeometry:
    """Plate thickness, pump/pair indices, and pump vacuum wavelength (SI units)."""

    thickness: float
    n_pump: float
    n_pair: float
    wavelength_pump: float

    def __post_init__(self):
        positive_float(self.thickness, "thickness")
        positive_float(self.wavelength_pump, "wavelength_pump")
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
            thickness=json_number(doc["L_m"], "geometry L_m"),
            n_pump=json_number(doc["n_p"], "geometry n_p"),
            n_pair=json_number(doc["n_s"], "geometry n_s"),
            wavelength_pump=json_number(doc["lambda_p_m"], "geometry lambda_p_m"),
        )


def phase_through_plate(wavelength: float, n: float, thickness: float, alpha):
    """Raw phase crossing the plate at external incidence alpha (float, or array elementwise)."""
    positive_float(wavelength, "wavelength")
    positive_float(thickness, "thickness")
    positive_float(n, "refractive index")
    alpha, s = _sin_tilt(alpha)
    if (s >= n).any():
        raise ValueError(
            f"|sin alpha| = {s.max():.6f} >= n = {n:.6f}: no propagating solution"
        )
    phase = _plate_phase(wavelength, n, thickness, s)
    return float(phase) if alpha.ndim == 0 else phase


def relative_phase(geom: PlateGeometry, alpha):
    """Raw pump-minus-pair phase offset delta(alpha); even in alpha, arrays elementwise.

    Only alpha is checked: geom is valid, and its indices n > 1 >= |sin alpha| always propagate.
    """
    alpha, s = _sin_tilt(alpha)
    lam, thickness = geom.wavelength_pump, geom.thickness
    pump = _plate_phase(lam, geom.n_pump, thickness, s)
    delta = pump - _plate_phase(lam, geom.n_pair, thickness, s)
    return float(delta) if alpha.ndim == 0 else delta


def _sin_tilt(alpha) -> tuple[np.ndarray, np.ndarray]:
    """alpha as a float array, checked finite, and |sin alpha|."""
    alpha = finite(alpha, "alpha")
    return alpha, np.abs(np.sin(alpha))


def _plate_phase(wavelength: float, n: float, thickness: float, s: np.ndarray) -> np.ndarray:
    """2 pi n^2 L / (lambda sqrt(n^2 - s^2)) at s = |sin alpha| < n, for checked inputs."""
    return TWO_PI * n * n * thickness / (wavelength * np.sqrt(n * n - s * s))


def wrap_phase(phase):
    """Reduce a raw phase (float, or array elementwise) to [0, 2 pi).

    A value whose reduction rounds to 2 pi (any phase in (-ulp(2 pi)/2, 0),
    such as -1e-17) is returned as 0.0, the point it stands for.
    """
    phase = finite(phase, "phase")
    wrapped = _wrap(phase)
    return float(wrapped) if phase.ndim == 0 else wrapped


def _wrap(phase) -> np.ndarray:
    """wrap_phase of a phase its caller has already checked finite, as an array."""
    wrapped = np.mod(phase, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)

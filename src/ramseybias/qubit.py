"""Transmon level structure and probe-detuning quantities.

The flux-tunable transmon is reduced to two levels whose splitting follows
``sqrt(8 E_C E_J |cos(pi phi)|) - E_C`` with the gate charge held at its
sweet spot. From the splitting and the probe parameters this module derives
the detuning, the dressed precession rate, the mixing angle of the
rotating-frame diagonalization, and the far-detuned phase-accumulation rate
used by the dispersive bias segments; :func:`regime_quantities` is the one
function that does so, for a single probe frequency and a sweep grid alike.

All quantities are pure functions of immutable parameter records and are
safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .units import RAD_PER_GHZ, to_ghz

# Far-detuning margin: |omega_eg' - omega| below this many eta means the
# pure-phase treatment of the dispersive bias is getting unreliable.
DISPERSIVE_MARGIN = 10.0


@dataclass(frozen=True)
class TransmonParams:
    """Charging energy, junction ratio and the two operating flux biases.

    Attributes
    ----------
    e_c : float
        Charging energy as an angular frequency (rad/s, hbar = 1).
    ej_ratio : float
        Junction-to-charging energy ratio E_J / E_C (dimensionless).
    phi_res : float
        Reduced flux of the resonant bias point, in [0, 1).
    phi_disp : float
        Reduced flux of the dispersive bias point, in [0, 1).
    """

    e_c: float
    ej_ratio: float
    phi_res: float
    phi_disp: float

    def __post_init__(self):
        if not self.e_c > 0:
            raise DomainError(f"charging energy must be positive, got {self.e_c}")
        if not self.ej_ratio > 0:
            raise DomainError(f"E_J/E_C must be positive, got {self.ej_ratio}")
        for name in ("phi_res", "phi_disp"):
            phi = getattr(self, name)
            if not 0.0 <= phi < 1.0:
                raise DomainError(f"{name} must lie in [0, 1), got {phi}")
        # both operating points need a valid two-level gap
        omega_eg(self, self.phi_res)
        omega_eg(self, self.phi_disp)

    @classmethod
    def from_ghz(cls, ec_ghz: float = 0.5, ej_ratio: float = 100.0,
                 phi_res: float = 0.46, phi_disp: float = 0.49) -> "TransmonParams":
        """Build from the charging energy quoted as E_C/2pi in GHz.

        The 0.5 GHz default is a calibration choice that places the
        resonant-bias splitting near 4.507 GHz; it is configuration, not a
        physical constant.
        """
        return cls(ec_ghz * RAD_PER_GHZ, ej_ratio, phi_res, phi_disp)


@dataclass(frozen=True)
class DriveParams:
    """Probe coupling strength and probe frequency (or grid), angular (rad/s)."""

    eta: float
    omega: float | np.ndarray

    def __post_init__(self):
        if not self.eta > 0:
            raise DomainError(f"coupling strength must be positive, got {self.eta}")
        if not float(self.eta) * float(self.eta) < math.inf:
            raise DomainError(f"coupling strength eta/2pi = {to_ghz(self.eta):g} GHz "
                              "is too large: eta^2 overflows")
        omega = np.ravel(self.omega)
        bad = omega[~(omega > 0)]
        if bad.size:
            raise DomainError(f"probe frequency must be positive, got {bad[0]}")


@dataclass(frozen=True)
class RegimeQuantities:
    """Derived quantities of one bias regime, shaped like the probe frequency.

    ``delta`` is half the qubit-probe frequency difference and ``eta`` the
    probe coupling. The dressed precession rate ``lam`` = sqrt(delta^2 +
    eta^2) and the mixing angle ``theta`` = atan2(eta, delta) in (0, pi)
    are computed on first read. ``delta_d`` is the dispersive
    phase-accumulation rate and is only set for the dispersive regime.
    """

    delta: float | np.ndarray
    eta: float
    delta_d: float | np.ndarray | None = None

    @cached_property
    def lam(self) -> float | np.ndarray:
        return np.hypot(self.delta, self.eta)

    @cached_property
    def theta(self) -> float | np.ndarray:
        return np.arctan2(self.eta, self.delta)


def omega_eg(params: TransmonParams, phi: float) -> float:
    """Two-level splitting (rad/s) at reduced flux ``phi``.

    Raises
    ------
    DomainError
        If ``phi`` is outside [0, 1) or the resulting gap is not positive
        (flux too close to half a flux quantum) or not finite (an energy
        that overflows).
    """
    if not 0.0 <= phi < 1.0:
        raise DomainError(f"reduced flux must lie in [0, 1), got {phi}")
    e_j = params.ej_ratio * params.e_c
    gap = math.sqrt(8.0 * params.e_c * e_j * abs(math.cos(math.pi * phi))) - params.e_c
    if not 0.0 < gap < math.inf:
        raise DomainError(f"no valid two-level gap at phi={phi}: splitting "
                          f"{gap:.3e} rad/s is not positive and finite")
    return gap


def regime_quantities(params: TransmonParams, drive: DriveParams,
                      regime: str) -> RegimeQuantities:
    """Detuning, precession rate and mixing angle at one bias point.

    The regime picks the bias: ``"resonant"`` evaluates at
    ``params.phi_res`` and ``"dispersive"`` at ``params.phi_disp``.
    Broadcasts over ``drive.omega`` (a scalar or a grid). The returned
    record carries ``delta``, ``lam`` and ``theta``; the dispersive one
    additionally carries ``delta_d``, the phase-accumulation rate
    ``(omega_eg' - omega)/2 + eta^2/(omega_eg' - omega)``.

    Raises
    ------
    ValueError
        If ``regime`` is neither of the two.
    DomainError
        If a probe frequency is exactly resonant with the dispersive-bias
        splitting (the rate diverges); the first such frequency is named.

    Warns
    -----
    UserWarning
        When ``|omega_eg' - omega| < 10 eta`` in the dispersive regime,
        where treating the segment as pure phase accumulation degrades; the
        message counts the probe frequencies affected.
    """
    if regime not in ("resonant", "dispersive"):
        raise ValueError(f"unknown regime {regime!r}")
    w_eg = omega_eg(params, params.phi_res if regime == "resonant"
                    else params.phi_disp)
    eta = drive.eta
    delta = (w_eg - drive.omega) / 2.0
    if regime == "resonant":
        return RegimeQuantities(delta, eta)

    detune = w_eg - drive.omega
    hit = np.flatnonzero(detune == 0.0)
    if hit.size:
        raise DomainError(
            "probe exactly resonant with the dispersive-bias splitting at "
            f"omega/2pi = {to_ghz(np.ravel(drive.omega)[hit[0]]):.9g} GHz; "
            "the dispersive rate diverges"
        )
    close = int(np.count_nonzero(np.abs(detune) < DISPERSIVE_MARGIN * eta))
    if close:
        warnings.warn(
            f"{close} of {np.size(detune)} probe frequencies within "
            f"{DISPERSIVE_MARGIN:g} eta of the dispersive-bias splitting; the "
            "far-detuning approximation assumes |detuning| >> eta",
            stacklevel=2,
        )
    delta_d = detune / 2.0 + eta**2 / detune
    return RegimeQuantities(delta, eta, delta_d)

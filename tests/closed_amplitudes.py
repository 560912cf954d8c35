"""Closed separated-field amplitudes of the two- and three-segment trains.

The program composes every train numerically (``compose_train``) and takes
every population from the phase-free recursion ``train_excitation``. These
hand-derived excited amplitudes are kept here, moved verbatim from the
program, as independent references for the composer's laboratory-frame
phases at n = 2 and n = 3; ``validate`` no longer runs them.
"""

import numpy as np

from ramseybias.evolution import ArrayLike
from ramseybias.qubit import DriveParams, RegimeQuantities


def ce_double(q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, tau: ArrayLike, t_disp: ArrayLike) -> ArrayLike:
    """Closed-form excited amplitude after a tau / T / tau train.

    Ground-state start. Equal to composing resonant, dispersive and
    resonant updates step by step; an oracle for :func:`compose_train`, run
    by ``validate`` and the tests.
    """
    tau = np.asarray(tau, dtype=float)
    lam_tau = q_res.lam * tau
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(q_res.theta)
    st = np.sin(q_res.theta)
    x = q_disp.delta_d * np.asarray(t_disp, dtype=float)
    envelope = -2j * np.exp(-1j * drive.omega * (tau + np.asarray(t_disp) / 2.0))
    return envelope * st * s * (c * np.cos(x) - ct * s * np.sin(x))


def ce_triple(q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, tau: ArrayLike, t_disp: ArrayLike) -> ArrayLike:
    """Closed-form excited amplitude after a tau/T/tau/T/tau train."""
    tau = np.asarray(tau, dtype=float)
    lam_tau = q_res.lam * tau
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(q_res.theta)
    st = np.sin(q_res.theta)
    x2 = 2.0 * q_disp.delta_d * np.asarray(t_disp, dtype=float)
    bracket = (2.0 * (c * c - ct * ct * s * s) * np.cos(x2)
               - 2.0 * ct * np.sin(2.0 * lam_tau) * np.sin(x2)
               + c * c + np.cos(2.0 * q_res.theta) * s * s)
    envelope = -1j * np.exp(-1j * drive.omega * (1.5 * tau + np.asarray(t_disp)))
    return envelope * st * s * bracket


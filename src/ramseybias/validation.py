"""Cross-validation suite: every closed form against an independent route.

The suite pits the separated-field closed forms against the numeric train
composer, the duration averages that every curve comes from (the
two-segment closed form and the three-segment moment sum) against Monte
Carlo sampling at random detunings, the tabulated moment against
Gauss-Legendre quadrature, and sweeps unitarity and probability ranges. It
is pure given its seed, so repeated runs render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import RANGE_TOL, AveragingParams, McConfig, i_s, mc_oracle
from .evolution import (BiasTrain, GROUND, ce_double, ce_triple, compose_train,
                        dispersive_phase, propagate_segment)
from .optimizer import seed_points
from .qubit import DriveParams, TransmonParams, omega_eg, regime_quantities
from .spectroscopy import _grid_quantities, make_grid, pe_average
from .units import to_ghz


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass
class ValidationReport:
    seed: int
    n_samples: int
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            "# ramseybias validation report",
            f"seed = {self.seed}",
            f"n_samples = {self.n_samples}",
            "",
        ]
        for c in self.checks:
            lines.append(f"[{c.name}]")
            lines.append(f"status = {'pass' if c.passed else 'FAIL'}")
            lines.append(f"measured = {c.measured:.12g}")
            lines.append(f"tolerance = {c.tolerance:.12g}")
            if c.detail:
                lines.append(f"detail = {c.detail}")
            lines.append("")
        lines.append(f"overall = {'pass' if self.all_passed else 'FAIL'}")
        lines.append("")
        return "\n".join(lines)


def _quantities(transmon, eta, omega):
    drive = DriveParams(eta, omega)
    q_res = regime_quantities(transmon, drive, "resonant")
    q_disp = regime_quantities(transmon, drive, "dispersive")
    return drive, q_res, q_disp


def run_validation(transmon: TransmonParams, eta: float, mc: McConfig, *,
                   s: float | None = None, ratio_r: float | None = None,
                   mc_draws: int = 5) -> ValidationReport:
    """Run every cross-check and collect a deterministic report.

    ``s`` defaults to the k = 3 seed 0.68 pi / (3 eta) and ``ratio_r`` to
    0.001.
    """
    rng = np.random.default_rng(mc.rng_seed)
    if s is None:
        s = seed_points(eta, [3.0])[0]
    ratio_r = 0.001 if ratio_r is None else ratio_r
    w_res = omega_eg(transmon, transmon.phi_res)
    checks: list[CheckResult] = []

    # closed separated-field amplitudes vs the numeric composer
    for name, n_res, closed in (("closed_vs_composed_double", 2, ce_double),
                                ("closed_vs_composed_triple", 3, ce_triple)):
        worst = 0.0
        for _ in range(100):
            omega = rng.uniform(0.8 * w_res, 1.2 * w_res)
            drive, q_res, q_disp = _quantities(transmon, eta, omega)
            tau = rng.uniform(0.0, 6.0 / eta, size=10)
            ratio = float(rng.uniform(0.0, 0.2))
            want = closed(q_res, q_disp, drive, tau, ratio * tau)
            got = compose_train(q_res, q_disp, drive,
                                BiasTrain(n_res, tau, ratio)).c_e
            worst = max(worst, float(np.max(np.abs(want - got))))
        checks.append(CheckResult(name, worst <= 1e-10, worst, 1e-10,
                                  "max |closed - composed| over 1000 draws"))

    # unitarity of composed trains
    worst = 0.0
    for _ in range(60):
        omega = rng.uniform(0.8 * w_res, 1.2 * w_res)
        drive, q_res, q_disp = _quantities(transmon, eta, omega)
        n_res = int(rng.integers(1, 7))
        tau = rng.uniform(0.0, 6.0 / eta, size=20)
        train = BiasTrain(n_res, tau, float(rng.uniform(0.0, 0.2)))
        state = compose_train(q_res, q_disp, drive, train)
        worst = max(worst, float(np.max(np.abs(state.norm_sq() - 1.0))))
    checks.append(CheckResult("train_norm_preservation", worst <= 1e-12,
                              worst, 1e-12,
                              "max |norm - 1| over random trains, order 1..6"))

    # tabulated cosine-weighted moment vs quadrature, in the dimensionless
    # argument b = beta*s so that no time constant can overflow the grid
    b_grid = np.linspace(0.0, 10.0 * np.pi, 1000)
    dev = np.abs(i_s(b_grid, 1.0) - i_s(b_grid, 1.0, method="quad"))
    worst = float(np.max(dev))
    checks.append(CheckResult("moment_table_vs_quadrature", worst <= 1e-9,
                              worst, 1e-9,
                              "1000-point grid, moment argument in [0, 10 pi]"))

    # the averages every curve comes from vs the Monte Carlo oracle
    for name, n_res in (("double_avg_vs_monte_carlo", 2),
                        ("triple_avg_vs_monte_carlo", 3)):
        worst_sigma = 0.0
        worst_abs = 0.0
        ok = True
        for draw in range(mc_draws):
            omega = rng.uniform(w_res - 2.0 * eta, w_res + 2.0 * eta)
            avg = AveragingParams(s * rng.uniform(0.5, 2.0),
                                  float(rng.uniform(0.0, 0.05)))
            drive, q_res, q_disp = _quantities(transmon, eta, omega)
            exact = pe_average(n_res, q_res.lam, q_res.theta, q_disp.delta_d,
                               avg)
            mean, err = mc_oracle(n_res, q_res, q_disp, drive, avg,
                                  McConfig(mc.n_samples, mc.rng_seed + draw))
            dev = abs(exact - mean)
            bound = max(3.0 * err, 1e-3)
            worst_abs = max(worst_abs, dev)
            worst_sigma = max(worst_sigma, dev / bound)
            ok = ok and dev <= bound
        checks.append(CheckResult(name, ok, worst_abs, 1e-3,
                                  f"worst deviation/bound = {worst_sigma:.3f} "
                                  f"over {mc_draws} draws at {mc.n_samples} samples"))

    # pure-phase dispersive step vs the exact two-level propagator
    drive, q_res, q_disp = _quantities(transmon, eta, w_res)
    worst = 0.0
    for _ in range(50):
        t_disp = float(rng.uniform(0.0, 2.0 / eta))
        tau0 = float(rng.uniform(0.0, 4.0 / eta))
        state = propagate_segment(GROUND, q_res, drive, tau0)
        approx = dispersive_phase(state, q_disp.delta_d, drive.omega, t_disp)
        exact = propagate_segment(state, q_disp, drive, t_disp, t0=tau0)
        dev = max(float(np.abs(approx.c_e - exact.c_e)),
                  float(np.abs(approx.c_g - exact.c_g)))
        worst = max(worst, dev)
    mixing_bound = 2.0 * np.sin(q_disp.theta)
    checks.append(CheckResult("dispersive_phase_vs_exact",
                              worst <= mixing_bound, worst, mixing_bound,
                              "diagnostic: residual mixing of the far-detuned "
                              "bias, bounded by twice its mixing-angle sine"))

    # probability range of the averaged curves over the default window
    grid = make_grid(w_res - 2.0 * np.pi * 1.0e9, w_res + 2.0 * np.pi * 1.0e9,
                     2.0 * np.pi * 5e6)
    avg = AveragingParams(s, ratio_r)
    raw = pe_average(2, *_grid_quantities(transmon, eta, grid), avg)
    excess = float(max(np.max(raw) - 1.0, -np.min(raw), 0.0))
    checks.append(CheckResult("double_avg_probability_range",
                              excess <= RANGE_TOL, excess, RANGE_TOL,
                              f"raw range excess over [0, 1] on "
                              f"{grid.size} points around "
                              f"{to_ghz(w_res):.4f} GHz"))

    # bitwise determinism of the sampled oracle
    first = mc_oracle(2, q_res, q_disp, drive, avg,
                      McConfig(min(mc.n_samples, 10**5), mc.rng_seed))
    second = mc_oracle(2, q_res, q_disp, drive, avg,
                       McConfig(min(mc.n_samples, 10**5), mc.rng_seed))
    dev = abs(first[0] - second[0]) + abs(first[1] - second[1])
    checks.append(CheckResult("mc_determinism", dev == 0.0, dev, 0.0,
                              "identical seeds must agree bit for bit"))

    return ValidationReport(mc.rng_seed, mc.n_samples, checks)

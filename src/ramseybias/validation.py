"""Cross-validation suite: every fast path against an independent route.

The suite pits the phase-free train population, from which every moment
table comes, against the laboratory-frame composer at orders 1 to 6, the
duration averages that every curve comes from (the two-segment closed form
and the three-segment moment sum) against Monte Carlo sampling at random
detunings, the tabulated moment against Gauss-Legendre quadrature, and
sweeps unitarity and probability ranges. It is pure given its seed, so
repeated runs render byte-identical reports. The Monte Carlo blocks are
drawn first and then shared out over every usable CPU in forked workers,
as ``optimize`` shares its grid points, so the report is the same for any
CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import RANGE_TOL, AveragingParams, McConfig, i_s, mc_oracle
from .evolution import (BiasTrain, GROUND, compose_train, dispersive_phase,
                        propagate_segment, train_excitation)
from .optimizer import _evaluate_all, seed_points
from .qubit import TransmonParams, omega_eg, regime_quantities
from .spectroscopy import make_grid, pe_average
from .units import to_ghz

# Monte Carlo draws of (omega, s, R) per averaged-curve check
MC_DRAWS = 5

# fewest samples per draw at which a Monte Carlo standard error is worth a
# 3-sigma check: one sample has none, and at n samples the estimate itself
# is off by about 1/sqrt(2n), 7 % at this floor
MC_MIN_SAMPLES = 100

# lowest probe frequency of a Monte Carlo draw, as a fraction of the line's
MC_OMEGA_FLOOR = 0.05


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


def run_validation(transmon: TransmonParams, eta: float, mc: McConfig,
                   avg: AveragingParams | None = None) -> ValidationReport:
    """Run every cross-check and collect a deterministic report.

    ``avg`` defaults to the k = 3 seed s = 0.68 pi / (3 eta) at R = 0.001.
    """
    rng = np.random.default_rng(mc.rng_seed)
    if avg is None:
        avg = AveragingParams(seed_points(eta, [3.0])[0], 0.001)
    w_res = omega_eg(transmon, transmon.phi_res)
    checks: list[CheckResult] = []

    def check(name, measured, bound, detail):
        checks.append(CheckResult(name, measured <= bound, measured, bound, detail))

    # the phase-free population that every moment table comes from vs the
    # laboratory-frame composer, and the composer's norm, on the same trains
    worst_pop = worst_norm = 0.0
    for _ in range(200):
        omega = rng.uniform(0.8 * w_res, 1.2 * w_res)
        drive, q_res, q_disp = regime_quantities(transmon, eta, omega)
        n_res = int(rng.integers(1, 7))
        tau = rng.uniform(0.0, 6.0 / eta, size=10)
        ratio = float(rng.uniform(0.0, 0.2))
        state = compose_train(q_res, q_disp, drive, BiasTrain(n_res, tau, ratio))
        want = train_excitation(n_res, q_res.lam * tau, q_res.theta,
                                q_disp.delta_d * ratio * tau)
        worst_pop = max(worst_pop, float(np.max(np.abs(state.p_e() - want))))
        worst_norm = max(worst_norm,
                         float(np.max(np.abs(state.norm_sq() - 1.0))))
    check("train_population_vs_composed", worst_pop, 1e-10,
          "max |train_excitation - composed p_e| over random trains, order 1..6")
    check("train_norm_preservation", worst_norm, 1e-12,
          "max |norm - 1| over random trains, order 1..6")

    # tabulated cosine-weighted moment vs quadrature, in the dimensionless
    # argument b = beta*s so that no time constant can overflow the grid
    b_grid = np.linspace(0.0, 10.0 * np.pi, 1000)
    dev = np.abs(i_s(b_grid, 1.0) - i_s(b_grid, 1.0, method="quad"))
    check("moment_table_vs_quadrature", float(np.max(dev)), 1e-9,
          "1000-point grid, moment argument in [0, 10 pi]")

    # the averages every curve comes from vs the Monte Carlo oracle: every
    # block's (omega, s, R) is drawn here in order, then the blocks run on
    # every usable CPU. Omega lies within 2 eta of the line, and above 5 % of
    # its frequency, which 2 eta reaches for a wide coupling
    blocks = (("double_avg_vs_monte_carlo", 2), ("triple_avg_vs_monte_carlo", 3))
    w_low = max(w_res - 2.0 * eta, MC_OMEGA_FLOOR * w_res)
    jobs = [(n_res, rng.uniform(w_low, w_res + 2.0 * eta),
             AveragingParams(avg.s * rng.uniform(0.5, 2.0),
                             float(rng.uniform(0.0, 0.05))),
             McConfig(mc.n_samples, mc.rng_seed + draw))
            for _, n_res in blocks for draw in range(MC_DRAWS)]

    def compare(job):
        n_res, omega, drawn, draw_mc = job
        drive, q_res, q_disp = regime_quantities(transmon, eta, omega)
        exact = pe_average(n_res, q_res.lam, q_res.theta, q_disp.delta_d, drawn)
        return (exact, *mc_oracle(n_res, q_res, q_disp, drive, drawn, draw_mc))

    outcomes = _evaluate_all(compare, jobs)
    for block, (name, _) in enumerate(blocks):
        worst_sigma = worst_abs = 0.0
        ok = True
        for exact, mean, err in outcomes[block * MC_DRAWS:(block + 1) * MC_DRAWS]:
            dev = abs(exact - mean)
            bound = max(3.0 * err, 1e-3)
            worst_abs = max(worst_abs, dev)
            worst_sigma = max(worst_sigma, dev / bound)
            ok = ok and dev <= bound
        checks.append(CheckResult(name, ok, worst_abs, 1e-3,
                                  f"worst deviation/bound = {worst_sigma:.3f} "
                                  f"over {MC_DRAWS} draws at {mc.n_samples} samples"))

    # pure-phase dispersive step vs the exact two-level propagator
    drive, q_res, q_disp = regime_quantities(transmon, eta, w_res)
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
    check("dispersive_phase_vs_exact", worst, 2.0 * np.sin(q_disp.theta),
          "diagnostic: residual mixing of the far-detuned bias, bounded by "
          "twice its mixing-angle sine")

    # probability range of the averaged curves over w_res +- 1 GHz, cut
    # below at one 5 MHz step so that every probe frequency is positive
    step = 2.0 * np.pi * 5e6
    grid = make_grid(max(w_res - 2.0 * np.pi * 1.0e9, step),
                     w_res + 2.0 * np.pi * 1.0e9, step)
    _, grid_res, grid_disp = regime_quantities(transmon, eta, grid)
    raw = pe_average(2, grid_res.lam, grid_res.theta, grid_disp.delta_d, avg)
    excess = float(max(np.max(raw) - 1.0, -np.min(raw), 0.0))
    check("double_avg_probability_range", excess, RANGE_TOL,
          f"raw range excess over [0, 1] on {grid.size} points around "
          f"{to_ghz(w_res):.4f} GHz")

    # bitwise determinism of the sampled oracle
    first = mc_oracle(2, q_res, q_disp, drive, avg,
                      McConfig(min(mc.n_samples, 10**5), mc.rng_seed))
    second = mc_oracle(2, q_res, q_disp, drive, avg,
                       McConfig(min(mc.n_samples, 10**5), mc.rng_seed))
    check("mc_determinism", abs(first[0] - second[0]) + abs(first[1] - second[1]),
          0.0, "identical seeds must agree bit for bit")

    return ValidationReport(mc.rng_seed, mc.n_samples, checks)

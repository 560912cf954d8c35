"""Correctness gate for the benchmark's CLI outputs.

Every check returns a list of human-readable problems; an empty list means
the output passed. The checks are independent of the program's averaging
engine: curve values are recomputed from ``evolution.train_excitation``
(the phase-free train population) by fixed-node Gauss-Legendre quadrature
on every row and by scalar adaptive ``quad`` at a few seeded rows, with the
detuning quantities derived here from the configuration values.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy import integrate

from ramseybias.errors import MetricsError
from ramseybias.evolution import train_excitation
from ramseybias.spectroscopy import Spectrum, metrics
from ramseybias.units import RAD_PER_GHZ, to_ghz, to_mhz

# tolerance on a curve value against the independent recomputation
PE_TOL = 1e-7
# Maxwell duration variable x = tau/s is integrated on [0, X_MAX]; the
# density 2 x^3 exp(-x^2) is below 1e-26 beyond it
X_MAX = 8.0
# Gauss-Legendre nodes on [0, X_MAX]; resolves the fastest oscillation of an
# order-4 train across the sweep window to well below PE_TOL
GL_NODES = 192
GL_ROWS = 512
SPOT_ROWS = 3
SEED_PHASE = 0.68 * math.pi


def fmt(value: float) -> str:
    """The program's printed precision: 9 significant digits."""
    return f"{value:.9g}"


def parse_kv(text: str) -> dict[str, str]:
    """``key = value`` lines of a report; comments and blanks skipped."""
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.lstrip().startswith("#"):
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_curve(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(omega_ghz, p_e) columns of a spectrum or baseline CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "omega_ghz,p_e":
        raise ValueError("missing omega_ghz,p_e header")
    rows = [line.split(",") for line in lines[1:]]
    data = np.array(rows, dtype=float).reshape(-1, 2)
    return data[:, 0], data[:, 1]


class Physics:
    """Detuning quantities of the two bias points, from config values.

    ``params`` holds the generated configuration's numbers: ec_ghz,
    ej_ratio, phi_res, phi_disp, eta_ghz, k (the s rule harmonic) and r.
    """

    def __init__(self, params: dict):
        e_c = params["ec_ghz"] * RAD_PER_GHZ
        e_j = params["ej_ratio"] * e_c

        def split(phi):
            return math.sqrt(8.0 * e_c * e_j * abs(math.cos(math.pi * phi))) - e_c

        self.w_res = split(params["phi_res"])
        self.w_disp = split(params["phi_disp"])
        self.eta = params["eta_ghz"] * RAD_PER_GHZ
        self.s = SEED_PHASE / (params["k"] * self.eta)
        self.r = params["r"]

    def quantities(self, omega):
        delta = (self.w_res - omega) / 2.0
        detune = self.w_disp - omega
        return (np.hypot(delta, self.eta), np.arctan2(self.eta, delta),
                detune / 2.0 + self.eta**2 / detune)

    def cw_line(self, omega, amplitude):
        delta = (self.w_res - omega) / 2.0
        return amplitude * self.eta**2 / (delta * delta + self.eta**2)

    def _population(self, n_res, x, lam, theta, delta_d):
        tau = self.s * x
        return train_excitation(n_res, lam * tau, theta, delta_d * self.r * tau)

    def train_average_gl(self, n_res: int, omega: np.ndarray) -> np.ndarray:
        """Duration average on every frequency, fixed-node quadrature."""
        nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
        x = (nodes + 1.0) * (X_MAX / 2.0)
        w = weights * (X_MAX / 2.0) * 2.0 * x**3 * np.exp(-x * x)
        out = np.empty(omega.size)
        for start in range(0, omega.size, GL_ROWS):
            sl = slice(start, start + GL_ROWS)
            lam, theta, delta_d = (q[:, None] for q in self.quantities(omega[sl]))
            out[sl] = self._population(n_res, x[None, :], lam, theta, delta_d) @ w
        return out

    def train_average_quad(self, n_res: int, omega: float) -> float:
        """Duration average at one frequency, scalar adaptive quadrature."""
        lam, theta, delta_d = self.quantities(omega)
        f = lambda x: 2.0 * x**3 * math.exp(-x * x) * float(
            self._population(n_res, x, lam, theta, delta_d))
        val, _ = integrate.quad(f, 0.0, X_MAX, epsabs=1e-12, epsrel=1e-12,
                                limit=500)
        return val


def _rounding_slack(ghz: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Value change caused by printing the frequency to 9 digits.

    The program evaluates each row at the unrounded frequency; the
    recomputation uses the printed one. The slack is the local slope (from
    the neighbouring rows) times half a unit in the last printed digit.
    """
    half_ulp = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(ghz))) - 8)
    return np.abs(np.gradient(p, ghz)) * half_ulp


def check_curve(text: str, physics: Physics, n_res: int | None,
                cw_amplitude: float, spot_seed: int) -> list[str]:
    """Range, every-row and seeded spot checks of one CSV curve.

    ``n_res`` is the scheme's resonant-segment count, None for the cw line.
    """
    try:
        ghz, p = read_curve(text)
    except ValueError as exc:
        return [f"unreadable curve: {exc}"]
    problems = []
    bad = np.nonzero(~((p >= 0.0) & (p <= 1.0)))[0]
    if bad.size:
        problems.append(f"{bad.size} p_e values outside [0, 1], first at "
                        f"{fmt(ghz[bad[0]])} GHz: {fmt(p[bad[0]])}")
    if p.size < 3 or not np.all(np.diff(ghz) > 0):
        problems.append("frequency column not strictly increasing")
        return problems

    omega = ghz * RAD_PER_GHZ
    if n_res is None:
        want = physics.cw_line(omega, cw_amplitude)
    else:
        want = physics.train_average_gl(n_res, omega)
    tol = PE_TOL + _rounding_slack(ghz, p)
    dev = np.abs(p - want)
    miss = np.nonzero(dev > tol)[0]
    if miss.size:
        i = miss[int(np.argmax(dev[miss]))]
        problems.append(f"{miss.size} rows disagree with the independent "
                        f"average, worst {dev[i]:.3e} at {fmt(ghz[i])} GHz")

    if n_res is not None:
        rng = random.Random(spot_seed)
        for i in sorted(rng.sample(range(p.size), min(SPOT_ROWS, p.size))):
            ref = physics.train_average_quad(n_res, float(omega[i]))
            if abs(p[i] - ref) > tol[i]:
                problems.append(f"spot check at {fmt(ghz[i])} GHz: p_e "
                                f"{fmt(p[i])} vs quad {ref:.12g}")
    return problems


def quantized(spec: Spectrum) -> Spectrum:
    """A spectrum rounded to printed precision, as the CLI reports it."""
    ghz = np.array([float(fmt(v)) for v in to_ghz(spec.omega)])
    p = np.array([float(fmt(v)) for v in spec.p_e])
    return Spectrum(ghz * RAD_PER_GHZ, p, spec.scheme_tag)


def check_metrics(report: str, curve: str,
                  reference: Spectrum | None) -> list[str]:
    """The metrics report must equal metrics recomputed from its own CSV."""
    try:
        ghz, p = read_curve(curve)
        spec = Spectrum(ghz * RAD_PER_GHZ, p, "csv")
        m = metrics(spec, reference=reference)
    except (ValueError, MetricsError) as exc:
        return [f"metrics not recomputable from the CSV: {exc}"]
    want = {
        "peak_ghz": fmt(to_ghz(m.peak_omega)),
        "peak_value": fmt(m.peak_value),
        "fwhm_mhz": fmt(to_mhz(m.fwhm)),
        "fringe_count": str(len(m.fringes)),
    }
    if m.shift_vs_ref is not None:
        want["baseline_peak_ghz"] = fmt(to_ghz(m.peak_omega - m.shift_vs_ref))
        want["shift_vs_baseline_mhz"] = fmt(to_mhz(m.shift_vs_ref))
    for idx, (w, height) in enumerate(m.fringes, start=1):
        want[f"fringe_{idx}_ghz"] = fmt(to_ghz(w))
        want[f"fringe_{idx}_height"] = fmt(height)
    got = {k: v for k, v in parse_kv(report).items()
           if k not in ("scheme", "s_ns", "r")}
    return [f"metrics {key}: report {got.get(key)!r}, recomputed {want.get(key)!r}"
            for key in sorted(set(want) | set(got))
            if got.get(key) != want.get(key)]


def check_validation(report: str) -> list[str]:
    """Every block of a validation report must pass, and so must overall."""
    problems = []
    block = None
    for line in report.splitlines():
        if line.startswith("[") and line.endswith("]"):
            block = line[1:-1]
        elif line.strip() == "status = FAIL":
            problems.append(f"validation check {block} failed")
    if parse_kv(report).get("overall") != "pass":
        problems.append("validation report lacks 'overall = pass'")
    return problems


def check_optimize(trace: str, summary: str, expected_points: int) -> list[str]:
    """Trace rows for every grid point, peaks in [0, 1], status ok."""
    problems = []
    lines = trace.splitlines()
    if not lines or lines[0] != "s_ns,r,peak_ghz,peak_value,fwhm_mhz,on_pareto":
        return ["optimize trace lacks its header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_points:
        problems.append(f"optimize trace has {len(rows)} rows, "
                        f"expected {expected_points}")
    peaks = np.array([float(row[3]) for row in rows])
    bad = peaks[~np.isnan(peaks) & ~((peaks >= 0.0) & (peaks <= 1.0))]
    if bad.size:
        problems.append(f"{bad.size} optimize peak values outside [0, 1]")
    info = parse_kv(summary)
    if info.get("status") != "ok":
        problems.append(f"optimize status {info.get('status')!r}")
    if info.get("evaluated") != str(expected_points):
        problems.append(f"optimize evaluated {info.get('evaluated')!r}, "
                        f"expected {expected_points}")
    return problems

"""Run-configuration files: flat INI-style sections of ``key = value``.

All frequencies in the file are cyclic GHz (steps in MHz where named so),
times are nanoseconds; parsing converts to the angular/seconds units used
internally. The template emitted by ``ramseybias init`` reproduces the
headline double-resonance operating point.

``load_config`` builds the records the commands run on (``AveragingParams``,
``SearchSpace``, ``ObjectiveConfig``, ``McConfig``); each value is checked
once, by its record where it has one; a refusal names its ``[section] key``.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, replace

import numpy as np

from .averaging import AveragingParams, McConfig
from .errors import ConfigError
from .optimizer import ObjectiveConfig, SearchSpace, seed_points
from .qubit import TransmonParams
from .spectroscopy import (CW_AMPLITUDE_DEFAULT, MAX_GRID_POINTS, grid_points,
                           parse_scheme)
from .units import RAD_PER_GHZ, RAD_PER_MHZ, ns

TEMPLATE = """\
# ramseybias run configuration.
# Frequencies are cyclic GHz unless a key says MHz; times are ns.
# This default reproduces the double-resonance operating point.

[transmon]
ec_ghz = 0.5            # charging energy E_C/2pi; calibration choice
ej_ratio = 100.0        # junction-to-charging energy ratio
phi_res = 0.46          # resonant-bias reduced flux
phi_disp = 0.49         # dispersive-bias reduced flux

[drive]
eta_ghz = 0.1           # probe coupling strength eta/2pi

[scheme]
kind = double           # cw | double | triple | general:<n>

[sweep]
min_ghz = 3.5
max_ghz = 5.5
step_mhz = 1.0
refine_step_mhz = 0.1
baseline_shift = true   # report the peak shift against the cw reference
cw_amplitude = 0.5      # peak value convention of the cw reference line

[averaging]
s = 0.68pi/3eta         # time constant: ns number, or rule 0.68pi/<k>eta
r = 0.001               # dispersive-to-resonant duration ratio T/tau

[optimizer]
k_values = 2.5, 3.0, 3.5        # harmonic multiples for the s seed rule
r_values = logspace:0.0005,0.1,12
p_min = 0.3                     # feasibility floor on the peak value
shift_max_mhz = 5.0             # cap on |peak shift| vs cw; narrow lines at
                                # large R come with displaced peaks
# s_values_ns = 1.0, 1.5        # optional explicit time constants

[mc]
n_samples = 1000000
seed = 42

[output]
out_dir = .
"""

_S_RULE = re.compile(r"^\s*0\.68\s*pi\s*/\s*([0-9]*\.?[0-9]+)\s*eta\s*$")


@dataclass
class RunConfig:
    """Parsed configuration with all values in internal units; ``avg`` is
    None when ``[averaging]`` gives neither s nor r, and ``search`` when
    ``[optimizer]`` gives no grids."""

    transmon: TransmonParams
    eta: float
    scheme: str
    omega_min: float
    omega_max: float
    coarse_step: float
    refine_step: float
    baseline_shift: bool
    cw_amplitude: float
    avg: AveragingParams | None
    search: SearchSpace | None
    objective: ObjectiveConfig
    mc: McConfig
    out_dir: str


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}] {key}: {message}")


def checked(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised as a ConfigError
    naming ``key``, the ``[section] key`` the refused value came from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _finite(text: str) -> float:
    """``float(text)``, with NaN and the infinities refused as ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str, read: set):
        self.parser, self.name, self.read = parser, name, read

    def has(self, key: str) -> bool:
        # every lookup passes here, so ``read`` collects each key known
        self.read.add((self.name, key))
        return self.parser.has_option(self.name, key)

    def text(self, key: str, default: str | None = None) -> str:
        if not self.has(key):
            if default is None:
                _fail(self.name, key, "required key is missing")
            return default
        return self.parser.get(self.name, key).strip()

    def number(self, key: str, default: float | None = None,
               unit: float = 1.0) -> float:
        """The key's finite number times ``unit``, refused where the product
        overflows."""
        text = self.text(key, None if default is None else str(default))
        try:
            value = _finite(text) * unit
        except ValueError:
            _fail(self.name, key, f"expected a finite number, got {text!r}")
        if not np.isfinite(value):
            _fail(self.name, key, "too large: overflows in internal units")
        return value

    def integer(self, key: str, default: int | None = None) -> int:
        value = self.text(key, None if default is None else str(default))
        try:
            return int(value)
        except ValueError:
            _fail(self.name, key, f"expected an integer, got {value!r}")

    def flag(self, key: str, default: bool) -> bool:
        value = self.text(key, str(default)).lower()
        if value not in self.parser.BOOLEAN_STATES:
            _fail(self.name, key, f"expected true/false, got {value!r}")
        return self.parser.BOOLEAN_STATES[value]

    def values(self, key: str) -> tuple[float, ...]:
        """Comma list of numbers, or ``logspace:min,max,count``."""
        text = self.text(key)
        if text.startswith("logspace:"):
            parts = text[len("logspace:"):].split(",")
            if len(parts) != 3:
                _fail(self.name, key, "logspace needs min,max,count")
            try:
                lo, hi, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
            except ValueError:
                _fail(self.name, key, f"malformed logspace spec {text!r}")
            if lo <= 0 or hi <= 0 or not 1 <= count <= MAX_GRID_POINTS:
                _fail(self.name, key, "logspace needs positive bounds and a count "
                                      f"from 1 to {MAX_GRID_POINTS:,}")
            return tuple(float(v) for v in np.geomspace(lo, hi, count))
        try:
            return tuple(_finite(v) for v in text.split(","))
        except ValueError:
            _fail(self.name, key,
                  f"expected a comma list of finite numbers, got {text!r}")


def parse_time_constant(text: str, eta: float) -> float:
    """Time constant in seconds from a ns number or a 0.68pi/<k>eta rule."""
    rule = _S_RULE.match(text)
    if rule:
        return seed_points(eta, [float(rule.group(1))])[0]
    try:
        return ns(_finite(text))
    except ValueError as exc:
        raise ValueError("expected a finite number of ns or 0.68pi/<k>eta, "
                         f"got {text!r}") from exc


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises ConfigError with a ``[section] key`` diagnostic on any parse or
    validation failure, and for any key, in any section, that it never reads.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        # utf-8-sig also reads a file that starts with a byte-order mark
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    read: set[tuple[str, str]] = set()

    for required in ("transmon", "drive", "sweep"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    # DomainError (e.g. invalid flux) propagates: it is a physics problem,
    # not a parse problem, and maps to a different exit code
    transmon_sec = _Section(parser, "transmon", read)
    transmon = TransmonParams.from_ghz(
        ec_ghz=transmon_sec.number("ec_ghz", 0.5),
        ej_ratio=transmon_sec.number("ej_ratio", 100.0),
        phi_res=transmon_sec.number("phi_res"),
        phi_disp=transmon_sec.number("phi_disp"),
    )

    eta = _Section(parser, "drive", read).number("eta_ghz", unit=RAD_PER_GHZ)
    if eta <= 0:
        _fail("drive", "eta_ghz", "must be positive")

    scheme = _Section(parser, "scheme", read).text("kind", "double")
    checked("[scheme] kind", parse_scheme, scheme)

    sweep_sec = _Section(parser, "sweep", read)
    omega_min = sweep_sec.number("min_ghz", unit=RAD_PER_GHZ)
    omega_max = sweep_sec.number("max_ghz", unit=RAD_PER_GHZ)
    if not omega_min > 0:
        _fail("sweep", "min_ghz", "probe frequencies must be positive")
    if not omega_max > omega_min:
        _fail("sweep", "max_ghz", "empty grid: max_ghz must exceed min_ghz")
    coarse_step = sweep_sec.number("step_mhz", 1.0, RAD_PER_MHZ)
    refine_step = sweep_sec.number("refine_step_mhz", 0.1, RAD_PER_MHZ)
    for key, step in (("step_mhz", coarse_step), ("refine_step_mhz", refine_step)):
        # the refined pass spans at most the whole window
        checked(f"[sweep] {key}", grid_points, omega_min, omega_max, step)
    baseline_shift = sweep_sec.flag("baseline_shift", True)
    cw_amplitude = sweep_sec.number("cw_amplitude", CW_AMPLITUDE_DEFAULT)
    if not 0 < cw_amplitude <= 1:
        _fail("sweep", "cw_amplitude", "must lie in (0, 1]")

    # a missing optional section has no keys, so each key's default applies
    avg_sec = _Section(parser, "averaging", read)
    avg = None
    if avg_sec.has("s") or avg_sec.has("r"):
        # R = 0 stands in until s has passed, so that a refusal names its key
        s_value = checked("[averaging] s", parse_time_constant,
                          avg_sec.text("s"), eta)
        avg = checked("[averaging] s", AveragingParams, s_value, 0.0)
        avg = checked("[averaging] r", replace, avg, ratio_r=avg_sec.number("r"))

    opt_sec = _Section(parser, "optimizer", read)
    s_grid: list[float] = []
    if opt_sec.has("k_values"):
        s_grid.extend(checked("[optimizer] k_values", seed_points, eta,
                              opt_sec.values("k_values")))
    if opt_sec.has("s_values_ns"):
        s_grid.extend(ns(v) for v in opt_sec.values("s_values_ns"))
    search = None
    if opt_sec.has("r_values"):
        r_grid = opt_sec.values("r_values")
        if not s_grid:
            _fail("optimizer", "k_values",
                  "required with r_values, unless s_values_ns is given")
        # R = 0 stands in until the s grid has passed, so that a refusal
        # names its key; seed_points has refused non-positive seeds
        search = checked("[optimizer] s_values_ns", SearchSpace,
                         tuple(s_grid), (0.0,))
        search = checked("[optimizer] r_values", replace, search, r_grid=r_grid)
    elif s_grid:
        _fail("optimizer", "r_values", "required with k_values or s_values_ns")
    objective = checked("[optimizer] p_min", ObjectiveConfig,
                        opt_sec.number("p_min", ObjectiveConfig.p_min))
    if opt_sec.has("shift_max_mhz"):
        objective = checked("[optimizer] shift_max_mhz", replace, objective,
                            shift_max=opt_sec.number("shift_max_mhz", unit=RAD_PER_MHZ))

    # seed 0 stands in until n_samples has passed, so that a refusal names
    # its key
    mc_sec = _Section(parser, "mc", read)
    mc = checked("[mc] n_samples", McConfig, mc_sec.integer("n_samples", 10**6), 0)
    mc = checked("[mc] seed", replace, mc, rng_seed=mc_sec.integer("seed", 42))
    out_dir = _Section(parser, "output", read).text("out_dir", ".")
    for name in (parser.default_section, *parser.sections()):
        for key in parser[name]:
            if (name, key) not in read:
                _fail(name, key, "unknown key")

    return RunConfig(
        transmon=transmon, eta=eta, scheme=scheme,
        omega_min=omega_min, omega_max=omega_max,
        coarse_step=coarse_step, refine_step=refine_step,
        baseline_shift=baseline_shift, cw_amplitude=cw_amplitude,
        avg=avg, search=search, objective=objective,
        mc=mc, out_dir=out_dir,
    )

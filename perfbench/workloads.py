"""The benchmark's workloads: generated configurations and CLI commands.

Each workload is a fixed sequence of ``python -m ramseybias.cli`` commands
run on configuration files generated here from the workload seed. Grid
draws are stratified (one jittered draw per stratum), so every seed does
nearly the same amount of work while the inputs still differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# physical parameters shared by every workload: the init template's values
TRANSMON = {"ec_ghz": 0.5, "ej_ratio": 100.0, "phi_res": 0.46,
            "phi_disp": 0.49, "eta_ghz": 0.1}
CW_AMPLITUDE = 0.5

CONFIG = """\
[transmon]
ec_ghz = {ec_ghz!r}
ej_ratio = {ej_ratio!r}
phi_res = {phi_res!r}
phi_disp = {phi_disp!r}

[drive]
eta_ghz = {eta_ghz!r}

[scheme]
kind = {kind}

[sweep]
min_ghz = 3.5
max_ghz = 5.5
step_mhz = 1.0
refine_step_mhz = 0.1
baseline_shift = true
cw_amplitude = {cw_amplitude!r}

[averaging]
s = 0.68pi/{k!r}eta
r = {r!r}

[optimizer]
k_values = {k_values}
r_values = {r_values}
p_min = 0.3
{shift_line}
[mc]
n_samples = 1000000
seed = {mc_seed}

[output]
out_dir = out
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs are checked against.

    ``label`` names the command's time ``<label>_s``; ``subcommand`` is the
    CLI subcommand run on ``config`` with ``--threads threads``. ``n_res``
    is a curve's train order (None for the cw line) and ``expected_points``
    the size of an optimize grid.
    """

    label: str
    subcommand: str
    config: str
    threads: int = 1
    n_res: int | None = None
    expected_points: int = 0


@dataclass
class Workload:
    name: str
    configs: dict[str, str] = field(default_factory=dict)
    params: dict[str, dict] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


def _strata(rng: random.Random, lo: float, hi: float, count: int,
            log: bool = False) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    return [math.exp(v) for v in values] if log else values


def _config(kind: str, k: float, r: float, k_values=(3.0,), r_values=(0.001,),
            shift_max_mhz: float | None = 5.0, mc_seed: int = 42) -> tuple[str, dict]:
    params = dict(TRANSMON, k=k, r=r, cw_amplitude=CW_AMPLITUDE)
    text = CONFIG.format(
        kind=kind, k_values=", ".join(repr(v) for v in k_values),
        r_values=", ".join(repr(v) for v in r_values), mc_seed=mc_seed,
        shift_line=("" if shift_max_mhz is None
                    else f"shift_max_mhz = {shift_max_mhz!r}\n"),
        **params)
    return text, params


def double_flow(seed: int) -> Workload:
    rng = random.Random(f"double_flow:{seed}")
    k_values = _strata(rng, 2.0, 4.5, 8)
    r_values = _strata(rng, 5e-4, 0.1, 32, log=True)
    text, params = _config("double", 3.0, 0.001, k_values, r_values)
    points = len(k_values) * len(r_values)
    return Workload(
        "double_flow",
        {"double.cfg": text}, {"double.cfg": params},
        [Command("baseline", "baseline", "double.cfg"),
         Command("spectrum", "spectrum", "double.cfg", n_res=2),
         Command("optimize", "optimize", "double.cfg", expected_points=points)])


def triple_flow(seed: int) -> Workload:
    # a 2x2 grid around the triple operating point (k = 2, R = 0.045): the
    # cost of one point follows the line width, which swings by 4x across
    # the full (k, R) range, so wide draws would make seeds incomparable
    rng = random.Random(f"triple_flow:{seed}")
    k_values = _strata(rng, 1.9, 2.1, 2)
    r_values = _strata(rng, 0.042, 0.048, 2, log=True)
    # no shift cap: with it most triple points near here are infeasible
    triple, params = _config("triple", 2.0, 0.045, k_values, r_values,
                             shift_max_mhz=None)
    general, params4 = _config("general:4", 2.0, 0.045, shift_max_mhz=None)
    return Workload(
        "triple_flow",
        {"triple.cfg": triple, "general4.cfg": general},
        {"triple.cfg": params, "general4.cfg": params4},
        [Command("spectrum", "spectrum", "triple.cfg", n_res=3),
         Command("spectrum_general4", "spectrum", "general4.cfg", n_res=4),
         Command("optimize", "optimize", "triple.cfg", threads=2, expected_points=4)])


def validate_mc(seed: int) -> Workload:
    rng = random.Random(f"validate_mc:{seed}")
    text, params = _config("double", 3.0, 0.001, mc_seed=rng.randrange(1, 2**31))
    return Workload(
        "validate_mc",
        {"validate.cfg": text}, {"validate.cfg": params},
        [Command("validate", "validate", "validate.cfg")])


WORKLOADS = {"double_flow": double_flow, "triple_flow": triple_flow,
             "validate_mc": validate_mc}

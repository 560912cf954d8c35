"""Command-line behavior: files, round trips, exit codes, determinism."""

import argparse
import gc
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ramseybias
from ramseybias import McConfig, Spectrum, cli, metrics
from ramseybias.cli import (_curve_csv, _metrics_report, _quantize,
                            _quantized_spectrum, main)
from ramseybias.config import TEMPLATE, load_config
from ramseybias.spectroscopy import sweep_refined
from ramseybias.units import RAD_PER_GHZ, ghz, to_ghz
from ramseybias.validation import CheckResult, ValidationReport, run_validation
from test_golden_outputs import CONFIGS as GOLDEN_CONFIGS, GOLDEN

# small window keeps CLI runs around the peak fast while preserving
# both half-maximum crossings (cw width is 0.4 GHz)
FAST_CFG = """\
[transmon]
phi_res = 0.46
phi_disp = 0.49

[drive]
eta_ghz = 0.1

[scheme]
kind = double

[sweep]
min_ghz = 4.0
max_ghz = 5.0
step_mhz = 2.0
refine_step_mhz = 0.5

[averaging]
s = 0.68pi/3eta
r = 0.001

[mc]
n_samples = 20000
seed = 42
"""


def write_cfg(tmp_path, text=FAST_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def read_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, 0], rows[:, 1]


def test_init_writes_parseable_template(tmp_path):
    target = str(tmp_path / "new.cfg")
    assert main(["init", target]) == 0
    from ramseybias.config import load_config
    cfg = load_config(target)
    assert cfg.scheme == "double"


def test_spectrum_writes_csv_and_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    ghz_col, p_col = read_csv(os.path.join(out, "spectrum.csv"))
    assert np.all(np.diff(ghz_col) > 0)
    assert np.all((p_col >= 0) & (p_col <= 1))
    with open(os.path.join(out, "spectrum.csv")) as handle:
        assert handle.readline().strip() == "omega_ghz,p_e"
    report = read_report(os.path.join(out, "metrics.txt"))
    assert report["scheme"] == "double"
    assert float(report["fwhm_mhz"]) == pytest.approx(306.0, rel=0.05)
    assert "shift_vs_baseline_mhz" in report


def test_report_metrics_match_reread_csv(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    ghz_col, p_col = read_csv(os.path.join(out, "spectrum.csv"))
    reread = Spectrum(ghz_col * RAD_PER_GHZ, p_col, "double")
    m = metrics(reread)
    report = read_report(os.path.join(out, "metrics.txt"))
    assert f"{m.peak_omega / RAD_PER_GHZ:.9g}" == report["peak_ghz"]
    assert f"{m.peak_value:.9g}" == report["peak_value"]
    assert f"{m.fwhm / (2e6 * np.pi):.9g}" == report["fwhm_mhz"]


def test_spectrum_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["spectrum", "--config", cfg, "--out", out_a]) == 0
    assert main(["spectrum", "--config", cfg, "--out", out_b]) == 0
    for name in ("spectrum.csv", "metrics.txt"):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_baseline_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out]) == 0
    report = read_report(os.path.join(out, "baseline_metrics.txt"))
    assert report["scheme"] == "cw"
    assert float(report["fwhm_mhz"]) == pytest.approx(400.0, abs=2.0)


def test_exit_2_on_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not an ini file at all\n")
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_on_empty_window(tmp_path, capsys):
    text = FAST_CFG.replace("max_ghz = 5.0", "max_ghz = 4.0")
    assert main(["spectrum", "--config", write_cfg(tmp_path, text)]) == 2
    assert "empty grid" in capsys.readouterr().err


def test_exit_2_on_missing_averaging(tmp_path):
    text = FAST_CFG.replace("[averaging]\ns = 0.68pi/3eta\nr = 0.001\n", "")
    assert main(["spectrum", "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path)]) == 2


def test_exit_3_on_invalid_flux(tmp_path, capsys):
    text = FAST_CFG.replace("phi_disp = 0.49", "phi_disp = 0.5")
    assert main(["spectrum", "--config", write_cfg(tmp_path, text)]) == 3
    assert "domain error" in capsys.readouterr().err


def test_optimize_single_point(tmp_path):
    text = FAST_CFG + "\n[optimizer]\nk_values = 3.0\nr_values = 0.001\n"
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", write_cfg(tmp_path, text),
                 "--out", out]) == 0
    with open(os.path.join(out, "optimize_trace.csv")) as handle:
        header = handle.readline().strip()
        rows = [line.strip() for line in handle if line.strip()]
    assert header == "s_ns,r,peak_ghz,peak_value,fwhm_mhz,on_pareto"
    assert len(rows) == 1 and rows[0].endswith(",true")
    summary = read_report(os.path.join(out, "optimize_summary.txt"))
    assert summary["status"] == "ok"
    assert float(summary["best_r"]) == 0.001


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
def test_optimize_reports_the_full_window_points(tmp_path, capsys):
    # with the dispersive splitting at 3.84 GHz inside a 3.5 to 5.5 GHz
    # window, the fine grids of both k = 2.5 points reach past it, where no
    # rise bound holds
    text = (FAST_CFG.replace("phi_disp = 0.49", "phi_disp = 0.47")
            .replace("min_ghz = 4.0", "min_ghz = 3.5")
            .replace("max_ghz = 5.0", "max_ghz = 5.5")
            + "\n[optimizer]\nk_values = 2.5, 3.0\n"
            "r_values = 0.001, 0.01\np_min = 0.0\n")
    assert main(["optimize", "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "fine pass: 2 of 4 points used the full window"


def test_optimize_requires_grids(tmp_path):
    assert main(["optimize", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path)]) == 2


def test_exit_4_on_infeasible(tmp_path, capsys):
    text = (FAST_CFG + "\n[optimizer]\nk_values = 3.0\nr_values = 0.001\n"
            "p_min = 0.99\nshift_max_mhz = 5\n")
    out = str(tmp_path / "out")
    assert main(["optimize", "--config", write_cfg(tmp_path, text),
                 "--out", out]) == 4
    summary = read_report(os.path.join(out, "optimize_summary.txt"))
    assert summary["status"] == "infeasible"
    # the shift cap is given in MHz, as every other value of the file
    assert summary["reason"] == ("no grid point satisfies peak >= 0.99 and "
                                 "|shift| <= 5 MHz")
    assert "best_peak_value" in summary


_NO_PEAK_CFG = TEMPLATE.replace("k_values = 2.5, 3.0, 3.5", "s_values_ns = 0.05").replace(
    "r_values = logspace:0.0005,0.1,12", "r_values = 0.001")


@pytest.mark.parametrize("text, want", [
    (FAST_CFG + "\n[optimizer]\nk_values = 3.0\nr_values = 0.001\n"
     "p_min = 0.99\nshift_max_mhz = 5\n",
     "status = infeasible\n"
     "reason = no grid point satisfies peak >= 0.99 and |shift| <= 5 MHz\n"
     "# best-peak point for diagnosis\n"
     "best_peak_s_ns = 1.13333333\n"
     "best_peak_r = 0.001\n"
     "best_peak_value = 0.675778618\n"
     "best_peak_fwhm_mhz = 305.895838\n"),
    # no point has a peak to report, so only the status and the reason
    (_NO_PEAK_CFG,
     "status = infeasible\n"
     "reason = no grid point satisfies peak >= 0.3 and |shift| <= 5 MHz\n"),
], ids=["best-peak", "no-best-peak"])
def test_infeasible_summary_bytes(tmp_path, text, want):
    out = tmp_path / "out"
    assert main(["optimize", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 4
    assert (out / "optimize_summary.txt").read_bytes() == want.encode()


def test_validate_passes_and_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["validate", "--config", cfg, "--out", out_a]) == 0
    assert main(["validate", "--config", cfg, "--out", out_b]) == 0
    with open(os.path.join(out_a, "validation_report.txt"), "rb") as fa, \
            open(os.path.join(out_b, "validation_report.txt"), "rb") as fb:
        assert fa.read() == fb.read()


def test_validate_seed_override_changes_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["validate", "--config", cfg, "--out", out_a]) == 0
    assert main(["validate", "--config", cfg, "--out", out_b,
                 "--seed", "7"]) == 0
    with open(os.path.join(out_a, "validation_report.txt")) as fa, \
            open(os.path.join(out_b, "validation_report.txt")) as fb:
        assert fa.read() != fb.read()


@pytest.mark.parametrize("r_line, want", [("r = 0", 0.0), ("r = 0.0", 0.0),
                                          ("# r = 0.001", None)])
def test_validate_passes_the_configured_ratio(tmp_path, monkeypatch, capsys,
                                              r_line, want):
    # a configured R = 0 reaches the suite as 0; an s without its R is
    # refused before the suite runs, naming the missing key
    seen = []

    def spy(transmon, eta, mc, avg=None):
        seen.append(avg.ratio_r)
        return run_validation(transmon, eta, mc, avg)

    monkeypatch.setattr("ramseybias.cli.run_validation", spy)
    cfg = write_cfg(tmp_path, FAST_CFG.replace("r = 0.001", r_line))
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out)])
    if want is None:
        assert code == 2 and seen == []
        assert "[averaging] r: required" in capsys.readouterr().err
        return
    assert code == 0
    assert seen == [want]
    assert b"overall = pass" in (out / "validation_report.txt").read_bytes()


def test_validation_ratio_defaults_to_0_001(tmp_path):
    # without an [averaging] section the suite runs at the k = 3 seed and
    # R = 0.001, the pair FAST_CFG configures
    cfg = load_config(write_cfg(tmp_path))
    bare = load_config(write_cfg(tmp_path, FAST_CFG.replace(
        "[averaging]\ns = 0.68pi/3eta\nr = 0.001\n", ""), name="bare.cfg"))
    assert bare.avg is None and cfg.avg.ratio_r == 0.001
    mc = McConfig(2000, 3)
    default = run_validation(bare.transmon, bare.eta, mc, bare.avg)
    explicit = run_validation(cfg.transmon, cfg.eta, mc, cfg.avg)
    assert default.render() == explicit.render()


# the line sits at 0.901 GHz, so the range check's window of w_res +- 1 GHz
# would reach below zero
LOW_LINE_CFG = (FAST_CFG.replace("phi_res = 0.46", "ec_ghz = 0.1\nphi_res = 0.46")
                .replace("eta_ghz = 0.1", "eta_ghz = 0.02")
                .replace("min_ghz = 4.0", "min_ghz = 0.5")
                .replace("max_ghz = 5.0", "max_ghz = 1.3")
                .replace("n_samples = 20000", "n_samples = 2000"))


def test_validate_keeps_its_probe_frequencies_positive(tmp_path):
    cfg = write_cfg(tmp_path, LOW_LINE_CFG)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out / "validation_report.txt")
    assert report["overall"] == "pass"


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
def test_validate_passes_for_a_coupling_wider_than_half_the_line(tmp_path):
    # at 3 GHz, w_res - 2 eta lies below zero: the Monte Carlo draws are cut
    # at 5 % of the 4.51 GHz line instead
    cfg = write_cfg(tmp_path, FAST_CFG.replace("eta_ghz = 0.1", "eta_ghz = 3"))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert read_report(out / "validation_report.txt")["overall"] == "pass"


@pytest.mark.parametrize("n_samples", [1, 2, 99])
def test_validate_refuses_too_few_samples(tmp_path, capsys, n_samples):
    # a standard error from one or two samples makes the 3-sigma check fail
    # for certain; the oracle itself still takes them
    cfg = write_cfg(tmp_path, FAST_CFG.replace("n_samples = 20000",
                                               f"n_samples = {n_samples}"))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: [mc] n_samples: validate needs at least 100 samples, "
        f"got {n_samples}\n")
    assert not (out / "validation_report.txt").exists()
    assert load_config(cfg).mc.n_samples == n_samples


def test_exit_2_on_negative_seed(tmp_path, capsys):
    assert main(["validate", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "validation_report.txt"))


GRIDS = "\n[optimizer]\nk_values = 3.0\nr_values = 0.001\n"


@pytest.mark.parametrize("command, old, new, code, blamed", [
    ("optimize", "kind = double", "kind = cw", 2, "[scheme] kind:"),
    ("baseline", "step_mhz = 2.0", "cw_amplitude = 1.1\nstep_mhz = 2.0", 2,
     "[sweep] cw_amplitude:"),
    ("spectrum", "step_mhz = 2.0", "cw_amplitude = 1.1\nstep_mhz = 2.0", 2,
     "[sweep] cw_amplitude:"),
    ("optimize", "step_mhz = 2.0", "cw_amplitude = 1.1\nstep_mhz = 2.0", 2,
     "[sweep] cw_amplitude:"),
    ("optimize", "k_values = 3.0", "k_values = 1e300", 2, "[optimizer] k_values:"),
    ("validate", "k_values = 3.0", "", 2, "[optimizer] k_values:"),
    ("spectrum", "phi_disp = 0.49", "phi_disp = 0.5", 3, "domain error"),
    # an energy that overflows leaves a gap of inf - inf = nan, or of inf
    ("validate", "phi_res = 0.46", "ec_ghz = 1e300\nphi_res = 0.46", 3,
     "no valid two-level gap"),
    ("validate", "phi_res = 0.46", "ej_ratio = 1e305\nphi_res = 0.46", 3,
     "no valid two-level gap"),
    # 8 TB of Monte Carlo populations, past MAX_MC_SAMPLES
    ("validate", "n_samples = 20000", "n_samples = 1000000000000", 2,
     "[mc] n_samples:"),
    # its moment torus would hold 1.1e6 points, past MAX_GRID_POINTS
    ("spectrum", "kind = double", "kind = general:26", 2, "[scheme] kind:"),
    # the line peaks above a 100 MHz window
    ("spectrum", "max_ghz = 5.0", "max_ghz = 4.1", 3, "grid boundary"),
    ("optimize", "r_values = 0.001", "r_values = 0.001\np_min = 0.99", 4,
     "infeasible"),
    # a peak floor outside [0, 1] is refused, not searched
    ("optimize", "r_values = 0.001", "r_values = 0.001\np_min = 2", 2,
     "[optimizer] p_min:"),
    ("optimize", "r_values = 0.001", "r_values = 0.001\np_min = -0.1", 2,
     "[optimizer] p_min:"),
    # R times the dispersive phase rate overflows although R is finite
    ("spectrum", "r = 0.001\n", "r = 1e300\n", 3, "is not finite"),
    ("validate", "r = 0.001\n", "r = 1e300\n", 3, "is not finite"),
    ("optimize", "r_values = 0.001", "r_values = 1e300", 3, "is not finite"),
    # the failing point is the second: a forked worker's on two CPUs
    ("optimize", "r_values = 0.001", "r_values = 0.001, 1e300", 3,
     "R*delta_d at R = 1e+300 is not finite"),
    # an output path at or below a regular file (run.cfg) cannot be used
    ("spectrum", "out_dir = {out}", "out_dir = {out}/run.cfg/sub", 2,
     "[output] out_dir: unusable output path"),
    ("spectrum --out {out}/run.cfg/sub", "out_dir = {out}", "out_dir = {out}/sub",
     2, "--out: unusable output path"),
    ("baseline --out {out}/run.cfg", "out_dir = {out}", "out_dir = {out}/sub", 2,
     "--out: unusable output path"),
    ("spectrum", "eta_ghz = 0.1", "eta_ghz = 0", 2, "[drive] eta_ghz:"),
    # eta^2 overflows a double; the coupling is refused before any sweep
    *[(command, "eta_ghz = 0.1", "eta_ghz = 1e200", 3,
       "coupling strength eta/2pi = 1e+200 GHz is too large")
      for command in ("baseline", "spectrum", "optimize", "validate")],
    ("spectrum", "s = 0.68pi/3eta", "s = 0", 2, "[averaging] s:"),
    ("spectrum", "s = 0.68pi/3eta", "s = -1", 2, "[averaging] s:"),
    ("spectrum", "r = 0.001\n", "r = -1\n", 2, "[averaging] r:"),
    ("optimize", "r_values = 0.001", "r_values = 0.001\nshift_max_mhz = 0", 2,
     "[optimizer] shift_max_mhz:"),
    ("optimize", "r_values = 0.001", "r_values = logspace:0,0.1,12", 2,
     "[optimizer] r_values:"),
    ("optimize", "r_values = 0.001", "r_values = logspace:0.0005,0.1,0", 2,
     "[optimizer] r_values:"),
    # refused before numpy allocates 800 TB for the grid
    ("optimize", "r_values = 0.001",
     "r_values = logspace:0.0005,0.1,100000000000000", 2, "[optimizer] r_values:"),
    # each grid is small, but optimize would list 1,001,000 points first
    ("optimize", "k_values = 3.0\nr_values = 0.001",
     "k_values = logspace:2,4,1001\nr_values = logspace:0.0005,0.1,1000", 2,
     "[optimizer] r_values: 1,001,000 (s, R) points exceed the limit"),
    ("validate", "n_samples = 20000", "n_samples = lots", 2, "[mc] n_samples:"),
    # a step below twice the spacing of doubles near the window top would
    # give equal neighbours: at 4.5 GHz a 2e-13 MHz step, and near
    # 2 pi 1e22 rad/s, where doubles lie 8.4e6 rad/s apart, a 1 MHz one
    *[(command, "min_ghz = 4.0\nmax_ghz = 5.0\nstep_mhz = 2.0\nrefine_step_mhz = 0.5",
       "min_ghz = 4.5\nmax_ghz = 4.5000000001\nstep_mhz = 2e-13\n"
       "refine_step_mhz = 2e-13", 2, "[sweep] step_mhz: grid step")
      for command in ("baseline", "spectrum", "optimize")],
    ("baseline", "min_ghz = 4.0\nmax_ghz = 5.0",
     "min_ghz = 1e13\nmax_ghz = 10000000000001", 2, "[sweep] step_mhz: grid step"),
    # a refusal says what the key takes, not what float() or int() said
    *[("spectrum", old, new, 2, f"{blamed}: expected")
      for old, new, blamed in (
          ("s = 0.68pi/3eta", "s = abc", "[averaging] s"),
          ("s = 0.68pi/3eta", "s = 0.68pi/abceta", "[averaging] s"),
          ("kind = double", "kind = general:abc", "[scheme] kind"),
          ("kind = double", "kind = general:", "[scheme] kind"),
          ("kind = double", "kind = general:2.5", "[scheme] kind"))],
    # s and r come as a pair: a lone one is refused whatever the command
    *[(command, old, "", 2, blamed)
      for command in ("baseline", "spectrum", "optimize", "validate")
      for old, blamed in (("s = 0.68pi/3eta\n", "[averaging] s: required"),
                          ("r = 0.001\n", "[averaging] r: required"))],
])
def test_bad_configs_never_exit_1(tmp_path, capsys, command, old, new, code,
                                  blamed):
    # "{out}" stands for tmp_path, the configured output directory
    base = FAST_CFG + GRIDS + "\n[output]\nout_dir = {out}\n"
    text = base.replace(old, new)
    assert text != base
    cfg = write_cfg(tmp_path, text.replace("{out}", str(tmp_path)))
    argv = [arg.replace("{out}", str(tmp_path)) for arg in command.split()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--config", cfg]) == code
    assert blamed in capsys.readouterr().err
    # an overflow is refused before numpy can warn about it
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text", [
    TEMPLATE.replace("min_ghz = 3.5", "min_ghz = 4.0"),
    TEMPLATE.replace("min_ghz = 3.5", "min_ghz = 4.3"),
    # the first coarse and refine points past 4 GHz differ by 0.1 Hz
    FAST_CFG.replace("step_mhz = 2.0", "step_mhz = 0.5000001"),
], ids=["template_4.0", "template_4.3", "fast_step_0.5000001"])
@pytest.mark.parametrize("command", ["baseline", "spectrum"])
def test_narrowed_window_merges_rows_that_print_alike(tmp_path, command, text):
    # coarse and refine points closer than the 9-digit print resolution
    # print as one frequency; the CSV keeps the first, and each report is
    # the metrics of the CSVs as printed. The spectrum's report compares
    # its peak with the cw line's, so its case runs baseline first.
    cfg_path = write_cfg(tmp_path, text)
    cfg = load_config(cfg_path)
    out = tmp_path / "out"
    curves = {}
    for step, tag, csv_name, report_name in (
            ("baseline", "cw", "baseline.csv", "baseline_metrics.txt"),
            ("spectrum", cfg.scheme, "spectrum.csv", "metrics.txt")):
        assert main([step, "--config", cfg_path, "--out", str(out)]) == 0
        ghz_col, p_col = read_csv(out / csv_name)
        assert np.all(np.diff(ghz_col) > 0)
        curves[tag] = Spectrum(ghz_col * RAD_PER_GHZ, p_col, tag)
        m = metrics(curves[tag], reference=curves["cw"] if tag != "cw" else None)
        assert (out / report_name).read_text() == _metrics_report(tag, cfg, m)
        if step == command:
            break
    swept = sweep_refined("cw", cfg.transmon, cfg.eta, cfg.omega_min,
                          cfg.omega_max, cfg.coarse_step, cfg.refine_step,
                          cw_amplitude=cfg.cw_amplitude)
    assert len(curves["cw"]) < len(swept)


def test_config_with_a_byte_order_mark_runs_like_the_plain_one(tmp_path):
    outputs = []
    for name, prefix in (("plain.cfg", b""), ("bom.cfg", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + TEMPLATE.encode("utf-8"))
        out = tmp_path / f"out_{name}"
        assert main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes()
                        for f in ("baseline.csv", "baseline_metrics.txt")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["spectrum", "optimize"])
def test_a_metrics_error_names_the_curve(tmp_path, capsys, command):
    # below 4.68 GHz the double line has both crossings (305.90 MHz), but
    # the 400 MHz wide cw reference has no right one
    text = (TEMPLATE.replace("max_ghz = 5.5", "max_ghz = 4.68")
            .replace("k_values = 2.5, 3.0, 3.5", "k_values = 3.0")
            .replace("r_values = logspace:0.0005,0.1,12", "r_values = 0.001"))
    assert "max_ghz = 4.68" in text and "r_values = 0.001" in text
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert ("domain error: cw curve: no half-maximum crossing on the right side"
            in capsys.readouterr().err)
    unshifted = write_cfg(tmp_path, text.replace("baseline_shift = true",
                                                 "baseline_shift = false"), "u.cfg")
    assert main(["spectrum", "--config", unshifted, "--out", str(tmp_path)]) == 0
    assert "fwhm 305.90 MHz" in capsys.readouterr().out


@pytest.mark.parametrize("ratio, code", [("1e298", 3), ("1e297", 0)])
def test_triple_ratio_below_the_refused_one_does_not_warn(tmp_path, capsys,
                                                          ratio, code):
    # R*delta_d is finite at both: at 1e298 a moment argument overflows and
    # is refused as not finite; at 1e297 only the far tail's b^2 overflows,
    # and the tail's limit, 0, is right
    text = (TEMPLATE.replace("kind = double   ", "kind = triple   ")
            .replace("r = 0.001  ", f"r = {ratio}  "))
    assert "kind = triple" in text and f"r = {ratio}" in text
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == code
    assert ("is not finite" in capsys.readouterr().err) == (code == 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["spectrum", "optimize"])
def test_moment_overflow_names_the_ratio(tmp_path, capsys, command):
    # R*delta_d is finite at R = 1e298, but a multiple of it in a moment
    # argument of the triple sum overflows; optimize fails at its second
    # point, a forked worker's on two CPUs
    text = (TEMPLATE.replace("kind = double   ", "kind = triple   ")
            .replace("r = 0.001  ", "r = 1e298  ")
            .replace("k_values = 2.5, 3.0, 3.5 ", "k_values = 2.0 ")
            .replace("r_values = logspace:0.0005,0.1,12",
                     "r_values = 0.045, 1e298"))
    assert "k_values = 2.0 " in text and "r_values = 0.045, 1e298" in text
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "domain error: at R = 1e+298, moment argument" in err
    assert "is not finite" in err


def test_quantized_spectrum_keeps_the_first_of_rows_that_print_alike():
    omega = ghz(4.0)
    spec = Spectrum([omega, np.nextafter(omega, np.inf), ghz(4.1)],
                    [0.25, 0.5, 0.75], "cw")
    rounded, printed_ghz = _quantized_spectrum(spec)
    assert _curve_csv(printed_ghz, rounded.p_e).splitlines() == [
        "omega_ghz,p_e", "4,0.25", "4.1,0.75"]
    assert rounded.omega.tolist() == [4.0 * RAD_PER_GHZ, 4.1 * RAD_PER_GHZ]
    assert rounded.p_e.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("command, name", [
    ("spectrum", "spectrum.csv"), ("baseline", "baseline_metrics.txt")])
def test_failed_replace_leaves_no_temporary_file(tmp_path, capsys, command,
                                                 name):
    # a directory in the way of an output file: its temporary file is
    # written in full, then cannot replace it
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --out: unusable output path: " in err
    assert str(out / name) in err
    assert list(out.glob("*.tmp")) == []
    assert (out / name).is_dir()


def test_failed_write_removes_its_temporary_file(tmp_path):
    # a lone surrogate cannot be encoded, so writing the text fails
    path = tmp_path / "report.txt"
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(str(path), "ok\n\ud800\n")
    assert list(tmp_path.iterdir()) == []


def test_parser_offers_init_and_the_command_table():
    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == ["init", *cli.COMMANDS]
    # benchmark scripts pass --threads to every command
    for name in cli.COMMANDS:
        args = parser.parse_args([name, "--config", "run.cfg", "--out", "o",
                                  "--threads", "2", "--seed", "3"])
        assert (args.command, args.config, args.out, args.threads,
                args.seed) == (name, "run.cfg", "o", 2, 3)


@pytest.mark.parametrize("code", [0, 2])
def test_entry_freezes_the_heap_before_main(monkeypatch, code):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    assert calls == ["freeze", "main"]


def test_module_run_writes_the_golden_baseline(tmp_path):
    # python -m runs entry(), the one path that freezes the import heap
    cfg = write_cfg(tmp_path, TEMPLATE)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ramseybias.cli", "baseline", "--config", cfg,
         "--out", str(out)], env=_src_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {path.name: hashlib.md5(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == GOLDEN["template", "baseline"]


def test_init_into_an_unusable_path_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "x.cfg")
    assert main(["init", target]) == 2
    err = capsys.readouterr().err
    assert f"config error: init path {target}: unusable output path" in err
    assert blocker.read_text() == ""


def test_validate_passes_at_a_tiny_time_constant(tmp_path):
    # the moment check's grid is built in b = beta*s, so 1/s cannot overflow
    cfg = write_cfg(tmp_path, FAST_CFG.replace("s = 0.68pi/3eta", "s = 1e-300"))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert b"overall = pass" in (out / "validation_report.txt").read_bytes()


def test_exit_5_on_failing_validation(tmp_path, monkeypatch, capsys):
    failing = ValidationReport(1, 10, [
        CheckResult("synthetic_check", False, 1.0, 0.1, "forced failure"),
    ])
    monkeypatch.setattr("ramseybias.cli.run_validation",
                        lambda *a, **k: failing)
    assert main(["validate", "--config", write_cfg(tmp_path),
                 "--out", str(tmp_path)]) == 5
    assert "FAILED" in capsys.readouterr().err


IMPORT_PROBE = """\
import sys
import ramseybias.cli
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
assert not loaded, f'scipy loaded at import: {loaded}'
for name in ('fractions', 'decimal'):
    assert name not in sys.modules, f'{name} loaded at import'
config, out = sys.argv[1:]
for command in ('baseline', 'spectrum', 'optimize'):
    assert ramseybias.cli.main([command, '--config', config, '--out', out]) == 0
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
assert not loaded, f'scipy loaded by the commands: {loaded}'
assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded at import'
import scipy.integrate
from ramseybias import averaging
assert averaging.integrate is scipy.integrate
b = [0.0, 0.3, 1.7, 4.0]
quad = averaging.i_s(b, 1.0, method="quad")
dawson = averaging.i_s(b, 1.0)
assert max(abs(quad - dawson)) < 1e-9, (quad, dawson)
"""


def _src_env():
    src = os.path.dirname(os.path.dirname(ramseybias.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # the program needs numpy alone: neither importing the CLI nor running
    # baseline, spectrum and optimize loads any scipy module
    cfg = write_cfg(tmp_path, FAST_CFG + "\n[optimizer]\nk_values = 3.0\n"
                                         "r_values = 0.001\n")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, cfg,
                           str(tmp_path / "out")], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_export_list_resolves():
    # every exported name exists, so a star import brings in all of them
    assert len(set(ramseybias.__all__)) == len(ramseybias.__all__)
    assert all(hasattr(ramseybias, name) for name in ramseybias.__all__)
    namespace = {}
    exec("from ramseybias import *", namespace)
    assert set(ramseybias.__all__) <= set(namespace)


def test_validate_is_byte_identical_across_fresh_processes(tmp_path):
    # the report prints the oracle deviations to 12 digits, so a last-bit
    # change between processes would show
    cfg = write_cfg(tmp_path)
    for seed in ("42", "7"):
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"{seed}{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "ramseybias.cli", "validate", "--config",
                 cfg, "--out", str(out), "--seed", seed],
                env=_src_env(), capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "validation_report.txt").read_bytes())
        assert reports[0] == reports[1]
        assert b"overall = pass" in reports[0]


def test_threads_flag_matches_serial(tmp_path):
    text = FAST_CFG.replace("kind = double", "kind = triple").replace(
        "s = 0.68pi/3eta", "s = 0.68pi/2eta").replace("r = 0.001", "r = 0.045")
    cfg = write_cfg(tmp_path, text)
    out_a = str(tmp_path / "serial")
    out_b = str(tmp_path / "threaded")
    assert main(["spectrum", "--config", cfg, "--out", out_a]) == 0
    assert main(["spectrum", "--config", cfg, "--out", out_b,
                 "--threads", "4"]) == 0
    with open(os.path.join(out_a, "spectrum.csv"), "rb") as fa, \
            open(os.path.join(out_b, "spectrum.csv"), "rb") as fb:
        assert fa.read() == fb.read()


def _two_pass_csv(spec):
    # the CSV as written before each value was formatted once: round to the
    # printed digits, then format the rounded values again
    fmt = "{:.9g}".format
    ghz_vals = [float(fmt(v)) for v in to_ghz(spec.omega)]
    p_vals = [float(fmt(v)) for v in spec.p_e]
    return "omega_ghz,p_e\n" + "".join(
        f"{fmt(g)},{fmt(p)}\n" for g, p in zip(ghz_vals, p_vals))


def _template_curve(tmp_path, kind):
    """The template's config file at scheme ``kind`` and its swept curve."""
    text = TEMPLATE.replace("kind = double   ", f"kind = {kind}   ")
    if kind != "double":
        text = text.replace("s = 0.68pi/3eta ", "s = 0.68pi/2eta ").replace(
            "r = 0.001  ", "r = 0.045  ")
    cfg = write_cfg(tmp_path, text)
    run = load_config(cfg)
    return cfg, sweep_refined(kind, run.transmon, run.eta, run.omega_min,
                              run.omega_max, run.coarse_step, run.refine_step,
                              run.avg, cw_amplitude=run.cw_amplitude)


@pytest.mark.parametrize("kind", ["double", "triple", "general:4", "cw"])
def test_csv_equals_the_two_pass_formatting(tmp_path, kind):
    cfg, spec = _template_curve(tmp_path, kind)
    command, name = ("baseline", "baseline.csv") if kind == "cw" else (
        "spectrum", "spectrum.csv")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_text() == _two_pass_csv(spec)


@pytest.mark.parametrize("kind", ["double", "triple", "general:4", "cw"])
def test_template_curves_round_without_the_printer(tmp_path, monkeypatch, kind):
    # the printer is _quantize's fallback for values numpy cannot round
    # safely; the template's spectra and its cw curve (the baseline and
    # the spectrum's reference) have none
    printed = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: printed.append(v) or fmt(v))
    _quantize(np.array([0.0]))
    assert printed == [0.0]
    printed.clear()
    _quantized_spectrum(_template_curve(tmp_path, kind)[1])
    assert printed == []


def _reread(v: float) -> float:
    return float(f"{v:.9g}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(1e-4, 1e9)))
def test_quantize_equals_printing_and_rereading(v):
    q = float(_quantize(np.array([v]))[0])
    assert q.hex() == _reread(v).hex()
    assert "%.9g" % q == "%.9g" % v


PRINTED_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072009e-308,
                 -2.5, 1e9, -1e9, 123456789012.5, 1.7976931348623157e308]
printed_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(PRINTED_EDGES))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(printed_values, printed_values), max_size=40))
def test_curve_csv_equals_formatting_each_row(rows):
    ghz_col = np.array([g for g, _ in rows], dtype=float)
    p_col = np.array([p for _, p in rows], dtype=float)
    assert _curve_csv(ghz_col, p_col) == "omega_ghz,p_e\n" + "".join(
        "%.9g,%.9g\n" % pair for pair in zip(ghz_col, p_col))


def test_curve_csv_of_edge_values_and_no_rows():
    edges = np.array(PRINTED_EDGES)
    assert _curve_csv(edges, edges[::-1]).splitlines()[1:4] == [
        "0,1.79769313e+308", "-0,1.23456789e+11", "4.94065646e-324,-1e+09"]
    assert _curve_csv(np.empty(0), np.empty(0)) == "omega_ghz,p_e\n"


def test_quantize_at_ties_powers_of_ten_and_range_edges():
    powers = np.array([float(f"1e{e}") for e in range(-12, 13)])
    values = np.concatenate([
        4.0 + np.arange(2**13) / 2**13,  # exact ties such as 4.001953125
        # the doubles nearest to decimal ties, a rounding error off them
        [float(f"{lead}.{d:08d}5") for lead in (1, 4, 9)
         for d in range(0, 10**8, 99991)],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [9.999999995, 0.9999999995, 0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0),
         np.nextafter(1e-4, 1.0), 1e9, np.nextafter(1e9, 0.0), 5e-324,
         2.2250738585072009e-308, 1.5e-310, np.inf, -np.inf, np.nan],
        np.random.default_rng(7).uniform(0.0, 10.0, 10**5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rounded = _quantize(values)
    assert rounded.shape == values.shape
    for q, v in zip(rounded.tolist(), values.tolist()):
        assert q.hex() == _reread(v).hex(), v
        assert "%.9g" % q == "%.9g" % v


def test_validate_on_one_cpu_matches_every_cpu(tmp_path):
    # validate shares its Monte Carlo blocks out over every usable CPU in
    # forked workers; a process pinned to one runs them all itself
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available on this platform")
    cpu = min(os.sched_getaffinity(0))
    cfg = write_cfg(tmp_path, FAST_CFG.replace("n_samples = 20000",
                                               "n_samples = 100000"))
    reports = []
    for run, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})),
                     ("free", None)):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "ramseybias.cli", "validate", "--config",
             cfg, "--out", str(out)], preexec_fn=pin, env=_src_env(),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "validation_report.txt").read_bytes())
    assert reports[0] == reports[1]
    assert b"overall = pass" in reports[0]


def test_optimize_on_one_cpu_matches_every_cpu(tmp_path):
    # optimize shares its grid points out over every usable CPU in forked
    # workers; a process pinned to one evaluates them all itself
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available on this platform")
    cpu = min(os.sched_getaffinity(0))
    cfg = write_cfg(tmp_path, FAST_CFG + "\n[optimizer]\nk_values = 2.5, 3.0, 3.5\n"
                                         "r_values = 0.001, 0.01, 0.1\n")
    outputs = []
    for run, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})),
                     ("free", None)):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "ramseybias.cli", "optimize", "--config",
             cfg, "--out", str(out)], preexec_fn=pin, env=_src_env(),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("optimize_trace.csv", "optimize_summary.txt")])
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(b"status = ok") and b"evaluated = 9" in outputs[0][1]


@pytest.mark.parametrize("workers", [1, 2])
def test_trace_row_of_a_point_without_metrics(tmp_path, monkeypatch, workers):
    # at k = 30 the time constant is so short that the line outgrows the
    # template's window: it has no half-maximum crossing, so no metrics. On
    # two workers it is the forked child's point
    monkeypatch.setattr(ramseybias.optimizer, "_usable_cpus", lambda: workers)
    text = TEMPLATE.replace("step_mhz = 1.0", "step_mhz = 4").replace(
        "refine_step_mhz = 0.1", "refine_step_mhz = 1").replace(
        "k_values = 2.5, 3.0, 3.5", "k_values = 3, 30").replace(
        "r_values = logspace:0.0005,0.1,12", "r_values = 0.001")
    out = tmp_path / "out"
    assert main(["optimize", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    rows = (out / "optimize_trace.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1] == "1.13333333,0.001,4.50464871,0.675778618,305.896509,true"
    assert rows[2] == "0.113333333,0.001,nan,nan,nan,false"
    summary = read_report(out / "optimize_summary.txt")
    assert summary["best_s_ns"] == "1.13333333"
    assert summary["pareto_size"] == "1" and summary["evaluated"] == "2"


# a probe replaces one to three lines of PROBE_BASE with one of these
# values each, or drops the line (None)
MUTATIONS = {
    "ec_ghz": ["0.3", "0", "-1", "1e300", "nan", "abc", None],
    "ej_ratio": ["30", "0.5", "1e305", None],
    "phi_res": ["0.45", "0.5", "0.6", "-0.1", "0"],
    "phi_disp": ["0.47", "0.5", "0.46", "2"],
    "eta_ghz": ["0.01", "3", "0", "-0.1", "1e200", None],
    "kind": ["cw", "triple", "general:4", "general:26", "ramsey", None],
    "min_ghz": ["4.3", "0", "6", "-1", None],
    "max_ghz": ["4.6", "3.0", "1e309", None],
    "step_mhz": ["4", "0.5000001", "0", "1e-9", None],
    "refine_step_mhz": ["1", "0.05", "1000", "-1", None],
    "baseline_shift": ["false", "maybe", None],
    "cw_amplitude": ["1.0", "1.1", "0", None],
    "s": ["0.68pi/2eta", "1.5", "0", "-1", "1e-30", "0.68pi/0eta", None],
    "r": ["0", "0.1", "-1", "1e300", None],
    "k_values": ["2.5, 3.5", "0", "1e300", "logspace:2,4,2", None],
    "r_values": ["0", "0.001, 0.05", "logspace:0.0005,0.1,3", "logspace:0,0.1,2",
                 "1e300", None],
    "p_min": ["0.99", "2", "0", None],
    "shift_max_mhz": ["0.001", "0", "-5", None],
    "s_values_ns": ["1.0, 1.5", "-1"],
    "n_samples": ["100", "500", "1000000000000", "lots", None],
    "seed": ["7", "-1", None],
    "out_dir": ["{out}/run.cfg", "{out}/run.cfg/sub"],
}
# the template with a 1 x 2 search grid and 2,000 Monte Carlo samples, so
# that each command takes well under a second
PROBE_BASE = (TEMPLATE.replace("k_values = 2.5, 3.0, 3.5", "k_values = 3.0")
              .replace("r_values = logspace:0.0005,0.1,12", "r_values = 0.001, 0.02")
              .replace("n_samples = 1000000", "n_samples = 2000")
              .replace("out_dir = .", "out_dir = {out}/out"))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["spectrum", "baseline", "optimize", "validate"]),
       changes=st.lists(st.sampled_from(sorted(MUTATIONS)).flatmap(
           lambda key: st.tuples(st.just(key), st.sampled_from(MUTATIONS[key]))),
           min_size=1, max_size=3, unique_by=lambda change: change[0]))
def test_mutated_template_never_exits_1(command, changes):
    # the optimizer grids and the Monte Carlo sample count stay small, and
    # a numpy overflow or invalid-value warning still fails the run
    text = PROBE_BASE
    for key, value in changes:
        line = "" if value is None else f"{key} = {value}  "
        text, hits = re.subn(rf"^#? ?{key} = [^#\n]*", line, text, flags=re.M)
        assert hits == 1, key
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        cfg = os.path.join(out, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(text.replace("{out}", out))
        assert main([command, "--config", cfg]) in {0, 2, 3, 4, 5}


def _warnings_of(tmp_path, command, text):
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return [f"{os.path.basename(w.filename)}: {w.category.__name__}: {w.message}"
            for w in caught]


def test_optimize_keeps_its_warnings_and_their_order(tmp_path):
    # the golden close_splitting run: fine passes within 10 eta of the
    # dispersive splitting, each warned about from the sweep's grid
    caught = _warnings_of(tmp_path, "optimize", GOLDEN_CONFIGS["close_splitting"])
    assert (len(caught), len(set(caught))) == (72, 28)
    assert all(c.startswith("spectroscopy.py: UserWarning: ") for c in caught)
    assert (hashlib.md5("\n".join(caught).encode()).hexdigest()
            == "86fc63c09c418c88d0268d800884ec3b")


def test_validate_keeps_its_warning(tmp_path):
    assert _warnings_of(tmp_path, "validate", LOW_LINE_CFG) == [
        "validation.py: UserWarning: 80 of 380 probe frequencies within 10 eta "
        "of the dispersive-bias splitting; the far-detuning approximation "
        "assumes |detuning| >> eta"]

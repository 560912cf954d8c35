"""Configuration parsing and validation."""

import math
import re

import pytest

from ramseybias import (ConfigError, DomainError, McConfig, ObjectiveConfig,
                        seed_points)
from ramseybias.cli import main
from ramseybias.config import TEMPLATE, load_config, parse_time_constant
from ramseybias.units import RAD_PER_GHZ, ghz


@pytest.fixture
def template_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TEMPLATE)
    return str(path)


def write_cfg(tmp_path, text):
    path = tmp_path / "custom.cfg"
    path.write_text(text)
    return str(path)


MINIMAL = """\
[transmon]
phi_res = 0.46
phi_disp = 0.49

[drive]
eta_ghz = 0.1

[sweep]
min_ghz = 4.0
max_ghz = 5.0
"""


def test_template_parses(template_path):
    cfg = load_config(template_path)
    assert cfg.scheme == "double"
    assert cfg.transmon.ej_ratio == 100.0
    assert cfg.eta == pytest.approx(ghz(0.1))
    assert cfg.avg.s == pytest.approx(0.68 * math.pi / (3.0 * cfg.eta),
                                      rel=1e-12)
    assert cfg.avg.ratio_r == 0.001
    assert cfg.omega_min == pytest.approx(ghz(3.5))
    assert cfg.coarse_step == pytest.approx(ghz(0.001))
    assert cfg.refine_step == pytest.approx(ghz(0.0001))
    assert cfg.baseline_shift is True
    assert cfg.search.s_grid == tuple(seed_points(cfg.eta, [2.5, 3.0, 3.5]))
    assert len(cfg.search.r_grid) == 12
    assert cfg.search.r_grid[0] == pytest.approx(0.0005)
    assert cfg.search.r_grid[-1] == pytest.approx(0.1)
    assert cfg.objective.p_min == 0.3
    assert cfg.objective.shift_max == pytest.approx(ghz(0.005))
    assert cfg.mc == McConfig(10**6, 42)


def test_minimal_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.transmon.e_c == pytest.approx(0.5 * RAD_PER_GHZ)
    assert cfg.scheme == "double"
    assert cfg.avg is None
    assert cfg.search is None
    assert cfg.objective == ObjectiveConfig()
    assert cfg.mc == McConfig(10**6, 42)
    assert cfg.out_dir == "."


def test_time_constant_rule():
    eta = ghz(0.1)
    assert parse_time_constant("0.68pi/3eta", eta) == pytest.approx(
        0.68 * math.pi / (3 * eta), rel=1e-15)
    assert parse_time_constant("0.68pi/2.5eta", eta) == pytest.approx(
        0.68 * math.pi / (2.5 * eta), rel=1e-15)
    assert parse_time_constant("1.7", eta) == pytest.approx(1.7e-9)
    with pytest.raises(ValueError):
        parse_time_constant("0.68pi/0eta", eta)
    for text in ("fast", "0.68pi/abceta", "inf"):
        with pytest.raises(ValueError, match=rf"^expected a finite number of ns "
                                             rf"or 0\.68pi/<k>eta, got '{text}'$"):
            parse_time_constant(text, eta)


def test_missing_section(tmp_path):
    with pytest.raises(ConfigError, match=r"\[drive\]"):
        load_config(write_cfg(tmp_path, "[transmon]\nphi_res = 0.46\n"
                                        "phi_disp = 0.49\n"))


def test_missing_key_diagnostic(tmp_path):
    text = MINIMAL.replace("phi_res = 0.46\n", "")
    with pytest.raises(ConfigError, match=r"\[transmon\] phi_res"):
        load_config(write_cfg(tmp_path, text))


def test_bad_number_diagnostic(tmp_path):
    text = MINIMAL.replace("eta_ghz = 0.1", "eta_ghz = fast")
    with pytest.raises(ConfigError, match=r"\[drive\] eta_ghz"):
        load_config(write_cfg(tmp_path, text))


def test_empty_window(tmp_path):
    text = MINIMAL.replace("max_ghz = 5.0", "max_ghz = 4.0")
    with pytest.raises(ConfigError, match="empty grid"):
        load_config(write_cfg(tmp_path, text))


def test_non_positive_window_minimum(tmp_path):
    for value in ("0.0", "-0.5"):
        text = MINIMAL.replace("min_ghz = 4.0", f"min_ghz = {value}")
        with pytest.raises(ConfigError, match=r"\[sweep\] min_ghz"):
            load_config(write_cfg(tmp_path, text))


def test_invalid_flux_is_domain_error(tmp_path):
    # physics problem, not a parse problem: different exit-code class
    text = MINIMAL.replace("phi_disp = 0.49", "phi_disp = 0.5")
    with pytest.raises(DomainError):
        load_config(write_cfg(tmp_path, text))


def test_bad_scheme(tmp_path):
    text = MINIMAL + "\n[scheme]\nkind = septuple\n"
    with pytest.raises(ConfigError, match=r"\[scheme\] kind"):
        load_config(write_cfg(tmp_path, text))
    ok = load_config(write_cfg(tmp_path, MINIMAL + "\n[scheme]\nkind = general:4\n"))
    assert ok.scheme == "general:4"


@pytest.mark.parametrize("value, want", [("off", False), ("no", False),
                                         ("0", False), ("FALSE", False),
                                         ("yes", True), ("On", True)])
def test_baseline_shift_flag_words(tmp_path, value, want):
    text = MINIMAL + f"baseline_shift = {value}\n"
    assert load_config(write_cfg(tmp_path, text)).baseline_shift is want


def test_baseline_shift_refuses_other_words(tmp_path, capsys):
    text = MINIMAL + "baseline_shift = maybe\n"
    assert main(["spectrum", "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path)]) == 2
    assert "[sweep] baseline_shift: expected true/false, got 'maybe'" in (
        capsys.readouterr().err)


def test_r_values_forms(tmp_path):
    text = MINIMAL + "\n[optimizer]\nr_values = 0.001, 0.01, 0.1\nk_values = 3\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.search.r_grid == (0.001, 0.01, 0.1)
    bad = MINIMAL + "\n[optimizer]\nr_values = logspace:0.1,0.2\n"
    with pytest.raises(ConfigError, match="logspace"):
        load_config(write_cfg(tmp_path, bad))


def test_shift_cap_parse(tmp_path):
    text = MINIMAL + "\n[optimizer]\nk_values = 2\nr_values = 0.045\nshift_max_mhz = 5\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.objective.shift_max == pytest.approx(ghz(0.005))


def test_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        load_config(write_cfg(tmp_path, "this is not an ini file\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))
    # a byte that is not UTF-8
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"[transmon]\nphi_res = 0.46\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file .*utf-8"):
        load_config(str(path))
    path.write_bytes(b"\xef\xbb\xbf[transmon]\nphi_res = 0.46\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file .*utf-8"):
        load_config(str(path))


def test_negative_mc_seed_rejected(tmp_path):
    text = MINIMAL + "\n[mc]\nseed = -5\n"
    with pytest.raises(ConfigError, match=r"\[mc\] seed"):
        load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("command, section, key, value", [
    ("spectrum", "averaging", "r", "nan"),
    ("spectrum", "averaging", "s", "inf"),
    ("spectrum", "sweep", "step_mhz", "nan"),
    ("spectrum", "sweep", "cw_amplitude", "nan"),
    ("spectrum", "drive", "eta_ghz", "inf"),
    ("spectrum", "transmon", "ec_ghz", "-inf"),
    ("optimize", "optimizer", "k_values", "nan"),
    ("optimize", "optimizer", "k_values", "2.5, inf"),
    ("optimize", "optimizer", "r_values", "logspace:nan,0.1,12"),
    ("optimize", "optimizer", "r_values", "logspace:0.0005,inf,12"),
    ("optimize", "optimizer", "s_values_ns", "1.0, nan"),
    # finite values out of range; None leaves the key out, half a grid pair
    ("spectrum", "averaging", "r", "-1"),
    ("baseline", "sweep", "cw_amplitude", "1.000001"),
    ("optimize", "optimizer", "r_values", "0.001, -0.1"),
    ("optimize", "optimizer", "s_values_ns", "0"),
    ("validate", "mc", "n_samples", "0"),
    ("spectrum", "optimizer", "k_values", None),
    ("validate", "optimizer", "r_values", None),
])
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, section, key,
                                   value):
    line = "" if value is None else f"{key} = {value}"
    text, hits = re.subn(rf"^#? ?{key} = .*$", line, TEMPLATE, flags=re.M)
    assert hits == 1
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"[{section}] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, blamed", [
    ("spectrum", "eta_ghz", "1e300", "[drive] eta_ghz"),
    ("spectrum", "min_ghz", "1e308", "[sweep] min_ghz"),
    ("spectrum", "max_ghz", "1e308", "[sweep] max_ghz"),
    ("spectrum", "step_mhz", "1e308", "[sweep] step_mhz"),
    ("spectrum", "refine_step_mhz", "1e308", "[sweep] refine_step_mhz"),
    ("optimize", "shift_max_mhz", "1e308", "[optimizer] shift_max_mhz"),
    # the 0.68pi/<k>eta rule overflows instead
    ("spectrum", "eta_ghz", "1e-320", "[averaging] s"),
    ("optimize", "k_values", "1e-320", "[optimizer] k_values"),
    # and underflows to 0 where k eta overflows
    ("optimize", "k_values", "1e300", "[optimizer] k_values"),
])
def test_overflowing_numbers_exit_2(tmp_path, capsys, command, key, value,
                                    blamed):
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", TEMPLATE,
                         flags=re.M)
    assert hits == 1
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{blamed}: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("step_mhz", "1e-300", "limit of 1,000,000 points"),
    ("refine_step_mhz", "1e-300", "limit of 1,000,000 points"),
    # the template's 2 GHz window in exactly 1e6 steps: one point too many
    ("step_mhz", "0.002", "limit of 1,000,000 points"),
    ("refine_step_mhz", "0.002", "limit of 1,000,000 points"),
    ("refine_step_mhz", "0", "must be positive"),
])
def test_grid_point_ceiling_exits_2(tmp_path, capsys, key, value, message):
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", TEMPLATE,
                         flags=re.M)
    assert hits == 1
    cfg = write_cfg(tmp_path, text)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"[sweep] {key}: " in err and message in err


@pytest.mark.parametrize("command, line, typo, blamed", [
    ("spectrum", "ec_ghz = 0.5", "ec_ghs = 0.5", "[transmon] ec_ghs"),
    # the two keys of [drive] and [averaging] are required, so the typo is
    # an extra key next to them
    ("spectrum", "eta_ghz = 0.1", "eta_ghz = 0.1\neta_mhz = 100", "[drive] eta_mhz"),
    ("spectrum", "kind = double", "knid = double", "[scheme] knid"),
    ("spectrum", "step_mhz = 1.0", "step_mhs = 1.0", "[sweep] step_mhs"),
    ("spectrum", "r = 0.001", "r = 0.001\nratio_r = 0.001", "[averaging] ratio_r"),
    # unread, the cap would let the search pick a line shifted far past 5 MHz
    ("optimize", "shift_max_mhz = 5.0", "shift_max_mhs = 5.0",
     "[optimizer] shift_max_mhs"),
    ("spectrum", "seed = 42", "sead = 42", "[mc] sead"),
    ("spectrum", "out_dir = .", "outdir = .", "[output] outdir"),
    # a misspelled section name makes each of its keys unknown; unread, it
    # would run validate on the default 1e6 samples
    ("validate", "[mc]", "[montecarlo]", "[montecarlo] n_samples"),
    # configparser would copy the keys of [DEFAULT] into every section
    ("spectrum", "[transmon]", "[DEFAULT]\nseed = 42\n\n[transmon]", "[DEFAULT] seed"),
])
def test_unknown_keys_and_sections_exit_2(tmp_path, capsys, command, line, typo,
                                          blamed):
    text, hits = re.subn(rf"^{re.escape(line)}( |$)", typo + r"\1", TEMPLATE,
                         flags=re.M)
    assert hits == 1
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(blamed)}: unknown key$"):
        load_config(cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {blamed}: unknown key\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "custom.cfg"]

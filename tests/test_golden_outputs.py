"""Golden digests: every file the CLI writes, byte for byte.

Each case runs ``cli.main`` in process on the init template or a variant of
it and compares the md5 of every written file with a recorded digest. A
refactor that must keep the outputs byte-identical keeps this file passing
unchanged; a deliberate change of an output updates its digest here.
"""

import hashlib

import pytest

from ramseybias.cli import main
from ramseybias.config import TEMPLATE

# the init template's triple operating point: s = 0.68 pi / 2 eta,
# R = 0.045, no cap on the peak shift
TRIPLE = (TEMPLATE.replace("kind = double   ", "kind = triple   ")
          .replace("s = 0.68pi/3eta ", "s = 0.68pi/2eta ")
          .replace("r = 0.001  ", "r = 0.045  ")
          .replace("shift_max_mhz = 5.0", "# shift_max_mhz = 5.0"))

CONFIGS = {
    "template": TEMPLATE,
    "triple": TRIPLE,
    "general4": TRIPLE.replace("kind = triple   ", "kind = general:4   "),
    "validate": TEMPLATE.replace("n_samples = 1000000", "n_samples = 20000"),
    # several Monte Carlo slices, the last one partial, at slices of 2^15
    # and of 2^13 samples
    "validate_slices": TEMPLATE.replace("n_samples = 1000000",
                                        "n_samples = 81937"),
}

GOLDEN = {
    ("template", "baseline"): {
        "baseline.csv": "965645b0b26bb02367b5ba88311101bb",
        "baseline_metrics.txt": "01e13624f3ca5f53728dd0fe19ede38a"},
    ("template", "spectrum"): {
        "metrics.txt": "d3e18abded2e0dc00bf1d63a3d0f0e64",
        "spectrum.csv": "783529952d4a9f4ca452ceaa0adbe2a1"},
    ("template", "optimize"): {
        "optimize_summary.txt": "e0251d1b6ca74d49b8b6eebc883b7898",
        "optimize_trace.csv": "7936bf1e992da24110919068d9075884"},
    ("triple", "spectrum"): {
        "metrics.txt": "90a3f55d99a69f1addabf7964482faf5",
        "spectrum.csv": "89c9bbd03af7b2ea9b6490aea1cfec65"},
    ("triple", "optimize"): {
        "optimize_summary.txt": "c1052f290482c2a0b5a2d9dc9739720d",
        "optimize_trace.csv": "4f7d1837860c240775ffce74fd710ca9"},
    ("general4", "spectrum"): {
        "metrics.txt": "b8fac24d4e939952057b56cf7c8b609f",
        "spectrum.csv": "bd2cbf945f74e7d91cd682858ca1a594"},
    ("validate", "validate"): {
        "validation_report.txt": "0e1d6bde07cc688256ded5bb8b7ab45f"},
    ("validate_slices", "validate"): {
        "validation_report.txt": "9eb8b5c3d0d12c8d75211de5d96d2ef7"},
}


def digests(tmp_path, config, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[config])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {path.name: hashlib.md5(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def test_variants_edit_the_template():
    assert "kind = triple" in TRIPLE and "s = 0.68pi/2eta" in TRIPLE
    assert "r = 0.045" in TRIPLE and "\nshift_max_mhz" not in TRIPLE
    assert "kind = general:4" in CONFIGS["general4"]
    assert "n_samples = 20000" in CONFIGS["validate"]
    assert "n_samples = 81937" in CONFIGS["validate_slices"]


@pytest.mark.parametrize("config, command", sorted(GOLDEN))
def test_outputs_match_their_digests(tmp_path, config, command):
    assert digests(tmp_path, config, command) == GOLDEN[config, command]


def test_spectrum_without_baseline_shift(tmp_path):
    # the curve is the template's, byte for byte; the report loses only its
    # two lines about the cw reference
    unshifted = TEMPLATE.replace("baseline_shift = true ", "baseline_shift = false ")
    assert unshifted != TEMPLATE
    reports = []
    for name, text in (("shifted", TEMPLATE), ("unshifted", unshifted)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        assert (hashlib.md5((out / "spectrum.csv").read_bytes()).hexdigest()
                == GOLDEN["template", "spectrum"]["spectrum.csv"])
        reports.append((out / "metrics.txt").read_text().splitlines())
    shifted, plain = reports
    dropped = [line for line in shifted if line.startswith(
        ("baseline_peak_ghz = ", "shift_vs_baseline_mhz = "))]
    assert len(dropped) == 2
    assert plain == [line for line in shifted if line not in dropped]

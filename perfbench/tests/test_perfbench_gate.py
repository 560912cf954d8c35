"""The benchmark's correctness gate must count corrupted outputs as failures,
and its tracer must count exactly under threads."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from ramseybias import cli  # noqa: E402
from ramseybias.validation import CheckResult, ValidationReport  # noqa: E402


@pytest.fixture(scope="module")
def double_outputs(tmp_path_factory):
    """Baseline and spectrum outputs of the double_flow configuration."""
    root = tmp_path_factory.mktemp("double")
    wl = workloads.double_flow(0)
    for name, text in wl.configs.items():
        (root / name).write_text(text)
    for cmd in wl.commands[:2]:
        out = root / "rep0" / cmd.label
        out.mkdir(parents=True)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(run.cli_argv(cmd, root, out)) == 0
    return wl, root


def _texts(root: Path, label: str, names):
    return [(root / "rep0" / label / n).read_text() for n in names]


def _shift_row(csv: str, row: int, delta: float) -> str:
    lines = csv.splitlines()
    ghz, p = lines[row + 1].split(",")
    lines[row + 1] = f"{ghz},{gate.fmt(float(p) + delta)}"
    return "\n".join(lines) + "\n"


def _window(csv: str, row: int, half: int = 50) -> tuple[str, int]:
    """The CSV cut to the rows around ``row``, and the row's new index."""
    lines = csv.splitlines()
    lo = max(0, row - half)
    return "\n".join([lines[0], *lines[1 + lo:row + half + 1]]) + "\n", row - lo


def test_clean_outputs_pass(double_outputs):
    wl, root = double_outputs
    for cmd in wl.commands[:2]:
        assert run.check_outputs(cmd, wl, root, root / "rep0" / cmd.label, "s") == []


@pytest.mark.parametrize("where", [0.0, 0.37, 0.5, 0.999])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_spectrum_row_shifted_by_1e6_fails(double_outputs, where, delta):
    wl, root = double_outputs
    csv, = _texts(root, "spectrum", ["spectrum.csv"])
    part, row = _window(csv, int(where * (len(csv.splitlines()) - 2)))
    physics = gate.Physics(wl.params["double.cfg"])
    assert gate.check_curve(part, physics, 2, 0.5, "s") == []
    assert gate.check_curve(_shift_row(part, row, delta), physics, 2, 0.5, "s")


def test_baseline_row_shifted_by_1e6_fails(double_outputs):
    wl, root = double_outputs
    csv, = _texts(root, "baseline", ["baseline.csv"])
    physics = gate.Physics(wl.params["double.cfg"])
    assert gate.check_curve(_shift_row(csv, 1234, -1e-6), physics, None, 0.5, "s")


def test_probability_outside_unit_interval_fails(double_outputs):
    wl, root = double_outputs
    csv, = _texts(root, "baseline", ["baseline.csv"])
    physics = gate.Physics(wl.params["double.cfg"])
    problems = gate.check_curve(_shift_row(csv, 0, -1.0), physics, None, 0.5, "s")
    assert any("outside [0, 1]" in p for p in problems)


def test_metrics_disagreeing_with_csv_fail(double_outputs):
    _, root = double_outputs
    report, csv = _texts(root, "baseline", ["baseline_metrics.txt", "baseline.csv"])
    assert gate.check_metrics(report, csv, None) == []
    fwhm = gate.parse_kv(report)["fwhm_mhz"]
    wrong = report.replace(f"fwhm_mhz = {fwhm}",
                           f"fwhm_mhz = {gate.fmt(float(fwhm) * (1 + 1e-8))}")
    assert wrong != report
    assert gate.check_metrics(wrong, csv, None)


def test_rerun_with_different_bytes_fails(double_outputs, tmp_path):
    _, root = double_outputs
    first = root / "rep0" / "spectrum"
    for f in first.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    assert run.same_outputs(first, tmp_path) == []
    csv = (tmp_path / "spectrum.csv").read_text()
    (tmp_path / "spectrum.csv").write_text(_shift_row(csv, 10, 1e-9))
    assert run.same_outputs(first, tmp_path)


def _report(statuses):
    checks = [CheckResult(f"check_{i}", ok, 0.0, 1.0) for i, ok in enumerate(statuses)]
    return ValidationReport(7, 1000, checks).render()


def test_validation_report_with_fail_block_fails():
    good = _report([True, True, True])
    assert gate.check_validation(good) == []
    # one failing block, with the overall line left claiming a pass
    one_fail = good.replace("[check_1]\nstatus = pass", "[check_1]\nstatus = FAIL")
    assert "overall = pass" in one_fail
    assert gate.check_validation(one_fail) == ["validation check check_1 failed"]
    assert gate.check_validation(_report([True, False]))


def test_optimize_trace_checks():
    trace = ("s_ns,r,peak_ghz,peak_value,fwhm_mhz,on_pareto\n"
             "1,0.001,4.5,0.5,300,true\n1,0.002,nan,nan,nan,false\n")
    summary = "status = ok\nevaluated = 2\n"
    assert gate.check_optimize(trace, summary, 2) == []
    assert gate.check_optimize(trace.replace("0.5,300", "1.5,300"), summary, 2)
    assert gate.check_optimize(trace, summary, 3)
    assert gate.check_optimize(trace, "status = infeasible\n", 2)


def test_counts_and_span_stacks_are_per_thread_and_exact():
    tracer = tr.Tracer()
    workers, per_worker = 8, 20000
    ready = threading.Barrier(workers)

    def work():
        ready.wait(timeout=10)
        with tracer.span("outer"):
            for _ in range(per_worker):
                tracer.count("hits")
            with tracer.span("inner"):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counts["hits"] == workers * per_worker
    spans = tracer.spans
    assert sum(sp.name == "outer" for sp in spans) == workers
    for sp in spans:
        if sp.name == "outer":
            assert sp.parent is None
        else:
            parent = spans[sp.parent]
            assert parent.name == "outer" and parent.thread == sp.thread


def test_install_and_uninstall_restore_every_name():
    patches = tr.install(tr.Tracer())
    try:
        assert all(getattr(m, a) is not f for m, a, f in patches)
    finally:
        tr.uninstall(patches)
    assert all(getattr(m, a) is f for m, a, f in patches)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "double_flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_driver_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.PER_LAYER

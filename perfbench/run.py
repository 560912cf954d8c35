"""Benchmark driver: runs one workload and prints its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload double_flow --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands as real ``python -m
ramseybias.cli`` subprocesses, one at a time, and reports the end-to-end
metrics. ``--trace 1`` runs the same commands in this process through
``ramseybias.cli.main`` with the tracer installed and reports the
per-layer metrics. Both check every output; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# one BLAS thread in every process, set before numpy is imported
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150.0

# a fresh process that imports the CLI and parses a config, then stops
SETUP_CODE = ("import sys, ramseybias.cli as cli; cli.load_config(sys.argv[1]); "
              "print(cli.__file__)")

# The reference pass: a fresh interpreter that imports numpy and runs a fixed
# mix of interpreted Python, small numpy kernels and arrays of 1e6 complex
# samples, as a CLI command does.
# The shared host's speed drifts by about 20 % over minutes and the program's
# times follow it; timed between commands, this pass gives the machine's
# speed at that moment. It is the benchmark's own code and never changes.
REFERENCE_CODE = """\
import numpy as np
rng = np.random.default_rng(20040818)
total = 0
for i in range(200_000):
    total += i * i % 7
sym = rng.standard_normal((200, 200))
sym = sym + sym.T
for _ in range(20):
    np.linalg.eigvalsh(sym)
wave = np.exp(1j * rng.standard_normal(1_000_000))
print(total, (wave * wave.conj()).real.sum())
"""
# setup_s is given in seconds of a machine on which one reference pass takes
# this long (about its median on the machine of results/seed.json)
REFERENCE_S = 0.35
# after a command, reference passes are timed until they add up to this share
# of the command's time, so the passes sample each stretch of the run as
# densely as the commands' time covers it
REFERENCE_SHARE = 0.2

END_TO_END = [("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# output files of each subcommand: (curve CSV, metrics report) or others
OUTPUTS = {"baseline": ("baseline.csv", "baseline_metrics.txt"),
           "spectrum": ("spectrum.csv", "metrics.txt"),
           "optimize": ("optimize_trace.csv", "optimize_summary.txt"),
           "validate": ("validation_report.txt",)}


class Ledger:
    """Operations attempted and the problems found with each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def reference_s(run_dir: Path, at_least_s: float = 0.0) -> list[float]:
    """Wall seconds of reference passes: one, or more until at_least_s."""
    log = run_dir / "reference.log"
    times = []
    while not times or sum(times) < at_least_s:
        rc, seconds, _ = spawn([sys.executable, "-c", REFERENCE_CODE], run_dir, log)
        if rc != 0:
            raise RuntimeError(f"reference pass exit {rc}: {log.read_text()[-300:]}")
        times.append(seconds)
    return times


def cli_argv(cmd, run_dir: Path, out_dir: Path) -> list[str]:
    return [cmd.subcommand, "--config", str(run_dir / cmd.config),
            "--threads", str(cmd.threads), "--out", str(out_dir)]


def check_outputs(cmd, workload, run_dir: Path, out_dir: Path,
                  spot_seed: str) -> list[str]:
    """Content checks of one command's outputs."""
    import gate
    from ramseybias.config import load_config
    from ramseybias.spectroscopy import sweep_refined

    names = OUTPUTS[cmd.subcommand]
    missing = [n for n in names if not (out_dir / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    texts = [(out_dir / n).read_text(encoding="utf-8") for n in names]
    if cmd.subcommand == "validate":
        return gate.check_validation(texts[0])
    if cmd.subcommand == "optimize":
        return gate.check_optimize(texts[0], texts[1], cmd.expected_points)

    params = workload.params[cmd.config]
    problems = gate.check_curve(texts[0], gate.Physics(params), cmd.n_res,
                                params["cw_amplitude"], spot_seed)
    reference = None
    if cmd.subcommand == "spectrum":
        cfg = load_config(str(run_dir / cmd.config))
        reference = gate.quantized(sweep_refined(
            "cw", cfg.transmon, cfg.eta, cfg.omega_min, cfg.omega_max,
            cfg.coarse_step, cfg.refine_step, cw_amplitude=cfg.cw_amplitude))
    return problems + gate.check_metrics(texts[1], texts[0], reference)


def same_outputs(first: Path, other: Path) -> list[str]:
    """Byte-identical output files between two runs of one seed."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return [f"output files differ: {names}"]
    return [f"{n} differs from the first run" for n in names
            if (first / n).read_bytes() != (other / n).read_bytes()]


def check_runs(workload, run_dir: Path, rep_dirs: list[Path], codes: dict,
               ledger: Ledger, seed: int) -> None:
    """Exit codes, content of the first run and identity of the others."""
    for k, rep_dir in enumerate(rep_dirs):
        for cmd in workload.commands:
            out = rep_dir / cmd.label
            rc = codes[(k, cmd.label)]
            if rc != 0:
                problems = [f"exit code {rc}"]
            elif k == 0:
                problems = check_outputs(cmd, workload, run_dir, out,
                                         f"{workload.name}:{seed}:{cmd.label}")
            else:
                problems = same_outputs(rep_dirs[0] / cmd.label, out)
            ledger.record(f"{cmd.label} run {k}", problems)


def untraced(workload, run_dir: Path, seconds: float, ledger: Ledger, seed: int):
    """End-to-end metrics from real CLI subprocesses."""
    setup, rss, codes, rep_dirs, walls = [], [], {}, [], []
    times = {cmd.label: [] for cmd in workload.commands}
    config = str(run_dir / workload.commands[0].config)
    reference_s(run_dir)  # warm-up: the first start reads files from disk
    # the reference is timed before each probe and after the last
    setup_refs = reference_s(run_dir)
    for i in range(SETUP_PROBES):
        rc, sec, _ = spawn([sys.executable, "-c", SETUP_CODE, config], run_dir,
                           run_dir / f"setup{i}.log")
        log = (run_dir / f"setup{i}.log").read_text()
        problems = [] if rc == 0 and log.strip().startswith(str(SRC)) else [
            f"setup probe exit {rc}: {log.strip()[-300:]}"]
        ledger.record(f"setup probe {i}", problems)
        setup.append(sec)
        setup_refs += reference_s(run_dir)

    refs = []
    start = perf_counter()
    while True:
        k = len(rep_dirs)
        rep_dir = run_dir / f"rep{k}"
        # the reference is timed before each command and after the last
        refs += reference_s(run_dir)
        wall = 0.0
        for cmd in workload.commands:
            out = rep_dir / cmd.label
            out.mkdir(parents=True)
            rc, sec, peak = spawn([sys.executable, "-m", "ramseybias.cli",
                                   *cli_argv(cmd, run_dir, out)],
                                  run_dir, rep_dir / f"{cmd.label}.log")
            codes[(k, cmd.label)] = rc
            times[cmd.label].append(sec)
            rss.append(peak)
            wall += sec
            refs += reference_s(run_dir, REFERENCE_SHARE * sec)
        walls.append(wall)
        rep_dirs.append(rep_dir)
        # at least two runs, so every seed is checked for identical output
        if k >= 1 and perf_counter() - start + wall > seconds:
            break

    check_runs(workload, run_dir, rep_dirs, codes, ledger, seed)
    # means over the whole run weigh each stretch of machine speed alike
    # in the commands' time and in the reference's
    metrics = {"wall_ref": statistics.fmean(walls) / statistics.fmean(refs),
               "setup_s": (statistics.median(setup) / statistics.median(setup_refs)
                           * REFERENCE_S),
               "peak_rss_mb": max(rss)}
    detail = {"wall_s": statistics.median(walls),
              "setup_raw_s": statistics.median(setup),
              "reference_s": statistics.median(refs + setup_refs),
              **{f"{label}_s": statistics.median(v) for label, v in times.items()}}
    detail["runs"] = len(walls)
    samples = {"wall_s": walls, "reference_s": refs, "setup_raw_s": setup,
               "setup_reference_s": setup_refs, **{f"{k}_s": v for k, v in times.items()}}
    return metrics, detail, output_counts(workload, rep_dirs[0]), samples


def output_counts(workload, rep_dir: Path) -> dict:
    """Work done, as read from the outputs of the first run."""
    counts = {}
    for cmd in workload.commands:
        first = rep_dir / cmd.label / OUTPUTS[cmd.subcommand][0]
        if not first.is_file():
            continue
        rows = len(first.read_text().splitlines()) - 1
        if cmd.subcommand == "optimize":
            counts[f"{cmd.label}.optimizer.points"] = rows
        elif cmd.subcommand == "validate":
            import gate
            counts["validate.n_samples"] = int(
                gate.parse_kv(first.read_text()).get("n_samples", 0))
        else:
            counts[f"{cmd.label}.csv_rows"] = rows
    return counts


def in_process(workload, run_dir: Path, rep_dir: Path, k: int, codes: dict) -> float:
    from ramseybias import cli

    start = perf_counter()
    for cmd in workload.commands:
        out = rep_dir / cmd.label
        out.mkdir(parents=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[(k, cmd.label)] = cli.main(cli_argv(cmd, run_dir, out))
        except Exception as exc:  # a crash is a failed operation, not the end
            traceback.print_exc()
            codes[(k, cmd.label)] = f"exception {exc!r}"
    return perf_counter() - start


def traced(workload, run_dir: Path, seconds: float, ledger: Ledger, seed: int):
    """Per-layer metrics from the in-process run with the tracer installed.

    Untraced and traced in-process runs alternate; their median walls give
    the tracing overhead. Counts must repeat exactly across traced runs.
    """
    import tracer as tr

    codes, rep_dirs, plain, walls, tracers = {}, [], [], [], []
    start = perf_counter()
    while True:
        for is_traced in ((False, True) if len(walls) % 2 == 0 else (True, False)):
            k = len(rep_dirs)
            rep_dirs.append(run_dir / f"rep{k}")
            if not is_traced:
                plain.append(in_process(workload, run_dir, rep_dirs[-1], k, codes))
                continue
            tracers.append(tr.Tracer())
            patches = tr.install(tracers[-1])
            try:
                walls.append(in_process(workload, run_dir, rep_dirs[-1], k, codes))
            finally:
                tr.uninstall(patches)
        if perf_counter() - start + walls[-1] + plain[-1] > seconds:
            break

    check_runs(workload, run_dir, rep_dirs, codes, ledger, seed)
    for i, other in enumerate(tracers[1:], start=1):
        ledger.record(f"traced run {i} counts", [] if other.counts == tracers[0].counts
                      else ["counts differ from the first traced run"])
    metrics = tr.derive(tracers[-1])
    metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    counts = {name: metrics[name] for name in
              ("spectroscopy.sweep.points", "optimizer.points",
               "averaging.mc_oracle.samples")}
    spans = WORK / "records" / f"{workload.name}-seed{seed}-spans.json"
    spans.write_text(json.dumps(tracers[-1].dump()))
    detail = {"runs": len(walls), "traced_wall_s": statistics.median(walls),
              "untraced_in_process_wall_s": statistics.median(plain)}
    return metrics, detail, counts, {"traced_wall_s": walls, "untraced_wall_s": plain}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)

    if not (SRC / "ramseybias" / "cli.py").is_file():
        print(f"perfbench: no src/ramseybias under {ROOT}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "records").mkdir(exist_ok=True)
    for name, text in workload.configs.items():
        (run_dir / name).write_text(text, encoding="utf-8")

    ledger = Ledger()
    measure = traced if args.trace else untraced
    metrics, detail, counts, samples = measure(workload, run_dir, args.seconds,
                                               ledger, args.seed)
    if args.trace:
        import tracer
        units = dict(tracer.PER_LAYER)
    else:
        units = dict(END_TO_END)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(), "counts": counts,
              "detail": detail, "samples": samples,
              "failure_rate": ledger.failed / ledger.attempted,
              "metrics": metrics, "configs": workload.configs}
    (WORK / "records" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for name, value in {**metrics, **detail}.items():
        unit = units.get(name, "count" if name == "runs" else "s")
        print(f"{name} = {value:.6g} {unit}")
    print(f"failure_rate = {record['failure_rate']:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print("record " + json.dumps({k: record[k] for k in
                                  ("workload", "seed", "machine", "counts", "configs")}))
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

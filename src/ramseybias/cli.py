"""Command-line front end.

Subcommands: ``init`` (emit a commented default configuration),
``spectrum``/``baseline`` (sweep a scheme or the cw reference, write a CSV
curve and a key/value metrics report), ``optimize`` (grid search over the
duration parameters, write a trace CSV and summary) and ``validate`` (run
the cross-check suite).

Exit codes: 0 success, 2 configuration error or unusable output path,
3 domain error, 4 infeasible optimization, 5 validation failure. Output
files are written atomically (temporary file plus rename) and are
byte-identical for identical configuration and seed. Curves are rounded in
numpy to what printing at 9 significant digits and re-reading gives, and
reported metrics are computed on those values, so re-reading a CSV
reproduces them exactly. Where two points of a swept grid print the same
frequency, the CSV keeps the first of them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from dataclasses import replace

import numpy as np

from .config import RunConfig, TEMPLATE, checked, load_config
from .errors import ConfigError, DomainError, InfeasibleError, MetricsError
from .optimizer import optimize
from .spectroscopy import Spectrum, SpectrumMetrics, metrics, sweep_refined
from .units import RAD_PER_GHZ, to_ghz, to_mhz, to_ns
from .validation import MC_MIN_SAMPLES, run_validation


# the largest freed block that still raises glibc's mmap threshold is
# 32 MiB on 64-bit hosts; leave room for the allocator's header
_HEAP_WARMUP_BYTES = 32 * 2**20 - 2**13


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _quantize(x: np.ndarray) -> np.ndarray:
    """``float(f"{v:.9g}")`` of every value: what printing and re-reading gives.

    A value in [1e-4, 1e9) is scaled by 10^k to y in [1e8, 1e9) and its
    rounded nine-digit mantissa m divided back: m and 10^k are exact, so
    the quotient is rounded once, as the parse of the printed digits is
    (Clinger's fast path). y is off by less than 1e-7, so m is the printed
    mantissa unless y lies within 1e-6 of a half; those values, m outside
    [1e8, 1e9) and every other value go through the printer.
    """
    v = np.asarray(x, dtype=float)
    inside = (v >= 1e-4) & (v < 1e9)
    w = np.where(inside, v, 1.0)
    scale = 10 ** np.clip(8 - np.floor(np.log10(w)).astype(int), 0, 12)
    y = w * scale
    m = np.rint(y)
    out = m / scale
    fast = inside & (m >= 1e8) & (m < 1e9) & (abs(abs(y - m) - 0.5) > 1e-6)
    out[~fast] = [float(_fmt(u)) for u in v[~fast]]
    return out


def _quantized_spectrum(spec: Spectrum) -> tuple[Spectrum, np.ndarray]:
    """Spectrum rounded to printed precision, and its printed GHz column.

    Of grid points whose frequencies print alike, only the first is kept:
    rounding is monotone, so they are neighbours.
    """
    ghz = _quantize(to_ghz(spec.omega))
    keep = np.diff(ghz, prepend=-np.inf) > 0
    ghz = ghz[keep]
    return (Spectrum(ghz * RAD_PER_GHZ, _quantize(spec.p_e)[keep],
                     spec.scheme_tag), ghz)


def _curve_csv(ghz: np.ndarray, p_e: np.ndarray) -> str:
    rows = tuple(np.column_stack([ghz, p_e]).ravel().tolist())
    return "omega_ghz,p_e\n" + "%.9g,%.9g\n" * len(ghz) % rows


def _metrics_report(tag: str, cfg: RunConfig, m: SpectrumMetrics) -> str:
    lines = [f"scheme = {tag}"]
    if tag != "cw":
        lines.append(f"s_ns = {_fmt(to_ns(cfg.avg.s))}")
        lines.append(f"r = {_fmt(cfg.avg.ratio_r)}")
    lines.append(f"peak_ghz = {_fmt(to_ghz(m.peak_omega))}")
    lines.append(f"peak_value = {_fmt(m.peak_value)}")
    lines.append(f"fwhm_mhz = {_fmt(to_mhz(m.fwhm))}")
    if m.shift_vs_ref is not None:
        lines.append(f"baseline_peak_ghz = "
                     f"{_fmt(to_ghz(m.peak_omega - m.shift_vs_ref))}")
        lines.append(f"shift_vs_baseline_mhz = {_fmt(to_mhz(m.shift_vs_ref))}")
    lines.append(f"fringe_count = {len(m.fringes)}")
    for idx, (w, height) in enumerate(m.fringes, start=1):
        lines.append(f"fringe_{idx}_ghz = {_fmt(to_ghz(w))}")
        lines.append(f"fringe_{idx}_height = {_fmt(height)}")
    return "\n".join(lines) + "\n"


def _sweep_command(cfg: RunConfig, scheme: str, out_dir: str, csv_name: str,
                   report_name: str) -> int:
    if scheme != "cw" and cfg.avg is None:
        raise ConfigError("[averaging] s, r: required for schemes other than cw")
    spec = sweep_refined(scheme, cfg.transmon, cfg.eta, cfg.omega_min,
                         cfg.omega_max, cfg.coarse_step, cfg.refine_step,
                         cfg.avg, cw_amplitude=cfg.cw_amplitude)
    reference = None
    if cfg.baseline_shift and scheme != "cw":
        reference = _quantized_spectrum(sweep_refined(
            "cw", cfg.transmon, cfg.eta, cfg.omega_min, cfg.omega_max,
            cfg.coarse_step, cfg.refine_step, cw_amplitude=cfg.cw_amplitude))[0]
    spec, ghz = _quantized_spectrum(spec)
    m = metrics(spec, reference=reference)

    csv_path = os.path.join(out_dir, csv_name)
    report_path = os.path.join(out_dir, report_name)
    _atomic_write(csv_path, _curve_csv(ghz, spec.p_e))
    _atomic_write(report_path, _metrics_report(scheme, cfg, m))
    print(f"wrote {csv_path} ({len(spec)} points) and {report_path}")
    print(f"peak {to_ghz(m.peak_omega):.6f} GHz  value {m.peak_value:.4f}  "
          f"fwhm {to_mhz(m.fwhm):.2f} MHz")
    return 0


def cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    if cfg.scheme == "cw":
        raise ConfigError("[scheme] kind: cannot optimize the cw scheme")
    if cfg.search is None:
        raise ConfigError(
            "[optimizer] k_values (or s_values_ns) and r_values are required")

    trace_path = os.path.join(out_dir, "optimize_trace.csv")
    summary_path = os.path.join(out_dir, "optimize_summary.txt")

    def row(pt, on_front: bool) -> str:
        if pt.metrics is None:
            return f"{_fmt(to_ns(pt.s))},{_fmt(pt.ratio_r)},nan,nan,nan,false"
        m = pt.metrics
        return (f"{_fmt(to_ns(pt.s))},{_fmt(pt.ratio_r)},"
                f"{_fmt(to_ghz(m.peak_omega))},{_fmt(m.peak_value)},"
                f"{_fmt(to_mhz(m.fwhm))},{'true' if on_front else 'false'}")

    try:
        result = optimize(cfg.scheme, cfg.search, cfg.transmon, cfg.eta,
                          cfg.omega_min, cfg.omega_max, cfg.coarse_step,
                          cfg.refine_step, cfg.objective,
                          cw_amplitude=cfg.cw_amplitude)
    except InfeasibleError as exc:
        lines = ["status = infeasible", f"reason = {exc}"]
        pt = exc.best_peak_point
        if pt is not None:
            lines.append("# best-peak point for diagnosis")
            lines.append(f"best_peak_s_ns = {_fmt(to_ns(pt.s))}")
            lines.append(f"best_peak_r = {_fmt(pt.ratio_r)}")
            lines.append(f"best_peak_value = {_fmt(pt.metrics.peak_value)}")
            lines.append(f"best_peak_fwhm_mhz = {_fmt(to_mhz(pt.metrics.fwhm))}")
        _atomic_write(summary_path, "\n".join(lines) + "\n")
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4

    front_ids = {id(pt) for pt in result.pareto_front}
    lines = ["s_ns,r,peak_ghz,peak_value,fwhm_mhz,on_pareto"]
    lines.extend(row(pt, id(pt) in front_ids) for pt in result.trace)
    _atomic_write(trace_path, "\n".join(lines) + "\n")

    best = result.best
    summary = [
        "status = ok",
        f"scheme = {cfg.scheme}",
        f"best_s_ns = {_fmt(to_ns(best.s))}",
        f"best_r = {_fmt(best.ratio_r)}",
        f"best_peak_ghz = {_fmt(to_ghz(best.metrics.peak_omega))}",
        f"best_peak_value = {_fmt(best.metrics.peak_value)}",
        f"best_fwhm_mhz = {_fmt(to_mhz(best.metrics.fwhm))}",
        f"best_shift_vs_cw_mhz = {_fmt(to_mhz(best.metrics.shift_vs_ref))}",
        f"pareto_size = {len(result.pareto_front)}",
        f"evaluated = {len(result.trace)}",
    ]
    _atomic_write(summary_path, "\n".join(summary) + "\n")
    print(f"wrote {trace_path} and {summary_path}")
    print(f"best: s = {to_ns(best.s):.4f} ns, R = {best.ratio_r:g}, "
          f"fwhm {to_mhz(best.metrics.fwhm):.2f} MHz, "
          f"peak {best.metrics.peak_value:.4f}")
    print(f"fine pass: {sum(pt.full_window for pt in result.trace)} of "
          f"{len(result.trace)} points used the full window")
    return 0


def cmd_validate(cfg: RunConfig, out_dir: str) -> int:
    if cfg.mc.n_samples < MC_MIN_SAMPLES:
        raise ConfigError(f"[mc] n_samples: validate needs at least "
                          f"{MC_MIN_SAMPLES} samples, got {cfg.mc.n_samples}")
    report = run_validation(cfg.transmon, cfg.eta, cfg.mc, cfg.avg)
    path = os.path.join(out_dir, "validation_report.txt")
    _atomic_write(path, report.render())
    print(f"wrote {path}")
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}  "
              f"measured {check.measured:.3e}")
    if not report.all_passed:
        print("validation FAILED", file=sys.stderr)
        return 5
    print("validation passed")
    return 0


def cmd_init(path: str) -> int:
    _atomic_write(path, TEMPLATE)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseybias",
        description="Simulate and optimize Ramsey-biased transmon spectroscopy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init_p = sub.add_parser("init", help="write a commented default config")
    init_p.add_argument("path", nargs="?", default="run.cfg",
                        help="destination file (default run.cfg)")

    for name, desc in (("spectrum", "sweep the configured scheme"),
                       ("baseline", "sweep the cw reference line"),
                       ("optimize", "grid search over (s, R)"),
                       ("validate", "run the cross-check suite")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; kept so existing scripts still run")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured sampling seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # glibc's malloc serves blocks above its mmap threshold (128 KiB at
    # start) from fresh mappings and unmaps them on free, so every large
    # temporary of a command page-faults anew: about 100k faults in a
    # 256-point double optimize and 550k in validate. Freeing one mapped
    # block raises the threshold to that block's size (mallopt(3)), after
    # which temporaries reuse heap pages. np.empty touches none of its pages.
    np.empty(_HEAP_WARMUP_BYTES, dtype=np.uint8)

    try:
        if args.command == "init":
            return cmd_init(args.path)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.mc = checked("--seed", replace, cfg.mc, rng_seed=args.seed)
        out_dir = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "spectrum":
            return _sweep_command(cfg, cfg.scheme, out_dir, "spectrum.csv",
                                  "metrics.txt")
        if args.command == "baseline":
            return _sweep_command(cfg, "cw", out_dir, "baseline.csv",
                                  "baseline_metrics.txt")
        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir)
        if args.command == "validate":
            return cmd_validate(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_config reports its own OSError as a ConfigError, so this one
        # comes from creating or writing the outputs
        where = (f"init path {args.path}" if args.command == "init"
                 else "[output] out_dir" if args.out is None else "--out")
        print(f"config error: {where}: unusable output path: {exc}",
              file=sys.stderr)
        return 2
    except (DomainError, MetricsError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    # the collections at interpreter exit would sweep every object the
    # imports made, about 30 ms; frozen objects are never collected
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

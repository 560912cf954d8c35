"""In-memory spans and counters around the program's layer boundaries.

``install`` replaces module-level functions of ``ramseybias`` with timing
wrappers and returns what it replaced, so ``uninstall`` can put the
originals back. Every wrapper goes on the name the *calling* module looks
up: ``from .x import f`` binds a separate reference to ``f`` in the caller's
namespace, so patching ``x.f`` alone would miss those calls.

Counters are guarded by a lock and each thread keeps its own parent stack,
because the numeric averages may run on a thread pool. A span opened on a
pool thread has no parent.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    tag: str | None
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent) and named counts of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sp = Span(name, tag, stack[-1] if stack else None, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(sp)
        stack.append(index)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()

    def dump(self) -> dict:
        return {"counts": dict(sorted(self.counts.items())),
                "spans": [[sp.name, sp.tag, sp.start, sp.end, sp.parent, sp.thread]
                          for sp in self.spans]}


def _traced(tracer: Tracer, fn, name, counts=None, tag=None):
    """Wrap ``fn`` in a span; ``counts(args, kwargs, result)`` yields
    (counter, n) pairs recorded after a successful call."""

    def wrapper(*args, **kwargs):
        with tracer.span(name, tag(args) if tag else None):
            result = fn(*args, **kwargs)
        if counts:
            for counter, n in counts(args, kwargs, result):
                tracer.count(counter, n)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, counter: str):
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)

    return wrapper


class _IntegrateProxy:
    """``scipy.integrate`` as seen by ``averaging``, with quad_vec traced."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def quad_vec(self, f, *args, **kwargs):
        tracer = self._tracer

        def integrand(x):
            tracer.count("averaging.quad_vec.integrand_evals")
            return f(x)

        tracer.count("averaging.quad_vec.calls")
        with tracer.span("averaging.quad_vec"):
            return self._module.quad_vec(integrand, *args, **kwargs)


def _size(value) -> int:
    return int(np.size(value))


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch the layer boundaries; returns (module, name, original) triples."""
    from ramseybias import averaging, cli, optimizer, spectroscopy, validation

    patches = []

    def patch(module, attr, wrapper_of):
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    t = tracer
    patch(cli, "_quantize", lambda f: _traced(
        t, f, "cli.quantize",
        lambda a, k, r: [("cli.quantize.values", _size(r))]))
    patch(cli, "_atomic_write", lambda f: _traced(
        t, f, "cli.atomic_write",
        lambda a, k, r: [("cli.atomic_write.bytes", len(a[1].encode("utf-8")))]))
    patch(cli, "load_config", lambda f: _traced(t, f, "config.load_config"))
    patch(cli, "optimize", lambda f: _traced(
        t, f, "optimizer.optimize",
        lambda a, k, r: [("optimizer.feasible", sum(pt.feasible for pt in r.trace))]))
    patch(cli, "run_validation", lambda f: _traced(t, f, "validation.run_validation"))
    for module in (cli, optimizer):
        patch(module, "sweep_refined", lambda f: _traced(
            t, f, "spectroscopy.sweep_refined", tag=lambda a: a[0]))
    for module in (cli, optimizer, spectroscopy):
        patch(module, "metrics", lambda f: _traced(t, f, "spectroscopy.metrics"))
    patch(spectroscopy, "sweep", lambda f: _traced(
        t, f, "spectroscopy.sweep",
        lambda a, k, r: [("spectroscopy.sweep.points", len(r))], tag=lambda a: a[0]))
    patch(spectroscopy, "_grid_quantities",
          lambda f: _traced(t, f, "spectroscopy.grid_quantities"))
    patch(spectroscopy, "_pe_double_formula", lambda f: _traced(
        t, f, "averaging.double_closed",
        lambda a, k, r: [("averaging.double_closed.points", _size(a[0]))]))
    for module in (spectroscopy, averaging):
        patch(module, "_pe_grid_numeric", lambda f: _numeric(t, f))
    patch(averaging, "i_s", lambda f: _moment(t, f))
    patch(validation, "i_s", lambda f: _moment(t, f))
    patch(averaging, "integrate", lambda m: _IntegrateProxy(t, m))
    patch(averaging, "train_excitation",
          lambda f: _counted(t, f, "evolution.train_excitation.calls"))
    patch(averaging, "_triple_population",
          lambda f: _counted(t, f, "averaging.triple_population.calls"))
    patch(validation, "mc_oracle", lambda f: _traced(
        t, f, "averaging.mc_oracle",
        lambda a, k, r: [("averaging.mc_oracle.samples", a[5].n_samples)]))
    for module in (averaging, validation):
        patch(module, "compose_train", lambda f: _traced(
            t, f, "evolution.compose_train",
            lambda a, k, r: [("evolution.compose_train.samples", _size(a[3].tau))]))
    patch(validation, "regime_quantities",
          lambda f: _traced(t, f, "qubit.regime_quantities"))
    return patches


def _numeric(tracer: Tracer, fn):
    def wrapper(n_res, lam, *args, **kwargs):
        tracer.count("averaging.numeric.points", _size(lam))
        with tracer.span(f"averaging.numeric_n{n_res}"):
            return fn(n_res, lam, *args, **kwargs)

    return wrapper


def _moment(tracer: Tracer, fn):
    """Closed-form moments are counted; the quadrature oracle is timed."""

    def wrapper(beta, s, method="dawson"):
        if method == "quad":
            with tracer.span("averaging.i_s_quad"):
                return fn(beta, s, method)
        tracer.count("averaging.i_s.values", _size(beta))
        return fn(beta, s, method)

    return wrapper


def uninstall(patches) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


# per-layer metrics derived from one traced run: (name, unit)
PER_LAYER = [
    ("cli.quantize.s", "s"), ("cli.quantize.values", "count"),
    ("cli.atomic_write.s", "s"), ("cli.atomic_write.bytes", "bytes"),
    ("config.load_config.s", "s"),
    ("spectroscopy.sweep.coarse_s", "s"), ("spectroscopy.sweep.fine_s", "s"),
    ("spectroscopy.sweep.points", "count"), ("spectroscopy.grid_quantities.s", "s"),
    ("spectroscopy.metrics.s", "s"), ("spectroscopy.sweep_refined.self_s", "s"),
    ("optimizer.points", "count"), ("optimizer.feasible_ratio", "ratio"),
    ("optimizer.point_s.p50", "s"), ("optimizer.point_s.p95", "s"),
    ("optimizer.optimize.self_s", "s"),
    ("averaging.double_closed.s", "s"), ("averaging.double_closed.points", "count"),
    ("averaging.i_s.values", "count"),
    ("averaging.numeric_n3.s", "s"), ("averaging.numeric_n4.s", "s"),
    ("averaging.numeric.points", "count"), ("averaging.quad_vec.calls", "count"),
    ("averaging.quad_vec.integrand_evals", "count"),
    ("evolution.train_excitation.calls", "count"),
    ("averaging.triple_population.calls", "count"),
    ("averaging.mc_oracle.s", "s"), ("averaging.mc_oracle.samples", "count"),
    ("evolution.compose_train.s", "s"), ("evolution.compose_train.samples", "count"),
    ("averaging.i_s_quad.s", "s"), ("qubit.regime_quantities.s", "s"),
    ("validation.run_validation.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# counters reported as they are, under their own names
_COUNTS = ["cli.quantize.values", "cli.atomic_write.bytes", "spectroscopy.sweep.points",
           "averaging.double_closed.points", "averaging.i_s.values",
           "averaging.numeric.points", "averaging.quad_vec.calls",
           "averaging.quad_vec.integrand_evals", "evolution.train_excitation.calls",
           "averaging.triple_population.calls", "averaging.mc_oracle.samples",
           "evolution.compose_train.samples"]

# span totals reported as <name>.s
_TOTALS = ["cli.quantize", "cli.atomic_write", "config.load_config",
           "spectroscopy.grid_quantities", "spectroscopy.metrics",
           "averaging.double_closed", "averaging.numeric_n3", "averaging.numeric_n4",
           "averaging.mc_oracle", "evolution.compose_train", "averaging.i_s_quad",
           "qubit.regime_quantities"]


def derive(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers (all of PER_LAYER but trace.overhead_frac)."""
    spans = tracer.spans
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)

    def total(name):
        return sum(sp.seconds for sp in spans if sp.name == name)

    def self_time(name):
        return sum(sp.seconds - sum(c.seconds for c in children[i])
                   for i, sp in enumerate(spans) if sp.name == name)

    out = {f"{name}.s": total(name) for name in _TOTALS}
    out.update({name: float(tracer.counts[name]) for name in _COUNTS})

    coarse = fine = 0.0
    points = []
    for i, sp in enumerate(spans):
        if sp.name == "spectroscopy.sweep_refined":
            sweeps = [c.seconds for c in children[i] if c.name == "spectroscopy.sweep"]
            coarse += sweeps[0] if sweeps else 0.0
            fine += sum(sweeps[1:])
        elif sp.name == "optimizer.optimize":
            # a grid point is its sweep plus the metrics that follow it
            for c in children[i]:
                if c.name == "spectroscopy.sweep_refined" and c.tag != "cw":
                    points.append(c.seconds)
                elif c.name == "spectroscopy.metrics" and points:
                    points[-1] += c.seconds
    out["spectroscopy.sweep.coarse_s"] = coarse
    out["spectroscopy.sweep.fine_s"] = fine
    out["spectroscopy.sweep_refined.self_s"] = self_time("spectroscopy.sweep_refined")
    out["optimizer.points"] = float(len(points))
    out["optimizer.feasible_ratio"] = (tracer.counts["optimizer.feasible"] / len(points)
                                       if points else 0.0)
    p50, p95 = np.percentile(points, [50, 95]) if points else (0.0, 0.0)
    out["optimizer.point_s.p50"] = float(p50)
    out["optimizer.point_s.p95"] = float(p95)
    out["optimizer.optimize.self_s"] = self_time("optimizer.optimize")
    out["validation.run_validation.self_s"] = self_time("validation.run_validation")
    return out

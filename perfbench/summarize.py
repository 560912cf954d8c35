"""Summarize the run records under .perfbench/records as JSON.

Usage, from the repository root, after some runs of perfbench/run.py::

    python3 perfbench/summarize.py [--label TEXT] > summary.json

For every workload it gives each untraced metric (the end-to-end metrics
and the per-command times) over all seeds: the values by seed, the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and their
distance as a share of the median. Traced runs are listed by seed with
their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RECORDS = Path.cwd() / ".perfbench" / "records"


def spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def summarize(label: str) -> dict:
    runs = defaultdict(list)
    traced = defaultdict(dict)
    machine = None
    for path in sorted(RECORDS.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        machine = rec["machine"]
        if rec["trace"]:
            traced[rec["workload"]][rec["seed"]] = rec["metrics"]
        else:
            runs[rec["workload"]].append(rec)
    out = {"label": label, "machine": machine, "workloads": {}}
    for workload, recs in sorted(runs.items()):
        recs.sort(key=lambda r: r["seed"])
        values = defaultdict(dict)
        for rec in recs:
            for name, value in {**rec["metrics"], **rec["detail"]}.items():
                values[name][rec["seed"]] = value
            values["failure_rate"][rec["seed"]] = rec["failure_rate"]
        out["workloads"][workload] = {
            "seeds": [r["seed"] for r in recs],
            "counts_by_seed": {r["seed"]: r["counts"] for r in recs},
            "metrics": {name: {"by_seed": by_seed, **spread(list(by_seed.values()))}
                        for name, by_seed in values.items()},
            "traced": traced.get(workload, {}),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="")
    print(json.dumps(summarize(parser.parse_args().label), indent=1))


if __name__ == "__main__":
    main()

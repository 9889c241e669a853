"""Summarize the run records under .bench_run/results.

    python3 bench/summarize.py [--baseline bench/baseline.json]

For every workload, prints each end-to-end metric's median over the
``--trace 0`` records and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json, and flags a spread of
a third of the bound or more (``setup_s`` aside). Traced records give the
per-layer medians. ``--baseline`` also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import EXTRA_UNITS


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / median


def summarize(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records = [
        json.loads(p.read_text()) for p in sorted((root / ".bench_run" / "results").glob("*.json"))
    ]
    records = [r for r in records if not r["smoke"]]
    summary = {}
    for w in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == w and not r["trace"]]
        traced = [r for r in records if r["workload"] == w and r["trace"]]
        if not plain:
            continue
        entry = {
            "seeds": sorted(r["seed"] for r in plain),
            "correct": all(r["correct"] for r in plain + traced),
            "machine": plain[0]["machine"],
            "end_to_end": {},
        }
        for name in [*bounds, *EXTRA_UNITS]:
            values = [r["end_to_end"][name] for r in plain]
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds[name]["bound"] if name in bounds else None,
            }
        if traced:
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["per_layer_median"] = {
                name: statistics.median(r["per_layer"][name] for r in traced)
                for name in traced[0]["per_layer"]
            }
        summary[w] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarize benchmark records")
    parser.add_argument("--baseline", help="also write the summary to this JSON file")
    args = parser.parse_args(argv)
    root = Path.cwd()
    summary = summarize(root)
    steady = True
    for w, entry in summary.items():
        print(f"== {w}: {len(entry['seeds'])} runs, correct={entry['correct']}")
        for name, m in entry["end_to_end"].items():
            flag = ""
            if m["bound"] is not None and name != "setup_s":
                ok = m["spread"] < m["bound"] / 3
                steady &= ok
                flag = "ok" if ok else "TOO WIDE"
            print(f"  {name:14s} median {m['median']:12.6g}  spread {m['spread']:7.2%}  "
                  f"bound {m['bound']}  {flag}")
        layers = entry.get("per_layer_median", {})
        for name, value in sorted(layers.items()):
            if name.endswith(".self_s") and value > 0:
                print(f"  layer {name:48s} {value:10.4f} s")
    print(f"steady: {steady}")
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

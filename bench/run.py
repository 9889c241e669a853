"""Benchmark of the vortexcascade commands: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src/``
there and exits with code 2 when that is missing. ``--workload all`` runs
every workload in turn. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Lines before it list the machine, each item's verdict and
every metric by name and unit. Everything the run writes goes under
``.bench_run/`` in the checkout; the full record of a run is
``.bench_run/results/<workload>_seed<N>_trace<T>.json``.

Each workload runs in a fresh interpreter (``bench/worker.py``) with BLAS and
OpenMP limited to ``min(2, nproc)`` threads, one item at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# BENCHMARK.json lists the first two; pulse_train is the pulse item of
# figure3_pulse on its own, for looking at the pulses path in isolation
WORKLOADS = ("figure3_pulse", "readout_batch", "pulse_train")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
# fresh-interpreter set-up: import the package and resolve a default config
PROBE = (
    "import vortexcascade\n"
    "from vortexcascade.config import load_config\n"
    "load_config()\n"
    "print(vortexcascade.__file__)\n"
)
# printed and recorded besides the end-to-end metrics of BENCHMARK.json, but
# not bounded there: half of readout_batch's images are 256² and half 512², so
# its median item falls between the two groups and swings with single items;
# item_ms_p90 has ten samples beyond it only on readout_batch; failed_frac is
# 0 on figure3_pulse
EXTRA_UNITS = {"item_ms_p50": "ms", "item_ms_p90": "ms", "failed_frac": "fraction"}


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def check_package(root: Path, reported_file: str) -> None:
    if Path(reported_file).resolve().parent != (root / "src" / "vortexcascade").resolve():
        raise SystemExit(f"error: imported {reported_file}, not the checkout's package")


def setup_times(root: Path, env: dict, probes: int) -> list[float]:
    """Wall seconds of fresh interpreters that import and load a config.

    One untimed probe first, so every timed probe finds compiled bytecode.
    """
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=root, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        elapsed = time.perf_counter() - start
        check_package(root, proc.stdout.strip())
        if i > 0:
            times.append(elapsed)
    return times


def run_worker(root: Path, env: dict, *args: str) -> None:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=env, cwd=root, timeout=CHILD_TIMEOUT_S, check=True,
    )


def measure(root, env, workload, seed, work, seconds, traced, smoke) -> dict:
    result_file = work / f"measure_{'traced' if traced else 'plain'}.json"
    args = ["measure", workload, "--seed", str(seed), "--work", str(work),
            "--seconds", str(seconds), "--result", str(result_file)]
    run_worker(root, env, *args, *(["--trace"] if traced else []), *(["--smoke"] if smoke else []))
    result = json.loads(result_file.read_text())
    check_package(root, result["package_file"])
    return result


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(result: dict, setup: list[float]) -> dict:
    item_s = [s for p in result["passes"] for s in p]
    items = result["items"]
    failed = sum(1 for v in items if v["failed"] or not v["ok"])
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(p) for p in result["passes"]),
        "items_per_s": len(item_s) / sum(item_s),
        "item_ms_p50": 1e3 * statistics.median(item_s),
        "peak_rss_mb": result["peak_rss_mb"],
        "item_ms_p90": 1e3 * quantile(item_s, 0.9),
        "failed_frac": failed / len(items),
    }


def machine_info(root: Path, result: dict, threads: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository around the checkout
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.split()
        commit = lines[1] if len(lines) == 2 and Path(lines[0]) == root.resolve() else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **result["versions"],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
    }


def outputs(result: dict) -> list:
    return [(v.get("readings"), v.get("digests")) for v in result["items"]]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    threads = min(2, os.cpu_count() or 1)
    env = child_env(root, threads)
    work = root / ".bench_run" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = setup_times(root, env, 2 if smoke else SETUP_PROBES)
    run_worker(root, env, "prepare", workload, "--seed", str(seed), "--work", str(work),
               *(["--smoke"] if smoke else []))
    budget = seconds / 2 if trace else seconds
    plain = measure(root, env, workload, seed, work, budget, False, smoke)
    e2e = end_to_end(plain, setup)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": machine_info(root, plain, threads),
        "setup_probes_s": setup,
        "end_to_end": e2e,
        "items": plain["items"],
        "passes": plain["passes"],
        "failed_attempts": plain["failed_attempts"],
    }
    same_outputs = True
    if trace:
        traced = measure(root, env, workload, seed, work, budget, True, smoke)
        same_outputs = outputs(traced) == outputs(plain)
        per_layer = dict(traced["per_layer"])
        traced_run_s = statistics.median(sum(p) for p in traced["passes"])
        per_layer["trace.overhead_frac"] = traced_run_s / e2e["run_s"] - 1.0
        record.update(per_layer=per_layer, traced_items=traced["items"],
                      spans_file=traced["spans_file"], traced_same_outputs=same_outputs)

    gated = [v for v in plain["items"] if v["gate"]]
    record["correct"] = (
        same_outputs
        and all(v["ok"] and not v["failed"] for v in gated)
        and not any(v["failed"] for v in plain["items"])
    )
    results_dir = root / ".bench_run" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def report(record: dict, e2e_units: dict, layer_units: dict) -> None:
    """Print the machine, item verdicts and metrics of one workload."""
    w = record["workload"]
    print(f"== {w} seed={record['seed']} trace={record['trace']}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for v in record["items"]:
        if v["failed"]:
            verdict = f"FAILED ({v['error']})"
        else:
            verdict = "ok" if v["ok"] else "WRONG" + ("" if v["gate"] else " (known readout defect)")
        print(f"item {v['name']}: {verdict} readings={json.dumps(v.get('readings'))}")
    for name, unit in {**e2e_units, **EXTRA_UNITS}.items():
        if name != "item_ms_p90" or w == "readout_batch":
            print(f"metric {w} {name} = {record['end_to_end'][name]:.6g} {unit}")
    for name, unit in layer_units.items():
        print(f"layer {w} {name} = {record['per_layer'][name]:.6g} {unit}")
    print(f"correct {w} = {record['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vortexcascade benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids and a short pulse record, for testing the harness")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vortexcascade" / "__init__.py").is_file():
        print(f"error: {root} has no src/vortexcascade; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else {}
    names = layer_units if args.trace else e2e_units

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for w in workloads:
        try:
            record = run_workload(root, w, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 1
        report(record, e2e_units, layer_units)
        records.append(record)

    metrics = {}
    for record in records:
        source = record["per_layer"] if args.trace else record["end_to_end"]
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, unit in names.items():
            metrics[prefix + name] = {"value": source[name], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(len(p) for r in records for p in r["passes"]),
        "failed": sum(r["failed_attempts"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh interpreter: make its inputs, or measure it.

    python3 bench/worker.py prepare WORKLOAD --seed N --work DIR [--smoke]
    python3 bench/worker.py measure WORKLOAD --seed N --work DIR --seconds S
                            --result FILE [--trace] [--smoke]

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``. ``measure`` runs the workload's fixed items one after another
(closed loop, one item in flight) and repeats that pass while another pass
still fits in ``--seconds``; at least one pass always runs. Every item goes
through ``vortexcascade.cli.main`` and is checked against the ladder rule or
the known truth. Timing covers only the ``main`` calls; checks and hashing
are outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import vortexcascade
from vortexcascade import (
    BeamParams,
    GridSpec,
    LGModeIndex,
    SidebandLabel,
    add_intensity_noise,
    gaussian_field,
    lg_mode_field,
    sideband_charge,
    synthesize_interferogram,
)
from vortexcascade.cli import main as cli_main
from vortexcascade.config import load_config
from vortexcascade.pgmio import write_pgm16

from tracing import LAYERS, Tracer

WAVELENGTH = 800e-9
PITCH = 25e-6
FRINGES = 32  # carrier of every readout image, in fringes across the frame
# readout_batch grids: (grid_n, waist in m)
READOUT_GRIDS = ((256, 0.8e-3), (512, 1.6e-3))
READOUT_NOISE = (0.0, 0.02, 0.05)
PERIOD_TOL = 0.01  # acceptance criterion 8


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; return (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def read_csv(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


@dataclass
class Item:
    """One unit of work: CLI calls run back to back, then checked.

    ``check`` returns a dict with ``ok`` (reading right), ``readings`` and
    ``digests``; ``truth`` maps a sideband label (or None for a bare image)
    to the charge the readout should report.
    """

    name: str
    calls: list[list[str]]
    check: Callable[[str], dict]
    truth: Callable[[str | None], int] | None
    carrier_bins: tuple[float, float] | None = None  # true carrier, spectral bins
    gate: bool = True  # False only where a wrong reading is the known readout defect


# -- figure3_pulse: the Figure 3 panels ------------------------------------


def figure3_items(seed: int, work: Path, smoke: bool) -> list[Item]:
    items = []
    for m5_in in (False, True):
        sets = ["noise=0.03", f"m5_in={str(m5_in).lower()}"]
        if smoke:
            sets += ["grid_n=256", "grid_pitch_um=50"]
        raman = load_config(None, sets, seed).raman_config(default_max_as=2, default_max_s=2)
        expected = {
            str(label): sideband_charge(raman, label)
            for label in (SidebandLabel.from_ladder_index(k) for k in range(-2, 4))
        }
        out = work / "out" / f"figure3_m5_{str(m5_in).lower()}"
        argv = ["figure3", "--out", str(out), "--seed", str(seed)]
        for s in sets:
            argv += ["--set", s]

        def check(stdout, out=out, expected=expected):
            rows = read_csv(out / "readings.csv")
            readings = {r["label"]: (r["ell"], r["status"]) for r in rows}
            ok = len(rows) == len(expected) and all(
                readings.get(label) == (str(ell), "ok") for label, ell in expected.items()
            )
            digests = {p.name: sha256(p) for p in sorted(out.iterdir())}
            return {"ok": ok, "readings": readings, "digests": digests}

        items.append(
            Item(f"figure3 m5_in={str(m5_in).lower()}", [argv], check, expected.get)
        )
    return items


# -- readout_batch ---------------------------------------------------------


def readout_images(seed: int, smoke: bool) -> list[dict]:
    """The seeded image list: grid x ell x tilt sign x noise, shuffled."""
    grids = READOUT_GRIDS[:1] if smoke else READOUT_GRIDS
    ells = (-2, 0, 3) if smoke else range(-5, 6)
    noises = READOUT_NOISE[::2] if smoke else READOUT_NOISE
    images = [
        {"grid_n": n, "waist": w, "ell": ell, "sign": sign, "noise": noise}
        for n, w in grids
        for ell in ells
        for sign in (1, -1)
        for noise in noises
    ]
    order = np.random.default_rng(seed).permutation(len(images))
    return [dict(images[i], index=j) for j, i in enumerate(order)]


def prepare_readout(seed: int, work: Path, smoke: bool) -> None:
    """Write every readout image as a 16-bit PGM plus a manifest."""
    img_dir = work / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    images = readout_images(seed, smoke)
    fields = {}
    for img in images:
        n, waist, ell = img["grid_n"], img["waist"], img["ell"]
        spec = GridSpec.square(n, PITCH)
        beam = BeamParams(waist_w0=waist, wavelength=WAVELENGTH)
        if (n, ell) not in fields:
            fields[(n, ell)] = lg_mode_field(LGModeIndex(0, ell), beam, spec)
        if (n, None) not in fields:
            fields[(n, None)] = gaussian_field(beam, spec)
        tilt = img["sign"] * FRINGES * WAVELENGTH / (n * PITCH)
        gram = synthesize_interferogram(fields[(n, ell)], fields[(n, None)], tilt)
        rng = np.random.default_rng([seed, img["index"]])
        gram = add_intensity_noise(gram, img["noise"], rng)
        img["file"] = str(img_dir / f"img{img['index']:03d}.pgm")
        write_pgm16(img["file"], gram.intensity)
    (work / "manifest.json").write_text(json.dumps(images))


def readout_items(seed: int, work: Path, smoke: bool) -> list[Item]:
    images = json.loads((work / "manifest.json").read_text())
    out = work / "out" / "analyze"
    items = []
    for img in images:
        argv = ["analyze", img["file"], "--carrier-sign", str(img["sign"]), "--out", str(out)]

        def check(stdout, ell=img["ell"]):
            (row,) = read_csv(out / "analysis.csv")
            return {"ok": row["ell"] == str(ell), "readings": row["ell"], "digests": {}}

        name = (
            f"analyze {Path(img['file']).name} {img['grid_n']}^2 ell={img['ell']:+d} "
            f"sign={img['sign']:+d} noise={img['noise']}"
        )
        items.append(
            Item(
                name,
                [argv],
                check,
                lambda label, ell=img["ell"]: ell,
                carrier_bins=(img["sign"] * FRINGES, 0.0),
                gate=img["noise"] == 0.0,
            )
        )
    return items


# -- figure3_pulse and pulse_train: the pulse train ------------------------

PERIOD_RE = {
    "beat": re.compile(r"beat-note period: ([0-9.]+) fs"),
    "train": re.compile(r"comb train period: ([0-9.]+) fs"),
}


def pulse_items(seed: int, work: Path, smoke: bool) -> list[Item]:
    shift = round(float(np.random.default_rng(seed).uniform(250.0, 400.0)), 3)
    shift_set = f"raman_shift_cm1={shift}"
    pulse_sets = ["match=true", "pulse_channels=41", f"nt={16384 if smoke else 262144}", shift_set]
    cfg = load_config(None, pulse_sets, seed)
    period_fs = 2.0 * np.pi / cfg.omega_raman * 1e15
    raman = cfg.raman_config(default_max_as=20, default_max_s=20)
    out = work / "out" / "pulse"
    pulse_argv = ["pulse", "--out", str(out), "--seed", str(seed)]
    for s in pulse_sets:
        pulse_argv += ["--set", s]
    comb_argv = ["comb", "--out", str(out), "--seed", str(seed), "--set", shift_set]

    def check(stdout):
        periods = {}
        for key, pattern in PERIOD_RE.items():
            m = pattern.search(stdout)
            periods[key] = float(m.group(1)) if m else None  # None: NonPeriodicError
        ok = all(
            p is not None and abs(p - period_fs) <= PERIOD_TOL * period_fs
            for p in periods.values()
        )
        comb = read_csv(out / "comb.csv")
        ok = ok and len(comb) == 42 and all(
            int(r["ell"]) == sideband_charge(raman, SidebandLabel.parse(r["label"]))
            for r in comb
        )
        digests = {p.name: sha256(p) for p in sorted(out.iterdir())}
        return {"ok": ok, "readings": periods, "digests": digests}

    return [Item(f"pulse+comb raman_shift_cm1={shift}", [pulse_argv, comb_argv], check, None)]


def figure3_pulse_items(seed: int, work: Path, smoke: bool) -> list[Item]:
    """Both outputs of the paper: the Figure 3 panels, then one pulse train."""
    return figure3_items(seed, work, smoke) + pulse_items(seed, work, smoke)


WORKLOADS = {
    "figure3_pulse": figure3_pulse_items,
    "readout_batch": readout_items,
    "pulse_train": pulse_items,
}


# -- measurement -----------------------------------------------------------


def run_item(item: Item) -> tuple[float, dict]:
    """Run one item; return (seconds spent in the CLI, verdict)."""
    seconds = 0.0
    stdout = ""
    for argv in item.calls:
        try:
            code, text, elapsed = run_cli(argv)
        except Exception as exc:  # an item that raises is a failed item
            return seconds, {"failed": True, "ok": False, "error": repr(exc)}
        seconds += elapsed
        stdout += text
        if code != 0:
            return seconds, {"failed": True, "ok": False, "error": f"exit code {code}"}
    try:
        verdict = item.check(stdout)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
        return seconds, {"failed": True, "ok": False, "error": repr(exc)}
    verdict["failed"] = False
    return seconds, verdict


def layer_table(tracer: Tracer, items: list[Item], passes: int) -> dict:
    """Per-layer calls and self seconds per pass, plus the readout counters."""
    table = {}
    by_layer: dict[str, list] = {layer: [] for layer in LAYERS}
    for span in tracer.spans:
        by_layer[span[3]].append(span)
    for layer, spans in by_layer.items():
        table[f"{layer}.calls"] = len(spans) / passes
        table[f"{layer}.self_s"] = sum(s[6] for s in spans) / passes
    for layer in ("pgmio.write_pgm16", "pgmio.read_pgm16"):
        table[f"{layer}.bytes"] = sum(
            s[7]["bytes"] for s in by_layer[layer] if "bytes" in s[7]
        ) / passes

    reads = by_layer["interferometry.extract_charge"]
    right = [items[s[0]].truth(s[7]["label"]) == s[7]["ell"] for s in reads if "ell" in s[7]]
    table["interferometry.extract_charge.correct_frac"] = (
        sum(right) / len(reads) if reads else 0.0
    )
    detects = by_layer["interferometry.detect_carrier"]
    errors = []
    for s in detects:
        truth = items[s[0]].carrier_bins
        if s[7].get("found") and truth is not None:
            errors.append(float(np.hypot(s[7]["bins"][0] - truth[0], s[7]["bins"][1] - truth[1])))
    table["interferometry.detect_carrier.found_frac"] = (
        sum(bool(s[7].get("found")) for s in detects) / len(detects) if detects else 0.0
    )
    table["interferometry.detect_carrier.err_bins_p50"] = (
        statistics.median(errors) if errors else 0.0
    )
    return table


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": None, "version": None}


def measure(args) -> dict:
    work = Path(args.work)
    items = WORKLOADS[args.workload](args.seed, work, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    passes = []
    failed_attempts = 0
    verdicts = [None] * len(items)
    start = time.perf_counter()
    while True:
        item_s = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            seconds, verdict = run_item(item)
            item_s.append(seconds)
            failed_attempts += verdict["failed"]
            first = verdicts[i]
            if first is None:
                verdicts[i] = verdict
            elif (verdict.get("readings"), verdict.get("digests")) != (
                first.get("readings"),
                first.get("digests"),
            ):
                first.update(ok=False, failed=True, error="output differs between passes")
        passes.append(item_s)
        pass_s = sum(item_s)
        if time.perf_counter() - start + pass_s > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "package_file": vortexcascade.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
        "passes": passes,
        "failed_attempts": failed_attempts,
        "items": [
            dict(name=item.name, gate=item.gate, **verdict)
            for item, verdict in zip(items, verdicts)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = layer_table(tracer, items, len(passes))
        spans_file = Path(args.result).with_suffix(".spans.jsonl")
        with spans_file.open("w") as fh:
            for item, span_id, parent, layer, t0, t1, self_s, extra in tracer.spans:
                fh.write(json.dumps({
                    "item": item, "id": span_id, "parent": parent, "name": layer,
                    "start": t0, "end": t1, "self_s": self_s, "attrs": extra,
                }) + "\n")
        result["spans_file"] = str(spans_file)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        if args.workload == "readout_batch":
            prepare_readout(args.seed, Path(args.work), args.smoke)
        return 0
    Path(args.result).write_text(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

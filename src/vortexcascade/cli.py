"""Command-line entry point: comb, figure3, pulse, analyze.

Outputs are deterministic: identical config and seed give byte-identical
CSV and PGM files. CSV is RFC-4180 style with a header row, '.' decimal
separator, and LF line endings. The pulse time series beat.csv and
waveform.csv have the header t_seconds,intensity and write both values as
%.9e, byte for byte what f"{v:.9e}" gives. Exit codes: 0 success, 1 runtime
failure, 2 configuration/validation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cascade import SidebandLabel, build_comb, uniform_amplitudes
from .config import RunConfig, load_config
from .errors import ConfigError, NonPeriodicError, VortexCascadeError
from .grids import GridSpec
from .interferometry import (
    Interferogram,
    PanelGeometry,
    analyze_order_panel,
    extract_charge,
)
from .pgmio import read_pgm16, write_pgm16
from .pulses import (
    TimeGrid,
    beat_frequency,
    chirped_pair_field,
    synthesize_waveform,
    train_period,
)
from .units import frequency_thz_from_omega


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _put_e9(x: np.ndarray, field: np.ndarray) -> None:
    """Write each value's f"{v:.9e}" text into its row of the uint8 `field`.

    A row has the 17 slots of the widest text, -d.ddddddddde-ddd; a slot a
    value does not use (the sign of a positive value, the hundreds digit of
    a 2-digit exponent, the tail of nan or inf) is left 0, so dropping the
    zeros gives format's text. The digits are the integer mantissa
    m = rint(|x|*10^(9-e)) with e = floor(log10|x|), both corrected to put
    m in [1e9, 1e10). The product is a few ulp off the exact one, which
    only matters where its fraction lies near .5: those few values take
    their digits from format() itself, which rounds half to even on the
    exact binary value.
    """
    a = np.abs(x)
    nonzero = np.isfinite(a) & (a > 0)
    a = np.where(nonzero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)

    def scaled(e):
        k = 9 - e
        k1 = np.minimum(k, 300)  # 10^k overflows for k > 308; subnormals reach k = 333
        return a * 10.0**k1 * 10.0 ** (k - k1)

    s = scaled(e)
    e += s >= 1e10
    e -= s < 1e9
    s = scaled(e)
    m = np.rint(s).astype(np.int64)
    carry = m == 10**10
    m[carry] = 10**9
    e[carry] += 1
    for i in np.flatnonzero(nonzero & (np.abs(s - np.floor(s) - 0.5) < 1e-4)):
        text = format(a[i], ".9e")
        m[i], e[i] = int(text[0] + text[2:11]), int(text[12:])
    m[~nonzero] = 0  # their stand-in |x| = 1 already gave e = 0

    field[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), ord("-"), 0)
    hi, lo = (part.astype(np.int32) for part in np.divmod(m, 10**5))  # int32 divides ~2x faster
    for part, slots in ((hi, (1, 3, 4, 5, 6)), (lo, (7, 8, 9, 10, 11))):
        for j, slot in enumerate(slots):
            field[:, slot] = part // 10 ** (4 - j) % 10 + ord("0")
    field[:, 2] = ord(".")
    field[:, 12] = ord("e")
    field[:, 13] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    field[:, 14] = np.where(e >= 100, e // 100 + ord("0"), 0)
    field[:, 15] = e // 10 % 10 + ord("0")
    field[:, 16] = e % 10 + ord("0")
    for word, where in ((b"nan", np.isnan(x)), (b"inf", np.isinf(x))):
        field[where, 1:] = 0
        field[where, 1:4] = np.frombuffer(word, np.uint8)


def _float_csv_bytes(header: list[str], *columns: np.ndarray) -> bytes:
    """The bytes `_write_csv` writes for these float columns at %.9e, built whole-array."""
    n = len(columns[0])
    buf = np.zeros((n, 18 * len(columns)), np.uint8)
    for c, col in enumerate(columns):
        _put_e9(np.asarray(col, dtype=np.float64), buf[:, 18 * c : 18 * c + 17])
        buf[:, 18 * c + 17] = ord(",")
    buf[:, -1] = ord("\n")
    return (",".join(header) + "\n").encode("ascii") + buf[buf != 0].tobytes()


def cmd_comb(cfg: RunConfig, outdir: Path) -> int:
    raman = cfg.raman_config(default_max_as=20, default_max_s=20)
    comb = build_comb(raman)
    rows = []
    for ch in comb:
        rows.append(
            [
                str(ch.label),
                str(ch.k),
                f"{ch.wavelength * 1e9:.4f}",
                f"{frequency_thz_from_omega(ch.omega):.6f}",
                str(ch.ell),
            ]
        )
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "comb.csv", ["label", "k", "wavelength_nm", "frequency_THz", "ell"], rows)
    print(f"wrote {outdir / 'comb.csv'} with {len(rows)} channels")
    return 0


def cmd_figure3(cfg: RunConfig, outdir: Path) -> int:
    raman = cfg.raman_config(default_max_as=2, default_max_s=2)
    geometry = PanelGeometry(
        spec=cfg.grid_spec(),
        waist=cfg.waist,
        fringes=cfg.fringes,
        offset_y=cfg.offset_y,
        noise_fraction=cfg.noise,
        seed=cfg.seed,
    )
    orders = [SidebandLabel.from_ladder_index(k) for k in range(-raman.max_s, raman.max_as + 2)]
    results = analyze_order_panel(raman, geometry, orders)

    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    any_ok = False
    for res in results:
        if res.ok:
            any_ok = True
            write_pgm16(outdir / f"beam_{res.label}.pgm", res.beam_intensity)
            write_pgm16(outdir / f"fork_{res.label}.pgm", res.fork_intensity)
            rows.append(
                [
                    str(res.label),
                    str(res.label.k),
                    str(res.reading.ell),
                    f"{res.reading.confidence:.4f}",
                    res.reading.method,
                    "ok",
                ]
            )
        else:
            rows.append([str(res.label), str(res.label.k), "", "", "", res.status])
    _write_csv(
        outdir / "readings.csv",
        ["label", "k", "ell", "confidence", "method", "status"],
        rows,
    )
    for res in reversed(results):  # anti-Stokes first, like the sideband fan
        tag = f"ell={res.reading.ell:+d}" if res.ok else res.status
        print(f"{str(res.label):>5}: {tag}")
    print(f"wrote {outdir / 'readings.csv'}")
    return 0 if any_ok else 1


def cmd_pulse(cfg: RunConfig, outdir: Path) -> int:
    raman_period = 2.0 * np.pi / cfg.omega_raman

    pair = cfg.chirped_pair()
    # grow the record until it spans both pulses with margin
    nt, dt = cfg.nt, cfg.dt
    while nt * dt < 1.2 * (4.0 * pair.tau + pair.t_d):
        nt *= 2
    beat_grid = TimeGrid(nt, dt, -(nt // 2) * dt + pair.t_d / 2.0)
    beat_intensity = np.abs(chirped_pair_field(pair, beat_grid)) ** 2

    raman = cfg.raman_config(default_max_as=20, default_max_s=20)
    n = cfg.pulse_channels
    comb = build_comb(raman, uniform_amplitudes, range(-(n // 2), n - n // 2))
    wave_grid = cfg.time_grid()
    waveform = synthesize_waveform(comb, wave_grid)

    outdir.mkdir(parents=True, exist_ok=True)
    header = ["t_seconds", "intensity"]
    (outdir / "beat.csv").write_bytes(_float_csv_bytes(header, beat_grid.times, beat_intensity))
    (outdir / "waveform.csv").write_bytes(_float_csv_bytes(header, wave_grid.times, waveform))

    print(f"target Raman period: {raman_period * 1e15:.3f} fs")
    try:
        beat = beat_frequency(pair)
        beat_period = 2.0 * np.pi / beat if beat > 0 else None
        measured_beat = train_period(beat_intensity, dt)
        err = abs(measured_beat - raman_period) / raman_period
        print(
            f"beat-note period: {measured_beat * 1e15:.3f} fs "
            f"(relative error vs Raman: {err:.2%})"
        )
        if beat_period is not None:
            print(f"b*t_d implies {beat_period * 1e15:.3f} fs")
    except NonPeriodicError:
        print("beat-note: no periodic structure detected")
    try:
        measured_train = train_period(waveform, cfg.dt)
        err = abs(measured_train - raman_period) / raman_period
        print(
            f"comb train period: {measured_train * 1e15:.3f} fs "
            f"(relative error vs Raman: {err:.2%})"
        )
    except NonPeriodicError:
        print("comb train: no periodic structure detected")
    print(f"wrote {outdir / 'beat.csv'} and {outdir / 'waveform.csv'}")
    return 0


def cmd_analyze(image_path: str, carrier_sign: int, outdir: Path) -> int:
    path = Path(image_path)
    if not path.is_file():
        raise ConfigError(f"image not found: {path}")
    try:
        intensity = read_pgm16(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ny, nx = intensity.shape
    try:
        spec = GridSpec(nx=nx, ny=ny, dx=1.0, dy=1.0)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    gram = Interferogram(
        spec=spec,
        intensity=intensity,
        carrier=(0.0, 0.0),
        wavelength=1.0,
    )
    reading = extract_charge(gram, sign_hint=carrier_sign)
    print(f"ell={reading.ell:+d} confidence={reading.confidence:.4f} method={reading.method}")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "analysis.csv",
        ["image", "ell", "confidence", "method"],
        [[path.name, str(reading.ell), f"{reading.confidence:.4f}", reading.method]],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexcascade",
        description="Vortex-beam Raman sideband simulator and interferogram analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    add_common(sub.add_parser("comb", help="write the sideband ladder to comb.csv"))
    add_common(sub.add_parser("figure3", help="render sideband and fork images, read charges"))
    add_common(sub.add_parser("pulse", help="chirped-pair beat and comb waveform synthesis"))

    pa = sub.add_parser("analyze", help="read the charge from an interferogram image")
    pa.add_argument("image", help="P5 PGM interferogram")
    pa.add_argument(
        "--carrier-sign",
        type=int,
        choices=(1, -1),
        default=1,
        help="sign of the angle between the interfering beams (default +1)",
    )
    pa.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outdir = Path(args.out)
        if args.command == "analyze":
            return cmd_analyze(args.image, args.carrier_sign, outdir)
        cfg = load_config(args.config, args.set, args.seed)
        if args.command == "comb":
            return cmd_comb(cfg, outdir)
        if args.command == "figure3":
            return cmd_figure3(cfg, outdir)
        if args.command == "pulse":
            return cmd_pulse(cfg, outdir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VortexCascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cascade import SidebandLabel, build_comb
from .config import RunConfig, load_config
from .errors import AliasingError, ConfigError, NegativeFrequencyError, NonPeriodicError
from .errors import VortexCascadeError
from .grids import GridSpec
from .interferometry import (
    Interferogram,
    OrderResult,
    PanelGeometry,
    analyze_order_panel,
    extract_charge,
)
from .pgmio import read_pgm16, write_pgm16
from .pulses import (
    beat_frequency,
    chirped_pair_field,
    synthesize_waveform,
    train_period,
)
from .units import frequency_thz_from_omega


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


# 10^k for k in [-300, 300], indexed by k + 300: the values 10.0**k gives
_POW10 = 10.0 ** np.arange(-300, 301)
# the four ASCII digits of 0..9999, each as one native-order uint32
_DIGITS4 = (
    (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
# the exponent text e+dd or e-ddd of e in [-325, 309], zero-padded to 8 bytes,
# indexed by e + 325
_EXP_TEXT = np.array([b"e%+03d" % e for e in range(-325, 310)], dtype="S8").view(np.uint64)
# slots of one value's text: sign, d, ., 9 digits, and the 8 of the exponent
_E9_WIDTH = 20


def _put_e9(x: np.ndarray, field: np.ndarray) -> None:
    """Write each value's f"{v:.9e}" text into its row of the uint8 `field`.

    A row has _E9_WIDTH slots: the sign, the ten mantissa digits around the
    point, and eight for the exponent's text. A slot a value does not use (the
    sign of a positive value, the zero padding after an exponent, the tail of
    nan or inf) is left 0, so dropping the zeros gives format's text. The
    digits are the integer mantissa m = rint(|x|*10^(9-e)) with
    e = floor(log10|x|), both corrected to put m in [1e9, 1e10); they are
    written as one digit, two 4-digit table entries and one digit. The
    product is a few ulp off the exact one, which only matters where its
    fraction lies near .5: those few values take their digits from format()
    itself, which rounds half to even on the exact binary value.
    """
    a = np.abs(x)
    nonzero = np.isfinite(a) & (a > 0)
    a = np.where(nonzero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)

    def scaled(e):
        k = 9 - e
        k1 = np.minimum(k, 300)  # 10^k overflows for k > 308; subnormals reach k = 333
        s = a * _POW10[k1 + 300]
        s *= _POW10[k - k1 + 300]
        return s

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
    first, hi = np.divmod(hi, 10**4)
    lo, last = np.divmod(lo, 10)
    field[:, 1] = first + ord("0")
    field[:, 2] = ord(".")
    field[:, 3:7].view(np.uint32)[:, 0] = _DIGITS4[hi]
    field[:, 7:11].view(np.uint32)[:, 0] = _DIGITS4[lo]
    field[:, 11] = last + ord("0")
    field[:, 12:20].view(np.uint64)[:, 0] = _EXP_TEXT[e + 325]
    for word, where in ((b"nan", np.isnan(x)), (b"inf", np.isinf(x))):
        field[where, 1:] = 0
        field[where, 1:4] = np.frombuffer(word, np.uint8)


def _float_csv_blocks(header: list[str], *columns: np.ndarray):
    """The bytes `_write_csv` writes for these float columns at %.9e: the header line,
    then blocks of 2**14 rows built whole-array, so a long record's text is never held whole."""
    yield (",".join(header) + "\n").encode("ascii")
    w = _E9_WIDTH + 1
    for i in range(0, len(columns[0]), 2**14):
        block = [np.asarray(col[i : i + 2**14], dtype=np.float64) for col in columns]
        buf = np.zeros((len(block[0]), w * len(block)), np.uint8)
        for c, col in enumerate(block):
            _put_e9(col, buf[:, w * c : w * c + _E9_WIDTH])
            buf[:, w * c + _E9_WIDTH] = ord(",")
        buf[:, -1] = ord("\n")
        yield buf[buf != 0]


def cmd_comb(cfg: RunConfig, outdir: Path) -> int:
    raman = cfg.raman_config(default_max_as=20, default_max_s=20)
    comb = build_comb(raman)
    rows = []
    for ch in comb:
        rows.append(
            [
                str(ch.label),
                str(ch.label.k),
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

    def write_images(res: OrderResult) -> OrderResult:
        # each order's images go to disk as soon as it is read, so the panel
        # never holds more than one order's arrays; the directory is made by
        # the first order, so a panel that fails before any order leaves none
        outdir.mkdir(parents=True, exist_ok=True)
        if res.ok:
            write_pgm16(outdir / f"beam_{res.label}.pgm", res.beam_intensity)
            write_pgm16(outdir / f"fork_{res.label}.pgm", res.fork_intensity)
        return replace(res, beam_intensity=None, fork_intensity=None)

    results = analyze_order_panel(raman, geometry, orders, sink=write_images)
    rows = []
    any_ok = False
    for res in results:
        if res.ok:
            any_ok = True
            rows.append(
                [
                    str(res.label),
                    str(res.label.k),
                    str(res.reading.ell),
                    f"{res.reading.confidence:.4f}",
                    "circulation",
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


def _print_period(name: str, series: np.ndarray, dt: float, raman_period: float) -> bool:
    """Print a series' train period and its error vs the Raman period; True when found."""
    try:
        measured = train_period(series, dt)
    except NonPeriodicError:
        print(f"{name}: no periodic structure detected")
        return False
    err = abs(measured - raman_period) / raman_period
    print(f"{name} period: {measured * 1e15:.3f} fs (relative error vs Raman: {err:.2%})")
    return True


def cmd_pulse(cfg: RunConfig, outdir: Path) -> int:
    ks = cfg.pulse_ks()  # refused before the beat field is computed
    raman_period = 2.0 * np.pi / cfg.omega_raman

    pair = cfg.chirped_pair()
    beat_grid = cfg.beat_grid(pair)
    beat_intensity = np.abs(chirped_pair_field(pair, beat_grid)) ** 2

    raman = cfg.raman_config(default_max_as=20, default_max_s=20)
    comb = build_comb(raman, ks)
    wave_grid = cfg.time_grid()
    waveform = synthesize_waveform(comb, wave_grid)

    outdir.mkdir(parents=True, exist_ok=True)
    header = ["t_seconds", "intensity"]
    with open(outdir / "beat.csv", "wb") as fh:
        fh.writelines(_float_csv_blocks(header, beat_grid.times, beat_intensity))
    with open(outdir / "waveform.csv", "wb") as fh:
        fh.writelines(_float_csv_blocks(header, wave_grid.times, waveform))

    print(f"target Raman period: {raman_period * 1e15:.3f} fs")
    beat = beat_frequency(pair)
    if _print_period("beat-note", beat_intensity, beat_grid.dt, raman_period) and beat > 0:
        print(f"b*t_d implies {2.0 * np.pi / beat * 1e15:.3f} fs")
    _print_period("comb train", waveform, cfg.dt, raman_period)
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
        adopt=True,  # read_pgm16's fresh array, held nowhere else
    )
    reading = extract_charge(gram, sign_hint=carrier_sign)
    print(f"ell={reading.ell:+d} confidence={reading.confidence:.4f} method=circulation")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "analysis.csv",
        ["image", "ell", "confidence", "method"],
        [[path.name, str(reading.ell), f"{reading.confidence:.4f}", "circulation"]],
    )
    return 0


# subcommand -> its line in the top-level help
COMMANDS = {
    "comb": "write the sideband ladder to comb.csv",
    "figure3": "render sideband and fork images, read charges",
    "pulse": "chirped-pair beat and comb waveform synthesis",
    "analyze": "read the charge from an interferogram image",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only `command`.

    A parser built for one command parses, helps and fails on that command
    as the full one does; its metavar keeps every command in the usage line.
    """
    parser = argparse.ArgumentParser(
        prog="vortexcascade",
        description="Vortex-beam Raman sideband simulator and interferogram analyzer",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        p = sub.add_parser(name, help=COMMANDS[name])
        if name == "analyze":
            p.add_argument("image", help="P5 PGM interferogram")
            p.add_argument(
                "--carrier-sign",
                type=int,
                choices=(1, -1),
                default=1,
                help="sign of the angle between the interfering beams (default +1)",
            )
            p.add_argument("--out", default="out", help="output directory (default: out)")
        else:
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
    return parser


def _check_out(outdir: Path) -> None:
    """Refuse an --out that is, or lies under, something other than a directory."""
    for path in (outdir, *outdir.parents):
        if path.is_dir():
            return
        if path.exists():
            raise ConfigError(f"--out {outdir}: {path} exists and is not a directory")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command named first is the only subcommand the parser needs; anything
    # else (help, a typo, nothing) gets every subcommand for its message
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        outdir = Path(args.out)
        _check_out(outdir)
        if args.command == "analyze":
            return cmd_analyze(args.image, args.carrier_sign, outdir)
        cfg = load_config(args.config, args.set, args.seed)
        if args.command == "comb":
            return cmd_comb(cfg, outdir)
        if args.command == "figure3":
            return cmd_figure3(cfg, outdir)
        return cmd_pulse(cfg, outdir)
    # only config values make comb and pulse raise these (a ladder past its low
    # end, a dt that aliases); figure3 records them per order
    except (ConfigError, NegativeFrequencyError, AliasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VortexCascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

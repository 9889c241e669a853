"""Configuration parsing, CLI subcommands, and file formats."""

import argparse
import ctypes
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import vortexcascade
from vortexcascade import cli
from vortexcascade.cli import main
from vortexcascade.config import RunConfig, load_config, parse_config_text
from vortexcascade.errors import ConfigError
from vortexcascade.interferometry import extract_charge
from vortexcascade.pgmio import read_pgm16, write_pgm16


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


FAST_FIGURE3 = [
    "--set", "grid_n=256",
    "--set", "grid_pitch_um=50",
    "--set", "waist_mm=1.0",
]


class TestConfigParsing:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.pump_wavelength_nm == 800.0
        assert cfg.raman_shift_cm1 == 320.0
        assert cfg.charges() == (1, -1)  # balancing mirror out by default

    def test_file_with_comments_and_overrides(self, tmp_path):
        text = """
# experiment setup
pump_wavelength_nm = 780.0
m5_in = true   # balanced arms
grid_n = 128
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path, overrides=["grid_n=256"], seed=7)
        assert cfg.pump_wavelength_nm == 780.0
        assert cfg.charges() == (1, 1)
        assert cfg.grid_n == 256
        assert cfg.seed == 7

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid_n = 128\nbogus_key = 3\n")
        assert "line 2" in str(err.value)
        assert "bogus_key" in str(err.value)

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid_n = few\n")
        assert "grid_n" in str(err.value)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize(
        "line,key",
        [
            ("pump_wavelength_nm = -5", "pump_wavelength_nm"),
            ("raman_shift_cm1 = 0", "raman_shift_cm1"),
            ("grid_n = 4", "grid_n"),
            ("grid_pitch_um = 0", "grid_pitch_um"),
            ("waist_mm = -1", "waist_mm"),
            ("geometric_ratio = 1.5", "geometric_ratio"),
            ("noise = -0.1", "noise"),
            ("amplitude_model = cubic", "amplitude_model"),
            ("pulse_channels = 0", "pulse_channels"),
            ("nt = 16", "nt"),
            ("dt_fs = 0", "dt_fs"),
            ("ell_p = 2", "ell_p"),
            ("ell_s = -1", "ell_s"),
        ],
    )
    def test_each_invariant_violation_names_the_key(self, line, key):
        with pytest.raises(ConfigError) as err:
            parse_config_text(line + "\n")
        assert key in str(err.value)

    def test_shift_must_stay_below_pump(self):
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["raman_shift_cm1=13000"])
        assert "raman_shift_cm1" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "kwargs,key",
        [
            # the Nyquist bound follows grid_n, not the default frame
            ({"grid_n": 64, "fringes": 32.0}, "fringes"),
            ({"raman_shift_cm1": 20000.0}, "raman_shift_cm1"),
            # tilt at the Nyquist angle: refused here, not after every far field
            ({"fringes": 256.0}, "fringes"),
        ],
    )
    def test_direct_construction_checks_cross_fields(self, kwargs, key):
        with pytest.raises(ConfigError) as err:
            RunConfig(**kwargs)
        assert err.value.key == key
        assert key in str(err.value)

    def test_waist_under_four_samples_refused(self):
        # lg_mode_field's resolution rule, checked where the keys are read
        with pytest.raises(ConfigError) as err:
            RunConfig(grid_pitch_um=50.0, waist_mm=0.199)
        assert err.value.key == "waist_mm"
        assert RunConfig(grid_pitch_um=50.0, waist_mm=0.2).waist_mm == 0.2

    def test_offset_of_half_the_frame_refused(self):
        # the reference rolls by whole samples modulo grid_n, so a roll of
        # grid_n/2 = 256 samples or more read another geometry with exit 0
        for offset in (6.4, -6.4, 100.0):
            with pytest.raises(ConfigError) as err:
                RunConfig(offset_y_mm=offset)
            assert err.value.key == "offset_y_mm", offset
        assert RunConfig(offset_y_mm=6.38).offset_y_mm == 6.38

    def test_readme_example_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        RunConfig(**parse_config_text(block))


class TestPgmFormat:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((32, 48))
        img[3, 4] = 1.5  # the max pins the scale
        path = tmp_path / "x.pgm"
        write_pgm16(path, img)
        back = read_pgm16(path)
        assert back.shape == (32, 48)
        assert np.max(np.abs(back - img / img.max())) <= 0.5 / 65535

    def test_big_endian_sixteen_bit_layout(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]] * 4 + [[0.0, 0.0]] * 0)
        img = np.tile(img, (2, 4))
        path = tmp_path / "x.pgm"
        write_pgm16(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 16\n65535\n")
        data = raw.split(b"65535\n", 1)[1]
        assert data[0:2] == b"\x00\x00"  # 0.0
        assert data[2:4] == b"\xff\xff"  # 1.0 -> 65535 big-endian

    def test_zero_image(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm16(path, np.zeros((16, 16)))
        assert np.all(read_pgm16(path) == 0.0)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            read_pgm16(path)
        path.write_bytes(b"P5\n10 10\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            read_pgm16(path)


class TestCombCommand:
    def test_default_ladder(self, tmp_path):
        assert main(["comb", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "comb.csv")
        by_label = {r["label"]: r for r in rows}
        assert float(by_label["AS1"]["wavelength_nm"]) == pytest.approx(780.0, abs=0.1)
        assert float(by_label["S1"]["wavelength_nm"]) == pytest.approx(843.2, abs=0.1)
        assert len([r for r in rows if r["label"].startswith("AS")]) == 20
        assert all(float(r["frequency_THz"]) > 0 for r in rows)

    def test_balanced_arms_constant_ell(self, tmp_path):
        assert main(["comb", "--out", str(tmp_path), "--set", "m5_in=true"]) == 0
        rows = read_csv(tmp_path / "comb.csv")
        assert {r["ell"] for r in rows} == {"1"}

    def test_unbalanced_arms_odd_ladder(self, tmp_path):
        assert main(["comb", "--out", str(tmp_path), "--set", "m5_in=false"]) == 0
        rows = read_csv(tmp_path / "comb.csv")
        for r in rows:
            k = int(r["k"])
            assert int(r["ell"]) == -1 + k * 2

    def test_config_file_equals_set_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("raman_shift_cm1 = 330\n")
        from_file, from_set = tmp_path / "file", tmp_path / "set"
        assert main(["comb", "--config", str(config), "--out", str(from_file)]) == 0
        assert main(["comb", "--set", "raman_shift_cm1=330", "--out", str(from_set)]) == 0
        # 330 is not the default, so an ignored file would differ
        assert (from_file / "comb.csv").read_bytes() == (from_set / "comb.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["comb", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
        assert main(["comb", "--out", str(tmp_path), "--set", "grid_n=4"]) == 2
        bad_chirp = ["--set", "match=true", "--set", "chirp_b=-1e26"]
        assert main(["pulse", "--out", str(tmp_path)] + bad_chirp) == 2
        tiny = tmp_path / "tiny.pgm"
        write_pgm16(tiny, np.ones((4, 4)))
        assert main(["analyze", str(tiny), "--out", str(tmp_path)]) == 2

    def test_refused_run_leaves_no_output_directory(self, tmp_path):
        tiny = tmp_path / "tiny.pgm"
        write_pgm16(tiny, np.ones((4, 4)))
        refused = {
            "comb": ["comb", "--set", "bogus=1"],
            "pulse": ["pulse", "--set", "match=true", "--set", "chirp_b=-1e26"],
            "analyze": ["analyze", str(tiny)],
            "figure3": ["figure3", "--set", "grid_n=4"],
        }
        for name, args in refused.items():
            out = tmp_path / f"out_{name}"
            assert main(args + ["--out", str(out)]) == 2, name
            assert not out.exists(), name

    @pytest.mark.parametrize(
        "args,message",
        [
            (["comb", "--set", "max_s=39"], "error: S39 would sit at "),
            (["pulse", "--set", "match=true", "--set", "pulse_channels=1000"],
             "error: S500 would sit at or below zero frequency, past the ladder's low end: "
             "pulse_channels must be at most 77, got 1000"),
            (["pulse", "--set", "match=true", "--set", "dt_fs=10"],
             "error: instantaneous frequency up to "),
            (["figure3", "--set", "offset_y_mm=100"], "error: offset_y_mm 100 rolls "),
        ],
    )
    def test_invalid_geometry_from_config_exits_two(self, tmp_path, capsys, args, message):
        # a ladder past its low end and an aliasing record exited 1, and the
        # wrapped offset exited 0
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_unusable_out_is_refused_before_any_command(self, tmp_path, capsys):
        # a file, or a path through one: figure3 used to fail only once its
        # first order was read, every command with a traceback
        flat = tmp_path / "flat.pgm"
        write_pgm16(flat, np.full((64, 64), 0.5))
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept")
        commands = {
            "comb": ["comb"],
            "pulse": ["pulse", "--set", "match=true"],
            "analyze": ["analyze", str(flat)],
            "figure3": ["figure3"] + FAST_FIGURE3,
        }
        for name, args in commands.items():
            for out in (blocker, blocker / "x"):
                assert main(args + ["--out", str(out)]) == 2, (name, out)
                assert capsys.readouterr().err.startswith(f"error: --out {out}: "), (name, out)
                assert blocker.read_bytes() == b"kept", (name, out)


class TestFigure3Command:
    def test_readings_match_comb_charges(self, tmp_path):
        assert main(["figure3", "--out", str(tmp_path)] + FAST_FIGURE3) == 0
        readings = {r["label"]: r for r in read_csv(tmp_path / "readings.csv")}
        assert main(["comb", "--out", str(tmp_path), "--set", "max_as=2", "--set", "max_s=2"]) == 0
        comb = {r["label"]: r for r in read_csv(tmp_path / "comb.csv")}
        assert set(readings) == set(comb)
        for label, row in readings.items():
            assert row["status"] == "ok"
            assert row["ell"] == comb[label]["ell"], label

    def test_images_written_per_order(self, tmp_path):
        assert main(["figure3", "--out", str(tmp_path)] + FAST_FIGURE3) == 0
        for label in ("S2", "S1", "S", "P", "AS1", "AS2"):
            beam = read_pgm16(tmp_path / f"beam_{label}.pgm")
            fork = read_pgm16(tmp_path / f"fork_{label}.pgm")
            assert beam.shape == (256, 256)
            assert fork.shape == (256, 256)
            assert fork.max() == 1.0

    def test_balanced_arms_all_plus_one(self, tmp_path):
        args = ["figure3", "--out", str(tmp_path), "--set", "m5_in=true"] + FAST_FIGURE3
        assert main(args) == 0
        rows = read_csv(tmp_path / "readings.csv")
        assert [r["ell"] for r in rows] == ["1"] * 6

    def test_deterministic_byte_identical_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["figure3", "--out", str(out), "--seed", "3",
                         "--set", "noise=0.02"] + FAST_FIGURE3) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_first_orders_complete_quickly(self, tmp_path):
        import time

        args = ["figure3", "--out", str(tmp_path), "--set", "max_as=1",
                "--set", "max_s=1"] + FAST_FIGURE3
        start = time.perf_counter()
        assert main(args) == 0
        assert time.perf_counter() - start < 10.0
        rows = read_csv(tmp_path / "readings.csv")
        assert [r["ell"] for r in rows] == ["-3", "-1", "1", "3"]

    def test_partial_order_failure_keeps_exit_zero(self, tmp_path):
        # S39 is past the end of the ladder; other orders still succeed
        args = ["figure3", "--out", str(tmp_path), "--set", "max_s=39",
                "--set", "max_as=0"] + FAST_FIGURE3
        assert main(args) == 0
        rows = read_csv(tmp_path / "readings.csv")
        by_label = {r["label"]: r for r in rows}
        assert by_label["S39"]["status"].startswith("error")
        assert by_label["P"]["status"] == "ok"

    def test_unresolvable_waist_exits_two(self, tmp_path, capsys):
        # a waist under 4 samples is refused with the configuration, before
        # any work; it used to fail in the seeds' synthesis with exit code 1
        for sets in (FAST_FIGURE3 + ["--set", "waist_mm=0.05"],
                     ["--set", "grid_n=16", "--set", "waist_mm=0.01"]):
            out = tmp_path / "out"
            assert main(["figure3", "--out", str(out)] + sets) == 2, sets
            assert capsys.readouterr().err.startswith("error: waist_mm "), sets
            assert not out.exists(), sets

    @pytest.mark.parametrize("command,sets", [("figure3", ["--set", "noise=0.03"]), ("comb", [])])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command, sets):
        # --seed is checked as --set seed= is; figure3 used to build every far
        # field and then fail each order with exit 1, and comb exited 0
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--seed", "-1"] + sets) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()
        assert main([command, "--out", str(out), "--set", "seed=-1"] + sets) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_huge_grid_exits_two_before_any_allocation(self, tmp_path, capsys):
        # grid_n=100000 asked numpy for 74.5 GiB and ended in a traceback
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["figure3", "--out", str(out), "--set", "grid_n=100000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "grid_n must be between 8 and 4096" in capsys.readouterr().err
        assert not out.exists()
        assert load_config(overrides=["grid_n=4096"]).grid_n == 4096
        with pytest.raises(ConfigError):
            load_config(overrides=["grid_n=4097"])

    def test_orders_written_as_their_pairs_finish(self, tmp_path, monkeypatch):
        # each order's two images are on disk before the next order is read
        seen = []
        original = cli.analyze_order_panel

        def panel(cfg, geometry, orders, sink=None):
            def watching(res):
                seen.append(sorted(p.name for p in tmp_path.glob("*.pgm")))
                return sink(res)

            return original(cfg, geometry, orders, sink=watching)

        monkeypatch.setattr(cli, "analyze_order_panel", panel)
        assert main(["figure3", "--out", str(tmp_path)] + FAST_FIGURE3) == 0
        written = []
        for label in ("S2", "AS2", "S1", "AS1", "S", "P"):
            assert seen.pop(0) == sorted(written), label
            written += [f"beam_{label}.pgm", f"fork_{label}.pgm"]
        assert sorted(p.name for p in tmp_path.glob("*.pgm")) == sorted(written)

    def test_default_panel_holds_one_order_at_a_time(self, tmp_path):
        # 512², 6 orders: before images were written as each pair finished,
        # every order's beam and fork (4 MB per order) stayed alive until the
        # whole panel was read, and the peak was 64-67 MB. After a warm-up
        # panel (a 64² one suffices) it is 6.01 arrays the size of a complex
        # field (16 bytes a sample; 6.58 with whole-frame sideband factors,
        # interferogram sums and spectra). The quarter-array margin is under
        # the smallest frame-sized array, a real 512² frame (half a field),
        # so the bound fails on one more frame held at the peak, whether the
        # package or numpy holds it, and not on small-object drift
        warm_up = ["--set", "grid_n=64", "--set", "grid_pitch_um=100"]
        assert main(["figure3", *warm_up, "--out", str(tmp_path / "warm-up")]) == 0
        tracemalloc.start()
        try:
            code = main(["figure3", "--set", "noise=0.03", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        fields = peak / (16 * 512**2)
        assert fields <= 6.25, f"peak of {fields:.2f} field-sized arrays"


class TestPulseCommand:
    def test_matched_pair_reports_raman_period(self, tmp_path, capsys):
        assert main(["pulse", "--out", str(tmp_path), "--set", "match=true"]) == 0
        out = capsys.readouterr().out
        assert "beat-note period: 104." in out
        assert "comb train period: 104." in out
        beat = read_csv(tmp_path / "beat.csv")
        wave = read_csv(tmp_path / "waveform.csv")
        assert len(beat) >= 16384
        assert len(wave) == 16384
        assert all(float(r["intensity"]) >= 0 for r in wave[:100])

    def test_zero_delay_reports_no_structure(self, tmp_path, capsys):
        assert main(["pulse", "--out", str(tmp_path), "--set", "t_d_fs=0"]) == 0
        out = capsys.readouterr().out
        assert "no periodic structure" in out

    def test_channel_count_past_the_ladder_end_refused(self, tmp_path, capsys):
        # at defaults S38 sits above zero frequency and S39 below it: 77
        # channels (k = -38..38) fit, 78 (k = -39..38) do not; the refusal
        # named neither the key nor the count that fits
        assert RunConfig(pulse_channels=77).pulse_ks() == range(-38, 39)
        with pytest.raises(ConfigError) as err:
            RunConfig(pulse_channels=78).pulse_ks()
        assert err.value.key == "pulse_channels"
        out = tmp_path / "out"
        assert main(["pulse", "--out", str(out), "--set", "match=true",
                     "--set", "pulse_channels=78"]) == 2
        assert capsys.readouterr().err == (
            "error: S39 would sit at or below zero frequency, past the ladder's low end: "
            "pulse_channels must be at most 77, got 78\n"
        )
        assert not out.exists()

    def test_needs_delay_or_match(self, tmp_path):
        assert main(["pulse", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "setting,named",
        [("tau_fs=1e9", ["33554432 samples", "tau_fs=1e+09", "t_d_fs=", "dt_fs=0.4"]),
         (f"nt={2**40}", ["nt", str(2**40)])],
    )
    def test_record_past_limit_refused_before_allocation(self, tmp_path, capsys, setting, named):
        # tau_fs=1e9 once doubled the beat record to 2**34 samples (128 GiB)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["pulse", "--out", str(out), "--set", "match=true", "--set", setting])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1e6, f"peak {peak / 1e6:.0f} MB"
        assert not out.exists()
        err = capsys.readouterr().err
        assert "2**24 = 16777216" in err
        for text in named:
            assert text in err

    @pytest.mark.parametrize("setting", ["match=true", "t_d_fs=0"])
    def test_csvs_equal_per_float_formatting(self, tmp_path, monkeypatch, setting):
        # the per-row f-strings the vectorized formatter replaced are the oracle
        written = []
        original = cli._float_csv_blocks

        def recording(header, *columns):
            written.append((header, columns))
            return original(header, *columns)

        monkeypatch.setattr(cli, "_float_csv_blocks", recording)
        assert main(["pulse", "--out", str(tmp_path), "--set", setting]) == 0
        assert len(written) == 2
        for name, (header, (times, values)) in zip(["beat.csv", "waveform.csv"], written):
            rows = [[f"{t:.9e}", f"{v:.9e}"] for t, v in zip(times, values)]
            lines = [",".join(header)] + [",".join(row) for row in rows]
            expected = ("\n".join(lines) + "\n").encode("ascii")
            assert (tmp_path / name).read_bytes() == expected, name

    def test_deterministic_byte_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["pulse", "--out", str(out), "--set", "match=true"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir()) == ["beat.csv", "waveform.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def e9_oracle(header, *columns):
    rows = zip(*columns)
    text = "".join(",".join(f"{v:.9e}" for v in row) + "\n" for row in rows)
    return (",".join(header) + "\n" + text).encode("ascii")


def float_arrays(n):
    # every float64: nan, +-inf, subnormals and both zeros included
    elements = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    return hnp.arrays(np.float64, n, elements=elements)


POWERS_OF_TEN = 10.0 ** np.arange(-323, 309)


class TestFloatCsvFormat:
    """`_float_csv_blocks` against Python's own %.9e, byte for byte."""

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(float_arrays(n), float_arrays(n))))
    def test_any_float64_matches_format(self, columns):
        a, b = columns
        got = b"".join(cli._float_csv_blocks(["a", "b"], a, b))
        text = "\n".join(f"{x:.9e},{y:.9e}" for x, y in zip(a, b))
        assert got == ("a,b\n" + text + ("\n" if len(a) else "")).encode("ascii")

    @pytest.mark.parametrize(
        "value",
        [
            1234567890.5,  # exact binary ties at the 10th digit: round half to even
            1234567891.5,
            9999999999.5,  # ... and one that carries into the exponent
            0.5,
            1.0000000005,  # decimal near-ties, off .5 only in the binary value
            9.9999999995e-100,
            9.9999999995,
            5e-324,  # smallest subnormal: 10^(9-e) alone would overflow
            2.2250738585072014e-308,
            1e308,
            1.7976931348623157e308,
            1e100,
            1e-100,
            0.0,
            -0.0,
            float("nan"),
            float("inf"),
        ],
    )
    def test_edge_values(self, value):
        x = np.array([value, -value])
        assert b"".join(cli._float_csv_blocks(["x"], x)) == e9_oracle(["x"], x)

    def test_powers_of_ten_and_neighbours(self):
        x = np.concatenate(
            [
                POWERS_OF_TEN,
                np.nextafter(POWERS_OF_TEN, 0.0),
                np.nextafter(POWERS_OF_TEN, np.inf),
            ]
        )
        y = -x[::-1]
        assert b"".join(cli._float_csv_blocks(["x", "y"], x, y)) == e9_oracle(["x", "y"], x, y)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(5).integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        y = x[::-1]
        assert b"".join(cli._float_csv_blocks(["x", "y"], x, y)) == e9_oracle(["x", "y"], x, y)


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig")
    assert main(["figure3", "--out", str(out)] + FAST_FIGURE3) == 0
    return out


class TestAnalyzeCommand:
    def test_round_trip_through_files(self, figure_dir, tmp_path, capsys):
        expected = {"AS2": 5, "AS1": 3, "P": 1, "S": -1, "S1": -3, "S2": -5}
        for label, ell in expected.items():
            assert main(["analyze", str(figure_dir / f"fork_{label}.pgm"),
                         "--out", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            assert f"ell={ell:+d}" in out

    def test_vertical_flip_negates(self, figure_dir, tmp_path, capsys):
        img = read_pgm16(figure_dir / "fork_AS2.pgm")
        flipped = tmp_path / "flipped.pgm"
        write_pgm16(flipped, img[::-1, :])
        assert main(["analyze", str(flipped), "--out", str(tmp_path)]) == 0
        assert "ell=-5" in capsys.readouterr().out

    def test_carrier_sign_hint_negates(self, figure_dir, tmp_path, capsys):
        assert main(["analyze", str(figure_dir / "fork_AS2.pgm"), "--carrier-sign", "-1",
                     "--out", str(tmp_path)]) == 0
        assert "ell=-5" in capsys.readouterr().out

    def test_flat_image_reads_zero(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        write_pgm16(flat, np.full((128, 128), 0.7))
        assert main(["analyze", str(flat), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ell=+0" in out
        assert "confidence=0.0000" in out

    def test_carrier_detected_near_dc_reads_zero(self, tmp_path, capsys):
        # half a fringe across the frame: the detected carrier lies under 3
        # bins from DC, too close to demodulate, so it counts as no carrier
        x = np.arange(64) - 32
        r2 = x[None, :] ** 2 + x[:, None] ** 2
        image = np.exp(-r2 / 24.0**2) * (1.0 + np.cos(2.0 * np.pi * 0.5 * x[None, :] / 64))
        path = tmp_path / "near_dc.pgm"
        write_pgm16(path, image)
        assert main(["analyze", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("ell=+0 confidence=0.0000 ")

    def test_missing_or_malformed_image_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.pgm"), "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a pgm at all")
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == 2

    def test_truncated_image_named(self, tmp_path, capsys):
        short = tmp_path / "short.pgm"
        for maxval, payload in ((65535, bytes(2 * 16 * 16 - 1)), (255, bytes(16 * 16 - 1))):
            short.write_bytes(f"P5\n16 16\n{maxval}\n".encode("ascii") + payload)
            out = tmp_path / "out"
            assert main(["analyze", str(short), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {short}: truncated pixel data\n"
            assert not out.exists()

    def test_image_read_once_and_not_copied(self, figure_dir, tmp_path, monkeypatch):
        # cmd_analyze hands read_pgm16's fresh array to the Interferogram,
        # which freezes it in place instead of copying it
        read, grams = [], []

        def reading(path):
            read.append(read_pgm16(path))
            return read[-1]

        def extracting(gram, **kwargs):
            grams.append(gram)
            return extract_charge(gram, **kwargs)

        monkeypatch.setattr(cli, "read_pgm16", reading)
        monkeypatch.setattr(cli, "extract_charge", extracting)
        assert main(["analyze", str(figure_dir / "fork_AS1.pgm"), "--out", str(tmp_path)]) == 0
        (image,), (gram,) = read, grams
        assert gram.intensity is image and not image.flags.writeable

    def test_analysis_csv_written(self, figure_dir, tmp_path):
        assert main(["analyze", str(figure_dir / "fork_P.pgm"), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "analysis.csv")
        assert rows[0]["image"] == "fork_P.pgm"
        assert rows[0]["ell"] == "1"


class TestParser:
    """main builds only the named subcommand; what it prints is unchanged."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["comb", "--help"], ["figure3", "-h"], ["pulse", "--help"], ["analyze", "-h"],
        [], ["bogus"], ["analyze"], ["analyze", "x.pgm", "--carrier-sign", "2"],
        ["figure3", "--bogus"], ["comb", "--seed", "x"], ["pulse", "--set"], ["analyze", "a", "b"],
    ])
    def test_help_and_usage_errors_equal_full_parser(self, argv, capsys):
        # oracle: the parser with every subcommand, as main built it before
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        expect = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == full.value.code == (0 if {"-h", "--help"} & set(argv) else 2)
        assert capsys.readouterr() == expect

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "usage: vortexcascade [-h] {comb,figure3,pulse,analyze} ..." in out
        for name, help_line in cli.COMMANDS.items():
            assert re.search(rf"^\s+{name}\s+{re.escape(help_line)}$", out, re.M), name

    def test_only_the_named_subcommand_is_built(self, tmp_path, monkeypatch):
        built = []
        original = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return original(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        flat = tmp_path / "flat.pgm"
        write_pgm16(flat, np.full((64, 64), 0.5))
        assert main(["analyze", str(flat), "--out", str(tmp_path)]) == 0
        assert built == ["analyze"]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built[1:] == ["comb", "figure3", "pulse", "analyze"]


class TestNoisyForksThroughFiles:
    """figure3 --seed 7 --set noise=0.03, each fork read back by analyze."""

    LADDER = {"S2": -5, "S1": -3, "S": -1, "P": 1, "AS1": 3, "AS2": 5}

    def readings(self, out, tmp_path, capsys):
        capsys.readouterr()  # figure3's summary
        got = {}
        for label in self.LADDER:
            assert main(["analyze", str(out / f"fork_{label}.pgm"), "--out", str(tmp_path)]) == 0
            m = re.match(r"ell=([+-]\d+) confidence=([0-9.]+) ", capsys.readouterr().out)
            got[label] = (int(m.group(1)), float(m.group(2)))
        return got

    def test_default_grid_reads_right_or_flags(self, tmp_path, capsys):
        # 512^2: P's sideband lies inside the baseband lobe the carrier search
        # excludes, so the tenfold-median gate returns P with confidence 0;
        # every other fork reads its ladder charge
        out = tmp_path / "fig"
        assert main(["figure3", "--out", str(out), "--seed", "7", "--set", "noise=0.03"]) == 0
        got = self.readings(out, tmp_path, capsys)
        for label, ell in self.LADDER.items():
            assert got[label][0] == ell or got[label][1] == 0.0, (label, got[label])
        assert sum(got[label][0] == ell for label, ell in self.LADDER.items()) >= 5

    def test_256_grid_reads_every_fork(self, tmp_path, capsys):
        out = tmp_path / "fig"
        argv = ["figure3", "--out", str(out), "--seed", "7", "--set", "noise=0.03",
                "--set", "grid_n=256", "--set", "grid_pitch_um=50"]
        assert main(argv) == 0
        got = self.readings(out, tmp_path, capsys)
        assert {label: ell for label, (ell, _) in got.items()} == self.LADDER


class TestImport:
    def test_public_names_resolve(self):
        for name in vortexcascade.__all__:
            assert hasattr(vortexcascade, name), name
        namespace = {}
        exec("from vortexcascade import *", namespace)
        assert set(vortexcascade.__all__) <= namespace.keys()

    def test_cli_import_loads_no_scipy(self):
        # every CLI process pays for its imports; the package runs on numpy alone
        src = str(Path(vortexcascade.__file__).resolve().parents[1])
        code = (
            "import vortexcascade.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_import_and_analyze_start_no_thread(self, figure_dir, tmp_path):
        # importing the package and reading an image start no thread and load
        # no executor
        src = str(Path(vortexcascade.__file__).resolve().parents[1])
        code = (
            "import sys, threading; import vortexcascade.cli; "
            "before = threading.active_count(); "
            f"code = vortexcascade.cli.main(['analyze', {str(figure_dir / 'fork_P.pgm')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, before, threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 1 1 False"


class TestAllocatorPolicy:
    """cli.main has glibc keep freed heap: at its first call, not at import."""

    @pytest.fixture
    def fresh_policy(self):
        cli.keep_freed_heap.cache_clear()
        yield
        cli.keep_freed_heap.cache_clear()

    def test_applied_by_the_first_main_not_by_import(self, tmp_path):
        src = str(Path(vortexcascade.__file__).resolve().parents[1])
        code = (
            "import ctypes; opened = []; real = ctypes.CDLL\n"
            "def record(name, *a, **k):\n"
            "    opened.append(name)\n"
            "    return real(name, *a, **k)\n"
            "ctypes.CDLL = record\n"
            "import vortexcascade.cli as cli\n"
            "print(opened.count('libc.so.6'), cli.keep_freed_heap.cache_info().misses)\n"
            f"code = cli.main(['comb', '--out', {str(tmp_path)!r}])\n"
            "print(opened.count('libc.so.6'), cli.keep_freed_heap.cache_info().misses, code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert proc.stdout.splitlines()[0] == "0 0"
        assert proc.stdout.splitlines()[-1] == "1 1 0"

    def test_mallopt_called_once_per_process(self, fresh_policy, monkeypatch, tmp_path):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert main(["comb", "--out", str(tmp_path)]) == 0
        assert main(["comb", "--out", str(tmp_path)]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert libc.mallopt.argtypes == [ctypes.c_int, ctypes.c_int]

    @pytest.mark.parametrize("missing", ["libc", "mallopt"])
    def test_runs_without_mallopt(self, missing, fresh_policy, monkeypatch, tmp_path):
        assert main(["comb", "--out", str(tmp_path / "with")]) == 0

        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        stand_in = no_libc if missing == "libc" else (lambda name: types.SimpleNamespace())
        cli.keep_freed_heap.cache_clear()
        monkeypatch.setattr(cli.ctypes, "CDLL", stand_in)
        assert main(["comb", "--out", str(tmp_path / "without")]) == 0
        written = (tmp_path / "without" / "comb.csv").read_bytes()
        assert written == (tmp_path / "with" / "comb.csv").read_bytes()

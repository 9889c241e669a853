"""Configuration parsing, CLI subcommands, and file formats."""

import os
import re
import subprocess
import sys
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

    def test_explicit_charges_must_come_together(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["ell_p=2"])
        cfg = load_config(overrides=["ell_p=2", "ell_s=-1"])
        assert cfg.charges() == (2, -1)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "kwargs,key",
        [({"ell_p": 1}, "ell_p"), ({"raman_shift_cm1": 20000.0}, "raman_shift_cm1")],
    )
    def test_direct_construction_checks_cross_fields(self, kwargs, key):
        with pytest.raises(ConfigError) as err:
            RunConfig(**kwargs)
        assert err.value.key == key
        assert key in str(err.value)

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
        }
        for name, args in refused.items():
            out = tmp_path / f"out_{name}"
            assert main(args + ["--out", str(out)]) == 2, name
            assert not out.exists(), name


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

    def test_unresolvable_waist_exits_one(self, tmp_path):
        args = ["figure3", "--out", str(tmp_path)] + FAST_FIGURE3 + ["--set", "waist_mm=0.05"]
        assert main(args) == 1


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

    def test_needs_delay_or_match(self, tmp_path):
        assert main(["pulse", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("setting", ["match=true", "t_d_fs=0"])
    def test_csvs_equal_per_float_formatting(self, tmp_path, monkeypatch, setting):
        # the per-row f-strings the vectorized formatter replaced are the oracle
        written = []
        original = cli._float_csv_bytes

        def recording(header, *columns):
            written.append((header, columns))
            return original(header, *columns)

        monkeypatch.setattr(cli, "_float_csv_bytes", recording)
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
    """`_float_csv_bytes` against Python's own %.9e, byte for byte."""

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(float_arrays(n), float_arrays(n))))
    def test_any_float64_matches_format(self, columns):
        a, b = columns
        got = cli._float_csv_bytes(["a", "b"], a, b)
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
        assert cli._float_csv_bytes(["x"], x) == e9_oracle(["x"], x)

    def test_powers_of_ten_and_neighbours(self):
        x = np.concatenate(
            [
                POWERS_OF_TEN,
                np.nextafter(POWERS_OF_TEN, 0.0),
                np.nextafter(POWERS_OF_TEN, np.inf),
            ]
        )
        y = -x[::-1]
        assert cli._float_csv_bytes(["x", "y"], x, y) == e9_oracle(["x", "y"], x, y)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(5).integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        y = x[::-1]
        assert cli._float_csv_bytes(["x", "y"], x, y) == e9_oracle(["x", "y"], x, y)


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

    def test_missing_or_malformed_image_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.pgm"), "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a pgm at all")
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == 2

    def test_analysis_csv_written(self, figure_dir, tmp_path):
        assert main(["analyze", str(figure_dir / "fork_P.pgm"), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "analysis.csv")
        assert rows[0]["image"] == "fork_P.pgm"
        assert rows[0]["ell"] == "1"


class TestImport:
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

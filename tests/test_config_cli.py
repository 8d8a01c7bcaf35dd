import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mp4wm
from mp4wm.cli import SCAN_HEADER, TRACE_HEADER, main
from mp4wm.config import MAX_SCAN_STEPS, MHZ, Config, parse_config
from mp4wm.errors import ConfigError
from mp4wm.params import MediumParams, ModelValidityWarning

BASE = """\
omega_rabi_mhz = 420
delta_raman_mhz = 4000
delta_two_photon_mhz = 11.025
eta0 = 960
gamma_c_over_gamma = 0
cell_length_cm = 2.5
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strict_json(text):
    """`json.loads` that rejects the non-standard NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def fresh_env():
    """Environment for a fresh interpreter that imports mp4wm from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


class TestParse:
    def test_units_and_values(self):
        cfg = parse_config(BASE)
        p = cfg.medium
        assert p.omega_rabi == pytest.approx(2.0 * math.pi * 420e6, rel=1e-12)
        assert p.cell_length == pytest.approx(0.025, rel=1e-12)
        assert p.gamma == pytest.approx(2.0 * math.pi * 6e6, rel=1e-12)  # default
        assert p.gamma_c == 0.0
        assert p.coupling_g2n == pytest.approx(
            960.0 * p.omega_rabi**2 / 4.0, rel=1e-12
        )

    def test_defaults_applied(self):
        cfg = parse_config(BASE)
        assert cfg.fwhm_ns == 70.0
        assert cfg.window_ns == 2000.0
        assert cfg.n_samples == 4096
        assert cfg.propagation_mode == "relative"
        assert cfg.delta_policy == "track"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n" + BASE)
        assert cfg.omega_rabi_mhz == 420.0

    def test_missing_coupling_names_both_keys(self):
        text = BASE.replace("eta0 = 960\n", "")
        with pytest.raises(ConfigError, match="eta0.*g2n_mhz2|g2n_mhz2.*eta0"):
            parse_config(text)

    def test_both_couplings_rejected(self):
        with pytest.raises(ConfigError, match="eta0"):
            parse_config(BASE + "g2n_mhz2 = 1e7\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="cell_length_cm"):
            parse_config(BASE.replace("cell_length_cm = 2.5\n", ""))

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match="line 7"):
            parse_config(BASE + "mystery = 1\n")

    def test_duplicate_key_has_line_number(self):
        with pytest.raises(ConfigError, match="line 7"):
            parse_config(BASE + "eta0 = 961\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="eta0"):
            parse_config(BASE.replace("eta0 = 960", "eta0 = twelve"))

    def test_bad_sample_count_is_config_error(self):
        # parse_config only builds the grid description: nothing is allocated
        for n in (1000, 268435456):
            with pytest.raises(ConfigError):
                parse_config(BASE + f"n_samples = {n}\n")

    def test_every_key_parsed(self):
        text = """\
omega_rabi_mhz = 400
delta_raman_mhz = 3000
cell_length_cm = 1.5
delta_one_mhz = 30
delta_two_photon_mhz = 12
gamma_mhz = 5
gamma_c_over_gamma = 0.25
eta0 = 500
fwhm_ns = 60
window_ns = 1500
pulse_center_ns = 10
n_samples = 2048
dispersion_mode = full
propagation_mode = exact
delta_policy = fixed
scan_start = 0.5
scan_stop = 2.5
scan_steps = 9
"""
        expected = {
            "omega_rabi_mhz": 400.0, "delta_raman_mhz": 3000.0, "cell_length_cm": 1.5,
            "delta_one_mhz": 30.0, "delta_two_photon_mhz": 12.0, "gamma_mhz": 5.0,
            "gamma_c_over_gamma": 0.25, "eta0": 500.0, "g2n_mhz2": None,
            "fwhm_ns": 60.0, "window_ns": 1500.0, "pulse_center_ns": 10.0,
            "n_samples": 2048, "dispersion_mode": "full", "propagation_mode": "exact",
            "delta_policy": "fixed", "scan_start": 0.5, "scan_stop": 2.5, "scan_steps": 9,
        }
        cfg = parse_config(text)
        assert set(expected) == {f.name for f in dataclasses.fields(Config) if f.init}
        for key, value in expected.items():
            assert getattr(cfg, key) == value, key
            assert type(getattr(cfg, key)) is type(value), key
        cfg = parse_config(text.replace("eta0 = 500", "g2n_mhz2 = 1e7"))
        assert (cfg.eta0, cfg.g2n_mhz2) == (None, 1e7)
        assert cfg.medium.coupling_g2n == pytest.approx(1e7 * MHZ**2, rel=1e-12)

    def test_readme_table_lists_the_config_fields(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        config_keys = [f for f in dataclasses.fields(Config) if f.init]
        assert keys == [f.name for f in config_keys]
        defaults = re.findall(r"^\| `\w+` \|.*\| (.+) \|$", table, flags=re.M)
        for f, default in zip(config_keys, defaults, strict=True):
            if default == "required":
                assert f.default is dataclasses.MISSING, f.name
            elif default == "scans only" or default.startswith("one of "):
                assert f.default is None, f.name
            else:  # a backticked value in config units
                value = re.fullmatch(r"`([^`]+)`", default).group(1)
                assert type(f.default)(value) == f.default, f.name
        # the library's medium starts from the config's default mode
        assert MediumParams.dispersion_mode == Config.dispersion_mode == "constant"

    def test_readme_entry_points_are_exported(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1]
        code = re.sub(r"#.*", "", block.split("```", 1)[0])
        names = re.findall(r"\w+", code.split("from mp4wm import (", 1)[1].split(")", 1)[0])
        assert len(names) >= 10
        assert [name for name in names if not hasattr(mp4wm, name)] == []

    def test_scan_steps_bounds(self):
        scan_keys = BASE + "scan_start = 0\nscan_stop = 1\n"
        assert parse_config(scan_keys + f"scan_steps = {MAX_SCAN_STEPS}\n").scan_steps == MAX_SCAN_STEPS
        # parse only: a grid this large is never built
        for steps, message in ((1, ">= 2"), (MAX_SCAN_STEPS + 1, "<= 100000"),
                               (1000000000, "<= 100000")):
            with pytest.raises(ConfigError, match=message):
                parse_config(scan_keys + f"scan_steps = {steps}\n")

    def test_scan_values_grid(self):
        cfg = parse_config(BASE + "scan_start = 1\nscan_stop = 3\nscan_steps = 5\n")
        assert cfg.scan_values() == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])

    def test_scan_keys_required_for_scans(self):
        message = "^scan_start, scan_stop and scan_steps are required for scans$"
        with pytest.raises(ConfigError, match=message):
            parse_config(BASE).scan_values()
        keys = ["scan_start = 0", "scan_stop = 1", "scan_steps = 5"]
        for dropped in range(3):  # any one of the three missing
            text = BASE + "".join(f"{k}\n" for i, k in enumerate(keys) if i != dropped)
            with pytest.raises(ConfigError, match=message):
                parse_config(text).scan_values()


    def test_line_without_equals_sign_names_its_line(self):
        message = "^line 7: expected 'key = value', got 'eta0 960  # a comment'$"
        with pytest.raises(ConfigError, match=message):
            parse_config(BASE + "eta0 960  # a comment\n")


# the README medium as Config arguments
BASE_KWARGS = {"omega_rabi_mhz": 420.0, "delta_raman_mhz": 4000.0,
               "delta_two_photon_mhz": 11.025, "eta0": 960.0,
               "gamma_c_over_gamma": 0.0, "cell_length_cm": 2.5}


class TestConfigRules:
    """A Config checks every rule between keys when it is built, however it is built."""

    @pytest.mark.parametrize("changes, message", [
        ({"eta0": None}, "one of eta0 or g2n_mhz2 is required"),
        ({"g2n_mhz2": 1e7}, "eta0 and g2n_mhz2 are mutually exclusive"),
        ({"scan_steps": 1}, "scan_steps must be >= 2"),
        ({"scan_steps": MAX_SCAN_STEPS + 1}, "scan_steps must be <= 100000"),
        ({"fwhm_ns": 0.0}, "fwhm_ns must be > 0"),
        ({"window_ns": -70.0}, "window_ns must be > 0"),
        ({"n_samples": 1000}, "n_samples must be a power of two in [256, 2**20], got 1000"),
        # the first broken rule decides, in the order parse_config checks them
        ({"g2n_mhz2": 1e7, "scan_steps": 1, "fwhm_ns": 0.0},
         "eta0 and g2n_mhz2 are mutually exclusive"),
        ({"scan_steps": 1, "window_ns": 0.0}, "scan_steps must be >= 2"),
        ({"fwhm_ns": 0.0, "window_ns": 0.0}, "window_ns must be > 0"),
        ({"fwhm_ns": 0.0, "omega_rabi_mhz": -1.0}, "fwhm_ns must be > 0"),
        ({"omega_rabi_mhz": -1.0, "n_samples": 1000}, "omega_rabi must be > 0"),
    ])
    def test_direct_build_raises_what_parsing_does(self, changes, message):
        kwargs = {**BASE_KWARGS, **changes}
        text = "".join(f"{k} = {v}\n" for k, v in kwargs.items() if v is not None)
        for build in (lambda: Config(**kwargs), lambda: parse_config(text)):
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("changes, message", [
        ({"propagation_mode": "weird"}, "unknown propagation_mode 'weird'"),
        ({"delta_policy": "chase"}, "unknown delta_policy 'chase'"),
        ({"dispersion_mode": "Full"}, "unknown dispersion_mode 'Full'"),
        ({"n_samples": 4096.0}, "n_samples must be a power of two in [256, 2**20], got 4096.0"),
        ({"n_samples": "4096"}, "n_samples must be a power of two in [256, 2**20], got 4096"),
        ({"scan_steps": 3.5}, "scan_steps must be an integer, got 3.5"),
        ({"scan_steps": 3.0}, "scan_steps must be an integer, got 3.0"),
        # the string keys come first, in field order, then the type of scan_steps
        ({"propagation_mode": "weird", "delta_policy": "chase", "eta0": None},
         "unknown propagation_mode 'weird'"),
        ({"delta_policy": "chase", "eta0": None}, "unknown delta_policy 'chase'"),
        ({"scan_steps": 1.0, "fwhm_ns": 0.0}, "scan_steps must be an integer, got 1.0"),
    ])
    def test_direct_build_checks_the_rules_parsing_checks_by_line(self, changes, message):
        # parse_config rejects each of these on its line (TestCli), before any Config
        with pytest.raises(ConfigError) as info:
            Config(**{**BASE_KWARGS, **changes})
        assert str(info.value) == message

    def test_numpy_integers_are_integers(self):
        cfg = Config(**BASE_KWARGS, n_samples=np.int64(1024), scan_start=0.0,
                     scan_stop=1.0, scan_steps=np.int32(3))
        assert cfg.grid.n_samples == 1024
        assert cfg.scan_values() == [0.0, 0.5, 1.0]

    def test_medium_and_grid_are_built_with_the_config(self):
        cfg = Config(**BASE_KWARGS, window_ns=1500.0, n_samples=1024, pulse_center_ns=10.0)
        assert cfg == parse_config(BASE + "window_ns = 1500\nn_samples = 1024\n"
                                   "pulse_center_ns = 10\n")
        assert cfg.medium.coupling_g2n == pytest.approx(
            960.0 * cfg.medium.omega_rabi**2 / 4.0, rel=1e-12)
        assert cfg.grid == mp4wm.TimeGrid.centered(1500e-9, 1024, 10e-9)
        assert "medium" not in repr(cfg) and "grid" not in repr(cfg)

    def test_medium_and_grid_survive_pickle_and_copy(self):
        cfg = Config(**BASE_KWARGS, scan_start=0.5, scan_stop=1.0, scan_steps=3)
        cfg.grid.times  # a read memo travels with the grid
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), copy.copy(cfg)):
            assert twin == cfg
            assert twin.medium == cfg.medium
            assert twin.medium.coefficients == cfg.medium.coefficients
            assert twin.grid == cfg.grid
            np.testing.assert_array_equal(twin.grid.times, cfg.grid.times)

    def test_replace_rebuilds_medium_and_grid(self):
        cfg = Config(**BASE_KWARGS)
        other = dataclasses.replace(cfg, eta0=480.0, n_samples=2048)
        assert other.medium.coefficients.eta0 == pytest.approx(480.0, rel=1e-12)
        assert other.grid.n_samples == 2048
        assert (cfg.medium.coefficients.eta0, cfg.grid.n_samples) == (
            pytest.approx(960.0, rel=1e-12), 4096)
        with pytest.raises(ConfigError, match="^scan_steps must be >= 2$"):
            dataclasses.replace(cfg, scan_start=0.0, scan_stop=1.0, scan_steps=1)


class TestCli:
    def test_derive_light_shift(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["derive", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["light_shift_mhz"] == pytest.approx(11.025, rel=1e-9)
        assert out["light_shift_mhz"] == out["delta_r_mhz"]
        assert out["eta0"] == pytest.approx(960.0, rel=1e-9)
        assert out["saturation_rabi_mhz"] == pytest.approx(309.838668, rel=1e-6)

    @pytest.mark.parametrize("key, value, quantity", [
        ("gamma_mhz", "1e300", "saturation_rabi_mhz"),
        ("delta_raman_mhz", "1e300", "saturation_rabi_mhz"),
        ("eta0", "1e-300", "v_group_m_s"),
    ])
    def test_derive_rejects_non_finite_values(self, tmp_path, capsys, key, value, quantity):
        text = re.sub(rf"(?m)^{key} = .*$", "", BASE) + f"{key} = {value}\n"
        code = main(["derive", "--config", write_cfg(tmp_path, text)])
        out, err = capsys.readouterr()
        if code == 0:
            strict_json(out)  # stdout must be JSON that any parser reads
        assert code == 3
        assert err.splitlines() == [f"mp4wm: error: derived {quantity} is not finite: inf"]

    # windows of 315 and 330 ns, just above the 70 ns input's containment
    # width of 312.5 ns, cut its tails off far above the band floor
    @pytest.mark.parametrize("window_ns", [2000, 315, 330])
    @pytest.mark.parametrize("mode", ["relative", "exact"])
    def test_run_zero_length_identity(self, tmp_path, capsys, window_ns, mode):
        text = BASE.replace("cell_length_cm = 2.5", "cell_length_cm = 0") + (
            f"window_ns = {window_ns}\npropagation_mode = {mode}\n")
        out_csv = tmp_path / "trace.csv"
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_csv)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["probe"]["gain_peak"] == pytest.approx(1.0, rel=1e-9)
        assert metrics["probe"]["gain_energy"] == pytest.approx(1.0, rel=1e-9)
        assert metrics["probe"]["delay_ns"] == pytest.approx(0.0, abs=1e-9)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 4097

    def test_run_trace_and_metrics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        out_csv = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out_csv)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["conjugate"]["delay_ns"] == pytest.approx(40.0, abs=0.5)
        assert metrics["analytic"]["tau_ns"] == pytest.approx(40.028, abs=0.01)
        header = out_csv.read_text().splitlines()[0]
        assert header == TRACE_HEADER

    def test_run_trace_cells_are_nine_digits(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "n_samples = 1024\n")
        out_csv = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        config = parse_config(BASE + "n_samples = 1024\n")
        propagate = config.propagator()
        tr = mp4wm.run_single(config.medium, propagate).traces
        norm = tr.reference.intensity.max()
        columns = (tr.reference.grid.times * 1e9, tr.reference.intensity / norm,
                   tr.probe.intensity / norm, tr.conjugate.intensity / norm)
        rows = [",".join(f"{x:.9g}" for x in row) for row in zip(*columns)]
        assert out_csv.read_bytes() == "\n".join([TRACE_HEADER, *rows, ""]).encode()

    def test_run_trace_is_normalized_to_an_off_sample_reference_peak(self, tmp_path, capsys):
        # the grid is centred on the pulse, so pulse_center_ns keeps its peak
        # on a sample; exact mode's vacuum transit, 83.4 ps, moves the
        # reference of a 2 ns pulse off it, to 0.995 of the input's peak
        text = BASE + "propagation_mode = exact\nfwhm_ns = 2\nwindow_ns = 200\nn_samples = 1024\n"
        out_csv = tmp_path / "trace.csv"
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_csv)]) == 0
        capsys.readouterr()
        config = parse_config(text)
        tr = mp4wm.run_single(config.medium, config.propagator()).traces
        norm = tr.reference.peak
        assert 0.99 < norm < 0.996
        rows = out_csv.read_text().splitlines()[1:]
        cells = np.array([[float(x) for x in row.split(",")] for row in rows])
        for column, pulse in zip(cells.T[1:], (tr.reference, tr.probe, tr.conjugate)):
            assert np.allclose(column, pulse.intensity / norm, rtol=1e-8, atol=0.0)
        assert cells[:, 1].max() == 1.0

    def test_scan_outputs_are_deterministic(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "scan_start = 0.2\nscan_stop = 1.0\nscan_steps = 7\n",
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["scan-density", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert text.splitlines()[0] == SCAN_HEADER

    def test_scan_delta_var_in_mhz(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "scan_start = 10\nscan_stop = 12\nscan_steps = 3\n",
        )
        out = tmp_path / "d.csv"
        assert main(["scan-delta", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        vars_ = [float(r.split(",")[0]) for r in rows]
        assert vars_ == pytest.approx([10.0, 11.0, 12.0], rel=1e-9)
        out_json = tmp_path / "d.json"
        assert main(
            ["scan-delta", "--config", cfg, "--out", str(out_json), "--format", "json"]
        ) == 0
        vars_ = [row["var"] for row in json.loads(out_json.read_text())]
        assert vars_ == pytest.approx([10.0, 11.0, 12.0], rel=1e-9)

    def test_scan_pump_var_in_mhz_and_policy(self, tmp_path):
        scan_keys = "scan_start = 300\nscan_stop = 420\nscan_steps = 2\n"
        outs = {}
        for policy in ("track", "fixed"):
            cfg = write_cfg(
                tmp_path, BASE + scan_keys + f"delta_policy = {policy}\n", f"{policy}.cfg"
            )
            out = tmp_path / f"{policy}.csv"
            assert main(["scan-pump", "--config", cfg, "--out", str(out)]) == 0
            outs[policy] = out.read_text().splitlines()[1:]
            vars_ = [float(r.split(",")[0]) for r in outs[policy]]
            assert vars_ == pytest.approx([300.0, 420.0], rel=1e-9)
        # at 300 MHz a fixed delta leaves dtilde != 0, which the tracked scan avoids
        assert outs["fixed"][0] != outs["track"][0]

    def test_scan_json_roundtrips_nine_digits(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "scan_start = 0.5\nscan_stop = 1.0\nscan_steps = 2\n",
        )
        out = tmp_path / "d.json"
        assert main(
            ["scan-density", "--config", cfg, "--out", str(out), "--format", "json"]
        ) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        for row in rows:
            for key, val in row.items():
                if val is not None:
                    assert float(f"{val:.9g}") == val

    def test_commands_load_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + (
            "n_samples = 256\nscan_start = 0.5\nscan_stop = 1.0\nscan_steps = 3\n"
        ))
        child = (
            "import json, sys\n"
            "from mp4wm.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "codes = [main(['derive', '--config', cfg]),\n"
            "         main(['run', '--config', cfg, '--out', out]),\n"
            "         main(['scan-density', '--config', cfg, '--out', out])]\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps({'codes': codes, 'scipy': scipy}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, cfg, str(tmp_path / "out.csv")],
            env=fresh_env(), check=True, capture_output=True, text=True, timeout=120,
        )
        assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "scipy": []}

    def test_scan_bytes_do_not_depend_on_earlier_jobs(self, tmp_path):
        # the offband benchmark scan on a small grid: exact reference, full eta(w)
        def config(cell_cm):
            text = BASE.replace("gamma_c_over_gamma = 0\n", "gamma_c_over_gamma = 0.01\n")
            text = text.replace("cell_length_cm = 2.5", f"cell_length_cm = {cell_cm}")
            return write_cfg(tmp_path, text + (
                "delta_one_mhz = 30\ndispersion_mode = full\npropagation_mode = exact\n"
                "n_samples = 1024\nscan_start = -40\nscan_stop = 60\nscan_steps = 11\n"
            ), name=f"z{cell_cm}.cfg")

        env = fresh_env()
        fresh = {}
        for cell_cm in ("2.5", "1.5"):
            out = tmp_path / f"fresh{cell_cm}.csv"
            subprocess.run(
                [sys.executable, "-m", "mp4wm.cli", "scan-delta",
                 "--config", config(cell_cm), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            fresh[cell_cm] = out.read_bytes()
        assert fresh["2.5"] != fresh["1.5"]
        for i, cell_cm in enumerate(("2.5", "1.5", "2.5")):
            out = tmp_path / f"{i}.csv"
            assert main(["scan-delta", "--config", config(cell_cm), "--out", str(out)]) == 0
            assert out.read_bytes() == fresh[cell_cm]

    def test_failed_scan_points_leave_empty_cells(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "scan_start = 1\nscan_stop = 1e6\nscan_steps = 2\n",
        )
        out = tmp_path / "d.csv"
        assert main(["scan-density", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        good, bad = rows[1].split(","), rows[2].split(",")
        assert good[1] != ""
        assert float(bad[0]) == 1e6
        assert all(cell == "" for cell in bad[1:])

    @pytest.mark.parametrize(
        "command, flags",
        [("run", ["--out", "t.csv", "--format", "json"]), ("derive", ["--out", "t.csv"])],
    )
    def test_flags_a_command_ignores_are_usage_errors(
        self, tmp_path, monkeypatch, command, flags
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, BASE)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg] + flags)
        assert exc.value.code == 2
        assert not (tmp_path / "t.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        for extra in ("mystery = 1\n", "propagation_mode = paper\n"):
            cfg = write_cfg(tmp_path, BASE + extra)
            assert main(["derive", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith("mp4wm: config error:")

    @pytest.mark.parametrize("key", ["dispersion_mode", "propagation_mode", "delta_policy"])
    def test_unknown_mode_is_config_error_with_its_line(self, tmp_path, capsys, key):
        # checked as the line is read, before any later line
        cfg = write_cfg(tmp_path, BASE + f"{key} = Full\nmystery = 1\n")
        assert main(["derive", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"mp4wm: config error: line 7: unknown {key} 'Full'\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["derive", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BASE.encode() + b"# caf\xe9\n")
        assert main(["derive", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(path) in err and "Traceback" not in err

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(BASE.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + BASE.encode())
        codes, outs = [], []
        for path in (plain, bom):
            codes.append(main(["derive", "--config", str(path)]))
            outs.append(capsys.readouterr().out)
        assert codes == [0, 0]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["run", "scan-density"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(
            tmp_path, BASE + "scan_start = 0.5\nscan_stop = 1.0\nscan_steps = 2\n"
        )
        out = tmp_path / "no-such-dir" / "d.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["derive", "run"])
    def test_closed_stdout_is_config_error(self, tmp_path, command):
        # a reader that stops early, as in `mp4wm derive ... | true`
        cfg = write_cfg(tmp_path, BASE + "n_samples = 256\n")
        out = [] if command == "derive" else ["--out", str(tmp_path / "t.csv")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "mp4wm.cli", command, "--config", cfg, *out],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
        assert err == "mp4wm: config error: cannot write output <stdout>: Broken pipe\n"

    @pytest.mark.parametrize(
        "key, value",
        [("fwhm_ns", "nan"), ("window_ns", "inf"), ("scan_start", "nan"), ("eta0", "inf")],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key, value):
        lines = (BASE + "scan_start = 0.5\nscan_stop = 1.0\nscan_steps = 2\n").splitlines()
        keys = [line.split(" =")[0] for line in lines]
        if key in keys:
            lineno = keys.index(key) + 1
            lines[lineno - 1] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
            lineno = len(lines)
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "d.csv"
        assert main(["scan-density", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {lineno}" in err
        assert key in err

    @pytest.mark.parametrize("fwhm_ns", ["900", "0.5"])
    def test_bad_input_pulse_fails_the_scan(self, tmp_path, capsys, fwhm_ns):
        # 900 ns does not fit the 2000 ns window; 0.5 ns aliases on its grid
        cfg = write_cfg(
            tmp_path,
            BASE + f"fwhm_ns = {fwhm_ns}\nscan_start = 0.5\nscan_stop = 1.0\nscan_steps = 2\n",
        )
        out = tmp_path / "d.csv"
        assert main(["scan-density", "--config", cfg, "--out", str(out)]) == 3
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fwhm_ns, code, message", [
        ("900", 3, "mp4wm: error: gaussian of fwhm 9e-07 s centered at 0 s needs a window"),
        ("70", 2, "mp4wm: config error: density scale must be > 0"),
    ])
    def test_input_pulse_is_built_before_the_scan_points(
        self, tmp_path, capsys, fwhm_ns, code, message
    ):
        # scale -1 is no density, and a 900 ns pulse does not fit the 2000 ns
        # window: with both faults the input fails first, as it is built first
        cfg = write_cfg(
            tmp_path,
            BASE + f"fwhm_ns = {fwhm_ns}\nscan_start = -1\nscan_stop = 1.0\nscan_steps = 2\n",
        )
        out = tmp_path / "d.csv"
        assert main(["scan-density", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    def test_intensity_overflow_is_one_line_guard_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("eta0 = 960", "eta0 = 100000"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "overflow" in err
        assert "RuntimeWarning" not in err and "nan" not in err

    @pytest.mark.parametrize("eta0, center_ns, quantity", [
        ("62400", "-4000", "energy"),   # finite intensities, infinite sum
        ("61440", "1e12", "centroid"),  # finite energy, infinite sum of t I
    ])
    def test_pulse_sum_overflow_is_one_line_guard_error(
        self, tmp_path, capsys, eta0, center_ns, quantity
    ):
        text = BASE.replace("eta0 = 960", f"eta0 = {eta0}").replace(
            "delta_two_photon_mhz = 11.025\n", ""
        ) + f"window_ns = 16000\npulse_center_ns = {center_ns}\nn_samples = 8192\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = main(["run", "--config", write_cfg(tmp_path, text), "--out",
                         str(tmp_path / "t.csv")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"mp4wm: error: {quantity} overflows double precision; the gain is too large"
        ]

    def test_kernel_overflow_is_one_line_guard_error(self, tmp_path, capsys):
        # e^{mu z/c} itself overflows: the entries, and so the envelope, are not finite
        cfg = write_cfg(tmp_path, BASE.replace("eta0 = 960", "eta0 = 1e9"))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["mp4wm: error: envelope must be finite everywhere"]

    @pytest.mark.filterwarnings("default::mp4wm.params.ModelValidityWarning")
    def test_each_warning_is_one_line_and_an_error_drops_them(self, tmp_path, capsys):
        # Delta/2pi = 50 MHz is not far off resonance
        near = write_cfg(tmp_path, BASE.replace("delta_raman_mhz = 4000", "delta_raman_mhz = 50"))
        assert main(["derive", "--config", near]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["eta0"] == pytest.approx(960.0, rel=1e-9)
        assert err.splitlines() == [
            "mp4wm: warning: upper-lambda detuning is not far off resonance compared "
            "with the lower lambda and the linewidth"
        ]
        # the same warning, then a non-finite envelope: only the error line
        far = write_cfg(
            tmp_path, BASE.replace("delta_raman_mhz = 4000", "delta_raman_mhz = 1e-300"), "far.cfg"
        )
        assert main(["run", "--config", far, "--out", str(tmp_path / "t.csv")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "mp4wm: error: envelope must be finite everywhere"
        ]

    @pytest.mark.parametrize("value", ["0", "-70"])
    @pytest.mark.parametrize("key", ["fwhm_ns", "window_ns"])
    def test_nonpositive_pulse_size_is_config_error(self, tmp_path, capsys, key, value):
        # checked before the grid and the Gaussian are built, whose guards say otherwise
        cfg = write_cfg(tmp_path, BASE + f"{key} = {value}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"mp4wm: config error: {key} must be > 0\n"

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # pulse too wide for the window -> containment guard -> exit 3
        cfg = write_cfg(tmp_path, BASE + "fwhm_ns = 900\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3
        assert "error" in capsys.readouterr().err


# Exit-contract sweep: a small grid and three scan steps keep each command
# cheap; every key may take an extreme value or a valid one, or be dropped (None).
SWEEP_BASE = BASE + "n_samples = 256\nscan_start = 0.5\nscan_stop = 1.0\nscan_steps = 3\n"
SCAN_KEYS = ("scan_start", "scan_stop", "scan_steps")
SWEEP_EXTREMES = ["0", "1", "-1", "1e9", "-1e9", "1e300", "1e-300"]
SWEEP_ORDINARY = {
    "omega_rabi_mhz": "300", "delta_raman_mhz": "2000", "cell_length_cm": "1",
    "eta0": "500", "g2n_mhz2": "1e7", "delta_one_mhz": "30",
    "delta_two_photon_mhz": "0", "gamma_mhz": "5", "gamma_c_over_gamma": "0.01",
    "fwhm_ns": "100", "window_ns": "3000", "pulse_center_ns": "50",
    "n_samples": "512", "dispersion_mode": "full", "propagation_mode": "exact",
    "delta_policy": "fixed", "scan_start": "0.2", "scan_stop": "1.5",
    "scan_steps": "4",
}
SWEEP_OVERRIDE = st.sampled_from(sorted(SWEEP_ORDINARY)).flatmap(
    lambda key: st.tuples(st.just(key),
                          st.sampled_from([*SWEEP_EXTREMES, SWEEP_ORDINARY[key], None]))
)


def test_sweep_ordinary_values_cover_every_key():
    assert set(SWEEP_ORDINARY) == {f.name for f in dataclasses.fields(Config) if f.init}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["run", "scan-delta", "scan-density", "scan-pump", "derive"]),
    overrides=st.lists(SWEEP_OVERRIDE, min_size=1, max_size=3, unique_by=lambda kv: kv[0]),
)
@example(command="derive", overrides=[("omega_rabi_mhz", "1e300")])
@example(command="scan-pump", overrides=[("scan_start", "1e-300")])
@example(command="scan-pump", overrides=[("scan_stop", "1e300")])
@example(command="run", overrides=[("n_samples", "0")])
@example(command="run", overrides=[("delta_raman_mhz", "1"), ("delta_two_photon_mhz", "1e9")])
@example(command="run", overrides=[("pulse_center_ns", "1e9")])
@example(command="run", overrides=[("delta_raman_mhz", "60"), ("gamma_mhz", "30")])
# g^2 N > 0 whose eta0 = 4 g^2 N / Omega^2 underflows to 0, given or at a scan point
@example(command="derive", overrides=[("eta0", None), ("g2n_mhz2", "5e-324")])
@example(command="run", overrides=[("eta0", None), ("g2n_mhz2", "5e-324")])
@example(command="scan-density",
         overrides=[("eta0", None), ("g2n_mhz2", "1e-20"), ("scan_start", "1e-300")])
# one scan key missing: its check is the scan's first step
@example(command="scan-density", overrides=[("scan_start", None)])
def test_every_input_exits_0_2_or_3_with_one_line(tmp_path_factory, command, overrides):
    values = dict(line.split(" = ") for line in SWEEP_BASE.splitlines())
    if any(key == "g2n_mhz2" and value is not None for key, value in overrides):
        values["eta0"] = None  # g2n_mhz2 replaces eta0, unless eta0 is overridden too
    values.update(overrides)
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_cfg(tmp, "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
    argv = [command, "--config", cfg]
    if command != "derive":
        argv += ["--out", str(tmp / "out.csv")]
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)  # an escaping exception fails the test
    assert code in (0, 2, 3)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    assert sum(line.startswith("mp4wm:") for line in stderr.splitlines()) <= 1
    if command.startswith("scan-") and None in (values[key] for key in SCAN_KEYS):
        assert code == 2  # a config error, or then the missing scan key
    if code == 0:
        if out.getvalue():
            strict_json(out.getvalue())
        if command != "derive":
            rows = (tmp / "out.csv").read_text().splitlines()[1:]  # below the header
            cells = [c for row in rows for c in row.split(",") if c]
            assert all(math.isfinite(float(c)) for c in cells)


def test_distinct_warnings_share_one_line(tmp_path, capsys):
    # delta_one = 1e9 MHz breaks both validity limits: two distinct warnings
    cfg = write_cfg(tmp_path, SWEEP_BASE + "delta_one_mhz = 1e9\n")
    with warnings.catch_warnings():
        warnings.simplefilter("always", ModelValidityWarning)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")])
    assert code == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("mp4wm:")]
    assert len(lines) == 1
    assert lines[0].startswith("mp4wm: warning: pump Rabi coupling does not dominate")
    assert lines[0].endswith("; upper-lambda detuning is not far off resonance compared "
                             "with the lower lambda and the linewidth")


# the benchmark's detuning scan: full eta(w), exact reference, 201 points
OFFBAND = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\ndelta_two_photon_mhz = 11.025\n"
           "eta0 = 960\ncell_length_cm = 2.5\ngamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\n"
           "dispersion_mode = full\npropagation_mode = exact\nn_samples = 4096\n"
           "scan_start = -40\nscan_stop = 60\nscan_steps = 201\n")
LINE_CENTER = ("some scan points have |dtilde| > 2 Delta_R where the line-center "
               "approximation breaks down")


@pytest.mark.parametrize("window, clause", [
    # the input's FFT spectrum at a 500 ns window: entries that overflow near
    # the eta(w) pole reach every point's band
    ("500", "201 of 201 points blank (GuardError 201: envelope must be finite "
            "everywhere, first at point 1)"),
    (None, "36 of 201 points blank (FitError 36: no unique dominant peak: 1/e^2 "
           "region is not contiguous, first at point 15)"),
])
def test_the_warning_says_why_points_are_blank(tmp_path, capsys, window, clause):
    text = OFFBAND + (f"window_ns = {window}\n" if window else "")
    outputs = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"offband.{fmt}"
        argv = ["scan-delta", "--config", write_cfg(tmp_path, text), "--out", str(out),
                "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"mp4wm: warning: {LINE_CENTER}; {clause}"]
        outputs[fmt] = out.read_text()
    rows = [row.split(",") for row in outputs["csv"].splitlines()[1:]]
    blank = [i for i, row in enumerate(rows, 1) if not any(row[1:])]
    assert len(rows) == 201 and len(blank) == int(clause.split()[0])
    assert blank[0] == int(clause.rstrip(")").split()[-1])
    # the reasons reach neither data file
    payload = strict_json(outputs["json"])
    assert [i for i, row in enumerate(payload, 1) if row["gain_peak"] is None] == blank
    assert all(set(row) == set(SCAN_HEADER.split(",")) for row in payload)
    assert "Error" not in outputs["csv"] + outputs["json"]

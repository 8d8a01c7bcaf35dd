import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mp4wm
from mp4wm.cli import SCAN_HEADER, TRACE_HEADER, main
from mp4wm.config import MAX_SCAN_STEPS, MHZ, Config, parse_config
from mp4wm.errors import ConfigError
from mp4wm.params import ModelValidityWarning

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
        p = cfg.to_medium_params()
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
        assert set(expected) == {f.name for f in dataclasses.fields(Config)}
        for key, value in expected.items():
            assert getattr(cfg, key) == value, key
            assert type(getattr(cfg, key)) is type(value), key
        cfg = parse_config(text.replace("eta0 = 500", "g2n_mhz2 = 1e7"))
        assert (cfg.eta0, cfg.g2n_mhz2) == (None, 1e7)
        assert cfg.to_medium_params().coupling_g2n == pytest.approx(1e7 * MHZ**2, rel=1e-12)

    def test_readme_table_lists_the_config_fields(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        assert keys == [f.name for f in dataclasses.fields(Config)]

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
        with pytest.raises(ConfigError, match="scan_start"):
            parse_config(BASE).scan_values()


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

    def test_run_zero_length_identity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("cell_length_cm = 2.5", "cell_length_cm = 0"))
        out_csv = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out_csv)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["probe"]["gain_peak"] == pytest.approx(1.0, rel=1e-9)
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
        tr = mp4wm.run_single(config.to_medium_params(), config.to_pulse_config()).traces
        norm = tr.reference.intensity.max()
        columns = (tr.reference.grid.times * 1e9, tr.reference.intensity / norm,
                   tr.probe.intensity / norm, tr.conjugate.intensity / norm)
        rows = [",".join(f"{x:.9g}" for x in row) for row in zip(*columns)]
        assert out_csv.read_bytes() == "\n".join([TRACE_HEADER, *rows, ""]).encode()

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

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["derive", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BASE.encode() + b"# caf\xe9\n")
        assert main(["derive", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(path) in err and "Traceback" not in err

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
        # Delta/2pi = 50 MHz is not far off resonance; derive builds the medium twice
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

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # pulse too wide for the window -> containment guard -> exit 3
        cfg = write_cfg(tmp_path, BASE + "fwhm_ns = 900\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3
        assert "error" in capsys.readouterr().err


# Exit-contract sweep: a small grid and three scan steps keep each command
# cheap; every key may take an extreme value or a valid one.
SWEEP_BASE = BASE + "n_samples = 256\nscan_start = 0.5\nscan_stop = 1.0\nscan_steps = 3\n"
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
    lambda key: st.tuples(st.just(key), st.sampled_from([*SWEEP_EXTREMES, SWEEP_ORDINARY[key]]))
)


def test_sweep_ordinary_values_cover_every_key():
    assert set(SWEEP_ORDINARY) == {f.name for f in dataclasses.fields(Config)}


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
def test_every_input_exits_0_2_or_3_with_one_line(tmp_path_factory, command, overrides):
    values = dict(line.split(" = ") for line in SWEEP_BASE.splitlines())
    values.update(overrides)
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_cfg(tmp, "".join(f"{k} = {v}\n" for k, v in values.items()))
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

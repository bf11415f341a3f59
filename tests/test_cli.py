import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

import fdma.experiments
from fdma.cli import _fmt, _write_csv, main
from fdma.config import ConfigError, parse_config_text
from fdma.model import SPEED_OF_LIGHT
from fdma.scenario import default_baseline_params, make_linear_fda, place_canonical_eves

from conftest import F0, cli_env

BASE_CONFIG = """
# stock scenario, shrunk for test runtimes
f0_hz = 30e9
m = 9
k = 3
seed = 424242
grid_x_min_m = 10
grid_x_max_m = 50
grid_y_min_m = 60
grid_y_max_m = 100
grid_resolution_m = 2
m_values = 5, 7
k_values = 0, 2
sweep_k_m_values = 9
trials = 2
sa_iterations = 400
sa_rounds = 2
"""


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "fdma", *args], cwd=cwd,
                          env=cli_env(), capture_output=True, text=True)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def assert_manifest_telemetry(out, stages):
    "The manifest's per-stage wall times and the environment the run saw."
    manifest = json.loads((out / "manifest.json").read_text())
    seconds = manifest["stage_seconds"]
    assert sorted(seconds) == sorted(stages)
    assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": len(os.sched_getaffinity(0)),
    }


# Column strategies for the CSV writer: every float kind the tables carry
# (signed zero, infinities, nan, subnormals, numpy scalars), and ints and
# bools up to the 64-bit range of derive_seed.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1 / 3]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
)
INTS = st.one_of(
    st.integers(-(2**63), 2**64 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
COLUMNS = {"%.17g": FLOATS, "%d": INTS, "%s": TEXT}


class TestCsvWriter:
    @pytest.mark.parametrize("fmt", [
        "%.17g,%.17g,%.17g",        # raster
        "%d,%.17g,%.17g,%d,%.17g",  # SA trace
        "%d,%s,%.17g,%d",           # perturbation trace
        "%d,%s,%.17g,%d,%d",        # sweep
        "%d,%.17g,%.17g,%.17g,%.17g",  # compare
    ])
    @given(data=st.data())
    def test_matches_per_cell_reference(self, fmt, data):
        row = st.tuples(*(COLUMNS[spec] for spec in fmt.split(",")))
        rows = data.draw(st.lists(row, max_size=8))
        footer = data.draw(st.dictionaries(st.sampled_from(["initial_cost", "final_cost"]),
                                           FLOATS))
        header = [f"c{i}" for i in range(fmt.count(",") + 1)]
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in r) for r in rows]
        lines += [f"# {key}={_fmt(value)}" for key, value in footer.items()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_csv(path, header, fmt, rows, footer=footer)
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config_text("f0_hz = 30e9\nm = 5\nseed = 7")
        assert cfg.m == 5 and cfg.seed == 7
        assert cfg.tx_power_dbm == 5.0
        assert cfg.m_values == (11, 15, 21, 27, 31)

    def test_missing_f0_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("m = 5")
        assert err.value.key == "f0_hz"

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\nbogus = 1")
        assert err.value.key == "bogus" and err.value.line == 2

    @pytest.mark.parametrize("raw", ["thirty", "inf", "-inf", "nan"])
    def test_unparseable_value(self, raw):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"m = 9\nf0_hz = {raw}")
        assert err.value.key == "f0_hz" and err.value.line == 2

    def test_polar_receiver_form(self):
        cfg = parse_config_text("f0_hz = 30e9\nbob_range_m = 50\nbob_angle_deg = 90")
        r, theta = cfg.bob_polar()
        assert r == 50.0 and abs(theta - math.pi / 2) < 1e-12

    def test_conflicting_receiver_forms(self):
        with pytest.raises(ConfigError):
            parse_config_text("f0_hz = 30e9\nbob_x_m = 1\nbob_range_m = 2")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("\n# comment\nf0_hz = 30e9  # trailing\n\n")
        assert cfg.f0_hz == 30e9

    def test_uppercase_aliases(self):
        cfg = parse_config_text("f0_hz = 30e9\nM = 13\nK = 2")
        assert cfg.m == 13 and cfg.k == 2


class TestBeampatternCommand:
    def test_raster_contract(self, config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out),
                          "--kind", "CPA", "beampattern"], tmp_path)
        assert result.returncode == 0, result.stderr
        lines = (out / "raster.csv").read_text().splitlines()
        assert lines[0] == "x_m,y_m,power_db"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 21 * 21  # 2 m steps over a 40 m box, inclusive
        assert all(float(r[2]) <= 1e-6 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment_id"] == "beampattern/CPA"
        assert manifest["master_seed"] == 424242
        assert "raster.csv" in manifest["outputs"]
        assert_manifest_telemetry(out, ["design", "raster", "write"])

    # Rasters draw no random numbers, so these bytes hold across optimizer
    # changes; the digests were taken from the per-cell writer.
    @pytest.mark.parametrize("kind,digest", [
        ("CPA", "c8d5121a1466d55d22d4ad51b9464bc353ca56d4bce31dbf345d30a2990a041c"),
        ("LINEAR_FDA", "60031f29b402af4e65ab2d1b1ac208659df193336338850bcd58e7d2ab45040b"),
    ])
    def test_raster_bytes_pinned(self, tmp_path, kind, digest):
        config = tmp_path / "pin.cfg"
        config.write_text(
            "f0_hz = 30e9\nm = 21\nk = 3\nseed = 7\n"
            "grid_x_min_m = 20\ngrid_x_max_m = 40\n"
            "grid_y_min_m = 80\ngrid_y_max_m = 100\n"
            "grid_resolution_m = 1\n")
        out = tmp_path / "out"
        result = run_cli(["--config", str(config), "--out", str(out),
                          "--kind", kind, "beampattern"], tmp_path)
        assert result.returncode == 0, result.stderr
        raster = (out / "raster.csv").read_bytes()
        assert raster.count(b"\n") == 1 + 21 * 21
        assert hashlib.sha256(raster).hexdigest() == digest

    def test_peak_memory_bounded_by_a_column(self, tmp_path):
        # 201 x 200 cells at M = 21: one full-grid N x M complex128 matrix
        # takes 13.5 MB, a 200-cell column 67 kB.
        config = tmp_path / "mem.cfg"
        config.write_text(
            "f0_hz = 30e9\nm = 21\nk = 3\n"
            "grid_x_min_m = -100\ngrid_x_max_m = 100\n"
            "grid_y_min_m = 1\ngrid_y_max_m = 200\n"
            "grid_resolution_m = 1\n")
        argv = ["--config", str(config), "--kind", "LINEAR_FDA"]
        # The warm-up keeps imports and lazy set-up out of the traced peak.
        assert main([*argv, "--out", str(tmp_path / "warm"), "beampattern"]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "out"), "beampattern"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "out" / "raster.csv").read_bytes().count(b"\n")
        assert rows == 1 + 201 * 200
        assert peak < 201 * 200 * 21 * 16 / 4, f"traced peak {peak / 1e6:.2f} MB"

    def test_failed_raster_leaves_no_file(self, config_path, tmp_path, monkeypatch, capsys):
        kernel = fdma.experiments.beampattern_batch
        calls = []

        def failing_kernel(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("kernel failed on the third column")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fdma.experiments, "beampattern_batch", failing_kernel)
        out = tmp_path / "out"
        assert main(["--config", str(config_path), "--out", str(out),
                     "--kind", "CPA", "beampattern"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "RuntimeError",
                          "message": "kernel failed on the third column"}
        assert not (out / "raster.csv").exists()
        assert not (out / "raster.csv.tmp").exists()

    def test_missing_required_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("m = 5\n")
        result = run_cli(["--config", str(bad), "beampattern"], tmp_path)
        assert result.returncode != 0
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert record["key"] == "f0_hz"

    def test_rasters_byte_identical_across_runs(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = run_cli(["--config", str(config_path), "--out", str(out),
                              "--kind", "LINEAR_FDA", "beampattern"], tmp_path)
            assert result.returncode == 0, result.stderr
        assert (out1 / "raster.csv").read_bytes() == (out2 / "raster.csv").read_bytes()

    @pytest.mark.slow
    def test_perturbed_run_suppresses_adversary_cells(self, tmp_path):
        # Paired rasters on a fine grid around the adversaries: the
        # closed-form design must sit at least 20 dB under the linear ramp
        # at every canonical adversary cell.
        config = tmp_path / "fine.cfg"
        config.write_text(
            "f0_hz = 30e9\nm = 21\nk = 3\nseed = 7\n"
            "grid_x_min_m = 20\ngrid_x_max_m = 50\n"
            "grid_y_min_m = 60\ngrid_y_max_m = 95\n"
            "grid_resolution_m = 0.0625\n")
        cfg = parse_config_text(config.read_text())
        values = {}
        for kind in ("LINEAR_FDA", "FDMA_OPT2"):
            out = tmp_path / kind
            result = run_cli(["--config", str(config), "--out", str(out),
                              "--kind", kind, "beampattern"], tmp_path)
            assert result.returncode == 0, result.stderr
            grid = {}
            for line in (out / "raster.csv").read_text().splitlines()[1:]:
                x, y, p = line.split(",")
                grid[(float(x), float(y))] = float(p)
            values[kind] = grid
        bob = cfg.bob()
        eves = place_canonical_eves(21, bob, cfg.baseline_params(), cfg.link_budget(),
                                    cfg.f0_hz, cfg.speed_of_light)
        cells = list(values["LINEAR_FDA"].keys())
        margins = []
        for eve in eves:
            ex = eve.range_m * math.cos(eve.angle_rad)
            ey = eve.range_m * math.sin(eve.angle_rad)
            cell = min(cells, key=lambda c: (c[0] - ex) ** 2 + (c[1] - ey) ** 2)
            margins.append(values["LINEAR_FDA"][cell] - values["FDMA_OPT2"][cell])
        assert min(margins) >= 20.0, \
            f"per-adversary suppression at raster cells: {margins} dB"


class TestOptimizeCommand:
    def test_perturb_with_no_adversaries_returns_baseline(self, tmp_path):
        config = tmp_path / "k0.cfg"
        config.write_text("f0_hz = 30e9\nm = 9\nk = 0\n")
        out = tmp_path / "out"
        result = run_cli(["--config", str(config), "--out", str(out),
                          "optimize", "--method", "perturb"], tmp_path)
        assert result.returncode == 0, result.stderr
        doc = json.loads((out / "design.json").read_text())
        params = default_baseline_params(9, F0, SPEED_OF_LIGHT)
        baseline = make_linear_fda(9, params, F0)
        np.testing.assert_array_equal(doc["positions_m"], baseline.positions)
        np.testing.assert_array_equal(doc["freq_shifts_hz"], baseline.freq_shifts)

    def test_sa_runs_are_byte_identical(self, config_path, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            result = run_cli(["--config", str(config_path), "--out", str(out),
                              "optimize", "--method", "sa"], tmp_path)
            assert result.returncode == 0, result.stderr
            outs.append(out)
        assert (outs[0] / "design.json").read_bytes() == (outs[1] / "design.json").read_bytes()
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()

    def test_trace_footer_shows_improvement(self, config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out),
                          "optimize", "--method", "sa"], tmp_path)
        assert result.returncode == 0, result.stderr
        footer = {}
        lines = (out / "trace.csv").read_text().splitlines()
        for line in lines:
            if line.startswith("# "):
                key, value = line[2:].split("=", 1)
                footer[key] = float(value)
        assert footer["final_cost"] <= footer["initial_cost"]
        best_costs = [float(line.split(",")[4]) for line in lines[1:]
                      if not line.startswith("# ")]
        assert min(best_costs) == footer["final_cost"]
        assert_manifest_telemetry(out, ["optimize", "write"])

    def test_seed_flag_changes_design(self, config_path, tmp_path):
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            result = run_cli(["--config", str(config_path), "--seed", seed,
                              "--out", str(out), "optimize", "--method", "sa"],
                             tmp_path)
            assert result.returncode == 0, result.stderr
            docs.append(json.loads((out / "design.json").read_text()))
        assert docs[0]["positions_m"] != docs[1]["positions_m"]


class TestSweepCommands:
    def test_sweep_m_rows_and_upper_bound(self, config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out), "sweep-m"],
                         tmp_path)
        assert result.returncode == 0, result.stderr
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,configuration,secrecy_rate,seed,trial"
        rows = [line.split(",") for line in lines[1:]]
        pairs = {(int(r[0]), r[1]) for r in rows}
        kinds = {kind for _, kind in pairs}
        assert len(pairs) == 2 * 9 and len(kinds) == 9
        ubs = {int(r[0]): float(r[2]) for r in rows if r[1] == "UPPER_BOUND"}
        assert ubs[5] < ubs[7]
        assert_manifest_telemetry(out, ["sweep", "write"])

    def test_sweep_k_zero_adversaries_hits_upper_bound(self, config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out),
                          "sweep-k"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line
                in (out / "sweep.csv").read_text().splitlines()[1:]]
        k0 = {float(r[2]) for r in rows if r[0] == "0"}
        assert len(k0) == 1  # every configuration and trial reports the bound


class TestCompareCommand:
    def test_round_trip(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, method in ((out_a, "sa"), (out_b, "perturb")):
            result = run_cli(["--config", str(config_path), "--out", str(out),
                              "optimize", "--method", method], tmp_path)
            assert result.returncode == 0, result.stderr
        out = tmp_path / "cmp"
        result = run_cli(["--config", str(config_path), "--out", str(out), "compare",
                          "--design-a", str(out_a / "design.json"),
                          "--design-b", str(out_b / "design.json")], tmp_path)
        assert result.returncode == 0, result.stderr
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "antenna,pos_a_lambda,pos_b_lambda,shift_a_mhz,shift_b_mhz"
        assert len(lines) == 1 + 9
        assert_manifest_telemetry(out, ["compare", "write"])

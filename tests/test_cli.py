import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import platform
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

import fdma.experiments
import fdma.cli
from fdma.cli import _design_document, _fmt, _json_dumps, _split_rows, _write_csv, \
    _write_json, main
from fdma.config import ConfigError, RunConfig, parse_config_text
from fdma.experiments import ALL_KINDS, ConfigurationKind, sweep_vs_num_antennas
from fdma.model import SPEED_OF_LIGHT
from fdma.scenario import DEFAULT_EVE_DOMAIN, LinkBudgetConfig, default_baseline_params, \
    dbm_to_milliwatts, make_cpa, make_linear_fda, place_canonical_eves

from conftest import F0, cli_env

# Small optimizer budgets for the pinned-bytes runs of optimize and the sweeps.
PIN_CONFIG = """\
f0_hz = 30e9
m = 9
k = 3
seed = 11
m_values = 5, 7
k_values = 1, 2
sweep_k_m_values = 9
trials = 1
sa_iterations = 200
sa_rounds = 1
"""

# The stock shape with two rounds of 2,000 iterations: past iteration 449
# the schedule is frozen and cost deltas sit near zero, where a change of
# floating-point arithmetic in the annealer would first flip a decision.
PIN_CONFIG_M21 = """\
f0_hz = 30e9
m = 21
k = 3
seed = 11
sa_iterations = 2000
sa_rounds = 2
"""

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


# Three canonical adversaries against three antennas: a positive ramp keeps
# E1 in front of the array, so only the K < M rule rejects it.
TOO_FEW_ANTENNAS = "f0_hz = 30e9\nm = 3\nk = 3\ndelta_f_hz = 1e6\n"


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "fdma", *args], cwd=cwd,
                          env=cli_env(), capture_output=True, text=True)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def assert_manifest_telemetry(out, stages, cooling_factor=None, jobs=None):
    """The manifest's per-stage wall times and the environment the run saw.

    For an annealing run (cooling_factor given) also its schedule summary,
    recounted from trace.csv; other runs carry none.  For a sweep (jobs
    given: the job labels in the order the sweep builds them) also its
    worker count and one wall time per job, each within the sweep stage;
    other runs carry neither.
    """
    assert not list(out.glob("*.tmp")), "a temporary file was left behind"
    manifest = json.loads((out / "manifest.json").read_text())
    if cooling_factor is None:
        assert "annealer" not in manifest
    else:
        assert_annealer_summary(manifest["annealer"], out / "trace.csv", cooling_factor)
    seconds = manifest["stage_seconds"]
    assert sorted(seconds) == sorted(stages)
    assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())
    if jobs is None:
        assert "workers" not in manifest and "jobs" not in manifest
    else:
        assert manifest["workers"] == min(len(os.sched_getaffinity(0)), len(jobs))
        assert [job["label"] for job in manifest["jobs"]] == jobs
        assert all(sorted(job) == ["label", "seconds"] for job in manifest["jobs"])
        assert all(isinstance(job["seconds"], float)
                   and 0.0 <= job["seconds"] <= seconds["sweep"] for job in manifest["jobs"])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "cpu_count": len(os.sched_getaffinity(0)),
    }


def assert_no_child_processes():
    "No child of this process is left, running or unreaped."
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_annealer_summary(summary, trace_csv, alpha):
    "Iterations and acceptances per decade of T/T0 = alpha**t, recounted from the trace."
    t_freeze = 1
    while alpha ** t_freeze >= 1e-10:
        t_freeze += 1
    assert summary["freeze_iteration"] == t_freeze
    rows = [line.split(",") for line in trace_csv.read_text().splitlines()[1:]
            if not line.startswith("# ")]
    edges = [float(f"1e-{j}") for j in range(11)] + [0.0]
    expected = []
    for j in range(11):
        inside = [r for r in rows if edges[j + 1] <= alpha ** int(r[0]) < edges[j]]
        expected.append({"t_over_t0": f"{edges[j + 1]:g} to {edges[j]:g}",
                         "iterations": len(inside),
                         "accepted": sum(r[3] == "1" for r in inside)})
    expected[-1]["t_over_t0"] = "below 1e-10"
    assert summary["decades"] == expected
    assert sum(row["iterations"] for row in summary["decades"]) == len(rows)


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

# JSON values without floats, which the writer prints with 17 significant
# digits where json.dumps prints the shortest repr.
JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | TEXT,
                           lambda values: st.lists(values) | st.dictionaries(TEXT, values))


def _cell(value) -> str:
    "Per-cell reference for the CSV writer: what each column type must print as."
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def test_import_leaves_out_scipy_linalg():
    # Only the closed-form solver needs scipy.linalg, and it imports it itself.
    child = subprocess.run([sys.executable, "-c",
                            "import sys, fdma.cli; print('scipy.linalg' in sys.modules)"],
                           env=cli_env(), capture_output=True, text=True, check=True)
    assert child.stdout.split() == ["False"]


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
        # Rows split into up to three blocks, so the forked path is held to
        # the same reference; empty blocks included.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        edges = [0, *cuts, len(rows)]
        blocks = [rows[start:stop] for start, stop in zip(edges, edges[1:])]
        footer = data.draw(st.dictionaries(st.sampled_from(["initial_cost", "final_cost"]),
                                           FLOATS))
        header = [f"c{i}" for i in range(fmt.count(",") + 1)]
        lines = [",".join(header)]
        lines += [",".join(_cell(cell) for cell in r) for r in rows]
        lines += [f"# {key}={_fmt(value)}" for key, value in footer.items()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_csv(path, header, fmt, blocks, footer=footer)
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
            assert os.listdir(tmp) == ["t.csv"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            _write_csv(path, ["n"], "%d", [[(1,), ("not a number",)]])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_forked_block_keeps_previous_file(self, tmp_path):
        # The bad row is in the last block, which a child renders: its
        # exception comes back to the caller and no part file is left.
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        with pytest.raises(TypeError, match="number is required"):
            _write_csv(path, ["n"], "%d", [[(1,)], [(2,)], [(3,), ("not a number",)]])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_processes()

    @pytest.mark.parametrize("failure", ["killed", "unpicklable"])
    def test_child_failure_that_cannot_come_back(self, tmp_path, failure):
        # The forked block's second row, after the first was rendered, either
        # kills the child that renders it or raises an exception whose class
        # is local to this test, which does not pickle.
        writer = os.getpid()

        class LocalError(Exception):
            pass

        class BadRow:
            def __str__(self):
                if failure == "unpicklable":
                    raise LocalError("raised in the child")
                if os.getpid() != writer:
                    os.kill(os.getpid(), signal.SIGKILL)
                return "never written"

        path = tmp_path / "t.csv"
        path.write_text("old\n")
        with pytest.raises(ChildProcessError):
            _write_csv(path, ["s"], "%s", [[("a",)], [("b",), (BadRow(),), ("c",)]])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_processes()

    def test_file_at_a_part_name_is_never_read(self, tmp_path):
        # A pickled exception planted where a part could be named is neither
        # returned nor touched: a child that exits with status 1 and leaves
        # no exception is a ChildProcessError, and a clean run ignores it.
        writer = os.getpid()

        class ExitRow:
            def __str__(self):
                if os.getpid() != writer:
                    os._exit(1)
                return "never written"

        path = tmp_path / "t.csv"
        planted = tmp_path / "t.csv.1.tmp"
        planted.write_bytes(pickle.dumps(ValueError("planted")))
        with pytest.raises(ChildProcessError):
            _write_csv(path, ["s"], "%s", [[("a",)], [(ExitRow(),)]])
        _write_csv(path, ["s"], "%s", [[("a",)], [("b",)]])
        assert path.read_text() == "s\na\nb\n"
        assert planted.read_bytes() == pickle.dumps(ValueError("planted"))
        assert sorted(tmp_path.iterdir()) == [path, planted]
        assert_no_child_processes()

    @pytest.mark.parametrize("count,cpus,lengths", [
        (0, 2, [0]), (1, 7, [1]), (2, 7, [1, 1]), (5, 3, [1, 2, 2]), (21, 2, [10, 11]),
        (21, 1, [21]),
    ])
    def test_split_rows(self, monkeypatch, count, cpus, lengths):
        monkeypatch.setattr(fdma.cli, "available_cpus", lambda: cpus)
        spans = _split_rows(count)
        assert [len(range(count)[span]) for span in spans] == lengths
        assert [i for span in spans for i in range(count)[span]] == list(range(count))


@given(JSON_VALUES)
def test_json_writer_layout_matches_json_dumps(obj):
    assert _json_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


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

    @pytest.mark.parametrize("text,key,m", [
        ("aperture_over_lambda = 5\nm = 21", "m", 21),
        ("aperture_over_lambda = 5\nm = 11\nm_values = 11, 21\nsweep_k_m_values = 11",
         "m_values", 21),
        ("aperture_over_lambda = 5\nm = 11\nm_values = 11\nsweep_k_m_values = 11, 15",
         "sweep_k_m_values", 15),
        # An unset aperture_over_lambda means M wavelengths: at M = 5 the span
        # 4 x 2.5 fits 2 x 5, at M = 6 the span 5 x 2.5 exceeds 2 x 6.
        ("delta_d_over_lambda = 2.5\nm = 5\nm_values = 5\nsweep_k_m_values = 5, 6",
         "sweep_k_m_values", 6),
    ])
    def test_baseline_grid_wider_than_aperture(self, text, key, m):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\n" + text)
        assert err.value.key == key
        assert f"M = {m} " in str(err.value)

    def test_baseline_grid_that_fits_is_accepted(self):
        cfg = parse_config_text("f0_hz = 30e9\naperture_over_lambda = 7.5\nm = 21\n"
                                "m_values = 21\nsweep_k_m_values = 11, 21")
        assert cfg.aperture_over_lambda == 7.5

    def test_baseline_spacing_below_minimum(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\ndelta_d_over_lambda = 0.4")
        assert err.value.key == "delta_d_over_lambda"

    @pytest.mark.parametrize("text,keys", [
        ("sa_cooling = 1.5", {"sa_cooling"}),
        ("sa_iterations = 0", {"sa_iterations"}),
        ("sa_rounds = -1", {"sa_rounds"}),
        ("perturb_tol = 0", {"perturb_tol"}),
        ("ridge_frequency = -1", {"ridge_frequency"}),
        ("grid_resolution_m = 0", {"grid_resolution_m"}),
        ("grid_x_min_m = 5\ngrid_x_max_m = -5", {"grid_x_min_m", "grid_x_max_m"}),
        ("delta_f_min_hz = 10e6\ndelta_f_max_hz = -10e6", {"delta_f_min_hz", "delta_f_max_hz"}),
        ("eve_r_min_m = 300", {"eve_r_min_m", "eve_r_max_m"}),
        ("eve_theta_max_deg = 200", {"eve_theta_max_deg"}),
        ("ref_path_loss_db = -1", {"ref_path_loss_db"}),
        ("sa_round_tol = 0", {"sa_round_tol"}),
    ])
    def test_rejected_value_names_its_keys(self, text, keys):
        # Each of these used to parse, and the command failed later with a
        # library ValueError that named no key.
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\n" + text)
        assert keys <= set(err.value.key.split(", ")), err.value.key

    def test_alternation_keys_feed_the_annealer(self):
        cfg = parse_config_text("f0_hz = 30e9\nsa_rounds = 2\nsa_round_tol = 0.5")
        assert (cfg.annealer().max_rounds, cfg.annealer().relative_tolerance) == (2, 0.5)

    @pytest.mark.parametrize("text,key", [
        ("bob_x_m = 30", "bob_y_m"),
        ("bob_y_m = 90", "bob_x_m"),
        ("bob_range_m = 50", "bob_angle_deg"),
        ("bob_angle_deg = 60", "bob_range_m"),
        ("bob_x_m = 30\nbob_y_m = -90", "bob_y_m"),
        ("bob_range_m = 50\nbob_angle_deg = 180", "bob_angle_deg"),
        ("bob_range_m = 0\nbob_angle_deg = 60", "bob_range_m"),
    ])
    def test_receiver_keys_checked(self, text, key):
        # Half a coordinate pair, or a receiver off the half plane, used to
        # parse and then fail the command with an error that named no key.
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\n" + text)
        assert key in err.value.key.split(", "), err.value.key

    @pytest.mark.parametrize("text,key", [
        ("k_values = 1, 21", "k_values"),
        ("k_values = 1, 9\nsweep_k_m_values = 9, 21", "k_values"),
        ("k_values =", "k_values"),
        ("k_values = -1, 2", "k_values"),
        ("m_values = 3, 5", "m_values"),
        ("m_values =", "m_values"),
        ("sweep_k_m_values =", "sweep_k_m_values"),
    ])
    def test_sweep_lists_checked(self, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\n" + text)
        assert err.value.key == key

    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\nseed = -1")
        assert err.value.key == "seed"
        config = tmp_path / "run.cfg"
        config.write_text("f0_hz = 30e9\nm = 9\n")
        assert main(["--config", str(config), "--seed", "-1", "--out", str(tmp_path / "out"),
                     "optimize", "--method", "sa"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["key"] == "seed"

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\ntrials = 0")
        assert err.value.key == "trials"

    def test_config_is_frozen(self):
        cfg = parse_config_text("f0_hz = 30e9\nsa_cooling = 0.9")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sa_cooling = 1.5
        assert dataclasses.replace(cfg, seed=5).annealer().seed == 5

    def test_command_reports_misplaced_adversary_before_running(self, tmp_path, capsys):
        config = tmp_path / "small.cfg"
        config.write_text("f0_hz = 30e9\nm = 4\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "beampattern"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["key"] == "m, delta_f_hz"
        assert "E1 behind the array" in record["message"]
        assert not out.exists()

    def test_command_reports_rejected_value_before_running(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(BASE_CONFIG + "sa_cooling = 1.5\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--kind", "CPA",
                     "beampattern"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "sa_cooling" in record["key"].split(", ")
        assert "cooling_factor must lie in (0, 1)" in record["message"]
        assert not out.exists()

    def test_int_fields_parse_as_ints(self):
        # The parser reads each key's type from RunConfig's annotations, so a
        # new int key cannot be parsed as a float.
        hints = typing.get_type_hints(RunConfig)
        int_fields = [field for field in dataclasses.fields(RunConfig)
                      if hints[field.name] in (int, tuple[int, ...])]
        assert len(int_fields) == 10
        for field in int_fields:
            is_tuple = isinstance(field.default, tuple)
            text = ", ".join(map(str, field.default)) if is_tuple else str(field.default)
            parsed = getattr(parse_config_text(f"f0_hz = 30e9\n{field.name} = {text}"),
                             field.name)
            assert parsed == field.default and type(parsed) is type(field.default)
            assert {type(v) for v in (parsed if is_tuple else (parsed,))} == {int}, field.name

    def test_adversaries_not_fewer_than_antennas_rejected(self):
        # The optimizers' K < M rule, checked at parse on the canonical scenario.
        with pytest.raises(ConfigError) as err:
            parse_config_text(TOO_FEW_ANTENNAS)
        assert err.value.key == "m, k"
        assert "need fewer eavesdroppers than antennas" in str(err.value)

    def test_command_reports_too_few_antennas_before_running(self, tmp_path, capsys):
        # This used to parse, and optimize then failed with a ValueError naming no key.
        config = tmp_path / "small.cfg"
        config.write_text(TOO_FEW_ANTENNAS)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "optimize", "--method", "perturb"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["key"] == "m, k"
        assert not out.exists()

    def test_uppercase_aliases(self):
        cfg = parse_config_text("f0_hz = 30e9\nM = 13\nK = 2")
        assert cfg.m == 13 and cfg.k == 2

    @pytest.mark.parametrize("text,keys", [
        ("m = 4", {"m", "delta_f_hz"}),
        ("m_values = 4, 11", {"m_values", "delta_f_hz"}),
        ("delta_f_hz = 0", {"delta_f_hz"}),
        ("k = 0\ndelta_f_hz = 0", {"m_values", "delta_f_hz"}),
    ])
    def test_canonical_adversaries_placed_at_parse(self, text, keys):
        # Each of these used to parse, and beampattern, optimize or sweep-m
        # then failed placing the adversaries with an error that named no key.
        with pytest.raises(ConfigError) as err:
            parse_config_text("f0_hz = 30e9\n" + text)
        assert keys <= set(err.value.key.split(", ")), err.value.key

    @pytest.mark.parametrize("text,keys", [
        # The stock -1 MHz ramp reaches 15 MHz at M = 31 and the box 10 MHz,
        # both above 0.001 * f0 = 2.4 MHz.
        ("f0_hz = 2.4e9", {"f0_hz", "delta_f_hz", "delta_f_min_hz", "delta_f_max_hz"}),
        ("f0_hz = 2.4e9\ndelta_f_hz = -0.1e6", {"f0_hz", "delta_f_min_hz", "delta_f_max_hz"}),
        # The limit is exclusive: 15 MHz at M = 31 against 0.001 * 15 GHz.
        ("f0_hz = 15e9", {"f0_hz", "delta_f_hz"}),
        ("f0_hz = 30e9\ndelta_f_max_hz = 30e6", {"f0_hz", "delta_f_max_hz"}),
    ])
    def test_shift_plan_checked_against_narrowband_limit(self, text, keys):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert keys == set(err.value.key.split(", ")), err.value.key
        assert "0.001 * f0" in str(err.value)

    @pytest.mark.parametrize("text", [
        "f0_hz = 30e9\nm = 4\nk = 0",  # beampattern and optimize place no adversary
        "f0_hz = 30e9\nk = 5",  # checked when beampattern or optimize runs
        "f0_hz = 15.0001e9",  # the stock ramp's 15 MHz at M = 31 just fits
        # meets_min_spacing's relative slack, which BaselineParams applies too
        f"f0_hz = 30e9\ndelta_d_over_lambda = {0.5 * (1 - 1e-12)!r}",
        TOO_FEW_ANTENNAS.replace("k = 3", "k = 0"),  # no adversary to outnumber
    ])
    def test_configs_that_still_parse(self, text):
        parse_config_text(text)

    def test_scenario_places_canonical_adversaries(self):
        cfg = parse_config_text("f0_hz = 30e9\nm = 9\nk = 3")
        eves = place_canonical_eves(9, cfg.bob(), cfg.baseline_params(), cfg.link_budget(),
                                    cfg.f0_hz, cfg.speed_of_light)
        assert cfg.scenario() == dataclasses.replace(cfg.base_scenario(), eves=eves)
        assert dataclasses.replace(cfg, k=0).scenario() == cfg.base_scenario()
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, k=2).scenario()
        assert err.value.key == "k"

    def test_configured_ridge_reaches_perturber(self):
        cfg = parse_config_text("f0_hz = 30e9\nridge_position = 0.25\nridge_frequency = 3e-5")
        assert (cfg.perturber().ridge_position, cfg.perturber().ridge_frequency) == (0.25, 3e-5)

    @pytest.mark.parametrize("f0", [24e9, 28e9, 30e9, 77e9])
    def test_stock_config_matches_library_defaults(self, f0):
        # The CLI takes its scenario from the config, while library callers
        # (the benchmark's rate bound, the tests' default_grid) take the
        # library defaults: stock values must agree to the bit.
        cfg = RunConfig(f0_hz=f0)
        for m in (4, 9, 21, 31, 64):
            assert cfg.baseline_params(m) == default_baseline_params(m, f0, SPEED_OF_LIGHT)
        assert cfg.baseline_params() == default_baseline_params(cfg.m, f0, SPEED_OF_LIGHT)
        assert cfg.link_budget() == LinkBudgetConfig()
        assert cfg.eve_domain() == DEFAULT_EVE_DOMAIN
        assert cfg.base_scenario().tx_power_linear == \
            dbm_to_milliwatts(LinkBudgetConfig().tx_power_dbm)


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

    # BASE_CONFIG's grid has 21 columns (x = 10, 12, ..., 50 m); three
    # workers render x <= 22, 24..36 and 38..50 m, the last two in children.
    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failed_block_leaves_no_file_or_process(self, config_path, tmp_path, monkeypatch,
                                                     capsys, where):
        kernel = fdma.experiments.beampattern_batch
        failing_x = 50.0 if where == "child" else 10.0

        def failing_kernel(design, ranges, cosines, *args, **kwargs):
            x = float(ranges[0] * cosines[0])
            if abs(x - failing_x) < 1e-6:
                raise ArithmeticError(f"kernel failed at x = {failing_x:g} m")
            if where == "parent" and x > 23.0:
                time.sleep(30.0)  # the children are still running when the parent fails
            return kernel(design, ranges, cosines, *args, **kwargs)

        monkeypatch.setattr(fdma.experiments, "beampattern_batch", failing_kernel)
        monkeypatch.setattr(fdma.cli, "available_cpus", lambda: 3)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["--config", str(config_path), "--out", str(out),
                     "--kind", "CPA", "beampattern"]) == 1
        assert time.perf_counter() - start < 15.0, "the children were waited for, not killed"
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ArithmeticError",
                          "message": f"kernel failed at x = {failing_x:g} m"}
        assert list(out.glob("raster.csv*")) == []
        assert_no_child_processes()

    @pytest.mark.parametrize("columns", [1, 2, 5, 21])
    def test_raster_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch, columns):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "f0_hz = 30e9\nm = 9\nk = 3\n"
            f"grid_x_min_m = 10\ngrid_x_max_m = {10 + 2 * columns - 1}\n"
            "grid_y_min_m = 60\ngrid_y_max_m = 100\ngrid_resolution_m = 2\n")
        rasters = {}
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(fdma.cli, "available_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["--config", str(config), "--out", str(out),
                         "--kind", "LINEAR_FDA", "beampattern"]) == 0
            rasters[cpus] = (out / "raster.csv").read_bytes()
            assert not list(out.glob("*.tmp"))
        assert rasters[1].count(b"\n") == 1 + columns * 21
        assert all(raster == rasters[1] for raster in rasters.values())
        assert_no_child_processes()

    def test_runs_where_the_os_has_no_affinity_set(self, config_path, tmp_path,
                                                   monkeypatch):
        # macOS has no os.sched_getaffinity: the manifest and the sweeps
        # fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        out = tmp_path / "out"
        assert main(["--config", str(config_path), "--out", str(out),
                     "--kind", "CPA", "beampattern"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["cpu_count"] == (os.cpu_count() or 1)
        kinds = [ConfigurationKind.MA_OPT1] * 2 * (os.cpu_count() or 1)
        assert fdma.experiments.job_workers(kinds) == (os.cpu_count() or 1)

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
        assert_manifest_telemetry(out, ["optimize", "write"],
                                  cooling_factor=parse_config_text(BASE_CONFIG).sa_cooling)

    def test_zero_round_sa_trace_has_no_rows(self, tmp_path):
        config = tmp_path / "r0.cfg"
        config.write_text("f0_hz = 30e9\nm = 9\nsa_rounds = 0\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "optimize", "--method", "sa"]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,temperature,cost,accepted,best_cost"
        assert [line.split("=")[0] for line in lines[1:]] == ["# initial_cost",
                                                              "# final_cost"]

    @pytest.mark.parametrize("m", [5, 21])
    def test_sa_trace_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch, m):
        config = tmp_path / "sa.cfg"
        config.write_text(f"f0_hz = 30e9\nm = {m}\nk = 3\nsa_iterations = 50\n"
                          "sa_rounds = 1\n")
        traces = {}
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(fdma.cli, "available_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["--config", str(config), "--out", str(out),
                         "optimize", "--method", "sa"]) == 0
            traces[cpus] = (out / "trace.csv").read_bytes()
            assert not list(out.glob("*.tmp"))
        assert traces[1].count(b"\n") == 1 + 2 * 50 + 2
        assert all(trace == traces[1] for trace in traces.values())
        assert_no_child_processes()

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


class TestOptimizerOutputsPinned:
    # The optimizer runs draw their randomness from fixed seeds, so any
    # change of design, random stream or formatting shows in these bytes.
    @pytest.mark.parametrize("config,args,digests", [
        (PIN_CONFIG, ["optimize", "--method", "sa"], {
            "trace.csv": "321303a02d93aa48cc35f9a26c692616792e6f341719dbb83212b6ba4c87440a",
            "design.json": "804b5b9daf2373b463352837403125a3fc624ea68da6f122740d3a75620d3e4f",
        }),
        (PIN_CONFIG, ["optimize", "--method", "perturb"], {
            "trace.csv": "ddf35442ad59d972cd2b48c93e2497caefc47192d830a121d99b7e08a86ef53b",
            "design.json": "ef5cd2e0d7d75605721c6a285e9869d24216ff59ae7c7b02f17546a2246e6e27",
        }),
        (PIN_CONFIG, ["sweep-m"], {
            "sweep.csv": "873f28b9c1a45ddee09c94277ac1d788ea1cee09aaab4537a3455692dfac9013",
        }),
        (PIN_CONFIG, ["sweep-k"], {
            "sweep.csv": "c80482743aa066e7bd0148c23976ceb84a7daa49c58a29d5024a4cf3d03f6593",
        }),
        (PIN_CONFIG_M21, ["optimize", "--method", "sa"], {
            "trace.csv": "1275f92f8eecb78c26e453b64c2f19968c66f0a36aa4a415f156fc84fb396fff",
            "design.json": "4b8b6e366e7f73fd775d67ab9f6e240724fd4116c142502632034623126f2b4f",
        }),
    ], ids=["sa", "perturb", "sweep-m", "sweep-k", "sa-m21"])
    def test_output_bytes_pinned(self, tmp_path, config, args, digests):
        config_path = tmp_path / "pin.cfg"
        config_path.write_text(config)
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out), *args], tmp_path)
        assert result.returncode == 0, result.stderr
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests


class TestSweepCommands:
    def test_sweep_m_uses_config_baseline_grid(self, tmp_path):
        # A non-default frequency step moves the canonical adversaries and the
        # linear ramp, so the sweep must change and match the library sweep
        # run on the config's own baseline grid.
        outs = {}
        for name, extra in (("default", ""), ("step", "delta_f_hz = -2e6\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(PIN_CONFIG + extra)
            outs[name] = tmp_path / name
            result = run_cli(["--config", str(config), "--out", str(outs[name]),
                              "sweep-m"], tmp_path)
            assert result.returncode == 0, result.stderr
        lines = (outs["step"] / "sweep.csv").read_text().splitlines()
        assert lines != (outs["default"] / "sweep.csv").read_text().splitlines()
        cfg = parse_config_text(PIN_CONFIG + "delta_f_hz = -2e6\n")
        records = sweep_vs_num_antennas(
            cfg.base_scenario(), list(cfg.m_values), ALL_KINDS, cfg.link_budget(),
            cfg.f0_hz, cfg.annealer(), cfg.perturber(), cfg.seed,
            baseline_params=cfg.baseline_params)
        expected = sorted((r.sweep_value, r.configuration.value, r.secrecy_rate_bps_hz,
                           r.seed, r.trial) for r in records)
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(r[0]), r[1], float(r[2]), int(r[3]), int(r[4])) for r in rows] \
            == expected

    def test_sweep_m_grid_too_wide_fails_before_any_job(self, tmp_path, monkeypatch,
                                                        capsys):
        config = tmp_path / "narrow.cfg"
        config.write_text("f0_hz = 30e9\naperture_over_lambda = 5\nm = 11\n"
                          "m_values = 11, 21\nsweep_k_m_values = 11\n")
        calls = []
        monkeypatch.setattr(fdma.experiments, "optimize_configuration",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "sweep-m"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["key"] == "m_values"
        assert "M = 21 " in record["message"]
        assert calls == []
        assert not (out / "sweep.csv").exists()

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
        assert_manifest_telemetry(out, ["sweep", "write"], jobs=[
            f"sweep-m/M={m}/kind={kind.value}" for m in (5, 7) for kind in ALL_KINDS])

    def test_failing_job_fails_the_sweep_at_once(self, config_path, tmp_path, monkeypatch,
                                                 capsys):
        # Patched before the pool forks, so the workers run the patch.  The
        # failing job is the longest, so a pool submits it first; every other
        # job takes at least 0.1 s and notes its start in a shared file.
        started = tmp_path / "started"
        optimize = fdma.experiments.optimize_configuration

        def patched(kind, scenario, num_antennas, *args, **kwargs):
            with open(started, "a", encoding="utf-8") as handle:
                handle.write(f"M={num_antennas}/kind={kind.value}\n")
            if (kind, num_antennas) == (ConfigurationKind.FDMA_OPT1, 7):
                raise RuntimeError("job failed on purpose")
            time.sleep(0.1)
            return optimize(kind, scenario, num_antennas, *args, **kwargs)

        monkeypatch.setattr(fdma.experiments, "optimize_configuration", patched)
        out = tmp_path / "out"
        assert main(["--config", str(config_path), "--out", str(out), "sweep-m"]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "RuntimeError", "message": "job failed on purpose"}
        assert multiprocessing.active_children() == []
        # The jobs still queued were cancelled, not run.
        assert len(started.read_text().splitlines()) < 2 * len(ALL_KINDS)
        assert not (out / "sweep.csv").exists()

    def test_sweep_k_zero_adversaries_hits_upper_bound(self, config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["--config", str(config_path), "--out", str(out),
                          "sweep-k"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line
                in (out / "sweep.csv").read_text().splitlines()[1:]]
        k0 = {float(r[2]) for r in rows if r[0] == "0"}
        assert len(k0) == 1  # every configuration and trial reports the bound
        assert_manifest_telemetry(out, ["sweep", "write"], jobs=[
            f"sweep-k/M=9/K={k}/trial={trial}/kind={kind}" for trial in (0, 1)
            for k in (0, 2) for kind in ("FDMA_OPT1", "FDMA_OPT2")])


def run_compare(tmp_path, design_a, design_b) -> int:
    "Exit code of `compare` on two designs saved as `optimize` saves them; output in cmp/."
    config = tmp_path / "c.cfg"
    config.write_text("f0_hz = 30e9\n")
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, design in zip(paths, (design_a, design_b)):
        _write_json(path, _design_document(design, SPEED_OF_LIGHT))
    return main(["--config", str(config), "--out", str(tmp_path / "cmp"), "compare",
                 "--design-a", str(paths[0]), "--design-b", str(paths[1])])


def compare_columns(out):
    "The columns of compare.csv below its header, as floats."
    rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
    return [[float(value) for value in column] for column in zip(*rows)]


class TestCompareCommand:
    def test_identical_designs_give_equal_columns(self, tmp_path):
        design = make_linear_fda(5, default_baseline_params(5, F0, SPEED_OF_LIGHT), F0)
        assert run_compare(tmp_path, design, design) == 0
        antenna, pos_a, pos_b, shift_a, shift_b = compare_columns(tmp_path / "cmp")
        assert antenna == list(range(5))
        assert pos_a == pos_b
        assert shift_a == shift_b

    def test_linear_ramp_versus_single_carrier(self, tmp_path):
        m = 6
        params = default_baseline_params(m, F0, SPEED_OF_LIGHT)
        assert run_compare(tmp_path, make_linear_fda(m, params, F0),
                           make_cpa(m, params, F0)) == 0
        antenna, pos_a, pos_b, shift_a, shift_b = compare_columns(tmp_path / "cmp")
        assert antenna == list(range(m))
        assert pos_a == pos_b
        for i, a, b in zip(range(m), shift_a, shift_b):
            expected = (i + 1 - (m + 1) / 2) * params.uniform_freq_step / 1e6
            assert abs(a - b - expected) < 1e-12

    def test_designs_of_different_sizes_rejected(self, tmp_path, capsys):
        design_a, design_b = (make_cpa(m, default_baseline_params(m, F0, SPEED_OF_LIGHT), F0)
                              for m in (4, 5))
        assert run_compare(tmp_path, design_a, design_b) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError",
                          "message": "designs must have the same number of antennas"}
        assert not (tmp_path / "cmp" / "compare.csv").exists()

    @pytest.mark.parametrize("positions,shifts", [
        ("[0.0, Infinity]", "[0.0, 0.0]"),
        ("[0.0, 0.01]", "[NaN, 0.0]"),
    ], ids=["inf-position", "nan-shift"])
    def test_non_finite_design_rejected(self, tmp_path, capsys, positions, shifts):
        # json.load accepts Infinity and NaN, so the design itself must reject them.
        config = tmp_path / "c.cfg"
        config.write_text("f0_hz = 30e9\n")
        design = tmp_path / "design.json"
        design.write_text(f'{{"f0_hz": 30e9, "positions_m": {positions}, '
                          f'"freq_shifts_hz": {shifts}}}')
        out = tmp_path / "cmp"
        assert main(["--config", str(config), "--out", str(out), "compare",
                     "--design-a", str(design), "--design-b", str(design)]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError",
                          "message": "positions and freq_shifts must be finite"}
        assert not (out / "compare.csv").exists()

    def test_wavelengths_use_configured_speed_of_light(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("f0_hz = 30e9\nm = 9\nk = 0\nspeed_of_light = 3e8\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "optimize", "--method", "perturb"]) == 0
        doc = json.loads((out / "design.json").read_text())
        np.testing.assert_allclose(np.diff(doc["positions_wavelengths"]), 0.75, rtol=1e-12)
        design = str(out / "design.json")
        assert main(["--config", str(config), "--out", str(tmp_path / "cmp"), "compare",
                     "--design-a", design, "--design-b", design]) == 0
        rows = [line.split(",") for line
                in (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]]
        np.testing.assert_allclose(np.diff([float(r[1]) for r in rows]), 0.75, rtol=1e-12)

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
        # Each column is its design.json list, bit for bit.
        docs = [json.loads((o / "design.json").read_text()) for o in (out_a, out_b)]
        expected = [list(range(9))] + [doc[key] for key in ("positions_wavelengths",
                                                            "freq_shifts_mhz") for doc in docs]
        assert [[value.hex() for value in column] for column in compare_columns(out)] \
            == [[float(value).hex() for value in column] for column in expected]

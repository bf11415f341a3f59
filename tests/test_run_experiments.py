import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
run_experiments = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_experiments)

TINY_CONFIG = """\
f0_hz = 30e9
m = 9
k = 3
seed = 77
grid_x_min_m = 10
grid_x_max_m = 40
grid_y_min_m = 70
grid_y_max_m = 100
grid_resolution_m = 5
m_values = 5, 7
k_values = 0, 2
sweep_k_m_values = 9
trials = 1
sa_iterations = 100
sa_rounds = 1
"""


def test_experiments_write_their_output_trees(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG)
    for experiment, runs in (("maps", ["CPA", "LINEAR_FDA", "FDMA_OPT1", "FDMA_OPT2"]),
                             ("sweeps", ["sweep-m", "sweep-k"])):
        out = tmp_path / experiment
        assert run_experiments.main([experiment, "--config", str(config),
                                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(runs)
        data = "raster.csv" if experiment == "maps" else "sweep.csv"
        for run in runs:
            assert {data, "manifest.json"} <= {p.name for p in (out / run).iterdir()}
    assert capsys.readouterr().out.count("running ") == 6


def test_first_failing_command_ends_the_run(tmp_path, monkeypatch):
    calls = []

    def fake_cli(argv):
        calls.append(argv)
        return 3 if len(calls) == 2 else 0

    monkeypatch.setattr(run_experiments, "fdma_main", fake_cli)
    assert run_experiments.main(["maps", "--out", str(tmp_path)]) == 3
    assert [argv[-2] for argv in calls] == ["CPA", "LINEAR_FDA"]
    assert calls[0][:2] == ["--config", str(tmp_path / "stock.cfg")]
    assert (tmp_path / "stock.cfg").read_text() == run_experiments.DEFAULT_CONFIG

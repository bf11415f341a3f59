import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24}]}


def runs(failed_change, pairs=10):
    "Pairs in which the change is 30% faster and fails failed_change operations in all."
    out = []
    for pair in range(pairs):
        for side, wall in (("parent", 1.0 + 0.01 * pair), ("change", 0.7 + 0.01 * pair)):
            failed = int(side == "change" and pair < failed_change)
            out.append({"workload": "anneal", "pair": pair, "side": side,
                        "result": {"attempted": 20, "failed": failed,
                                   "metrics": {"wall_s": {"value": wall}}}})
    return out


class TestClaimVerdict:
    def test_faster_change_meets_the_claim(self):
        verdict = bench_pairs.claim_verdict(bench_pairs.summarize(runs(0), SPEC),
                                            "anneal", "wall_s")
        assert verdict["change_wins"] == 10 and verdict["met"]
        assert not verdict["more_failures"]

    def test_failed_operation_fails_the_claim(self):
        # Every pair is still won on wall_s, but the change failed an operation.
        summary = bench_pairs.summarize(runs(1), SPEC)
        verdict = bench_pairs.claim_verdict(summary, "anneal", "wall_s")
        assert verdict["change_wins"] == 10
        assert verdict["failed"] == {"parent": 0, "change": 1}
        assert verdict["more_failures"] and not verdict["met"]

    def test_run_without_a_result_counts_as_failed(self):
        crashed = runs(0)
        crashed[1]["result"] = None
        summary = bench_pairs.summarize(crashed, SPEC)
        assert summary["anneal"]["failed"]["change"] == 1
        assert not bench_pairs.claim_verdict(summary, "anneal", "wall_s")["met"]


class TestPairRatio:
    def test_ratio_shows_what_host_speed_hides(self):
        # The host's speed doubles halfway through, moving both sides of a
        # pair together: the parent's IQR is about as wide as the whole gap,
        # but within every pair the change takes 0.8 of the parent's time.
        pairs = [(scale, 0.8 * scale) for scale in [1.0] * 5 + [2.0] * 5]
        stats = bench_pairs.metric_summary(pairs, "lower", 0.24)
        assert stats["parent_iqr"] == pytest.approx(1.0)
        assert stats["pair_ratio"] == {"median": pytest.approx(0.8), "q1": pytest.approx(0.8),
                                       "q3": pytest.approx(0.8), "n": 10}

    def test_quartiles_of_uneven_ratios(self):
        stats = bench_pairs.metric_summary([(1.0, 0.5), (2.0, 1.5), (4.0, 4.0), (1.0, 2.0)],
                                           "higher", 0.24)
        assert stats["pair_ratio"] == {"median": 0.875, "q1": 0.6875, "q3": 1.25, "n": 4}

    def test_zero_parent_values_are_left_out(self):
        assert bench_pairs.metric_summary([(0.0, 1.0), (2.0, 1.0)], "lower",
                                          0.24)["pair_ratio"]["n"] == 1
        assert bench_pairs.metric_summary([(0.0, 1.0)], "lower", 0.24)["pair_ratio"] is None

    def test_claim_verdict_ignores_the_ratio(self):
        summary = bench_pairs.summarize(runs(0), SPEC)
        stats = summary["anneal"]["wall_s"]
        assert 0.7 < stats["pair_ratio"]["median"] < 0.72
        verdict = bench_pairs.claim_verdict(summary, "anneal", "wall_s")
        assert "pair_ratio" not in verdict and verdict["met"]


class TestCpuSeconds:
    def test_cpu_seconds_per_operation_and_their_pair_ratio(self):
        timed = runs(0)
        for run in timed:
            run["cpu_s"] = 10.0 if run["side"] == "parent" else 6.0
        summary = bench_pairs.summarize(timed, SPEC)
        cpu = summary["anneal"]["cpu_s_per_op"]
        # 20 attempted operations per run.
        assert cpu["parent"]["median"] == pytest.approx(0.5)
        assert cpu["change"]["median"] == pytest.approx(0.3)
        assert cpu["pair_ratio"] == {"median": pytest.approx(0.6), "q1": pytest.approx(0.6),
                                     "q3": pytest.approx(0.6), "n": 10}
        verdict = bench_pairs.claim_verdict(summary, "anneal", "wall_s")
        assert verdict["met"] and "cpu_s_per_op" not in verdict

    def test_claim_names_an_end_to_end_metric(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_pairs.main(["--parent", "HEAD", "--first-seed", "1", "--out",
                              str(tmp_path / "bench.json"), "--claim", "anneal:cpu_s_per_op"])
        assert not (tmp_path / "bench.json").exists()

    def test_run_records_its_cpu_seconds(self, tmp_path):
        (tmp_path / "stub.py").write_text(CPU_STUB)
        run = bench_pairs.run_once(tmp_path, ["python3", "stub.py"], "anneal", 1, 0.0, 0)
        assert run["result"] == {"attempted": 1}
        assert 0.2 <= run["cpu_s"] < 10.0


# Spends 0.2 s of CPU time, then prints a JSON result line.
CPU_STUB = """\
import json, time
end = time.process_time() + 0.2
while time.process_time() < end:
    pass
print(json.dumps({"attempted": 1}))
"""


# Prints the size of its CPU affinity set as the run's JSON result line.
AFFINITY_STUB = """\
import json, os
print(json.dumps({"cpus": len(os.sched_getaffinity(0))}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity sets")
@pytest.mark.parametrize("trace", [0, 1])
def test_only_traced_runs_are_pinned_to_one_cpu(tmp_path, trace):
    # Count runs must see one CPU so that sweep jobs stay in the traced process.
    (tmp_path / "stub.py").write_text(AFFINITY_STUB)
    run = bench_pairs.run_once(tmp_path, ["python3", "stub.py"], "sweep", 1, 0.0, trace)
    assert run["returncode"] == 0
    expected = 1 if trace else len(os.sched_getaffinity(0))
    assert run["result"] == {"cpus": expected}

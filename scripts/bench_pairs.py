#!/usr/bin/env python3
"""Interleaved parent/change pairs of the benchmark, summarized as BENCH_<n>.json.

Run from the root of a git checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --first-seed 1201 \\
        --claim anneal:wall_s --title "..." --out BENCH_12.json

Each side is a `git archive` copy of one revision in a fresh temporary
directory.  The change is the working tree: `git stash create` records its
tracked files (stage new files first) without touching any branch, and a
clean tree falls back to HEAD.  For each workload, pair i runs
`perfbench/run.py` on both copies with seed first_seed + i, parent first
when i is even and change first when i is odd, each as a fresh process with
PYTHONDONTWRITEBYTECODE=1.  The command, run length, workloads (in their
order) and end-to-end metrics with their bounds come from BENCHMARK.json.

Per workload and metric the summary gives each side's median and quartiles,
how many pairs the change wins (ties count for neither side), the relative
change of the median, the parent's interquartile range and whether the
change's median is worse than the parent's by more than the bound.  It also
gives the median and quartiles of change/parent within each pair
(`pair_ratio`, leaving out pairs whose parent value is 0): both sides of a
pair run minutes apart at most, so the ratio shows the code's own spread
where the host's speed moves both sides together.  Each run also records
`cpu_s`, the user plus system CPU seconds of its benchmark process and of
the children that process waited for; they leave out the time a run waits
for a CPU that other processes hold.  A run lasts a fixed number of
seconds, so the summary divides them by the run's attempted operations and
gives each side's median and quartiles of that, with its pair ratio
(`cpu_s_per_op`).  No verdict reads `pair_ratio` or `cpu_s_per_op`.  With --claim WORKLOAD:METRIC, METRIC an end-to-end metric, it
also states whether that gain is shown: the change wins at least nine tenths of the pairs, the medians differ, in the
better direction, by more than the parent's interquartile range, and the
change's share of failed operations on that workload is no larger than the
parent's.  Each side's failed/attempted count is printed next to the
medians.
--count-seed S adds one `--trace 1 --seconds 0` run per side and workload on
seed S, whose per-command-set counts must repeat exactly across sides.  These
runs start with their CPU affinity set to one CPU, where the OS has affinity
sets, so that a sweep runs its jobs in the traced process rather than in
worker processes the tracer cannot see; timed runs keep every CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COUNT_METRICS = ("annealing.iterations", "annealing.phases", "annealing.rounds",
                 "annealing.accept_rate", "annealing.greedy_frac", "perturbation.solves",
                 "perturbation.clip_count", "quality.rate_opt1_bps_hz",
                 "quality.rate_opt2_bps_hz")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def checkout(commit: str, dest: Path) -> Path:
    "Extract the tree of commit into dest through `git archive`."
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return dest


def one_cpu() -> None:
    "Restrict the calling process to one of the CPUs it may run on."
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def children_cpu_seconds() -> float:
    "User plus system CPU seconds of the waited-for children of this process so far."
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(copy: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark process: its return code, CPU seconds, environment line and last JSON line.

    A traced run is pinned to one CPU (`one_cpu`) where the OS has affinity sets.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable if command[0].startswith("python") else command[0],
            *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    started = time.time()
    pin = one_cpu if trace and hasattr(os, "sched_setaffinity") else None
    cpu_before = children_cpu_seconds()
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                          preexec_fn=pin)
    cpu_s = children_cpu_seconds() - cpu_before
    lines = proc.stdout.splitlines()
    run_env = next((json.loads(line[len("env:"):]) for line in lines
                    if line.startswith("env:")), None)
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    if proc.returncode or result is None:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"started_unix": round(started, 1), "returncode": proc.returncode,
            "cpu_s": round(cpu_s, 3), "env": run_env, "result": result}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def pair_ratio(pairs: list[tuple[float, float]]) -> dict | None:
    "Quartiles of change/parent over the pairs whose parent value is not 0."
    ratios = [c / p for p, c in pairs if p]
    return quartiles(ratios) if ratios else None


def metric_summary(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    "Summary of (parent, change) values of one metric over the pairs of one workload."
    sign = 1.0 if better == "lower" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(sign * (c - p) < 0.0 for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    base = parent["median"]
    return {
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(pairs),
        "median_change_rel": (change["median"] - base) / base if base else 0.0,
        "pair_ratio": pair_ratio(pairs),
        "parent_iqr": parent["q3"] - parent["q1"],
        "worse_than_bound": sign * (change["median"] - base) > bound * abs(base),
    }


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
        complete = [sides for _, sides in sorted(by_pair.items())
                    if all(sides.get(side, {}).get("result") for side in SIDES)]
        entry = {
            "failed": {side: sum((r["result"] or {}).get("failed", 1) for r in mine
                                 if r["side"] == side) for side in SIDES},
            "attempted": {side: sum((r["result"] or {}).get("attempted", 0) for r in mine
                                    if r["side"] == side) for side in SIDES},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(sides["parent"]["result"]["metrics"][name]["value"],
                       sides["change"]["result"]["metrics"][name]["value"])
                      for sides in complete]
            if values:
                entry[name] = metric_summary(values, metric["better"], metric["bound"])
        cpu = [tuple(sides[side]["cpu_s"] / max(sides[side]["result"]["attempted"], 1)
                     for side in SIDES)
               for sides in complete if all("cpu_s" in sides[side] for side in SIDES)]
        if cpu:
            entry["cpu_s_per_op"] = {"parent": quartiles([p for p, _ in cpu]),
                                     "change": quartiles([c for _, c in cpu]),
                                     "pair_ratio": pair_ratio(cpu)}
        summary[workload] = entry
    return summary


def failed_share(entry: dict, side: str) -> float:
    "Failed over attempted operations of one side; a run with no result counts as failed."
    return entry["failed"][side] / max(entry["attempted"][side], 1)


def claim_verdict(summary: dict, workload: str, metric: str) -> dict:
    entry = summary[workload]
    stats = entry[metric]
    sign = 1.0 if stats["better"] == "lower" else -1.0
    gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
    more_failures = failed_share(entry, "change") > failed_share(entry, "parent")
    met = (stats["change_wins"] >= 0.9 * stats["pairs"] and gap > stats["parent_iqr"]
           and not more_failures)
    return {"workload": workload, "metric": metric, "change_wins": stats["change_wins"],
            "pairs": stats["pairs"], "median_gap": gap, "parent_iqr": stats["parent_iqr"],
            "failed": entry["failed"], "attempted": entry["attempted"],
            "more_failures": more_failures, "met": bool(met)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--count-seed", type=int,
                        help="seed of one extra --trace 1 --seconds 0 run per side")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim and args.claim.split(":", 1)[-1] not in {
            metric["name"] for metric in spec["end_to_end"]}:
        parser.error("--claim names an end-to-end metric of BENCHMARK.json")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    commits = {"parent": resolve(args.parent),
               "change": resolve(git("stash", "create") or "HEAD")}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        copies = {side: checkout(commits[side], work / side) for side in SIDES}
        runs, order = [], 0
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    order += 1
                    run = run_once(copies[side], spec["command"], workload, seed,
                                   seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "pair": pair, "order": order, **run})
                    wall = ((run["result"] or {}).get("metrics", {})
                            .get("wall_s", {}).get("value"))
                    print(f"{workload} pair {pair} {side}: wall_s {wall} cpu_s "
                          f"{run['cpu_s']}", flush=True)
        counted = []
        if args.count_seed is not None:
            for workload in workloads:
                for side in SIDES:
                    order += 1
                    run = run_once(copies[side], spec["command"], workload,
                                   args.count_seed, 0.0, 1)
                    counted.append({"workload": workload, "seed": args.count_seed,
                                    "side": side, "order": order, **run})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(runs, spec)
    document = {
        "title": args.title,
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "parent": commits["parent"],
        "change": commits["change"],
        "method": (f"{args.pairs} interleaved parent/change pairs per workload "
                   f"({', then '.join(workloads)}), seeds {args.first_seed}-"
                   f"{args.first_seed + args.pairs - 1}; in pair i the parent runs first "
                   "when i is even and the change first when i is odd; each run is a "
                   "fresh process on a git archive copy of its revision, "
                   "PYTHONDONTWRITEBYTECODE=1; 'order' is the global run order; each "
                   "'result' is the last JSON line the run printed; 'cpu_s' is the "
                   "run's user plus system CPU seconds, its waited-for children "
                   "included (RUSAGE_CHILDREN); quartiles are inclusive (linear "
                   "interpolation)"),
        "environment": next((run["env"] for run in runs if run["env"]), None),
        "summary": summary,
    }
    if args.claim:
        document["claim"] = claim_verdict(summary, *args.claim.split(":", 1))
    document["runs"] = runs
    if counted:
        counts = {}
        for workload in workloads:
            sides = {run["side"]: (run["result"] or {}).get("metrics", {})
                     for run in counted if run["workload"] == workload}
            counts[workload] = {
                name: {side: sides[side][name]["value"] for side in SIDES}
                for name in COUNT_METRICS if all(name in sides[s] for s in SIDES)}
        document["counted"] = {
            "command": " ".join(spec["command"]) + " --workload W --seed "
                       f"{args.count_seed} --seconds 0 --trace 1",
            "counts": counts,
            "counts_equal": all(v["parent"] == v["change"]
                                for per in counts.values() for v in per.values()),
            "runs": counted,
        }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for workload, entry in summary.items():
        failed = "  failed " + " -> ".join(
            f"{entry['failed'][side]}/{entry['attempted'][side]}" for side in SIDES)
        for name, stats in entry.items():
            if isinstance(stats.get("parent"), dict) and "median" in stats["parent"]:
                ratio = f"{stats['pair_ratio']['median']:.4g}" if stats["pair_ratio"] else "n/a"
                verdict = (f"  wins {stats['change_wins']}/{stats['pairs']}  worse_than_bound "
                           f"{stats['worse_than_bound']}" if "change_wins" in stats else "")
                print(f"{workload:7s} {name:12s} {stats['parent']['median']:12.6g} -> "
                      f"{stats['change']['median']:12.6g}{verdict}  pair ratio {ratio}"
                      f"{failed if verdict else ''}")
    if "claim" in document:
        print("claim:", json.dumps(document["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

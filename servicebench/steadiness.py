#!/usr/bin/env python3
"""Steadiness check for the service benchmark.

Runs each workload several times with different seeds (untraced, at
BENCHMARK.json's run_seconds; every workload at one seed, then the next
seed), then prints for every end-to-end metric its median, quartiles
(statistics.quantiles(values, n=4)) and spread, the quartile distance
as a share of the median, against the bound BENCHMARK.json fixes. Run
from the repository root:

    python3 servicebench/steadiness.py                     # 10 seeds, every workload
    python3 servicebench/steadiness.py --workloads cold_sweep --runs 5

A spread above a third of the bound is flagged "wide", above the bound
"OVER"; the rule applies to every end-to-end metric, setup_s included.
A spread OVER its bound, or a run that fails (non-zero exit, an output
check, a failed operation; it is named and left out of the
statistics), makes the command exit non-zero. Results also go to
.bench_out/steadiness.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds):
    """The run's metrics, or None (with the reason on stderr) when it failed."""
    command = [sys.executable, "servicebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"] != 0:
        reason = child.stderr.strip().splitlines()[-3:]
        print(f"{workload} seed {seed}: FAILED (exit {child.returncode}): "
              f"{' | '.join(reason)}", file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    options = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    workloads = ([name for name in options.workloads.split(",") if name] or
                 [workload["name"] for workload in bench["workloads"]])
    report = {}
    failed_runs = []
    over = []
    # Seed-major order: host slowdowns that last minutes then fall on a
    # few runs of every workload instead of most runs of one.
    runs = {workload: [] for workload in workloads}
    for i in range(options.runs):
        seed = options.first_seed + i
        for workload in workloads:
            metrics = run_once(workload, seed, bench["run_seconds"])
            if metrics is None:
                failed_runs.append(f"{workload} seed {seed}")
                continue
            runs[workload].append(metrics)
            facts = json.loads(Path(f".bench_out/run-{workload}-s{seed}-t0.json").read_text())
            print(f"{workload} seed {seed} done (host steal "
                  f"{facts['window_steal_share']:.1%} of CPU time in the window)",
                  file=sys.stderr)
    for workload in workloads:
        report[workload] = {}
        print(f"\n{workload}: {len(runs[workload])} of {options.runs} runs passed, seeds "
              f"{options.first_seed}..{options.first_seed + options.runs - 1}")
        if len(runs[workload]) < 2:
            continue
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for name in sorted(bounds):
            summary = summarize([run[name] for run in runs[workload]])
            bound = bounds[name]
            verdict = "ok"
            if summary["spread"] > bound:
                verdict = "OVER"
                over.append(f"{workload} {name}")
            elif summary["spread"] > bound / 3:
                verdict = "wide"
            summary["bound"] = bound
            summary["verdict"] = verdict
            report[workload][name] = summary
            print(f"  {name:24} {summary['median']:12.6g} {summary['q1']:12.6g} "
                  f"{summary['q3']:12.6g} {summary['spread']:8.3f} {bound:6.2f}  {verdict}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    report["failed_runs"] = failed_runs
    report["over_bound"] = over
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    if over:
        print("\nSpread over the bound: " + ", ".join(over))
    if failed_runs:
        print("\nFAILED runs (left out of the statistics above): " +
              ", ".join(failed_runs))
    if over or failed_runs:
        sys.exit(1)


if __name__ == "__main__":
    main()

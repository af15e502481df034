#!/usr/bin/env python3
"""Run the end-to-end benchmark over several seeds and summarise it.

    python3 e2e_bench/sweep.py --runs 10 --trace-runs 3 --out e2e_bench/trajectory/NN-label.json
    python3 e2e_bench/sweep.py --runs 10 --baseline e2e_bench/trajectory/01-baseline.json

For every workload of BENCHMARK.json it runs `run.py --trace 0` once per
seed 1..N and reports, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  --trace-runs N adds N traced runs
per workload and records the median of each per-layer metric.  --out writes
the summary, with every run's values, as a trajectory entry.  --baseline
compares this sweep's medians with an earlier entry's and flags every metric,
setup_s included, that got worse by more than its bound.

The spread check leaves setup_s out, as the benchmark's acceptance rule
does: setup_s exists to catch work moved into set-up, and that shows as a
setup_s median that regressed against --baseline, which is checked.

Exit codes: 0 ok; 3 when any run reported wrong output; 1 when a spread
(setup_s excepted) exceeds its bound or a median regressed beyond its bound
against --baseline (a performance miss); 2 on bad arguments.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"sweep.py: {workload} seed {seed} produced no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(metric, base, now):
    """Relative worsening of `now` against `base` (negative = better)."""
    if base == 0:
        return 0.0
    change = (now - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--note", default="",
                        help="free text stored in the --out entry (commit, machine)")
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None

    summary = {"note": args.note, "run_seconds": seconds, "runs": args.runs,
               "workloads": {}}
    incorrect = False
    miss = False
    for name in names:
        start = time.monotonic()
        results = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        wall = time.monotonic() - start
        incorrect |= not all(r["correct"] for r in results)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{name}: {args.runs} runs in {wall:.0f} s, {entry['attempted']} requests, "
              f"{entry['failed']} failed")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            stats = summarise([r["metrics"][m]["value"] for r in results])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][m] = stats
            flag = ""
            if m != "setup_s" and stats["spread"] > metric["bound"]:
                flag, miss = "  SPREAD ABOVE BOUND", True
            elif m != "setup_s" and stats["spread"] > metric["bound"] / 3:
                flag = "  spread above bound/3"
            if baseline and m in baseline["workloads"].get(name, {}).get("end_to_end", {}):
                base = baseline["workloads"][name]["end_to_end"][m]["median"]
                change = worse_by(metric, base, stats["median"])
                flag += f"  {abs(change):.1%} {'worse' if change > 0 else 'better'} than baseline"
                if change > metric["bound"]:
                    flag, miss = flag + " REGRESSION", True
            print(f"  {m:16} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:6.2%} "
                  f"(bound {metric['bound']:.0%}){flag}")
        if args.trace_runs:
            traced = [run_once(name, seed, seconds, 1) for seed in range(1, args.trace_runs + 1)]
            incorrect |= not all(r["correct"] for r in traced)
            entry["per_layer"] = {
                metric["name"]: {
                    "median": statistics.median(r["metrics"][metric["name"]]["value"]
                                                for r in traced),
                    "unit": metric["unit"]}
                for metric in spec["per_layer"]}
            for m, v in entry["per_layer"].items():
                print(f"  {m:32} {v['median']:<12.6g} {v['unit']}")
        summary["workloads"][name] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if incorrect:
        print("sweep.py: some runs reported wrong output")
        return 3
    return 1 if miss else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build qplec from source and run one workload of the end-to-end benchmark.

    python3 e2e_bench/run.py --workload churn-stream --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  The first call builds
the library and the runner (qplec_bench) with CMake into .bench_build/e2e
(Release, the repository's own flags); later calls only rebuild what
changed.  Build output
goes to stderr, so standard output is the runner's report followed, on its
last line, by one JSON object: correct, attempted, failed and the metrics
(the end-to-end set with --trace 0, the per-layer set with --trace 1).

Correctness is checked in three places: the runner fails any request that is
not Ok and re-validates every coloring, repeats and traced replays; this
script requires at least one fingerprint and, at the golden seed, compares
the (colors_hash, rounds, raw_rounds) of every input against golden.json,
where every golden input of a solve workload must be present (a churn run
reaches as many batches as its time allows); and the metric names and units
must be exactly the ones BENCHMARK.json lists.  Exit codes: 0 ok, 3 wrong output (golden drift
included), 2 bad arguments, 1 anything else (sources missing, build failed,
runner crashed or timed out).  --record-golden rewrites this workload's
entries of golden.json from the run instead of checking them.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("stressor-regular", "relaxed-slack", "ingest-dimacs", "churn-stream")
# Workloads whose runs cycle through all their inputs (churn-stream walks a
# long batch sequence instead).
SOLVE_WORKLOADS = ("stressor-regular", "relaxed-slack", "ingest-dimacs")
RUNNER_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"qplec sources not found under {ROOT}")
    steps = [["cmake", "--build", str(build_dir), "--target", "qplec_bench", "-j", "4"]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "qplec_bench"


def expected_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_golden(golden):
    """One line per input, so a drift shows as a one-line diff."""
    blocks = []
    for workload, entries in sorted(golden["workloads"].items()):
        rows = ",\n".join(f'   "{key}": {json.dumps(fp)}' for key, fp in entries.items())
        blocks.append(f'  "{workload}": {{\n{rows}\n  }}')
    GOLDEN.write_text('{\n "seed": %d,\n "workloads": {\n%s\n }\n}\n'
                      % (golden["seed"], ",\n".join(blocks)))


def check_golden(workload, seed, fingerprints, record):
    """Compares (or records) the run's fingerprints; returns drift messages."""
    if not fingerprints:
        return [f"{workload} produced no fingerprint"]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": 1, "workloads": {}}
    if seed != golden["seed"]:
        return []
    entries = golden["workloads"].setdefault(workload, {})
    if record:
        entries.update(fingerprints)
        golden["workloads"][workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        write_golden(golden)
        return []
    drift = [f"golden drift on {workload} input {key}: expected {entries[key]}, got {fp}"
             for key, fp in fingerprints.items() if key in entries and entries[key] != fp]
    if workload in SOLVE_WORKLOADS:
        drift += [f"golden input {key} of {workload} missing from the run"
                  for key in entries if key not in fingerprints]
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    build_dir = ROOT / ".bench_build" / "e2e"
    binary = build(build_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir / "work"),
           "--spans", str(build_dir / "spans" / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 3) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"runner exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    fingerprints = {}
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            _, _, key, colors_hash, rounds, raw_rounds = line.split()
            fingerprints[key] = [int(colors_hash), int(rounds), int(raw_rounds)]
        else:
            print(line)

    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace)
    if reported != expected:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(reported.items()) ^ set(expected.items()))}")
    drift = check_golden(args.workload, args.seed, fingerprints, args.record_golden)
    for message in drift:
        print(f"  INCORRECT: {message}")
    if drift:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the simulator benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload dense_mixed --seed 1 --seconds 30 --trace 0

builds the benchmark (`cargo build`, into `$CARGO_TARGET_DIR`, by default
`.bench_build`), runs one workload in a fresh single-threaded process and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
of BENCHMARK.json. With `--trace 1` it runs the untraced and the traced
build for half the time each, checks that both simulated the same network,
and prints the per-layer metrics, among them the tracing overhead.

The steadiness mode repeats a workload in fresh processes and prints each
end-to-end metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py steady --workload live_churn --runs 10 --sets 2

Its runs use seeds 1 to `--runs`; `--first-seed 1001` runs the held-out seeds
instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["dense_mixed", "sparse_large", "live_churn"]
# Metrics of the simulated network: identical in the untraced and traced
# builds, since tracing must not change what is simulated.
SIMULATED = [
    "tc_latency_p50_cycles",
    "tc_latency_p99_cycles",
    "be_latency_p50_cycles",
    "be_latency_p99_cycles",
    "channels_admitted",
]
# A run overshoots `--seconds` by at most one round (under 10 s on the
# reference host); the margin covers that round and process start-up.
ROUND_MARGIN_S = 60
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(traced):
    """Builds one variant and returns the path of its executable."""
    target = target_dir()
    profile = ["--profile", "traced", "--features", "traced"] if traced else ["--release"]
    cmd = ["cargo", "build", "--offline", "--locked", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd + profile, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"cargo build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"cargo build exited with {done.returncode}")
    return os.path.join(target, "traced" if traced else "release", "perfbench")


def run_binary(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + ROUND_MARGIN_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload} run failed: {e}") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} run exited with {done.returncode}")
    return json.loads(lines[-1])


def load_spec():
    try:
        with open(SPEC, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC}: {e}") from e


def select(metrics, wanted):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the run: {', '.join(missing)}")
    return {m["name"]: metrics[m["name"]] for m in wanted}


def one_run(workload, seed, seconds, trace):
    spec = load_spec()
    if not trace:
        result = run_binary(build(False), workload, seed, seconds)
        result["metrics"] = select(result["metrics"], spec["end_to_end"])
        return result
    plain_bin, traced_bin = build(False), build(True)
    half = max(1.0, seconds / 2)
    plain = run_binary(plain_bin, workload, seed, half)
    traced = run_binary(traced_bin, workload, seed, half)
    same = all(plain["metrics"][k]["value"] == traced["metrics"][k]["value"] for k in SIMULATED)
    if not same:
        print("perfbench: the traced build simulated a different network", file=sys.stderr)
    metrics = dict(traced["metrics"])
    overhead = traced["metrics"]["node_cycles_per_s"]["value"] / plain["metrics"]["node_cycles_per_s"]["value"]
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return {
        "correct": plain["correct"] and traced["correct"] and same,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": select(metrics, spec["per_layer"]),
    }


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def steady(args):
    """Runs one workload `runs` times per set, each in a fresh process."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    # Build once here, so that no child run waits on the compiler.
    build(False)
    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=seconds + 2 * ROUND_MARGIN_S)
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"set {s + 1} seed {seed} timed out: {e}") from e
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise BenchError(f"set {s + 1} seed {seed} exited with {done.returncode}")
            result = json.loads(lines[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        sets.append(runs)
    ok = True
    medians = []
    for s, runs in enumerate(sets):
        print(f"\n{args.workload}, set {s + 1}: {len(runs)} runs of {seconds} s")
        print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        meds = {}
        for m in spec["end_to_end"]:
            med, q1, q3, spread = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            meds[m["name"]] = med
            verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            ok &= spread <= m["bound"]
            print(f"{m['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6} {verdict}")
        medians.append(meds)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
    for s in range(1, len(medians)):
        print(f"\nset {s + 1} against set 1 (positive = worse):")
        for m in spec["end_to_end"]:
            a, b = medians[0][m["name"]], medians[s][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok &= worse <= m["bound"]
            print(f"  {m['name']:24} {a:14.6g} -> {b:14.6g} {worse:+8.4f} (bound {m['bound']})")
        ok &= ({r["failed"] / r["attempted"] for r in sets[0]}
               == {r["failed"] / r["attempted"] for r in sets[s]})
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--sets", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
        p.add_argument("--first-seed", type=int, default=1,
                       help="runs use seeds first-seed.. (1001 for the held-out seed)")
        args = p.parse_args(sys.argv[2:])
        if args.runs < 1 or args.sets < 1 or args.first_seed < 0 or not 0 <= args.seconds <= 600:
            p.error("runs and sets must be positive, first-seed non-negative, seconds in [0, 600]")
        return steady(args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("seed must be non-negative and seconds in (0, 600]")
    result = one_run(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

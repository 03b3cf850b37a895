#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record FILE]
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench. Each call runs one
workload, checks that the result names every metric BENCHMARK.json lists for
the mode (end_to_end for --trace 0, per_layer for --trace 1) with its unit,
and prints the JSON result as the last line of standard output. --record
appends that result, with the host tag and registry digest, to FILE as one
JSON line. --self-check runs every workload at tiny length and checks the
metric names, determinism across processes, and that an injected invariant
violation is reported as a failed run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["ingress_http", "tenants_dwrr", "openloop_1m", "boutique_home"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "experiments.h").is_file():
        fail(f"no model sources under {ROOT / 'src'}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when the checkout is a repository, plus a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"git:{commit},src-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(argv):
    """Runs the benchmark binary; returns (lines before the result, result)."""
    proc = subprocess.run([str(BINARY)] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}: {' '.join(argv)}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    return lines[:-1], result


def check_result(result, expected):
    """Problems with a result line against the metric names and units expected."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}, not {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def common_args(workload, trace, seed):
    argv = ["--workload", workload, "--trace", str(trace), "--source-id", source_id()]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def line_with(lines, prefix):
    return next((line for line in lines if line.startswith(prefix)), "")


def self_check():
    problems = []

    def expect(ok, what):
        print(f"self-check: {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    good = None
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_binary(common_args(workload, trace, 7) + ["--tiny", "--seconds", "0.2"])
            issues = check_result(result, expected_metrics(trace))
            expect(not issues, f"{workload} trace={trace}: every metric printed with its unit "
                               f"{issues if issues else ''}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: tiny run passes its correctness checks")
            if trace == 0:
                good = result
        again = [run_binary(common_args(workload, 0, 7) + ["--tiny", "--seconds", "0.2"])
                 for _ in range(2)]
        digests = {line_with(lines, "digest:").split(" identical")[0] for lines, _ in again}
        sims = [{k: v for k, v in r["metrics"].items() if k.startswith("sim_")} for _, r in again]
        expect(len(digests) == 1 and sims[0] == sims[1],
               f"{workload}: two processes with one seed give one digest and equal sim_* values")
        _, held_out = run_binary(common_args(workload, 0, 8) + ["--tiny", "--seconds", "0.2"])
        expect(held_out["correct"], f"{workload}: a second seed runs correct")
        _, bad = run_binary(common_args(workload, 0, 7) +
                            ["--tiny", "--seconds", "0.2", "--inject-violation"])
        expect(not bad["correct"] and bad["failed"] > 0,
               f"{workload}: an injected invariant violation fails the run")
    broken = json.loads(json.dumps(good))
    broken["metrics"].pop("wall_ref")
    expect(bool(check_result(broken, expected_metrics(0))),
           "a result missing a metric is rejected")
    print(f"self-check: {'passed' if not problems else f'{len(problems)} failed'}")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="workload seed (default: kDefaultSeed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="host seconds measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result to this JSONL file")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    build()
    if args.self_check:
        return self_check()

    argv = common_args(args.workload, args.trace, args.seed) + ["--seconds", str(args.seconds)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        argv += ["--trace-out", str(traces / f"trace-{args.workload}-{seed}.json")]
    lines, result = run_binary(argv)
    for line in lines:
        print(line)
    for problem in check_result(result, expected_metrics(args.trace)):
        print(f"run.py: {problem}")
        result["correct"] = False
    if args.record is not None:
        with args.record.open("a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "seconds": args.seconds,
                                  "host": line_with(lines, "host:"),
                                  "digest": line_with(lines, "digest:"),
                                  "repetitions": line_with(lines, "repetitions:"),
                                  "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the engine from source and runs one wall-clock benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload static_ba --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The build goes to .bench_build/perfbench. The program's output is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list; this script refuses an
output whose metric names or units differ from that file. Every result is
also appended, with the host's thread budget, to
.bench_build/perfbench/results.ndjson; traced runs write their
benchmark-side spans beside it. Exit status: 0 when every result verified,
1 on a verification failure, 2 on a usage or build error, 3 when the output
breaks the BENCHMARK.json contract. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "aacc", "aacc.hpp")):
        die(2, "no engine sources under ./src; run from the repository root")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
    ]
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(2, f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            die(2, f"build step {' '.join(cmd[:2])} exited {p.returncode}")


def run_workload(spec, build_dir, workload, args):
    exe = os.path.join(build_dir, "perfbench")
    spans = os.path.join(build_dir, f"spans-{workload}-seed{args.seed}.json")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(2, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(p.stdout)
        die(2, f"{workload} exited {p.returncode} without a result line")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        sys.stdout.write(p.stdout)
        die(3, f"{workload}: result line does not match BENCHMARK.json "
               f"(missing {sorted(set(want) - set(got))}, "
               f"unexpected {sorted(set(got) - set(want))})")

    host = next((ln[len("host "):] for ln in lines if ln.startswith("host ")),
                "")
    with open(os.path.join(build_dir, "results.ndjson"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "host": host, "result": result}) + "\n")
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(2, f"cannot read {spec_path}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die(2, f"unknown workload {args.workload}; one of {names} or all")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)
    codes = [run_workload(spec, build_dir, w, args)
             for w in (names if args.workload == "all" else [args.workload])]
    sys.exit(1 if any(codes) else 0)


if __name__ == "__main__":
    main()

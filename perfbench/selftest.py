#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py for a short
window with two seeds untraced and one seed traced, and checks that:
  * each run exits 0 with a correct result and attempted >= 1;
  * the printed `metric` lines and the result line name exactly the
    BENCHMARK.json metrics of that mode, with the same units;
  * every end-to-end value is above zero;
  * the two seeds generate different inputs (the `inputs` fingerprints
    differ) but report the same metric set.
It also checks that run.py fails, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SECONDS = "1"


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_run(spec, workload, seed, trace, problems):
    p = run(workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    if p.returncode != 0:
        problems.append(f"{where}: exit {p.returncode}: {p.stderr.strip()}")
        return None, None
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    printed = {}
    for ln in lines:
        if ln.startswith("metric "):
            _, name, _, unit = ln.split()
            printed[name] = unit
    if got != want:
        problems.append(f"{where}: result metrics {sorted(got)} != "
                        f"BENCHMARK.json {sorted(want)}")
    if any(printed.get(n) != u for n, u in want.items()):
        problems.append(f"{where}: printed metric lines miss or mislabel "
                        f"some of {sorted(want)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not a clean result: {lines[-1]}")
    if not trace:
        zero = [n for n, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            problems.append(f"{where}: end-to-end metrics not above 0: {zero}")
    inputs = [ln.split("fingerprint=")[1] for ln in lines
              if ln.startswith("inputs ")]
    return inputs, set(got)


def check_bare_directory(problems):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    p = run("static_ba", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("run.py succeeded or printed output without the "
                        "engine sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    check_bare_directory(problems)
    for w in (w["name"] for w in spec["workloads"]):
        in1, set1 = check_run(spec, w, 1, 0, problems)
        in2, set2 = check_run(spec, w, 2, 0, problems)
        check_run(spec, w, 1, 1, problems)
        if in1 is not None and in2 is not None:
            if not in1 or in1[0] == in2[0]:
                problems.append(f"{w}: seeds 1 and 2 drew the same inputs")
            if set1 != set2:
                problems.append(f"{w}: metric set changed with the seed")
        print(f"selftest: {w} done", flush=True)
    for p in problems:
        print(f"selftest FAIL: {p}")
    print("selftest:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Gates end-to-end wall-clock regressions of a commit against its parent.

    python3 tools/perf_gate.py [--base REF] [--pairs N] [--seconds S]

Run from the repository root. Exports BASE (default HEAD^) and HEAD with
`git archive` into a scratch directory. For every workload that both
sides' BENCHMARK.json declare, it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0

in both checkouts, N interleaved pairs, alternating which side runs first
so that drift in host load lands on both. It then compares medians: the
gate fails when HEAD's median of any end_to_end metric is worse than
BASE's by more than that metric's `bound` (a fraction) in HEAD's
BENCHMARK.json. Exit status: 0 pass, 1 regression, 2 usage, build or
verification error (a run whose closeness is not exact is an error, not a
timing).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def die(msg):
    print(f"perf_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def export(ref, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        die(f"git archive {ref} failed")
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def spec_of(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        if p.returncode != 0:
            raise ValueError(f"exited {p.returncode}")
        metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()}
    except (IndexError, KeyError, TypeError, ValueError) as e:
        sys.stdout.write(p.stdout)
        die(f"{workload} in {root}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD^")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--workdir", help="scratch directory (default: a new "
                    "temporary one, removed afterwards)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        die("--pairs must be >= 1 and --seconds > 0")

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_gate-")
    roots = {"base": os.path.join(workdir, "base"),
             "head": os.path.join(workdir, "head")}
    try:
        export(args.base, roots["base"])
        export("HEAD", roots["head"])
        spec = spec_of(roots["head"])
        base_names = {w["name"] for w in spec_of(roots["base"])["workloads"]}
        workloads = [w["name"] for w in spec["workloads"]
                     if w["name"] in base_names]

        samples = {(side, w): [] for side in roots for w in workloads}
        for w in workloads:
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    samples[(side, w)].append(
                        run_once(roots[side], w, args.seconds))
                print(f"perf_gate: {w} pair {i + 1}/{args.pairs} done",
                      flush=True)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"\n{'workload':<14} {'metric':<12} {'base':>10} {'head':>10} "
          f"{'delta':>8} {'bound':>7}  verdict")
    regressions = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = statistics.median(s[name] for s in samples[("base", w)])
            head = statistics.median(s[name] for s in samples[("head", w)])
            delta = (head - base) / base if base > 0 else 0.0
            worse = delta if m["better"] == "lower" else -delta
            bad = worse > bound
            regressions += bad
            print(f"{w:<14} {name:<12} {base:>10.4g} {head:>10.4g} "
                  f"{100 * delta:>+7.1f}% {100 * bound:>6.0f}%  "
                  f"{'REGRESSION' if bad else 'ok'}")
    print(f"\nperf_gate: {args.pairs} interleaved pairs x {args.seconds:g} s, "
          f"medians; {regressions} regression(s)")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()

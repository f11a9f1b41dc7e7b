#!/usr/bin/env python3
"""Tiny-scale self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at --seconds 1 and checks that:
  - every end-to-end (--trace 0) and per-layer (--trace 1) metric named
    in BENCHMARK.json is printed, with its declared unit;
  - every run is correct with 0 failed operations;
  - modeled time, pos_err_m and the exact per-layer counts repeat
    exactly across two runs at one seed;
  - a different seed changes the inputs (the "inputs" digest);
  - the frame-class audits report no percentile on a class edge.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are exact counts or ratios of counts.
EXACT_LAYERS = (
    "compiler.instr_pre", "compiler.instr_post", "engine.compiles",
    "engine.cache_hits", "engine.cache_hit_rate",
    "scheduler.picks_per_issue", "scheduler.probes_per_issue",
    "kernels.calls_per_frame", "hw.cycles_per_frame", "hw.instr_per_frame",
    "incremental.shape_miss_share", "incremental.cpu_frame_share",
    "incremental.relin_frame_share", "incremental.session_reuse_rate",
    "incremental.reelim_per_frame",
)
EXACT_END_TO_END = ("modeled_us_per_frame", "pos_err_m")


def run(workload, seed, trace):
    """One benchmark run: (result dict, stderr text)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def inputs_digest(stderr):
    for line in stderr.splitlines():
        if line.startswith("inputs "):
            return line.split()[-1]
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            a, a_err = run(workload, 7, trace)
            b, _ = run(workload, 7, trace)
            for result in (a, b):
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{workload} trace {trace}: correct, 0 failed")
            for metric in declared:
                got = a["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{workload} trace {trace}: {metric['name']} "
                      f"in {metric['unit']}")
            exact = EXACT_END_TO_END if trace == 0 else EXACT_LAYERS
            for name in exact:
                check(a["metrics"][name]["value"] ==
                      b["metrics"][name]["value"],
                      f"{workload} trace {trace}: {name} repeats "
                      f"({a['metrics'][name]['value']})")
            if trace == 0:
                check("EDGE" not in a_err,
                      f"{workload}: no percentile on a class edge")
                _, other_err = run(workload, 8, 0)
                check(inputs_digest(a_err) is not None and
                      inputs_digest(a_err) != inputs_digest(other_err),
                      f"{workload}: another seed changes the inputs")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

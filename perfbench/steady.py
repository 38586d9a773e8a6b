#!/usr/bin/env python3
"""Steadiness tool: run the benchmark several times per workload on one
commit, each run with another seed, and print every metric's median,
quartiles, min/max and spread (interquartile range as a share of the
median, the figure the bounds in BENCHMARK.json are set against).

    python3 perfbench/steady.py --runs 10 [--workloads analyze-cold,...]
        [--seconds N] [--trace 0|1] [--first-seed 1]

Run it from the checkout root. It reads BENCHMARK.json for the workloads,
run length and bounds, and appends every run's result line to
.bench_build/steady/<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build/steady", exist_ok=True)
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            with open(f".bench_build/steady/{w}.jsonl", "a") as f:
                f.write(json.dumps({"seed": seed, "trace": args.trace, **res}) + "\n")
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            try:
                with open(f".bench_build/results/{w}-seed{seed}-trace{args.trace}.json") as f:
                    steal = json.load(f)["extra"]["host_steal_share"]["value"]
                print(f"{w} seed {seed}: host steal {steal:.1%}", file=sys.stderr)
            except (OSError, KeyError):
                pass
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7} bound/3")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = ""
            if b is not None and not spread < b / 3:
                flag = " over" if spread < b else " OVER BOUND"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(v):12.6g} {max(v):12.6g} {spread:7.3f} {'' if b is None else round(b / 3, 3)}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

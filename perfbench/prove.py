#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, per
(workload, end-to-end metric), the median, the quartiles and the spread
(interquartile distance as a share of the median), against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10 --out set-a.json
    python3 perfbench/prove.py --seeds 1-10 --workloads fig5-cls --trace 1

The command, run length and bounds come from BENCHMARK.json. Exits 1 if
any run failed its checks or any spread (other than setup_s's) reaches
a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = opts.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workloads != "all":
        workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(opts.seeds)

    report = {"seconds": seconds, "trace": opts.trace, "seeds": seeds, "workloads": {}}
    ok = True
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}
    for w in workloads:
        runs = [run_once(spec["command"], w, s, seconds, opts.trace) for s in seeds]
        for r in runs:
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected:
                ok = False
                print(f"{w}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"{w}: {len(bad)} runs failed their checks")
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values) if len(values) > 1 else {"median": values[0], "values": values}
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name)
            spread = s.get("spread")
            flag = ""
            if bound is not None and spread is not None and name != "setup_s":
                if spread >= bound / 3:
                    flag = "  <-- spread >= bound/3"
                    ok = False
            print(f"{w:<18} {name:<32} median {s['median']:>14.6g} {s['unit']:<6}"
                  f" spread {spread if spread is not None else float('nan'):>7.4f}"
                  f" bound {bound if bound is not None else '-'}{flag}")
        report["workloads"][w] = {
            "wall_s_max": max(r["wall_s"] for r in runs),
            "metrics": metrics,
        }
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

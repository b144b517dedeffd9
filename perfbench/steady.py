#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to gate on.

Runs every workload once per seed through run.py, in one or more sets, and
reports for each end-to-end metric the spread of its per-seed values: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. A metric is steady when that spread stays within
a third of its bound in BENCHMARK.json, and, with two or more sets, when no
set's median is worse than the first set's by more than the bound. A spread
above the bound fails the check, setup_s's included (a stricter rule than
the gate applies to setup_s). Metrics the benchmark marks exact in its
`context` line must be identical for the same seed in every set.

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --seeds 1-5 --workloads gateway-libra-3p
    python3 perfbench/steady.py --seeds 1-10 --sets 2 --order interleave

--order sets (the default) runs each set whole, every workload seed by
seed. --order interleave lets the sets take turns seed by seed (seed 1 of
set 0, seed 1 of set 1, seed 2 of set 0, ...), so both sets see the same
stretches of a host whose speed drifts over minutes. --order workload runs
one workload's sets back to back before the next workload, so the ten runs
of a set follow each other within a few minutes.

Raw results are written to .bench_build/steady.json (or --out). A file
from an earlier call can stand in for the first set (--baseline), so two
sets can be measured at different times:

    python3 perfbench/steady.py --seeds 1-10 --out .bench_build/set1.json
    python3 perfbench/steady.py --seeds 1-10 --baseline .bench_build/set1.json

Exit code 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    context = next((json.loads(l[len("context: "):]) for l in lines
                    if l.startswith("context: ")), {})
    result = json.loads(lines[-1]) if lines else {}
    return out.returncode, context, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--order", choices=("sets", "interleave", "workload"), default="sets")
    parser.add_argument("--baseline", help="raw results of an earlier call, used as set 0")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "steady.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    expected = {m["name"] for m in metrics}
    seeds = parse_seeds(args.seeds)

    ok = True
    raw = {}  # (set, workload, seed) -> metric values
    exact = {}
    first_set = 0
    if args.baseline:
        with open(args.baseline) as f:
            for key, values in json.load(f).items():
                _, w, seed = key.split("/")
                raw[(0, w, int(seed))] = values
        first_set = 1
    sets = first_set + args.sets
    new_sets = range(first_set, sets)
    if args.order == "interleave":
        order = [(s, seed, w) for seed in seeds for s in new_sets for w in workloads]
    elif args.order == "workload":
        order = [(s, seed, w) for w in workloads for s in new_sets for seed in seeds]
    else:
        order = [(s, seed, w) for s in new_sets for seed in seeds for w in workloads]
    for s, seed, w in order:
        code, context, result = run_once(spec, w, seed, args.trace)
        got = set(result.get("metrics", {}))
        if code != 0 or not result.get("correct") or result.get("failed") != 0:
            print(f"FAIL set {s} {w} seed {seed}: exit {code}, {result}")
            ok = False
        if got != expected:
            print(f"FAIL {w}: metrics {sorted(got ^ expected)} differ from BENCHMARK.json")
            ok = False
        exact[w] = context.get("exact_metrics", [])
        raw[(s, w, seed)] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        print(f"set {s} seed {seed:3d} {w:24s} " + " ".join(
            f"{k}={v:.6g}" for k, v in raw[(s, w, seed)].items()), flush=True)

    print()
    for w in workloads:
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            firsts = None
            for s in range(sets):
                values = [raw.get((s, w, seed), {}).get(name) for seed in seeds]
                if any(v is None for v in values) or len(values) < 2:
                    continue
                sp, med = spread(values)
                verdict = ""
                if bound is not None:
                    verdict = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "NOISY")
                    ok &= sp <= bound
                if firsts is None:
                    firsts = med
                elif bound is not None:
                    # Positive: this set's median is worse than the first's.
                    worse = (med - firsts) / firsts if m["better"] == "lower" else (firsts - med) / firsts
                    verdict += f" worse by {worse:+.4f}"
                    if worse > bound:
                        verdict += " DRIFT"
                        ok = False
                print(f"{w:24s} {name:36s} set {s} median {med:14.6g} spread {sp:7.4f}"
                      + (f" bound {bound}" if bound is not None else "") + f" {verdict}")
            if name in exact.get(w, []) and sets > 1:
                for seed in seeds:
                    vals = {raw.get((s, w, seed), {}).get(name) for s in range(sets)}
                    if len(vals) != 1:
                        print(f"FAIL {w} {name} seed {seed}: exact metric differs across sets: {vals}")
                        ok = False

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({f"{s}/{w}/{seed}": v for (s, w, seed), v in raw.items()
                   if s >= first_set}, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/stats.py --runs 10 --first-seed 1 --out runs.json
    python3 perfbench/stats.py --runs 10 --first-seed 11 --compare runs.json

Runs ``run.py`` once per seed and workload, one process at a time, with
``run_seconds`` from BENCHMARK.json.  For each end-to-end metric it
prints the median and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound: a spread under a third of the bound is steady.  The
counts in ``EXACT`` must repeat exactly from run to run; a mismatch is
reported as nondeterminism.
``--compare`` checks that no median is worse than the earlier file's by
more than the bound.  Exits 1 if any run fails or any check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# counts that must not change from seed to seed (montecarlo.path_steps
# depends on the seed, so run.py checks it only between passes of one run)
EXACT = ("fw_iters", "model_core.solves", "measures.moment.calls")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload, after the untraced ones")
    parser.add_argument("--out", help="write every result and summary here")
    parser.add_argument("--compare", help="earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]

    problems = []
    report = {"seeds": seeds, "runs": {}, "summary": {}}
    for name in names:
        results = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = [run_once(name, s, spec["run_seconds"], 1) for s in seeds[:args.traced]]
        report["runs"][name] = {"untraced": results, "traced": traced}
        summary = report["summary"][name] = {}
        for r in results + traced:
            if not r["correct"]:
                problems.append(f"{name}: a run reported correct=false")
        failed = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"== {name}: {len(results)} runs, failed {failed}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                  "values": vals}
            flag = "" if sp < m["bound"] / 3 else "  <-- spread above bound/3"
            if sp > m["bound"]:
                problems.append(f"{name}: {m['name']} spread {sp:.3f} > bound {m['bound']}")
            line = (f"  {m['name']:14s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {sp:.4f} (bound {m['bound']}){flag}")
            if earlier is not None and name in earlier:
                old = earlier[name][m["name"]]["median"]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  vs earlier {old:.6g}: {worse:+.4f}"
                if worse > m["bound"]:
                    problems.append(f"{name}: {m['name']} median worse by {worse:.3f}")
            print(line)
        for key in EXACT:
            seen = {r["metrics"][key]["value"] for r in results + traced if key in r["metrics"]}
            if len(seen) > 1:
                problems.append(f"{name}: {key} differs between runs: {sorted(seen)}")
        if traced:
            summary["per_layer"] = {
                k: statistics.median(r["metrics"][k]["value"] for r in traced)
                for k in traced[0]["metrics"]}
            for k, v in summary["per_layer"].items():
                print(f"  {k:40s} {v:.6g} {traced[0]['metrics'][k]['unit']}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

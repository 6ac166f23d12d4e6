#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The run repeats the workload's passes until
``--seconds`` is used up and reports medians over passes.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run metadata, every operation that failed, and the per-pass samples go
to ``.bench_build/perfbench/`` in the checkout; the spans of traced
passes go to ``.bench_build/perfbench/traces/``.
"""

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads, so cap them before that
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPS = 3
INSTANCE_SIZES = (100, 200, 300, 400, 800)  # J=K of the per-instance solve metrics
SMALL_STEP = 0.01


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return spec


def import_package():
    """Import mfgstop from this checkout's src/; return (package, import seconds)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        pkg = importlib.import_module("mfgstop")
        importlib.import_module("mfgstop.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import mfgstop from {src}: {exc}") from exc
    import_s = time.perf_counter() - t0
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(src, "")):
        raise BenchError(f"mfgstop was imported from {pkg.__file__}, not from {src}")
    return pkg, import_s


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def run_metadata(args, spec):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "max_iters": args.max_iters,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_thread_cap": THREAD_CAP,
        "thread_vars": list(THREAD_VARS),
        "git_commit": git_commit(),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
    }


# ----------------------------------------------------------------------
# measurement


def run_passes(workload, seconds, trace):
    """Set up SETUP_REPS times, then run passes until the time is used up.

    A pass starts only if a pass as long as the longest so far still ends
    before the deadline; at least one untraced pass, and with ``trace``
    one traced pass, always runs.
    """
    deadline = time.perf_counter() + seconds
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    untraced, traced = [], []
    longest = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            tracer.install()
            try:
                res = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((res, tracer))
        else:
            res = workload.run_pass()
            untraced.append(res)
            setup_s.append(res.setup_s)
        longest = max(longest, time.perf_counter() - t0)
        enough = bool(untraced) and (bool(traced) or not trace)
        if enough and time.perf_counter() + longest > deadline:
            return setup_s, untraced, traced


def layer_metrics(tracer, res, import_s):
    incl = tracer.inclusive_s
    counts = tracer.counts
    iters = sum(it for _, it, _ in tracer.solves)
    rhos = [r for _, _, rho in tracer.solves for r in rho]
    solve_s = incl("mfg.fixed_point_solve")
    line_searches = counts["mfg.line_search"]
    within, slices = res.mc_within
    m = {
        "model_core.build_s": incl("model_core.build_transition_operator"),
        "model_core.slices": counts["model_core.slices"],
        "model_core.dense_mb": counts["model_core.dense_bytes"] / 2**20,
        "model_core.solves": counts["model_core.slice_apply"]
        + counts["model_core.slice_apply_adjoint"],
        "model_core.solve_s": sum(tracer.leaf_s.values()),
        "measures.moment.calls": counts["measures.moment"],
        "measures.moment.s": incl("measures.moment"),
        "measures.convex_combine.s": incl("measures.convex_combine"),
        "measures.is_admissible.s": incl("measures.is_admissible"),
        "reward.potential_value.calls": counts["reward.potential_value"],
        "reward.potential_value.s": incl("reward.potential_value"),
        "reward.evaluate_reward.calls": counts["reward.evaluate_reward"],
        "reward.evaluate_reward.s": incl("reward.evaluate_reward"),
        "mfg.line_search.s": incl("mfg.line_search"),
        "mfg.line_search.phi_per_iter": (
            tracer.children_count("mfg.line_search", "reward.potential_value") / line_searches
            if line_searches else 0.0),
        "mfg.iter_s": solve_s / iters if iters else solve_s,
        "mfg.small_step_frac": sum(r < SMALL_STEP for r in rhos) / len(rhos) if rhos else 0.0,
        "mfg.best_response.s": incl("mfg.best_response"),
        "obstacle.solve_vi.calls": counts["obstacle.solve_vi"],
        "obstacle.solve_vi.s": incl("obstacle.solve_vi"),
        "obstacle.complementarity_report.s": incl("obstacle.complementarity_report"),
        "forward.stopped_forward_measure.calls": counts["forward.stopped_forward_measure"],
        "forward.stopped_forward_measure.s": incl("forward.stopped_forward_measure"),
        "forward.fokker_planck_residual.s": incl("forward.fokker_planck_residual"),
        "lp_oracle.audit.s": incl("lp_oracle.audit"),
        "montecarlo.simulate_paths.s": incl("montecarlo.simulate_paths"),
        "montecarlo.path_steps": counts["montecarlo.path_steps"],
        "montecarlo.noise_mb": counts["montecarlo.noise_bytes"] / 2**20,
        "montecarlo.within_3se_frac": within / slices if slices else 0.0,
        "cli.build_instance.s": incl("cli.build_instance"),
        "cli.write_s": incl("cli.grid_csv_text") + incl("cli.write"),
        "cli.read_s": incl("cli.read_grid_csv"),
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.solve_mfg.s": incl("cli.solve_mfg"),
        "cli.verify.s": incl("cli.verify"),
        "cli.mc_check.s": incl("cli.mc_check"),
        "package.import_s": import_s,
    }
    for n in INSTANCE_SIZES:
        tag = f"J{n}"
        m[f"mfg.fixed_point_solve.s.{tag}"] = incl("mfg.fixed_point_solve", instance=tag)
        m[f"mfg.fixed_point_solve.iters.{tag}"] = sum(
            it for inst, it, _ in tracer.solves if inst == tag)
    return m


def median_metrics(samples):
    """Median per metric over passes; counts (ints) must agree exactly."""
    out, mismatched = {}, []
    for name in samples[0]:
        vals = [s[name] for s in samples]
        if isinstance(vals[0], int):
            if len(set(vals)) > 1:
                mismatched.append(f"{name} {vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out, mismatched


def summarize(spec, setup_s, untraced, traced, import_s):
    """(metrics, nondeterminism notes) for the run."""
    notes = []
    iters = [r.fw_iters for r in untraced] + [r.fw_iters for r, _ in traced]
    if len(set(iters)) > 1:
        notes.append(f"fw_iters {iters}")
    if traced:
        layers, mismatched = median_metrics(
            [layer_metrics(tr, res, import_s) for res, tr in traced])
        notes += mismatched
        layers["tracing.overhead_s"] = (statistics.median(r.total_s for r, _ in traced)
                                        - statistics.median(r.total_s for r in untraced))
        wanted = spec["per_layer"]
        values = layers
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "total_s": statistics.median(r.total_s for r in untraced),
            "setup_s": statistics.median(setup_s),
            "solve_s": statistics.median(r.solve_s for r in untraced),
            "fw_iters": iters[0],
            "peak_rss_mb": peak_kib / 1024.0,
        }
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(values):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(names ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="instance sizes; 'smoke' is the self-test's")
    parser.add_argument("--max-iters", type=int, default=workloads.MAX_ITERS,
                        help="FW iteration cap (the self-test lowers it to force failures)")
    args = parser.parse_args(argv)

    try:
        spec = load_definition()
        pkg, import_s = import_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta = run_metadata(args, spec)
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](
            pkg, args.seed, size=args.size, max_iters=args.max_iters, workdir=workdir)
        setup_s, untraced, traced = run_passes(workload, args.seconds, args.trace)
        metrics, notes = summarize(spec, setup_s, untraced, traced, import_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in untraced for op in r.ops] + [op for r, _ in traced for op in r.ops]
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known]
    correct = not unexpected and not notes

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for i, (_, tracer) in enumerate(traced):
        tracer.dump(os.path.join(OUT_DIR, "traces", f"{stem}-pass{i}.json"), meta)
    record = {
        "meta": meta,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {
            "setup_s": setup_s,
            "total_s": [r.total_s for r in untraced],
            "solve_s": [r.solve_s for r in untraced],
            "traced_total_s": [r.total_s for r, _ in traced],
        },
        "failed_ops": sorted({f"{op.name}: {op.detail}" for op in failed}),
        "nondeterminism": notes,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    for op in sorted(set(failed)):
        known = " (known defect)" if op.known else ""
        print(f"failed{known}: {op.name}: {op.detail}")
    for note in notes:
        print(f"NONDETERMINISM: {note}")
    print(f"failed_frac: {len(failed)}/{len(ops)}")
    if traced:
        self_s = traced[0][1].self_times()
        print("self time of the first traced pass, by layer:")
        for name in sorted(self_s, key=self_s.get, reverse=True)[:12]:
            print(f"  {name:40s} {self_s[name]:.4f} s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

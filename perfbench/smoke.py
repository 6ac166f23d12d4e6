#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that
- every workload runs at the small sizes, untraced and traced, reports
  correct=true and emits exactly the metrics of BENCHMARK.json, each
  with its declared unit;
- a forced failure (FW iteration cap of 1) is counted in ``failed`` and
  turns ``correct`` false;
- a failed mc-check counts as the known defect only if it looks as
  recorded (exit code, rows, slices within 3 SE);
- in a directory holding only BENCHMARK.json and the benchmark's files,
  ``run.py`` exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(root, *args):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out["attempted"]
    assert isinstance(out["failed"], int), out["failed"]
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = result_of(run(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--size", "smoke"))
            assert out["correct"], (w["name"], trace)
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            emitted = {k: v["unit"] for k, v in out["metrics"].items()}
            assert emitted == declared, (w["name"], trace, set(emitted) ^ set(declared))
            for k, v in out["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"ok  {w['name']} trace={trace}: {len(emitted)} metrics, "
                  f"failed {out['failed']}/{out['attempted']}")

    out = result_of(run(ROOT, "--workload", "ladder", "--seed", "3", "--seconds", "1",
                        "--size", "smoke", "--max-iters", "1"))
    assert out["failed"] >= 1 and not out["correct"], out
    print(f"ok  forced failure counted: failed {out['failed']}/{out['attempted']}, "
          f"correct={out['correct']}")

    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        chk = workloads.Check(None, 0, workdir=workdir)
    rows, least = chk.n + 1, chk.sizes["mc_min_within"]
    assert chk.mc_failure_is_known(workloads.MC_KNOWN_EXIT, least, rows)
    assert not chk.mc_failure_is_known(workloads.MC_KNOWN_EXIT, least - 1, rows)
    assert not chk.mc_failure_is_known(workloads.MC_KNOWN_EXIT, 0, 0)  # no report
    assert not chk.mc_failure_is_known(1, least, rows)
    print(f"ok  mc-check known only as recorded: exit {workloads.MC_KNOWN_EXIT}, "
          f"{rows} rows, >= {least} within 3 SE")

    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "ladder", "--seed", "3", "--seconds", "1")
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

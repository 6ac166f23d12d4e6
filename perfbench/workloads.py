"""The three benchmark workloads: instance builders, one timed pass each, output checks.

A pass does all of a workload's work once and returns a ``PassResult``.
Every call into the package goes through a module attribute looked up at
call time, so that a tracer installed by ``tracer.Tracer`` sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import NamedTuple

EPS_TOL = 1e-9
MAX_ITERS = 500
# A solve must land within VALUE_ATOL of the equilibrium value recorded
# below.  Exploitability <= eps pins the value only to O(sqrt(eps)): on
# the J=K=400 ladder instance, solves stopped at eps 1e-8 and 1e-9 differ
# by 5.7e-6, so another algorithm that converges may move it that much.
VALUE_ATOL = 1e-5

# Equilibrium values when the benchmark was introduced, keyed by
# (workload, J=K); the small sizes are those of the self-test.
REFERENCE_VALUES = {
    ("ladder", 100): 0.019319324226063746,
    ("ladder", 200): 0.019850831966446943,
    ("ladder", 400): 0.020008887889242655,
    ("ladder", 800): 0.020040154424040748,
    ("timedep", 300): 0.002548883226609366,
    ("check", 300): 0.020045845782170293,
    ("ladder", 20): 0.01726335331968579,
    ("ladder", 50): 0.01954462331811431,
    ("timedep", 20): 0.0029302711448003643,
    ("check", 50): 0.01954462331811431,
}

# The Monte Carlo check misses its 95% within-3-SE criterion because of
# the simulator's exit bias, a documented defect of the program.  Its
# failure counts as that known defect, and stays visible in the failed
# count, only if it looks as recorded: mc-check's VerificationFailure exit
# code, a report row for every time slice, and at least "mc_min_within"
# slices within 3 SE, the fewest of any seed in results/mc-within-scan.json.
# Any other mc-check failure is unexpected.
MC_KNOWN_EXIT = 5

# The self-test's sizes must converge at EPS_TOL within MAX_ITERS; many
# small grids do not (the ladder game stalls at J=K 16, 24, 30, 32, 40, 48).
SIZES = {
    "full": {"ladder": (100, 200, 400, 800), "timedep": 300, "check": 300, "n_paths": 100000,
             "mc_min_within": 22},
    "smoke": {"ladder": (20, 50), "timedep": 20, "check": 50, "n_paths": 2000,
              "mc_min_within": 5},
}


CHECK_CONFIG = """\
[grid]
T = 1.0
K = {n}
a = 0.0
b = 1.0
J = {n}

[model]
mu.kind = constant
mu.params = 0.0
sigma.kind = constant
sigma.params = 0.5

[initial]
kind = uniform

[reward]
term1.fbar.kind = linear
term1.fbar.params = 1.0, 2.0
term1.g.kind = constant
term1.g.params = 1.0

[algorithm]
max_iters = {max_iters}
eps_tol = {eps_tol!r}
m_init = zero

[mc]
n_paths = {n_paths}
seed = 0
"""


class Op(NamedTuple):
    """One checked operation; ``known`` marks a failure that is a known defect."""
    name: str
    ok: bool
    detail: str
    known: bool = False


@dataclass
class PassResult:
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    fw_iters: int = 0
    ops: list = field(default_factory=list)  # of Op
    mc_within: tuple = (0, 0)                # (slices within 3 SE, slices)


@dataclass
class Instance:
    spec: object
    ctx: object
    value_key: tuple


class Workload:
    """One workload: ``setup`` builds its inputs, ``run_pass`` does its work once."""

    name = ""

    def __init__(self, pkg, seed, size="full", max_iters=MAX_ITERS, workdir=None):
        self.pkg = pkg
        self.seed = seed
        self.sizes = SIZES[size]
        self.max_iters = max_iters
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run_pass(self, tracer=None):
        raise NotImplementedError

    # shared by the workloads that call fixed_point_solve directly
    def _solve_all(self, builders, tracer):
        pkg = self.pkg
        res = PassResult()
        t_start = time.perf_counter()
        for tag, build in builders:
            if tracer is not None:
                tracer.instance = tag
            op = f"{self.name}:solve:{tag}"
            t0 = time.perf_counter()
            inst = build()
            t1 = time.perf_counter()
            try:
                result = pkg.mfg.fixed_point_solve(inst.spec, inst.ctx,
                                                   max_iters=self.max_iters, eps_tol=EPS_TOL)
            except pkg.errors.MfgStopError as exc:
                res.ops.append(Op(op, False, f"raised {type(exc).__name__}: {exc}"))
                continue
            finally:
                t2 = time.perf_counter()
                res.setup_s += t1 - t0
                res.solve_s += t2 - t1
            res.fw_iters += result.iterations
            res.ops.append(Op(op, *solve_check(pkg, inst, result)))
            del inst, result
        res.total_s = time.perf_counter() - t_start
        if tracer is not None:
            tracer.instance = None
        return res


def solve_check(pkg, inst, result):
    """(ok, detail) for one fixed-point solve, by the rules ``run_verify`` applies."""
    problems = []
    if not result.converged:
        problems.append(f"not converged after {result.iterations} iterations")
    if result.exploitability > EPS_TOL:
        problems.append(f"exploitability {result.exploitability:.3e} > {EPS_TOL:g}")
    gap_tol = EPS_TOL + 1e-10 * (1.0 + abs(result.value))
    if result.duality_gap > gap_tol:
        problems.append(f"duality gap {result.duality_gap:.3e} > {gap_tol:.3e}")
    ctx = inst.ctx
    rep = pkg.measures.is_admissible(result.m_star, ctx.m0, ctx.transition, tol=1e-10)
    if not rep:
        problems.append(f"inadmissible: {rep.kind} {rep.worst_violation:.3e}")
    problems += value_problems(inst.value_key, result.value)
    return (not problems, "; ".join(problems) or f"value {result.value!r}")


def value_problems(key, value):
    ref = REFERENCE_VALUES.get(key)
    if ref is None:
        return [f"no reference value for {key}"]
    if abs(value - ref) > VALUE_ATOL:
        return [f"value {value!r} differs from reference {ref!r}"]
    return []


def _model(pkg, sigma_time=None):
    mc = pkg.model_core
    return mc.DiffusionModel(
        mu=mc.ProductField(mc.CoefficientFn.constant(0.0)),
        sigma=mc.ProductField(mc.CoefficientFn.constant(0.5), time=sigma_time))


def _instance(pkg, n, model, fbar, h, value_key):
    mc = pkg.model_core
    grid = mc.build_grid(T=1.0, a=0.0, b=1.0, K=n, J=n)
    P = mc.build_transition_operator(model, grid)
    m0 = mc.InitialMeasure.uniform(grid)
    spec = pkg.reward.RewardSpec(terms=((fbar, mc.CoefficientFn.constant(1.0)),),
                                 h=h).validated(grid, m0)
    ctx = pkg.mfg.ModelContext(grid=grid, model=model, transition=P, m0=m0)
    return Instance(spec=spec, ctx=ctx, value_key=value_key)


class Ladder(Workload):
    """The congestion game at every size of the ladder, smallest first."""

    name = "ladder"

    def _builders(self):
        return [(f"J{n}", lambda n=n: self.build(n)) for n in self.sizes["ladder"]]

    def build(self, n):
        pkg = self.pkg
        return _instance(pkg, n, _model(pkg), pkg.reward.FBarFn("linear", (1.0, 2.0)),
                         None, ("ladder", n))

    def setup(self):
        for _, build in self._builders():
            build()

    def run_pass(self, tracer=None):
        return self._solve_all(self._builders(), tracer)


class TimeDep(Workload):
    """Time-dependent volatility (one operator slice per step), exponential coupling."""

    name = "timedep"

    def build(self):
        pkg = self.pkg
        mc = pkg.model_core
        n = self.sizes["timedep"]
        return _instance(pkg, n, _model(pkg, sigma_time=mc.CoefficientFn.affine(1.0, 0.5)),
                         pkg.reward.FBarFn("exponential", (1.0, 2.0)),
                         mc.ProductField(mc.CoefficientFn.constant(-0.5)), ("timedep", n))

    def setup(self):
        self.build()

    def run_pass(self, tracer=None):
        n = self.sizes["timedep"]
        return self._solve_all([(f"J{n}", self.build)], tracer)


STAGE_CODES = (("ConfigParseError", 2), ("VerificationFailure", 5),
               ("SolverError", 4), ("ValidationError", 3), ("MfgStopError", 1))


def run_stage(pkg, fn, *args):
    """Run a CLI command function; return its exit code as ``mfgstop`` would."""
    errors = pkg.errors
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return fn(*args)
    except errors.MfgStopError as exc:
        for name, code in STAGE_CODES:
            if isinstance(exc, getattr(errors, name)):
                return code
        return 1


class Check(Workload):
    """The CLI pipeline solve-mfg -> verify -> mc-check on a config file."""

    name = "check"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = self.sizes["check"]
        self.config_path = os.path.join(self.workdir, "check.ini")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(CHECK_CONFIG.format(n=self.n, max_iters=self.max_iters, eps_tol=EPS_TOL,
                                         n_paths=self.sizes["n_paths"]))

    def build(self):
        cli = self.pkg.cli
        return cli.build_instance(cli.load_config(self.config_path), self.workdir)

    def setup(self):
        self.build()

    def run_pass(self, tracer=None):
        pkg = self.pkg
        cli = pkg.cli
        out = os.path.join(self.workdir, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        res = PassResult()
        solve_s = []
        solve = cli.fixed_point_solve

        def timed_solve(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                solve_s.append(time.perf_counter() - t0)

        t_start = time.perf_counter()
        if tracer is not None:
            tracer.instance = f"J{self.n}"
        inst = self.build()
        res.setup_s = time.perf_counter() - t_start
        cli.fixed_point_solve = timed_solve
        try:
            code_solve = run_stage(pkg, cli.run_solve_mfg, inst, out, True)
        finally:
            cli.fixed_point_solve = solve
        code_verify = run_stage(pkg, cli.run_verify, inst, out, self.seed, True)
        code_mc = run_stage(pkg, cli.run_mc_check, inst, out, self.seed, True)
        res.total_s = time.perf_counter() - t_start
        res.solve_s = sum(solve_s)
        if tracer is not None:
            tracer.instance = None
        del inst

        res.ops.append(Op("check:solve-mfg", *self._summary_check(code_solve, out, res)))
        res.ops.append(Op("check:verify", code_verify == 0, f"exit code {code_verify}"))
        within, slices = res.mc_within = self._mc_report(out)
        res.ops.append(Op("check:mc-check", code_mc == 0,
                          f"exit code {code_mc}, {within}/{slices} slices within 3 SE",
                          self.mc_failure_is_known(code_mc, within, slices)))
        return res

    def mc_failure_is_known(self, code, within, slices):
        """Whether a failed mc-check matches the recorded simulator-bias defect."""
        return (code == MC_KNOWN_EXIT and slices == self.n + 1
                and within >= self.sizes["mc_min_within"])

    def _summary_check(self, code, out, res):
        if code != 0:
            return (False, f"exit code {code}")
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        res.fw_iters = int(summary["iterations"])
        problems = []
        if summary["exploitability"] > EPS_TOL:
            problems.append(f"not converged: exploitability {summary['exploitability']:.3e}")
        problems += value_problems(("check", self.n), summary["value"])
        return (not problems, "; ".join(problems) or f"value {summary['value']!r}")

    @staticmethod
    def _mc_report(out):
        """(slices within 3 SE, slices) from mc_report.csv; (0, 0) if it was not written."""
        try:
            with open(os.path.join(out, "mc_report.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
        except FileNotFoundError:
            return (0, 0)
        z = [float(r.split(",")[5]) for r in rows if r]
        return (sum(1 for v in z if abs(v) <= 3.0), len(z))


WORKLOADS = {cls.name: cls for cls in (Ladder, TimeDep, Check)}

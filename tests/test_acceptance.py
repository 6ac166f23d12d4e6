"""Top-level acceptance gate: one test per advertised guarantee.

Each test prints a single PASS/FAIL line (bypassing capture, so the
lines appear in any pytest run) and then asserts.  The criteria:

1. strong duality of the value and the paired forward measure
2. agreement of enumeration, simplex and dynamic-programming values
3. complementarity and the weak forward-equation identity
4. admissibility and the test-function audit for emitted measures
5. monotone convergence on the reference crowding game
6. initialization-independence of the equilibrium value
7. the equilibrium maximizes the potential
8. Monte Carlo consistency of the equilibrium measure
9. pure equilibria put no mass where the value vanishes

Criterion 8 checks the equilibrium's stop rule against independent
sample paths.  Its yardstick is an exact-time reference: the same rule
under the exact one-step law expm(dt*A) of the upwind generator on a
twice-refined space grid (conftest.exact_time_totals), which is what a
bias-free simulator samples.  The finite-difference chain itself is not
the yardstick: its implicit-Euler time error is ~3 standard errors at
n = 1e5, so a sample-noise test against it fails or passes by seed.
Instead the criterion asks (a) that the bridge-killed path totals sit
within 3 SE of the reference at every size, and (b) that the chain's
own, deterministic, gap to the reference shrinks under refinement.
"""

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    Iterate,
    ProductField,
    RewardSpec,
    enumerate_stopping_rules,
    fixed_point_solve,
    fokker_planck_residual,
    is_admissible,
    lp_solve_small,
    moment,
    pair,
    potential_value,
    random_test_function,
    simulate_paths,
    solve_vi,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.lp_oracle import random_admissible_measure
from mfgstop.lp_oracle import test_function_audit as function_audit
from mfgstop.obstacle import complementarity_report

from conftest import congestion_instance, exact_time_totals, random_instance

_SIZES = (25, 50, 100, 200)
_RUNS = None


def _duality_runs():
    """The 20 randomized single-agent solves shared by criteria 1, 3, 4."""
    global _RUNS
    if _RUNS is None:
        rng = np.random.default_rng(1001)
        runs = []
        for _ in range(20):
            J = int(rng.choice(_SIZES))
            K = int(rng.choice(_SIZES))
            grid, model, P, m0, f = random_instance(rng, J=J, K=K)
            v = solve_vi(f, P)
            family, ledger = stopped_forward_measure(v.stop_mask, m0, P)
            runs.append((grid, model, P, m0, f, v, family))
        _RUNS = runs
    return _RUNS


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_strong_duality(capsys):
    worst = 0.0
    for grid, model, P, m0, f, v, family in _duality_runs():
        value = value_at_initial(v, m0)
        gap = abs(value - pair(f, family)) / (1.0 + abs(value))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(capsys, 1, ok,
            f"worst relative duality gap {worst:.3e} over 20 instances "
            f"(J, K in {set(_SIZES)}), tolerance 1e-10")


def test_criterion_2_triple_oracle_agreement(capsys):
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(50):
        J = int(rng.integers(2, 5))
        K = int(rng.integers(1, 4))
        grid, model, P, m0, f = random_instance(rng, J=J, K=K)
        v_enum = enumerate_stopping_rules(f, P, m0).best_value
        v_lp = lp_solve_small(f, P, m0).value
        v_dp = value_at_initial(solve_vi(f, P), m0)
        worst = max(worst, abs(v_enum - v_lp), abs(v_enum - v_dp),
                    abs(v_lp - v_dp))
    ok = worst <= 1e-9
    _report(capsys, 2, ok,
            f"worst pairwise oracle gap {worst:.3e} over 50 tiny instances, "
            f"tolerance 1e-9")


def test_criterion_3_complementarity_and_forward_identity(capsys):
    worst_int = 0.0
    worst_res = 0.0
    rng = np.random.default_rng(3003)
    for grid, model, P, m0, f, v, family in _duality_runs():
        rep = complementarity_report(v, f, family, P)
        worst_int = max(worst_int, rep.stop_region_integral / (1.0 + m0.total))
        for _ in range(10):
            phi = random_test_function(v, grid, rng)
            norm = float(np.abs(phi).max())
            if norm == 0.0:
                continue
            res = fokker_planck_residual(family, v, P, phi, m0)
            worst_res = max(worst_res, res / norm)
    ok = worst_int <= 1e-8 and worst_res <= 1e-9
    _report(capsys, 3, ok,
            f"stop-region integral {worst_int:.3e} (tol 1e-8), forward-equation "
            f"residual {worst_res:.3e} (tol 1e-9) on criterion 1's instances")


def test_criterion_4_admissibility_and_audit(capsys, congestion_solution):
    emitted = [(P, m0, family) for grid, model, P, m0, f, v, family in _duality_runs()]
    emitted.append((congestion_solution["P"], congestion_solution["m0"],
                    congestion_solution["result"].m_star))
    worst_adm = 0.0
    worst_slack = 0.0
    for i, (P, m0, family) in enumerate(emitted):
        rep = is_admissible(family, m0, P, tol=1e-10)
        assert bool(rep), f"measure {i} inadmissible: {rep.kind} {rep.worst_violation:.3e}"
        worst_adm = max(worst_adm, rep.worst_violation)
        audit = function_audit(family, m0, P, n_functions=100, seed=4000 + i)
        worst_slack = min(worst_slack, audit.worst_normalized)
    ok = worst_adm <= 1e-10 and worst_slack >= -1e-9
    _report(capsys, 4, ok,
            f"{len(emitted)} emitted measures: worst admissibility violation "
            f"{worst_adm:.3e} (tol 1e-10), worst normalized audit slack "
            f"{worst_slack:.3e} (floor -1e-9, 100 functions each)")


def test_criterion_5_reference_convergence(capsys, congestion_solution):
    res = congestion_solution["result"]
    pot = np.asarray(res.trace.potential)
    drops = float(np.diff(pot).min()) if len(pot) > 1 else 0.0
    elapsed = float(res.trace.wall_clock[-1])
    ok = (res.converged and res.iterations <= 500
          and res.exploitability <= 1e-6
          and drops >= -1e-12 and elapsed < 60.0)
    _report(capsys, 5, ok,
            f"crowding game J=K=100: exploitability {res.exploitability:.3e} "
            f"after {res.iterations} iterations, worst potential step "
            f"{drops:.3e}, wall clock {elapsed:.2f}s")


def test_criterion_6_value_unique_across_initializations(capsys,
                                                         congestion_solution):
    spec = congestion_solution["spec"]
    ctx = congestion_solution["ctx"]
    base = congestion_solution["result"]
    other = fixed_point_solve(
        spec, ctx, m_init=stopped_forward_measure(None, ctx.m0, ctx.transition)[0],
        eps_tol=1e-9)
    dval = abs(other.value - base.value)
    ones = CoefficientFn.constant(1.0)
    y_a = moment(base.m_star, ones)
    y_b = moment(other.m_star, ones)
    l1 = float(ctx.grid.dt * np.abs(y_a - y_b).sum())
    ok = other.converged and dval <= 1e-6 and l1 <= 1e-4
    _report(capsys, 6, ok,
            f"zero vs all-continue start: value difference {dval:.3e} "
            f"(tol 1e-6), moment path L1 distance {l1:.3e} (tol 1e-4)")


def test_criterion_7_equilibrium_maximizes_potential(capsys,
                                                     congestion_solution):
    res = congestion_solution["result"]
    spec = congestion_solution["spec"]
    f_star = potential_value(spec, Iterate.of(spec, res.m_star))
    rng = np.random.default_rng(7007)
    worst = -np.inf
    for _ in range(100):
        m = random_admissible_measure(congestion_solution["P"],
                                      congestion_solution["m0"], rng)
        worst = max(worst, potential_value(spec, Iterate.of(spec, m)) - f_star)
    ok = worst <= 1e-6
    _report(capsys, 7, ok,
            f"largest potential excess over the equilibrium {worst:.3e} "
            f"across 100 random admissible measures (tol 1e-6)")


def test_criterion_8_monte_carlo_consistency(capsys, congestion_solution):
    n = 100000
    fracs, gaps = [], []
    for JK in (100, 200, 400):
        if JK == 100:
            sol = congestion_solution
            grid, model, m0, res = sol["grid"], sol["model"], sol["m0"], sol["result"]
        else:
            grid, model, P, m0, spec, ctx = congestion_instance(J=JK, K=JK)
            res = fixed_point_solve(spec, ctx, eps_tol=1e-9)
            assert res.converged
        ref = exact_time_totals(model, grid, res.v_star, m0)
        mc = simulate_paths(model, grid, res.v_star, m0, n, seed=0)
        se = np.sqrt(np.maximum(ref * (1.0 - ref), 1e-12) / n)
        z = np.abs(mc.family.slice_totals() - ref) / se
        fracs.append(float((z <= 3.0).mean()))
        gaps.append(float(np.abs(res.m_star.slice_totals() - ref).max()))
    sampled = min(fracs) >= 0.95
    shrinking = gaps[0] > gaps[1] > gaps[2]

    ok = sampled and shrinking
    _report(capsys, 8, ok,
            f"path totals within 3 SE of the exact-time reference at n=1e5, "
            f"J=K 100/200/400: {fracs[0]:.1%} / {fracs[1]:.1%} / "
            f"{fracs[2]:.1%} (need 95% each); chain's sup-gap to the "
            f"reference {gaps[0]:.5f} -> {gaps[1]:.5f} -> {gaps[2]:.5f} "
            f"({'shrinking' if shrinking else 'NOT shrinking'}). A low "
            f"fraction means the simulator is biased, e.g. exits checked "
            f"only at step ends; a gap that does not shrink means the "
            f"chain's discretization error does not vanish.")


def test_criterion_9_pure_equilibrium_avoids_dead_region(capsys):
    grid, model, P, m0, spec0, ctx = congestion_instance(J=40, K=40)
    theta = np.where(grid.t < 0.5, 1.0, -1.0)
    field = ProductField(space=CoefficientFn.constant(1.0),
                         time=CoefficientFn.tabulated(grid.t, theta))
    spec = RewardSpec(terms=(), h=field).validated(grid, m0)

    res = fixed_point_solve(spec, ctx, eps_tol=1e-12)
    assert res.converged
    dead = res.v_star.values <= res.v_star.tol_zero
    stray = float(res.m_star.masses[dead].sum())
    assert np.all(res.f_star[dead] <= -0.5)
    ok = stray <= 1e-10 * m0.total
    _report(capsys, 9, ok,
            f"reward -1 on the dead region: equilibrium mass there "
            f"{stray:.3e} (tol {1e-10 * m0.total:.1e})")

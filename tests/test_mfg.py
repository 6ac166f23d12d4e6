"""Fixed-point layer: best responses, line search, exploitability, solver.

The expensive reference equilibrium lives in the session-scoped
``congestion_solution`` fixture; tests here only read from it.  Small
instances are solved inline.  Two independent oracles appear below:
a golden-section search on the true potential (checks the closed-form
line search) and the small dense LP (checks exploitability).
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import mfgstop.mfg
import mfgstop.reward
from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    FBarFn,
    InitialMeasure,
    Iterate,
    MeasureFamily,
    ModelContext,
    ProductField,
    RewardSpec,
    best_response,
    build_grid,
    build_transition_operator,
    convex_combine,
    directional_gain,
    evaluate_reward,
    fixed_point_solve,
    line_search,
    lp_solve_small,
    measure_ledger,
    moment,
    pair,
    potential_value,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.errors import NonConcaveDetected, ShapeMismatch, SolverError, ValidationError
from mfgstop.forward import stopped_forward_measure
from mfgstop.lp_oracle import random_admissible_measure
from mfgstop.mfg import PushCache
from mfgstop.obstacle import complementarity_report, solve_vi
from mfgstop.reward import segment_potential

from conftest import (
    congestion_instance,
    has_avx2,
    lapack_is_openblas,
    make_instance,
    run_under_coretypes,
)


def _decoupled_spec(grid, m0, a=0.7):
    """No crowd dependence: fbar(t, y) = a for every y."""
    return RewardSpec(
        terms=((FBarFn("linear", (a, 0.0)), CoefficientFn.affine(0.3, 0.5)),),
    ).validated(grid, m0)


def _curved_instance(fbar, h, n=30, sigma_time=None):
    """One-term crowding game with a non-linear fbar and an uncoupled h;
    sigma_time makes the volatility, and so the operator, time-dependent."""
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=n, J=n)
    model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                           sigma=ProductField(CoefficientFn.constant(0.5), time=sigma_time))
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    spec = RewardSpec(terms=((fbar, CoefficientFn.constant(1.0)),), h=h).validated(grid, m0)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    return grid, P, m0, spec, ctx


CURVED = {
    "exponential": (FBarFn("exponential", (1.0, 2.0)),
                    ProductField(CoefficientFn.affine(-0.6, 0.2))),
    "saturating": (FBarFn("saturating", (1.0, -0.7)),
                   ProductField(CoefficientFn.affine(-0.05, 0.1))),
}


def _golden_section(phi, lo=0.0, hi=1.0, width=1e-12):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    fc, fd = phi(c), phi(d)
    while hi - lo > width:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = phi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = phi(d)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# best_response


def test_best_response_ignores_crowd_when_decoupled():
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)

    zero = MeasureFamily.zeros(grid)
    crowd = stopped_forward_measure(None, m0, P)
    it_a, it_b = Iterate.of(spec, zero), Iterate.of(spec, crowd)
    br_a = best_response(spec, it_a, ctx)
    br_b = best_response(spec, it_b, ctx)

    f_a, f_b = evaluate_reward(spec, it_a.ys), evaluate_reward(spec, it_b.ys)
    np.testing.assert_array_equal(f_a, f_b)
    np.testing.assert_array_equal(br_a.iterate.family.masses, br_b.iterate.family.masses)
    np.testing.assert_array_equal(solve_vi(f_a, P).values, solve_vi(f_b, P).values)


def test_best_response_stops_at_once_when_reward_is_negative():
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = RewardSpec(
        terms=((FBarFn("linear", (-1.0, 0.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)

    it = Iterate.of(spec, stopped_forward_measure(None, m0, P))
    br = best_response(spec, it, ctx)
    f = evaluate_reward(spec, it.ys)
    assert np.all(f < 0.0)
    v = solve_vi(f, P)
    np.testing.assert_array_equal(v.values, np.zeros((grid.K + 1, grid.J)))
    np.testing.assert_array_equal(br.iterate.family.masses,
                                  np.zeros((grid.K + 1, grid.J)))
    assert value_at_initial(v, m0) == 0.0
    assert measure_ledger(br.iterate.family, m0, P).stopped_per_step.sum() == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("change", [{"K": 9}, {"J": 7}, {"T": 2.0}],
                         ids=["K", "J", "T"])
def test_context_and_iterate_reject_another_grid(change):
    grid, model, P, m0 = make_instance()
    other = dataclasses.replace(grid, **change)
    with pytest.raises(ShapeMismatch):
        ModelContext(grid=other, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)
    elsewhere = MeasureFamily.zeros(other)
    with pytest.raises(ShapeMismatch):
        Iterate.of(spec, elsewhere)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    with pytest.raises(ValidationError):
        fixed_point_solve(spec, ctx, m_init=elsewhere)


def test_best_response_value_matches_small_lp():
    grid, model, P, m0, spec, ctx = congestion_instance(J=6, K=6)
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = random_admissible_measure(P, m0, rng)
        it = Iterate.of(spec, m)
        br = best_response(spec, it, ctx)
        f = evaluate_reward(spec, it.ys)
        lp = lp_solve_small(f, P, m0)
        got = pair(f, br.iterate.family)
        assert abs(got - lp.value) <= 1e-9 * (1.0 + abs(lp.value))


# ---------------------------------------------------------------------------
# line_search


def test_line_search_interior_matches_golden_section_oracle():
    grid, model, P, m0, spec, ctx = congestion_instance(J=40, K=40)
    m = stopped_forward_measure(None, m0, P)
    it = Iterate.of(spec, m)
    br = best_response(spec, it, ctx)
    m_tilde = br.iterate.family

    rho = line_search(spec, it, br.iterate, br.exploitability)
    assert 0.01 < rho < 0.99

    def phi(r):
        return potential_value(spec, Iterate.of(spec, convex_combine(m, m_tilde, r)))

    rho_oracle = _golden_section(phi)
    assert rho == pytest.approx(rho_oracle, abs=1e-7)
    best_on_grid = max(phi(r) for r in np.linspace(0.0, 1.0, 101))
    assert phi(rho) >= best_on_grid - 1e-12


@pytest.mark.parametrize("kind", sorted(CURVED))
def test_segment_potential_matches_potential_of_combined_family(kind):
    grid, P, m0, spec, ctx = _curved_instance(*CURVED[kind])
    rng = np.random.default_rng(37)
    for m in (stopped_forward_measure(None, m0, P),
              random_admissible_measure(P, m0, rng)):
        it = Iterate.of(spec, m)
        it_tilde = best_response(spec, it, ctx).iterate
        m_tilde = it_tilde.family
        phi = segment_potential(spec, it, it_tilde)
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            want = potential_value(spec, Iterate.of(spec, convex_combine(m, m_tilde, rho)))
            assert abs(phi(rho) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("kind", sorted(CURVED))
def test_segment_potential_is_the_potential_of_the_interpolated_paths(kind):
    # phi evaluates each term's theta(t_k) once per segment; at every rho
    # it keeps the bits of potential_value on the interpolated paths
    fbar, h = CURVED[kind]
    timed = FBarFn(fbar.kind, fbar.params, time_modulation=CoefficientFn.affine(1.0, 0.5))
    grid, P, m0, spec, ctx = _curved_instance(timed, h)
    a = Iterate.of(spec, stopped_forward_measure(None, m0, P))
    b = best_response(spec, a, ctx).iterate
    phi = segment_potential(spec, a, b)
    K = grid.K
    for rho in np.linspace(0.0, 1.0, 9).tolist():
        paths = tuple((1.0 - rho) * y[:K] + rho * y_b[:K] for y, y_b in zip(a.ys, b.ys))
        H = (1.0 - rho) * a.H + rho * b.H
        assert phi(rho) == potential_value(spec, dataclasses.replace(a, ys=paths, H=H))


def test_line_search_exponential_matches_golden_section_oracle():
    grid, P, m0, spec, ctx = _curved_instance(*CURVED["exponential"])
    m = stopped_forward_measure(None, m0, P)
    it = Iterate.of(spec, m)
    br = best_response(spec, it, ctx)
    m_tilde = br.iterate.family

    rho = line_search(spec, it, br.iterate, br.exploitability)
    assert 0.01 < rho < 0.99

    def phi(r):
        return potential_value(spec, Iterate.of(spec, convex_combine(m, m_tilde, r)))

    assert rho == pytest.approx(_golden_section(phi), abs=1e-7)
    best_on_grid = max(phi(r) for r in np.linspace(0.0, 1.0, 101))
    assert phi(rho) >= best_on_grid - 1e-12


def test_line_search_decoupled_takes_full_or_no_step():
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)

    zero = MeasureFamily.zeros(grid)
    it = Iterate.of(spec, zero)
    br = best_response(spec, it, ctx)
    assert pair(evaluate_reward(spec, it.ys), br.iterate.family) > 0.0
    assert line_search(spec, it, br.iterate, br.exploitability) == 1.0
    # stepping away from the better measure gains nothing
    back = directional_gain(spec, br.iterate, it)
    assert back < 0.0
    assert line_search(spec, br.iterate, it, back) == 0.0


def test_line_search_stationary_direction_returns_zero():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)
    linear = _decoupled_spec(grid, m0)
    it = Iterate.of(linear, m)
    assert line_search(linear, it, it, directional_gain(linear, it, it)) == 0.0
    curved = RewardSpec(
        terms=((FBarFn("exponential", (1.0, 2.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    it = Iterate.of(curved, m)
    assert line_search(curved, it, it, directional_gain(curved, it, it)) == 0.0


def test_line_search_rejects_non_concave_objective():
    grid, model, P, m0 = make_instance()
    # fbar increasing in y makes the potential convex along the segment;
    # validate=False sneaks it past the constructor checks on purpose.
    bad = FBarFn("exponential", (-1.0, 2.0), validate=False)
    spec = RewardSpec(terms=((bad, CoefficientFn.constant(1.0)),))
    zero = MeasureFamily.zeros(grid)
    bar = stopped_forward_measure(None, m0, P)
    with pytest.raises(NonConcaveDetected):
        # the golden section reads no gain
        line_search(spec, Iterate.of(spec, zero), Iterate.of(spec, bar), None)


# ---------------------------------------------------------------------------
# exploitability


def test_exploitability_equals_lp_gap():
    grid, model, P, m0, spec, ctx = congestion_instance(J=6, K=6)
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_admissible_measure(P, m0, rng)
        it = Iterate.of(spec, m)
        eps = best_response(spec, it, ctx).exploitability
        assert eps >= -1e-10
        f = evaluate_reward(spec, it.ys)
        lp = lp_solve_small(f, P, m0)
        gap = lp.value - pair(f, m)
        assert eps == pytest.approx(gap, abs=1e-10, rel=1e-10)


def test_exploitability_vanishes_at_decoupled_best_response():
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)
    zero = MeasureFamily.zeros(grid)
    br = best_response(spec, Iterate.of(spec, zero), ctx)
    assert best_response(spec, br.iterate, ctx).exploitability <= 1e-12


def test_empty_crowd_is_exploitable_when_stopping_pays():
    grid, model, P, m0, spec, ctx = congestion_instance(J=20, K=20)
    zero = MeasureFamily.zeros(grid)
    assert best_response(spec, Iterate.of(spec, zero), ctx).exploitability > 0.01


@pytest.mark.parametrize("game", [
    lambda: congestion_instance(J=40, K=40)[-2:],
    lambda: congestion_instance(J=100, K=100)[-2:],
    lambda: _curved_instance(FBarFn("exponential", (1.0, 2.0)),
                             ProductField(CoefficientFn.constant(-0.5)), n=20,
                             sigma_time=CoefficientFn.affine(1.0, 0.5))[-2:],
], ids=["congestion40", "congestion100", "timedep20"])
def test_path_exploitability_is_the_grid_pairing_along_fw_iterates(game):
    # the exploitability read off moment paths against the grid oracle
    # pair(f, m_tilde) - pair(f, m), at every Frank-Wolfe iterate
    spec, ctx = game()
    m = MeasureFamily.zeros(ctx.grid)
    for _ in range(40):
        it = Iterate.of(spec, m)
        br = best_response(spec, it, ctx)
        f = evaluate_reward(spec, it.ys)
        oracle = pair(f, br.iterate.family) - pair(f, m)
        assert abs(br.exploitability - oracle) <= 1e-15
        assert directional_gain(spec, it, it) == 0.0
        assert directional_gain(spec, br.iterate, br.iterate) == 0.0
        if br.exploitability <= 1e-9:
            break
        m = convex_combine(m, br.iterate.family,
                          line_search(spec, it, br.iterate, br.exploitability))


# ---------------------------------------------------------------------------
# fixed_point_solve


def test_fixed_point_decoupled_converges_in_one_iteration():
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)

    res = fixed_point_solve(spec, ctx, eps_tol=1e-12)
    assert res.converged
    assert res.iterations == 1
    assert len(res.trace) == 1
    assert res.exploitability == 0.0
    assert res.duality_gap <= 1e-12

    br = best_response(spec, Iterate.of(spec, res.m_star), ctx)
    np.testing.assert_array_equal(res.m_star.masses, br.iterate.family.masses)


def test_fixed_point_reference_congestion_run(congestion_solution):
    res = congestion_solution["result"]
    assert res.converged
    assert res.iterations <= 500
    assert res.exploitability <= 1e-6

    pot = np.asarray(res.trace.potential)
    assert np.all(np.diff(pot) >= -1e-12)
    assert np.all(np.asarray(res.trace.exploitability) >= -1e-10)
    assert res.duality_gap <= 1e-8

    led = res.ledger
    drift = led.initial - (led.stopped_per_step.sum()
                           + led.absorbed_per_step.sum() + led.surviving)
    assert abs(drift) <= 1e-12


def test_fixed_point_trace_records_moment_paths(congestion_solution):
    res = congestion_solution["result"]
    rhos = np.asarray(res.trace.rho)
    assert len(rhos) == len(res.trace.wall_clock) == len(res.trace)
    assert np.all((rhos >= 0.0) & (rhos <= 1.0))
    assert np.all(np.asarray(res.trace.wall_clock) >= 0.0)


def test_fixed_point_agrees_across_initializations(congestion_solution):
    spec = congestion_solution["spec"]
    ctx = congestion_solution["ctx"]
    base = congestion_solution["result"]

    bar = stopped_forward_measure(None, ctx.m0, ctx.transition)
    other = fixed_point_solve(spec, ctx, m_init=bar, eps_tol=1e-9)
    assert other.converged
    assert abs(other.value - base.value) <= 1e-6

    g = CoefficientFn.constant(1.0)
    y_a = moment(base.m_star, g)
    y_b = moment(other.m_star, g)
    assert ctx.grid.dt * np.abs(y_a - y_b).sum() <= 1e-4


def test_fixed_point_budget_exhaustion_returns_best_iterate():
    grid, model, P, m0, spec, ctx = congestion_instance(J=40, K=40)
    res = fixed_point_solve(spec, ctx, max_iters=2, eps_tol=1e-12)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.trace) == 2
    assert res.exploitability >= 0.0
    # the reported gap is the gap of the measure actually returned
    again = best_response(spec, Iterate.of(spec, res.m_star), ctx).exploitability
    assert again == pytest.approx(res.exploitability, abs=1e-13, rel=1e-12)


def test_fixed_point_budget_exhaustion_recomputes_an_earlier_best_bitwise():
    # the best iterate keeps no value grid or reward: they are recomputed
    # at exit, here for an iterate earlier than the last one evaluated
    grid, model, P, m0, spec, ctx = congestion_instance(J=30, K=30)
    res = fixed_point_solve(spec, ctx, max_iters=8, eps_tol=1e-13)
    assert not res.converged
    assert res.exploitability in res.trace.exploitability
    f = evaluate_reward(spec, Iterate.of(spec, res.m_star).ys)
    v = solve_vi(f, P)
    np.testing.assert_array_equal(res.f_star, f)
    np.testing.assert_array_equal(res.v_star.values, v.values)
    np.testing.assert_array_equal(res.v_star.stop_mask, v.stop_mask)
    assert res.v_star.tol_zero == v.tol_zero


def test_fixed_point_working_set_stays_under_5_6_grids():
    # a (K+1) x J grid is 8 (K+1) J bytes; the loop holds the iterate,
    # the best iterate, the response's reward until its obstacle problem
    # is solved, its stop mask and family, and the push cache, and no
    # full-grid temporary.  The cyclic collector is
    # off, so that an array kept alive by a reference cycle counts too.
    grid, model, P, m0, spec, ctx = congestion_instance(J=200, K=200)
    gc.disable()
    tracemalloc.start()
    try:
        res = fixed_point_solve(spec, ctx, eps_tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert res.converged
    assert peak <= 5.6 * (grid.K + 1) * grid.J * 8


@pytest.mark.parametrize("n, max_iters, eps_tol, converged",
                         [(50, 500, 1e-9, True), (30, 8, 1e-13, False)],
                         ids=["converged", "earlier-best"])
def test_fixed_point_value_grid_is_the_solve_of_its_reward_bitwise(n, max_iters, eps_tol,
                                                                   converged):
    # the loop keeps no value grid: v_star is recomputed from f_star at exit
    grid, model, P, m0, spec, ctx = congestion_instance(J=n, K=n)
    res = fixed_point_solve(spec, ctx, max_iters=max_iters, eps_tol=eps_tol)
    assert res.converged == converged
    if not converged:
        # the best iterate is an earlier one than the last evaluated
        assert res.exploitability in res.trace.exploitability
    v = solve_vi(res.f_star, P)
    assert res.v_star.values.tobytes() == v.values.tobytes()
    np.testing.assert_array_equal(res.v_star.stop_mask, v.stop_mask)
    assert res.v_star.tol_zero == v.tol_zero
    assert res.value == value_at_initial(v, m0)


def test_equilibrium_maximizes_potential(congestion_solution):
    res = congestion_solution["result"]
    spec = congestion_solution["spec"]
    grid = congestion_solution["grid"]
    P = congestion_solution["P"]
    m0 = congestion_solution["m0"]

    f_star = potential_value(spec, Iterate.of(spec, res.m_star))
    assert res.potential == pytest.approx(f_star, abs=1e-12)
    rng = np.random.default_rng(83)
    for _ in range(20):
        m = random_admissible_measure(P, m0, rng)
        assert f_star >= potential_value(spec, Iterate.of(spec, m)) - 1e-6


def test_equilibrium_complementarity(congestion_solution):
    res = congestion_solution["result"]
    grid = congestion_solution["grid"]
    P = congestion_solution["P"]
    rep = complementarity_report(res.v_star, res.f_star, res.m_star, P)
    assert rep.stop_region_integral <= 1e-7
    assert rep.continuation_residual <= 1e-7


def _count_calls(monkeypatch, name):
    """The argument tuples of each call of mfgstop.mfg.<name>, looked up
    where the loop and the benchmark tracer look it up."""
    calls = []
    real = getattr(mfgstop.mfg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mfgstop.mfg, name, counted)
    return calls


def _count_moment_calls(monkeypatch):
    calls = []
    real = mfgstop.reward.moment

    def counted(m, g):
        calls.append(g)
        return real(m, g)

    monkeypatch.setattr(mfgstop.reward, "moment", counted)
    return calls


def test_fixed_point_computes_each_iterates_moments_once(monkeypatch):
    # one moment per term for each iterate and each best response, the
    # last iterate and its response included; the exit builds none
    grid, model, P, m0, spec, ctx = congestion_instance(J=40, K=40)
    calls = _count_moment_calls(monkeypatch)
    pairings = _count_calls(monkeypatch, "pair")
    res = fixed_point_solve(spec, ctx, eps_tol=1e-6)
    assert res.converged and res.iterations >= 5
    assert len(calls) == (2 * res.iterations + 2) * len(spec.terms)
    # the loop pairs no grid: the only pairing is the result's pair_value
    assert len(pairings) == 1


def test_golden_section_moments_per_iteration_and_repeatability(monkeypatch):
    # the golden section of a non-linear coupling runs on the moment
    # paths of the iterate and the best response, and builds none
    fbar = FBarFn("exponential", (1.0, 2.0))
    h = ProductField(CoefficientFn.constant(-0.5))
    grid, P, m0, spec, ctx = _curved_instance(
        fbar, h, n=20, sigma_time=CoefficientFn.affine(1.0, 0.5))
    calls = _count_moment_calls(monkeypatch)
    first = fixed_point_solve(spec, ctx, eps_tol=1e-8)
    assert first.converged and first.iterations >= 5
    assert len(calls) <= (2 * first.iterations + 2) * len(spec.terms)
    second = fixed_point_solve(spec, ctx, eps_tol=1e-8)
    np.testing.assert_array_equal(first.m_star.masses, second.m_star.masses)
    np.testing.assert_array_equal(np.asarray(first.trace.rho),
                                  np.asarray(second.trace.rho))


@pytest.mark.parametrize("h_kind", ["field", "grid"])
def test_each_family_is_paired_with_h_once(monkeypatch, h_kind):
    # F reads a family only through its moment paths and h pairing, and
    # each iteration builds them once for the iterate and once for the
    # best response, the other end of the golden section; h given as a
    # grid is validated into the same grid a separable h evaluates to
    spec, ctx = _timedep_game()
    if h_kind == "grid":
        given = RewardSpec(terms=spec.terms, h=spec.h.copy()).validated(ctx.grid, ctx.m0)
        np.testing.assert_array_equal(given.h, spec.h)
        spec = given
    calls = _count_moment_calls(monkeypatch)
    pairings = []
    real = mfgstop.reward.pair

    def counted(*args):
        pairings.append(args)
        return real(*args)

    monkeypatch.setattr(mfgstop.reward, "pair", counted)
    grid_pairings = _count_calls(monkeypatch, "pair")
    res = fixed_point_solve(spec, ctx, max_iters=4, eps_tol=1e-14)
    assert not res.converged and res.iterations == 4
    # two families per iteration, plus the last iterate and its best
    # response, whose exploitability ends the loop
    assert len(pairings) == 2 * res.iterations + 2
    assert len(calls) == len(pairings) * len(spec.terms)
    assert len(grid_pairings) == 1


def test_fixed_point_refuses_non_finite_exploitability():
    # every reward is finite, but their pairing with the best response
    # overflows to inf
    grid, model, P, m0 = make_instance(K=100, J=100)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0, a=1e308)
    with np.errstate(over="ignore"), pytest.raises(SolverError):
        fixed_point_solve(spec, ctx, max_iters=3)


@pytest.mark.parametrize("max_iters, eps_tol", [
    (10, float("nan")), (10, -1.0), (10, float("inf")), (-5, 1e-9), (float("nan"), 1e-9)])
def test_fixed_point_rejects_bad_budget(max_iters, eps_tol):
    grid, model, P, m0 = make_instance()
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    spec = _decoupled_spec(grid, m0)
    with pytest.raises(ValidationError):
        fixed_point_solve(spec, ctx, max_iters=max_iters, eps_tol=eps_tol)


# ---------------------------------------------------------------------------
# push cache


def _count_pushes(monkeypatch):
    # counted where best_response and PushCache look it up, as the
    # benchmark tracer does
    calls = []
    real = mfgstop.mfg.stopped_forward_measure

    def counted(stop_mask, m0, P):
        calls.append(stop_mask)
        return real(stop_mask, m0, P)

    monkeypatch.setattr(mfgstop.mfg, "stopped_forward_measure", counted)
    return calls


class _NeverHits(PushCache):
    """A push cache that always misses: every best response pushes m0."""

    def push(self, stop_mask):
        return mfgstop.mfg.stopped_forward_measure(stop_mask, self.ctx.m0,
                                                   self.ctx.transition)


def _solve_without_cache(monkeypatch, spec, ctx, **kw):
    with monkeypatch.context() as mp:
        mp.setattr(mfgstop.mfg, "PushCache", _NeverHits)
        return fixed_point_solve(spec, ctx, **kw)


def _assert_same_solve(a, b):
    np.testing.assert_array_equal(a.m_star.masses, b.m_star.masses)
    np.testing.assert_array_equal(a.v_star.values, b.v_star.values)
    np.testing.assert_array_equal(a.v_star.stop_mask, b.v_star.stop_mask)
    assert np.asarray(a.trace.rho).tobytes() == np.asarray(b.trace.rho).tobytes()
    assert a.value == b.value
    assert a.exploitability == b.exploitability
    assert a.iterations == b.iterations


def _zigzag_game():
    return congestion_instance(J=30, K=30)[-2:]


def _timedep_game():
    fbar = FBarFn("exponential", (1.0, 2.0))
    h = ProductField(CoefficientFn.constant(-0.5))
    *_, spec, ctx = _curved_instance(fbar, h, n=30, sigma_time=CoefficientFn.affine(1.0, 0.5))
    return spec, ctx


@pytest.mark.parametrize("game", [_zigzag_game, _timedep_game])
def test_push_cache_leaves_the_solve_bitwise_unchanged(monkeypatch, game):
    # both games are mixed at J=K=30, so FW zig-zags between a few stop
    # rules and most best responses reuse a stored push
    spec, ctx = game()
    plain = _solve_without_cache(monkeypatch, spec, ctx, max_iters=100, eps_tol=1e-9)
    calls = _count_pushes(monkeypatch)
    cached = fixed_point_solve(spec, ctx, max_iters=100, eps_tol=1e-9)
    _assert_same_solve(cached, plain)
    assert not cached.converged and cached.iterations == 100
    assert len(calls) <= 15  # of 101 best responses


def _masks(n_rules, K=6, J=5):
    """n_rules variants of a value function's stop mask, each differing
    from the previous one in a single node."""
    grid, model, P, m0 = make_instance(K=K, J=J)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    f = np.random.default_rng(3).uniform(-1.0, 1.0, size=grid.shape)
    v = solve_vi(f, P)
    rules, mask = [], v.stop_mask.copy()
    for i in range(n_rules):
        mask = mask.copy()
        mask[1 + i // J, i % J] ^= True
        rules.append(mask)
    return ctx, rules


def test_push_cache_keeps_masks_one_node_apart_separate(monkeypatch):
    ctx, (a, b) = _masks(2)
    calls = _count_pushes(monkeypatch)
    cache = PushCache(ctx)
    for v in (a, b, a, b):
        cache.push(v)
    assert len(calls) == 4 and len(cache.pushes) == 2
    for v in (a, b, a, b):
        fresh = stopped_forward_measure(v, ctx.m0, ctx.transition)
        np.testing.assert_array_equal(cache.push(v).masses, fresh.masses)
    assert len(calls) == 4
    assert not np.array_equal(cache.push(a).masses, cache.push(b).masses)


def test_push_cache_keeps_no_rule_seen_once(monkeypatch):
    ctx, rules = _masks(PushCache.WINDOW + 2)
    calls = _count_pushes(monkeypatch)
    cache = PushCache(ctx)
    for v in rules:
        cache.push(v)
    assert len(cache.pushes) == 0
    # the first rule left the window of recent rules long ago
    cache.push(rules[0])
    assert len(cache.pushes) == 0 and len(calls) == len(rules) + 1
    cache.push(rules[0])
    assert len(cache.pushes) == 1 and len(calls) == len(rules) + 2


def test_push_cache_never_holds_more_than_its_cap(monkeypatch):
    ctx, rules = _masks(PushCache.CAP + 3)
    calls = _count_pushes(monkeypatch)
    cache = PushCache(ctx)
    for v in rules:
        for _ in range(3):
            cache.push(v)
            assert len(cache.pushes) <= PushCache.CAP
    assert len(cache.pushes) == PushCache.CAP
    assert len(calls) == 2 * len(rules)
    # the least recently used rule went first
    cache.push(rules[-PushCache.CAP - 1])
    assert len(calls) == 2 * len(rules) + 1


def test_successive_solves_with_different_m0_keep_their_own_pushes(monkeypatch):
    spec, ctx = _zigzag_game()
    w = np.random.default_rng(5).random(ctx.grid.J) + 0.05
    other = dataclasses.replace(ctx, m0=InitialMeasure.from_masses(w / w.sum()))
    other_spec = RewardSpec(terms=spec.terms).validated(ctx.grid, other.m0)
    first = fixed_point_solve(spec, ctx, max_iters=30, eps_tol=1e-9)
    second = fixed_point_solve(other_spec, other, max_iters=30, eps_tol=1e-9)
    _assert_same_solve(first, _solve_without_cache(monkeypatch, spec, ctx,
                                                   max_iters=30, eps_tol=1e-9))
    _assert_same_solve(second, _solve_without_cache(monkeypatch, other_spec, other,
                                                    max_iters=30, eps_tol=1e-9))
    assert not np.array_equal(first.m_star.masses, second.m_star.masses)


def _blind(it):
    """it with NaN masses in place of its family's: only its moment
    paths and h pairing are left to read."""
    fam = it.family
    return Iterate(MeasureFamily(np.full(fam.masses.shape, np.nan), fam.grid, validate=False),
                   it.ys, it.H)


@pytest.mark.parametrize("game", [_zigzag_game, _timedep_game], ids=["congestion", "timedep"])
def test_loop_pairs_no_grid(monkeypatch, game):
    # the exploitability is one directional_gain per best response, the
    # step reads moment paths only, and the one grid pairing of a solve
    # is its pair_value
    spec, ctx = game()
    plain = fixed_point_solve(spec, ctx, max_iters=40, eps_tol=1e-9)
    moments = _count_moment_calls(monkeypatch)
    responses = _count_calls(monkeypatch, "best_response")
    gains = _count_calls(monkeypatch, "directional_gain")
    pairings = _count_calls(monkeypatch, "pair")
    real = mfgstop.mfg.line_search
    steps = []

    def blind_step(spec, it, it_tilde, gain):
        before = len(moments)
        rho = real(spec, _blind(it), _blind(it_tilde), gain)
        assert len(moments) == before  # builds no Iterate
        steps.append(rho)
        return rho

    monkeypatch.setattr(mfgstop.mfg, "line_search", blind_step)
    res = fixed_point_solve(spec, ctx, max_iters=40, eps_tol=1e-9)
    _assert_same_solve(res, plain)
    assert len(steps) == res.iterations >= 5
    assert len(gains) == len(responses) == res.iterations + 1
    assert len(pairings) == 1


_SOLVE_HASHES = """
import hashlib
import numpy as np
from mfgstop import (CoefficientFn, DiffusionModel, FBarFn, InitialMeasure, ModelContext,
                     ProductField, RewardSpec, build_grid, build_transition_operator,
                     fixed_point_solve)

grid = build_grid(T=1.0, a=0.0, b=1.0, K=100, J=100)
model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                       sigma=ProductField(CoefficientFn.constant(0.5)))
m0 = InitialMeasure.uniform(grid)
spec = RewardSpec(terms=((FBarFn("linear", (1.0, 2.0)), CoefficientFn.constant(1.0)),)
                  ).validated(grid, m0)
ctx = ModelContext(grid=grid, model=model, transition=build_transition_operator(model, grid),
                   m0=m0)
r = fixed_point_solve(spec, ctx, max_iters=500, eps_tol=1e-9)
print(r.iterations, r.value.hex())
for part in (r.m_star.masses, np.asarray(r.trace.rho), np.asarray(r.trace.exploitability)):
    print(hashlib.sha256(part.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not lapack_is_openblas(), reason="scipy's LAPACK is not OpenBLAS")
@pytest.mark.skipif(not has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
def test_solve_does_not_depend_on_the_cpu_kernels():
    # the congestion game's FW solve: its value, family, step sizes and
    # exploitabilities have the same bits under the CPU's own kernels and
    # under two others.
    # A BLAS matrix-vector product for line_search's curvature gave other
    # step sizes under the Sandybridge kernels at this size
    seen = run_under_coretypes(_SOLVE_HASHES, (None, "Haswell", "Sandybridge"))
    assert len(set(seen.values())) == 1, seen

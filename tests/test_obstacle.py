"""Backward variational inequality: exactness, duality, complementarity."""

import tracemalloc

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    MeasureFamily,
    ProductField,
    ShapeMismatch,
    SolverError,
    Tridiagonal,
    TransitionOperator,
    TransitionSlice,
    build_grid,
    build_transition_operator,
    complementarity_report,
    pair,
    solve_vi,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.lp_oracle import enumerate_stopping_rules, random_admissible_measure
from conftest import (
    adjoint_each,
    make_instance,
    random_instance,
    whole_grid_stop_region_integral,
)


def _identity_operator(grid):
    J = grid.J
    A = Tridiagonal(lower=np.zeros(J - 1), diag=np.zeros(J), upper=np.zeros(J - 1))
    return TransitionOperator([TransitionSlice(A, grid.dt)] * grid.K, grid)


# ----------------------------------------------------------------------
# the recursion


def test_zero_reward_stops_everywhere():
    grid, model, P, m0 = make_instance(K=5, J=4)
    v = solve_vi(np.zeros(grid.shape), P)
    assert np.array_equal(v.values, np.zeros(grid.shape))
    assert v.stop_mask.all()


def test_negative_reward_stops_everywhere():
    grid, model, P, m0 = make_instance(K=5, J=4)
    v = solve_vi(np.full(grid.shape, -1.0), P)
    assert np.array_equal(v.values, np.zeros(grid.shape))
    assert v.stop_mask.all()


def test_unit_reward_identity_transition_annuity():
    # P = I exactly: v_k = (K - k) dt, continue until the horizon
    K, J, dt = 4, 3, 0.25
    P = _identity_operator(build_grid(T=K * dt, a=0.0, b=1.0, K=K, J=J))
    f = np.ones((K + 1, J))
    v = solve_vi(f, P)
    want = np.outer(dt * np.arange(K, -1, -1), np.ones(J))
    assert np.array_equal(v.values, want)
    assert not v.stop_mask[:K].any()
    assert v.stop_mask[K].all()


def test_terminal_slice_always_zero_and_stopped():
    rng = np.random.default_rng(31)
    for _ in range(5):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        assert np.array_equal(v.values[grid.K], np.zeros(grid.J))
        assert v.stop_mask[grid.K].all()
        assert v.values.min() >= 0.0


def test_shape_mismatch():
    grid, model, P, m0 = make_instance()
    with pytest.raises(ShapeMismatch):
        solve_vi(np.zeros((2, 2)), P)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_value_is_refused(bad):
    grid, model, P, m0 = make_instance()
    f = np.zeros(grid.shape)
    f[2, 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not finite"):
        solve_vi(f, P)


def test_zero_tolerance_scales_with_the_largest_value():
    grid, model, P, m0 = make_instance()
    f = np.random.default_rng(4).uniform(-1.0, 1.0, size=grid.shape)
    v = solve_vi(f, P)
    assert v.tol_zero == 1e-12 * (1.0 + float(np.abs(v.values).max()))
    assert solve_vi(-np.ones(grid.shape), P).tol_zero == 1e-12


def test_recursion_exact_at_continue_nodes():
    # where v > 0 the clamp is inactive, so recomputing the step
    # reproduces the stored values bit for bit
    rng = np.random.default_rng(32)
    grid, model, P, m0, f = random_instance(rng, J=9, K=7)
    v = solve_vi(f, P)
    for k in range(grid.K):
        w = grid.dt * f[k] + P.steps[k].apply(v.values[k + 1])
        active = v.values[k] > v.tol_zero
        assert np.array_equal(v.values[k][active], w[active])
        # and the clamp is what produced the rest
        assert np.all(w[~active] <= v.tol_zero)


def test_in_place_rows_match_the_one_expression_recursion_bitwise():
    # solve_vi builds each row in place; the one-expression recursion is
    # the reference, compared as bytes so that signed zeros count
    rng = np.random.default_rng(34)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        f[rng.random(f.shape) < 0.3] = -0.0
        ref = np.zeros(grid.shape)
        for k in range(grid.K - 1, -1, -1):
            ref[k] = np.maximum(0.0, grid.dt * f[k] + P.steps[k].apply(ref[k + 1]))
        v = solve_vi(f, P)
        assert v.values.tobytes() == ref.tobytes()
        assert np.array_equal(v.stop_mask, ref <= v.tol_zero)


@pytest.mark.parametrize("sigma_time", [None, CoefficientFn.affine(1.0, 0.5)],
                         ids=["homogeneous", "time-dependent"])
def test_overwrite_f_builds_the_same_value_grid_in_the_reward(sigma_time):
    # the default leaves f's bytes alone; overwrite_f=True returns the
    # same values, stop mask and tolerance, built in f's own buffer
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=12, J=9)
    model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.2)),
                           sigma=ProductField(CoefficientFn.constant(0.5), time=sigma_time))
    P = build_transition_operator(model, grid)
    assert len(P.slices) == (1 if sigma_time is None else grid.K)
    rng = np.random.default_rng(35)
    f = rng.uniform(-1.0, 1.0, size=grid.shape)
    f[rng.random(f.shape) < 0.3] = -0.0
    before = f.tobytes()
    v = solve_vi(f, P)
    assert f.tobytes() == before
    assert not np.shares_memory(v.values, f)
    w = solve_vi(f, P, overwrite_f=True)
    assert np.shares_memory(w.values, f)
    assert w.values.tobytes() == v.values.tobytes()
    assert w.stop_mask.tobytes() == v.stop_mask.tobytes()
    assert w.tol_zero == v.tol_zero


# ----------------------------------------------------------------------
# enumeration oracle


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(33)
    for _ in range(8):
        grid, model, P, m0, f = random_instance(rng, J=3, K=3)
        v = solve_vi(f, P)
        res = enumerate_stopping_rules(f, P, m0)
        assert value_at_initial(v, m0) == pytest.approx(res.best_value, abs=1e-12)


# ----------------------------------------------------------------------
# value at the initial slice


def test_value_at_initial_zero():
    grid, model, P, m0 = make_instance()
    v = solve_vi(np.zeros(grid.shape), P)
    assert value_at_initial(v, m0) == 0.0


def test_value_at_initial_constant_slice():
    K, J, dt = 3, 4, 0.5
    grid = build_grid(T=K * dt, a=0.0, b=1.0, K=K, J=J)
    P = _identity_operator(grid)
    m0 = InitialMeasure.uniform(grid)
    f = np.ones((K + 1, J))
    v = solve_vi(f, P)
    # v(0) = K dt = 1.5 at every node; m0 is a probability measure
    assert value_at_initial(v, m0) == pytest.approx(K * dt, abs=1e-14)


# ----------------------------------------------------------------------
# duality


def test_strong_duality_with_forward_measure():
    rng = np.random.default_rng(34)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m = stopped_forward_measure(v.stop_mask, m0, P)
        primal = pair(f, m)
        dual = value_at_initial(v, m0)
        assert abs(primal - dual) <= 1e-10 * (1.0 + abs(dual))


def test_weak_duality_random_admissible():
    rng = np.random.default_rng(35)
    grid, model, P, m0, f = random_instance(rng, J=6, K=6)
    v = solve_vi(f, P)
    dual = value_at_initial(v, m0)
    for _ in range(20):
        m = random_admissible_measure(P, m0, rng)
        assert pair(f, m) <= dual + 1e-10


def test_dual_feasibility():
    rng = np.random.default_rng(36)
    grid, model, P, m0, f = random_instance(rng)
    v = solve_vi(f, P)
    for k in range(grid.K):
        w = grid.dt * f[k] + P.steps[k].apply(v.values[k + 1])
        assert np.all(v.values[k] >= w - 1e-12)
        assert np.all(v.values[k] >= 0.0)


def test_monotone_in_reward():
    rng = np.random.default_rng(37)
    grid, model, P, m0, f = random_instance(rng)
    bump = rng.uniform(0.0, 0.5, size=grid.shape)
    v1 = solve_vi(f, P)
    v2 = solve_vi(f + bump, P)
    assert np.all(v2.values >= v1.values - 1e-12)


def test_positive_scaling_exact():
    rng = np.random.default_rng(38)
    grid, model, P, m0, f = random_instance(rng)
    v1 = solve_vi(f, P)
    v2 = solve_vi(2.0 * f, P)
    # doubling is exact in binary floating point
    assert np.array_equal(v2.values, 2.0 * v1.values)


# ----------------------------------------------------------------------
# complementarity


def test_complementarity_zero_measure():
    rng = np.random.default_rng(39)
    grid, model, P, m0, f = random_instance(rng)
    v = solve_vi(f, P)
    rep = complementarity_report(v, f, MeasureFamily.zeros(grid), P)
    assert rep.stop_region_integral == 0.0
    assert rep.continuation_residual == 0.0


def test_complementarity_of_forward_measure():
    rng = np.random.default_rng(40)
    for _ in range(8):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m = stopped_forward_measure(v.stop_mask, m0, P)
        rep = complementarity_report(v, f, m, P)
        assert rep.stop_region_integral <= 1e-10
        assert rep.continuation_residual <= 1e-10


def test_complementarity_detects_mass_in_stop_region():
    # f < 0 on the left half creates a stop region with nonzero f; the
    # never-stopping family keeps mass there and is flagged
    grid, model, P, m0 = make_instance(K=6, J=6)
    f = np.ones(grid.shape)
    f[:, : grid.J // 2] = -1.0
    v = solve_vi(f, P)
    assert v.stop_mask[0, 0]
    m = stopped_forward_measure(None, m0, P)
    rep = complementarity_report(v, f, m, P)
    assert rep.stop_region_integral > 0.01


@pytest.mark.parametrize("J, K", [(7, 5), (150, 120), (300, 300)])
def test_stop_region_integral_is_the_whole_grid_sum_bitwise(J, K):
    # the larger grids hold 18,000 and 90,000 summands, more than one
    # block, so the block sum must split them as numpy's pairwise sum does
    rng = np.random.default_rng(J)
    grid, model, P, m0, f = random_instance(rng, J=J, K=K)
    v = solve_vi(f, P)
    m = random_admissible_measure(P, m0, rng)
    got = complementarity_report(v, f, m, P).stop_region_integral
    assert got > 0.0
    assert got.hex() == whole_grid_stop_region_integral(v, f, m, P).hex()


def test_complementarity_report_holds_one_grid():
    # at J=K=300 the report peaked at 0.86 MiB, 1.25 K x J grids: the
    # grid of P_k v_{k+1} and a few blocks.  With the stop-region
    # integral as one whole-grid expression it peaked at 2.16 grids.
    rng = np.random.default_rng(300)
    grid, model, P, m0, f = random_instance(rng, J=300, K=300)
    v = solve_vi(f, P)
    m = random_admissible_measure(P, m0, rng, n_mix=1)
    tracemalloc.start()
    try:
        complementarity_report(v, f, m, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid.K * grid.J * 8


def test_complementarity_allows_mass_on_tie_nodes():
    # dt = 1/8 is a power of two, so f[3, 2] makes stopping and continuing
    # tie exactly at (3, 2): its value is 0 and it classifies as stop.
    # That node is the family's only stop-node mass before the horizon.
    grid, model, P, m0 = make_instance(K=8, J=6)
    f = np.ones(grid.shape)
    ahead = solve_vi(f, P).values[4]
    f[3, 2] = -P.steps[3].apply(ahead)[2] / grid.dt
    v = solve_vi(f, P)
    assert v.values[3, 2] == 0.0
    assert np.array_equal(np.argwhere(v.stop_mask[:-1]), [[3, 2]])
    m = stopped_forward_measure(None, m0, P)
    assert grid.dt * abs(f[3, 2]) * m.masses[3, 2] > 1e-3
    rep = complementarity_report(v, f, m, P)
    assert rep.stop_region_integral == 0.0
    assert rep.continuation_residual == 0.0


def test_duality_gap_splits_into_complementarity_and_chain_defects():
    # value - pair(f, m) = <v_0, m0 - m_0> + sum_k <v_{k+1}, P_k^T m_k - m_{k+1}>
    # + stop integral, every term nonnegative on admissible families
    rng = np.random.default_rng(41)
    for _ in range(8):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m = random_admissible_measure(P, m0, rng)
        A, V = m.masses, v.values
        defects = (V[0] @ (m0.masses - A[0]),
                   np.sum(V[1:] * (adjoint_each(P, A[:-1]) - A[1:])))
        integral = complementarity_report(v, f, m, P).stop_region_integral
        assert min(defects) >= -1e-14 and integral >= 0.0
        gap = value_at_initial(v, m0) - pair(f, m)
        assert gap == pytest.approx(sum(defects) + integral, rel=1e-10, abs=1e-14)

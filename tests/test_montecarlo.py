"""Path-simulation cross-checks of the finite-difference forward measure.

The chain and the simulator discretize the same diffusion differently,
so agreement is statistical: sampling error shrinks like 1/sqrt(n) while
the systematic gap shrinks under grid refinement.  Sample sizes below
are chosen so sampling error dominates; the refinement test measures the
systematic part directly at large n.  Near absorbing walls the chain's
time error is large, so the bridge-killing test compares against the
exact-time reference from conftest instead.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    ProductField,
    build_grid,
    build_transition_operator,
    simulate_paths,
    solve_vi,
    stopped_forward_measure,
)
from mfgstop import montecarlo
from mfgstop.errors import ShapeMismatch, ValidationError
from mfgstop.montecarlo import BLOCK, PathStats
from mfgstop.obstacle import ValueFunction

from conftest import (
    constant_model,
    exact_time_totals,
    make_instance,
    whole_block_simulate_paths,
)


def _bump_instance(K, J):
    """Centered start diffusing toward a stop frontier at |x| = 1.2.

    The domain is wide enough that absorption never happens, so the only
    systematic MC-vs-chain gap is the time-discretization one.
    """
    grid = build_grid(T=1.0, a=-3.0, b=3.0, K=K, J=J)
    model = constant_model(0.0, 0.5)
    P = build_transition_operator(model, grid)
    w = np.exp(-0.5 * (grid.x / 0.5) ** 2)
    m0 = InitialMeasure.from_masses(w / w.sum())
    f = np.tile(1.44 - grid.x ** 2, (K + 1, 1))
    v = solve_vi(f, P)
    return grid, model, P, m0, v


def test_same_seed_is_bit_for_bit_reproducible():
    grid, model, P, m0, v = _bump_instance(20, 19)
    a = simulate_paths(model, grid, v, m0, 500, seed=7)
    b = simulate_paths(model, grid, v, m0, 500, seed=7)
    np.testing.assert_array_equal(a.family.masses, b.family.masses)
    assert a.stats == b.stats
    c = simulate_paths(model, grid, v, m0, 500, seed=8)
    assert not np.array_equal(a.family.masses, c.family.masses)


def test_stop_everywhere_rule_stops_all_paths_immediately():
    grid, model, P, m0 = make_instance()
    shape = (grid.K + 1, grid.J)
    v = ValueFunction(np.zeros(shape), np.ones(shape, dtype=bool), 1e-12)
    res = simulate_paths(model, grid, v, m0, 300, seed=0)
    np.testing.assert_array_equal(res.family.masses, np.zeros(shape))
    assert res.stats.stopped == 300
    assert res.stats.absorbed == 0
    assert res.stats.survived == 0


def test_never_stop_rule_never_tallies_a_stop():
    grid, model, P, m0 = make_instance()
    res = simulate_paths(model, grid, None, m0, 2000, seed=1)
    assert res.stats.stopped == 0
    assert res.stats.absorbed > 0
    totals = res.family.slice_totals()
    assert np.all(np.diff(totals) <= 1e-15)


def test_frozen_dynamics_repeat_the_initial_tally():
    grid = build_grid(T=1.0, a=-10.0, b=10.0, K=5, J=9)
    model = constant_model(0.0, 1e-4)
    m0 = InitialMeasure.uniform(grid)
    res = simulate_paths(model, grid, None, m0, 2000, seed=4)
    assert res.stats.survived == 2000
    assert res.stats.absorbed == 0
    for k in range(1, grid.K + 1):
        np.testing.assert_array_equal(res.family.masses[k],
                                      res.family.masses[0])
    assert res.family.masses[0].sum() == pytest.approx(1.0, abs=1e-12)
    se = np.sqrt((1.0 / grid.J) * (1.0 - 1.0 / grid.J) / 2000)
    assert np.all(np.abs(res.family.masses[0] - 1.0 / grid.J) <= 4.0 * se)


def test_reaching_the_horizon_counts_as_survival():
    grid, model, P, m0 = make_instance()
    f = np.ones((grid.K + 1, grid.J))
    v = solve_vi(f, P)
    assert v.stop_mask[grid.K].all()
    res = simulate_paths(model, grid, v, m0, 500, seed=2)
    assert res.stats.stopped == 0
    assert res.stats.survived > 0
    assert res.stats.survived + res.stats.absorbed == 500


def test_path_statuses_must_partition_the_sample():
    with pytest.raises(ValidationError):
        PathStats(n_paths=10, stopped=5, absorbed=3, survived=1)


def test_histogram_matches_chain_within_three_stderr():
    grid, model, P, m0, v = _bump_instance(60, 59)
    fd = stopped_forward_measure(v.stop_mask, m0, P)[0].slice_totals()
    res = simulate_paths(model, grid, v, m0, 2000, seed=0)
    mc = res.family.slice_totals()
    se = np.sqrt(np.maximum(fd * (1.0 - fd), 1e-12) / 2000)
    z = np.abs(mc - fd) / se
    assert (z <= 3.0).mean() >= 0.95
    assert z.max() <= 3.5
    # the rule actually binds before the horizon for a sizable minority
    assert res.stats.stopped > 200
    assert res.stats.survived > 0


def test_refinement_shrinks_the_systematic_gap():
    gaps = []
    for K in (30, 60, 120):
        grid, model, P, m0, v = _bump_instance(K, K - 1)
        fd = stopped_forward_measure(v.stop_mask, m0, P)[0].slice_totals()
        res = simulate_paths(model, grid, v, m0, 30000, seed=0)
        gaps.append(np.abs(res.family.slice_totals() - fd).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.005


def test_bridge_killing_matches_the_exact_time_survival():
    # an end-of-step exit check misses excursions that come back inside
    # within a step; at dt = 0.02 that keeps ~20 standard errors of
    # excess mass alive, so this fails without the bridge
    grid, model, P, m0 = make_instance(K=50, J=50)
    ref = exact_time_totals(model, grid, None, m0)
    n = 20000
    res = simulate_paths(model, grid, None, m0, n, seed=0)
    se = np.sqrt(np.maximum(ref * (1.0 - ref), 1e-12) / n)
    z = np.abs(res.family.slice_totals() - ref) / se
    assert (z <= 3.0).mean() >= 0.95
    assert res.stats.survived + res.stats.absorbed == n


def test_value_function_on_wrong_grid_raises():
    grid, model, P, m0, v = _bump_instance(20, 19)
    other, model2, P2, m02 = make_instance()
    with pytest.raises(ShapeMismatch):
        simulate_paths(model2, other, v, m02, 10, seed=0)


def test_initial_measure_on_wrong_grid_raises():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=10, J=8)
    model = constant_model(0.0, 0.3)
    m0 = InitialMeasure.from_masses(np.ones(5) / 5)
    with pytest.raises(ShapeMismatch):
        simulate_paths(model, grid, None, m0, 10, seed=0)


def test_needs_at_least_one_path():
    grid, model, P, m0 = make_instance()
    with pytest.raises(ValidationError):
        simulate_paths(model, grid, None, m0, 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 2 ** 200])
def test_seed_outside_the_philox_keys_raises(seed):
    grid, model, P, m0 = make_instance()
    with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*128\)"):
        simulate_paths(model, grid, None, m0, 10, seed)
    simulate_paths(model, grid, None, m0, 10, 2 ** 128 - 1)


def _oracle_case(name):
    """(model, grid, v, m0) of one case of the whole-block comparison."""
    if name == "wide-domain":
        # _bump_instance's domain and start; paths right of 1.2 stop, the
        # rest drift to the left wall and reach it one by one, so many
        # steps have no path near a wall, and on some a path leaves while
        # none is near
        grid, _, _, m0, _ = _bump_instance(30, 25)
        stop = np.tile(grid.x > 1.2, (grid.K + 1, 1))
        return constant_model(-3.0, 0.5), grid, ValueFunction(np.zeros(stop.shape), stop, 1e-12), m0
    grid, model, P, m0 = make_instance(K=30, J=25, sigma=0.3)
    if name == "stop-rule":
        f = np.tile(grid.x - 0.7, (grid.K + 1, 1))  # stop on the right, absorb on the left
        return model, grid, solve_vi(f, P), m0
    if name == "space-sigma":
        model = DiffusionModel(mu=ProductField(CoefficientFn.affine(0.2, -0.4)),
                               sigma=ProductField(CoefficientFn.affine(0.15, 0.4)))
    elif name == "time-sigma":
        model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.1)),
                               sigma=ProductField(CoefficientFn.constant(0.3),
                                                  time=CoefficientFn.affine(1.0, 0.8)))
    return model, grid, None, m0


@pytest.mark.parametrize("name", ["never-stop", "stop-rule", "space-sigma", "time-sigma",
                                  "wide-domain"])
def test_streamed_paths_equal_the_whole_block_oracle(name):
    # 2*BLOCK + 3 paths: three blocks, the last of 3 paths, and bridge
    # rows that start at outputs k*n_paths with k*n_paths % 4 != 0
    model, grid, v, m0 = _oracle_case(name)
    n = 2 * BLOCK + 3
    for seed in (0, 1, 5):
        got = simulate_paths(model, grid, v, m0, n, seed)
        ref = whole_block_simulate_paths(model, grid, v, m0, n, seed)
        np.testing.assert_array_equal(got.family.masses, ref.family.masses)
        assert got.stats == ref.stats
        assert got.stats.absorbed > 0
        assert (got.stats.stopped > 0) == (v is not None)


def test_sample_does_not_depend_on_block_size(monkeypatch):
    # odd sizes put every block boundary and draw boundary elsewhere, so
    # each step's bridge row starts at another offset k*n_paths + p0
    model, grid, v, m0 = _oracle_case("stop-rule")
    n = 2 * BLOCK + 3
    default = [simulate_paths(model, grid, v, m0, n, seed) for seed in (0, 1, 5)]
    monkeypatch.setattr(montecarlo, "BLOCK", 97)
    monkeypatch.setattr(montecarlo, "DRAW_ROWS", 5)
    for seed, ref in zip((0, 1, 5), default):
        got = simulate_paths(model, grid, v, m0, n, seed)
        np.testing.assert_array_equal(got.family.masses, ref.family.masses)
        assert got.stats == ref.stats
        assert got.stats.stopped > 0 and got.stats.absorbed > 0


def test_memory_does_not_grow_with_paths_times_steps():
    # the whole (n_paths, K) block of increments alone would be 80 MB;
    # the simulator holds two blocks of increments and no uniforms
    grid, model, P, m0 = make_instance(K=100, J=50)
    n = 100_000
    tracemalloc.start()
    try:
        simulate_paths(model, grid, None, m0, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * BLOCK * grid.K * 8 + 8 * n + 8 * (grid.K + 1) * grid.J


class _FailingModel:
    """Constant-coefficient dynamics whose sigma raises after a few steps."""

    def __init__(self, calls_before_failing):
        self.left = calls_before_failing

    def mu(self, t, x):
        return np.zeros_like(x)

    def sigma(self, t, x):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("sigma failed")
        return np.full_like(x, 0.3)


def test_a_failing_step_joins_the_input_thread():
    # the failure comes in the first block, while the next one is drawn
    grid, model, P, m0 = make_instance(K=30, J=25)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="sigma failed"):
        simulate_paths(_FailingModel(3), grid, None, m0, 2 * BLOCK + 3, seed=0)
    assert set(threading.enumerate()) <= before

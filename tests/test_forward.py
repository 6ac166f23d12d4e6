"""Stopped forward measure, its mass ledger, and the Fokker-Planck audit."""

import tracemalloc

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    MeasureFamily,
    ProductField,
    SupportViolation,
    ValueFunction,
    build_transition_operator,
    fokker_planck_residual,
    is_admissible,
    measure_ledger,
    pair,
    solve_vi,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.forward import forbidden_support, random_test_function
from conftest import (
    has_avx2,
    lapack_is_openblas,
    make_instance,
    never_stop_masses,
    random_instance,
    run_under_coretypes,
)


def _never_stop_value(grid):
    """A synthetic strictly positive value function (no stop nodes at all)."""
    return ValueFunction(values=np.ones(grid.shape),
                         stop_mask=np.zeros(grid.shape, dtype=bool),
                         tol_zero=1e-12)


# ----------------------------------------------------------------------
# the forward pass


def test_never_stopping_reproduces_all_continue():
    rng = np.random.default_rng(40)
    cases = [make_instance(K=7, J=5)] + [random_instance(rng)[:4] for _ in range(5)]
    for grid, model, P, m0 in cases:
        m, ledger = stopped_forward_measure(None, m0, P)
        bar = never_stop_masses(m0, P)
        assert np.array_equal(m.masses, bar)
        # a value function with no stop node pushes the same family
        same, _ = stopped_forward_measure(_never_stop_value(grid).stop_mask, m0, P)
        assert np.array_equal(same.masses, bar)
        assert not ledger.stopped_per_step.any()
        assert ledger.surviving == m.slice_totals()[-1]
        assert ledger.conservation_gap <= 1e-12


def _continuation_push(stop_mask, m0, P):
    """The push as a loop over the continuation mask ~stop_mask, with
    the ledger kept step by step: the reference the in-place form must
    match byte for byte.  A slice's stopped mass is numpy's sum of the
    slice where it stops; a BLAS dot with the mask gives other bits,
    which depend on the CPU's BLAS kernels."""
    cont = ~stop_mask
    out = np.empty((P.K + 1, P.n))
    stopped = np.empty(P.K + 1)
    absorbed = np.empty(P.K)
    stopped[0] = np.add.reduce(m0.masses, where=~cont[0])
    out[0] = m0.masses * cont[0]
    for k in range(P.K):
        pushed = np.maximum(P.steps[k].apply_adjoint(out[k]), 0.0)
        absorbed[k] = out[k].sum() - pushed.sum()
        stopped[k + 1] = np.add.reduce(pushed, where=~cont[k + 1])
        out[k + 1] = pushed * cont[k + 1]
    return out, stopped, absorbed


def test_push_matches_the_continuation_mask_loop_bytewise():
    rng = np.random.default_rng(41)
    # J=K=64 is large enough that a BLAS dot's stopped mass differs
    for n in [None] * 10 + [64]:
        grid, model, P, m0, f = random_instance(rng, J=n, K=n)
        for stop in (solve_vi(f, P).stop_mask, rng.random(grid.shape) < 0.3,
                     np.zeros(grid.shape, dtype=bool)):
            m, ledger = stopped_forward_measure(stop, m0, P)
            out, stopped, absorbed = _continuation_push(stop, m0, P)
            assert m.masses.tobytes() == out.tobytes()
            assert ledger.stopped_per_step.tobytes() == stopped.tobytes()
            assert ledger.absorbed_per_step.tobytes() == absorbed.tobytes()
        # never stopping is the all-continue mask
        m, ledger = stopped_forward_measure(None, m0, P)
        assert m.masses.tobytes() == out.tobytes()
        assert ledger.stopped_per_step.tobytes() == stopped.tobytes()


@pytest.mark.parametrize("never", [True, False])
def test_push_holds_no_mask_grid_of_its_own(never):
    # the family is the only (K+1) x J array the push makes; a bool grid
    # would add one byte per node, and so would any whole-grid temporary
    # of the ledger passes.  The push runs on one slice shared by every
    # step and on a slice per step.
    grid, model, P, m0 = make_instance(K=200, J=200)
    sigma = ProductField(CoefficientFn.constant(0.5), time=CoefficientFn.affine(1.0, 0.5))
    per_step = build_transition_operator(DiffusionModel(mu=model.mu, sigma=sigma), grid)
    assert len(set(map(id, per_step.steps))) == grid.K
    stop = None if never else solve_vi(np.full(grid.shape, 0.1), P).stop_mask
    nodes = (grid.K + 1) * grid.J
    for op in (P, per_step):
        stopped_forward_measure(stop, m0, op)
        tracemalloc.start()
        try:
            stopped_forward_measure(stop, m0, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * nodes + nodes // 2


_PUSH_HASHES = """
import hashlib
import numpy as np
from mfgstop import (CoefficientFn, DiffusionModel, InitialMeasure, ProductField,
                     build_grid, build_transition_operator, stopped_forward_measure)

grid = build_grid(T=1.0, a=0.0, b=1.0, K=400, J=400)
model = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.0)),
                       sigma=ProductField(CoefficientFn.constant(0.5)))
P = build_transition_operator(model, grid)
stop = np.random.default_rng(48).random(grid.shape) < 0.3
m, ledger = stopped_forward_measure(stop, InitialMeasure.uniform(grid), P)
for part in (m.masses, ledger.stopped_per_step, ledger.absorbed_per_step):
    print(hashlib.sha256(part.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not lapack_is_openblas(), reason="scipy's LAPACK is not OpenBLAS")
@pytest.mark.skipif(not has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
def test_push_does_not_depend_on_the_cpu_kernels():
    # the family and its ledger, stopped mass included, have the same
    # bits under the CPU's own kernels and under two others
    seen = run_under_coretypes(_PUSH_HASHES, (None, "Haswell", "Sandybridge"))
    assert len(set(seen.values())) == 1, seen


def test_zero_value_stops_all_mass_immediately():
    grid, model, P, m0 = make_instance(K=5, J=4)
    v = solve_vi(np.zeros(grid.shape), P)
    m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
    assert np.array_equal(m.masses, np.zeros(grid.shape))
    assert ledger.stopped_per_step[0] == pytest.approx(m0.total, abs=1e-15)
    assert ledger.total_absorbed == 0.0
    assert ledger.surviving == 0.0


def test_positive_reward_continues_until_horizon():
    # v > 0 strictly before the horizon, so the measure matches the
    # never-stopping family on k < K and the terminal slice empties
    grid, model, P, m0 = make_instance(K=6, J=5)
    v = solve_vi(np.ones(grid.shape), P)
    assert not v.stop_mask[: grid.K].any()
    m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
    bar = stopped_forward_measure(None, m0, P)[0]
    assert np.array_equal(m.masses[: grid.K], bar.masses[: grid.K])
    assert np.array_equal(m.masses[grid.K], np.zeros(grid.J))
    assert ledger.surviving == 0.0
    assert ledger.stopped_per_step[grid.K] == pytest.approx(
        bar.slice_totals()[grid.K], abs=1e-15)


def test_forward_measure_attains_dual_value():
    rng = np.random.default_rng(41)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
        dual = value_at_initial(v, m0)
        assert abs(pair(f, m) - dual) <= 1e-10 * (1.0 + abs(dual))


def test_output_admissible_dominated_and_supported():
    rng = np.random.default_rng(42)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
        assert is_admissible(m, m0, P, tol=1e-10).ok
        bar = stopped_forward_measure(None, m0, P)[0]
        assert np.all(m.masses <= bar.masses + 1e-12)
        # stop nodes carry exactly zero mass (k = 0 included: removed there)
        assert np.all(m.masses[v.stop_mask] == 0.0)


def test_ledger_conserves_mass():
    rng = np.random.default_rng(43)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        v = solve_vi(f, P)
        m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
        assert ledger.conservation_gap <= 1e-12
        assert ledger.initial == m0.total
        assert np.all(ledger.stopped_per_step >= 0.0)
        assert np.all(ledger.absorbed_per_step >= -1e-15)


def test_measure_ledger_agrees_on_forward_output():
    rng = np.random.default_rng(44)
    grid, model, P, m0, f = random_instance(rng, J=8, K=6)
    v = solve_vi(f, P)
    m, ledger = stopped_forward_measure(v.stop_mask, m0, P)
    other = measure_ledger(m, m0, P)
    assert np.allclose(other.stopped_per_step, ledger.stopped_per_step, atol=1e-13)
    assert np.allclose(other.absorbed_per_step, ledger.absorbed_per_step, atol=1e-13)
    assert other.surviving == ledger.surviving
    assert other.conservation_gap <= 1e-12


# ----------------------------------------------------------------------
# the Fokker-Planck audit


def test_residual_zero_test_function():
    grid, model, P, m0 = make_instance()
    v = solve_vi(np.ones(grid.shape), P)
    m, _ = stopped_forward_measure(v.stop_mask, m0, P)
    assert fokker_planck_residual(m, v, P, np.zeros(grid.shape), m0) == 0.0


def test_residual_small_on_forward_measure():
    rng = np.random.default_rng(45)
    grid, model, P, m0, f = random_instance(rng, J=10, K=8)
    v = solve_vi(f, P)
    m, _ = stopped_forward_measure(v.stop_mask, m0, P)
    for _ in range(10):
        phi = random_test_function(v, grid, rng)
        scale = max(np.abs(phi).max(), 1e-30)
        assert fokker_planck_residual(m, v, P, phi, m0) <= 1e-9 * scale


def test_residual_detects_deleted_mass():
    grid, model, P, m0 = make_instance(K=10, J=9)
    v = solve_vi(np.ones(grid.shape), P)
    m, _ = stopped_forward_measure(v.stop_mask, m0, P)
    k0, j0 = grid.K // 2, grid.J // 2
    tb = CoefficientFn.gaussian_bump(1.0, grid.t[k0], 0.3 * grid.T)
    xb = CoefficientFn.gaussian_bump(1.0, grid.x[j0], 0.3 * (grid.b - grid.a))
    phi = np.outer(tb(grid.t), xb(grid.x))
    phi[forbidden_support(v)] = 0.0
    assert abs(phi[k0, j0]) > 0.01
    clean = fokker_planck_residual(m, v, P, phi, m0)
    damaged = MeasureFamily(m.masses.copy(), grid=grid, validate=False)
    damaged.masses[k0, j0] *= 0.9
    broken = fokker_planck_residual(damaged, v, P, phi, m0)
    assert broken > max(100.0 * clean, 1e-8)


def test_residual_rejects_bad_support():
    grid, model, P, m0 = make_instance()
    v = solve_vi(np.ones(grid.shape), P)
    m, _ = stopped_forward_measure(v.stop_mask, m0, P)
    with pytest.raises(SupportViolation):
        fokker_planck_residual(m, v, P, np.ones(grid.shape), m0)


def test_forbidden_support_geometry():
    grid, model, P, m0 = make_instance(K=4, J=5)
    f = np.ones(grid.shape)
    f[:, 2] = -5.0
    v = solve_vi(f, P)
    bad = forbidden_support(v)
    # boundary-adjacent columns always excluded
    assert bad[:, 0].all() and bad[:, -1].all()
    # stop nodes and their one-node collar excluded
    ks, js = np.nonzero(v.stop_mask)
    for k, j in zip(ks, js):
        assert bad[k, j]
        if k > 0:
            assert bad[k - 1, j]
        if j > 0:
            assert bad[k, j - 1]


def test_random_test_function_respects_support():
    rng = np.random.default_rng(47)
    grid, model, P, m0, f = random_instance(rng, J=9, K=7)
    v = solve_vi(f, P)
    bad = forbidden_support(v)
    for _ in range(5):
        phi = random_test_function(v, grid, rng)
        assert np.all(phi[bad] == 0.0)
        assert phi.shape == grid.shape

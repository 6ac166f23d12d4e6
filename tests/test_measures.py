"""Occupation-measure families, admissibility polytope, moments, pairing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    FBarFn,
    InitialMeasure,
    Iterate,
    MeasureFamily,
    ProductField,
    RewardSpec,
    ShapeMismatch,
    SpaceTimeGrid,
    Tridiagonal,
    TransitionOperator,
    TransitionSlice,
    ValidationError,
    build_grid,
    build_transition_operator,
    convex_combine,
    directional_gain,
    is_admissible,
    measure_ledger,
    moment,
    pair,
    stopped_forward_measure,
)
from mfgstop.lp_oracle import random_admissible_measure
from mfgstop.model_core import _BLOCK, _row_blocks
from mfgstop.montecarlo import simulate_paths
from conftest import adjoint_each, constant_model, make_instance, random_instance


# ----------------------------------------------------------------------
# admissibility


def test_zero_family_is_admissible():
    grid, model, P, m0 = make_instance()
    m = MeasureFamily.zeros(grid)
    report = is_admissible(m, m0, P)
    assert report and report.ok
    assert report.worst_violation == 0.0


def test_all_continue_has_zero_slack():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    report = is_admissible(m, m0, P, tol=0.0)
    assert report.ok
    assert report.worst_violation == 0.0


@pytest.mark.parametrize("node", [(0, 1), (3, 2), (8, 5)])
def test_inflated_node_is_flagged(node):
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    k, j = node
    m.masses[k, j] *= 1.5
    report = is_admissible(m, m0, P)
    assert not report
    assert report.where == node
    assert report.kind == ("initial_bound" if k == 0 else "chain_bound")


def test_tied_chain_violations_report_the_first_in_row_major_order():
    # from m_0 = 0 nothing may arrive, so each planted mass is a violation
    # of exactly 0.25; a per-step scan with a strict > keeps the first
    grid, model, P, m0 = make_instance()
    m = MeasureFamily.zeros(grid)
    for k, j in [(5, 0), (3, 4), (3, 1)]:
        m.masses[k, j] = 0.25
    report = is_admissible(m, m0, P)
    assert (report.where, report.kind) == ((3, 1), "chain_bound")
    assert report.worst_violation == 0.25


@pytest.mark.parametrize("inflate", [False, True])
def test_nan_mass_is_flagged(inflate):
    # a NaN spreads through the push; it must neither pass nor hide the
    # inflated node that a per-step scan would still report
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    m.masses[2, 3] = np.nan
    if inflate:
        m.masses[6, 1] *= 1.5
    report = is_admissible(m, m0, P)
    assert not report
    assert report.worst_violation == np.inf and report.where == (2, 3)


def test_negative_mass_is_flagged():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    m.masses[2, 3] = -0.4
    report = is_admissible(m, m0, P)
    assert not report
    assert report.kind == "negative_mass"
    assert report.where == (2, 3)


def test_admissibility_shape_mismatch():
    grid, model, P, m0 = make_instance()
    bad = MeasureFamily.zeros(replace(grid, J=grid.J + 1))
    with pytest.raises(ShapeMismatch):
        is_admissible(bad, m0, P)


# ----------------------------------------------------------------------
# the never-stopping family


def test_all_continue_near_identity_transition():
    # sigma tiny on a wide domain: P ~ I, so every slice repeats m0
    grid = build_grid(T=1.0, a=0.0, b=100.0, K=6, J=4)
    model = constant_model(0.0, 1e-4)
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    m = stopped_forward_measure(None, m0, P)[0]
    for k in range(grid.K + 1):
        assert np.allclose(m.masses[k], m0.masses, atol=1e-9)


def test_all_continue_scalar_geometric_decay():
    c, dt, K = 0.8, 0.5, 6
    A = Tridiagonal(lower=np.zeros(0), diag=np.array([-c]), upper=np.zeros(0))
    grid = SpaceTimeGrid(T=K * dt, a=0.0, b=1.0, K=K, J=1)
    P = TransitionOperator([TransitionSlice(A, grid.dt)] * grid.K, grid)
    m0 = InitialMeasure.from_masses([1.0])
    m = stopped_forward_measure(None, m0, P)[0]
    p = 1.0 / (1.0 + dt * c)
    for k in range(K + 1):
        assert m.masses[k, 0] == pytest.approx(p**k, rel=1e-13)


def test_all_continue_matches_monte_carlo_histogram():
    # oracle: Euler-Maruyama paths with no stopping, snapped to nodes.
    # J = 3 is coarse, so the sample size keeps the sampling error above
    # the few-percent space-discretization mismatch.
    n = 400
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=200, J=3)
    model = constant_model(0.0, 0.25)
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    bar = stopped_forward_measure(None, m0, P)[0]
    mc = simulate_paths(model, grid, None, m0, n_paths=n, seed=0)
    assert mc.stats.stopped == 0
    for k in (50, 100, 150, 200):
        exact = bar.masses[k]
        se = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / n)
        z = np.abs(mc.family.masses[k] - exact) / np.maximum(se, 1e-12)
        assert z.max() <= 3.0


def test_slice_mass_monotone():
    rng = np.random.default_rng(7)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        totals = stopped_forward_measure(None, m0, P)[0].slice_totals()
        assert np.all(np.diff(totals) <= 1e-14)
        assert totals[0] == pytest.approx(m0.total, abs=1e-14)


def test_domination_by_all_continue():
    rng = np.random.default_rng(8)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        bar = stopped_forward_measure(None, m0, P)[0]
        m = random_admissible_measure(P, m0, rng)
        assert np.all(m.masses <= bar.masses + 1e-12)


# ----------------------------------------------------------------------
# moments


def test_moment_of_ones_counts_survivors():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    y = moment(m, CoefficientFn.constant(1.0))
    assert np.allclose(y, m.slice_totals(), atol=1e-14)


def test_moment_of_zero_measure():
    grid, model, P, m0 = make_instance()
    m = MeasureFamily.zeros(grid)
    y = moment(m, CoefficientFn.affine(0.3, -2.0))
    assert np.array_equal(y, np.zeros(grid.K + 1))


def test_moment_two_atoms_arithmetic():
    # mass 0.5 at x = 0.25 and 0.5 at x = 0.75 against g(x) = x
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=2, J=3)
    masses = np.zeros((3, 3))
    masses[:, 0] = 0.5
    masses[:, 2] = 0.5
    m = MeasureFamily(masses, grid=grid)
    y = moment(m, CoefficientFn.affine(0.0, 1.0))
    assert np.array_equal(y, np.full(3, 0.5))


def test_moment_is_linear():
    rng = np.random.default_rng(9)
    grid, model, P, m0, f = random_instance(rng, J=7, K=5)
    g = CoefficientFn.polynomial(0.2, -1.0, 3.0)
    m1 = random_admissible_measure(P, m0, rng)
    m2 = random_admissible_measure(P, m0, rng)
    a, b = 0.3, 1.7
    combo = MeasureFamily(a * m1.masses + b * m2.masses, grid=grid)
    lhs = moment(combo, g)
    rhs = a * moment(m1, g) + b * moment(m2, g)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_moment_matches_fsum():
    rng = np.random.default_rng(10)
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=3, J=9)
    masses = rng.random((4, 9)) * 0.1
    g = CoefficientFn.polynomial(-0.5, 2.0, 1.0)
    y = moment(MeasureFamily(masses, grid=grid), g)
    gx = g(grid.x)
    for k in range(4):
        exact = math.fsum(float(masses[k, j] * gx[j]) for j in range(9))
        assert y[k] == pytest.approx(exact, abs=1e-16, rel=1e-15)


# ----------------------------------------------------------------------
# reward pairing


def test_pair_zero_reward():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    assert pair(np.zeros(grid.shape), m) == 0.0


def test_pair_unit_reward_identity_transition():
    # exact identity transition: A = 0, so P = I and mass is conserved;
    # left-endpoint rule gives T * total mass
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=4, J=3)
    J = grid.J
    A = Tridiagonal(lower=np.zeros(J - 1), diag=np.zeros(J), upper=np.zeros(J - 1))
    P = TransitionOperator([TransitionSlice(A, grid.dt)] * grid.K, grid)
    m0 = InitialMeasure.uniform(grid)
    m = stopped_forward_measure(None, m0, P)[0]
    val = pair(np.ones(grid.shape), m)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_pair_matches_fsum_double_loop():
    rng = np.random.default_rng(11)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        m = random_admissible_measure(P, m0, rng)
        expected = math.fsum(
            grid.dt * f[k, j] * m.masses[k, j]
            for k in range(grid.K)
            for j in range(grid.J)
        )
        assert pair(f, m) == pytest.approx(expected, abs=1e-15)


def test_pair_ignores_final_slice():
    grid, model, P, m0 = make_instance(K=3, J=4)
    m = stopped_forward_measure(None, m0, P)[0]
    f = np.zeros(grid.shape)
    f[grid.K] = 100.0
    assert pair(f, m) == 0.0


def test_pair_shape_mismatch():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    with pytest.raises(ShapeMismatch):
        pair(np.zeros((2, 2)), m)


# ----------------------------------------------------------------------
# convex combinations


def test_convex_combine_endpoints():
    rng = np.random.default_rng(12)
    grid, model, P, m0, f = random_instance(rng)
    m1 = random_admissible_measure(P, m0, rng)
    m2 = random_admissible_measure(P, m0, rng)
    assert np.array_equal(convex_combine(m1, m2, 0.0).masses, m1.masses)
    assert np.array_equal(convex_combine(m1, m2, 1.0).masses, m2.masses)


def test_convex_combine_stays_admissible():
    rng = np.random.default_rng(13)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        m1 = random_admissible_measure(P, m0, rng)
        m2 = random_admissible_measure(P, m0, rng)
        mid = convex_combine(m1, m2, 0.5)
        assert is_admissible(mid, m0, P, tol=1e-12).ok
        third = convex_combine(m1, m2, rng.random())
        assert is_admissible(third, m0, P, tol=1e-12).ok


def test_convex_combine_rejects_bad_rho():
    grid, model, P, m0 = make_instance()
    m = stopped_forward_measure(None, m0, P)[0]
    with pytest.raises(ValidationError):
        convex_combine(m, m, -0.1)
    with pytest.raises(ValidationError):
        convex_combine(m, m, 1.1)


# ----------------------------------------------------------------------
# family validation


def test_family_rejects_bad_input():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=1, J=2)  # shape (2, 2)
    for masses in (np.zeros(5), np.zeros(4), np.zeros((3, 2)), np.zeros((2, 3))):
        with pytest.raises(ShapeMismatch):
            MeasureFamily(masses, grid)
    with pytest.raises(ValidationError):
        MeasureFamily(np.full((2, 2), -1.0), grid)
    with pytest.raises(ValidationError):
        MeasureFamily(np.full((2, 2), np.nan), grid)


# ----------------------------------------------------------------------
# block-wise computations: bitwise equal to their one-shot formulas
#
# pair follows numpy's pairwise-summation tree, and moment and
# convex_combine go a block of rows at a time.  A numpy or BLAS whose
# sums or products change with the blocking fails here, not silently in
# the solver's outputs.

# (K+1, J): K*J < 8 summands, exactly one leaf, one leaf + 1, odd sizes,
# K not a multiple of the row block, J above the leaf, and 1600 x 800
_BLOCK_SHAPES = [(2, 3), (2, _BLOCK), (2, _BLOCK + 1), (38, 41), (204, 200),
                 (4, 20000), (1601, 800)]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _spread(rng, shape):
    # magnitudes over 16 decades: a sum's last bits then depend on the
    # order of its additions
    return 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _block_case(shape, seed):
    rng = np.random.default_rng(seed)
    K, J = shape[0] - 1, shape[1]
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=K, J=J)
    m1 = MeasureFamily(rng.random(shape) * _spread(rng, shape), grid=grid)
    m2 = MeasureFamily(rng.random(shape) * _spread(rng, shape), grid=grid)
    return grid, m1, m2, rng


def test_row_blocks_cover_the_rows_in_multiples_of_eight():
    for n_rows, n_cols in [(0, 5), (1, 5), (203, 200), (800, 800), (5, 20000),
                           (20000, 1)]:
        blocks = _row_blocks(n_rows, n_cols)
        assert [k for b in blocks for k in range(b.start, b.stop)] == list(range(n_rows))
        assert all((b.stop - b.start) % 8 == 0 for b in blocks[:-1])
        assert all((b.stop - b.start) * n_cols <= max(_BLOCK, 8 * n_cols) for b in blocks)


@pytest.mark.parametrize("shape", _BLOCK_SHAPES)
def test_pair_and_gain_sums_are_the_one_shot_sums_bitwise(shape):
    grid, m1, m2, rng = _block_case(shape, 20)
    K, dt = grid.K, grid.dt
    f = rng.normal(size=shape) * _spread(rng, shape)
    assert _bits(pair(f, m1)) == _bits(float(dt * np.sum(f[:K] * m1.masses[:K])))
    # the gain reads moment paths, and sums their K products with numpy's
    # pairwise sum, not a BLAS dot product
    g = CoefficientFn.polynomial(0.2, 1.0)
    spec = RewardSpec(terms=((FBarFn("linear", (1.0, 2.0)), g),), grid=grid)
    a, b = Iterate.of(spec, m1), Iterate.of(spec, m2)
    y, y_b = a.ys[0][:K], b.ys[0][:K]
    one_shot = dt * float(np.sum((1.0 - 2.0 * y) * (y_b - y)))
    assert _bits(directional_gain(spec, a, b)) == _bits(one_shot)


@pytest.mark.parametrize("shape", _BLOCK_SHAPES)
def test_h_pairing_is_the_pairing_with_the_h_grid_bitwise(shape):
    # validated() evaluates a separable h on the grid once and keeps that
    # grid, which Iterate.of pairs with the family
    grid, m1, _, _ = _block_case(shape, 23)
    h = ProductField(CoefficientFn.polynomial(0.3, -1.0, 2.0),
                     time=CoefficientFn.affine(1.0, -0.7))
    spec = RewardSpec(terms=(), h=h).validated(grid, InitialMeasure.uniform(grid))
    assert _bits(spec.h) == _bits(h.on_grid(grid))
    assert _bits(Iterate.of(spec, m1).H) == _bits(pair(spec.h, m1))


@pytest.mark.parametrize("shape", _BLOCK_SHAPES)
def test_moment_and_convex_combine_are_the_one_shot_forms_bitwise(shape):
    grid, m1, m2, rng = _block_case(shape, 21)
    g = CoefficientFn.polynomial(0.3, -1.0, 2.0)
    one_shot = np.add.reduce(m1.masses * g(grid.x)[None, :], axis=1)
    assert _bits(moment(m1, g)) == _bits(one_shot)
    rho = float(rng.random())
    one_shot = (1.0 - rho) * m1.masses + rho * m2.masses
    assert _bits(convex_combine(m1, m2, rho).masses) == _bits(one_shot)


def _one_shot_chain_excess(m, P):
    excess = m.masses[1:] - adjoint_each(P, m.masses[:-1])
    excess[np.isnan(excess)] = np.inf
    k, j = np.unravel_index(np.argmax(excess), excess.shape)
    return excess[k, j], (int(k) + 1, int(j))


def _blocked_operators():
    """A homogeneous, a time-dependent and an alternating operator whose
    steps span several blocks of the whole-family pushes."""
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=60, J=900)
    P = build_transition_operator(constant_model(0.2, 0.5), grid)
    varying = DiffusionModel(mu=ProductField(CoefficientFn.constant(0.2)),
                             sigma=ProductField(CoefficientFn.constant(0.5),
                                                time=CoefficientFn.affine(1.0, 0.5)))
    td = build_transition_operator(varying, grid)
    alt = TransitionOperator([(P.slices[0], td.slices[0])[k % 2] for k in range(grid.K)], grid)
    return grid, [P, td, alt]


def test_streamed_chain_check_and_ledger_match_the_one_shot_forms():
    grid, operators = _blocked_operators()
    m0 = InitialMeasure.uniform(grid)
    for P in operators:
        assert len(P._blocks) > 3
        m = stopped_forward_measure(None, m0, P)[0]
        ledger = measure_ledger(m, m0, P)
        totals = m.masses.sum(axis=1)
        pushed = adjoint_each(P, m.masses[:-1]).sum(axis=1)
        assert _bits(ledger.absorbed_per_step) == _bits(totals[:-1] - pushed)
        assert _bits(ledger.stopped_per_step) == _bits(np.append(m0.total, pushed) - totals)

        # from m_k = 0 nothing may arrive, so a planted mass is a violation
        # of its own size: first a tie in two blocks (the first node in
        # row-major order wins), then a larger one, then a NaN
        bad = MeasureFamily.zeros(grid)
        bad.masses[51, 3] = bad.masses[8, 800] = 0.25
        for plant in [None, (33, 10, 0.75), (41, 2, np.nan)]:
            if plant is not None:
                bad.masses[plant[:2]] = plant[2]
            report = is_admissible(bad, m0, P)
            top, where = _one_shot_chain_excess(bad, P)
            assert (report.kind, report.where) == ("chain_bound", where)
            assert _bits(report.worst_violation) == _bits(float(top))
        assert where == (41, 2)

"""Independent verification backends: enumeration, simplex, function audit."""

import numpy as np
import pytest

from mfgstop import (
    InstanceTooLarge,
    MeasureFamily,
    complementarity_report,
    is_admissible,
    pair,
    solve_vi,
    stopped_forward_measure,
    value_at_initial,
)
from mfgstop.lp_oracle import (
    enumerate_stopping_rules,
    lp_solve_small,
    random_admissible_measure,
    test_function_audit as function_audit,
)
from conftest import make_instance, random_instance


# ----------------------------------------------------------------------
# exhaustive enumeration


def test_enumeration_all_negative_reward():
    grid, model, P, m0 = make_instance(K=4, J=4)
    f = np.full(grid.shape, -1.0)
    res = enumerate_stopping_rules(f, P, m0)
    assert res.best_value == 0.0
    assert res.best_rule[0].all()
    assert res.n_rules == 1 << 16


def test_enumeration_all_positive_reward():
    grid, model, P, m0 = make_instance(K=4, J=4)
    f = np.ones(grid.shape)
    res = enumerate_stopping_rules(f, P, m0)
    bar = stopped_forward_measure(None, m0, P)
    assert not res.best_rule.any()
    assert res.best_value == pytest.approx(pair(f, bar), rel=1e-12)


def test_enumeration_matches_dp():
    rng = np.random.default_rng(51)
    for _ in range(6):
        grid, model, P, m0, f = random_instance(rng, J=3, K=3)
        res = enumerate_stopping_rules(f, P, m0)
        v = solve_vi(f, P)
        assert res.best_value == pytest.approx(value_at_initial(v, m0), abs=1e-12)


def test_enumeration_rejects_large_instances():
    grid, model, P, m0 = make_instance(K=5, J=4)
    with pytest.raises(InstanceTooLarge):
        enumerate_stopping_rules(np.zeros(grid.shape), P, m0)


# ----------------------------------------------------------------------
# dense simplex


def test_simplex_zero_reward():
    grid, model, P, m0 = make_instance(K=4, J=4)
    res = lp_solve_small(np.zeros(grid.shape), P, m0)
    assert res.value == 0.0
    assert res.iterations == 0


def test_simplex_matches_enumeration():
    rng = np.random.default_rng(52)
    for _ in range(6):
        grid, model, P, m0, f = random_instance(rng, J=3, K=3)
        enum = enumerate_stopping_rules(f, P, m0)
        lp = lp_solve_small(f, P, m0)
        assert lp.value == pytest.approx(enum.best_value, abs=1e-12)


def test_simplex_matches_dp_medium():
    rng = np.random.default_rng(53)
    for _ in range(3):
        grid, model, P, m0, f = random_instance(rng, J=10, K=10)
        lp = lp_solve_small(f, P, m0)
        v = solve_vi(f, P)
        dual = value_at_initial(v, m0)
        assert abs(lp.value - dual) <= 1e-9 * (1.0 + abs(dual))


def test_simplex_measure_is_optimal_and_admissible():
    rng = np.random.default_rng(54)
    for _ in range(5):
        grid, model, P, m0, f = random_instance(rng, J=6, K=6)
        lp = lp_solve_small(f, P, m0)
        assert is_admissible(lp.family, m0, P, tol=1e-10).ok
        assert pair(f, lp.family) == pytest.approx(lp.value, abs=1e-9)
        v = solve_vi(f, P)
        rep = complementarity_report(v, f, lp.family, P)
        assert rep.stop_region_integral <= 1e-8
        assert rep.continuation_residual <= 1e-8


def test_triple_agreement_tiny():
    rng = np.random.default_rng(55)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng, J=4, K=3)
        enum = enumerate_stopping_rules(f, P, m0)
        lp = lp_solve_small(f, P, m0)
        dp = value_at_initial(solve_vi(f, P), m0)
        assert abs(enum.best_value - lp.value) <= 1e-9
        assert abs(enum.best_value - dp) <= 1e-9
        assert abs(lp.value - dp) <= 1e-9


def test_simplex_rejects_large_instances():
    grid, model, P, m0 = make_instance(K=20, J=21)
    with pytest.raises(InstanceTooLarge):
        lp_solve_small(np.zeros(grid.shape), P, m0)


# ----------------------------------------------------------------------
# test-function audit


def test_audit_zero_measure_nonnegative():
    grid, model, P, m0 = make_instance(K=6, J=6)
    m = MeasureFamily.zeros(grid)
    res = function_audit(m, m0, P, n_functions=50, seed=0)
    assert res.worst_slack >= 0.0


def test_audit_all_continue_nonnegative():
    grid, model, P, m0 = make_instance(K=8, J=6)
    bar = stopped_forward_measure(None, m0, P)
    res = function_audit(bar, m0, P, n_functions=100, seed=0)
    assert res.worst_normalized >= -1e-9


def test_audit_forward_measures_nonnegative():
    rng = np.random.default_rng(56)
    for _ in range(5):
        grid, model, P, m0, f = random_instance(rng)
        m = random_admissible_measure(P, m0, rng)
        res = function_audit(m, m0, P, n_functions=100,
                                  seed=int(rng.integers(1 << 30)))
        assert res.worst_normalized >= -1e-9


def test_audit_detects_inflated_node():
    grid, model, P, m0 = make_instance(K=8, J=6)
    bar = stopped_forward_measure(None, m0, P)
    m = MeasureFamily(bar.masses.copy(), grid=grid, validate=False)
    m.masses[3, 2] *= 1.5
    found = False
    for seed in range(100):
        res = function_audit(m, m0, P, n_functions=100, seed=seed)
        if res.worst_slack < 0.0:
            found = True
            break
    assert found


# ----------------------------------------------------------------------
# admissible sampling helper


def test_random_admissible_measure_is_admissible():
    rng = np.random.default_rng(57)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        m = random_admissible_measure(P, m0, rng)
        assert is_admissible(m, m0, P, tol=1e-10).ok
        assert m.grid is grid

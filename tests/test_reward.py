"""Coupled rewards, antimonotonicity, and the exact potential."""

import dataclasses

import numpy as np
import pytest

from mfgstop import (
    CoefficientFn,
    FBarFn,
    InitialMeasure,
    Iterate,
    MeasureFamily,
    MissingAntiderivative,
    MomentOutOfRange,
    ProductField,
    RewardSpec,
    ShapeMismatch,
    ValidationError,
    antimonotonicity_check,
    build_grid,
    convex_combine,
    directional_gain,
    evaluate_reward,
    moment,
    pair,
    potential_value,
    stopped_forward_measure,
)
from mfgstop.lp_oracle import random_admissible_measure
from conftest import make_instance


def _f(spec, m):
    """The reward f(., m)."""
    return evaluate_reward(spec, Iterate.of(spec, m).ys)


def _F(spec, m):
    """The potential F(m)."""
    return potential_value(spec, Iterate.of(spec, m))


def _two_term_setup(seed=21):
    """Mixed-kind validated spec plus two random admissible families."""
    rng = np.random.default_rng(seed)
    grid, model, P, m0 = make_instance(K=6, J=5)
    spec = RewardSpec(
        terms=(
            (FBarFn("linear", (0.8, 1.5)), CoefficientFn.affine(0.5, 1.0)),
            (FBarFn("exponential", (0.7, 1.3)),
             CoefficientFn.gaussian_bump(1.0, 0.5, 0.3)),
        ),
        h=ProductField(CoefficientFn.affine(0.2, -0.4)),
    ).validated(grid, m0)
    m1 = random_admissible_measure(P, m0, rng)
    m2 = random_admissible_measure(P, m0, rng)
    return grid, P, m0, spec, m1, m2


# ----------------------------------------------------------------------
# evaluate_reward


def test_decoupled_reward_ignores_measure():
    grid, model, P, m0 = make_instance(K=3, J=4)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 0.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    zero = MeasureFamily.zeros(grid)
    full = stopped_forward_measure(None, m0, P)[0]
    f0 = _f(spec, zero)
    f1 = _f(spec, full)
    assert np.array_equal(f0, np.ones(grid.shape))
    assert np.array_equal(f1, np.ones(grid.shape))


def test_linear_reward_arithmetic():
    # fbar = 1 - y, g = 1, every slice holds mass 0.5 -> f = 0.5
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=3, J=4)
    m0 = InitialMeasure.uniform(grid)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    m = MeasureFamily(np.full(grid.shape, 0.125), grid=grid)
    f = _f(spec, m)
    assert np.array_equal(f, np.full(grid.shape, 0.5))


def test_saturating_reward_at_zero_moment():
    grid, model, P, m0 = make_instance(K=3, J=4)
    spec = RewardSpec(
        terms=((FBarFn("saturating", (2.0, 0.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    m = MeasureFamily.zeros(grid)
    assert np.array_equal(_f(spec, m), np.full(grid.shape, 2.0))


def test_moment_out_of_range_alarm():
    grid, model, P, m0 = make_instance(K=3, J=4)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    huge = MeasureFamily(np.full(grid.shape, 10.0), grid=grid)
    with pytest.raises(MomentOutOfRange):
        _f(spec, huge)
    with pytest.raises(MomentOutOfRange):
        _F(spec, huge)
    # a NaN aggregate is out of every range
    for bad in (np.nan, np.inf):
        masses = np.zeros(grid.shape)
        masses[1, 2] = bad
        with pytest.raises(MomentOutOfRange):
            Iterate.of(spec, MeasureFamily(masses, grid=grid, validate=False))


# ----------------------------------------------------------------------
# antimonotonicity


def test_antimonotone_linear():
    grid, model, P, m0 = make_instance()
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 0.5)),
                CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    ok, witness = antimonotonicity_check(spec)
    assert ok and witness is None


def test_antimonotone_rejects_increasing():
    bad = FBarFn("linear", (1.0, -0.5), validate=False)
    spec = RewardSpec(terms=((bad, CoefficientFn.constant(1.0)),))
    ok, witness = antimonotonicity_check(spec)
    assert not ok
    term, t, y1, y2 = witness
    assert term == 0
    assert (bad.f_bar(t, y1) - bad.f_bar(t, y2)) * (y1 - y2) > 1e-12


def test_antimonotone_exponential():
    grid, model, P, m0 = make_instance()
    spec = RewardSpec(
        terms=((FBarFn("exponential", (1.0, 2.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    ok, witness = antimonotonicity_check(spec)
    assert ok


def test_antimonotone_pairing_inequality():
    # sum_k dt (fbar(y1_k) - fbar(y2_k)) (y1_k - y2_k) <= 0 up to fuzz
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=22)
    for fbar, g in spec.terms:
        y1 = moment(m1, g)
        y2 = moment(m2, g)
        t = grid.t
        s = grid.dt * np.sum((fbar.f_bar(t, y1) - fbar.f_bar(t, y2)) * (y1 - y2))
        assert s <= 1e-10


# ----------------------------------------------------------------------
# the potential


def test_potential_zero_measure():
    grid, model, P, m0 = make_instance(K=3, J=4)
    spec = RewardSpec(
        terms=((FBarFn("exponential", (1.0, 2.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    m = MeasureFamily.zeros(grid)
    assert _F(spec, m) == 0.0


def test_potential_hand_check():
    # linear fbar = 1 - y, dt = 1, moments (0.5, 0.25):
    # (0.5 - 0.125) + (0.25 - 0.03125) = 0.59375
    grid = build_grid(T=2.0, a=0.0, b=1.0, K=2, J=2)
    m0 = InitialMeasure.uniform(grid)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    masses = np.array([[0.25, 0.25], [0.125, 0.125], [0.0, 0.0]])
    m = MeasureFamily(masses, grid=grid)
    assert _F(spec, m) == 0.59375


def test_potential_gradient_matches_fd():
    # central difference along the admissible segment [m1, m2]: the slope
    # at the midpoint equals the pairing of f(mid) against m2 - m1
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=23)
    mid = convex_combine(m1, m2, 0.5)
    gain = 2.0 * directional_gain(spec, Iterate.of(spec, mid), Iterate.of(spec, m2))
    assert abs(gain) > 1e-4
    for eps in (1e-4, 1e-5, 1e-6):
        up = _F(spec, convex_combine(m1, m2, 0.5 + eps))
        dn = _F(spec, convex_combine(m1, m2, 0.5 - eps))
        slope = (up - dn) / (2.0 * eps)
        assert slope == pytest.approx(gain, rel=1e-6, abs=1e-9)


def test_potential_concave_along_segments():
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=24)
    F1 = _F(spec, m1)
    F2 = _F(spec, m2)
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        mid = convex_combine(m1, m2, rho)
        F = _F(spec, mid)
        assert F >= (1.0 - rho) * F1 + rho * F2 - 1e-10


# ----------------------------------------------------------------------
# directional gain


def test_gain_zero_direction():
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=25)
    it = Iterate.of(spec, m1)
    assert directional_gain(spec, it, it) == 0.0
    assert directional_gain(spec, it, Iterate.of(spec, m1)) == 0.0


def test_gain_decoupled_is_pair_difference():
    grid, model, P, m0 = make_instance(K=5, J=4)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 0.0)), CoefficientFn.affine(0.0, 1.0)),),
    ).validated(grid, m0)
    rng = np.random.default_rng(26)
    m1 = random_admissible_measure(P, m0, rng)
    m2 = random_admissible_measure(P, m0, rng)
    f = _f(spec, m1)
    want = pair(f, m2) - pair(f, m1)
    got = directional_gain(spec, Iterate.of(spec, m1), Iterate.of(spec, m2))
    assert got == pytest.approx(want, abs=1e-14)


def test_gain_matches_fd_at_zero():
    # probes below can dip negative, which is fine for the finite
    # difference; only moments enter the potential
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=27)
    base = MeasureFamily(0.5 * m1.masses, grid=grid, validate=False)
    delta = m2.masses - base.masses
    gain = directional_gain(spec, Iterate.of(spec, base), Iterate.of(spec, m2))
    assert abs(gain) > 1e-4
    for eps in (1e-4, 1e-5, 1e-6):
        up = _F(spec, MeasureFamily(base.masses + eps * delta, grid=grid,
                                    validate=False))
        dn = _F(spec, MeasureFamily(base.masses - eps * delta, grid=grid,
                                    validate=False))
        slope = (up - dn) / (2.0 * eps)
        assert slope == pytest.approx(gain, rel=1e-6, abs=1e-9)


def test_gain_shape_mismatch():
    grid, P, m0, spec, m1, m2 = _two_term_setup(seed=28)
    other = MeasureFamily.zeros(dataclasses.replace(grid, K=grid.K + 1))
    # an unvalidated spec builds an Iterate on any grid
    elsewhere = Iterate.of(RewardSpec(terms=spec.terms), other)
    with pytest.raises(ShapeMismatch):
        directional_gain(spec, Iterate.of(spec, m1), elsewhere)


# ----------------------------------------------------------------------
# antiderivative consistency


@pytest.mark.parametrize("fbar, lo, hi", [
    (FBarFn("linear", (0.7, 2.0)), -1.0, 1.0),
    (FBarFn("exponential", (1.3, 0.8)), -1.0, 1.0),
    (FBarFn("exponential", (1.3, 0.0)), -1.0, 1.0),
    (FBarFn("saturating", (2.0, -0.3)), 0.1, 2.0),
    (FBarFn("saturating", (2.0, -0.3)), -2.0, -0.1),
])
def test_antiderivative_matches_fd(fbar, lo, hi):
    ys = np.linspace(lo, hi, 11)
    eps = 1e-6
    fd = (fbar.F_bar(0.0, ys + eps) - fbar.F_bar(0.0, ys - eps)) / (2 * eps)
    f = fbar.f_bar(0.0, ys)
    assert np.allclose(fd, f, rtol=1e-6, atol=1e-8)


def test_antiderivative_normalized_at_zero():
    for fbar in (FBarFn("linear", (0.7, 2.0)),
                 FBarFn("exponential", (1.3, 0.8)),
                 FBarFn("saturating", (2.0, 0.3))):
        assert fbar.F_bar(0.5, 0.0) == 0.0


def test_time_modulation_scales_both():
    theta = CoefficientFn.affine(1.0, 2.0)
    fbar = FBarFn("linear", (1.0, 1.0), time_modulation=theta)
    t = np.array([0.0, 0.5, 1.0])
    plain = FBarFn("linear", (1.0, 1.0))
    assert np.allclose(fbar.f_bar(t, 0.3), theta(t) * plain.f_bar(t, 0.3))
    assert np.allclose(fbar.F_bar(t, 0.3), theta(t) * plain.F_bar(t, 0.3))


# ----------------------------------------------------------------------
# spec validation


def test_spec_rejects_increasing_fbar():
    grid, model, P, m0 = make_instance()
    bad = FBarFn("linear", (1.0, -1.0), validate=False)
    with pytest.raises(ValidationError):
        RewardSpec(terms=((bad, CoefficientFn.constant(1.0)),)).validated(grid, m0)


def test_spec_rejects_negative_time_modulation():
    grid, model, P, m0 = make_instance()
    theta = CoefficientFn.affine(0.1, -1.0)
    fbar = FBarFn("linear", (1.0, 1.0), time_modulation=theta)
    with pytest.raises(ValidationError):
        RewardSpec(terms=((fbar, CoefficientFn.constant(1.0)),)).validated(grid, m0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite_time_modulation(bad):
    grid, model, P, m0 = make_instance()
    theta = CoefficientFn.tabulated([0.0, 1.0], [bad, 1.0])
    fbar = FBarFn("linear", (1.0, 1.0), time_modulation=theta)
    with pytest.raises(ValidationError):
        RewardSpec(terms=((fbar, CoefficientFn.constant(1.0)),)).validated(grid, m0)


def test_spec_rejects_empty():
    grid, model, P, m0 = make_instance()
    with pytest.raises(ValidationError):
        RewardSpec(terms=()).validated(grid, m0)


def test_spec_warns_on_vanishing_coupling():
    grid, model, P, m0 = make_instance()
    with pytest.warns(UserWarning):
        RewardSpec(
            terms=((FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(0.0)),),
        ).validated(grid, m0)


def test_spec_rejects_bad_h_shape():
    grid, model, P, m0 = make_instance()
    with pytest.raises(ShapeMismatch):
        RewardSpec(
            terms=((FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(1.0)),),
            h=np.zeros((2, 2)),
        ).validated(grid, m0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_h(bad):
    grid, model, P, m0 = make_instance()
    term = (FBarFn("linear", (1.0, 1.0)), CoefficientFn.constant(1.0))
    with pytest.raises(ValidationError):
        RewardSpec(terms=(term,),
                   h=ProductField(CoefficientFn.constant(bad))).validated(grid, m0)
    h = np.zeros(grid.shape)
    h[3, 2] = bad
    with pytest.raises(ValidationError):
        RewardSpec(terms=(term,), h=h).validated(grid, m0)


def test_fbar_catalog_boundaries():
    with pytest.raises(MissingAntiderivative):
        FBarFn("linear_decreasing", (1.0, 2.0))
    with pytest.raises(MissingAntiderivative):
        FBarFn("cubic", (1.0, 2.0))
    with pytest.raises(ValidationError):
        FBarFn("exponential", (-1.0, 2.0))
    with pytest.raises(ValidationError):
        FBarFn("saturating", (-2.0, 0.0))
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 2.0)), CoefficientFn.constant(1.0)),))
    assert spec.all_linear
    spec2 = RewardSpec(
        terms=((FBarFn("exponential", (1.0, 2.0)), CoefficientFn.constant(1.0)),))
    assert not spec2.all_linear


@pytest.mark.parametrize("kind", FBarFn.KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fbar_rejects_non_finite_params(kind, bad):
    for params in ((bad, 1.0), (1.0, bad)):
        for validate in (True, False):
            with pytest.raises(ValidationError, match="finite"):
                FBarFn(kind, params, validate=validate)


def test_y_max_is_domination_bound():
    grid, model, P, m0 = make_instance(K=4, J=5)
    g = CoefficientFn.affine(0.0, 2.0)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 1.0)), g),),
    ).validated(grid, m0)
    want = float(np.abs(g(grid.x)).max()) * m0.total
    assert spec.y_max == (want,)
    # every admissible family stays within the bound
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = random_admissible_measure(P, m0, rng)
        assert np.abs(moment(m, g)).max() <= want + 1e-12

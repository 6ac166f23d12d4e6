"""Grid arithmetic, generator stencils, resolvent operators, reward folding."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

from mfgstop import (
    CoefficientFn,
    DegenerateGrid,
    DiffusionModel,
    EllipticityViolation,
    EmptyDomain,
    InitialMeasure,
    MissingDerivative,
    NonPositiveHorizon,
    ProductField,
    ShapeMismatch,
    SpaceTimeGrid,
    TransitionOperator,
    TransitionSlice,
    Tridiagonal,
    ValidationError,
    build_grid,
    build_transition_operator,
    discretize_generator,
    fold_reward,
)
from mfgstop import model_core
from mfgstop.model_core import _generator_slices, _row_blocks, _step_bands
from conftest import (
    constant_model,
    has_avx2,
    lapack_is_openblas,
    operator_digest,
    random_instance,
    run_under_coretypes,
    src_env,
)


# ----------------------------------------------------------------------
# grids


def test_grid_quarter_steps():
    g = build_grid(T=1.0, a=0.0, b=1.0, K=4, J=3)
    assert g.dt == 0.25 and g.dx == 0.25
    assert np.array_equal(g.x, [0.25, 0.5, 0.75])
    assert np.array_equal(g.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_single_step():
    g = build_grid(T=2.0, a=-1.0, b=1.0, K=1, J=2)
    assert g.dt == 2.0
    assert g.dx == pytest.approx(2.0 / 3.0, abs=0, rel=1e-15)


def test_grid_rejects_bad_inputs():
    with pytest.raises(EmptyDomain):
        build_grid(T=1.0, a=1.0, b=1.0, K=4, J=3)
    with pytest.raises(EmptyDomain):
        build_grid(T=1.0, a=2.0, b=1.0, K=4, J=3)
    with pytest.raises(NonPositiveHorizon):
        build_grid(T=0.0, a=0.0, b=1.0, K=4, J=3)
    with pytest.raises(DegenerateGrid):
        build_grid(T=1.0, a=0.0, b=1.0, K=0, J=3)
    with pytest.raises(DegenerateGrid):
        build_grid(T=1.0, a=0.0, b=1.0, K=4, J=1)


# ----------------------------------------------------------------------
# coefficient catalog


def test_coefficient_kinds_evaluate():
    x = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(CoefficientFn.constant(2.0)(x), np.full(7, 2.0))
    assert np.allclose(CoefficientFn.affine(1.0, 3.0)(x), 1.0 + 3.0 * x)
    poly = CoefficientFn.polynomial(1.0, 0.0, 2.0)
    assert np.allclose(poly(x), 1.0 + 2.0 * x * x)
    assert np.allclose(poly.deriv(x), 4.0 * x)
    assert np.allclose(poly.deriv2(x), 4.0)
    gb = CoefficientFn.gaussian_bump(2.0, 0.0, 0.5)
    assert gb(0.0) == pytest.approx(2.0)
    # derivative vanishes at the center, second derivative is negative
    assert gb.deriv(0.0) == pytest.approx(0.0, abs=1e-15)
    assert gb.deriv2(0.0) < 0


def test_cosine_bump_support_and_derivatives():
    cb = CoefficientFn.cosine_bump(1.5, 0.0, 0.5)
    assert cb(0.0) == pytest.approx(1.5)
    assert cb(0.6) == 0.0 and cb(-0.7) == 0.0
    # finite-difference check inside the support
    z = np.array([-0.3, -0.1, 0.2, 0.4])
    eps = 1e-6
    fd1 = (cb(z + eps) - cb(z - eps)) / (2 * eps)
    assert np.allclose(cb.deriv(z), fd1, atol=1e-8)
    eps = 1e-4
    fd2 = (cb(z + eps) - 2 * cb(z) + cb(z - eps)) / eps**2
    assert np.allclose(cb.deriv2(z), fd2, atol=1e-5)


def test_tabulated_interpolates_and_refuses_derivatives():
    tab = CoefficientFn.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert tab(0.5) == pytest.approx(1.0)
    assert tab(1.0) == 2.0
    with pytest.raises(MissingDerivative):
        tab.deriv(0.5)
    with pytest.raises(MissingDerivative):
        tab.deriv2(0.5)
    with pytest.raises(ValidationError):
        CoefficientFn.tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_tabulated_rejects_non_finite_nodes(bad, where):
    nodes = [0.0, 1.0, 2.0]
    nodes[where] = bad
    with pytest.raises(ValidationError):
        CoefficientFn.tabulated(nodes, [0.0, 1.0, 2.0])


def test_coefficient_rejects_bad_params():
    with pytest.raises(ValidationError):
        CoefficientFn.gaussian_bump(1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        CoefficientFn("nope", (1.0,))


@pytest.mark.parametrize("space", [
    CoefficientFn.constant(-0.0),
    CoefficientFn.affine(-0.0, 2.0),
    CoefficientFn.tabulated([-1.0, 0.0, 1.0], [np.inf, -0.0, -3.0]),
], ids=["constant", "affine", "tabulated"])
def test_time_constant_field_is_its_space_factor_bitwise(space):
    # the missing time factor is 1.0, and 1.0 * s has the bits of s
    x = np.array([-0.0, 0.0, 0.5, -2.0, np.inf, -np.inf, np.nan])
    want = space(x)
    for t in (0.0, 0.37, np.float64(1.0)):
        got = ProductField(space)(t, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# generator stencils


def _interior_row(model, dx=1.0, J=3):
    grid = build_grid(T=1.0, a=0.0, b=dx * (J + 1), K=2, J=J)
    A = discretize_generator(model, grid, 0)
    M = A.toarray()
    return M[1, 0], M[1, 1], M[1, 2]


def test_stencil_pure_diffusion():
    row = _interior_row(constant_model(0.0, np.sqrt(2.0)))
    assert row == pytest.approx((1.0, -2.0, 1.0), abs=1e-14)


def test_stencil_forward_upwind():
    row = _interior_row(constant_model(1.0, np.sqrt(2.0)))
    assert row == pytest.approx((1.0, -3.0, 2.0), abs=1e-14)


def test_stencil_backward_upwind():
    row = _interior_row(constant_model(-1.0, np.sqrt(2.0)))
    assert row == pytest.approx((2.0, -3.0, 1.0), abs=1e-14)


def test_stencil_mirror_symmetry():
    # reflecting space and negating the drift mirrors the matrix
    mu = CoefficientFn.affine(0.3, 1.1)
    sig = CoefficientFn.polynomial(0.5, 0.0, 0.2)
    model = DiffusionModel(mu=ProductField(mu), sigma=ProductField(sig))
    grid = build_grid(T=1.0, a=-1.0, b=2.0, K=2, J=5)

    mu_r = CoefficientFn.affine(-0.3, 1.1)
    sig_r = CoefficientFn.polynomial(0.5, 0.0, 0.2)
    model_r = DiffusionModel(mu=ProductField(mu_r), sigma=ProductField(sig_r))
    grid_r = build_grid(T=1.0, a=-2.0, b=1.0, K=2, J=5)

    A = discretize_generator(model, grid, 0).toarray()
    A_r = discretize_generator(model_r, grid_r, 0).toarray()
    assert np.allclose(A_r, A[::-1, ::-1], atol=1e-13)


def test_generator_row_sums_nonpositive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        grid, model, P, m0, f = random_instance(rng)
        for k in range(grid.K):
            A = discretize_generator(model, grid, k)
            M = A.toarray()
            off = M - np.diag(np.diag(M))
            assert off.min() >= 0.0
            sums = M.sum(axis=1)
            assert sums.max() <= 1e-10 * max(1.0, np.abs(M).max())
            # rows at the boundary leak mass out
            assert sums[0] < -1e-12 and sums[-1] < -1e-12


def test_ellipticity_violation():
    model = constant_model(0.0, 0.0)
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=2, J=3)
    with pytest.raises(EllipticityViolation):
        model.validate_on_grid(grid)
    with pytest.raises(EllipticityViolation):
        build_transition_operator(model, grid)


# ----------------------------------------------------------------------
# transition slices


def test_resolvent_near_identity():
    # sigma tiny and dx huge: A ~ 0 so P ~ I
    grid = build_grid(T=1.0, a=0.0, b=100.0, K=2, J=3)
    model = constant_model(0.0, 1e-4)
    P = build_transition_operator(model, grid)
    assert np.allclose(P.steps[0].dense(), np.eye(3), atol=1e-9)


def test_scalar_resolvent():
    c, dt = 0.7, 0.25
    A = Tridiagonal(lower=np.zeros(0), diag=np.array([-c]), upper=np.zeros(0))
    slice_ = TransitionSlice(A, dt)
    dense = slice_.dense()
    assert dense.shape == (1, 1)
    assert dense[0, 0] == pytest.approx(1.0 / (1.0 + dt * c), rel=1e-15)
    assert dense[0, 0] < 1.0


def test_two_node_resolvent():
    # LAPACK's tridiagonal path starts at n=3; this size has its own branch
    grid = build_grid(T=1.0, a=0.0, b=0.3, K=2, J=2)
    model = constant_model(0.3, 0.4)
    A = discretize_generator(model, grid, 0)
    slice_ = TransitionSlice(A, grid.dt)
    M = np.eye(2) - grid.dt * A.toarray()
    want = np.linalg.solve(M, np.eye(2))
    np.testing.assert_allclose(slice_.dense(), want, atol=1e-14)
    v = np.array([0.3, -1.2])
    np.testing.assert_allclose(slice_.apply(v), want @ v, atol=1e-14)
    np.testing.assert_allclose(slice_.apply_adjoint(v), want.T @ v, atol=1e-14)
    assert slice_.row_sums().max() < 1.0


def test_resolvent_matches_dense_solve():
    # oracle: dense Gaussian elimination on I - dt A
    grid = build_grid(T=1.0, a=0.0, b=4.0, K=2, J=3)
    model = constant_model(0.0, np.sqrt(2.0))
    A = discretize_generator(model, grid, 0)
    dt = 0.1
    slice_ = TransitionSlice(A, dt)
    M = np.eye(3) - dt * A.toarray()
    expected = np.linalg.solve(M, np.eye(3))
    got = slice_.dense()
    assert np.allclose(got, expected, atol=1e-13)
    assert got.min() > 0.0
    assert got.sum(axis=1).max() < 1.0


def test_substochastic_on_random_models():
    rng = np.random.default_rng(1)
    for _ in range(15):
        grid, model, P, m0, f = random_instance(rng)
        for k in range(grid.K):
            D = P.steps[k].dense()
            assert D.min() >= -1e-13
            assert D.sum(axis=1).max() <= 1.0 + 1e-12


def test_resolvent_consistency():
    rng = np.random.default_rng(2)
    grid, model, P, m0, f = random_instance(rng, J=20, K=5)
    A = discretize_generator(model, grid, 0)
    M = np.eye(grid.J) - grid.dt * A.toarray()
    u = np.sin(np.linspace(0.0, 3.0, grid.J)) + 1.5
    w = P.steps[0].apply(u)
    assert np.abs(M @ w - u).max() <= 1e-10 * np.abs(u).max()


def test_adjoint_matches_transpose():
    rng = np.random.default_rng(3)
    grid, model, P, m0, f = random_instance(rng, J=7, K=4)
    D = P.steps[1].dense()
    m = rng.random(grid.J)
    assert np.allclose(P.steps[1].apply_adjoint(m), D.T @ m, atol=1e-13)


def test_time_constant_model_shares_slices():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=5, J=4)
    model = constant_model(0.2, 0.4)
    P = build_transition_operator(model, grid)
    assert P.steps[0] is P.steps[4]

    tdep = DiffusionModel(
        mu=ProductField(CoefficientFn.constant(0.2),
                        time=CoefficientFn.affine(1.0, 0.5)),
        sigma=ProductField(CoefficientFn.constant(0.4)))
    P2 = build_transition_operator(tdep, grid)
    assert P2.steps[0] is not P2.steps[4]
    assert not np.allclose(P2.steps[0].dense(), P2.steps[4].dense())


def _bands(n, lower, diag, upper):
    return Tridiagonal(lower=np.full(n - 1, lower), diag=np.full(n, diag),
                       upper=np.full(n - 1, upper))


def _steps(K, J):
    """A grid of K steps of length 0.1 with J interior nodes."""
    return SpaceTimeGrid(T=0.1 * K, a=0.0, b=1.0, K=K, J=J)


def _homogeneous(n, lower, diag, upper, K):
    return TransitionOperator([TransitionSlice(_bands(n, lower, diag, upper), 0.1)] * K,
                              _steps(K, n))


def _two_slices(n, pattern):
    """An operator whose step k is slice A or B as pattern[k] says."""
    ab = {"A": TransitionSlice(_bands(n, 0.7, -2.0, 0.9), 0.1),
          "B": TransitionSlice(_bands(n, 0.3, -1.5, 0.6), 0.1)}
    return TransitionOperator([ab[c] for c in pattern], _steps(len(pattern), n))


def _alternating(n, K):
    return _two_slices(n, "AB" * (K // 2) + "A" * (K % 2))


def _time_dependent_operator(K, J, mu=0.3):
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=K, J=J)
    model = DiffusionModel(
        mu=ProductField(CoefficientFn.constant(mu)),
        sigma=ProductField(CoefficientFn.constant(0.4),
                           time=CoefficientFn.affine(1.0, 0.5)))
    return build_transition_operator(model, grid)


@pytest.mark.parametrize("P", [
    # n = 1 and 2 take the closed forms, n >= 3 the LAPACK solve
    _homogeneous(1, 0.0, -2.0, 0.0, 6),
    _homogeneous(2, 0.7, -2.0, 0.9, 6),
    _homogeneous(3, 0.7, -2.0, 0.9, 6),
    _homogeneous(50, 0.7, -2.0, 0.9, 6),
    _time_dependent_operator(7, 50),
    # two slices taking turns: every run is one step
    _alternating(20, 7),
    # runs of two, three and one step, the first slice used again last
    _two_slices(20, "AABBBA"),
    # steps spanning several blocks of the whole-family solves
    _homogeneous(2100, 0.7, -2.0, 0.9, 30),
    _alternating(2100, 37),
    _two_slices(2100, "A" * 20 + "B" * 9 + "A" * 11),
    # lower == upper: the LDL^T solve
    _homogeneous(3, 0.7, -2.0, 0.7, 6),
    _homogeneous(50, 0.7, -2.0, 0.7, 6),
    _homogeneous(2100, 0.7, -2.0, 0.7, 30),
    _time_dependent_operator(7, 50, mu=0.0),
], ids=["n1", "n2", "n3", "n50", "time-dependent", "alternating", "runs", "blocks",
        "alternating-blocks", "runs-blocks", "symmetric-n3", "symmetric-n50",
        "symmetric-blocks", "symmetric-time-dependent"])
def test_batched_pushes_match_per_step_bitwise(P):
    rows = np.random.default_rng(8).random((P.K, P.n))
    each = np.array([step.apply(r) for step, r in zip(P.steps, rows)])
    each_adj = np.array([step.apply_adjoint(r) for step, r in zip(P.steps, rows)])
    assert np.array_equal(P.apply_each(rows), each)
    # adjoint_blocks visits every step once and in order, with the same rows
    seen = []
    for steps, pushed in P.adjoint_blocks(rows):
        assert isinstance(steps, slice)
        seen += list(range(P.K)[steps])
        assert np.array_equal(pushed, each_adj[steps])
    assert seen == list(range(P.K))
    assert len(P.slices) == len(set(map(id, P.steps)))


@pytest.mark.parametrize("slices, K, J", [
    ([(5, 0.9)] * 6, 7, 5),  # one step short of the grid's K
    ([(5, 0.9)] * 8, 7, 5),  # one step past it
    ([(5, 0.9)] * 7, 7, 6),  # steps of 5 nodes, grid J = 6
    ([(5, 0.9), (6, 0.6)] * 3 + [(5, 0.9)], 7, 5),  # steps of 6 among them
], ids=["K-short", "K-long", "J", "J-of-one-slice"])
def test_operator_must_fit_its_grid(slices, K, J):
    built = {(n, upper): TransitionSlice(_bands(n, 0.7, -2.0, upper), 0.1)
             for n, upper in set(slices)}
    with pytest.raises(ShapeMismatch):
        TransitionOperator([built[key] for key in slices], _steps(K, J))


def test_symmetric_slice_is_its_own_adjoint():
    # lower == upper: M and P are symmetric, and both directions run
    # the same LDL^T solve
    A = _bands(40, 0.7, -2.0, 0.7)
    dt = 0.1
    slice_ = TransitionSlice(A, dt)
    x = np.random.default_rng(9).random((40, 3))
    assert np.array_equal(slice_.apply(x), slice_.apply_adjoint(x))
    M = np.eye(40) - dt * A.toarray()
    np.testing.assert_allclose(slice_.dense(), np.linalg.solve(M, np.eye(40)),
                               rtol=0, atol=1e-13)


def test_one_ulp_asymmetry_takes_the_lu_solve():
    lower = np.full(39, 0.7)
    A = Tridiagonal(lower=lower, diag=np.full(40, -2.0),
                    upper=np.nextafter(lower, np.inf))
    dt = 0.1
    slice_ = TransitionSlice(A, dt)
    dl, d, du, du2, ipiv, info = dgttrf(-dt * A.lower, 1.0 - dt * A.diag, -dt * A.upper)
    assert info == 0
    x = np.random.default_rng(10).random(40)
    for trans, got in (("N", slice_.apply(x)), ("T", slice_.apply_adjoint(x))):
        want, info = dgttrs(dl, d, du, du2, ipiv, x, trans=trans)
        assert info == 0
        assert np.array_equal(got, want)


_CPU_HASHES = """
import hashlib
import numpy as np
from mfgstop import SpaceTimeGrid, TransitionOperator, TransitionSlice, Tridiagonal

n = 301
x = np.random.default_rng(11).random(n)
rows = np.random.default_rng(12).random((40, n))
h = hashlib.sha256()
for upper in (0.7, 0.9):  # LDL^T, then LU
    A = Tridiagonal(lower=np.full(n - 1, 0.7), diag=np.full(n, -2.0),
                    upper=np.full(n - 1, upper))
    s = TransitionSlice(A, 0.1)
    for out in (s.apply(x), s.apply_adjoint(x),
                TransitionOperator([s] * 40, SpaceTimeGrid(4.0, 0.0, 1.0, 40, n))
                .apply_each(rows)):
        h.update(out.tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(not lapack_is_openblas(), reason="scipy's LAPACK is not OpenBLAS")
@pytest.mark.skipif(not has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
def test_slice_solves_do_not_depend_on_the_cpu_kernels():
    # OpenBLAS picks its kernels by CPU; the tridiagonal solves must give
    # the same bits under any of them
    seen = run_under_coretypes(_CPU_HASHES, ("Haswell", "Sandybridge"))
    assert len(set(seen.values())) == 1, seen


_SCIPY_SUBPACKAGES = """
import sys
import mfgstop
print(" ".join(sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")})))
"""


def test_import_loads_no_scipy_subpackage_but_linalg():
    # importing mfgstop peaks near 57 MiB of RSS; scipy.optimize alone
    # adds about 20 MiB more, far above what the benchmark's peak-RSS
    # bound allows.  scipy's private modules and `version` load with
    # scipy.linalg itself.
    out = subprocess.run([sys.executable, "-c", _SCIPY_SUBPACKAGES], env=src_env(),
                         capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    public = {name for name in loaded if not name.startswith("_")} - {"version"}
    assert public == {"linalg"}, sorted(loaded)


def test_batched_pushes_reject_wrong_shape():
    P = _time_dependent_operator(5, 4)
    # a whole (K+1, n) family is not silently truncated to its first K rows
    for shape in [(6, 4), (4, 4), (5, 3), (20,)]:
        with pytest.raises(ShapeMismatch):
            P.apply_each(np.zeros(shape))
        with pytest.raises(ShapeMismatch):
            P.adjoint_blocks(np.zeros(shape))


@pytest.mark.parametrize("n", [2, 3, 7])
def test_slice_rejects_negative_off_diagonal(n):
    # rows of A still sum to < 0, so only the sign certificate can object
    with pytest.raises(ValidationError, match="off-diagonal"):
        TransitionSlice(_bands(n, -0.1, -1.0, 0.5), 0.1)
    with pytest.raises(ValidationError, match="off-diagonal"):
        TransitionSlice(_bands(n, 0.5, -1.0, -0.1), 0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_slice_rejects_row_sums_above_one(n):
    # every row of A sums to +0.25 or more: I - dt*A is still an
    # M-matrix, but P creates mass
    with pytest.raises(ValidationError, match="row sum exceeds 1"):
        TransitionSlice(_bands(n, 0.5, 0.25 if n == 1 else -0.25, 0.5), 0.1)


@pytest.mark.parametrize("n, band", [(1, "diag")] + [
    (n, band) for n in (2, 3, 7) for band in ("lower", "diag", "upper")])
def test_slice_rejects_nan_band(n, band):
    A = _bands(n, 0.5, -1.0, 0.5)
    getattr(A, band)[0] = np.nan
    with pytest.raises(ValidationError):
        TransitionSlice(A, 0.1)


def test_slice_rejects_non_positive_step_row_sum():
    # a source strong enough that I - dt*A loses its positive row sums
    with pytest.raises(ValidationError, match="row sum"):
        TransitionSlice(_bands(4, 0.5, 20.0, 0.5), 0.1)


_C = CoefficientFn
# time-dependent models for the batched build: each names the solves its
# slices take; "mixed" slices take both
BATCHED_MODELS = {
    "zero_drift": ("ldlt", DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.constant(0.4), _C.affine(1.0, 0.5)))),
    "drift": ("lu", DiffusionModel(
        mu=ProductField(_C.constant(0.3)),
        sigma=ProductField(_C.constant(0.4), _C.affine(1.0, 0.5)))),
    # the drift's time factor is exactly 0 at t_5 = 0.5
    "drift_crosses_zero": ("mixed", DiffusionModel(
        mu=ProductField(_C.constant(0.6), _C.affine(-0.5, 1.0)),
        sigma=ProductField(_C.constant(0.4)))),
    "gaussian_sigma": ("ldlt", DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.constant(0.4), _C.gaussian_bump(1.0, 0.5, 0.4)))),
    # zero drift outside the bump
    "cosine_drift": ("mixed", DiffusionModel(
        mu=ProductField(_C.constant(-0.3), _C.cosine_bump(1.0, 0.5, 0.25)),
        sigma=ProductField(_C.constant(0.4)))),
    "tabulated_sigma": ("ldlt", DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.constant(0.4),
                           _C.tabulated([0.0, 0.45, 1.0], [1.0, 1.7, 0.6])))),
    "x_dependent_sigma": ("lu", DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.affine(0.3, 0.2), _C.affine(1.0, 0.5)))),
}


@pytest.mark.parametrize("block", [None, 7], ids=["default_block", "small_block"])
@pytest.mark.parametrize("J", [2, 3, 17])
@pytest.mark.parametrize("name", list(BATCHED_MODELS))
def test_batched_build_matches_each_slice(monkeypatch, name, J, block):
    # a block of 7 elements holds 3, 2 or 1 rows at J = 2, 3, 17, so the
    # 10 steps end in a partial block
    if block is not None:
        monkeypatch.setattr(model_core, "_BUILD_BLOCK", block)
    solves, model = BATCHED_MODELS[name]
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=10, J=J)
    P = build_transition_operator(model, grid)
    each = [TransitionSlice(discretize_generator(model, grid, k), grid.dt)
            for k in range(grid.K)]
    assert P.steps == P.slices and len(P.slices) == grid.K
    assert operator_digest(P) == operator_digest(TransitionOperator(each, grid))
    if J > 2:
        kinds = {"ldlt" if s._symmetric else "lu" for s in P.slices}
        assert kinds == ({"ldlt", "lu"} if solves == "mixed" else {solves})


@pytest.mark.parametrize("fault", ["lower", "upper", "diag_nan", "row_sum", "two_rows"])
def test_block_with_a_bad_row_raises_as_its_slice_does(fault):
    # row 2 of a stack of 4 generators is bad; the stack must raise the
    # error TransitionSlice raises on that row alone.  With "two_rows",
    # row 1 has a bad row sum and row 2 a negative off-diagonal: the
    # first bad row decides, as in a loop over the slices
    n, dt = 5, 0.1
    lower = np.full((4, n - 1), 0.5)
    diag = np.full((4, n), -1.0)
    upper = np.full((4, n - 1), 0.5)
    if fault == "lower":
        lower[2, 1] = -0.1
    elif fault == "upper":
        upper[2, 3] = -0.1
    elif fault == "diag_nan":
        diag[2, 0] = np.nan
    else:
        diag[2 if fault == "row_sum" else 1] = 20.0
        if fault == "two_rows":
            lower[2, 0] = -0.1
    bad = 2 if fault != "two_rows" else 1
    with pytest.raises(ValidationError) as want:
        TransitionSlice(Tridiagonal(lower=lower[bad], diag=diag[bad], upper=upper[bad]), dt)
    with pytest.raises(type(want.value)) as got:
        _step_bands(lower, diag, upper, dt)
    assert str(got.value) == str(want.value)


def test_batched_build_raises_as_the_slice_loop_does():
    # sigma = 1e200 at t_5 alone passes validate_on_grid but overflows
    # the generator at step 5 into a NaN row sum
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=8, J=6)
    model = DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.constant(0.4), _C.tabulated([0.0, 0.5, 0.625, 0.75, 1.0],
                                                          [1.0, 1.0, 1e200, 1.0, 1.0])))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError) as want:
            for k in range(grid.K):
                TransitionSlice(discretize_generator(model, grid, k), grid.dt)
        with pytest.raises(type(want.value)) as got:
            build_transition_operator(model, grid)
    assert "row sum that is not positive" in str(got.value)
    assert str(got.value) == str(want.value)


def test_batched_build_raises_ellipticity_at_the_first_bad_time():
    # validate_on_grid rejects this model before any slice is built; the
    # block builder on its own names the same time discretize_generator does
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=8, J=6)
    model = DiffusionModel(
        mu=ProductField(_C.constant(0.0)),
        sigma=ProductField(_C.constant(0.4), _C.tabulated([0.0, 0.5, 0.625, 0.75, 1.0],
                                                          [1.0, 1.0, 0.0, 0.0, 1.0])))
    with pytest.raises(EllipticityViolation) as want:
        discretize_generator(model, grid, 5)
    with pytest.raises(EllipticityViolation) as got:
        _generator_slices(model, grid, np.arange(grid.K), grid.dt)
    assert str(got.value) == str(want.value)
    assert "t=0.625" in str(got.value)


@pytest.mark.parametrize("mu", [0.0, 0.3], ids=["ldlt", "lu"])
def test_batched_build_transient_memory(mu):
    # above the slices it keeps, the build holds one block's band arrays
    # (about 3,900 doubles each at J=300): 185 KiB (LDL^T) and 99 KiB
    # (LU) measured, where building all K generators at once would take
    # several K x J grids (700 KiB each)
    K = J = 300
    _time_dependent_operator(K, J, mu=mu)
    tracemalloc.start()
    try:
        P = _time_dependent_operator(K, J, mu=mu)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(P.slices) == K
    assert peak - retained <= 8 * model_core._BUILD_BLOCK * 8


def test_time_dependent_build_keeps_no_dense_inverses():
    # 400 slices at J=400: a dense inverse per slice would be 512 MiB
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=400, J=400)
    model = DiffusionModel(
        mu=ProductField(CoefficientFn.constant(0.1)),
        sigma=ProductField(CoefficientFn.constant(0.4),
                           time=CoefficientFn.affine(1.0, 0.5)))
    tracemalloc.start()
    try:
        P = build_transition_operator(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(P.slices) == 400
    assert peak < 32 * 2**20


def test_lapack_slices_keep_only_their_factors():
    # per slice and node: this model is symmetric, so a slice keeps
    # LDL^T's 2 factor bands; keeping the generator's 3 bands or the 3
    # bands of I - dt*A as well would make it 5
    K = J = 300
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=K, J=J)
    model = DiffusionModel(
        mu=ProductField(CoefficientFn.constant(0.0)),
        sigma=ProductField(CoefficientFn.constant(0.5),
                           time=CoefficientFn.affine(1.0, 0.5)))
    tracemalloc.start()
    try:
        P = build_transition_operator(model, grid)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(P.slices) == K
    assert retained <= 2.5 * K * J * 8


@pytest.mark.parametrize("mu, doubles", [(0.0, 2.5), (0.3, 5.2)], ids=["ldlt", "lu"])
def test_factor_size_follows_the_solve(mu, doubles):
    # per slice and node: LDL^T's d and e are 2 doubles, LU's 4 bands and
    # a 4-byte pivot 4.5; the generator's 3 bands, if kept, would add 3
    K = J = 300
    tracemalloc.start()
    try:
        P = _time_dependent_operator(K, J, mu=mu)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(P.slices) == K
    assert retained <= doubles * K * J * 8


def _per_run_blocks(steps, J):
    """P._blocks as a loop over the runs of steps that share a slice,
    with _row_blocks called afresh for each run."""
    blocks, start = [], 0
    for k in range(1, len(steps) + 1):
        if k == len(steps) or steps[k] is not steps[start]:
            blocks += [(steps[start], slice(start + b.start, start + b.stop))
                       for b in _row_blocks(k - start, J)]
            start = k
    return blocks


def _mixed_steps():
    """Runs of shared slices (A, B, each used in several runs, some of them
    several blocks long) between slices of their own."""
    n = 300
    shared = {c: TransitionSlice(_bands(n, lo, -2.0, up), 0.1)
              for c, lo, up in (("A", 0.7, 0.9), ("B", 0.5, 0.5))}
    pattern = "A" * 100 + "o" + "B" * 3 + "oo" + "A" + "B" * 49 + "o" + "A" * 7
    steps = [shared.get(c) or TransitionSlice(_bands(n, 0.3 + 0.001 * k, -1.5, 0.6), 0.1)
             for k, c in enumerate(pattern)]
    return TransitionOperator(steps, _steps(len(steps), n))


@pytest.mark.parametrize("P", [
    _homogeneous(300, 0.7, -2.0, 0.9, 200),
    _time_dependent_operator(50, 7),
    _mixed_steps(),
], ids=["homogeneous", "time-dependent", "mixed"])
def test_block_list_matches_the_per_run_reference(P):
    ref = _per_run_blocks(P.steps, P.n)
    assert P._blocks == ref
    rows = np.random.default_rng(13).random((P.K, P.n))
    each = np.empty_like(rows)
    for s, steps in ref:
        each[steps] = s.apply(rows[steps].T).T
    assert np.array_equal(P.apply_each(rows), each)
    got = list(P.adjoint_blocks(rows))
    assert [steps for steps, _ in got] == [steps for _, steps in ref]
    for (steps, pushed), (s, _) in zip(got, ref):
        assert np.array_equal(pushed, s.apply_adjoint(rows[steps].T).T)


def _grid_verdict(model, grid):
    """validate_on_grid's rules on the full (K+1) x J grids of sigma and
    mu: the type and message of the error they raise, or None."""
    sig = model.sigma.on_grid(grid)
    if not np.all(np.isfinite(sig)):
        return ValidationError, "sigma is not finite on the grid"
    if np.any(sig < model.sigma_min):
        return EllipticityViolation, (f"sigma drops below sigma_min={model.sigma_min} "
                                      f"on the grid (min={sig.min():.3g})")
    if not np.all(np.isfinite(model.mu.on_grid(grid))):
        return ValidationError, "mu is not finite on the grid"
    return None


def _verdict(model, grid):
    try:
        model.validate_on_grid(grid)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def _assert_grid_verdict(model, grid):
    """validate_on_grid decides as the full grid does, with the same error
    type and message.  One exception: where sigma's minimum is zero and
    the grid holds it as both +0 and -0, np.min returns whichever its
    reduction order meets first, on the grid as on the four corners, so
    either may print as "min=0" or "min=-0"; there the sign is ignored.
    A zero minimum of one sign prints with that sign on both sides."""
    with np.errstate(all="ignore"):
        want, got = _grid_verdict(model, grid), _verdict(model, grid)
        sig = model.sigma.on_grid(grid)
    zeros = np.signbit(sig[sig == 0.0])
    if want is not None and want[0] is EllipticityViolation and zeros.any() and not zeros.all():
        want, got = [(v[0], v[1].replace("min=-0)", "min=0)")) for v in (want, got)]
    assert got == want
    return want


_TAB_T = [0.0, 0.5, 0.625, 0.75, 1.0]  # node 0.625 is t_5 of the K=8 grid
_TAB_X = [0.0, 3.0 / 7.0, 1.0]         # node 3/7 is x_3 of the J=6 grid


def _tab_t(bad):
    return _C.tabulated(_TAB_T, [1.0, 1.0, bad, 1.0, 1.0])


def _tab_x(bad):
    return _C.tabulated(_TAB_X, [0.5, bad, 0.5])


_SIGMA = (_C.constant(0.5),)
_ZERO_MU = (_C.constant(0.0),)
_NOT_FINITE = {"sigma": (ValidationError, "sigma is not finite on the grid"),
               "mu": (ValidationError, "mu is not finite on the grid")}
# (verdict, mu, sigma) of each case, mu and sigma as (space, time)
# factors: verdict None, the field that is not finite, or "low" for an
# EllipticityViolation
VERDICT_CASES = {
    "passes": (None, _ZERO_MU, _SIGMA),
    "sigma_overflow": ("sigma", _ZERO_MU, (_C.constant(1e200), _C.constant(1e200))),
    "sigma_overflow_at_t5": ("sigma", _ZERO_MU, (_C.constant(1e200), _tab_t(1e200))),
    "mu_overflow": ("mu", (_C.constant(1e200), _C.affine(0.0, 1e200)), _SIGMA),
    "sigma_time_nan": ("sigma", _ZERO_MU, (_C.constant(0.5), _tab_t(np.nan))),
    "sigma_space_nan": ("sigma", _ZERO_MU, (_tab_x(np.nan), _C.constant(1.0))),
    "sigma_time_inf": ("sigma", _ZERO_MU, (_C.constant(0.5), _tab_t(np.inf))),
    "sigma_space_inf": ("sigma", _ZERO_MU, (_tab_x(np.inf),)),
    "sigma_space_minus_inf": ("sigma", _ZERO_MU, (_tab_x(-np.inf),)),
    "mu_time_nan": ("mu", (_C.constant(0.3), _tab_t(np.nan)), _SIGMA),
    "mu_space_nan": ("mu", (_tab_x(np.nan),), _SIGMA),
    "mu_time_inf": ("mu", (_C.constant(0.3), _C.constant(np.inf)), _SIGMA),
    "mu_space_inf": ("mu", (_tab_x(np.inf), _C.affine(1.0, -1.0)), _SIGMA),
    # sigma's grid is NaN at (t_5, x_3) alone: inf * 0
    "sigma_inf_times_zero": ("sigma", _ZERO_MU, (_tab_x(0.0), _tab_t(np.inf))),
    "mu_inf_times_zero": ("mu", (_C.constant(0.0), _C.constant(np.inf)), _SIGMA),
    # mu is not checked once sigma fails
    "low_sigma_before_nan_mu": ("low", (_C.constant(np.nan),), (_C.constant(0.0),)),
    "negative_time_factor": ("low", _ZERO_MU, (_C.constant(0.5), _C.affine(1.0, -2.0))),
    "two_negative_factors": (None, _ZERO_MU, (_C.constant(-0.5), _C.constant(-1.0))),
    "tabulated_dip": ("low", _ZERO_MU, (_tab_x(0.1), _tab_t(1e-8))),
    "tabulated_passes": (None, _ZERO_MU, (_tab_x(0.1), _tab_t(1e-7))),
    "time_none_zero": ("low", _ZERO_MU, (_C.constant(0.0),)),
    "time_none_low": ("low", _ZERO_MU, (_C.constant(1e-9),)),
    "time_constant_low": ("low", _ZERO_MU, (_C.constant(0.5), _C.constant(2e-9))),
    "time_constant_passes": (None, _ZERO_MU, (_C.constant(0.5), _C.constant(1.0))),
    # fl(1e-4 * 1e-4) is one ulp above sigma_min = 1e-8
    "rounds_above_sigma_min": (None, _ZERO_MU, (_C.constant(1e-4), _C.constant(1e-4))),
    "min_is_negative_zero": ("low", _ZERO_MU, (_C.constant(0.0), _C.constant(-1.0))),
    "min_is_zero_of_both_signs": ("low", _ZERO_MU, (_C.constant(0.0), _C.affine(-1.0, 2.0))),
}


@pytest.mark.parametrize("name", list(VERDICT_CASES))
def test_validation_matches_the_full_grid(name):
    verdict, mu, sigma = VERDICT_CASES[name]
    model = DiffusionModel(mu=ProductField(*mu), sigma=ProductField(*sigma))
    want = _assert_grid_verdict(model, build_grid(T=1.0, a=0.0, b=1.0, K=8, J=6))
    if verdict == "low":
        assert want[0] is EllipticityViolation
    else:
        assert want == _NOT_FINITE.get(verdict)
    if name == "min_is_negative_zero":
        assert want[1].endswith("(min=-0)")


# factor values the fuzz draws from, besides uniform ones: signed zeros,
# values whose products fall near sigma_min = 1e-8 or overflow, and
# non-finite ones
_SPECIAL = [0.0, -0.0, 1e-4, -1e-4, 1e-8, 1e-200, 1e200, -1e200, np.inf, -np.inf, np.nan]


def _random_factor(rng, lo, hi, allow_none):
    kind = rng.integers(4 if allow_none else 3)
    if kind == 3:
        return None

    def value():
        if rng.random() < 0.3:
            return _SPECIAL[rng.integers(len(_SPECIAL))]
        return float(rng.uniform(-0.2, 1.0))

    if kind == 0:
        return _C.constant(value())
    if kind == 1:
        return _C.affine(value(), value())
    return _C.tabulated(np.linspace(lo, hi, 3), [value() for _ in range(3)])


def test_validation_matches_the_full_grid_on_random_fields():
    rng = np.random.default_rng(17)
    seen = {}
    for _ in range(2000):
        T, a = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 0.0))
        b = a + float(rng.uniform(0.5, 2.0))
        grid = build_grid(T=T, a=a, b=b, K=int(rng.integers(1, 6)), J=int(rng.integers(2, 6)))
        mu, sigma = (ProductField(_random_factor(rng, a, b, False),
                                  _random_factor(rng, 0.0, T, True)) for _ in range(2))
        model = DiffusionModel(mu=mu, sigma=sigma,
                               sigma_min=(1e-8, 0.0, 0.25)[rng.integers(3)])
        want = _assert_grid_verdict(model, grid)
        key = want if want is None or want[0] is not EllipticityViolation else want[0]
        seen[key] = seen.get(key, 0) + 1
    # every verdict comes up often
    assert len(seen) == 4 and min(seen.values()) >= 100, seen


def test_homogeneous_build_transient_memory():
    # the (K+1) x J sigma and mu grids a full-grid check builds would
    # take 10.9 MB here; the build holds the slice's bands, O(K + J)
    # factors and the block list above the slice it keeps
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=800, J=800)
    model = constant_model(0.0, 0.5)
    build_transition_operator(model, grid)
    tracemalloc.start()
    try:
        P = build_transition_operator(model, grid)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(P.slices) == 1
    assert peak - retained <= 256 * 2**10


def test_bad_sigma_is_rejected_without_a_grid():
    # a 2001 x 2000 sigma grid would take 32 MB
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=2000, J=2000)
    model = DiffusionModel(mu=ProductField(_C.constant(0.0)),
                           sigma=ProductField(_C.constant(0.5), _C.affine(1.0, -2.0)))
    tracemalloc.start()
    try:
        with pytest.raises(EllipticityViolation, match=r"\(min=-0\.5\)"):
            build_transition_operator(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ----------------------------------------------------------------------
# initial measures


def test_initial_measure_uniform_and_atom():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=2, J=4)
    u = InitialMeasure.uniform(grid)
    assert u.total == pytest.approx(1.0, abs=1e-12)
    atom = InitialMeasure.atom(grid, 0.41)
    assert atom.masses[1] == 1.0 and atom.masses.sum() == 1.0
    with pytest.raises(ValidationError):
        InitialMeasure.atom(grid, 1.5)
    with pytest.raises(ValidationError):
        InitialMeasure.from_masses([0.5, 0.6])
    with pytest.raises(ValidationError):
        InitialMeasure.from_masses([-0.1, 1.1])


@pytest.mark.parametrize("masses", [[np.nan, 1.0], [0.5, np.nan, 0.5],
                                    [np.inf, 1.0], [np.nan, np.nan]])
def test_initial_measure_rejects_non_finite_mass(masses):
    with pytest.raises(ValidationError):
        InitialMeasure.from_masses(masses)


# ----------------------------------------------------------------------
# reward folding


def test_fold_identity_case():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=3, J=4)
    model = constant_model(0.3, 0.5)
    tilde = np.arange(grid.shape[0] * grid.shape[1], dtype=float).reshape(grid.shape)
    zero = np.zeros(grid.shape)
    out = fold_reward(tilde, zero, zero, zero, zero, 0.0, model, grid)
    assert np.array_equal(out, tilde)


def test_fold_linear_terminal_yields_drift():
    c = 0.7
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=3, J=4)
    model = constant_model(c, 0.5)
    shape = grid.shape
    g_vals = np.broadcast_to(grid.x, shape).copy()
    g_dx = np.ones(shape)
    zero = np.zeros(shape)
    out = fold_reward(zero, g_vals, zero, g_dx, zero, 0.0, model, grid)
    assert np.allclose(out, c, atol=1e-15)


def test_fold_formula_point_value():
    # f~ = 1, mu = 0, sigma = 1, rho = 1 at (t, x) = (0, 0):
    # g = x^2 / 2 gives e^0 (1 - 0 + 0 + 0 + 0.5 * 1 * 1) = 1.5
    # g = x^2     gives e^0 (1 - 0 + 0 + 0 + 0.5 * 1 * 2) = 2.0
    grid = build_grid(T=1.0, a=-0.5, b=0.5, K=2, J=3)
    assert grid.x[1] == 0.0
    model = constant_model(0.0, 1.0)
    shape = grid.shape
    zero = np.zeros(shape)
    for c2, want in ((0.5, 1.5), (1.0, 2.0)):
        g = CoefficientFn.polynomial(0.0, 0.0, c2)
        g_vals = np.broadcast_to(g(grid.x), shape).copy()
        g_dx = np.broadcast_to(g.deriv(grid.x), shape).copy()
        g_dxx = np.broadcast_to(g.deriv2(grid.x), shape).copy()
        out = fold_reward(np.ones(shape), g_vals, zero, g_dx, g_dxx, 1.0,
                          model, grid)
        assert out[0, 1] == want


def test_fold_is_linear():
    rng = np.random.default_rng(4)
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=4, J=5)
    model = constant_model(0.4, 0.6)
    shape = grid.shape
    rho = 0.8

    def rand_pack():
        return [rng.normal(size=shape) for _ in range(5)]

    p1, p2 = rand_pack(), rand_pack()
    lhs = fold_reward(*(a + b for a, b in zip(p1, p2)), rho, model, grid)
    rhs = (fold_reward(*p1, rho, model, grid)
           + fold_reward(*p2, rho, model, grid))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_fold_rejects_bad_shapes_and_rho():
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=2, J=3)
    model = constant_model(0.0, 0.5)
    good = np.zeros(grid.shape)
    bad = np.zeros((2, 3))
    with pytest.raises(ShapeMismatch):
        fold_reward(bad, good, good, good, good, 0.0, model, grid)
    with pytest.raises(ValidationError):
        fold_reward(good, good, good, good, good, -1.0, model, grid)

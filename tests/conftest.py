"""Shared instance builders for the test suite.

Instances are generated from seeded numpy Generators so every test is
reproducible; the helpers return plain tuples instead of fixtures where
tests need many independent draws.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from mfgstop import (
    CoefficientFn,
    DiffusionModel,
    FBarFn,
    InitialMeasure,
    McResult,
    MeasureFamily,
    ModelContext,
    PathStats,
    ProductField,
    RewardSpec,
    TransitionSlice,
    build_grid,
    build_transition_operator,
    discretize_generator,
    fixed_point_solve,
)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    tests that start another interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


# Prints the name of the kernels scipy's OpenBLAS runs ("None" where it
# cannot be read); the scripts of run_under_coretypes start with it.
_OPENBLAS_CORE = """
import ctypes, glob, os
import scipy
core = None
libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
    name = ctypes.CDLL(path).scipy_openblas_get_corename
    name.restype = ctypes.c_char_p
    core = name().decode()
print(core)
"""


def run_under_coretypes(script, coretypes):
    """Run script in a fresh interpreter on one BLAS thread under each
    OPENBLAS_CORETYPE in coretypes (None leaves it unset, so OpenBLAS
    picks its kernels by CPU); return {coretype: script's output}.

    OpenBLAS picks its kernels when it loads, so each needs its own
    process.  Asserts that each override took, where the kernel name
    is readable.
    """
    seen = {}
    for coretype in coretypes:
        env = dict(src_env(), OPENBLAS_NUM_THREADS="1")
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", _OPENBLAS_CORE + script], env=env,
                             capture_output=True, text=True, check=True)
        core, rest = out.stdout.split("\n", 1)
        assert coretype is None or core in (coretype, "None")
        seen[coretype] = rest
    return seen


def lapack_is_openblas():
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return "openblas" in lapack["name"].lower()


def has_avx2():
    """Whether the CPU runs OpenBLAS's Haswell kernels, which need AVX2."""
    try:
        with open("/proc/cpuinfo") as f:
            return " avx2" in f.read()
    except OSError:
        return False


def constant_model(mu=0.0, sigma=0.5):
    return DiffusionModel(mu=ProductField(CoefficientFn.constant(mu)),
                          sigma=ProductField(CoefficientFn.constant(sigma)))


def slice_digest(slices):
    """sha256 over every slice's factors and its row_sums(), in order.

    The factors are LAPACK's (pttrf's d, e or gttrf's four bands and
    pivots) for n > 2 and the bands of I - dt*A for n <= 2; two lists of
    slices with one digest factor and solve with the same bits.
    """
    h = hashlib.sha256()
    for s in slices:
        if s.n > 2:
            parts = [np.array(s._symmetric), *s._factor]
        else:
            parts = [s._m_lower, s._m_diag, s._m_upper]
        for a in (*parts, s.row_sums()):
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def operator_digest(P):
    """sha256 over slice_digest(P.steps) and P._blocks' layout: each
    block's run of steps and the index in P.slices of its slice.

    Two operators with one digest factor every step with the same bits,
    share slices across the same steps and push in the same blocks, so
    their whole-family pushes give the same bits too.
    """
    h = hashlib.sha256(slice_digest(P.steps).encode())
    index = {id(s): i for i, s in enumerate(P.slices)}
    for s, steps in P._blocks:
        h.update(f"{index[id(s)]}:{steps.start}:{steps.stop};".encode())
    return h.hexdigest()


def make_instance(T=1.0, a=0.0, b=1.0, K=8, J=6, mu=0.0, sigma=0.5):
    grid = build_grid(T=T, a=a, b=b, K=K, J=J)
    model = constant_model(mu, sigma)
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    return grid, model, P, m0


def random_model(rng):
    """A bounded random drift and a uniformly elliptic random volatility."""
    mu_kind = rng.integers(3)
    if mu_kind == 0:
        mu = CoefficientFn.constant(rng.uniform(-1.0, 1.0))
    elif mu_kind == 1:
        mu = CoefficientFn.affine(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0))
    else:
        mu = CoefficientFn.gaussian_bump(rng.uniform(-1.0, 1.0),
                                         rng.uniform(0.0, 1.0),
                                         rng.uniform(0.2, 0.8))
    base = rng.uniform(0.2, 0.6)
    if rng.random() < 0.5:
        sig = ProductField(CoefficientFn.constant(base))
    else:
        bump = CoefficientFn.gaussian_bump(rng.uniform(0.0, 0.4),
                                           rng.uniform(0.0, 1.0),
                                           rng.uniform(0.2, 0.8))
        nodes = np.linspace(-0.5, 1.5, 9)
        sig = ProductField(CoefficientFn.tabulated(nodes, base + bump(nodes)))
    return DiffusionModel(mu=ProductField(mu), sigma=sig)


def random_instance(rng, J=None, K=None, T=None):
    """Random single-agent instance: grid, model, operator, m0, reward grid."""
    J = int(rng.integers(3, 9)) if J is None else J
    K = int(rng.integers(2, 9)) if K is None else K
    T = float(rng.uniform(0.5, 2.0)) if T is None else T
    grid = build_grid(T=T, a=0.0, b=1.0, K=K, J=J)
    model = random_model(rng)
    P = build_transition_operator(model, grid)
    if rng.random() < 0.5:
        m0 = InitialMeasure.uniform(grid)
    else:
        w = rng.random(J) + 0.05
        m0 = InitialMeasure.from_masses(w / w.sum())
    f = rng.uniform(-1.0, 1.0, size=grid.shape)
    return grid, model, P, m0, f


def congestion_instance(J=100, K=100):
    """The reference crowding game on (0, 1) with linear decay in the moment."""
    grid = build_grid(T=1.0, a=0.0, b=1.0, K=K, J=J)
    model = constant_model(0.0, 0.5)
    P = build_transition_operator(model, grid)
    m0 = InitialMeasure.uniform(grid)
    spec = RewardSpec(
        terms=((FBarFn("linear", (1.0, 2.0)), CoefficientFn.constant(1.0)),),
    ).validated(grid, m0)
    ctx = ModelContext(grid=grid, model=model, transition=P, m0=m0)
    return grid, model, P, m0, spec, ctx


@pytest.fixture(scope="session")
def congestion_solution():
    """Converged reference equilibrium, shared across tests (read-only)."""
    grid, model, P, m0, spec, ctx = congestion_instance()
    result = fixed_point_solve(spec, ctx, max_iters=500, eps_tol=1e-9)
    assert result.converged
    return {"grid": grid, "model": model, "P": P, "m0": m0,
            "spec": spec, "ctx": ctx, "result": result}


def never_stop_masses(m0, P):
    """The never-stopping family as its own loop: the chain of m0, every
    push clamped at 0.  stopped_forward_measure(None, ...) must equal it."""
    out = np.empty((P.K + 1, P.n))
    out[0] = m0.masses
    for k in range(P.K):
        out[k + 1] = np.maximum(P.steps[k].apply_adjoint(out[k]), 0.0)
    return out


def adjoint_each(P, rows):
    """Row k is P_k^T @ rows[k], for k < K, one step at a time: the
    reference the whole-family pushes must match bit for bit."""
    return np.array([step.apply_adjoint(r) for step, r in zip(P.steps, rows)])


def per_value_grid_csv_text(grid, values):
    """cli.grid_csv_text with one f-string per value: the reference its
    one-format-per-slice form must match byte for byte."""
    xs = [f",{float(xj):.17g}," for xj in grid.x]
    rows = ["t,x,value\n"]
    for k in range(grid.K + 1):
        tk = f"{float(grid.t[k]):.17g}"
        rows.append("".join([f"{tk}{xj}{val:.17g}\n"
                             for xj, val in zip(xs, values[k].tolist())]))
    return "".join(rows)


def whole_grid_stop_region_integral(v, f, m, P):
    """complementarity_report's stop-region integral as one whole-grid
    expression: the reference its block sum must match bit for bit."""
    slack = np.maximum(0.0, -(P.grid.dt * f[:-1] + P.apply_each(v.values[1:])))
    return float(np.sum(slack * m.masses[:-1]))


def substepped_totals(model, P, m0, v, substeps):
    """Slice totals of v's stop rule under `substeps` implicit substeps per step.

    mc-check's reference as its own loop: substeps use step k's
    generator, consecutive steps with one slice of P share one substep
    operator, the stop rule acts at slice boundaries only, and every
    substep's push is clamped at 0.  mc-check must reproduce it bit for
    bit.
    """
    cont = ~v.stop_mask
    m = m0.masses * cont[0]
    totals = np.empty(P.K + 1)
    totals[0] = m.sum()
    step = None
    for k in range(P.K):
        if step is None or P.steps[k] is not P.steps[k - 1]:
            step = TransitionSlice(discretize_generator(model, P.grid, k),
                                   P.grid.dt / substeps)
        for _ in range(substeps):
            m = np.maximum(step.apply_adjoint(m), 0.0)
        m = m * cont[k + 1]
        totals[k + 1] = m.sum()
    return totals


def exact_time_totals(model, grid, v, m0):
    """Slice totals of the stopped, killed diffusion with no time-step error.

    Mass moves by the exact one-step law expm(dt*A) of the upwind
    generator A on a space grid refined twice over that keeps every
    coarse node.  It starts on the coarse nodes and is stopped by v's
    rule at the nearest coarse node, as the path simulator stops its
    paths; a fine node halfway between two coarse nodes stops half its
    mass by each.  v=None never stops.  What is left is a space error
    of the fine chain, far below Monte Carlo noise at the sizes tested.
    """
    J = grid.J
    fine = build_grid(T=grid.T, a=grid.a, b=grid.b, K=grid.K, J=2 * J + 1)
    pos = np.arange(1, fine.J + 1) / 2.0  # fine nodes in coarse units
    lower = np.clip(np.ceil(pos - 0.5).astype(int), 1, J) - 1
    upper = np.clip(np.floor(pos + 0.5).astype(int), 1, J) - 1
    m = np.zeros(fine.J)
    m[1::2] = m0.masses
    totals = np.empty(grid.K + 1)
    step = None
    for k in range(grid.K + 1):
        if v is not None:
            mask = v.stop_mask[k].astype(float)
            m = m * (1.0 - 0.5 * (mask[lower] + mask[upper]))
        totals[k] = m.sum()
        if k == grid.K:
            break
        if step is None or not model.time_constant:
            A = discretize_generator(model, fine, k).toarray()
            step = scipy.linalg.expm(grid.dt * A)
        m = m @ step
    return totals


def whole_block_simulate_paths(model, grid, v, m0, n_paths, seed):
    """Reference for simulate_paths: every path at once, inputs drawn up front.

    This is the simulator before it streamed its paths in blocks.  It
    draws all Gaussian increments as one (n_paths, K) array and one row
    of n_paths bridge uniforms per step, and steps all live paths
    together, with the near-wall threshold taken over all of them.  The
    streamed simulator must reproduce its result bit for bit.
    """
    K, J = grid.K, grid.J
    rng = np.random.Generator(np.random.Philox(key=seed))
    bridge_rng = np.random.Generator(np.random.Philox(key=seed).jumped())

    start_nodes = rng.choice(J, size=n_paths, p=m0.masses / m0.total)
    noise = rng.standard_normal((n_paths, K))
    ids = np.arange(n_paths)  # paths still in the game, with their states x
    x = grid.x[start_nodes]
    stopped = 0
    survived = 0
    tallies = np.zeros((K + 1, J))
    a, b, dt = grid.a, grid.b, grid.dt
    sq = np.sqrt(dt)

    for k in range(K + 1):
        idx = np.clip(np.rint((x - a) / grid.dx).astype(int), 1, J) - 1
        if v is not None:
            go = ~v.stop_mask[k][idx]
            n_hit = len(ids) - int(np.count_nonzero(go))
            if k == K:
                survived += n_hit
            else:
                stopped += n_hit
            ids, x, idx = ids[go], x[go], idx[go]
        if len(ids) == 0:
            break
        tallies[k] = np.bincount(idx, minlength=J)
        if k == K:
            survived += len(ids)
            break
        t_k = grid.t[k]
        sig = model.sigma(t_k, x)
        x1 = x + model.mu(t_k, x) * dt + sig * sq * noise[ids, k]
        keep = (x1 > a) & (x1 < b)
        da = (x - a) * (x1 - a)
        db = (b - x) * (b - x1)
        near = np.nonzero(keep & (np.minimum(da, db) < 20.0 * dt * np.max(sig * sig)))[0]
        rate = -2.0 / (dt * sig[near] ** 2)
        survive = -np.expm1(rate * da[near]) * -np.expm1(rate * db[near])
        u = bridge_rng.random(n_paths)[ids[near]]
        keep[near[u < 1.0 - survive]] = False
        ids, x = ids[keep], x1[keep]

    absorbed = n_paths - stopped - survived
    family = MeasureFamily(tallies / n_paths, grid=grid, validate=False)
    stats = PathStats(n_paths=n_paths, stopped=stopped,
                      absorbed=absorbed, survived=survived)
    return McResult(family=family, stats=stats)

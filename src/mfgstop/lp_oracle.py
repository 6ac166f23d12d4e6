"""Independent verification backends for the stopping linear program.

Three routes that never share code with the dynamic-programming solver:
exhaustive enumeration of pure Markov stopping rules, a dense simplex
method on the occupation-measure polytope, and a randomized audit of the
weak admissibility inequality against nonnegative test functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge, ShapeMismatch, SimplexIterationLimit
from .forward import stopped_forward_measure, weak_form
from .measures import MeasureFamily, convex_combine
from .model_core import (
    CoefficientFn,
    InitialMeasure,
    SpaceTimeGrid,
    TransitionOperator,
)
# perfbench/tracer.py patches build_transition_operator in this namespace,
# so it stays imported
from .model_core import build_transition_operator  # noqa: F401
from .obstacle import solve_vi

__all__ = [
    "EnumerationResult",
    "enumerate_stopping_rules",
    "SimplexResult",
    "lp_solve_small",
    "AuditResult",
    "test_function_audit",
    "random_admissible_measure",
]

_MAX_RULE_CELLS = 16
_CHUNK = 4096


@dataclass(frozen=True)
class EnumerationResult:
    best_value: float
    best_rule: np.ndarray  # (K, J) bool, True = stop
    n_rules: int


def enumerate_stopping_rules(f_grid: np.ndarray, P: TransitionOperator,
                             m0: InitialMeasure) -> EnumerationResult:
    """Brute-force the best pure Markov stopping rule.

    Evaluates every stop/continue assignment over interior nodes and
    slices 0..K-1 (2^(J*K) rules, capped at J*K <= 16) by running the
    masked forward chain and accumulating the left-endpoint pairing.
    Ties resolve to the lowest rule index, so the result is deterministic.
    """
    K, J = P.K, P.n
    f = np.asarray(f_grid, dtype=float)
    if f.shape != (K + 1, J):
        raise ShapeMismatch(f"reward grid {f.shape}, expected {(K + 1, J)}")
    cells = K * J
    if cells > _MAX_RULE_CELLS:
        raise InstanceTooLarge(
            f"enumeration needs J*K <= {_MAX_RULE_CELLS}, got {cells}"
        )
    n_rules = 1 << cells
    dense = [step.dense() for step in P.steps]
    dt = P.grid.dt

    best_val = -np.inf
    best_rule_idx = 0
    bit_index = np.arange(cells, dtype=np.uint64)
    for start in range(0, n_rules, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n_rules), dtype=np.uint64)
        # bit (k*J + j) of the rule index decides stop at node (k, j)
        bits = (idx[:, None] >> bit_index[None, :]) & np.uint64(1)
        cont = (bits == 0).reshape(-1, K, J)
        s = m0.masses[None, :] * cont[:, 0, :]
        vals = dt * (s @ f[0])
        for k in range(1, K):
            s = (s @ dense[k - 1]) * cont[:, k, :]
            vals += dt * (s @ f[k])
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_rule_idx = start + j

    bits = (np.uint64(best_rule_idx) >> bit_index) & np.uint64(1)
    rule = (bits == 1).reshape(K, J)
    return EnumerationResult(best_value=best_val, best_rule=rule, n_rules=n_rules)


# ----------------------------------------------------------------------
# dense simplex

_MAX_LP_VARS = 400
_ENTER_TOL = 1e-11
_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class SimplexResult:
    value: float
    family: MeasureFamily
    iterations: int


def lp_solve_small(f_grid: np.ndarray, P: TransitionOperator,
                   m0: InitialMeasure, max_pivots: int = 200_000) -> SimplexResult:
    """Solve the occupation-measure linear program with a dense simplex.

    Variables are the masses at slices 0..K-1 (the final slice carries no
    objective weight and is appended afterwards as the plain chain
    continuation).  Constraints: m_0 <= m0 and m_{k+1} <= P_k^T m_k, all
    masses nonnegative.  The all-slack basis is feasible, so no phase
    one is needed.  Pivoting follows Bland's rule throughout, which
    rules out cycling on these heavily degenerate instances.
    """
    K, J = P.K, P.n
    f = np.asarray(f_grid, dtype=float)
    if f.shape != (K + 1, J):
        raise ShapeMismatch(f"reward grid {f.shape}, expected {(K + 1, J)}")
    n = K * J
    if n > _MAX_LP_VARS:
        raise InstanceTooLarge(f"simplex oracle limited to {_MAX_LP_VARS} variables")

    c = (P.grid.dt * f[:K]).ravel()
    m_rows = K * J
    G = np.zeros((m_rows, n))
    h = np.zeros(m_rows)
    G[:J, :J] = np.eye(J)
    h[:J] = m0.masses
    for k in range(K - 1):
        rows = slice((k + 1) * J, (k + 2) * J)
        G[rows, (k + 1) * J:(k + 2) * J] = np.eye(J)
        G[rows, k * J:(k + 1) * J] = -P.steps[k].dense().T

    # tableau: [G | I | h] with objective row [-c | 0 | 0]
    T = np.zeros((m_rows + 1, n + m_rows + 1))
    T[:m_rows, :n] = G
    T[:m_rows, n:n + m_rows] = np.eye(m_rows)
    T[:m_rows, -1] = h
    T[-1, :n] = -c
    basis = list(range(n, n + m_rows))

    pivots = 0
    while True:
        red = T[-1, :n + m_rows]
        candidates = np.nonzero(red < -_ENTER_TOL)[0]
        if candidates.size == 0:
            break
        col = int(candidates[0])  # Bland: lowest eligible index
        colvals = T[:m_rows, col]
        rows = np.nonzero(colvals > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise SimplexIterationLimit("objective unbounded; polytope is corrupt")
        ratios = T[rows, -1] / colvals[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-15 * (1.0 + abs(best))]
        row = int(min(tied, key=lambda r: basis[r]))  # Bland tie-break
        piv = T[row, col]
        T[row] /= piv
        other = np.arange(m_rows + 1) != row
        T[other] -= np.outer(T[other, col], T[row])
        basis[row] = col
        pivots += 1
        if pivots > max_pivots:
            raise SimplexIterationLimit(f"exceeded {max_pivots} pivots")

    x = np.zeros(n + m_rows)
    for i, b in enumerate(basis):
        x[b] = T[i, -1]
    masses = np.maximum(x[:n].reshape(K, J), 0.0)

    out = np.empty((K + 1, J))
    out[:K] = masses
    out[K] = P.steps[K - 1].apply_adjoint(masses[K - 1])
    family = MeasureFamily(out, P.grid, validate=False)
    return SimplexResult(value=float(T[-1, -1]), family=family, iterations=pivots)


# ----------------------------------------------------------------------
# weak-inequality audit

@dataclass(frozen=True)
class AuditResult:
    """Signed slacks of the weak admissibility inequality per test function."""

    slacks: np.ndarray
    scales: np.ndarray

    @property
    def worst_slack(self) -> float:
        return float(self.slacks.min())

    @property
    def worst_normalized(self) -> float:
        return float((self.slacks / self.scales).min())


def test_function_audit(m: MeasureFamily, m0: InitialMeasure, P: TransitionOperator,
                        n_functions: int = 100, seed: int = 0) -> AuditResult:
    """Check the weak form <u_0, m0> + sum_k dt <D_k u, m_k> >= 0 for
    random u >= 0 on P's grid, with D_k read from the transition operator P.

    It holds exactly for every admissible family and fails, for some u,
    on families that create mass.  Test functions are sums of space-time
    bumps from the catalog shifted to be nonnegative.
    """
    grid = P.grid
    if m.grid != grid:
        raise ShapeMismatch("family does not live on the operator's grid")
    rng = np.random.default_rng(seed)
    slacks = np.empty(n_functions)
    scales = np.empty(n_functions)
    for i in range(n_functions):
        u = _random_nonneg_function(grid, rng)
        slacks[i] = weak_form(m, P, u, m0)
        scales[i] = 1.0 + float(np.abs(u).max())
    return AuditResult(slacks=slacks, scales=scales)


def _random_nonneg_function(grid: SpaceTimeGrid, rng: np.random.Generator) -> np.ndarray:
    u = np.zeros(grid.shape)
    for _ in range(rng.integers(1, 4)):
        t_c = rng.uniform(-0.2 * grid.T, 1.2 * grid.T)
        t_w = rng.uniform(0.05, 0.7) * grid.T
        x_c = rng.uniform(grid.a, grid.b)
        x_w = rng.uniform(0.05, 0.7) * (grid.b - grid.a)
        amp = rng.uniform(-1.0, 1.0)
        tb = CoefficientFn.gaussian_bump(1.0, t_c, t_w)
        xb = CoefficientFn.gaussian_bump(amp, x_c, x_w)
        u += np.outer(tb(grid.t), xb(grid.x))
    u -= min(0.0, float(u.min()))
    return u


# ----------------------------------------------------------------------
# admissible samples for audits

def random_admissible_measure(P: TransitionOperator, m0: InitialMeasure,
                              rng: np.random.Generator, n_mix: int = 3) -> MeasureFamily:
    """A random point of the admissible polytope.

    Draw random reward grids, take the forward measures of their value
    functions, and mix them with random convex weights (optionally with
    the zero family, which is always admissible).
    """
    parts = []
    for _ in range(n_mix):
        f = rng.normal(size=P.grid.shape)
        v = solve_vi(f, P)
        parts.append(stopped_forward_measure(v.stop_mask, m0, P))
    if rng.random() < 0.3:
        parts.append(MeasureFamily.zeros(P.grid))
    w = rng.dirichlet(np.ones(len(parts)))
    out = parts[0]
    acc = w[0]
    for wi, fam in zip(w[1:], parts[1:]):
        acc_new = acc + wi
        out = convex_combine(out, fam, wi / acc_new if acc_new > 0 else 0.0)
        acc = acc_new
    return out

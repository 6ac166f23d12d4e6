"""Backward obstacle problem for the optimal stopping value function.

The discrete dynamic program v_K = 0, v_k = max(0, dt f_k + P_k v_{k+1})
is the implicit-Euler discretization of the variational inequality
min(-dv/dt - Lv - f, v) = 0 with v(T, .) = 0 and v = 0 at the absorbing
boundary.  Its value at the initial slice is, exactly, the optimum of the
linear program over admissible measure families with objective pair(f, .).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SolverError
from .measures import MeasureFamily, _block_sum
from .model_core import InitialMeasure, TransitionOperator

__all__ = [
    "ValueFunction",
    "solve_vi",
    "value_at_initial",
    "ComplementarityReport",
    "complementarity_report",
]

_TOL_ZERO_REL = 1e-12


@dataclass(frozen=True)
class ValueFunction:
    """Value grid with its stop/continue classification.

    stop_mask marks nodes where v <= tol_zero; ties between stopping and
    continuing (v exactly zero with the recursion active) classify as
    stop.  The final slice is all-stop by the terminal condition.
    """

    values: np.ndarray
    stop_mask: np.ndarray
    tol_zero: float

    @property
    def K(self) -> int:
        return self.values.shape[0] - 1

    @property
    def J(self) -> int:
        return self.values.shape[1]


def solve_vi(f_grid: np.ndarray, P: TransitionOperator,
             overwrite_f: bool = False) -> ValueFunction:
    """Backward recursion v_k = max(0, dt f_k + P_k v_{k+1}), v_K = 0,
    with dt the time step of P's grid.

    Parameters
    ----------
    f_grid : ndarray, shape (K+1, J)
        Running reward at grid nodes; the final row is ignored (the
        pairing carries no weight there).
    P : TransitionOperator
        Per-step transitions.
    overwrite_f : bool
        Allow the value grid to be built in f_grid's buffer, as scipy's
        overwrite_b does: for a float64 f_grid the returned ``values``
        is f_grid itself, overwritten, and no second grid is allocated.
        For a caller with no further use for its reward.  The values
        have the same bits either way.

    Returns
    -------
    ValueFunction
        Values, stop classification, and the zero tolerance used.

    Raises
    ------
    SolverError
        if a value is inf or NaN (an overflowing reward).
    """
    f = np.asarray(f_grid, dtype=float)
    K, J = P.K, P.n
    if f.shape != (K + 1, J):
        raise ShapeMismatch(f"reward grid {f.shape}, expected {(K + 1, J)}")
    # each row is built in place: dt f_k, plus P_k v_{k+1}, then the max
    # with 0.0 as the first argument: on a tie of signed zeros the
    # result of np.maximum depends on the argument order
    v = f if overwrite_f else np.empty((K + 1, J))
    np.multiply(P.grid.dt, f[:K], out=v[:K])
    v[K] = 0.0
    steps = P.steps
    for k in range(K - 1, -1, -1):
        row = v[k]
        np.add(row, steps[k].apply(v[k + 1]), out=row)
        np.maximum(0.0, row, out=row)
    # every entry is >= 0 or NaN (np.maximum propagates NaN), so this is
    # max |v| up to the sign of a zero, which 1.0 + vmax does not see, and
    # needs no full-grid temporary
    vmax = float(v.max())
    if not np.isfinite(vmax):
        raise SolverError(f"value function is not finite (max |v| = {vmax})")
    tol_zero = _TOL_ZERO_REL * (1.0 + vmax)
    return ValueFunction(values=v, stop_mask=v <= tol_zero, tol_zero=tol_zero)


def value_at_initial(v: ValueFunction, m0: InitialMeasure) -> float:
    """Integral of the initial value slice against the initial measure,
    summed by numpy rather than a BLAS dot, so its bits do not depend on
    the CPU's BLAS kernels."""
    if len(m0.masses) != v.J:
        raise ShapeMismatch("initial measure length does not match value grid")
    return float(np.add.reduce(v.values[0] * m0.masses))


@dataclass(frozen=True)
class ComplementarityReport:
    """Slackness diagnostics for a measure against a value function.

    stop_region_integral is sum over k < K of mass times the stopping
    slack max(0, -(dt f_k + P_k v_{k+1})): an optimal family puts no
    mass where stopping is strictly preferred, but may where stopping
    and continuing tie.  With the chain defects of m weighted by v, it
    is one of three nonnegative terms that sum to value - pair(f, m).
    continuation_residual is the worst violation of the transition
    equality at nodes whose neighborhood is fully in the continuation
    region: an optimal family loses no mass there.
    """

    stop_region_integral: float
    continuation_residual: float


def _stop_region_integral(v: ValueFunction, f: np.ndarray, A: np.ndarray,
                          P: TransitionOperator) -> float:
    """sum_{k<K} max(0, -(dt f_k + P_k v_{k+1})) A_k.

    It is np.sum of that whole-grid product, bit for bit, summed a block
    at a time from the one grid of P_k v_{k+1}, which is freed on return.
    """
    dt = P.grid.dt
    fs, pv, ms = np.ravel(f[:-1]), np.ravel(P.apply_each(v.values[1:])), np.ravel(A[:-1])
    return float(_block_sum(
        lambda i, j: np.maximum(0.0, -(dt * fs[i:j] + pv[i:j])) * ms[i:j], 0, fs.size))


def complementarity_report(v: ValueFunction, f_grid: np.ndarray,
                           m: MeasureFamily, P: TransitionOperator) -> ComplementarityReport:
    f = np.asarray(f_grid, dtype=float)
    A = m.masses
    if f.shape != A.shape or f.shape != v.values.shape:
        raise ShapeMismatch("value, reward, and family shapes must agree")
    integral = _stop_region_integral(v, f, A, P)

    # eligible nodes: the node and both space neighbors continue at
    # slices k and k+1; boundary-adjacent nodes are never eligible
    # (the absorbing boundary behaves like a stop node).
    cont = ~v.stop_mask
    ok = cont[:-1] & cont[1:]
    elig = np.zeros_like(ok)
    elig[:, 1:-1] = ok[:, :-2] & ok[:, 1:-1] & ok[:, 2:]
    # the residual |m_{k+1} - P_k^T m_k| a block of pushed rows at a
    # time; np.maximum keeps a NaN, as a whole-grid max would
    worst = 0.0
    for steps, pushed in P.adjoint_blocks(A[:-1]):
        e = elig[steps]
        if e.any():
            worst = np.maximum(worst, np.abs(A[1:][steps] - pushed)[e].max())

    return ComplementarityReport(stop_region_integral=integral,
                                 continuation_residual=float(worst))

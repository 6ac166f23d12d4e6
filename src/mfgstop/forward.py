"""Forward evolution of the population measure under a stopping rule.

Mass is removed at a slice when the value function classifies the node
as stop, then the survivors are pushed one step by the adjoint
transition; mass leaving through the absorbing boundary is the row-sum
deficit of the step.  A push step only masks, solves and clamps, and
returns the family alone: the mass ledger is a function of the family,
read off it by ``measure_ledger`` for forward measures and their convex
mixtures alike.  The pushed family is admissible by construction and
attains the obstacle-problem value, so backward and forward passes
certify each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SupportViolation
from .measures import MeasureFamily, _block_sum
from .model_core import CoefficientFn, InitialMeasure, SpaceTimeGrid, TransitionOperator
from .obstacle import ValueFunction

__all__ = [
    "MassLedger",
    "stopped_forward_measure",
    "measure_ledger",
    "forbidden_support",
    "weak_form",
    "fokker_planck_residual",
    "random_test_function",
]


@dataclass(frozen=True)
class MassLedger:
    """Where the initial mass went, step by step.

    stopped_per_step[k] is mass removed by the stop region at slice k
    (the final slice counts mass that reached the horizon, where every
    node is terminal).  absorbed_per_step[k] is mass lost through the
    boundary during step k -> k+1.  surviving is what remains in the
    family at the final slice; with a terminal all-stop slice it is zero.
    """

    initial: float
    stopped_per_step: np.ndarray
    absorbed_per_step: np.ndarray
    surviving: float

    @property
    def total_stopped(self) -> float:
        return float(self.stopped_per_step.sum())

    @property
    def total_absorbed(self) -> float:
        return float(self.absorbed_per_step.sum())

    @property
    def conservation_gap(self) -> float:
        return abs(self.initial - self.total_stopped - self.total_absorbed
                   - self.surviving)


def stopped_forward_measure(stop_mask: np.ndarray | None, m0: InitialMeasure,
                            P: TransitionOperator) -> MeasureFamily:
    """Push m0 through the chain, removing mass on the stop region.

    stop_mask is a value function's (K+1, J) stop classification
    (``ValueFunction.stop_mask``), the only part of it the push reads.
    Stopping is applied before the transition at each slice: mass
    arriving on a stop node at slice k never collects reward there and
    never moves again.  Every push is clamped at 0.  stop_mask=None
    never stops: the family is the chain of m0 killed only at the
    boundary, which dominates every admissible family componentwise.

    Each step zeroes slice k's stop nodes in place, solves from it with
    P_k^T, and clamps the result into slice k+1; the last slice's stop
    nodes are zeroed after the loop.  Where the mass went is read off
    the family by ``measure_ledger``.
    """
    K, J = P.K, P.n
    if len(m0.masses) != J or (stop_mask is not None and stop_mask.shape != (K + 1, J)):
        raise ShapeMismatch("stop mask, operator, and m0 disagree on shape")
    out = np.empty((K + 1, J))
    out[0] = m0.masses
    for k, step in enumerate(P.steps):
        if stop_mask is not None:
            np.multiply(out[k], ~stop_mask[k], out=out[k])
        np.maximum(step.apply_adjoint(out[k]), 0.0, out=out[k + 1])
    if stop_mask is not None:
        np.multiply(out[K], ~stop_mask[K], out=out[K])
    return MeasureFamily(out, P.grid, validate=False)


def measure_ledger(m: MeasureFamily, m0: InitialMeasure,
                   P: TransitionOperator) -> MassLedger:
    """Mass ledger of an arbitrary admissible family.

    Stopped mass at a slice is the family's defect against the pushed
    previous slice; absorbed mass is the push's own boundary leak.  The
    decomposition is linear in the family, so it is consistent with
    convex mixing.  On a forward measure it is, up to rounding, the
    push's step-by-step ledger: each slice's mass on its stop nodes
    before they are zeroed, and each step's row-sum deficit.
    """
    A = m.masses
    totals = A.sum(axis=1)
    pushed = np.empty(P.K)
    for steps, block in P.adjoint_blocks(A[:-1]):
        pushed[steps] = block.sum(axis=1)
    return MassLedger(initial=m0.total,
                      stopped_per_step=np.append(m0.total, pushed) - totals,
                      absorbed_per_step=totals[:-1] - pushed,
                      surviving=float(totals[-1]))


def forbidden_support(v: ValueFunction) -> np.ndarray:
    """Nodes where a continuation-region test function must vanish.

    Covers the stop region, a one-node collar around it in time and
    space, and the nodes adjacent to the domain boundary.
    """
    stop = v.stop_mask
    bad = stop.copy()
    bad[1:] |= stop[:-1]
    bad[:-1] |= stop[1:]
    bad[:, 1:] |= stop[:, :-1]
    bad[:, :-1] |= stop[:, 1:]
    bad[:, 0] = True
    bad[:, -1] = True
    return bad


def weak_form(m: MeasureFamily, P: TransitionOperator, u: np.ndarray,
              m0: InitialMeasure) -> float:
    """Weak form <u_0, m0> + sum_{k<K} dt <D_k u, m_k> of the forward
    equation, with D_k = (P_k u_{k+1} - u_k)/dt the scheme's one-step
    generator: the forward time difference combined with the same
    resolvent step as the transition.

    The sum over k < K is one numpy reduction of (P u - u) * m over the
    first K slices, taken a block of rows at a time.
    """
    a = np.ravel(P.apply_each(u[1:]))
    b, c = np.ravel(u[:-1]), np.ravel(m.masses[:-1])
    acc = _block_sum(lambda i, j: (a[i:j] - b[i:j]) * c[i:j], 0, a.size)
    return float(u[0] @ m0.masses) + float(acc)


def fokker_planck_residual(m: MeasureFamily, v: ValueFunction,
                           P: TransitionOperator, phi: np.ndarray,
                           m0: InitialMeasure) -> float:
    """Weak-form residual |weak_form(m, P, phi, m0)| against phi.

    For the forward measure of v this vanishes identically because every
    mass defect sits where phi is required to vanish: on the stop region,
    on a one-node collar around it, and next to the domain boundary.
    Violations of that support raise SupportViolation.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != m.masses.shape or phi.shape != v.values.shape:
        raise ShapeMismatch("phi, family, and value shapes must agree")
    bad = forbidden_support(v)
    if np.any(phi[bad] != 0.0):
        worst = np.unravel_index(np.argmax(np.abs(phi * bad)), phi.shape)
        raise SupportViolation(
            f"test function is nonzero on the stop collar at {tuple(int(i) for i in worst)}"
        )
    return abs(weak_form(m, P, phi, m0))


def random_test_function(v: ValueFunction, grid: SpaceTimeGrid,
                         rng: np.random.Generator) -> np.ndarray:
    """A product of a time bump and a space bump, clipped to the allowed support."""
    t_c = rng.uniform(0.0, grid.T)
    t_w = rng.uniform(0.1, 0.6) * grid.T
    x_c = rng.uniform(grid.a, grid.b)
    x_w = rng.uniform(0.1, 0.6) * (grid.b - grid.a)
    if rng.random() < 0.5:
        tb = CoefficientFn.gaussian_bump(1.0, t_c, t_w)
    else:
        tb = CoefficientFn.cosine_bump(1.0, t_c, t_w)
    xb = CoefficientFn.gaussian_bump(rng.uniform(0.5, 2.0), x_c, x_w)
    phi = np.outer(tb(grid.t), xb(grid.x))
    phi[forbidden_support(v)] = 0.0
    return phi

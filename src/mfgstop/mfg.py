"""Fixed-point iteration for the mean-field equilibrium of stopping times.

Because the coupled reward derives from a concave potential F, a relaxed
equilibrium is exactly a maximizer of F over the admissible polytope.
Each iteration builds one ``Iterate`` of the current crowd (its moment
paths and h pairing), the best response to it (an obstacle problem plus
a forward pass) with the response's ``Iterate``, an exact or
golden-section line search along the segment toward it, and a convex
update.  F along the segment is a function of (1 - rho) y + rho y_tilde
and (1 - rho) H + rho H_tilde, so the line search reads only the two
``Iterate``s and no grid.  The exploitability
pair(f(., m), m_tilde - m) is F's slope toward the response, which
``directional_gain`` reads off the moment paths in O(K).  It is the
Nash defect of m, an upper bound on the remaining potential gap (the
stopping criterion), and the closed-form step's gain.

Near a mixed equilibrium Frank-Wolfe zig-zags between a few vertices,
so the same stop rules come back as best responses again and again.
Within one solve m0 and the transitions are fixed, and the forward push
of m0 depends only on the stop mask, so a ``PushCache`` keyed by the
exact mask returns a recurring rule's family without pushing again,
bitwise equal to a fresh push.  To bound memory it keeps a push
only once its rule has recurred among the last few best responses, and
at most three of them.  The loop holds no value grid and no reward past
the obstacle problem: a best response keeps only the stop mask of its
obstacle problem, and the best iterate only its ``Iterate``.  At exit
the reward and value grid of the best iterate are recomputed from its
moment paths, bit for bit.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConcaveDetected, ShapeMismatch, SolverError, ValidationError
from .forward import MassLedger, measure_ledger, stopped_forward_measure
# perfbench/tracer.py patches moment in this namespace, so it stays imported
from .measures import MeasureFamily, convex_combine, moment, pair  # noqa: F401
from .model_core import (
    DiffusionModel,
    InitialMeasure,
    SpaceTimeGrid,
    TransitionOperator,
)
from .obstacle import ValueFunction, solve_vi, value_at_initial
from .reward import (
    Iterate,
    RewardSpec,
    directional_gain,
    evaluate_reward,
    potential_value,
    segment_potential,
)

__all__ = [
    "ModelContext",
    "BestResponse",
    "PushCache",
    "best_response",
    "line_search",
    "IterationTrace",
    "FixedPointResult",
    "check_budget",
    "fixed_point_solve",
]


@dataclass(frozen=True)
class ModelContext:
    """Everything the single-agent layer needs about the instance; the
    transition must live on the context's grid."""

    grid: SpaceTimeGrid
    model: DiffusionModel
    transition: TransitionOperator
    m0: InitialMeasure

    def __post_init__(self):
        if self.transition.grid != self.grid:
            raise ShapeMismatch("the transition lives on another grid than the context")


@dataclass(frozen=True)
class BestResponse:
    iterate: Iterate
    exploitability: float


class PushCache:
    """Forward pushes of recurring stop rules, for one context.

    The push of ctx.m0 through ctx.transition depends only on the stop
    mask, so the exact mask (packed bits, not a hash) is the key.  A push
    is stored only when its mask is among the last WINDOW masks seen; at
    most CAP are held (measured atom sets have 1-3 members), and the
    least recently used one goes first.  A hit hands out the stored
    arrays, which nobody writes to.  A push is its family alone;
    ``measure_ledger`` reads the mass ledger off a family when one is
    wanted.
    """

    CAP = 3
    WINDOW = 4

    def __init__(self, ctx: ModelContext):
        self.ctx = ctx
        self.pushes: OrderedDict[bytes, MeasureFamily] = OrderedDict()
        self.recent: deque[bytes] = deque(maxlen=self.WINDOW)

    def push(self, stop_mask: np.ndarray) -> MeasureFamily:
        key = np.packbits(stop_mask).tobytes()
        out = self.pushes.get(key)
        if out is not None:
            self.pushes.move_to_end(key)
        else:
            out = stopped_forward_measure(stop_mask, self.ctx.m0, self.ctx.transition)
            if key in self.recent:
                self.pushes[key] = out
                if len(self.pushes) > self.CAP:
                    self.pushes.popitem(last=False)
        self.recent.append(key)
        return out


def best_response(spec: RewardSpec, it: Iterate, ctx: ModelContext,
                  pushes: PushCache | None = None) -> BestResponse:
    """Optimal stopping response to the crowd it.family: solve the
    obstacle problem for its reward and push the initial measure through
    its rule.  Its exploitability, the value a single deviating agent
    gains by playing it against the crowd, is ``directional_gain`` from
    it to the response's ``Iterate``.  pushes, if given, must be a
    ``PushCache`` of ctx, and the push is taken from it.  Only the stop
    mask of the value function is kept, and the reward goes before the
    push, so neither grid is live during the push."""
    stop = solve_vi(evaluate_reward(spec, it.ys), ctx.transition).stop_mask
    if pushes is None:
        fam = stopped_forward_measure(stop, ctx.m0, ctx.transition)
    else:
        fam = pushes.push(stop)
    it_tilde = Iterate.of(spec, fam)
    return BestResponse(iterate=it_tilde, exploitability=directional_gain(spec, it, it_tilde))


_CONCAVITY_SLACK = 1e-8
_GOLDEN_TOL = 1e-10
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def line_search(spec: RewardSpec, it: Iterate, it_tilde: Iterate,
                gain: float) -> float:
    """Maximize rho -> F(m + rho (m_tilde - m)) over [0, 1] between the
    families of it and it_tilde, reading only their moment paths and h
    pairings.

    All-linear specs admit a closed-form quadratic maximizer: gain is
    the slope at rho = 0 (``directional_gain(spec, it, it_tilde)``, the
    exploitability when it_tilde is a best response), and the curvature
    is sum_i b_i dt sum_{k<K} theta_i(t_k) (y_tilde - y)_{i,k}^2, summed
    by numpy with no BLAS call.  Otherwise a golden-section search on
    ``segment_potential`` (O(K) per probe), which reads no gain, refines
    to an interval of width 1e-10, with a midpoint-concavity guard on
    the sampled values.  Boundary ties resolve to the smaller rho.
    """
    if spec.all_linear:
        grid = it.family.grid
        K = it.family.K
        curv = 0.0
        for (fbar, _), y, y_b in zip(spec.terms, it.ys, it_tilde.ys):
            d = y_b[:K] - y[:K]
            curv += fbar.params[1] * grid.dt * float(np.sum(fbar.theta(grid.t[:K]) * d * d))
        if curv <= 0.0:
            return 1.0 if gain > 0.0 else 0.0
        if gain <= 0.0:
            return 0.0
        return min(1.0, gain / curv)

    phi = segment_potential(spec, it, it_tilde)
    probes = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = {r: phi(r) for r in probes}
    scale = max(1.0, max(abs(v) for v in vals.values()))
    for lo, mid, hi in ((0.0, 0.25, 0.5), (0.25, 0.5, 0.75), (0.5, 0.75, 1.0),
                        (0.0, 0.5, 1.0)):
        if vals[mid] < 0.5 * (vals[lo] + vals[hi]) - _CONCAVITY_SLACK * scale:
            raise NonConcaveDetected(
                f"line-search objective not concave near rho={mid}"
            )

    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:  # ties move left: prefer the smaller rho
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = phi(d)
    rho = 0.5 * (a + b)
    # never return a point worse than the endpoints; ties pick smaller rho
    candidates = [(vals[0.0], 0.0), (phi(rho), rho), (vals[1.0], 1.0)]
    best_val = max(v for v, _ in candidates)
    for v, r in candidates:
        if v >= best_val - 1e-15 * scale:
            return r
    return rho


@dataclass
class IterationTrace:
    """Per-update history of the fixed-point iteration."""

    potential: list = field(default_factory=list)
    exploitability: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    wall_clock: list = field(default_factory=list)

    def append(self, potential, eps, rho, elapsed):
        self.potential.append(float(potential))
        self.exploitability.append(float(eps))
        self.rho.append(float(rho))
        self.wall_clock.append(float(elapsed))

    def __len__(self):
        return len(self.potential)


@dataclass
class FixedPointResult:
    m_star: MeasureFamily
    v_star: ValueFunction
    f_star: np.ndarray
    trace: IterationTrace
    iterations: int
    converged: bool
    exploitability: float
    potential: float
    value: float
    pair_value: float
    ledger: MassLedger

    @property
    def duality_gap(self) -> float:
        return abs(self.value - self.pair_value)


def check_budget(max_iters, eps_tol) -> None:
    """Raise ValidationError unless max_iters >= 0 and eps_tol is finite
    and >= 0; each comparison fails on NaN."""
    if not max_iters >= 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    if not (np.isfinite(eps_tol) and eps_tol >= 0):
        raise ValidationError(f"eps_tol must be finite and >= 0, got {eps_tol}")


def fixed_point_solve(spec: RewardSpec, ctx: ModelContext,
                      m_init: MeasureFamily | None = None,
                      max_iters: int = 500, eps_tol: float = 1e-6) -> FixedPointResult:
    """Iterate best response / line search / convex update until the
    exploitability falls to eps_tol.

    Parameters
    ----------
    spec : RewardSpec
        Coupled reward; must be validated against the context's grid.
    ctx : ModelContext
        Grid, model, transitions, and initial measure.
    m_init : MeasureFamily, optional
        Starting family; defaults to the zero family, which is always
        admissible.
    max_iters : int
        Iteration cap; on hitting it the best iterate seen (smallest
        exploitability) is returned with converged=False.
    eps_tol : float
        Stopping threshold for the exploitability.

    Returns
    -------
    FixedPointResult
        Final family with its value function, reward, trace, ledger,
        and duality diagnostics.
    """
    check_budget(max_iters, eps_tol)
    grid = ctx.grid
    if m_init is None:
        m = MeasureFamily.zeros(grid)
    else:
        if m_init.grid != grid:
            raise ValidationError("m_init does not live on the context grid")
        m = m_init

    trace = IterationTrace()
    pushes = PushCache(ctx)
    start = time.perf_counter()

    best = None  # (eps, it)
    converged = False
    iterations = 0
    while True:
        it = Iterate.of(spec, m)
        br = best_response(spec, it, ctx, pushes=pushes)
        eps = br.exploitability
        if not np.isfinite(eps):
            raise SolverError(f"exploitability is {eps} at iteration {iterations}; "
                              "the reward or its pairing is not finite")
        if best is None or eps < best[0]:
            best = (eps, it)
        if eps <= eps_tol:
            converged = True
            break
        if iterations >= max_iters:
            break
        rho = line_search(spec, it, br.iterate, eps)
        trace.append(potential_value(spec, it), eps, rho, time.perf_counter() - start)
        m = convex_combine(m, br.iterate.family, rho)
        # drop the old iterate and response before the next ones are
        # built (peak memory)
        it = br = None
        iterations += 1

    # the best iterate keeps no grid but its family; its reward and value
    # grid come from the computation best_response ran on it, so they
    # have the same bits
    eps, it = best
    m = it.family
    br = pushes = None  # before the grids built below (peak memory)
    f = evaluate_reward(spec, it.ys)
    v = solve_vi(f, ctx.transition)

    return FixedPointResult(
        m_star=m,
        v_star=v,
        f_star=f,
        trace=trace,
        iterations=iterations,
        converged=converged,
        exploitability=float(eps),
        potential=potential_value(spec, it),
        value=value_at_initial(v, ctx.m0),
        pair_value=pair(f, m),
        ledger=measure_ledger(m, ctx.m0, ctx.transition),
    )

"""Euler-Maruyama cross-check of the forward measure, with bridge killing.

Paths follow the SDE with the grid's own time step; the grid enters the
dynamics only through the stop rule and the tally, both of which snap
the state to the nearest interior node.  Exits from (a, b) are not only
checked at step ends: each step is also killed with the probability
that the Brownian bridge between its endpoints touches a wall, with
sigma frozen at the step's start (Gobet, "Weak approximation of killed
diffusion using Euler schemes", SPA 2000).  That removes the O(sigma
sqrt(dt)) under-absorption of the end-of-step rule, so for constant
coefficients the sampled law is that of the stopped, killed diffusion
itself; agreement with the finite-difference forward measure is then
statistical up to the chain's own discretization error.

Paths are independent, so they are simulated in blocks of BLOCK paths,
each block through all K steps.  A single producer thread draws the
Gaussian increments of the next block while the current one steps;
numpy's generators release the interpreter lock while they fill arrays,
so the draws overlap the stepping.  The stepping thread draws each
step's bridge uniforms itself, when it needs them.  Memory is
O(BLOCK*K + n_paths + K*J), whatever n_paths*K is.

A step costs a few dozen numpy calls on arrays of at most BLOCK paths,
so per-call overhead, not arithmetic, bounds small blocks.  The step
loop therefore compacts its arrays after the stop check only when some
path stopped, and does the bridge work only when some path is near a
wall.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .measures import MeasureFamily
from .model_core import DiffusionModel, InitialMeasure, SpaceTimeGrid
from .obstacle import ValueFunction

__all__ = ["PathStats", "McResult", "simulate_paths"]

# Paths per block; two blocks of BLOCK*K increments are alive at once
# (18.75 MiB at K=300).  At K=300 and 1e5 paths, 4096-path blocks step
# as fast as 8192-path blocks did before the step loop was trimmed.
BLOCK = 4096
# Paths per Gaussian draw: each (DRAW_ROWS, K) draw is transposed into
# the block's step-major buffer, and stays in cache while it is.
DRAW_ROWS = 256


@dataclass(frozen=True)
class PathStats:
    n_paths: int
    stopped: int
    absorbed: int
    survived: int

    def __post_init__(self):
        if self.stopped + self.absorbed + self.survived != self.n_paths:
            raise ValidationError("path statuses do not partition the sample")


@dataclass(frozen=True)
class McResult:
    family: MeasureFamily
    stats: PathStats


def simulate_paths(model: DiffusionModel, grid: SpaceTimeGrid,
                   v: ValueFunction | None, m0: InitialMeasure,
                   n_paths: int, seed: int) -> McResult:
    """Simulate stopped, absorbed diffusion paths and tally an empirical family.

    Per slice: a path whose nearest interior node is marked stop by v
    stops there (before collecting the slice); survivors are tallied at
    their nearest node, then advanced one Euler-Maruyama step from x0 to
    x1.  The step absorbs the path if x1 leaves (a, b), and otherwise
    with the probability that the Brownian bridge from x0 to x1 touches
    a wall:

        1 - (1 - exp(-2 d0a d1a / (s^2 dt))) (1 - exp(-2 d0b d1b / (s^2 dt)))

    where d0a, d1a (d0b, d1b) are the distances of x0, x1 to a (to b)
    and s = sigma(t_k, x0) is frozen over the step.  The probability is
    evaluated only where d0*d1 < 20 s_max^2 dt at some wall, s_max^2
    being the largest s^2 among the block's paths at this step.  A
    skipped path has d0*d1 >= 20 s_max^2 dt >= 20 s^2 dt at both walls,
    so each survival factor is 1 - exp(-40) or closer to 1, which rounds
    to exactly 1.0: the skip changes no outcome, whichever paths share
    the block.
    v=None means no stopping at all, so the tally estimates the
    never-stopping family.  A path that reaches the horizon counts as
    survived even though a terminal value function marks every node stop
    at the final slice.

    Randomness comes from two counter-based streams keyed by the seed,
    which must lie in [0, 2**128), each indexed by (path, step).
    Philox(seed) draws the start nodes, then the Gaussian increments as
    an (n_paths, K) array in row-major order; a block of paths [p0, p1)
    is its next p1 - p0 rows, drawn DRAW_ROWS rows at a time and stored
    step-major, so that a step reads contiguous memory.  Uniform (p, k)
    of the bridge is 64-bit output k*n_paths + p of Philox(seed).jumped(),
    mapped to [0, 1) as Generator.random() maps it; a step seeks its
    block's row (see _seek) only if some path is near a wall.  Results
    are thus bit-for-bit reproducible and independent of BLOCK and DRAW_ROWS.

    The blocks run one after another in this thread; a one-worker pool
    draws block i+1's increments into one of two buffers while block i
    steps on the other, and is joined before the function returns or
    raises.  The two threads share no generator.
    """
    if n_paths < 1:
        raise ValidationError("need at least one path")
    if not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must be in [0, 2**128), got {seed}")
    K, J = grid.K, grid.J
    if v is not None and v.values.shape != grid.shape:
        raise ShapeMismatch("value function does not live on the given grid")
    if len(m0.masses) != J:
        raise ShapeMismatch("initial measure does not live on the given grid")
    rng = np.random.Generator(np.random.Philox(key=seed))
    start_nodes = rng.choice(J, size=n_paths, p=m0.masses / m0.total)
    bridge = np.random.Philox(key=seed).jumped()
    bridge_base = bridge.state

    rows = np.empty((min(DRAW_ROWS, n_paths), K))  # the producer's draw buffer

    def draw(p0: int, buf: np.ndarray) -> np.ndarray:
        """Fill buf with the block at p0's step-major (K, C) increments."""
        C = min(BLOCK, n_paths - p0)
        noise = buf[:K * C].reshape(K, C)
        for r0 in range(0, C, DRAW_ROWS):
            r1 = min(r0 + DRAW_ROWS, C)
            noise[:, r0:r1] = rng.standard_normal(out=rows[:r1 - r0]).T
        return noise

    def uniforms(p0: int, k: int, cols: np.ndarray) -> np.ndarray:
        """Bridge uniforms (p0 + cols, k); cols ascending."""
        _seek(bridge, bridge_base, k * n_paths + p0)
        return (bridge.random_raw(cols[-1] + 1)[cols] >> 11) * 2.0 ** -53

    # a live path has a < x < b, so rint((x - a) / dx) lies in [0, J + 1]:
    # padding the stop rule with a copy of its edge columns stands in
    # for clamping the index to the interior nodes
    stop = None if v is None else np.pad(v.stop_mask, ((0, 0), (1, 1)), mode="edge")
    tallies = np.zeros((K + 1, J))
    stopped = 0
    survived = 0
    buffers = [np.empty(K * min(BLOCK, n_paths)) for _ in range(2)]
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, 0, buffers[0])
        for i, p0 in enumerate(range(0, n_paths, BLOCK)):
            noise = pending.result()
            if p0 + BLOCK < n_paths:
                # block i - 1 has finished stepping on this buffer
                pending = pool.submit(draw, p0 + BLOCK, buffers[(i + 1) % 2])
            x = grid.x[start_nodes[p0:p0 + BLOCK]]
            n_stop, n_surv = _step_block(model, grid, stop, x, noise,
                                         lambda k, cols: uniforms(p0, k, cols), tallies)
            stopped += n_stop
            survived += n_surv

    absorbed = n_paths - stopped - survived
    family = MeasureFamily(tallies / n_paths, grid, validate=False)
    stats = PathStats(n_paths=n_paths, stopped=stopped,
                      absorbed=absorbed, survived=survived)
    return McResult(family=family, stats=stats)


def _step_block(model: DiffusionModel, grid: SpaceTimeGrid,
                stop: np.ndarray | None, x: np.ndarray, noise: np.ndarray,
                uniforms, tallies: np.ndarray) -> tuple[int, int]:
    """Run one block of paths from their start states x through all steps.

    stop is the stop rule padded with its edge columns, (K+1, J+2), or
    None for no stopping; noise holds the block's (K, C) step-major
    increments, uniforms(k, cols) the bridge uniforms of its paths cols
    at step k.  Adds the block's node counts to tallies and returns
    (stopped, survived).
    """
    K, J = grid.K, grid.J
    a, b, dt, dx = grid.a, grid.b, grid.dt, grid.dx
    sq = np.sqrt(dt)
    near_dt = 20.0 * dt
    sigma, mu = model.sigma, model.mu
    # the node index lies in [0, J + 1] (see simulate_paths); the counts'
    # edge columns are folded into the interior ones at the end
    counts = np.zeros((K + 1, J + 2), dtype=np.intp)
    ids = np.arange(len(x))  # the block's paths still in the game
    stopped = 0
    survived = 0
    for k in range(K + 1):
        xa = x - a
        idx = np.rint(xa / dx).astype(np.intp)
        if stop is not None:
            hit = stop[k][idx]
            n_hit = int(np.count_nonzero(hit))
            if n_hit:
                if k == K:
                    survived += n_hit
                else:
                    stopped += n_hit
                go = ~hit
                ids, x, xa, idx = ids[go], x[go], xa[go], idx[go]
        if len(ids) == 0:
            break
        counts[k] += np.bincount(idx, minlength=J + 2)
        if k == K:
            survived += len(ids)
            break
        t_k = grid.t[k]
        sig = sigma(t_k, x)
        s2 = sig * sig
        # noise[k][ids] gathers as noise[k, ids] does, at a third of the cost
        x1 = x + mu(t_k, x) * dt + sig * sq * noise[k][ids]
        x1a = x1 - a
        bx1 = b - x1
        keep = np.minimum(x1a, bx1) > 0.0  # a < x1 < b; False for NaN
        da = xa * x1a
        db = (b - x) * bx1
        near = (keep & (np.minimum(da, db) < near_dt * s2.max())).nonzero()[0]
        if len(near):
            rate = -2.0 / (dt * s2[near])
            # (-e1) * (-e2) rounds exactly as e1 * e2 does
            survive = np.expm1(rate * da[near]) * np.expm1(rate * db[near])
            keep[near[uniforms(k, ids[near]) < 1.0 - survive]] = False
        ids, x = ids[keep], x1[keep]
    tallies += counts[:, 1:-1]
    tallies[:, 0] += counts[:, 0]
    tallies[:, -1] += counts[:, -1]
    return stopped, survived


def _seek(bitgen: np.random.Philox, base: dict, pos: int) -> None:
    """Put bitgen at 64-bit output number pos of the stream whose state is base.

    Philox makes four outputs per counter value and increments the
    counter before it refills an empty buffer, so output pos is reached
    from base's counter with its low word set to pos // 4, an empty
    buffer and pos % 4 outputs discarded.  base must have an empty
    buffer and, before the first seek, a low counter word of 0, as
    Philox(seed) and its jumps do; the seek overwrites that word.
    """
    base["state"]["counter"][0] = pos // 4
    bitgen.state = base
    bitgen.random_raw(pos % 4)

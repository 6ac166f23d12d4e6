"""Mean-field coupled rewards and the potential they derive from.

The coupled reward is f(t, x, m) = sum_i fbar_i(t, <g_i, m_t>) g_i(x)
+ h(t, x) with every fbar_i nonincreasing in its aggregate argument.
Each fbar carries a closed-form antiderivative Fbar in y, which makes
F(m) = sum_i integral of Fbar_i(t, <g_i, m_t>) dt + <h, m> an exact
potential: its directional derivative along m' - m is the pairing of
f(., m) against m' - m.

F and the reward depend on m only through the moment paths
y_i(t) = <g_i, m_t> and the h pairing H = <h, m>, both linear in m.
``Iterate.of`` computes them once per family and is the only code that
does; the reward, the potential, ``segment_potential`` and
``directional_gain`` read them from the ``Iterate``.  Along a segment
the paths and H interpolate linearly, so F at any point of it, and its
slope at the near end, cost O(K) once both ends are known.  A
validated spec holds h as its (K+1, J) grid, evaluated once, which the
pairing and the reward read as is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MissingAntiderivative,
    MomentOutOfRange,
    ShapeMismatch,
    ValidationError,
)
from .measures import MeasureFamily, moment, pair
from .model_core import (
    CoefficientFn,
    InitialMeasure,
    ProductField,
    SpaceTimeGrid,
    _row_blocks,
)

__all__ = [
    "FBarFn",
    "RewardSpec",
    "Iterate",
    "evaluate_reward",
    "antimonotonicity_check",
    "potential_value",
    "segment_potential",
    "directional_gain",
]


class FBarFn:
    """Nonincreasing-in-y crowd sensitivity with a closed-form antiderivative.

    Kinds (base profiles in the aggregate y, scaled by an optional
    nonnegative time factor theta(t)):

    - linear: (a, b) with b >= 0, profile a - b*y
    - exponential: (c, lam) with c, lam >= 0, profile c*exp(-lam*y)
    - saturating: (c, d) with c >= 0, profile c/(1 + max(y, 0)) + d

    The antiderivative Fbar satisfies dFbar/dy = fbar and Fbar(t, 0) = 0.
    Parameters must be finite; validate=False skips only the sign checks.
    """

    KINDS = ("linear", "exponential", "saturating")

    def __init__(self, kind, params, time_modulation: CoefficientFn | None = None,
                 validate: bool = True):
        if kind not in self.KINDS:
            raise MissingAntiderivative(f"no antiderivative catalog for kind {kind!r}")
        params = tuple(float(p) for p in params)
        if len(params) != 2:
            raise ValidationError(f"{kind} needs exactly two parameters")
        if not np.all(np.isfinite(params)):
            raise ValidationError(f"{kind} parameters must be finite, got {params}")
        self.kind = kind
        self.params = params
        self.time_modulation = time_modulation
        if validate and not self.is_nonincreasing():
            raise ValidationError(f"{kind} fbar{params} is not nonincreasing in y")

    def theta(self, t):
        if self.time_modulation is None:
            return np.ones_like(np.asarray(t, dtype=float))
        return self.time_modulation(t)

    def _base(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "linear":
            a, b = self.params
            return a - b * y
        if self.kind == "exponential":
            c, lam = self.params
            return c * np.exp(-lam * y)
        c, d = self.params
        return c / (1.0 + np.maximum(y, 0.0)) + d

    def _base_antideriv(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "linear":
            a, b = self.params
            return a * y - 0.5 * b * y * y
        if self.kind == "exponential":
            c, lam = self.params
            if lam == 0.0:
                return c * y
            return -(c / lam) * np.expm1(-lam * y)
        # saturating: piecewise so that dFbar/dy = fbar also for y < 0,
        # where the profile is the constant c + d
        c, d = self.params
        pos = c * np.log1p(np.maximum(y, 0.0)) + d * np.maximum(y, 0.0)
        neg = (c + d) * np.minimum(y, 0.0)
        return pos + neg

    def f_bar(self, t, y):
        return self.theta(t) * self._base(y)

    def F_bar(self, t, y):
        return self.theta(t) * self._base_antideriv(y)

    def is_nonincreasing(self) -> bool:
        if self.kind == "linear":
            return self.params[1] >= 0
        if self.kind == "exponential":
            return self.params[0] >= 0 and self.params[1] >= 0
        return self.params[0] >= 0

    def __repr__(self):
        return f"FBarFn({self.kind}, params={self.params})"


@dataclass(frozen=True)
class RewardSpec:
    """Coupled reward: terms (fbar_i, g_i) plus an uncoupled part h.

    h may be a separable field, a precomputed (K+1, J) grid, or absent.
    Call :meth:`validated` to bind the spec to a grid and initial
    measure; this checks monotonicity and ellipticity-style bounds,
    freezes the admissible aggregate range used by evaluate_reward, and
    evaluates a separable h on the grid, so a validated spec's h is a
    grid or None.
    """

    terms: tuple
    h: ProductField | np.ndarray | None = None
    grid: SpaceTimeGrid | None = None
    y_max: tuple | None = None

    def validated(self, grid: SpaceTimeGrid, m0: InitialMeasure) -> "RewardSpec":
        if len(self.terms) == 0 and self.h is None:
            raise ValidationError("reward spec is empty")
        bounds = []
        for fbar, g in self.terms:
            if not isinstance(fbar, FBarFn) or not isinstance(g, CoefficientFn):
                raise ValidationError("terms must be (FBarFn, CoefficientFn) pairs")
            if not fbar.is_nonincreasing():
                raise ValidationError(f"{fbar!r} is not nonincreasing in y")
            th = fbar.theta(grid.t)
            if not (np.all(np.isfinite(th)) and np.all(th >= 0)):
                raise ValidationError("time modulation must be finite and nonnegative")
            gv = g(grid.x)
            if not np.all(np.isfinite(gv)):
                raise ValidationError("coupling g is not finite on the grid")
            gmax = float(np.abs(gv).max())
            if gmax == 0.0:
                warnings.warn("coupling g vanishes on the grid; term contributes nothing",
                              stacklevel=2)
            if g.kind != "tabulated":
                if not (np.all(np.isfinite(g.deriv(grid.x)))
                        and np.all(np.isfinite(g.deriv2(grid.x)))):
                    raise ValidationError("coupling g has non-finite derivatives")
            bounds.append(gmax * m0.total)
        h = self.h.on_grid(grid) if isinstance(self.h, ProductField) else self.h
        if h is not None:
            if h.shape != grid.shape:
                raise ShapeMismatch(f"h grid {h.shape}, expected {grid.shape}")
            if not np.all(np.isfinite(h)):
                raise ValidationError("uncoupled reward h is not finite on the grid")
        return replace(self, h=h, grid=grid, y_max=tuple(bounds))

    @property
    def all_linear(self) -> bool:
        return all(fbar.kind == "linear" for fbar, _ in self.terms)


_Y_SLACK = 1e-9


@dataclass(frozen=True)
class Iterate:
    """A family with the two quantities F and the reward read from it.

    ys holds the moment paths y_i = <g_i, m_t>, one (K+1,) array per
    term, checked against the spec's admissible range; H = <h, m> is the
    pairing of the spec's h grid with m (0.0 without h).  Build it with
    :meth:`of`, which rejects a family on another grid than a validated
    spec's.
    """

    family: MeasureFamily
    ys: tuple
    H: float

    @classmethod
    def of(cls, spec: RewardSpec, m: MeasureFamily) -> "Iterate":
        if spec.grid is not None and m.grid != spec.grid:
            raise ShapeMismatch("the family lives on another grid than the spec")
        ys = []
        for i, (fbar, g) in enumerate(spec.terms):
            y = moment(m, g)
            if spec.y_max is not None:
                bound = spec.y_max[i] * (1.0 + _Y_SLACK)
                if not np.abs(y).max() <= bound:  # NaN fails too
                    raise MomentOutOfRange(
                        f"aggregate {np.abs(y).max():.6g} exceeds bound {bound:.6g} "
                        f"for term {i}"
                    )
            ys.append(y)
        return cls(m, tuple(ys), 0.0 if spec.h is None else pair(spec.h, m))


def evaluate_reward(spec: RewardSpec, ys: tuple) -> np.ndarray:
    """Materialize f(t_k, x_j, m) on the spec's grid from the moment
    paths ys of m (``Iterate.of(spec, m).ys``).

    Each term's outer product is added a block of rows at a time, so the
    only full grid made is f.
    """
    grid = spec.grid
    if grid is None:
        raise ValidationError("evaluate_reward needs a validated spec")
    f = np.zeros(grid.shape)
    for (fbar, g), y in zip(spec.terms, ys):
        fy, gx = fbar.f_bar(grid.t, y), g(grid.x)
        for rows in _row_blocks(*f.shape):
            f[rows] += np.outer(fy[rows], gx)
    if spec.h is not None:
        f += spec.h
    return f


def antimonotonicity_check(spec: RewardSpec, samples: int = 200,
                           seed: int = 0) -> tuple[bool, tuple | None]:
    """Sample (t, y1, y2) and test (fbar(t,y1) - fbar(t,y2))(y1 - y2) <= 0.

    Returns (True, None) if no violation beyond 1e-12 is found, else
    (False, witness) with the offending (term, t, y1, y2) tuple.
    """
    T = spec.grid.T if spec.grid is not None else 1.0
    rng = np.random.default_rng(seed)
    for i, (fbar, _) in enumerate(spec.terms):
        ybound = spec.y_max[i] if spec.y_max is not None else 1.0
        ybound = max(ybound, 1e-6)
        t = rng.uniform(0.0, T, size=samples)
        y1 = rng.uniform(-ybound, ybound, size=samples)
        y2 = rng.uniform(-ybound, ybound, size=samples)
        prod = (fbar.f_bar(t, y1) - fbar.f_bar(t, y2)) * (y1 - y2)
        if np.any(prod > 1e-12):
            j = int(np.argmax(prod))
            return False, (i, float(t[j]), float(y1[j]), float(y2[j]))
    return True, None


def potential_value(spec: RewardSpec, it: Iterate) -> float:
    """F(m): time integral of the antiderivatives plus the linear h part.

    Uses the same left-endpoint rule as the pairing, so the chain rule
    F'(m)[d] = pair(f(., m), d) holds exactly on the grid.
    """
    grid = it.family.grid
    K = it.family.K
    t = grid.t[:K]
    total = 0.0
    for (fbar, _), y in zip(spec.terms, it.ys):
        total += grid.dt * float(np.sum(fbar.F_bar(t, y[:K])))
    return total + it.H


def segment_potential(spec: RewardSpec, a: Iterate, b: Iterate):
    """rho -> F(a + rho (b - a)), evaluated on moment paths.

    The moment paths and H are linear in the family, so the point at rho
    has paths (1 - rho) y_a + rho y_b and h pairing (1 - rho) H_a + rho H_b:
    each evaluation costs O(K).  The interpolated paths are convex
    combinations of two range-checked paths, so they stay in range too.
    Each term's theta(t_k) is evaluated once, here, not per evaluation;
    the sum is potential_value's on the interpolated paths, bit for bit.
    """
    if a.family.masses.shape != b.family.masses.shape:
        raise ShapeMismatch("families must share a shape")
    grid = a.family.grid
    K = a.family.K
    t, dt = grid.t[:K], grid.dt
    ends = [(fbar, fbar.theta(t), y[:K], y_b[:K])
            for (fbar, _), y, y_b in zip(spec.terms, a.ys, b.ys)]

    def phi(rho: float) -> float:
        total = 0.0
        for fbar, theta, y, y_b in ends:
            path = (1.0 - rho) * y + rho * y_b
            total += dt * float(np.sum(theta * fbar._base_antideriv(path)))
        return total + ((1.0 - rho) * a.H + rho * b.H)

    return phi


def directional_gain(spec: RewardSpec, a: Iterate, b: Iterate) -> float:
    """dF/drho at rho = 0 along a + rho (b - a), from the moment paths.

    Equals pair(f(., a), b - a) by the potential property: the reward is
    sum_i fbar_i(t, y_i) g_i + h, so its pairing with a family is
    dt sum_i sum_{k<K} fbar_i(t_k, y_{i,k}) <g_i, m_k> + <h, m>, and the
    gain is dt sum_i sum_{k<K} fbar_i(t_k, y_{a,i,k}) (y_{b,i,k} - y_{a,i,k})
    + (H_b - H_a), in O(K).  Sums are numpy's, with no BLAS call.  When b
    is a best response to a, this is a's exploitability.
    """
    if a.family.masses.shape != b.family.masses.shape:
        raise ShapeMismatch("families must share a shape")
    grid = a.family.grid
    K = a.family.K
    t = grid.t[:K]
    total = 0.0
    for (fbar, _), y, y_b in zip(spec.terms, a.ys, b.ys):
        total += grid.dt * float(np.sum(fbar.f_bar(t, y[:K]) * (y_b[:K] - y[:K])))
    return total + (b.H - a.H)

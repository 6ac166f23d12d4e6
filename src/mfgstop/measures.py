"""Families of sub-probability measures on the grid and their algebra.

A measure family assigns nonnegative masses to interior nodes at every
time slice.  Admissibility means the family is dominated slice-by-slice
by the transition chain started from the initial measure: mass can only
be removed (by stopping or absorption), never created.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .model_core import (
    _BLOCK,
    CoefficientFn,
    InitialMeasure,
    SpaceTimeGrid,
    TransitionOperator,
    _row_blocks,
)

__all__ = [
    "MeasureFamily",
    "AdmissibilityReport",
    "is_admissible",
    "moment",
    "pair",
    "convex_combine",
]

_NEG_TOL = 1e-10


def _block_sum(term, lo: int, hi: int) -> float:
    """np.add.reduce(term(lo, hi)), bit for bit, with no array longer
    than _BLOCK.

    term(i, j) returns elements i..j-1 of a 1-D array of summands.
    numpy sums a contiguous array pairwise: it halves a range, rounding
    the split down to a multiple of 8, until a range has at most 128
    elements (Higham, SIAM J. Sci. Comput. 14, 1993).  This recursion
    makes the same splits and hands ranges of at most _BLOCK elements to
    numpy, so it builds the same tree of additions.  It is a module
    function, not a closure over itself: a self-referencing closure is a
    reference cycle that keeps its arrays alive until the cyclic
    collector runs.
    """
    n = hi - lo
    if n <= _BLOCK:
        return np.add.reduce(term(lo, hi))
    half = n // 2
    half -= half % 8
    return _block_sum(term, lo, lo + half) + _block_sum(term, lo + half, hi)


@dataclass
class MeasureFamily:
    """Masses on interior nodes per time slice, shape (K+1, J) of its grid.

    Slice totals never exceed the initial total; masses are nonnegative.
    The grid gives the moments their nodes and the pairing its dt.
    """

    masses: np.ndarray
    grid: SpaceTimeGrid
    validate: bool = True

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != self.grid.shape:
            raise ShapeMismatch(
                f"measure family has shape {m.shape}, its grid {self.grid.shape}")
        self.masses = m
        if self.validate:
            if not np.all(np.isfinite(m)):
                raise ValidationError("measure family has non-finite entries")
            if m.min() < -_NEG_TOL:
                raise ValidationError(
                    f"measure family has negative mass {m.min():.3e}"
                )

    @property
    def K(self) -> int:
        return self.masses.shape[0] - 1

    @property
    def J(self) -> int:
        return self.masses.shape[1]

    def slice_totals(self) -> np.ndarray:
        return self.masses.sum(axis=1)

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid) -> "MeasureFamily":
        return cls(np.zeros(grid.shape), grid, validate=False)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    worst_violation: float
    where: tuple
    kind: str

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(m: MeasureFamily, m0: InitialMeasure, P: TransitionOperator,
                  tol: float = 1e-10) -> AdmissibilityReport:
    """Check m >= 0, m_0 <= m0, and m_{k+1} <= P_k^T m_k, all within tol.

    Returns a report carrying the worst violation and its location; the
    report is truthy iff the family is admissible.
    """
    A = m.masses
    if A.shape != (P.K + 1, P.n) or len(m0.masses) != P.n:
        raise ShapeMismatch(
            f"family shape {A.shape} incompatible with K={P.K}, J={P.n}"
        )
    worst, where, kind = 0.0, (), "none"

    neg = -A.min()
    if neg > worst:
        idx = np.unravel_index(np.argmin(A), A.shape)
        worst, where, kind = float(neg), tuple(int(i) for i in idx), "negative_mass"

    excess0 = A[0] - m0.masses
    if excess0.max() > worst:
        j = int(np.argmax(excess0))
        worst, where, kind = float(excess0.max()), (0, j), "initial_bound"

    # the largest chain excess and its first (k, j) in row-major order,
    # as np.argmax over the whole (K, J) excess would find them: the
    # blocks come in order, so a tie keeps the earlier block's node
    top, at = -np.inf, None
    for steps, pushed in P.adjoint_blocks(A[:-1]):
        excess = A[1:][steps] - pushed
        excess[np.isnan(excess)] = np.inf  # NaN compares false; count it as unbounded
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        if at is None or excess[i, j] > top:
            top, at = excess[i, j], (int(steps.start + i), int(j))
    if top > worst:
        worst, where, kind = float(top), (at[0] + 1, at[1]), "chain_bound"

    return AdmissibilityReport(ok=bool(worst <= tol), worst_violation=worst,
                               where=where, kind=kind)


def moment(m: MeasureFamily, g: CoefficientFn) -> np.ndarray:
    """Integrate a coupling function against each slice, shape (K+1,).

    Each slice's contributions are summed by numpy's row reduction, with
    no BLAS call, so the result depends only on the masses and g and
    repeats bit for bit.  Rows go a block at a time, which sums each
    row as the whole-family reduction does.
    """
    A = m.masses
    gx = g(m.grid.x)
    out = np.empty(A.shape[0])
    for rows in _row_blocks(*A.shape):
        out[rows] = np.add.reduce(A[rows] * gx, axis=1)
    return out


def pair(f_grid: np.ndarray, m: MeasureFamily) -> float:
    """Left-endpoint pairing sum_{k<K} dt * <f(t_k, .), m_k>, dt of m's grid.

    The final slice carries no dt weight, which makes this pairing the
    exact linear-programming objective dual to the backward recursion.
    The sum is np.sum(f[:K] * m[:K]) bit for bit, without the product
    grid.
    """
    f = np.asarray(f_grid, dtype=float)
    if f.shape != m.masses.shape:
        raise ShapeMismatch(f"reward grid {f.shape} vs family {m.masses.shape}")
    K = m.K
    a, b = np.ravel(f[:K]), np.ravel(m.masses[:K])
    return float(m.grid.dt * _block_sum(lambda i, j: a[i:j] * b[i:j], 0, a.size))


def convex_combine(m1: MeasureFamily, m2: MeasureFamily, rho: float) -> MeasureFamily:
    """Componentwise (1 - rho) * m1 + rho * m2 for rho in [0, 1].

    rho * m2 is added a block of rows at a time, so the only full grid
    made is the result.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValidationError(f"rho must lie in [0, 1], got {rho}")
    if m1.masses.shape != m2.masses.shape:
        raise ShapeMismatch("families must share a shape")
    out = (1.0 - rho) * m1.masses
    for rows in _row_blocks(*out.shape):
        out[rows] += rho * m2.masses[rows]
    return MeasureFamily(out, m1.grid, validate=False)

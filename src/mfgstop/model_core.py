"""Grid, coefficient catalog, diffusion model, and transition operators.

The continuous object is a one-dimensional diffusion on an open interval
(a, b) with absorbing endpoints, observed on a uniform space-time grid.
Time steps use an implicit Euler resolvent of the upwind finite-difference
generator, which yields a nonnegative sub-stochastic transition matrix per
step without any time-step restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    DegenerateGrid,
    EllipticityViolation,
    EmptyDomain,
    MissingDerivative,
    NonPositiveHorizon,
    RhoOutOfRange,
    ShapeMismatch,
    SingularSystem,
    ValidationError,
)

__all__ = [
    "SpaceTimeGrid",
    "build_grid",
    "CoefficientFn",
    "ProductField",
    "DiffusionModel",
    "Tridiagonal",
    "discretize_generator",
    "TransitionSlice",
    "TransitionOperator",
    "build_transition_operator",
    "InitialMeasure",
    "fold_reward",
]


# ----------------------------------------------------------------------
# grid

@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [0, T] x (a, b).

    Interior nodes sit at x_j = a + j*dx for j = 1..J with
    dx = (b - a)/(J + 1); the endpoints x_0 = a and x_{J+1} = b are
    absorbing and carry no mass.  Time nodes are t_k = k*dt, dt = T/K.
    """

    T: float
    a: float
    b: float
    K: int
    J: int

    @property
    def dt(self) -> float:
        return self.T / self.K

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.J + 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Interior space nodes, shape (J,)."""
        return self.a + self.dx * np.arange(1, self.J + 1)

    @cached_property
    def t(self) -> np.ndarray:
        """Time nodes, shape (K+1,)."""
        return self.dt * np.arange(self.K + 1)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a grid function over all time slices: (K+1, J)."""
        return (self.K + 1, self.J)


def build_grid(T: float, a: float, b: float, K: int, J: int) -> SpaceTimeGrid:
    """Validate parameters and construct a :class:`SpaceTimeGrid`.

    Raises
    ------
    NonPositiveHorizon
        if T <= 0.
    EmptyDomain
        if b <= a.
    DegenerateGrid
        if K < 1 or J < 2.
    """
    if not (T > 0):
        raise NonPositiveHorizon(f"horizon must be positive, got T={T}")
    if not (b > a):
        raise EmptyDomain(f"domain must satisfy a < b, got a={a}, b={b}")
    if K < 1 or J < 2:
        raise DegenerateGrid(f"need K >= 1 and J >= 2, got K={K}, J={J}")
    return SpaceTimeGrid(T=float(T), a=float(a), b=float(b), K=int(K), J=int(J))


# ----------------------------------------------------------------------
# coefficient catalog

class CoefficientFn:
    """Scalar coefficient function from a small closed catalog.

    Kinds: constant, affine, polynomial, gaussian_bump, cosine_bump,
    tabulated.  All kinds evaluate at arbitrary points; all except
    tabulated also carry analytic first and second derivatives.
    """

    KINDS = ("constant", "affine", "polynomial", "gaussian_bump",
             "cosine_bump", "tabulated")

    def __init__(self, kind, params, nodes=None):
        if kind not in self.KINDS:
            raise ValidationError(f"unknown coefficient kind {kind!r}")
        params = tuple(float(p) for p in params)
        if kind == "affine" and len(params) != 2:
            raise ValidationError("affine needs params (c0, c1)")
        if kind == "constant" and len(params) != 1:
            raise ValidationError("constant needs a single parameter")
        if kind in ("gaussian_bump", "cosine_bump"):
            if len(params) != 3:
                raise ValidationError(f"{kind} needs params (amp, center, width)")
            if params[2] <= 0:
                raise ValidationError(f"{kind} width must be positive")
        if kind == "polynomial" and len(params) == 0:
            raise ValidationError("polynomial needs at least one coefficient")
        if kind == "tabulated":
            if nodes is None or len(nodes) != len(params) or len(params) < 2:
                raise ValidationError("tabulated needs matching nodes and values")
            nodes = np.asarray(nodes, dtype=float)
            if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
                raise ValidationError("tabulated nodes must be finite and strictly increasing")
        self.kind = kind
        self.params = params
        self.nodes = nodes

    # constructors

    @classmethod
    def constant(cls, c):
        return cls("constant", (c,))

    @classmethod
    def affine(cls, c0, c1):
        return cls("affine", (c0, c1))

    @classmethod
    def polynomial(cls, *coeffs):
        return cls("polynomial", coeffs)

    @classmethod
    def gaussian_bump(cls, amp, center, width):
        return cls("gaussian_bump", (amp, center, width))

    @classmethod
    def cosine_bump(cls, amp, center, halfwidth):
        return cls("cosine_bump", (amp, center, halfwidth))

    @classmethod
    def tabulated(cls, nodes, values):
        return cls("tabulated", values, nodes=nodes)

    # evaluation

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        k, p = self.kind, self.params
        if k == "constant":
            return np.full_like(z, p[0])
        if k == "affine":
            return p[0] + p[1] * z
        if k == "polynomial":
            return np.polynomial.polynomial.polyval(z, p)
        if k == "gaussian_bump":
            amp, c, w = p
            u = (z - c) / w
            return amp * np.exp(-0.5 * u * u)
        if k == "cosine_bump":
            amp, c, w = p
            u = np.pi * (z - c) / (2.0 * w)
            out = amp * np.cos(np.clip(u, -np.pi / 2, np.pi / 2)) ** 2
            return np.where(np.abs(u) < np.pi / 2, out, 0.0)
        return np.interp(z, self.nodes, p)

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        k, p = self.kind, self.params
        if k == "constant":
            return np.zeros_like(z)
        if k == "affine":
            return np.full_like(z, p[1])
        if k == "polynomial":
            d = np.polynomial.polynomial.polyder(p)
            return np.polynomial.polynomial.polyval(z, d)
        if k == "gaussian_bump":
            amp, c, w = p
            u = (z - c) / w
            return -amp * u / w * np.exp(-0.5 * u * u)
        if k == "cosine_bump":
            amp, c, w = p
            u = np.pi * (z - c) / (2.0 * w)
            out = -amp * np.sin(2.0 * np.clip(u, -np.pi / 2, np.pi / 2)) * np.pi / (2.0 * w)
            return np.where(np.abs(u) < np.pi / 2, out, 0.0)
        raise MissingDerivative("tabulated coefficients have no analytic derivative")

    def deriv2(self, z):
        z = np.asarray(z, dtype=float)
        k, p = self.kind, self.params
        if k in ("constant", "affine"):
            return np.zeros_like(z)
        if k == "polynomial":
            d2 = np.polynomial.polynomial.polyder(p, 2)
            return np.polynomial.polynomial.polyval(z, d2)
        if k == "gaussian_bump":
            amp, c, w = p
            u = (z - c) / w
            return amp * (u * u - 1.0) / (w * w) * np.exp(-0.5 * u * u)
        if k == "cosine_bump":
            amp, c, w = p
            u = np.pi * (z - c) / (2.0 * w)
            out = -amp * np.cos(2.0 * np.clip(u, -np.pi / 2, np.pi / 2)) * np.pi ** 2 / (2.0 * w * w)
            return np.where(np.abs(u) < np.pi / 2, out, 0.0)
        raise MissingDerivative("tabulated coefficients have no analytic derivative")

    def __repr__(self):
        return f"CoefficientFn({self.kind}, params={self.params})"


@dataclass(frozen=True)
class ProductField:
    """Separable space-time field c(t, x) = time(t) * space(x).

    A missing time factor means the field is constant in time.
    """

    space: CoefficientFn
    time: CoefficientFn | None = None

    @property
    def time_constant(self) -> bool:
        return self.time is None or self.time.kind == "constant"

    def time_factor(self, t):
        if self.time is None:
            return np.ones_like(np.asarray(t, dtype=float))
        return self.time(t)

    def __call__(self, t, x):
        if self.time is None:
            return self.space(x)  # the same bits as 1.0 * space(x)
        return self.time_factor(t) * self.space(x)

    def on_grid(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Evaluate on every (t_k, x_j) node, shape (K+1, J)."""
        return np.outer(self.time_factor(grid.t), self.space(grid.x))

    def corners(self, grid: SpaceTimeGrid) -> np.ndarray:
        """on_grid's products of the least and largest time and space
        factors, shape (2, 2); see DiffusionModel.validate_on_grid."""
        a, s = self.time_factor(grid.t), self.space(grid.x)
        return np.outer([a.min(), a.max()], [s.min(), s.max()])

    def dt_on_grid(self, grid: SpaceTimeGrid) -> np.ndarray:
        if self.time is None:
            return np.zeros(grid.shape)
        return np.outer(self.time.deriv(grid.t), self.space(grid.x))

    def dx_on_grid(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.outer(self.time_factor(grid.t), self.space.deriv(grid.x))

    def dxx_on_grid(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.outer(self.time_factor(grid.t), self.space.deriv2(grid.x))


# ----------------------------------------------------------------------
# model

@dataclass(frozen=True)
class DiffusionModel:
    """Drift and diffusion coefficients of the controlled-by-stopping state.

    sigma must stay above sigma_min on the whole grid (uniform
    ellipticity); drift can have either sign and is handled by upwinding.
    """

    mu: ProductField
    sigma: ProductField
    sigma_min: float = 1e-8

    @property
    def time_constant(self) -> bool:
        return self.mu.time_constant and self.sigma.time_constant

    def validate_on_grid(self, grid: SpaceTimeGrid) -> None:
        """Check sigma and mu on_grid from their factors, in O(K + J).

        A field's grid holds fl(a_k * s_j) for its time factors a and space
        factors s.  The exact products over [a_min, a_max] x [s_min, s_max]
        reach their least value and largest magnitude at the corners, which
        are nodes, and rounding is monotone (x <= y gives fl(x) <= fl(y);
        Higham, Accuracy and Stability of Numerical Algorithms, sec. 2.1).
        So the grid's minimum is the least of the four corners, and the
        grid is all finite exactly when they are: min and max carry a NaN
        or inf factor into a corner, and inf * 0 is NaN.  Verdicts and
        messages are the grid's; a zero minimum that the grid holds as both
        +0 and -0 may print with either sign, as np.min on the grid may.
        """
        sig = self.sigma.corners(grid)
        if not np.all(np.isfinite(sig)):
            raise ValidationError("sigma is not finite on the grid")
        if sig.min() < self.sigma_min:
            raise EllipticityViolation(
                f"sigma drops below sigma_min={self.sigma_min} on the grid "
                f"(min={sig.min():.3g})"
            )
        if not np.all(np.isfinite(self.mu.corners(grid))):
            raise ValidationError("mu is not finite on the grid")


# ----------------------------------------------------------------------
# generator discretization

@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix stored as bands: lower (n-1,), diag (n,), upper (n-1,)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.lower) != max(n - 1, 0) or len(self.upper) != max(n - 1, 0):
            raise ShapeMismatch("band lengths must be n-1, n, n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    def toarray(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.lower, -1) + np.diag(self.upper, 1)
        return a

    def row_sums(self) -> np.ndarray:
        return _band_row_sums(self.lower, self.diag, self.upper)


def _band_row_sums(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Row sums of a tridiagonal matrix from its bands, or of each matrix
    of a stack of them along axis 0."""
    s = diag.copy()
    s[..., 1:] += lower
    s[..., :-1] += upper
    return s


def discretize_generator(model: DiffusionModel, grid: SpaceTimeGrid, k: int) -> Tridiagonal:
    """Upwind finite-difference generator at time t_k with absorbing endpoints.

    Diffusion uses the centered second difference sigma^2/(2 dx^2); drift
    uses the one-sided difference pointing in the direction of mu, which
    keeps off-diagonal entries nonnegative.  Rows adjacent to the domain
    boundary simply drop the off-grid neighbor (Dirichlet absorption), so
    every row sum is <= 0 and strictly negative in those rows.  This is
    the one-row case of _generator_rows.
    """
    if not (0 <= k <= grid.K):
        raise ValidationError(f"time index {k} outside 0..{grid.K}")
    lower, diag, upper = _generator_rows(model, grid, np.array([k]))
    return Tridiagonal(lower=lower[0], diag=diag[0], upper=upper[0])


def _generator_rows(model: DiffusionModel, grid: SpaceTimeGrid, ks: np.ndarray):
    """Bands (lower, diag, upper) of discretize_generator at each time
    index in ks, one row per index: shapes (r, J-1), (r, J), (r, J-1).

    sigma and mu are evaluated once for all rows; time(t) * space(x)
    rounds as it does at a single t, so each row has the bits of its own
    discretize_generator call.
    """
    t = grid.t[ks]
    x, dx = grid.x, grid.dx
    shape = (len(t), grid.J)
    mu = np.broadcast_to(np.asarray(model.mu(t[:, None], x), dtype=float), shape)
    sig = np.broadcast_to(np.asarray(model.sigma(t[:, None], x), dtype=float), shape)
    low = np.any(sig < model.sigma_min, axis=1)
    if low.any():
        raise EllipticityViolation(
            f"sigma below sigma_min={model.sigma_min} at t={t[low.argmax()]}"
        )
    diff = sig * sig / (2.0 * dx * dx)
    up = np.maximum(mu, 0.0) / dx
    down = np.maximum(-mu, 0.0) / dx
    diag = -2.0 * diff - up - down
    return diff[:, 1:] + down[:, 1:], diag, diff[:, :-1] + up[:, :-1]


# ----------------------------------------------------------------------
# transition operator

_ROWSUM_TOL = 1e-12
# Elements per block of time rows when an operator's slices are built
# together; larger blocks build faster but raise the build's peak memory.
_BUILD_BLOCK = 1 << 12


def _step_bands(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dt: float):
    """Certify A from its bands and return (lower, diag, upper, symmetric)
    of M = I - dt*A, where symmetric says A.lower equals A.upper.

    The bands hold one generator, or one per row of a stack along axis 0.
    Every row must have off-diagonals >= 0 and 1 - dt*rowsum(A) > 0, each
    comparison failing on NaN (see TransitionSlice); the first row that
    does not raises ValidationError, with the off-diagonal test first.
    """
    off = np.all(lower >= 0.0, axis=-1) & np.all(upper >= 0.0, axis=-1)
    pos = np.all(1.0 - dt * _band_row_sums(lower, diag, upper) > 0.0, axis=-1)
    ok = np.ravel(off & pos)
    if not ok.all():
        if not np.ravel(off)[ok.argmin()]:
            raise ValidationError(
                "generator has a negative or NaN off-diagonal; "
                "A is not a valid absorbing generator")
        raise ValidationError(
            "I - dt*A has a row sum that is not positive; "
            "A is not a valid absorbing generator")
    return (-dt * lower, 1.0 - dt * diag, -dt * upper,
            np.all(lower == upper, axis=-1))


def _lapack(dtype) -> list:
    """pttrf, pttrs, gttrf, gttrs for M's dtype."""
    return get_lapack_funcs(("pttrf", "pttrs", "gttrf", "gttrs"), dtype=dtype)


class TransitionSlice:
    """One-step transition P = (I - dt*A)^{-1} applied via tridiagonal solves.

    A must be an upwind generator band triple.  Construction certifies P
    from the bands: A's off-diagonals are >= 0 and 1 - dt*rowsum(A) > 0,
    so M = I - dt*A is a Z-matrix with positive row sums, hence a
    nonsingular M-matrix, and P = M^{-1} is entrywise nonnegative (Berman
    & Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6).
    One solve of P 1 then holds the row sums of P to <= 1.  Every
    comparison fails on NaN.  The slice keeps only what its solves read:
    LAPACK's factors of M, or M's bands for n <= 2; A itself is not kept.
    apply/apply_adjoint solve the factored system; dense() solves against
    the identity on demand, for small oracles, and is never kept.

    For n > 2 the bands pick the factorization.  When A.lower equals
    A.upper elementwise (as with zero drift and sigma constant in x), M is
    symmetric, and with the certificate's positive diagonal and strict
    diagonal dominance it is positive definite: LAPACK's LDL^T
    (pttrf/pttrs) factors it, P is symmetric and apply_adjoint runs the
    same solve as apply.  Any other A takes the LU factorization
    (gttrf/gttrs).  n <= 2 has closed forms.

    The certificate and M's bands come from _step_bands, which also
    certifies a stack of generators in one pass; build_transition_operator
    builds a time-dependent operator's slices that way, a block of time
    steps at a time, and factors each row as this constructor factors
    its one row, so each slice has the same bits either way.
    """

    def __init__(self, A: Tridiagonal, dt: float):
        if not dt > 0:
            raise ValidationError(f"dt must be positive, got {dt}")
        m_lower, m_diag, m_upper, symmetric = _step_bands(A.lower, A.diag, A.upper, dt)
        self._factorize(m_lower, m_diag, m_upper, symmetric, _lapack(m_diag.dtype))

    def _factorize(self, m_lower, m_diag, m_upper, symmetric, lapack) -> None:
        """Factor M from its certified bands and hold P 1 <= 1 + _ROWSUM_TOL."""
        self.n = len(m_diag)
        if self.n <= 2:
            # only the closed forms keep M's bands; copies, so that a row
            # of a block does not keep the block alive
            self._m_lower, self._m_diag, self._m_upper = (
                np.array(m_lower), np.array(m_diag), np.array(m_upper))
        if self.n == 2:
            # LAPACK's gttrf wrapper rejects n=2; Cramer is exact here
            self._det = m_diag[0] * m_diag[1] - m_upper[0] * m_lower[0]
            if self._det == 0.0:
                raise SingularSystem("2x2 step matrix is singular")
        elif self.n > 2:
            pttrf, pttrs, gttrf, gttrs = lapack
            self._symmetric = bool(symmetric)
            # the wrappers copy their inputs, so the factors own their memory
            if self._symmetric:
                self._trs = pttrs
                *self._factor, info = pttrf(m_diag, m_lower)
            else:
                self._trs = gttrs
                *self._factor, info = gttrf(m_lower, m_diag, m_upper)
            if info != 0:
                raise SingularSystem(f"tridiagonal factorization failed (info={info})")
        top = self.row_sums().max()
        if not top <= 1.0 + _ROWSUM_TOL:
            raise ValidationError(
                f"transition row sum exceeds 1: {top:.17g}; "
                "A is not a valid absorbing generator"
            )

    def _solve(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ShapeMismatch(f"rhs length {rhs.shape[0]} != {self.n}")
        if self.n == 1:
            return rhs / self._m_diag[0]
        if self.n == 2:
            d0, d1 = self._m_diag
            lo, up = self._m_lower[0], self._m_upper[0]
            if trans == "T":
                lo, up = up, lo
            return np.stack([(d1 * rhs[0] - up * rhs[1]) / self._det,
                             (d0 * rhs[1] - lo * rhs[0]) / self._det])
        if self._symmetric:
            x, info = self._trs(*self._factor, rhs)
        else:
            x, info = self._trs(*self._factor, rhs, trans=trans)
        if info != 0:
            raise SingularSystem(f"tridiagonal solve failed (info={info})")
        return x

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P @ v (backward pass: expectation of next-slice values)."""
        return self._solve(v, "N")

    def apply_adjoint(self, m: np.ndarray) -> np.ndarray:
        """P^T @ m (forward pass: push a mass vector one step)."""
        return self._solve(m, "T")

    def dense(self) -> np.ndarray:
        """P as a dense n x n array, solved afresh on every call."""
        return self._solve(np.eye(self.n), "N")

    def row_sums(self) -> np.ndarray:
        return self.apply(np.ones(self.n))


# Elements per block of a whole-grid computation done a block at a time:
# a block's temporaries stay near 128 KiB at every grid size.
_BLOCK = 1 << 14


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive runs of rows covering range(n_rows), about _BLOCK
    elements each.

    Every run but the last has a multiple of 8 rows, so a BLAS
    matrix-vector kernel that handles rows in groups of 4 or 8 groups
    them the same way in a run as in the whole array.  A threaded BLAS
    call on the whole array that gives each thread a share of rows not a
    multiple of 4 groups them otherwise (OpenBLAS splits the rows
    evenly), and then its last bits depend on the thread count anyway.
    """
    step = max(8, _BLOCK // max(n_cols, 1) // 8 * 8)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


class TransitionOperator:
    """Per-step transitions P_k, k = 0..K-1: steps[k] is P_k itself.

    Steps may share one slice object, as every step of a time-homogeneous
    model does; slices lists the distinct ones in order of first use.
    The whole-family pushes go through maximal runs of consecutive steps
    that share a slice, one multi-column solve per run and block of
    about _BLOCK elements.  gttrs and pttrs solve each right-hand side on
    its own, so a row's result does not depend on the block.  The grid
    is the one every consumer reads dt, t and x from; the operator has
    one step per time step of it and one node per interior node.
    """

    def __init__(self, steps, grid: SpaceTimeGrid):
        self.steps = list(steps)
        if len(self.steps) != grid.K:
            raise ShapeMismatch(f"{len(self.steps)} steps, the grid K={grid.K}")
        if any(s.n != grid.J for s in self.steps):
            raise ShapeMismatch(f"a step does not have the grid's J={grid.J} nodes")
        self.grid = grid
        self.slices = list(dict.fromkeys(self.steps))
        # (slice, a block of a run of steps using it); every block is a
        # slice of consecutive steps, so rows[steps] is a view
        self._blocks = []
        runs = cache(lambda n: _row_blocks(n, grid.J))  # one list per run length
        start = 0
        for k in range(1, grid.K + 1):
            if k == grid.K or self.steps[k] is not self.steps[start]:
                self._blocks += [(self.steps[start], slice(start + b.start, start + b.stop))
                                 for b in runs(k - start)]
                start = k

    @property
    def K(self) -> int:
        return self.grid.K

    @property
    def n(self) -> int:
        return self.grid.J

    def _rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (self.K, self.n):
            raise ShapeMismatch(f"rows have shape {rows.shape}, expected {(self.K, self.n)}")
        return rows

    def apply_each(self, rows: np.ndarray) -> np.ndarray:
        """Row k is P_k @ rows[k], for k < K; rows has shape (K, n)."""
        rows = self._rows(rows)
        out = np.empty_like(rows)
        for s, steps in self._blocks:
            out[steps] = s.apply(rows[steps].T).T
        return out

    def adjoint_blocks(self, rows: np.ndarray):
        """Iterate over (steps, pushed): pushed[i] is P_k^T @ rows[k] for
        k = steps.start + i, a block of about _BLOCK elements.

        The blocks are slices that cover every k < K once and in order,
        without holding a (K, n) result.
        """
        rows = self._rows(rows)
        return ((steps, s.apply_adjoint(rows[steps].T).T) for s, steps in self._blocks)


def build_transition_operator(model: DiffusionModel, grid: SpaceTimeGrid) -> TransitionOperator:
    """Assemble all per-step transitions for a model on a grid.

    Coefficients are sampled at the left endpoint t_k of each step.  A
    time-homogeneous model has one slice, shared by every step.  A
    time-dependent model has one slice per step, built by
    _generator_slices a block of steps at a time; each is bit for bit
    TransitionSlice(discretize_generator(model, grid, k), grid.dt).
    """
    model.validate_on_grid(grid)
    dt = grid.dt
    if model.time_constant:
        return TransitionOperator(
            [TransitionSlice(discretize_generator(model, grid, 0), dt)] * grid.K, grid)
    return TransitionOperator(_generator_slices(model, grid, np.arange(grid.K), dt), grid)


def _generator_slices(model: DiffusionModel, grid: SpaceTimeGrid, ks: np.ndarray,
                      dt: float) -> list[TransitionSlice]:
    """TransitionSlice(discretize_generator(model, grid, k), dt) for each k
    in ks, with the same bits and errors, built a block at a time.

    A block is a run of ks of at most _BUILD_BLOCK elements (one row if
    J is larger).  Its bands and certificate are one numpy pass each;
    then each row is factored with LAPACK functions looked up once, and
    each slice checks its own P 1 through row_sums(), as the constructor
    does.  A block with a bad row raises that row's error.
    """
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    rows = max(1, _BUILD_BLOCK // grid.J)
    lapack = _lapack(np.float64)  # _generator_rows' bands are float64
    slices = []
    for r0 in range(0, len(ks), rows):
        slices += _block_slices(model, grid, ks[r0:r0 + rows], dt, lapack)
    return slices


def _block_slices(model, grid, ks, dt, lapack) -> list[TransitionSlice]:
    """The slices of one block of _generator_slices; its band arrays die
    on return, before the next block's are made."""
    m_lower, m_diag, m_upper, symmetric = _step_bands(*_generator_rows(model, grid, ks), dt)
    slices = []
    for i in range(len(ks)):
        s = TransitionSlice.__new__(TransitionSlice)
        s._factorize(m_lower[i], m_diag[i], m_upper[i], symmetric[i], lapack)
        slices.append(s)
    return slices


# ----------------------------------------------------------------------
# initial measure

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class InitialMeasure:
    """Nonnegative masses on interior nodes summing to one."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.ndim != 1:
            raise ShapeMismatch("initial measure must be a vector")
        if not np.all(np.isfinite(m)):
            raise ValidationError("initial measure has non-finite mass")
        if m.min() < 0:
            raise ValidationError(f"initial measure has negative mass {m.min():.3e}")
        if abs(m.sum() - 1.0) > _MASS_TOL:
            raise ValidationError(
                f"initial measure must sum to 1 within {_MASS_TOL}, got {m.sum():.17g}"
            )

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    @classmethod
    def uniform(cls, grid: SpaceTimeGrid) -> "InitialMeasure":
        return cls(np.full(grid.J, 1.0 / grid.J))

    @classmethod
    def atom(cls, grid: SpaceTimeGrid, x0: float) -> "InitialMeasure":
        if not (grid.a < x0 < grid.b):
            raise ValidationError(f"atom location {x0} outside ({grid.a}, {grid.b})")
        j = int(np.argmin(np.abs(grid.x - x0)))
        m = np.zeros(grid.J)
        m[j] = 1.0
        return cls(m)

    @classmethod
    def from_masses(cls, masses) -> "InitialMeasure":
        return cls(np.asarray(masses, dtype=float))


# ----------------------------------------------------------------------
# reward folding

def fold_reward(tilde_f: np.ndarray, g_vals: np.ndarray, g_dt: np.ndarray,
                g_dx: np.ndarray, g_dxx: np.ndarray, rho: float,
                model: DiffusionModel, grid: SpaceTimeGrid) -> np.ndarray:
    """Fold a discounted terminal reward into an equivalent running reward.

    Returns the grid of e^{-rho t} (tilde_f - rho g + dg/dt + mu dg/dx
    + sigma^2/2 d2g/dx2), which prices the same stopping problem with
    zero terminal reward and no discounting.  Derivative grids must be
    supplied by the caller (the coefficient catalog provides them in
    closed form).
    """
    if rho < 0 or not math.isfinite(rho):
        raise RhoOutOfRange(f"discount rate must be finite and >= 0, got {rho}")
    shape = grid.shape
    for name, arr in (("tilde_f", tilde_f), ("g_vals", g_vals), ("g_dt", g_dt),
                      ("g_dx", g_dx), ("g_dxx", g_dxx)):
        if np.shape(arr) != shape:
            raise ShapeMismatch(f"{name} has shape {np.shape(arr)}, expected {shape}")
    mu = model.mu.on_grid(grid)
    sig = model.sigma.on_grid(grid)
    gen_g = g_dt + mu * g_dx + 0.5 * sig * sig * g_dxx
    disc = np.exp(-rho * grid.t)[:, None]
    return disc * (np.asarray(tilde_f, dtype=float) - rho * np.asarray(g_vals, dtype=float) + gen_g)

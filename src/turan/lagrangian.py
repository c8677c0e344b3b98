"""Maximization of edge polynomials over the standard simplex.

:func:`maximize` takes a homogeneous polynomial with nonnegative
coefficients, such as a hypergraph's edge polynomial, whose maximum over the
simplex is its Lagrangian.  It first merges twin variables (p depends on a
twin class only through its sum), then runs the Baum–Eagon growth transform
x <- x * grad p / (x . grad p) on all starts at once, as one (starts, m)
batch; on such a polynomial every step raises the value with no step size
(Baum & Eagon 1967).  Near an optimum on a face the transform only shrinks
the vanishing coordinates geometrically (Bomze 1997), so at a few batch
steps the best rows with such a coordinate are finished by an active-set
Newton polish, kept only where it lands on an isolated KKT point no worse
than the row.  It is cross-checked against an exact-rational grid
enumeration; values that land near a small-denominator rational are snapped
and re-verified exactly.  Where a closed optimal set exists, it is
certified by exact segment evaluation rather than recomputed.  Each phase
logs what it did to the ``turan`` logger at DEBUG.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _grid
from .common import (
    AsymmetryError,
    Frozen,
    InvalidArgumentError,
    PreconditionError,
)
from .hypergraph import _check_pair
from .polynomial import MultilinearPoly, PolyKernel

#: Convergence target for the projected-gradient (KKT) residual.
DEFAULT_TOL = 1e-12
#: Largest denominator considered when snapping near-rational optima.
SNAP_DENOMINATOR = 10_000
#: How close a float optimum must be to a snapped rational to attempt it.
SNAP_WINDOW = 1e-7
#: The ascent stops once the best start has risen by at most
#: PLATEAU_RISE over PLATEAU_ITERATIONS batch iterations.
PLATEAU_RISE = 1e-15
PLATEAU_ITERATIONS = 50
#: At batch steps POLISH_EVERY, 2 POLISH_EVERY, 4 POLISH_EVERY, ..., up to
#: POLISH_ROWS of the best unconverged rows with a slowly decaying
#: coordinate get at most POLISH_STEPS active-set Newton steps (see
#: :func:`_polish`).
POLISH_EVERY = 25
POLISH_ROWS = 3
POLISH_STEPS = 10

_FLOAT_SUM_TOL = 1e-12
_ACTIVE_EPS = 1e-9
#: A coordinate below _DECAY_SMALL that the growth step shrinks decays;
#: it decays slowly when a step keeps more than _DECAY_SLOW of it.
_DECAY_SMALL = 0.05
_DECAY_SLOW = 0.9
#: A Newton step at most this long ends the search on the current face.
_NEWTON_SETTLED = 1e-9
#: Near an isolated root each Newton step is at most this fraction of the
#: one before (the error squares); near a non-isolated one it only halves.
_NEWTON_CONTRACTION = 0.25
#: A polished point's zero coordinates must have partials at least this far
#: below x . grad (strict complementarity), and its Hessian must be at least
#: this negative along its face, else it is no isolated local maximum.
_FACE_MARGIN = 1e-9

_log = logging.getLogger(__name__)


class SimplexPoint(Frozen):
    """A point of the standard simplex, in exact-rational or float mode.

    Exact points must have nonnegative Fraction/int coordinates summing to
    exactly 1.  Float points may be off by at most 1e-12 and are
    renormalized on construction.
    """

    __slots__ = ("coords", "exact")

    def __init__(self, coords: Sequence):
        values = list(coords)
        if not values:
            raise InvalidArgumentError("a simplex point needs at least one coordinate")
        if all(isinstance(v, Rational) and not isinstance(v, float) for v in values):
            fracs = tuple(Fraction(v) for v in values)
            if any(v < 0 for v in fracs):
                raise InvalidArgumentError("exact simplex coordinates must be >= 0")
            if sum(fracs) != 1:
                raise InvalidArgumentError(
                    f"exact simplex coordinates must sum to 1, got {sum(fracs)}"
                )
            object.__setattr__(self, "coords", fracs)
            object.__setattr__(self, "exact", True)
        else:
            arr = np.asarray(values, dtype=float)
            if np.any(arr < -_FLOAT_SUM_TOL):
                raise InvalidArgumentError("simplex coordinates must be >= 0")
            arr = np.clip(arr, 0.0, None)
            total = float(arr.sum())
            if abs(total - 1.0) > _FLOAT_SUM_TOL:
                raise InvalidArgumentError(
                    f"float simplex coordinates must sum to 1 within 1e-12, got {total}"
                )
            arr = arr / total
            object.__setattr__(self, "coords", tuple(float(v) for v in arr))
            object.__setattr__(self, "exact", False)

    @classmethod
    def uniform(cls, m: int) -> "SimplexPoint":
        if m < 1:
            raise InvalidArgumentError("uniform point needs m >= 1")
        return cls([Fraction(1, m)] * m)

    @classmethod
    def normalized(cls, values: Sequence) -> "SimplexPoint":
        """Exact point proportional to nonnegative rational ``values``."""
        fracs = [Fraction(v) for v in values]
        total = sum(fracs)
        if total <= 0:
            raise InvalidArgumentError("values must have positive sum")
        return cls([v / total for v in fracs])

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, k):
        return self.coords[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self.exact == other.exact and self.coords == other.coords

    def __hash__(self):
        return hash((self.exact, self.coords))

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"SimplexPoint({mode}, {self.coords!r})"

    def as_float_array(self) -> np.ndarray:
        return np.asarray([float(v) for v in self.coords], dtype=float)

    def as_fractions(self) -> tuple[Fraction, ...]:
        if not self.exact:
            raise InvalidArgumentError("not an exact simplex point")
        return self.coords


class GridResult(NamedTuple):
    value: Fraction
    point: SimplexPoint


@dataclass(frozen=True)
class MaximizeStats:
    """What one :func:`maximize` call did; deterministic for a fixed seed.

    ``twins_merged`` variables were merged into a twin of lower index
    before the solve, and the grid and the ascent ran on the merged
    polynomial: ``grid_points`` grid points at ``grid_resolution`` of the
    merged scan (the resolution is chosen from the unmerged variable
    count).  The batched ascent took ``iterations`` growth steps and
    stopped for ``stop_reason``: ``"tol"`` (every start's KKT residual
    within the tolerance), ``"plateau"`` (the best start stalled) or
    ``"cap"`` (``max_iter`` reached); ``starts_converged`` starts ended
    within the tolerance.  ``phase`` names what produced the reported
    value: ``"ascent"``, ``"polish"`` (a row the Newton polish finished),
    ``"grid"`` or ``"snap"``.  ``snap_denominator`` is the common
    denominator of the snapped maximizer, None when nothing snapped.  The
    zero polynomial scans no grid and takes no step.
    """

    grid_resolution: int
    grid_points: int
    iterations: int
    stop_reason: str
    starts_converged: int
    phase: str
    snap_denominator: Optional[int]
    twins_merged: int


@dataclass(frozen=True)
class LagrangianResult:
    """Output of :func:`maximize`.

    ``exact`` is set only when the snapped rational value was re-verified by
    exact evaluation at a snapped rational maximizer.  ``kkt_residual`` is,
    at the reported ``maximizer``, the largest deviation of an
    active-coordinate partial derivative from the common value
    x . grad(x), with inactive coordinates contributing only upward
    violations.  ``stats`` is not part of :meth:`to_json_dict`.
    """

    value: float
    exact: Optional[Fraction]
    maximizer: SimplexPoint
    kkt_residual: float
    starts_used: int
    grid_lower_bound: float
    stats: MaximizeStats

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "exact": str(self.exact) if self.exact is not None else None,
            "maximizer": [float(v) for v in self.maximizer],
            "kkt_residual": self.kkt_residual,
            "grid_lower_bound": self.grid_lower_bound,
        }


def _kkt_residuals(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The KKT residual of every row of X, given its gradient row in G."""
    deviation = G - np.einsum("ij,ij->i", X, G)[:, None]
    active = X > _ACTIVE_EPS
    # np.clip(d, 0.0, None) and .max(axis=1) call these ufuncs, so the bits,
    # the sign of a zero included, are theirs
    inactive = np.maximum(deviation, 0.0)
    return np.maximum.reduce(np.where(active, np.abs(deviation), inactive), axis=1)


def _growth_step(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """One Baum–Eagon step x_i <- x_i g_i / (x . g) on every row.

    The polynomial is homogeneous with nonnegative coefficients (see
    :func:`maximize`), so at x >= 0 every g_i >= 0, exactly in floats too,
    and no row's value decreases.  A row with no growth direction stays.
    """
    W = X * G
    total = np.add.reduce(W, axis=1, keepdims=True)
    return np.divide(W, total, out=X.copy(), where=total > 0)


def _growth_ascent(kernel: PolyKernel, X: np.ndarray, tol: float, max_iter: int):
    """Growth steps on all rows of X until every row is a KKT point within
    ``tol``, the best row stalls, or ``max_iter`` steps.  At the polish
    steps, the points :func:`_polish` accepts replace their rows.

    Returns (points, values, steps taken, stop reason, rows within tol,
    mask of the rows that were polished).
    """
    best = -np.inf
    risen_at = 0
    polished = np.zeros(X.shape[0], dtype=bool)
    polish_at = POLISH_EVERY
    for it in range(max_iter + 1):
        F = kernel.values(X)
        G = kernel.gradients(X)
        residuals = _kkt_residuals(X, G)
        if it == polish_at:
            polish_at *= 2
            # the best rows outside tol with a slowly decaying coordinate
            _, slow = _decaying(X, G)
            rows = np.flatnonzero((residuals > tol) & slow.any(axis=1))
            rows = rows[np.argsort(-F[rows], kind="stable")[:POLISH_ROWS]]
            if rows.size:
                points, ok, steps = _polish(kernel, X[rows], F[rows], tol)
                if _log.isEnabledFor(logging.DEBUG):
                    _log.debug("polish at step %d: %d rows tried, %d accepted, faces of %s "
                               "coordinates, %d Newton steps", it, rows.size, int(ok.sum()),
                               (points[ok] > 0).sum(axis=1).tolist(), steps)
                if ok.any():
                    X[rows[ok]] = points[ok]
                    polished[rows[ok]] = True
                    # the next growth step must see the polished rows' gradients
                    F = kernel.values(X)
                    G = kernel.gradients(X)
                    residuals = _kkt_residuals(X, G)
        converged = residuals <= tol
        top = float(np.maximum.reduce(F))
        if top > best + PLATEAU_RISE:
            best, risen_at = top, it
        if np.logical_and.reduce(converged):
            reason = "tol"
        elif it - risen_at >= PLATEAU_ITERATIONS:
            reason = "plateau"
        elif it == max_iter:
            reason = "cap"
        else:
            X = _growth_step(X, G)
            continue
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("ascent: %d steps, stopped on %s, %d of %d rows within tol",
                       it, reason, int(converged.sum()), len(X))
        return X, F, it, reason, int(converged.sum()), polished


def _decaying(X: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates below _DECAY_SMALL that a growth step shrinks, and those
    of them it shrinks slowly.

    A growth step scales x_i by g_i / (x . g) (see :func:`_growth_step`); on
    a face optimum with g_i < x . g that factor stays below 1, so x_i only
    decays geometrically.  Above _DECAY_SLOW the decay takes hundreds of
    steps.  Returns two boolean masks shaped as X.
    """
    level = np.einsum("ij,ij->i", X, G)[:, None]
    rate = np.divide(G, level, out=np.ones_like(G), where=level > 0)
    decaying = (X < _DECAY_SMALL) & (rate < 1.0)
    return decaying, decaying & (rate > _DECAY_SLOW)


def _polish(kernel: PolyKernel, X: np.ndarray, F: np.ndarray, tol: float):
    """Active-set Newton from every row of X at once (Nocedal & Wright,
    *Numerical Optimization*, ch. 16).

    A row's face S starts as its support without the decaying coordinates.
    A step solves the KKT system of S for the step dx and the new
    multiplier mu,

        [H_SS  -1] [dx]   [     -g_S      ]
        [1^T    0] [mu] = [ 1 - sum_S x_i ],

    as one (m + 1)-square system per row, with an identity row for every
    coordinate outside S, and stops at the first coordinate that would go
    negative, dropping it from S.  After a step at most _NEWTON_SETTLED
    long, the coordinate outside S with the largest partial above
    x . g + tol joins S; with none, the row is finished.  A row is given up
    when a step is not finite or longer than _NEWTON_CONTRACTION times the
    one before on the same face (a singular system gives no finite step), and
    after POLISH_STEPS steps.

    Returns (points, ok, Newton steps): ok marks the finished rows that lie
    on the simplex, are KKT points within ``tol`` whose zero coordinates all
    have partials at least _FACE_MARGIN below x . g, are strict local
    maxima on their face (:func:`_concave_on_face`), and have values at
    least F.  Such a point is an isolated local maximum, which the growth
    step leaves in place.
    """
    Y = X.copy()
    count, m = Y.shape
    Y[_decaying(Y, kernel.gradients(Y))[0]] = 0.0
    face = Y > 0.0
    last = np.full(count, np.inf)
    settled = np.zeros(count, dtype=bool)
    live = np.ones(count, dtype=bool)
    finished = np.zeros(count, dtype=bool)
    diagonal = np.arange(m)
    steps = 0
    while live.any() and steps < POLISH_STEPS:
        steps += 1
        rows = np.flatnonzero(live)
        x, f = Y[rows], face[rows]
        g, h = kernel.gradients(x), kernel.hessians(x)
        # a settled row is finished unless a partial outside S beats x . g,
        # and then the largest such coordinate joins S
        outside = np.where(f, -np.inf, g)
        enter = np.argmax(outside, axis=1)
        beats = outside[np.arange(rows.size), enter] > np.einsum("ij,ij->i", x, g) + tol
        done = settled[rows] & ~beats
        finished[rows[done]], live[rows[done]] = True, False
        joins = settled[rows] & beats
        f[joins, enter[joins]] = True
        last[rows[joins]] = np.inf
        rows, x, f, g, h = rows[~done], x[~done], f[~done], g[~done], h[~done]
        A = np.zeros((rows.size, m + 1, m + 1))
        A[:, :m, :m] = np.where(f[:, :, None] & f[:, None, :], h, 0.0)
        A[:, diagonal, diagonal] += ~f
        A[:, :m, m] = np.where(f, -1.0, 0.0)
        A[:, m, :m] = f
        b = np.append(np.where(f, -g, 0.0), 1.0 - (x * f).sum(axis=1, keepdims=True), axis=1)
        dx = _solve_each(A, b)[:, :m]
        length = np.abs(dx).max(axis=1)
        contracts = np.isfinite(length) & (length <= _NEWTON_CONTRACTION * last[rows])
        live[rows[~contracts]] = False
        # ratio test: the first coordinate to reach 0 ends the step and leaves S
        ratios = np.full(dx.shape, np.inf)
        np.divide(-x, dx, out=ratios, where=dx < 0)
        blocking = np.argmin(ratios, axis=1)
        reach = np.minimum(ratios[np.arange(rows.size), blocking], 1.0)
        x = np.clip(x + reach[:, None] * dx, 0.0, None)
        blocked = np.flatnonzero(reach < 1.0)
        x[blocked, blocking[blocked]] = 0.0
        f[blocked, blocking[blocked]] = False
        Y[rows], face[rows] = x, f
        last[rows] = length
        last[rows[blocked]] = np.inf
        settled[rows] = (length <= _NEWTON_SETTLED) & (reach == 1.0)
    rows = np.flatnonzero(finished)
    ok = np.zeros(count, dtype=bool)
    if rows.size:
        total = Y[rows].sum(axis=1)
        Y[rows] /= total[:, None]
        G = kernel.gradients(Y[rows])
        level = np.einsum("ij,ij->i", Y[rows], G)[:, None]
        complementary = np.where(Y[rows] > 0.0, True, G <= level - _FACE_MARGIN).all(axis=1)
        concave = [_concave_on_face(h, y) for h, y in zip(kernel.hessians(Y[rows]), Y[rows])]
        ok[rows] = (
            (np.abs(total - 1.0) <= _FLOAT_SUM_TOL)
            & (_kkt_residuals(Y[rows], G) <= tol)
            & complementary
            & concave
            & (kernel.values(Y[rows]) >= F[rows])
        )
    return Y, ok, steps


def _concave_on_face(h: np.ndarray, y: np.ndarray) -> bool:
    """Whether the Hessian h is negative definite, by more than _FACE_MARGIN,
    on the directions that keep y on its face of the simplex (a Cholesky
    factorization of the negated restriction exists); with strict
    complementarity that makes y a strict local maximum."""
    S = np.flatnonzero(y > 0.0)
    # the columns e_k - e_0, k >= 1, span the directions with sum 0 on S
    Z = np.eye(S.size)[:, 1:] - np.eye(S.size)[:, :1]
    try:
        np.linalg.cholesky(-Z.T @ h[np.ix_(S, S)] @ Z - _FACE_MARGIN * np.eye(S.size - 1))
    except np.linalg.LinAlgError:
        return False
    return True


def _solve_each(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A[k] y = b[k] for every k; a singular A[k] gives a NaN row."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for k, (a, v) in enumerate(zip(A, b)):
            try:
                out[k] = np.linalg.solve(a, v)
            except np.linalg.LinAlgError:
                pass
        return out


# ---------------------------------------------------------------------------
# grid oracle


def _auto_resolution(m: int, cap: int = 120_000) -> int:
    res = 1
    while res < 48 and _grid.composition_count(res + 1, m) <= cap:
        res += 1
    return res


def grid_oracle(
    poly: MultilinearPoly, resolution: int, budget: int | None = None
) -> GridResult:
    """Exact maximum of ``poly`` over the simplex grid with the given resolution.

    Grid points have coordinates k_i / resolution with sum k_i = resolution;
    the scan is :meth:`PolyKernel.scan`, exact in int64 or Python integers.
    """
    if poly.m < 1:
        raise InvalidArgumentError("grid oracle needs at least one variable")
    if resolution < 1:
        raise InvalidArgumentError(f"resolution must be >= 1, got {resolution}")
    best, row, scale = poly.kernel.scan(resolution, budget, "grid oracle")
    point = SimplexPoint([Fraction(k, resolution) for k in row])
    return GridResult(Fraction(best, scale), point)


# ---------------------------------------------------------------------------
# maximize


def maximize(
    poly: MultilinearPoly,
    starts: int | None = None,
    tol: float = DEFAULT_TOL,
    grid_resolution: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    max_iter: int = 2500,
) -> LagrangianResult:
    """Best-effort global maximum of ``poly`` over the standard simplex.

    ``poly`` must be homogeneous with nonnegative coefficients, as an edge
    polynomial is, or constant; any other polynomial raises
    PreconditionError, naming a negative term or two of its degrees.  Twin
    variables (see :meth:`MultilinearPoly.twin_classes`) are merged first;
    the maximizer puts each class's weight on its lowest member, and
    ``kkt_residual`` is computed there on ``poly`` itself.  Deterministic
    for a fixed seed: the first start is the uniform point and the rest are
    Dirichlet(1) samples.  All starts ascend together as one batch of
    growth-transform steps, with the polish (see the module docstring),
    until every start is a KKT point within ``tol``, the best start has
    stalled, or ``max_iter`` steps.  The reported value is the best
    start's or the exact grid enumeration's, whichever is higher; ties
    between starts break toward the lexicographically smallest coordinate
    vector.  A value near a small-denominator rational is snapped and
    reported in ``exact`` only when exact evaluation at a snapped point
    reproduces it.
    """
    if poly.m < 1:
        raise InvalidArgumentError("maximize needs at least one variable")
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")
    if max_iter < 0:
        raise InvalidArgumentError("max_iter must be >= 0")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    m = poly.m
    if starts is None:
        starts = max(50, 10 * m)
    if starts < 1:
        raise InvalidArgumentError("starts must be >= 1")
    # off this class the growth step can lower the value (see _growth_step)
    degrees = sorted({len(subset) for subset in poly.terms})
    if len(degrees) > 1:
        raise PreconditionError(
            f"maximize needs a homogeneous polynomial, got degrees {degrees[0]} and {degrees[-1]}"
        )
    negative = next((subset for subset, coef in poly.terms.items() if subset and coef < 0), None)
    if negative is not None:
        raise PreconditionError(
            f"maximize needs nonnegative coefficients, term {negative} has {poly.terms[negative]}"
        )

    if poly.is_zero():
        uniform = SimplexPoint.uniform(m)
        return LagrangianResult(
            value=0.0,
            exact=Fraction(0),
            maximizer=SimplexPoint(uniform.as_float_array().tolist()),
            kkt_residual=0.0,
            starts_used=0,
            grid_lower_bound=0.0,
            stats=MaximizeStats(0, 0, 0, "tol", 0, "ascent", None, 0),
        )

    # p depends on a twin class only through its sum: solve with one
    # variable per class, then put each class's weight on its lowest member
    keep = [members[0] for members in poly.twin_classes()]
    merged = poly if len(keep) == m else _merge_twins(poly, keep)
    size = merged.m
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("twins: %d variables in %d classes", m, size)

    resolution = grid_resolution if grid_resolution is not None else _auto_resolution(m)
    grid = grid_oracle(merged, resolution, budget=budget)
    grid_float = float(grid.value)
    grid_points = _grid.composition_count(resolution, size)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("grid: resolution %d, %d points, best %s", resolution, grid_points, grid.value)

    rng = np.random.default_rng(seed)
    uniform = np.full((1, size), 1.0 / size)
    X = np.vstack([uniform, rng.dirichlet(np.ones(size), size=starts - 1)])
    X = np.clip(X, 1e-300, None)
    X /= X.sum(axis=1, keepdims=True)
    X, F, iterations, stop_reason, converged, polished = _growth_ascent(
        merged.kernel, X, tol, max_iter
    )

    best = 0
    for k in range(1, starts):
        fx, best_f = F[k], F[best]
        tie = abs(fx - best_f) <= 1e-15 and tuple(X[k]) < tuple(X[best])
        if fx > best_f + 1e-15 or tie:
            best = k
    best_x = X[best]
    value = float(F[best])
    phase = "polish" if polished[best] else "ascent"
    maximizer = best_x.tolist()
    if grid_float > value:
        value, phase = grid_float, "grid"
        maximizer = grid.point.as_float_array().tolist()

    exact = None
    snap_denominator = None
    snapped, candidates, checked = _snap(merged, value, best_x)
    if snapped is None and Fraction(value).limit_denominator(SNAP_DENOMINATOR) == grid.value:
        # the grid point itself attains the snapped value exactly
        snapped = (grid.value, grid.point.as_fractions())
    if snapped is not None:
        exact, point = snapped
        if float(exact) > value:
            value, phase = float(exact), "snap"
        maximizer = [float(v) for v in point]
        snap_denominator = math.lcm(*(c.denominator for c in point))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("snap: %s, denominator %s, value from %s, %d candidates, %d checked exactly",
                   exact, snap_denominator, phase, candidates, checked)
    lifted = [0.0] * m
    for i, c in zip(keep, maximizer):
        lifted[i] = c
    maximizer = SimplexPoint(lifted)
    x = maximizer.as_float_array()[None]
    return LagrangianResult(
        value=value,
        exact=exact,
        maximizer=maximizer,
        kkt_residual=float(_kkt_residuals(x, poly.kernel.gradients(x))[0]),
        starts_used=starts,
        grid_lower_bound=grid_float,
        stats=MaximizeStats(
            grid_resolution=resolution,
            grid_points=grid_points,
            iterations=iterations,
            stop_reason=stop_reason,
            starts_converged=converged,
            phase=phase,
            snap_denominator=snap_denominator,
            twins_merged=m - size,
        ),
    )


def _merge_twins(poly: MultilinearPoly, keep: Sequence[int]) -> MultilinearPoly:
    """``poly`` on the variables ``keep`` (one per twin class, renumbered
    0, 1, ... in order), with every other variable set to 0."""
    index = {v: k for k, v in enumerate(keep)}
    return MultilinearPoly(
        len(keep),
        {
            tuple(index[i] for i in subset): coef
            for subset, coef in poly.terms.items()
            if all(i in index for i in subset)
        },
    )


def _snap(
    poly: MultilinearPoly, value: float, x: np.ndarray
) -> tuple[Optional[tuple[Fraction, tuple[Fraction, ...]]], int, int]:
    """Snap value and maximizer to small-denominator rationals and re-verify.

    Succeeds only when the exact evaluation at a snapped point reproduces
    the snapped value, so a successful snap is a certificate that the
    reported exact value is attained.  Candidate points: roundings to each
    common denominator up to 120 (catches structured optima even when a
    degenerate direction left individual coordinates unstructured), then a
    coordinatewise best-rational rounding.  With x >= 0, as every ascent
    row is, every candidate lies on the simplex, where a float value is
    within half the kernel's ``float_slack`` of the exact one; so each is
    scored in float first, and one farther than that slack from the snapped
    value cannot reproduce it and is not evaluated exactly.  Returns (the
    snapped value and point, or None; candidates scored; candidates
    evaluated exactly).
    """
    target = Fraction(value).limit_denominator(SNAP_DENOMINATOR)
    if abs(float(target) - value) > SNAP_WINDOW:
        return None, 0, 0
    kernel = poly.kernel

    def near(points: np.ndarray) -> np.ndarray:
        return np.abs(kernel.values(points) - float(target)) <= kernel.float_slack

    # row d - 1 rounds x to denominator d, as round(x_i * d) / d
    denoms = np.arange(1, 121)
    numerators = np.rint(x * denoms[:, None])
    points = numerators / denoms[:, None]
    rows = np.flatnonzero(
        (numerators.sum(axis=1) == denoms)
        & (numerators >= 0).all(axis=1)
        & (np.abs(points - x).max(axis=1) <= 0.5 / denoms + 1e-9)
    )
    checked = 0
    for row in rows[near(points[rows])]:
        coords = [Fraction(int(k), int(denoms[row])) for k in numerators[row]]
        checked += 1
        if poly.evaluate(coords) == target:
            return (target, tuple(coords)), rows.size, checked
    coords = [Fraction(float(c)).limit_denominator(SNAP_DENOMINATOR) for c in x]
    total = sum(coords)
    if total <= 0:
        return None, rows.size, checked
    coords = [c / total for c in coords]
    if near(np.array([[float(c) for c in coords]]))[0]:
        checked += 1
        if poly.evaluate(coords) == target:
            return (target, tuple(coords)), rows.size + 1, checked
    return None, rows.size + 1, checked


# ---------------------------------------------------------------------------
# symmetrization and segment certificates


def symmetrize_point(
    poly: MultilinearPoly, i: int, j: int, x: SimplexPoint
) -> SimplexPoint:
    """Replace coordinates i and j of the exact point ``x`` by their average.

    Requires ``poly`` symmetric in (i, j).  The value cannot decrease where
    the cross coefficient p3 is nonnegative; both values are computed
    exactly, and a decrease raises a precondition error.
    """
    if len(x) != poly.m:
        raise InvalidArgumentError("point dimension does not match polynomial")
    if not x.exact:
        raise PreconditionError("pair averaging needs an exact point")
    witness = poly.asymmetry_witness(i, j)
    if witness is not None:
        raise AsymmetryError(
            f"polynomial is not symmetric in X_{i}, X_{j}; witness term {witness}",
            witness=witness,
        )
    coords = list(x.coords)
    coords[i] = coords[j] = (coords[i] + coords[j]) / 2
    before, after = poly.kernel.rational_values([x.coords, coords])
    if after < before:
        raise PreconditionError(
            "averaging decreased the value; p3 is not nonnegative here"
        )
    return SimplexPoint(coords)


def _exact_derivatives(
    poly: MultilinearPoly, x: Sequence[Fraction], hessian: bool = False
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact partials of ``poly`` at the rational point ``x`` and, with
    ``hessian``, its second partials (else []), from one exact batch: p is
    affine in each coordinate, so a first partial is the difference of two
    values and a second partial the alternating sum of four, with the
    coordinates pinned to 1 and 0."""
    m = poly.m
    coords = list(x)

    def pinned(*pins: tuple[int, int]) -> list:
        point = coords[:]
        for k, v in pins:
            point[k] = v
        return point

    pairs = list(itertools.combinations(range(m), 2)) if hessian else []
    points = [pinned((k, v)) for k in range(m) for v in (1, 0)]
    points += [pinned((j, a), (k, b)) for j, k in pairs for a in (1, 0) for b in (1, 0)]
    values = poly.kernel.rational_values(points)
    grads = [values[2 * k] - values[2 * k + 1] for k in range(m)]
    second = [[Fraction(0)] * m for _ in range(m)] if hessian else []
    for index, (j, k) in enumerate(pairs):
        both, only_j, only_k, neither = values[2 * m + 4 * index : 2 * m + 4 * index + 4]
        second[j][k] = second[k][j] = both - only_j - only_k + neither
    return grads, second


def _check_first_order_maximum(poly: MultilinearPoly, z: SimplexPoint) -> None:
    """Exact stationarity on the simplex: support partials share one value
    that no off-support partial exceeds.  Necessary (not sufficient) for a
    maximizer; rejects points that are obviously not optimal."""
    coords = z.as_fractions()
    grads, _ = _exact_derivatives(poly, coords)
    support = [k for k in range(poly.m) if coords[k] > 0]
    common = grads[support[0]] if support else Fraction(0)
    if any(grads[k] != common for k in support) or any(
        grads[k] > common for k in range(poly.m) if coords[k] == 0
    ):
        raise PreconditionError("z fails the exact first-order maximality test")


def predicted_segment(
    graph, pair: Sequence[int], z: SimplexPoint
) -> tuple[SimplexPoint, SimplexPoint]:
    """Endpoints of the optimal segment created by crossing a symmetric pair.

    For a 3-graph with symmetric pair (v1, v2) of codegree >= 2 and an
    exact maximizer z of its edge polynomial, the crossed graph's polynomial
    is constant on the segment between the two returned points of the
    larger simplex.  Clone coordinates are appended (v1' at index n, v2' at
    n+1), matching both the crossed-blowup vertex order and
    :meth:`MultilinearPoly.hat`.  Endpoint one puts the averaged weight on
    (v1, v2'), endpoint two on (v1', v2).
    """
    if graph.r != 3:
        raise PreconditionError(f"segment prediction needs a 3-graph, got r={graph.r}")
    v1, v2 = _check_pair(pair, graph.n)
    if not graph.is_symmetric_pair((v1, v2)):
        raise AsymmetryError(f"pair ({v1}, {v2}) is not symmetric in the graph")
    if graph.codegree((v1, v2)).count < 2:
        raise PreconditionError(f"pair ({v1}, {v2}) needs codegree >= 2")
    if len(z) != graph.n:
        raise InvalidArgumentError("maximizer dimension does not match the graph")
    if not z.exact:
        raise PreconditionError("segment prediction needs an exact maximizer")
    poly = MultilinearPoly.from_hypergraph(graph)
    _check_first_order_maximum(poly, z)
    zbar = (z.coords[v1] + z.coords[v2]) / 2
    averaged = list(z.coords)
    averaged[v1] = averaged[v2] = zbar
    value, averaged_value = poly.kernel.rational_values([z.coords, averaged])
    # p3 of an edge polynomial is a sum of variables, so averaging never
    # lowers the value; a change means z is not a maximizer
    if value != averaged_value:
        raise PreconditionError(
            "z is not a maximizer: averaging the pair changes the value"
        )
    zero = Fraction(0)
    first = list(z.coords)
    second = list(z.coords)
    first[v1], first[v2] = zbar, zero
    second[v1], second[v2] = zero, zbar
    first.extend([zero, zbar])
    second.extend([zbar, zero])
    return SimplexPoint(first), SimplexPoint(second)


@dataclass(frozen=True)
class SegmentCertificate:
    """Result of exact sampling along a segment; truthy iff all samples hit.

    ``proved`` is set when every sample hit and there were at least
    ``deg p + 1`` of them: p restricted to the segment is a univariate
    polynomial of degree at most ``deg p``, so that many distinct exact hits
    prove it equals the target on the whole segment.
    """

    ok: bool
    failing_alpha: Optional[Fraction]
    samples: int
    target: Fraction
    proved: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_segment(
    poly: MultilinearPoly,
    y: SimplexPoint,
    z: SimplexPoint,
    samples: int,
    target,
) -> SegmentCertificate:
    """Exactly check poly == target at equally spaced points of [y, z];
    with ``samples >= deg p + 1`` a pass proves it on all of [y, z]."""
    if samples < 2:
        raise InvalidArgumentError("need at least 2 samples (the endpoints)")
    if not (y.exact and z.exact):
        raise PreconditionError("segment verification needs exact endpoints")
    if len(y) != poly.m or len(z) != poly.m:
        raise InvalidArgumentError("endpoint dimension does not match polynomial")
    goal = Fraction(target)
    ends = list(zip(y.as_fractions(), z.as_fractions()))
    alphas = [Fraction(k, samples - 1) for k in range(samples)]
    points = [[alpha * a + (1 - alpha) * b for a, b in ends] for alpha in alphas]
    for alpha, value in zip(alphas, poly.kernel.rational_values(points)):
        if value != goal:
            return SegmentCertificate(False, alpha, samples, goal, False)
    return SegmentCertificate(True, None, samples, goal, samples >= poly.degree() + 1)

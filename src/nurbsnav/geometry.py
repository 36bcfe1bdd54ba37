"""NURBS curve kernel.

Clamped rational B-spline curves in the plane: evaluation, derivatives,
curvature, arc length, knot insertion and splitting, closest-point
projection, and the heading-constrained path constructor used by the
planner. Curves are immutable after construction, so every operation here
is a pure function and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Weight box for the rational form; weights must stay strictly positive.
W_MIN = 0.05
W_MAX = 10.0

# Below this tangent norm the curvature is taken from a symmetric offset.
EPS_TANGENT = 1e-9
CURV_OFFSET = 1e-6

# Closest-point projection parameters.
PROJ_GRID = 64
PROJ_NEWTON_STEPS = 20
PROJ_TOL = 1e-10

# Parameters per round of the curvature-peak zoom: each round narrows the
# bracket 16-fold.
ZOOM_POINTS = 33


def clamped_uniform_knots(n_points: int, degree: int) -> np.ndarray:
    """Clamped knot vector on [0, 1] with uniformly spaced interior knots."""
    if n_points < degree + 1:
        raise ValueError(f"need at least {degree + 1} control points, got {n_points}")
    n_interior = n_points - degree - 1
    interior = np.arange(1, n_interior + 1) / (n_interior + 1)
    return np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )


def validate_knots(knots: np.ndarray, degree: int) -> None:
    """Check the clamped knot-vector invariants, raising ValueError on failure."""
    knots = np.asarray(knots, dtype=float)
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if np.any(np.diff(knots) < 0):
        raise ValueError("knot vector must be non-decreasing")
    if not (np.all(knots[: degree + 1] == 0.0) and np.all(knots[-(degree + 1):] == 1.0)):
        raise ValueError("knot vector must be clamped on [0, 1]")
    interior = knots[degree + 1: len(knots) - degree - 1]
    if interior.size:
        _, counts = np.unique(interior, return_counts=True)
        if np.any(counts > degree):
            raise ValueError("interior knot multiplicity exceeds the degree")


@lru_cache(maxsize=64)
def _knot_coefs(knots_bytes: bytes, degree: int):
    """Precomputed per-level Cox-de Boor coefficients for one knot vector.

    Empty spans get a zero reciprocal so the 0/0 convention needs no
    branching at evaluation time. Shared across every curve with the same
    knots (all candidates of a replan cycle). Level j's coefficients depend
    on j and the knots only, so one entry serves every lower degree too.
    """
    t = np.frombuffer(knots_bytes, dtype=float)
    nf = t.shape[0] - 1
    last = int(np.max(np.nonzero(t[:-1] < t[1:])[0]))
    levels = []
    for j in range(1, degree + 1):
        m = nf - j
        d1 = t[j: j + m] - t[:m]
        d2 = t[j + 1: j + 1 + m] - t[1: 1 + m]
        inv1 = np.where(d1 > 0.0, 1.0 / np.where(d1 > 0.0, d1, 1.0), 0.0)
        inv2 = np.where(d2 > 0.0, 1.0 / np.where(d2 > 0.0, d2, 1.0), 0.0)
        levels.append((t[:m], t[j + 1: j + 1 + m], inv1, inv2))
    return t, last, np.arange(nf), levels


def _basis_tables(coefs, s: np.ndarray) -> list[np.ndarray]:
    """B-spline basis values by Cox-de Boor, for all degrees 0..degree.

    tables[j] has shape (len(s), len(knots) - 1 - j). The degree-0 table
    is the indicator of the span index t[i] <= s < t[i + 1] found by
    binary search (Piegl & Tiller, The NURBS Book, A2.1); searching to the
    right of repeated knots never lands in an empty span. The domain end
    s = 1 is assigned to the last non-empty span so clamped curves
    interpolate their final control point; s below the domain (or NaN)
    gets an all-zero row.
    """
    t, last, cols, levels = coefs
    span = np.where(s >= t[-1], last, np.searchsorted(t, s, side="right") - 1)
    tables = [(span[:, None] == cols).astype(float)]
    col = s[:, None]
    for t0, t1, inv1, inv2 in levels:
        prev = tables[-1]
        m = t0.shape[0]
        tables.append(((col - t0) * inv1) * prev[:, :m]
                      + ((t1 - col) * inv2) * prev[:, 1: 1 + m])
    return tables


def _basis_diff(prev: np.ndarray, levels, degree: int) -> np.ndarray:
    """Derivative of the degree-`degree` basis given the degree-1-lower table.

    `prev` may itself be a derivative table, in which case the result is the
    next-higher derivative.
    """
    _, _, inv1, inv2 = levels[degree - 1]
    m = inv1.shape[0]
    return degree * (prev[:, :m] * inv1 - prev[:, 1: 1 + m] * inv2)


def basis_matrices(knots: np.ndarray, degree: int, s: np.ndarray,
                   order: int = 2) -> list:
    """Basis matrices [B, B', B''][: order + 1] at the parameters s.

    Each has shape (len(s), n_points), so B @ H gives the homogeneous
    curve (or its derivative) for homogeneous control points H. B'' is
    None for degree-1 curves.
    """
    coefs = _knot_coefs(knots.tobytes(), degree)
    levels = coefs[3]
    tables = _basis_tables(coefs, s)
    out = [tables[degree]]
    if order >= 1:
        out.append(_basis_diff(tables[degree - 1], levels, degree))
    if order >= 2:
        out.append(None if degree < 2 else _basis_diff(
            _basis_diff(tables[degree - 2], levels, degree - 1), levels, degree))
    return out


def rational_derivatives(hom: list) -> list:
    """Cartesian derivatives [C, C', C''] from homogeneous ones.

    hom[k] is the k-th derivative of (w x, w y, w), components on the
    first axis (shape (3, ...)); the quotient rule gives the rational
    curve, components first (shape (2, ...)). A None second derivative
    (degree-1 curves) yields zero C''.
    """
    denom = hom[0][2]
    c0 = hom[0][:2] / denom
    out = [c0]
    if len(hom) > 1:
        d1 = hom[1][2]
        c1 = (hom[1][:2] - c0 * d1) / denom
        out.append(c1)
    if len(hom) > 2:
        if hom[2] is None:
            out.append(np.zeros_like(c0))
        else:
            out.append((hom[2][:2] - 2.0 * c1 * d1 - c0 * hom[2][2]) / denom)
    return out


def curvature_values(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned curvature |C' x C''| / |C'|^3 from derivatives with
    components first, and the mask where it is defined (tangent norm
    above EPS_TANGENT); zero elsewhere."""
    speed2 = c1[0] * c1[0] + c1[1] * c1[1]
    cross = c1[0] * c2[1] - c1[1] * c2[0]
    ok = speed2 > EPS_TANGENT**2
    kappa = np.where(ok, np.abs(cross) / np.where(ok, speed2, 1.0) ** 1.5, 0.0)
    return kappa, ok


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def arclen_cells(knots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot-aligned arc-length grid: cell edges, half widths, and the
    5-point Gauss-Legendre nodes of every cell (flattened, cell-major)."""
    edges = np.unique(np.concatenate([knots, np.linspace(0.0, 1.0, 41)]))
    nodes, _ = _leggauss(5)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return edges, half, (mid[:, None] + half[:, None] * nodes[None, :]).ravel()


def cumulative_length(half: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Cumulative arc length at the cell edges from the parametric speeds
    at the arclen_cells nodes; leading axes of `speeds` are kept."""
    _, wts = _leggauss(5)
    cell = half * (speeds.reshape(speeds.shape[:-1] + (half.size, 5)) @ wts)
    zero = np.zeros(speeds.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(cell, axis=-1)], axis=-1)


def invert_length(edges: np.ndarray, cum: np.ndarray,
                  target: np.ndarray) -> np.ndarray:
    """Monotone grid interpolant of s(L): for each target arc length the
    parameter where the piecewise-linear cumulative length reaches it.

    `cum` is (..., len(edges)) and `target` (..., m) with the same leading
    axes; targets are clipped to [0, total length].
    """
    target = np.clip(target, 0.0, cum[..., -1:])
    # Count of grid lengths <= target, i.e. searchsorted(side="right").
    idx = np.clip(np.sum(cum[..., None, :] <= target[..., :, None], axis=-1) - 1,
                  0, len(edges) - 2)
    lo = np.take_along_axis(cum, idx, axis=-1)
    hi = np.take_along_axis(cum, idx + 1, axis=-1)
    frac = np.where(hi > lo, (target - lo) / np.maximum(hi - lo, 1e-300), 0.0)
    return edges[idx] + frac * (edges[idx + 1] - edges[idx])


@dataclass(frozen=True)
class HeadingSpec:
    """Endpoint headings plus the collinear-point spacing factors."""

    gamma_init: float
    gamma_goal: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if self.lam1 <= 0.0 or self.lam2 <= 0.0:
            raise ValueError("spacing factors lam1, lam2 must be positive")


@dataclass(frozen=True)
class NurbsCurve:
    """Immutable clamped rational B-spline curve on s in [0, 1]."""

    degree: int
    control_points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    knots: np.ndarray  # (n + degree + 1,)

    def __post_init__(self):
        pts = np.array(self.control_points, dtype=float)
        w = np.array(self.weights, dtype=float)
        t = np.array(self.knots, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("control points must be an (n, 2) array")
        n = pts.shape[0]
        if w.shape != (n,):
            raise ValueError("weights must match the control-point count")
        if np.any(w <= 0.0):
            raise ValueError("all weights must be strictly positive")
        if n < self.degree + 1:
            raise ValueError("need at least degree+1 control points")
        if t.shape != (n + self.degree + 1,):
            raise ValueError("knot count must equal n_points + degree + 1")
        validate_knots(t, self.degree)
        for arr in (pts, w, t):
            arr.setflags(write=False)
        object.__setattr__(self, "control_points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "knots", t)

    # -- evaluation -------------------------------------------------------

    def _check_params(self, s: np.ndarray) -> None:
        if s.size and (s.min() < 0.0 or s.max() > 1.0):
            raise ValueError("curve parameter must lie in [0, 1]")

    def _derivs(self, s_arr: np.ndarray, order: int) -> list:
        """Rational derivatives [C, C', C''][: order + 1] at checked
        parameters, components first (shape (2, m)). They are transposed
        views, so `derivatives` hands out C-ordered (m, 2) arrays: layout-
        dependent reductions on them, such as the einsum in `_speed`, round
        differently on other layouts."""
        hom = self.homogeneous
        return rational_derivatives(
            [None if b is None else (b @ hom).T
             for b in basis_matrices(self.knots, self.degree, s_arr, order)])

    def derivatives(self, s, order: int = 2):
        """Return (C, C', C'') arrays at the given parameter(s).

        Accepts a scalar or 1-d array; outputs have shape (m, 2). Rational
        derivatives follow the quotient rule applied to the homogeneous
        numerator and denominator.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_params(s_arr)
        return tuple(c.T for c in self._derivs(s_arr, order))

    @cached_property
    def homogeneous(self) -> np.ndarray:
        """Homogeneous control points (w x, w y, w), shape (n, 3)."""
        return np.column_stack([self.weights[:, None] * self.control_points,
                                self.weights])

    def point(self, s):
        """Evaluate C(s). Scalar s gives a (2,) array, arrays give (m, 2)."""
        (c0,) = self.derivatives(s, order=0)
        if np.isscalar(s) or np.ndim(s) == 0:
            return c0[0]
        return c0

    def _curvature_values(self, s_arr: np.ndarray, derivs=None) -> np.ndarray:
        """Curvature at checked parameters; `derivs` are their components-
        first derivatives when the caller already has them."""
        _, c1, c2 = derivs if derivs is not None else self._derivs(s_arr, 2)
        kappa, ok = curvature_values(c1, c2)
        if not ok.all():
            # Parametric slowdowns: take the larger curvature from a
            # symmetric offset instead of dividing by a vanishing tangent.
            bad = np.nonzero(~ok)[0]
            k = self._curvature_values(np.concatenate(
                [np.maximum(0.0, s_arr[bad] - CURV_OFFSET),
                 np.minimum(1.0, s_arr[bad] + CURV_OFFSET)]))
            kappa[bad] = np.maximum(k[: bad.size], k[bad.size:])
        return kappa

    def curvatures(self, s) -> np.ndarray:
        """Curvature values for an array of parameters."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_params(s_arr)
        return self._curvature_values(s_arr)

    def positions_and_curvatures(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Points and curvatures from a single derivative evaluation."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_params(s_arr)
        derivs = self._derivs(s_arr, 2)
        return derivs[0].T, self._curvature_values(s_arr, derivs=derivs)

    # -- arc length -------------------------------------------------------

    def _speed(self, s_arr: np.ndarray) -> np.ndarray:
        _, c1 = self.derivatives(s_arr, order=1)
        return np.sqrt(np.einsum("ij,ij->i", c1, c1))

    def arc_length(self, s0: float = 0.0, s1: float = 1.0,
                   rel_tol: float = 1e-9) -> float:
        """Arc length of the curve between two parameters.

        Composite Gauss-Legendre quadrature of the parametric speed, with
        panels refined until the total stabilizes to rel_tol.
        """
        if s0 > s1:
            raise ValueError("arc_length requires s0 <= s1")
        if s1 - s0 <= 0.0:
            return 0.0
        breaks = [s0] + [float(t) for t in np.unique(self.knots)
                         if s0 < t < s1] + [s1]
        nodes, wts = _leggauss(10)
        prev = None
        n_sub = 1
        while True:
            edges = np.concatenate(
                [np.linspace(breaks[i], breaks[i + 1], n_sub + 1)[:-1]
                 for i in range(len(breaks) - 1)] + [[s1]]
            )
            a = edges[:-1]
            b = edges[1:]
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
            speeds = self._speed(pts).reshape(len(a), len(nodes))
            total = float(np.sum(half * (speeds @ wts)))
            if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-300):
                return total
            if n_sub >= 128:
                return total
            prev = total
            n_sub *= 2

    @cached_property
    def _arclen_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative arc length on a knot-aligned grid (5-pt GL per cell)."""
        edges, half, pts = arclen_cells(self.knots)
        return edges, cumulative_length(half, self._speed(pts))

    def length_from_start(self, s) -> np.ndarray | float:
        """Accurate L(s) = arc_length(0, s) via the cached grid."""
        scalar = np.isscalar(s) or np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_params(s_arr)
        edges, cum = self._arclen_grid
        idx = np.clip(np.searchsorted(edges, s_arr, side="right") - 1,
                      0, len(edges) - 2)
        nodes, wts = _leggauss(5)
        a = edges[idx]
        half = 0.5 * (s_arr - a)
        mid = 0.5 * (s_arr + a)
        pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        speeds = self._speed(pts).reshape(len(s_arr), len(nodes))
        out = cum[idx] + half * (speeds @ wts)
        return float(out[0]) if scalar else out

    def total_length(self) -> float:
        _, cum = self._arclen_grid
        return float(cum[-1])

    def param_at_length(self, target, polish: bool = True) -> np.ndarray | float:
        """Invert the arc-length function: smallest s with L(s) = target.

        Targets are clipped to [0, total length]. Bracketing on the grid
        followed, when `polish` is set, by Newton iterations on the
        residual L(s) - target; without polishing the result is the
        monotone grid interpolant (cheap, accurate to the grid resolution).
        """
        scalar = np.isscalar(target) or np.ndim(target) == 0
        tgt = np.atleast_1d(np.asarray(target, dtype=float))
        edges, cum = self._arclen_grid
        tgt = np.clip(tgt, 0.0, cum[-1])
        s = invert_length(edges, cum, tgt)
        if polish:
            for _ in range(3):
                resid = np.atleast_1d(self.length_from_start(s)) - tgt
                speed = np.maximum(self._speed(s), 1e-12)
                s = np.clip(s - resid / speed, 0.0, 1.0)
        return float(s[0]) if scalar else s

    @cached_property
    def _end_spacing(self) -> tuple[float | None, float | None]:
        """Spacing factors (lam1, lam2) of a heading-path layout, each None
        once its endpoint triple has lost the regular form (see
        apply_delta)."""
        pts = self.control_points
        n = pts.shape[0]
        lam1 = float(np.linalg.norm(pts[1] - pts[0]))
        lam2 = float(np.linalg.norm(pts[-1] - pts[-2]))
        return (lam1 if lam1 > 0.0 and _regular_triple(pts[0], pts[1:4]) else None,
                lam2 if lam2 > 0.0 and _regular_triple(pts[-1], pts[n - 4: n - 1][::-1])
                else None)

    # -- projection -------------------------------------------------------

    def project(self, q, hint: float | None = None) -> tuple[float, float]:
        """Closest point on the curve to q: returns (s*, distance).

        Coarse grid scan then Newton refinement of g(s) = (C - q) . C'.
        With a hint the scan window is centered on it. The Newton result,
        the grid point and both curve ends are then evaluated in one call,
        in increasing parameter order; a candidate replaces the best so far
        only when it is closer by more than 1e-15, so ties at equal
        distance take the smallest parameter.
        """
        q = np.asarray(q, dtype=float)
        if hint is None:
            grid = np.linspace(0.0, 1.0, PROJ_GRID)
        else:
            lo = max(0.0, float(hint) - 0.15)
            hi = min(1.0, float(hint) + 0.15)
            grid = np.linspace(lo, hi, PROJ_GRID)
        (pts,) = self.derivatives(grid, order=0)
        d2 = np.einsum("ij,ij->i", pts - q, pts - q)
        order_idx = int(np.argmin(d2))
        s = float(grid[order_idx])
        for _ in range(PROJ_NEWTON_STEPS):
            c0, c1, c2 = (c[:, 0] for c in self._derivs(np.array([s]), 2))
            r = c0 - q
            g = float(r @ c1)
            gp = float(c1 @ c1 + r @ c2)
            if abs(g) < PROJ_TOL or gp <= 0.0:
                break
            step = g / gp
            s_new = min(1.0, max(0.0, s - step))
            if abs(s_new - s) < 1e-15:
                s = s_new
                break
            s = s_new
        candidates = np.array(sorted([s, float(grid[order_idx]), 0.0, 1.0]))
        (pts,) = self._derivs(candidates, 0)
        dists = np.hypot(pts[0] - q[0], pts[1] - q[1])
        best_s, best_d = None, None
        for cand, dist in zip(candidates.tolist(), dists.tolist()):
            if best_d is None or dist < best_d - 1e-15:
                best_s, best_d = cand, dist
        return best_s, best_d

    # -- splitting --------------------------------------------------------

    def split(self, s_cut: float) -> tuple["NurbsCurve", "NurbsCurve"]:
        """Split into two curves at s_cut, each re-parameterized to [0, 1].

        Boehm knot insertion raises the cut parameter to full multiplicity,
        so the shape is preserved exactly and the right half interpolates
        the cut point.
        """
        if not (0.0 < s_cut < 1.0):
            raise ValueError("split parameter must be strictly inside (0, 1)")
        p = self.degree
        hom = self.homogeneous
        t = np.array(self.knots, dtype=float)
        mult = int(np.sum(np.abs(t - s_cut) < 1e-12))
        if mult:
            s_cut = float(t[np.argmin(np.abs(t - s_cut))])
        for _ in range(p - mult):
            hom, t = _insert_knot(hom, t, p, s_cut)
        j = int(np.searchsorted(t, s_cut, side="left"))
        left_pts = hom[:j]
        left_knots = np.concatenate([t[: j + p], [s_cut]])
        right_pts = hom[j - 1:]
        right_knots = np.concatenate([np.full(p + 1, s_cut), t[j + p:]])
        return (_from_homogeneous(p, left_pts, _renormalize(left_knots)),
                _from_homogeneous(p, right_pts, _renormalize(right_knots)))

    # -- curvature peak ---------------------------------------------------

    def max_curvature(self, n_samples: int = 200) -> tuple[float, float]:
        """Peak curvature and its parameter.

        Uniform grid scan, then a zoom on the bracket around the grid
        argmax (its neighbours on either side): each round evaluates
        ZOOM_POINTS evenly spaced parameters across the bracket in one call
        and narrows the bracket to the neighbours of their argmax, until it
        is narrower than 1e-12 (about ten curve evaluations in all). The
        largest curvature sampled is returned, so the result is never below
        the grid maximum.
        """
        if n_samples < 2:
            raise ValueError("need at least two curvature samples")
        grid = np.linspace(0.0, 1.0, n_samples)
        kappa = self._curvature_values(grid)
        i = int(np.argmax(kappa))
        k_best, s_best = kappa[i], grid[i]
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, n_samples - 1)]
        while b - a >= 1e-12:
            x = np.linspace(a, b, ZOOM_POINTS)
            k = self._curvature_values(x)
            j = int(np.argmax(k))
            if k[j] >= k_best:
                k_best, s_best = k[j], x[j]
            a = x[max(j - 1, 0)]
            b = x[min(j + 1, ZOOM_POINTS - 1)]
        return float(k_best), float(s_best)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "control_points": self.control_points.tolist(),
            "weights": self.weights.tolist(),
            "knots": self.knots.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "NurbsCurve":
        return NurbsCurve(
            degree=int(data["degree"]),
            control_points=np.asarray(data["control_points"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            knots=np.asarray(data["knots"], dtype=float),
        )


def _insert_knot(hom: np.ndarray, knots: np.ndarray, degree: int,
                 u: float) -> tuple[np.ndarray, np.ndarray]:
    """Single Boehm insertion of u, in homogeneous coordinates."""
    k = int(np.searchsorted(knots, u, side="right")) - 1
    n = hom.shape[0]
    out = np.empty((n + 1, hom.shape[1]))
    out[: k - degree + 1] = hom[: k - degree + 1]
    for i in range(k - degree + 1, k + 1):
        alpha = (u - knots[i]) / (knots[i + degree] - knots[i])
        out[i] = alpha * hom[i] + (1.0 - alpha) * hom[i - 1]
    out[k + 1:] = hom[k:]
    new_knots = np.insert(knots, k + 1, u)
    return out, new_knots


def _renormalize(knots: np.ndarray) -> np.ndarray:
    lo, hi = knots[0], knots[-1]
    out = (knots - lo) / (hi - lo)
    out[out < 0.0] = 0.0
    out[out > 1.0] = 1.0
    return out


def _from_homogeneous(degree: int, hom: np.ndarray,
                      knots: np.ndarray) -> NurbsCurve:
    w = hom[:, 2]
    pts = hom[:, :2] / w[:, None]
    return NurbsCurve(degree=degree, control_points=pts, weights=w, knots=knots)


def build_path_with_headings(start, goal, spec: HeadingSpec,
                             n_interior: int, degree: int = 3) -> NurbsCurve:
    """Path whose endpoint tangents match the requested headings.

    Three collinear points are appended to each endpoint along the heading
    direction at spacings j * lambda (j = 1, 2, 3); interior points are
    spread evenly between the inner ends of the two collinear triples so
    the control polygon never doubles back on aligned headings. Unit
    weights, clamped uniform knots.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if np.allclose(start, goal):
        raise ValueError("start and goal must be distinct")
    if n_interior < 0:
        raise ValueError("n_interior must be non-negative")
    d0 = np.array([math.cos(spec.gamma_init), math.sin(spec.gamma_init)])
    d1 = np.array([math.cos(spec.gamma_goal), math.sin(spec.gamma_goal)])
    pts = [start]
    for j in (1, 2, 3):
        pts.append(start + j * spec.lam1 * d0)
    inner_a = start + 3 * spec.lam1 * d0
    inner_b = goal - 3 * spec.lam2 * d1
    for i in range(1, n_interior + 1):
        pts.append(inner_a + (inner_b - inner_a) * (i / (n_interior + 1)))
    for j in (3, 2, 1):
        pts.append(goal - j * spec.lam2 * d1)
    pts.append(goal)
    pts = np.array(pts)
    n = pts.shape[0]
    return NurbsCurve(
        degree=degree,
        control_points=pts,
        weights=np.ones(n),
        knots=clamped_uniform_knots(n, degree),
    )


def movable_count(curve: NurbsCurve) -> int:
    """Number of freely movable interior control points of a heading path."""
    return max(curve.control_points.shape[0] - 8, 0)


def delta_dimension(curve: NurbsCurve) -> int:
    """Decision-vector length for apply_delta on this curve."""
    return 3 * movable_count(curve) + 2


def neutral_delta(curve: NurbsCurve) -> np.ndarray:
    """The delta vector that reproduces the curve unchanged."""
    n_mov = movable_count(curve)
    pts = curve.control_points
    lam1 = float(np.linalg.norm(pts[1] - pts[0]))
    lam2 = float(np.linalg.norm(pts[-1] - pts[-2]))
    out = np.zeros(3 * n_mov + 2)
    out[-2] = lam1
    out[-1] = lam2
    return out


def _regular_triple(anchor: np.ndarray, triple: np.ndarray) -> bool:
    """True when the three points step away from the anchor in equal
    collinear increments (the form produced at construction)."""
    step = triple[0] - anchor
    scale = float(np.linalg.norm(step))
    if scale == 0.0:
        return False
    tol = 1e-9 * scale
    return (np.linalg.norm(triple[1] - triple[0] - step) <= tol
            and np.linalg.norm(triple[2] - triple[1] - step) <= tol)


def _vary(base: NurbsCurve, deltas: np.ndarray, lower, upper
          ) -> tuple[np.ndarray, np.ndarray]:
    """Control points (P, n, 2) and weights (P, n) of P variations."""
    n = base.control_points.shape[0]
    n_mov = n - 8
    if lower is not None:
        deltas = np.clip(deltas, np.asarray(lower, dtype=float),
                         np.asarray(upper, dtype=float))
    n_var = deltas.shape[0]
    pts = np.repeat(base.control_points[None], n_var, axis=0)
    w = np.repeat(base.weights[None], n_var, axis=0)
    if n_mov:
        pts[:, 4: 4 + n_mov] += deltas[:, : 2 * n_mov].reshape(n_var, n_mov, 2)
        w[:, 4: 4 + n_mov] = np.clip(w[:, 4: 4 + n_mov]
                                     + deltas[:, 2 * n_mov: 3 * n_mov], W_MIN, W_MAX)

    src = base.control_points
    for lam, base_lam, anchor, triple in (
            (deltas[:, -2], base._end_spacing[0], 0, slice(1, 4)),
            (deltas[:, -1], base._end_spacing[1], n - 1, slice(n - 4, n - 1))):
        if base_lam is None:
            continue
        rows = (lam > 0.0) & (lam != base_lam)
        pts[rows, triple] = src[anchor] + (lam[rows] / base_lam)[:, None, None] \
            * (src[triple] - src[anchor])
    return pts, w


def apply_delta(base: NurbsCurve, delta, lower=None, upper=None) -> NurbsCurve:
    """Apply a plan variation [dP, dw, lam1, lam2] to a heading path.

    Interior control points move by dP, interior weights shift by dw
    (clamped to the weight box), and the collinear endpoint triples are
    rescaled about their anchors so the resulting spacing factors equal the
    candidate lam1, lam2. A spacing factor is applied only while its triple
    still has the evenly spaced collinear form it was built with; cutting
    the path disturbs the start triple, after which lam1 becomes inert
    (rescaling an irregular triple would distort the shape without bound).
    Endpoints and endpoint heading directions never change. Out-of-bounds
    components are clipped to the given box.
    """
    delta = np.asarray(delta, dtype=float)
    n = base.control_points.shape[0]
    if n < 8:
        raise ValueError("curve too short to carry a heading-path layout")
    dim = 3 * (n - 8) + 2
    if delta.shape != (dim,):
        raise ValueError(f"delta must have dimension {dim}, got {delta.shape}")
    pts, w = _vary(base, delta[None], lower, upper)
    return NurbsCurve(degree=base.degree, control_points=pts[0], weights=w[0],
                      knots=np.array(base.knots))


def apply_delta_batch(base: NurbsCurve, deltas: np.ndarray, lower,
                      upper) -> np.ndarray:
    """apply_delta for a (P, dim) array of variations at once.

    Returns the homogeneous control points (w x, w y, w) as a (P, n, 3)
    tensor; every variation keeps the base knot vector, so its basis is
    the base curve's. Row p equals apply_delta(base, deltas[p], lower,
    upper).homogeneous.
    """
    pts, w = _vary(base, np.asarray(deltas, dtype=float), lower, upper)
    return np.concatenate([w[..., None] * pts, w[..., None]], axis=-1)

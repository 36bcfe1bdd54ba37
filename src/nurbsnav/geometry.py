"""NURBS curve kernel.

Clamped rational B-spline curves in the plane: evaluation, derivatives,
curvature, arc length, knot insertion and splitting, closest-point
projection, and the heading-constrained path constructor used by the
planner. Curves are immutable after construction, so every operation here
is a pure function and safe to call concurrently.

Curves are evaluated in one form, the piecewise Bezier form of
`piece_map`: per piece, the Bernstein coefficients of the curve and of
its first two derivatives, so a query is a piece lookup (`locate_piece`)
and one Bernstein evaluation. That table and the length basis below
depend on the knot vector alone, so its first query builds both into
one cached entry (`_piece_form`). Each cut makes a new knot vector, and
the cache keeps the last two. Cox-de Boor (`basis_matrices`) is read
only at the piece ends, to build that table.
The evaluation has two implementations on the same coefficients: numpy
arrays for many parameters at once (`piece_derivatives`,
`NurbsCurve._derivs`, and `piece_basis`, which the planner uses to read
the basis every candidate of a cycle shares), and Python floats for one
parameter (`NurbsCurve.derivatives_at`), which the projection's Newton
steps, the tracker and the arc-length queries use because numpy's
per-call cost would dominate a single point.

Arc length has one source, `edge_lengths`: the cumulative length at the
piece edges by 5-point Gauss-Legendre quadrature on every piece, from a
basis at the same local nodes on every piece. It takes any stack of
homogeneous control points, so a curve's length grid
(`NurbsCurve.length_grid`) and the planner's batch of search candidates
share it. `arc_length`, an adaptive quadrature, is kept as the
independent reference.

This module alone knows how a curve is sampled: the piece table, its
coefficient layout and the length grid. Samples at given arc lengths
come from `derivatives_at_lengths`, which takes control-point rows as
`edge_lengths` does (one curve's `homogeneous.T`, or the search kernel's
candidates), finds each sample's piece on the length grid and evaluates
it from the coefficients `batch_piece_coefficients` gives those rows:
one source for the search and its verification alike. The
velocity-obstacle rule decides where the samples go; this module places
and evaluates them.

The planner's decision vector is stated here and nowhere else. On a
heading path of n control points, the PINNED points at each end (the
endpoint and its collinear triple) hold the endpoint heading, and the
m = n - 2 * PINNED points between them move freely. A variation is
`[2m point moves | m weight shifts | lam1, lam2]`: `delta_dimension`
gives its length, `split_delta` and `join_delta` convert between the
vector and its three blocks, `neutral_delta` and `align_delta` build the
search's warm starts, and `apply_delta` (one variation, a curve) and
`apply_delta_batch` (a stack, the search kernel's control-point rows)
apply it. Neither clips to a box: the optimizer keeps its rows inside
its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# Weight box for the rational form; weights must stay strictly positive.
W_MIN = 0.05
W_MAX = 10.0
# Control points held at each end of a heading path by the decision
# vector: the endpoint and its collinear triple.
PINNED = 4

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


def basis_matrices(knots: np.ndarray, degree: int, s: np.ndarray,
                   order: int, span: np.ndarray) -> list:
    """Cox-de Boor basis matrices [B, B', B'', ...][: order + 1] at the
    parameters s, each on its given knot span, for order <= degree.

    Each has shape (len(s), n_points), so B @ H gives the homogeneous
    curve (or its derivative) for homogeneous control points H. The
    degree-0 table is the indicator of `span` (Piegl & Tiller, The NURBS
    Book, A2.1), so a span's polynomials hold on its closed interval and
    its right end gives their left limits. Empty knot spans get a zero
    reciprocal, so the 0/0 convention needs no branching. `_piece_form`
    reads these at piece ends; curves are evaluated from its table.
    """
    t = knots
    nf = t.size - 1
    col = s[:, None]
    tables = [(span[:, None] == np.arange(nf)).astype(float)]
    levels = []
    for j in range(1, degree + 1):
        m = nf - j
        d1 = t[j: j + m] - t[:m]
        d2 = t[j + 1: j + 1 + m] - t[1: 1 + m]
        inv1 = np.where(d1 > 0.0, 1.0 / np.where(d1 > 0.0, d1, 1.0), 0.0)
        inv2 = np.where(d2 > 0.0, 1.0 / np.where(d2 > 0.0, d2, 1.0), 0.0)
        prev = tables[-1]
        tables.append(((col - t[:m]) * inv1) * prev[:, :m]
                      + ((t[j + 1: j + 1 + m] - col) * inv2) * prev[:, 1: 1 + m])
        levels.append((inv1, inv2))
    out = []
    for k in range(order + 1):
        # Differentiate the degree-(p - k) table k times, one degree up each.
        b = tables[degree - k]
        for d in range(degree - k + 1, degree + 1):
            inv1, inv2 = levels[d - 1]
            m = inv1.shape[0]
            b = d * (b[:, :m] * inv1 - b[:, 1: 1 + m] * inv2)
        out.append(b)
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


def locate_length(cum: np.ndarray,
                  target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid cell and fraction of the piecewise-linear cumulative length
    where each target arc length is reached.

    `cum` is (..., E) and `target` (..., m) with the same leading axes,
    every target within [0, cum[..., -1]]. The cells are the pieces of
    `piece_map` (`edge_lengths` gives `cum` at their edges), so the
    fraction is the local parameter on piece `idx`.
    """
    # Count of interior grid lengths <= target: searchsorted(side="right")
    # - 1 on the whole grid (cum[..., 0] = 0 <= target), clamped to the
    # last cell.
    idx = (cum[..., None, 1:-1] <= target[..., :, None]).sum(axis=-1)
    # One gather from the flattened grid, each row offset by its start.
    flat = cum.ravel()
    at = idx + np.arange(0, flat.size, cum.shape[-1]).reshape(cum.shape[:-1] + (1,))
    lo = flat[at]
    step = flat[at + 1] - lo
    # A zero-width cell is reached only as the last cell, with target = lo.
    frac = (target - lo) / np.where(step > 0.0, step, np.inf)
    return idx, frac


class _PieceForm(NamedTuple):
    """What every curve on one knot vector shares (`_piece_form`): the
    piece edges (K + 1,) and the (K, L, n) piece table, read by curves
    and by `batch_piece_coefficients`; and the half widths (K,) of the
    pieces and the (n, 10K) basis at their Gauss nodes, read by
    `edge_lengths`. For a cubic that is 19 floats per piece and control
    point: 9 table terms, and B and B' at 5 Gauss nodes."""

    edges: np.ndarray
    table: np.ndarray
    half: np.ndarray
    gauss_basis: np.ndarray


# Two entries, sized by measured traffic (budget mode, seed 0). In a
# mission an entry is read again before any other knot vector's, except
# the two that every leg shares: the fresh leg path's and the one-span
# knot vector of a leg's last cuts. On empty_world, three_waypoints,
# bench and head_on, 2 entries build 155, 308, 30 and 338 times for 155,
# 303, 30 and 335 knot vectors; 64 entries built 336 times on head_on and
# as often on the rest. replan-movers snapshots read the fresh leg
# path's knot vector and the cut's in turn: in a 50 s run 1 entry builds
# 238 times, 2 entries 61 and 64 entries 32. The builds past 32 there,
# and on mission-statics-tour the rebuilds in the deadline-mode replays
# of the window just flown, vanish only at 8 and 26 entries: sizes set
# by how the benchmark replays cycles, not by the planner.
@lru_cache(maxsize=2)
def _piece_form(knots_bytes: bytes, degree: int) -> _PieceForm:
    """Piecewise Bezier form of every curve on one knot vector.

    The pieces are the knot spans, cut further at a uniform 41-point grid
    so that each is short; none straddles a knot. They are also the cells
    of the arc-length grid (`edge_lengths`). On piece k, with local
    parameter t = (s - a) / (b - a) on [a, b], the homogeneous curve and
    its first two derivatives are Bernstein polynomials of degree p, p - 1
    and p - 2 in t (The NURBS Book, A5.6, decomposes a curve the same
    way). The table maps homogeneous control points to their
    coefficients, stacked along L in the order of `_bernstein_layout`.

    Each coefficient comes from the Taylor expansion at the nearer piece
    end: the first half from Cox-de Boor derivatives at a, the second
    half from those at b, taken on the piece's own knot span (left
    limits). The end coefficients are thus the Cox-de Boor values there,
    a short piece with steep derivatives loses nothing to cancellation,
    and at the domain ends the curve's coefficients are exactly the first
    and last control point, so a clamped curve interpolates them exactly.

    The Gauss basis holds B at the 5-point Gauss-Legendre nodes of every
    piece (piece-major), then B' at them. The nodes sit at the same local
    parameters on every piece, so it is the table contracted with one set
    of Bernstein weights (`piece_derivatives`), with no piece lookup. It is
    stored transposed and contiguous, so one product with the control
    points gives the homogeneous curve and its derivative at every node.
    """
    knots = np.frombuffer(knots_bytes, dtype=float)
    edges = np.unique(np.concatenate([knots, np.linspace(0.0, 1.0, 41)]))
    a, b = edges[:-1], edges[1:]
    h = (b - a)[:, None]
    p = degree
    span = np.searchsorted(knots, a, side="right") - 1
    # Taylor terms used: up to order k + (p - k) // 2 for the k-th derivative.
    order = max(k + (p - k) // 2 for k in range(min(p, 2) + 1))
    both = basis_matrices(knots, p, np.concatenate([a, b]), order,
                          np.concatenate([span, span]))
    ends = (([d[: a.size] for d in both], h), ([d[a.size:] for d in both], -h))
    blocks = []
    for k in range(min(p, 2) + 1):
        q = p - k
        for i in range(q + 1):
            # Bernstein coefficient i of degree q from the Taylor terms
            # B^(k+j) step^j / j!, j <= r, at the nearer piece end.
            (derivs, step), r = (ends[0], i) if 2 * i <= q else (ends[1], q - i)
            blocks.append(sum(math.comb(r, j) / math.comb(q, j)
                              * (step ** j / math.factorial(j)) * derivs[k + j]
                              for j in range(r + 1)))
    n = knots.size - p - 1
    blocks[0][0] = np.eye(n)[0]
    blocks[p][-1] = np.eye(n)[-1]
    table = np.stack(blocks, axis=1)

    nodes, _ = _leggauss(5)
    mats = piece_derivatives(table.transpose(0, 2, 1)[:, None],
                             0.5 + 0.5 * nodes[:, None], degree, 1)
    gauss_basis = np.ascontiguousarray(np.stack(mats).reshape(-1, n).T)
    half = 0.5 * np.diff(edges)
    for arr in (edges, table, half, gauss_basis):
        arr.setflags(write=False)
    return _PieceForm(edges, table, half, gauss_basis)


def piece_map(knots: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (K + 1,) of the curve pieces and the (K, L, n) map from
    homogeneous control points to their Bernstein coefficients, from the
    cached `_piece_form`."""
    return _piece_form(knots.tobytes(), degree)[:2]


def batch_piece_coefficients(knots: np.ndarray, degree: int,
                             hom_rows: np.ndarray, k: int) -> np.ndarray:
    """Bernstein coefficients of the first k pieces of P curves on one
    knot vector, every block of the `piece_map` layout included.

    `hom_rows` (3P, n) holds their homogeneous control points as in
    `edge_lengths`. Returns shape (3, P * k, L), path-major. It is one
    product of the control points with the first k pieces of the piece
    table, read in place through a transposed view, not copied.
    """
    table = _piece_form(knots.tobytes(), degree).table
    _, n_terms, n = table.shape
    by_column = table.reshape(-1, n).T
    return (hom_rows @ by_column[:, : k * n_terms]).reshape(3, -1, n_terms)


@lru_cache(maxsize=8)
def _bernstein_layout(degree: int):
    """Stacked coefficient layout of `piece_map`: for k = 0 .. min(p, 2),
    the p - k + 1 Bernstein terms of the k-th derivative, one block after
    the other (L terms in all).

    Returns the (p + 1, L) matrix taking the powers of t to the Bernstein
    polynomials C(q, i) t^i (1 - t)^(q - i) of the layout, the (L, blocks)
    0/1 matrix summing each block, and the end of each block. The matrix
    entries are small integers, so at t = 0 and t = 1 the polynomials come
    out exactly 0 or 1.
    """
    cols, blocks = [], []
    for k in range(min(degree, 2) + 1):
        q = degree - k
        for i in range(q + 1):
            col = np.zeros(degree + 1)
            for e in range(i, q + 1):
                col[e] = math.comb(q, i) * math.comb(q - i, e - i) * (-1) ** (e - i)
            cols.append(col)
            blocks.append(k)
    blocks = np.array(blocks)
    block_sum = (blocks[:, None] == np.arange(blocks[-1] + 1)).astype(float)
    return (np.column_stack(cols), block_sum,
            np.cumsum(block_sum.sum(axis=0)).astype(int))


def piece_derivatives(coef: np.ndarray, t: np.ndarray, degree: int,
                      order: int) -> list:
    """Homogeneous derivatives [H, H', H''][: order + 1] from Bernstein
    coefficients.

    `coef` (..., L) holds the coefficients of each query's piece in the
    `piece_map` layout, with any leading axes (components first, say);
    `t` holds the local parameters and broadcasts against coef[..., 0].
    Each derivative keeps the leading shape; orders above min(degree, 2)
    are None. The powers of t are running products; at t = 0 and t = 1
    every Bernstein weight but one is exactly zero, so piece ends evaluate
    to their end coefficients exactly.
    """
    to_bernstein, block_sum, block_ends = _bernstein_layout(degree)
    n_ord = min(order, block_ends.size - 1) + 1
    width = block_ends[n_ord - 1]
    powers = np.empty(np.shape(t) + (degree + 1,))
    powers[..., 0] = 1.0
    powers[..., 1] = t
    for e in range(2, degree + 1):
        np.multiply(powers[..., e - 1], t, out=powers[..., e])
    w = powers @ to_bernstein[:, :width]
    sums = (coef[..., :width] * w) @ block_sum[:width, :n_ord]
    return [sums[..., k] for k in range(n_ord)] + [None] * (order + 1 - n_ord)


def locate_piece(edges: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Piece index and local parameter of each checked parameter s: a
    binary search to the right of equal edges, with s = 1 on the last
    piece."""
    idx = np.minimum(np.searchsorted(edges, s, side="right") - 1, edges.size - 2)
    a = edges[idx]
    return idx, (s - a) / (edges[idx + 1] - a)


def piece_basis(knots: np.ndarray, degree: int, s: np.ndarray,
                order: int) -> list:
    """Basis matrices [B, B', B''][: order + 1] at checked parameters s,
    each of shape (len(s), n_points), read from the `piece_map` table:
    the Bernstein evaluation of `piece_derivatives` with every control
    point's coefficients in place of a curve's."""
    edges, table = piece_map(knots, degree)
    idx, t = locate_piece(edges, s)
    return piece_derivatives(table[idx].transpose(0, 2, 1), t[:, None],
                             degree, order)


def edge_lengths(knots: np.ndarray, degree: int,
                 hom_rows: np.ndarray) -> np.ndarray:
    """Cumulative arc length (P, K + 1) at the piece edges of P curves on
    one knot vector: 5-point Gauss-Legendre quadrature of the speed on
    every piece (the Gauss basis of `_piece_form`).

    `hom_rows` (3P, n) holds the homogeneous control points component-
    major: the x rows of the P curves, then their y rows, then their w
    rows.
    """
    form = _piece_form(knots.tobytes(), degree)
    n_var = hom_rows.shape[0] // 3
    # One product gives both derivatives: a product per derivative was
    # measured slower on 40-row chunks, from the page faults of its
    # larger set of temporaries.
    h = (hom_rows @ form.gauss_basis).reshape(3, n_var, 2, -1)
    _, c1 = rational_derivatives([h[:, :, 0], h[:, :, 1]])
    speed = np.sqrt(c1[0] * c1[0] + c1[1] * c1[1])
    _, wts = _leggauss(5)
    cell = form.half * (speed.reshape(n_var, form.half.size, 5) @ wts)
    return np.concatenate([np.zeros((n_var, 1)), np.cumsum(cell, axis=1)],
                          axis=1)


def derivatives_at_lengths(knots: np.ndarray, degree: int,
                           hom_rows: np.ndarray, cum: np.ndarray,
                           arcs: np.ndarray) -> list:
    """Points and tangents [C, C'], components first (2, P, m), of P
    curves on one knot vector at the arc lengths `arcs` (P, m).

    `hom_rows` (3P, n) holds their homogeneous control points as in
    `edge_lengths`, and `cum` (P, K + 1) is their length grid from it,
    every arc within [0, cum[p, -1]], so an arc's piece and local
    parameter come from `locate_length`. `batch_piece_coefficients` gives
    the coefficients of only the pieces that some arc reaches, and only
    their curve and first-derivative blocks are read.
    """
    # Each row reaches a prefix of the interior edges, so their union
    # counts the pieces past the first that some arc reaches.
    n_piece = 1 + int(np.count_nonzero(
        (cum[:, 1:-1] <= arcs.max(axis=1, keepdims=True)).any(axis=0)))
    idx, frac = locate_length(cum[:, : n_piece + 1], arcs)
    coef = np.take(batch_piece_coefficients(knots, degree, hom_rows, n_piece),
                   idx + n_piece * np.arange(cum.shape[0])[:, None], axis=1)
    return rational_derivatives(piece_derivatives(coef, frac, degree, 1))


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

    def _params(self, s) -> np.ndarray:
        """s as a 1-d float array, checked to lie in [0, 1]."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if s_arr.size and (s_arr.min() < 0.0 or s_arr.max() > 1.0):
            raise ValueError("curve parameter must lie in [0, 1]")
        return s_arr

    def _derivs(self, s_arr: np.ndarray, order: int) -> list:
        """Rational derivatives [C, C', C''][: order + 1] at checked
        parameters, components first (shape (2, m)): a piece lookup by
        binary search, then one Bernstein evaluation on the cached
        coefficients of that piece."""
        edges, coef = self._pieces
        idx, t = locate_piece(edges, s_arr)
        return rational_derivatives(
            piece_derivatives(coef[:, idx], t, self.degree, order))

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Piece edges and the Bernstein coefficients of the homogeneous
        curve and its first two derivatives on every piece, components
        first: shape (3, K, L) (see `piece_map`)."""
        edges, table = piece_map(self.knots, self.degree)
        coef = np.moveaxis(table @ self.homogeneous, -1, 0)
        return edges, np.ascontiguousarray(coef)

    @cached_property
    def _piece_lists(self) -> tuple[list, list]:
        """`_pieces` as Python lists for one-parameter queries: the piece
        edges, and per piece the x, y and w rows of its coefficients."""
        edges, coef = self._pieces
        return edges.tolist(), coef.transpose(1, 0, 2).tolist()

    def _piece_at(self, s: float) -> int:
        """Index of the piece holding s, as in `locate_piece`."""
        edges = self._piece_lists[0]
        return min(bisect_right(edges, s), len(edges) - 1) - 1

    def derivatives_at(self, s: float, order: int = 2) -> list:
        """Rational derivatives [C, C', C''][: order + 1] at one parameter
        s in [0, 1], each an (x, y) pair of floats.

        `derivatives` for a single parameter without numpy's per-call
        cost: a bisect piece lookup, then one Bernstein sum per derivative
        on that piece's coefficients, with weights C(q, i) t^i (1 - t)^(q - i)
        from running products of t and 1 - t (exactly 0 or 1 at the piece
        ends). C'' of a degree-1 curve is zero.
        """
        if not 0.0 <= s <= 1.0:
            raise ValueError("curve parameter must lie in [0, 1]")
        edges, coefs = self._piece_lists
        k = self._piece_at(s)
        a = edges[k]
        t = (s - a) / (edges[k + 1] - a)
        u = 1.0 - t
        p = self.degree
        tp, up = [1.0], [1.0]
        for _ in range(p):
            tp.append(tp[-1] * t)
            up.append(up[-1] * u)
        xs, ys, ws = coefs[k]
        hom = []
        j = 0
        for q in range(p, p - min(order, p, 2) - 1, -1):
            x = y = w = 0.0
            for i in range(q + 1):
                b = math.comb(q, i) * tp[i] * up[q - i]
                x += b * xs[j]
                y += b * ys[j]
                w += b * ws[j]
                j += 1
            hom.append((x, y, w))
        # The quotient rule of `rational_derivatives`.
        x0, y0, w0 = hom[0]
        c0 = (x0 / w0, y0 / w0)
        out = [c0]
        if order >= 1:
            x1, y1, w1 = hom[1]
            c1 = ((x1 - c0[0] * w1) / w0, (y1 - c0[1] * w1) / w0)
            out.append(c1)
        if order >= 2:
            if p < 2:
                out.append((0.0, 0.0))
            else:
                x2, y2, w2 = hom[2]
                out.append(((x2 - 2.0 * c1[0] * w1 - c0[0] * w2) / w0,
                            (y2 - 2.0 * c1[1] * w1 - c0[1] * w2) / w0))
        return out

    def derivatives(self, s, order: int = 2):
        """Return (C, C', C'') arrays at the given parameter(s).

        Accepts a scalar or 1-d array; outputs have shape (m, 2). Rational
        derivatives follow the quotient rule applied to the homogeneous
        numerator and denominator.
        """
        return tuple(c.T for c in self._derivs(self._params(s), order))

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
            # Within CURV_OFFSET of a domain end only the inward offset
            # exists. One level only, with no recursion: where an offset's
            # tangent vanishes too (a stationary stretch), it reads zero.
            bad = np.nonzero(~ok)[0]
            lo = s_arr[bad] - CURV_OFFSET
            hi = s_arr[bad] + CURV_OFFSET
            lo, hi = np.where(lo < 0.0, hi, lo), np.where(hi > 1.0, lo, hi)
            _, d1, d2 = self._derivs(np.concatenate([lo, hi]), 2)
            k, _ = curvature_values(d1, d2)
            kappa[bad] = np.maximum(k[: bad.size], k[bad.size:])
        return kappa

    def curvatures(self, s) -> np.ndarray:
        """Curvature values for an array of parameters."""
        return self._curvature_values(self._params(s))

    def positions_and_curvatures(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Points and curvatures from a single derivative evaluation. No
        package module calls it; the benchmark's tracer patches it until
        ROADMAP item 1 re-points that span."""
        s_arr = self._params(s)
        derivs = self._derivs(s_arr, 2)
        return derivs[0].T, self._curvature_values(s_arr, derivs=derivs)

    # -- arc length -------------------------------------------------------

    def _speed(self, s_arr: np.ndarray) -> np.ndarray:
        _, c1 = self.derivatives(s_arr, order=1)
        return np.sqrt(np.einsum("ij,ij->i", c1, c1))

    def _speed_at(self, s: float) -> float:
        _, (dx, dy) = self.derivatives_at(s, 1)
        return math.sqrt(dx * dx + dy * dy)

    def arc_length(self, s0: float = 0.0, s1: float = 1.0) -> float:
        """Arc length of the curve between two parameters.

        Composite Gauss-Legendre quadrature of the parametric speed, with
        panels refined until the total stabilizes to 1e-9 relative.
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
            if prev is not None and abs(total - prev) <= 1e-9 * max(abs(total), 1e-300):
                return total
            if n_sub >= 128:
                return total
            prev = total
            n_sub *= 2

    @cached_property
    def length_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Piece edges (K + 1,) and the cumulative arc length there
        (`edge_lengths`): the cells in which `locate_length` and
        `derivatives_at_lengths` place arc lengths."""
        return (piece_map(self.knots, self.degree)[0],
                edge_lengths(self.knots, self.degree, self.homogeneous.T)[0])

    def length_from_start(self, s) -> np.ndarray | float:
        """L(s): the grid length at the start of s's piece plus 5-point
        Gauss-Legendre quadrature of the speed over the rest of the way to
        s. An array of parameters maps the one-parameter form.

        The grid has 5 nodes per piece, so its accuracy depends on the
        curve: on the 72 search candidates of the planner's kernel tests,
        `total_length()` is off by up to 2.6e-4 relative (median 1.5e-6)
        against a 20,000-cell 10-point Gauss reference, worst on the
        start-of-leg path with extreme weights and spacing factors.
        `arc_length` is within 4e-8 on all 72.
        """
        lengths = [self._length_at(x) for x in self._params(s).tolist()]
        return lengths[0] if np.ndim(s) == 0 else np.array(lengths)

    def _length_at(self, s: float) -> float:
        """`length_from_start` at one checked parameter, in floats. The
        arc-length cells are the pieces, so s's cell is its piece."""
        k = self._piece_at(s)
        a = self._piece_lists[0][k]
        half = 0.5 * (s - a)
        mid = 0.5 * (s + a)
        nodes, wts = (x.tolist() for x in _leggauss(5))
        quad = 0.0
        for x, w in zip(nodes, wts):
            quad += self._speed_at(mid + half * x) * w
        return float(self.length_grid[1][k]) + half * quad

    def total_length(self) -> float:
        return float(self.length_grid[1][-1])

    def param_at_length(self, target) -> np.ndarray | float:
        """Invert the arc-length function: smallest s with L(s) = target.

        Targets are clipped to [0, total length]. Bracketing on the grid
        (its monotone interpolant) followed by Newton iterations on the
        residual L(s) - target, one target at a time in floats.
        """
        scalar = np.ndim(target) == 0
        tgt = np.atleast_1d(np.asarray(target, dtype=float))
        edges, cum = self.length_grid
        tgt = np.clip(tgt, 0.0, cum[-1])
        idx, frac = locate_length(cum, tgt)
        s = edges[idx] + frac * (edges[idx + 1] - edges[idx])
        out = []
        for s_k, t_k in zip(s.tolist(), tgt.tolist()):
            for _ in range(3):
                resid = self._length_at(s_k) - t_k
                speed = max(self._speed_at(s_k), 1e-12)
                s_k = min(max(s_k - resid / speed, 0.0), 1.0)
            out.append(s_k)
        return out[0] if scalar else np.array(out)

    @cached_property
    def _end_spacing(self) -> tuple[float | None, float | None]:
        """Spacing factors (lam1, lam2) of a heading-path layout, each None
        once its endpoint triple has lost the regular form (see
        apply_delta)."""
        pts = self.control_points
        n = pts.shape[0]
        lam1 = float(np.linalg.norm(pts[1] - pts[0]))
        lam2 = float(np.linalg.norm(pts[-1] - pts[-2]))
        start, end = pts[1:PINNED], pts[n - PINNED: n - 1][::-1]
        return (lam1 if lam1 > 0.0 and _regular_triple(pts[0], start) else None,
                lam2 if lam2 > 0.0 and _regular_triple(pts[-1], end) else None)

    # -- projection -------------------------------------------------------

    def project(self, q, hint: float | None = None) -> tuple[float, float]:
        """Closest point on the curve to q: returns (s*, distance).

        Coarse grid scan then Newton refinement of g(s) = (C - q) . C'.
        With a hint the scan window is centered on it. The grid is scanned
        as one array evaluation; each Newton step and the four final
        candidates (the Newton result, the grid point and both curve ends)
        are single-parameter float evaluations. The candidates are taken in
        increasing parameter order; one replaces the best so far only when
        it is closer by more than 1e-15, so ties at equal distance take the
        smallest parameter.
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
        s_grid = float(grid[int(np.argmin(d2))])
        qx, qy = float(q[0]), float(q[1])
        s = s_grid
        for _ in range(PROJ_NEWTON_STEPS):
            (x, y), (dx, dy), (ddx, ddy) = self.derivatives_at(s)
            rx, ry = x - qx, y - qy
            g = rx * dx + ry * dy
            gp = dx * dx + dy * dy + (rx * ddx + ry * ddy)
            if abs(g) < PROJ_TOL or gp <= 0.0:
                break
            s_new = min(1.0, max(0.0, s - g / gp))
            if abs(s_new - s) < 1e-15:
                s = s_new
                break
            s = s_new
        best_s, best_d = None, None
        for cand in sorted([s, s_grid, 0.0, 1.0]):
            ((x, y),) = self.derivatives_at(cand, 0)
            dist = math.hypot(x - qx, y - qy)
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

    def max_curvature(self, n_samples: int = 200,
                      kappa: np.ndarray | None = None) -> tuple[float, float]:
        """Peak curvature and its parameter.

        Uniform grid scan, then a zoom on the bracket around the grid
        argmax (its neighbours on either side): each round evaluates
        ZOOM_POINTS evenly spaced parameters across the bracket in one call
        and narrows the bracket to the neighbours of their argmax, until it
        is narrower than 1e-12 (about ten curve evaluations in all). The
        largest curvature sampled is returned, so the result is never below
        the grid maximum. A caller that already has the curvatures on the
        grid, linspace(0, 1, n_samples), passes them as `kappa` and the
        scan is skipped.
        """
        if n_samples < 2:
            raise ValueError("need at least two curvature samples")
        grid = np.linspace(0.0, 1.0, n_samples)
        if kappa is None:
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


def is_leg(start, goal) -> bool:
    """Whether two points make a leg: the chord between them is positive.

    There is no tolerance, absolute or scaled by the coordinates: two
    points make a leg iff they differ, at any coordinate magnitude, since
    math.hypot does not underflow to zero on a nonzero difference.
    """
    dx, dy = np.asarray(goal, dtype=float) - np.asarray(start, dtype=float)
    return math.hypot(dx, dy) > 0.0


def build_path_with_headings(start, goal, spec: HeadingSpec,
                             n_interior: int) -> NurbsCurve:
    """Cubic path whose endpoint tangents match the requested headings.

    Three collinear points are appended to each endpoint along the heading
    direction at spacings j * lambda (j = 1, 2, 3); interior points are
    spread evenly between the inner ends of the two collinear triples so
    the control polygon never doubles back on aligned headings. Unit
    weights, clamped uniform knots.

    Start and goal must make a leg (`is_leg`): any positive chord will
    do, however short next to the coordinates. This is the one rule a
    leg is judged by, for scenario waypoints and mid-flight resets alike.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not is_leg(start, goal):
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
    # movable_count's layout, n - 2 * PINNED free points between the two
    # pinned ends, is cubic-only.
    return NurbsCurve(
        degree=3,
        control_points=pts,
        weights=np.ones(n),
        knots=clamped_uniform_knots(n, 3),
    )


def movable_count(curve: NurbsCurve) -> int:
    """Number of freely movable interior control points of a heading path."""
    return max(curve.control_points.shape[0] - 2 * PINNED, 0)


def delta_dimension(curve: NurbsCurve) -> int:
    """Decision-vector length for apply_delta on this curve."""
    return 3 * movable_count(curve) + 2


def split_delta(delta: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the blocks of a (..., delta_dimension) array: point moves
    (..., m, 2), weight shifts (..., m) and spacing factors (..., 2)."""
    m = (delta.shape[-1] - 2) // 3
    return (delta[..., : 2 * m].reshape(*delta.shape[:-1], m, 2),
            delta[..., 2 * m: 3 * m], delta[..., 3 * m:])


def join_delta(moves, shifts, spacing) -> np.ndarray:
    """The decision vector of point moves (m, 2), weight shifts (m,) and
    spacing factors (2,); the inverse of split_delta."""
    return np.concatenate([np.ravel(moves), shifts, spacing])


def neutral_delta(curve: NurbsCurve) -> np.ndarray:
    """The delta vector that reproduces the curve unchanged."""
    m = movable_count(curve)
    pts = curve.control_points
    return join_delta(np.zeros((m, 2)), np.zeros(m),
                      [np.linalg.norm(pts[1] - pts[0]),
                       np.linalg.norm(pts[-1] - pts[-2])])


def align_delta(old: np.ndarray, cut: NurbsCurve) -> np.ndarray:
    """Momentum start: a previous cycle's delta, mapped onto the layout of
    the cut (which may have fewer movable points), to be applied again.

    The cut is taken from the flown plan, so its points and weights already
    carry that displacement; applying it once more steps as far again in
    the same direction. (Applying it "once" would give neutral_delta(cut).)
    Points are consumed from the front of the path, so blocks align on
    their trailing entries; new leading entries start at zero. The spacing
    factors are absolute, not displacements, and carry over as they are.
    """
    old_moves, old_shifts, spacing = split_delta(np.asarray(old, dtype=float))
    m = movable_count(cut)
    k = min(m, old_shifts.size)
    moves, shifts = np.zeros((m, 2)), np.zeros(m)
    moves[m - k:] = old_moves[old_shifts.size - k:]
    shifts[m - k:] = old_shifts[old_shifts.size - k:]
    return join_delta(moves, shifts, spacing)


def _regular_triple(anchor: np.ndarray, triple: np.ndarray) -> bool:
    """True when the three points step away from the anchor in equal
    collinear increments (the form produced at construction). The caller
    has checked that the first step is not zero."""
    step = triple[0] - anchor
    tol = 1e-9 * float(np.linalg.norm(step))
    return (np.linalg.norm(triple[1] - triple[0] - step) <= tol
            and np.linalg.norm(triple[2] - triple[1] - step) <= tol)


def _vary(base: NurbsCurve, deltas: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Control points (P, n, 2) and weights (P, n) of P variations."""
    n = base.control_points.shape[0]
    moves, shifts, spacing = split_delta(deltas)
    free = slice(PINNED, n - PINNED)
    pts = np.repeat(base.control_points[None], len(deltas), axis=0)
    w = np.repeat(base.weights[None], len(deltas), axis=0)
    pts[:, free] += moves
    w[:, free] = np.clip(w[:, free] + shifts, W_MIN, W_MAX)

    src = base.control_points
    for lam, base_lam, anchor, triple in (
            (spacing[:, 0], base._end_spacing[0], 0, slice(1, PINNED)),
            (spacing[:, 1], base._end_spacing[1], n - 1,
             slice(n - PINNED, n - 1))):
        if base_lam is None:
            continue
        rows = (lam > 0.0) & (lam != base_lam)
        pts[rows, triple] = src[anchor] + (lam[rows] / base_lam)[:, None, None] \
            * (src[triple] - src[anchor])
    return pts, w


def apply_delta(base: NurbsCurve, delta) -> NurbsCurve:
    """Apply a plan variation [dP, dw, lam1, lam2] to a heading path.

    Interior control points move by dP, interior weights shift by dw
    (clamped to the weight box), and the collinear endpoint triples are
    rescaled about their anchors so the resulting spacing factors equal the
    candidate lam1, lam2. A spacing factor is applied only while its triple
    still has the evenly spaced collinear form it was built with; cutting
    the path disturbs the start triple, after which lam1 becomes inert
    (rescaling an irregular triple would distort the shape without bound).
    Endpoints and endpoint heading directions never change. The delta is
    applied as given, with no clip to a search box.
    """
    delta = np.asarray(delta, dtype=float)
    if base.control_points.shape[0] < 2 * PINNED:
        raise ValueError("curve too short to carry a heading-path layout")
    dim = delta_dimension(base)
    if delta.shape != (dim,):
        raise ValueError(f"delta must have dimension {dim}, got {delta.shape}")
    pts, w = _vary(base, delta[None])
    return NurbsCurve(degree=base.degree, control_points=pts[0], weights=w[0],
                      knots=np.array(base.knots))


def apply_delta_batch(base: NurbsCurve, deltas: np.ndarray) -> np.ndarray:
    """apply_delta for a (P, dim) array of variations at once.

    Returns the homogeneous control points in the component-major form the
    search kernel multiplies by its basis: a (3P, n) array whose rows
    [0, P), [P, 2P) and [2P, 3P) hold w x, w y and w of the P variations.
    Every variation keeps the base knot vector, so its basis is the base
    curve's. Rows p, P + p and 2P + p are the columns of
    apply_delta(base, deltas[p]).homogeneous.
    """
    pts, w = _vary(base, np.asarray(deltas, dtype=float))
    return np.concatenate([w * pts[..., 0], w * pts[..., 1], w])

"""Curve kernel tests: evaluation, curvature, arc length, projection,
splitting, the heading-path constructor, and plan-variation application."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import nurbsnav
from nurbsnav.geometry import (PINNED, HeadingSpec, NurbsCurve, W_MIN,
                               _piece_form, apply_delta, basis_matrices,
                               build_path_with_headings, clamped_uniform_knots,
                               delta_dimension, derivatives_at_lengths,
                               join_delta, locate_length,
                               locate_piece, movable_count, neutral_delta,
                               piece_basis, piece_map, rational_derivatives,
                               split_delta, validate_knots)


def segment(p0=(0.0, 0.0), p1=(10.0, 0.0)) -> NurbsCurve:
    return NurbsCurve(degree=1, control_points=np.array([p0, p1], dtype=float),
                      weights=np.ones(2), knots=np.array([0.0, 0.0, 1.0, 1.0]))


def quarter_circle(radius: float = 1.0) -> NurbsCurve:
    pts = radius * np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return NurbsCurve(degree=2, control_points=pts,
                      weights=np.array([1.0, math.sqrt(0.5), 1.0]),
                      knots=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))


def wiggly() -> NurbsCurve:
    pts = np.array([[0.0, 0.0], [10.0, 8.0], [20.0, -6.0], [30.0, 9.0],
                    [40.0, -4.0], [50.0, 3.0], [60.0, 0.0]])
    w = np.array([1.0, 0.8, 1.4, 1.0, 2.0, 0.6, 1.0])
    return NurbsCurve(degree=3, control_points=pts, weights=w,
                      knots=clamped_uniform_knots(7, 3))


# -- evaluation -----------------------------------------------------------

def test_linear_interpolation_midpoint():
    assert np.array_equal(segment().point(0.5), np.array([5.0, 0.0]))


def test_clamped_endpoints_interpolated():
    c = wiggly()
    assert np.allclose(c.point(0.0), c.control_points[0], rtol=0, atol=1e-15)
    assert np.allclose(c.point(1.0), c.control_points[-1], rtol=0, atol=1e-15)


def test_quarter_circle_on_unit_circle():
    c = quarter_circle()
    s = np.linspace(0.0, 1.0, 1000)
    assert np.max(np.abs(np.linalg.norm(c.point(s), axis=1) - 1.0)) <= 1e-9


def test_parameter_out_of_domain_rejected():
    with pytest.raises(ValueError):
        segment().point(1.5)
    with pytest.raises(ValueError):
        segment().point(-0.1)
    with pytest.raises(ValueError):
        segment().length_from_start(1.5)
    with pytest.raises(ValueError):
        segment().length_from_start(-0.1)
    with pytest.raises(ValueError):
        segment().derivatives_at(1.5)
    with pytest.raises(ValueError):
        segment().derivatives_at(-0.1)


def test_derivatives_match_finite_differences():
    c = wiggly()
    s = np.linspace(0.05, 0.95, 17)
    h = 1e-5
    c0, c1, c2 = c.derivatives(s, order=2)
    fwd = c.point(s + h)
    bwd = c.point(s - h)
    fd1 = (fwd - bwd) / (2.0 * h)
    fd2 = (fwd - 2.0 * c0 + bwd) / (h * h)
    scale1 = np.max(np.linalg.norm(c1, axis=1))
    scale2 = np.max(np.linalg.norm(c2, axis=1))
    assert np.max(np.linalg.norm(c1 - fd1, axis=1)) <= 1e-6 * scale1
    assert np.max(np.linalg.norm(c2 - fd2, axis=1)) <= 1e-3 * scale2


# A double interior knot leaves an empty span between its copies.
DOUBLE_KNOTS = np.array([0.0, 0.0, 0.0, 0.0, 0.4, 0.4, 0.7, 1.0, 1.0, 1.0, 1.0])


def cox_de_boor(knots, degree, s, order) -> list:
    """Reference basis matrices on explicit knot spans: the span to the
    right of equal knots, and the last non-empty span at s = 1."""
    span = np.minimum(np.searchsorted(knots, s, side="right") - 1,
                      knots.size - degree - 2)
    return basis_matrices(knots, degree, s, order, span)


def piecewise_cases() -> list:
    """Curves of degree 1-3 with random weights, one on DOUBLE_KNOTS, and
    halves produced by split."""
    rng = np.random.default_rng(21)
    curves = [NurbsCurve(degree=p, control_points=rng.uniform(-50.0, 50.0, (n, 2)),
                         weights=rng.uniform(0.2, 3.0, n),
                         knots=clamped_uniform_knots(n, p))
              for p, n in ((1, 6), (2, 7), (3, 9))]
    curves.append(NurbsCurve(degree=3,
                             control_points=rng.uniform(-50.0, 50.0, (7, 2)),
                             weights=rng.uniform(0.2, 3.0, 7), knots=DOUBLE_KNOTS))
    for c, s_cut in ((curves[1], 0.58), (curves[2], 0.37), (curves[3], 0.55),
                     (wiggly(), 0.62)):
        curves.extend(c.split(s_cut))
    return curves


def test_piecewise_form_matches_cox_de_boor():
    # Positions and first and second derivatives from the per-piece
    # Bernstein form agree with the dense Cox-de Boor tables at both ends,
    # at every distinct knot and one ulp either side of it. So do the
    # basis matrices read from the piece table: the cached length basis at
    # the 5 Gauss-Legendre nodes of every piece, and the candidate
    # kernel's on the 64-point curvature grid. test_basis_span_rules checks
    # them on DOUBLE_KNOTS.
    for c in piecewise_cases():
        knots = np.unique(c.knots)
        s = np.unique(np.concatenate([knots, np.nextafter(knots, 2.0),
                                      np.nextafter(knots, -1.0)]))
        s = s[(s >= 0.0) & (s <= 1.0)]
        got = c.derivatives(s, order=2)
        hom = c.homogeneous
        mats = cox_de_boor(c.knots, c.degree, s, min(c.degree, 2))
        ref = rational_derivatives([(b @ hom).T for b in mats]
                                   + [None] * (3 - len(mats)))
        for g, r in zip(got, ref):
            scale = np.max(np.linalg.norm(r, axis=0))
            assert np.max(np.linalg.norm(g - r.T, axis=1)) <= 1e-12 * scale
        edges = piece_map(c.knots, c.degree)[0]
        nodes, _ = np.polynomial.legendre.leggauss(5)
        gauss = (edges[:-1, None]
                 + np.diff(edges)[:, None] * (0.5 + 0.5 * nodes)).ravel()
        grid = np.linspace(0.0, 1.0, 64)
        curv_order = min(2, c.degree)
        for got, s_ref, order in (
                (np.split(_piece_form(c.knots.tobytes(), c.degree).gauss_basis.T, 2),
                 gauss, 1),
                (piece_basis(c.knots, c.degree, grid, curv_order), grid,
                 curv_order)):
            for g, r in zip(got, cox_de_boor(c.knots, c.degree, s_ref, order)):
                assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_basis_span_rules():
    # Partition of unity on the double-knot vector, and the domain ends
    # take unit rows (s = 1 on the last non-empty span or piece).
    s = np.array([0.0, 0.2, 0.4, 0.55, 0.7, 0.9, 1.0])
    for b, db in (piece_basis(DOUBLE_KNOTS, 3, s, 1),
                  cox_de_boor(DOUBLE_KNOTS, 3, s, 1)):
        assert np.allclose(b.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(db.sum(axis=1), 0.0, rtol=0, atol=1e-12)
        assert np.array_equal(b[0], np.eye(7)[0])
        assert np.array_equal(b[-1], np.eye(7)[-1])
    # The piece search lands to the right of an edge (never on the empty
    # span between equal knots) and puts s = 1 at the end of the last piece.
    edges = piece_map(DOUBLE_KNOTS, 3)[0]
    idx, t = locate_piece(edges, edges)
    assert np.array_equal(idx[:-1], np.arange(edges.size - 1))
    assert np.array_equal(t[:-1], np.zeros(edges.size - 1))
    assert idx[-1] == edges.size - 2 and t[-1] == 1.0


def test_scalar_evaluation_matches_array_form():
    # The float evaluator behind single-parameter queries agrees with the
    # array form at s = 0 and s = 1, at every distinct knot and piece edge,
    # and one ulp either side of each.
    for c in piecewise_cases():
        marks = np.unique(np.concatenate([c.knots, piece_map(c.knots, c.degree)[0]]))
        s = np.unique(np.concatenate([marks, np.nextafter(marks, 2.0),
                                      np.nextafter(marks, -1.0)]))
        s = s[(s >= 0.0) & (s <= 1.0)]
        assert s[0] == 0.0 and s[-1] == 1.0
        for order in (0, 1, 2):
            ref = c.derivatives(s, order)
            got = np.array([c.derivatives_at(x, order) for x in s.tolist()])
            for k in range(order + 1):
                scale = np.max(np.linalg.norm(ref[k], axis=1))
                err = np.max(np.linalg.norm(got[:, k] - ref[k], axis=1))
                assert err <= 1e-12 * scale


def test_piecewise_form_interpolates_ends_exactly():
    for c in piecewise_cases():
        hom = c.homogeneous[[0, -1]]
        assert np.array_equal(c.point(np.array([0.0, 1.0])), hom[:, :2] / hom[:, 2:])
    c = wiggly()
    assert np.array_equal(c.point(0.0), c.control_points[0])
    assert np.array_equal(c.point(1.0), c.control_points[-1])


# -- curvature ------------------------------------------------------------

def test_straight_segment_zero_curvature():
    s = np.linspace(0.0, 1.0, 50)
    assert np.max(segment().curvatures(s)) == 0.0


def test_quarter_circle_unit_curvature():
    s = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(quarter_circle().curvatures(s) - 1.0)) <= 1e-6


def test_zero_tangent_at_domain_end_uses_inward_offset():
    # A doubled first control point stops the tangent at s = 0; the
    # symmetric offset used to clamp back onto the same end and recurse
    # without end. Reversed, the same happens at s = 1.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    knots = clamped_uniform_knots(4, 3)
    c = NurbsCurve(degree=3, control_points=pts, weights=np.ones(4), knots=knots)
    r = NurbsCurve(degree=3, control_points=pts[::-1].copy(), weights=np.ones(4),
                   knots=knots)
    assert c.curvatures([0.0])[0] == pytest.approx(c.curvatures([1e-6])[0],
                                                   rel=1e-12)
    assert r.curvatures([1.0])[0] == pytest.approx(r.curvatures([1.0 - 1e-6])[0],
                                                   rel=1e-12)
    # Near the stop the curve is (30 s^2, 10 s^3): curvature 1 / (120 s).
    assert c.curvatures([0.0])[0] == pytest.approx(1.0 / 120e-6, rel=1e-4)
    for curve in (c, r):
        ends = curve.curvatures([0.0, 1.0])
        peak, _ = curve.max_curvature(64)
        assert np.all(np.isfinite(ends)) and np.isfinite(peak)
        assert peak >= ends.max()


def test_start_tangent_parallel_to_first_leg():
    c = wiggly()
    tangent = c.derivatives(0.0, order=1)[1][0]
    leg = c.control_points[1] - c.control_points[0]
    cross = tangent[0] * leg[1] - tangent[1] * leg[0]
    assert abs(cross) <= 1e-9 * np.linalg.norm(tangent) * np.linalg.norm(leg)
    assert tangent @ leg > 0.0


def test_max_curvature_analytic_and_brute_force():
    k0, _ = segment().max_curvature()
    assert k0 == 0.0
    k2, _ = quarter_circle(radius=2.0).max_curvature()
    assert abs(k2 - 0.5) <= 1e-6
    c = wiggly()
    dense = np.max(c.curvatures(np.linspace(0.0, 1.0, 100_000)))
    k, _ = c.max_curvature(400)
    assert abs(k - dense) <= 1e-4 * dense


def random_heading_path(rng) -> NurbsCurve:
    """A heading path varied by apply_delta, cut part-way half the time, as
    the planner's candidates are."""
    spec = HeadingSpec(gamma_init=rng.uniform(-math.pi, math.pi),
                       gamma_goal=rng.uniform(-math.pi, math.pi),
                       lam1=rng.uniform(1.0, 8.0), lam2=rng.uniform(1.0, 8.0))
    c = build_path_with_headings([0.0, 0.0], rng.uniform([60.0, -80.0],
                                                         [200.0, 80.0]),
                                 spec, int(rng.integers(1, 9)))
    n_mov = movable_count(c)
    delta = neutral_delta(c)
    moves, shifts, spacing = split_delta(delta)
    moves += rng.uniform(-15.0, 15.0, (n_mov, 2))
    shifts += rng.uniform(-0.9, 2.0, n_mov)
    spacing *= rng.uniform(0.5, 1.5, 2)
    c = apply_delta(c, delta)
    return c.split(rng.uniform(0.05, 0.6))[1] if rng.random() < 0.5 else c


def golden_max_curvature(c: NurbsCurve, n_samples: int) -> float:
    """Reference peak: golden-section search on the grid argmax bracket,
    one curvature evaluation per step."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def kappa_at(s):
        return float(c.curvatures(np.array([s]))[0])

    grid = np.linspace(0.0, 1.0, n_samples)
    kappa = c.curvatures(grid)
    i = int(np.argmax(kappa))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, n_samples - 1)]
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = kappa_at(x1), kappa_at(x2)
    while b - a >= 1e-12:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = kappa_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = kappa_at(x1)
    return max(kappa_at(0.5 * (a + b)), float(kappa[i]))


def test_max_curvature_matches_golden_section():
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = random_heading_path(rng)
        for n in (64, 256):
            ref = golden_max_curvature(c, n)
            k, s_peak = c.max_curvature(n)
            assert abs(k - ref) <= 1e-9 * ref
            assert k >= np.max(c.curvatures(np.linspace(0.0, 1.0, n)))
            assert abs(c.curvatures(np.array([s_peak]))[0] - k) <= 1e-12 * k


def test_max_curvature_evaluation_count(monkeypatch):
    calls = []
    original = NurbsCurve._curvature_values

    def counting(self, s_arr, derivs=None):
        calls.append(s_arr.size)
        return original(self, s_arr, derivs)

    monkeypatch.setattr(NurbsCurve, "_curvature_values", counting)
    rng = np.random.default_rng(12)
    curves = [random_heading_path(rng) for _ in range(10)] + [wiggly()]
    for c in curves:
        for n in (2, 64, 256):
            calls.clear()
            c.max_curvature(n)
            assert len(calls) <= 12


def test_max_curvature_from_sampled_grid(monkeypatch):
    # Curvatures the caller already has on the grid replace the scan and
    # give the same peak.
    rng = np.random.default_rng(13)
    curves = [random_heading_path(rng) for _ in range(5)]
    expected = [c.max_curvature(256) for c in curves]
    grid = np.linspace(0.0, 1.0, 256)
    sampled = [c.curvatures(grid) for c in curves]
    calls = []
    original = NurbsCurve._curvature_values

    def counting(self, s_arr, derivs=None):
        calls.append(s_arr.size)
        return original(self, s_arr, derivs)

    monkeypatch.setattr(NurbsCurve, "_curvature_values", counting)
    for c, kappa, ref in zip(curves, sampled, expected):
        calls.clear()
        assert c.max_curvature(256, kappa=kappa) == ref
        assert 256 not in calls


# -- arc length -----------------------------------------------------------

def test_arc_length_segment_and_empty_interval():
    c = segment()
    assert abs(c.arc_length(0.0, 1.0) - 10.0) <= 1e-9
    assert c.arc_length(0.4, 0.4) == 0.0


def test_arc_length_quarter_circle():
    assert abs(quarter_circle().arc_length() - math.pi / 2.0) <= 1e-7


def test_total_length_matches_adaptive_quadrature():
    c = wiggly()
    assert abs(c.total_length() - c.arc_length(0.0, 1.0)) <= 1e-6


def test_param_at_length_round_trip():
    c = wiggly()
    total = c.total_length()
    targets = np.linspace(0.0, total, 23)
    s = c.param_at_length(targets)
    back = c.length_from_start(s)
    assert np.max(np.abs(back - targets)) <= 1e-8 * max(total, 1.0)


def _locate_reference(cum_row, targets):
    """locate_length for one row through np.searchsorted(side="right")."""
    idx = np.minimum(np.searchsorted(cum_row, targets, side="right") - 1,
                     cum_row.size - 2)
    frac = np.zeros(targets.size)
    for m, (i, t) in enumerate(zip(idx, targets)):
        step = cum_row[i + 1] - cum_row[i]
        if step > 0.0:
            frac[m] = (t - cum_row[i]) / step
    return idx, frac


def test_locate_length_matches_searchsorted():
    rng = np.random.default_rng(3)
    cum = np.concatenate([np.zeros((4, 1)),
                          np.cumsum(rng.uniform(0.1, 2.0, (4, 9)), axis=1)],
                         axis=1)
    cum[1, 4] = cum[1, 3]  # a zero-width cell inside the row
    cum[2, 1] = 0.0  # one at the start
    cum[3, -1] = cum[3, -2]  # and one at the end
    targets = rng.uniform(0.0, 1.0, (4, 12)) * cum[:, -1:]
    targets[:, 0] = 0.0
    targets[:, 1] = cum[:, -1]
    targets[:, 2:5] = cum[:, 2:5]  # exactly on cell edges
    targets[1, 5] = cum[1, 4]
    idx, frac = locate_length(cum, targets)
    for row in range(cum.shape[0]):
        ref_idx, ref_frac = _locate_reference(cum[row], targets[row])
        assert np.array_equal(idx[row], ref_idx)
        assert np.array_equal(frac[row], ref_frac)
        one_idx, one_frac = locate_length(cum[row], targets[row])
        assert np.array_equal(one_idx, ref_idx)
        assert np.array_equal(one_frac, ref_frac)


def test_array_length_queries_map_the_scalar_form():
    # Length queries have one implementation: an array of parameters or
    # targets gives exactly the one-at-a-time results.
    rng = np.random.default_rng(17)
    for c in piecewise_cases() + [random_heading_path(rng) for _ in range(4)]:
        edges, cum = c.length_grid
        total = c.total_length()
        s = np.concatenate([[0.0, 1.0, edges[len(edges) // 2]], rng.uniform(size=6)])
        got = c.length_from_start(s)
        assert np.array_equal(got, [c.length_from_start(x) for x in s.tolist()])
        targets = np.concatenate([[0.0, total, cum[len(cum) // 2]],
                                  rng.uniform(0.0, total, 6)])
        got = c.param_at_length(targets)
        assert np.array_equal(got, [c.param_at_length(x) for x in targets.tolist()])


def test_length_samples_on_grid_edges_are_piece_edge_points():
    # Arc lengths on the curve's own length grid land on its piece edges,
    # where the sampled points are the curve's points bit for bit.
    for c in piecewise_cases():
        edges, cum = c.length_grid
        pos, _ = derivatives_at_lengths(c.knots, c.degree, c.homogeneous.T,
                                        cum[None], cum[None])
        assert np.array_equal(pos[:, 0].T, c.point(edges))


def test_length_from_start_monotone():
    c = wiggly()
    lengths = c.length_from_start(np.linspace(0.0, 1.0, 200))
    assert np.all(np.diff(lengths) >= 0.0)


# -- projection -----------------------------------------------------------

def test_project_point_on_curve():
    c = wiggly()
    q = c.point(0.37)
    s_star, dist = c.project(q)
    assert dist <= 1e-9
    assert abs(s_star - 0.37) <= 1e-6


def test_project_perpendicular_foot():
    s_star, dist = segment().project(np.array([5.0, 3.0]))
    assert abs(s_star - 0.5) <= 1e-12
    assert abs(dist - 3.0) <= 1e-12


def test_project_matches_dense_argmin():
    c = wiggly()
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 100_000)
    pts = c.point(grid)
    for _ in range(25):
        q = rng.uniform([-10.0, -15.0], [70.0, 15.0])
        _, dist = c.project(q)
        brute = float(np.min(np.linalg.norm(pts - q, axis=1)))
        assert abs(dist - brute) <= 1e-6


def four_point_project(c: NurbsCurve, q, hint=None) -> tuple[float, float]:
    """Reference projection: the same scan and Newton steps, then one
    `point` call per final candidate."""
    q = np.asarray(q, dtype=float)
    lo, hi = (0.0, 1.0) if hint is None \
        else (max(0.0, hint - 0.15), min(1.0, hint + 0.15))
    grid = np.linspace(lo, hi, 64)
    i = int(np.argmin(np.sum((c.point(grid) - q) ** 2, axis=1)))
    s = float(grid[i])
    for _ in range(20):
        c0, c1, c2 = c.derivatives(np.array([s]), order=2)
        r = c0[0] - q
        g = float(r @ c1[0])
        gp = float(c1[0] @ c1[0] + r @ c2[0])
        if abs(g) < 1e-10 or gp <= 0.0:
            break
        s_new = min(1.0, max(0.0, s - g / gp))
        if abs(s_new - s) < 1e-15:
            s = s_new
            break
        s = s_new
    best_s, best_d = None, None
    for cand in sorted([s, float(grid[i]), 0.0, 1.0]):
        dist = float(np.linalg.norm(c.point(cand) - q))
        if best_d is None or dist < best_d - 1e-15:
            best_s, best_d = cand, dist
    return best_s, best_d


def test_project_matches_four_point_reference():
    rng = np.random.default_rng(13)
    for c in [wiggly()] + [random_heading_path(rng) for _ in range(10)]:
        lo, hi = c.control_points.min(axis=0), c.control_points.max(axis=0)
        for _ in range(10):
            q = rng.uniform(lo - 10.0, hi + 10.0)
            hint = float(rng.uniform()) if rng.random() < 0.5 else None
            s_ref, d_ref = four_point_project(c, q, hint)
            s_star, dist = c.project(q, hint=hint)
            assert abs(s_star - s_ref) <= 1e-12
            assert abs(dist - d_ref) <= 1e-12 * max(d_ref, 1.0)


def test_project_tie_between_ends_takes_smallest_parameter():
    # A symmetric arch: both ends are exactly as far from q, and closer
    # than any interior point.
    arch = NurbsCurve(degree=3, control_points=np.array(
        [[-10.0, 0.0], [-10.0, 10.0], [10.0, 10.0], [10.0, 0.0]]),
        weights=np.ones(4), knots=clamped_uniform_knots(4, 3))
    q = np.array([0.0, -5.0])
    assert four_point_project(arch, q) == (0.0, math.hypot(10.0, 5.0))
    assert arch.project(q) == (0.0, math.hypot(10.0, 5.0))


# -- splitting ------------------------------------------------------------

def test_split_segment_right_start():
    left, right = segment().split(0.3)
    assert np.allclose(right.point(0.0), [3.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(left.point(1.0), [3.0, 0.0], rtol=0, atol=1e-12)


def test_split_knots_reclamped():
    for half in segment().split(0.3) + wiggly().split(0.62):
        validate_knots(half.knots, half.degree)  # raises on violation
        assert half.knots[0] == 0.0 and half.knots[-1] == 1.0


def test_split_circle_shape_invariance():
    left, right = quarter_circle().split(0.5)
    s = np.linspace(0.0, 1.0, 500)
    for half in (left, right):
        assert np.max(np.abs(np.linalg.norm(half.point(s), axis=1) - 1.0)) <= 1e-9


def test_split_interpolates_cut_point():
    c = wiggly()
    cut = c.point(0.41)
    left, right = c.split(0.41)
    assert np.allclose(right.point(0.0), cut, rtol=0, atol=1e-9)
    assert np.allclose(left.point(1.0), cut, rtol=0, atol=1e-9)


def test_split_rejects_boundary_parameters():
    for bad in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            wiggly().split(bad)


# -- heading-path construction --------------------------------------------

def test_build_first_leg_follows_initial_heading():
    spec = HeadingSpec(gamma_init=0.0, gamma_goal=0.0, lam1=2.0, lam2=2.0)
    c = build_path_with_headings([0.0, 0.0], [100.0, 0.0], spec, 4)
    leg = c.control_points[1] - c.control_points[0]
    assert np.allclose(leg, [2.0, 0.0], rtol=0, atol=1e-12)


def test_build_endpoint_triples_collinear():
    spec = HeadingSpec(gamma_init=0.7, gamma_goal=-0.3, lam1=3.0, lam2=5.0)
    c = build_path_with_headings([0.0, 0.0], [80.0, 40.0], spec, 6)
    pts = c.control_points
    for group in (pts[:4], pts[-4:]):
        d = group[1:] - group[:-1]
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.max(np.abs(cross)) <= 1e-9


def test_build_start_tangent_angle():
    spec = HeadingSpec(gamma_init=0.7, gamma_goal=-0.3, lam1=3.0, lam2=5.0)
    c = build_path_with_headings([0.0, 0.0], [80.0, 40.0], spec, 6)
    tan0 = c.derivatives(0.0, order=1)[1][0]
    tan1 = c.derivatives(1.0, order=1)[1][0]
    assert abs(math.atan2(tan0[1], tan0[0]) - 0.7) <= 1e-9
    assert abs(math.atan2(tan1[1], tan1[0]) - (-0.3)) <= 1e-9
    assert np.allclose(c.point(0.0), [0.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(c.point(1.0), [80.0, 40.0], rtol=0, atol=1e-12)


# -- plan variations ------------------------------------------------------

def heading_path(n_interior: int = 4) -> NurbsCurve:
    spec = HeadingSpec(gamma_init=0.0, gamma_goal=0.0, lam1=4.0, lam2=4.0)
    return build_path_with_headings([0.0, 0.0], [100.0, 0.0], spec, n_interior)


def test_apply_delta_neutral_is_bitwise_identity():
    c = heading_path()
    out = apply_delta(c, neutral_delta(c))
    assert np.array_equal(out.control_points, c.control_points)
    assert np.array_equal(out.weights, c.weights)
    assert np.array_equal(out.knots, c.knots)


def test_apply_delta_keeps_endpoints_and_headings():
    c = heading_path()
    rng = np.random.default_rng(3)
    delta = rng.uniform(-5.0, 5.0, delta_dimension(c))
    delta[-2:] = [6.0, 2.5]
    out = apply_delta(c, delta)
    assert np.array_equal(out.point(0.0), c.point(0.0))
    assert np.array_equal(out.point(1.0), c.point(1.0))
    for curve_pair in ((out, c),):
        t_new = curve_pair[0].derivatives(0.0, order=1)[1][0]
        t_old = curve_pair[1].derivatives(0.0, order=1)[1][0]
        assert abs(t_new[0] * t_old[1] - t_new[1] * t_old[0]) <= 1e-9


def test_apply_delta_weight_clipped_to_minimum():
    c = heading_path()
    delta = neutral_delta(c)
    # Drive the first movable weight below the box.
    split_delta(delta)[1][0] = -10.0
    out = apply_delta(c, delta)
    assert out.weights[PINNED] == W_MIN


def test_apply_delta_rescales_fresh_triples():
    c = heading_path()
    delta = neutral_delta(c)
    delta[-2] = 8.0  # double the start spacing
    out = apply_delta(c, delta)
    assert abs(np.linalg.norm(out.control_points[1] - out.control_points[0])
               - 8.0) <= 1e-12
    tan = out.derivatives(0.0, order=1)[1][0]
    assert abs(math.atan2(tan[1], tan[0])) <= 1e-12


def test_apply_delta_spacing_inert_after_cut():
    _, right = heading_path().split(0.3)
    delta = neutral_delta(right)
    delta[-2] = 8.0  # start triple is irregular after the cut
    out = apply_delta(right, delta)
    assert np.array_equal(out.control_points[:4], right.control_points[:4])


@pytest.mark.parametrize("cut", [False, True], ids=["fresh", "cut"])
def test_delta_blocks_address_their_points(cut):
    # Distinct values per block and per entry: point PINNED + i moves by
    # moves[i], weight PINNED + i shifts by shifts[i], and only the last
    # two entries rescale the end triples (lam1 is inert after a cut).
    c = heading_path(n_interior=3)
    if cut:
        c = c.split(0.3)[1]
    m = movable_count(c)
    n = c.control_points.shape[0]
    moves = np.arange(1.0, 2 * m + 1).reshape(m, 2) * [1.0, -0.5]
    shifts = 0.1 * np.arange(1.0, m + 1)
    spacing = np.array([6.0, 2.5])
    delta = join_delta(moves, shifts, spacing)
    assert delta.shape == (delta_dimension(c),)
    for block, part in zip(split_delta(delta), (moves, shifts, spacing)):
        assert np.array_equal(block, part)

    out = apply_delta(c, delta)
    free = slice(PINNED, n - PINNED)
    assert np.allclose(out.control_points[free] - c.control_points[free],
                       moves, rtol=0.0, atol=1e-12)
    assert np.allclose(out.weights[free] - c.weights[free], shifts,
                       rtol=0.0, atol=1e-12)

    # The pinned ends keep their weights and follow the spacing entries
    # alone.
    neutral_spacing = split_delta(neutral_delta(c))[2]
    still = apply_delta(c, join_delta(moves, shifts, neutral_spacing))
    spaced = apply_delta(c, join_delta(np.zeros((m, 2)), np.zeros(m), spacing))
    for part in (slice(0, PINNED), slice(n - PINNED, n)):
        assert np.array_equal(out.weights[part], c.weights[part])
        assert np.array_equal(still.control_points[part],
                              c.control_points[part])
        assert np.array_equal(out.control_points[part],
                              spaced.control_points[part])
    end = out.control_points
    assert abs(np.linalg.norm(end[-1] - end[-2]) - 2.5) <= 1e-12
    if cut:
        assert np.array_equal(end[:PINNED], c.control_points[:PINNED])
    else:
        assert abs(np.linalg.norm(end[1] - end[0]) - 6.0) <= 1e-12


# -- validation -----------------------------------------------------------

def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        validate_knots(np.array([0.0, 0.0, 1.0, 0.5, 1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        validate_knots(np.array([0.0, 0.5, 1.0, 1.0]), 1)  # not clamped
    with pytest.raises(ValueError):
        NurbsCurve(degree=1, control_points=np.zeros((2, 2)),
                   weights=np.array([1.0, -1.0]),
                   knots=np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        NurbsCurve(degree=3, control_points=np.zeros((2, 2)),
                   weights=np.ones(2), knots=np.array([0.0, 0.0, 1.0, 1.0]))


def test_clamped_uniform_knots_layout():
    t = clamped_uniform_knots(5, 3)
    assert np.array_equal(t, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        clamped_uniform_knots(3, 3)


def test_only_geometry_reads_private_curve_attributes():
    # How a curve is sampled stays behind its public API: no other module
    # of the package reads a private NurbsCurve attribute.
    private = {name for name in dir(NurbsCurve)
               if name.startswith("_") and not name.startswith("__")}
    reads = []
    for path in sorted(Path(nurbsnav.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
    assert private and not reads, reads

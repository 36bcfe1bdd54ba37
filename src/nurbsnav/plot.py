"""Static SVG rendering of a finished mission.

Deterministic by construction: a fixed canvas, a world-to-canvas affine
derived from the scenario bounding box, and fixed-precision coordinate
formatting, so identical logs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

CANVAS_W = 800
CANVAS_H = 600
MARGIN = 40.0
TRAIL_STEPS = 8


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Frame:
    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        span = np.maximum(hi - lo, 1e-9)
        sx = (CANVAS_W - 2 * MARGIN) / span[0]
        sy = (CANVAS_H - 2 * MARGIN) / span[1]
        self.scale = min(sx, sy)
        self.lo = lo
        self.hi = hi

    def to_canvas(self, p) -> tuple[float, float]:
        x = MARGIN + (p[0] - self.lo[0]) * self.scale
        y = CANVAS_H - MARGIN - (p[1] - self.lo[1]) * self.scale
        return x, y


def emit_plot(log, world, waypoints, path) -> None:
    """Write the mission overview SVG: obstacles with trails, the executed
    path, and waypoint markers."""
    if not log.positions:
        raise ValueError("cannot plot an empty log")
    pos = np.array(log.positions)
    points = [pos]
    for s in world.statics:
        points.append(s.center[None, :] + np.array([[s.radius, s.radius],
                                                    [-s.radius, -s.radius]]))
    # A mover is drawn only where the log has seen it: one that spawns
    # after the log ends is left out, and does not stretch the canvas.
    t0, t1 = log.times[0], log.times[-1]
    trails = [(d, np.linspace(max(t0, d.spawn_time), t1, TRAIL_STEPS))
              for d in world.dynamics if d.active(t1)]
    for d, times in trails:
        points.extend(d.position(t)[None, :] for t in times)
    for wp in waypoints:
        points.append(np.asarray(wp.position, dtype=float)[None, :])
    allpts = np.vstack(points)
    frame = _Frame(allpts.min(axis=0), allpts.max(axis=0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    for s in world.statics:
        cx, cy = frame.to_canvas(s.center)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(s.radius * frame.scale)}" fill="#b0b0b0" '
            f'stroke="#606060"/>')
    for d, times in trails:
        for i, t in enumerate(times):
            cx, cy = frame.to_canvas(d.position(t))
            opacity = 0.15 + 0.85 * (i / max(TRAIL_STEPS - 1, 1))
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(d.radius * frame.scale)}" fill="#d9534f" '
                f'fill-opacity="{opacity:.3f}" stroke="none"/>')
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}"
                      for x, y in (frame.to_canvas(p) for p in pos))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="2"/>')
    for i, wp in enumerate(waypoints):
        cx, cy = frame.to_canvas(np.asarray(wp.position, dtype=float))
        parts.append(
            f'<g><circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6" fill="none" '
            f'stroke="#2ca02c" stroke-width="2"/>'
            f'<text x="{_fmt(cx + 8)}" y="{_fmt(cy - 8)}" font-size="12" '
            f'fill="#2ca02c">W{i}</text></g>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")

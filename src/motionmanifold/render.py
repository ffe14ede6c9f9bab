"""Minimal deterministic SVG output for scenes, latents, and loss curves.

Byte-identical files for identical inputs: fixed decimal formatting,
no timestamps, no library-version strings.
"""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]


def _fmt(x):
    return f"{float(x):.3f}"


class SvgCanvas:
    """World-coordinate drawing surface with equal x/y scaling."""

    def __init__(self, xlim, ylim, width=640.0, pad=20.0):
        self.xlim = (float(xlim[0]), float(xlim[1]))
        self.ylim = (float(ylim[0]), float(ylim[1]))
        span_x = self.xlim[1] - self.xlim[0]
        span_y = self.ylim[1] - self.ylim[0]
        if span_x <= 0 or span_y <= 0:
            raise ValueError("axis limits must have positive span")
        self.pad = pad
        self.width = width
        self.scale = (width - 2 * pad) / span_x
        self.height = self.scale * span_y + 2 * pad
        self.elements = []

    def _tx(self, x):
        return self.pad + (x - self.xlim[0]) * self.scale

    def _ty(self, y):
        return self.height - self.pad - (y - self.ylim[0]) * self.scale

    def circle(self, center, radius, fill="#888888", opacity=1.0,
               world_radius=True):
        r = radius * self.scale if world_radius else radius
        self.elements.append(
            f'<circle cx="{_fmt(self._tx(center[0]))}" '
            f'cy="{_fmt(self._ty(center[1]))}" r="{_fmt(r)}" '
            f'fill="{fill}" fill-opacity="{_fmt(opacity)}" '
            f'stroke="none"/>')

    def polyline(self, points, stroke="#1f77b4", width=1.5, opacity=1.0):
        pts = " ".join(f"{_fmt(self._tx(p[0]))},{_fmt(self._ty(p[1]))}"
                       for p in np.asarray(points, dtype=float))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" '
            f'stroke-opacity="{_fmt(opacity)}"/>')

    def text(self, pos, content, size=12, fill="#333333"):
        self.elements.append(
            f'<text x="{_fmt(self._tx(pos[0]))}" '
            f'y="{_fmt(self._ty(pos[1]))}" font-size="{size}" '
            f'font-family="monospace" fill="{fill}">{content}</text>')

    def to_string(self):
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
                f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">')
        body = "\n".join(self.elements)
        return head + "\n" + body + "\n</svg>\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_string())


def render_scene(path, env, trajectories=(), moving_disks=(),
                 snapshot_times=()):
    """Obstacles plus trajectory polylines; moving disks drawn per snapshot."""
    canvas = SvgCanvas(env.bounds[0], env.bounds[1])
    for obs in env.obstacles:
        canvas.circle(obs.centers[0], obs.radius, fill="#555555",
                      opacity=0.85)
    for disk in moving_disks:
        for j, center in enumerate(disk.center_at(np.asarray(snapshot_times))):
            fade = 0.15 + 0.6 * (j + 1) / len(snapshot_times)
            canvas.circle(center, disk.radius, fill="#aa3377",
                          opacity=fade)
    for i, pts in enumerate(trajectories):
        canvas.polyline(pts, stroke=PALETTE[i % len(PALETTE)], width=1.2,
                        opacity=0.8)
    canvas.circle(env.q_start, 0.012, fill="#000000")
    canvas.circle(env.q_goal, 0.012, fill="#000000")
    canvas.save(path)


def render_latent_scatter(path, latents, extra):
    """Encoded points in one color over a grey cloud of extra samples."""
    z = np.atleast_2d(np.asarray(latents, dtype=float))[:, :2]
    extra = np.atleast_2d(extra)[:, :2]
    alls = np.vstack([z, extra])
    lo = alls.min(axis=0)
    hi = alls.max(axis=0)
    margin = 0.1 * np.maximum(hi - lo, 1e-6)
    canvas = SvgCanvas((lo[0] - margin[0], hi[0] + margin[0]),
                       (lo[1] - margin[1], hi[1] + margin[1]))
    for p in extra:
        canvas.circle(p, 2.0, fill="#bbbbbb", world_radius=False)
    for p in z:
        canvas.circle(p, 3.5, fill=PALETTE[0], world_radius=False)
    canvas.save(path)


def render_loss_curves(path, history):
    """One polyline per recorded series, log10 y for positive series."""
    series = {k: np.asarray(v, dtype=float) for k, v in history.items()
              if len(v) and np.asarray(v).ndim == 1}
    if not series:
        raise ValueError("history holds no plottable series")
    n_epochs = max(len(v) for v in series.values())
    plotted = {k: np.log10(v) if np.all(v > 0) else v
               for k, v in series.items()}
    lo = min(v.min() for v in plotted.values())
    hi = max(v.max() for v in plotted.values())
    if hi - lo < 1e-9:
        hi = lo + 1.0
    canvas = SvgCanvas((0.0, float(n_epochs)), (lo, hi), width=720.0)
    for i, (k, v) in enumerate(sorted(plotted.items())):
        pts = np.column_stack([np.arange(len(v)), v])
        canvas.polyline(pts, stroke=PALETTE[i % len(PALETTE)], width=1.2)
        canvas.text((0.02 * n_epochs, hi - (i + 1) * 0.06 * (hi - lo)),
                    k, size=12, fill=PALETTE[i % len(PALETTE)])
    canvas.save(path)

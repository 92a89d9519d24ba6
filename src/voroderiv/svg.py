"""Minimal SVG 1.1 output: skeleton edges, sites, and root markers.

Numbers are written with 9 significant digits so identical inputs give
byte-identical files across platforms.
"""

import math

__all__ = ["render_svg"]

CANVAS = 640.0


def _fmt(x):
    return f"{x:.9g}"


def _to_canvas(z, center, half):
    x = (z.real - center.real + half) / (2.0 * half) * CANVAS
    y = (center.imag + half - z.imag) / (2.0 * half) * CANVAS
    return x, y


def _clip_edge(edge, center, half):
    """t-range of the edge inside a circle covering the window."""
    m, w = edge.midpoint, edge.direction
    radius = half * math.sqrt(2.0) * 1.05
    # |m + t w - c|^2 = radius^2, quadratic in t
    a = abs(w) ** 2
    b = 2.0 * ((m - center) * w.conjugate()).real
    c = abs(m - center) ** 2 - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    t1, t2 = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
    lo = max(edge.t_lo, t1)
    hi = min(edge.t_hi, t2)
    if lo >= hi:
        return None
    return lo, hi


def render_svg(path, diagram, window, roots):
    """Write the diagram (and optional roots) as an SVG overlay.

    window is (center, half_side); unbounded skeleton rays are drawn to
    the window border.
    """
    center, half = complex(window[0]), float(window[1])
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        f'<rect width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="white"/>',
    ]
    if diagram is not None:
        for e in diagram.edges:
            clip = _clip_edge(e, center, half)
            if clip is None:
                continue
            x1, y1 = _to_canvas(e.point(clip[0]), center, half)
            x2, y2 = _to_canvas(e.point(clip[1]), center, half)
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="#888888" stroke-width="1"/>')
        for s in diagram.sites:
            x, y = _to_canvas(complex(s), center, half)
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="none" '
                f'stroke="#cc0000" stroke-width="1.5"/>')
    for z in roots:
        x, y = _to_canvas(complex(z), center, half)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" fill="#0033cc"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Minimal deterministic SVG scatter of cloud droplets with grade overlays.

No plotting dependency: the diagram is plain SVG text, stable byte-for-byte
for a fixed seed, with the score axis spanning 0-100 and membership 0-1. It
draws `N_CLOUD` droplets of the evaluated cloud over `N_GRADE` droplets of each
grade band's cloud, one `<circle>` per droplet with its coordinates at 2
decimals. The droplets of one cloud are mapped to pixels in numpy and
formatted in one pass.
"""

from __future__ import annotations

import numpy as np

from .cloud import CloudParams, GradeScheme, forward_cloud

N_CLOUD = 2000  # droplets drawn of the evaluated cloud
N_GRADE = 1200  # droplets drawn of each grade band's cloud
_W, _H = 760, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_GRADE_COLORS = ("#b0c4de", "#9fd8a3", "#f2d694", "#e8a6a6", "#c9b2e8", "#a6d8e8")


def _px(score):
    """Pixel x of a score, or of each score in a float64 array."""
    return _ML + (score / 100.0) * (_W - _ML - _MR)


def _py(mu):
    """Pixel y of a membership, or of each membership in a float64 array."""
    return _H - _MB - mu * (_H - _MT - _MB)


def _dots(xs, mus, color: str, r: float, opacity: float) -> str:
    """One `<circle>` line per droplet, joined by newlines, formatted in one pass."""
    xy = np.empty(2 * len(xs))
    with np.errstate(over="ignore"):  # a huge score maps to inf silently, as in float arithmetic
        xy[0::2], xy[1::2] = _px(xs), _py(mus)
    dot = f'<circle cx="%.2f" cy="%.2f" r="{r}" fill="{color}" fill-opacity="{opacity}"/>'
    return "\n".join([dot] * len(xs)) % tuple(xy.tolist())


def cloud_diagram(c: CloudParams, scheme: GradeScheme, seed: int = 0) -> str:
    """SVG of the evaluated cloud's droplets over the scheme's grade clouds."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for tick in range(0, 101, 20):
        x = _px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 20}" font-size="12" text-anchor="middle">{tick}</text>'
        )
    for tick in (0.0, 0.5, 1.0):
        y = _py(tick)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 10}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" font-size="13" '
        f'text-anchor="middle">score</text>'
    )

    for k, (label, gc) in enumerate(scheme.clouds()):
        color = _GRADE_COLORS[k % len(_GRADE_COLORS)]
        drops = forward_cloud(gc, N_GRADE, seed=seed * 1000 + 7 + k)
        parts.append(_dots(drops.x, drops.mu, color, r=1.2, opacity=0.45))
        parts.append(
            f'<text x="{_px(gc.ex):.2f}" y="{_MT + 14}" font-size="12" '
            f'text-anchor="middle" fill="{color}">{label}</text>'
        )

    drops = forward_cloud(c, N_CLOUD, seed=seed)
    parts.append(_dots(drops.x, drops.mu, "#1f3d7a", r=1.5, opacity=0.7))
    parts.append(
        f'<text x="{_px(c.ex):.2f}" y="{_MT + 30}" font-size="12" text-anchor="middle" '
        f'fill="#1f3d7a">Ex={c.ex:.2f} En={c.en:.2f} He={c.he:.2f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

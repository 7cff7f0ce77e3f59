"""Minimal deterministic SVG scatter of cloud droplets with grade overlays.

No plotting dependency: the diagram is plain SVG, returned as UTF-8 bytes and
stable byte-for-byte for a fixed seed, with the score axis spanning 0-100 and
membership 0-1. It draws `N_CLOUD` droplets of the evaluated cloud over
`N_GRADE` droplets of each grade band's cloud, one `<circle>` per droplet with
its pixel coordinates as `'%.2f'` prints them. The droplets of one cloud are
mapped to pixels in numpy and written into fixed-width rows of one byte array
from digit tables, whose NUL fillers one strip removes; only a row off the
canvas or at a rounding tie goes through `'%.2f'`. Band labels are XML-escaped.
"""

from __future__ import annotations

import functools

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


def _escape(text: str) -> str:
    """`text` as XML character data: `xml.sax.saxutils.escape`, without importing
    it (it loads urllib.request: about 29 ms and 7 MB)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@functools.cache  # built on first use, once per process, so importing costs nothing
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """`q.` for each q < 1000, right-aligned behind NULs, per uint32, and `rr` for each rr < 100 per uint16."""
    whole = "".join(f"{q:>3}." for q in range(1000)).replace(" ", "\0").encode()
    cents = "".join(f"{rr:02}" for rr in range(100)).encode()
    return np.frombuffer(whole, np.uint32), np.frombuffer(cents, np.uint16)


def _dots(xs, mus, color: str, r: float, opacity: float) -> bytes:
    """One `<circle>` line per droplet, joined by newlines, each pixel coordinate
    as `'%.2f'` prints it.

    For a pixel v with 0 <= v and 100 * v < 99 999.5, fl(100 * v) is within 1e-11 of
    the exact product, so unless it is within 1e-6 of a rounding tie its rint is the
    cents `'%.2f'` prints, q.rr with q < 1000. Each row starts as one template,
    `<circle cx="` + 6 NULs + `" cy="` + 6 NULs + tail + newline; four column stores
    write q and rr from `_digit_tables` through byte views, so the bytes do not depend
    on byte order, and one single-byte `replace` strips the NULs (the tail holds none).
    Any other row (negative, -0.0, non-finite, 1000 px and beyond, at a tie) goes through `%`.
    """
    xy = np.empty((len(xs), 2))
    # a huge score maps to inf silently, as in float arithmetic, and then fails `fast`
    with np.errstate(over="ignore", invalid="ignore"):
        xy[:, 0], xy[:, 1] = _px(xs), _py(mus)
        cents = xy * 100.0
        fast = ~np.signbit(cents) & (cents < 99_999.5) & (np.abs(cents - np.floor(cents) - 0.5) > 1e-6)
    q, rr = np.divmod(np.where(fast, np.rint(cents), 0.0).astype(np.intp), 100)
    whole, decimals = _digit_tables()
    tail = f'" r="{r}" fill="{color}" fill-opacity="{opacity}"/>'
    template = np.frombuffer(f'<circle cx="{6 * chr(0)}" cy="{6 * chr(0)}{tail}\n'.encode(), np.uint8)
    rows = np.tile(template, (len(xy), 1))
    rows[-1:, -1] = 0  # the last newline, stripped with the NULs
    for k, at in ((0, 12), (1, 24)):  # the whole part and point, then the decimals, of x and of y
        rows[:, at:at + 4].view(np.uint32)[:, 0] = whole[q[:, k]]
        rows[:, at + 4:at + 6].view(np.uint16)[:, 0] = decimals[rr[:, k]]
    out = rows.tobytes().replace(b"\0", b"")
    if fast.all():
        return out
    lines, dot = out.split(b"\n"), '<circle cx="%.2f" cy="%.2f' + tail
    slow = np.flatnonzero(~fast.all(axis=1))
    for i, (x, y) in zip(slow.tolist(), xy[slow].tolist()):
        lines[i] = (dot % (x, y)).encode()
    return b"\n".join(lines)


def cloud_diagram(c: CloudParams, scheme: GradeScheme, seed: int = 0) -> bytes:
    """SVG of the evaluated cloud's droplets over the scheme's grade clouds, as UTF-8."""
    axes = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for tick in range(0, 101, 20):
        x = _px(tick)
        axes += [f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" stroke="black"/>',
                 f'<text x="{x:.2f}" y="{_H - _MB + 20}" font-size="12" text-anchor="middle">{tick}</text>']
    for tick in (0.0, 0.5, 1.0):
        y = _py(tick)
        axes += [f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>',
                 f'<text x="{_ML - 10}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{tick:g}</text>']
    axes.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 10}" font-size="13" '
                f'text-anchor="middle">score</text>')
    parts = ["\n".join(axes).encode()]

    for k, (label, gc) in enumerate(scheme.clouds()):
        color = _GRADE_COLORS[k % len(_GRADE_COLORS)]
        drops = forward_cloud(gc, N_GRADE, seed=seed * 1000 + 7 + k)
        parts += [_dots(drops.x, drops.mu, color, r=1.2, opacity=0.45),
                  f'<text x="{_px(gc.ex):.2f}" y="{_MT + 14}" font-size="12" '
                  f'text-anchor="middle" fill="{color}">{_escape(label)}</text>'.encode()]

    drops = forward_cloud(c, N_CLOUD, seed=seed)
    parts += [_dots(drops.x, drops.mu, "#1f3d7a", r=1.5, opacity=0.7),
              f'<text x="{_px(c.ex):.2f}" y="{_MT + 30}" font-size="12" text-anchor="middle" '
              f'fill="#1f3d7a">Ex={c.ex:.2f} En={c.en:.2f} He={c.he:.2f}</text>'.encode()]
    parts.append(b"</svg>\n")
    return b"\n".join(parts)

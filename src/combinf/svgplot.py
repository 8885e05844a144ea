"""Dependency-free SVG rendering of MST growth curves.

Output is deterministic (no timestamps) so repeated runs are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DataError

WIDTH, HEIGHT = 640, 440
MARGIN = 60


def _scales(curves):
    xs = [w for curve in curves for w, _ in curve]
    ys = [c for curve in curves for _, c in curve]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_hi = max(ys)

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - y / y_hi * (HEIGHT - 2 * MARGIN)

    return sx, sy, x_lo, x_hi


def _escape(text: str) -> str:
    # what xml.sax.saxutils.escape does, without that module's import of
    # urllib.request (about 30 ms of every command's start-up)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _step_path(curve, sx, sy, x_lo) -> str:
    pts = [f"M {sx(x_lo):.2f} {sy(0):.2f}"]
    prev_count = 0
    for w, count in curve:
        pts.append(f"L {sx(w):.2f} {sy(prev_count):.2f}")
        pts.append(f"L {sx(w):.2f} {sy(count):.2f}")
        prev_count = count
    return " ".join(pts)


def write_growth_curve_svg(path, curve_a, curve_b, label_a="A", label_b="B",
                           marker_weight=None) -> None:
    """Two step curves (solid and dashed) of edges added vs edge weight, with
    an optional vertical marker at the maximum-gap weight."""
    sx, sy, x_lo, x_hi = _scales([curve_a, curve_b])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">edge weight</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">edges added</text>',
        f'<path d="{_step_path(curve_a, sx, sy, x_lo)}" fill="none" '
        f'stroke="crimson" stroke-width="1.5"/>',
        f'<path d="{_step_path(curve_b, sx, sy, x_lo)}" fill="none" '
        f'stroke="black" stroke-width="1.5" stroke-dasharray="6 4"/>',
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 20}" text-anchor="end" '
        f'font-size="12" fill="crimson">{_escape(label_a)} (solid)</text>',
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 4}" text-anchor="end" '
        f'font-size="12" fill="black">{_escape(label_b)} (dashed)</text>',
    ]
    if marker_weight is not None and x_lo <= marker_weight <= x_hi:
        mx = sx(marker_weight)
        parts.append(
            f'<line x1="{mx:.2f}" y1="{MARGIN}" x2="{mx:.2f}" '
            f'y2="{HEIGHT - MARGIN}" stroke="gray" stroke-dasharray="3 3"/>')
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err

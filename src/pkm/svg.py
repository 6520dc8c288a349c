"""Minimal self-contained SVG heatmaps for sweep grids.

Hand-rolled so that the bytes are a pure function of the grid: no
timestamps, no library-generated ids.  Missing cells are hatched instead
of being painted with a sentinel colour.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .grids import SweepGrid, fmt12

_PALETTES = {
    "viridis": [
        (68, 1, 84),
        (72, 40, 120),
        (62, 74, 137),
        (49, 104, 142),
        (38, 130, 142),
        (31, 158, 137),
        (53, 183, 121),
        (109, 205, 89),
        (180, 222, 44),
        (253, 231, 37),
    ],
    "coolwarm": [
        (59, 76, 192),
        (124, 159, 249),
        (192, 212, 245),
        (221, 221, 221),
        (245, 196, 173),
        (244, 154, 123),
        (180, 4, 38),
    ],
}

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 110.0, 34.0, 50.0
_PLOT_W = _PLOT_H = 484.0
_BAR_X, _BAR_W, _BAR_STRIPS = _MARGIN_L + _PLOT_W + 26.0, 18.0, 64


def palette_color(palette: str, t: float) -> str:
    """Hex colour at fraction t in [0, 1] of the named palette."""
    stops = _PALETTES.get(palette)
    if stops is None:
        raise ValueError(f"unknown palette {palette!r}")
    t = min(1.0, max(0.0, t))
    position = t * (len(stops) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(stops) - 1)
    frac = position - low
    rgb = tuple(
        int(round(stops[low][k] + frac * (stops[high][k] - stops[low][k]))) for k in range(3)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _palette_codes(palette: str, values: np.ndarray, vmin: float, span: float) -> np.ndarray:
    """0xRRGGBB of palette_color at every finite value's fraction of the span, -1 elsewhere.

    The same float operations in the same order as palette_color, so the
    colours agree bit for bit; np.rint rounds half to even, like round.
    """
    stops = _PALETTES.get(palette)
    if stops is None:
        raise ValueError(f"unknown palette {palette!r}")
    stops = np.array(stops, dtype=float)
    t = (values - vmin) / span if span > 0.0 else np.full(values.shape, 0.5)
    # min(1.0, max(0.0, t)): max's first argument wins over NaN
    t = np.minimum(np.fmax(t, 0.0), 1.0)
    position = t * (len(stops) - 1)
    low = np.floor(position).astype(int)
    high = np.minimum(low + 1, len(stops) - 1)
    rgb = np.rint(stops[low] + (position - low)[..., None] * (stops[high] - stops[low])).astype(int)
    codes = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    return np.where(np.isfinite(values), codes, -1)


@functools.lru_cache(maxsize=len(_PALETTES))
def _colour_bar(palette: str) -> tuple[str, ...]:
    """The colour bar's strip <rect> lines, bottom strip first.

    They depend on the palette alone, so each palette's are built once.
    """
    strip_h = _PLOT_H / _BAR_STRIPS
    return tuple(
        f'<rect x="{_BAR_X:.2f}" y="{_MARGIN_T + _PLOT_H - (k + 1) * strip_h:.2f}" '
        f'width="{_BAR_W:.2f}" height="{strip_h + 0.05:.2f}" '
        f'fill="{palette_color(palette, (k + 0.5) / _BAR_STRIPS)}"/>'
        for k in range(_BAR_STRIPS)
    )


def _axis_ticks(axis_rad: np.ndarray) -> list[tuple[float, str]]:
    lo, hi = math.degrees(axis_rad[0]), math.degrees(axis_rad[-1])
    return [(0.0, f"{lo:.4g}"), (0.5, f"{(lo + hi) / 2.0:.4g}"), (1.0, f"{hi:.4g}")]


def emit_heatmap_svg(
    grid: SweepGrid,
    palette: str,
    path,
    title: str = "",
    value_label: str = "",
) -> None:
    """Write one scalar field as a coloured tilt-space heatmap."""
    n_psi = len(grid.psi_axis)
    n_theta = len(grid.theta_axis)
    cw = _PLOT_W / n_psi
    ch = _PLOT_H / n_theta
    valid = grid.valid_values()
    if valid.size:
        vmin, vmax = float(valid.min()), float(valid.max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin

    width = _MARGIN_L + _PLOT_W + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + _MARGIN_B
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<defs>",
        '<pattern id="miss" width="6" height="6" patternUnits="userSpaceOnUse">',
        '<rect width="6" height="6" fill="#ffffff"/>',
        '<path d="M0,6 L6,0" stroke="#999999" stroke-width="1"/>',
        "</pattern>",
        "</defs>",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{_MARGIN_L + _PLOT_W / 2.0:.2f}" y="22" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{title}</text>'
        )

    # the cell rows go here, streamed while the file is written
    cells_at = len(out)
    out.append(
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{_PLOT_W:.2f}" '
        f'height="{_PLOT_H:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for frac, label in _axis_ticks(grid.psi_axis):
        x = _MARGIN_L + frac * _PLOT_W
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + _PLOT_H + 18.0:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{label}</text>'
        )
    for frac, label in _axis_ticks(grid.theta_axis):
        y = _MARGIN_T + _PLOT_H - frac * _PLOT_H
        out.append(
            f'<text x="{_MARGIN_L - 8.0:.2f}" y="{y + 4.0:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{label}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + _PLOT_W / 2.0:.2f}" y="{height - 12.0:.2f}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">psi [deg]</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + _PLOT_H / 2.0:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + _PLOT_H / 2.0:.2f})">theta [deg]</text>'
    )

    out.extend(_colour_bar(palette))
    out.append(
        f'<rect x="{_BAR_X:.2f}" y="{_MARGIN_T:.2f}" width="{_BAR_W:.2f}" '
        f'height="{_PLOT_H:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_BAR_X + _BAR_W + 6.0:.2f}" y="{_MARGIN_T + _PLOT_H:.2f}" '
        f'font-family="sans-serif" font-size="11">{fmt12(vmin)}</text>'
    )
    out.append(
        f'<text x="{_BAR_X + _BAR_W + 6.0:.2f}" y="{_MARGIN_T + 10.0:.2f}" '
        f'font-family="sans-serif" font-size="11">{fmt12(vmax)}</text>'
    )
    if value_label:
        out.append(
            f'<text x="{_BAR_X + _BAR_W / 2.0:.2f}" y="{_MARGIN_T - 10.0:.2f}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">{value_label}</text>'
        )
    out.append("</svg>")

    codes = _palette_codes(palette, grid.values, vmin, span)
    # theta grows upward, SVG y grows downward
    columns = [
        f'{_MARGIN_T + _PLOT_H - (j + 1) * ch:.2f}" width="{cw + 0.05:.2f}" '
        f'height="{ch + 0.05:.2f}" fill="'
        for j in range(n_theta)
    ]
    # each colour's fill and line end, built once per colour
    tails = {-1: 'url(#miss)"/>\n'}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in out[:cells_at])
        for i in range(n_psi):
            row = codes[i].tolist()
            tails.update((code, f'#{code:06x}"/>\n') for code in set(row).difference(tails))
            # a row's cells, each its x prefix, its column's y to fill and its tail
            prefix = f'<rect x="{_MARGIN_L + i * cw:.2f}" y="'
            fh.write(prefix + prefix.join(map(operator.add, columns, map(tails.__getitem__, row))))
        fh.writelines(f"{line}\n" for line in out[cells_at:])

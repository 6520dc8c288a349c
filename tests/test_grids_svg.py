import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pkm import svg
from pkm.grids import SweepGrid, fmt12, read_map_csv, tilt_axes, write_map_csv
from pkm.svg import emit_heatmap_svg, palette_color

from oracles import heatmap_cells_reference, write_map_csv_reference

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite_floats)
def test_fmt12_is_idempotent(value):
    text = fmt12(value)
    assert fmt12(float(text)) == text


def test_fmt12_plain_numbers():
    assert fmt12(0.0) == "0"
    assert fmt12(1.5) == "1.5"
    assert fmt12(math.pi) == "3.14159265359"


def test_tilt_axes_shape():
    psi, theta = tilt_axes(41, 40.0)
    assert len(psi) == len(theta) == 41
    assert psi[0] == pytest.approx(-math.radians(40.0))
    assert psi[-1] == pytest.approx(math.radians(40.0))
    assert psi[20] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(psi) > 0)
    assert np.array_equal(psi, theta)
    with pytest.raises(ValueError):
        tilt_axes(1, 40.0)


def test_grid_validation():
    psi, theta = tilt_axes(3, 10.0)
    with pytest.raises(ValueError):
        SweepGrid(psi_axis=psi, theta_axis=theta, values=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        SweepGrid(psi_axis=psi[::-1], theta_axis=theta, values=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="not be empty"):
        SweepGrid(psi_axis=psi[:0], theta_axis=theta, values=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="one-dimensional"):
        SweepGrid(psi_axis=psi, theta_axis=theta[None, :], values=np.zeros((3, 3)))
    for axis in ([0.0, np.nan, 1.0], [np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            SweepGrid(psi_axis=psi, theta_axis=axis, values=np.zeros((3, len(axis))))
    grid = SweepGrid(psi, theta, np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError):
        grid.values[0, 0] = 7.0


def test_grid_from_cells_masks_nan():
    psi, theta = tilt_axes(2, 5.0)
    values = np.array([[1.0, np.nan], [3.0, 4.0]])
    grid = SweepGrid(psi, theta, values)
    assert grid.mask.tolist() == [[True, False], [True, True]]
    assert sorted(grid.valid_values()) == [1.0, 3.0, 4.0]


def test_grid_freezes_copies_of_writable_inputs():
    psi, theta = tilt_axes(2, 5.0)
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    grid = SweepGrid(psi, theta, values)
    # the caller's arrays stay writable, and writing them leaves the grid as it was
    values[0, 0] = psi[0] = 9.0
    assert grid.values[0, 0] == 1.0 and grid.psi_axis[0] == theta[0]
    assert not (grid.psi_axis.flags.writeable or grid.values.flags.writeable)
    assert not grid.mask.flags.writeable
    # read-only inputs are shared, not copied
    again = SweepGrid(grid.psi_axis, grid.theta_axis, grid.values)
    assert again.values is grid.values and again.psi_axis is grid.psi_axis


def _sample_fields(rng):
    psi, theta = tilt_axes(4, 30.0)
    values = rng.uniform(-1e4, 1e4, size=(4, 4))
    values[1, 2] = np.nan
    values[3, 0] = np.nan
    a = SweepGrid(psi, theta, values)
    b = SweepGrid(psi, theta, rng.standard_normal((4, 4)) * 1e-7)
    return {"alpha": a, "beta": b}


def test_csv_write_read_write_is_stable(tmp_path, rng):
    fields = _sample_fields(rng)
    first = tmp_path / "map.csv"
    write_map_csv(first, fields, units_note="units: test")
    header, rows = read_map_csv(first)
    assert header == ["psi_deg", "theta_deg", "alpha", "beta"]
    assert len(rows) == 16
    # missing cells come back as None
    assert rows[1 * 4 + 2][2] is None
    assert rows[3 * 4 + 0][2] is None

    # rebuild grids from the parsed rows and re-emit: the bytes must match
    psi = fields["alpha"].psi_axis
    theta = fields["alpha"].theta_axis
    rebuilt = {}
    for col, name in enumerate(("alpha", "beta"), start=2):
        values = np.full((4, 4), np.nan)
        for idx, row in enumerate(rows):
            if row[col] is not None:
                values[idx // 4, idx % 4] = row[col]
        rebuilt[name] = SweepGrid(psi, theta, values)
    second = tmp_path / "again.csv"
    write_map_csv(second, rebuilt, units_note="units: test")
    assert first.read_bytes() == second.read_bytes()


def test_csv_units_note_and_line_endings(tmp_path, rng):
    path = tmp_path / "map.csv"
    write_map_csv(path, _sample_fields(rng), units_note="units: mm and rad")
    raw = path.read_bytes()
    assert raw.startswith(b"# units: mm and rad\n")
    assert b"\r" not in raw


def test_csv_requires_matching_axes(tmp_path, rng):
    psi, theta = tilt_axes(3, 10.0)
    other_psi, other_theta = tilt_axes(3, 20.0)
    a = SweepGrid(psi, theta, np.zeros((3, 3)))
    b = SweepGrid(other_psi, other_theta, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        write_map_csv(tmp_path / "bad.csv", {"a": a, "b": b})
    with pytest.raises(ValueError):
        write_map_csv(tmp_path / "empty.csv", {})


def test_palette_endpoints_and_clamp():
    assert palette_color("viridis", 0.0) == "#440154"
    assert palette_color("viridis", 1.0) == "#fde725"
    assert palette_color("viridis", -5.0) == palette_color("viridis", 0.0)
    assert palette_color("viridis", 5.0) == palette_color("viridis", 1.0)
    assert palette_color("coolwarm", 0.0) == "#3b4cc0"
    with pytest.raises(ValueError):
        palette_color("plasma", 0.5)


def test_heatmap_svg_structure(tmp_path):
    psi, theta = tilt_axes(2, 10.0)
    grid = SweepGrid(psi, theta, np.array([[0.0, 1.0], [2.0, np.nan]]))
    path = tmp_path / "map.svg"
    emit_heatmap_svg(grid, "viridis", path, title="demo", value_label="mm")
    text = path.read_text(encoding="utf-8")
    # parses as XML and carries exactly one hatched cell
    ET.fromstring(text)
    assert text.count('fill="url(#miss)"') == 1
    assert palette_color("viridis", 0.0) in text
    assert palette_color("viridis", 1.0) in text
    # colourbar is annotated with the exact value range
    assert ">0<" in text
    assert ">2<" in text
    assert "demo" in text and "mm" in text


def test_heatmap_svg_is_deterministic(tmp_path, rng):
    psi, theta = tilt_axes(5, 25.0)
    values = rng.standard_normal((5, 5))
    values[0, 3] = np.nan
    grid = SweepGrid(psi, theta, values)
    p1 = tmp_path / "one.svg"
    p2 = tmp_path / "two.svg"
    emit_heatmap_svg(grid, "coolwarm", p1, title="t", value_label="v")
    emit_heatmap_svg(grid, "coolwarm", p2, title="t", value_label="v")
    assert p1.read_bytes() == p2.read_bytes()


def test_heatmap_svg_constant_field(tmp_path):
    psi, theta = tilt_axes(2, 10.0)
    grid = SweepGrid(psi, theta, np.full((2, 2), 3.5))
    path = tmp_path / "flat.svg"
    emit_heatmap_svg(grid, "viridis", path)
    text = path.read_text(encoding="utf-8")
    ET.fromstring(text)
    # zero span paints the mid-palette colour
    assert palette_color("viridis", 0.5) in text


EDGE_GRIDS = ("non-square", "2x2", "holes", "constant", "all-missing")


def _edge_grid(case, rng):
    psi, theta = tilt_axes(7, 30.0)[0], tilt_axes(4, 20.0)[1]
    if case == "non-square":
        values = rng.uniform(-1.0, 1.0, (7, 4)) * 10.0 ** rng.integers(-9, 9, (7, 4))
    elif case == "2x2":
        psi, theta = tilt_axes(2, 10.0)
        values = np.array([[0.3, -1.2], [5.0, 2.0]])
    elif case == "holes":
        values = rng.standard_normal((7, 4))
        values[0, 0], values[2, 3], values[6, 1] = np.nan, np.inf, -np.inf
    elif case == "constant":
        values = np.full((7, 4), 3.5)
    else:
        values = np.full((7, 4), np.nan)
    return SweepGrid(psi, theta, values)


@pytest.mark.parametrize("palette", ["viridis", "coolwarm"])
@pytest.mark.parametrize("case", EDGE_GRIDS)
def test_heatmap_cells_match_scalar_reference(tmp_path, rng, case, palette):
    grid = _edge_grid(case, rng)
    path = tmp_path / "map.svg"
    emit_heatmap_svg(grid, palette, path, title="t", value_label="v")
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith('<rect x="'))
    cells = heatmap_cells_reference(grid, palette)
    assert lines[start : start + len(cells)] == cells
    # the plot frame follows the last cell
    assert lines[start + len(cells)].startswith('<rect x="64.00" y="34.00" width="484.00"')
    assert text.endswith("</svg>\n")


@pytest.mark.parametrize("case", EDGE_GRIDS)
def test_csv_matches_scalar_reference(tmp_path, rng, case):
    grid = _edge_grid(case, rng)
    other = rng.standard_normal(grid.values.shape) * 1e-7
    other[0, -1] = np.nan
    # a field name with a comma must come out quoted
    fields = {"alpha": grid, "b,eta": SweepGrid(grid.psi_axis, grid.theta_axis, other)}
    write_map_csv(tmp_path / "new.csv", fields, units_note="units: test")
    write_map_csv_reference(tmp_path / "ref.csv", fields, units_note="units: test")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _channels_before_rounding(stops, t):
    """palette_color's three channel values at fraction t, before round."""
    position = t * (len(stops) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(stops) - 1)
    frac = position - low
    return [stops[low][k] + frac * (stops[high][k] - stops[low][k]) for k in range(3)]


@pytest.mark.parametrize("palette", ["viridis", "coolwarm"])
def test_palette_codes_match_palette_color(palette):
    stops = svg._PALETTES[palette]
    steps = 64 * (len(stops) - 1)
    # every stop, and many fractions where a channel lands exactly on x.5
    inside = [m / steps for m in range(steps + 1)]
    ties = [
        c for t in inside for c in _channels_before_rounding(stops, t) if c % 1.0 == 0.5
    ]
    # round half to even goes down from an even and up from an odd integer part
    assert {int(c) % 2 for c in ties} == {0, 1}
    outside = [-5.0, -1e-300, 1.0 + 1e-12, 7.0]
    values = np.array([*inside, *outside, np.nan, np.inf, -np.inf])
    codes = svg._palette_codes(palette, values, 0.0, 1.0)
    expected = [palette_color(palette, t) for t in [*inside, *outside]]
    assert [f"#{code:06x}" for code in codes[:-3].tolist()] == expected
    assert codes[-3:].tolist() == [-1, -1, -1]
    # a zero span paints the mid-palette colour
    flat = svg._palette_codes(palette, np.full(3, 2.0), 2.0, 0.0)
    assert [f"#{code:06x}" for code in flat.tolist()] == [palette_color(palette, 0.5)] * 3
    with pytest.raises(ValueError):
        svg._palette_codes("plasma", values, 0.0, 1.0)


@pytest.mark.parametrize("palette", ["viridis", "coolwarm"])
def test_cached_colour_bar_matches_per_strip_palette_color(tmp_path, palette):
    strip_h = 484.0 / 64
    expected = [
        f'<rect x="574.00" y="{34.0 + 484.0 - (k + 1) * strip_h:.2f}" width="18.00" '
        f'height="{strip_h + 0.05:.2f}" fill="{palette_color(palette, (k + 0.5) / 64)}"/>'
        for k in range(64)
    ]
    assert list(svg._colour_bar(palette)) == expected
    assert svg._colour_bar(palette) is svg._colour_bar(palette)
    psi, theta = tilt_axes(2, 10.0)
    emit_heatmap_svg(SweepGrid(psi, theta, np.zeros((2, 2))), palette, tmp_path / "map.svg")
    lines = (tmp_path / "map.svg").read_text(encoding="utf-8").split("\n")
    start = lines.index(expected[0])
    assert lines[start : start + 64] == expected
    with pytest.raises(ValueError, match="unknown palette"):
        svg._colour_bar("plasma")

"""SVG chart writer tests."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import asefilt
from asefilt.svgplot import _widen_flat, line_chart


def test_line_chart_escapes_text_into_well_formed_xml():
    x = np.arange(5.0)
    svg = line_chart([("a<b", x, x), ("c & d", x, -x)], title="x & y", xlabel="<t>", ylabel="e>0")
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("a<b", "c & d", "x & y", "<t>", "e>0"):
        assert text in texts


def test_span_below_the_float_spacing_gets_end_point_ticks():
    """A tick step below half the float spacing of the axis values cannot
    advance the tick; the axis falls back to its end points instead of
    looping.  Run in a subprocess so that a loop fails the test, not the suite."""
    code = (
        "import numpy as np\n"
        "from asefilt.svgplot import _ticks, line_chart\n"
        "assert _ticks(1e16, 1e16 + 4) == [1e16, 1e16 + 4]\n"
        "assert _ticks(1e17, 1e17) == [1e17, 1e17]\n"
        "assert line_chart([('a', np.arange(2), np.array([1e17, 1e17 + 16]))]).startswith('<svg')\n"
    )
    src = os.path.dirname(os.path.dirname(asefilt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("flat", ["x", "y"])
def test_flat_axis_beyond_2_53_gets_a_nonzero_span(flat):
    """Adding 1 does not move 1e17; the flat axis widens to the neighbouring
    floats instead of dividing by a zero span."""
    big = np.array([1e17, 1e17])
    series = ("a", big, big) if flat == "x" else ("a", np.arange(2), big)
    svg = line_chart([series])
    ET.fromstring(svg)
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("v", [0.0, -3.5, 2.0**53, 1e17, -1e300, np.finfo(float).max, np.inf, -np.inf])
def test_widen_flat_moves_both_ends(v):
    lo, hi = _widen_flat(v, v)
    assert lo < v < hi or (v == np.inf and lo < v == hi) or (v == -np.inf and lo == v < hi)
    if v - 1.0 != v:
        assert lo == v - 1.0
    if v + 1.0 != v:
        assert hi == v + 1.0


def test_line_chart_needs_a_series():
    with pytest.raises(ValueError, match="series must not be empty"):
        line_chart([])


def test_line_chart_renders_a_series_with_no_finite_value():
    """With no finite y the y axis falls back to [0, 1]: the chart still
    renders, with the series as an empty polyline."""
    svg = line_chart([("gone", np.arange(3.0), np.array([np.nan, np.inf, -np.inf]))], title="t")
    root = ET.fromstring(svg)
    polylines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    assert [el.get("points") for el in polylines] == [""]
    assert "gone" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_line_chart_leaves_out_points_with_a_nonfinite_x():
    """A point whose x is not finite is left out, as one whose y is not:
    the x axis spans the finite xs and every coordinate is finite (tier-1
    turns any numpy warning into an error)."""
    svg = line_chart([("a", np.array([0.0, np.inf, 2.0]), np.array([0.0, 1.0, 2.0]))])
    assert "nan" not in svg and "inf" not in svg
    (polyline,) = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
    assert polyline.get("points") == "72.00,417.48 824.00,54.52"

"""SVG chart writer tests."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import asefilt
from asefilt.svgplot import line_chart


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

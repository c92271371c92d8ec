"""SVG chart writer tests."""

import xml.etree.ElementTree as ET

import numpy as np

from asefilt.svgplot import line_chart


def test_line_chart_escapes_text_into_well_formed_xml():
    x = np.arange(5.0)
    svg = line_chart([("a<b", x, x), ("c & d", x, -x)], title="x & y", xlabel="<t>", ylabel="e>0")
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("a<b", "c & d", "x & y", "<t>", "e>0"):
        assert text in texts

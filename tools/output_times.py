"""Time the output writers of ``asefilt anc`` at the ``anc-io`` shape.

Best of N, in milliseconds, of each writer on seeded random data:

* ``write_csv`` of 20 000 rows x 5 columns at ``.12g`` (an ``iteration``
  column and four curves, the shape of ``mse.csv``), once with its rows as
  ``zip(range(n), *arrays)``, whose cells are numpy scalars, and once with
  them drawn from ``tolist()`` copies of the arrays, whose cells are
  Python floats;
* ``save_waveform`` of 20 000 samples at ``.17g``;
* ``svgplot.line_chart`` of four 20 000-point series against one shared
  x array, as ``anc.svg`` plots them.

Files go to a temporary directory.  The package is imported from the
``src`` directory beside this script, so a copy of the repository times
its own writers.

    python tools/output_times.py [--repeat N]

prints one JSON line per writer.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asefilt.signals import save_waveform, write_csv  # noqa: E402
from asefilt.svgplot import line_chart  # noqa: E402

SAMPLES = 20_000
CURVES = 4


def best_ms(fn, repeat: int) -> float:
    """Best milliseconds of one call of ``fn`` over ``repeat`` calls."""
    return round(min(timeit.repeat(fn, number=1, repeat=repeat)) * 1e3, 3)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="calls per writer; the best is kept (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(0)
    curves = [rng.standard_normal(SAMPLES) ** 2 for _ in range(CURVES)]
    header = ["iteration", *(f"c{i}" for i in range(CURVES))]
    iters = np.arange(SAMPLES)
    series = [(f"c{i}", iters, 10 * np.log10(curve)) for i, curve in enumerate(curves)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        print(json.dumps({
            "writer": "write_csv",
            "rows": SAMPLES,
            "columns": 1 + CURVES,
            "fmt": ".12g",
            "numpy_cells_ms": best_ms(lambda: write_csv(path, header, zip(range(SAMPLES), *curves), ".12g"),
                                      args.repeat),
            "float_cells_ms": best_ms(
                lambda: write_csv(path, header, zip(range(SAMPLES), *(c.tolist() for c in curves)), ".12g"),
                args.repeat,
            ),
        }))
        print(json.dumps({
            "writer": "save_waveform",
            "rows": SAMPLES,
            "fmt": ".17g",
            "best_ms": best_ms(lambda: save_waveform(path, curves[0]), args.repeat),
        }))
    print(json.dumps({
        "writer": "line_chart",
        "series": CURVES,
        "points": SAMPLES,
        "best_ms": best_ms(lambda: line_chart(series, title="t", xlabel="x", ylabel="y"), args.repeat),
    }))


if __name__ == "__main__":
    main()

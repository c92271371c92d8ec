"""Time the layers of the library: public steps, the dense statistics update and the output writers.

One run prints one JSON line per row, in three groups.

**Public steps**, one row per ``kind`` (``iwf_ase``, and ``dcd_ase`` in
shift mode, the default) and per ``L`` in 10, 64 and 256, with the
best-of-N microseconds per call of:

* ``public_us``: the whole public step;
* ``validation_us``: the checks the public step runs before its core,
  ``_check_sample`` and ``_check_layout``, and for ``dcd_ase``
  ``_check_solver``;
* ``core_us``: the private core, with its in-core checks off where it has
  the switch (``_dcd_step(..., checked=False)``).  ``_vss_step`` has none,
  so its two scalar checks are part of it;
* ``in_core_checks_us``: those checks alone.  For ``dcd_ase`` they are the
  finiteness check of the new ring row and ``_check_rhs`` on the
  right-hand side, for ``iwf_ase`` the tests of the weight ``phi``
  (``_checks.nonnegative_finite``) and of the step size;
* ``step_output_us``: building the :class:`StepOutput` the step returns;
* ``all_finite_us`` and ``isfinite_all_us``: the library's finiteness
  helper and ``np.isfinite(v).all()`` on a vector of L entries.

The states are warmed up on a seeded system-identification stream past
the delay-line fill, then every timed call steps or checks the next
sample of that stream.

**Dense statistics update**, one row per shape of the ``(L + 1, L)``
statistics array of an inversion-free step: scalar rows, ``L`` in 10, 16,
32, 48, 64, 128 and 256, and rows of the Monte Carlo driver's lockstep
batch, ``(A, B, L) = (3, B, L)`` with ``B`` in 1, 4 and 10.  Each row
times, in microseconds, the whole update (in-place decay, rank-one
product ``u x^T`` and add) by each of the two routes
``filters._matmul_route`` chooses between: ``update_broadcast_us``, the
broadcast multiply ``u[:, None] * x``, and ``update_matmul_us``, the
zero-padded matmul ``filters._outer``.  Rank the routes by these: at
shapes that outgrow the L2 cache the product alone ranks them otherwise.
Scalar rows also time each layer alone: ``decay_us``, the products
``outer_broadcast_us`` and ``outer_matmul_us``, ``add_us``, the two
matrix-vector products ``matvec_rw_us`` (``R w``) and ``matvec_rr_us``
(``R r``) and the dot ``dot_wx_us`` (``w x``), each by ``ndarray.dot`` as
the scalar cores take them, and the ``@`` twins ``matmul_rw_us`` and
``matmul_wx_us``, whose difference is the dispatch of the ``matmul``
gufunc.  The operands are standard normal, which keeps subnormal
arithmetic out of the times.

**Writers**, one row per output writer of ``asefilt anc`` at the
``anc-io`` shape, in milliseconds, on seeded random data written to a
temporary directory:

* ``write_csv`` of 20 000 rows x 5 columns at ``.12g`` (an ``iteration``
  column and four curves, the shape of ``mse.csv``), once with its rows as
  ``zip(range(n), *arrays)``, whose cells are numpy scalars
  (``numpy_cells_ms``), and once with them drawn from ``tolist()`` copies
  of the arrays, whose cells are Python floats (``float_cells_ms``);
* ``save_waveform`` of 20 000 samples at ``.17g`` (``best_ms``);
* ``svgplot.line_chart`` of four 20 000-point series against one shared
  x array, as ``anc.svg`` plots them (``best_ms``).

Every time is the best of ``--repeat`` rounds and includes the timing
loop's call of a function, 0.02 to 0.05 us.  The package is imported from
the ``src`` directory beside this script, so a copy of the repository
times its own code.

    python tools/layer_times.py [--repeat N]
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asefilt import default_algorithms, filter_init, filters  # noqa: E402
from asefilt._checks import nonnegative_finite  # noqa: E402
from asefilt.dcd import _all_finite, _check_rhs  # noqa: E402
from asefilt.signals import regressors, save_waveform, write_csv  # noqa: E402
from asefilt.svgplot import line_chart  # noqa: E402

STEP_LENGTHS = (10, 64, 256)
KINDS = ("iwf_ase", "dcd_ase")
STREAM_SAMPLES = 3000
UPDATE_LENGTHS = (10, 16, 32, 48, 64, 128, 256)
RUNS = (1, 4, 10)
ALGORITHMS = 3
LAM = 0.999
WRITER_SAMPLES = 20_000
CURVES = 4


def best_us(fn, number: int, repeat: int) -> float:
    """Best mean microseconds per call of ``fn`` over ``repeat`` rounds of ``number`` calls."""
    return round(min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6, 3)


def step_layers(kind: str, length: int, repeat: int, rng) -> dict:
    """The layers of one public ``kind`` step at ``length`` taps."""
    number = max(200, 50000 // length)
    config = default_algorithms(length, (kind,))[0].config
    state = filter_init(config)
    x_rows = regressors(rng.standard_normal(STREAM_SAMPLES), length)
    d = x_rows @ rng.standard_normal(length) + 0.1 * rng.standard_normal(STREAM_SAMPLES)
    # Python-float d, as a caller passes it.
    samples = list(zip(x_rows, d.tolist()))
    warm = 4 * length + 100
    dcd = kind == "dcd_ase"
    step = filters.dcd_ase_step if dcd else filters.iwf_ase_step
    for sample in samples[:warm]:
        step(state, config, *sample)
    cycle = itertools.cycle(samples[warm:])

    def validation():
        x, d = next(cycle)
        if dcd:
            filters._check_solver(config)
        filters._check_sample(config, x, d)
        filters._check_layout(state, dcd)

    if dcd:
        def core():
            filters._dcd_step(state, config, *next(cycle), config.ase, checked=False)

        row, rhs = state.ring.newest, state.residual

        def in_core_checks():
            _all_finite(row)
            _check_rhs(rhs, length)
    else:
        def core():
            filters._vss_step(state, config, *next(cycle), config.ase)

        phi, mu = filters.ase_weight(0.5, config.ase), 0.5

        def in_core_checks():
            nonnegative_finite(phi)
            math.isfinite(mu)

    vector = samples[-1][0]
    return {
        "kind": kind,
        "L": length,
        "public_us": best_us(lambda: step(state, config, *next(cycle)), number, repeat),
        "validation_us": best_us(validation, number, repeat),
        "core_us": best_us(core, number, repeat),
        "in_core_checks_us": best_us(in_core_checks, number, repeat),
        "step_output_us": best_us(lambda: filters.StepOutput(0.5, True), number, repeat),
        "all_finite_us": best_us(lambda: _all_finite(vector), number, repeat),
        "isfinite_all_us": best_us(lambda: np.isfinite(vector).all(), number, repeat),
    }


def update_layers(runs: int | None, length: int, repeat: int, rng) -> dict:
    """The dense statistics update at ``length`` taps by each route: of one
    state (``runs`` None), as ``filters._correlation_update`` runs it, or of
    a ``(3, runs, length)`` lockstep batch into a kept buffer, as
    ``filters._vss_steps`` runs it."""
    lead = () if runs is None else (ALGORITHMS, runs)
    number = max(20, 20000 // length) if runs is None else max(5, 4000 // (runs * length))
    u = rng.standard_normal(lead + (length + 1,))
    x = rng.standard_normal(lead[1:] + (length,))
    stats = rng.standard_normal(u.shape + (length,))
    outer = u[..., None] * x[..., None, :]
    out = None if runs is None else outer
    routes = {
        "broadcast": lambda: np.multiply(u[..., None], x[..., None, :], out=out),
        "matmul": lambda: filters._outer(u, x, out=out),
    }

    def update(product):
        stats.__imul__(LAM)
        np.add(stats, product(), out=stats)

    row = {"L": length} if runs is None else {"A": ALGORITHMS, "B": runs, "L": length}
    row.update({f"update_{name}_us": best_us(lambda fn=fn: update(fn), number, repeat) for name, fn in routes.items()})
    if runs is None:
        r_mat, w, r = stats[:-1], *rng.standard_normal((2, length))
        row.update({
            "decay_us": best_us(lambda: stats.__imul__(LAM), number, repeat),
            **{f"outer_{name}_us": best_us(fn, number, repeat) for name, fn in routes.items()},
            "add_us": best_us(lambda: stats.__iadd__(outer), number, repeat),
            "matvec_rw_us": best_us(lambda: r_mat.dot(w), number, repeat),
            "matvec_rr_us": best_us(lambda: r_mat.dot(r), number, repeat),
            "dot_wx_us": best_us(lambda: w.dot(x), number, repeat),
            "matmul_rw_us": best_us(lambda: r_mat @ w, number, repeat),
            "matmul_wx_us": best_us(lambda: w @ x, number, repeat),
        })
    return row


def writer_rows(repeat: int, rng) -> list[dict]:
    """One row per output writer of ``asefilt anc``."""
    def best_ms(fn):
        return round(best_us(fn, 1, repeat) / 1e3, 3)

    curves = [rng.standard_normal(WRITER_SAMPLES) ** 2 for _ in range(CURVES)]
    header = ["iteration", *(f"c{i}" for i in range(CURVES))]
    iters = np.arange(WRITER_SAMPLES)
    series = [(f"c{i}", iters, 10 * np.log10(curve)) for i, curve in enumerate(curves)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        csv_row = {
            "writer": "write_csv",
            "rows": WRITER_SAMPLES,
            "columns": 1 + CURVES,
            "fmt": ".12g",
            "numpy_cells_ms": best_ms(lambda: write_csv(path, header, zip(range(WRITER_SAMPLES), *curves), ".12g")),
            "float_cells_ms": best_ms(
                lambda: write_csv(path, header, zip(range(WRITER_SAMPLES), *(c.tolist() for c in curves)), ".12g")
            ),
        }
        waveform_ms = best_ms(lambda: save_waveform(path, curves[0]))
    return [
        csv_row,
        {"writer": "save_waveform", "rows": WRITER_SAMPLES, "fmt": ".17g", "best_ms": waveform_ms},
        {"writer": "line_chart", "series": CURVES, "points": WRITER_SAMPLES,
         "best_ms": best_ms(lambda: line_chart(series, title="t", xlabel="x", ylabel="y"))},
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds per layer; the best is kept (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(0)
    rows = [step_layers(kind, length, args.repeat, rng) for kind in KINDS for length in STEP_LENGTHS]
    rows += [update_layers(runs, length, args.repeat, rng) for runs in (None, *RUNS) for length in UPDATE_LENGTHS]
    rows += writer_rows(args.repeat, rng)
    for row in rows:
        print(json.dumps(row))


if __name__ == "__main__":
    main()

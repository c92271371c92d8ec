"""Time the layers of a public step: its checks, its core and its output.

For ``iwf_ase_step`` and ``dcd_ase_step`` (shift mode, the default) at L
in 10, 64 and 256 this prints the best-of-N microseconds per call of:

* ``public_us``: the whole public step;
* ``validation_us``: the checks the public step runs before its core,
  ``_check_sample`` and ``_check_layout``, and for ``dcd_ase``
  ``_check_solver``;
* ``core_us``: the private core, with its in-core checks off where it has
  the switch (``_dcd_step(..., checked=False)``).  ``_vss_step`` has none,
  so its two scalar checks are part of it;
* ``in_core_checks_us``: those checks alone.  For ``dcd_ase`` they are the
  finiteness check of the new ring row and ``_check_rhs`` on the
  right-hand side, for ``iwf_ase`` the checks of the weight ``phi`` and
  of the step size;
* ``step_output_us``: building the :class:`StepOutput` the step returns;
* ``all_finite_us`` and ``isfinite_all_us``: the library's finiteness
  helper and ``np.isfinite(v).all()`` on a vector of L entries.

Every time includes the timing loop's call of a function, 0.02 to 0.05 us.
The states are warmed up on a seeded system-identification stream past
the delay-line fill, then every timed call steps or checks the next
sample of that stream.  The package is imported from the ``src``
directory beside this script, so a copy of the repository times its own
steps.

    python tools/step_times.py [--repeat N]

prints one JSON line per (algorithm, L).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asefilt import default_algorithms, filter_init, filters  # noqa: E402
from asefilt.dcd import _all_finite, _check_rhs  # noqa: E402
from asefilt.signals import regressors  # noqa: E402

LENGTHS = (10, 64, 256)
KINDS = ("iwf_ase", "dcd_ase")
SAMPLES = 3000


def best_us(fn, number: int, repeat: int) -> float:
    """Best mean microseconds per call of ``fn`` over ``repeat`` rounds of ``number`` calls."""
    return round(min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6, 3)


def stream(length: int, rng) -> list:
    """``(x, d)`` pairs of a unit-variance system-identification stream at
    ``length`` taps, with Python-float ``d`` as a caller passes it."""
    x_rows = regressors(rng.standard_normal(SAMPLES), length)
    d = x_rows @ rng.standard_normal(length) + 0.1 * rng.standard_normal(SAMPLES)
    return list(zip(x_rows, d.tolist()))


def step_layers(kind: str, length: int, number: int, repeat: int, rng) -> dict:
    """The layers of one public ``kind`` step at ``length`` taps."""
    config = default_algorithms(length, (kind,))[0].config
    state = filter_init(config)
    samples = stream(length, rng)
    warm = 4 * length + 100
    dcd = kind == "dcd_ase"
    step = filters.dcd_ase_step if dcd else filters.iwf_ase_step
    for x, d in samples[:warm]:
        step(state, config, x, d)
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
            filters._check_phi(phi)
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds per layer; the best is kept (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(0)
    for kind in KINDS:
        for length in LENGTHS:
            print(json.dumps(step_layers(kind, length, max(200, 50000 // length), args.repeat, rng)))


if __name__ == "__main__":
    main()

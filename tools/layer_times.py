"""Time the layers of the dense O(L^2) statistics update one at a time.

For L in 10, 16, 32, 48, 64, 128 and 256 this prints the best-of-N
microseconds of each layer of a public inversion-free step (``iwf_step``,
``iwf_ase_step``, ``rmcc_step``): the in-place decay of the ``(L + 1, L)``
statistics array, the rank-one product ``u x^T`` by the broadcast multiply
``u[:, None] * x``, by ``np.einsum("i,j->ij", u, x)`` and by the
zero-padded matmul ``filters._outer``, the add of that product, and the
two matrix-vector products ``R w`` and ``R r``.  Then, for the Monte Carlo
driver's batched core at ``(algorithms, runs, L) = (3, B, L)`` with B in 1,
4 and 10, it times the products of the batch: one broadcast multiply over
the batch, one ``np.einsum`` per run, one stacked ``filters._outer`` over
the batch and one ``_outer`` per run; and the whole update, decay,
product and add, with the per-run einsum, the stacked matmul that
``filters._vss_steps`` takes and ``_outer`` per run.  The crossover of the
broadcast and the matmul sets ``filters._MATMUL_MIN_LENGTH``.

Each row also says, under ``*_matches``, whether each route's product
equals the broadcast's bit for bit, signed zeros aside, on operands whose
magnitudes span 1e-300 to 1e150 with exact zeros of both signs among them,
so a BLAS that rounds the padded product differently shows here.  The
timings use standard normal operands, which keep subnormal arithmetic out
of them.  The package is imported from the ``src`` directory beside this
script, so a copy of the repository times its own helper.

    python tools/layer_times.py [--repeat N]

prints one JSON line per shape.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asefilt.filters import _outer  # noqa: E402

LENGTHS = (10, 16, 32, 48, 64, 128, 256)
RUNS = (1, 4, 10)
ALGORITHMS = 3
LAM = 0.999


def best_us(fn, number: int, repeat: int) -> float:
    """Best mean microseconds per call of ``fn`` over ``repeat`` rounds of ``number`` calls."""
    return round(min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6, 3)


def edge_operands(shape: tuple, rng) -> np.ndarray:
    """Operands of ``shape`` whose magnitudes span 1e-300 to 1e150, about
    one in eight an exact zero of either sign: their products reach
    overflow-free extremes, subnormals, underflow and exact zeros."""
    values = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-300, 150, shape)
    values[rng.random(shape) < 0.125] = 0.0
    return np.copysign(values, rng.choice((-1.0, 1.0), shape))


def route_matches(routes: dict, u_shape: tuple, x_shape: tuple, rng) -> dict:
    """For each of ``routes``, ``name -> fn(u, x)``, whether its product
    equals the first route's (the broadcast) on edge operands, signed zeros aside."""
    u, x = edge_operands(u_shape, rng), edge_operands(x_shape, rng)
    with np.errstate(under="ignore"):
        products = {name: fn(u, x) for name, fn in routes.items()}
    reference = products.pop(next(iter(routes)))
    return {f"{name}_matches": bool(np.array_equal(product, reference)) for name, product in products.items()}


def scalar_layers(length: int, number: int, repeat: int, rng) -> dict:
    """The layers of one public inversion-free step at ``length`` taps."""
    stats = np.vstack([np.eye(length), rng.standard_normal(length)])
    u, x, w, r = rng.standard_normal(length + 1), rng.standard_normal(length), *rng.standard_normal((2, length))
    outer, r_mat = u[:, None] * x, stats[:-1]
    routes = {
        "broadcast": lambda u, x: u[:, None] * x,
        "einsum": lambda u, x: np.einsum("i,j->ij", u, x),
        "matmul": _outer,
    }

    def decay():
        stats.__imul__(LAM)

    def add():
        stats.__iadd__(outer)

    return {
        "L": length,
        "decay_us": best_us(decay, number, repeat),
        **{f"outer_{name}_us": best_us(lambda fn=fn: fn(u, x), number, repeat) for name, fn in routes.items()},
        "add_us": best_us(add, number, repeat),
        "matvec_rw_us": best_us(lambda: r_mat @ w, number, repeat),
        "matvec_rr_us": best_us(lambda: r_mat @ r, number, repeat),
        **route_matches(routes, (length + 1,), (length,), rng),
    }


def batched_outer(runs: int, length: int, number: int, repeat: int, rng) -> dict:
    """The rank-one products and the whole update of a ``(3, runs, length)`` inversion-free batch."""
    u = rng.standard_normal((ALGORITHMS, runs, length + 1))
    x = rng.standard_normal((runs, length))
    stats = np.zeros(u.shape + (length,))

    def broadcast(u, x, out):
        return np.multiply(u[..., None], x[:, None, :], out=out)

    def einsum(u, x, out):
        for u_run, x_run, out_run in zip(u.swapaxes(0, 1), x, out.swapaxes(0, 1)):
            np.einsum("ai,j->aij", u_run, x_run, out=out_run)
        return out

    def matmul(u, x, out):
        return _outer(u, x, out=out)

    def matmul_per_run(u, x, out):
        for u_run, x_run, out_run in zip(u.swapaxes(0, 1), x, out.swapaxes(0, 1)):
            _outer(u_run, x_run, out=out_run)
        return out

    routes = {"broadcast": broadcast, "einsum": einsum, "matmul": matmul, "matmul_per_run": matmul_per_run}
    outer = np.empty_like(stats)

    def update(route):
        stats.__imul__(LAM)
        np.add(stats, route(u, x, outer), out=stats, where=True)

    return {
        "A": ALGORITHMS,
        "B": runs,
        "L": length,
        **{f"batch_{name}_us": best_us(lambda fn=fn: fn(u, x, outer), number, repeat) for name, fn in routes.items()},
        **{f"update_{name}_us": best_us(lambda fn=fn: update(fn), number, repeat)
           for name, fn in routes.items() if name != "broadcast"},
        **route_matches({name: lambda u, x, fn=fn: fn(u, x, np.empty(u.shape + x.shape[-1:]))
                         for name, fn in routes.items()}, u.shape, x.shape, rng),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds per layer; the best is kept (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(0)
    for length in LENGTHS:
        print(json.dumps(scalar_layers(length, max(20, 20000 // length), args.repeat, rng)))
    for length in LENGTHS:
        for runs in RUNS:
            number = max(5, 4000 // (runs * length))
            print(json.dumps(batched_outer(runs, length, number, args.repeat, rng)))


if __name__ == "__main__":
    main()

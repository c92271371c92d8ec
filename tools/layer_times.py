"""Time the layers of the dense O(L^2) statistics update one at a time.

For L in 10, 32, 64, 128 and 256 this prints the best-of-N microseconds of
each layer of a public inversion-free step (``iwf_step``, ``iwf_ase_step``,
``rmcc_step``): the in-place decay of the ``(L + 1, L)`` statistics array,
the rank-one product ``u x^T`` by each route ``filters._einsum_route``
chooses between (the broadcast multiply ``u[:, None] * x`` and
``np.einsum("i,j->ij", u, x)``), the add of that product, and the two
matrix-vector products ``R w`` and ``R r``.  Then, for the Monte Carlo
driver's batched core at ``(algorithms, runs, L) = (3, B, L)`` with B in 1,
4 and 10, it times the products of the batch as ``filters._vss_steps``
builds them: one broadcast multiply over the batch, or one ``np.einsum``
per run, beside a single 4-D ``np.einsum`` over the batch.  The crossover
of the two routes sets ``filters._EINSUM_MIN_LENGTH``.

    python tools/layer_times.py [--repeat N]

prints one JSON line per shape.
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

LENGTHS = (10, 32, 64, 128, 256)
RUNS = (1, 4, 10)
ALGORITHMS = 3
LAM = 0.999


def best_us(fn, number: int, repeat: int) -> float:
    """Best mean microseconds per call of ``fn`` over ``repeat`` rounds of ``number`` calls."""
    return round(min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6, 3)


def scalar_layers(length: int, number: int, repeat: int, rng) -> dict:
    """The layers of one public inversion-free step at ``length`` taps."""
    stats = np.vstack([np.eye(length), rng.standard_normal(length)])
    u, x, w, r = rng.standard_normal(length + 1), rng.standard_normal(length), *rng.standard_normal((2, length))
    outer, r_mat = u[:, None] * x, stats[:-1]

    def decay():
        stats.__imul__(LAM)

    def add():
        stats.__iadd__(outer)

    return {
        "L": length,
        "decay_us": best_us(decay, number, repeat),
        "outer_broadcast_us": best_us(lambda: u[:, None] * x, number, repeat),
        "outer_einsum_us": best_us(lambda: np.einsum("i,j->ij", u, x), number, repeat),
        "add_us": best_us(add, number, repeat),
        "matvec_rw_us": best_us(lambda: r_mat @ w, number, repeat),
        "matvec_rr_us": best_us(lambda: r_mat @ r, number, repeat),
    }


def batched_outer(runs: int, length: int, number: int, repeat: int, rng) -> dict:
    """The rank-one products of a ``(3, runs, length)`` inversion-free batch."""
    u = rng.standard_normal((ALGORITHMS, runs, length + 1))
    x = rng.standard_normal((runs, length))
    outer = np.empty(u.shape + (length,))
    u_col, u_runs, outer_runs = u[..., None], u.swapaxes(0, 1), outer.swapaxes(0, 1)

    def broadcast():
        np.multiply(u_col, x[:, None, :], out=outer)

    def einsum():
        for u_run, x_run, out in zip(u_runs, x, outer_runs):
            np.einsum("ai,j->aij", u_run, x_run, out=out)

    def einsum_4d():
        np.einsum("abi,bj->abij", u, x, out=outer)

    return {
        "A": ALGORITHMS,
        "B": runs,
        "L": length,
        "batch_broadcast_us": best_us(broadcast, number, repeat),
        "batch_einsum_us": best_us(einsum, number, repeat),
        "batch_einsum_4d_us": best_us(einsum_4d, number, repeat),
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

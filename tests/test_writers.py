"""The CSV and SVG writers against per-cell and per-point references.

``write_csv`` formats a chunk of rows with one ``%`` operation and
``line_chart`` a series' polyline with another; each must write the same
bytes as formatting one cell, or one point, at a time.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import csv_text_reference

from asefilt.cli import EXIT_RUNTIME, main
from asefilt.signals import _CSV_CHUNK_ROWS, atomic_write, save_waveform, write_csv
from asefilt.svgplot import _HEIGHT, _MARGIN_BOTTOM, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _WIDTH, _axis, line_chart

SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308,
                  0.1 + 0.2, 1.0 / 3.0, 2.0**53 + 2]
FORMATS = [".12g", ".17g", ".3e", ".2f"]
ROW_COUNTS = [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1]
# A failing example drawn from a seed reads as well unshrunk, and shrinking
# one of thousands of rows or points reruns it for minutes.
NO_SHRINK = [Phase.explicit, Phase.generate]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
cells = st.one_of(
    st.integers(),
    st.booleans(),
    st.text(max_size=6),
    floats,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    width=st.integers(1, 4),
    table=st.data(),
    fmt=st.sampled_from(FORMATS),
)
def test_write_csv_matches_per_cell_reference(tmp_path_factory, width, table, fmt):
    """Any cells, each column pure or mixed, as the per-cell rule writes them."""
    rows = table.draw(st.lists(st.tuples(*[cells] * width), max_size=6))
    header = [f"c{j}" for j in range(width)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, iter(rows), fmt)
    assert path.read_text() == csv_text_reference(header, rows, fmt)


def _floats(n: int, rng) -> np.ndarray:
    """``n`` finite floats of every magnitude, subnormals included."""
    return rng.uniform(-9.99, 9.99, n) * 10.0 ** rng.integers(-320, 308, n)


def _column(kind: str, n: int, rng) -> list:
    """``n`` cells of one column kind, drawn from ``rng``."""
    values = _floats(n, rng)
    specials = rng.random(n) < 0.1
    values[specials] = rng.choice(SPECIAL_FLOATS, int(specials.sum()))
    ints = rng.integers(-(2**62), 2**62, n)
    if kind == "int":
        return ints.tolist()
    if kind == "bool":
        return (ints % 2 == 0).tolist()
    if kind == "str":
        return [f"s%{i}" for i in ints.tolist()]
    if kind == "float":
        return values.tolist()
    if kind == "np.float64":
        return list(values)
    if kind == "np.int64":
        return list(ints)
    # One string among floats late in the rows: a column pure in its early
    # chunks and mixed in the chunk that holds the string.
    if kind == "late-mixed":
        out = values.tolist()
        if n:
            out[rng.integers(n // 2, n)] = "x"
        return out
    pools = [ints.tolist(), list(ints), values.tolist(), list(values), [str(v) for v in ints.tolist()]]
    return [pools[p][i] for i, p in enumerate(rng.integers(0, len(pools), n).tolist())]


KINDS = ["int", "bool", "str", "float", "np.float64", "np.int64", "late-mixed", "mixed"]


@settings(derandomize=True, database=None, max_examples=40, deadline=None, phases=NO_SHRINK)
@given(
    n=st.sampled_from(ROW_COUNTS),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(FORMATS),
)
def test_write_csv_matches_per_cell_reference_over_chunks(tmp_path_factory, n, kinds, seed, fmt):
    """Row counts on either side of the chunk size, every column kind."""
    rng = np.random.default_rng(seed)
    rows = list(zip(*(_column(kind, n, rng) for kind in kinds)))
    header = list(kinds)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, iter(rows), fmt)
    assert path.read_text() == csv_text_reference(header, rows, fmt)


@settings(derandomize=True, database=None, max_examples=30, deadline=None, phases=NO_SHRINK)
@given(n=st.sampled_from(ROW_COUNTS), seed=st.integers(0, 2**32 - 1))
def test_save_waveform_matches_per_cell_reference(tmp_path_factory, n, seed):
    x = _floats(n, np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("wave") / "w.csv"
    save_waveform(path, x)
    assert path.read_text() == csv_text_reference(["index", "value"], enumerate(x.tolist()), ".17g")


@settings(derandomize=True, database=None, max_examples=40, deadline=None, phases=NO_SHRINK)
@given(n=st.sampled_from(ROW_COUNTS[1:]), bad=st.data(), length=st.sampled_from([0, 1, 2, 4]))
def test_a_row_of_the_wrong_length_raises_and_writes_no_file(tmp_path_factory, n, bad, length):
    rows = [(i, i / 3, "a") for i in range(n)]
    at = bad.draw(st.integers(0, n - 1))
    rows[at] = tuple(range(length))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.raises(ValueError, match="every row must have 3 cells"):
        write_csv(path, ["i", "x", "s"], iter(rows), ".12g")
    assert list(path.parent.iterdir()) == []


def _polylines_reference(series) -> list[str]:
    """Each series' polyline points, formatted one point at a time from
    ``line_chart``'s pixel mapping."""
    x_lo, x_hi = _axis(np.concatenate([np.asarray(s[1], dtype=float) for s in series]), 0.0)
    y_lo, y_hi = _axis(np.concatenate([np.asarray(s[2], dtype=float) for s in series]), 0.04)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    out = []
    for _, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        px = _MARGIN_LEFT + (xs[keep] - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_TOP + (y_hi - ys[keep]) / (y_hi - y_lo) * plot_h
        out.append(" ".join("%.2f,%.2f" % p for p in zip(px.tolist(), py.tolist())))
    return out


@settings(derandomize=True, database=None, max_examples=30, deadline=None, phases=NO_SHRINK)
@given(
    lengths=st.lists(st.sampled_from([0, 1, 2, 20_000]), min_size=1, max_size=4),
    nonfinite=st.sampled_from([0.0, 0.01, 0.5]),
    shared_x=st.sampled_from([None, "equal", "same"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyline_matches_per_point_reference(lengths, nonfinite, shared_x, seed):
    """Series of 0, 1, 2 and 20 000 points, NaN and inf points masked out.
    With ``shared_x`` the x values are ``np.arange``: ``"equal"`` gives each
    series an array of its own, ``"same"`` gives the series of one length one
    x array object, as ``cli._write_curves`` passes them, so its x strings
    are formatted once."""
    rng = np.random.default_rng(seed)
    series = []
    shared = {}
    for i, n in enumerate(lengths):
        if shared_x is None:
            xs = rng.standard_normal(n) * 1e3
        else:
            xs = shared.setdefault(n, np.arange(float(n))) if shared_x == "same" else np.arange(float(n))
        ys = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        for v in (xs, ys):
            v[rng.random(n) < nonfinite] = rng.choice([np.nan, np.inf, -np.inf])
        series.append((f"s{i}", xs, ys))
    svg = line_chart(series)
    polylines = [line.split('"')[1] for line in svg.splitlines() if line.startswith("<polyline")]
    assert polylines == _polylines_reference(series)


def test_failed_rename_removes_the_temporary_file(tmp_path, capsys):
    """A rename onto a directory fails; the run exits 3 with the OS error
    and leaves no ``.tmp`` file behind."""
    out = tmp_path / "o"
    (out / "nmsd.csv").mkdir(parents=True)
    assert main(["sysid", "--runs", "1", "--horizon", "20", "--out", str(out)]) == EXIT_RUNTIME
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["nmsd.csv"]


def test_failed_write_removes_the_temporary_file(tmp_path):
    path = tmp_path / "t.txt"
    with pytest.raises(TypeError):
        atomic_write(path, b"not text")
    assert list(tmp_path.iterdir()) == []

"""Tests for the power-of-two coordinate-descent solver.

The reference oracle throughout is numpy's dense solver: with a generous
bit depth and update budget the quantized solution must land within the
grid resolution of the exact one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asefilt import DcdParams, DcdSolveResult, OpCounter, dcd_solve
from asefilt.counting import solve_ops
from asefilt.dcd import ShiftMatrix, _dcd_solve
from asefilt.harness import random_spd_system

from oracles import dcd_solve_reference, dcd_solve_shift_add

TINY = np.finfo(float).tiny


def test_params_validation():
    with pytest.raises(ValueError):
        DcdParams(h=0.0)
    with pytest.raises(ValueError):
        DcdParams(m_bits=0)
    with pytest.raises(ValueError):
        DcdParams(n_updates=0)
    with pytest.raises(ValueError):
        DcdParams(m_bits=3.5)


def test_identity_system_exact_single_update():
    # R = I, rhs = [0.5, 0]: one update of size 0.5 on coordinate 0
    # finishes the job exactly.
    p = DcdParams(h=2.0, m_bits=4, n_updates=4)
    res = dcd_solve(np.eye(2), np.array([0.5, 0.0]), p)
    assert np.array_equal(res.delta_w, np.array([0.5, 0.0]))
    assert np.array_equal(res.residual_out, np.zeros(2))
    assert res.updates_used == 1


def test_two_by_two_matches_dense_solve():
    r = np.array([[2.0, 1.0], [1.0, 2.0]])
    rhs = np.array([1.0, 1.0])
    exact = np.linalg.solve(r, rhs)  # [1/3, 1/3]
    p = DcdParams(h=2.0, m_bits=16, n_updates=500)
    res = dcd_solve(r, rhs, p)
    tol = 10 * p.h * 2.0**-16
    assert np.max(np.abs(res.delta_w - exact)) <= tol


def test_residual_bookkeeping_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r, x_true, rhs = random_spd_system(6, 5.0, rng.integers(1 << 30))
        p = DcdParams(h=4.0, m_bits=10, n_updates=60)
        res = dcd_solve(r, rhs, p)
        recomputed = rhs - r @ res.delta_w
        assert np.max(np.abs(recomputed - res.residual_out)) < 1e-12


def test_delta_entries_live_on_the_grid():
    # every coordinate of the solution is a signed sum of powers of two
    # from the step grid, hence an exact multiple of the finest step
    r, _, rhs = random_spd_system(8, 10.0, 123)
    p = DcdParams(h=2.0, m_bits=6, n_updates=40)
    res = dcd_solve(r, rhs, p)
    finest = p.h / 2**p.m_bits
    scaled = res.delta_w / finest
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_budget_exhaustion_flags():
    r = np.array([[1.0, 0.0], [0.0, 1.0]])
    # large rhs, tiny budget: runs out of updates, not bits
    p = DcdParams(h=2.0, m_bits=8, n_updates=1)
    res = dcd_solve(r, np.array([1.9, -1.7]), p)
    assert res.updates_used == 1
    assert not res.exhausted_bits
    # zero rhs: nothing to do, bits run out immediately
    res2 = dcd_solve(r, np.zeros(2), p)
    assert res2.updates_used == 0
    assert res2.exhausted_bits
    assert np.array_equal(res2.delta_w, np.zeros(2))


def test_accuracy_improves_with_budget():
    r, x_true, rhs = random_spd_system(10, 8.0, 42)
    errs = []
    for nu in (5, 40, 640):
        p = DcdParams(h=4.0, m_bits=16, n_updates=nu)
        res = dcd_solve(r, rhs, p)
        errs.append(np.max(np.abs(res.delta_w - x_true)))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] <= 10 * 4.0 * 2.0**-16


def test_leading_coordinate_tie_break_lowest_index():
    # equal residual magnitudes: coordinate 0 must win the argmax
    p = DcdParams(h=2.0, m_bits=2, n_updates=1)
    res = dcd_solve(np.eye(2), np.array([1.0, 1.0]), p)
    assert res.delta_w[0] != 0.0
    assert res.delta_w[1] == 0.0


def test_input_validation():
    p = DcdParams()
    with pytest.raises(ValueError):
        dcd_solve(np.ones((2, 3)), np.zeros(2), p)
    with pytest.raises(ValueError):
        dcd_solve(np.eye(2), np.zeros(3), p)
    with pytest.raises(ValueError):
        dcd_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), p)
    bad = np.eye(2)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        dcd_solve(bad, np.zeros(2), p)


def test_result_type():
    res = dcd_solve(np.eye(2), np.zeros(2), DcdParams())
    assert isinstance(res, DcdSolveResult)


def test_shift_add_shadow_matches_float_solver():
    """The integer shadow implementation (shifts and adds only) must track
    the float solver bit for bit on integer-valued systems."""
    rng = np.random.default_rng(2024)
    h_exp, m_bits, n_updates = 1, 6, 25
    scale = 2 ** (m_bits - h_exp)
    for _ in range(25):
        a = rng.integers(-3, 4, size=(4, 4))
        r = a @ a.T + 5 * np.eye(4, dtype=np.int64)  # SPD with integer entries
        rhs = rng.integers(-6, 7, size=4)
        p = DcdParams(h=float(2**h_exp), m_bits=m_bits, n_updates=n_updates)
        res = dcd_solve(r.astype(float), rhs.astype(float), p)
        du, ru, used, exhausted = dcd_solve_shift_add(
            r.tolist(), rhs.tolist(), h_exp, m_bits, n_updates
        )
        assert np.array_equal(np.array(du, dtype=float) / scale, res.delta_w)
        assert np.array_equal(np.array(ru, dtype=float) / scale, res.residual_out)
        assert used == res.updates_used
        assert exhausted == res.exhausted_bits


def test_shift_add_rejects_bad_exponents():
    with pytest.raises(ValueError):
        dcd_solve_shift_add([[1]], [0], -1, 4, 4)
    with pytest.raises(ValueError):
        dcd_solve_shift_add([[1]], [0], 5, 4, 4)


def _shifted(r, row):
    out = np.empty_like(r)
    out[1:, 1:] = r[:-1, :-1]
    out[0, :] = row
    out[:, 0] = row
    return out


def test_shift_matrix_reads_match_dense():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    dense = a + a.T + 12.0 * np.eye(6)
    ring = ShiftMatrix(dense)
    for _ in range(9):  # wraps the ring once and a half
        row = rng.standard_normal(6)
        row[0] = 5.0 + abs(row[0])
        ring.push(row)
        dense = _shifted(dense, row)
        assert np.array_equal(ring.dense(), dense)
        assert np.array_equal(ring.diagonal(), np.diag(dense))
        for j in range(6):
            assert np.array_equal(ring.column(j), dense[:, j])
        rhs = rng.standard_normal(6)
        p = DcdParams(h=2.0, m_bits=10, n_updates=12)
        a_res, b_res = dcd_solve(ring, rhs, p), dcd_solve(dense, rhs, p)
        assert np.array_equal(a_res.delta_w, b_res.delta_w)
        assert np.array_equal(a_res.residual_out, b_res.residual_out)
        assert a_res.updates_used == b_res.updates_used


def test_shift_matrix_validation():
    with pytest.raises(ValueError):
        ShiftMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ShiftMatrix(np.full((2, 2), np.inf))
    ring = ShiftMatrix(np.eye(2))
    with pytest.raises(ValueError):
        ring.push(np.array([np.nan, 0.0]))
    assert np.array_equal(ring.dense(), np.eye(2))  # a rejected row is not written
    p = DcdParams()
    with pytest.raises(ValueError):
        dcd_solve(ring, np.zeros(3), p)
    with pytest.raises(ValueError):
        dcd_solve(ring, np.array([0.0, np.inf]), p)
    ring.push(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        dcd_solve(ring, np.zeros(2), p)


@pytest.mark.parametrize("make", [np.asarray, ShiftMatrix], ids=["dense", "ring"])
@pytest.mark.parametrize(
    "diagonal, rhs, message",
    [
        ([1.0, 1.0], [0.0, 0.0, 0.0], r"rhs must be a vector of length 2, got shape \(3,\)"),
        ([1.0, 1.0], [0.0, np.nan], "r_matrix and rhs must be finite"),
        ([1.0, 0.0], [0.0, 0.0], "r_matrix must have strictly positive diagonal entries"),
        ([1.0, -1.0], [0.0, 0.0], "r_matrix must have strictly positive diagonal entries"),
        ([], [], r"r_matrix must be square and non-empty, got shape \(0, 0\)"),
    ],
    ids=["rhs-length", "rhs-nonfinite", "zero-pivot", "negative-pivot", "empty"],
)
def test_dense_and_ring_systems_fail_alike(make, diagonal, rhs, message):
    """One check covers both inputs, with one message per condition."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        dcd_solve(make(np.diag(diagonal)), np.array(rhs), DcdParams())


def test_ring_solve_accepts_subnormal_pivots():
    """The filter holds its solve below a normal pivot; public dcd_solve
    rejects only a diagonal that is not positive."""
    ring = ShiftMatrix(np.eye(2))
    ring.push(np.array([1e-320, 0.0]))
    assert not ring.pivots_normal
    res = dcd_solve(ring, np.array([0.0, 1.0]), DcdParams(h=2.0, m_bits=4, n_updates=2))
    assert np.array_equal(res.delta_w, [0.0, 1.0]) and res.exhausted_bits
    ring.push(np.array([2.0, 0.0]))
    ring.push(np.array([2.0, 0.0]))
    assert ring.pivots_normal


@pytest.mark.parametrize(
    "params, exhausted, expected",
    [
        (DcdParams(h=4.0, m_bits=8, n_updates=5), False, (5, 35, 42, 41)),
        (DcdParams(h=4.0, m_bits=3, n_updates=50), True, (4, 28, 34, 40)),
    ],
    ids=["budget", "bits"],
)
def test_solve_op_counts_are_pinned(params, exhausted, expected):
    """Exact OpCounter totals of one solve for each way a solve stops."""
    r, _, rhs = random_spd_system(6, 5.0, 11)
    ops = OpCounter()
    res = dcd_solve(r, rhs, params, ops=ops)
    assert res.exhausted_bits == exhausted
    assert (res.updates_used, ops.adds, ops.mults, ops.comparisons) == expected


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    length=st.integers(1, 8),
    cond=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
    h_exp=st.integers(-3, 3),
    m_bits=st.integers(1, 12),
    n_updates=st.integers(1, 16),
    rhs_exp=st.sampled_from([0, 0, -8, -40]),
    ring=st.booleans(),
)
def test_solve_matches_reference_loop(length, cond, seed, h_exp, m_bits, n_updates, rhs_exp, ring):
    """dcd_solve, on dense or ring input, equals the plain loop bit for bit,
    including solves whose first scan exhausts the bits (small rhs)."""
    r, _, rhs = random_spd_system(length, cond, seed)
    rhs = rhs * 2.0**rhs_exp
    params = DcdParams(h=2.0**h_exp, m_bits=m_bits, n_updates=n_updates)
    ops, ref_ops = OpCounter(), OpCounter()
    res = dcd_solve(ShiftMatrix(r) if ring else r, rhs, params, ops=ops)
    ref = dcd_solve_reference(r, rhs, params, ops=ref_ops)
    assert np.array_equal(res.delta_w, ref.delta_w)
    assert np.array_equal(res.residual_out, ref.residual_out)
    assert (res.updates_used, res.exhausted_bits) == (ref.updates_used, ref.exhausted_bits)
    assert ops == ref_ops


_pivot = st.sampled_from([0.0, -1.0, 1e-320, TINY / 2, TINY, 1e-300, 1.0, 3.5])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    length=st.integers(1, 6),
    initial=st.lists(_pivot, min_size=6, max_size=6),
    pushes=st.lists(st.one_of(st.none(), _pivot), max_size=20),
)
def test_cached_pivot_check_matches_diagonal(length, initial, pushes):
    """After any pushes, zero rows included, the cached pivot check equals
    the check recomputed from the diagonal."""
    ring = ShiftMatrix(np.diag(initial[:length]))
    assert ring.pivots_normal == bool((ring.diagonal() >= TINY).all())
    for k, pivot in enumerate(pushes):
        row = np.zeros(length)
        if pivot is not None:  # None pushes an all-zero row
            row[0] = pivot
            row[1:] = 0.25 * k
        ring.push(row)
        assert ring.pivots_normal == bool((ring.diagonal() >= TINY).all())


_ring_pivot = st.sampled_from([0.0, 1e-320, TINY / 2, TINY, 1e-300, 0.5, 1.0, 4.0])


def _ring_snapshot(ring):
    return ring.dense(), ring.diagonal().copy(), ring.pivots_normal


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    length=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    pivots=st.lists(_ring_pivot, min_size=1, max_size=20),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_ring_views_track_every_push(length, seed, pivots, bad):
    """After every push of a random row (zero and subnormal pivots included)
    the newest-row view is the first row and column 0, the diagonal view
    is the dense diagonal and read-only, and the pivot check matches it; a
    non-finite row or one of the wrong length raises and leaves the ring
    as it was."""
    rng = np.random.default_rng(seed)
    ring = ShiftMatrix(np.eye(length))
    for pivot in pivots:
        row = rng.standard_normal(length)
        row[0] = pivot
        ring.push(row)
        dense = ring.dense()
        assert np.array_equal(ring.newest, row)
        assert np.array_equal(ring.newest, dense[0])
        assert np.array_equal(ring.newest, ring.column(0))
        assert np.array_equal(ring.diagonal(), dense.diagonal())
        assert not ring.diagonal().flags.writeable and not ring.newest.flags.writeable
        with pytest.raises(ValueError):
            ring.diagonal()[0] = 1.0
        assert ring.pivots_normal == bool((dense.diagonal() >= TINY).all())

        before = _ring_snapshot(ring)
        poisoned = rng.standard_normal(length)
        poisoned[rng.integers(length)] = bad
        with pytest.raises(ValueError, match="r_matrix rows must be finite"):
            ring.push(poisoned)
        # A row of the wrong length fails its write; it must not touch the
        # cached pivot count either, which later pushes would then misreport.
        with pytest.raises(ValueError, match="could not broadcast"):
            ring.push(np.zeros(length + 1))
        after = _ring_snapshot(ring)
        assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])
        assert after[2] == before[2]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    length=st.integers(1, 8),
    cond=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
    h_exp=st.sampled_from([2, 0, -20, -1000, -1040, -1060]),
    h_mant=st.sampled_from([1.0, 1.5, 1.3]),
    m_bits=st.integers(1, 64),
    n_updates=st.integers(1, 16),
    exhaust=st.booleans(),
    ring=st.booleans(),
)
def test_solve_ladder_and_exhaustion_test_match_reference(
    length, cond, seed, h_exp, h_mant, m_bits, n_updates, exhaust, ring
):
    """The halving ladder and the one-comparison exhaustion test give the
    reference loop's result bit for bit, op counts included, with steps
    deep in the subnormal range (h down to 2**-1060, up to 64 halvings;
    a mantissa other than 1 makes each subnormal halving round) and with
    rhs scaled so that the first scan exhausts the bits."""
    r, _, rhs = random_spd_system(length, cond, seed)
    params = DcdParams(h=h_mant * 2.0**h_exp, m_bits=m_bits, n_updates=n_updates)
    m, expected = params.h / 2.0, []
    for _ in range(m_bits):  # the plain halving loop's steps, zeros cut off
        expected.append(m)
        if m == 0.0:
            break
        m *= 0.5
    assert list(params._ladder) == expected
    if exhaust:
        # At most a quarter of the finest threshold on the smallest pivot.
        rhs = rhs * (0.125 * expected[-1] * r.diagonal().min() / np.abs(rhs).max())
    ops, ref_ops = OpCounter(), OpCounter()
    res = dcd_solve(ShiftMatrix(r) if ring else r, rhs, params, ops=ops)
    ref = dcd_solve_reference(r, rhs, params, ops=ref_ops)
    assert np.array_equal(res.delta_w, ref.delta_w)
    assert np.array_equal(res.residual_out, ref.residual_out)
    assert (res.updates_used, res.exhausted_bits) == (ref.updates_used, ref.exhausted_bits)
    assert ops == ref_ops
    if exhaust:
        assert res.exhausted_bits and res.updates_used == 0
        assert np.array_equal(res.residual_out, rhs)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    length=st.integers(1, 12),
    cond=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
    h_exp=st.integers(-3, 3),
    m_bits=st.integers(1, 12),
    n_updates=st.integers(1, 16),
    rhs_exp=st.sampled_from([0, 0, -8, -40]),
    w_exp=st.sampled_from([-30, -4, 0, 6]),
    ring=st.booleans(),
)
def test_in_place_solve_adds_the_public_increment(
    length, cond, seed, h_exp, m_bits, n_updates, rhs_exp, w_exp, ring
):
    """_dcd_solve warm-started at nonzero weights w0 leaves w0 + delta_w of
    the public dcd_solve in w and its residual in rhs, bit for bit, on
    dense and ring systems.  The (updates, halvings) it returns, priced
    with solve_ops, give the public solve's counts and OpCounter totals."""
    r, _, rhs = random_spd_system(length, cond, seed)
    rhs = rhs * 2.0**rhs_exp
    w0 = np.random.default_rng(seed).uniform(0.5, 2.0, length) * 2.0**w_exp
    w0[::2] *= -1.0
    system = ShiftMatrix(r) if ring else r
    params = DcdParams(h=2.0**h_exp, m_bits=m_bits, n_updates=n_updates)
    ref_ops = OpCounter()
    ref = dcd_solve(system, rhs, params, ops=ref_ops)
    w, residual = w0.copy(), rhs.copy()
    used, halvings = _dcd_solve(system, residual, params, w)
    assert w.tobytes() == (w0 + ref.delta_w).tobytes()
    assert residual.tobytes() == ref.residual_out.tobytes()
    assert (used, halvings == m_bits) == (ref.updates_used, ref.exhausted_bits)
    assert 0 <= halvings <= m_bits
    assert OpCounter(*solve_ops(length, m_bits, used, halvings)) == ref_ops


def test_ladder_is_built_with_the_params():
    """The ladder is set at construction: a solve writes nothing to the
    params, replace() rebuilds it, and it is no dataclass field."""
    params = DcdParams(h=2.0, m_bits=3, n_updates=4)
    before = dict(vars(params))
    assert before["_ladder"] == (1.0, 0.5, 0.25)
    dcd_solve(np.eye(2), np.array([0.7, -0.2]), params)
    assert vars(params) == before
    assert dataclasses.replace(params, m_bits=5)._ladder == (1.0, 0.5, 0.25, 0.125, 0.0625)
    assert params._ladder == (1.0, 0.5, 0.25)
    assert [f.name for f in dataclasses.fields(params)] == ["h", "m_bits", "n_updates"]
    twin = DcdParams(h=2.0, m_bits=3, n_updates=4)
    object.__setattr__(twin, "_ladder", ())
    assert twin == params and hash(twin) == hash(params)
    assert repr(params) == "DcdParams(h=2.0, m_bits=3, n_updates=4)"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    length=st.integers(1, 12),
    cond=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
    n_updates=st.integers(1, 9),
    rhs_exp=st.sampled_from([0, -8, -40]),
    ties=st.integers(0, 3),
    ring=st.booleans(),
)
def test_solve_from_a_given_lead_matches_its_own_scan(length, cond, seed, n_updates, rhs_exp, ties, ring):
    """_dcd_solve started from the lead a caller's scan found, the lowest
    index of largest magnitude, leaves the same residual, weights and
    (updates, halvings) bit for bit as the solve that scans for it, on
    dense and ring systems, warm-started, with ties in |rhs|."""
    r, _, rhs = random_spd_system(length, cond, seed)
    rng = np.random.default_rng(seed)
    rhs = rhs * 2.0**rhs_exp
    top = int(np.abs(rhs).argmax())
    for slot in rng.integers(0, length, ties):  # copy the largest magnitude, either sign
        rhs[slot] = rhs[top] * rng.choice([-1.0, 1.0])
    lead = int(np.abs(rhs).argmax())
    w0 = rng.standard_normal(length)
    system = ShiftMatrix(r) if ring else r
    params = DcdParams(h=2.0, m_bits=8, n_updates=n_updates)
    residual, w, seeded_residual, seeded_w = rhs.copy(), w0.copy(), rhs.copy(), w0.copy()
    expected = _dcd_solve(system, residual, params, w)
    assert _dcd_solve(system, seeded_residual, params, seeded_w, lead) == expected
    assert seeded_residual.tobytes() == residual.tobytes()
    assert seeded_w.tobytes() == w.tobytes()

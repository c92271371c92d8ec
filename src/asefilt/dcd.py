"""Leading-element dichotomous coordinate descent (DCD) solver.

Solves ``R x = b`` approximately without multiplications or divisions in
the weight updates: candidate step sizes are powers of two between ``h``
and ``h / 2**m_bits``, and each successful update adjusts one coordinate
of the solution by the current step size while keeping the residual
``b - R x`` up to date with one scaled column subtraction.

The solver is deliberately budgeted: at most ``n_updates`` successful
coordinate updates per call, and at most ``m_bits`` step halvings.  The
filters that embed it exploit the warm-started residual that it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import all_finite, check_finite, check_int, check_real, check_square, positive_finite
from .counting import OpCounter, solve_ops

__all__ = ["DcdParams", "DcdSolveResult", "ShiftMatrix", "dcd_solve"]

#: Smallest normal positive float.  A pivot below it is zero or subnormal,
#: where ``0.5 * step * pivot`` rounds to almost nothing and every
#: coordinate update passes the significance test.
MIN_PIVOT = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DcdParams:
    """Budget and step-size range of the solver.

    Parameters
    ----------
    h : float
        Largest step size (amplitude range of one solve).  Must be positive;
        powers of two keep every residual update exact in float arithmetic.
    m_bits : int
        Number of step halvings available, i.e. the word length of the
        solution increments.  The finest step is ``h / 2**m_bits``.
    n_updates : int
        Maximum number of successful coordinate updates per solve.
    """

    h: float = 2.0
    m_bits: int = 8
    n_updates: int = 8

    def __post_init__(self) -> None:
        check_real("h", self.h, "be positive and finite", positive_finite)
        check_int("m_bits", self.m_bits, 1, "an integer >= 1")
        check_int("n_updates", self.n_updates, 1, "an integer >= 1")
        # The solver's step sizes at halving depths 0 .. m_bits - 1: h / 2,
        # then the same repeated m *= 0.5 as a halving loop, so subnormal
        # steps get the same bits.  The ladder stops at the first zero step:
        # every deeper one is zero too.  Set here, not cached on first read:
        # a later write to the instance __dict__ slows every attribute read.
        m = self.h / 2.0
        steps = [m]
        while len(steps) < self.m_bits and m != 0.0:
            m *= 0.5
            steps.append(m)
        object.__setattr__(self, "_ladder", tuple(steps))


@dataclass
class DcdSolveResult:
    """Outcome of one budgeted solve.

    Attributes
    ----------
    delta_w : numpy.ndarray
        Accumulated solution increment (every entry is a signed sum of the
        power-of-two step sizes).
    residual_out : numpy.ndarray
        ``b - R @ delta_w`` as maintained incrementally by the solver.
    updates_used : int
        Number of successful coordinate updates performed.
    exhausted_bits : bool
        True when the solve stopped because all ``m_bits`` halvings were
        spent, False when it stopped on the update budget.
    """

    delta_w: np.ndarray
    residual_out: np.ndarray
    updates_used: int
    exhausted_bits: bool


class ShiftMatrix:
    """Symmetric matrix stored as a ring of its last ``length`` first rows.

    The autocorrelation of a tapped delay line, updated by shifting the
    previous matrix down-right by one sample and writing a new first row
    (and column), satisfies ``R[i, j] = rows[min(i, j)][|i - j|]`` with
    ``rows[k]`` the first row written ``k`` updates ago.  Holding those
    rows instead of ``R`` makes the update one O(length) row write
    (:meth:`push`) and a column of ``R`` one O(length) gather
    (:meth:`column`): the shift structure of DCD-RLS (Zakharov, White &
    Liu, "Low-complexity RLS algorithms using dichotomous coordinate
    descent iterations", IEEE Trans. Signal Processing, 2008).

    Every row is stored twice, at slots ``s`` and ``s + length`` of a
    ``(2 length, length)`` buffer, so the ``length`` newest rows always
    form one contiguous window and a column is a single ``take`` through
    a fixed offset table.  :meth:`push` checks each row finite, so a ring
    filled through it holds a finite ``R``; the filters' trusted cores
    write through ``_push``, which skips the check, and the Monte Carlo
    driver checks their states once per block of rows instead.

    The ring head cycles through ``length`` positions, so every view it
    needs is built once, in ``__init__``, or again when the Monte Carlo
    driver moves the rows into a batch of rings: for each head the window,
    a read-only view of its diagonal, a read-only view of its first row
    (:attr:`newest`) and the slot pair a push writes, as one view.  A push
    is then the finiteness check, one write of the pair and list lookups.
    It also keeps :attr:`pivots_normal` up to date, true while every pivot
    is a normal positive float (at least :data:`MIN_PIVOT`), from one
    count: how many of the newest rows, counted back from the newest, have
    a normal pivot.  A push resets it to 0 or adds 1, so the check costs
    O(1) instead of a scan of the diagonal.
    """

    def __init__(self, r_matrix: np.ndarray) -> None:
        """Ring holding the symmetric ``r_matrix`` (its upper triangle is read)."""
        r = check_square("r_matrix", r_matrix)
        check_finite("r_matrix", r)
        n = r.shape[0]
        buf = np.zeros((2 * n, n))
        for k in range(n):
            buf[k, : n - k] = r[k, k:]
        buf[n:] = buf[:n]
        # offsets[j, i] = min(i, j) * n + |i - j|: where R[i, j] sits in the window.
        k = np.arange(n)
        offsets = np.subtract.outer(k, k)
        np.abs(offsets, out=offsets)
        rows_back = np.minimum.outer(k, k)
        rows_back *= n
        offsets += rows_back
        self.length = n
        self._offsets = offsets
        self._offset_rows = list(offsets)
        self._bind(buf)
        # Slot k holds the row pushed k pushes ago, so the count of normal
        # rows is the index of the first weak pivot, or n if none is weak.
        self._seek(0, next((k for k, pivot in enumerate(r.diagonal().tolist()) if pivot < MIN_PIVOT), n))

    def _bind(self, buf: np.ndarray) -> None:
        """Hold the rows in ``buf``, a C-contiguous ``(2 length, length)``
        array, and build each head's views over it; :meth:`_seek` then
        picks one."""
        n = self.length
        flat = buf.reshape(-1)
        self._buf = buf
        # _heads[h]: (window, diagonal, newest row, slots h and h + n as one
        # (2, n) view) while the head is h.
        self._heads = []
        for h in range(n):
            window = flat[h * n : (h + n) * n]
            diag, newest = window[::n], window[:n]
            diag.flags.writeable = False
            newest.flags.writeable = False
            self._heads.append((window, diag, newest, buf[h::n]))

    def _seek(self, head: int, normal_rows: int | None = None) -> None:
        """Make ``head`` the ring head, for rows another writer put in the
        buffer; with ``normal_rows``, also how many of the newest rows have
        a pivot of at least :data:`MIN_PIVOT`."""
        self._head = head
        self._window, self._diag, self.newest, _ = self._heads[head]
        if normal_rows is not None:
            self._normal_rows = normal_rows
            self.pivots_normal = normal_rows >= self.length

    def push(self, row: np.ndarray) -> None:
        """Shift ``R`` down-right by one and make ``row`` its first row and column."""
        check_finite("r_matrix rows", row)
        self._push(row)

    def _push(self, row: np.ndarray) -> None:
        """:meth:`push` without the finiteness check."""
        # Slot ``head`` holds the oldest row, whose pivot leaves the window.
        head = (self._head or self.length) - 1
        window, diag, newest, slots = self._heads[head]
        slots[:] = row
        # A NaN pivot is not below MIN_PIVOT, so it counts as normal.
        self._normal_rows = 0 if float(row[0]) < MIN_PIVOT else self._normal_rows + 1
        self._head = head
        self._window, self._diag, self.newest = window, diag, newest
        self.pivots_normal = self._normal_rows >= self.length

    def diagonal(self) -> np.ndarray:
        """Read-only view of the diagonal of ``R``: entry 0 of each row in the window."""
        return self._diag

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``R`` as a new array."""
        return self._window.take(self._offset_rows[j])

    def dense(self) -> np.ndarray:
        """``R`` as a new dense ``(length, length)`` array, in O(length^2)."""
        return self._window.take(self._offsets)


def _check_system(
    r_matrix: np.ndarray | ShiftMatrix, rhs: np.ndarray
) -> tuple[np.ndarray | ShiftMatrix, np.ndarray]:
    """The checks of :func:`dcd_solve`, which says what they cover; returns
    ``r_matrix`` and ``rhs`` as float arrays, a :class:`ShiftMatrix` as it
    is.  One body checks both: a ring's rows were checked finite when
    pushed, so only a dense ``r_matrix`` is scanned, and a ring's cached
    pivot check stands in for the diagonal scan while it holds.  A ring
    written through ``_push`` relies on its caller's own check of the rows.
    A ``dcd_ase`` step, which builds ``rhs`` and holds ``R`` as float
    arrays, runs only :func:`_check_rhs`, the shape and finiteness checks:
    its hold test stands in for the diagonal check."""
    ring = isinstance(r_matrix, ShiftMatrix)
    if ring:
        n = r_matrix.length
    else:
        r_matrix = check_square("r_matrix", r_matrix)
        n = r_matrix.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    _check_rhs(rhs, n, None if ring else r_matrix)
    if not (ring and r_matrix.pivots_normal) and (r_matrix.diagonal() <= 0.0).any():
        raise ValueError("r_matrix must have strictly positive diagonal entries")
    return r_matrix, rhs


def _check_rhs(rhs: np.ndarray, n: int, dense: np.ndarray | None = None) -> None:
    """Raise :class:`ValueError` unless the float array ``rhs`` is a vector
    of length ``n`` and finite, and so is ``dense``, a dense float
    ``r_matrix``, when given."""
    if rhs.shape != (n,):
        raise ValueError(f"rhs must be a vector of length {n}, got shape {rhs.shape}")
    if not (all_finite(rhs) and (dense is None or all_finite(dense))):
        raise ValueError("r_matrix and rhs must be finite")


def dcd_solve(
    r_matrix: np.ndarray | ShiftMatrix,
    rhs: np.ndarray,
    params: DcdParams,
    *,
    ops: OpCounter | None = None,
) -> DcdSolveResult:
    """Run one budgeted leading-element DCD solve of ``r_matrix @ x = rhs``
    from ``x = 0``.

    The leading element is the residual entry of largest magnitude (lowest
    index on ties).  A coordinate update is accepted once the leading
    residual exceeds half the current step times the matching diagonal
    entry; until then the step is halved.  Both the step size and the
    halving count persist across updates within the call.

    The steps are read from the halving ladder that :class:`DcdParams`
    builds (``h / 2``, then repeated ``m *= 0.5``), so every threshold
    ``0.5 * m * pivot`` is the float a halving loop would compare against.
    For a fixed pivot the thresholds only shrink down the ladder, so each
    scan first compares the leading residual with the finest one: at or
    below it, no depth can pass and the bits are exhausted, which stops
    the solve.  A solve whose first scan exhausts the bits therefore
    returns after that one O(length) scan and one comparison, with a zero
    increment and the residual equal to ``rhs``.  Otherwise the scan moves
    straight down the ladder to the first depth that passes, with no
    exhaustion test on the way.

    ``r_matrix`` is a dense symmetric matrix, validated in O(length^2), or
    a :class:`ShiftMatrix`, read in O(length) per column and validated in
    O(length) for ``rhs`` only: its rows were checked finite when pushed,
    and its cached pivot check stands in for a scan of the diagonal.
    Either way one check, with one message per condition, requires ``rhs``
    to be a finite vector of matching length and the diagonal to be
    strictly positive; every finiteness test is
    :func:`~asefilt._checks.all_finite`, exact and free of numpy warnings.
    ``dcd_ase_step`` runs only the ``rhs`` half of this check,
    :func:`_check_rhs`, on the system it built itself (see
    :func:`~asefilt.filters.dcd_ase_step`).  ``rhs`` is not modified.  With
    ``ops`` the solve is priced into it by
    :func:`~asefilt.counting.solve_ops`.
    """
    r_matrix, rhs = _check_system(r_matrix, rhs)
    delta_w, residual = np.zeros(rhs.shape[0]), rhs.copy()
    updates, halvings = _dcd_solve(r_matrix, residual, params, delta_w)
    if ops is not None:
        ops.add(*solve_ops(rhs.shape[0], params.m_bits, updates, halvings))
    return DcdSolveResult(delta_w, residual, updates, halvings == params.m_bits)


def _dcd_solve(
    r_matrix: np.ndarray | ShiftMatrix, rhs: np.ndarray, params: DcdParams, w: np.ndarray,
    lead: int | None = None,
) -> tuple[int, int]:
    """:func:`dcd_solve` warm-started at ``w``, in place and without the
    checks, for a float ``r_matrix`` and ``rhs`` and ``w`` of matching
    shape.  ``rhs`` becomes the residual and each moved coordinate's
    accumulated increment is added into ``w`` once, at the end, so
    ``w[i] + increment`` is the same float as ``w + delta_w``.  ``lead``,
    when given, is the leading element of ``rhs`` (``np.abs(rhs).argmax()``,
    the lowest index on ties) as a caller's own scan of ``rhs`` found it:
    the first update starts from it instead of scanning again, and every
    later update scans the residual.  Returns what the solve decided,
    ``(updates_used, halvings)``: ``halvings`` is the depth the solve ended
    at, or ``m_bits`` exactly when the bits ran out, since a solve that
    uses up its budget ends at a depth below ``m_bits``.  It counts
    nothing: :mod:`~asefilt.counting` prices the pair."""
    if isinstance(r_matrix, ShiftMatrix):
        diag, column = r_matrix.diagonal(), r_matrix.column
    else:
        diag, column = r_matrix.diagonal(), r_matrix.T.__getitem__  # r.T[j] is r[:, j]

    residual = rhs
    steps = params._ladder
    finest = 0.5 * steps[-1]
    depth = 0
    increments: dict[int, float] = {}
    updates = 0
    if lead is None:
        lead = int(np.abs(residual).argmax())
    while True:
        value = float(residual[lead])
        lead_mag = abs(value)
        pivot = float(diag[lead])
        if lead_mag <= finest * pivot:
            depth = params.m_bits
            break
        while lead_mag <= 0.5 * steps[depth] * pivot:
            depth += 1
        m = steps[depth]
        step = m if value >= 0.0 else -m
        increments[lead] = increments.get(lead, 0.0) + step
        residual -= step * column(lead)
        updates += 1
        if updates == params.n_updates:
            break
        lead = int(np.abs(residual).argmax())
    for lead, increment in increments.items():
        w[lead] += increment
    return updates, depth

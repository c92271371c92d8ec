"""Test-only reference implementations that the library is checked against.

* :func:`dcd_solve_reference` -- the plain leading-element DCD loop on a
  dense ``R``, with numpy scalars throughout and no early return; the
  library's ``dcd_solve`` must match it bit for bit.
* :func:`dcd_solve_shift_add` -- an integer shadow of ``dcd_solve`` using
  only shifts, adds and compares.
* :func:`dense_shift_step` -- the shift-mode ``dcd_ase_step`` computed on a
  dense ``R`` whose interior block is copied down-right every sample,
  i.e. the O(length^2) memory-traffic form of the ring-of-rows update.
* :func:`separate_vss_step` -- the inversion-free step (``iwf``,
  ``iwf_ase``, ``rmcc``) with ``R`` and ``theta`` as two separate arrays,
  decayed and updated one at a time with ``np.outer``; the library's one
  statistics array must match it bit for bit.
* :func:`run_public_steps` -- one algorithm stepped through a run with the
  public, checked step functions, one sample at a time, with the squared
  weight deviation ``diff @ diff`` after every step; the Monte Carlo
  driver's trusted cores and per-block deviation must match it bit for bit.
* :func:`sysid_nmsd_reference` -- ``run_sysid``'s NMSD curves accumulated
  from :func:`run_public_steps`, one sample at a time.
* :func:`csv_text_reference` -- the CSV text of ``write_csv``, formatted one
  cell at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from asefilt import (
    AseParams,
    DcdParams,
    DcdSolveResult,
    FilterConfig,
    OpCounter,
    ase_weight,
    dcd_ase_step,
    dcd_solve,
    filter_init,
    iwf_ase_step,
    iwf_step,
    rmcc_step,
)
from asefilt.filters import VSS_GUARD
from asefilt.signals import gen_background, gen_bg_noise, regressors


def dcd_solve_reference(
    r_matrix: np.ndarray, rhs: np.ndarray, params: DcdParams, *, ops: OpCounter | None = None
) -> DcdSolveResult:
    """Reference budgeted leading-element DCD solve of a dense, valid system."""
    r_dense = np.asarray(r_matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    diag = r_dense.diagonal()
    n = rhs.shape[0]
    delta_w = np.zeros(n)
    residual = rhs.copy()
    m = params.h / 2.0
    q = 1
    updates = 0
    exhausted = False
    while updates < params.n_updates:
        lead = int(np.abs(residual).argmax())
        lead_mag = abs(residual[lead])
        while lead_mag <= 0.5 * m * diag[lead]:
            q += 1
            if q > params.m_bits:
                exhausted = True
                break
            m *= 0.5
        if exhausted:
            break
        step = m if residual[lead] >= 0.0 else -m
        delta_w[lead] += step
        residual -= step * r_dense[:, lead]
        updates += 1
    if ops is not None:
        halvings = q - 1
        ops.add(
            (n + 1) * updates,
            1 + 2 * halvings - exhausted + (n + 1) * updates,
            n * (updates + exhausted) + updates + 2 * halvings,
        )
    return DcdSolveResult(
        delta_w=delta_w, residual_out=residual, updates_used=updates, exhausted_bits=exhausted
    )


def dcd_solve_shift_add(
    r_matrix: np.ndarray,
    rhs: np.ndarray,
    h_exp: int,
    m_bits: int,
    n_updates: int,
) -> tuple[list[int], list[int], int, bool]:
    """Integer shadow of :func:`dcd_solve` using only shifts, adds and compares.

    ``r_matrix`` and ``rhs`` must hold integer values, and the step range is
    ``h = 2**h_exp`` with ``m_bits >= h_exp >= 0``.  Returns
    ``(delta_w_units, residual_units, updates_used, exhausted_bits)`` where
    both vectors are expressed in units of ``2**(h_exp - m_bits)``; scaling
    them by that power of two reproduces the float solver bit for bit on
    inputs small enough to be exact in doubles.
    """
    r_int = [[int(v) for v in row] for row in np.asarray(r_matrix).tolist()]
    n = len(r_int)
    if not (isinstance(h_exp, int) and 0 <= h_exp <= m_bits):
        raise ValueError("h_exp must be an integer with 0 <= h_exp <= m_bits")
    for i in range(n):
        if r_int[i][i] <= 0:
            raise ValueError("r_matrix must have strictly positive diagonal entries")
    # Residual carried at scale 2**(m_bits - h_exp) so every update is integral.
    residual = [int(v) << (m_bits - h_exp) for v in np.asarray(rhs).tolist()]
    delta_units = [0] * n
    q = 1
    updates = 0
    exhausted = False

    while updates < n_updates:
        lead = 0
        lead_mag = abs(residual[0])
        for j in range(1, n):
            if abs(residual[j]) > lead_mag:
                lead = j
                lead_mag = abs(residual[j])
        while (lead_mag << 1) <= (r_int[lead][lead] << (m_bits - q)):
            q += 1
            if q > m_bits:
                exhausted = True
                break
        if exhausted:
            break
        sign = 1 if residual[lead] >= 0 else -1
        delta_units[lead] += sign << (m_bits - q)
        shift = m_bits - q
        for j in range(n):
            residual[j] -= sign * (r_int[j][lead] << shift)
        updates += 1
    return delta_units, residual, updates, exhausted


@dataclass
class DenseShiftState:
    w: np.ndarray
    r_matrix: np.ndarray
    residual: np.ndarray
    delta_prev: float
    step_index: int = 0


def dense_shift_init(config: FilterConfig) -> DenseShiftState:
    lam, rho = config.lam, config.rho
    return DenseShiftState(
        w=np.zeros(config.length),
        r_matrix=np.eye(config.length) * rho,
        residual=np.zeros(config.length),
        delta_prev=lam * rho if config.delta_schedule == "decaying" else rho,
    )


def dense_shift_step(state: DenseShiftState, config: FilterConfig, x: np.ndarray, d: float) -> float:
    """One shift-mode ``dcd_ase_step`` on a dense ``R``; returns the prior error."""
    e = d - float(state.w @ x)
    gate_open = abs(e) <= config.ase.cutoff
    phi = ase_weight(e, config.ase) if gate_open else 0.0
    lam = config.lam
    delta_n = lam * state.delta_prev if config.delta_schedule == "decaying" else config.rho
    correction = delta_n - lam * state.delta_prev

    r = state.r_matrix
    r[1:, 1:] = r[:-1, :-1].copy()
    row0 = lam * r[0, :] + x[0] * x
    r[0, :] = row0
    r[:, 0] = row0
    if correction != 0.0:
        r[0, 0] += correction

    rhs = lam * state.residual
    if gate_open and phi != 0.0:
        rhs += (phi * e) * x
    if correction != 0.0:
        rhs[0] -= correction * state.w[0]

    if state.step_index < config.length - 1:
        state.residual = rhs
    else:
        result = dcd_solve(r, rhs, config.dcd)
        state.w += result.delta_w
        state.residual = result.residual_out
    state.delta_prev = delta_n
    state.step_index += 1
    return e


@dataclass
class SeparateState:
    w: np.ndarray
    r_matrix: np.ndarray
    theta: np.ndarray
    step_index: int = 0


def separate_vss_step(state: SeparateState, config: FilterConfig, x: np.ndarray, d: float, weighting):
    """One inversion-free step on separate ``R`` and ``theta`` arrays; returns
    the prior error and whether the sample was applied.

    ``weighting`` is None (``iwf``), an ``AseParams`` (``iwf_ase``) or a
    Gaussian kernel width (``rmcc``)."""
    e = d - float(state.w @ x)
    if weighting is None:
        applied, phi = True, 1.0
    elif isinstance(weighting, AseParams):
        applied = abs(e) <= weighting.cutoff
        phi = ase_weight(e, weighting) if applied else 0.0
    else:
        applied, phi = True, math.exp(-(e * e) / (2.0 * weighting * weighting))
    lam = config.lam
    state.r_matrix *= lam
    state.theta *= lam
    if applied and phi != 0.0:
        state.r_matrix += np.outer(phi * x, x)
        state.theta += (phi * d) * x
    r = state.theta - state.r_matrix @ state.w
    if state.step_index >= config.length - 1:
        rr = float(r @ r)
        den = float(r @ (state.r_matrix @ r)) + VSS_GUARD
        state.w += (rr / den) * r
    state.step_index += 1
    return e, applied


def run_public_steps(spec, x_rows, d, kernel_sigma: float, w_o=None, ops: OpCounter | None = None):
    """Step ``spec`` (an ``AlgoSpec``) from a fresh state through every row.

    Returns the final state, the prior errors, the applied flags and, with
    ``w_o``, the squared weight deviation ``diff @ diff`` after each step.
    """
    cfg = spec.config
    steps = {"iwf": iwf_step, "iwf_ase": iwf_ase_step, "dcd_ase": dcd_ase_step}
    state = filter_init(cfg, ops=ops)
    horizon = len(d)
    err = np.empty(horizon)
    applied = np.empty(horizon, dtype=bool)
    dev = np.empty(horizon)
    for t in range(horizon):
        if spec.kind == "rmcc":
            state, out = rmcc_step(state, cfg, x_rows[t], d[t], kernel_sigma)
        else:
            state, out = steps[spec.kind](state, cfg, x_rows[t], d[t])
        err[t] = out.prior_error
        applied[t] = out.applied
        if w_o is not None:
            diff = state.w - w_o
            dev[t] = diff @ diff
    return state, err, applied, dev


def sysid_nmsd_reference(scenario, algorithms) -> list[np.ndarray]:
    """``run_sysid``'s NMSD curve of each algorithm, in dB, from per-sample deviations."""
    w_o = scenario.system_taps
    length, horizon = w_o.shape[0], scenario.horizon
    power = float(w_o @ w_o)
    bg_std = math.sqrt(power * 10.0 ** (-scenario.snr_db / 10.0))
    dev_sum = [np.zeros(horizon) for _ in algorithms]
    for run in range(scenario.mc_runs):
        base = scenario.seed ^ run
        x_rows = regressors(np.random.default_rng([base, 1]).standard_normal(horizon), length)
        d = x_rows @ w_o
        d += gen_background(horizon, scenario.snr_db, power, [base, 2])
        if scenario.impulses is not None:
            d += gen_bg_noise(horizon, scenario.impulses, [base, 3])
        for idx, spec in enumerate(algorithms):
            sigma = spec.kernel_sigma
            if sigma is None:
                sigma = 10.0 * bg_std if bg_std > 0.0 else 10.0
            dev_sum[idx] += run_public_steps(spec, x_rows, d, sigma, w_o)[3]
    return [
        10.0 * np.log10(np.maximum(dev / (scenario.mc_runs * power), 1e-40)) for dev in dev_sum
    ]


def csv_text_reference(header: list[str], rows, fmt: str) -> str:
    """CSV text with integer and string cells as they are, every other cell
    as a float formatted by ``fmt``, one cell at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else format(float(c), fmt) for c in row))
    return "\n".join(lines) + "\n"

"""Filter step tests.

Beyond wiring checks, the load-bearing tests here are the brute-force
statistics oracles (exponentially weighted sums recomputed from scratch)
and the residual invariants of the coordinate-descent variant: in both
correlation-update modes the maintained right-hand side must equal
``theta_implied - R w`` with the implied cross-statistics rebuilt
independently from the step outputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asefilt import (
    ALGORITHMS,
    AseParams,
    DcdParams,
    FilterConfig,
    FilterError,
    FilterState,
    NoStepsError,
    OpCounter,
    ase_weight,
    correlation_update,
    dcd_ase_step,
    default_algorithms,
    filter_init,
    filters,
    iwf_ase_step,
    iwf_step,
    nmsd,
    rmcc_step,
    update_ratio,
)
from asefilt.counting import solve_ops
from asefilt.dcd import ShiftMatrix
from asefilt.signals import BgNoiseSpec, gen_bg_noise, regressors

from oracles import (
    SeparateState,
    dense_dcd_init,
    dense_dcd_step,
    dense_shift_step,
    run_public_steps,
    separate_vss_step,
)


def cfg_for(length=4, lam=0.95, rho=0.1, c=2.0, **kw):
    return FilterConfig(length=length, lam=lam, rho=rho, ase=AseParams(c), **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for(length=0)
    with pytest.raises(ValueError):
        cfg_for(lam=1.0)
    with pytest.raises(ValueError):
        cfg_for(lam=0.0)
    with pytest.raises(ValueError):
        cfg_for(rho=0.0)
    with pytest.raises(ValueError):
        cfg_for(delta_schedule="linear")
    with pytest.raises(ValueError):
        cfg_for(dcd_update="sparse")
    with pytest.raises(ValueError):
        FilterConfig(length=3, lam=0.9, rho=0.1, ase="not params")


def test_filter_init_shapes_and_leakage_seed():
    """Both leakage schedules start from ``rho I``.  A silent dense-mode
    coordinate-descent step then decays it to ``lam rho I`` under
    ``"decaying"`` and tops it back up to ``rho I`` under ``"constant"``."""
    for schedule in ("decaying", "constant"):
        cfg = cfg_for(length=3, rho=0.25, dcd=DcdParams(), dcd_update="dense", delta_schedule=schedule)
        st = filter_init(cfg)
        assert np.array_equal(st.w, np.zeros(3))
        assert np.array_equal(st.r_matrix, 0.25 * np.eye(3))
        assert np.array_equal(st.theta, np.zeros(3))
        assert np.array_equal(st.residual, np.zeros(3))
        dcd_ase_step(st, cfg, np.zeros(3), 0.0)
        leak = cfg.lam * 0.25 if schedule == "decaying" else 0.25
        assert np.allclose(st.r_matrix, leak * np.eye(3), rtol=1e-15, atol=0)
        assert np.array_equal(st.residual, np.zeros(3))


def test_correlation_update_hand_values():
    cfg = cfg_for(length=1, lam=0.9, rho=0.5)
    st = filter_init(cfg)
    correlation_update(st, cfg, np.array([2.0]), 3.0, 1.0)
    assert st.r_matrix[0, 0] == pytest.approx(0.9 * 0.5 + 4.0)
    assert st.theta[0] == pytest.approx(6.0)


def test_correlation_update_brute_force_oracle():
    rng = np.random.default_rng(11)
    cfg = cfg_for(length=3, lam=0.95, rho=0.3)
    st = filter_init(cfg)
    xs = rng.standard_normal((40, 3))
    ds = rng.standard_normal(40)
    phis = rng.random(40)
    for x, d, phi in zip(xs, ds, phis):
        correlation_update(st, cfg, x, d, phi)
    n = 40
    r_ref = 0.3 * np.eye(3) * 0.95**n
    th_ref = np.zeros(3)
    for k in range(n):
        w = 0.95 ** (n - 1 - k) * phis[k]
        r_ref += w * np.outer(xs[k], xs[k])
        th_ref += w * ds[k] * xs[k]
    assert np.allclose(st.r_matrix, r_ref, atol=1e-10)
    assert np.allclose(st.theta, th_ref, atol=1e-10)
    assert np.allclose(st.r_matrix, st.r_matrix.T, atol=0)


def _mixed_vss_steps(st, ref, cfg, rng, steps):
    """Step ``st`` through a random mix of the three inversion-free public
    steps and ``ref`` through the separate-array oracle, comparing R, theta
    and the weights bit for bit after every step."""
    sigma = 1.5
    kinds = {
        "iwf": (lambda s, x, d: iwf_step(s, cfg, x, d), None),
        "iwf_ase": (lambda s, x, d: iwf_ase_step(s, cfg, x, d), cfg.ase),
        "rmcc": (lambda s, x, d: rmcc_step(s, cfg, x, d, sigma), sigma),
    }
    applied = set()
    for _ in range(steps):
        kind = ("iwf", "iwf_ase", "iwf_ase", "rmcc")[rng.integers(4)]
        step, weighting = kinds[kind]
        x = rng.standard_normal(cfg.length)
        d = rng.standard_normal() + (50.0 * rng.standard_normal() if rng.random() < 0.3 else 0.0)
        st, out = step(st, x, d)
        e, ref_applied = separate_vss_step(ref, cfg, x, d, weighting)
        assert (out.prior_error, out.applied) == (e, ref_applied)
        applied.add((kind, out.applied))
        assert np.array_equal(st.r_matrix, ref.r_matrix)
        assert np.array_equal(st.theta, ref.theta)
        assert np.array_equal(st.w, ref.w)
    return applied


def test_statistics_array_matches_separate_arrays():
    """R and theta held as one statistics array step exactly like two
    separate arrays: through mixed iwf, iwf_ase (gated and applied) and
    rmcc steps, and from a state built directly."""
    rng = np.random.default_rng(21)
    cfg = cfg_for(length=5, lam=0.97, rho=0.3, c=1.0)
    st = filter_init(cfg)
    ref = SeparateState(w=np.zeros(5), r_matrix=0.3 * np.eye(5), theta=np.zeros(5))
    seen = _mixed_vss_steps(st, ref, cfg, rng, 120)
    assert {("iwf_ase", True), ("iwf_ase", False), ("iwf", True), ("rmcc", True)} <= seen

    a = rng.standard_normal((5, 5))
    r0 = a.T @ a + 2.0 * np.eye(5)
    th0 = rng.standard_normal(5)
    w0 = rng.standard_normal(5)
    built = FilterState(
        w=w0.copy(), stats=np.vstack([r0, th0]), residual=np.zeros(5), step_index=7
    )
    assert np.array_equal(built.r_matrix, r0) and np.array_equal(built.theta, th0)
    ref = SeparateState(w=w0.copy(), r_matrix=r0.copy(), theta=th0.copy(), step_index=7)
    _mixed_vss_steps(built, ref, cfg, rng, 60)
    assert np.array_equal(r0, a.T @ a + 2.0 * np.eye(5))  # stats is a copy of r0


def test_correlation_update_rejects_bad_phi():
    cfg = cfg_for(length=2)
    st = filter_init(cfg)
    with pytest.raises(ValueError):
        correlation_update(st, cfg, np.zeros(2), 0.0, -0.5)
    with pytest.raises(ValueError):
        correlation_update(st, cfg, np.zeros(2), 0.0, float("nan"))


def test_step_rejects_bad_samples():
    cfg = cfg_for(length=2)
    st = filter_init(cfg)
    with pytest.raises(ValueError):
        iwf_step(st, cfg, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        iwf_step(st, cfg, np.array([1.0, np.inf]), 0.0)
    with pytest.raises(ValueError):
        iwf_step(st, cfg, np.zeros(2), float("nan"))


def _huge_step(kind, dcd_update):
    cfg = default_algorithms(3, (kind,), dcd_update=dcd_update)[0].config
    st = filter_init(cfg)
    if kind == "rmcc":
        st.w[:] = np.nan  # a state gone non-finite gives a NaN weight
        return lambda: rmcc_step(st, cfg, np.ones(3), 0.5, 1.0)
    x = np.full(3, 1e160)  # x x^T overflows
    return lambda: [dcd_ase_step(st, cfg, x, 0.1) for _ in range(3)]


@pytest.mark.parametrize(
    "kind, dcd_update, message",
    [
        ("dcd_ase", "shift", "r_matrix rows must be finite"),
        ("dcd_ase", "dense", "r_matrix and rhs must be finite"),
        ("rmcc", "shift", "phi must be finite and nonnegative"),
    ],
)
def test_public_steps_keep_their_inner_checks(kind, dcd_update, message):
    """A public step still checks the ring row it pushes, the system it
    solves and the weight phi it folds in, which the trusted cores leave
    to the Monte Carlo driver's block check."""
    step = _huge_step(kind, dcd_update)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            step()


@pytest.mark.parametrize("step", [iwf_step, iwf_ase_step])
def test_public_vss_steps_stop_before_nan_weights(step):
    """x x^T overflows R at once and the residual is NaN from the first
    step; the first move, once the delay line has filled, would make the
    weights NaN.  The public step raises instead and leaves them as they
    were."""
    cfg = cfg_for(length=3)
    st = filter_init(cfg)
    x = np.full(3, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            step(st, cfg, x, 0.1)
        with pytest.raises(ValueError, match="the weight step size must be finite, got nan"):
            step(st, cfg, x, 0.1)
    assert np.array_equal(st.w, np.zeros(3))


def test_iwf_ase_step_decomposes():
    """A step must equal prior error -> weighted stats -> residual move."""
    rng = np.random.default_rng(3)
    cfg = cfg_for(length=4, lam=0.9, rho=0.2, c=2.0)
    st = filter_init(cfg)
    for step in range(25):
        x = rng.standard_normal(4)
        d = rng.standard_normal()
        w_prev = st.w.copy()
        r_prev = st.r_matrix.copy()
        th_prev = st.theta.copy()
        st, out = iwf_ase_step(st, cfg, x, d)
        e = d - float(w_prev @ x)
        assert out.prior_error == pytest.approx(e, abs=1e-12)
        gate = abs(e) <= cfg.ase.cutoff
        assert out.applied is gate
        phi = ase_weight(e, cfg.ase) if gate else 0.0
        r_ref = 0.9 * r_prev + phi * np.outer(x, x)
        th_ref = 0.9 * th_prev + phi * d * x
        assert np.allclose(st.r_matrix, r_ref, atol=1e-12)
        assert np.allclose(st.theta, th_ref, atol=1e-12)
        resid = th_ref - r_ref @ w_prev
        if step < cfg.length - 1:
            w_ref = w_prev  # weights rest while the delay line fills
        else:
            denom = float(resid @ r_ref @ resid) + filters.VSS_GUARD
            w_ref = w_prev + (float(resid @ resid) / denom) * resid
        assert np.allclose(st.w, w_ref, atol=1e-12)
        assert np.allclose(st.residual, resid, atol=1e-12)


def test_iwf_ase_gate_leaves_decayed_stats():
    cfg = cfg_for(length=2, lam=0.9, c=1.0)
    st = filter_init(cfg)
    st, _ = iwf_ase_step(st, cfg, np.array([1.0, 0.5]), 0.1)
    r_prev = st.r_matrix.copy()
    th_prev = st.theta.copy()
    st, out = iwf_ase_step(st, cfg, np.array([0.3, -0.2]), 1e6)
    assert not out.applied
    assert np.allclose(st.r_matrix, 0.9 * r_prev, atol=0)
    assert np.allclose(st.theta, 0.9 * th_prev, atol=0)


def test_zero_error_step_is_finite():
    cfg = cfg_for(length=2)
    st = filter_init(cfg)
    st, out = iwf_ase_step(st, cfg, np.array([1.0, 2.0]), 0.0)
    assert out.prior_error == 0.0
    assert out.applied
    assert np.all(np.isfinite(st.w))


def test_update_counters_and_ratio():
    cfg = cfg_for(length=2, c=1.0)
    st = filter_init(cfg)
    with pytest.raises(NoStepsError):
        update_ratio(st)
    iwf_ase_step(st, cfg, np.array([1.0, 0.0]), 0.5)
    iwf_ase_step(st, cfg, np.array([1.0, 0.0]), 1e9)
    assert st.step_index == 2
    assert st.updates_applied == 1
    assert update_ratio(st) == 0.5


def test_iwf_matches_wide_cutoff_variant():
    """With a very wide cutoff the robust weighting becomes a (nearly)
    constant scale on the statistics, which the step-size normalization
    cancels, so the weight trajectories coincide."""
    rng = np.random.default_rng(8)
    cfg_plain = cfg_for(length=3, lam=0.95, rho=1e-6)
    # tiny zeta keeps the weighting effectively constant across samples so
    # the scale really does cancel
    cfg_wide = FilterConfig(
        length=3, lam=0.95, rho=1e-6, ase=AseParams(100.0, zeta=1e-12)
    )
    sa = filter_init(cfg_plain)
    sb = filter_init(cfg_wide)
    w_o = np.array([0.5, -1.0, 0.25])
    for _ in range(300):
        x = rng.standard_normal(3)
        d = float(w_o @ x) + 0.01 * rng.standard_normal()
        sa, _ = iwf_step(sa, cfg_plain, x, d)
        sb, _ = iwf_ase_step(sb, cfg_wide, x, d)
    # the unscaled leakage and step-size guard perturb the trajectories at
    # the 1e-3 level, so agreement is to first order, not bitwise
    assert np.allclose(sa.w, sb.w, atol=0.01)
    assert np.allclose(sa.w, w_o, atol=0.05)
    assert np.allclose(sb.w, w_o, atol=0.05)


def test_rmcc_weighting_factor():
    cfg = cfg_for(length=2, lam=0.9)
    st = filter_init(cfg)
    x = np.array([1.0, -1.0])
    d = 2.0
    r_prev = st.r_matrix.copy()
    st, out = rmcc_step(st, cfg, x, d, kernel_sigma=1.5)
    phi = math.exp(-(out.prior_error**2) / (2 * 1.5**2))
    assert np.allclose(st.r_matrix, 0.9 * r_prev + phi * np.outer(x, x), atol=1e-14)
    assert out.applied
    with pytest.raises(ValueError):
        rmcc_step(st, cfg, x, d, kernel_sigma=0.0)


def test_rmcc_rejects_a_width_whose_square_underflows():
    """At sigma = 1e-300 the weight's denominator 2 sigma^2 is 0; the step
    raises ValueError instead of dividing by zero, and leaves the state.
    A width whose 2 sigma^2 is subnormal still steps, with weight 0."""
    cfg = cfg_for(length=2)
    st = filter_init(cfg)
    with pytest.raises(ValueError, match="underflows to 0"):
        rmcc_step(st, cfg, np.ones(2), 0.5, kernel_sigma=1e-300)
    assert st.step_index == 0 and st.updates_applied == 0
    st, out = rmcc_step(st, cfg, np.ones(2), 0.5, kernel_sigma=1e-160)
    assert out.applied and np.array_equal(st.r_matrix, cfg.lam * cfg.rho * np.eye(2))


# ---------------------------------------------------------------------
# coordinate-descent variant


def test_dcd_requires_solver_params():
    cfg = cfg_for(length=2)
    st = filter_init(cfg)
    with pytest.raises(FilterError):
        dcd_ase_step(st, cfg, np.zeros(2), 0.0)


def _run_dcd(cfg, horizon, seed=5, impulse_every=7):
    """Drive dcd_ase_step on a tapped-delay-line stream; returns state plus
    the per-step (x, d, e, applied) log for rebuilding oracles."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(horizon)
    xs = regressors(u, cfg.length)
    w_o = rng.standard_normal(cfg.length)
    st = filter_init(cfg)
    log = []
    for t in range(horizon):
        d = float(w_o @ xs[t]) + 0.05 * rng.standard_normal()
        if impulse_every and t % impulse_every == impulse_every - 1:
            d += 500.0
        st, out = dcd_ase_step(st, cfg, xs[t], d)
        log.append((xs[t], d, out.prior_error, out.applied))
    return st, log


def test_dcd_shift_matrix_follows_unweighted_recursion():
    """Shift mode: R must satisfy R(n) = lam R(n-1) + x x^T entry-exactly
    (the rank-one term never gated), up to the initial leakage mass."""
    cfg = cfg_for(length=4, lam=0.9, rho=1e-30, c=2.0, dcd=DcdParams(2.0, 8, 8))
    st, log = _run_dcd(cfg, 60)
    r_ref = np.zeros((4, 4))
    for x, _, _, _ in log:
        r_ref = 0.9 * r_ref + np.outer(x, x)
    assert np.allclose(st.r_matrix, r_ref, atol=1e-10)


def test_dcd_shift_residual_invariant():
    """The maintained right-hand side equals theta_implied - R w, where the
    implied cross-statistics use the error-censored desired signal
    d - (1 - phi) e."""
    cfg = cfg_for(length=4, lam=0.9, rho=1e-30, c=2.0, dcd=DcdParams(2.0, 8, 16))
    st, log = _run_dcd(cfg, 80)
    th_ref = np.zeros(4)
    for x, d, e, applied in log:
        phi = ase_weight(e, cfg.ase) if applied else 0.0
        d_cens = d - (1.0 - phi) * e
        th_ref = 0.9 * th_ref + d_cens * x
    expected = th_ref - st.r_matrix @ st.w
    assert np.allclose(st.residual, expected, atol=1e-9)


def test_dcd_dense_residual_invariant():
    """Dense mode: same invariant with the sample-weighted statistics."""
    cfg = cfg_for(
        length=4, lam=0.9, rho=1e-30, c=2.0, dcd=DcdParams(2.0, 8, 16), dcd_update="dense"
    )
    st, log = _run_dcd(cfg, 80)
    r_ref = np.zeros((4, 4))
    th_ref = np.zeros(4)
    for x, d, e, applied in log:
        phi = ase_weight(e, cfg.ase) if applied else 0.0
        r_ref = 0.9 * r_ref + phi * np.outer(x, x)
        th_ref = 0.9 * th_ref + phi * d * x
    assert np.allclose(st.r_matrix, r_ref, atol=1e-10)
    expected = th_ref - r_ref @ st.w
    assert np.allclose(st.residual, expected, atol=1e-9)


def _dense_solver(solve):
    """A stand-in for ``filters._dcd_solve`` that hands ``solve(r, rhs) ->
    (delta_w, residual_out)`` the dense R, writes the outcome into the
    step's ``rhs`` and ``w`` as the solver does and reports one update at
    depth 0, ``(updates, halvings) = (1, 0)``."""

    def fake_solve(r, rhs, params, w):
        dense = r.dense() if isinstance(r, ShiftMatrix) else r
        delta_w, residual_out = solve(dense, rhs)
        w += delta_w
        rhs[:] = residual_out
        return 1, 0

    return fake_solve


def test_dcd_gated_step_passes_decayed_rhs_only(monkeypatch):
    captured = []

    def spy_solve(r, z):
        captured.append(z.copy())
        return np.zeros(r.shape[0]), z

    monkeypatch.setattr(filters, "_dcd_solve", _dense_solver(spy_solve))
    cfg = cfg_for(length=2, lam=0.8, rho=1e-12, c=0.5, dcd=DcdParams())
    st = filter_init(cfg)
    st, out1 = dcd_ase_step(st, cfg, np.array([1.0, 0.0]), 0.3)
    prev = st.residual.copy()
    st, out2 = dcd_ase_step(st, cfg, np.array([0.5, 1.0]), 1e7)
    assert out2.applied is False
    assert np.allclose(captured[-1], 0.8 * prev, atol=0)


def test_dcd_fill_in_delay_keeps_weights_zero():
    cfg = cfg_for(length=5, lam=0.9, rho=0.1, c=5.0, dcd=DcdParams(2.0, 8, 8))
    st = filter_init(cfg)
    rng = np.random.default_rng(1)
    w_o = rng.standard_normal(5)
    u = rng.standard_normal(40)
    xs = regressors(u, 5)
    for t in range(40):
        d = float(w_o @ xs[t]) + 0.01 * rng.standard_normal()
        st, _ = dcd_ase_step(st, cfg, xs[t], d)
        if t < 4:
            assert np.array_equal(st.w, np.zeros(5))
    assert np.any(st.w != 0.0)


def test_dcd_exact_solver_zeroes_residual_and_tracks_normal_equations(monkeypatch):
    def exact(r, z):
        dw = np.linalg.solve(r, z)
        return dw, z - r @ dw

    monkeypatch.setattr(filters, "_dcd_solve", _dense_solver(exact))
    cfg = cfg_for(length=3, lam=0.95, rho=1e-12, c=50.0, dcd=DcdParams())
    st, log = _run_dcd(cfg, 120, impulse_every=0)
    assert np.allclose(st.residual, np.zeros(3), atol=1e-10)
    th_ref = np.zeros(3)
    for x, d, e, applied in log:
        phi = ase_weight(e, cfg.ase) if applied else 0.0
        th_ref = 0.95 * th_ref + (d - (1.0 - phi) * e) * x
    assert np.allclose(st.w, np.linalg.solve(st.r_matrix, th_ref), atol=1e-8)


def test_dcd_delta_schedules():
    # decaying schedule: delta(n) = lam^(n+1) rho, correction cancels
    # exactly, so the leading entry keeps only lam^4 rho of the leakage
    cfg = cfg_for(length=2, lam=0.5, rho=0.8, c=1e6, dcd=DcdParams(2.0, 4, 4))
    st = filter_init(cfg)
    for t in range(4):
        dcd_ase_step(st, cfg, np.array([1.0, 0.0]), 0.1)
    assert st.r_matrix[0, 0] == pytest.approx(0.8 * 0.5**4 + sum(0.5**k for k in range(4)), rel=1e-12)

    # constant: delta stays rho; dense mode adds (1-lam) rho to the
    # diagonal every step, keeping the total leakage at rho
    cfgc = cfg_for(
        length=2,
        lam=0.5,
        rho=0.8,
        c=1e6,
        dcd=DcdParams(2.0, 4, 4),
        delta_schedule="constant",
        dcd_update="dense",
    )
    stc = filter_init(cfgc)
    r_ref = 0.8 * np.eye(2)
    rng = np.random.default_rng(0)
    for t in range(6):
        x = rng.standard_normal(2)
        stc, out = dcd_ase_step(stc, cfgc, x, 0.05)
        phi = ase_weight(out.prior_error, cfgc.ase) if out.applied else 0.0
        r_ref = 0.5 * r_ref + phi * np.outer(x, x) + 0.5 * 0.8 * np.eye(2)
    assert np.allclose(stc.r_matrix, r_ref, atol=1e-12)


def test_dcd_constant_schedule_shift_mode_keeps_leading_leakage():
    cfg = cfg_for(
        length=3,
        lam=0.9,
        rho=0.2,
        c=1e6,
        dcd=DcdParams(2.0, 4, 4),
        delta_schedule="constant",
    )
    st, _ = _run_dcd(cfg, 30, impulse_every=0)
    # interior diagonal carries the (undecayed) initial mass forward, and
    # the rebuilt leading entry is topped back up to the same level: the
    # leakage contribution on every diagonal entry stays rho
    u_only = np.zeros_like(st.r_matrix)
    cfg0 = cfg_for(
        length=3, lam=0.9, rho=1e-30, c=1e6, dcd=DcdParams(2.0, 4, 4), delta_schedule="constant"
    )
    st0, _ = _run_dcd(cfg0, 30, impulse_every=0)
    assert np.allclose(st.r_matrix - st0.r_matrix, 0.2 * np.eye(3), atol=1e-6)


def test_dcd_counters_and_output_shape():
    cfg = cfg_for(length=2, lam=0.9, rho=0.1, c=2.0, dcd=DcdParams(2.0, 8, 8))
    st = filter_init(cfg)
    st, out = dcd_ase_step(st, cfg, np.array([0.5, 0.1]), 0.2)
    assert st.step_index == 1 and st.updates_applied == 1
    assert out.prior_error == 0.2 and out.applied
    assert st.w.shape == (2,)


def test_batched_first_scan_keeps_an_exhausted_run_from_the_solve(monkeypatch):
    """In the batched step, a run whose leading residual equals the finest
    threshold exactly ends with the bits exhausted and never reaches the
    solve; a run one ulp above it solves, once, from the lead the batch's
    scan found."""
    cfg = cfg_for(length=2, lam=0.5, rho=1.0, dcd=DcdParams())
    batch = filters._DcdBatch([filter_init(cfg) for _ in range(2)], cfg, cfg.ase)
    # x = 0 and d = 0: rhs = lam * residual, the new row halves the first
    # pivot, and the pivot of coordinate 1 stays rho = 1.
    threshold = 0.5 * cfg.dcd._ladder[-1]
    batch.residual[:, 1] = [threshold, np.nextafter(threshold, np.inf)]
    batch.residual /= cfg.lam
    calls = []
    solve = filters._dcd_solve

    def spy(r_matrix, rhs, params, w, lead=None):
        calls.append((rhs.tolist(), lead))
        return solve(r_matrix, rhs, params, w, lead)

    monkeypatch.setattr(filters, "_dcd_solve", spy)
    _, _, _, moved, updates, halvings = filters._dcd_batch_step(batch, np.zeros((2, 3)), 5)
    assert moved.tolist() == [True, True]
    assert calls == [([0.0, np.nextafter(threshold, np.inf)], 1)]
    assert (updates[0], halvings[0]) == (0, cfg.dcd.m_bits)
    # One update at the finest step leaves the lead below the threshold.
    assert (updates[1], halvings[1]) == (1, cfg.dcd.m_bits)
    assert batch.residual[0].tolist() == [0.0, threshold]


@pytest.mark.parametrize("lead_in", [0, 200])
def test_dcd_silent_input_holds_weights_until_input_resumes(lead_in):
    """Silence decays the shift-mode R diagonal to zero at lam=0.5; the
    solve must then be skipped (a zero pivot accepts every update), not
    rejected, and the filter must converge once input resumes."""
    cfg = default_algorithms(4, ("dcd_ase",), lam=0.5)[0].config
    rng = np.random.default_rng(1)
    w_o = np.array([1.0, -0.5, 0.25, 0.1])
    u = np.zeros(3000)
    u[:lead_in] = rng.standard_normal(lead_in)
    u[2000:] = rng.standard_normal(1000)
    xs = regressors(u, 4)
    st = filter_init(cfg)
    for t in range(3000):
        st, _ = dcd_ase_step(st, cfg, xs[t], float(w_o @ xs[t]))
        if t == 1999:
            assert np.min(np.diag(st.r_matrix)) == 0.0  # the underflow really happened
    assert np.all(np.isfinite(st.w))
    assert nmsd(st.w, w_o) < 0.0


@pytest.mark.parametrize("mode", ["shift", "dense"])
def test_dcd_subnormal_silence_holds_weights_and_recovers(mode):
    """At lam=0.9 a 9000-sample silence decays the R diagonal to the
    subnormal 2.5e-323, not to zero.  At such a pivot every coordinate
    update passes, so the solve must hold the weights while any pivot is
    below the smallest normal float; shift mode must then re-converge
    once input resumes (it stayed near +76 dB when the solve ran)."""
    length = 64
    cfg = default_algorithms(length, ("dcd_ase",), lam=0.9, dcd_update=mode)[0].config
    rng = np.random.default_rng(5)
    w_o = rng.standard_normal(length)
    w_o /= np.linalg.norm(w_o)
    u = np.zeros(13000)
    u[:1000] = rng.standard_normal(1000)
    u[10000:] = rng.standard_normal(3000)
    xs = regressors(u, length)
    d = xs @ w_o + 0.01 * rng.standard_normal(13000)
    st = filter_init(cfg)
    weak_steps = 0
    for t in range(13000):
        w_before = st.w.copy()
        st, _ = dcd_ase_step(st, cfg, xs[t], d[t])
        pivot = np.diag(st.r_matrix).min()
        if t == 9999:
            assert 0.0 < pivot < np.finfo(float).tiny  # the subnormal stretch really happened
        if pivot < np.finfo(float).tiny:
            weak_steps += 1
            assert np.array_equal(st.w, w_before)
    assert weak_steps > 0
    assert np.all(np.isfinite(st.w))
    if mode == "shift":
        assert nmsd(st.w, w_o) < -20.0


def _impulsive_stream(length, horizon, seed):
    rng = np.random.default_rng(seed)
    xs = regressors(rng.standard_normal(horizon), length)
    d = xs @ rng.standard_normal(length) + 0.01 * rng.standard_normal(horizon)
    hits = rng.random(horizon) < 0.1
    d[hits] += 100.0 * rng.standard_normal(int(hits.sum()))
    return xs, d


@pytest.mark.parametrize("schedule", ["decaying", "constant"])
@pytest.mark.parametrize("length", [1, 2, 3, 10, 64])
def test_dcd_shift_ring_matches_dense_reference(length, schedule):
    """The ring of first rows must reproduce the dense shift recursion
    bit for bit: same prior errors, weights, residual and R every step."""
    cfg = default_algorithms(length, ("dcd_ase",), lam=0.99, rho=0.01, delta_schedule=schedule)[0].config
    xs, d = _impulsive_stream(length, 300, seed=length)
    st = filter_init(cfg)
    ref = dense_dcd_init(cfg)
    for t in range(300):
        st, out = dcd_ase_step(st, cfg, xs[t], d[t])
        e_ref = dense_shift_step(ref, cfg, xs[t], d[t])
        assert out.prior_error == e_ref
        assert np.array_equal(st.w, ref.w)
        assert np.array_equal(st.residual, ref.residual)
        assert np.array_equal(st.r_matrix, ref.r_matrix)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    schedule=st.sampled_from(("decaying", "constant")),
    length=st.integers(1, 12),
    horizon=st.integers(1, 200),
    impulse_var=st.sampled_from((0.0, 25.0, 1e4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dcd_dense_matches_literal_leakage_reference(schedule, length, horizon, impulse_var, seed):
    """Dense mode must step bit for bit like the oracle that keeps
    delta(n-1) and recomputes the leakage correction every step: same
    prior errors and gate, weights, residual and R after every step, and
    the same operation counts."""
    cfg = default_algorithms(length, ("dcd_ase",), dcd_update="dense", delta_schedule=schedule)[0].config
    rng = np.random.default_rng(seed)
    xs = regressors(rng.standard_normal(horizon), length)
    d = xs @ rng.standard_normal(length) + 0.1 * rng.standard_normal(horizon)
    d += gen_bg_noise(horizon, BgNoiseSpec(0.1, impulse_var), rng)
    ops, ref_ops = OpCounter(), OpCounter()
    st = filter_init(cfg, ops=ops)
    ref = dense_dcd_init(cfg)
    for t in range(horizon):
        st, out = dcd_ase_step(st, cfg, xs[t], d[t])
        assert (out.prior_error, out.applied) == dense_dcd_step(ref, cfg, xs[t], float(d[t]), ref_ops)
        assert np.array_equal(st.w, ref.w)
        assert np.array_equal(st.residual, ref.residual)
        assert np.array_equal(st.r_matrix, ref.r_matrix)
    assert (ops.adds, ops.mults, ops.comparisons) == (ref_ops.adds, ref_ops.mults, ref_ops.comparisons)


def test_shift_state_r_matrix_is_a_read_only_copy():
    cfg = cfg_for(length=3, dcd=DcdParams())
    st = filter_init(cfg)
    dcd_ase_step(st, cfg, np.array([1.0, 0.5, -0.5]), 0.3)
    r = st.r_matrix
    r[0, 0] = 99.0
    assert st.r_matrix[0, 0] != 99.0
    with pytest.raises(AttributeError):
        st.r_matrix = r
    with pytest.raises(FilterError):
        correlation_update(st, cfg, np.array([1.0, 2.0, 0.0]), 0.5, 0.25)
    assert st.r_matrix[0, 0] != 99.0


_SHIFT_CFG = cfg_for(length=3, dcd=DcdParams())
_DENSE_CFG = cfg_for(length=3, dcd=DcdParams(), dcd_update="dense")


@pytest.mark.parametrize(
    "state_cfg, step",
    [
        (_SHIFT_CFG, lambda st, x: iwf_ase_step(st, _SHIFT_CFG, x, 0.5)),
        (_SHIFT_CFG, lambda st, x: rmcc_step(st, _SHIFT_CFG, x, 0.5, 1.0)),
        (_SHIFT_CFG, lambda st, x: correlation_update(st, _SHIFT_CFG, x, 0.5, 0.25)),
        (_SHIFT_CFG, lambda st, x: dcd_ase_step(st, _DENSE_CFG, x, 0.5)),
        (_DENSE_CFG, lambda st, x: dcd_ase_step(st, _SHIFT_CFG, x, 0.5)),
    ],
    ids=[
        "iwf_ase-on-ring",
        "rmcc-on-ring",
        "correlation_update-on-ring",
        "dcd_dense-on-ring",
        "dcd_shift-on-dense",
    ],
)
def test_step_on_the_other_r_layout_raises(state_cfg, step):
    """filter_init fixes where R lives, a ring for a shift-mode dcd_ase
    config and dense otherwise.  A step whose update needs the other
    layout raises FilterError and leaves the state as it was instead of
    converting R."""
    rng = np.random.default_rng(4)
    st = filter_init(state_cfg)
    for _ in range(5):
        dcd_ase_step(st, state_cfg, rng.standard_normal(3), rng.standard_normal())
    before = [a.copy() for a in (st.w, st.r_matrix, st.theta, st.residual)]
    ring = st.ring
    with pytest.raises(FilterError):
        step(st, rng.standard_normal(3))
    assert st.ring is ring and st.step_index == 5
    for a, b in zip((st.w, st.r_matrix, st.theta, st.residual), before):
        assert np.array_equal(a, b)


def _exact_solve(r, rhs):
    return np.linalg.solve(r, rhs), np.zeros_like(rhs)


@pytest.mark.parametrize(
    "kind, config_kw, step_kw, solver, expected",
    [
        ("iwf", {}, {}, None, (328095, 450625, 0)),
        ("iwf_ase", {}, {}, None, (317302, 440212, 400)),
        ("rmcc", {}, {"kernel_sigma": 10.0}, None, (328095, 452225, 0)),
        ("dcd_ase", {}, {}, None, (59616, 73813, 43753)),
        ("dcd_ase", {"delta_schedule": "constant"}, {}, None, (60416, 74213, 43753)),
        ("dcd_ase", {"dcd_update": "dense"}, {}, None, (121745, 237936, 22476)),
        (
            "dcd_ase",
            {"dcd_update": "dense", "delta_schedule": "constant"},
            {},
            None,
            (134545, 244336, 22476),
        ),
        # The step-only total plus the stand-in's one update at depth 0 on
        # each of the 385 steps after the delay line fills.
        (
            "dcd_ase",
            {},
            {},
            _exact_solve,
            tuple(a + 385 * b for a, b in zip((25174, 33582, 400), solve_ops(16, 8, 1, 0))),
        ),
    ],
    ids=[
        "iwf",
        "iwf_ase",
        "rmcc",
        "shift-decaying",
        "shift-constant",
        "dense-decaying",
        "dense-constant",
        "solve_fn",
    ],
)
def test_op_counter_totals_are_pinned(monkeypatch, kind, config_kw, step_kw, solver, expected):
    """Exact OpCounter totals of a fixed-seed impulsive stream at L=16, for
    every counted path: each step kind, both update modes under both
    leakage schedules, and (id ``solve_fn``) the step around a dense exact
    solve that stands in for ``_dcd_solve`` and reports one update at
    depth 0, which the step prices like any solve.  ops.csv is
    built from these counters, so a moved or dropped term shows here even
    where the criterion-3 fits still pass."""
    if solver is not None:
        monkeypatch.setattr(filters, "_dcd_solve", _dense_solver(solver))
    steps = {"iwf": iwf_step, "iwf_ase": iwf_ase_step, "rmcc": rmcc_step, "dcd_ase": dcd_ase_step}
    step = steps[kind]
    cfg = default_algorithms(16, (kind,), **config_kw)[0].config
    xs, d = _impulsive_stream(16, 400, seed=16)
    ops = OpCounter()
    st = filter_init(cfg, ops=ops)
    for t in range(400):
        st, _ = step(st, cfg, xs[t], d[t], **step_kw)
    assert (ops.adds, ops.mults, ops.comparisons) == expected


@pytest.mark.parametrize(
    "phi, expected", [(0.0, (0, 30, 0)), (0.5, (30, 66, 0))], ids=["zero-phi", "positive-phi"]
)
def test_correlation_update_op_counts_are_pinned(phi, expected):
    cfg = cfg_for(length=5)
    ops = OpCounter()
    st = filter_init(cfg, ops=ops)
    correlation_update(st, cfg, np.arange(1.0, 6.0), 2.0, phi)
    assert (ops.adds, ops.mults, ops.comparisons) == expected


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ALGORITHMS),
    length=st.integers(1, 12),
    dcd_update=st.sampled_from(("shift", "dense")),
    horizon=st.integers(1, 200),
    impulse_var=st.sampled_from((0.0, 25.0, 1e4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_invariants(kind, length, dcd_update, horizon, impulse_var, seed):
    """On impulsive streams: R stays symmetric (exactly for iwf and for a
    ring-held R, where no weighted outer product rounds unevenly), the
    update ratio is the share of applied samples, the weights stay finite,
    and only the ASE weighting gates samples, at ``pi * c``."""
    spec = default_algorithms(length, (kind,), dcd_update=dcd_update)[0]
    rng = np.random.default_rng(seed)
    x_rows = regressors(rng.standard_normal(horizon), length)
    d = x_rows @ rng.standard_normal(length) + 0.1 * rng.standard_normal(horizon)
    d += gen_bg_noise(horizon, BgNoiseSpec(0.1, impulse_var), rng)
    state, err, applied, _ = run_public_steps(spec, x_rows, d, kernel_sigma=1.0)

    r = state.r_matrix
    if kind == "iwf" or state.ring is not None:
        assert np.array_equal(r, r.T)
    else:
        assert np.abs(r - r.T).max() <= 1e-15 * np.abs(r).max()
    ratio = update_ratio(state)
    assert 0.0 <= ratio <= 1.0
    assert ratio == applied.mean()
    assert np.isfinite(state.w).all()
    if kind in ("iwf_ase", "dcd_ase"):
        assert np.array_equal(applied, np.abs(err) <= math.pi * spec.config.ase.c)
    else:
        assert applied.all()

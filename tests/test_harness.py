"""Experiment-harness tests: metrics, operation accounting, and the two
experiment drivers at toy scale."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asefilt import AseParams, DcdParams, FilterConfig, FilterError, OpCounter, dcd, filters, harness, update_ratio
from asefilt.harness import (
    ALGORITHMS,
    AlgoSpec,
    AncSpec,
    count_ops,
    default_algorithms,
    make_sysid_scenario,
    nmsd,
    random_spd_system,
    run_anc,
    run_sysid,
    steady_state,
)
from asefilt.counting import per_iteration
from asefilt.dcd import ShiftMatrix
from asefilt.signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
    gen_background,
    gen_bg_noise,
    gen_pd_pulses,
    gen_system,
    iir_shape,
    regressors,
)

from oracles import run_public_steps, sysid_nmsd_reference

CORES = ("_vss_steps", "_dcd_step", "_dcd_batch_step")
_BLOCK = harness._BLOCK_ROWS


def test_nmsd_hand_values():
    w_o = np.array([3.0, 4.0])  # squared norm 25
    assert nmsd(np.array([3.0, 4.0]), w_o) == -400.0  # floored
    assert nmsd(np.array([3.0, 9.0]), w_o) == pytest.approx(10 * np.log10(25 / 25))
    assert nmsd(np.zeros(2), w_o) == pytest.approx(0.0)


def test_nmsd_validation():
    with pytest.raises(ValueError):
        nmsd(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        nmsd(np.zeros(2), np.ones(3))


def test_steady_state_window():
    assert steady_state(np.arange(10.0)) == 9.0
    assert steady_state(np.arange(20.0)) == pytest.approx(18.5)
    assert steady_state(np.array([7.0])) == 7.0
    with pytest.raises(ValueError):
        steady_state(np.zeros((2, 2)))


def test_count_ops_reference_values():
    """Per-iteration counts of the textbook implementations at L=10."""
    dcd = DcdParams(h=2.0, m_bits=8, n_updates=8)
    expected = {
        ("iwf_ase", False): (340, 433),
        ("iwf", False): (340, 410),
        ("rmcc", False): (374, 442),
        ("dcd_ase", True): (199, 76),
        ("dcd_rmcc", True): (198, 75),
    }
    for (kind, needs_dcd), (adds, mults) in expected.items():
        rec = count_ops(kind, 10, dcd) if needs_dcd else count_ops(kind, 10)
        assert (rec.adds, rec.mults) == (adds, mults), kind


def test_count_ops_errors():
    with pytest.raises(ValueError):
        count_ops("unknown", 10)
    with pytest.raises(ValueError):
        count_ops("dcd_ase", 10)  # needs solver parameters


@pytest.mark.parametrize("length", [0, -1, 2.0, "10"])
def test_count_ops_rejects_a_bad_length(length):
    with pytest.raises(ValueError, match="length must be a positive integer"):
        count_ops("iwf", length)


@pytest.mark.parametrize("iterations", [0, -3])
def test_per_iteration_rejects_no_iterations(iterations):
    with pytest.raises(ValueError, match="iterations must be positive"):
        per_iteration(OpCounter(), iterations)


def test_random_spd_system_properties():
    a, x, b = random_spd_system(8, 50.0, 3)
    assert np.allclose(a, a.T, atol=1e-12)
    ev = np.linalg.eigvalsh(a)
    assert ev[0] > 0
    assert ev[-1] / ev[0] == pytest.approx(50.0, rel=1e-10)
    assert np.allclose(a @ x, b, atol=1e-12)
    a2, _, _ = random_spd_system(8, 50.0, 3)
    assert np.array_equal(a, a2)


def test_random_spd_system_rejects_a_cond_that_overflows():
    """At cond 1.7e308 the matrix overflows: one ValueError naming cond, and
    no numpy warning, which tier-1's warning filter would turn into an
    error.  Just below, the system is finite."""
    with pytest.raises(ValueError, match=r"^cond 1\.7e\+308 is too large: the test system overflows$"):
        random_spd_system(10, 1.7e308, 0)
    a, x, b = random_spd_system(10, 1e300, 0)
    assert np.isfinite(a).all() and np.isfinite(b).all()


def test_default_algorithms_kinds_and_order():
    specs = default_algorithms(4)
    assert [s.kind for s in specs] == list(ALGORITHMS)
    specs = default_algorithms(4, kinds=("dcd_ase", "iwf"))
    assert [s.kind for s in specs] == ["dcd_ase", "iwf"]
    with pytest.raises(ValueError):
        default_algorithms(4, kinds=("nope",))


def test_run_sysid_shapes_and_determinism():
    sc = make_sysid_scenario(length=4, horizon=120, mc_runs=2, seed=99)
    algos = default_algorithms(4)
    rec1 = run_sysid(sc, algos)
    rec2 = run_sysid(sc, algos)
    assert [r.algorithm for r in rec1] == ["iwf", "iwf_ase", "dcd_ase", "rmcc"]
    for a, b in zip(rec1, rec2):
        assert np.array_equal(a.nmsd_db, b.nmsd_db)
        assert a.nmsd_db.shape == (120,)
        assert a.applied_rate.shape == (120,)
        assert a.update_ratio == b.update_ratio
    iwf = rec1[0]
    assert iwf.update_ratio == 1.0
    assert np.all(iwf.applied_rate == 1.0)


def test_run_sysid_pairing_is_algorithm_independent():
    """The same algorithm must see identical data whether it runs alone or
    alongside others (paired comparisons)."""
    sc = make_sysid_scenario(length=4, horizon=80, mc_runs=2, seed=5)
    alone = run_sysid(sc, default_algorithms(4, kinds=("iwf_ase",)))[0]
    together = run_sysid(sc, default_algorithms(4))[1]
    assert np.array_equal(alone.nmsd_db, together.nmsd_db)


def test_run_sysid_instrumented_counts():
    """Every record of ``run_sysid`` and ``run_anc`` carries the operations
    its algorithm executed, with no option asked."""
    sc = make_sysid_scenario(length=4, horizon=60, mc_runs=1, seed=2)
    anc = AncSpec(horizon=60, mc_runs=2, seed=2, filter_length=4)
    for recs in (run_sysid(sc, default_algorithms(4)), run_anc(anc, default_algorithms(4))[0]):
        assert [r.algorithm for r in recs] == list(ALGORITHMS)
        for r in recs:
            assert r.op_counts.mults > 0
            assert r.op_counts.adds > 0


def test_run_sysid_validation():
    sc = make_sysid_scenario(length=4, horizon=10, mc_runs=1)
    with pytest.raises(ValueError):
        run_sysid(sc, [])
    with pytest.raises(ValueError):
        run_sysid(sc, default_algorithms(5))


def test_nmsd_curves_stay_above_floor():
    sc = make_sysid_scenario(length=4, horizon=100, mc_runs=1, seed=1)
    recs = run_sysid(sc, default_algorithms(4, kinds=("iwf",)))
    assert np.all(recs[0].nmsd_db >= -400.0)


def test_run_anc_outputs():
    anc = AncSpec(horizon=1500, mc_runs=2, seed=11)
    algos = default_algorithms(5, kinds=("iwf", "iwf_ase"))
    recs, waves = run_anc(anc, algos)
    assert {r.algorithm for r in recs} == {"iwf", "iwf_ase"}
    for key in ("primary", "clean", "reference", "denoised_iwf", "denoised_iwf_ase"):
        assert key in waves
        assert waves[key].shape == (1500,)
    for r in recs:
        assert r.mse.shape == (1500,)
        assert r.nmsd_db is None
        assert np.all(np.isfinite(r.mse))


def test_run_anc_deterministic():
    anc = AncSpec(horizon=800, mc_runs=1, seed=21)
    algos = default_algorithms(5, kinds=("iwf_ase",))
    r1, w1 = run_anc(anc, algos)
    r2, w2 = run_anc(anc, algos)
    assert np.array_equal(r1[0].mse, r2[0].mse)
    assert np.array_equal(w1["denoised_iwf_ase"], w2["denoised_iwf_ase"])


def test_run_anc_zero_reference_passthrough():
    """With an all-zero reference channel the filter has nothing to work
    with: weights stay at zero and the output equals the primary."""
    primary = np.sin(np.linspace(0, 20, 400))
    anc = AncSpec(
        horizon=400,
        mc_runs=1,
        seed=1,
        primary=primary,
        reference=np.zeros(400),
        clean=primary,
    )
    recs, waves = run_anc(anc, default_algorithms(5, kinds=("iwf",)))
    assert np.array_equal(waves["denoised_iwf"], primary)
    assert np.array_equal(recs[0].mse, np.zeros(400))


def test_run_anc_pairing_is_algorithm_independent():
    """An algorithm's residual and denoised trace do not depend on which
    other algorithms share the paired runs."""
    anc = AncSpec(horizon=600, mc_runs=2, seed=8)
    alone, alone_waves = run_anc(anc, default_algorithms(5, kinds=("iwf_ase",)))
    together, waves = run_anc(anc, default_algorithms(5))
    assert np.array_equal(alone[0].mse, together[1].mse)
    assert np.array_equal(alone_waves["denoised_iwf_ase"], waves["denoised_iwf_ase"])


def test_anc_spec_validation():
    with pytest.raises(ValueError):
        AncSpec(horizon=0, mc_runs=1, seed=1)
    with pytest.raises(ValueError):
        AncSpec(horizon=10, mc_runs=1, seed=1, primary=np.zeros(10))
    with pytest.raises(ValueError):
        AncSpec(horizon=10, mc_runs=2, seed=1, primary=np.zeros(10), reference=np.zeros(10))
    with pytest.raises(ValueError):
        AncSpec(
            horizon=10,
            mc_runs=1,
            seed=1,
            primary=np.zeros(10),
            reference=np.zeros(10),
            clean=np.zeros(9),
        )


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"mc_runs": 0}, "mc_runs must be a positive integer"),
        ({"mc_runs": 1.0}, "mc_runs must be a positive integer"),
        ({"filter_length": 0}, "filter_length must be a positive integer"),
        ({"pulse_rate": 1.5}, r"pulse_rate must lie in \[0, 1\]"),
        ({"pulse_rate": -0.1}, r"pulse_rate must lie in \[0, 1\]"),
        ({"primary": np.zeros(10), "reference": np.zeros(9)}, "vectors of equal length"),
        ({"primary": np.zeros((2, 5)), "reference": np.zeros((2, 5))}, "vectors of equal length"),
    ],
)
def test_anc_spec_rejects_each_bad_field(kwargs, match):
    with pytest.raises(ValueError, match=match):
        AncSpec(**{"horizon": 10, "mc_runs": 1, "seed": 1, **kwargs})


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["primary", "reference", "clean"])
def test_anc_spec_rejects_nonfinite_waveforms(field, value):
    waves = {key: np.zeros(10) for key in ("primary", "reference", "clean")}
    waves[field][3] = value
    with pytest.raises(ValueError, match="finite"):
        AncSpec(horizon=10, mc_runs=1, seed=1, **waves)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_anc_spec_rejects_nonfinite_shaping(value):
    with pytest.raises(ValueError, match="shaping_a1 must be finite"):
        AncSpec(horizon=10, mc_runs=1, seed=1, shaping_a1=float(value))


def test_anc_spec_rejects_clean_without_external_waveforms():
    with pytest.raises(ValueError, match="clean requires primary and reference"):
        AncSpec(horizon=50, mc_runs=1, seed=1, clean=np.full(50, np.nan))
    with pytest.raises(ValueError, match="clean requires primary and reference"):
        AncSpec(horizon=50, mc_runs=1, seed=1, clean=np.zeros(50))


_RMCC = default_algorithms(3, ("rmcc",))[0].config

# Each real-valued parameter: a call that takes its value, and a valid value.
_REAL_PARAMETERS = {
    "c": (lambda v: AseParams(c=v), 2.0),
    "zeta": (lambda v: AseParams(2.0, zeta=v), 1e-4),
    "lam": (lambda v: FilterConfig(3, v, 1e-4, AseParams(2.0)), 0.5),
    "rho": (lambda v: FilterConfig(3, 0.5, v, AseParams(2.0)), 1e-4),
    "h": (lambda v: DcdParams(h=v), 2.0),
    "p_r": (lambda v: BgNoiseSpec(v, 1.0), 0.25),
    "sigma2": (lambda v: BgNoiseSpec(0.1, v), 0.25),
    "amplitude": (lambda v: PdPulseSpec(amplitude=v), 2.0),
    "decay": (lambda v: PdPulseSpec(decay=v), 2.0),
    "freq": (lambda v: PdPulseSpec(freq=v), 0.25),
    "pulse_rate": (lambda v: AncSpec(horizon=10, mc_runs=1, seed=1, pulse_rate=v), 0.25),
    "shaping_a1": (lambda v: AncSpec(horizon=10, mc_runs=1, seed=1, shaping_a1=v), 0.25),
    "snr_db": (lambda v: ScenarioSpec(np.ones(3), horizon=10, mc_runs=1, seed=1, snr_db=v), 2.0),
    "gen_background snr_db": (lambda v: gen_background(10, v, 1.0, 0), 2.0),
    "gen_background signal_power": (lambda v: gen_background(10, 0.0, v, 0), 2.0),
    "gen_pd_pulses pulse_rate": (lambda v: gen_pd_pulses(10, v, 0), 0.25),
    "iir_shape a1": (lambda v: iir_shape(np.ones(3), v), 0.25),
    "cond": (lambda v: random_spd_system(3, v, 0), 2.0),
    "kernel_sigma": (lambda v: AlgoSpec("rmcc", default_algorithms(3, ("rmcc",))[0].config, kernel_sigma=v), 2.0),
    "rmcc_step kernel_sigma": (lambda v: filters.rmcc_step(filters.filter_init(_RMCC), _RMCC, np.ones(3), 0.5, v), 2.0),
    "correlation_update phi": (lambda v: filters.correlation_update(filters.filter_init(_RMCC), _RMCC, np.ones(3), 0.5, v), 0.5),
}


@pytest.mark.parametrize("convert", [str, np.float32, bool], ids=["str", "float32", "bool"])
@pytest.mark.parametrize("parameter", list(_REAL_PARAMETERS))
def test_a_real_parameter_given_a_non_number_raises_a_value_error_naming_it(parameter, convert):
    """Each real-valued parameter goes through ``_checks.check_real``,
    which tests that it is an ``int`` or ``float`` and not a ``bool``
    before its conditions, so a valid value given as a string, as a numpy
    scalar other than ``float64`` or as ``True`` gets the documented
    ``ValueError``, not a ``TypeError`` from numpy or ``math`` nor a
    silent ``1``."""
    build, valid = _REAL_PARAMETERS[parameter]
    build(valid)
    with pytest.raises(ValueError, match=parameter.split()[-1]):
        build(convert(valid))


# More digits than repr writes (sys.get_int_max_str_digits(), 4300 by default).
_HUGE = 10**5000


def _shown(value) -> str:
    """A rejected value as its message shows it: its repr, or for an int
    too long for one, its sign and bit length."""
    if value in (_HUGE, -_HUGE):
        return f"{'a negative' if value < 0 else 'an'} int of 16610 bits"
    return repr(value)


@pytest.mark.parametrize("value", [10**400, -10**400, _HUGE], ids=["1e400", "-1e400", "1e5000"])
@pytest.mark.parametrize("parameter", list(_REAL_PARAMETERS))
def test_a_real_parameter_given_an_int_beyond_float_range_raises_a_value_error_naming_it(parameter, value):
    """No float holds ``10**400``, and ``math.isfinite`` raises
    ``OverflowError`` on it; ``check_real`` rejects it first, with the
    parameter's own message, which shows ``10**5000``, too long for
    ``repr``, by its bit length."""
    build, _ = _REAL_PARAMETERS[parameter]
    name = parameter.split()[-1]
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {_shown(value)}$"):
        build(value)


_ANY_VALUE = st.one_of(
    st.integers(),
    st.sampled_from([2**1024, -(2**1024), 10**400, _HUGE, int(np.finfo(float).max), 2**53 + 1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.booleans(),
    st.text(max_size=4),
    st.builds(lambda kind, v: kind(v), st.sampled_from([np.float64, np.float32, np.float16, np.int64]), st.floats(-1e4, 1e4)),
)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(value=_ANY_VALUE)
@pytest.mark.parametrize("parameter", list(_REAL_PARAMETERS))
def test_a_real_parameter_accepts_or_rejects_any_value_with_a_value_error_naming_it(parameter, value):
    """Whatever it is given, a real parameter's call either accepts the
    value or raises ``ValueError`` naming the parameter, never
    ``TypeError`` or ``OverflowError``."""
    build, _ = _REAL_PARAMETERS[parameter]
    try:
        build(value)
    except ValueError as exc:
        assert parameter.split()[-1] in str(exc)


# Each integer parameter: a call that takes its value, and a valid value.
_INT_PARAMETERS = {
    "length": (lambda v: FilterConfig(v, 0.5, 1e-4, AseParams(2.0)), 3),
    "m_bits": (lambda v: DcdParams(m_bits=v), 8),
    "n_updates": (lambda v: DcdParams(n_updates=v), 8),
    "horizon": (lambda v: AncSpec(horizon=v, mc_runs=1, seed=1), 10),
    "mc_runs": (lambda v: AncSpec(horizon=10, mc_runs=v, seed=1), 1),
    "seed": (lambda v: AncSpec(horizon=10, mc_runs=1, seed=v), 1),
    "filter_length": (lambda v: AncSpec(horizon=10, mc_runs=1, seed=1, filter_length=v), 5),
    "ScenarioSpec horizon": (lambda v: ScenarioSpec(np.ones(3), horizon=v, mc_runs=1, seed=1), 10),
    "ScenarioSpec mc_runs": (lambda v: ScenarioSpec(np.ones(3), horizon=10, mc_runs=v, seed=1), 1),
    "ScenarioSpec seed": (lambda v: ScenarioSpec(np.ones(3), horizon=10, mc_runs=1, seed=v), 1),
    "make_sysid_scenario length": (lambda v: make_sysid_scenario(length=v, horizon=10, mc_runs=1), 3),
    "make_sysid_scenario seed": (lambda v: make_sysid_scenario(3, 10, 1, seed=v), 1),
    "PdPulseSpec length": (lambda v: PdPulseSpec(length=v), 120),
    "gen_system length": (lambda v: gen_system(v, 0), 3),
    "gen_bg_noise n": (lambda v: gen_bg_noise(v, BgNoiseSpec(0.1, 1.0), 0), 10),
    "gen_background n": (lambda v: gen_background(v, 0.0, 1.0, 0), 10),
    "gen_pd_pulses n": (lambda v: gen_pd_pulses(v, 0.1, 0), 10),
    "regressors length": (lambda v: regressors(np.ones(4), v), 2),
    "count_ops length": (lambda v: count_ops("iwf", v), 3),
    "random_spd_system length": (lambda v: random_spd_system(v, 2.0, 0), 3),
}


@pytest.mark.parametrize(
    "convert", [bool, float, str, lambda v: -_HUGE], ids=["bool", "float", "str", "-1e5000"]
)
@pytest.mark.parametrize("parameter", list(_INT_PARAMETERS))
def test_an_integer_parameter_given_a_non_integer_raises_a_value_error_naming_it(parameter, convert):
    """Each integer parameter goes through ``_checks.check_int``: ``True``
    is not a length, a count or a seed, nor is a float or a string of a
    valid value, nor ``-10**5000``, which the message shows by its bit
    length."""
    build, valid = _INT_PARAMETERS[parameter]
    build(valid)
    name = parameter.split()[-1]
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {_shown(convert(valid))}$"):
        build(convert(valid))


def test_algo_spec_labels():
    spec = default_algorithms(4, kinds=("iwf",))[0]
    assert spec.name == "iwf"
    labeled = AlgoSpec(kind="iwf", config=spec.config, label="baseline")
    assert labeled.name == "baseline"


@pytest.mark.parametrize("kind", ["iwf", "iwf_ase", "rmcc"])
def test_inversion_free_spec_rejects_solver_params(kind):
    """A config carrying DcdParams gets a ring-held R from filter_init,
    which no inversion-free core steps: the spec is rejected, naming its kind."""
    config = dataclasses.replace(default_algorithms(4, (kind,))[0].config, dcd=DcdParams())
    with pytest.raises(ValueError, match=f"^kind '{kind}' takes no DcdParams"):
        AlgoSpec(kind=kind, config=config)


def test_algo_spec_rejects_a_kernel_width_whose_square_underflows():
    config = default_algorithms(4, kinds=("rmcc",))[0].config
    with pytest.raises(ValueError, match="underflows to 0"):
        AlgoSpec(kind="rmcc", config=config, kernel_sigma=1e-300)
    # 2 sigma^2 overflows to inf here, which gives every sample weight 1.
    assert AlgoSpec(kind="rmcc", config=config, kernel_sigma=1e300).kernel_sigma == 1e300


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ALGORITHMS),
    length=st.integers(1, 12),
    dcd_update=st.sampled_from(("shift", "dense")),
    delta_schedule=st.sampled_from(("decaying", "constant")),
    horizon=st.integers(1, 3 * harness._BLOCK_ROWS),
    impulse_var=st.sampled_from((0.0, 25.0, 1e4)),
    with_nmsd=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_trusted_driver_matches_public_steps(
    kind, length, dcd_update, delta_schedule, horizon, impulse_var, with_nmsd, seed
):
    """The driver's per-run checks and trusted cores step exactly as the
    public, per-call checked step functions do."""
    spec = default_algorithms(length, (kind,), dcd_update=dcd_update, delta_schedule=delta_schedule)[0]
    rng = np.random.default_rng(seed)
    w_o = rng.standard_normal(length)
    x_rows = regressors(rng.standard_normal(horizon), length)
    d = x_rows @ w_o + 0.1 * rng.standard_normal(horizon)
    d += gen_bg_noise(horizon, BgNoiseSpec(0.1, impulse_var), rng)
    bg_std = 0.1
    states = []

    def recording_init(config, *, ops=None):
        states.append(filters.filter_init(config, ops=ops))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "filter_init", recording_init)
        records, errors = harness._paired_runs(
            [spec], length, horizon, 1, bg_std, lambda run: (x_rows, d, 0.0),
            w_o if with_nmsd else None,
        )
    counter = OpCounter()
    state, err, applied, dev = run_public_steps(spec, x_rows, d, 10.0 * bg_std, w_o, counter)

    assert np.array_equal(errors[0], err)
    assert np.array_equal(records[0].mse, err * err)
    assert np.array_equal(records[0].applied_rate, applied)
    trusted = states[0]
    assert np.array_equal(trusted.w, state.w)
    assert np.array_equal(trusted.residual, state.residual)
    assert np.array_equal(trusted.r_matrix, state.r_matrix)
    assert records[0].op_counts == per_iteration(counter, horizon)
    assert trusted.ops is None
    if with_nmsd:
        expected = 10.0 * np.log10(np.maximum(dev / float(w_o @ w_o), 1e-40))
        assert np.array_equal(records[0].nmsd_db, expected)


def _lockstep_case(monkeypatch, algorithms, length, horizon, runs, chunk_runs, with_nmsd, seed):
    """``_paired_runs`` on ``runs`` random draws, ``chunk_runs`` runs per
    chunk, against each algorithm stepped through the public steps one run
    at a time and reduced in run order: every series, score, final state
    and operation total bit for bit."""
    rng = np.random.default_rng(seed)
    w_o = rng.standard_normal(length) if with_nmsd else None
    draws = []
    for _ in range(runs):
        x_rows = regressors(rng.standard_normal(horizon), length)
        d = x_rows @ rng.standard_normal(length) + 0.1 * rng.standard_normal(horizon)
        d += gen_bg_noise(horizon, BgNoiseSpec(0.1, 1e4), rng)
        draws.append((x_rows, d, 0.0 if with_nmsd else rng.standard_normal(horizon)))
    _driver_matches_public_steps(monkeypatch, algorithms, draws, w_o, chunk_runs)


def _driver_matches_public_steps(monkeypatch, algorithms, draws, w_o, chunk_runs):
    """``_paired_runs`` on ``draws``, ``chunk_runs`` runs per chunk, against
    each algorithm stepped through the public steps one run at a time, as
    :func:`_lockstep_case` says."""
    runs, (horizon, length) = len(draws), draws[0][0].shape
    with_nmsd = w_o is not None
    bg_std = 0.1
    states = {id(spec.config): [] for spec in algorithms}

    def recording_init(config, *, ops=None):
        states[id(config)].append(filters.filter_init(config, ops=ops))
        return states[id(config)][-1]

    monkeypatch.setattr(harness, "filter_init", recording_init)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_runs * 8 * horizon * length)
    records, errors = harness._paired_runs(
        algorithms, length, horizon, runs, bg_std, draws.__getitem__, w_o
    )
    for spec, rec, first_err in zip(algorithms, records, errors):
        sigma = spec.kernel_sigma if spec.kernel_sigma is not None else 10.0 * bg_std
        counter = OpCounter()
        se, applied_sum, dev_sum, ur = np.zeros(horizon), np.zeros(horizon), np.zeros(horizon), 0.0
        for run, (x_rows, d, target) in enumerate(draws):
            state, err, applied, dev = run_public_steps(spec, x_rows, d, sigma, w_o, counter)
            if run == 0:
                assert np.array_equal(first_err, err), spec.name
            resid = err - target
            se += resid * resid
            applied_sum += applied
            dev_sum += dev
            ur += update_ratio(state)
            trusted = states[id(spec.config)][run]
            assert np.array_equal(trusted.w, state.w), spec.name
            assert np.array_equal(trusted.residual, state.residual), spec.name
            assert np.array_equal(trusted.r_matrix, state.r_matrix), spec.name
            assert (trusted.step_index, trusted.updates_applied) == (state.step_index, state.updates_applied)
        assert len(states[id(spec.config)]) == runs
        assert np.array_equal(rec.mse, se / runs), spec.name
        assert np.array_equal(rec.applied_rate, applied_sum / runs), spec.name
        assert rec.update_ratio == ur / runs, spec.name
        if with_nmsd:
            expected = 10.0 * np.log10(np.maximum(dev_sum / (runs * float(w_o @ w_o)), 1e-40))
            assert np.array_equal(rec.nmsd_db, expected), spec.name
        else:
            assert rec.nmsd_db is None
        assert trusted.ops is None, spec.name
        assert rec.op_counts == per_iteration(counter, runs * horizon), spec.name


def _alternate_vss_spec(kind, length, lam, rho, c, kernel_sigma):
    """An inversion-free spec whose forgetting factor, regularization and
    ASE width differ from the defaults, so batched rows differ in each."""
    config = FilterConfig(length=length, lam=lam, rho=rho, ase=AseParams(c=c))
    return AlgoSpec(kind=kind, config=config, kernel_sigma=kernel_sigma, label=f"{kind}-alt")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4),
    alternate=st.sampled_from(("iwf", "iwf_ase", "rmcc")),
    lam=st.sampled_from((0.9, 0.99, 0.9995)),
    rho=st.sampled_from((1e-3, 0.5)),
    c=st.sampled_from((0.5, 5.0)),
    kernel_sigma=st.sampled_from((None, 0.3)),
    position=st.integers(0, 4),
    length=st.integers(1, 12),
    horizon=st.integers(1, 3 * harness._BLOCK_ROWS + 1),
    runs=st.integers(1, 7),
    chunk_runs=st.integers(1, 7),
    dcd_update=st.sampled_from(("shift", "dense")),
    delta_schedule=st.sampled_from(("decaying", "constant")),
    with_nmsd=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    batch_min_runs=st.sampled_from((1, harness._DCD_BATCH_MIN_RUNS)),
)
def test_lockstep_driver_matches_public_steps(
    kinds, alternate, lam, rho, c, kernel_sigma, position, length, horizon, runs, chunk_runs,
    dcd_update, delta_schedule, with_nmsd, seed, batch_min_runs,
):
    """The batched inversion-free rows and the coordinate-descent rows, per
    run or batched, of a mixed algorithm list, two inversion-free specs
    among them with different lam, rho and c, step and score exactly as
    the public steps do, across block and chunk edges."""
    algorithms = default_algorithms(length, tuple(kinds), dcd_update=dcd_update, delta_schedule=delta_schedule)
    algorithms.insert(position, _alternate_vss_spec(alternate, length, lam, rho, c, kernel_sigma))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_DCD_BATCH_MIN_RUNS", batch_min_runs)
        _lockstep_case(mp, algorithms, length, horizon, runs, chunk_runs, with_nmsd, seed)


def _spy_batched_core(monkeypatch):
    """Record each ``_dcd_batch_step`` call's step index and moved flags,
    and fail on any per-run ``_dcd_step`` call of the driver."""
    calls = []
    core = harness._dcd_batch_step

    def spy(batch, xd, step_index):
        row = core(batch, xd, step_index)
        calls.append((step_index, row[3].tolist()))
        return row

    def no_scalar_step(*args):
        pytest.fail("the driver stepped a dcd_ase run alone")

    monkeypatch.setattr(harness, "_dcd_batch_step", spy)
    monkeypatch.setattr(harness, "_dcd_step", no_scalar_step)
    return calls


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    length=st.integers(1, 12),
    lam=st.sampled_from((0.5, 0.99, 0.999)),
    rho=st.sampled_from((1e-4, 1e-310)),
    n_updates=st.integers(1, 9),
    horizon=st.integers(1, 3 * harness._BLOCK_ROWS + 1),
    runs=st.integers(1, 7),
    chunk_runs=st.integers(1, 7),
    delta_schedule=st.sampled_from(("decaying", "constant")),
    with_nmsd=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_dcd_driver_matches_public_steps(
    length, lam, rho, n_updates, horizon, runs, chunk_runs, delta_schedule, with_nmsd, seed
):
    """Every chunk of shift-mode ``dcd_ase`` runs steps batched, one run
    alone included, and matches the public steps bit for bit: the series,
    the operation totals and each run's final weights, residual and ring.
    A subnormal ``rho`` starts every pivot weak."""
    config = FilterConfig(
        length=length, lam=lam, rho=rho, ase=AseParams(c=2.0), dcd=DcdParams(n_updates=n_updates),
        delta_schedule=delta_schedule,
    )
    algorithms = [AlgoSpec(kind="dcd_ase", config=config), *default_algorithms(length, ("iwf_ase",))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_DCD_BATCH_MIN_RUNS", 1)
        calls = _spy_batched_core(mp)
        _lockstep_case(mp, algorithms, length, horizon, runs, chunk_runs, with_nmsd, seed)
    assert len(calls) == horizon * -(-runs // chunk_runs)


def test_batched_dcd_run_held_by_a_silence_resumes(monkeypatch):
    """One run of a batched chunk goes silent until its pivots decay below
    ``MIN_PIVOT`` and its solve is held, while the other runs keep solving;
    once its input returns it solves again, and every run matches the
    public steps bit for bit."""
    length, horizon, runs, silent = 3, 1400, 6, 3
    rng = np.random.default_rng(31)
    draws = []
    for run in range(runs):
        u = rng.standard_normal(horizon)
        if run == silent:
            u[100:1250] = 0.0
        x_rows = regressors(u, length)
        d = x_rows @ np.ones(length) + 0.1 * rng.standard_normal(horizon)
        draws.append((x_rows, d, 0.0))
    config = FilterConfig(length=length, lam=0.5, rho=1e-4, ase=AseParams(c=2.0), dcd=DcdParams())
    calls = _spy_batched_core(monkeypatch)
    _driver_matches_public_steps(monkeypatch, [AlgoSpec(kind="dcd_ase", config=config)], draws, None, runs)
    assert runs >= harness._DCD_BATCH_MIN_RUNS
    held = [t for t, moved in calls if t >= length - 1 and not moved[silent]]
    assert held and held[-1] < horizon - 1
    assert all(all(moved[:silent] + moved[silent + 1 :]) for t, moved in calls if t in held)
    assert calls[-1][1] == [True] * runs


def _dense_dcd_spec(length):
    spec = default_algorithms(length, ("dcd_ase",), dcd_update="dense", delta_schedule="constant")[0]
    return dataclasses.replace(spec, label="dcd_ase-dense")


@pytest.mark.parametrize("length", [1, 3, 10])
def test_groups_of_every_kind_in_one_chunk_match_public_steps(monkeypatch, length):
    """One chunk of six runs holds a row group of each kind: a shift-mode
    ``dcd_ase`` stepped batched, a dense-mode ``dcd_ase`` stepped one run at
    a time, and the inversion-free rows, placed around both.  Every
    algorithm steps, fills its rows of the block record and scores exactly
    as the public steps do, across the 64-row block edges."""
    runs = 6
    assert runs >= harness._DCD_BATCH_MIN_RUNS
    iwf, iwf_ase, shift, rmcc = default_algorithms(length, ("iwf", "iwf_ase", "dcd_ase", "rmcc"))
    algorithms = [iwf, shift, iwf_ase, _dense_dcd_spec(length), rmcc]
    batched = harness._dcd_batch_step
    seen = {"batched": set(), "scalar": set()}

    def spy_batched(batch, xd, step_index):
        seen["batched"].add(batch.config.dcd_update)
        return batched(batch, xd, step_index)

    def spy_scalar(state, config, *args):
        seen["scalar"].add(config.dcd_update)
        return filters._dcd_step(state, config, *args)

    monkeypatch.setattr(harness, "_dcd_batch_step", spy_batched)
    monkeypatch.setattr(harness, "_dcd_step", spy_scalar)
    _lockstep_case(monkeypatch, algorithms, length, 2 * _BLOCK + 5, runs, runs, True, 25 + length)
    assert seen == {"batched": {"shift"}, "scalar": {"dense"}}


def test_block_error_of_a_run_by_run_group_beside_finite_batches(monkeypatch):
    """Beside a batched shift-mode ``dcd_ase`` and the inversion-free batch,
    a dense-mode ``dcd_ase`` steps one run at a time, and only its run 2
    turns non-finite, at sample 70.  Every batched state stays finite, so
    the block check finds the failure through the run-by-run group alone,
    and the error names that run and algorithm and the second block."""
    length, horizon, runs = 3, 3 * _BLOCK, 6
    assert runs >= harness._DCD_BATCH_MIN_RUNS
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(runs):
        x_rows = regressors(rng.standard_normal(horizon), length)
        draws.append((x_rows, x_rows @ np.ones(length) + 0.1 * rng.standard_normal(horizon), 0.0))
    dense = _dense_dcd_spec(length)
    algorithms = [*default_algorithms(length, ("dcd_ase", "iwf_ase")), dense]
    states = {id(spec.config): [] for spec in algorithms}
    scalar = harness._dcd_step

    def recording_init(config, *, ops=None):
        states[id(config)].append(filters.filter_init(config, ops=ops))
        return states[id(config)][-1]

    def poisoning(state, config, *args):
        row = scalar(state, config, *args)
        if state is states[id(dense.config)][2] and state.step_index == 71:
            state.w[0] = np.nan
        return row

    monkeypatch.setattr(harness, "filter_init", recording_init)
    monkeypatch.setattr(harness, "_dcd_step", poisoning)
    pattern = r"^dcd_ase-dense: run 2: the filter state became non-finite in the block of samples 64 to 127$"
    with pytest.raises(FilterError, match=pattern):
        harness._paired_runs(algorithms, length, horizon, runs, 0.0, draws.__getitem__, None)
    failing = [
        (spec.name, run) for spec in algorithms for run, state in enumerate(states[id(spec.config)])
        if not filters._state_is_finite(state)
    ]
    assert failing == [("dcd_ase-dense", 2)]


@pytest.mark.parametrize("runs", [2, harness._DCD_BATCH_MIN_RUNS])
def test_wall_time_splits_each_group_call_evenly(monkeypatch, runs):
    """A clock that moves one second per reading makes each block call of
    a row group last one second: over three blocks ``dcd_ase``, a group of
    its own whether stepped batched or one run at a time, gets 3 s, and
    the three inversion-free algorithms, which share one group, 1 s each."""
    clock = iter(range(10**6))
    monkeypatch.setattr(harness, "time", type("Clock", (), {"perf_counter": staticmethod(lambda: next(clock))}))
    sc = make_sysid_scenario(length=4, horizon=2 * _BLOCK + 5, mc_runs=runs, seed=5)
    records = run_sysid(sc, default_algorithms(4))
    assert {rec.algorithm: rec.wall_time for rec in records} == {"iwf": 1.0, "iwf_ase": 1.0, "dcd_ase": 3.0, "rmcc": 1.0}


def test_lockstep_driver_matches_public_steps_at_length_64(monkeypatch):
    algorithms = default_algorithms(64)
    algorithms.insert(2, _alternate_vss_spec("iwf_ase", 64, 0.99, 0.5, 5.0, None))
    _lockstep_case(monkeypatch, algorithms, 64, 2 * _BLOCK + 5, 3, 2, True, 64)


def test_lockstep_driver_matches_public_steps_on_the_matmul_route(monkeypatch):
    """With the matmul route's length threshold lowered to 1, the batched
    core, dense-mode ``dcd_ase`` and the public steps all build their
    rank-one products by ``filters._outer`` at L=6, and the driver still matches
    the public steps bit for bit, over chunks of two runs and of one."""
    monkeypatch.setattr(filters, "_MATMUL_MIN_LENGTH", 1)
    length = 6
    algorithms = [*default_algorithms(length, ("iwf", "iwf_ase", "rmcc")), _dense_dcd_spec(length)]
    algorithms.insert(2, _alternate_vss_spec("iwf_ase", length, 0.9, 0.5, 5.0, None))
    assert all(spec.config._matmul_outer for spec in algorithms)
    routes = []
    core = harness._vss_steps

    def spy(batch, xd, step_index):
        routes.append(batch.matmul_outer)
        return core(batch, xd, step_index)

    monkeypatch.setattr(harness, "_vss_steps", spy)
    _lockstep_case(monkeypatch, algorithms, length, 2 * _BLOCK + 5, 3, 2, True, 6)
    assert routes and all(routes)


def test_mixed_lam_batch_takes_the_broadcast_route_and_matches_separate_runs(monkeypatch):
    """At L=64 a lockstep batch that mixes ``lam = 0.5`` and ``lam = 0.999``
    builds every row's rank-one product by the broadcast, as the
    ``lam = 0.5`` row needs, while the 0.999 algorithm run alone takes the
    matmul route; its curves, and the 0.5 one's, match those separate
    ``run_sysid`` calls bit for bit."""
    length = 64
    sc = make_sysid_scenario(length=length, horizon=150, mc_runs=2, seed=31)
    base = default_algorithms(length, ("iwf_ase",))[0]
    half = _alternate_vss_spec("iwf_ase", length, 0.5, base.config.rho, base.config.ase.c, None)
    assert base.config.lam == 0.999 and base.config._matmul_outer and not half.config._matmul_outer
    routes = []
    core = harness._vss_steps

    def spy(batch, xd, step_index):
        routes.append((batch.w.shape[:2], batch.matmul_outer))
        return core(batch, xd, step_index)

    monkeypatch.setattr(harness, "_vss_steps", spy)
    together = run_sysid(sc, [base, half])
    assert set(routes) == {((2, 2), False)}
    routes.clear()
    alone = [run_sysid(sc, [spec])[0] for spec in (base, half)]
    assert set(routes) == {((1, 2), True), ((1, 2), False)}
    for joint, single in zip(together, alone):
        assert joint.algorithm == single.algorithm
        for name in ("nmsd_db", "mse", "applied_rate"):
            assert getattr(joint, name).tobytes() == getattr(single, name).tobytes(), name
        assert joint.update_ratio == single.update_ratio


def test_lockstep_gated_row_keeps_signed_zeros(monkeypatch):
    """A gated row only decays, as in the scalar core: after a silence has
    decayed entries of R to -0.0, a gated impulse leaves them -0.0, where
    adding its zero-weighted sample would make them +0.0."""
    config = FilterConfig(length=2, lam=0.5, rho=1e-4, ase=AseParams(c=2.0))
    spec = AlgoSpec(kind="iwf_ase", config=config)
    x_rows = np.zeros((1203, 2))
    x_rows[0], x_rows[1] = [1.0, 0.0], [-1.0, 1.0]
    d = np.zeros(1203)
    d[:2], d[-1] = 0.1, 1e3
    states = []

    def recording_init(config, *, ops=None):
        states.append(filters.filter_init(config, ops=ops))
        return states[-1]

    monkeypatch.setattr(harness, "filter_init", recording_init)
    records, _ = harness._paired_runs([spec], 2, 1203, 1, 0.0, lambda run: (x_rows, d, 0.0), None)
    public = run_public_steps(spec, x_rows, d, 1.0)[0]
    assert not records[0].applied_rate[-1]
    assert np.signbit(public.stats).any()
    assert states[0].stats.tobytes() == public.stats.tobytes()


@pytest.mark.parametrize("kinds", [("iwf", "dcd_ase"), ("dcd_ase", "iwf")])
def test_block_error_names_the_first_failing_run_then_algorithm(kinds):
    """Runs step in lockstep, so the first block in which any state fails
    raises, naming its first failing run and, within it, algorithm: run 1
    overflows in block 0, before run 0 does in block 1."""
    horizon, length = 3 * _BLOCK, 4
    rng = np.random.default_rng(3)
    late = regressors(rng.standard_normal(horizon), length)
    late[_BLOCK + 10 :] *= 1e160
    early = 1e160 * regressors(rng.standard_normal(horizon), length)
    draws = [(late, late @ np.ones(length), 0.0), (early, early @ np.ones(length), 0.0)]
    pattern = rf"^{kinds[0]}: run 1: the filter state became non-finite in the block of samples 0 to 63$"
    with pytest.raises(FilterError, match=pattern):
        harness._paired_runs(
            default_algorithms(length, kinds), length, horizon, 2, 0.0, draws.__getitem__, None
        )


def test_batched_block_error_names_the_first_failing_run(monkeypatch):
    """In a batched chunk of six ``dcd_ase`` runs, runs 3 and 5 overflow in
    block 0 and run 1 in block 1: the error names run 3."""
    horizon, length, runs = 3 * _BLOCK, 4, 6
    rng = np.random.default_rng(4)
    draws = []
    for run in range(runs):
        x_rows = regressors(rng.standard_normal(horizon), length)
        if run in (3, 5):
            x_rows *= 1e160
        elif run == 1:
            x_rows[_BLOCK + 10 :] *= 1e160
        draws.append((x_rows, x_rows @ np.ones(length), 0.0))
    calls = _spy_batched_core(monkeypatch)
    pattern = r"^dcd_ase: run 3: the filter state became non-finite in the block of samples 0 to 63$"
    with pytest.raises(FilterError, match=pattern):
        harness._paired_runs(
            default_algorithms(length, ("dcd_ase",)), length, horizon, runs, 0.0, draws.__getitem__, None
        )
    assert len(calls) == _BLOCK


def test_block_error_orders_runs_before_algorithms(monkeypatch):
    """In one block, run 0's second algorithm fails and run 1's first: the
    error names run 0, since runs come first, then algorithms in the order
    given, whichever core steps them."""
    states = []

    def recording_init(config, *, ops=None):
        states.append(filters.filter_init(config, ops=ops))
        return states[-1]

    algorithms = default_algorithms(3, ("dcd_ase", "iwf", "rmcc"))
    failing = {(1, 0), (0, 1)}  # (algorithm, run)
    monkeypatch.setattr(harness, "filter_init", recording_init)
    def finite(state):
        index = next(i for i, st in enumerate(states) if st is state)
        return divmod(index, 2) not in failing

    monkeypatch.setattr(harness, "_state_is_finite", finite)
    x_rows = regressors(np.ones(70), 3)
    with pytest.raises(FilterError, match=r"^iwf: run 0: .* block of samples 0 to 63$"):
        harness._paired_runs(algorithms, 3, 70, 2, 0.0, lambda run: (x_rows, np.ones(70), 0.0), None)


def test_run_sysid_nmsd_matches_per_sample_reference():
    """Per-block deviations give the NMSD of a per-sample diff @ diff,
    including the last, partial block."""
    horizon = 3 * harness._BLOCK_ROWS + 37
    sc = make_sysid_scenario(length=6, horizon=horizon, mc_runs=2, seed=17)
    algos = default_algorithms(6)
    for rec, expected in zip(run_sysid(sc, algos), sysid_nmsd_reference(sc, algos)):
        assert np.array_equal(rec.nmsd_db, expected), rec.algorithm


def test_run_sysid_steps_check_no_sample(monkeypatch):
    """Each run is checked once and each state once per block: no step of
    the driver calls a per-sample check, the public correlation update,
    the checked ring push or the check of the system a step solves, in
    either update mode."""
    calls = {"_check_sample": 0, "correlation_update": 0, "push": 0, "_check_rhs": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_check_sample", "correlation_update", "_check_rhs"):
        counting(filters, name)
    counting(ShiftMatrix, "push")
    sc = make_sysid_scenario(length=4, horizon=150, mc_runs=2, seed=3)
    modes = ("shift", "dense")
    for dcd_update in modes:
        records = run_sysid(sc, default_algorithms(4, dcd_update=dcd_update))
        assert [rec.algorithm for rec in records] == list(ALGORITHMS)
    assert calls == dict.fromkeys(calls, 0)
    # The same counters do see the public steps.
    for dcd_update in modes:
        for spec in default_algorithms(4, dcd_update=dcd_update):
            run_public_steps(spec, np.eye(4), np.ones(4), kernel_sigma=1.0)
    assert calls["_check_sample"] == 2 * 4 * 4 and calls["correlation_update"] == 0
    assert calls["push"] == 4 and calls["_check_rhs"] > 0


def test_traced_names_see_the_driver_and_the_public_steps(monkeypatch):
    """perfbench's tracer and set-up probe wrap these module attributes;
    each must be called by the Monte Carlo driver, and the filters ones
    by the public steps too, or a library change leaves them blind.  The
    scalar correlation update is the one exception: the batched core
    updates the driver's statistics itself, so only the public steps call
    it."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in CORES:
        counting(harness, name)
    for name in ("_correlation_update", "_dcd_solve", "ase_weight"):
        counting(filters, name)
    for runs in (2, harness._DCD_BATCH_MIN_RUNS):
        sc = make_sysid_scenario(length=4, horizon=40, mc_runs=runs, seed=3)
        run_sysid(sc, default_algorithms(4))
    assert {key for key, n in calls.items() if not n} == {"filters._correlation_update"}, calls
    driver = dict(calls)
    for spec in default_algorithms(4):
        run_public_steps(spec, np.eye(4), np.ones(4), kernel_sigma=1.0)
    assert {key: calls[key] > driver[key] for key in calls} == {
        "harness._vss_steps": False,
        "harness._dcd_step": False,
        "harness._dcd_batch_step": False,
        "filters._correlation_update": True,
        "filters._dcd_solve": True,
        "filters.ase_weight": True,
    }


def test_setup_probe_stops_the_driver_at_its_first_sample(monkeypatch):
    """perfbench's set-up probe replaces every callable of ``harness`` and
    ``filters`` whose name ends in ``_step`` with a hook that stops the main
    call.  On ``sysid-mc``'s shape (10 runs, L=10, four algorithms) the
    driver reaches one before any sample steps, and for ``dcd_ase`` at 10
    shift-mode runs that is the batched core, not ``_dcd_step``."""

    class FirstSample(BaseException):
        pass

    reached, stepped = [], []

    def hook(name):
        def first_step(*args, **kwargs):
            reached.append(name)
            raise FirstSample

        return first_step

    for module in (harness, filters):
        for attr in dir(module):
            if attr.endswith("_step") and callable(getattr(module, attr)):
                monkeypatch.setattr(module, attr, hook(f"{module.__name__}.{attr}"))
    vss_steps = harness._vss_steps
    monkeypatch.setattr(harness, "_vss_steps", lambda *args: stepped.append(args) or vss_steps(*args))
    with pytest.raises(FirstSample):
        run_sysid(make_sysid_scenario(length=10, horizon=1000, mc_runs=10), default_algorithms(10))
    assert reached == ["asefilt.harness._dcd_batch_step"] and not stepped


def test_driver_checks_no_layout(monkeypatch):
    """The driver builds every state with ``filter_init``, so it never
    checks where ``R`` lives; each public step and the public correlation
    update check it once, before the core."""

    def no_layout_check(*args):
        raise AssertionError("checked a layout")

    monkeypatch.setattr(filters, "_check_layout", no_layout_check)
    sc = make_sysid_scenario(length=4, horizon=80, mc_runs=2, seed=5)
    anc = AncSpec(horizon=80, mc_runs=2, seed=5, filter_length=4)
    for dcd_update in ("shift", "dense"):
        algos = default_algorithms(4, dcd_update=dcd_update)
        assert [rec.algorithm for rec in run_sysid(sc, algos)] == list(ALGORITHMS)
        assert [rec.algorithm for rec in run_anc(anc, algos)[0]] == list(ALGORITHMS)
        for spec in algos:
            with pytest.raises(AssertionError, match="checked a layout"):
                run_public_steps(spec, np.eye(4), np.ones(4), kernel_sigma=1.0)
    cfg = default_algorithms(4, ("iwf",))[0].config
    with pytest.raises(AssertionError, match="checked a layout"):
        filters.correlation_update(filters.filter_init(cfg), cfg, np.ones(4), 0.5, 1.0)


def test_driver_calls_the_cores_with_their_signatures(monkeypatch):
    """The driver calls ``_dcd_step`` with state, config, row, d, weighting
    and ``checked=False``, and ``_vss_steps`` and ``_dcd_batch_step`` each
    with the batch, the runs' sample and the step index, so a tracer that
    wraps them sees each call as the core receives it."""
    calls = set()

    def recording(name):
        core = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls.add((name, len(args), tuple(kwargs)))
            return core(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    for name in CORES:
        recording(name)
    for runs in (2, harness._DCD_BATCH_MIN_RUNS):
        sc = make_sysid_scenario(length=4, horizon=_BLOCK + 5, mc_runs=runs, seed=5)
        run_sysid(sc, default_algorithms(4))
    assert calls == {("_vss_steps", 3, ()), ("_dcd_step", 6, ()), ("_dcd_batch_step", 3, ())}


def test_trusted_cores_do_no_counting():
    """The cores, the weighting and the solve are arithmetic only: the cost
    model lives in ``counting``, and the public steps and solve and the
    driver price what the cores and the solve return."""
    for fn in (filters._vss_step, filters._dcd_step, filters._weigh, filters._correlation_update, dcd._dcd_solve):
        assert "ops" not in inspect.getsource(fn), fn.__name__


def _kind_comparisons(package: Path) -> list[str]:
    """Where a module of ``package`` compares a value with a kind name by
    ``==``, ``!=``, ``in``, ``not in`` or a ``match`` case: the kind table and the
    nominal-cost table are meant to be the only places a kind name is
    read."""
    kinds = set(harness.ALGORITHMS) | set(harness._NOMINAL)

    def names_a_kind(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_kind, node.elts))
        return isinstance(node, ast.Constant) and node.value in kinds

    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                if any(map(names_a_kind, [node.left, *node.comparators])):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.MatchValue) and names_a_kind(node.value):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_function_compares_a_kind_name():
    """Each kind resolves to its solver and weighting through
    ``harness._KINDS``, and its nominal cost through ``harness._NOMINAL``;
    no function tells the kinds apart by name."""
    assert _kind_comparisons(Path(harness.__file__).parent) == []


def test_every_finiteness_test_goes_through_the_one_helper():
    """No module calls ``np.isfinite(...).all()``: every whole-array
    finiteness test is ``dcd._all_finite``, exact and half the cost."""
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "all"
                    and isinstance(node.func.value, ast.Call)
                    and ast.unparse(node.func.value.func) in ("np.isfinite", "numpy.isfinite")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_filter_or_solver_product_uses_the_matmul_operator():
    """``filters`` and ``dcd`` hold no ``@``: the scalar cores take their
    products with ``ndarray.dot``, which skips the dispatch of the
    ``matmul`` gufunc and keeps a step's bits independent of the layout of
    ``x``, and the batched cores name their ``np.matmul`` and
    ``np.vecdot`` calls."""
    package = Path(harness.__file__).parent
    found = [
        f"{name}:{node.lineno}"
        for name in ("filters.py", "dcd.py")
        for node in ast.walk(ast.parse((package / name).read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert found == []


def test_every_scalar_parameter_check_goes_through_the_one_module():
    """No module but ``_checks`` tests ``isinstance(v, int)`` or
    ``isinstance(v, (int, float))``: ``check_int`` and ``check_real`` alone
    say what an integer and a real parameter are, ``bool`` excluded."""
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                names = {ast.unparse(e) for e in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds])}
                if names in ({"int"}, {"int", "float"}):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("horizon", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])
def test_run_sysid_dense_constant_matches_public_steps(horizon):
    """Dense-mode coordinate descent under the constant leakage schedule,
    across the block edges of the driver's finiteness check."""
    sc = make_sysid_scenario(length=5, horizon=horizon, mc_runs=2, seed=29)
    algos = default_algorithms(5, dcd_update="dense", delta_schedule="constant")
    for rec, expected in zip(run_sysid(sc, algos), sysid_nmsd_reference(sc, algos)):
        assert np.array_equal(rec.nmsd_db, expected), rec.algorithm


def _huge_regressors(u, length):
    return 1e160 * regressors(u, length)


@pytest.mark.parametrize("kind", ["iwf", "dcd_ase"])
def test_run_sysid_overflow_raises_the_block_error(monkeypatch, kind):
    """Regressors near 1e160 overflow R (x x^T passes 1e308).  The driver
    reports it once, at the end of the first block, naming the algorithm,
    the run and the block."""
    monkeypatch.setattr(harness, "regressors", _huge_regressors)
    sc = make_sysid_scenario(length=4, horizon=3 * _BLOCK, mc_runs=2, seed=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FilterError, match=rf"^{kind}: run 0: .*non-finite in the block of samples 0 to 63$"):
            run_sysid(sc, default_algorithms(4, (kind,)))


@pytest.mark.parametrize("kind", ["iwf", "dcd_ase"])
def test_run_anc_overflow_raises_the_block_error(kind):
    rng = np.random.default_rng(8)
    reference = 1e160 * rng.standard_normal(200)
    anc = AncSpec(horizon=1, mc_runs=1, seed=0, primary=0.5 * reference, reference=reference)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FilterError, match=rf"^{kind}: run 0: .*block of samples 0 to 63$"):
            run_anc(anc, default_algorithms(5, (kind,)))


@pytest.mark.parametrize("bad", ["x-nan", "x-shape", "d-inf", "d-shape"])
def test_bad_draw_is_rejected_before_any_step(monkeypatch, bad):
    def no_step(*args):
        pytest.fail("a filter step ran")

    for core in CORES:
        monkeypatch.setattr(harness, core, no_step)
    x_rows, d = np.ones((30, 3)), np.ones(30)
    if bad == "x-nan":
        x_rows[5, 1] = np.nan
    elif bad == "x-shape":
        x_rows = np.ones((30, 4))
    elif bad == "d-inf":
        d[29] = np.inf
    else:
        d = np.ones(29)
    with pytest.raises(ValueError):
        harness._paired_runs(
            default_algorithms(3), 3, 30, 1, 0.0, lambda run: (x_rows, d, 0.0), None
        )


def test_dcd_spec_without_solver_fails_before_any_step(monkeypatch):
    def no_step(*args):
        pytest.fail("a filter step ran")

    for core in CORES:
        monkeypatch.setattr(harness, core, no_step)
    spec = default_algorithms(4, kinds=("dcd_ase",))[0]
    bare = AlgoSpec(kind="dcd_ase", config=dataclasses.replace(spec.config, dcd=None))
    sc = make_sysid_scenario(length=4, horizon=20, mc_runs=1, seed=1)
    with pytest.raises(FilterError, match="requires FilterConfig.dcd"):
        run_sysid(sc, [bare])

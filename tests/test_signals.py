"""Generator and waveform-IO tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asefilt.signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
    background_variance,
    gen_background,
    gen_bg_noise,
    gen_pd_pulses,
    gen_system,
    iir_shape,
    load_waveform,
    regressors,
    save_waveform,
    write_csv,
)

from oracles import csv_text_reference, regressors_reference


def test_gen_system_unit_norm_and_deterministic():
    w1 = gen_system(10, 77)
    w2 = gen_system(10, 77)
    w3 = gen_system(10, 78)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    assert np.linalg.norm(w1) == pytest.approx(1.0, abs=1e-12)


def test_bg_noise_statistics():
    spec = BgNoiseSpec(p_r=0.1, sigma2=4.0)
    x = gen_bg_noise(200_000, spec, 5)
    nz = x != 0.0
    assert nz.mean() == pytest.approx(0.1, abs=0.01)
    assert x[nz].var() == pytest.approx(4.0, rel=0.1)


def test_bg_noise_zero_probability():
    spec = BgNoiseSpec(p_r=0.0, sigma2=4.0)
    assert np.array_equal(gen_bg_noise(500, spec, 1), np.zeros(500))


def test_bg_noise_spec_validation():
    with pytest.raises(ValueError):
        BgNoiseSpec(p_r=1.5, sigma2=1.0)
    with pytest.raises(ValueError):
        BgNoiseSpec(p_r=0.1, sigma2=-1.0)


def test_background_variance_tracks_snr():
    # SNR = 0 dB and unit signal power -> unit noise variance
    x = gen_background(100_000, 0.0, 1.0, 9)
    assert x.var() == pytest.approx(1.0, rel=0.05)
    # 10 dB down
    y = gen_background(100_000, 10.0, 1.0, 9)
    assert y.var() == pytest.approx(0.1, rel=0.05)


def test_background_variance_that_is_not_finite_is_rejected():
    """A very low snr_db raises ValueError, whether the power of ten or the
    product with the signal power overflows; a finite variance keeps the formula."""
    assert background_variance(-3000.0, 2.0) == 2.0 * 10.0 ** 300.0
    for snr_db, power in ((-3100.0, 1.0), (-3080.0, 10.0)):
        with pytest.raises(ValueError, match="is too low"):
            gen_background(10, snr_db, power, 0)
    with pytest.raises(ValueError, match="is too low"):
        ScenarioSpec(system_taps=np.full(4, 5.0), horizon=10, mc_runs=1, seed=1, snr_db=-3080.0)


def test_iir_shape_hand_values():
    y = iir_shape(np.array([1.0, 2.0, 3.0]), 0.2)
    assert np.allclose(y, [1.0, 1.8, 2.6], atol=1e-15)


def test_iir_shape_single_sample_passthrough():
    assert np.array_equal(iir_shape(np.array([5.0]), 0.3), np.array([5.0]))


def test_pd_pulse_peak_equals_amplitude():
    pulse = PdPulseSpec(amplitude=10.0)
    # rate low enough (with this seed) that pulses never overlap
    y = gen_pd_pulses(50_000, 0.0005, 13, pulse)
    assert np.count_nonzero(y) > 0
    assert np.abs(y).max() == pytest.approx(10.0, rel=1e-12)


def test_pd_pulses_deterministic_and_empty_at_zero_rate():
    pulse = PdPulseSpec()
    a = gen_pd_pulses(2000, 0.01, 3, pulse)
    b = gen_pd_pulses(2000, 0.01, 3, pulse)
    assert np.array_equal(a, b)
    assert np.array_equal(gen_pd_pulses(2000, 0.0, 3, pulse), np.zeros(2000))


def test_pd_pulse_spec_validation():
    with pytest.raises(ValueError):
        PdPulseSpec(amplitude=0.0)
    with pytest.raises(ValueError):
        PdPulseSpec(freq=0.6)
    with pytest.raises(ValueError):
        PdPulseSpec(length=1)


@pytest.mark.parametrize("decay", [0.0, -1.0, np.nan, np.inf])
def test_pd_pulse_spec_rejects_a_decay_that_is_not_positive(decay):
    with pytest.raises(ValueError, match="decay must be positive"):
        PdPulseSpec(decay=float(decay))


@pytest.mark.parametrize("kwargs", [{"decay": 1e-3}, {"decay": 1e-320}, {"freq": 1e-320}])
def test_pd_pulse_spec_rejects_a_template_it_cannot_scale(kwargs):
    """decay=1e-3 underflows every sample after t=0 to 0, and sin(0) is 0,
    so the template is all zeros, as it is for decay=1e-320, where -t /
    decay overflows to -inf without a numpy warning; freq=1e-320 leaves a
    subnormal peak whose scale to the amplitude overflows."""
    with pytest.raises(ValueError, match=r"^decay .* and freq .* give a pulse template too small"):
        PdPulseSpec(**kwargs)


def test_regressors_tapped_delay_line():
    x = regressors(np.array([1.0, 2.0, 3.0]), 2)
    assert np.array_equal(x, np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]]))


def test_regressors_window_longer_than_signal():
    x = regressors(np.array([4.0]), 3)
    assert np.array_equal(x, np.array([[4.0, 0.0, 0.0]]))
    x = regressors(np.array([1.0, 2.0]), 4)
    assert np.array_equal(x, np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]]))
    x = regressors(np.array([1.0, 2.0, 3.0]), 6)
    assert np.array_equal(x[:, :3], np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [3.0, 2.0, 1.0]]))
    assert x.shape == (3, 6) and not x[:, 3:].any()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(0, 40), length=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
@example(n=2000, length=256, seed=5)
@example(n=0, length=1, seed=0)
def test_regressors_match_the_column_loop_byte_for_byte(n, length, seed):
    """The strided copy of the zero-padded signal equals the column-by-column
    fill byte for byte, for signals shorter than the window and empty ones
    too; signed zeros and subnormals pass through as they are."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * rng.choice([0.0, -0.0, 5e-324, 1.0, 1e300], n)
    got, expected = regressors(x, length), regressors_reference(x, length)
    assert got.shape == expected.shape == (n, length)
    assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()


def test_waveform_roundtrip_exact(tmp_path):
    path = tmp_path / "wave.csv"
    y = np.random.default_rng(4).standard_normal(257)
    save_waveform(path, y)
    back = load_waveform(path)
    assert np.array_equal(back, y)
    header = path.read_text().splitlines()[0]
    assert header == "index,value"


def test_write_csv_matches_per_cell_formatting(tmp_path):
    """Column-wise formatting writes what formatting one cell at a time
    writes, for float, integer, string and mixed columns."""
    header = ["i", "name", "x", "i64", "mixed"]
    rows = [
        [0, "a", 1.5, np.int64(-3), 3],
        [1, "b", -0.0, np.int64(0), 0.0],
        [2, "c", float("nan"), np.int64(2**53 + 1), np.float64(-2.25)],
        [3, "", np.float64(1e-300), np.int64(7), True],
        [4, "d", float("inf"), np.int64(8), "s"],
        [5, "e", -float("inf"), np.int64(9), np.int64(7)],
        [6, "f", 0.1 + 0.2, np.int64(10), -0.0],
    ]
    # Over several chunks of rows, one column pure in some and mixed in others.
    long_rows = [[i, "x", i / 3, np.int64(i), i / 7] for i in range(2500)] + rows
    path = tmp_path / "t.csv"
    for table in (rows, long_rows):
        for fmt in (".17g", ".12g"):
            write_csv(path, header, iter(table), fmt)
            assert path.read_text() == csv_text_reference(header, table, fmt)
    write_csv(path, header, [], ".17g")
    assert path.read_text() == "i,name,x,i64,mixed\n"
    with pytest.raises(ValueError):
        write_csv(path, header, [[1, "a", 1.0, 2]], ".17g")


def test_load_waveform_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_waveform(tmp_path / "nope.csv")


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(system_taps=np.zeros(0), horizon=10, mc_runs=1, seed=1)
    with pytest.raises(ValueError):
        ScenarioSpec(system_taps=np.ones(3), horizon=0, mc_runs=1, seed=1)
    with pytest.raises(ValueError):
        ScenarioSpec(system_taps=np.ones(3), horizon=10, mc_runs=0, seed=1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"system_taps": np.zeros(3)}, "must not be all zero"),
        ({"snr_db": np.nan}, "snr_db must be finite"),
        ({"snr_db": np.inf}, "snr_db must be finite"),
        ({"snr_db": -np.inf}, "snr_db must be finite"),
    ],
)
def test_scenario_spec_rejects_silent_taps_and_a_nonfinite_snr(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ScenarioSpec(**{"system_taps": np.ones(3), "horizon": 10, "mc_runs": 1, "seed": 1, **kwargs})


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: gen_system(0, 1), "length must be a positive integer"),
        (lambda: gen_system(3.0, 1), "length must be a positive integer"),
        (lambda: gen_bg_noise(-1, BgNoiseSpec(0.1, 1.0), 1), "n must be a nonnegative integer"),
        (lambda: gen_bg_noise(2.0, BgNoiseSpec(0.1, 1.0), 1), "n must be a nonnegative integer"),
        (lambda: gen_background(-1, 0.0, 1.0, 1), "n must be a nonnegative integer"),
        (lambda: gen_background(10, 0.0, 0.0, 1), "signal_power must be positive"),
        (lambda: gen_background(10, 0.0, np.inf, 1), "signal_power must be positive"),
        (lambda: gen_background(10, np.nan, 1.0, 1), r"^snr_db must be finite, got nan$"),
        (lambda: gen_background(10, np.inf, 1.0, 1), r"^snr_db must be finite, got inf$"),
        (lambda: gen_background(10, -np.inf, 1.0, 1), r"^snr_db must be finite, got -inf$"),
        (lambda: gen_pd_pulses(-1, 0.1, 1), "n must be a nonnegative integer"),
        (lambda: gen_pd_pulses(10, 1.5, 1), r"pulse_rate must lie in \[0, 1\]"),
        (lambda: gen_pd_pulses(10, -0.1, 1), r"pulse_rate must lie in \[0, 1\]"),
        (lambda: regressors(np.ones(4), 0), "length must be a positive integer"),
        (lambda: regressors(np.ones((2, 2)), 2), "x must be a vector"),
        (lambda: regressors(np.float64(1.0), 2), "x must be a vector"),
        (lambda: iir_shape(np.ones((2, 2))), "x must be a vector"),
        (lambda: iir_shape(np.float64(1.0)), "x must be a vector"),
        (lambda: iir_shape(np.ones(3), np.nan), r"^a1 must be finite, got nan$"),
        (lambda: iir_shape(np.ones(3), "x"), r"^a1 must be finite, got 'x'$"),
    ],
)
def test_generators_reject_bad_sizes_and_rates(call, match):
    with pytest.raises(ValueError, match=match):
        call()

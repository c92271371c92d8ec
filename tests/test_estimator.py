"""Unit tests for the saturating error-weighting functions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asefilt import AseParams, FilterConfig, ase_cost, ase_score, ase_weight, filter_init, iwf_ase_step


def test_params_validation():
    with pytest.raises(ValueError):
        AseParams(0.0)
    with pytest.raises(ValueError):
        AseParams(-1.0)
    with pytest.raises(ValueError):
        AseParams(1.0, zeta=0.0)
    with pytest.raises(ValueError):
        AseParams(float("nan"))


def test_cutoff_is_pi_c():
    p = AseParams(2.5)
    assert p.cutoff == pytest.approx(math.pi * 2.5, rel=0, abs=0)


def test_cutoff_is_set_with_the_params():
    """The cutoff is computed once, at construction, as exactly pi * c:
    replace() recomputes it, and it is no dataclass field, so equality,
    hashing and repr see c and zeta only."""
    p = AseParams(2.5, zeta=1e-3)
    assert vars(p)["cutoff"] == math.pi * 2.5
    assert dataclasses.replace(p, c=0.7).cutoff == math.pi * 0.7
    assert p.cutoff == math.pi * 2.5
    assert [f.name for f in dataclasses.fields(p)] == ["c", "zeta"]
    twin = AseParams(2.5, zeta=1e-3)
    object.__setattr__(twin, "cutoff", 0.0)
    assert twin == p and hash(twin) == hash(p)
    assert repr(p) == "AseParams(c=2.5, zeta=0.001)"


def test_cost_frozen_value():
    # 4 sin^2(1 / (2*1)) evaluated once by hand and pinned.
    p = AseParams(1.0)
    assert ase_cost(1.0, p) == pytest.approx(0.9193953882637206, abs=1e-15)


def test_weight_frozen_value():
    # 2 sin(1) / (1 + 1e-4), pinned.
    p = AseParams(1.0)
    assert ase_weight(1.0, p) == pytest.approx(1.6827736922465684, abs=1e-15)


def test_cost_saturates_beyond_cutoff():
    p = AseParams(0.7)
    for e in (p.cutoff, p.cutoff + 1e-9, 10.0, 1e6, -p.cutoff, -123.0):
        assert ase_cost(e, p) == 4.0


def test_cost_even_and_nonnegative():
    p = AseParams(1.3)
    grid = np.linspace(-10, 10, 401)
    vals = np.array([ase_cost(e, p) for e in grid])
    flipped = np.array([ase_cost(-e, p) for e in grid])
    assert np.all(vals >= 0.0)
    assert np.allclose(vals, flipped, rtol=0, atol=0)
    assert ase_cost(0.0, p) == 0.0


def test_cost_quadratic_near_zero():
    # 4 sin^2(e/2c) ~ e^2/c^2 for small e
    p = AseParams(2.0)
    for e in (1e-4, -2e-4, 5e-5):
        assert ase_cost(e, p) == pytest.approx(e * e / 4.0, rel=1e-6)


def test_score_is_derivative_of_cost():
    # central finite difference, avoiding the kink at |e| = pi c
    for c in (0.5, 1.0, 2.0, 5.0):
        p = AseParams(c)
        h = 1e-6
        grid = np.linspace(-1.8 * p.cutoff, 1.8 * p.cutoff, 777)
        for e in grid:
            if abs(abs(e) - p.cutoff) < 1e-3:
                continue
            fd = (ase_cost(e + h, p) - ase_cost(e - h, p)) / (2 * h)
            assert ase_score(e, p) == pytest.approx(fd, abs=1e-5)


def test_score_zero_outside_cutoff():
    p = AseParams(1.0)
    assert ase_score(p.cutoff + 1e-12, p) == 0.0
    assert ase_score(-50.0, p) == 0.0


def test_score_odd():
    p = AseParams(0.9)
    for e in (0.1, 0.5, 2.0, 2.8):
        assert ase_score(-e, p) == pytest.approx(-ase_score(e, p), abs=1e-15)


def test_weight_even_nonnegative_and_zero_outside():
    p = AseParams(1.5)
    grid = np.linspace(-12, 12, 601)
    for e in grid:
        w = ase_weight(e, p)
        assert w >= 0.0
        assert w == pytest.approx(ase_weight(-e, p), abs=1e-15)
        if abs(e) > p.cutoff:
            assert w == 0.0


def test_weight_at_zero_error():
    p = AseParams(1.0)
    assert ase_weight(0.0, p) == 0.0


def test_weight_denominator_guard_sign():
    # the guard takes the sign of the error, so the weight stays bounded
    # and continuous through small |e| of either sign
    p = AseParams(1.0, zeta=1e-4)
    wp = ase_weight(1e-9, p)
    wn = ase_weight(-1e-9, p)
    assert wp == pytest.approx(wn, rel=1e-9)
    assert wp < 2.0 / p.c**2 + 1e-6


# e / c rounds just above pi at e = AseParams(C_NEGATIVE).cutoff, where the
# unclamped weight is -1.415e-15.
C_NEGATIVE = 0.3803647443400834


def _unclamped_weight(e: float, p: AseParams) -> float:
    return (2.0 / p.c) * math.sin(e / p.c) / (e + (p.zeta if e >= 0.0 else -p.zeta))


def test_weight_at_the_cutoff_is_clamped_to_zero():
    """A sample exactly at the cutoff is applied with weight 0.0, not with
    the negative weight the sine rounds to, so the public step, whose
    check rejects a negative weight, takes it."""
    p = AseParams(C_NEGATIVE)
    assert _unclamped_weight(p.cutoff, p) < 0.0
    assert ase_weight(p.cutoff, p) == 0.0 and ase_weight(-p.cutoff, p) == 0.0
    cfg = FilterConfig(length=2, lam=0.99, rho=0.1, ase=p)
    state = filter_init(cfg)
    state, out = iwf_ase_step(state, cfg, np.array([1.0, 0.0]), p.cutoff)
    assert out.prior_error == p.cutoff and out.applied
    assert np.array_equal(state.r_matrix, 0.99 * 0.1 * np.eye(2))  # weight 0: decay only


def test_weight_of_nan_is_nan():
    assert math.isnan(ase_weight(float("nan"), AseParams(2.0)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(c=st.floats(1e-3, 1e3), sign=st.sampled_from([1.0, -1.0]))
def test_weight_at_the_cutoff_is_never_negative(c, sign):
    """At e = +-cutoff the weight is the sine formula's where that is not
    negative, and 0.0 where it is."""
    p = AseParams(c)
    e = sign * p.cutoff
    assert ase_weight(e, p) == max(_unclamped_weight(e, p), 0.0)

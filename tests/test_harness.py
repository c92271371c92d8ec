"""Experiment-harness tests: metrics, operation accounting, and the two
experiment drivers at toy scale."""

import numpy as np
import pytest

from asefilt import DcdParams
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


def test_random_spd_system_properties():
    a, x, b = random_spd_system(8, 50.0, 3)
    assert np.allclose(a, a.T, atol=1e-12)
    ev = np.linalg.eigvalsh(a)
    assert ev[0] > 0
    assert ev[-1] / ev[0] == pytest.approx(50.0, rel=1e-10)
    assert np.allclose(a @ x, b, atol=1e-12)
    a2, _, _ = random_spd_system(8, 50.0, 3)
    assert np.array_equal(a, a2)


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
    sc = make_sysid_scenario(length=4, horizon=60, mc_runs=1, seed=2)
    recs = run_sysid(sc, default_algorithms(4), instrument=True)
    for r in recs:
        assert r.op_counts is not None
        assert r.op_counts.mults > 0
        assert r.op_counts.adds > 0
    plain = run_sysid(sc, default_algorithms(4))
    assert all(r.op_counts is None for r in plain)


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


def test_algo_spec_labels():
    spec = default_algorithms(4, kinds=("iwf",))[0]
    assert spec.name == "iwf"
    labeled = AlgoSpec(kind="iwf", config=spec.config, label="baseline")
    assert labeled.name == "baseline"

"""Acceptance gate: eight behavioral criteria with pinned tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured
numbers (bypassing capture so the verdicts are always visible), then
asserts.  The heavyweight Monte Carlo scenarios are computed once per
module and shared.
"""

import math
import time

import numpy as np
import pytest

from asefilt import AseParams, DcdParams, ase_cost, ase_score, dcd_solve
from asefilt.cli import main as cli_main
from asefilt.filters import filter_init, iwf_ase_step
from asefilt.harness import (
    AncSpec,
    count_ops,
    default_algorithms,
    make_sysid_scenario,
    random_spd_system,
    run_anc,
    run_sysid,
    steady_state,
)
from asefilt.signals import gen_background, regressors
from oracles import rls_steady_nmsd_db

SEED = 20240923


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _r2(x, y, deg):
    coeffs = np.polyfit(x, y, deg)
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot


@pytest.fixture(scope="module")
def impulsive_runs():
    """Criterion 4/6 scenario: 100 paired Monte Carlo runs, horizon 5000."""
    scenario = make_sysid_scenario(
        length=10,
        horizon=5000,
        mc_runs=100,
        seed=SEED,
        snr_db=0.0,
        impulse_prob=0.1,
        impulse_var=1e4,
    )
    algos = default_algorithms(10, lam=0.999, rho=1e-4, c=2.0, h=2.0, m_bits=8, n_updates=8)
    start = time.perf_counter()
    records = run_sysid(scenario, algos)
    elapsed = time.perf_counter() - start
    return {r.algorithm: r for r in records}, elapsed


@pytest.fixture(scope="module")
def gaussian_runs():
    """Criterion 5/6 scenario: impulses disabled, wide cutoff."""
    scenario = make_sysid_scenario(
        length=10, horizon=5000, mc_runs=50, seed=SEED, with_impulses=False
    )
    algos = default_algorithms(10, kinds=("iwf", "iwf_ase"), c=20.0)
    start = time.perf_counter()
    records = run_sysid(scenario, algos)
    elapsed = time.perf_counter() - start
    return {r.algorithm: r for r in records}, elapsed


def test_criterion_1_score_is_cost_derivative(capsys):
    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 5.0):
        p = AseParams(c)
        grid = np.linspace(-2 * p.cutoff, 2 * p.cutoff, 1000)
        for e in grid:
            if abs(abs(e) - p.cutoff) < 1e-3:
                continue
            fd = (ase_cost(e + h, p) - ase_cost(e - h, p)) / (2 * h)
            worst = max(worst, abs(ase_score(e, p) - fd))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 1.0
    _report(capsys, 1, ok, f"max |score - FD(cost)| = {worst:.2e} (tol 1e-05), {elapsed:.2f} s")
    assert ok


def test_criterion_2_dcd_matches_dense_solver(capsys):
    start = time.perf_counter()
    worst_err_rel = 0.0
    worst_book = 0.0
    for i in range(100):
        rng = np.random.default_rng([SEED, 7, i])
        cond = 2.0 * (25.0 / 2.0) ** rng.random()  # spread over [2, 25]
        matrix, x_true, rhs = random_spd_system(10, cond, [SEED, 8, i])
        h = 2.0 ** math.ceil(math.log2(2.0 * float(np.max(np.abs(x_true)))))
        params = DcdParams(h=h, m_bits=16, n_updates=640)
        res = dcd_solve(matrix, rhs, params)
        err = float(np.max(np.abs(res.delta_w - x_true)))
        worst_err_rel = max(worst_err_rel, err / (10 * h * 2.0**-16))
        book = float(np.max(np.abs((rhs - matrix @ res.delta_w) - res.residual_out)))
        worst_book = max(worst_book, book)
    elapsed = time.perf_counter() - start
    ok = worst_err_rel <= 1.0 and worst_book <= 1e-12 and elapsed < 5.0
    _report(
        capsys,
        2,
        ok,
        f"worst err = {worst_err_rel:.2f}x the 10*H*2^-16 tolerance, "
        f"residual bookkeeping {worst_book:.1e} (tol 1e-12), {elapsed:.2f} s",
    )
    assert ok


def test_criterion_3_operation_accounting(capsys):
    start = time.perf_counter()
    dcd = DcdParams(h=2.0, m_bits=8, n_updates=8)
    nom_ia = count_ops("iwf_ase", 10)
    nom_dcd = count_ops("dcd_ase", 10, dcd)
    nominal_ok = (nom_ia.adds, nom_ia.mults) == (340, 433) and (
        nom_dcd.adds,
        nom_dcd.mults,
    ) == (199, 76)

    lengths = np.array([8, 16, 32, 64], dtype=float)
    measured = {"iwf_ase": [], "dcd_ase": []}
    for length in (8, 16, 32, 64):
        sc = make_sysid_scenario(length=length, horizon=1500, mc_runs=2, seed=SEED)
        recs = run_sysid(sc, default_algorithms(length, kinds=("iwf_ase", "dcd_ase")))
        for r in recs:
            measured[r.algorithm].append(r.op_counts.mults)
    r2_dcd_lin = _r2(lengths, np.array(measured["dcd_ase"]), 1)
    r2_ia_lin = _r2(lengths, np.array(measured["iwf_ase"]), 1)
    r2_ia_quad = _r2(lengths, np.array(measured["iwf_ase"]), 2)
    elapsed = time.perf_counter() - start
    scaling_ok = r2_dcd_lin > 0.99 and r2_ia_quad > 0.999 and r2_ia_lin < 0.99
    ok = nominal_ok and scaling_ok and elapsed < 30.0
    _report(
        capsys,
        3,
        ok,
        f"nominal counts {'match' if nominal_ok else 'WRONG'}; measured multiply fits: "
        f"dcd_ase linear R2={r2_dcd_lin:.4f} (>0.99), iwf_ase linear R2={r2_ia_lin:.4f} "
        f"quad R2={r2_ia_quad:.4f}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_4_impulsive_robustness(capsys, impulsive_runs):
    records, elapsed = impulsive_runs
    s = {name: steady_state(rec.nmsd_db) for name, rec in records.items()}
    gap_ok = s["iwf_ase"] <= s["iwf"] - 10.0
    dcd_ok = abs(s["dcd_ase"] - s["iwf_ase"]) <= 3.0
    rmcc_ok = max(s["iwf_ase"], s["dcd_ase"]) < s["rmcc"] < s["iwf"]
    ok = gap_ok and dcd_ok and rmcc_ok and elapsed < 180.0
    _report(
        capsys,
        4,
        ok,
        "steady NMSD (dB): iwf=%.2f iwf_ase=%.2f dcd_ase=%.2f rmcc=%.2f, %.0f s"
        % (s["iwf"], s["iwf_ase"], s["dcd_ase"], s["rmcc"], elapsed),
    )
    assert ok


def test_criterion_5_gaussian_sanity(capsys, gaussian_runs):
    records, elapsed = gaussian_runs
    s_iwf = steady_state(records["iwf"].nmsd_db)
    s_ia = steady_state(records["iwf_ase"].nmsd_db)
    within = abs(s_ia - s_iwf) <= 1.0

    # dense weighted-LS comparison on one run of the same scenario
    start = time.perf_counter()
    cfg = default_algorithms(10, kinds=("iwf_ase",), c=20.0)[0].config
    scenario = make_sysid_scenario(length=10, horizon=5000, mc_runs=1, seed=SEED, with_impulses=False)
    base = scenario.seed ^ 0
    u = np.random.default_rng([base, 1]).standard_normal(scenario.horizon)
    xs = regressors(u, 10)
    power = float(scenario.system_taps @ scenario.system_taps)
    d = xs @ scenario.system_taps + gen_background(scenario.horizon, 0.0, power, [base, 2])
    st = filter_init(cfg)
    for t in range(scenario.horizon):
        iwf_ase_step(st, cfg, xs[t], float(d[t]))
    dist = float(np.linalg.norm(st.w - np.linalg.solve(st.r_matrix, st.theta)))
    elapsed_total = elapsed + time.perf_counter() - start
    ok = within and dist <= 1e-2 and elapsed_total < 60.0
    _report(
        capsys,
        5,
        ok,
        f"steady NMSD iwf={s_iwf:.2f} dB vs iwf_ase={s_ia:.2f} dB (|diff| <= 1), "
        f"||w - dense LS|| = {dist:.1e} (tol 1e-2), {elapsed_total:.0f} s",
    )
    assert ok


def test_criterion_6_update_ratio(capsys, impulsive_runs, gaussian_runs):
    impulsive, _ = impulsive_runs
    gaussian, _ = gaussian_runs
    ur_impulsive = steady_state(impulsive["iwf_ase"].applied_rate)
    ur_gaussian = steady_state(gaussian["iwf_ase"].applied_rate)
    ok = 0.85 <= ur_impulsive <= 0.95 and ur_gaussian == 1.0
    _report(
        capsys,
        6,
        ok,
        f"steady update ratio: impulsive scenario {ur_impulsive:.4f} (in [0.85, 0.95]), "
        f"clean scenario {ur_gaussian} (== 1.0 exactly)",
    )
    assert ok


def test_steady_state_follows_rls_theory(impulsive_runs, gaussian_runs):
    """Both fixtures' steady NMSD lies within 0.35 dB of the RLS line at
    L = 10 and lambda = 0.999: ``iwf`` takes in the background (variance 1
    at 0 dB SNR on the unit-norm plant) and the impulses (0.1 * 1e4),
    ``iwf_ase`` the background alone at its steady applied rate, and in the
    Gaussian scenario both take in the background on every sample."""
    impulsive, _ = impulsive_runs
    gaussian, _ = gaussian_runs
    rate = steady_state(impulsive["iwf_ase"].applied_rate)
    cases = [
        (impulsive["iwf"], 1.0 + 0.1 * 1e4, 1.0),
        (impulsive["iwf_ase"], 1.0, rate),
        (gaussian["iwf"], 1.0, 1.0),
        (gaussian["iwf_ase"], 1.0, 1.0),
    ]
    for rec, noise_var, p in cases:
        predicted = rls_steady_nmsd_db(10, 0.999, noise_var, p)
        assert abs(steady_state(rec.nmsd_db) - predicted) <= 0.35, (rec.algorithm, predicted)


def test_criterion_7_anc(capsys):
    start = time.perf_counter()
    anc = AncSpec(horizon=20000, mc_runs=5, seed=SEED)
    algos = default_algorithms(5, kinds=("iwf", "iwf_ase", "dcd_ase"))
    records, waves = run_anc(anc, algos)
    steady = {
        r.algorithm: steady_state(10 * np.log10(np.maximum(r.mse, 1e-40))) for r in records
    }
    gap_ia = steady["iwf"] - steady["iwf_ase"]
    gap_dcd = steady["iwf"] - steady["dcd_ase"]

    clean = waves["clean"]
    nz = np.flatnonzero(clean != 0.0)
    segments = np.split(nz, np.flatnonzero(np.diff(nz) > 1) + 1)
    retention = {"iwf_ase": [], "dcd_ase": []}
    for seg in segments:
        if seg[0] < 0.3 * anc.horizon:
            continue  # let the filters converge first
        k = seg[np.argmax(np.abs(clean[seg]))]
        for name in retention:
            den = waves[f"denoised_{name}"]
            retention[name].append(abs(abs(den[k]) - abs(clean[k])) / abs(clean[k]))
    med_ia = float(np.median(retention["iwf_ase"]))
    med_dcd = float(np.median(retention["dcd_ase"]))
    elapsed = time.perf_counter() - start
    ok = (
        gap_ia >= 5.0
        and gap_dcd >= 5.0
        and len(retention["iwf_ase"]) >= 5
        and med_ia <= 0.2
        and med_dcd <= 0.2
        and elapsed < 60.0
    )
    _report(
        capsys,
        7,
        ok,
        f"steady MSE gaps vs iwf: iwf_ase {gap_ia:.1f} dB, dcd_ase {gap_dcd:.1f} dB (>= 5); "
        f"median peak error iwf_ase {med_ia:.3f}, dcd_ase {med_dcd:.3f} (<= 0.2) over "
        f"{len(retention['iwf_ase'])} pulses, {elapsed:.0f} s",
    )
    assert ok


def test_criterion_8_reproducible_outputs(capsys, tmp_path):
    invocations = [
        ("sysid", "--horizon", "400", "--runs", "2", "--seed", str(SEED)),
        ("anc", "--horizon", "1500", "--runs", "1", "--algos", "iwf,iwf_ase"),
        ("dcd-bench", "--systems", "4", "--embedded-runs", "1", "--embedded-horizon", "200"),
        ("sweep", "--param", "c", "--values", "2,20", "--horizon", "300", "--runs", "1"),
    ]
    all_same = True
    checked = 0
    for idx, args in enumerate(invocations):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        assert cli_main([*args, "--out", str(a)]) == 0
        assert cli_main([*args, "--out", str(b)]) == 0
        for csv_a in sorted(a.glob("*.csv")):
            csv_b = b / csv_a.name
            checked += 1
            if csv_a.read_bytes() != csv_b.read_bytes():
                all_same = False
    ok = all_same and checked >= 10
    _report(
        capsys,
        8,
        ok,
        f"{checked} CSV files compared byte-for-byte across repeated runs of "
        f"all four subcommands: {'identical' if all_same else 'DIFFER'}",
    )
    assert ok

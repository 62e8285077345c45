"""Acceptance gate: one test per shipping criterion.

Each test prints (and logs for the terminal summary) a single
``ACCEPTANCE NN name: PASS|FAIL`` line before asserting, so a failing
criterion is still visible as an explicit FAIL line rather than only a
traceback.  Tolerances are part of the contract and are pinned literally
in the asserts.
"""

import json
import time

import numpy as np
import pytest

import acceptance_log
from clustergauss import (
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    CubicConfig,
    ErrorSurfaceSpec,
    SimConfig,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    bloch_messiah,
    check_arbitrariness,
    cz_matrix,
    error_surface,
    error_vector_gaussian,
    error_vector_raw,
    gain_surface,
    linearization_check,
    max_weight,
    run,
    sample_targets,
    solve_phases,
)
from clustergauss.cli import main as cli_main

WEIGHT_SETS = ((1.0, 1.0, 1.0, 1.0), (5.0, 5.0, 4.0, 4.0), (5.0, 5.0, 5.0, 5.0))
THETA_SET = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6)
SQZ_15 = SqueezingSpec.from_db(-15.0)
# 12*gamma*I_m = 45 with the model estimate I_m = 3*gamma*alpha**2 = 37.5;
# the simulated mean photocurrent is 3*gamma*(alpha**2 + var_x).
OP_CUBIC = CubicConfig(gamma=0.1, alpha=np.sqrt(125.0))


def _default_grid(w, mode, cubic=None):
    return ErrorSurfaceSpec(
        b_range=(-5.0, 5.0), d_range=(-5.0, 5.0), nb=101, nd=101,
        w=w, mode=mode, cubic=cubic,
    )


def test_criterion_01_phase_solver_round_trip():
    start = time.monotonic()
    worst = 0.0
    for weights in WEIGHT_SETS:
        w = WeightConfig(*weights)
        for theta4p in THETA_SET:
            report = check_arbitrariness(w, theta4p, n_samples=1000, seed=11)
            assert report.all_ok, (weights, theta4p, report.failures[:3])
            worst = max(worst, report.max_residual)
    elapsed = time.monotonic() - start
    passed = worst <= 1e-9 and elapsed < 1.0
    print(acceptance_log.record(
        1, "phase-solver-round-trip", passed,
        f"max residual {worst:.3e}, {elapsed:.2f} s"))
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_error_formula_consistency():
    from clustergauss import DegenerateD, DenominatorPole

    a, b, c, d = sample_targets(1000, seed=11)
    worst = 0.0
    n_checked = 0
    for weights in WEIGHT_SETS:
        w = WeightConfig(*weights)
        for theta4p in THETA_SET:
            for k in range(1000):
                target = SymplecticTarget(a[k], b[k], c[k], d[k])
                try:
                    res = solve_phases(target, w, theta4p)
                    closed = error_vector_gaussian(target, w, theta4p)
                except (DegenerateD, DenominatorPole):
                    continue
                raw = error_vector_raw(res.phases, w)
                scale = max(1.0, closed.ex, closed.ey)
                worst = max(worst,
                            abs(raw.ex - closed.ex) / scale,
                            abs(raw.ey - closed.ey) / scale)
                n_checked += 1
    passed = worst <= 1e-9 and n_checked >= 14000
    print(acceptance_log.record(
        2, "error-formula-consistency", passed,
        f"max deviation {worst:.3e} over {n_checked} instances"))
    assert worst <= 1e-9
    assert n_checked >= 14000


def test_criterion_03_asymptotic_error_floor():
    w = WeightConfig(200.0, 200.0, 14.0, 14.0)
    rng = np.random.default_rng(5)
    worst_ex = 0.0
    worst_ey_dev = 0.0
    for _ in range(100):
        b = rng.uniform(2.0, 5.0) * rng.choice([-1.0, 1.0])
        d = rng.uniform(-5.0, 5.0)
        if abs(d) < 0.3:
            d = 0.3 if d >= 0 else -0.3
        a = 1.7
        c = (a * d - 1.0) / b
        target = SymplecticTarget(a, b, c, d)
        ev = error_vector_gaussian(target, w, np.pi / 2)
        worst_ex = max(worst_ex, ev.ex)
        worst_ey_dev = max(worst_ey_dev, abs(ev.ey - 1.0))
    passed = worst_ex <= 0.1 and worst_ey_dev <= 0.1
    print(acceptance_log.record(
        3, "high-weight-error-floor", passed,
        f"max ex {worst_ex:.4f}, max |ey-1| {worst_ey_dev:.4f}"))
    assert worst_ex <= 0.1
    assert worst_ey_dev <= 0.1


def test_criterion_04_weighted_beats_unweighted_cellwise():
    unweighted = error_surface(
        _default_grid(WeightConfig(1, 1, 1, 1), MODE_GAUSSIAN_FIXED))
    weighted = error_surface(
        _default_grid(WeightConfig(5, 5, 4, 4), MODE_GAUSSIAN_FIXED))
    same_mask = np.array_equal(
        np.isfinite(unweighted.err_inf), np.isfinite(weighted.err_inf))
    both = np.isfinite(unweighted.err_inf) & np.isfinite(weighted.err_inf)
    ordered = bool(np.all(
        weighted.err_inf[both] <= unweighted.err_inf[both] + 1e-12))
    passed = same_mask and ordered
    print(acceptance_log.record(
        4, "weighted-vs-unweighted-ordering", passed,
        f"{int(both.sum())} comparable cells"))
    assert same_mask
    assert ordered


def test_criterion_05_optimized_and_cubic_ordering():
    start = time.monotonic()
    w = WeightConfig(5, 5, 4, 4)
    fixed = error_surface(_default_grid(w, MODE_GAUSSIAN_FIXED))
    optimized = error_surface(_default_grid(w, MODE_GAUSSIAN_OPTIMIZED))
    cubic = error_surface(_default_grid(w, MODE_CUBIC_OPTIMIZED, OP_CUBIC))
    elapsed = time.monotonic() - start

    both_fo = np.isfinite(fixed.err_inf) & np.isfinite(optimized.err_inf)
    opt_le_fixed = bool(np.all(
        optimized.err_inf[both_fo] <= fixed.err_inf[both_fo] + 1e-12))
    both_oc = np.isfinite(optimized.err_inf) & np.isfinite(cubic.err_inf)
    cubic_le_opt = bool(np.all(
        cubic.err_inf[both_oc] <= optimized.err_inf[both_oc] + 1e-9))
    passed = opt_le_fixed and cubic_le_opt and elapsed < 60.0
    print(acceptance_log.record(
        5, "optimized-and-cubic-ordering", passed,
        f"three 101x101 surfaces in {elapsed:.2f} s"))
    assert opt_le_fixed
    assert cubic_le_opt
    assert elapsed < 60.0


def test_criterion_06_cz_reconstruction():
    rng = np.random.default_rng(0)
    worst = 0.0
    for g in rng.uniform(0.0, 10.0, 100):
        dec = bloch_messiah(float(g))
        worst = max(worst, float(np.max(np.abs(dec.product() - cz_matrix(g)))))
    s1 = bloch_messiah(1.0).s
    s1_dev = abs(s1 - (3.0 - np.sqrt(5.0)) / 2.0)
    passed = worst <= 1e-12 and s1_dev <= 1e-12
    print(acceptance_log.record(
        6, "cz-five-factor-reconstruction", passed,
        f"max residual {worst:.3e}, s(1) dev {s1_dev:.1e}"))
    assert worst <= 1e-12
    assert s1_dev <= 1e-12


def test_criterion_07_weight_bound():
    bound = max_weight(-15.0)
    dbs = np.linspace(-25.0, 0.0, 251)
    diffs = np.diff([max_weight(float(x)) for x in dbs])
    monotone = bool(np.all(diffs < 0.0))
    passed = 5.53 <= bound <= 5.55 and monotone
    print(acceptance_log.record(
        7, "admissible-weight-bound", passed, f"max_weight(-15) = {bound:.6f}"))
    assert 5.53 <= bound <= 5.55
    assert monotone


def test_criterion_08_monte_carlo_gaussian():
    start = time.monotonic()
    a, b, c, d = sample_targets(50, seed=88)
    rng = np.random.default_rng(8)
    thetas = rng.uniform(0.3, np.pi - 0.3, 50)
    worst = 0.0
    for k in range(50):
        target = SymplecticTarget(a[k], b[k], c[k], d[k])
        w = WeightConfig(*WEIGHT_SETS[k % 3])
        cfg = SimConfig(
            target=target, w=w, theta4p=float(thetas[k]), squeezing=SQZ_15,
            variant=VARIANT_GAUSSIAN, n_shots=100_000, seed=1000 + k,
        )
        s = run(cfg)
        worst = max(worst, float(np.max(np.abs(s.z_error_var))),
                    float(np.max(np.abs(s.z_mean))))
    elapsed = time.monotonic() - start
    passed = worst < 4.0 and elapsed < 300.0
    print(acceptance_log.record(
        8, "monte-carlo-gaussian-agreement", passed,
        f"worst |z| {worst:.2f} over 50 instances, {elapsed:.1f} s"))
    assert worst < 4.0
    assert elapsed < 300.0


def test_criterion_09_monte_carlo_cubic_operating_point():
    target = SymplecticTarget(1.2, 0.5, 0.3, (1.0 + 0.15) / 1.2)
    cfg = SimConfig(
        target=target, w=WeightConfig(5, 5, 4, 4), theta4p=np.pi / 2,
        squeezing=SQZ_15, variant=VARIANT_CUBIC, n_shots=100_000, seed=0,
        cubic=OP_CUBIC,
    )
    s = run(cfg)
    lin = linearization_check(cfg)

    # I_m = node2_x + y_s1/g1 + (terms linear in the zero-mean input), with
    # node2_x = -y_s2 + 3*gamma*(alpha + x_s2)**2 and x_s2 ~ N(0, var_x), so
    # E[I_m] = 3*gamma*(alpha**2 + var_x): the anti-squeezed spread adds
    # 3*gamma*var_x ~= 2.37 to the model estimate 37.5 at -15 dB.
    im_centre = 3.0 * OP_CUBIC.gamma * (OP_CUBIC.alpha**2 + SQZ_15.var_x)
    im_ok = abs(s.mean_im / im_centre - 1.0) <= 0.03
    z_ok = bool(np.all(np.abs(s.z_error_var) < 4.0))
    disc_ok = s.n_discarded / s.n_shots < 1e-4
    lin_ok = min(lin.ratio_first_moment, lin.ratio_second_moment) >= 10.0
    assert lin.passed == lin_ok
    passed = im_ok and z_ok and disc_ok and lin_ok
    print(acceptance_log.record(
        9, "monte-carlo-cubic-operating-point", passed,
        f"mean I_m {s.mean_im:.3f} (3% band around "
        f"3*gamma*(alpha^2 + var_x) = {im_centre:.3f} "
        f"{'met' if im_ok else 'missed'}), worst var z "
        f"{float(np.max(np.abs(s.z_error_var))):.2f}, "
        f"{s.n_discarded} discards"))
    assert z_ok, s.z_error_var
    assert disc_ok
    assert lin_ok
    assert im_ok, (
        f"mean I_m = {s.mean_im:.4f} not within 3% of {im_centre:.4f}")


def test_criterion_10_gain_ratio_bands():
    base = _default_grid(WeightConfig(1, 1, 1, 1), MODE_GAUSSIAN_FIXED)
    cases = (
        ("weights-only", MODE_GAUSSIAN_FIXED, None, 45.0),
        ("weights+phase", MODE_GAUSSIAN_OPTIMIZED, None, 400.0),
        ("weights+phase+cubic", MODE_CUBIC_OPTIMIZED, OP_CUBIC, 900.0),
    )
    details = []
    all_ok = True
    for label, mode, cubic, nominal in cases:
        gs = gain_surface(
            base, _default_grid(WeightConfig(5, 5, 4, 4), mode, cubic), SQZ_15,
        )
        ratio = gs.max_ratio
        ok = nominal / 2.0 <= ratio <= nominal * 2.0
        all_ok = all_ok and ok
        bmax, dmax = gs.argmax_cell
        details.append(f"{label} {ratio:.1f} at (b={bmax:.1f}, d={dmax:.1f})")
        assert ok, (label, ratio, nominal)
    print(acceptance_log.record(10, "gain-ratio-bands", all_ok,
                                "; ".join(details)))
    assert all_ok


def test_criterion_11_manifest_rerun_determinism(tmp_path, capsys):
    surf1 = tmp_path / "surf1.csv"
    code = cli_main([
        "error-surface", "--mode", "gaussian_optimized_phase",
        "--nb", "11", "--nd", "11",
        "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
        "--out", str(surf1),
    ])
    assert code == 0
    surf2 = tmp_path / "surf2.csv"
    code = cli_main([
        "error-surface", "--config", str(surf1) + ".manifest.json",
        "--out", str(surf2),
    ])
    assert code == 0
    surf_same = surf1.read_bytes() == surf2.read_bytes()

    sim1 = tmp_path / "sim1.json"
    base_args = [
        "simulate", "--a", "1.2", "--b", "0.5", "--c", "0.3",
        "--d", repr((1.0 + 0.15) / 1.2),
        "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
        "--shots", "20000", "--seed", "12",
    ]
    code = cli_main(base_args + ["--out", str(sim1)])
    assert code == 0
    sim2 = tmp_path / "sim2.json"
    code = cli_main([
        "simulate", "--config", str(sim1) + ".manifest.json",
        "--out", str(sim2),
    ])
    assert code == 0
    sim_same = sim1.read_bytes() == sim2.read_bytes()
    capsys.readouterr()  # CLI wrote nothing useful to the captured streams

    passed = surf_same and sim_same
    print(acceptance_log.record(
        11, "manifest-rerun-determinism", passed,
        "surface and simulate reruns byte-identical"))
    assert surf_same
    assert sim_same

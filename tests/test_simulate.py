"""Tests for the shot-by-shot Monte Carlo oracle.

The simulator is the independent check on every closed form in the
package, so these tests pin its statistical agreement with the
predictions at frozen seeds as well as its determinism contract.
"""

import json
import math
import sys
import threading
import time
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from clustergauss import (
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    RECORD_COLUMNS,
    SHOT_BLOCK,
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    CubicConfig,
    DomainError,
    ErrorSurfaceSpec,
    InputState,
    SimConfig,
    SmallDisplacementWarning,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    arccot,
    error_surface,
    error_vector_gaussian,
    error_vector_raw,
    forward_matrix,
    linearization_check,
    run,
    sample_targets,
    solve_cots,
    solve_phases,
)
from clustergauss import errormodel, simulate
from clustergauss.cli import main
from clustergauss.core import is_degenerate

SQZ = SqueezingSpec.from_db(-15.0)
OP_TARGET = SymplecticTarget(1.2, 0.5, 0.3, (1.0 + 0.15) / 1.2)
OP_CUBIC = CubicConfig(gamma=0.1, alpha=np.sqrt(125.0))


def _gauss_config(target, w, theta4p, n_shots, seed, **kw):
    return SimConfig(
        target=target, w=w, theta4p=theta4p, squeezing=SQZ,
        variant=VARIANT_GAUSSIAN, n_shots=n_shots, seed=seed, **kw,
    )


def _run_recorded(cfg):
    """(summary, record blocks) of a run whose records go to a list sink.

    Each block's columns are stacked into an (n, len(RECORD_COLUMNS)) array.
    """
    blocks = []
    summary = run(cfg, record_sink=lambda columns: blocks.append(
        np.column_stack(columns)))
    return summary, blocks


def _cubic_config(n_shots, seed, cubic=OP_CUBIC, target=OP_TARGET, **kw):
    return SimConfig(
        target=target, w=WeightConfig(5.0, 5.0, 4.0, 4.0), theta4p=np.pi / 2,
        squeezing=SQZ, variant=VARIANT_CUBIC, n_shots=n_shots, seed=seed,
        cubic=cubic, **kw,
    )


class TestDeterminism:
    def test_same_seed_same_result(self, strong_weights):
        cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=7)
        a, b = run(cfg), run(cfg)
        np.testing.assert_array_equal(a.cov_out, b.cov_out)

    def test_different_seed_different_result(self, strong_weights):
        a = run(_gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=7))
        b = run(_gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=8))
        assert not np.array_equal(a.cov_out, b.cov_out)

    @pytest.mark.parametrize("n_blocks", [1, 3, 5])
    def test_simulate_draws_odd_blocks_on_one_helper(self, monkeypatch,
                                                     capsys, n_blocks):
        # Even blocks are drawn on the caller, odd ones on one other
        # thread, each once; a one-block run starts no thread.
        drawn = []
        draw = simulate._draw_block

        def tracked_draw(config, block):
            drawn.append((block, threading.get_ident()))
            return draw(config, block)

        monkeypatch.setattr(simulate, "_draw_block", tracked_draw)
        running = threading.active_count()
        rc = main(["simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
                   "--shots", str(n_blocks * SHOT_BLOCK), "--seed", "1"])
        capsys.readouterr()
        assert rc == 0
        assert threading.active_count() == running
        caller = threading.get_ident()
        assert sorted(b for b, _ in drawn) == list(range(n_blocks))
        assert {b for b, t in drawn if t == caller} == set(
            range(0, n_blocks, 2))
        helpers = {t for b, t in drawn if t != caller}
        assert len(helpers) == (n_blocks > 1)


def _replay(cfg, row):
    """(x_out, y_out) of one record, re-propagated from its 10 samples."""
    phases = solve_phases(cfg.target, cfg.w, cfg.theta4p).phases
    q = row[:10].reshape(10, 1).copy()
    rec = np.column_stack(
        simulate._record_block(q, simulate._propagate(q, cfg, phases)))
    return rec[0, 17], rec[0, 18]


class TestReplay:
    # The protocol is affine in the Gaussian variant and deterministic in
    # both, so a kept shot's outputs replay bit for bit.
    def test_gaussian_records_replay_exactly(self, unit_weights):
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            500, seed=11,
        )
        _, (records,) = _run_recorded(cfg)
        assert records.shape == (500, len(RECORD_COLUMNS))
        for row in records[::97]:
            x_out, y_out = _replay(cfg, row)
            assert x_out == row[17]
            assert y_out == row[18]

    def test_cubic_records_replay_exactly(self):
        cfg = _cubic_config(2_000, seed=5)
        _, (records,) = _run_recorded(cfg)
        kept = records[records[:, 20] == 0.0]
        for row in kept[::397]:
            x_out, y_out = _replay(cfg, row)
            assert x_out == row[17]
            assert y_out == row[18]

    def test_records_absent_by_default(self, unit_weights):
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            100, seed=1,
        )
        # Without a sink no record array is built.
        with mock.patch.object(simulate, "_record_block",
                               side_effect=AssertionError):
            run(cfg)


class TestGaussianAgreement:
    def test_identity_error_variances(self, unit_weights):
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            100_000, seed=0,
        )
        s = run(cfg)
        assert s.n_discarded == 0
        np.testing.assert_allclose(
            np.diag(s.error_cov), 2.0 * SQZ.var_y, rtol=0.05
        )
        assert np.all(np.abs(s.z_error_var) < 3.0)
        assert np.all(np.abs(s.z_mean) < 3.0)

    def test_generic_instances_within_four_se(self, strong_weights):
        for k, target in enumerate(_random_targets(5, seed=14)):
            cfg = _gauss_config(target, strong_weights, 1.3, 100_000,
                                seed=500 + k)
            s = run(cfg)
            assert np.all(np.abs(s.z_error_var) < 4.0), (k, s.z_error_var)
            assert np.all(np.abs(s.z_mean) < 4.0), (k, s.z_mean)

    def test_coherent_input_mean_propagates(self, unit_weights):
        inp = InputState(mean_x=1.3, mean_y=-0.7)
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            50_000, seed=21, input_state=inp,
        )
        s = run(cfg)
        np.testing.assert_allclose(
            s.predicted_mean, s.realized.as_matrix() @ [1.3, -0.7], atol=1e-12
        )
        assert np.all(np.abs(s.z_mean) < 4.0)

    def test_strong_squeezing_kills_error(self, strong_weights):
        cfg = SimConfig(
            target=OP_TARGET, w=strong_weights, theta4p=1.0,
            # r = 12, in dB.
            squeezing=SqueezingSpec.from_db(-240.0 / math.log(10.0)),
            variant=VARIANT_GAUSSIAN,
            n_shots=20_000, seed=9,
        )
        s = run(cfg)
        assert np.all(np.diag(s.error_cov) < 1e-8)
        np.testing.assert_allclose(
            s.cov_out, s.predicted_out_cov,
            rtol=0.05, atol=0.02 * float(np.max(np.abs(s.predicted_out_cov))),
        )

    def test_bulk_z_distribution(self, strong_weights):
        # Many independent instances: the variance z-scores should look
        # like standard normal draws -- rare 3-sigma excursions, none
        # beyond 5.
        zs = []
        for k, target in enumerate(_random_targets(1000, seed=77)):
            cfg = _gauss_config(target, strong_weights, np.pi / 2, 10_000,
                                seed=2_000 + k)
            s = run(cfg)
            zs.extend(np.abs(s.z_error_var))
        zs = np.array(zs)
        assert np.mean(zs > 3.0) <= 0.01
        assert zs.max() < 5.0


def _random_targets(n, seed):
    a, b, c, d = sample_targets(n, seed)
    keep = (np.abs(d) > 0.2) & (np.abs(b) > 0.2)
    return [
        SymplecticTarget(*map(float, t))
        for t in zip(a[keep], b[keep], c[keep], d[keep])
    ]


class TestExactMap:
    """``_propagate``'s exact linear map against the one stage matrix F.

    Tolerances: the input columns deviated from ``forward_matrix`` by at
    most 9.9e-14 of max|U|, the noise covariance from
    ``_predicted_error_cov`` by at most 7.4e-16 of its largest entry, and
    its diagonal from ``error_vector_raw`` times var_y by at most 7.4e-16
    relative, over these 900 targets.  On the removable set, the noise
    variances deviated from ``error_vector_gaussian`` by at most 3.9e-16
    relative.  The 10 100 non-degenerate cells of each 101^2 optimized
    map deviated from the surface's ex and ey by at most 9.3e-16 relative
    (weights 5,5,4,4; 4.4e-16 for 1,1,1,1 and 6.8e-16 for 0.3,2,7,0.5),
    the 10 001 valid cells of each fixed-phase map by at most 1.18e-15
    (4.3e-16 and 6.1e-16).
    """

    @pytest.mark.parametrize("weights", [(5.0, 5.0, 4.0, 4.0),
                                         (1.0, 1.0, 1.0, 1.0),
                                         (0.3, 2.0, 7.0, 0.5)])
    def test_matches_forward_matrix_and_predicted_cov(self, weights,
                                                      protocol_map):
        w = WeightConfig(*weights)
        a, b, c, d = sample_targets(300, 1)
        theta4p = np.random.default_rng(2207).uniform(0.2, 2.9, a.size)
        var = np.tile([SQZ.var_x, SQZ.var_y], 4)
        worst_lin = worst_cov = worst_raw = 0.0
        for i in range(a.size):
            cfg = _gauss_config(SymplecticTarget(a[i], b[i], c[i], d[i]), w,
                                theta4p[i], n_shots=1, seed=0)
            phases = solve_phases(cfg.target, w, cfg.theta4p).phases
            offset, lin = protocol_map(cfg, phases)
            u = forward_matrix(phases, w).as_matrix()
            noise = lin[:, 2:]
            cov = noise @ np.diag(var) @ noise.T
            pred = simulate._predicted_error_cov(cfg, phases, None)
            assert not offset.any()
            worst_lin = max(worst_lin,
                            np.max(np.abs(lin[:, :2] - u)) / np.max(np.abs(u)))
            worst_cov = max(worst_cov,
                            np.max(np.abs(cov - pred)) / np.max(np.abs(pred)))
            ev = error_vector_raw(phases, w)
            raw = np.array([ev.ex, ev.ey]) * SQZ.var_y
            exact = np.diag(cov)
            worst_raw = max(worst_raw, np.max(np.abs(exact - raw) / exact))
        assert worst_lin <= 1e-12
        assert worst_cov <= 1e-14
        assert worst_raw <= 1e-14

    @pytest.mark.parametrize("db", [-30.0, -15.0, -3.0])
    @pytest.mark.parametrize("weights", [(5.0, 5.0, 4.0, 4.0),
                                         (1.0, 1.0, 1.0, 1.0),
                                         (0.3, 2.0, 7.0, 0.5),
                                         (40.0, 30.0, 50.0, 20.0)])
    def test_removable_set_matches_error_vector_gaussian(self, weights, db,
                                                         protocol_map):
        # d = g1 g3 / (g2 g4), at the theta4' where r2^2 b + d cot theta4'
        # = 0: cot theta3 is the 0/0 limit 0 that solve_cot3 takes.
        w = WeightConfig(*weights)
        sqz = SqueezingSpec.from_db(db)
        var = np.tile([sqz.var_x, sqz.var_y], 4)
        d = w.cross_ratio
        worst = 0.0
        for b in (-0.7, 0.4, 1.3):
            target = SymplecticTarget(1.2, b, (1.2 * d - 1.0) / b, d)
            theta4p = float(arccot(-w.g3_over_g2**2 * b / d))
            cfg = SimConfig(target=target, w=w, theta4p=theta4p,
                            squeezing=sqz, variant=VARIANT_GAUSSIAN,
                            n_shots=1, seed=0)
            phases = solve_phases(target, w, theta4p).phases
            assert phases.cot3 == 0.0
            _, lin = protocol_map(cfg, phases)
            noise = lin[:, 2:]
            exact = np.diag(noise @ np.diag(var) @ noise.T)
            ev = error_vector_gaussian(target, w, theta4p)
            closed = np.array([ev.ex, ev.ey]) * sqz.var_y
            worst = max(worst, np.max(np.abs(exact - closed) / closed))
        assert worst <= 4e-15


    @pytest.mark.parametrize("weights", [(5.0, 5.0, 4.0, 4.0),
                                         (1.0, 1.0, 1.0, 1.0),
                                         (0.3, 2.0, 7.0, 0.5)])
    def test_surface_cells_match_the_exact_map(self, weights, protocol_map):
        # Every cell of a 101^2 map of each Gaussian mode at once: its
        # phases solved at the cell's winning cot(theta4') for the target
        # (1/d, b, 0, d).  The d = 0 row is degenerate; the fixed phase
        # also loses the b = 0 poles, but for the removable cell
        # (0, cross ratio).
        w = WeightConfig(*weights)
        for mode, n_cells in ((MODE_GAUSSIAN_OPTIMIZED, 101 * 101 - 101),
                              (MODE_GAUSSIAN_FIXED, 101 * 101 - 200)):
            spec = ErrorSurfaceSpec((-5.0, 5.0), (-5.0, 5.0), 101, 101, w,
                                    mode)
            surf = error_surface(spec)
            b, d = spec.cells()
            u = errormodel._best_phase(b, d, w,
                                       *errormodel._mode_terms(mode, None))[0]
            cells = np.isfinite(surf.err_inf.ravel()) & ~is_degenerate(d)
            b, d, u = b[cells], d[cells], u[cells]
            cot1, cot2p, cot3, _, pole = solve_cots(1.0 / d, b, 0.0, d, w, u)
            assert not pole.any()
            phases = SimpleNamespace(cot1=cot1[:, None], cot2p=cot2p[:, None],
                                     cot3=cot3[:, None], cot4p=u[:, None])
            _, lin = protocol_map(SimpleNamespace(w=w, cubic=None), phases)
            var = np.tile([SQZ.var_x, SQZ.var_y], 4)
            exact = (lin[..., 2:] ** 2 * var).sum(axis=-1) / SQZ.var_y
            closed = np.stack([surf.ex.ravel()[cells],
                               surf.ey.ravel()[cells]])
            assert cells.sum() == n_cells, mode
            worst = np.max(np.abs(closed - exact) / exact)
            assert worst <= 3e-15, mode


class TestCubicAgreement:
    def test_operating_point(self):
        s = run(_cubic_config(100_000, seed=0))
        assert np.all(np.abs(s.z_error_var) < 4.0), s.z_error_var
        assert np.all(np.abs(s.z_mean) < 4.0), s.z_mean
        assert s.n_discarded / s.n_shots < 1e-4
        assert 38.0 < s.mean_im < 42.0

    def test_perturbed_operating_points(self):
        rng = np.random.default_rng(1)
        for k in range(10):
            gamma = 0.1 * (1.0 + rng.uniform(-0.1, 0.1))
            alpha = np.sqrt(125.0) * (1.0 + rng.uniform(-0.1, 0.1))
            b = 0.5 + rng.uniform(-0.3, 0.3)
            c = 0.3 + rng.uniform(-0.3, 0.3)
            a = 1.2 + rng.uniform(-0.2, 0.2)
            target = SymplecticTarget(a, b, c, (1.0 + b * c) / a)
            cfg = _cubic_config(
                100_000, seed=100 + k,
                cubic=CubicConfig(gamma=gamma, alpha=alpha), target=target,
            )
            s = run(cfg)
            assert np.all(np.abs(s.z_error_var) < 4.0), (k, s.z_error_var)
            assert np.all(np.abs(s.z_mean) < 4.0), (k, s.z_mean)

    def test_prediction_gap_shrinks_with_displacement(self):
        gaps = []
        for alpha in (5.0, np.sqrt(125.0), 25.0):
            cfg = _cubic_config(200_000, seed=0,
                                cubic=CubicConfig(gamma=0.1, alpha=alpha))
            s = run(cfg)
            emp = s.error_cov[1, 1]
            pred = s.predicted_error_cov[1, 1]
            gaps.append(abs(emp - pred) / pred)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_negative_photocurrent_shots_are_discarded_not_clamped(self):
        cfg = _cubic_config(20_000, seed=2,
                            cubic=CubicConfig(gamma=0.1, alpha=5.0))
        s, blocks = _run_recorded(cfg)
        records = np.vstack(blocks)
        assert s.n_discarded > 0
        assert s.n_kept + s.n_discarded == s.n_shots
        disc = records[records[:, 20] == 1.0]
        assert len(disc) == s.n_discarded
        assert np.all(disc[:, 14] <= 0.0)
        assert np.all(np.isnan(disc[:, 17]))
        kept = records[records[:, 20] == 0.0]
        assert np.all(kept[:, 14] > 0.0)

    def test_mean_photocurrent_tracks_displacement_and_spread(self):
        s = run(_cubic_config(100_000, seed=0))
        expected = 3.0 * 0.1 * (125.0 + SQZ.var_x)
        assert s.mean_im == pytest.approx(expected, rel=0.02)


class TestStreamingReduction:
    """Block moments merged in order equal the statistics of all shots."""

    @pytest.mark.parametrize("variant", [VARIANT_GAUSSIAN, VARIANT_CUBIC])
    def test_records_do_not_change_the_summary(self, strong_weights, variant):
        if variant == VARIANT_GAUSSIAN:
            cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, 20_000, seed=4)
        else:
            cfg = _cubic_config(20_000, seed=2,
                                cubic=CubicConfig(gamma=0.1, alpha=5.0))
        plain = run(cfg)
        recorded, blocks = _run_recorded(cfg)
        # One array per block.
        assert [b.shape for b in blocks] == [
            (SHOT_BLOCK, len(RECORD_COLUMNS))] * 2 + [
            (20_000 - 2 * SHOT_BLOCK, len(RECORD_COLUMNS))]
        assert plain.to_dict() == recorded.to_dict()

    @staticmethod
    def _serial_fold(cfg):
        """(summary, record blocks) of every block drawn and used in
        order on the calling thread."""
        solved = solve_phases(cfg.target, cfg.w, cfg.theta4p)
        u = solved.realized.as_matrix()
        total, blocks = simulate._NO_SHOTS, []
        with np.errstate(all="ignore"):
            for k in range(-(-cfg.n_shots // SHOT_BLOCK)):
                q = simulate._draw_block(cfg, k)
                shots = simulate._propagate(q, cfg, solved.phases)
                blocks.append(simulate._record_block(q, shots))
                total = simulate._merge(
                    total, simulate._block_moments(q, shots, u))
            return simulate._summarize(cfg, total, u, solved), blocks

    @pytest.mark.parametrize("slow_parity", [None, 1, 0],
                             ids=["as-timed", "caller-waits", "helper-first"])
    @pytest.mark.parametrize("n_shots", [
        SHOT_BLOCK, 2 * SHOT_BLOCK, 2 * SHOT_BLOCK + 5, 3 * SHOT_BLOCK + 5])
    @pytest.mark.parametrize("variant", [VARIANT_GAUSSIAN, VARIANT_CUBIC])
    def test_run_equals_the_serial_fold(self, monkeypatch, strong_weights,
                                        variant, n_shots, slow_parity):
        # The helper draws the odd blocks.  Delaying the draws of one
        # parity makes the caller wait for the helper, or the helper finish
        # first, whatever the host's own timing would give; a short switch
        # interval interleaves the two threads' Python code finely.
        if variant == VARIANT_GAUSSIAN:
            cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, n_shots,
                                seed=5)
        else:
            cfg = _cubic_config(n_shots, seed=5,
                                cubic=CubicConfig(gamma=0.1, alpha=5.0))
        summary, blocks = self._serial_fold(cfg)
        draw = simulate._draw_block

        def delayed_draw(config, block):
            if block % 2 == slow_parity:
                time.sleep(0.002)
            return draw(config, block)

        monkeypatch.setattr(simulate, "_draw_block", delayed_draw)
        recorded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run(cfg, record_sink=recorded.append)
        finally:
            sys.setswitchinterval(interval)
        assert got.to_dict() == summary.to_dict()
        assert len(recorded) == len(blocks)
        for got, want in zip(recorded, blocks):
            assert len(got) == len(want) == len(RECORD_COLUMNS)
            for a, b in zip(got, want):
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())

    @pytest.mark.parametrize("variant", [VARIANT_GAUSSIAN, VARIANT_CUBIC])
    def test_run_does_not_depend_on_the_lookahead(self, monkeypatch,
                                                  strong_weights, variant):
        # Every block drawn before the first is used: each block's samples
        # are its own, however far ahead of their use they are drawn.
        n_shots = 3 * SHOT_BLOCK + 5
        if variant == VARIANT_GAUSSIAN:
            cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, n_shots,
                                seed=6)
        else:
            cfg = _cubic_config(n_shots, seed=6,
                                cubic=CubicConfig(gamma=0.1, alpha=5.0))
        runs = []
        for eager in (False, True):
            with monkeypatch.context() as patch:
                if eager:
                    patch.setattr(simulate, "in_turns", lambda fn, n: iter(
                        list(map(fn, range(n)))))
                recorded = []
                runs.append((run(cfg, record_sink=recorded.append).to_dict(),
                             [[(c.shape, c.tobytes()) for c in columns]
                              for columns in recorded]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 4

    def test_summary_matches_direct_moments_of_records(self):
        # Several blocks, some discarded shots: recompute every moment the
        # summary rests on from the kept record rows in one pass.
        cfg = _cubic_config(20_000, seed=2,
                            cubic=CubicConfig(gamma=0.1, alpha=5.0))
        s, blocks = _run_recorded(cfg)
        records = np.vstack(blocks)
        kept = records[records[:, 20] == 0.0]
        assert s.n_discarded > 0 and len(kept) == s.n_kept
        out = kept[:, 17:19]
        err = out - kept[:, 0:2] @ s.realized.as_matrix().T
        np.testing.assert_allclose(s.mean_out, out.mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(s.cov_out, np.cov(out.T), rtol=1e-12)
        np.testing.assert_allclose(s.error_mean, err.mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(s.error_cov, np.cov(err.T), rtol=1e-12)
        assert s.mean_im == pytest.approx(kept[:, 14].mean(), rel=1e-12)
        dev = err - err.mean(axis=0)
        m2 = np.mean(dev**2, axis=0)
        m4 = np.mean(dev**4, axis=0)
        se_var = np.sqrt((m4 - m2**2) / s.n_kept)
        z = (np.diag(s.error_cov) - np.diag(s.predicted_error_cov)) / se_var
        np.testing.assert_allclose(s.z_error_var, z, rtol=1e-9)

    def test_a_block_with_no_kept_shot_adds_only_its_discards(self):
        # At alpha 0.3, seed 4 discards the one shot of block 1.
        cubic = CubicConfig(gamma=0.1, alpha=0.3)
        one, two = (run(_cubic_config(n, seed=4, cubic=cubic))
                    for n in (SHOT_BLOCK, SHOT_BLOCK + 1))
        assert (one.n_kept, one.n_discarded) == (6970, 1222)
        assert (two.n_kept, two.n_discarded) == (6970, 1223)
        assert two.error_cov.tobytes() == one.error_cov.tobytes()
        a, b = one.to_dict(), two.to_dict()
        for summary in (a, b):
            del summary["n_shots"], summary["n_discarded"]
        assert a == b


class TestAmplitude:
    """Statistics do not depend on the input's coherent amplitude."""

    SHOTS = 200_000

    def _config(self, mean_x):
        return SimConfig(
            target=OP_TARGET, w=WeightConfig(5.0, 5.0, 4.0, 4.0),
            theta4p=np.pi / 2, squeezing=SQZ, variant=VARIANT_GAUSSIAN,
            n_shots=self.SHOTS, seed=0, input_state=InputState(mean_x=mean_x),
        )

    @pytest.mark.parametrize("mean_x", [1e6, 1e8])
    def test_covariances_match_the_origin(self, mean_x):
        origin = run(self._config(0.0))
        s = run(self._config(mean_x))
        np.testing.assert_allclose(s.cov_out, origin.cov_out, rtol=1e-6)
        np.testing.assert_allclose(s.error_cov, origin.error_cov, rtol=1e-6)

    @pytest.mark.parametrize("mean_x", [0.0, 1e6, 1e8])
    def test_every_summary_number_is_finite(self, mean_x):
        s = run(self._config(mean_x))
        for name in ("mean_out", "cov_out", "error_mean", "error_cov",
                     "predicted_mean", "predicted_out_cov",
                     "predicted_error_cov", "z_mean", "z_error_var"):
            assert np.all(np.isfinite(getattr(s, name))), name

    def test_cli_passes_the_gate_at_1e8(self, capsys):
        code = main([
            "simulate", "--a", "1.2", "--b", "0.5", "--c", "0.3",
            "--d", repr(OP_TARGET.d), "--g1", "5", "--g2", "5", "--g3", "4",
            "--g4", "4", "--shots", str(self.SHOTS), "--seed", "0",
            "--mean-x", "1e8",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["cov_out"][0][0] > 0 and doc["cov_out"][1][1] > 0


class TestLinearization:
    def test_operating_point_passes(self):
        report = linearization_check(_cubic_config(100, seed=0))
        assert report.passed
        assert report.ratio_first_moment == np.inf

    def test_tiny_displacement_fails(self):
        cfg = _cubic_config(100, seed=0,
                            cubic=CubicConfig(gamma=0.1, alpha=0.1))
        assert not linearization_check(cfg).passed

    def test_large_input_mean_breaks_first_condition(self):
        cfg = _cubic_config(100, seed=0,
                            input_state=InputState(mean_x=1e6))
        report = linearization_check(cfg)
        assert np.isfinite(report.ratio_first_moment)
        assert not report.passed

    def test_requires_cubic_variant(self, unit_weights):
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            100, seed=0,
        )
        with pytest.raises(DomainError):
            linearization_check(cfg)


class TestWarnings:
    def test_small_displacement_warns(self):
        with pytest.warns(SmallDisplacementWarning):
            _cubic_config(100, seed=0)

    def test_large_displacement_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallDisplacementWarning)
            _cubic_config(100, seed=0,
                          cubic=CubicConfig(gamma=0.1, alpha=100.0))


class TestValidation:
    def test_variant_names(self, unit_weights):
        with pytest.raises(DomainError):
            SimConfig(
                target=OP_TARGET, w=unit_weights, theta4p=1.0, squeezing=SQZ,
                variant="quartic", n_shots=10, seed=0,
            )

    def test_cubic_point_exactly_for_cubic_variant(self, unit_weights):
        with pytest.raises(DomainError):
            _gauss_config(OP_TARGET, unit_weights, 1.0, 10, 0, cubic=OP_CUBIC)
        with pytest.raises(DomainError):
            SimConfig(
                target=OP_TARGET, w=unit_weights, theta4p=1.0, squeezing=SQZ,
                variant=VARIANT_CUBIC, n_shots=10, seed=0,
            )

    def test_shot_and_seed_bounds(self, unit_weights):
        with pytest.raises(DomainError):
            _gauss_config(OP_TARGET, unit_weights, 1.0, 0, 0)
        with pytest.raises(DomainError):
            _gauss_config(OP_TARGET, unit_weights, 1.0, 10, -1)

    def test_theta4p_branch(self, unit_weights):
        with pytest.raises(DomainError):
            _gauss_config(OP_TARGET, unit_weights, 0.0, 10, 0)

    def test_input_state_uncertainty_floor(self):
        with pytest.raises(DomainError):
            InputState(var_x=0.01, var_y=0.01)
        InputState(var_x=0.5, var_y=0.125)  # on the bound: allowed

    def test_summary_serializes_to_json(self, unit_weights):
        s = run(_gauss_config(OP_TARGET, unit_weights, 1.0, 1_000, seed=6))
        text = json.dumps(s.to_dict(), allow_nan=False)
        assert "error_cov" in text

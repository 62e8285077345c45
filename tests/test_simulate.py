"""Tests for the shot-by-shot Monte Carlo oracle.

The simulator is the independent check on every closed form in the
package, so these tests pin its statistical agreement with the
predictions at frozen seeds as well as its determinism contract.
"""

import json
import os
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from clustergauss import (
    RECORD_COLUMNS,
    SHOT_BLOCK,
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    CubicConfig,
    DomainError,
    InputState,
    SimConfig,
    SmallDisplacementWarning,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    linearization_check,
    replay_record,
    run,
    sample_targets,
)
from clustergauss import simulate
from clustergauss.cli import main

SQZ = SqueezingSpec.from_db(-15.0)
OP_TARGET = SymplecticTarget(1.2, 0.5, 0.3, (1.0 + 0.15) / 1.2)
OP_CUBIC = CubicConfig(gamma=0.1, alpha=np.sqrt(125.0))


def _gauss_config(target, w, theta4p, n_shots, seed, **kw):
    return SimConfig(
        target=target, w=w, theta4p=theta4p, squeezing=SQZ,
        variant=VARIANT_GAUSSIAN, n_shots=n_shots, seed=seed, **kw,
    )


def _run_recorded(cfg, **kw):
    """(summary, record blocks) of a run whose records go to a list sink."""
    blocks = []
    return run(cfg, record_sink=blocks.append, **kw), blocks


def _cubic_config(n_shots, seed, cubic=OP_CUBIC, target=OP_TARGET, **kw):
    return SimConfig(
        target=target, w=WeightConfig(5.0, 5.0, 4.0, 4.0), theta4p=np.pi / 2,
        squeezing=SQZ, variant=VARIANT_CUBIC, n_shots=n_shots, seed=seed,
        cubic=cubic, **kw,
    )


class TestDeterminism:
    def test_worker_count_does_not_change_anything(self, strong_weights):
        cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, 20_000, seed=42)
        one = run(cfg, n_workers=1)
        three = run(cfg, n_workers=3)
        four = run(cfg, n_workers=4)
        for a, b in ((one, three), (one, four)):
            np.testing.assert_array_equal(a.mean_out, b.mean_out)
            np.testing.assert_array_equal(a.cov_out, b.cov_out)
            np.testing.assert_array_equal(a.error_cov, b.error_cov)
            np.testing.assert_array_equal(a.z_error_var, b.z_error_var)

    # ``threads`` lists the pool sizes: the helpers that draw blocks ahead
    # of the calling thread, one fewer than the threads in all.
    @pytest.mark.parametrize("shots, workers, threads", [
        (30_000, 1_000_000, [2]),  # four blocks, capped at the CPU count
        (10_000, 1_000_000, [1]),  # capped at the block count
        (500, 4, []),  # one block: no pool
    ])
    def test_thread_count_is_capped(self, strong_weights, pool_sizes,
                                    shots, workers, threads):
        cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, shots, seed=5)
        capped = run(cfg, n_workers=workers)
        assert pool_sizes == threads
        np.testing.assert_array_equal(capped.cov_out, run(cfg).cov_out)

    @pytest.mark.parametrize("slow", ["propagate", "draw"])
    @pytest.mark.parametrize("variant, shots", [
        (VARIANT_GAUSSIAN, 5 * SHOT_BLOCK + 123),  # partial last block
        (VARIANT_GAUSSIAN, 2 * SHOT_BLOCK + 7),  # 3 blocks, 4 ring slots
        (VARIANT_CUBIC, 50_000),  # discards, 7 blocks
    ])
    def test_real_helper_threads_change_nothing(self, monkeypatch,
                                                strong_weights, variant,
                                                shots, slow):
        if variant == VARIANT_GAUSSIAN:
            cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, shots,
                                seed=9, input_state=InputState(mean_x=3.0,
                                                               mean_y=-2.0))
        else:
            cfg = _cubic_config(shots, seed=2,
                                cubic=CubicConfig(gamma=0.1, alpha=5.0))
        serial, serial_blocks = _run_recorded(cfg, n_workers=1)

        # Three CPUs give two helper threads, and a sleep makes one side
        # of the ring lag: helpers wait for free slots when propagation
        # is slow, the calling thread waits for drawn blocks when drawing
        # is.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        drawing_threads = set()
        draw = simulate._draw_block

        def tracked_draw(*args):
            drawing_threads.add(threading.get_ident())
            return draw(*args)

        def slowed(fn):
            def slow_call(*args):
                time.sleep(0.003)
                return fn(*args)
            return slow_call

        monkeypatch.setattr(simulate, "_draw_block", slowed(tracked_draw)
                            if slow == "draw" else tracked_draw)
        if slow == "propagate":
            monkeypatch.setattr(simulate, "_propagate",
                                slowed(simulate._propagate))
        # The run goes on its own thread, so that a hang fails the test
        # instead of stalling it; a short switch interval interleaves the
        # threads finely.
        results = []
        caller = threading.Thread(
            target=lambda: results.append(_run_recorded(cfg, n_workers=3)),
            daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        (threaded, threaded_blocks), = results

        assert drawing_threads
        assert caller.ident not in drawing_threads
        assert threaded.to_dict() == serial.to_dict()
        assert len(threaded_blocks) == len(serial_blocks) == \
            -(-shots // SHOT_BLOCK)
        for a, b in zip(threaded_blocks, serial_blocks):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_same_result(self, strong_weights):
        cfg = _gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=7)
        a, b = run(cfg), run(cfg)
        np.testing.assert_array_equal(a.cov_out, b.cov_out)

    def test_different_seed_different_result(self, strong_weights):
        a = run(_gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=7))
        b = run(_gauss_config(OP_TARGET, strong_weights, 1.1, 5_000, seed=8))
        assert not np.array_equal(a.cov_out, b.cov_out)

    def test_cubic_worker_invariance(self):
        cfg = _cubic_config(20_000, seed=3)
        one = run(cfg, n_workers=1)
        three = run(cfg, n_workers=3)
        np.testing.assert_array_equal(one.error_cov, three.error_cov)
        assert one.n_discarded == three.n_discarded
        assert one.mean_im == three.mean_im


class TestReplay:
    def test_gaussian_records_replay_exactly(self, unit_weights):
        cfg = _gauss_config(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2,
            500, seed=11,
        )
        _, (records,) = _run_recorded(cfg)
        assert records.shape == (500, len(RECORD_COLUMNS))
        for row in records[::97]:
            x_out, y_out = replay_record(cfg, row)
            assert x_out == row[17]
            assert y_out == row[18]

    def test_cubic_records_replay_exactly(self):
        cfg = _cubic_config(2_000, seed=5)
        _, (records,) = _run_recorded(cfg)
        kept = records[records[:, 20] == 0.0]
        for row in kept[::397]:
            x_out, y_out = replay_record(cfg, row)
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
            squeezing=SqueezingSpec.from_r(12.0), variant=VARIANT_GAUSSIAN,
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
        report = linearization_check(_cubic_config(100, seed=0), safety=10.0)
        assert report.passed
        assert report.ratio_first_moment == np.inf

    def test_tiny_displacement_fails(self):
        cfg = _cubic_config(100, seed=0,
                            cubic=CubicConfig(gamma=0.1, alpha=0.1))
        assert not linearization_check(cfg, safety=10.0).passed

    def test_large_input_mean_breaks_first_condition(self):
        cfg = _cubic_config(100, seed=0,
                            input_state=InputState(mean_x=1e6))
        report = linearization_check(cfg, safety=10.0)
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

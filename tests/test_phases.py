"""Tests for the closed-form homodyne-phase solver."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from clustergauss import (
    CubicConfig,
    DegenerateD,
    DenominatorPole,
    NonpositiveIm,
    SymplecticTarget,
    WeightConfig,
    arccot,
    check_arbitrariness,
    forward_entries,
    forward_matrix,
    sample_targets,
    solve_cots,
    solve_phases,
    theta2_unprimed,
    theta4_unprimed,
)
from clustergauss.core import angle_cot


class TestSolvePhases:
    def test_identity_at_balanced_weights_is_all_half_pi(self, unit_weights):
        res = solve_phases(SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2)
        for angle in (res.phases.theta1, res.phases.theta2p,
                      res.phases.theta3, res.phases.theta4p):
            assert angle == pytest.approx(np.pi / 2, abs=1e-12)
        assert res.residual <= 1e-12

    def test_generic_target_round_trip(self, strong_weights, generic_target):
        res = solve_phases(generic_target, strong_weights, 1.1)
        assert res.residual <= 1e-12
        assert res.realized.a == pytest.approx(generic_target.a, abs=1e-12)

    def test_removable_pole_cell_is_resolved(self, strong_weights):
        # b = 0 at theta4' = pi/2 makes the denominator vanish, but with
        # d equal to the weight cross ratio the limit is finite.
        assert strong_weights.cross_ratio == pytest.approx(1.0)
        res = solve_phases(SymplecticTarget(1.0, 0.0, 0.7, 1.0), strong_weights, np.pi / 2)
        assert res.phases.cot3 == 0.0
        assert res.phases.cot1 == pytest.approx(0.7, abs=1e-15)
        assert res.residual <= 1e-12

    def test_degenerate_d_rejected(self, unit_weights):
        with pytest.raises(DegenerateD):
            solve_phases(SymplecticTarget(0.0, 1.0, -1.0, 0.0), unit_weights, np.pi / 2)

    def test_denominator_pole_rejected(self, unit_weights):
        with pytest.raises(DenominatorPole):
            solve_phases(SymplecticTarget(2.0, 0.0, 0.3, 0.5), unit_weights, np.pi / 2)

    def test_non_symplectic_rejected(self, unit_weights):
        from clustergauss import NotSymplectic

        with pytest.raises(NotSymplectic):
            solve_phases(SymplecticTarget(1.0, 0.0, 0.0, 2.0), unit_weights, np.pi / 2)

    def test_huge_negative_cotangent_reads_pi(self, unit_weights):
        # The angle rounds to float64 pi, the cotangent stays exact.
        res = solve_phases(SymplecticTarget(1.0, 1e16, 0.0, 1.0),
                           unit_weights, np.pi / 2)
        assert res.phases.cot2p == -1e16
        assert res.phases.theta2p == math.pi
        assert res.residual == 0.0

    def test_theta4p_outside_branch_rejected(self, unit_weights, generic_target):
        from clustergauss import DomainError

        with pytest.raises(DomainError,
                           match=r"theta4p = 0\.0 outside the open interval"):
            solve_phases(generic_target, unit_weights, 0.0)
        with pytest.raises(DomainError):
            solve_phases(generic_target, unit_weights, np.pi)

    @given(
        a=st.floats(min_value=0.3, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
        c=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_round_trip_residual_small(self, a, b, c):
        d = (1.0 + b * c) / a
        assume(abs(d) > 0.05)
        assume(abs(b) > 0.05)  # keeps the pi/2 denominator away from its pole
        w = WeightConfig(5.0, 5.0, 4.0, 4.0)
        res = solve_phases(SymplecticTarget(a, b, c, d), w, np.pi / 2)
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        assert res.residual <= 1e-9 * scale

    @given(theta4p=st.floats(min_value=0.2, max_value=2.9))
    def test_free_phase_does_not_change_target(self, theta4p):
        w = WeightConfig(2.0, 1.0, 1.0, 2.0)
        target = SymplecticTarget(1.5, 0.8, 0.4, (1.0 + 0.8 * 0.4) / 1.5)
        u4 = angle_cot("theta4p", theta4p)
        denom = (w.g3**2 / w.g2**2) * target.b + target.d * u4
        assume(abs(denom) > 1e-2)
        res = solve_phases(target, w, theta4p)
        assert res.residual <= 1e-9


class TestSolveCots:
    def test_vectorised_matches_scalar(self, strong_weights):
        a, b, c, d = sample_targets(32, seed=4)
        cot1, cot2p, cot3, degenerate, pole = solve_cots(a, b, c, d, strong_weights, 0.3)
        for i in range(32):
            if degenerate[i] or pole[i]:
                continue
            s1, s2, s3, sd, sp = solve_cots(a[i], b[i], c[i], d[i], strong_weights, 0.3)
            assert s1 == cot1[i]
            assert s2 == cot2p[i]
            assert s3 == cot3[i]

    def test_masks_flag_bad_cells(self, unit_weights):
        a = np.array([2.0, 1.0])
        b = np.array([0.0, 1.0])
        c = np.array([0.3, 0.0])
        d = np.array([0.5, 0.0])
        _, _, _, degenerate, pole = solve_cots(a, b, c, d, unit_weights, 0.0)
        assert pole[0] and not degenerate[0]
        assert degenerate[1]

    def test_forward_entries_broadcast(self, strong_weights):
        cot3 = np.linspace(-2.0, 2.0, 9)
        a, b, c, d = forward_entries(0.4, -1.2, cot3, 0.0, strong_weights)
        for i, u in enumerate(cot3):
            sa, sb, sc, sd = forward_entries(0.4, -1.2, float(u), 0.0, strong_weights)
            assert sa == a[i] and sb == b[i] and sc == c[i] and sd == d[i]


class TestCubicPhaseCorrection:
    def test_nonpositive_photocurrent_rejected(self):
        with pytest.raises(NonpositiveIm):
            CubicConfig(gamma=0.1, alpha=5.0, i_m=-1.0)
        with pytest.raises(NonpositiveIm):
            CubicConfig(gamma=0.1, alpha=5.0, i_m=0.0)


class TestUnprimedPhases:
    def test_scaling_by_squared_weight(self, strong_weights):
        theta2p = np.pi / 4
        theta2 = theta2_unprimed(theta2p, strong_weights)
        assert angle_cot("theta2", theta2) == pytest.approx(
            strong_weights.g4**2, rel=1e-12)
        theta4 = theta4_unprimed(np.pi / 4, strong_weights)
        assert angle_cot("theta4", theta4) == pytest.approx(
            strong_weights.g2**2, rel=1e-12)

    def test_half_pi_is_fixed_point(self, strong_weights):
        assert theta2_unprimed(np.pi / 2, strong_weights) == pytest.approx(np.pi / 2)
        assert theta4_unprimed(np.pi / 2, strong_weights) == pytest.approx(np.pi / 2)

    @given(theta=st.floats(min_value=0.05, max_value=3.09))
    def test_unprimed_stays_on_branch(self, theta):
        w = WeightConfig(5.0, 5.0, 4.0, 4.0)
        assert 0.0 < theta2_unprimed(theta, w) < np.pi
        assert 0.0 < theta4_unprimed(theta, w) < np.pi

    def test_unit_weights_change_nothing(self, unit_weights):
        for theta in (0.3, 1.0, 2.0):
            assert theta2_unprimed(theta, unit_weights) == pytest.approx(theta, rel=1e-12)


class TestSampling:
    def test_sampled_targets_are_symplectic(self):
        a, b, c, d = sample_targets(500, seed=12)
        np.testing.assert_allclose(a * d - b * c, 1.0, atol=1e-9)

    def test_small_a_rejected(self):
        a, _, _, _ = sample_targets(500, seed=12)
        assert np.all(np.abs(a) >= 0.1)

    def test_deterministic(self):
        first = sample_targets(64, seed=7)
        second = sample_targets(64, seed=7)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)


class TestArbitrariness:
    def test_random_targets_all_solved(self, strong_weights):
        report = check_arbitrariness(strong_weights, np.pi / 2, n_samples=400, seed=3)
        assert report.all_ok
        assert report.max_residual <= 1e-9
        assert report.n_solved + report.n_degenerate + report.n_pole == 400

    def test_unit_weights_off_axis_phase(self, unit_weights):
        report = check_arbitrariness(unit_weights, 1.0, n_samples=300, seed=5)
        assert report.all_ok
        assert report.n_solved > 250


class TestForwardMatrix:
    def test_uses_stored_cots(self, unit_weights):
        res = solve_phases(SymplecticTarget(1.3, 0.4, 0.5, (1 + 0.2) / 1.3),
                           unit_weights, 1.2)
        again = forward_matrix(res.phases, unit_weights)
        assert again == res.realized

    def test_all_half_pi_is_double_inversion(self, unit_weights):
        from clustergauss import PhaseSet

        phases = PhaseSet(cot1=0.0, cot2p=0.0, cot3=0.0, cot4p=0.0)
        m = forward_matrix(phases, unit_weights)
        # Each stage at pi/2 phases maps (x, y) -> (-y, -x) scaled by the
        # weight ratio; two stages compose to the identity at unit ratios.
        assert m.a == pytest.approx(1.0, abs=1e-12)
        assert m.d == pytest.approx(1.0, abs=1e-12)
        assert m.b == pytest.approx(0.0, abs=1e-12)
        assert m.c == pytest.approx(0.0, abs=1e-12)

    def test_arccot_cot_consistency(self):
        for u in (-3.0, -0.5, 0.0, 0.7, 10.0):
            assert angle_cot("theta", arccot(u)) == pytest.approx(
                u, abs=1e-12)

"""Tests for the closed-form error model and the free-phase optimizer."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clustergauss import (
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    CubicConfig,
    DegenerateD,
    DenominatorPole,
    DomainError,
    ErrorSurfaceSpec,
    SymplecticTarget,
    WeightConfig,
    error_surface,
    error_vector_cubic,
    error_vector_gaussian,
    error_vector_raw,
    optimize_theta4,
    sample_targets,
    solve_phases,
)
from clustergauss import errormodel
from clustergauss.core import DEGENERATE_D_TOL, POLE_TOL

OP_POINT = CubicConfig(gamma=0.1, alpha=np.sqrt(125.0), i_m=37.5)

# Middle-term weight of each optimized mode: 1, or 1/(12 gamma I_m) = 1/45.
OPTIMIZED_MODES = [
    pytest.param(MODE_GAUSSIAN_OPTIMIZED, None, 1.0, id="gaussian"),
    pytest.param(MODE_CUBIC_OPTIMIZED, OP_POINT, 1.0 / 45.0, id="cubic"),
]
WEIGHT = st.floats(min_value=0.05, max_value=200.0)


def _targets(n, seed):
    a, b, c, d = sample_targets(n, seed)
    return [SymplecticTarget(*map(float, t)) for t in zip(a, b, c, d)]


class TestRouteAgreement:
    """The phase-route and closed-form error expressions must agree.

    They are independent code paths on purpose; their agreement checks
    the entire phase-solution algebra.
    """

    @pytest.mark.parametrize("theta4p", [0.35, 1.1, np.pi / 2, 2.6])
    @pytest.mark.parametrize("weights", [(1, 1, 1, 1), (5, 5, 4, 4), (2, 1, 3, 0.5)])
    def test_routes_agree_on_random_targets(self, theta4p, weights):
        w = WeightConfig(*map(float, weights))
        checked = 0
        for target in _targets(40, seed=21):
            try:
                res = solve_phases(target, w, theta4p)
                closed = error_vector_gaussian(target, w, theta4p)
            except (DenominatorPole, DegenerateD):
                continue
            raw = error_vector_raw(res.phases, w)
            scale = max(1.0, closed.ex, closed.ey)
            assert abs(raw.ex - closed.ex) <= 1e-9 * scale
            assert abs(raw.ey - closed.ey) <= 1e-9 * scale
            checked += 1
        assert checked >= 30


class TestGaussianErrorVector:
    def test_identity_error_is_two_two(self, unit_weights):
        ev = error_vector_gaussian(
            SymplecticTarget(1.0, 0.0, 0.0, 1.0), unit_weights, np.pi / 2
        )
        assert ev.ex == pytest.approx(2.0, abs=1e-12)
        assert ev.ey == pytest.approx(2.0, abs=1e-12)

    def test_pole_raises(self, unit_weights):
        with pytest.raises(DenominatorPole):
            error_vector_gaussian(
                SymplecticTarget(2.0, 0.0, 0.3, 0.5), unit_weights, np.pi / 2
            )

    def test_only_b_and_d_enter(self, strong_weights, make_target):
        ev1 = error_vector_gaussian(make_target(1.2, 0.8, 0.1), strong_weights, 1.0)
        ev2 = error_vector_gaussian(make_target(0.5, 0.8, -2.2), strong_weights, 1.0)
        # Different a and c, same b; d differs, so only compare the
        # b-dependent structure via a target with matching (b, d).
        b, d = 0.8, 1.9
        t_a = SymplecticTarget(2.0, b, (2.0 * d - 1.0) / b, d)
        t_b = SymplecticTarget(0.25, b, (0.25 * d - 1.0) / b, d)
        ev_a = error_vector_gaussian(t_a, strong_weights, 1.0)
        ev_b = error_vector_gaussian(t_b, strong_weights, 1.0)
        assert ev_a.ex == ev_b.ex and ev_a.ey == ev_b.ey
        assert (ev1.ex, ev1.ey) != (ev2.ex, ev2.ey)

    @given(
        b=st.floats(min_value=-4.0, max_value=4.0),
        d=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_error_floor(self, b, d):
        assume(abs(b) > 0.05 and abs(d) > 0.05)
        w = WeightConfig(5.0, 5.0, 4.0, 4.0)
        target = SymplecticTarget(2.0, b, (2.0 * d - 1.0) / b, d)
        ev = error_vector_gaussian(target, w, np.pi / 2)
        assert ev.ex >= 1.0 / w.g3**2 - 1e-12
        assert ev.ey >= 1.0 + (w.g3 / w.g2) ** 2 - 1e-12

    def test_rejects_out_of_branch_phase(self, unit_weights, generic_target):
        with pytest.raises(DomainError):
            error_vector_gaussian(generic_target, unit_weights, -0.5)


class TestCubicErrorVector:
    def test_never_worse_than_gaussian(self, strong_weights):
        for target in _targets(24, seed=33):
            try:
                g = error_vector_gaussian(target, strong_weights, 1.3)
                c = error_vector_cubic(target, strong_weights, None, 1.3, OP_POINT)
            except DenominatorPole:
                continue
            assert c.ex <= g.ex + 1e-12
            assert c.ey <= g.ey + 1e-12

    def test_larger_photocurrent_means_smaller_error(self, strong_weights, generic_target):
        small = CubicConfig(gamma=0.1, alpha=5.0, i_m=10.0)
        large = CubicConfig(gamma=0.1, alpha=5.0, i_m=1000.0)
        ev_small = error_vector_cubic(generic_target, strong_weights, None, 1.0, small)
        ev_large = error_vector_cubic(generic_target, strong_weights, None, 1.0, large)
        assert ev_large.ex <= ev_small.ex
        assert ev_large.ey <= ev_small.ey

    def test_explicit_theta3p_matches_solved(self, strong_weights, generic_target):
        from clustergauss import arccot

        theta4p = 1.3
        solved = error_vector_cubic(
            generic_target, strong_weights, None, theta4p, OP_POINT
        )
        res = solve_phases(generic_target, strong_weights, theta4p)
        explicit = error_vector_cubic(
            None, strong_weights, arccot(res.phases.cot3), theta4p, OP_POINT
        )
        assert explicit.ex == pytest.approx(solved.ex, rel=1e-9)
        assert explicit.ey == pytest.approx(solved.ey, rel=1e-9)

    def test_needs_target_or_phase(self, strong_weights):
        with pytest.raises(DomainError):
            error_vector_cubic(None, strong_weights, None, 1.0, OP_POINT)


class TestOptimizer:
    def test_optimized_never_worse_than_fixed(self, strong_weights):
        for target in _targets(30, seed=44):
            try:
                fixed = optimize_theta4(target, strong_weights, MODE_GAUSSIAN_FIXED)
            except DenominatorPole:
                continue
            opt = optimize_theta4(target, strong_weights, MODE_GAUSSIAN_OPTIMIZED)
            assert opt.err_inf <= fixed.err_inf + 1e-12

    def test_cubic_never_worse_than_optimized(self, strong_weights):
        for target in _targets(30, seed=44):
            opt = optimize_theta4(target, strong_weights, MODE_GAUSSIAN_OPTIMIZED)
            cub = optimize_theta4(
                target, strong_weights, MODE_CUBIC_OPTIMIZED, cubic=OP_POINT
            )
            assert cub.err_inf <= opt.err_inf + 1e-9

    def test_reported_minimum_matches_error_at_returned_phase(self, strong_weights):
        for target in _targets(12, seed=55):
            opt = optimize_theta4(target, strong_weights, MODE_GAUSSIAN_OPTIMIZED)
            ev = error_vector_gaussian(target, strong_weights, opt.theta4p)
            assert opt.err_inf == pytest.approx(ev.inf_norm, rel=1e-6)

    def test_fixed_mode_reports_half_pi(self, strong_weights, generic_target):
        fixed = optimize_theta4(generic_target, strong_weights, MODE_GAUSSIAN_FIXED)
        assert fixed.theta4p == pytest.approx(np.pi / 2)
        ev = error_vector_gaussian(generic_target, strong_weights, np.pi / 2)
        assert fixed.err_inf == pytest.approx(ev.inf_norm, rel=1e-12)

    def test_mode_validation(self, strong_weights, generic_target):
        with pytest.raises(DomainError):
            optimize_theta4(generic_target, strong_weights, "nonsense")
        with pytest.raises(DomainError):
            optimize_theta4(
                generic_target, strong_weights, MODE_GAUSSIAN_OPTIMIZED, cubic=OP_POINT
            )
        with pytest.raises(DomainError):
            optimize_theta4(generic_target, strong_weights, MODE_CUBIC_OPTIMIZED)

    @pytest.mark.parametrize("weights, mode, cubic, b, d, optimum", [
        ((1.0, 1.0, 1.0, 1.0), MODE_CUBIC_OPTIMIZED, OP_POINT,
         -2.55, 1.025, 1.151638),
        ((5.0, 5.0, 4.0, 4.0), MODE_GAUSSIAN_OPTIMIZED, None,
         -0.275, 1.825, 1.644357),
    ])
    def test_cells_a_candidate_scan_misses(self, weights, mode, cubic, b, d,
                                           optimum):
        # A 203-point log scan with golden refinement returned 1.996712
        # and 1.646382 here: it settled in the wrong basin.
        w = WeightConfig(*weights)
        target = SymplecticTarget(1.0 / d, b, 0.0, d)
        res = optimize_theta4(target, w, mode, cubic=cubic)
        assert res.err_inf == pytest.approx(optimum, rel=1e-6)
        assert res.err_inf <= _dense_minimum(b, d, w, 1.0 / 45.0 if cubic else 1.0)
        if cubic is None:
            ev = error_vector_gaussian(target, w, res.theta4p)
        else:
            ev = error_vector_cubic(target, w, None, res.theta4p, cubic)
        assert ev.inf_norm == pytest.approx(res.err_inf, rel=1e-12)

    def test_crossing_next_to_the_pole_is_balanced(self, unit_weights):
        # The optimum is a crossing ex = ey at |b + d u| ~ 0.07, where the
        # expanded crossing quartic cancels; it must still hold ex = ey to
        # the precision of ex and ey themselves.
        b, d = -2.65, 0.975
        target = SymplecticTarget(1.0 / d, b, 0.0, d)
        res = optimize_theta4(target, unit_weights, MODE_CUBIC_OPTIMIZED,
                              cubic=OP_POINT)
        ev = error_vector_cubic(target, unit_weights, None, res.theta4p,
                                OP_POINT)
        assert ev.ex == pytest.approx(ev.ey, rel=1e-14)

    @pytest.mark.parametrize("mode, cubic, mid_weight", OPTIMIZED_MODES)
    @settings(max_examples=150, deadline=None)
    @given(weights=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT),
           b=st.floats(min_value=-5.0, max_value=5.0),
           d=st.floats(min_value=-5.0, max_value=5.0))
    def test_never_above_a_dense_scan(self, mode, cubic, mid_weight,
                                      weights, b, d):
        w = WeightConfig(*weights)
        assume(abs(d) >= 1e-3)
        # Within POLE_TOL of the pole the objective is cut out; near the
        # removable set that window makes it discontinuous.
        assume(abs(d - w.cross_ratio) >= 1e-6 * max(1.0, abs(d)))
        res = optimize_theta4(SymplecticTarget(1.0 / d, b, 0.0, d), w,
                              mode, cubic=cubic)
        scan = _dense_minimum(b, d, w, mid_weight)
        assert res.err_inf <= scan * (1.0 + 1e-12)


def _dense_minimum(b, d, w, mid_weight, n=40_000, pole_tol=0.0):
    """max(ex, ey) minimized over n phases evenly spaced in (0, pi) and pi/2.

    Written from the closed form of ``error_vector_gaussian``, with the
    middle terms scaled by ``mid_weight``; phases whose denominator
    (scaled by g3^2/g2^2) is within ``pole_tol`` of zero are left out.
    """
    g1, g2, g3, g4 = w.as_tuple()
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    u = np.append(np.cos(theta) / np.sin(theta), 0.0)
    with np.errstate(all="ignore"):
        denom = b + d * (g2 / g3) ** 2 * u
        ex = 1.0 / g3**2 + mid_weight * (g2 / g3) ** 2 * u**2 \
            + g2**2 * (b * g4 / g1 + (g2 / g3) * u) ** 2 \
            / (g3**2 * g4**2 * denom**2)
        ey = 1.0 + mid_weight * (g3 / g2) ** 2 \
            + (d * (g2 / g3) * (g4 / g1) - 1.0) ** 2 / (g4**2 * denom**2)
    in_window = np.abs(denom) * (g3 / g2) ** 2 <= pole_tol
    return float(np.nanmin(np.where(in_window, np.inf, np.maximum(ex, ey))))


def _spec(mode, w, cubic=None, n=11):
    return ErrorSurfaceSpec(
        b_range=(-5.0, 5.0), d_range=(-5.0, 5.0), nb=n, nd=n,
        w=w, mode=mode, cubic=cubic,
    )


class TestErrorSurface:
    def test_fixed_mode_invalid_cells(self, strong_weights):
        surf = error_surface(_spec(MODE_GAUSSIAN_FIXED, strong_weights))
        # At the fixed pi/2 phase the whole b = 0 column is a pole except
        # the removable cell d = g1*g3/(g2*g4) = 1.
        assert surf.n_invalid == 10
        i_b0 = 5
        j_d1 = int(np.where(surf.spec.d_values == 1.0)[0][0])
        assert np.isfinite(surf.err_inf[i_b0, j_d1])
        column = np.delete(surf.err_inf[i_b0, :], j_d1)
        assert np.all(~np.isfinite(column))

    def test_optimized_mode_only_origin_invalid(self, strong_weights):
        surf = error_surface(_spec(MODE_GAUSSIAN_OPTIMIZED, strong_weights))
        assert surf.n_invalid == 1
        assert not np.isfinite(surf.err_inf[5, 5])

    @settings(max_examples=30, deadline=None)
    @given(weights=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT))
    @example(weights=(5.0, 5.0, 4.0, 4.0))
    def test_optimized_cellwise_at_most_fixed(self, weights):
        # pi/2 is always a candidate, so there is no slack.
        w = WeightConfig(*weights)
        fixed = error_surface(_spec(MODE_GAUSSIAN_FIXED, w, n=21))
        opt = error_surface(_spec(MODE_GAUSSIAN_OPTIMIZED, w, n=21))
        valid = np.isfinite(fixed.err_inf)
        assert np.all(np.isfinite(opt.err_inf[valid]))
        assert np.all(opt.err_inf[valid] <= fixed.err_inf[valid])

    @pytest.mark.parametrize("d", [0.0, 1e-15, -1e-7])
    @pytest.mark.parametrize("mode, cubic, mid_weight", OPTIMIZED_MODES)
    def test_rows_where_the_quartics_lose_degree(self, mode, cubic,
                                                 mid_weight, d):
        # At d = 0 the quartics drop to degree 1 and 2; for tiny |d| their
        # leading coefficients vanish to rounding.  Weak weights keep the
        # optimum away from pi/2.
        w = WeightConfig(0.5, 1.0, 0.5, 1.0)
        surf = error_surface(ErrorSurfaceSpec(
            (-5.0, 5.0), (d, d), 21, 1, w, mode, cubic))
        fixed = error_surface(ErrorSurfaceSpec(
            (-5.0, 5.0), (d, d), 21, 1, w, MODE_GAUSSIAN_FIXED))
        assert np.nanmin(fixed.err_inf - surf.err_inf) > 0.1
        for b, err in zip(surf.spec.b_values, surf.err_inf[:, 0]):
            if b != 0.0:
                scan = _dense_minimum(b, d, w, mid_weight)
                assert err <= scan * (1.0 + 1e-12)

    def test_minimum_inside_the_pole_window_moves_to_its_edge(
            self, strong_weights):
        # |b g3^2/g2^2 + d u| <= POLE_TOL counts as a pole; here that
        # window holds the continuous minimum and pi/2.
        b, d = 1e-10, 1e-9
        surf = error_surface(ErrorSurfaceSpec(
            (b, b), (d, d), 1, 1, strong_weights, MODE_GAUSSIAN_OPTIMIZED))
        scan = _dense_minimum(b, d, strong_weights, 1.0, pole_tol=POLE_TOL)
        assert np.isfinite(surf.err_inf[0, 0])
        assert surf.err_inf[0, 0] <= scan * (1.0 + 1e-12)

    def test_cubic_cellwise_at_most_optimized(self, strong_weights):
        opt = error_surface(_spec(MODE_GAUSSIAN_OPTIMIZED, strong_weights))
        cub = error_surface(
            _spec(MODE_CUBIC_OPTIMIZED, strong_weights, cubic=OP_POINT)
        )
        both = np.isfinite(opt.err_inf) & np.isfinite(cub.err_inf)
        assert np.all(cub.err_inf[both] <= opt.err_inf[both] + 1e-9)

    def test_rows_are_b_major_with_nan_for_missing(self, strong_weights):
        surf = error_surface(_spec(MODE_GAUSSIAN_OPTIMIZED, strong_weights, n=3))
        rows = np.column_stack(surf.to_rows())
        assert rows.shape == (9, 6)
        assert rows[0][0] == -5.0 and rows[0][1] == -5.0
        assert rows[1][0] == -5.0 and rows[1][1] == 0.0
        origin = rows[4]
        assert origin[0] == 0.0 and origin[1] == 0.0
        assert np.isnan(origin[2]) and np.isnan(origin[5])

    @pytest.mark.parametrize("nb, nd", [(1, 1), (1, 5), (5, 1), (4, 3)])
    def test_cells_are_the_raveled_meshgrid(self, strong_weights, nb, nd):
        spec = ErrorSurfaceSpec((-1.5, 2.0), (-5.0, 5.0), nb, nd,
                                strong_weights, MODE_GAUSSIAN_OPTIMIZED)
        grid = np.meshgrid(spec.b_values, spec.d_values, indexing="ij")
        cells = spec.cells()
        assert [c.tobytes() for c in cells] == [g.tobytes() for g in grid]
        assert [c.tobytes() for c in error_surface(spec).to_rows()[:2]] \
            == [c.tobytes() for c in cells]

    def test_to_rows_columns_match_cellwise_flattening(self, strong_weights):
        # The 7x7 grid has b = 0 and d = 0 lines, so it holds pole cells.
        surf = error_surface(_spec(MODE_GAUSSIAN_OPTIMIZED, strong_weights, n=7))
        assert surf.n_invalid > 0
        b, d = surf.spec.b_values, surf.spec.d_values
        expected = [
            [b[i], d[j], surf.ex[i, j], surf.ey[i, j], surf.err_inf[i, j],
             surf.theta4p[i, j]]
            for i in range(7) for j in range(7)
        ]
        columns = surf.to_rows()
        assert len(columns) == 6
        assert all(col.dtype == np.float64 and col.shape == (49,)
                   for col in columns)
        np.testing.assert_array_equal(np.column_stack(columns), expected)
        assert np.isnan(columns[4]).sum() == surf.n_invalid

    @pytest.mark.parametrize("mode, cubic", [
        (MODE_GAUSSIAN_FIXED, None),
        (MODE_GAUSSIAN_OPTIMIZED, None),
        (MODE_CUBIC_OPTIMIZED, OP_POINT),
    ], ids=["fixed", "optimized", "cubic"])
    @pytest.mark.parametrize("weights", [(5.0, 5.0, 4.0, 4.0),
                                         (0.3, 2.0, 7.0, 0.5)])
    def test_cells_equal_the_optimizer_on_their_targets(self, mode, cubic,
                                                        weights):
        # The grid holds the pole column b = 0 and, for the first weights,
        # the removable line d = 1.  Its row d = 0 has no target: the
        # surface continues its closed form there, while optimize_theta4
        # refuses |d| < DEGENERATE_D_TOL.
        w = WeightConfig(*weights)
        surf = error_surface(_spec(mode, w, cubic=cubic))
        for i, b in enumerate(surf.spec.b_values):
            for j, d in enumerate(surf.spec.d_values):
                if abs(d) < DEGENERATE_D_TOL:
                    continue
                target = SymplecticTarget(1.0 / d, b, 0.0, d)
                try:
                    res = optimize_theta4(target, w, mode, cubic=cubic)
                except DenominatorPole:
                    assert np.isnan(surf.err_inf[i, j])
                    assert np.isnan(surf.theta4p[i, j])
                    continue
                assert surf.theta4p[i, j] == res.theta4p
                assert surf.err_inf[i, j] == res.err_inf

    @pytest.mark.parametrize("rows", [(0, 1), (0, 5), (5, 11), (3, 4),
                                      (0, 11)])
    @pytest.mark.parametrize("mode, cubic", [
        (MODE_GAUSSIAN_FIXED, None), (MODE_GAUSSIAN_OPTIMIZED, None),
        (MODE_CUBIC_OPTIMIZED, OP_POINT)], ids=["fixed", "optimized", "cubic"])
    def test_band_is_its_rows_of_the_grid(self, monkeypatch, strong_weights,
                                          mode, cubic, rows):
        # Bit for bit: a cell's values do not depend on the block of cells
        # it is evaluated in, nor on the thread that takes the block.
        spec = _spec(mode, strong_weights, cubic=cubic)
        terms = (strong_weights, *errormodel._mode_terms(mode, cubic))
        whole = errormodel._best_phase(*spec.cells(), *terms)
        lo, hi = rows
        band = [cells[lo * 11:hi * 11] for cells in spec.cells()]
        # Blocks of 7 searched cells or 105 fixed-phase ones, in turns.
        monkeypatch.setattr(errormodel, "_BLOCK_VALUES", 15 * 7)
        got = errormodel._best_phase(*band, *terms)
        assert got.tobytes() == whole[:, lo * 11:hi * 11].tobytes()

    def test_spec_validation(self, strong_weights):
        with pytest.raises(DomainError):
            _spec("nonsense", strong_weights)
        with pytest.raises(DomainError):
            ErrorSurfaceSpec((5.0, -5.0), (-5.0, 5.0), 3, 3,
                             strong_weights, MODE_GAUSSIAN_FIXED)
        with pytest.raises(DomainError):
            ErrorSurfaceSpec((-5.0, 5.0), (-5.0, 5.0), 0, 3,
                             strong_weights, MODE_GAUSSIAN_FIXED)
        with pytest.raises(DomainError):
            _spec(MODE_GAUSSIAN_FIXED, strong_weights, cubic=OP_POINT)
        with pytest.raises(DomainError):
            _spec(MODE_CUBIC_OPTIMIZED, strong_weights)

    @pytest.mark.parametrize("mode, cubic", [
        (MODE_GAUSSIAN_FIXED, None), (MODE_GAUSSIAN_OPTIMIZED, None),
        (MODE_CUBIC_OPTIMIZED, OP_POINT)], ids=["fixed", "optimized", "cubic"])
    @pytest.mark.parametrize("weights", [(5.0, 5.0, 4.0, 4.0),
                                         (1.0, 1.0, 1.0, 1.0),
                                         (0.3, 2.0, 7.0, 0.5)])
    def test_err_inf_is_even_in_b(self, weights, mode, cubic):
        """err_inf(b, d) equals err_inf(-b, d), invalid cells included.

        ex and ey are unchanged under (b, cot theta4') -> (-b, -cot theta4'),
        that is theta4' -> pi - theta4', which maps the fixed phase pi/2
        to itself.  The grid is not bit-antisymmetric in b, so err_inf
        agrees to rounding: at most 1.84e-14 relative over these nine
        maps.  Only err_inf is compared: where two candidates tie, the
        optimizer may pick a phase whose mirror is not the mirror cell's
        pick (theta4p_used + its mirror's - pi reached 3.07), and then the
        components differ too (ex by 0.80 relative in the unit-weight
        cubic map).
        """
        surf = error_surface(_spec(mode, WeightConfig(*weights), cubic,
                                   n=101))
        err, mirror = surf.err_inf, surf.err_inf[::-1]
        valid = ~np.isnan(err)
        assert np.array_equal(valid, ~np.isnan(mirror))
        rel = np.abs(err[valid] - mirror[valid]) / np.maximum(
            np.abs(err[valid]), np.abs(mirror[valid]))
        assert rel.max() <= 1e-13

    def test_single_cell_grid(self, unit_weights):
        spec = ErrorSurfaceSpec((0.8, 0.8), (1.5, 1.5), 1, 1,
                                unit_weights, MODE_GAUSSIAN_FIXED)
        surf = error_surface(spec)
        assert surf.err_inf.shape == (1, 1)
        target = SymplecticTarget(2.0, 0.8, (2.0 * 1.5 - 1.0) / 0.8, 1.5)
        ev = error_vector_gaussian(target, unit_weights, np.pi / 2)
        assert surf.err_inf[0, 0] == pytest.approx(ev.inf_norm, rel=1e-12)


# The benchmark's cubic operating point: I_m is its model estimate.
BENCH_CUBIC = CubicConfig(gamma=0.1, alpha=np.sqrt(125.0))
ALL_MODES = [
    pytest.param(MODE_GAUSSIAN_FIXED, None, id="fixed"),
    pytest.param(MODE_GAUSSIAN_OPTIMIZED, None, id="optimized"),
    pytest.param(MODE_CUBIC_OPTIMIZED, BENCH_CUBIC, id="cubic"),
]
OPTIMIZE_DIGESTS = {
    MODE_GAUSSIAN_FIXED:
        "e3b7cc89b80c9d143955b12de12089ba2def9824c268f4f538548083fc10f46c",
    MODE_GAUSSIAN_OPTIMIZED:
        "127f2ebc7f92a5a5c4f5ab76216fb684c348b66a1e78120f2d9123dff0f14fce",
    MODE_CUBIC_OPTIMIZED:
        "3352adc7f544ce9e7b4a1ffe8ee7a00fe9a59c4491a5bb867ddde6597350f7d7",
}
CUBIC_VECTOR_DIGEST = (
    "5e171bd9655a7195017382594ec3712036cd626d987f45ff0403cbc9f3642e82")
SURFACE_401_DIGESTS = {
    MODE_GAUSSIAN_FIXED:
        "36a3794fe515193160f120f84ac95f70ba46a20d6b7f8bd8e13cb6a691790a71",
    MODE_GAUSSIAN_OPTIMIZED:
        "47386b72e7dec52a8f93360814eea0744feb99a3d48c4a6ad05653576d725fb0",
    MODE_CUBIC_OPTIMIZED:
        "24853fab96b2e73246f0a3bc7d16e06985d4f576e3cfa7f756f8fae63fbfd336",
}
SURFACE_101_DIGESTS = {
    ((1.0, 1.0, 1.0, 1.0), MODE_GAUSSIAN_OPTIMIZED):
        "63aee56adf3feccbed6a1925a03da4b7379352b83f2b1aca2b51863abd2ca2cb",
    ((1.0, 1.0, 1.0, 1.0), MODE_CUBIC_OPTIMIZED):
        "c3009a8c3a70a0baab59b88e7b9826cd7bd6e059507608b8b76d12b72c0217aa",
    ((0.3, 2.0, 7.0, 0.5), MODE_GAUSSIAN_OPTIMIZED):
        "886f1e6032b4660560495c04414f6bad192d058fda966f2d27c87580ce6f89f1",
    ((0.3, 2.0, 7.0, 0.5), MODE_CUBIC_OPTIMIZED):
        "15165c2786f452bbeada4582a6f18a90c5737a823e0989170e5d1e444d9e0d5d",
}


def _outcome_bytes(call):
    """float64 bytes of ``call()``'s result, or its exception's class name."""
    try:
        return np.array(call(), dtype=float).tobytes()
    except DomainError as exc:
        return type(exc).__name__.encode()


def _surface_digest(weights, mode, cubic, n):
    spec = ErrorSurfaceSpec((-5.0, 5.0), (-5.0, 5.0), n, n,
                            WeightConfig(*weights), mode, cubic)
    surf = error_surface(spec)
    h = hashlib.sha256()
    for part in (surf.ex, surf.ey, surf.err_inf, surf.theta4p):
        h.update(part.tobytes())
    return h.hexdigest()


class TestEvaluatorDigests:
    """The evaluator's output bytes at size, pinned by their sha256.

    Taken at commit a65a6a0.  A change to any floating-point operation
    that a result depends on moves one of them, so a change that claims
    bit-identical results must leave them all in place.  The targets are
    the design-loop benchmark's: ``sample_targets(300, 1)`` with
    weights 5, 5, 4, 4.  The 401x401 grid over [-5, 5]^2 holds the pole
    row b = 0 and the row d = 0, where the quartics lose degree.
    """

    @pytest.mark.parametrize("mode, cubic", ALL_MODES)
    def test_optimize_theta4(self, strong_weights, mode, cubic):
        h = hashlib.sha256()
        for target in _targets(300, 1):
            h.update(_outcome_bytes(lambda: optimize_theta4(
                target, strong_weights, mode, cubic)))
        assert h.hexdigest() == OPTIMIZE_DIGESTS[mode]

    def test_error_vector_cubic_at_the_optimum(self, strong_weights):
        # theta3' is solved from the target, through the evaluator's
        # cot(theta3) on a single (b, d, cot(theta4')).
        h = hashlib.sha256()
        for target in _targets(300, 1):
            h.update(_outcome_bytes(lambda: error_vector_cubic(
                target, strong_weights, None,
                optimize_theta4(target, strong_weights,
                                MODE_CUBIC_OPTIMIZED, BENCH_CUBIC).theta4p,
                BENCH_CUBIC).as_tuple()))
        assert h.hexdigest() == CUBIC_VECTOR_DIGEST

    @pytest.mark.parametrize("mode, cubic", ALL_MODES)
    def test_bench_surface(self, mode, cubic):
        digest = _surface_digest((5.0, 5.0, 4.0, 4.0), mode, cubic, 401)
        assert digest == SURFACE_401_DIGESTS[mode]

    @pytest.mark.parametrize("mode, cubic", ALL_MODES[1:])
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0),
                                         (0.3, 2.0, 7.0, 0.5)],
                             ids=["unit", "skewed"])
    def test_other_weights_surface(self, weights, mode, cubic):
        digest = _surface_digest(weights, mode, cubic, 101)
        assert digest == SURFACE_101_DIGESTS[weights, mode]

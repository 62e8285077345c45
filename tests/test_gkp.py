"""Tests for the grid-state correction-failure model and gain surfaces."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustergauss import (
    CORRECTION_VARIANCE_UNITS,
    GKP_X_OFFSET,
    GKP_Y_OFFSET,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    DomainError,
    ErrorSurfaceSpec,
    SqueezingSpec,
    WeightConfig,
    gain_surface,
    p_err_values,
)
from clustergauss.gkp import _erfc

SQZ = SqueezingSpec.from_db(-15.0)


def _erf_oracle(x_er, y_er, var_s):
    """Direct 1 - erf*erf form, adequate away from the cancellation regime."""
    amp = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))
    ex = math.erf(amp / math.sqrt(var_s * (x_er + GKP_X_OFFSET)))
    ey = math.erf(amp / math.sqrt(var_s * (y_er + GKP_Y_OFFSET)))
    return 1.0 - ex * ey


def _p_err_scalar(x_er, y_er, var_s):
    """p_err_values for one cell, written out with math.erfc."""
    amp = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))
    a = math.erfc(amp / math.sqrt(var_s * (x_er + GKP_X_OFFSET)))
    b = math.erfc(amp / math.sqrt(var_s * (y_er + GKP_Y_OFFSET)))
    return a + b - a * b


class TestOffsets:
    def test_offset_values(self):
        assert GKP_X_OFFSET == pytest.approx((math.sqrt(5.0) + 1.0) / 2.0,
                                             rel=1e-15)
        assert GKP_Y_OFFSET == pytest.approx(math.sqrt(5.0) + 1.0, rel=1e-15)
        assert GKP_Y_OFFSET == pytest.approx(2.0 * GKP_X_OFFSET, rel=1e-15)

    def test_variance_unit_bridge(self):
        assert CORRECTION_VARIANCE_UNITS == 2.0


class TestPerr:
    @pytest.mark.parametrize("x_er,y_er,var_s", [
        (0.0, 0.0, 0.1),
        (2.0, 2.0, 0.015811388300841896),
        (1.0, 3.0, 0.5),
        (10.0, 0.5, 0.02),
        (0.3, 0.3, 1.0),
    ])
    def test_matches_erf_product_oracle(self, x_er, y_er, var_s):
        got = p_err_values(x_er, y_er, var_s)
        want = _erf_oracle(x_er, y_er, var_s)
        assert got == pytest.approx(want, abs=1e-15)

    def test_bounded_probability(self):
        for var_s in (0.01, 0.1, 1.0, 100.0):
            p = p_err_values(2.0, 2.0, var_s)
            assert 0.0 < p < 1.0
        # far below any representable probability the result underflows
        # to an exact zero rather than going negative
        assert p_err_values(2.0, 2.0, 1e-4) == 0.0

    @given(
        x_lo=st.floats(min_value=0.0, max_value=20.0),
        bump=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_monotone_in_x_multiplier(self, x_lo, bump):
        lo = p_err_values(x_lo, 1.0, 0.05)
        hi = p_err_values(x_lo + bump, 1.0, 0.05)
        assert hi > lo

    @given(
        y_lo=st.floats(min_value=0.0, max_value=20.0),
        bump=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_monotone_in_y_multiplier(self, y_lo, bump):
        lo = p_err_values(1.0, y_lo, 0.05)
        hi = p_err_values(1.0, y_lo + bump, 0.05)
        assert hi > lo

    @given(var_s=st.floats(min_value=1e-3, max_value=1.0))
    def test_monotone_in_variance(self, var_s):
        assert p_err_values(2.0, 2.0, 1.5 * var_s) \
            > p_err_values(2.0, 2.0, var_s)

    def test_quadratures_enter_asymmetrically(self):
        assert p_err_values(3.0, 0.0, 0.05) \
            != p_err_values(0.0, 3.0, 0.05)

    def test_vectorised_matches_scalar(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        y = np.array([0.5, 0.5, 3.0, 3.0])
        vals = p_err_values(x, y, 0.1)
        for i in range(4):
            assert vals[i] == p_err_values(float(x[i]), float(y[i]), 0.1)

    def test_nan_multipliers_propagate(self):
        vals = p_err_values(np.array([np.nan, 1.0]), np.array([1.0, np.nan]), 0.1)
        assert np.all(np.isnan(vals))

    def test_tiny_variance_underflows_gracefully(self):
        p = p_err_values(0.0, 0.0, 1e-8)
        assert p >= 0.0 and p < 1e-300


def _spec(w, mode, n=21):
    return ErrorSurfaceSpec((-5.0, 5.0), (-5.0, 5.0), n, n, w, mode)


class TestErfc:
    """libm's erfc, as ``p_err_values`` applies it, against references.

    REFERENCES holds erfc(x) correctly rounded to float64, computed once
    with mpmath as ``float(mpmath.erfc(mpmath.mpf(x)))`` at
    ``mpmath.mp.prec = 160``, written as float.hex().  The points cross
    1 and 8, where rational erfc approximations switch branch, run into
    the subnormal range and past the underflow to 0, and include the
    worst points of the Cephes port the package used before: 7.99
    (15 ulp off), 26.54 (58 ulp), 26.55 (17 ulp), and 26.64174755704633
    and 27.0, where it returned 0 for a subnormal value.  glibc 2.36's
    erfc is at most 1 ulp off here and at most 3 ulp off on the 90 239
    distinct arguments of the 401x401 weights-only gain map, hence
    MAX_ULP.
    """

    MAX_ULP = 4
    REFERENCES = [
        (0.0, "0x1.0000000000000p+0"),
        (0.25, "0x1.728558ee694fcp-1"),
        (0.5, "0x1.eb02147ce245cp-2"),
        (math.nextafter(1.0, 0.0), "0x1.4226162fbddd7p-3"),
        (1.0, "0x1.4226162fbddd5p-3"),
        (math.nextafter(1.0, 2.0), "0x1.4226162fbddd2p-3"),
        (2.0, "0x1.328f5ec350e67p-8"),
        (3.5, "0x1.8ef2a9a18d857p-21"),
        (6.0, "0x1.8cf81557d20b6p-56"),
        (7.99, "0x1.0b75891ecc484p-96"),
        (math.nextafter(8.0, 0.0), "0x1.c74fc41217e6ep-97"),
        (8.0, "0x1.c74fc41217dfbp-97"),
        (math.nextafter(8.0, 9.0), "0x1.c74fc41217d16p-97"),
        (10.0, "0x1.7d8a7f2a8a2d0p-149"),
        (15.0, "0x1.93e1b371520a1p-330"),
        (20.0, "0x1.b54f244df93dfp-583"),
        (26.5, "0x1.3df6725a60cf5p-1019"),
        (26.54, "0x1.3060b1cf44591p-1022"),
        (26.55, "0x0.b2ee03853bf84p-1022"),
        (26.64, "0x0.017c93fc73893p-1022"),
        (26.641747557046326, "0x0.015ab7e9654c1p-1022"),
        (26.64174755704633, "0x0.015ab7e9654bdp-1022"),
        (27.0, "0x0.0000000019e0fp-1022"),
        (27.2, "0x0.0000000000002p-1022"),
        (27.3, "0x0.0p+0"),
        (math.inf, "0x0.0p+0"),
        (-0.5, "0x1.853f7ae0c76e9p+0"),
        (-1.0, "0x1.d7bb3d3a08445p+0"),
        (-3.0, "0x1.fffe8d6209afdp+0"),
        (-6.0, "0x1.0000000000000p+1"),
        (-math.inf, "0x1.0000000000000p+1"),
    ]

    @staticmethod
    def _ulps(got, want):
        """Distance in float64 steps between two nonnegative floats."""
        steps = np.array([got, want], dtype=np.float64).view(np.int64)
        return abs(int(steps[0]) - int(steps[1]))

    @pytest.mark.parametrize("x, hex_value", REFERENCES)
    def test_within_max_ulp(self, x, hex_value):
        got = _erfc(np.array([x, x]))
        assert got[0] == got[1]
        assert self._ulps(float(got[0]), float.fromhex(hex_value)) \
            <= self.MAX_ULP

    def test_nan_passes_through(self):
        out = _erfc(np.array([[1.0, math.nan], [0.25, 9.0]]))
        assert out.shape == (2, 2)
        assert np.isnan(out[0, 1]) and np.isnan(out).sum() == 1
        assert _erfc(np.float64(0.5)).shape == ()

    # Values that make runs: equal neighbours, NaN, both zeros, infinities.
    RUN_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 3.0, 27.2]

    @given(values=st.lists(st.sampled_from(RUN_VALUES) | st.floats(),
                           max_size=40),
           rows=st.sampled_from([None, 1, 2, 3]))
    def test_is_scalar_erfc_called_once_per_run(self, values, rows):
        shape = (len(values),)
        if rows and len(values) % rows == 0:
            shape = (rows, len(values) // rows)
        want = np.array([math.erfc(v) for v in values],
                        dtype=float).reshape(shape)
        # A run starts wherever a value differs from the one before it;
        # NaN differs from everything, 0.0 equals -0.0.
        runs = sum(1 for k, v in enumerate(values)
                   if k == 0 or not v == values[k - 1])
        calls = []
        erfc = math.erfc

        def counted(x):
            calls.append(x)
            return erfc(x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(math, "erfc", counted)
            got = _erfc(np.array(values, dtype=float).reshape(shape))
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert len(calls) == runs

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_array_calls_nothing(self, monkeypatch, shape):
        monkeypatch.setattr(math, "erfc", None)
        got = _erfc(np.empty(shape))
        assert got.shape == shape and got.dtype == np.float64

    @given(
        xy=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e12),
                              st.floats(min_value=0.0, max_value=1e12)),
                    min_size=1, max_size=20),
        var_s=st.floats(min_value=1e-8, max_value=1e4),
    )
    def test_p_err_values_is_the_scalar_transcription(self, xy, var_s):
        x_er, y_er = (np.array(v) for v in zip(*xy))
        want = np.array([_p_err_scalar(x, y, var_s) for x, y in xy])
        assert p_err_values(x_er, y_er, var_s).tobytes() == want.tobytes()


class TestGainSurface:
    def test_weights_only_gain_frozen(self, unit_weights, strong_weights):
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_FIXED),
            SQZ,
        )
        assert gs.max_ratio == pytest.approx(36.546759531920344, rel=1e-9)
        assert gs.argmax_cell == (-1.0, -3.5)

    def test_phase_optimization_multiplies_gain(self, unit_weights, strong_weights):
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_OPTIMIZED),
            SQZ,
        )
        assert gs.max_ratio == pytest.approx(359.8595063639527, rel=1e-9)
        # b -> -b with theta4' -> pi - theta4' maps the objective onto
        # itself, so the cells b = +-0.5 tie and argmax takes the first.
        assert gs.argmax_cell == (-0.5, -5.0)
        b = gs.baseline.spec.b_values
        i_minus = int(np.flatnonzero(b == -0.5)[0])
        i_plus = int(np.flatnonzero(b == 0.5)[0])
        assert gs.ratio[i_plus, 0] == pytest.approx(gs.ratio[i_minus, 0], rel=1e-12)

    def test_headline_maximum_sits_next_to_the_baseline_pole(
            self, unit_weights, strong_weights):
        # The default 101x101 map, weights + phase against the fixed-phase
        # baseline: the baseline's pole b = 0 drives p_base towards 1 in
        # the b cells beside it, so the maximum sits there, on a d edge,
        # below 1/p_opt of its cell, and grows as the grid gets finer.
        ratios = []
        for n in (101, 201):
            gs = gain_surface(
                _spec(unit_weights, MODE_GAUSSIAN_FIXED, n=n),
                _spec(strong_weights, MODE_GAUSSIAN_OPTIMIZED, n=n),
                SQZ,
            )
            i, j = gs._argmax()
            spec = gs.baseline.spec
            assert abs(i - n // 2) == 1 and spec.b_values[n // 2] == 0.0
            assert abs(spec.d_values[j]) == 5.0
            assert gs.p_base[i, j] > 0.9
            assert gs.max_ratio == gs.p_base[i, j] / gs.p_opt[i, j]
            assert gs.max_ratio < 1.0 / gs.p_opt[i, j]
            ratios.append(gs.max_ratio)
        assert ratios[0] == pytest.approx(576.142471119171, rel=1e-9)
        assert ratios[1] > ratios[0]

    def test_pole_cells_are_nan_in_both(self, unit_weights, strong_weights):
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_FIXED),
            SQZ,
        )
        invalid = ~np.isfinite(gs.ratio)
        assert int(invalid.sum()) == 20
        assert np.array_equal(invalid, ~np.isfinite(gs.p_base))
        assert np.array_equal(invalid, ~np.isfinite(gs.p_opt))

    def test_cell_missing_in_one_surface_is_blank_in_both(self, unit_weights,
                                                          strong_weights):
        # The optimized surface misses only the origin of the baseline's
        # pole column b = 0.
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_OPTIMIZED),
            SQZ,
        )
        assert gs.optimized.n_invalid == 1
        invalid = ~np.isfinite(gs.baseline.err_inf)
        assert int(invalid.sum()) == 20
        for column in (gs.p_base, gs.p_opt, gs.ratio):
            assert np.array_equal(np.isnan(column), invalid)

    def test_no_valid_cell_has_nan_maximum(self, unit_weights):
        # At the fixed phase, b = 0 is a pole unless d is the cross ratio.
        spec = ErrorSurfaceSpec((0.0, 0.0), (-5.0, 0.0), 1, 3, unit_weights,
                                MODE_GAUSSIAN_FIXED)
        gs = gain_surface(spec, spec, SQZ)
        assert np.isnan(gs.ratio).all()
        assert math.isnan(gs.max_ratio)
        assert all(math.isnan(v) for v in gs.argmax_cell)

    def test_cell_probability_uses_doubled_variance(self, unit_weights, strong_weights):
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_FIXED),
            SQZ,
        )
        i, j = 3, 7
        expect = p_err_values(
            gs.baseline.ex[i, j], gs.baseline.ey[i, j],
            CORRECTION_VARIANCE_UNITS * SQZ.var_y,
        )
        assert gs.p_base[i, j] == pytest.approx(float(expect), rel=1e-15)

    @pytest.mark.parametrize("change", [
        {"b_range": (-4.0, 5.0)}, {"d_range": (-5.0, 4.0)}, {"nb": 11},
        {"nd": 11}],
        ids=["b_range", "d_range", "nb", "nd"])
    def test_grid_mismatch_rejected(self, unit_weights, strong_weights,
                                    change):
        base = _spec(unit_weights, MODE_GAUSSIAN_FIXED)
        other = dataclasses.replace(
            _spec(strong_weights, MODE_GAUSSIAN_FIXED), **change)
        with pytest.raises(DomainError, match="share the grid"):
            gain_surface(base, other, SQZ)

    @pytest.mark.parametrize("nb, nd", [(1, 1), (1, 5), (5, 1), (4, 3)])
    def test_rows_start_with_the_cells(self, unit_weights, strong_weights,
                                       nb, nd):
        base, opt = (ErrorSurfaceSpec((-1.5, 2.0), (-5.0, 5.0), nb, nd, w,
                                      MODE_GAUSSIAN_FIXED)
                     for w in (unit_weights, strong_weights))
        b, d, *_ = gain_surface(base, opt, SQZ).to_rows()
        cell_b, cell_d = base.cells()
        assert b.tobytes() == cell_b.tobytes()
        assert d.tobytes() == cell_d.tobytes()

    def test_rows(self, unit_weights, strong_weights):
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED, n=5),
            _spec(strong_weights, MODE_GAUSSIAN_FIXED, n=5),
            SQZ,
        )
        b, d, p_base, p_opt, ratio = gs.to_rows()
        assert all(col.shape == (25,) for col in (b, d, p_base, p_opt, ratio))
        assert [b[0], d[0]] == [-5.0, -5.0]
        assert [b[1], d[1]] == [-5.0, -2.5]
        # the b = 0 row holds the pole cells -> missing values
        assert np.isnan(np.stack([p_base, p_opt, ratio])[:, 10:15]).all()
        assert ratio[0] == gs.ratio[0, 0]

    def test_more_squeezing_smaller_failure_probability(self, unit_weights,
                                                        strong_weights):
        specs = (
            _spec(unit_weights, MODE_GAUSSIAN_FIXED, n=5),
            _spec(strong_weights, MODE_GAUSSIAN_FIXED, n=5),
        )
        strong = gain_surface(*specs, SqueezingSpec.from_db(-20.0))
        weak = gain_surface(*specs, SqueezingSpec.from_db(-10.0))
        both = np.isfinite(strong.p_base)
        assert np.all(strong.p_base[both] < weak.p_base[both])

    def test_ratio_at_least_one_when_optimized_dominates(self, unit_weights,
                                                         strong_weights):
        # The optimized surface here is cellwise at most the baseline, so
        # by monotonicity of the failure probability every ratio >= 1.
        gs = gain_surface(
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_OPTIMIZED),
            SQZ,
        )
        valid = np.isfinite(gs.ratio)
        ex_ok = gs.optimized.ex[valid] <= gs.baseline.ex[valid] + 1e-12
        ey_ok = gs.optimized.ey[valid] <= gs.baseline.ey[valid] + 1e-12
        assert np.all(ex_ok) and np.all(ey_ok)
        assert np.all(gs.ratio[valid] >= 1.0)

    def test_gain_compresses_toward_unity_with_less_squeezing(self, unit_weights,
                                                              strong_weights):
        # In the exponential-tail regime the log-ratio of two
        # complementary error functions scales like 1/var_s, so weaker
        # squeezing always moves every cell's ratio toward 1.
        specs = (
            _spec(unit_weights, MODE_GAUSSIAN_FIXED),
            _spec(strong_weights, MODE_GAUSSIAN_OPTIMIZED),
        )
        g15 = gain_surface(*specs, SqueezingSpec.from_db(-15.0))
        g10 = gain_surface(*specs, SqueezingSpec.from_db(-10.0))
        both = np.isfinite(g15.ratio) & np.isfinite(g10.ratio)
        assert np.all(g10.ratio[both] <= g15.ratio[both])
        assert np.all(g10.ratio[both] >= 1.0)

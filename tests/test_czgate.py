"""Tests for the weighted CZ gate decomposition and the weight bound."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustergauss import (
    DomainError,
    bloch_messiah,
    cz_matrix,
    max_weight,
    squeeze_ratio,
)

SYMPLECTIC_FORM = np.block([
    [np.zeros((2, 2)), np.eye(2)],
    [-np.eye(2), np.zeros((2, 2))],
])


class TestCzMatrix:
    def test_zero_weight_is_identity(self):
        np.testing.assert_array_equal(cz_matrix(0.0), np.eye(4))

    def test_unit_weight_couplings(self):
        m = cz_matrix(1.0)
        assert m[2, 1] == 1.0 and m[3, 0] == 1.0
        off = m - np.eye(4)
        off[2, 1] = off[3, 0] = 0.0
        np.testing.assert_array_equal(off, np.zeros((4, 4)))

    @given(g=st.floats(min_value=0.0, max_value=50.0))
    def test_symplectic(self, g):
        m = cz_matrix(g)
        np.testing.assert_allclose(
            m @ SYMPLECTIC_FORM @ m.T, SYMPLECTIC_FORM, atol=1e-12
        )

    def test_composition_adds_weights(self):
        np.testing.assert_allclose(
            cz_matrix(1.5) @ cz_matrix(2.0), cz_matrix(3.5), atol=1e-15
        )


class TestSqueezeRatio:
    def test_known_values(self):
        assert squeeze_ratio(0.0) == pytest.approx(1.0, abs=1e-15)
        assert squeeze_ratio(1.0) == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0,
                                                   abs=1e-15)
        assert squeeze_ratio(5.0) == pytest.approx(
            (27.0 - 5.0 * np.sqrt(29.0)) / 2.0, rel=1e-12)

    def test_matches_subtractive_form(self):
        for g in (0.1, 0.7, 2.0, 4.0):
            direct = (2.0 + g**2 - g * np.sqrt(4.0 + g**2)) / 2.0
            assert squeeze_ratio(g) == pytest.approx(direct, rel=1e-12)

    @given(g=st.floats(min_value=0.0, max_value=100.0))
    def test_in_unit_interval(self, g):
        s = squeeze_ratio(g)
        assert 0.0 < s <= 1.0

    def test_monotone_decreasing(self):
        gs = np.linspace(0.0, 20.0, 200)
        ss = np.array([squeeze_ratio(float(g)) for g in gs])
        assert np.all(np.diff(ss) < 0.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            squeeze_ratio(-0.1)


class TestBlochMessiah:
    @given(g=st.floats(min_value=0.0, max_value=10.0))
    def test_reconstruction(self, g):
        dec = bloch_messiah(g)
        assert dec.residual <= 1e-12
        np.testing.assert_allclose(dec.product(), cz_matrix(g), atol=1e-12)

    def test_zero_weight_squeezer_is_identity(self):
        dec = bloch_messiah(0.0)
        np.testing.assert_allclose(dec.squeezer, np.eye(4), atol=1e-15)
        assert dec.r_bs == pytest.approx(dec.t_bs)

    def test_beam_splitter_amplitudes_normalised(self):
        for g in (0.0, 0.5, 1.0, 5.0, 9.0):
            dec = bloch_messiah(g)
            assert dec.r_bs**2 + dec.t_bs**2 == pytest.approx(1.0, abs=1e-12)

    def test_each_factor_is_symplectic(self):
        dec = bloch_messiah(2.5)
        for f in dec.factors:
            np.testing.assert_allclose(
                f @ SYMPLECTIC_FORM @ f.T, SYMPLECTIC_FORM, atol=1e-12
            )

    def test_squeezer_ratios(self):
        dec = bloch_messiah(3.0)
        sq = dec.squeezer
        assert sq[0, 0] == pytest.approx(np.sqrt(dec.s))
        assert sq[1, 1] == pytest.approx(1.0 / np.sqrt(dec.s))
        assert sq[2, 2] * sq[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sq[3, 3] * sq[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            bloch_messiah(-1.0)


class TestMaxWeight:
    def test_frozen_value_at_minus_15db(self):
        assert 5.53 < max_weight(-15.0) < 5.55
        assert max_weight(-15.0) == pytest.approx(5.536553985261547, rel=1e-12)

    def test_no_squeezing_bound(self):
        assert max_weight(0.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_monotone_decreasing_in_db(self):
        dbs = np.linspace(-25.0, 0.0, 101)
        bounds = np.array([max_weight(float(db)) for db in dbs])
        assert np.all(np.diff(bounds) < 0.0)

    def test_more_squeezing_admits_larger_weights(self):
        assert max_weight(-20.0) > max_weight(-10.0) > max_weight(-3.0)

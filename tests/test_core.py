import ast
import ctypes
import math
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustergauss import (
    CubicConfig,
    NotSymplectic,
    PhaseSet,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    arccot,
    db_to_variance,
    validate_target,
)
from clustergauss import core
from clustergauss.core import DomainError, angle_cot


def _names_by_module(skip: str):
    """(file name, names) of each package module but ``skip``.

    The names are every identifier, attribute, imported name and string
    constant that the module's code uses.
    """
    for path in Path(core.__file__).parent.glob("*.py"):
        if path.name == skip:
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                              str):
                names.add(node.value)
        yield path.name, names


class TestAngleConversions:
    def test_arccot_zero_is_half_pi(self):
        assert arccot(0.0) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_arccot_range_is_open_zero_pi(self):
        for v in (-1e9, -1.0, 0.0, 1.0, 1e9):
            th = arccot(v)
            assert 0.0 < th < np.pi

    def test_arccot_negative_branch(self):
        # arccot(-v) = pi - arccot(v): the angle stays on the (0, pi) branch.
        assert arccot(-2.0) == pytest.approx(np.pi - arccot(2.0), abs=1e-15)

    @given(st.floats(min_value=-1e3, max_value=1e3))
    def test_roundtrip_moderate_values(self, v):
        back = angle_cot("theta", arccot(v))
        assert abs(back - v) <= 1e-12 * max(1.0, abs(v))

    @given(st.floats(min_value=1e3, max_value=1e12))
    def test_roundtrip_large_values(self, v):
        # d cot/d theta = -(1 + cot^2): near the branch ends a one-ulp
        # angle error grows quadratically in the value.
        back = angle_cot("theta", arccot(v))
        assert abs(back - v) <= 1e-12 * (1.0 + v * v)
        back = angle_cot("theta", arccot(-v))
        assert abs(back + v) <= 1e-12 * (1.0 + v * v)

    def test_cot_at_half_pi_is_zero(self):
        assert angle_cot("theta", np.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_cot_elementwise(self):
        got = [angle_cot("theta", th)
               for th in (np.pi / 4, np.pi / 2, 3 * np.pi / 4)]
        np.testing.assert_allclose(got, [1.0, 0.0, -1.0], atol=1e-15)


class TestPhaseSolutionDomain:
    def test_degenerate_below_the_tolerance(self):
        assert core.is_degenerate(0.0) and core.is_degenerate(-9.9e-10)
        assert not core.is_degenerate(core.DEGENERATE_D_TOL)
        np.testing.assert_array_equal(
            core.is_degenerate(np.array([1e-12, -1e-9, 2e-9])),
            [True, False, False])

    def test_cot3_and_its_pole_rule(self):
        ratio = 0.8
        denom = np.array([0.0, 1e-10, 0.0, 2.0])
        d = np.array([ratio, ratio * (1 + 1e-12), 3.0, 3.0])
        cot3, removable, pole = core.solve_cot3(denom, d, ratio)
        np.testing.assert_array_equal(removable, [True, True, False, False])
        np.testing.assert_array_equal(pole, [False, False, True, False])
        np.testing.assert_array_equal(cot3, [0.0, 0.0, 0.0, (3.0 - ratio) / 2])

    @given(p=st.floats(min_value=-5.0, max_value=5.0),
           d=st.floats(min_value=1e-9, max_value=5.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_window_edges_are_just_outside_the_pole(self, p, d, sign):
        d *= sign
        edges = core.pole_window_edges(p, d)
        _, _, pole = core.solve_cot3(p + d * edges, d, 1e3)
        assert not pole.any()
        _, _, pole = core.solve_cot3(p + d * (-p / d), d, 1e3)
        assert pole

    def test_only_core_names_the_tolerances(self):
        # One domain rule: every other module asks core, so no second copy
        # of the pole or degeneracy test can grow.
        tolerances = {"POLE_TOL", "DEGENERATE_D_TOL"}
        for module, names in _names_by_module(skip="core.py"):
            assert not names & tolerances, module


def test_only_cli_names_mallopt():
    # The library never changes process-wide allocator state; only the
    # command-line entry point does.
    for module, names in _names_by_module(skip="cli.py"):
        assert "mallopt" not in names, module


def test_only_cli_names_the_blas_thread_count():
    # Likewise for the BLAS thread pool: only the command-line entry point
    # sets OPENBLAS_NUM_THREADS.
    for module, names in _names_by_module(skip="cli.py"):
        assert "OPENBLAS_NUM_THREADS" not in names, module


class TestSqueezing:
    def test_db_to_variance_15db(self):
        assert db_to_variance(-15.0) == pytest.approx(
            0.007905694150420949, abs=1e-17)

    def test_db_to_variance_20p5db(self):
        assert db_to_variance(-20.5) == pytest.approx(
            0.002228127345334364, abs=1e-17)

    def test_zero_db_is_vacuum(self):
        assert db_to_variance(0.0) == pytest.approx(0.25, abs=0)

    def test_from_db_minimum_uncertainty(self):
        sq = SqueezingSpec.from_db(-15.0)
        assert sq.var_y * sq.var_x == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_r_matches_exponential(self):
        # r = 1.5 in dB: the variances are exp(-+2r)/4.
        sq = SqueezingSpec.from_db(-30.0 / math.log(10.0))
        assert sq.r == pytest.approx(1.5, rel=1e-14)
        assert sq.var_y == pytest.approx(np.exp(-3.0) / 4.0, rel=1e-14)
        assert sq.var_x == pytest.approx(np.exp(3.0) / 4.0, rel=1e-14)

    def test_rejects_a_variance_that_underflows(self):
        with pytest.raises(DomainError, match="var_y must be positive"):
            SqueezingSpec(-4000.0)

    @pytest.mark.parametrize("db", [math.inf, -math.inf, math.nan])
    def test_rejects_a_nonfinite_level(self, db):
        # +inf used to pass the var_y check with var_y = inf, var_x = 0.
        with pytest.raises(DomainError, match="db must be finite"):
            SqueezingSpec(db)


class TestSymplecticTarget:
    def test_determinant_enforced(self):
        with pytest.raises(NotSymplectic):
            validate_target(SymplecticTarget(1.0, 0.0, 0.0, 2.0))

    def test_identity_is_valid(self):
        validate_target(SymplecticTarget(1.0, 0.0, 0.0, 1.0))

    def test_matrix_roundtrip(self):
        t = SymplecticTarget(1.2, 0.5, 0.3, (1 + 0.15) / 1.2)
        m = t.as_matrix()
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[t.a, t.b], [t.c, t.d]])

    def test_det_property(self):
        t = SymplecticTarget(2.0, 3.0, 1.0, 2.0)
        assert t.det == pytest.approx(1.0, abs=1e-15)


class TestWeightConfig:
    def test_ratios(self):
        w = WeightConfig(5.0, 5.0, 4.0, 4.0)
        assert w.g1_over_g4 == pytest.approx(1.25)
        assert w.g3_over_g2 == pytest.approx(0.8)
        assert w.cross_ratio == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            WeightConfig(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            WeightConfig(1.0, -2.0, 1.0, 1.0)


COTS = ("cot1", "cot2p", "cot3", "cot4p")


class TestPhaseSet:
    def test_stores_cotangents_exactly(self):
        # The phases are stored as their cotangents, so downstream
        # consumers never pay the trig round-trip error.
        ps = PhaseSet(cot1=0.123456789, cot2p=-7.5, cot3=3.25e3, cot4p=0.0)
        assert ps.cot1 == 0.123456789
        assert ps.cot2p == -7.5
        assert ps.cot3 == 3.25e3
        assert ps.cot4p == 0.0

    def test_angles_on_branch(self):
        ps = PhaseSet(cot1=1.0, cot2p=-1.0, cot3=100.0, cot4p=-100.0)
        for th in (ps.theta1, ps.theta2p, ps.theta3, ps.theta4p):
            assert 0.0 < th < np.pi

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4))
    def test_angles_are_arccot_of_the_cotangents(self, cots):
        ps = PhaseSet(**dict(zip(COTS, cots)))
        angles = (ps.theta1, ps.theta2p, ps.theta3, ps.theta4p)
        for theta, value in zip(angles, cots):
            assert np.float64(theta).tobytes() == \
                np.float64(arccot(value)).tobytes()

    @pytest.mark.parametrize("name", COTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_nonfinite_cotangent(self, name, bad):
        cots = {**dict.fromkeys(COTS, 0.5), name: bad}
        with pytest.raises(DomainError, match=f"{name} = .* is not finite"):
            PhaseSet(**cots)

    def test_rejects_a_positional_call(self):
        # Positional angles would otherwise be read as cotangents.
        with pytest.raises(TypeError):
            PhaseSet(np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 2)


class TestCubicConfig:
    def test_default_photocurrent_scale(self):
        cub = CubicConfig(gamma=0.1, alpha=5.0 * math.sqrt(5.0))
        assert cub.i_m == pytest.approx(37.5, rel=1e-12)
        assert cub.twelve_gamma_im == pytest.approx(45.0, rel=1e-12)

    def test_explicit_photocurrent_scale(self):
        cub = CubicConfig(gamma=0.1, alpha=1.0, i_m=10.0)
        assert cub.twelve_gamma_im == pytest.approx(12.0, rel=1e-14)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(DomainError):
            CubicConfig(gamma=0.0, alpha=1.0)


class TestHelperThread:
    """``core.in_turns``' helper thread moves off the CPU it starts on."""

    @staticmethod
    def _start(monkeypatch, usable, here, refuse=False):
        """The affinity calls a helper thread makes on its start, with
        ``usable`` CPUs and the current one ``here``; checks that the
        helper still runs work."""
        calls = []

        def set_affinity(pid, mask):
            if refuse:
                raise OSError("mask refused")
            calls.append((pid, set(mask)))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable))
        monkeypatch.setattr(os, "sched_setaffinity", set_affinity)
        monkeypatch.setattr(core, "_current_cpu", lambda: here)
        caller, helper = core.in_turns(lambda k: threading.get_ident(), 2)
        assert caller == threading.get_ident() != helper
        return calls

    def test_leaves_its_cpu_then_gets_the_full_mask(self, monkeypatch):
        assert self._start(monkeypatch, {0, 1, 2}, 1) == [
            (0, {0, 2}), (0, {0, 1, 2})]

    @pytest.mark.parametrize("usable, here, refuse", [
        ({1}, 1, False), ({0, 1}, 0, True), ({0, 1}, None, False)],
        ids=["one-cpu", "refused", "no-sched-getcpu"])
    def test_otherwise_a_no_op_that_raises_nothing(self, monkeypatch, usable,
                                                   here, refuse):
        # An initializer that raised would break the executor.
        assert self._start(monkeypatch, usable, here, refuse) == []

    @pytest.mark.parametrize("lib", [object(), None],
                             ids=["no-symbol", "no-library"])
    def test_current_cpu_without_sched_getcpu(self, monkeypatch, lib):
        def cdll(name):
            if lib is None:
                raise OSError("no C library")
            return lib

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert core._current_cpu() is None

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_ends_on_the_full_mask(self):
        usable = os.sched_getaffinity(0)
        assert core._current_cpu() in usable | {None}
        _, mask = core.in_turns(lambda k: os.sched_getaffinity(0), 2)
        assert mask == usable

    def test_only_core_builds_the_executor(self):
        # ``in_turns`` is the one code that hands work to a thread.
        names = dict(_names_by_module(skip="core.py"))
        assert {m for m, used in names.items() if "in_turns" in used} == {
            "cli.py", "errormodel.py", "simulate.py"}
        threads = {"ThreadPoolExecutor", "Thread", "threading", "submit",
                   "multiprocessing", "fork"}
        assert not {m for m, used in names.items() if used & threads}
        tree = ast.parse(Path(core.__file__).read_text())
        assert [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                and {"ThreadPoolExecutor", "submit"} & {
                    getattr(n, "id", getattr(n, "attr", None))
                    for n in ast.walk(f)}] == ["in_turns"]


class TestInTurns:
    """``core.in_turns`` yields fn(0), ..., fn(n - 1) in order, the odd k
    computed on one helper thread."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
    def test_results_arrive_in_order(self, n):
        assert list(core.in_turns(lambda k: k * k, n)) == [
            k * k for k in range(n)]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_odd_k_on_the_helper_even_k_on_the_caller(self, n):
        running = threading.active_count()
        threads = list(core.in_turns(lambda k: threading.get_ident(), n))
        caller = threading.get_ident()
        assert threads[::2] == [caller] * len(threads[::2])
        assert len(set(threads[1::2])) == 1
        assert threads[1] != caller
        assert threading.active_count() == running

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_items_build_no_executor(self, monkeypatch, n):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        threads = list(core.in_turns(lambda k: threading.get_ident(), n))
        assert threads == [threading.get_ident()] * n

    def test_helper_computes_ahead_by_one_item(self):
        # While the caller handles k, the helper computes k + 1; it starts
        # k + 3 only once k + 1 has been handled, which lets simulate.run
        # reuse one buffer per thread.  A short switch interval
        # interleaves the two threads finely.
        events = []

        def fn(k):
            events.append(("start", k))
            return np.full(1000, k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k, item in enumerate(core.in_turns(fn, 200)):
                assert (item == k).all()
                events.append(("used", k))
        finally:
            sys.setswitchinterval(interval)
        assert [k for what, k in events if what == "used"] == list(range(200))
        for k in range(2, 200):
            assert events.index(("start", k)) > events.index(("used", k - 2))

    @pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}, {3, 4}, {2, 3}],
                             ids=["caller", "helper", "both", "helper-first",
                                  "caller-first"])
    @pytest.mark.parametrize("slow", [0, 1], ids=["caller-slow",
                                                  "helper-slow"])
    def test_failure_is_raised_in_index_order(self, failing, slow):
        running = threading.active_count()

        def fn(k):
            if k % 2 == slow:
                time.sleep(0.01)
            if k in failing:
                raise RuntimeError(f"item {k}")
            return k

        got = []
        with pytest.raises(RuntimeError, match=f"^item {min(failing)}$"):
            for k in core.in_turns(fn, 6):
                got.append(k)
        assert got == list(range(min(failing)))
        assert threading.active_count() == running

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_consumer_that_raises_leaves_no_thread(self, at):
        running = threading.active_count()
        with pytest.raises(KeyError):
            for k in core.in_turns(lambda k: time.sleep(0.01) or k, 6):
                if k == at:
                    raise KeyError(k)
        assert threading.active_count() == running

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_consumer_that_stops_early_leaves_no_thread(self, at):
        running = threading.active_count()
        for k in core.in_turns(lambda k: time.sleep(0.01) or k, 6):
            if k == at:
                break
        assert threading.active_count() == running
        items = core.in_turns(lambda k: k, 6)
        assert next(items) == 0
        assert threading.active_count() == running + 1
        items.close()
        assert threading.active_count() == running

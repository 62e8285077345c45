"""Tests of the benchmark itself, at tiny problem sizes.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import measure
import run
import traced
import workloads as wl
from clustergauss import gkp
from clustergauss.core import SymplecticTarget
from clustergauss.errormodel import error_vector_cubic, error_vector_gaussian
from clustergauss.simulate import SHOT_BLOCK

TINY = wl.Sizes(grid=21, gauss_shots=20_000, cubic_shots=20_000, targets=25)
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    # One start-up sample per module of the traced run.
    monkeypatch.setattr(measure, "STARTUP_SAMPLES",
                        len(traced.STARTUP_MODULES))


def _names_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_and_passes_its_checks(name):
    result = measure.measure(name, seed=3, seconds=0.0, sizes=TINY)
    assert result.failed == 0, result.reasons
    assert result.attempted >= 1
    assert [(k, v[1]) for k, v in result.metrics.items()] == \
        _names_units(SPEC["end_to_end"])
    assert all(v[0] > 0 for v in result.metrics.values())
    assert result.table["failed_frac"][0] == 0.0
    assert measure.THROUGHPUT[name] in result.table
    assert not list(wl.ROOT.glob(".bench-tmp-*"))


def test_design_loop_reports_call_latency_percentiles():
    result = measure.measure("design-loop", seed=3, seconds=0.0, sizes=TINY)
    p50, p95 = result.table["call_ms.p50"], result.table["call_ms.p95"]
    assert 0 < p50[0] <= p95[0]
    assert p50[2] == TINY.targets


def _corrupt_csv_cell(path, row, col, value):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _edit_summary(path, edit):
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def _corrupt_summary(path):
    _edit_summary(path, lambda s: s["cov_out"][0].__setitem__(0, math.nan))


def _corrupt(call):
    if call.out.suffix == ".csv":
        # err_inf of the error map, ratio of the gain map: one altered cell.
        _corrupt_csv_cell(call.out, 100, 4, "1.25")
    else:
        _corrupt_summary(call.out)


@pytest.mark.parametrize("name", ["maps", "montecarlo"])
def test_corrupted_output_is_counted_as_failed(name, monkeypatch):
    original = wl.run_cli_process

    def corrupting(call, workdir):
        outcome = original(call, workdir)
        _corrupt(call)
        return outcome

    monkeypatch.setattr(wl, "run_cli_process", corrupting)
    result = measure.measure(name, seed=3, seconds=0.0, sizes=TINY)
    assert result.failed == result.attempted >= 1
    assert result.table["failed_frac"][0] == 1.0


def _scaled(result, factor):
    return result._replace(err_inf=result.err_inf * factor)


@pytest.mark.parametrize("which", [1, 2])  # the Gaussian, the cubic result
def test_corrupted_design_result_is_counted_as_failed(which, monkeypatch):
    original = wl.design_call

    def corrupting(target):
        result = list(original(target))
        result[which] = _scaled(result[which], 1.0 + 1e-6)
        return tuple(result)

    monkeypatch.setattr(wl, "design_call", corrupting)
    result = measure.measure("design-loop", seed=3, seconds=0.0, sizes=TINY)
    assert result.failed == result.attempted == TINY.targets
    assert result.table["failed_frac"][0] == 1.0


def test_gaussian_z_above_the_gate_is_counted_as_failed(monkeypatch):
    original = wl.run_cli_process

    def exceeding(call, workdir):
        stats, stdout = original(call, workdir)
        if "gaussian" in call.argv:
            _edit_summary(call.out,
                          lambda s: s["z_mean"].__setitem__(0, 5.5))
            stats.rc = wl.EXIT_Z_GATE
        return stats, stdout

    monkeypatch.setattr(wl, "run_cli_process", exceeding)
    result = measure.measure("montecarlo", seed=3, seconds=0.0, sizes=TINY)
    assert (result.attempted, result.failed) == (2, 1)
    assert "gaussian |z| above its limit" in result.reasons[0]


def test_only_the_cubic_exception_may_pass_the_gate(tmp_path):
    gauss, cubic = wl.cli_calls("montecarlo", TINY, 3, tmp_path)
    for call in (gauss, cubic):
        rc, stdout = wl.run_cli_inprocess(call)
        assert rc == 0 and wl.check_simulate(call, rc, stdout, 3) is None

    def z_error_var_1(value):
        return lambda s: s["z_error_var"].__setitem__(1, value)

    rc3 = wl.EXIT_Z_GATE
    _edit_summary(cubic.out, z_error_var_1(wl.Z_GATE + 1.0))
    assert wl.check_simulate(cubic, rc3, "", 3) is None
    assert wl.check_simulate(cubic, 0, "", 3) is not None
    _edit_summary(cubic.out, z_error_var_1(wl.CUBIC_Z_CEILING + 0.5))
    assert "above its limit" in wl.check_simulate(cubic, rc3, "", 3)
    _edit_summary(cubic.out, z_error_var_1(0.0))
    _edit_summary(cubic.out, lambda s: s["z_mean"].__setitem__(1, -5.5))
    assert "above its limit" in wl.check_simulate(cubic, rc3, "", 3)
    _edit_summary(gauss.out, z_error_var_1(wl.Z_GATE + 1.0))
    assert "above its limit" in wl.check_simulate(gauss, rc3, "", 3)


def test_wrong_p_err_values_are_caught(tmp_path, monkeypatch):
    # Scaling both probabilities keeps every ratio and the maximum intact,
    # so only the recomputation of the cells can see it.
    original = gkp.p_err_values
    monkeypatch.setattr(gkp, "p_err_values",
                        lambda *args: original(*args) * (1.0 + 1e-6))
    _, call = wl.cli_calls("maps", TINY, 3, tmp_path)
    rc, stdout = wl.run_cli_inprocess(call)
    assert rc == 0
    assert "p_err disagrees" in wl.check_gain(call, rc, stdout, 3)
    monkeypatch.setattr(gkp, "p_err_values", original)
    rc, stdout = wl.run_cli_inprocess(call)
    assert wl.check_gain(call, rc, stdout, 3) is None


def test_one_altered_surface_cell_is_caught(tmp_path):
    call, _ = wl.cli_calls("maps", TINY, 3, tmp_path)
    rc, stdout = wl.run_cli_inprocess(call)
    assert wl.check_surface(call, rc, stdout, 3) is None
    _corrupt_csv_cell(call.out, 50, 2, "0.5")  # err_x, no longer err_inf
    assert wl.run_checked(call.check, call, rc, stdout, 3) is not None


def test_read_csv_reads_empty_fields_as_nan_and_rejects_ragged_rows(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("a,b,c\n,1,\n2,,3\r\n,,\n4,5,6\n")
    header, data = wl.read_csv(path)
    assert header == ["a", "b", "c"]
    nan = math.nan
    np.testing.assert_array_equal(
        data, [[nan, 1, nan], [2, nan, 3], [nan, nan, nan], [4, 5, 6]])
    path.write_text("a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(ValueError):
        wl.read_csv(path)


def test_nan_in_simulate_summary_is_caught(tmp_path):
    for call in wl.cli_calls("montecarlo", TINY, 3, tmp_path):
        rc, stdout = wl.run_cli_inprocess(call)
        assert wl.check_simulate(call, rc, stdout, 3) is None
        # An exit code that disagrees with the summary's z-scores is caught.
        assert wl.check_simulate(call, wl.EXIT_Z_GATE, stdout, 3) is not None
        _corrupt_summary(call.out)
        assert "non-finite" in wl.check_simulate(call, rc, stdout, 3)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    result = traced.trace(name, seed=3, seconds=0.0, sizes=TINY)
    assert result.failed == 0, result.reasons
    assert [(k, v[1]) for k, v in result.metrics.items()] == \
        _names_units(SPEC["per_layer"])
    value = {k: v[0] for k, v in result.metrics.items()}
    assert all(value[f"startup.{m}_s"] > 0
               for m in ("numpy", "scipy_special", "clustergauss_cli"))
    driven = {
        "maps": ["cli.main_s", "errormodel.error_surface_s",
                 "errormodel.to_rows_s", "errormodel.error_surface_peak_mb",
                 "gkp.gain_surface_s", "gkp.self_s", "gkp.to_rows_s",
                 "gkp.p_err_values_s"],
        "montecarlo": ["cli.main_s", "simulate.run_s.gaussian",
                       "simulate.run_s.cubic", "simulate.run_peak_mb.cubic",
                       "phases.solve_phases_us.p50"],
        "design-loop": ["errormodel.optimize_theta4_ms.p95",
                        "errormodel.error_vector_gaussian_us.p50",
                        "phases.solve_phases_us.p95",
                        "core.validate_target_calls"],
    }[name]
    assert all(value[m] > 0 for m in driven), driven
    assert 0 <= value["cli.self_s"] <= value["cli.main_s"]
    assert 0 <= value["gkp.self_s"] <= value["gkp.gain_surface_s"]


def test_montecarlo_counts_add_up():
    result = traced.trace("montecarlo", seed=3, seconds=0.0, sizes=TINY)
    value = {k: v[0] for k, v in result.metrics.items()}
    shots = TINY.gauss_shots + TINY.cubic_shots
    assert value["simulate.kept"] + value["simulate.discarded"] == shots
    assert value["simulate.blocks"] == \
        2 * math.ceil(TINY.gauss_shots / SHOT_BLOCK)


def test_objective_matches_the_public_closed_forms():
    a, b, c = 1.2, 0.5, 0.3
    target = SymplecticTarget(a, b, c, (1.0 + b * c) / a)
    mid_cubic = 1.0 / wl.CUBIC.twelve_gamma_im
    for theta in (0.3, np.pi / 2, 2.0):
        u = np.cos(theta) / np.sin(theta)
        gauss = error_vector_gaussian(target, wl.WEIGHTS, theta).inf_norm
        cubic = error_vector_cubic(target, wl.WEIGHTS, None, theta,
                                   wl.CUBIC).inf_norm
        assert wl.objective(b, target.d, 1.0, u) == pytest.approx(gauss, rel=1e-12)
        assert wl.objective(b, target.d, mid_cubic, u) == \
            pytest.approx(cubic, rel=1e-12)
    assert wl.scan_minimum(b, target.d, 1.0) <= \
        error_vector_gaussian(target, wl.WEIGHTS, np.pi / 2).inf_norm


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(wl.ROOT / "bench", tmp_path / "bench")
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

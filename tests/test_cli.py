"""End-to-end tests of the command-line interface (in-process)."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clustergauss
from clustergauss import RECORD_COLUMNS, cli
from clustergauss.cli import main
from clustergauss.simulate import SHOT_BLOCK

D_OK = (1.0 + 0.5 * 0.3) / 1.2  # completes a=1.2, b=0.5, c=0.3


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _csv_module_text(header, rows) -> str:
    """CSV text of ``rows`` through the stdlib csv module, None -> empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(float(v)) for v in row])
    return buf.getvalue()


# Finite floats of every magnitude (-0.0, subnormals and +-1e308 among
# them), with NaN and +-inf mapped to None as the row builders do.
CELL = st.one_of(
    st.floats().map(lambda v: v if math.isfinite(v) else None),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                     -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1]),
)
# Rows as wide as the error-surface, gain-surface and records CSVs.
ROWS = st.sampled_from([5, 6, 21]).flatmap(
    lambda n: st.lists(st.lists(CELL, min_size=n, max_size=n), max_size=12))


class TestWriteCsv:
    @given(rows=ROWS, chunk=st.integers(1, 5))
    def test_matches_the_csv_module(self, rows, chunk):
        header = [f"c{k}" for k in range(len(rows[0]) if rows else 5)]
        out = io.StringIO()
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk), \
                contextlib.redirect_stdout(out):
            cli._write_csv(header, iter(rows), None)
        assert out.getvalue() == _csv_module_text(header, rows)


class TestSolvePhases:
    def test_solves_and_reports_residual(self, capsys):
        doc = _run_json(
            capsys, "solve-phases",
            "--a", "1.2", "--b", "0.5", "--c", "0.3", "--d", repr(D_OK),
            "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
        )
        assert doc["residual"] <= 1e-9
        assert set(doc["phases"]) >= {"theta1", "theta2p", "theta3", "theta4p",
                                      "theta2", "theta4"}
        assert doc["phases"]["theta4p"] == pytest.approx(np.pi / 2)
        assert doc["realized"]["a"] == pytest.approx(1.2, abs=1e-9)

    def test_flag_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "a": 1.2, "b": 0.9, "c": 0.3, "d": (1.0 + 0.9 * 0.3) / 1.2,
        }))
        doc = _run_json(capsys, "solve-phases", "--config", str(cfg))
        assert doc["target"]["b"] == 0.9
        # now override b (and d to stay symplectic) on the command line
        doc2 = _run_json(
            capsys, "solve-phases", "--config", str(cfg),
            "--b", "0.5", "--d", repr(D_OK),
        )
        assert doc2["target"]["b"] == 0.5
        # weights were never given anywhere: defaults are 1
        assert doc2["weights"] == [1.0, 1.0, 1.0, 1.0]

    def test_degrees_flag_converts_theta4p(self, capsys):
        base = ["solve-phases", "--a", "1.2", "--b", "0.5", "--c", "0.3",
                "--d", repr(D_OK)]
        rad = _run_json(capsys, *base, "--theta4p", repr(np.pi / 3))
        deg = _run_json(capsys, *base, "--theta4p", "60", "--degrees")
        assert deg["phases"]["theta4p"] == pytest.approx(
            rad["phases"]["theta4p"], rel=1e-12)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "phases.json"
        code, stdout, _ = _run(
            capsys, "solve-phases",
            "--a", "1.2", "--b", "0.5", "--c", "0.3", "--d", repr(D_OK),
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["residual"] <= 1e-9


class TestErrorCodes:
    def test_not_symplectic(self, capsys):
        code, out, err = _run(
            capsys, "solve-phases",
            "--a", "1.0", "--b", "0.0", "--c", "0.0", "--d", "2.0",
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "not-symplectic"

    def test_degenerate_d(self, capsys):
        code, _, err = _run(
            capsys, "solve-phases",
            "--a", "1.0", "--b", "1.0", "--c", "-1.0", "--d", "0.0",
        )
        assert code == 2
        assert json.loads(err)["error"] == "degenerate-d"

    def test_denominator_pole(self, capsys):
        code, _, err = _run(
            capsys, "solve-phases",
            "--a", "2.0", "--b", "0.0", "--c", "0.3", "--d", "0.5",
        )
        assert code == 2
        assert json.loads(err)["error"] == "denominator-pole"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 1.0, "bogus": 3.0}))
        code, _, err = _run(capsys, "solve-phases", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    def test_malformed_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = _run(capsys, "solve-phases", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    def test_nonfinite_db_rejected(self, capsys):
        code, _, err = _run(capsys, "weight-bound", "--db=-inf")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    def test_missing_required_out(self, capsys):
        code, _, err = _run(capsys, "gain-surface", "--nb", "3", "--nd", "3")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"


class TestErrorSurfaceCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = _run(
            capsys, "error-surface", "--nb", "3", "--nd", "3",
            "--b-min", "-2", "--b-max", "2", "--d-min", "-2", "--d-max", "2",
            "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "b,d,err_x,err_y,err_inf,theta4p_used"
        assert len(lines) == 1 + 9

    def test_pole_cells_empty(self, capsys):
        code, out, _ = _run(
            capsys, "error-surface", "--mode", "gaussian_fixed_phase",
            "--nb", "3", "--nd", "3",
            "--b-min", "-2", "--b-max", "2", "--d-min", "-2", "--d-max", "2",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        b0 = [r for r in rows if r[0] == "0.0"]
        assert len(b0) == 3
        assert all(r[2] == "" for r in b0)

    def test_manifest_rerun_is_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "surf1.csv"
        args = [
            "error-surface", "--mode", "gaussian_optimized_phase",
            "--nb", "5", "--nd", "5",
            "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
            "--out", str(first),
        ]
        code, _, _ = _run(capsys, *args)
        assert code == 0
        manifest = tmp_path / "surf1.csv.manifest.json"
        assert manifest.exists()
        doc = json.loads(manifest.read_text())
        assert doc["subcommand"] == "error-surface"
        second = tmp_path / "surf2.csv"
        code, _, _ = _run(
            capsys, "error-surface", "--config", str(manifest),
            "--out", str(second),
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestSimulateCommand:
    BASE = [
        "simulate", "--a", "1.2", "--b", "0.5", "--c", "0.3", "--d", repr(D_OK),
        "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
        "--shots", "2000", "--seed", "3",
    ]

    def test_summary_json(self, capsys):
        doc = _run_json(capsys, *self.BASE)
        assert doc["variant"] == "gaussian"
        assert doc["n_kept"] == 2000
        assert len(doc["z_error_var"]) == 2

    def test_z_gate_exit_code(self, capsys):
        code, _, err = _run(capsys, *self.BASE, "--z-gate", "0.0001")
        assert code == 3
        assert json.loads(err)["error"] == "z-gate-exceeded"

    @pytest.mark.parametrize("field, value", [
        ("z_error_var", [float("nan"), 0.0]),
        ("z_mean", [0.0, float("inf")]),
        ("cov_out", [[-0.1, 0.0], [0.0, 0.3]]),
        ("error_cov", [[0.01, 0.0], [0.0, 0.0]]),
    ])
    def test_invalid_statistics_fail_the_gate(self, capsys, monkeypatch,
                                              field, value):
        real_run = cli.run

        def corrupted_run(*args, **kwargs):
            return dataclasses.replace(real_run(*args, **kwargs),
                                       **{field: np.array(value)})

        monkeypatch.setattr(cli, "run", corrupted_run)
        code, _, err = _run(capsys, *self.BASE)
        assert code == 3
        assert json.loads(err)["error"] == "invalid-statistics"

    def test_records_csv(self, capsys, tmp_path):
        rec = tmp_path / "shots.csv"
        code, _, _ = _run(capsys, *self.BASE, "--records", str(rec))
        assert code == 0
        lines = rec.read_text().strip().split("\n")
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 1 + 2000

    def test_records_csv_of_a_cubic_run_with_discards(self, capsys,
                                                       monkeypatch, tmp_path):
        # 20 000 shots span three blocks; alpha = 5 makes the cubic gate
        # discard shots, whose record fields are missing values.
        summaries = []
        real_run = cli.run

        def keep_summary(*args, **kwargs):
            summaries.append(real_run(*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(cli, "run", keep_summary)
        rec = tmp_path / "shots.csv"
        code, _, _ = _run(
            capsys, "simulate", "--a", "1.2", "--b", "0.5", "--c", "0.3",
            "--d", repr(D_OK), "--g1", "5", "--g2", "5", "--g3", "4",
            "--g4", "4", "--variant", "cubic", "--gamma", "0.1",
            "--alpha", "5", "--shots", "20000", "--seed", "2",
            "--records", str(rec))
        assert code == 3
        (summary,) = summaries
        assert summary.n_discarded > 0
        assert -(-20000 // SHOT_BLOCK) == 3
        rows = [[v if math.isfinite(v) else None for v in row]
                for row in summary.records.tolist()]
        assert rec.read_text() == _csv_module_text(RECORD_COLUMNS, rows)

    def test_manifest_rerun_matches(self, capsys, tmp_path):
        out1 = tmp_path / "sim1.json"
        code, _, _ = _run(capsys, *self.BASE, "--out", str(out1))
        assert code == 0
        manifest = tmp_path / "sim1.json.manifest.json"
        out2 = tmp_path / "sim2.json"
        code, _, _ = _run(
            capsys, "simulate", "--config", str(manifest), "--out", str(out2)
        )
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cubic_variant(self, capsys):
        doc = _run_json(
            capsys, *self.BASE, "--variant", "cubic",
            "--gamma", "0.1", "--alpha", repr(float(np.sqrt(125.0))),
        )
        assert doc["variant"] == "cubic"
        assert doc["mean_im"] is not None
        assert doc["n_kept"] + doc["n_discarded"] == 2000

    def test_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLUSTERGAUSS_WORKERS", "3")
        doc_env = _run_json(capsys, *self.BASE)
        monkeypatch.delenv("CLUSTERGAUSS_WORKERS")
        doc_one = _run_json(capsys, *self.BASE)
        assert doc_env["cov_out"] == doc_one["cov_out"]


class TestGainSurfaceCommand:
    def test_writes_csv_and_summary(self, capsys, tmp_path):
        out = tmp_path / "gain.csv"
        code, stdout, _ = _run(
            capsys, "gain-surface", "--nb", "5", "--nd", "5", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["max_ratio"] > 1.0
        assert "argmax_b" in summary and "argmax_d" in summary
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "b,d,p_err_base,p_err_opt,ratio"
        assert len(lines) == 1 + 25
        assert (tmp_path / "gain.csv.manifest.json").exists()


class TestWeightBoundCommand:
    def test_bound_and_admissibility(self, capsys):
        doc = _run_json(
            capsys, "weight-bound", "--db", "-15", "--g", "5.4", "--g", "5.6",
        )
        assert doc["max_weight"] == pytest.approx(5.536553985261547, rel=1e-12)
        results = {r["g"]: r["admissible"] for r in doc["weights"]}
        assert results[5.4] is True
        assert results[5.6] is False


class TestCzDecomposeCommand:
    def test_decomposition_json(self, capsys):
        doc = _run_json(capsys, "cz-decompose", "--g", "1")
        assert doc["s"] == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, rel=1e-12)
        assert doc["residual"] <= 1e-12
        assert set(doc["factors"]) == {
            "phase_left", "bs_left", "squeezer", "bs_right", "phase_right"
        }
        assert np.asarray(doc["factors"]["squeezer"]).shape == (4, 4)


class TestImports:
    @pytest.mark.parametrize("module", ["clustergauss", "clustergauss.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        src = str(Path(clustergauss.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

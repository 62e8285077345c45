"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clustergauss
from clustergauss import (
    MODE_CUBIC_OPTIMIZED,
    RECORD_COLUMNS,
    CubicConfig,
    DenominatorPole,
    DomainError,
    InputState,
    NonpositiveIm,
    SymplecticTarget,
    WeightConfig,
    cli,
    core,
    csvtext,
    error_vector_cubic,
    errormodel,
    gkp,
    optimize_theta4,
    phases,
    simulate,
)
from clustergauss.cli import main
from clustergauss.errormodel import (
    MODES, ErrorSurface, ErrorSurfaceSpec, error_surface)
from clustergauss.simulate import SHOT_BLOCK, VARIANTS

D_OK = (1.0 + 0.5 * 0.3) / 1.2  # completes a=1.2, b=0.5, c=0.3
OK_TARGET = SymplecticTarget(1.2, 0.5, 0.3, D_OK)
W5544 = WeightConfig(5.0, 5.0, 4.0, 4.0)
TARGET_ARGS = ("--a", "1.2", "--b", "0.5", "--c", "0.3", "--d", repr(D_OK))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _csv_module_text(header, columns) -> str:
    """CSV text of ``columns`` through the stdlib csv module.

    Each value is the repr of its Python float; a non-finite one is an
    empty field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*(np.asarray(col).tolist() for col in columns)):
        writer.writerow([repr(v) if math.isfinite(v) else "" for v in row])
    return buf.getvalue()


def _written_csv(header, columns) -> str:
    out = io.StringIO()
    with (contextlib.redirect_stdout(out),
          cli._csv_writer(header, None) as write):
        write(cli._csv_chunks(columns))
    return out.getvalue()


def _neighbours(x: float) -> list:
    """x and the nearest two doubles on either side of it."""
    values = [x]
    for toward in (0.0, math.inf):
        near = math.nextafter(x, toward)
        values += [near, math.nextafter(near, toward)]
    return values


# Bit patterns a value-based comparison would merge or lose: -0.0 next to
# 0.0, NaNs with distinct payloads and signs, +-inf, subnormals, +-1e308.
# Then the edges of the range the vectorized formatter decides (1e-4 and
# 1e16, where repr switches notation), 1e15, powers of two (a narrower
# gap below them), and a tie between two shortest decimals, left to repr.
POOL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -1e-310, 2.2250738585072014e-308,
     1e308, -1e308, 1.0, -3.0, 0.1, 2.0**53, 1e16, 0.0008878707885742188],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
              -0x0008000000000000], dtype=np.int64).view(np.float64),
    *(_neighbours(x) for x in (1e-4, -1e15, 1e16, 2.0**-13, 0.5, -2.0**40,
                               2.0**53)),
])


def _tables(n_cols: int, n_rows: int):
    size = n_rows * n_cols
    pooled = st.lists(st.integers(0, len(POOL) - 1), min_size=size,
                      max_size=size).map(lambda idx: POOL[idx])
    bit_patterns = st.integers(-2**63, 2**63 - 1).map(
        lambda n: float(np.int64(n).view(np.float64)))
    short = st.tuples(st.integers(1, 17), st.floats(allow_nan=False,
                                                    allow_infinity=False)
                      ).map(lambda pf: float("%.*g" % pf))
    values = st.lists(st.one_of(st.floats(), bit_patterns, short,
                                st.sampled_from(POOL)),
                      min_size=size, max_size=size
                      ).map(lambda v: np.array(v, dtype=float))
    return st.one_of(pooled, values).map(
        lambda flat: flat.reshape(n_rows, n_cols))


# Tables as wide as the gain-surface, error-surface and records CSVs.
TABLES = st.tuples(st.sampled_from([5, 6, 21]), st.integers(0, 40)).flatmap(
    lambda shape: _tables(*shape))


class TestWriteCsv:
    @given(table=TABLES, chunk=st.integers(1, 60))
    def test_matches_the_csv_module(self, table, chunk):
        header = [f"c{k}" for k in range(table.shape[1])]
        with mock.patch.object(cli, "CSV_CHUNK_VALUES", chunk):
            text = _written_csv(header, table.T)
        assert text == _csv_module_text(header, table.T)

    @pytest.mark.parametrize("values", [
        np.random.default_rng(11).integers(
            -2**63, 2**63 - 1, 200_000, dtype=np.int64,
            endpoint=True).view(np.float64),
        np.random.default_rng(12).standard_normal(200_000),
    ], ids=["bit-patterns", "normals"])
    def test_bulk_matches_repr(self, values):
        block = values.reshape(-1, 5)
        # [1:]: the csv module's text without its empty header row.
        assert csvtext.csv_rows(block) == _csv_module_text([], block.T)[1:]

    def test_decides_ordinary_values_without_repr(self):
        row = np.array([[0.1, -2.5, 123.456, 1e-4, 271828182845904.5, 0.0,
                         -0.0, 2.0**-13, 1e15 + 1.0, -4.975, np.nan,
                         0.012345678901234568, 31415926535.89793]])
        with mock.patch.object(csvtext, "repr", create=True,
                               side_effect=AssertionError("repr called")):
            text = csvtext.csv_rows(row)
        assert text == _csv_module_text([], row.T)[1:]

    @pytest.mark.parametrize("x", [
        5e-324, 9.999999999999999e-05, 1e-5, 1e16, -1.5e300,
        1.7976931348623157e308,
        0.0008878707885742188,  # ties between two shortest decimals
        1234567890123456.8,
        9999999999999998.0,  # log10 rounds up to 16.0
    ])
    def test_leaves_the_rest_to_repr(self, x):
        row = np.array([[1.5, x, -np.inf, x, 2.0]])
        with mock.patch.object(csvtext, "repr", create=True,
                               wraps=repr) as fallback:
            text = csvtext.csv_rows(row)
        assert fallback.call_count == 2
        assert text == f"1.5,{x!r},,{x!r},2.0\n"

    @pytest.mark.parametrize("chunk", [2**13, 2**14, 600])
    def test_optimized_map_matches_the_row_recipe(self, tmp_path, chunk):
        out = tmp_path / "map.csv"
        argv = ["error-surface", "--mode", "gaussian_optimized_phase",
                "--g1", "5", "--g2", "5", "--g3", "4", "--g4", "4",
                "--nb", "41", "--nd", "41", "--out", str(out)]
        with mock.patch.object(cli, "CSV_CHUNK_VALUES", chunk):
            assert main(argv) == 0
        surf = error_surface(ErrorSurfaceSpec(
            (-5.0, 5.0), (-5.0, 5.0), 41, 41, WeightConfig(5.0, 5.0, 4.0, 4.0),
            "gaussian_optimized_phase"))
        assert surf.n_invalid > 0
        rows = []
        for i, bv in enumerate(surf.spec.b_values.tolist()):
            for j, dv in enumerate(surf.spec.d_values.tolist()):
                cells = [surf.ex[i, j], surf.ey[i, j], surf.err_inf[i, j],
                         surf.theta4p[i, j]]
                rows.append([bv, dv] + [float(v) if math.isfinite(v) else None
                                        for v in cells])
        expected = ",".join(ErrorSurface.COLUMNS) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows
        ).replace("None", "")
        assert out.read_text() == expected


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

    def test_unprimed_phases_come_from_the_exact_cotangents(self, capsys):
        # cot(theta2') = -1e18 rounds theta2' to pi; cot(theta2) =
        # g4^2 cot(theta2') = -1e14 still has an angle below pi, which the
        # rounded angle lost (it gave 3.1415926535885688).
        doc = _run_json(
            capsys, "solve-phases", "--a", "1", "--b", "1e16", "--c", "0",
            "--d", "1", "--g1", "1", "--g2", "1", "--g3", "1", "--g4", "0.01",
        )
        assert doc["cots"]["cot_theta2p"] == -1e18
        assert doc["phases"]["theta2p"] == math.pi
        assert doc["phases"]["theta2"] == 3.1415926535897833
        assert doc["phases"]["theta2"] == math.atan2(1.0, 0.01**2 * -1e18)

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

    @pytest.mark.parametrize("command", ["error-surface", "gain-surface"])
    def test_grid_too_large_to_allocate(self, capsys, tmp_path, command):
        # numpy raises MemoryError when it cannot allocate the grid.
        too_large = MemoryError("Unable to allocate 7.28 TiB")
        with mock.patch("clustergauss.gkp.error_surface",
                        side_effect=too_large), \
                mock.patch("clustergauss.errormodel.error_surface",
                           side_effect=too_large):
            code, out, err = _run(capsys, command, "--nb", "1000000000000",
                                  "--nd", "2", "--out", str(tmp_path / "x"))
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "invalid-config",
                                   "message": "input too large: Unable to "
                                              "allocate 7.28 TiB"}

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

    @pytest.mark.parametrize("opener", ["[", '{"g":'])
    def test_deeply_nested_config_json(self, capsys, tmp_path, opener):
        # The parser recurses once per level and runs out of stack.
        cfg = tmp_path / "deep.json"
        cfg.write_text(opener * 200_000)
        code, out, err = _run(capsys, "cz-decompose", "--config", str(cfg))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "invalid-config",
            "message": "config file is nested too deeply to parse"}

    def test_nonfinite_db_rejected(self, capsys):
        code, _, err = _run(capsys, "weight-bound", "--db=-inf")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    @pytest.mark.parametrize("flag", ["--db=nan", "--db=inf", "--gamma=nan"])
    def test_nonfinite_recorded_value_rejected(self, capsys, tmp_path, flag):
        # A manifest records NaN and infinity as null, which cannot rerun.
        out = tmp_path / "surf.csv"
        code, _, err = _run(capsys, "error-surface", "--nb", "3", "--nd", "3",
                            flag, "--out", str(out))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"
        assert not out.exists()

    def test_missing_required_out(self, capsys):
        code, _, err = _run(capsys, "gain-surface", "--nb", "3", "--nd", "3")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"

    @pytest.mark.parametrize("case, error, message", [
        (lambda: InputState(mean_x=math.nan), DomainError,
         "mean_x must be finite"),
        (lambda: InputState(var_y=0.0), DomainError,
         "var_y must be positive and finite"),
        (lambda: ErrorSurfaceSpec((-5.0, math.inf), (-5.0, 5.0), 3, 3,
                                  W5544, MODES[0]), DomainError,
         "b_range must be a finite"),
        # 12 gamma I_m underflows to 0 although gamma and I_m are positive.
        (lambda: optimize_theta4(OK_TARGET, W5544, MODE_CUBIC_OPTIMIZED,
                                 CubicConfig(1e-200, 1.0, 1e-200)),
         NonpositiveIm, r"12\*gamma\*I_m = 0\.0 must be positive"),
        (lambda: error_vector_cubic(SymplecticTarget(0.5, 0.0, 0.0, 2.0),
                                    W5544, None, math.pi / 2,
                                    CubicConfig(0.1, 11.0)),
         DenominatorPole, "phase-solution denominator vanishes"),
        (lambda: CubicConfig(0.1, -1.0), DomainError,
         "alpha must be positive"),
        # The word after --config is the text of the config file.
        (["cz-decompose", "--config", "[1]"], "invalid-config",
         "config file must contain a JSON object"),
        # The rule cz-decompose applies to its one weight.
        (["weight-bound", "--db", "-15", "--g", "5.4", "--g", "-3"],
         "invalid-config", "weight g = -3.0 must be nonnegative"),
    ], ids=["mean-nan", "var-zero", "b-range-inf", "twelve-gamma-im-0",
            "cubic-pole", "alpha-negative", "config-list",
            "weight-bound-negative-g"])
    def test_validation_raises(self, capsys, tmp_path, case, error, message):
        """A library check raises; a CLI check exits 2 with one JSON line."""
        if callable(case):
            with pytest.raises(error, match=message):
                case()
            return
        argv = list(case)
        if "--config" in argv:
            at = argv.index("--config") + 1
            cfg = tmp_path / "cfg.json"
            cfg.write_text(argv[at])
            argv[at] = str(cfg)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error, "message": message}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
         "--db", "4000"],
        # var_y is still positive here; var_x = exp(2r)/4 overflows.
        ["simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
         "--db=-3090"],
        # var_y = 10^(db/10)/4 underflows to 0.
        ["simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
         "--db=-4000"],
        ["gain-surface", "--db", "4000", "--nb", "3", "--nd", "3",
         "--out", "unused.csv"],
        ["weight-bound", "--db", "4000"],
    ], ids=["simulate-high", "simulate-low", "simulate-underflow",
            "gain-surface", "weight-bound"])
    def test_overflowing_db_exits_2_naming_db(self, capsys, tmp_path,
                                              monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "invalid-config"
        assert "db" in doc["message"]
        assert list(tmp_path.iterdir()) == []


class TestOutputPaths:
    """Every path a command will write is checked before it computes.

    The compute call is replaced by one that fails the test if reached.
    """

    TARGET = ["--a", "1", "--b", "0.5", "--c", "0", "--d", "1"]
    COMMANDS = [
        ("simulate", simulate, "run", [*TARGET, "--shots", "2000"]),
        ("error-surface", errormodel, "error_surface",
         ["--nb", "3", "--nd", "3"]),
        ("solve-phases", phases, "solve_phases", TARGET),
    ]

    @staticmethod
    def _refused(capsys, monkeypatch, tmp_path, command, module, name, argv,
                 flag):
        """Run with compute disabled; check exit 2 and what is left behind."""
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} was reached")

        monkeypatch.setattr(module, name, unreachable)
        kept = tmp_path / "kept.out"
        kept.write_text("kept")
        before = sorted(tmp_path.iterdir())
        code, stdout, err = _run(capsys, command, *argv)
        assert (code, stdout) == (2, "")
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "invalid-config"
        assert flag in error["message"]
        assert kept.read_text() == "kept"
        assert sorted(tmp_path.iterdir()) == before
        assert not (tmp_path / "rec.csv").exists()

    @pytest.mark.parametrize("bad", ["missing-directory", "missing-then-up",
                                     "directory", "manifest-is-a-directory"])
    @pytest.mark.parametrize("command, module, name, args", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_unwritable_out(self, capsys, monkeypatch, tmp_path, command,
                            module, name, args, bad):
        # open() fails on "nodir/../x.out", though it spells a path in an
        # existing directory.  An existing --out stays as it was when its
        # manifest cannot be written.
        out = {"missing-directory": tmp_path / "nodir" / "x.out",
               "missing-then-up": tmp_path / "nodir" / ".." / "x.out",
               "directory": tmp_path,
               "manifest-is-a-directory": tmp_path / "kept.out"}[bad]
        if bad == "manifest-is-a-directory":
            (tmp_path / "kept.out.manifest.json").mkdir()
        records = (["--records", str(tmp_path / "rec.csv")]
                   if command == "simulate" else [])
        self._refused(capsys, monkeypatch, tmp_path, command, module, name,
                      [*args, *records, "--out", str(out)], "--out")

    @pytest.mark.parametrize("records", ["nodir/rec.csv", "."])
    def test_unwritable_records(self, capsys, monkeypatch, tmp_path, records):
        command, module, name, args = self.COMMANDS[0]
        self._refused(capsys, monkeypatch, tmp_path, command, module, name,
                      [*args, "--out", str(tmp_path / "kept.out"),
                       "--records", str(tmp_path / records)], "--records")

    @pytest.mark.parametrize("denied", ["directory", "file"])
    @pytest.mark.parametrize("command, module, name, args", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_no_write_permission(self, capsys, monkeypatch, tmp_path,
                                 command, module, name, args, denied):
        # The permission is faked: a process run as root passes every
        # access check.
        out = tmp_path / ("new.out" if denied == "directory" else "kept.out")
        refused = tmp_path if denied == "directory" else out
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            Path(path) != refused and access(path, mode)))
        self._refused(capsys, monkeypatch, tmp_path, command, module, name,
                      [*args, "--out", str(out)], "--out")

    LOOPED = [(*c, "--out") for c in COMMANDS] + [(*COMMANDS[0], "--records")]

    @pytest.mark.parametrize("command, module, name, args, flag", LOOPED,
                             ids=[f"{c[0]}-{c[4]}" for c in LOOPED])
    def test_symlink_loop(self, capsys, monkeypatch, tmp_path, command,
                          module, name, args, flag):
        # is_dir and realpath pass a loop; open() would fail only after
        # the work.
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        paths = {"--out": tmp_path / "kept.out",
                 "--records": tmp_path / "rec.csv"}
        paths[flag] = tmp_path / "a"
        records = (["--records", str(paths["--records"])]
                   if command == "simulate" else [])
        self._refused(capsys, monkeypatch, tmp_path, command, module, name,
                      [*args, *records, "--out", str(paths["--out"])], flag)


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

    @pytest.mark.parametrize("argv, config", [
        (["error-surface"], {"gamma": "abc", "im": True}),
        (["error-surface"], {"gamma": 10**400}),
        (["gain-surface", "--opt-mode", "gaussian_fixed_phase"],
         {"alpha": [1]}),
    ], ids=["fixed-phase-gamma-im", "huge-int-gamma", "fixed-gain-alpha"])
    def test_config_value_of_the_wrong_type_is_invalid(self, capsys,
                                                       tmp_path, argv,
                                                       config):
        # The fixed-phase modes never read gamma, alpha or im; the
        # manifest would record them all the same.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "surf.csv"
        code, stdout, err = _run(capsys, *argv, "--nb", "2", "--nd", "2",
                                 "--config", str(cfg), "--out", str(out))
        assert code == 2 and stdout == ""
        assert json.loads(err)["error"] == "invalid-config"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_non_integral_grid_size_is_invalid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nb": 3.7}))
        code, out, err = _run(capsys, "error-surface", "--config", str(cfg))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-config"

    @pytest.mark.parametrize("command, args", [
        ("error-surface", ("--nb", "3", "--nd", "3")),
        ("gain-surface", ("--nb", "3", "--nd", "3")),
        ("simulate", ("--a", "1", "--b", "0", "--c", "0", "--d", "1",
                      "--shots", "2000")),
    ], ids=["error-surface", "gain-surface", "simulate"])
    def test_manifest_workers_key_is_ignored(self, capsys, tmp_path, command,
                                             args):
        # Manifests once recorded a thread count; they still rerun.
        first = tmp_path / "first.csv"
        code, summary, _ = _run(capsys, command, *args, "--out", str(first))
        assert code == 0
        doc = json.loads((tmp_path / "first.csv.manifest.json").read_text())
        assert "workers" not in doc["resolved_config"]
        doc["resolved_config"]["workers"] = 2
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(doc))
        second = tmp_path / "second.csv"
        code, rerun_summary, _ = _run(capsys, command, "--config", str(old),
                                      "--out", str(second))
        assert code == 0
        assert second.read_bytes() == first.read_bytes()
        assert rerun_summary == summary
        doc = json.loads((tmp_path / "second.csv.manifest.json").read_text())
        assert "workers" not in doc["resolved_config"]
        # Only a manifest drops it: in a config written by hand it is an
        # unknown key, as for every other command.
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"workers": 2}))
        code, stdout, err = _run(capsys, command, *args, "--config",
                                 str(plain), "--out", str(tmp_path / "third"))
        assert code == 2 and stdout == ""
        error = json.loads(err)
        assert error["error"] == "invalid-config"
        assert "'workers'" in error["message"]
        assert not (tmp_path / "third").exists()


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
        real_run = simulate.run

        def corrupted_run(*args, **kwargs):
            return dataclasses.replace(real_run(*args, **kwargs),
                                       **{field: np.array(value)})

        monkeypatch.setattr(simulate, "run", corrupted_run)
        code, _, err = _run(capsys, *self.BASE)
        assert code == 3
        assert json.loads(err)["error"] == "invalid-statistics"

    @pytest.mark.parametrize("extra", [
        ("--mean-x", "1e200"),
        ("--mean-x", "1.7e308"),
        ("--mean-x", "1.7e308", "--variant", "cubic", "--gamma", "0.1",
         "--alpha", "30"),
    ], ids=["gaussian-1e200", "gaussian-1.7e308", "cubic-1.7e308"])
    def test_huge_amplitude_fails_the_gate_in_one_line(self, extra):
        # Shots and moments overflow here; numpy must not warn about it on
        # stderr before the gate's one JSON line.
        proc = subprocess.run(
            [sys.executable, "-m", "clustergauss.cli", "simulate",
             "--a", "1", "--b", "0", "--c", "0", "--d", "1",
             "--shots", "100", *extra],
            env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "invalid-statistics"

    @pytest.mark.parametrize("gate", ["nan", "inf", "-1", "0"])
    def test_z_gate_must_be_finite_and_positive(self, capsys, tmp_path, gate):
        out = tmp_path / "sim.json"
        code, _, err = _run(capsys, *self.BASE, f"--z-gate={gate}",
                            "--out", str(out))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("z_gate", None), ("db", None), ("mean_x", None), ("records", 5),
        ("db", True), ("z_gate", "5"), ("var_x", "0.25"), ("alpha", [1]),
    ])
    def test_config_value_of_the_wrong_type_is_invalid(self, capsys,
                                                       tmp_path, key, value):
        # The Gaussian variant never reads alpha; it is checked anyway.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "sim.json"
        code, _, err = _run(capsys, *self.BASE, "--config", str(cfg),
                            "--out", str(out))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-config"
        assert list(tmp_path.iterdir()) == [cfg]

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
        summaries, blocks = [], []
        real_run = simulate.run

        def keep_summary(*args, record_sink, **kwargs):
            def tee(columns):
                blocks.append(np.column_stack(columns))
                record_sink(columns)
            summaries.append(real_run(*args, record_sink=tee, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(simulate, "run", keep_summary)
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
        assert len(blocks) == 3
        assert rec.read_text() == _csv_module_text(RECORD_COLUMNS,
                                                   np.vstack(blocks).T)

    @pytest.mark.parametrize("suffix", ["", ".manifest.json"],
                             ids=["out", "manifest"])
    def test_records_may_not_be_overwritten_by_out(self, capsys, tmp_path,
                                                   suffix):
        # The summary and its manifest are written after the run, so either
        # would replace the records, however the path is spelled.
        (tmp_path / "sub").mkdir()
        out = tmp_path / "x.json"
        records = f"{tmp_path}/sub/../x.json{suffix}"
        code, stdout, err = _run(capsys, *self.BASE, "--out", str(out),
                                 "--records", records)
        assert code == 2 and stdout == ""
        error = json.loads(err)
        assert error["error"] == "invalid-config"
        assert "--records" in error["message"]
        assert "--out" in error["message"]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_records_stay_when_too_few_shots_are_kept(self, capsys,
                                                      tmp_path):
        # Records stream while the run goes; the statistics fail after.
        rec = tmp_path / "shots.csv"
        code, out, err = _run(capsys, *self.BASE, "--shots", "1",
                              "--records", str(rec))
        assert code == 2 and out == ""
        assert "fewer than two kept shots" in json.loads(err)["message"]
        lines = rec.read_text().split("\n")
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 1 + 1 + 1  # header, one shot, final newline

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


class TestGainSurfaceCommand:
    def test_overflowing_ratio_prints_no_warning(self, tmp_path):
        # At -36.5 dB some p_base / p_opt exceed the float range.  Those
        # ratios are inf, written as empty fields and skipped by
        # max_ratio, with nothing on stderr.  Silencing the warning moves
        # no byte of stdout or the CSV, which the digests pin.
        out = tmp_path / "gain.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "clustergauss.cli", "gain-surface",
             "--db=-36.5", "--out", str(out)],
            env=_child_env(), capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["max_ratio"] == 1.585924055647218e+308
        assert _sha256(proc.stdout) == (
            "9d461e1f01a2fbcb8d985b33c1b2fbb98cdba93b365de70a4b53d6d6060dd093")
        assert _sha256(out.read_bytes()) == (
            "25634e2b2ba59028c80a3fa85a64cb23ae697cc5d981d6f3afc7f6e7a0b3a8fa")

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


class TestSurfaceBands:
    """The surface commands write the rows of the whole grid.  The
    evaluator's blocks of cells and the CSV chunks, bands of the grid, are
    taken in turns by the caller and one helper thread (``core.in_turns``);
    the bytes do not depend on which thread takes which band."""

    CUBIC = ("--gamma", "0.1", "--alpha", "11.180339887498949")

    @staticmethod
    def _library(command, argv):
        """The library's whole-grid surface for ``command`` run on ``argv``
        (the commands' own value resolution gives the specs)."""
        _, _, options = cli._SUBCOMMANDS[command]
        args = cli._build_parser().parse_args([command, *argv])
        values, _ = cli._resolve(args, {}, options)
        if command == "error-surface":
            return error_surface(cli._surface_spec(values, "g",
                                                   values["mode"]))
        return gkp.gain_surface(
            cli._surface_spec(values, "base_g", values["base_mode"]),
            cli._surface_spec(values, "opt_g", values["opt_mode"]),
            core.SqueezingSpec.from_db(values["db"]))

    def _bands(self, capsys, monkeypatch, tmp_path, argv, small: bool):
        """(exit code, stdout, stderr, files written) of ``argv``, run with
        the default block and chunk sizes or with bands of a few cells and
        rows each.  An argument ``@name`` names a file in a directory of
        the run's own; manifests, which hold a time, are left out."""
        workdir = tmp_path / ("small" if small else "default")
        workdir.mkdir()
        argv = [workdir / a[1:] if a.startswith("@") else a for a in argv]
        running = threading.active_count()
        with monkeypatch.context() as patch:
            if small:
                patch.setattr(errormodel, "_BLOCK_VALUES", 15 * 16)
                patch.setattr(cli, "CSV_CHUNK_VALUES", 6 * 16)
            code, out, err = _run(capsys, *map(str, argv))
        assert threading.active_count() == running  # the helper has ended
        return code, out, err, {p.name: p.read_bytes()
                                for p in workdir.iterdir()
                                if not p.name.endswith(".manifest.json")}

    def _agree(self, capsys, monkeypatch, tmp_path, *argv):
        runs = [self._bands(capsys, monkeypatch, tmp_path, argv, small)
                for small in (False, True)]
        assert runs[0] == runs[1]
        return runs[0]

    @pytest.mark.parametrize("nb", [1, 2, 3, 101])
    @pytest.mark.parametrize("nd", [6, 7])
    @pytest.mark.parametrize("mode, extra", [
        ("gaussian_fixed_phase", ()), ("gaussian_optimized_phase", ()),
        ("cubic_optimized_phase", CUBIC)], ids=["fixed", "optimized", "cubic"])
    def test_error_surface_to_stdout(self, capsys, monkeypatch, tmp_path,
                                     mode, extra, nb, nd):
        argv = ("--mode", mode, *extra, "--g1", "5", "--g2", "5", "--g3", "4",
                "--g4", "4", "--nb", str(nb), "--nd", str(nd))
        code, out, err, _ = self._agree(capsys, monkeypatch, tmp_path,
                                        "error-surface", *argv)
        assert (code, err) == (0, "")
        surface = self._library("error-surface", argv)
        assert out == _csv_module_text(ErrorSurface.COLUMNS,
                                       surface.to_rows())
        assert len(out.splitlines()) == 1 + nb * nd

    @pytest.mark.parametrize("mode, extra", [
        ("gaussian_fixed_phase", ()), ("gaussian_optimized_phase", ()),
        ("cubic_optimized_phase", CUBIC)], ids=["fixed", "optimized", "cubic"])
    def test_error_surface_to_file(self, capsys, monkeypatch, tmp_path, mode,
                                   extra):
        argv = ("--mode", mode, *extra, "--nb", "101", "--nd", "100")
        code, out, err, files = self._agree(
            capsys, monkeypatch, tmp_path, "error-surface", *argv,
            "--out", "@surf.csv")
        assert (code, out, err) == (0, "", "")
        surface = self._library("error-surface", argv)
        assert files["surf.csv"].decode() == _csv_module_text(
            ErrorSurface.COLUMNS, surface.to_rows())

    @pytest.mark.parametrize("argv", [
        ("--nb", "1", "--nd", "7"),
        ("--nb", "2", "--nd", "6"),
        ("--nb", "3", "--nd", "7"),
        ("--nb", "101", "--nd", "101"),
        ("--nb", "1", "--nd", "3", "--b-min", "0", "--b-max", "0"),
        # The first row, b = 0, is a pole of the fixed phase: its cells
        # are all missing and a later row has the maximum.
        ("--nb", "3", "--nd", "4", "--b-min", "0", "--b-max", "1"),
        ("--nb", "101", "--nd", "101", "--db=-40"),
        # Every p_err_opt is 0, so no cell has a valid ratio.
        ("--nb", "5", "--nd", "5", "--db=-45"),
        ("--nb", "5", "--nd", "6", "--opt-mode", "cubic_optimized_phase",
         *CUBIC),
    ], ids=["nb1", "nb2", "nb3", "nb101", "nb1-pole", "first-band-missing",
            "40dB", "45dB-null", "cubic"])
    def test_gain_surface(self, capsys, monkeypatch, tmp_path, argv):
        # The summary is the whole-grid GainSurface's, NaN as null.
        code, out, err, files = self._agree(
            capsys, monkeypatch, tmp_path, "gain-surface", *argv,
            "--out", "@gain.csv")
        assert (code, err) == (0, "")
        gs = self._library("gain-surface", argv)
        bmax, dmax = gs.argmax_cell
        assert json.loads(out) == {
            key: None if math.isnan(value) else value for key, value in (
                ("max_ratio", gs.max_ratio), ("argmax_b", bmax),
                ("argmax_d", dmax),
                ("n_invalid_baseline", gs.baseline.n_invalid),
                ("n_invalid_optimized", gs.optimized.n_invalid))}
        assert list(files) == ["gain.csv"]
        assert files["gain.csv"].decode() == _csv_module_text(
            gkp.GainSurface.COLUMNS, gs.to_rows())

    def test_first_band_without_a_valid_cell(self, capsys, tmp_path):
        code, out, err = _run(capsys, "gain-surface", "--nb", "3", "--nd",
                              "4", "--b-min", "0", "--b-max", "1", "--out",
                              str(tmp_path / "gain.csv"))
        assert code == 0, err
        summary = json.loads(out)
        assert (summary["argmax_b"], summary["n_invalid_baseline"]) == (0.5, 4)

    def test_no_band_with_a_valid_cell(self, capsys, tmp_path):
        code, out, err = _run(capsys, "gain-surface", "--db=-45", "--out",
                              str(tmp_path / "gain.csv"))
        assert code == 0, err
        summary = json.loads(out)
        assert summary["max_ratio"] is summary["argmax_b"] is None

    @pytest.mark.parametrize("why", ["one-cpu", "thread", "no-fork"])
    def test_runs_in_one_process_when_it_may_not_fork(self, capsys,
                                                      monkeypatch, why):
        # The command starts no process, and nothing about the host changes
        # its output: one usable CPU (the helper's move off the caller's
        # CPU is then a no-op), another running thread, or a platform
        # without fork.
        argv = ("error-surface", "--mode", "gaussian_optimized_phase",
                "--nb", "5", "--nd", "5")
        expected = _run(capsys, *argv)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        with monkeypatch.context() as patch:
            patch.setattr(errormodel, "_BLOCK_VALUES", 15 * 5)
            patch.setattr(subprocess, "Popen", None)
            if why == "one-cpu":
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
                patch.setattr(core, "_current_cpu", lambda: 0)
            elif why == "thread":
                other.start()
            else:
                patch.delattr(os, "fork")
            try:
                assert _run(capsys, *argv) == expected
            finally:
                stop.set()


class TestFailingBand:
    """A failing block of cells fails the command as it would on one
    thread: the first failing block's error, whichever thread took it.

    ``errormodel._best_in_block`` is replaced by one that fails on chosen
    blocks of one b row each; the helper thread takes the odd ones.
    """

    ARGV = ("error-surface", "--nb", "4", "--nd", "3")

    @staticmethod
    def _fail(monkeypatch, fail, blocks=(1,)):
        """Fail the ``blocks``; returns the thread that evaluates each
        block, by its index."""
        real = errormodel._best_in_block
        first_b = list(np.linspace(-5.0, 5.0, 4))
        threads = {}

        def failing(b, d, *args):
            k = first_b.index(b[0])
            threads[k] = threading.get_ident()
            if k in blocks:
                fail(k)
            return real(b, d, *args)

        monkeypatch.setattr(errormodel, "_best_in_block", failing)
        monkeypatch.setattr(errormodel, "_BLOCK_VALUES", 3)
        return threads

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_helper_band_raises(self, capsys, monkeypatch, tmp_path, out):
        # An exception main does not report propagates from the helper's
        # block as from the calling thread's, and nothing is written.
        def fail(k):
            raise RuntimeError(f"block {k}")

        threads = self._fail(monkeypatch, fail)
        argv = [*self.ARGV, *(["--out", str(tmp_path / "surf.csv")]
                              if out else [])]
        running = threading.active_count()
        with pytest.raises(RuntimeError, match="^block 1$"):
            main(argv)
        assert threading.active_count() == running
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []
        assert threads[1] != threading.get_ident() == threads[0]

    @pytest.mark.parametrize("blocks", [(1,), (2,), (0, 1)],
                             ids=["helper", "caller", "both"])
    def test_reported_failure_is_that_of_one_process(self, capsys,
                                                     monkeypatch, blocks):
        # Block order: where the caller's block 0 and the helper's block 1
        # both fail, block 0's error is reported.
        def fail(k):
            raise MemoryError(f"Unable to allocate block {k}")

        threads = self._fail(monkeypatch, fail, blocks)
        assert _run(capsys, *self.ARGV) == (2, "", json.dumps({
            "error": "invalid-config",
            "message": f"input too large: Unable to allocate block "
                       f"{blocks[0]}"}) + "\n")
        assert threads[0] == threading.get_ident() != threads[1]


class TestCallerThread:
    """Every function the bench's tracer wraps runs on the calling thread,
    so its spans nest on one stack; only blocks of cells, CSV chunks and
    shot draws go to the helper thread."""

    TRACED = (
        (core, "validate_target"),
        (errormodel, "error_surface"),
        (errormodel.ErrorSurface, "to_rows"),
        (gkp, "gain_surface"),
        (gkp, "p_err_values"),
        (gkp.GainSurface, "to_rows"),
        (phases, "solve_phases"),
        (simulate, "run"),
    )

    def test_traced_functions_run_on_the_calling_thread(self, capsys,
                                                        monkeypatch,
                                                        tmp_path):
        calls = []
        package = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("clustergauss")]
        for owner, attr in self.TRACED:
            original = getattr(owner, attr)

            def recorded(*args, _fn=original, _name=attr, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            for obj in {*package, owner}:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        monkeypatch.setattr(obj, key, recorded)
        # Small blocks and chunks, so that the helper takes some of each.
        monkeypatch.setattr(errormodel, "_BLOCK_VALUES", 15 * 7)
        monkeypatch.setattr(cli, "CSV_CHUNK_VALUES", 600)
        for argv in (
                ("error-surface", "--mode", "gaussian_optimized_phase",
                 "--nb", "25", "--nd", "25"),
                ("gain-surface", "--nb", "25", "--nd", "25",
                 "--out", str(tmp_path / "gain.csv")),
                ("simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
                 "--shots", str(2 * SHOT_BLOCK + 5), "--records",
                 str(tmp_path / "sim.csv"))):
            assert _run(capsys, *argv)[0] == 0
        assert {name for name, _ in calls} == {
            attr for _, attr in self.TRACED}
        assert {thread for _, thread in calls} == {threading.get_ident()}


class TestWriteFailure:
    """A CSV output whose write fails after the first chunk: exit 2 with
    one JSON line, and the helper thread has ended."""

    class _Failing:
        """A text file whose writes fail after the header and one chunk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    @pytest.mark.parametrize("argv", [
        ("error-surface", "--mode", "gaussian_optimized_phase"),
        ("gain-surface", "--out", "@gain.csv"),
        ("simulate", "--a", "1", "--b", "0", "--c", "0", "--d", "1",
         "--shots", str(2 * SHOT_BLOCK + 5), "--records", "@sim.csv")],
        ids=["error-surface", "gain-surface", "simulate"])
    def test_write_fails_mid_stream(self, capsys, monkeypatch, tmp_path,
                                    argv):
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a
                for a in argv]
        written = []

        def failing_open(path, mode="r"):
            written.append(Path(path).name)
            return self._Failing(open(path, mode))

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        monkeypatch.setattr(cli, "CSV_CHUNK_VALUES", 600)
        running = threading.active_count()
        stdout = self._Failing(io.StringIO())
        with contextlib.redirect_stdout(stdout):
            code, _, err = _run(capsys, *argv)
        assert threading.active_count() == running
        assert code == 2
        assert err.splitlines() == [json.dumps({
            "error": "invalid-config",
            "message": "[Errno 28] No space left on device"})]
        target = stdout.fh.getvalue() if argv[0] == "error-surface" else (
            tmp_path / written[0]).read_text()
        assert len(target.splitlines()) > 1


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Small CLI outputs, pinned by their sha256.

    The surface digests were taken at commit 893718a, before the
    fixed-phase and free-phase surfaces were evaluated by one function;
    the others at 8745ad0, before phases were stored as cotangents and
    squeezing as dB alone.  The solve-phases digest was re-taken at
    6c8d5bf plus one named fix, with every other byte unchanged: theta2
    and theta4 are computed from the exact cotangents (theta4 here moved
    by 1 ulp, to the correctly rounded value).  The gain-surface digests
    were re-taken when erfc moved from a Cephes port to libm's
    (``math.erfc``, glibc 2.36): only the probability columns and
    max_ratio moved, each by at most 2e-15 relative.  Any change to what a
    command computes or prints moves one of them.  The 21x21 default grid
    holds pole cells (b = 0) and the removable line d = 1 of the weights
    5, 5, 4, 4.
    """

    GRID = ("--nb", "21", "--nd", "21")
    WEIGHTS = ("--g1", "5.0", "--g2", "5.0", "--g3", "4.0", "--g4", "4.0")

    @pytest.mark.parametrize("mode, extra, digest", [
        ("gaussian_fixed_phase", (),
         "114c8e9fc253fea81941f08d453ba91d925c10d126af09139b3a96a13d4f593e"),
        ("gaussian_optimized_phase", (),
         "74ceea33d9806e232adf27c2dc91d84849cdc02d1e4f482d7d54824f5db186e4"),
        ("cubic_optimized_phase",
         ("--gamma", "0.1", "--alpha", "11.180339887498949"),
         "8c5a4a522aa34b1a7f9983586c1cc0d376368403c1756217900d196f7f50a177"),
    ], ids=["fixed", "optimized", "cubic"])
    def test_error_surface(self, capsys, mode, extra, digest):
        code, out, err = _run(capsys, "error-surface", "--mode", mode,
                              *self.WEIGHTS, *extra, *self.GRID)
        assert code == 0, err
        assert _sha256(out) == digest

    def test_gain_surface(self, capsys, tmp_path):
        csv_path = tmp_path / "gain.csv"
        code, summary, err = _run(capsys, "gain-surface", *self.GRID,
                                  "--out", str(csv_path))
        assert code == 0, err
        assert _sha256(csv_path.read_bytes()) == (
            "e80ec22d819edf0b304378ca3ec22b4f5ee758e3b298ef57076016d0fb9d19d3")
        assert _sha256(summary) == (
            "0d844932adb7bbd797bb788ab963e6fada56290adae76b8ac70eabbc38b7ef55")

    def test_solve_phases(self, capsys):
        code, out, err = _run(capsys, "solve-phases", *TARGET_ARGS,
                              *self.WEIGHTS, "--theta4p", "1.2")
        assert code == 0, err
        assert _sha256(out) == (
            "17004c2fc2a809dfa5f756a4e8963585cedefd9393edede14d39191c72ac96d9")

    def test_cz_decompose(self, capsys):
        code, out, err = _run(capsys, "cz-decompose", "--g", "1.5")
        assert code == 0, err
        assert _sha256(out) == (
            "84493b294168f062b66c5bc15910743f28bbc6d8c5118dc21e8eb974b7628c1e")

    @pytest.mark.parametrize("extra, code, summary_digest, records_digest", [
        (("--shots", "3000", "--seed", "3"), 0,
         "f0938cc25a8de6a19234356b5a1cc7e07769aba994bf23d62cb61b38c2613936",
         "d08db33d849159be8ade43cc646ad6d5868d39e366a0f96e586d37ddfd87c5b5"),
        # alpha = 5 discards shots (missing record fields) and trips the
        # gate: the summary and records are written before the verdict.
        (("--variant", "cubic", "--gamma", "0.1", "--alpha", "5",
          "--shots", "3000", "--seed", "2"), 3,
         "0161cf1f35f6a95e2991778aa3a9b19cdd7a2a6802a6d7e230116acceddb88a0",
         "f8492534f47ff01fad0af2f183ccc41d809b77f8c46497da57aa0fd0763a07ea"),
    ], ids=["gaussian", "cubic"])
    def test_simulate(self, capsys, tmp_path, extra, code, summary_digest,
                      records_digest):
        records = tmp_path / "shots.csv"
        got, out, err = _run(capsys, "simulate", *TARGET_ARGS, *self.WEIGHTS,
                             *extra, "--records", str(records))
        assert got == code, err
        assert _sha256(out) == summary_digest
        assert _sha256(records.read_bytes()) == records_digest


class TestWeightBoundCommand:
    def test_bound_and_admissibility(self, capsys):
        doc = _run_json(
            capsys, "weight-bound", "--db", "-15", "--g", "5.4", "--g", "5.6",
            "--g", "0",
        )
        assert doc["max_weight"] == pytest.approx(5.536553985261547, rel=1e-12)
        results = {r["g"]: r["admissible"] for r in doc["weights"]}
        assert results[0.0] is True
        assert results[5.4] is True
        assert results[5.6] is False

    @pytest.mark.parametrize("g", [0.0, "", 5.0, "5.4", True, {}])
    def test_config_weights_must_be_a_list(self, capsys, tmp_path, g):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"db": -15, "g": g}))
        code, out, err = _run(capsys, "weight-bound", "--config", str(cfg))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-config"

    def test_config_weights_null_means_none_given(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"db": -15, "g": None}))
        doc = _run_json(capsys, "weight-bound", "--config", str(cfg))
        assert doc["weights"] == []


class TestCzDecomposeCommand:
    def test_decomposition_json(self, capsys):
        doc = _run_json(capsys, "cz-decompose", "--g", "1")
        assert doc["s"] == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, rel=1e-12)
        assert doc["residual"] <= 1e-12
        assert set(doc["factors"]) == {
            "phase_left", "bs_left", "squeezer", "bs_right", "phase_right"
        }
        assert np.asarray(doc["factors"]["squeezer"]).shape == (4, 4)

    @staticmethod
    def _strict_child(g):
        """cz-decompose at weight ``g`` in a child that errors on warnings."""
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "clustergauss.cli",
             "cz-decompose", "--g", g],
            env=_child_env(), capture_output=True, text=True)

    def test_underflowing_squeezer_ratio_exits_2(self):
        proc = self._strict_child("1e154")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-config"
        assert proc.stdout == ""

    def test_overflowing_weight_square_exits_2_naming_the_weight(self):
        proc = self._strict_child("2e154")
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert "2e+154" in json.loads(lines[0])["message"]

    def test_largest_representable_ratio_still_decomposes(self):
        proc = self._strict_child("9.4e153")
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert 0.0 < doc["s"] and math.isfinite(doc["residual"])


class TestResolve:
    def test_every_option_kind_is_one_resolve_checks(self):
        for _, _, options in cli._SUBCOMMANDS.values():
            for key, (kind, _, _) in options.items():
                assert kind in (float, int, [float], "FILE") or (
                    isinstance(kind, tuple)
                    and all(isinstance(c, str) for c in kind)), key
            # Every default is of its kind.
            cli._resolve(argparse.Namespace(**dict.fromkeys(options)), {},
                         options)

    def test_values_run_converted_and_are_recorded_as_given(self, capsys,
                                                            tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g1": 5}))
        out = tmp_path / "phases.json"
        code, _, err = _run(capsys, "solve-phases", "--a", "1.2", "--b",
                            "0.5", "--c", "0.3", "--d", repr(D_OK),
                            "--config", str(cfg), "--out", str(out))
        assert code == 0, err
        assert '"weights": [\n    5.0,\n    1.0,' in out.read_text()
        manifest = (tmp_path / "phases.json.manifest.json").read_text()
        assert '"g1": 5,' in manifest
        cfg.write_text(json.dumps({"nb": 2.0, "nd": 3}))
        out = tmp_path / "surf.csv"
        code, _, err = _run(capsys, "error-surface", "--config", str(cfg),
                            "--out", str(out))
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 1 + 2 * 3
        manifest = (tmp_path / "surf.csv.manifest.json").read_text()
        assert '"nb": 2.0,' in manifest


# Prints the clustergauss submodules loaded so far, sorted, without the
# package prefix.
_PRINT_LOADED = ("import sys; print(sorted(m[len('clustergauss.'):] "
                 "for m in sys.modules if m.startswith('clustergauss.')))")


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _child_env(env=None) -> dict:
    """``env`` (default: this process's) with this package on the path.

    Once this process has imported ``cli``, its own environment already
    sets BLAS_THREADS; a test of that setting passes its own ``env``.
    """
    src = str(Path(clustergauss.__file__).resolve().parent.parent)
    return {**(os.environ if env is None else env), "PYTHONPATH": src}


def _in_child(code: str, cwd=None, env=None) -> str:
    """stdout of ``code`` in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code], env=_child_env(env),
                          cwd=cwd, capture_output=True, text=True,
                          check=True).stdout


class TestImports:
    @pytest.mark.parametrize("module", ["clustergauss", "clustergauss.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert _in_child(code) == "[]\n"

    @pytest.mark.parametrize("argv, modules", [
        (["error-surface", "--nb", "2", "--nd", "2"],
         ["cli", "core", "csvtext", "errormodel"]),
        (["gain-surface", "--nb", "2", "--nd", "2", "--out", "gain.csv"],
         ["cli", "core", "csvtext", "errormodel", "gkp"]),
        (TestSimulateCommand.BASE, ["cli", "core", "phases", "simulate"]),
        ([*TestSimulateCommand.BASE, "--records", "shots.csv"],
         ["cli", "core", "csvtext", "phases", "simulate"]),
        (["solve-phases", *TARGET_ARGS], ["cli", "core", "phases"]),
        (["weight-bound", "--db", "-15"], ["cli", "core", "czgate"]),
        (["cz-decompose", "--g", "1"], ["cli", "core", "czgate"]),
        (["--help"], ["cli", "core"]),
    ], ids=["error-surface", "gain-surface", "simulate", "simulate-records",
            "solve-phases", "weight-bound", "cz-decompose", "help"])
    def test_each_command_loads_only_its_modules(self, tmp_path, argv,
                                                 modules):
        code = ("import contextlib, io\n"
                "from clustergauss import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.suppress(SystemExit):\n"
                f"    cli.main({argv!r})\n" + _PRINT_LOADED)
        assert _in_child(code, cwd=tmp_path) == f"{modules!r}\n"

    def test_package_import_loads_no_submodule(self):
        assert _in_child("import clustergauss\n" + _PRINT_LOADED) == "[]\n"

    def test_submodules_import_by_name(self):
        code = ("from clustergauss import cli, errormodel, gkp, phases\n"
                + _PRINT_LOADED)
        assert _in_child(code) == (
            "['cli', 'core', 'errormodel', 'gkp', 'phases']\n")

    # The BLAS_THREADS value, and the process's thread count where
    # /proc/self/task lists it (else null), after importing the
    # command-line module, as a JSON pair.
    _BLAS_REPORT = ("import json, os, clustergauss.cli\n"
                    "task = '/proc/self/task'\n"
                    f"print(json.dumps([os.environ.get({BLAS_THREADS!r}), "
                    "len(os.listdir(task)) if os.path.isdir(task) else None]))")

    def test_cli_import_starts_no_blas_pool(self):
        unset = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
        # OpenBLAS reads an empty value as unset, so cli must replace it.
        values, threads = zip(*(
            json.loads(_in_child(self._BLAS_REPORT, env=env))
            for env in (unset, {**unset, BLAS_THREADS: ""})))
        assert values == ("1", "1")
        if None in threads:
            pytest.skip("no /proc/self/task to count threads in")
        assert threads == (1, 1)

    def test_cli_import_keeps_a_preset_blas_thread_count(self):
        # The value only: a numpy without OpenBLAS starts no pool to count.
        env = {**os.environ, BLAS_THREADS: "2"}
        value, _ = json.loads(_in_child(self._BLAS_REPORT, env=env))
        assert value == "2"


class TestBlasThreads:
    """CLI outputs do not depend on the size of OpenBLAS's thread pool."""

    SIMULATE = ("simulate", *TARGET_ARGS, *TestGoldenOutputs.WEIGHTS)

    @pytest.mark.parametrize("argv", [
        (*SIMULATE, "--shots", "3000", "--seed", "3",
         "--records", "shots.csv"),
        (*SIMULATE, "--variant", "cubic", "--gamma", "0.1",
         "--alpha", "11.180339887498949", "--shots", "3000", "--seed", "2",
         "--records", "shots.csv"),
        ("cz-decompose", "--g", "1.5"),
    ], ids=["gaussian", "cubic", "cz-decompose"])
    def test_outputs_are_byte_identical(self, tmp_path, argv):
        runs = []
        for threads in ("1", "2"):
            workdir = tmp_path / threads
            workdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "clustergauss.cli", *argv],
                env=_child_env({**os.environ, BLAS_THREADS: threads}),
                cwd=workdir, capture_output=True)
            files = {p.name: p.read_bytes() for p in workdir.iterdir()}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0, runs[0][2]


class TestAllocator:
    ARGV = ("error-surface", "--mode", "gaussian_optimized_phase",
            "--nb", "7", "--nd", "7")

    def test_main_sets_both_thresholds(self, capsys, monkeypatch):
        calls = []
        lib = SimpleNamespace(mallopt=lambda *args: calls.append(args) or 1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        code, _, err = _run(capsys, *self.ARGV)
        assert code == 0, err
        assert calls == [
            (cli._M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_BYTES),
            (cli._M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD_BYTES),
        ]

    def test_libc_without_mallopt_changes_no_byte(self, capsys, monkeypatch):
        tuned = _run(capsys, *self.ARGV)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert _run(capsys, *self.ARGV) == tuned
        assert tuned[0] == 0


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [*TestSimulateCommand.BASE, "--shots", "1e5"],
        ["error-surface", "--workers", "2"],
        ["gain-surface", "--workers", "2", "--out", "unused.csv"],
        [*TestSimulateCommand.BASE, "--workers", "2"],
        [*TestSimulateCommand.BASE, "--im", "1000"],
        ["solve-phases", "--no-such-flag"],
        ["no-such-command"],
        [],
    ], ids=["bad-int", "error-surface-workers", "gain-surface-workers",
            "simulate-workers", "simulate-im", "unknown-flag",
            "unknown-command", "no-command"])
    def test_exit_2_with_one_json_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        doc = json.loads(err)
        assert doc["error"] == "invalid-config"
        assert set(doc) == {"error", "message"}

    def test_help_still_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert "--records" in out
        assert "--workers" not in out and "--im" not in out
        assert err == ""


# ---------------------------------------------------------------------------
# Fuzzed invocations: whatever the numeric inputs, a subcommand exits 0, 2
# or 3, writes nothing or one JSON error line to stderr, and never raises.

# Non-finite, zero, negative, huge and subnormal values, plus a few sane ones.
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                               -7.5, 1e308, -1e308, 5e-324, 0.3, 1.0, 4.0])
# A config file may also hold what is no number at all.
CONFIG_JUNK = st.sampled_from(["abc", "", "nan", "1.5", None, True, [1.0], {}])
# Size-like integers stay tiny: grids of at most 3 x 3, at most two shot
# blocks.
SMALL_INTS = {
    "nb": st.integers(-1, 3), "nd": st.integers(-1, 3),
    "shots": st.sampled_from([-1, 0, 1, 2, SHOT_BLOCK + 1, 2 * SHOT_BLOCK]),
    "seed": st.integers(-2, 3),
}

CUBIC_POINT = {"gamma": 0.1, "alpha": math.sqrt(125.0)}
SURFACE_GRID = {"nb": 3, "nd": 3, "b_min": -2.0, "b_max": 2.0,
                "d_min": -2.0, "d_max": 2.0}
FUZZ_BASES = {
    "solve-phases": {"a": 1.2, "b": 0.5, "c": 0.3, "d": D_OK, "g1": 5.0,
                     "g2": 5.0, "g3": 4.0, "g4": 4.0, "theta4p": 1.1},
    "error-surface": {**SURFACE_GRID, "g1": 5.0, "g2": 5.0, "g3": 4.0,
                      "g4": 4.0, "db": -15.0, "im": 7.5, **CUBIC_POINT},
    "gain-surface": {**SURFACE_GRID, "db": -15.0, "base_g1": 1.0,
                     "opt_g1": 5.0, "opt_g3": 4.0, "im": 7.5, **CUBIC_POINT},
    "simulate": {"a": 1.2, "b": 0.5, "c": 0.3, "d": D_OK, "g1": 5.0,
                 "g2": 5.0, "g3": 4.0, "g4": 4.0, "theta4p": 1.1,
                 "db": -15.0, "shots": 2000, "seed": 3, **CUBIC_POINT,
                 "mean_x": 0.0, "mean_y": 0.0, "var_x": 0.25, "var_y": 0.25,
                 "z_gate": 5.0},
    "weight-bound": {"db": -15.0, "g": [5.4]},
    "cz-decompose": {"g": 1.0},
}
FUZZ_CHOICES = {
    "error-surface": {"mode": MODES},
    "gain-surface": {"base_mode": MODES, "opt_mode": MODES},
    "simulate": {"variant": VARIANTS},
}


def _fuzz_value(key, in_config):
    if key in SMALL_INTS:
        ints = SMALL_INTS[key]
        return st.one_of(ints, CONFIG_JUNK) if in_config else ints
    if key == "g" and not in_config:  # weight-bound's repeatable --g
        return st.lists(EDGE_FLOATS, max_size=2)
    return st.one_of(EDGE_FLOATS, CONFIG_JUNK) if in_config else EDGE_FLOATS


@st.composite
def invocations(draw, command):
    """(flags, config) of one fuzzed ``command`` call."""
    values = dict(FUZZ_BASES[command])
    numeric = sorted(values)
    values.update({key: draw(st.sampled_from(opts))
                   for key, opts in FUZZ_CHOICES.get(command, {}).items()})
    flags, config = {}, {}
    for key in draw(st.lists(st.sampled_from(numeric), max_size=3,
                             unique=True)):
        in_config = draw(st.booleans())
        values[key] = draw(_fuzz_value(key, in_config))
        if in_config:
            config[key] = values.pop(key)
    flags.update(values)
    return flags, config


def _argv(command, flags, config_path):
    argv = [command]
    for key, val in flags.items():
        for v in val if isinstance(val, list) else [val]:
            text = v if isinstance(v, str) else repr(v)
            argv.append(f"--{key.replace('_', '-')}={text}")
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return argv


def _call(argv):
    # Python warnings (the cubic operating point warns by design) are kept
    # apart from what the CLI itself writes to stderr.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(command, code, err):
    assert code in ((0, 2, 3) if command == "simulate" else (0, 2)), err
    assert "Traceback" not in err
    if err:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert set(json.loads(err)) == {"error", "message"}
    else:
        assert code == 0


class TestFuzzedInvocations:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    def test_exits_cleanly(self, command):
        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(call=invocations(command))
        def fuzz(call):
            flags, config = call
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                flags = {**flags, "out": str(tmp / "out")}
                cfg = None
                if config:
                    cfg = tmp / "cfg.json"
                    cfg.write_text(json.dumps(config))
                code, _, err = _call(_argv(command, flags, cfg))
                _check_outcome(command, code, err)
                # A config value from CONFIG_JUNK other than null exits 2,
                # whether or not the chosen mode or variant reads its key;
                # only weight-bound's g takes a list of reals.
                lists = {"g"} if command == "weight-bound" else set()
                if any(isinstance(v, (bool, str, dict))
                       or isinstance(v, list) and k not in lists
                       for k, v in config.items()):
                    assert code == 2, (config, err)
                manifest = tmp / "out.manifest.json"
                if code != 2:
                    # Every recorded run reruns from its manifest.
                    rerun = _call([command, "--config", str(manifest),
                                   "--out", str(tmp / "rerun")])
                    assert rerun[0] == code, rerun[2]
                    assert ((tmp / "rerun").read_bytes()
                            == (tmp / "out").read_bytes())

        fuzz()

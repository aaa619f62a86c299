import enum
import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosecool import cli, hbac, spectrum, tableio
from bosecool import fock as F
from bosecool import gaussian as G
from bosecool._lapack import flapack
from bosecool.errors import CutoffTooSmallError, DomainError


def run(argv):
    return cli.main(argv)


def _jobs_config(tmp_path, jobs) -> list:
    """``--config`` of a file holding ``jobs = jobs``, a key only simulate-pexchange reads."""
    cfg = tmp_path / f"jobs{jobs}.cfg"
    cfg.write_text(f"jobs = {jobs}\n")
    return ["--config", str(cfg)]


def _beam_splitter_json(tmp_path, theta=0.4):
    """A two-mode beam-splitter recharger as a JSON file of [re, im] pairs."""
    return _recharger_json(tmp_path, G.make_beam_splitter(0, 1, 2, theta))


def _recharger_json(tmp_path, u):
    """The recharger ``u`` (C, S and d) as a JSON file of [re, im] pairs."""
    rfile = tmp_path / "recharger.json"
    rfile.write_text(json.dumps({
        "C": [[[z.real, z.imag] for z in row] for row in u.C],
        "S": [[[z.real, z.imag] for z in row] for row in u.S],
        "d": [[z.real, z.imag] for z in u.d_alpha],
    }))
    return str(rfile)


# The names of a wide, sparse table like the spectrum ladder's: 1030 columns,
# every seventh name holding a comma and quotes.
WIDE = [f'g,"{k}"' if k % 7 == 0 else f"g_{k}" for k in range(1030)]


_TEXTS = ["a,b", 'say "hi"', "cr\r\nlf", "cr\ronly", "lf\nonly", "", " lead", "trail ",
          "ünïcødé €", '"', ",", "plain"]
_ODD = [math.nan, math.inf, -math.inf, -0.0, 7, True, None, np.float64(2.5), np.int64(-3),
        np.bool_(False), np.float32(0.1), [1, 2], "x,y"]
# Columns of 13 rows (WIDE's of 4) for the rendering tests.  ``g`` is a block
# of 15 fields, wider than every row, with empty rows first, in the middle
# and last; ``lone`` a block of one field; ``N``, ``gaps`` and ``error`` a
# spectrum sweep with a failed cell between full rows of another width.
TABLE_COLUMNS = {
    "num": [0.1 * k for k in range(12)] + [math.nan],
    "text": _TEXTS + [None],
    "mixed": _ODD,
    "sparse": [1e-300, None, math.inf, None, -2.0, None, None, 5e-324, None, 1.0, None, None,
               None],
    "": [True, False] * 6 + [None],
    "only": _TEXTS + [None],
    "g": tableio.RowBlock(
        [[], [0.5], _ODD, [None, 2.5], _TEXTS, [], [1.0, None, None], [1e-300] * 3,
         [True, False], [np.float64(0.1)], _ODD[::-1], [-0.0], []], 15
    ),
    "lone": tableio.RowBlock([[], [None], [""], [2.5]], 1),
    "N": [4, 4, 8, 8],
    "gaps": tableio.RowBlock([[27.6, 27.9, 28.2, 28.6, 29.0], [], [27.6] * 9, []], 9),
    "error": ["", "scaled stationarity residual 1.705e-12 above 1e-12", "", "refused"],
}
# Four rows; column k holds k % 5 leading cells, the rest empty.
TABLE_COLUMNS.update(
    (name, [0.25 * k if i < k % 5 else None for i in range(4)]) for k, name in enumerate(WIDE)
)


def _expanded(columns: dict) -> dict:
    """``columns`` with each block written out as its fields, one list of
    cells per field, as a table without blocks."""
    out = {}
    for name, cells in columns.items():
        if isinstance(cells, tableio.RowBlock):
            out.update((f"{name}_{j}", [row[j] if j < len(row) else None for row in cells])
                       for j in range(cells.width))
        else:
            out[name] = cells
    return out


class TestTableIO:
    def test_csv_round_trip(self, tmp_path):
        columns = {
            "a": [1, -3, 0],
            "b": [2.5, float("inf"), 1.2345678901234567e-12],
            "c": ["x", "with,comma", ""],
            "flag": [True, False, True],
        }
        meta = {"seed": 42, "note": "hello", "val": 0.1}
        path = tmp_path / "t.csv"
        tableio.write_table(path, columns, meta, "csv")
        meta2, rows2 = tableio.read_table(path)
        assert meta2["seed"] == 42 and meta2["val"] == 0.1
        assert [r["a"] for r in rows2] == columns["a"]
        assert [r["b"] for r in rows2] == columns["b"]
        assert [r["flag"] for r in rows2] == columns["flag"]

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        tableio.write_table(path, {"x": [1.5], "y": ["s"]}, {"k": 1}, "json")
        meta, rows2 = tableio.read_table(path)
        assert meta["k"] == 1
        assert rows2[0]["x"] == 1.5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_raise(self, tmp_path, fmt):
        # zip would drop the rows beyond the shortest column without a word.
        path = tmp_path / f"t.{fmt}"
        with pytest.raises(ValueError, match="columns differ in length"):
            tableio.write_table(path, {"x": [1.5, 2.5], "y": ["s"]}, {}, fmt)
        assert not path.exists()

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "t.xml"
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            tableio.write_table(path, {"x": [1.5]}, {}, "xml")
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_gets_the_file_bytes(self, tmp_path, fmt, capsysbinary):
        columns = {"a": [1, -3], "b": [2.5, float("inf")], "c": ["with,comma", ""]}
        path = tmp_path / f"t.{fmt}"
        tableio.write_table(path, columns, {"seed": 42, "val": 0.1}, fmt)
        tableio.write_table("-", columns, {"seed": 42, "val": 0.1}, fmt)
        assert capsysbinary.readouterr().out == path.read_bytes()

    @pytest.mark.parametrize("budget", [1, 3, 7, tableio.CSV_CHUNK_CELLS])
    @pytest.mark.parametrize(
        "fieldnames", [["num", "text", "mixed", "sparse", ""], ["only"], [""], WIDE,
                       ["num", "g", "mixed"], ["g"], ["g", ""], ["lone"], ["N", "gaps", "error"]]
    )
    def test_csv_body_matches_csv_writer(self, fieldnames, budget, monkeypatch):
        # Columns are formatted at once (floats by repr, ints, bools and
        # empty cells joined directly), and a block row in one join, over
        # chunks of about ``budget`` cells; the bytes are csv.writer's over
        # _format_value of the expanded fields, including its quoting and
        # the lone empty field, in the header too.
        monkeypatch.setattr(tableio, "CSV_CHUNK_CELLS", budget)
        import csv
        import io

        columns = {name: TABLE_COLUMNS[name] for name in fieldnames}
        table = _expanded(columns)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(list(table))
        for row in zip(*table.values()):
            writer.writerow(["" if v is None else tableio._format_value(v) for v in row])
        assert tableio.render_csv(columns, {}) == buf.getvalue()

    @pytest.mark.parametrize("fieldnames", [["num", "g", "mixed"], ["g", ""], ["lone"],
                                            ["N", "gaps", "error"]])
    def test_json_expands_blocks(self, fieldnames):
        columns = {name: TABLE_COLUMNS[name] for name in fieldnames}
        meta = {"seed": 42}
        assert tableio.render_json(columns, meta) == tableio.render_json(_expanded(columns), meta)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_rows_count_in_the_length_check(self, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        block = tableio.RowBlock([[1.0], [], [2.0, 3.0]], 2)
        with pytest.raises(ValueError, match="columns differ in length"):
            tableio.write_table(path, {"x": [1.5, 2.5], "g": block}, {}, fmt)
        assert not path.exists()
        tableio.write_table(path, {"x": [1.5, 2.5, 3.5], "g": block}, {}, fmt)
        assert [row["g_1"] for row in tableio.read_table(path)[1]] == [None, None, 3.0]

    @pytest.mark.parametrize("rows, width", [([[1.0, 2.0]], 1), ([[]], 0)])
    def test_malformed_block_raises(self, rows, width):
        with pytest.raises(ValueError, match="a block needs width >= 1"):
            tableio.RowBlock(rows, width)

    @pytest.mark.parametrize("value, text", [
        (1.5, "1.5"), (0.1, "0.1"), (7, "7"), (-3, "-3"), (True, "true"), (False, "false"),
        (np.float64(2.5), "2.5"), (np.int64(-3), "-3"), (np.bool_(True), "true"),
        (np.bool_(False), "false"), (math.nan, "nan"), (-0.0, "-0.0"), (math.inf, "inf"),
        (-math.inf, "-inf"), ("a,b", "a,b"), (None, "None"),
        (enum.IntEnum("Order", "ONE TWO").TWO, "2"), (type("Gap", (float,), {})(1.25), "1.25"),
    ])
    def test_format_value(self, value, text):
        # The cell text alone, before quoting: floats by repr, ints, bools as
        # true/false, numpy scalars as their Python values, others by str.
        assert tableio._format_value(value) == text

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.0\n# comment\nomegas = 1.5,2.5  # inline\n")
        parsed = tableio.load_config(cfg)
        assert parsed == {"beta": "2.0", "omegas": "1.5,2.5"}

    def test_config_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        with pytest.raises(ValueError):
            tableio.load_config(cfg)


class TestLimitCommand:
    def test_basic(self, tmp_path, capsys):
        out = tmp_path / "limit.csv"
        assert run(["limit", "--beta", "1", "--omega0", "1", "--omegas", "2", "--out", str(out)]) == 0
        meta, rows = tableio.read_table(out)
        assert rows[0]["beta_star"] == pytest.approx(2.0)
        assert rows[0]["verified"] is True
        assert rows[0]["cooling"] is True

    def test_no_cooling_warns_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "limit.csv"
        assert run(["limit", "--omegas", "0.5", "--out", str(out)]) == 0
        assert "cannot" in capsys.readouterr().err
        _, rows = tableio.read_table(out)
        assert rows[0]["cooling"] is False
        assert rows[0]["sigma_star"] == 0.0

    def test_malformed_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert run(["limit", "--config", str(cfg)]) == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["limit", "--beta", "not-a-number"])
        assert exc.value.code == 2

    def test_overflowing_occupation_exits_one(self, capsys):
        assert run(["limit", "--omegas", "800"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_nonfinite_moments_exit_one(self, capsys):
        # The swap chain hands the system's 1/expm1(1e-308) = 1e308 excitations
        # to a mode at 1e308: the heat of round 1 overflows.  Warnings are
        # errors here, so a numpy RuntimeWarning would escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["limit", "--omegas", "1e308", "--beta", "1e-308"]) == 1
        assert capsys.readouterr().err == (
            "error: heat or entropy production is not finite in round 1\n"
        )

    @pytest.mark.parametrize("flags", [
        ["--omegas", "30"], ["--omegas", "300"], ["--omegas", "700"], ["--omega0=700"],
        ["--beta", "1", "--omega0", "1", "--omegas", "0.5,1.0,1.5,709.78"],
    ])
    def test_cold_machines_are_certified(self, tmp_path, capsys, flags):
        # Up to beta*omega = gaussian.GAP_MAX the one swap-chain round keeps
        # the top machine occupation, and beta_eff is the target itself.
        out = tmp_path / "limit.csv"
        assert run(["limit", *flags, "--out", str(out)]) == 0
        _, rows = tableio.read_table(out)
        row = rows[0]
        assert row["verified"] is True and row["rel_error"] == 0.0
        assert row["nth_one_round"] == row["nbar_limit"]
        target = row["beta_star"] if row["cooling"] else row["beta"]
        assert row["beta_eff_one_round"] == target
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags, warned", [(["--omegas", "30"], False),
                                               (["--omega0=700"], True)],
                             ids=["cooling", "no-cooling"])
    def test_missed_one_round_check_names_error(self, monkeypatch, tmp_path, capsys,
                                                flags, warned):
        # The one round is exact on cold machines (above), so a miss is made by
        # skewing beta_eff by 1e-9.
        effective_beta = G.effective_beta
        monkeypatch.setattr(G, "effective_beta", lambda *a: effective_beta(*a) * (1 + 1e-9))
        out = tmp_path / "limit.csv"
        assert run(["limit", *flags, "--out", str(out)]) == 1
        _, rows = tableio.read_table(out)
        rel_err = rows[0]["rel_error"]
        assert rows[0]["verified"] is False and 1e-10 < rel_err < 2e-9
        lines = capsys.readouterr().err.splitlines()
        assert [line.startswith("warning:") for line in lines] == [True] * warned + [False]
        assert lines[-1] == (
            f"error: one-round beta_eff misses its target by relative error {rel_err!r}, "
            "not below 1e-10"
        )

    @pytest.mark.parametrize("flags, low", [
        (["--beta", "1e-162", "--omega0", "1e-162", "--omegas", "1e-161"], "0"),
        (["--beta", "1e-320", "--omegas", "2"], "9.99989e-321"),
    ])
    def test_underflowing_gap_exits_one(self, flags, low, capsys):
        # 1/expm1(beta*omega0) divides by zero or overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["limit", *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: beta*omega = {low} underflows the thermal occupation\n"

    @pytest.mark.parametrize(
        "flags", [["--beta", "nan"], ["--omega0", "nan"], ["--omegas", "1.5,nan,2.5"]]
    )
    def test_nonfinite_input_exits_one(self, flags, capsys):
        assert run(["limit", *flags]) == 1
        assert capsys.readouterr().err == "error: beta and all frequencies must be finite\n"

    @pytest.mark.parametrize("command", ["limit", "simulate-gaussian"])
    def test_empty_omegas_exits_one(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run([command, "--omegas=", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: machine needs at least one mode\n"
        assert not out.exists()

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.0\nomegas = 3.0\n")
        out = tmp_path / "o.csv"
        assert run(["limit", "--config", str(cfg), "--beta", "1.5", "--out", str(out)]) == 0
        meta, rows = tableio.read_table(out)
        assert rows[0]["beta"] == 1.5  # CLI override wins
        assert rows[0]["lambda"] == pytest.approx(3.0)


class TestOptimizeSpectrum:
    def test_single_cell_json(self, tmp_path):
        out = tmp_path / "cell.json"
        assert run([
            "optimize-spectrum", "--lambdas", "4.0", "--modes", "2",
            "--format", "json", "--out", str(out),
        ]) == 0
        meta, rows = tableio.read_table(out)
        assert rows[0]["N"] == 2
        assert rows[0]["residual"] < 1e-12
        assert rows[0]["g_0"] < rows[0]["g_1"] < rows[0]["g_2"]

    def test_sweep_with_analytic_compare(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "optimize-spectrum", "--lambdas", "120.8", "--modes", "2,5",
            "--analytic-compare", "--out", str(out),
        ]) == 0
        _, rows = tableio.read_table(out)
        for row in rows:
            assert row["sigma_star_star"] <= row["sigma_analytic_sampled"] + 1e-12

    @pytest.mark.parametrize(
        "flags", [["--lambdas", "nan"], ["--lambdas", "inf"], ["--n0", "nan"], ["--lambdas", "0.5"]]
    )
    def test_invalid_or_nonfinite_endpoint_exits_one(self, flags, capsys):
        assert run(["optimize-spectrum", "--modes", "2", "--lambdas", "4.0", *flags]) == 1
        assert capsys.readouterr().err.startswith("error: need finite n0 > 0 and lam > 1")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_lambda_count_below_one_exits_one(self, tmp_path, value, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["optimize-spectrum", "--lambda-count", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: lambda_count must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, shown", [
        ("--lambda-min", "-1", "-1.0"), ("--lambda-max", "-1", "-1.0"), ("--lambda-max", "inf", "inf"),
        ("--lambda-min", "0", "0.0"), ("--lambda-max", "0", "0.0"), ("--lambda-min", "nan", "nan"),
    ])
    def test_grid_bound_outside_domain_exits_one(self, tmp_path, flag, value, shown, capsys):
        # Refused before np.geomspace: no RuntimeWarning and no numpy usage error.
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["optimize-spectrum", f"{flag}={value}", "--lambda-count", "3",
                        "--out", str(out)]) == 1
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be finite and > 0, got {shown}\n"
        assert not out.exists()

    def test_grid_bound_at_most_one_keeps_sweep_message(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["optimize-spectrum", "--lambda-min", "0.5", "--lambda-count", "3",
                        "--modes", "2", "--out", os.devnull]) == 1
        assert "error: need finite n0 > 0 and lam > 1" in capsys.readouterr().err

    def test_empty_modes_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["optimize-spectrum", "--modes=", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: modes must list at least one machine size\n"
        assert not out.exists()

    def test_empty_lambdas_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["optimize-spectrum", "--lambdas=", "--modes", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: lambdas must list at least one frequency ratio\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_one_sweep_without_pool_at_any_jobs(self, jobs, monkeypatch, tmp_path):
        # Every size is one sweep (one ragged Newton stack), in process, whatever
        # ``jobs`` a config file holds.
        calls, sweep = [], spectrum.sweep_sigma_vs_lambda

        def recording_sweep(n0, lambdas, ns, compare=False):
            calls.append(sorted(ns))
            return sweep(n0, lambdas, ns, compare)

        def unreachable(*args, **kwargs):
            raise AssertionError("optimize-spectrum reached the worker pool")

        monkeypatch.setattr(spectrum, "sweep_sigma_vs_lambda", recording_sweep)
        monkeypatch.setattr(cli, "_pmap", unreachable)
        out = tmp_path / "sweep.csv"
        assert run(["optimize-spectrum", "--lambdas", "3,1.5", "--modes", "2,8,1,2",
                    *_jobs_config(tmp_path, jobs), "--out", str(out)]) == 0
        assert calls == [[1, 2, 2, 8]]

    def test_gap_beyond_float_range_exits_one(self, capsys):
        # n0 = 10, lambda = 1e4: gN = 953 > ln(float max), where nbar_N underflows.
        assert run(["optimize-spectrum", "--lambdas", "10000", "--modes", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: gN = 953.102 above ln(float max)")

    def test_jobs_parallel_same_result(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["optimize-spectrum", "--lambdas", "1.5,3.0", "--modes", "1,2"]
        assert run(args + [*_jobs_config(tmp_path, 1), "--out", str(a)]) == 0
        assert run(args + [*_jobs_config(tmp_path, 2), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ok_and_error_rows_in_one_stack(self, tmp_path):
        # Both cells share N = 68 and are one stacked solve; lambda 1012.27
        # stops at the double-precision floor and becomes an error row.
        out = tmp_path / "floor.csv"
        assert run(["optimize-spectrum", "--n0", "1", "--lambdas", "5,1012.27", "--modes", "68",
                    "--out", str(out)]) == 1
        _, rows = tableio.read_table(out)
        assert [r["lambda"] for r in rows] == [5.0, 1012.27]
        assert rows[0]["error"] is None and rows[0]["residual"] < 1e-12
        assert rows[1]["error"] == "scaled stationarity residual 1.023e-12 above 1e-12"
        assert math.isnan(rows[1]["sigma_star_star"]) and rows[1]["g_0"] is None

    def test_repeated_sizes_and_ratios_sorted_for_any_jobs(self, tmp_path):
        args = ["optimize-spectrum", "--lambdas", "3,1.5,3", "--modes", "4,2,2,1"]
        outs = [tmp_path / f"{jobs}.csv" for jobs in (1, 2, 3)]
        for jobs, out in zip((1, 2, 3), outs):
            assert run(args + [*_jobs_config(tmp_path, jobs), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        _, rows = tableio.read_table(outs[0])
        assert [(r["N"], r["lambda"]) for r in rows] == sorted(
            (n, lam) for n in (1, 2, 2, 4) for lam in (1.5, 3.0, 3.0)
        )


class TestStartup:
    """Commands that never call scipy do not import it, commands that call only
    LAPACK load its compiled module and not the ``scipy.linalg`` package,
    ``property-suite`` loads only the compiled kernels of ``expm``, no
    command without workers imports the worker pool, and each command loads
    only the engines it runs."""

    @pytest.mark.parametrize("code", [
        "import bosecool.cli",
        "from bosecool import cli; cli.main(['limit', '--out', os.devnull])",
        "from bosecool import cli; cli.main(['simulate-gaussian', '--rounds', '3', '--out', os.devnull])",
    ])
    def test_scipy_not_loaded(self, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = f"import os, sys; {code}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv", [
        "'simulate-pexchange', '--rounds', '3'",
        "'simulate-pexchange', '--mode', 'collision', '--t-points', '5'",
        "'optimize-spectrum', '--lambda-count', '3'",
    ])
    def test_only_lapack_module_loaded(self, argv):
        # simulate-pexchange at --jobs 1, so that every p cell's imports are made
        # in the probed process.
        src = str(Path(__file__).resolve().parents[1] / "src")
        jobs = ", '--jobs', '1'" if "simulate-pexchange" in argv else ""
        probe = (f"import os, sys; from bosecool import cli;"
                 f" cli.main([{argv}{jobs}, '--out', os.devnull]);"
                 " print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "['scipy.linalg._flapack']\n"

    def test_property_suite_loads_only_expm_kernels(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import os, sys; from bosecool import cli;"
                 " cli.main(['property-suite', '--trials', '20', '--out', os.devnull]);"
                 " print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "['scipy.linalg._matfuncs_expm']\n"

    @pytest.mark.parametrize("code", [
        "import bosecool.cli",
        "from bosecool import cli; cli.main(['limit', '--out', os.devnull])",
        "from bosecool import cli; cli.main(['simulate-gaussian', '--rounds', '3', '--out', os.devnull])",
        "from bosecool import cli; cli.main(['optimize-spectrum', '--lambda-count', '3',"
        " '--out', os.devnull])",
        "from bosecool import cli; cli.main(['simulate-pexchange', '--rounds', '3', '--out', os.devnull])",
    ])
    def test_worker_pool_not_loaded(self, code):
        # scipy itself loads concurrent.futures._base, so only the pool's modules are checked.
        src = str(Path(__file__).resolve().parents[1] / "src")
        pool = "m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'"
        probe = f"import os, sys; {code}; print(sorted(m for m in sys.modules if {pool}))"
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, engines", [
        (None, []),
        ("'limit'", ["gaussian", "hbac"]),
        ("'simulate-gaussian', '--rounds', '3'", ["gaussian", "hbac"]),
        ("'optimize-spectrum', '--lambda-count', '3'", ["_lapack", "gaussian", "spectrum"]),
        ("'simulate-pexchange', '--rounds', '3', '--jobs', '1'", ["_lapack", "collisions", "fock"]),
        ("'property-suite', '--trials', '20'", ["_lapack", "gaussian", "hbac", "suites"]),
    ])
    def test_loads_only_its_engines(self, argv, engines):
        # ``import bosecool.cli`` loads no engine, and each command only those
        # it runs (simulate-pexchange at --jobs 1, so that its cells run in
        # the probed process).
        src = str(Path(__file__).resolve().parents[1] / "src")
        names = ("gaussian", "hbac", "spectrum", "suites", "fock", "collisions", "_lapack")
        run_cmd = f"cli.main([{argv}, '--out', os.devnull]); " if argv else ""
        probe = (f"import os, sys; from bosecool import cli; {run_cmd}"
                 f"print(sorted(n for n in {names!r} if 'bosecool.' + n in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == f"{engines}\n"


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    """Only the invoked command's flags are built, yet help and usage errors
    read as if every command had its flags."""

    def test_top_level_help_lists_every_command(self, capsys):
        out = _help(["--help"], capsys)
        commands = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
        assert commands == list(cli.COMMANDS) and len(commands) == 5
        for command, (_, help_text) in cli.COMMANDS.items():
            assert re.search(rf"^    {command} +{re.escape(help_text)}$", out, re.M)

    @pytest.mark.parametrize("command", list(cli.PARAMS))
    def test_command_help_lists_exactly_its_flags(self, command, capsys):
        out = _help([command, "--help"], capsys)
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out))
        keys = [key for key, *_ in cli.PARAMS[command] + cli.COMMON]
        expected = {"--" + key.replace("_", "-") for key in keys}
        assert flags == expected | {"--help", "--config", "--out", "--format"}

    @pytest.mark.parametrize("command", list(cli.PARAMS))
    def test_flag_of_another_command_exits_two(self, command, capsys):
        own = {key for key, *_ in cli.PARAMS[command]}
        foreign = next(key for table in cli.PARAMS.values() for key, *_ in table
                       if key not in own)
        with pytest.raises(SystemExit) as exc:
            run([command, "--" + foreign.replace("_", "-"), "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bosecool [-h] [--version]")
        assert "unrecognized arguments: --" + foreign.replace("_", "-") in err

    def test_each_call_builds_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestWorkerPool:
    """``--jobs`` forks only for simulate-pexchange, one process per p cell at most:
    the caller runs the first share of the sorted orders and a child each other."""

    @staticmethod
    def _in_process_forks(monkeypatch) -> list:
        """Replace ``cli._fork`` by one whose join runs the share in process, so
        nothing forks and shares run in order; returns the shares it was given."""
        forked = []

        def in_process(fn, part, arg):
            forked.append(part)
            return lambda: (True, fn(part, arg))

        monkeypatch.setattr(cli, "_fork", in_process)
        return forked

    @pytest.mark.parametrize("argv, pools", [
        (["simulate-pexchange", "--p", "1,2", "--rounds", "3", "--jobs", "8"], [2]),
        (["simulate-pexchange", "--p", "2", "--rounds", "3", "--jobs", "4"], []),
        (["optimize-spectrum", "--lambda-count", "3"], []),
        (["simulate-pexchange", "--p", "1,2,3,4", "--rounds", "3", "--jobs", "3"], [3]),
    ])
    def test_worker_count(self, argv, pools, monkeypatch, tmp_path):
        # The worker count of each run that forks: the caller and a child per
        # forked share.
        forked = self._in_process_forks(monkeypatch)
        assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert ([len(forked) + 1] if forked else []) == pools

    @pytest.mark.parametrize("argv, stacks", [
        (["--p", "3,1,2", "--jobs", "1"], [[1, 2, 3]]),
        (["--p", "1,2,3", "--jobs", "2"], [[1], [2, 3]]),
        (["--p", "1,2,3,4", "--jobs", "3"], [[1], [2], [3, 4]]),
        (["--p", "1,2,3", "--jobs", "0"], [[1, 2, 3]]),
        # At these occupations p = 20 needs a larger cutoff (22 x 22) than p = 1
        # and 2 (16 x 16).
        (["--p", "1,2,20", "--chi", "1e-9", "--nbar-s", "0.1", "--nbar-m", "0.05", "--jobs", "1"],
         [[1, 2], [20]]),
    ])
    def test_one_stack_per_worker_and_cutoff(self, argv, stacks, monkeypatch, tmp_path):
        # Each worker steps a contiguous share of the sorted orders, the longer
        # shares last (low orders have the largest sectors); within a share, the
        # cells of one cutoff are one stack.
        self._in_process_forks(monkeypatch)
        steps, step = [], F.step_populations

        def recording_step(tmats, states, rounds, record_every=1):
            steps.append(len(tmats))
            return step(tmats, states, rounds, record_every)

        monkeypatch.setattr(F, "step_populations", recording_step)
        argv = ["simulate-pexchange", "--rounds", "5", *argv, "--out", str(tmp_path / "out.csv")]
        assert run(argv) == 0
        assert steps == [len(stack) for stack in stacks]
        cutoffs = tableio.read_table(tmp_path / "out.csv")[0]
        assert len({cutoffs[f"cutoff_p{p}"] for p in stacks[-1]}) == 1

    def test_default_is_usable_cpu_count(self):
        defaults = {key: default for key, _, default, _ in cli.PARAMS["simulate-pexchange"]}
        assert defaults["jobs"] == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("setup, jobs", [
        ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})", []),
        ("del os.fork", ["--jobs", "3"]),
        ("del os.fork", []),
    ], ids=["one-cpu", "no-fork", "no-fork-default"])
    def test_one_usable_cpu_forks_nothing(self, setup, jobs):
        # With one usable CPU the default runs every share in process; without
        # os.fork, the default and an explicit --jobs run so too.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            f"import os; {setup}\n"
            "from bosecool import cli\n"
            "def forbidden(*args): raise AssertionError('forked')\n"
            "cli._fork = forbidden\n"
            "argv = ['simulate-pexchange', '--p', '1,2,3', '--rounds', '3', *%r,"
            " '--out', os.devnull]\n"
            "print(cli.main(argv))" % (jobs,)
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "0\n"


class TestForkJoin:
    """Child shares: their errors read as in process, their results of any size
    arrive whole, and every child is reaped whatever a share does."""

    REFUSED = ["simulate-pexchange", "--p", "1,2", "--chi", "1e-20", "--nbar-s", "0.5",
               "--nbar-m", "0.5", "--rounds", "3"]  # p = 2's asymptote is refused

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _refuse(monkeypatch, p: int, error: Exception):
        """Make the per-order setup of order ``p`` raise ``error``, in the caller or a child."""
        build = F.build_hamiltonian

        def refusing(**kwargs):
            if kwargs["p"] == p:
                raise error
            return build(**kwargs)

        monkeypatch.setattr(F, "build_hamiltonian", refusing)

    @pytest.mark.parametrize("patched", [False, True])
    def test_child_error_reads_as_in_process(self, patched, monkeypatch, capsys):
        # The refusal of p = 2 falls in the child's share at --jobs 2.  The
        # patched case raises CutoffTooSmallError, whose required deficit once
        # kept pickle from rebuilding it.
        if patched:
            error = CutoffTooSmallError("Gibbs tail 0.01 above tolerance", deficit=0.01)
            self._refuse(monkeypatch, 2, error)
        self._no_child_left()
        errs = []
        for jobs in ("1", "2"):
            assert run(self.REFUSED + ["--jobs", jobs, "--out", os.devnull]) == 1
            errs.append(capsys.readouterr().err)
            self._no_child_left()
        assert errs[0] == errs[1] and errs[0].startswith("error: ") and errs[0].count("\n") == 1

    @pytest.mark.parametrize("argv, refused, code", [
        (["simulate-pexchange", "--p", "1,2,3", "--rounds", "3", "--jobs", "3"], None, 0),
        (REFUSED + ["--jobs", "2"], None, 1),  # p = 2, in the child's share
        (["simulate-pexchange", "--p", "1,2", "--rounds", "3", "--jobs", "2"], 1, 1),  # caller's
    ])
    def test_no_child_left(self, argv, refused, code, monkeypatch, capsys):
        if refused:
            self._refuse(monkeypatch, refused, DomainError("refused in the caller's share"))
        self._no_child_left()
        assert run(argv + ["--out", os.devnull]) == code
        self._no_child_left()
        assert capsys.readouterr().err.count("\n") == code

    def test_result_beyond_pipe_buffer(self, tmp_path):
        # Each order's 3000 rows are some 3e5 bytes of CSV and 1.5e5 pickled
        # bytes of its share, beyond a pipe's 64 KiB.
        outs = [tmp_path / f"{jobs}.csv" for jobs in (1, 3)]
        for jobs, out in zip((1, 3), outs):
            assert run(["simulate-pexchange", "--rounds", "3000", "--jobs", str(jobs),
                        "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_bytes()) > 3 * 4 * 2**16

    @pytest.mark.parametrize("forks", [0, 1])
    def test_failed_fork_runs_share_in_process(self, forks, monkeypatch, tmp_path):
        # After ``forks`` forks succeed, os.fork fails as under a process limit:
        # the shares left run in process, with the bytes of --jobs 1.
        fork, calls = os.fork, []

        def limited_fork():
            calls.append(1)
            if len(calls) > forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        argv = ["simulate-pexchange", "--p", "1,2,3,4", "--rounds", "30"]
        serial = tmp_path / "serial.csv"
        assert run(argv + ["--jobs", "1", "--out", str(serial)]) == 0
        monkeypatch.setattr(os, "fork", limited_fork)
        out = tmp_path / "limited.csv"
        assert run(argv + ["--jobs", "4", "--out", str(out)]) == 0
        assert len(calls) == forks + 1
        assert out.read_bytes() == serial.read_bytes()
        self._no_child_left()

    def test_child_killed_by_signal_exits_one(self, monkeypatch, capsys):
        caller, cells = os.getpid(), cli._pexchange_cells

        def killed_in_child(ps, v):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return cells(ps, v)

        monkeypatch.setattr(cli, "_pexchange_cells", killed_in_child)
        argv = ["simulate-pexchange", "--p", "1,2", "--rounds", "3", "--jobs", "2"]
        assert run(argv + ["--out", os.devnull]) == 1
        assert capsys.readouterr().err == (
            f"error: worker process for [2] ended by signal {int(signal.SIGKILL)}\n")
        self._no_child_left()


class TestSimulateGaussian:
    # A system at mu = 1/expm1(1e-307) + 1/2, squeezed in round 1.
    HOT = ["simulate-gaussian", "--beta", "1e-307", "--omega0", "1", "--omegas", "2",
           "--rounds", "1"]

    def test_overflowing_squares_exit_one(self, tmp_path, capsys):
        # r = 1: mu^2 and |nu|^2 both overflow, and mu^2 - |nu|^2 = inf - inf
        # is nan; refused, not written as a nan row.
        out = tmp_path / "trace.csv"
        rfile = _recharger_json(tmp_path, G.make_squeezer([1.0, 0.0]))
        assert run([*self.HOT, "--recharger-json", rfile, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08"
            " at this squeezing: mu = 3.7621956910836316e+307, |nu| = 3.626860407847019e+307\n"
        )
        assert not out.exists()

    def test_overflowing_products_print_the_error_line_alone(self, tmp_path, capsys):
        # r = 2: G M G^dag overflows; with warnings as errors, a numpy warning
        # from the products would escape main.
        rfile = _recharger_json(tmp_path, G.make_squeezer([2.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*self.HOT, "--recharger-json", rfile]) == 1
        assert capsys.readouterr().err == "error: moments are not finite (overflow)\n"

    def test_unresolvable_squeezing_exits_one(self, tmp_path, capsys):
        # The squeezing and displacing recharger of the parity inputs: in round
        # 35 its system's mu^2 - |nu|^2 carries a rounding error above 1e-8 of
        # itself.
        u = G.compose(
            G.make_displacement([0.3 + 0.2j, -0.1j]),
            G.compose(G.make_squeezer([0.3, 0.1]), G.make_beam_splitter(0, 1, 2, 0.4)),
        )
        rfile = tmp_path / "squeeze-displace.json"
        rfile.write_text(json.dumps({
            key: [[[z.real, z.imag] for z in row] for row in block]
            for key, block in (("C", u.C), ("S", u.S))
        } | {"d": [[z.real, z.imag] for z in u.d_alpha]}))
        out = tmp_path / "trace.csv"
        argv = ["simulate-gaussian", "--omegas", "2.0", "--recharger-json", str(rfile)]
        assert run([*argv, "--rounds", "34", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run([*argv, "--rounds", "200"]) == 1
        assert capsys.readouterr().err == (
            "error: double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08"
            " at this squeezing: mu = 2950511.841367612, |nu| = 2950511.7391266683\n"
        )

    def test_squeezed_trace_is_refused_not_printed(self, tmp_path, capsys):
        # hbac.random_spec(default_rng(3)) with random_gaussian_unitary(6,
        # default_rng(103)): mu and |nu| grow together; in double precision
        # round 40 reads 6815743.5 where a 60-digit iteration of the same
        # inputs gives 6842759.49.  Refused in round 22, where mu^2 - |nu|^2
        # carries a rounding error above 1e-8 of itself; no numpy warning.
        spec = hbac.random_spec(np.random.default_rng(3))
        u = G.random_gaussian_unitary(spec.n_machine + 1, np.random.default_rng(103))
        flags = ["--beta", repr(spec.beta), "--omega0", repr(spec.omega0),
                 "--omegas", ",".join(map(repr, spec.omegas)),
                 "--recharger-json", _recharger_json(tmp_path, u)]
        out = tmp_path / "trace.csv"
        assert run(["simulate-gaussian", *flags, "--rounds", "21", "--out", str(out)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate-gaussian", *flags, "--rounds", "40"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08"
        ) and err.count("\n") == 1

    def test_cold_squeezed_trace_is_refused_not_printed(self, tmp_path, capsys):
        # A system at beta*omega0 = 25 squeezed by r = 0.5 each round: its nth,
        # 1.3887944e-11, cannot be resolved to 1e-8 from n(n+1) - |nu|^2.
        rfile = _recharger_json(tmp_path, G.make_squeezer([0.5, 0.0]))
        out = tmp_path / "trace.csv"
        assert run(["simulate-gaussian", "--beta", "25", "--omega0", "1", "--omegas", "1.2",
                    "--recharger-json", rfile, "--rounds", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: double precision cannot resolve nth to a relative 1e-08 in round 1: n = "
        ) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan", "config"])
    def test_nonfinite_theta_exits_one(self, theta, tmp_path, capsys):
        argv = ["simulate-gaussian", "--recharger", "beam-splitter", "--rounds", "3"]
        if theta == "config":
            cfg = tmp_path / "theta.cfg"
            cfg.write_text("theta = inf\n")
            argv += ["--config", str(cfg)]
        else:
            argv.append(f"--theta={theta}")
        out = tmp_path / "trace.csv"
        assert run([*argv, "--out", str(out)]) == 1
        value = "inf" if theta == "config" else theta
        assert capsys.readouterr().err == (
            f"error: beam-splitter angle theta must be finite, got {value}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("omegas", ["30", "1.5,300", "0.5,700"])
    def test_cold_swap_chain_keeps_the_top_occupation(self, omegas, tmp_path):
        # Every round gives the system 1/expm1(beta*omega_N), to 1 ulp.
        out = tmp_path / "trace.csv"
        assert run(["simulate-gaussian", "--omegas", omegas, "--rounds", "5",
                    "--out", str(out)]) == 0
        _, rows = tableio.read_table(out)
        top = 1.0 / math.expm1(float(omegas.split(",")[-1]))
        assert len(rows) == 5
        assert all(abs(r["nth"] - top) <= math.ulp(top) for r in rows)

    def test_overflowing_mu_square_exits_one(self, tmp_path, capsys):
        # mu = 1e200 squeezed by r = 1e-47: mu^2 overflows but |nu|^2 = 4e306
        # does not, so mu^2 - |nu|^2 is inf; refused, not written as an inf
        # nth and a nan Sigma.
        rfile = _recharger_json(tmp_path, G.make_squeezer([1e-47, 0.0]))
        out = tmp_path / "trace.csv"
        flags = ["--beta", "1e-200", "--omega0", "1", "--omegas", "2", "--out", str(out)]
        assert run(["simulate-gaussian", *flags, "--recharger-json", rfile]) == 1
        assert capsys.readouterr().err == (
            "error: double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08"
            " at this squeezing: mu = 1e+200, |nu| = 2e+153\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, displacement", [
        (["--beta", "1e-310", "--omega0", "1e10", "--omegas", "2e10"], None),
        (["--omegas", "2.0"], [0.0, 1e200]),
    ], ids=["hot-swap-chain", "displaced-machine"])
    def test_overflowing_heat_exits_one(self, flags, displacement, tmp_path, capsys):
        # The swap chain hands 5e299 excitations to a mode at 2e10, and a
        # machine displaced by 1e200 gains |alpha|^2 = 1e400: Q and Sigma
        # overflow in round 1.  With warnings as errors, a numpy warning from
        # the heat would escape main.
        out = tmp_path / "trace.csv"
        argv = ["simulate-gaussian", *flags, "--rounds", "2", "--out", str(out)]
        if displacement is not None:
            rfile = _recharger_json(tmp_path, G.make_displacement(displacement))
            argv += ["--recharger-json", rfile]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: heat or entropy production is not finite in round 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    def test_rounds_below_one_exits_one(self, rounds, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["simulate-gaussian", "--rounds", rounds, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: rounds must be >= 1\n"
        assert not out.exists()

    def test_underflowing_gap_exits_one(self, capsys):
        flags = ["--beta", "1e-200", "--omega0", "1e-200", "--omegas", "2e-200", "--rounds", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate-gaussian", *flags]) == 1
        err = capsys.readouterr().err
        assert err == "error: beta*omega = 0 underflows the thermal occupation\n"

    def test_identity_flat(self, tmp_path):
        out = tmp_path / "id.csv"
        assert run([
            "simulate-gaussian", "--omegas", "2.0", "--recharger", "identity",
            "--rounds", "4", "--out", str(out),
        ]) == 0
        _, rows = tableio.read_table(out)
        nths = [r["nth"] for r in rows]
        assert max(nths) - min(nths) < 1e-12
        assert all(abs(r["Sigma"]) < 1e-10 for r in rows)

    def test_swap_chain_saturates_round_one(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert run(["simulate-gaussian", "--omegas", "1.5,2.5", "--rounds", "3", "--out", str(out)]) == 0
        _, rows = tableio.read_table(out)
        assert rows[0]["beta_eff"] == pytest.approx(2.5, rel=1e-10)
        assert rows[2]["nth"] == pytest.approx(rows[0]["nth"], rel=1e-12)

    def test_custom_recharger_round_trips_validation(self, tmp_path):
        theta = 0.4
        rfile = _beam_splitter_json(tmp_path, theta)
        out = tmp_path / "custom.csv"
        assert run([
            "simulate-gaussian", "--omegas", "2.0", "--recharger-json", rfile,
            "--rounds", "2", "--out", str(out),
        ]) == 0
        ref = tmp_path / "ref.csv"
        assert run([
            "simulate-gaussian", "--omegas", "2.0", "--recharger", "beam-splitter",
            "--theta", str(theta), "--rounds", "2", "--out", str(ref),
        ]) == 0
        _, rows_a = tableio.read_table(out)
        _, rows_b = tableio.read_table(ref)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["nth"] == pytest.approx(rb["nth"], rel=1e-12)

    def test_corrupted_recharger_rejected(self, tmp_path):
        payload = {
            "C": [[[1.0, 0.0], [0.001, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "S": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        rfile = tmp_path / "bad.json"
        rfile.write_text(json.dumps(payload))
        assert run([
            "simulate-gaussian", "--omegas", "2.0", "--recharger-json", str(rfile),
        ]) == 1

    # The text of a recharger file of each malformed shape: the first four
    # reached a traceback, the last three a line that named no file.
    MALFORMED = {
        "no-C": json.dumps({"S": [[[0.0, 0.0]]]}),
        "top-level-list": json.dumps([1, 2]),
        "d-a-number": json.dumps({"C": [[[1.0, 0.0]]], "S": [[[0.0, 0.0]]], "d": 5}),
        "number-for-pair": json.dumps({"C": [[1.0]], "S": [[[0.0, 0.0]]]}),
        "three-number-entry": json.dumps({"C": [[[1.0, 0.0, 3.0]]], "S": [[[0.0, 0.0]]]}),
        "ragged-matrix": json.dumps(
            {"C": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "S": [[[0.0, 0.0]]]}
        ),
        "empty-file": "",
    }

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_recharger_file_exits_two(self, text, tmp_path, capsys):
        rfile = tmp_path / "malformed.json"
        rfile.write_text(text)
        out = tmp_path / "trace.csv"
        argv = ["simulate-gaussian", "--omegas", "2.0", "--recharger-json", str(rfile)]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage/config error: recharger file {rfile}: expected C, S and d of [re, im] pairs\n"
        )
        assert not out.exists()

    # Recharger files of the right nesting, on a spec of two modes.  Files
    # whose C has one row are on the wrong number of modes, and the loader's
    # line is the same whatever their other blocks; two-mode files whose
    # blocks have the wrong sizes get the constructor's line.
    ONE_MODE = "acts on 1 modes but the machine spec needs 2"
    WRONG_SIZES = {
        "C-1x2": ({"C": [[[1.0, 0.0], [0.0, 0.0]]], "S": [[[0.0, 0.0]]]}, ONE_MODE),
        "S-2x2": ({"C": [[[1.0, 0.0]]], "S": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                  ONE_MODE),
        "d-of-2": ({"C": [[[1.0, 0.0]]], "S": [[[0.0, 0.0]]], "d": [[0.0, 0.0], [0.0, 0.0]]},
                   ONE_MODE),
        "one-mode": ({"C": [[[1.0, 0.0]]], "S": [[[0.0, 0.0]]]}, ONE_MODE),
        "C-2x3": ({"C": [[[1.0, 0.0]] * 3] * 2, "S": [[[0.0, 0.0]] * 2] * 2},
                  "C must be 2x2, got (2, 3)"),
        "S-3x3": ({"C": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                   "S": [[[0.0, 0.0]] * 3] * 3},
                  "S must be 2x2, got (3, 3)"),
        "d-of-3": ({"C": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                    "S": [[[0.0, 0.0]] * 2] * 2, "d": [[0.0, 0.0]] * 3},
                   "d_alpha must have length 2, got (3,)"),
    }

    @pytest.mark.parametrize("payload, line", WRONG_SIZES.values(), ids=WRONG_SIZES)
    def test_wrong_size_recharger_file_exits_two(self, payload, line, tmp_path, capsys):
        rfile = tmp_path / "wrong-size.json"
        rfile.write_text(json.dumps(payload))
        out = tmp_path / "trace.csv"
        argv = ["simulate-gaussian", "--omegas", "2.0", "--recharger-json", str(rfile)]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"usage/config error: recharger file {rfile}: {line}\n"
        assert not out.exists()


class TestSimulatePexchange:
    def test_iterate_short_run(self, tmp_path):
        out = tmp_path / "px.csv"
        assert run([
            "simulate-pexchange", "--p", "2", "--rounds", "40",
            "--record-every", "10", "--out", str(out),
        ]) == 0
        meta, rows = tableio.read_table(out)
        assert meta["assumption.chi_defaulted_to_1"] is True
        assert meta["asymptote_closed_form_p2"] == pytest.approx(0.5625, rel=1e-12)
        assert meta["asymptote_oracle_p2"] == pytest.approx(0.5625, rel=1e-6)
        assert meta["machine_tail_deficit_p2"] < 1e-8
        for row in rows:
            assert row["nbar_oracle"] == pytest.approx(row["nbar_closed_form"], abs=1e-5)

    def test_collision_mode_crossing_visible(self, tmp_path):
        out = tmp_path / "collision.csv"
        assert run([
            "simulate-pexchange", "--p", "2", "--mode", "collision",
            "--t-max", "0.3", "--t-points", "7", "--out", str(out),
        ]) == 0
        _, rows = tableio.read_table(out)
        nbars = [r["nbar_oracle"] for r in rows]
        assert nbars[0] == pytest.approx(2.0, abs=1e-6)
        assert min(nbars) < 1.5  # drops past the machine occupation

    def test_collision_mode_reports_machine_tail_deficit(self, tmp_path):
        # The machine's truncation deficit is the same in both modes: it
        # depends on nbar_m, the cutoff and the tail tolerance alone.
        metas = []
        for flags in (["--mode", "collision", "--t-points", "3"], ["--rounds", "3"]):
            out = tmp_path / f"{flags[-1]}.csv"
            assert run(["simulate-pexchange", "--p", "1,2", *flags, "--out", str(out)]) == 0
            metas.append(tableio.read_table(out)[0])
        for p in (1, 2):
            deficit = metas[0][f"machine_tail_deficit_p{p}"]
            assert 0 < deficit < 1e-8
            assert deficit == metas[1][f"machine_tail_deficit_p{p}"]


    @pytest.mark.parametrize("flags", [
        ["--p", "1,2,3", "--rounds", "40", "--record-every", "10"],
        ["--mode", "collision", "--t-points", "5"],
        ["--p", "1,2,3,4", "--rounds", "40", "--record-every", "10"],  # uneven shares
    ])
    def test_jobs_same_bytes(self, flags, tmp_path):
        outs = [tmp_path / f"{jobs}.csv" for jobs in (1, 2, 3)]
        for jobs, out in zip((1, 2, 3), outs):
            assert run(["simulate-pexchange", *flags, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--rounds", "30", "--record-every", "7"],
        ["--mode", "collision", "--t-points", "4"],
    ])
    def test_repeated_order_is_one_cell(self, flags, tmp_path):
        # --p 2,2,1 runs the p = 2 cell once: its body is that of --p 1,2.
        bodies = []
        for orders in ("2,2,1", "1,2"):
            out = tmp_path / f"{orders}.csv"
            assert run(["simulate-pexchange", "--p", orders, *flags, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            bodies.append([line for line in lines if not line.startswith("#")])
        assert bodies[0] == bodies[1] and len(bodies[0]) > 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("flags", [
        ["--rounds", "30", "--record-every", "7"],
        ["--mode", "collision", "--t-points", "4"],
    ])
    def test_rows_in_p_l_t_order(self, flags, jobs, tmp_path):
        out = tmp_path / "px.csv"
        argv = ["simulate-pexchange", "--p", "3,1,2", *flags, "--jobs", jobs, "--out", str(out)]
        assert run(argv) == 0
        _, rows = tableio.read_table(out)
        keys = [(r["p"], r["L"], r["t"]) for r in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert {key[0] for key in keys} == {1, 2, 3}

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    @pytest.mark.parametrize("orders, flags", [
        ("1,2,3", ["--rounds", "40", "--record-every", "7"]),
        ("1,2,3", ["--mode", "collision", "--t-points", "5"]),
        # p = 20 needs a larger cutoff (22 x 22) than p = 1 and 2 (16 x 16) here.
        ("1,2,20", ["--rounds", "30", "--record-every", "7", "--chi", "1e-9", "--nbar-s", "0.1",
                    "--nbar-m", "0.05"]),
    ])
    def test_stack_equals_one_order_runs(self, orders, flags, jobs, tmp_path):
        # A run over several orders gives each order's rows and ``*_p{p}`` header
        # entries exactly as a run of that order alone.
        def run_lines(p_list, jobs):
            out = tmp_path / f"{p_list}-{jobs}.csv"
            argv = ["simulate-pexchange", "--p", p_list, *flags, "--jobs", jobs, "--out", str(out)]
            assert run(argv) == 0
            lines = out.read_text().splitlines()
            body = [line for line in lines if not line.startswith("#")]
            return body[0], body[1:], [line for line in lines if re.match(r"# \w+_p\d+ = ", line)]

        field_line, rows, cell_meta = run_lines(orders, jobs)
        singles = [run_lines(p, "1") for p in orders.split(",")]
        assert all(single[0] == field_line for single in singles)
        assert rows == [row for single in singles for row in single[1]]
        assert sorted(cell_meta) == sorted(line for single in singles for line in single[2])
        assert cell_meta

    def test_failed_sector_solve_exits_one(self, monkeypatch, tmp_path, capsys):
        def failing_dstevd(d, e):
            return d, np.eye(d.shape[0]), 3

        monkeypatch.setattr(flapack(), "dstevd", failing_dstevd)
        out = tmp_path / "px.csv"
        assert run(["simulate-pexchange", "--p", "1", "--rounds", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: dstevd failed on sector K=1 (info 3)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--rounds", "30", "--record-every", "7"],
                                       ["--rounds", "30", "--jobs", "2"]])
    def test_undetermined_stationary_state_exits_one(self, flags, tmp_path, capsys):
        # At chi = 1e-20 and p = 2, dstevd deflates the coupling against the O(1)
        # shifted sector diagonal, so T_0 has no rate above level 1 and fixes
        # every state there: the asymptote is refused (p = 1 alone is certified).
        # The exit 1 rests on that numerical limit, not on the channel, whose
        # fixed point is the truncated Gibbs state.  If the limit is mended, build
        # this refusal from a designed case such as --t 0 instead
        # (test_zero_duration_exits_one).
        out = tmp_path / "px.csv"
        argv = ["simulate-pexchange", "--p", "1,2,30", "--chi", "1e-20", "--nbar-s", "0.5",
                "--nbar-m", "0.5", *flags, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stationary state not certified: residual nan")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("chi", ["1e-14", "1e-20"])
    def test_resonant_small_coupling_asymptote(self, chi, tmp_path):
        # omega0 = omega1 at p = 1: the rates are O((chi t)^2) and keep their
        # digits, so the asymptote is the truncated Gibbs mean of the system cutoff.
        out = tmp_path / "px.csv"
        argv = ["simulate-pexchange", "--p", "1", "--chi", chi, "--nbar-s", "0.5",
                "--nbar-m", "0.5", "--rounds", "3", "--out", str(out)]
        assert run(argv) == 0
        meta, _ = tableio.read_table(out)
        assert meta["cutoff_p1"] == "26x26"
        w = (1.0 / 3.0) ** np.arange(26)
        assert meta["asymptote_oracle_p1"] == pytest.approx(w @ np.arange(26) / w.sum(), rel=1e-13)

    def test_zero_duration_exits_one(self, capsys):
        # At t = 0 every sector block is exactly the identity: no stationary
        # state is singled out, refused before the closed form's asymptote.
        assert run(["simulate-pexchange", "--t", "0", "--rounds", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: stationary state not certified")

    def test_cancelled_closed_form_exits_one(self, monkeypatch, capsys):
        # (1 + 1e17) - 1e17 rounds to 0: the closed form's contraction
        # coefficient cancels, refused before any Fock work.
        def unreachable(*args, **kwargs):
            raise AssertionError("Fock work ran before the closed-form parameters were checked")

        monkeypatch.setattr(F, "build_hamiltonian", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate-pexchange", "--p", "1", "--nbar-m", "1e17", "--rounds", "3"]) == 1
        assert capsys.readouterr().err == (
            "error: a = 0: (1+nbar_M)^p - nbar_M^p cancels at nbar_M=1e+17\n"
        )

    def test_asymptote_oracle_on_short_and_cold_runs(self, tmp_path):
        # Short durations, a tiny coupling over two cutoffs and a cold machine:
        # T_0's spectral gap or its up rates are tiny, and the oracle's
        # asymptote still matches the closed form's.
        for flags in (["--p", "1,2", "--t", "1e-7"],
                      ["--p", "1,2,20", "--chi", "1e-9", "--nbar-s", "0.1", "--nbar-m", "0.05"],
                      ["--nbar-m", "1e-30"]):
            out = tmp_path / "px.csv"
            assert run(["simulate-pexchange", *flags, "--rounds", "3", "--out", str(out)]) == 0
            meta, _ = tableio.read_table(out)
            ps = [int(key.rsplit("_p", 1)[1]) for key in meta if key.startswith("asymptote_oracle")]
            assert ps
            for p in ps:
                assert meta[f"asymptote_oracle_p{p}"] == pytest.approx(
                    meta[f"asymptote_closed_form_p{p}"], rel=1e-12
                )

    def test_cells_built_one_at_a_time(self, tmp_path):
        # Hot benchmark point (cutoff 152 x 97): a cell holds its Hamiltonian's
        # tridiagonal runs and one sector decomposition at a time, about 1.4 MB at
        # p = 1, so three cells built one after another peak less than 1 MB above one.
        # --jobs 1 builds all three in the traced process.
        argv = ["simulate-pexchange", "--nbar-s", "5", "--nbar-m", "3", "--rounds", "10",
                "--jobs", "1"]
        assert run(argv + ["--out", str(tmp_path / "warm-up.csv")]) == 0  # loads LAPACK
        peaks = []
        for orders in ("1", "1,2,3"):
            tracemalloc.start()
            try:
                assert run(argv + ["--p", orders, "--out", str(tmp_path / f"{orders}.csv")]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 1e6

    def test_empty_p_exits_one(self, tmp_path, capsys):
        out = tmp_path / "px.csv"
        assert run(["simulate-pexchange", "--p=", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: p must list at least one interaction order\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--nbar-s", "--nbar-m", "--beta"])
    def test_zero_input_exits_one(self, flag, capsys):
        assert run(["simulate-pexchange", flag, "0", "--rounds", "5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--chi", "nan"],
            ["--t", "nan"],
            ["--nbar-s", "inf"],
            ["--beta", "inf"],
            ["--mode", "collision", "--t-max", "nan"],
        ],
    )
    def test_nonfinite_input_exits_one(self, flags, capsys):
        assert run(["simulate-pexchange", "--p", "1", "--rounds", "5", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err

    def test_overflowing_frequency_exits_one(self, capsys):
        # omega = ln(1 + 1/nbar) / beta overflows to inf: a domain error, with
        # no numpy warning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate-pexchange", "--beta", "1e-320", "--rounds", "5"]) == 1
        err = capsys.readouterr().err
        assert err == "error: Hamiltonian array must not contain infs or NaNs\n"

    @pytest.mark.parametrize("value", ["0", "-1", "1", "2", "nan"])
    def test_tail_tol_outside_unit_interval_exits_one(self, value, capsys):
        assert run(["simulate-pexchange", "--p", "1", "--rounds", "5", "--tail-tol", value]) == 1
        assert capsys.readouterr().err.startswith("error: tail_tol must lie in (0, 1)")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_record_every_below_one_exits_one(self, tmp_path, value, capsys):
        argv = ["simulate-pexchange", "--p", "1", "--rounds", "5"]
        assert run(argv + ["--record-every", value]) == 1
        assert capsys.readouterr().err.startswith("error:")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 1\nrounds = 5\nrecord_every = {value}\n")
        assert run(["simulate-pexchange", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_t_points_below_one_exits_one(self, tmp_path, value, capsys):
        out = tmp_path / "px.csv"
        argv = ["simulate-pexchange", "--mode", "collision", "--out", str(out)]
        assert run(argv + ["--t-points", value]) == 1
        assert capsys.readouterr().err == "error: t_points must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t", "1e300"],
            ["--chi", "1e200"],
            ["--t", "-1"],
            ["--mode", "collision", "--t-max", "1e300"],
            ["--mode", "collision", "--t-max", "-1"],
        ],
    )
    def test_bad_duration_or_coupling_fails_before_fock_work(self, flags, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("Fock work ran before the closed-form parameters were checked")

        monkeypatch.setattr(F, "build_hamiltonian", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate-pexchange", "--rounds", "3", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "flags",
        [
            ["--nbar-s", "1e6"],
            ["--nbar-m", "1e6"],
            ["--mode", "collision", "--nbar-s", "1e6"],
            ["--nbar-s", "1e308"],
        ],
    )
    def test_hot_occupation_refused_before_fock_work(self, flags, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("sectors were built for a cutoff above the limit")

        monkeypatch.setattr(F, "build_hamiltonian", unreachable)
        assert run(["simulate-pexchange", "--rounds", "3", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "joint dimension limit" in err or "overflows a float" in err

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_rounds_below_one_fails_before_fock_work(self, rounds, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("Fock work ran before the round count was checked")

        monkeypatch.setattr(F, "build_hamiltonian", unreachable)
        assert run(["simulate-pexchange", "--rounds", rounds, "--out", os.devnull]) == 1
        assert capsys.readouterr().err == "error: rounds must be >= 1\n"

    def test_collision_mode_builds_no_density(self, monkeypatch, tmp_path):
        # Its Gibbs start is a population vector; no density matrix is built or checked.
        def unreachable(*args, **kwargs):
            raise AssertionError("a FockDensity was built")

        monkeypatch.setattr(F.FockDensity, "__post_init__", unreachable)
        monkeypatch.setattr(F, "_density", unreachable)
        argv = ["simulate-pexchange", "--p", "1,2,3", "--mode", "collision", "--t-points", "5"]
        assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("nbar_s, nbar_m, tail_tol, ps", [
        (2.0, 1.5, 1e-12, (1, 2, 3)),
        (5.0, 3.0, 1e-12, (1, 2, 3)),
        (2.5, 1.2, 1e-11, (1, 2)),
        (0.5, 0.5, 1e-12, (1, 2, 30)),
        (0.1, 0.05, 1e-12, (1, 2, 20)),
    ])
    def test_gibbs_start_is_the_density_diagonal(self, nbar_s, nbar_m, tail_tol, ps):
        # The start both modes step from has the bits of the Gibbs density's
        # populations on each order's cutoff, as the command builds it.
        for p in ps:
            cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=tail_tol)
            start, _ = F.gibbs_probabilities(nbar_s, cut.d_s, tail_tol * 10)
            rho = F.FockDensity.gibbs(nbar_s, cut.d_s, tail_tol=tail_tol * 10)
            assert start.dtype == rho.populations.dtype
            assert start.tobytes() == rho.populations.tobytes()


class TestJobsOnlyWhereItForks:
    """``--jobs`` is a flag of simulate-pexchange alone; a config file's ``jobs``
    key, which only simulate-pexchange reads, leaves every other command as it is."""

    ARGV = {
        "limit": ["limit", "--omegas", "1.5,2.5"],
        "optimize-spectrum": ["optimize-spectrum", "--lambdas", "1.5,3.0", "--modes", "1,2"],
        "simulate-gaussian": ["simulate-gaussian", "--omegas", "1.5,2.5", "--rounds", "3"],
        "property-suite": ["property-suite", "--trials", "20"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_jobs_flag_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(self.ARGV[command] + ["--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_config_jobs_key_changes_nothing(self, command, tmp_path):
        a, b = tmp_path / "plain.csv", tmp_path / "config.csv"
        assert run(self.ARGV[command] + ["--out", str(a)]) == 0
        assert run(self.ARGV[command] + [*_jobs_config(tmp_path, 2), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Each numeric row of cli.PARAMS (and COMMON) is walked over these values,
# one row at a time; list rows also take the empty list, a lone comma, a
# repeated and an unsorted pair.
WALK_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "700", "1e-12")
WALK_LIST_VALUES = ("", ",", "2,2", "3,1")
# Tiny sizes for each command; the walked row's flag comes last, so it wins.
# At --p 1, simulate-pexchange has one part and forks nothing.
WALK_BASE = {
    "limit": [],
    "optimize-spectrum": ["--lambda-count", "3"],
    "simulate-gaussian": ["--rounds", "3"],
    "simulate-pexchange": ["--p", "1", "--jobs", "1", "--rounds", "5", "--t-points", "3"],
    "property-suite": ["--trials", "3"],
}
LIST_KINDS = (cli._int_list, cli._float_list)


def _walk():
    """(argv, kind, value) for each numeric row of each command and each walked value."""
    for command, rows in cli.PARAMS.items():
        for key, kind, *_ in rows + cli.COMMON:
            if kind not in (int, float, *LIST_KINDS):
                continue
            base = list(WALK_BASE[command])
            if key == "theta":
                base += ["--recharger", "beam-splitter"]
            if key in ("t_max", "t_points"):
                base += ["--mode", "collision"]
            values = WALK_VALUES + (WALK_LIST_VALUES if kind in LIST_KINDS else ())
            for value in values:
                yield [command, *base, f"--{key.replace('_', '-')}={value}"], kind, value


def _parses(kind, value) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


class TestExitCodeContract:
    """Every numeric parameter, one at a time, at the edges of its domain:
    no exception or warning leaves ``main``, exit 2 means the text does not
    parse as the row's kind, and exit 1 prints exactly one ``error:`` line.
    ``optimize-spectrum`` reports a failed cell as a table row instead: its
    exit 1 may write the table, with an ``error`` cell, and print none."""

    def test_every_numeric_row(self, tmp_path, capsys):
        out, broken, runs = tmp_path / "out.csv", [], 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv, kind, value in _walk():
                runs += 1
                out.unlink(missing_ok=True)
                try:
                    code = run([*argv, "--out", str(out)])
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
                err = capsys.readouterr().err
                errors = sum(line.startswith("error:") for line in err.splitlines())
                if code == 1 and errors == 0 and argv[0] == "optimize-spectrum":
                    errors = any(row["error"] for row in tableio.read_table(out)[1])
                if (code == 2) == _parses(kind, value) or errors != (code == 1):
                    broken.append((argv, code, err))
        assert runs > 300
        assert not broken, broken


def _two_mode_file(c00, s="[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]", extra="") -> str:
    """The text of a two-mode recharger file: C = diag(c00, 1), S and more keys as JSON text."""
    return f'{{"C": [[[{c00}, 0], [0, 0]], [[0, 0], [1, 0]]], "S": {s}{extra}}}'


# Recharger files for a spec of one machine mode (two modes in all), by
# shape: the text and the exit code (2 for a malformed file, 1 for a
# well-formed file whose matrix is not a Gaussian unitary, 0 for the
# identity).
RECHARGER_FILES = {
    "identity": (_two_mode_file(1), 0),
    "empty": ("", 2),
    "not-json": ("{C: 1}", 2),
    "top-level-list": ("[1, 2]", 2),
    "no-C": ('{"S": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}', 2),
    "no-S": ('{"C": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}', 2),
    "C-one-level-too-shallow": ('{"C": [[1, 0], [0, 1]], "S": [[[0, 0]]]}', 2),
    "C-one-level-too-deep": (_two_mode_file("[1, 0]"), 2),
    "d-a-matrix": (_two_mode_file(1, extra=', "d": [[[0, 0]], [[0, 0]]]'), 2),
    "d-a-number": (_two_mode_file(1, extra=', "d": 5'), 2),
    "three-element-entry": (_two_mode_file("1, 0"), 2),
    "one-element-entry": ('{"C": [[[1], [0, 0]], [[0, 0], [1, 0]]], "S": [[[0, 0]]]}', 2),
    "string-entry": (_two_mode_file('"1"'), 2),
    "string-pair": ('{"C": [["10", [0, 0]], [[0, 0], [1, 0]]], "S": [[[0, 0]]]}', 2),
    "boolean-true": (_two_mode_file("true"), 2),
    "boolean-in-S": (_two_mode_file(1, s="[[[false, 0], [0, 0]], [[0, 0], [0, 0]]]"), 2),
    "boolean-in-d": (_two_mode_file(1, extra=', "d": [[0, true], [0, 0]]'), 2),
    "null-entry": (_two_mode_file("null"), 2),
    "NaN": (_two_mode_file("NaN"), 2),
    "Infinity": (_two_mode_file("Infinity"), 2),
    "-Infinity-in-d": (_two_mode_file(1, extra=', "d": [[-Infinity, 0], [0, 0]]'), 2),
    "1e400": (_two_mode_file("1e400"), 2),
    "10**400": (_two_mode_file(10**400), 2),
    "one-mode": ('{"C": [[[1, 0]]], "S": [[[0, 0]]]}', 2),
    "three-modes": (json.dumps({"C": np.dstack([np.eye(3), np.zeros((3, 3))]).tolist(),
                                "S": np.zeros((3, 3, 2)).tolist()}), 2),
    "C-and-S-of-two-sizes": ('{"C": [[[1, 0]]], "S": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}', 2),
    "not-unitary": (_two_mode_file(1.001), 1),
    "squeezer-r400": (
        _two_mode_file(repr(math.cosh(400.0)),
                       s=f"[[[{math.sinh(400.0)!r}, 0], [0, 0]], [[0, 0], [0, 0]]]"),
        1,
    ),
}

# The same files on a spec of two machine modes (three modes in all), by id:
# a file on the wrong number of modes is malformed, whatever its matrix.
RECHARGER_FILE_CASES = [(text, code, "2.0") for text, code in RECHARGER_FILES.values()] + [
    (RECHARGER_FILES[name][0], 2, "1.5,2.5") for name in ("not-unitary", "squeezer-r400")
]
RECHARGER_FILE_IDS = [*RECHARGER_FILES, "not-unitary-on-three-modes",
                      "squeezer-r400-on-three-modes"]


class TestRechargerFileContract:
    """Every recharger file shape, in process with warnings as errors: a
    malformed file exits 2 with one ``usage/config error: recharger file``
    line, a well-formed file whose matrix is not a Gaussian unitary exits 1
    with one ``error:`` line and writes no table, and nothing escapes
    ``main``."""

    @pytest.mark.parametrize("text, code, omegas", RECHARGER_FILE_CASES, ids=RECHARGER_FILE_IDS)
    def test_shape(self, text, code, omegas, tmp_path, capsys):
        rfile, out = tmp_path / "recharger.json", tmp_path / "trace.csv"
        rfile.write_text(text)
        argv = ["simulate-gaussian", "--omegas", omegas, "--rounds", "2",
                "--recharger-json", str(rfile), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and out.exists()
            return
        prefix = f"usage/config error: recharger file {rfile}: " if code == 2 else "error: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert not out.exists()


class TestPropertySuiteCommand:
    def test_report_and_exit_zero(self, tmp_path):
        out = tmp_path / "suite.csv"
        assert run(["property-suite", "--trials", "150", "--out", str(out)]) == 0
        _, rows = tableio.read_table(out)
        names = {r["suite"] for r in rows}
        assert "min-thermal-excitation" in names
        assert "failure-injection" in names
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_one(self, tmp_path, trials, capsys):
        out = tmp_path / "suite.csv"
        assert run(["property-suite", "--trials", trials, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_seed_exits_one_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "suite.csv"
        assert run(["property-suite", "--trials", "5", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["property-suite", "--trials", "120"],
            ["optimize-spectrum", "--lambdas", "1.5,5.0", "--modes", "1,2"],
            ["simulate-pexchange", "--p", "1,2", "--rounds", "25", "--record-every", "5"],
            ["simulate-gaussian", "--omegas", "1.5,2.5", "--rounds", "4"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert run(argv + ["--seed", "42", "--out", str(a)]) == 0
        assert run(argv + ["--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


NAN = object()  # stands for every NaN, so that NaN cells compare equal


def _nan_equal(values: dict) -> dict:
    return {k: NAN if isinstance(v, float) and math.isnan(v) else v for k, v in values.items()}


class TestFormatsAgree:
    @pytest.mark.parametrize("argv, code", [
        (["limit", "--omegas", "1.5,2.5"], 0),
        # (68, 1012.27) is an error row at the largest N: its g_j and
        # sigma_analytic_sampled cells are empty.
        (["optimize-spectrum", "--n0", "1", "--lambdas", "1012.27,4", "--modes", "2,68",
          "--analytic-compare"], 1),
        (["simulate-gaussian", "--omegas", "1.5,2.5", "--rounds", "3"], 0),
        (["simulate-pexchange", "--p", "1,2", "--rounds", "20", "--record-every", "5"], 0),
        (["simulate-pexchange", "--mode", "collision", "--t-max", "2", "--t-points", "3"], 0),
        (["property-suite", "--trials", "20"], 0),
    ])
    def test_csv_and_json_read_back_alike(self, tmp_path, argv, code):
        tables = []
        for fmt in ("csv", "json"):
            out = tmp_path / f"table.{fmt}"
            assert run(argv + ["--format", fmt, "--out", str(out)]) == code
            meta, rows = tableio.read_table(out)
            tables.append((_nan_equal(meta), [_nan_equal(row) for row in rows]))
        assert tables[0] == tables[1]
        assert tables[0][1]


# Every parameter of each command, as config-file text; True marks a switch.
CONFIG_CASES = {
    "limit": {"beta": "0.8", "omega0": "1.1", "omegas": "1.5,2.5", "seed": "7"},
    "optimize-spectrum": {
        "n0": "5", "modes": "1,2", "lambdas": "1.5,3.0", "lambda_min": "1.2",
        "lambda_max": "4", "lambda_count": "3", "analytic_compare": True,
        "seed": "3",
    },
    "simulate-gaussian": {
        "beta": "1.2", "omega0": "0.9", "omegas": "2.0", "rounds": "3",
        "recharger": "identity", "theta": "0.3", "recharger_json": None,
        "seed": "1",
    },
    "simulate-pexchange": {
        "p": "1,2", "chi": "0.9", "t": "0.01", "nbar_s": "2.5", "nbar_m": "1.2",
        "beta": "1.5", "rounds": "20", "record_every": "5", "mode": "collision",
        "t_max": "0.2", "t_points": "3", "tail_tol": "1e-11", "seed": "2", "jobs": "1",
    },
    "property-suite": {"trials": "20", "seed": "5"},
}


class TestConfigMatchesFlags:
    @pytest.mark.parametrize("command", sorted(CONFIG_CASES))
    def test_config_file_equals_flags(self, tmp_path, command):
        values = dict(CONFIG_CASES[command])
        table = cli.PARAMS[command] + cli.COMMON
        assert set(values) == {key for key, *_ in table}
        if "recharger_json" in values:
            values["recharger_json"] = _beam_splitter_json(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            f"{key} = {'true' if value is True else value}\n" for key, value in values.items()
        ))
        flags = []
        for key, value in values.items():
            flags.append("--" + key.replace("_", "-"))
            if value is not True:
                flags.append(value)
        a, b = tmp_path / "config.csv", tmp_path / "flags.csv"
        assert run([command, "--config", str(cfg), "--out", str(a)]) == 0
        assert run([command, *flags, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "command, line",
        [
            ("simulate-gaussian", "recharger = bogus"),
            ("simulate-pexchange", "mode = bogus"),
            ("optimize-spectrum", "analytic_compare = ture"),
            ("limit", "omgeas = 3"),
            ("limit", "out = table.csv"),
        ],
    )
    def test_out_of_choice_config_value_exits_two(self, tmp_path, command, line, capsys):
        # A bad choice, a misspelt switch and a key that no command has all
        # exit 2, naming the key.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage/config error:") and repr(line.split(" = ")[0]) in err

    @pytest.mark.parametrize("value, on", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_switch_spellings(self, tmp_path, value, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"analytic_compare = {value}\nlambdas = 4\nmodes = 1\n")
        out = tmp_path / "cell.csv"
        assert run(["optimize-spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = tableio.read_table(out)
        assert meta["config.analytic_compare"] is on
        assert ("sigma_analytic_sampled" in rows[0]) is on

    def test_key_of_another_command_is_ignored(self, tmp_path):
        # One config file can serve several commands.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omegas = 3.0\nrounds = 2\nlambdas = 4\n")
        out = tmp_path / "limit.csv"
        assert run(["limit", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = tableio.read_table(out)
        assert rows[0]["lambda"] == pytest.approx(3.0) and "config.rounds" not in meta

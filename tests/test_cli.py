import concurrent.futures
import enum
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosecool import cli, tableio
from bosecool import gaussian as G
from bosecool._lapack import flapack


def run(argv):
    return cli.main(argv)


def _beam_splitter_json(tmp_path, theta=0.4):
    """A two-mode beam-splitter recharger as a JSON file of [re, im] pairs."""
    u = G.make_beam_splitter(0, 1, 2, theta)
    rfile = tmp_path / "recharger.json"
    rfile.write_text(json.dumps({
        "C": [[[z.real, z.imag] for z in row] for row in u.C],
        "S": [[[z.real, z.imag] for z in row] for row in u.S],
    }))
    return str(rfile)


# The names of a wide, sparse table like the spectrum ladder's: 1030 columns,
# every seventh name holding a comma and quotes.
WIDE = [f'g,"{k}"' if k % 7 == 0 else f"g_{k}" for k in range(1030)]


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

    @pytest.mark.parametrize("budget", [1, 3, 7, tableio.CSV_CHUNK_CELLS])
    @pytest.mark.parametrize(
        "fieldnames", [["num", "text", "mixed", "sparse", ""], ["only"], [""], WIDE]
    )
    def test_csv_body_matches_csv_writer(self, fieldnames, budget, monkeypatch):
        # Columns are formatted at once (floats by repr, ints, bools and
        # empty cells joined directly), over chunks of about ``budget``
        # cells; the bytes are csv.writer's over _format_value, including
        # its quoting and the lone empty field, in the header too.
        monkeypatch.setattr(tableio, "CSV_CHUNK_CELLS", budget)
        import csv
        import io

        texts = ["a,b", 'say "hi"', "cr\r\nlf", "cr\ronly", "lf\nonly", "", " lead", "trail ",
                 "ünïcødé €", '"', ",", "plain"]
        odd = [math.nan, math.inf, -math.inf, -0.0, 7, True, None, np.float64(2.5), np.int64(-3),
               np.bool_(False), np.float32(0.1), [1, 2], "x,y"]
        columns = {
            "num": [0.1 * k for k in range(12)] + [math.nan],
            "text": texts + [None],
            "mixed": odd,
            "sparse": [1e-300, None, math.inf, None, -2.0, None, None, 5e-324, None, 1.0, None,
                       None, None],
            "": [True, False] * 6 + [None],
            "only": texts + [None],
        }
        # Four rows; column k holds k % 5 leading cells, the rest empty.
        columns.update(
            (name, [0.25 * k if i < k % 5 else None for i in range(4)])
            for k, name in enumerate(WIDE)
        )
        table = {name: columns[name] for name in fieldnames}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(fieldnames)
        for row in zip(*table.values()):
            writer.writerow(["" if v is None else tableio._format_value(v) for v in row])
        assert tableio.render_csv(table, {}) == buf.getvalue()

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
        # The system occupation 1/expm1(1e-308) overflows the moment matrix.
        # Warnings are errors here, so a numpy RuntimeWarning would escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["limit", "--omegas", "1e308", "--beta", "1e-308"]) == 1
        assert capsys.readouterr().err == "error: moments are not finite (overflow)\n"

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
        # Every size is one sweep (one ragged Newton stack), in process.
        calls, sweep = [], cli.spectrum.sweep_sigma_vs_lambda

        def recording_sweep(n0, lambdas, ns, compare=False):
            calls.append(sorted(ns))
            return sweep(n0, lambdas, ns, compare)

        def unreachable(*args, **kwargs):
            raise AssertionError("optimize-spectrum reached the worker pool")

        monkeypatch.setattr(cli.spectrum, "sweep_sigma_vs_lambda", recording_sweep)
        monkeypatch.setattr(cli, "_pmap", unreachable)
        out = tmp_path / "sweep.csv"
        assert run(["optimize-spectrum", "--lambdas", "3,1.5", "--modes", "2,8,1,2",
                    "--jobs", str(jobs), "--out", str(out)]) == 0
        assert calls == [[1, 2, 2, 8]]

    def test_gap_beyond_float_range_exits_one(self, capsys):
        # n0 = 10, lambda = 1e4: gN = 953 > ln(float max), where nbar_N underflows.
        assert run(["optimize-spectrum", "--lambdas", "10000", "--modes", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: gN = 953.102 above ln(float max)")

    def test_jobs_parallel_same_result(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["optimize-spectrum", "--lambdas", "1.5,3.0", "--modes", "1,2"]
        assert run(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert run(args + ["--jobs", "2", "--out", str(b)]) == 0
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
            assert run(args + ["--jobs", str(jobs), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        _, rows = tableio.read_table(outs[0])
        assert [(r["N"], r["lambda"]) for r in rows] == sorted(
            (n, lam) for n in (1, 2, 2, 4) for lam in (1.5, 3.0, 3.0)
        )


class TestStartup:
    """Commands that never call scipy do not import it, commands that call only
    LAPACK load its compiled module and not the ``scipy.linalg`` package, and no
    command without workers imports the worker pool."""

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (f"import os, sys; from bosecool import cli; cli.main([{argv}, '--out', os.devnull]);"
                 " print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "['scipy.linalg._flapack']\n"

    @pytest.mark.parametrize("code", [
        "import bosecool.cli",
        "from bosecool import cli; cli.main(['limit', '--out', os.devnull])",
        "from bosecool import cli; cli.main(['simulate-gaussian', '--rounds', '3', '--out', os.devnull])",
        "from bosecool import cli; cli.main(['optimize-spectrum', '--jobs', '3', '--lambda-count', '3',"
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
    """``--jobs`` starts a pool only for simulate-pexchange, one worker per p cell at most."""

    @staticmethod
    def _in_process_pool(monkeypatch) -> list:
        """Replace the worker pool by one that runs its parts in process, so nothing
        forks; returns the list of worker counts that the pools were started with."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return started

    @pytest.mark.parametrize("argv, pools", [
        (["simulate-pexchange", "--p", "1,2", "--rounds", "3", "--jobs", "8"], [2]),
        (["simulate-pexchange", "--p", "2", "--rounds", "3", "--jobs", "4"], []),
        (["optimize-spectrum", "--lambda-count", "3", "--jobs", "5"], []),
        (["simulate-pexchange", "--p", "1,2,3,4", "--rounds", "3", "--jobs", "3"], [3]),
    ])
    def test_worker_count(self, argv, pools, monkeypatch, tmp_path):
        started = self._in_process_pool(monkeypatch)
        assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert started == pools

    @pytest.mark.parametrize("argv, stacks", [
        (["--p", "3,1,2", "--jobs", "1"], [[1, 2, 3]]),
        (["--p", "1,2,3", "--jobs", "2"], [[1], [2, 3]]),
        (["--p", "1,2,3,4", "--jobs", "3"], [[1], [2], [3, 4]]),
        (["--p", "1,2,3", "--jobs", "0"], [[1, 2, 3]]),
        # At these occupations p = 20 needs a larger cutoff (22 x 22) than p = 1
        # and 2 (16 x 16).
        (["--p", "1,2,20", "--chi", "1e-9", "--nbar-s", "0.1", "--nbar-m", "0.05"],
         [[1, 2], [20]]),
    ])
    def test_one_stack_per_worker_and_cutoff(self, argv, stacks, monkeypatch, tmp_path):
        # Each worker steps a contiguous share of the sorted orders, the longer
        # shares last (low orders have the largest sectors); within a share, the
        # cells of one cutoff are one stack.
        self._in_process_pool(monkeypatch)
        steps, step = [], cli.F.step_populations

        def recording_step(tmats, states, rounds, record_every=1):
            steps.append(len(tmats))
            return step(tmats, states, rounds, record_every)

        monkeypatch.setattr(cli.F, "step_populations", recording_step)
        argv = ["simulate-pexchange", "--rounds", "5", *argv, "--out", str(tmp_path / "out.csv")]
        assert run(argv) == 0
        assert steps == [len(stack) for stack in stacks]
        cutoffs = tableio.read_table(tmp_path / "out.csv")[0]
        assert len({cutoffs[f"cutoff_p{p}"] for p in stacks[-1]}) == 1


class TestSimulateGaussian:
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

        monkeypatch.setattr(cli.F, "build_hamiltonian", unreachable)
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
        argv = ["simulate-pexchange", "--nbar-s", "5", "--nbar-m", "3", "--rounds", "10"]
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

        monkeypatch.setattr(cli.F, "build_hamiltonian", unreachable)
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

        monkeypatch.setattr(cli.F, "build_hamiltonian", unreachable)
        assert run(["simulate-pexchange", "--rounds", "3", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "joint dimension limit" in err or "overflows a float" in err


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
    "limit": {"beta": "0.8", "omega0": "1.1", "omegas": "1.5,2.5", "seed": "7", "jobs": "1"},
    "optimize-spectrum": {
        "n0": "5", "modes": "1,2", "lambdas": "1.5,3.0", "lambda_min": "1.2",
        "lambda_max": "4", "lambda_count": "3", "analytic_compare": True,
        "seed": "3", "jobs": "1",
    },
    "simulate-gaussian": {
        "beta": "1.2", "omega0": "0.9", "omegas": "2.0", "rounds": "3",
        "recharger": "identity", "theta": "0.3", "recharger_json": None,
        "seed": "1", "jobs": "1",
    },
    "simulate-pexchange": {
        "p": "1,2", "chi": "0.9", "t": "0.01", "nbar_s": "2.5", "nbar_m": "1.2",
        "beta": "1.5", "rounds": "20", "record_every": "5", "mode": "collision",
        "t_max": "0.2", "t_points": "3", "tail_tol": "1e-11", "seed": "2", "jobs": "1",
    },
    "property-suite": {"trials": "20", "seed": "5", "jobs": "1"},
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

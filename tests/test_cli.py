import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from wtrv import cli
from wtrv import fit as fit_mod
from wtrv import gof as gof_mod
from wtrv.cli import main
from wtrv.data import read_csv
from wtrv.distributions import _BUILDERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def csv_path(tmp_path):
    rng = np.random.default_rng(17)
    draws = 300.0 + 900.0 * rng.beta(2.0, 3.0, size=60)
    lines = ["year,rainfall_mm"]
    lines += [f"{2000 + i},{v:.3f}" for i, v in enumerate(draws)]
    path = tmp_path / "demo.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestConstruct:
    def test_csv_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "construct", "--dist", "exponential(lambda=1)",
            "--weight", "power(c=2)", "--format", "csv")
        assert code == 0 and err == ""
        header, *rows = out.strip().splitlines()
        assert header.split(",") == ["x", "pdf", "cdf"]
        # the construction is gamma(2,1): density x e^{-x}
        for row in rows[::50]:
            x, pdf, _ = map(float, row.split(","))
            assert pdf == pytest.approx(x * np.exp(-x), abs=1e-6)


def recursive_jsonable(obj):
    """The element-by-element encoding that cli._jsonable shortcuts for
    arrays without NaN or inf."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: recursive_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [recursive_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return recursive_jsonable(obj.item())
    if isinstance(obj, dict):
        return {str(k): recursive_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [recursive_jsonable(v) for v in obj]
    if isinstance(obj, float) and (obj != obj):
        return None
    return obj


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestJsonEncoding:
    def test_construct_json_matches_recursive_encoding(self, capsys, monkeypatch):
        emitted = []
        real = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json",
                            lambda obj, out: (emitted.append(obj), real(obj, out)))
        code, out, _ = run_cli(capsys, "construct", "--dist", "gamma(k=2,lambda=1.5)",
                               "--weight", "power(c=1.5)", "--format", "json")
        assert code == 0 and len(emitted) == 1
        assert out == dumps(recursive_jsonable(emitted[0]))

    @pytest.mark.parametrize("arr", [
        np.array([0.1, np.nan, np.inf, -np.inf, 2.5]),
        np.linspace(0.0, 1.0, 7),
        np.arange(5),
        np.array([True, False]),
        np.arange(6.0).reshape(2, 3),
    ], ids=["nonfinite", "float", "int", "bool", "2d"])
    def test_arrays_match_recursive_encoding(self, arr):
        assert dumps(cli._jsonable({"v": arr})) == dumps(recursive_jsonable({"v": arr}))
        if not np.isfinite(arr.astype(float)).all():
            assert json.loads(dumps(cli._jsonable(arr)))[1] is None

    # _emit_json lays out dicts and lists itself so that json's C encoder
    # runs; its bytes must stay those of json.dumps(sort_keys=True, indent=2)
    @pytest.mark.parametrize("obj", [
        {"nan": np.array([np.nan, 1.0]), "inf": [np.inf, -np.inf, float("nan")],
         "empty": [], "nested": [[], [[1, 2.5]], {"k": [], "j": {}}, [None, True, "x"]],
         "text": "Ωmega ☃ \"quoted\"\n", "ü": {}, "ints": np.arange(3)},
        [], {}, [[]], [{}], [[], []], 3.0, -np.inf, "é", None, np.float64("nan"),
        {"b": 1, "a": 2.5, "c": None, "d": True, "é": "x", "f": -np.inf, "g": np.int64(3)},
        {"nan": float("nan"), "np": np.float64("nan")},
        {"outer": {"z": 1.0, "y": {"x": "s"}, "w": {}}, "list": [1, 2], "flat": {"k": 0}},
        {"e": {}, "l": []},
    ])
    def test_emit_json_matches_indent_2(self, obj, tmp_path):
        path = tmp_path / "out.json"
        cli._emit_json(obj, str(path))
        assert path.read_text() == dumps(cli._jsonable(obj)) == dumps(recursive_jsonable(obj))
        if isinstance(obj, np.floating):  # a NumPy NaN is null, as a float NaN is
            assert json.loads(path.read_text()) is None

    def test_numpy_nan_scalars_are_null(self):
        obj = {"a": np.float64("nan"), "b": [np.float32("nan"), np.float64(2.5)],
               "c": float("nan")}
        assert cli._jsonable(obj) == {"a": None, "b": [None, 2.5], "c": None}
        assert "NaN" not in dumps(cli._jsonable(obj))

    @pytest.mark.parametrize("argv", [
        ("construct", "--dist", "weibull(alpha=1.7,beta=2.2)", "--weight", "power(c=1.5)",
         "--grid", "50", "--format", "json"),
        ("check-aging", "--dist", "gamma(k=2.5,lambda=1.5)", "--format", "json"),
        ("check-order", "--x", "exponential(lambda=2)", "--y", "exponential(lambda=1)",
         "--order", "lr"),
        ("verify-theorem", "thm9-example7"),
        ("table1-audit", "--format", "json"),
        ("describe", "CSV"),
        ("fit", "--model", "wk", "--starts", "4", "CSV"),
        ("gof", "--model", "kw", "--starts", "4", "CSV"),
        ("report", "--starts", "4", "CSV"),
    ], ids=lambda argv: argv[0])
    def test_command_output_matches_indent_2(self, capsys, monkeypatch, csv_path, argv):
        emitted = []
        real = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json",
                            lambda obj, out: (emitted.append(obj), real(obj, out)))
        code, out, _ = run_cli(capsys, *(csv_path if a == "CSV" else a for a in argv))
        assert code == 0 and len(emitted) == 1
        assert out == dumps(cli._jsonable(emitted[0]))


def per_cell_csv(header, rows):
    """CSV text formatted cell by cell: a str cell as its repr, any other
    as .12g."""
    lines = [",".join(header)]
    lines += [",".join(f"{v!r}" if isinstance(v, str) else f"{v:.12g}" for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvEncoding:
    VALUES = [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012345.6,
              2.0 / 3.0, float("inf"), -float("inf"), float("nan"), 1e22, 0.000123456789012345]

    @pytest.mark.parametrize("cell", [float, np.float64, int, str, "mixed"])
    def test_bytes_match_per_cell_formatting(self, cell, tmp_path):
        path = tmp_path / "out.csv"
        if cell == "mixed":
            rows = [(v, np.float64(v), "a,b\"c", 7) for v in self.VALUES]
        elif cell is int:
            rows = [(k, -k, 10 ** 15 + k, True) for k in range(-3, 9)]
        elif cell is str:
            rows = [(f"{v}", "é ☃", "") for v in self.VALUES]
        else:
            rows = [(cell(v), cell(-v), cell(v / 3)) for v in self.VALUES]
        header = [f"c{i}" for i in range(len(rows[0]))]
        cli._emit_csv(header, rows, str(path))
        assert path.read_text() == per_cell_csv(header, rows)
        # a generator of rows, as the commands pass, gives the same bytes
        cli._emit_csv(header, iter(rows), str(path))
        assert path.read_text() == per_cell_csv(header, rows)

    @pytest.mark.parametrize("argv, emitted", [
        (("construct", "--dist", "gamma(k=2,lambda=1.5)", "--weight", "power(c=1.5)",
          "--grid", "60", "--format", "csv"), "stdout"),
        (("simulate", "--dist", "weighted_kumaraswamy(a=2,b=3,c=1.5)", "--n", "80"), "stdout"),
        (("verify-theorem", "thm9-example7", "--emit-ratio", "FILE"), "FILE"),
        (("fit", "--model", "wk", "--starts", "4", "--emit-density", "FILE", "CSV"), "FILE"),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else None)
    def test_commands_match_per_cell_formatting(self, capsys, monkeypatch, tmp_path,
                                                csv_path, argv, emitted):
        # every CSV a command writes holds the bytes of the NumPy cells it
        # computed, formatted one by one
        calls = []
        real = cli._emit_csv

        def spy(header, rows, out):
            rows = list(rows)
            calls.append((header, rows, out))
            real(header, rows, out)

        monkeypatch.setattr(cli, "_emit_csv", spy)
        path = str(tmp_path / "curve.csv")
        argv = [path if a == "FILE" else csv_path if a == "CSV" else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(calls) == 1
        header, rows, _ = calls[0]
        text = out if emitted == "stdout" else open(path).read()
        assert all(type(v) is float for row in rows for v in row)
        assert text == per_cell_csv(header, [tuple(map(np.float64, row)) for row in rows])


class TestJsonCommands:
    def test_check_aging(self, capsys):
        code, out, _ = run_cli(capsys, "check-aging", "--dist",
                               "gamma(k=2.5,lambda=1.5)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"]["ILR"] is True
        assert doc["classes"]["IFR"] is True

    def test_check_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-order", "--x", "exponential(lambda=2)", "--y",
            "exponential(lambda=1)", "--order", "lr")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds_on_grid"] is True and doc["bounds_ok"] is True

    def test_verify_theorem_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "thm9-example7")
        assert code == 0
        doc = json.loads(out)
        assert doc["hypotheses_pass"] is True
        assert doc["consistent"] is True

    @pytest.mark.parametrize("fixture", ["thm9-example7", "thm10-example8", "thm5i-example4"])
    def test_emit_ratio_builds_each_variable_once(self, capsys, monkeypatch, tmp_path, fixture):
        # the ratio curve and the verdict read the same X_w1 and Y_w2, built
        # in one table pass
        import wtrv.weights as weights
        real, passes = weights.tabulate_cdf, []
        monkeypatch.setattr(weights, "tabulate_cdf",
                            lambda fs, rngs: (passes.append(rngs), real(fs, rngs))[1])
        code, _, err = run_cli(capsys, "verify-theorem", fixture,
                               "--emit-ratio", str(tmp_path / "ratio.csv"))
        assert code == 0 and err == "" and [len(p) for p in passes] == [2]

    _EXPLICIT = ("thm8", "--x", "exponential(lambda=2)", "--y", "exponential(lambda=1)",
                 "--w1", "power(c=0.7)", "--w2", "power(c=1.8)")

    @pytest.fixture
    def passes(self, monkeypatch):
        """The tables of each tabulate_cdf pass, and the tables of each
        invert_monotone pass over constructed variables, in call order."""
        import wtrv.numerics as numerics
        import wtrv.orders as orders
        import wtrv.weights as weights
        log = {"tables": [], "inversions": []}
        tabulate, quantiles = weights.tabulate_cdf, numerics.table_quantiles
        monkeypatch.setattr(weights, "tabulate_cdf",
                            lambda fs, rngs: (log["tables"].append(len(fs)), tabulate(fs, rngs))[1])
        for module in (numerics, orders):
            monkeypatch.setattr(module, "table_quantiles", lambda tables, u: (
                log["inversions"].append(len(tables)), quantiles(tables, u))[1])
        return log

    @pytest.mark.parametrize("argv, ratio_grid", [
        (("thm9-example7",), False), (("thm5i-example4",), True), (_EXPLICIT, True)])
    @pytest.mark.parametrize("emit_ratio", [False, True])
    def test_verify_theorem_builds_the_pair_in_one_pass(self, capsys, passes, tmp_path, argv,
                                                        ratio_grid, emit_ratio):
        # X_w1 and Y_w2 come from one table pass, and the merged grid of the
        # conclusion inverts both in one Newton pass; the ratio curve, on an
        # infinite common support, merges its own grid the same way
        extra = ("--emit-ratio", str(tmp_path / "ratio.csv")) if emit_ratio else ()
        code, _, err = run_cli(capsys, "verify-theorem", *argv, *extra)
        assert code == 0 and err == ""
        assert passes["tables"] == [2]
        assert passes["inversions"] == [2] * (1 + (emit_ratio and ratio_grid))

    def test_check_order_builds_the_pair_in_one_pass(self, capsys, passes):
        code, _, err = run_cli(capsys, "check-order", "--x", "exponential(lambda=2)",
                               "--wx", "power(c=1.5)", "--y", "exponential(lambda=1)",
                               "--wy", "power(c=2.5)", "--order", "lr")
        assert code == 0 and err == ""
        assert passes["tables"] == [2] and passes["inversions"] == [2]

    @pytest.mark.parametrize("argv", [
        ("construct", "--dist", "gamma(k=2,lambda=1)", "--weight", "power(c=1.5)", "--grid", "50"),
        ("check-aging", "--dist", "gamma(k=2,lambda=1)", "--weight", "power(c=1.5)")])
    def test_one_variable_one_pass(self, capsys, passes, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert passes["tables"] == [1] and passes["inversions"] == [1]

    def test_table1_audit(self, capsys):
        code, out, _ = run_cli(capsys, "table1-audit", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12 and all(r["passed"] for r in rows)


class TestDataCommands:
    def test_describe(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "describe", csv_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 60
        assert doc["minimum"] >= 300.0 and doc["maximum"] <= 1200.0

    def test_fit_byte_identical_reruns(self, capsys, csv_path):
        code1, out1, _ = run_cli(capsys, "fit", "--model", "kw", "--starts", "4", csv_path)
        code2, out2, _ = run_cli(capsys, "fit", "--model", "kw", "--starts", "4", csv_path)
        assert code1 == code2 == 0
        assert out1 == out2
        assert set(json.loads(out1)) == {"model", "params", "loglik", "aic", "bic",
                                         "rmse", "boundary_policy", "starts_tried",
                                         "converged"}

    def test_fit_and_gof(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "fit", "--model", "wk", "--starts",
                               "4", csv_path)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["params"]) == {"a", "b", "c"}
        assert doc["converged"] is True
        code, out, _ = run_cli(capsys, "gof", "--model", "kw", "--starts",
                               "4", csv_path)
        assert code == 0
        doc = json.loads(out)
        assert all(0.0 <= t["p_value"] <= 1.0 for t in doc["tests"].values())
        assert set(doc) == {"model", "n", "tests", "params"} and doc["model"] == "kw"
        series = read_csv(csv_path, "rainfall_mm")
        assert doc["n"] == len(fit_mod.normalize(series.rainfall_mm).likelihood_values)

    def test_report_runs(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "report", "--starts", "4", csv_path)
        assert code == 0
        doc = json.loads(out)
        assert {"describe", "models"} <= set(doc)
        assert {"beta", "kw", "wk"} <= set(doc["models"])

    def test_report_builds_each_law_once(self, capsys, csv_path, monkeypatch):
        # the law each fit builds for its RMSE serves the goodness-of-fit tests
        real, built = fit_mod.make_catalog, []

        def count(name, params=None):
            built.append(name)
            return real(name, params)

        monkeypatch.setattr(fit_mod, "make_catalog", count)
        code, _, _ = run_cli(capsys, "report", "--starts", "4", csv_path)
        assert code == 0
        assert built == ["beta", "kumaraswamy", "weighted_kumaraswamy"]

    def test_report_tests_the_laws_in_one_run_gof_call(self, capsys, csv_path, monkeypatch):
        real, calls = gof_mod.run_gof, []

        def count(values, model, *args, **kwargs):
            calls.append(list(model))
            return real(values, model, *args, **kwargs)

        monkeypatch.setattr(gof_mod, "run_gof", count)
        code, out, _ = run_cli(capsys, "report", "--starts", "4", csv_path)
        assert code == 0 and calls == [["beta", "kw", "wk"]]
        sample = fit_mod.normalize(read_csv(csv_path, "rainfall_mm").rainfall_mm)
        for model, doc in json.loads(out)["models"].items():
            law = fit_mod.make_catalog(fit_mod._CATALOG_NAME[model], doc["params"])
            assert doc["tests"] == real(sample.likelihood_values, law, family=model), model

    def test_simulate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dist",
                               "kumaraswamy(a=2,b=3)", "--n", "5",
                               "--seed", "1")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "x" and len(rows) == 5
        assert all(0.0 < float(r) < 1.0 for r in rows)


class TestErrorPaths:
    def test_module_error_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--dist",
                                 "pareto_lomax(alpha=1)", "--weight",
                                 "power(c=2)")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "weighted_kumaraswamy(a=inf,b=2,c=1)", "--n", "3"],
        ["construct", "--dist", "exponential(lambda=1)", "--weight", "power(c=nan)"],
    ], ids=["inf-parameter", "nan-weight"])
    def test_nonfinite_parameter_exit_one(self, capsys, argv):
        # simulate used to print three 1s and exit 0
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "must be finite and positive" in err

    @pytest.mark.parametrize("base, weight", [("exponential(lambda=1e+300)", "linear()"),
                                              ("gamma(k=0.13,lambda=1e+300)", "expm1()")])
    def test_table_below_float_resolution_exit_one(self, base, weight):
        # the mass lies within ~1e-300 of 0, where the cdf table's cubics
        # overflow: one error line names both inputs, and no warning precedes
        # it (a fresh process, so that stderr holds every warning)
        proc = _fresh("import sys, wtrv.cli; sys.exit(wtrv.cli.main(sys.argv[1:]))",
                      "construct", "--dist", base, "--weight", weight)
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert base in lines[0] and weight in lines[0]

    @pytest.mark.parametrize("flag, spec, named", [
        ("--dist", "foo()", "unknown distribution 'foo'"),
        ("--dist", "gamma(k=1)", "gamma expects parameters"),
        ("--dist", "exponential(lambda=-1)", "'lambda' must be finite and positive, got -1.0"),
        ("--dist", "truncated_power(beta=0.5)", "'beta' of truncated_power must be > 1, got 0.5"),
        ("--weight", "foo()", "unknown weight 'foo'"),
        ("--weight", "power(d=1)", "power expects parameters"),
        ("--weight", "power(c=-1)", "'c' must be finite and positive, got -1.0"),
        ("--weight", "scaled_power(alpha=1,beta=inf)", "'beta' must be finite and positive, got inf"),
    ])
    def test_bad_spec_is_one_catalog_error_line(self, capsys, flag, spec, named):
        # families and weights go through one catalog lookup, so a bad spec
        # of either kind fails with one typed line naming it
        specs = {"--dist": "exponential(lambda=1)", "--weight": "linear()", flag: spec}
        code, out, err = run_cli(capsys, "construct", *[v for kv in specs.items() for v in kv])
        assert code == 1 and out == ""
        assert err.startswith("error: CatalogError: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("flag, spec", [("--dist", "exponential(lambda=1,lambda=2)"),
                                            ("--weight", "power(c=1,c=3)")])
    def test_repeated_parameter_is_one_catalog_error_line(self, capsys, flag, spec):
        # the last value used to win silently
        specs = {"--dist": "exponential(lambda=1)", "--weight": "linear()", flag: spec}
        code, out, err = run_cli(capsys, "construct", *[v for kv in specs.items() for v in kv])
        key = spec[:spec.index("=")].split("(")[1]
        assert code == 1 and out == ""
        assert err == f"error: CatalogError: parameter {key!r} given twice in {spec!r}\n"

    def test_extreme_shapes_finite_or_one_error_line(self, capsys):
        # each family with one parameter at a time at an extreme, the others
        # at 0.37 and 2.5 in turn: a command prints finite numbers or fails
        # with one typed line, and warns of nothing
        token = re.compile(r"\b(inf|nan|null|Infinity|NaN)\b", re.IGNORECASE)
        failures = []
        for family, (names, _) in _BUILDERS.items():
            for key in names:
                for extreme in (1e-300, 1e-12, 1e12, 1e300):
                    others = iter((0.37, 2.5, 0.37))
                    spec = family + "(" + ",".join(
                        f"{k}={extreme if k == key else next(others):g}" for k in names) + ")"
                    for argv in (["simulate", "--dist", spec, "--n", "20"],
                                 ["check-aging", "--dist", spec, "--format", "json"]):
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            code, out, err = run_cli(capsys, *argv)
                        ok = not caught and (
                            (code == 0 and not token.search(out)) or
                            (code == 1 and out == "" and err.startswith("error: ")
                             and err.count("\n") == 1))
                        if not ok:
                            failures.append((argv, code, err, [str(w.message) for w in caught]))
        assert failures == []

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exit_one(self, capsys, grid):
        # --grid 0 printed an empty table and exited 0; --grid -3 gave
        # NumPy's message, which names no flag
        code, out, err = run_cli(capsys, "construct", "--dist", "exponential(lambda=1)",
                                 "--weight", "power(c=2)", "--grid", grid)
        assert code == 1 and out == ""
        assert err == f"error: ValueError: --grid must be at least 1, got {grid}\n"

    def test_missing_csv_exit_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "describe", str(tmp_path / "missing.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_programming_error_propagates(self, capsys, monkeypatch):
        # only the package's typed failures, bad input and I/O become exit 1
        def broken(*args, **kwargs):
            raise TypeError("broken command")

        monkeypatch.setattr(cli, "_draw", broken)
        with pytest.raises(TypeError, match="broken command"):
            main(["simulate", "--dist", "uniform()", "--n", "3"])

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--weight", "power(c=2)"])
        assert exc.value.code == 2


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


class TestEveryFlagIsRead:
    # argv per subcommand, "CSV" and "OUT" filled in; every declared option
    # of a subcommand must be read by its handler on one of its runs
    RUNS = {
        "construct": [["construct", "--dist", "exponential(lambda=1)", "--weight", "linear()",
                       "--grid", "3"]],
        "check-aging": [["check-aging", "--dist", "exponential(lambda=1)"]],
        "check-order": [["check-order", "--x", "exponential(lambda=2)",
                         "--y", "exponential(lambda=1)", "--order", "st"]],
        "verify-theorem": [["verify-theorem", "thm5i-example4"],
                           ["verify-theorem", "thm5i", "--x", "exponential(lambda=2)",
                            "--y", "exponential(lambda=1)", "--w1", "power(c=1.5)",
                            "--w2", "power(c=2.5)"]],
        "table1-audit": [["table1-audit"]],
        "describe": [["describe", "CSV"]],
        "fit": [["fit", "CSV", "--starts", "4"]],
        "gof": [["gof", "CSV", "--model", "kw", "--starts", "4"]],
        "report": [["report", "CSV", "--starts", "4"]],
        "simulate": [["simulate", "--dist", "uniform()", "--n", "3"]],
    }

    @staticmethod
    def subparsers():
        parser = cli._build_parser()
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_subcommand_is_run(self):
        assert set(self.RUNS) == set(self.subparsers())

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_declared_dests_are_read(self, tmp_path, csv_path, command):
        declared = {a.dest for a in self.subparsers()[command]._actions if a.dest != "help"}
        read = set()
        for argv in self.RUNS[command]:
            argv = [csv_path if a == "CSV" else a for a in argv]
            args = cli._build_parser().parse_args(argv + ["--out", str(tmp_path / "out")],
                                                  namespace=ReadRecorder())
            args.__dict__.pop("_read", None)  # argparse's own reads while parsing
            assert args.func(args) == 0
            read |= args.__dict__.pop("_read")
        assert declared - read == set()


def readme_examples():
    """The wtrv lines of README's "CLI examples" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("wtrv ")]


class TestReadmeExamples:
    def test_block_found(self):
        assert len(readme_examples()) >= 9

    @pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
    def test_example_runs(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        draws = 200.0 + 1500.0 * np.random.default_rng(5).beta(2.0, 5.0, 60)
        (tmp_path / "rain.csv").write_text(
            "year,rainfall_mm\n" + "".join(f"{1950 + i},{v:.3f}\n" for i, v in enumerate(draws)))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out


class TestParserCache:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("first, second", [
        (["construct", "--dist", "gamma(k=2,lambda=1)", "--weight", "power(c=1.5)",
          "--grid", "50", "--format", "json"],
         ["simulate", "--dist", "weighted_kumaraswamy(a=2,b=3,c=1.5)", "--n", "20"]),
        (["report", "--starts", "4", "--bins", "5", "--seed", "3", "CSV"],
         ["describe", "CSV"]),
    ], ids=["construct-simulate", "report-describe"])
    def test_no_state_carries_between_calls(self, capsys, tmp_path, csv_path, first, second):
        # the first call writes to --out and sets non-default flags; the
        # second, on defaults and stdout, must print what it prints alone
        first = [csv_path if a == "CSV" else a for a in first]
        second = [csv_path if a == "CSV" else a for a in second]

        def run(argv, out=None):
            code = main(argv + (["--out", str(out)] if out else []))
            assert code == 0
            return out.read_bytes() if out else capsys.readouterr().out.encode()

        cli._build_parser.cache_clear()
        in_turn = run(first, tmp_path / "a"), run(second)
        cli._build_parser.cache_clear()
        first_alone = run(first, tmp_path / "b")
        cli._build_parser.cache_clear()
        assert (first_alone, run(second)) == in_turn
        assert in_turn[1]


def _fresh(script, *args):
    """Run script in a fresh interpreter with this checkout's wtrv first on
    the path; return the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_fresh(script, *args):
    """_fresh's standard output, of a script that must exit 0."""
    proc = _fresh(script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    def test_special_functions_load_at_first_call(self):
        # scipy.special is deferred, not absent: the elementary bases with
        # power weights never call a special function, and the weighted
        # Kumaraswamy quantile (betaincinv) loads it
        script = """
            import json, os, sys
            import wtrv, wtrv.cli
            seen = {"import": "scipy.special._ufuncs" in sys.modules}
            for argv in (["verify-theorem", "thm8", "--x", "exponential(lambda=2)",
                          "--y", "exponential(lambda=1)", "--w1", "power(c=1.5)",
                          "--w2", "power(c=1.5)"],
                         ["check-aging", "--dist", "weibull(alpha=1.7,beta=2.2)",
                          "--weight", "scaled_power(alpha=1.5,beta=2)", "--format", "json"],
                         ["construct", "--dist", "exponential(lambda=1)", "--weight", "power(c=2)"],
                         ["simulate", "--dist", "weighted_kumaraswamy(a=2,b=3,c=1.5)", "--n", "5"]):
                assert wtrv.cli.main(argv + ["--out", os.devnull]) == 0
                seen[argv[0]] = "scipy.special._ufuncs" in sys.modules
            print(json.dumps(seen))
        """
        assert json.loads(_run_fresh(script)) == {
            "import": False, "verify-theorem": False, "check-aging": False,
            "construct": False, "simulate": True}

    def test_first_special_call_from_two_threads(self):
        # two threads make the process's first special-function calls at
        # once; each must get what a sequential run computes
        script = """
            import json, sys, threading
            import numpy as np
            from wtrv import fit_mle, from_unit_values, make_catalog
            assert "scipy.special._ufuncs" not in sys.modules
            xs = np.linspace(0.1, 9.0, 7)
            sample = from_unit_values(np.random.default_rng(5).beta(2.0, 3.0, 40))
            jobs = {"cdf": lambda: make_catalog("gamma", {"k": 2.5, "lambda": 1.5}).cdf(xs).tolist(),
                    "fit": lambda: sorted(fit_mle(sample, "wk", starts=4).params.items())}
            out = {}
            if sys.argv[1] == "threads":
                barrier = threading.Barrier(len(jobs))

                def run(key):
                    barrier.wait(timeout=60)
                    out[key] = jobs[key]()

                threads = [threading.Thread(target=run, args=(k,)) for k in jobs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
            else:
                out = {k: job() for k, job in jobs.items()}
            print(json.dumps(out))
        """
        threaded = json.loads(_run_fresh(script, "threads"))
        assert set(threaded) == {"cdf", "fit"}
        assert threaded == json.loads(_run_fresh(script, "sequential"))

    def test_commands_load_no_deferred_scipy(self, csv_path):
        # no command loads scipy.stats, scipy.optimize or scipy.interpolate:
        # importing the package and running simulate, construct, report, fit
        # and asymptotic gof in one process must not pull them in
        script = """
            import json, os, sys
            import wtrv, wtrv.cli
            heavy = ("scipy.stats", "scipy.optimize", "scipy.interpolate")
            seen = {"import": [m for m in heavy if m in sys.modules]}
            for argv in (["simulate", "--dist", "weighted_kumaraswamy(a=2,b=3,c=1.5)", "--n", "50"],
                         ["construct", "--dist", "gamma(k=2,lambda=1)", "--weight", "power(c=1.5)",
                          "--format", "json"],
                         ["report", sys.argv[1], "--starts", "4"],
                         ["fit", sys.argv[1], "--model", "wk", "--starts", "4"],
                         ["gof", sys.argv[1], "--model", "kw", "--pvalue", "asymptotic"]):
                assert wtrv.cli.main(argv + ["--out", os.devnull]) == 0
                seen[argv[0]] = [m for m in heavy if m in sys.modules]
            print(json.dumps(seen))
        """
        assert json.loads(_run_fresh(script, csv_path)) == dict.fromkeys(
            ("import", "simulate", "construct", "report", "fit", "gof"), [])

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from wtrv import cli
from wtrv.cli import main


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
        code1, out1, _ = run_cli(capsys, "fit", "--model", "kw", "--seed",
                                 "42", "--starts", "4", csv_path)
        code2, out2, _ = run_cli(capsys, "fit", "--model", "kw", "--seed",
                                 "42", "--starts", "4", csv_path)
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

    def test_report_runs(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "report", "--starts", "4", csv_path)
        assert code == 0
        doc = json.loads(out)
        assert {"describe", "models"} <= set(doc)
        assert {"beta", "kw", "wk"} <= set(doc["models"])

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


class TestParserCache:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("first, second", [
        (["construct", "--dist", "gamma(k=2,lambda=1)", "--weight", "power(c=1.5)",
          "--grid", "50", "--format", "json", "--seed", "7"],
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

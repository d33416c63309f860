import json

import numpy as np
import pytest

from wtrv import (check_order, check_theorem_conditions, construct, make_catalog,
                  make_weight, named_fixture, parse_dist_spec, parse_weight_spec,
                  randomized_theorem_audit, ratio_curve, verify_theorem)
from wtrv import orders
from wtrv.cli import main
from wtrv.orders import FIXTURES, THEOREM_IDS


class TestCheckOrder:
    def test_exponential_lr_pair(self):
        x = make_catalog("exponential", {"lambda": 2.0})
        y = make_catalog("exponential", {"lambda": 1.0})
        v = check_order(x, y, "lr")
        assert v.holds_on_grid and v.bounds_ok

    def test_all_orders_follow_lr_pair(self):
        x = make_catalog("exponential", {"lambda": 2.0})
        y = make_catalog("exponential", {"lambda": 1.0})
        for order in ("fr", "rfr", "st"):
            assert check_order(x, y, order).holds_on_grid

    def test_reversed_pair_fails(self):
        x = make_catalog("exponential", {"lambda": 1.0})
        y = make_catalog("exponential", {"lambda": 2.0})
        v = check_order(x, y, "st")
        assert not v.holds_on_grid
        assert v.first_violation is not None

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            check_order(make_catalog("uniform", {}),
                        make_catalog("uniform", {}), "hr2")

    def test_bounds_reported_separately(self):
        # ratio monotone on the common support while the upper bounds are
        # reversed: the grid verdict and the bounds flag must disagree
        x = make_catalog("exponential", {"lambda": 1.0})
        y = make_catalog("uniform", {})
        v = check_order(x, y, "rfr")
        assert not v.bounds_ok
        assert v.holds_on_grid


class TestNamedFixtures:
    def test_fixture_names(self):
        assert set(FIXTURES) == {"thm5i-example4", "thm9-example7",
                                 "thm10-example8"}

    def test_lr_preservation_fixture(self):
        x, y, w1, w2, which = named_fixture("thm5i-example4")
        rep = verify_theorem(x, y, w1, w2, which)
        assert rep.hypotheses_pass
        assert rep.conclusion is not None and rep.conclusion.holds_on_grid
        assert rep.consistent

    def test_fr_fixture_holds_but_lr_fails(self):
        x, y, w1, w2, which = named_fixture("thm9-example7")
        rep = verify_theorem(x, y, w1, w2, which)
        assert rep.hypotheses_pass and rep.conclusion.holds_on_grid
        xw, yw = construct(x, w1), construct(y, w2)
        lr = check_order(xw, yw, "lr")
        assert not lr.holds_on_grid

    def test_rfr_fixture(self):
        x, y, w1, w2, which = named_fixture("thm10-example8")
        rep = verify_theorem(x, y, w1, w2, which)
        assert rep.conclusion is not None and rep.conclusion.holds_on_grid
        assert rep.consistent

    def test_unknown_fixture(self):
        with pytest.raises(Exception):
            named_fixture("thm3-example99")


class TestVerifyTheorem:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify_theorem(make_catalog("uniform", {}),
                           make_catalog("uniform", {}),
                           make_weight("linear", {}),
                           make_weight("linear", {}), "thm42")

    @pytest.mark.parametrize("which, k2", [("thm8", 1.5), ("thm7", 2.0)])
    def test_small_grid_rejected_before_construction(self, monkeypatch, which, k2):
        # thm7 with two different weights used to return its "requires a
        # common weight" report instead of raising
        def no_construct(*args):
            raise AssertionError("constructed before the grid check")

        monkeypatch.setattr(orders, "construct", no_construct)
        monkeypatch.setattr(orders, "construct_all", no_construct)
        with pytest.raises(ValueError, match="grid_size must be at least 64"):
            verify_theorem(make_catalog("exponential", {"lambda": 2.0}),
                           make_catalog("exponential", {"lambda": 1.0}),
                           make_weight("power", {"c": 1.5}),
                           make_weight("power", {"c": k2}), which, grid_size=32)

    # each failing pair, and the side it is built on; x_overflow is
    # integrable, but its table's cubics overflow in floats
    _BAD = {"x": ("pareto_lomax(alpha=1)", "linear()"), "y": ("exponential(lambda=1)", "expm1()"),
            "x_overflow": ("exponential(lambda=1e+200)", "linear()")}

    @pytest.mark.parametrize("emit_ratio", [False, True])
    @pytest.mark.parametrize("failing", [("x",), ("y",), ("x", "y"), ("x_overflow",)])
    @pytest.mark.parametrize("which, order", [("thm8", "st"), ("thm5i", "lr")])
    def test_failed_construction_names_order_and_pairs(self, capsys, tmp_path, failing, which,
                                                       order, emit_ratio):
        # a pair that is not admissible gives a report without verdicts that
        # still names the result's conclusion order; its detail holds the
        # error construct prints for each failing pair, X's first. With
        # --emit-ratio the report is the same and the file holds the header
        # alone, whatever it held before
        texts = []
        sides = {"x": ("exponential(lambda=2)", "power(c=0.7)"),
                 "y": ("exponential(lambda=1)", "power(c=1.8)")}
        for bad in failing:
            dist, weight = self._BAD[bad]
            sides[bad[0]] = dist, weight
            assert main(["construct", "--dist", dist, "--weight", weight]) == 1
            err = capsys.readouterr().err.rstrip("\n")
            texts.append(err.removeprefix("error: IntegrabilityError: ").removeprefix("error: WtrvError: "))
        (x, w1), (y, w2) = sides["x"], sides["y"]
        args = ["verify-theorem", which, "--x", x, "--w1", w1, "--y", y, "--w2", w2]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = json.loads(printed)
        assert out["hypotheses"] == {"construction_ok": False} and out["conclusion"] is None
        assert out["conclusion_order"] == order and out["consistent"] is True
        assert out["detail"] == "; ".join(texts)
        if emit_ratio:
            path = tmp_path / "ratio.csv"
            path.write_text("x,density_ratio\n1,2\n")
            assert main([*args, "--emit-ratio", str(path)]) == 0
            assert capsys.readouterr().out == printed
            assert path.read_text() == "x,density_ratio\n"

    def test_vanishing_initial_slope_blocks_hypotheses(self):
        # w1 = x^2 has w'(0) = 0, so the reversed-rate comparison with a
        # linear second weight is outside the hypothesis class
        rep = verify_theorem(make_catalog("exponential", {"lambda": 2.0}),
                             make_catalog("exponential", {"lambda": 1.0}),
                             make_weight("power", {"c": 2.0}),
                             make_weight("linear", {}), "thm6")
        assert not rep.hypotheses_pass
        assert rep.consistent

    def test_minimum_composition(self):
        x = make_catalog("exponential", {"lambda": 1.0})
        y = make_catalog("exponential", {"lambda": 2.0})
        w = make_weight("power", {"c": 0.7})
        rep = verify_theorem(x, y, w, w, "thm7")
        assert rep.hypotheses_pass
        assert rep.conclusion.holds_on_grid and rep.consistent

    def test_minimum_requires_common_weight(self):
        x = make_catalog("exponential", {"lambda": 1.0})
        rep = verify_theorem(x, x, make_weight("power", {"c": 0.7}),
                             make_weight("power", {"c": 0.8}), "thm7")
        assert not rep.hypotheses_pass

    @pytest.mark.parametrize("c2, common", [("0.5", True), ("0.5000001", False)])
    def test_common_weight_compares_exact_parameters(self, capsys, c2, common):
        # the weights' descriptions print parameters to 6 significant digits,
        # so power(c=0.5000001) used to count as the weight power(c=0.5)
        code = main(["verify-theorem", "thm7", "--x", "exponential(lambda=1)",
                     "--y", "exponential(lambda=2)", "--w1", "power(c=0.5)",
                     "--w2", f"power(c={c2})"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["hypotheses"]["common_weight"] is common
        assert out["hypotheses_pass"] is common

    @pytest.mark.parametrize("which, w1, w2", [("thm5i", 1.2, 2.0), ("thm8", 0.7, 1.8),
                                               ("thm9", 0.7, 1.8), ("thm10", 0.7, 1.8)])
    def test_merged_grid_built_once(self, monkeypatch, capsys, which, w1, w2):
        # the hypothesis X <=_o Y reads the X/Y grid verify_theorem built, so
        # the two merged grids (X/Y and the conclusion's Xw1/Yw2) take four
        # quantile grids, not six, and the output is the bytes of a run in
        # which check_order builds its grid itself
        calls = []
        interior, check = orders._interior_grid, orders.check_order
        quantiles = orders.table_quantiles
        monkeypatch.setattr(orders, "_interior_grid",
                            lambda *a: (calls.append(a[0].name), interior(*a))[1])
        monkeypatch.setattr(orders, "table_quantiles",
                            lambda tables, u: (calls.extend(tables), quantiles(tables, u))[1])
        argv = ["verify-theorem", which, "--x", "exponential(lambda=2)",
                "--y", "exponential(lambda=1.2)", "--w1", f"power(c={w1})",
                "--w2", f"power(c={w2})"]
        outputs = []
        for builds in (False, True):
            if builds:  # drop the handed-over grid
                monkeypatch.setattr(orders, "check_order",
                                    lambda *a, grid=None, **k: check(*a, **k))
            calls.clear()
            assert main(argv) == 0
            outputs.append((len(calls), capsys.readouterr().out))
        assert [n for n, _ in outputs] == [4, 6]
        assert outputs[0][1] == outputs[1][1]

    def test_ratio_curve_shape(self):
        x, y, w1, w2, which = named_fixture("thm9-example7")
        xs, ratio = ratio_curve(construct(x, w1), construct(y, w2), grid_size=64)
        assert len(xs) == len(ratio) == 64
        assert np.all(np.isfinite(ratio)) and np.all(ratio >= 0)
        # the non-monotone shape: the ratio rises and then falls
        diffs = np.diff(ratio)
        assert np.any(diffs > 0) and np.any(diffs < 0)


class TestAudits:
    @pytest.mark.parametrize("which", ["thm5i", "thm5ii", "thm6", "thm7"])
    def test_small_audit_clean(self, which):
        rep = randomized_theorem_audit(which, trials=5, seed=11)
        assert rep.hypotheses_passed >= 1
        assert rep.conclusion_passed == rep.hypotheses_passed
        assert rep.counterexample is None

    def test_unknown_audit_id(self):
        with pytest.raises(ValueError):
            randomized_theorem_audit("thm0", trials=5, seed=1)

    def test_audit_ids_cover_all_theorems(self):
        assert set(THEOREM_IDS) == {"thm5i", "thm5ii", "thm6", "thm7", "thm8",
                                    "thm9", "thm10"}


# One in-class input per paper result: (X, w) for the aging results and
# (X, Y, w1, w2) for the order results, the hypothesis keys in report order,
# and the conclusion label (the order, for thm5i..thm10). Every case passes
# its hypotheses and its conclusion; the values are those of the two
# verifiers before they were merged into one table.
RESULT_CASES = {
    "prop1": (("truncated_power(beta=3.5)", "power(c=2.25)"),
              ("X_IFR", "w_prime_log_concave"), "X_w is ILR"),
    "thm1": (("exponential(lambda=1)", "power(c=2)"),
             ("X_IFR", "ratio_increasing", "ratio_log_concave"), "X_w is IFR"),
    "thm2": (("exponential(lambda=2)", "expm1()"),
             ("X_DFR", "ratio_increasing", "ratio_log_convex"), "X_w is DFR"),
    "thm3": (("weibull(alpha=1.5,beta=1)", "power(c=2)"),
             ("X_DMRL", "ratio_increasing", "ratio_log_concave", "mrl_log_convex"),
             "X_w is IFR (hence DMRL)"),
    # w = x^alpha leaves a Weibull(alpha) base unchanged: w'/r_X is constant
    "thm4": (("weibull(alpha=0.7,beta=1)", "power(c=0.7)"),
             ("X_IMRL", "ratio_increasing", "ratio_log_convex", "mrl_log_concave"),
             "X_w is DFR (hence IMRL)"),
    # the second branch: a DFR base and a convex weight
    "prop2": (("weibull(alpha=0.7,beta=1)", "power(c=2)"),
              ("X_DFR", "w_strictly_increasing", "w_convex"), "X <=lr X_w"),
    "thm5i": (("exponential(lambda=2)", "exponential(lambda=1)", "power(c=1.5)", "power(c=2.5)"),
              ("l1_le_l2", "u1_le_u2", "X_fr_Y", "w2p_over_w1p_increasing", "w1p_nonzero"),
              "lr"),
    "thm5ii": (("exponential(lambda=2)", "exponential(lambda=1)", "power(c=1.5)", "power(c=1.5)"),
               ("Xw1_lr_Yw2", "w1p_over_w2p_increasing", "w2p_nonzero"), "fr"),
    "thm6": (("exponential(lambda=2)", "exponential(lambda=1)", "linear()", "linear()"),
             ("Xw1_rfr_Yw2", "w1p_over_w2p_increasing", "w2p_nonzero",
              "w1p_nonzero_at_origin"), "st"),
    "thm7": (("exponential(lambda=1)", "exponential(lambda=2)", "power(c=0.7)", "power(c=0.7)"),
             ("common_weight", "same_support", "Xw_fr_X", "Yw_fr_Y"), "lr"),
    "thm8": (("exponential(lambda=2)", "exponential(lambda=1)", "power(c=0.7)", "power(c=1.5)"),
             ("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "X_st_Y"), "st"),
    "thm9": (("exponential(lambda=2)", "exponential(lambda=1)", "power(c=0.7)", "power(c=1.5)"),
             ("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "l1_le_l2", "u1_le_u2",
              "X_fr_Y"), "fr"),
    "thm10": (("exponential(lambda=2)", "exponential(lambda=1)", "power(c=0.7)", "power(c=1.5)"),
              ("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "l1_le_l2", "u1_le_u2",
               "X_rfr_Y"), "rfr"),
}


class TestEveryResult:
    def test_cases_cover_the_table(self):
        assert list(RESULT_CASES) == list(orders._RESULTS)

    @pytest.mark.parametrize("which", list(RESULT_CASES))
    def test_in_class_input(self, which):
        specs, keys, label = RESULT_CASES[which]
        if len(specs) == 2:
            rep = check_theorem_conditions(parse_dist_spec(specs[0]),
                                           parse_weight_spec(specs[1]), which)
            assert (rep.conclusion, rep.conclusion_pass) == (label, True)
        else:
            x, y = parse_dist_spec(specs[0]), parse_dist_spec(specs[1])
            w1, w2 = parse_weight_spec(specs[2]), parse_weight_spec(specs[3])
            rep = verify_theorem(x, y, w1, w2, which)
            assert rep.conclusion_order == label
            assert rep.conclusion.holds_on_grid and rep.consistent
        assert tuple(rep.hypotheses) == keys
        assert rep.hypotheses_pass and rep.detail == ""

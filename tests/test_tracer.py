"""The benchmark's tracer patches functions of wtrv by name: a rename that
breaks it must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from wtrv import cli


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_construct_and_restores_the_originals(capsys):
    spans = _spans()
    places = [(spans.construct, "construct"), (spans.orders, "construct"), (cli, "_construct")]
    places += [place for target in spans._TARGETS for place in target[3]]
    originals = [spans._get(owner, key) for owner, key in places]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(spans._get(owner, key) is not fn
                   for (owner, key), fn in zip(places, originals))
        code = cli.main(["construct", "--dist", "gamma(k=2,lambda=1)",
                         "--weight", "power(c=1.5)", "--grid", "7", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().err == ""
    assert [spans._get(owner, key) for owner, key in places] == originals
    _, counts = tracer.take()
    assert counts["cli.main.calls"] == counts["construct.construct.calls"] == 1
    assert counts["weights.validate_weight.calls"] == counts["construct.quantile.calls"] == 1
    assert counts["construct.quantile.points"] == 7 and counts["construct.table_nodes"] > 0

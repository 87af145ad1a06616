"""tools/layer_cost.py: every layer runs on this checkout and names its
figures, and the harness refuses what it cannot measure fairly."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_cost.py"
_spec = importlib.util.spec_from_file_location("layer_cost", _TOOL)
layer_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_cost)

FAMILIES = {"constant", "step", "smooth"}


def _leaves(tree):
    if "by_round" in tree:
        yield tree
    else:
        for value in tree.values():
            yield from _leaves(value)


# the smallest settings: the import layer's quartiles need two rounds
@pytest.mark.parametrize("argv, timings, outputs", [
    (["import", "--rounds", "2"], {"import_s"}, {"scipy_modules"}),
    (["step", "--steps", "1"],
     {"run_step_us", "advance_us", "solve_activity_implicit_us"},
     {"last_m_p"}),
    (["steady", "--calls", "1"], {"ms"}, {"evaluations", "values"}),
    (["xi", "--calls", "1"], {"ms"}, {"estimates"}),
    (["equilibrium", "--calls", "1"], {"ms"}, {"M"}),
    (["spectrum", "--calls", "1"], {"ms"}, {"gap"}),
], ids=["import", "step", "steady", "xi", "equilibrium", "spectrum"])
def test_every_layer_runs_and_names_its_figures(argv, timings, outputs,
                                                capsys):
    rounds = ["--rounds", "1"] if "--rounds" not in argv else []
    layer_cost.main(argv + rounds)
    report = json.loads(capsys.readouterr().out)
    assert set(report["host"]) == {"cores", "machine", "python", "numpy"}
    tree, = report["trees"]
    assert set(tree["timings"]) == timings
    assert set(tree["outputs"]) == outputs
    leaves = list(_leaves(tree["timings"]))
    assert leaves and all(leaf["p50"] > 0 for leaf in leaves)
    layer = argv[0]
    if layer == "import":
        assert set(tree["timings"]["import_s"]) == {"p25", "p50", "p75",
                                                    "by_round"}
    elif layer == "step":
        assert set(tree["timings"]["run_step_us"]) == FAMILIES
        assert set(tree["timings"]["run_step_us"]["step"]) == {
            "dirac", "exponential", "gamma"}
    elif layer == "steady":
        assert set(tree["timings"]["ms"]) == {"1000", "10000"}
        assert set(tree["outputs"]["evaluations"]["1000"]) == {"solve",
                                                               "scan_row"}
    elif layer == "xi":
        assert set(tree["timings"]["ms"]) == {"regime_draw", "defaults"}
    else:
        assert set(tree["timings"]["ms"]) == FAMILIES


def test_harness_refuses_outputs_that_differ_between_rounds(monkeypatch):
    rounds = iter(range(2))
    monkeypatch.setattr(
        layer_cost, "_measure",
        lambda layer, src, settings: ("0", {"ms": 1.0}, {"M": next(rounds)}))
    with pytest.raises(SystemExit, match="different equilibrium outputs"):
        layer_cost.main(["equilibrium", "--rounds", "2"])


@pytest.mark.parametrize("argv", [
    ["import", "--calls", "3"],
    ["xi", "--steps", "3"],
    ["step", "--calls", "3"],
    ["import", "--rounds", "1"],
    ["spectrum", "--calls", "0"],
])
def test_harness_refuses_a_setting_the_layer_cannot_use(argv, capsys):
    # a flag the layer does not read is refused, not ignored
    with pytest.raises(SystemExit) as refused:
        layer_cost.main(argv)
    assert refused.value.code == 2
    assert "error:" in capsys.readouterr().err

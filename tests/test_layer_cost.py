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
     {"run_step_us", "advance_us", "solve_activity_implicit_us",
      "warm_solve_us"},
     {"last_m_p", "warm_solve"}),
    (["steady", "--calls", "1"], {"ms", "profile_us", "evaluation_us"},
     {"evaluations", "values"}),
    (["xi", "--calls", "1"], {"ms"}, {"estimates"}),
    (["equilibrium", "--calls", "1"], {"ms"}, {"M"}),
    (["spectrum", "--calls", "1"], {"ms"},
     {"gap", "evaluations", "calls", "walk", "phases", "newton", "splits"}),
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
        # a compact start, which the density's front spares, and one
        # with full support, which it cannot
        run_step_us = tree["timings"]["run_step_us"]
        assert set(run_step_us) == {"uniform01", "exp2"}
        assert all(set(by_family) == FAMILIES
                   for by_family in run_step_us.values())
        assert set(run_step_us["exp2"]["step"]) == {
            "dirac", "exponential", "gamma"}
        assert set(tree["outputs"]["last_m_p"]) == {"uniform01", "exp2"}
        assert set(tree["timings"]["warm_solve_us"]) == FAMILIES
        assert all(method == "fixed-point" for _, _, method
                   in tree["outputs"]["warm_solve"].values())
    elif layer == "steady":
        assert set(tree["timings"]["ms"]) == {"1000", "10000"}
        assert set(tree["timings"]["profile_us"]) == {"1000", "10000"}
        assert len(tree["timings"]["profile_us"]["1000"]) == 7
        assert set(tree["timings"]["evaluation_us"]) == {"1000", "10000"}
        assert (set(tree["timings"]["evaluation_us"]["10000"])
                == set(tree["timings"]["profile_us"]["10000"]))
        assert set(tree["outputs"]["evaluations"]["1000"]) == {"solve",
                                                               "scan_row"}
    elif layer == "xi":
        assert set(tree["timings"]["ms"]) == {"regime_draw", "defaults"}
    elif layer == "spectrum":
        cases = FAMILIES | {"default", "smooth-10k"}
        assert set(tree["timings"]["ms"]) == cases
        assert set(tree["outputs"]["gap"]) == cases
        assert set(tree["outputs"]["evaluations"]) == cases
        assert set(tree["outputs"]["calls"]) == cases
        walk = tree["outputs"]["walk"]
        assert set(walk) == cases
        assert all(0 < steps["kept"] <= steps["proposed"]
                   for steps in walk.values())
        # every evaluation is made by the count lines or the rectangles
        phases = tree["outputs"]["phases"]
        assert set(phases) == cases
        assert all(set(by_phase) == {"lines", "rectangles"}
                   and min(by_phase.values()) > 0
                   and sum(by_phase.values())
                   == tree["outputs"]["evaluations"][case]
                   for case, by_phase in phases.items())
        # Newton's iteration runs within the rectangles, on every case
        newton, splits = tree["outputs"]["newton"], tree["outputs"]["splits"]
        assert set(newton) == set(splits) == cases
        assert all(0 < newton[case] <= phases[case]["rectangles"]
                   and splits[case] >= 0 for case in cases)
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


_SRC = str(_TOOL.parent.parent / "src")


def test_a_tree_given_twice_is_measured_twice_with_ratios(capsys):
    # the same src twice: both are measured in every round, and the
    # second reports each timing over the first's
    layer_cost.main(["xi", _SRC, _SRC, "--rounds", "2", "--calls", "1"])
    first, second = json.loads(capsys.readouterr().out)["trees"]
    assert first["src"] == second["src"]
    assert first["outputs"] == second["outputs"]
    assert "ratio_to_first" not in first
    ratios = second["ratio_to_first"]
    assert set(ratios) == set(second["timings"]) == {"ms"}
    assert set(ratios["ms"]) == {"regime_draw", "defaults"}
    leaves = list(_leaves(ratios))
    assert len(leaves) == 6
    assert all(len(leaf["by_round"]) == 2 and min(leaf["by_round"]) > 0
               for leaf in leaves)


def test_ratios_pair_the_timings_of_one_round(monkeypatch, capsys):
    # round 0 runs the first tree then the second, round 1 the second
    # then the first; each ratio divides timings of the same round
    times = iter([2.0, 1.0, 6.0, 4.0])
    monkeypatch.setattr(
        layer_cost, "_measure",
        lambda layer, src, settings: ("0", {"ms": {"a": next(times)}},
                                      {"M": 1}))
    layer_cost.main(["equilibrium", _SRC, _SRC, "--rounds", "2"])
    first, second = json.loads(capsys.readouterr().out)["trees"]
    assert first["timings"]["ms"]["a"]["by_round"] == [2.0, 4.0]
    assert second["timings"]["ms"]["a"]["by_round"] == [1.0, 6.0]
    assert second["ratio_to_first"]["ms"]["a"] == {
        "p25": 0.75, "p50": 1.0, "p75": 1.25, "by_round": [0.5, 1.5]}


def test_advance_us_hands_the_kernel_the_tail_that_run_keeps(monkeypatch):
    # the kernel gets the form that run() keeps of the density, the same
    # one on every call: for the constant family a tail cut at cell 0
    # with an empty head, and for the smooth family none at dx 1e-2,
    # where a block would hold one step, and its block at dx 1e-3
    import agenet
    from agenet import evolution
    kernel, tails = evolution._transport, []

    def spy(buf, s, window, total, stepper, m, t, live=None, tail=None):
        tails.append(tail)
        return kernel(buf, s, window, total, stepper, m, t, live, tail)
    monkeypatch.setattr(evolution, "_transport", spy)
    grid = agenet.AgeGrid(dx=1e-2, n_cells=1000)
    values = agenet.preset_density(grid, "exp2").values
    assert layer_cost._advance_us(agenet.ConstantRate(k0=1.0), grid,
                                  values) > 0
    assert len(tails) == 500
    assert tails[0].cut == 0 and tails[0].head == 0.0
    assert all(tail is tails[0] for tail in tails)
    tails.clear()
    smooth = agenet.SmoothSaturatingRate(k0=0.5, k1=2.0, lam=0.6)
    assert layer_cost._advance_us(smooth, grid, values) > 0
    assert tails == [None] * 500
    tails.clear()
    grid = agenet.AgeGrid(dx=1e-3, n_cells=2000)
    values = agenet.preset_density(grid, "uniform01").values
    assert layer_cost._advance_us(smooth, grid, values) > 0
    assert len(tails) == 500 and tails[0].is_block
    assert all(tail is tails[0] for tail in tails)

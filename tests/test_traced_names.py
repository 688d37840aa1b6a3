"""The benchmark's tracer wraps the package's public functions by name and
passes their arguments and results to its counters. A solve under the
tracer fails here when one of those names is gone or its signature no
longer fits, and the tracer must leave every original in place after."""

import importlib
import sys
from pathlib import Path

import aspgraph
from aspgraph import grasp, igasp
from aspgraph.generate import cycle_graph, gen_coloring
from aspgraph.syntax import parse_program

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Span names the tracer opens on 3-coloring of C5: every wrapped name but
# the census, which no solve calls. igasp.validate wraps check_justified,
# which the test calls itself.
SPANS = {
    "graph.build_cnr",
    "graph.cnr_to_dg",
    "cycles.find_virtual_nodes",
    "grasp.find_roots",
    "grasp.fix_root",
    "grasp.break_cycles",
    "grasp.merge",
    "grasp.propagate",
    "igasp.synthesize",
    "igasp.prove",
    "igasp.forward_propagate",
    "igasp.merge",
    "igasp.validate",
    "justify.justify",
    "worlds.copy",
}


def package_functions():
    """Every function-valued global of the package's modules, and World.copy."""
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == "aspgraph" or name.startswith("aspgraph.")
    }
    functions = {
        (name, attr): value
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if callable(value)
    }
    functions["World", "copy"] = aspgraph.worlds.World.copy
    return functions


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    justify = importlib.import_module("aspgraph.justify")
    program = gen_coloring(5, cycle_graph(5))
    before = package_functions()
    tracer = spans.Tracer()
    tracer.install()
    try:
        g, worlds = grasp.solve_grasp_worlds(program)
        assert len(worlds) == 30
        assert len(igasp.solve_igasp(program)) == 30
        # two disconnected even loops and no constraint: two anchors
        anchored = parse_program("p :- not q. q :- not p. r :- not s. s :- not r.")
        assert len(igasp.solve_igasp(anchored)) == 4
        atom = sorted(worlds[0].true_atoms(g))[0]
        justify.justify(g, worlds[0], atom)
        # No solve opens igasp.validate any more: igasp checks its
        # candidates on masks, with no check_justified call.
        assert justify.check_justified(g, worlds[0])
    finally:
        tracer.uninstall()
    assert SPANS <= set(tracer.calls)
    assert tracer.calls["grasp.find_roots"] == 1
    assert tracer.counters["grasp.labelings"] > 0
    assert tracer.counters["igasp.anchors"] == 2
    after = package_functions()
    assert after.keys() == before.keys()
    changed = [key for key, fn in before.items() if after[key] is not fn]
    assert changed == []

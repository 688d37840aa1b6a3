"""Correctness gate: every answer is checked against a reference that the
engine under test did not produce.

* Every returned model must pass the reduct check ``oracle.is_stable``.
* Model counts must equal the workload's closed form where it has one.
* grasp and igasp must return the same model set wherever both run.
* Every grasp world must pass ``check_justified``.
* A justification tree must explain the requested atom as true and render
  one line per tree node.

The functions are bound here at import, before a traced run wraps the
package's module globals, so checking never shows up in the trace.
"""

from __future__ import annotations

from aspgraph.generate import cycle_graph, gen_coloring
from aspgraph.graph import build_cnr, cnr_to_dg
from aspgraph.justify import check_justified, justify, render_text
from aspgraph.oracle import enumerate_stable, is_stable
from aspgraph.worlds import world_from_atoms


class Checker:
    """Checks answers; remembers checks already passed for the same input."""

    def __init__(self):
        self._stable: set[tuple[str, frozenset[str]]] = set()
        self._justified: set[tuple[str, frozenset[str]]] = set()

    def models(self, item, program, models, expected=None) -> str | None:
        """Error text for a wrong model list, None when it is right."""
        if len(set(models)) != len(models):
            return "duplicate models"
        if expected is not None and len(models) != expected:
            return f"{len(models)} models, expected {expected}"
        for model in models:
            key = (item.name, model)
            if key in self._stable:
                continue
            if not is_stable(program, model):
                return f"not a stable model: {sorted(model)}"
            self._stable.add(key)
        return None

    def grasp(self, item, result) -> str | None:
        program, g, worlds, models = result
        error = self.models(item, program, models, item.expected_models)
        if error:
            return error
        for world, model in zip(worlds, models):
            key = (item.name, model)
            if key in self._justified:
                continue
            if not check_justified(g, world):
                return f"grasp world fails check_justified: {sorted(model)}"
            self._justified.add(key)
        return None

    def igasp(self, item, program, models, grasp_models) -> str | None:
        error = self.models(item, program, models, item.expected_models)
        if error:
            return error
        if grasp_models is not None and set(models) != set(grasp_models):
            return "igasp and grasp model sets differ"
        return None

    @staticmethod
    def justification(atom, result) -> str | None:
        tree, text = result
        if tree.node != atom or not tree.value:
            return f"tree root is {tree.node}={tree.value}, expected {atom}=True"
        if not text.startswith(f"{atom} = True"):
            return "rendering does not start with the justified atom"
        if text.count("\n") + 1 != tree_size(tree):
            return "rendering does not have one line per tree node"
        return None

    @staticmethod
    def census(result) -> str | None:
        if len(result) != 3 or any(not isinstance(c, int) or c < 0 for c in result):
            return f"census is not three non-negative counts: {result!r}"
        return None


def tree_size(tree) -> int:
    """Node count of a justification tree, without recursion."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def c3_reference():
    """The 3-coloring of C3 with its item and its 6 models, which come from
    the exhaustive oracle, so they depend on neither engine."""
    from types import SimpleNamespace

    program = gen_coloring(3, cycle_graph(3))
    item = SimpleNamespace(name="self-test", expected_models=2**3 - 2)
    return item, program, enumerate_stable(program)


def self_test() -> list[str]:
    """Hand the checker wrong answers and return what it failed to flag."""
    item, program, right = c3_reference()
    non_model = frozenset(sorted(program.atoms)[:2])
    cases = {
        "right set": (right, right, False),
        "model dropped": (right[1:], right[1:], True),
        "non-model added": (right[1:] + [non_model], right[1:] + [non_model], True),
        "duplicate model": (right[1:] + right[:1] * 2, right, True),
        "engines disagree": (right, right[1:] + [right[0] | {"extra"}], True),
    }
    missed = []
    for name, (models, grasp_models, wrong) in cases.items():
        error = Checker().igasp(item, program, models, grasp_models)
        if (error is not None) != wrong:
            missed.append(f"{name}: checker said {error!r}")

    g = cnr_to_dg(build_cnr(program))
    worlds = [world_from_atoms(g, model) for model in right]
    true_atom, false_atom = min(right[0]), min(set(program.atoms) - right[0])
    unjustified = worlds[0].copy()
    unjustified.values[false_atom] = True
    tree = justify(g, worlds[0], true_atom)
    text = render_text(tree)
    # Renderings that read right for false_atom, so only the root check can
    # flag the trees.
    false_tree = justify(g, worlds[0], false_atom)
    false_text = render_text(false_tree).replace(f"{false_atom} = False", f"{false_atom} = True", 1)
    cases = {
        "justified worlds": (Checker().grasp(item, (program, g, worlds, right)), False),
        "unjustified world": (
            Checker().grasp(item, (program, g, [unjustified] + worlds[1:], right)),
            True,
        ),
        "right justification": (Checker.justification(true_atom, (tree, text)), False),
        "justification of a false atom": (
            Checker.justification(false_atom, (false_tree, false_text)),
            True,
        ),
        "justification of another atom": (
            Checker.justification(false_atom, (tree, text.replace(true_atom, false_atom, 1))),
            True,
        ),
        "rendering short of a line": (
            Checker.justification(true_atom, (tree, text.rsplit("\n", 1)[0])),
            True,
        ),
    }
    for name, (error, wrong) in cases.items():
        if (error is not None) != wrong:
            missed.append(f"{name}: checker said {error!r}")
    return missed

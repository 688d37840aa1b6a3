"""Truth assignments over dependency-graph nodes.

A World is a (possibly partial) assignment node -> True/False, together
with a flag that marks it inconsistent. Nodes without a value are unfixed.

Worlds are keyed by node name everywhere but inside grasp, where nodes are
numbers: a world being solved holds a list with one entry per node, None
while the node is unfixed (a third of the size of a dict with int keys, and
faster to copy), and a component's labeling is a plain dict from member
number to value. grasp decodes the worlds it returns to names once, at the
end.
"""

from __future__ import annotations

from .graph import DepGraph


class World:
    """A mutable assignment and its consistency flag; equal when both are,
    and unhashable."""

    __slots__ = ("values", "consistent")

    def __init__(
        self, values: dict[str, bool] | list[bool | None] | None = None, consistent: bool = True
    ):
        self.values = {} if values is None else values
        self.consistent = consistent

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.values, self.consistent) == (other.values, other.consistent)
        return NotImplemented

    def __repr__(self) -> str:
        return f"World(values={self.values!r}, consistent={self.consistent!r})"

    def value(self, node: str) -> bool | None:
        require_named(self)
        return self.values.get(node)

    def copy(self) -> World:
        return World(self.values.copy(), self.consistent)

    def true_atoms(self, g: DepGraph) -> frozenset[str]:
        """The graph's True atoms, which are its first atom_count nodes."""
        require_named(self)
        values = self.values
        return frozenset(n for n in g.names[: g.atom_count] if values.get(n))

    def is_complete(self, g: DepGraph) -> bool:
        require_named(self)
        return self.values.keys() >= g.number.keys()


def require_named(w: World) -> None:
    """Reject a world over node numbers where a name-keyed one is needed."""
    if not isinstance(w.values, dict):
        raise TypeError("world must be keyed by node name, not by node number")


def initial_world(g: DepGraph) -> World:
    """World over node numbers holding just the graph's fixed values (facts
    and constraints): values[i] is node i's value, None while unfixed."""
    values: list[bool | None] = [None] * len(g.names)
    for node, value in g.fixed_nodes.items():
        values[node] = value
    return World(values)


def world_from_atoms(g: DepGraph, true_atoms) -> World:
    """Total world induced by an atom assignment.

    Atoms among true_atoms are True, every other node starts False; names
    that are not atoms of the graph are ignored. Conjunction nodes take the
    negation of their body's value (the transformed-graph reading);
    constraint nodes stay False. After the flip a conjunction node is True
    when any of its in-edges is effective (a positive edge from a True node
    or a negative edge from a False one); before it, when all of them are.
    """
    names, number, atom_count = g.names, g.number, g.atom_count
    values = [False] * len(names)
    for name in true_atoms:
        node = number.get(name)
        if node is not None and node < atom_count:
            values[node] = True
    pred, conj, flipped = g.pred, g.conj, g.transformed
    for node in range(atom_count, len(names)):
        if conj[node]:
            # Its in-edges come from atoms, decided above. The first
            # effective one decides it after the flip, the first
            # ineffective one before it.
            for e in pred[node]:
                if (values[e >> 1] == e & 1) == flipped:
                    values[node] = flipped
                    break
            else:
                values[node] = not flipped
    return World(dict(zip(names, values)))

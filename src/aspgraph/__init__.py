"""aspgraph: a graph-based answer set solver with causal justifications.

Programs become dependency graphs with explicit conjunction nodes; answer
sets are computed bottom-up (grasp) along the SCC condensation or top-down
(igasp) from constraint nodes, and every derived atom can be explained by a
tree of effective edges.
"""

__version__ = "0.1.0"

from .cycles import (
    CycleExplosionError,
    VirtualNode,
    cycle_stats,
    find_virtual_nodes,
)
from .generate import ConfigError, GenConfig, gen_classic, gen_random
from .graph import (
    DepGraph,
    DoubleTransformError,
    Edge,
    NodeKind,
    Sign,
    atoms_of,
    build_cnr,
    cnr_to_dg,
    export_dot,
    graph_to_json,
)
from .grasp import solve_grasp
from .igasp import QueryAtomUnknown, solve_igasp, solve_query
from .justify import (
    AtomUnknown,
    JustificationTree,
    WorldIncomplete,
    check_justified,
    justify,
)
from .oracle import TooManyAtoms, enumerate_stable, least_model, reduct
from .syntax import (
    EmptyConstraintError,
    Literal,
    ParseError,
    Program,
    Rule,
    parse_program,
    print_program,
)
from .worlds import World, world_from_atoms

__all__ = [
    "AtomUnknown",
    "ConfigError",
    "CycleExplosionError",
    "DepGraph",
    "DoubleTransformError",
    "Edge",
    "EmptyConstraintError",
    "GenConfig",
    "JustificationTree",
    "Literal",
    "NodeKind",
    "ParseError",
    "Program",
    "QueryAtomUnknown",
    "Rule",
    "Sign",
    "TooManyAtoms",
    "VirtualNode",
    "World",
    "WorldIncomplete",
    "atoms_of",
    "build_cnr",
    "check_justified",
    "cnr_to_dg",
    "cycle_stats",
    "enumerate_stable",
    "export_dot",
    "find_virtual_nodes",
    "gen_classic",
    "gen_random",
    "graph_to_json",
    "justify",
    "least_model",
    "parse_program",
    "print_program",
    "reduct",
    "solve_grasp",
    "solve_igasp",
    "solve_query",
    "world_from_atoms",
]

"""Command line interface: solve, query, justify, gen, graph, bench."""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .cycles import (
    CycleCapError,
    CycleExplosionError,
    cycle_stats,
    cycle_stats_json,
    default_cycle_cap,
)
from .generate import (
    ConfigError,
    GenConfig,
    complete_graph,
    cycle_graph,
    gen_coloring,
    gen_hamiltonian,
    gen_random,
    render_with_header,
)
from .graph import build_cnr, cnr_to_dg, export_dot, graph_to_json
from .grasp import solve_grasp, solve_grasp_worlds
from .igasp import QueryAtomUnknown, solve_igasp, solve_query
from .justify import AtomUnknown, atom_node, export_dot_world, justify, render_text, tree_to_json
from .oracle import enumerate_stable
from .syntax import ParseError, Program, parse_program

EXIT_MODELS = 0
EXIT_NO_MODELS = 1
EXIT_ERROR = 2

# The largest bench --timeout, in seconds: multiprocessing.connection.wait
# polls in int32 milliseconds.
MAX_TIMEOUT = 2147483

SOLVERS = {
    "grasp": solve_grasp,
    "igasp": solve_igasp,
    "oracle": enumerate_stable,
}


def _load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_program(handle.read())


def _format_model(model: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(model)) + "}"


def _models_json(models: list[frozenset[str]], **extra) -> str:
    import json

    doc = {"answer_sets": [sorted(m) for m in models], "count": len(models)}
    doc.update(extra)
    return json.dumps(doc)


def _print_models(models: list[frozenset[str]], as_json: bool, **extra) -> None:
    if as_json:
        print(_models_json(models, **extra))
    else:
        for model in models:
            print(_format_model(model))


def cmd_solve(args) -> int:
    if args.max_models is not None and args.max_models < 1:
        print(f"--max-models must be at least 1, got {args.max_models}", file=sys.stderr)
        return EXIT_ERROR
    program = _load_program(args.file)
    models = SOLVERS[args.solver](program)
    if args.max_models is not None:
        models = models[: args.max_models]
    _print_models(models, args.json, solver=args.solver)
    return EXIT_MODELS if models else EXIT_NO_MODELS


def cmd_query(args) -> int:
    program = _load_program(args.file)
    models = solve_query(program, args.atom, positive=not args.negative)
    _print_models(models, args.json, query=args.atom, holds_in=len(models))
    return EXIT_MODELS if models else EXIT_NO_MODELS


def cmd_justify(args) -> int:
    program = _load_program(args.file)
    graph, worlds = solve_grasp_worlds(program)
    if not worlds:
        print("no answer sets", file=sys.stderr)
        return EXIT_NO_MODELS
    if not 0 <= args.model_index < len(worlds):
        print(
            f"model index {args.model_index} out of range (have {len(worlds)})",
            file=sys.stderr,
        )
        return EXIT_ERROR
    world = worlds[args.model_index]
    if args.format == "dot":  # the whole valued graph: no tree to build
        atom_node(graph, args.atom)
        print(export_dot_world(graph, world))
    elif args.format == "json":
        import json

        print(json.dumps(tree_to_json(justify(graph, world, args.atom))))
    else:
        print(render_text(justify(graph, world, args.atom)))
    return EXIT_MODELS


def cmd_gen(args) -> int:
    if args.problem == "random":
        config = GenConfig(
            num_atoms=args.atoms,
            num_rules=args.rules,
            max_body_len=args.max_body_len,
            naf_probability=args.naf,
            constraint_fraction=args.constraints,
            seed=args.seed,
        )
        text = render_with_header(config, gen_random(config))
    elif args.problem == "coloring":
        shape = args.graph or "cycle"
        edges = complete_graph(args.nodes) if shape == "complete" else cycle_graph(args.nodes)
        text = str(gen_coloring(args.nodes, edges, args.colors))
    else:
        shape = args.graph or "complete"
        if shape == "complete":
            arcs = None
        else:  # ring digraph: the cycle's edges in both directions
            arcs = [(u, v) for u, v in cycle_graph(args.nodes)]
            arcs += [(v, u) for u, v in cycle_graph(args.nodes)]
        text = str(gen_hamiltonian(args.nodes, arcs))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_MODELS


def cmd_graph(args) -> int:
    program = _load_program(args.file)
    g = build_cnr(program)
    if args.stage == "dg":
        g = cnr_to_dg(g)
    if args.format == "dot":
        print(export_dot(g))
    else:
        import json

        print(json.dumps(cycle_stats_json(g) if args.format == "stats" else graph_to_json(g)))
    return EXIT_MODELS


class SolverFailed(RuntimeError):
    """A bench child's solver raised; the message names the error."""


def _bench_worker(text: str, solver: str, conn) -> None:
    """Parse and solve in the child, timed there, so the reported time
    leaves out process start-up and the pickling of the result."""
    start = time.perf_counter()
    try:
        models = SOLVERS[solver](parse_program(text))
        elapsed = time.perf_counter() - start
    except Exception as err:
        conn.send(("error", f"{type(err).__name__}: {err}"))
    else:
        conn.send(("models", (elapsed, [sorted(m) for m in models])))


def _run_with_timeout(text: str, solver: str, timeout: float):
    """(seconds, models): the child's parse and solve time and its answer
    sets, or (None, None) when the solver ran out of the timeout, which is
    on wall time. An exception the solver raised, or a solver process that
    exited without a result, comes back as SolverFailed.

    The result is read before the child is joined: a child blocks on a
    result larger than the pipe buffer until it is read. multiprocessing is
    loaded here, as bench alone starts child processes."""
    import multiprocessing
    import multiprocessing.connection

    receiver, sender = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_bench_worker, args=(text, solver, sender))
    proc.start()
    sender.close()
    result = None
    exited = False
    if multiprocessing.connection.wait([receiver, proc.sentinel], timeout):
        try:
            result = receiver.recv()
        except EOFError:  # the child exited without a result
            exited = True
    if result is None and not exited:
        proc.terminate()
    proc.join()
    receiver.close()
    if exited:
        raise SolverFailed(f"the solver process exited with code {proc.exitcode} and no result")
    if result is None:
        return None, None
    kind, payload = result
    if kind == "error":
        raise SolverFailed(payload)
    return payload


def _bench_config(args) -> GenConfig:
    if args.gen_config:
        import json

        with open(args.gen_config, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{args.gen_config}: not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.gen_config}: the config must be a JSON object")
        for key in doc:
            if key not in GenConfig.__slots__:
                raise ConfigError(f"{args.gen_config}: unknown config key {key!r}")
        for key in ("num_atoms", "num_rules"):
            if key not in doc:
                raise ConfigError(f"{args.gen_config}: missing config key {key!r}")
        return GenConfig(**doc)
    return GenConfig(
        num_atoms=300,
        num_rules=300,
        max_body_len=3,
        naf_probability=0.5,
        constraint_fraction=0.05,
        seed=20210707,
    )


def cmd_bench(args) -> int:
    rounds, per_round = args.rounds, args.programs_per_round
    for flag, value, ok, bound in (
        ("--rounds", rounds, rounds >= 1, "at least 1"),
        ("--programs-per-round", per_round, per_round >= 1, "at least 1"),
        ("--timeout", args.timeout, 0 < args.timeout <= MAX_TIMEOUT, f"in (0, {MAX_TIMEOUT}]"),
    ):
        if not ok:
            print(f"{flag} must be {bound}, got {value}", file=sys.stderr)
            return EXIT_ERROR
    base = _bench_config(args)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    unknown = [s for s in solvers if s not in SOLVERS]
    if unknown:
        print(f"unknown solver(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_ERROR
    rows = []
    for round_no in range(1, args.rounds + 1):
        rules_total = 0
        even_total = 0
        odd_total = 0
        overflow = 0
        times: dict[str, list[float]] = {s: [] for s in solvers}
        timeouts: dict[str, int] = {s: 0 for s in solvers}
        for index in range(args.programs_per_round):
            seed = base.seed + (round_no - 1) * args.programs_per_round + index
            program = gen_random(base.replace(seed=seed))
            text = str(program)
            rules_total += len(program.rules)
            try:
                stats = cycle_stats(cnr_to_dg(build_cnr(program)))
                even_total += stats[0]
                odd_total += stats[1]
            except CycleExplosionError:
                overflow += 1
            results = {}
            for solver in solvers:
                try:
                    elapsed, models = _run_with_timeout(text, solver, args.timeout)
                except SolverFailed as err:
                    print(
                        f"solver {solver} failed on round {round_no} program {index}: "
                        f"{err}",
                        file=sys.stderr,
                    )
                    return EXIT_ERROR
                if models is None:
                    timeouts[solver] += 1
                else:
                    times[solver].append(elapsed)
                    results[solver] = models
            finished = sorted(results)
            for a, b in zip(finished, finished[1:]):
                if results[a] != results[b]:
                    print(
                        f"solver mismatch on round {round_no} program {index}: "
                        f"{a} vs {b}",
                        file=sys.stderr,
                    )
                    return EXIT_ERROR
        row = {
            "round": round_no,
            "rules": rules_total // args.programs_per_round,
            "even_cycles": even_total,
            "odd_cycles": odd_total,
            "cycle_overflows": overflow,
        }
        for solver in solvers:
            mean = sum(times[solver]) / len(times[solver]) if times[solver] else None
            row[f"{solver}_seconds"] = mean
            row[f"{solver}_timeouts"] = timeouts[solver]
        rows.append(row)
    if args.json:
        import json

        print(json.dumps({"rows": rows, "cycle_cap": default_cycle_cap()}))
    else:
        headers = ["Round", "#Rules", "#EC", "#OC", "#Overflow"]
        headers += [f"{s}(s)" for s in solvers] + [f"{s} timeouts" for s in solvers]
        print("\t".join(headers))
        for row in rows:
            cells = [
                str(row["round"]),
                str(row["rules"]),
                str(row["even_cycles"]),
                str(row["odd_cycles"]),
                str(row["cycle_overflows"]),
            ]
            for solver in solvers:
                mean = row[f"{solver}_seconds"]
                cells.append("-" if mean is None else f"{mean:.3f}")
            for solver in solvers:
                cells.append(str(row[f"{solver}_timeouts"]))
            print("\t".join(cells))
    return EXIT_MODELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspgraph",
        description="Graph-based answer set solver with causal justifications",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute answer sets of a program file")
    solve.add_argument("file")
    solve.add_argument("--solver", choices=sorted(SOLVERS), default="grasp")
    solve.add_argument("--json", action="store_true")
    solve.add_argument(
        "--max-models",
        type=int,
        default=None,
        metavar="N",
        help="print at most N models; the cap trims the output after a full search "
        "and saves no solving time",
    )
    solve.set_defaults(func=cmd_solve)

    query = sub.add_parser("query", help="models containing (or excluding) an atom")
    query.add_argument("file")
    query.add_argument("atom")
    query.add_argument("--negative", action="store_true")
    query.add_argument("--json", action="store_true")
    query.set_defaults(func=cmd_query)

    justify_cmd = sub.add_parser("justify", help="justification tree for an atom")
    justify_cmd.add_argument("file")
    justify_cmd.add_argument("atom")
    justify_cmd.add_argument("--model-index", type=int, default=0)
    justify_cmd.add_argument("--format", choices=["text", "json", "dot"], default="text")
    justify_cmd.set_defaults(func=cmd_justify)

    gen = sub.add_parser("gen", help="generate a program")
    gen.add_argument("--problem", choices=["random", "coloring", "hamiltonian"], default="random")
    gen.add_argument("--atoms", type=int, default=10)
    gen.add_argument("--rules", type=int, default=20)
    gen.add_argument("--max-body-len", type=int, default=3)
    gen.add_argument("--naf", type=float, default=0.5)
    gen.add_argument("--constraints", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nodes", type=int, default=4)
    gen.add_argument("--colors", type=int, default=3)
    gen.add_argument(
        "--graph",
        choices=["cycle", "complete"],
        default=None,
        help="instance shape (default: cycle for coloring, complete for hamiltonian)",
    )
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)

    graph_cmd = sub.add_parser("graph", help="export the dependency graph")
    graph_cmd.add_argument("file")
    graph_cmd.add_argument("--stage", choices=["cnr", "dg"], default="dg")
    graph_cmd.add_argument("--format", choices=["dot", "json", "stats"], default="dot")
    graph_cmd.set_defaults(func=cmd_graph)

    bench = sub.add_parser("bench", help="random-program benchmark table")
    bench.add_argument("--rounds", type=int, default=5)
    bench.add_argument("--programs-per-round", type=int, default=20)
    bench.add_argument("--gen-config", default=None)
    bench.add_argument("--solvers", default="grasp")
    bench.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help=f"wall-time limit in seconds per solve, at most {MAX_TIMEOUT} (default 10); "
        "the cycle census runs without one, until the cycle cap stops it",
    )
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error at {err}", file=sys.stderr)
        return EXIT_ERROR
    except (
        AtomUnknown,
        QueryAtomUnknown,
        ConfigError,
        CycleCapError,
        CycleExplosionError,
    ) as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print(
            f"recursion limit hit ({sys.getrecursionlimit()} frames): "
            "the input is nested too deeply",
            file=sys.stderr,
        )
        return EXIT_ERROR
    except Exception as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

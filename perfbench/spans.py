"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` replaces the package's public functions, wherever a
module global or class attribute of ``aspgraph`` holds them, with wrappers
that open a span around each call; ``uninstall`` puts the originals back.
Nothing in ``src/`` changes. A span is (name, start, end, parent, op id);
self time is a span's duration minus the time its child spans cover, and is
accumulated as spans close, so the per-layer figures are exact even when
the span log itself is capped.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from check import tree_size

# Spans kept in memory for the trace file; later ones still count in the
# per-layer totals. Keeps memory bounded on workloads with millions of
# World.copy and propagate calls.
SPAN_LOG_CAP = 200_000


class NullTracer:
    """Stands in for the tracer in the untraced run: no spans, no cost."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass

    @contextmanager
    def op(self, kind, label):
        yield


class Tracer:
    """Spans, per-layer self times and counters of the traced pass."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.spans: list[tuple[str, float, float, int, int]] = []
        # op label -> span name -> self time, for every op
        self.by_op: dict[str, Counter[str]] = {}
        self._op_self: Counter[str] = Counter()
        self.dropped = 0
        # open spans: [name, start, child time, index in self.spans or -1]
        self._stack: list[list] = []
        self._op_id = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, -1])

    def _end(self) -> None:
        end = time.perf_counter()
        name, start, child, _ = frame = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self._op_self[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_LOG_CAP:
            frame[3] = len(self.spans)
            parent_index = parent[3] if parent is not None else -1
            self.spans.append((name, start, end, parent_index, self._op_id))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    @contextmanager
    def op(self, kind: str, label: str):
        """Root span of one benchmark op; children get its op id."""
        self._op_id += 1
        self._op_self = self.by_op.setdefault(label, Counter())
        depth = len(self._stack)
        self._begin(f"op.{kind}")
        try:
            yield
        finally:
            # A deadline can interrupt a wrapper between opening and closing
            # its span; close whatever the op left open.
            while len(self._stack) > depth:
                self._end()

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def totals(self) -> dict[str, float]:
        """Self time, call count and counters of every span name."""
        totals = {f"{name}_s": value for name, value in self.self_s.items()}
        totals.update({f"{name}.calls": value for name, value in self.calls.items()})
        totals.update(self.counters)
        totals.update(self.maxima)
        return totals

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, on_result=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._end()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._end()
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the package's public functions in spans and counters."""
        from aspgraph import cycles, graph, grasp, igasp, worlds
        from aspgraph.cycles import CycleExplosionError

        # The package re-exports the function justify under the submodule's name.
        justify = importlib.import_module("aspgraph.justify")

        count = self.count

        def on_graph(g, args):
            count("graph.build_calls")
            count("graph.nodes", len(g.nodes))
            count("graph.edges", len(g.edges))

        def on_virtual(virtual, args):
            count("cycles.virtual_nodes", len(virtual))
            for v in virtual:
                self.maxima["cycles.max_scc_size"] = max(
                    self.maxima["cycles.max_scc_size"], len(v.members)
                )

        def on_census(stats, args):
            count("cycles.cycles_counted", sum(stats))

        def on_census_error(exc):
            if isinstance(exc, CycleExplosionError):
                count("cycles.cap_overflows")

        def on_copy(world, args):
            if self.parent_name() == "grasp.merge":
                count("grasp.merge_pairs")

        def on_merge(merged, args):
            if len(args[0]) >= 2:
                count("grasp.merge_out", len(merged))

        def on_propagate(world, args):
            if not world.consistent:
                count("grasp.worlds_killed")

        def on_break(worlds_out, args):
            count("grasp.labelings", len(worlds_out))

        def on_validate(ok, args):
            count("igasp.candidates")
            count("igasp.answer_sets", bool(ok))

        def on_forward(model, args):
            if model is None:
                count("igasp.forward_rejects")

        def on_igasp_merge(models, args):
            count("igasp.merge_out", len(models))

        def on_synthesize(rules, args):
            count("igasp.anchors", sum(1 for r in rules if len(r.body) == 2))

        def on_justify(tree, args):
            count("justify.tree_nodes", tree_size(tree))

        def on_justify_error(exc):
            if isinstance(exc, RecursionError):
                count("justify.recursion_errors")

        targets = [
            (graph.build_cnr, "graph.build_cnr", on_graph, None),
            (graph.cnr_to_dg, "graph.cnr_to_dg", None, None),
            (cycles.find_virtual_nodes, "cycles.find_virtual_nodes", on_virtual, None),
            (cycles.cycle_stats, "cycles.census", on_census, on_census_error),
            (grasp.find_roots, "grasp.find_roots", None, None),
            (grasp.fix_root, "grasp.fix_root", None, None),
            (grasp.break_cycles, "grasp.break_cycles", on_break, None),
            (grasp.merge_root_worlds, "grasp.merge", on_merge, None),
            (grasp.propagate, "grasp.propagate", on_propagate, None),
            (igasp.synthesized_constraints, "igasp.synthesize", on_synthesize, None),
            (igasp.prove, "igasp.prove", None, None),
            (igasp.forward_propagate, "igasp.forward_propagate", on_forward, None),
            (igasp.merge_conjunctive, "igasp.merge", on_igasp_merge, None),
            (justify.check_justified, "igasp.validate", on_validate, None),
            (justify.justify, "justify.justify", on_justify, on_justify_error),
        ]
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "aspgraph" or name.startswith("aspgraph.")
        ]
        for fn, name, on_result, on_error in targets:
            wrapper = self._wrap(fn, name, on_result, on_error)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._installed.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        self._installed.append((worlds.World, "copy", worlds.World.copy))
        worlds.World.copy = self._wrap(worlds.World.copy, "worlds.copy", on_copy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Span log as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
            if self.dropped:
                out.write(f"# {self.dropped} later spans counted but not logged\n")

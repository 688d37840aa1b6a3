"""aspgraph benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload classic --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 7            # all three workloads in one process

The package is imported from ``src/`` of the same checkout. Each workload
is generated from ``--seed`` during set-up; the timed region then runs the
workload's fixed program set in passes until ``--seconds`` are used (at
least MIN_PASSES). Every op runs under a deadline, its time is scaled to a
reference speed (speed.py), and its answer is checked outside the timed
region (check.py). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
adds one pass with the package's public functions wrapped in spans
(spans.py) and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object; the lines before it give
every metric by name and unit. Details go to ``perfbench/out/``. The exit
code is 1 when an answer is wrong, or when the correctness gate, tested
with wrong answers at every start, fails to flag one. See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Per-op deadline, in seconds at reference speed (see speed.py). The slowest
# op at the baseline that is meant to finish (igasp on Hamiltonian K4) takes
# about 7 s, so 20 s stays well clear of it. An interval timer stops an op
# after WALL_LIMIT_S of wall time; an op that ends sooner but took more than
# DEADLINE_S at reference speed fails too, so that whether an op fails does
# not depend on how slow the machine happened to be.
DEADLINE_S = 20.0
WALL_LIMIT_S = 1.5 * DEADLINE_S
SETUP_REPEATS = 5
# An op's latency is its median over at least this many passes.
MIN_PASSES = 2

# Call counts of a span, under the names the metrics use.
CALL_METRICS = {
    "graph.build_cnr.calls": None,  # counted as graph.build_calls
    "grasp.find_roots.calls": "grasp.find_roots_calls",
    "worlds.copy.calls": "worlds.copies",
    "grasp.propagate.calls": "grasp.propagate_calls",
    "igasp.prove.calls": "igasp.prove_calls",
    "igasp.forward_propagate.calls": "igasp.forward_propagate_calls",
    "justify.justify.calls": "justify.requests",
}

# Op kind -> metric prefix.
OP_METRIC = {
    "grasp": "grasp_solve",
    "igasp": "igasp_solve",
    "justify": "justify",
    "census": "census",
}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_yield", "_slowdown")):
        return "ratio"
    return "count"


def import_package():
    """Import aspgraph from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "aspgraph", "__init__.py")):
        raise SystemExit(f"aspgraph sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import aspgraph

    if os.path.dirname(os.path.dirname(os.path.abspath(aspgraph.__file__))) != SRC:
        raise SystemExit(f"imported aspgraph from {aspgraph.__file__}, not {SRC}")


import_package()

from aspgraph import cycles, grasp, graph, igasp, syntax  # noqa: E402
from aspgraph.cycles import CycleExplosionError  # noqa: E402

# The package re-exports the function justify under the submodule's name.
justify = importlib.import_module("aspgraph.justify")

import check  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402

# Bound before a traced run wraps the module global.
PARSE = syntax.parse_program


class Deadline(Exception):
    """The op ran past WALL_LIMIT_S."""


def _on_alarm(signum, frame):
    raise Deadline()


# -- ops: each calls the package through module attributes, so the traced run
# sees the same calls through its wrappers.


def grasp_op(tracer, text):
    with tracer.span("syntax.parse"):
        program = syntax.parse_program(text)
    tracer.count("syntax.rules", len(program.rules))
    g, worlds = grasp.solve_grasp_worlds(program)
    return program, g, worlds, [w.true_atoms(g) for w in worlds]


def igasp_op(tracer, text):
    with tracer.span("syntax.parse"):
        program = syntax.parse_program(text)
    tracer.count("syntax.rules", len(program.rules))
    return program, igasp.solve_igasp(program)


def justify_op(tracer, g, world, atom):
    tree = justify.justify(g, world, atom)
    with tracer.span("justify.render"):
        text = justify.render_text(tree)
    return tree, text


def census_op(tracer, program):
    return cycles.cycle_stats(graph.cnr_to_dg(graph.build_cnr(program)))


class OpLog:
    """Latencies of every op of a workload over the passes of one phase.

    An op is keyed by (program, kind, detail). An op that fails in any pass
    (deadline, exception or wrong answer) is a failed op and counts at the
    deadline in the latencies.
    """

    def __init__(self, speed: Speedometer):
        self.speed = speed
        # op key -> (start, end, probe time inside) of each execution
        self.times: dict[tuple, list[tuple[float, float, float]]] = {}
        self.failed: dict[tuple, str] = {}
        self.wrong: list[str] = []
        self.check_s: list[float] = []

    @property
    def passes(self) -> int:
        return len(self.check_s)

    def op(self, tracer, key, check_result, fn, *args):
        """Run one op under the deadline; its result, or None if it failed.

        The recursion limit is restored after every op, because solve_igasp
        raises it for the whole process and would hide later failures.
        """
        kind = key[1]
        times = self.times.setdefault(key, [])
        limit = sys.getrecursionlimit()
        failure = None
        result = None
        probe_s = self.speed.probe_s
        with tracer.op(kind, "/".join(key)):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
            try:
                result = fn(tracer, *args)
            except Deadline:
                failure = "timeout"
            except RecursionError:
                failure = "recursion_error"
            except CycleExplosionError:
                failure = "cycle_cap"
            except Exception:
                failure = "exception"
                print(f"{kind} op on {key[0]} raised:", file=sys.stderr)
                traceback.print_exc(limit=-3, file=sys.stderr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        probe_s = self.speed.probe_s - probe_s
        if failure is None and (end - start - probe_s) * self.speed.scale(start, end) > DEADLINE_S:
            failure = "timeout"
        if sys.getrecursionlimit() != limit:
            tracer.count(f"{kind}.recursionlimit_raised")
            sys.setrecursionlimit(limit)
        if failure is None:
            check_start = time.perf_counter()
            error = check_result(result)
            self.check_s[-1] += time.perf_counter() - check_start
            if error is not None:
                failure = "wrong"
                self.wrong.append(f"{kind} on {key[0]}: {error}")
        if failure is not None:
            self.failed.setdefault(key, failure)
            return None
        times.append((start, end, probe_s))
        return result

    def latencies(self, kind: str, first_pass=False, raw=False) -> list[float]:
        """One latency per op of the kind: the median over the passes (or the
        first pass) of its time scaled to the reference speed (or as
        measured)."""
        result = []
        for key, times in self.times.items():
            if key[1] != kind:
                continue
            if key in self.failed:
                result.append(DEADLINE_S)
                continue
            if first_pass:
                times = times[:1]
            result.append(
                statistics.median(
                    (end - start - probe) * (1.0 if raw else self.speed.scale(start, end))
                    for start, end, probe in times
                )
            )
        return result


def run_pass(items, tracer, checker, log: OpLog) -> None:
    """Every op of the program set once; the census only in the first pass.

    The census is in no bounded metric, and its long tail would otherwise
    take most of the run and leave the grasp ops too few repetitions.
    """
    first = not log.passes
    log.check_s.append(0.0)
    for item in items:
        solved = log.op(
            tracer,
            (item.name, "grasp", ""),
            lambda r: checker.grasp(item, r),
            grasp_op,
            item.text,
        )
        grasp_models = solved[3] if solved else None
        if item.igasp:
            log.op(
                tracer,
                (item.name, "igasp", ""),
                lambda r: checker.igasp(item, r[0], r[1], grasp_models),
                igasp_op,
                item.text,
            )
        if item.justify and solved:
            _, g, worlds, models = solved
            for number, (world, model) in enumerate(zip(worlds, models)):
                atoms = sorted(model) if item.justify == "all" else [item.justify]
                for atom in atoms:
                    log.op(
                        tracer,
                        (item.name, "justify", f"{number}:{atom}"),
                        lambda r: checker.justification(atom, r),
                        justify_op,
                        g,
                        world,
                        atom,
                    )
        if item.census and first:
            program = solved[0] if solved else PARSE(item.text)
            log.op(tracer, (item.name, "census", ""), checker.census, census_op, program)


def run_passes(items, checker, speed, seconds) -> OpLog:
    """At least MIN_PASSES untraced passes, and more until seconds have elapsed."""
    tracer = NullTracer()
    log = OpLog(speed)
    start = time.perf_counter()
    while log.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run_pass(items, tracer, checker, log)
    return log


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(log: OpLog, first_pass: bool = False) -> dict[str, float]:
    """Per op kind: the sum over the program set, and percentiles over ops."""
    metrics: dict[str, float] = {}
    for kind, prefix in OP_METRIC.items():
        samples = log.latencies(kind, first_pass)
        if not samples:
            continue
        metrics[f"{prefix}_s"] = sum(samples)
        metrics[f"{prefix}_p50_ms"] = statistics.median(samples) * 1000
        if kind in ("grasp", "census") and len(samples) >= 100:
            metrics[f"{prefix}_p90_ms"] = statistics.quantiles(samples, n=10)[-1] * 1000
        metrics[f"{prefix}_n"] = len(samples)
        metrics[f"{prefix}_raw_s"] = sum(log.latencies(kind, first_pass, raw=True))
    metrics["solve_s"] = sum(log.latencies("grasp", first_pass)) + sum(
        log.latencies("igasp", first_pass)
    )
    return metrics


def per_layer(layers: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the tracer's totals of the traced pass."""
    metrics: dict[str, float] = {}
    for name, value in layers.items():
        if name.endswith(".calls"):
            name = CALL_METRICS.get(name, name)
            if name is None:
                continue
        elif name.startswith("op.") and name.endswith("_s"):
            name = name[: -len("_s")] + "_self_s"
        metrics[name] = value
    pairs = metrics.get("grasp.merge_pairs", 0)
    metrics["grasp.merge_yield"] = metrics.get("grasp.merge_out", 0) / pairs if pairs else 0.0
    candidates = metrics.get("igasp.candidates", 0)
    metrics["igasp.validate_yield"] = (
        metrics.get("igasp.answer_sets", 0) / candidates if candidates else 0.0
    )
    return metrics


def measure_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "start = time.perf_counter()\n"
        "import aspgraph\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


WARM_UP_TEXT = "p :- not q. q :- not p. r :- p. :- r, q.\n"


def warm_up() -> None:
    """One untimed op of every kind on a tiny program."""
    tracer = NullTracer()
    program, g, worlds, models = grasp_op(tracer, WARM_UP_TEXT)
    igasp_op(tracer, WARM_UP_TEXT)
    justify_op(tracer, g, worlds[0], sorted(models[0])[0])
    census_op(tracer, program)


def set_up(name: str, seed: int, speed: Speedometer):
    """Generate the workload and warm up, SETUP_REPEATS times; setup_s is
    the median of import time plus generation and warm-up, each scaled to
    the reference speed."""
    totals = []
    raw = []
    for _ in range(SETUP_REPEATS):
        import_s = measure_import_s()
        speed.sample()
        probe_s = speed.probe_s
        start = time.perf_counter()
        items = workloads.WORKLOADS[name](seed)
        warm_up()
        end = time.perf_counter()
        raw.append(import_s + end - start - (speed.probe_s - probe_s))
        speed.sample()
        totals.append(raw[-1] * speed.scale(start, end))
    return items, statistics.median(totals), statistics.median(raw)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    with Speedometer() as speed:
        return measure(name, seed, seconds, traced, speed)


def measure(name, seed, seconds, traced, speed) -> dict:
    items, setup_s, setup_raw_s = set_up(name, seed, speed)
    checker = check.Checker()
    if traced:
        # Untraced passes, then one traced pass over every op; the overhead
        # compares the traced pass with the first untraced one, which ran
        # the same ops.
        untraced = run_passes(items, checker, speed, seconds / 2)
        untraced_rss = peak_rss_mb()
        tracer = Tracer()
        log = OpLog(speed)
        tracer.install()
        try:
            run_pass(items, tracer, checker, log)
        finally:
            tracer.uninstall()
        before = end_to_end(untraced, first_pass=True)
        after = end_to_end(log)
        metrics = per_layer(tracer.totals())
        metrics.update(end_to_end(untraced))
        for metric, value in after.items():
            if not metric.endswith("_n"):
                metrics[f"overhead.{metric}"] = value - before[metric]
        metrics["overhead.peak_rss_mb"] = peak_rss_mb() - untraced_rss
        # Answers already checked are not checked again: the first pass
        # pays the whole cost of the reference checks.
        metrics["oracle.check_s"] = untraced.check_s[0]
        logs = [untraced, log]
    else:
        tracer = None
        log = run_passes(items, checker, speed, seconds)
        metrics = end_to_end(log)
        metrics["oracle.check_s"] = log.check_s[0]
        logs = [log]
    metrics["setup_s"] = setup_s
    metrics["setup_raw_s"] = setup_raw_s
    metrics["machine_slowdown"] = speed.slowdown()
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["passes"] = log.passes
    attempted = len(log.times)
    failures = Counter(log.failed.values())
    failed = len(log.failed)
    metrics["attempted"] = attempted
    metrics["failed"] = failed
    metrics["failed_ratio"] = failed / attempted
    for reason, count in sorted(failures.items()):
        metrics[f"failed.{reason}"] = count
    return {
        "workload": name,
        "seed": seed,
        "programs": len(items),
        "metrics": metrics,
        "wrong": [w for one in logs for w in one.wrong],
        "ops": [
            {
                "program": key[0],
                "kind": key[1],
                "detail": key[2],
                "failed": log.failed.get(key),
                "start_end": times,
            }
            for key, times in log.times.items()
        ],
        "reference_samples": list(zip(speed.times, speed.durations)),
        "tracer": tracer,
    }


def print_report(result: dict) -> None:
    name = result["workload"]
    metrics = result["metrics"]
    print(f"# workload {name}: seed {result['seed']}, {result['programs']} programs")
    for metric in sorted(metrics):
        value = metrics[metric]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name}\t{metric}\t{text}\t{unit_of(metric)}")
    for line in result["wrong"]:
        print(f"{name}\tWRONG\t{line}")
    if result["tracer"] is not None:
        print_hot_spots(name, metrics)


def print_hot_spots(name: str, metrics: dict) -> None:
    """The layers with the most self time in the traced pass."""
    selfs = {
        metric: value
        for metric, value in metrics.items()
        if "." in metric
        and metric.endswith("_s")
        and not metric.startswith(("overhead.", "oracle."))
    }
    total = sum(selfs.values()) or 1.0
    print(f"# hot spots of {name}: self time in the traced pass, {total:.3f} s in all")
    for metric, value in sorted(selfs.items(), key=lambda kv: -kv[1])[:8]:
        print(f"#   {metric:<30} {value:9.4f} s {100 * value / total:5.1f} %")


def write_outputs(result: dict, traced: bool) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{result['workload']}-seed{result['seed']}-trace{int(traced)}")
    record = {k: v for k, v in result.items() if k != "tracer"}
    if result["tracer"] is not None:
        record["self_s_by_op"] = result["tracer"].by_op
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    if result["tracer"] is not None:
        result["tracer"].write(stem + ".spans.tsv")


def reported_metrics(traced: bool) -> list[dict]:
    """The metrics BENCHMARK.json lists for the run: per-layer with --trace 1,
    end-to-end otherwise."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    return spec["per_layer" if traced else "end_to_end"]


def result_line(results: list[dict], reported: list[dict]) -> dict:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric in reported:
            value = result["metrics"].get(metric["name"], 0)
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": not any(r["wrong"] for r in results),
        "attempted": sum(r["metrics"]["attempted"] for r in results),
        "failed": sum(r["metrics"]["failed"] for r in results),
        "metrics": metrics,
    }


def gate_self_test() -> list[str]:
    """check.self_test(), then one wrong answer sent along the path that sets
    the exit code: OpLog.op, its check, OpLog.wrong and result_line."""
    missed = check.self_test()
    item, program, right = check.c3_reference()
    checker = check.Checker()
    log = OpLog(Speedometer())
    log.check_s.append(0.0)
    key = (item.name, "igasp", "")
    log.op(
        NullTracer(),
        key,
        lambda r: checker.igasp(item, r[0], r[1], right),
        lambda tracer: (program, right[1:]),
    )
    line = result_line(
        [
            {
                "workload": item.name,
                "wrong": log.wrong,
                "metrics": {"attempted": len(log.times), "failed": len(log.failed)},
            }
        ],
        [],
    )
    if log.failed.get(key) != "wrong" or not log.wrong or line["correct"] or line["failed"] != 1:
        missed.append(f"a wrong answer through OpLog.op gave {line!r}")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reported = reported_metrics(bool(args.trace))
    signal.signal(signal.SIGALRM, _on_alarm)
    missed = gate_self_test()
    if missed:
        print("correctness gate self-test failed:", *missed, sep="\n  ", file=sys.stderr)
        return 1
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        write_outputs(result, bool(args.trace))
        results.append(result)
    line = result_line(results, reported)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aspgraph import cli
from aspgraph.cli import _run_with_timeout, main
from aspgraph.syntax import parse_program

EVEN = "p :- not q. q :- not p.\n"
ODD = "p :- not q. q :- not r. r :- not p.\n"
QUERY = "p :- not q. q :- not p. :- p, q.\n"


@pytest.fixture
def program_file(tmp_path):
    def write(text, name="program.lp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_text_output(program_file, capsys):
    assert main(["solve", program_file(EVEN)]) == 0
    out = capsys.readouterr().out
    assert out == "{p}\n{q}\n"


def test_solve_unsat_exit_code(program_file, capsys):
    assert main(["solve", program_file(ODD)]) == 1
    assert capsys.readouterr().out == ""


def test_solve_missing_file():
    assert main(["solve", "/nonexistent/path.lp"]) == 2


def test_solve_parse_error(program_file, capsys):
    assert main(["solve", program_file("p :- .")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_solve_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.lp"
    path.write_bytes("\ufeffa.\n".encode("utf-8"))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "{a}\n"


def test_solve_json_all_solvers(program_file, capsys):
    path = program_file(EVEN)
    for solver in ("grasp", "igasp", "oracle"):
        assert main(["solve", path, "--solver", solver, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "answer_sets": [["p"], ["q"]],
            "count": 2,
            "solver": solver,
        }


def test_solve_max_models(program_file, capsys):
    assert main(["solve", program_file(EVEN), "--max-models", "1"]) == 0
    assert capsys.readouterr().out == "{p}\n"


def test_solve_help_says_max_models_saves_no_solving_time(capsys):
    # The engines return every model; the cap only trims what is printed.
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--max-models N print at most N models" in help_text
    assert "after a full search and saves no solving time" in help_text


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_solve_max_models_below_one_exits_2(program_file, capsys, limit):
    assert main(["solve", program_file(EVEN), "--max-models", limit]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "--max-models" in err


def test_python_dash_m_runs_the_cli(program_file):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for text, code, out in ((EVEN, 0, "{p}\n{q}\n"), (ODD, 1, "")):
        run = subprocess.run(
            [sys.executable, "-m", "aspgraph", "solve", program_file(text)],
            capture_output=True, text=True, env=env,
        )
        assert (run.returncode, run.stdout) == (code, out), run.stderr


def test_solve_empty_answer_set_renders_braces(program_file, capsys):
    assert main(["solve", program_file("p :- q. q :- p.\n")]) == 0
    assert capsys.readouterr().out == "{}\n"


def test_solve_oracle_atom_cap_exits_2(program_file, capsys):
    text = "".join(f"a{i} :- not b{i}.\n" for i in range(12))
    assert main(["solve", program_file(text), "--solver", "oracle"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "TooManyAtoms" in err and "atom cap" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_cycle_cap_exits_2(program_file, capsys, monkeypatch, value):
    monkeypatch.setenv("ASPGRAPH_CYCLE_CAP", value)
    assert main(["graph", program_file(EVEN), "--format", "stats"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "ASPGRAPH_CYCLE_CAP" in err and repr(value) in err
    assert "more than" not in err and "invalid literal" not in err


def test_justify_deep_chain_exits_2(program_file, capsys):
    text = "a0.\n" + "".join(f"a{i} :- a{i - 1}.\n" for i in range(1, 3001))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; the host may set more
    try:
        assert main(["justify", program_file(text), "a3000"]) == 2
    finally:
        sys.setrecursionlimit(limit)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "recursion limit" in err


def test_query_positive(program_file, capsys):
    assert main(["query", program_file(QUERY), "p"]) == 0
    assert capsys.readouterr().out == "{p}\n"


def test_query_json_metadata(program_file, capsys):
    assert main(["query", program_file(QUERY), "q", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == "q"
    assert doc["holds_in"] == 1
    assert doc["answer_sets"] == [["q"]]


def test_query_negative_flag(program_file, capsys):
    assert main(["query", program_file(QUERY), "p", "--negative"]) == 0
    assert capsys.readouterr().out == "{q}\n"


def test_query_unknown_atom(program_file, capsys):
    assert main(["query", program_file(QUERY), "zz"]) == 2


def test_query_deepest_atom_of_long_mixed_chain(program_file, capsys):
    n = 2000
    text = "a0.\n" + "".join(f"a{i} :- a{i - 1}, not b{i}.\n" for i in range(1, n + 1))
    assert main(["query", program_file(text), f"a{n}"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.count(",") == n


def test_justify_text(program_file, capsys):
    assert main(["justify", program_file("q. p :- q.\n"), "p"]) == 0
    out = capsys.readouterr().out
    assert "p = True" in out and "fact" in out


def test_justify_json(program_file, capsys):
    assert main(["justify", program_file("q. p :- q.\n"), "p", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["node"] == "p"


def test_justify_helper_name_rejected(program_file):
    assert main(["justify", program_file("q. p :- q.\n"), "__conj_0"]) == 2


def test_justify_unsat_program(program_file):
    assert main(["justify", program_file(ODD), "p"]) == 1


def test_justify_model_index(program_file, capsys):
    path = program_file(EVEN)
    assert main(["justify", path, "p", "--model-index", "1"]) == 0
    out = capsys.readouterr().out
    assert "p = False" in out
    assert main(["justify", path, "p", "--model-index", "5"]) == 2


def test_gen_random_header_and_parse(program_file, tmp_path, capsys):
    out_path = tmp_path / "gen.lp"
    assert main([
        "gen", "--atoms", "4", "--rules", "6", "--seed", "11", "-o", str(out_path)
    ]) == 0
    text = out_path.read_text()
    assert text.startswith("% genconfig: ")
    assert len(parse_program(text).rules) == 6


def test_gen_to_stdout_deterministic(capsys):
    assert main(["gen", "--atoms", "3", "--rules", "4", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--atoms", "3", "--rules", "4", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_gen_coloring_solves(tmp_path, capsys):
    out_path = tmp_path / "col.lp"
    assert main(["gen", "--problem", "coloring", "--nodes", "4", "-o", str(out_path)]) == 0
    assert main(["solve", str(out_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 18


def test_graph_dot_and_json(program_file, capsys):
    path = program_file("p :- q, not r.\n")
    assert main(["graph", path, "--stage", "cnr"]) == 0
    dot = capsys.readouterr().out
    assert "digraph" in dot and "fillcolor=black" in dot
    assert main(["graph", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["transformed"] is True
    assert {n["id"] for n in doc["nodes"]} == {"p", "q", "r", "__conj_0"}


def test_graph_stats_honors_stage(program_file, capsys):
    # the cnr's positive cycle p -> __conj_0 -> p is even in the transformed graph
    path = program_file("p :- q, not r. q :- p.\n")
    census = {}
    for stage in ("cnr", "dg"):
        assert main(["graph", path, "--stage", stage, "--format", "stats"]) == 0
        census[stage] = json.loads(capsys.readouterr().out)
    assert main(["graph", path, "--format", "stats"]) == 0
    assert json.loads(capsys.readouterr().out) == census["dg"]
    assert census == {
        "cnr": {"rules": 2, "even_cycles": 0, "odd_cycles": 0, "positive_cycles": 1},
        "dg": {"rules": 2, "even_cycles": 1, "odd_cycles": 0, "positive_cycles": 0},
    }


def test_bench_shape(tmp_path, capsys):
    config = {
        "num_atoms": 8,
        "num_rules": 10,
        "max_body_len": 3,
        "naf_probability": 0.5,
        "constraint_fraction": 0.1,
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main([
        "bench",
        "--rounds", "2",
        "--programs-per-round", "3",
        "--gen-config", str(config_path),
        "--solvers", "grasp,oracle",
        "--timeout", "10",
        "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        for column in (
            "round", "rules", "even_cycles", "odd_cycles",
            "grasp_seconds", "oracle_seconds", "grasp_timeouts", "oracle_timeouts",
        ):
            assert column in row
        assert row["grasp_timeouts"] == 0


def test_bench_text_table_header(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"num_atoms": 5, "num_rules": 6, "seed": 1}))
    assert main([
        "bench", "--rounds", "1", "--programs-per-round", "2",
        "--gen-config", str(config_path),
    ]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split("\t")[:4] == ["Round", "#Rules", "#EC", "#OC"]


def test_run_with_timeout_reads_large_result():
    # 4096 models: the pickled result is larger than a pipe buffer
    text = "".join(f"p{i} :- not q{i}. q{i} :- not p{i}.\n" for i in range(12))
    elapsed, models = _run_with_timeout(text, "grasp", 30.0)
    assert models is not None
    assert len(models) == 4096


def test_bench_solver_error_exits_2(tmp_path, capsys):
    # 25 atoms is over the oracle's exhaustive-search cap: the child raises
    # TooManyAtoms, which must not be counted as a timeout.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"num_atoms": 25, "num_rules": 25, "seed": 1}))
    assert main([
        "bench", "--rounds", "1", "--programs-per-round", "1",
        "--gen-config", str(config_path), "--solvers", "grasp,oracle",
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "oracle" in err and "round 1 program 0" in err and "TooManyAtoms" in err


def test_run_with_timeout_real_timeout_stays_none():
    # 2^16 models of independent even loops take grasp seconds, not 50 ms
    text = "".join(f"p{i} :- not q{i}. q{i} :- not p{i}.\n" for i in range(16))
    elapsed, models = _run_with_timeout(text, "grasp", 0.05)
    assert models is None


def _exits_without_result(program):
    os._exit(3)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched solver reaches the child only when it is forked",
)
def test_bench_solver_process_exit_is_a_failure_not_a_timeout(monkeypatch, capsys):
    monkeypatch.setitem(cli.SOLVERS, "exits", _exits_without_result)
    with pytest.raises(cli.SolverFailed, match="exited with code 3"):
        _run_with_timeout(EVEN, "exits", 30.0)
    argv = ["bench", "--rounds", "1", "--programs-per-round", "1", "--solvers", "exits"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "solver exits failed on round 1 program 0" in err and "code 3" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--rounds", "0"), ("--programs-per-round", "0"), ("--timeout", "0"), ("--timeout", "-1")],
)
def test_bench_argument_out_of_range_exits_2(capsys, flag, value):
    # A non-positive timeout would report every solve as a timeout and exit 0.
    args = {"--rounds": "1", "--programs-per-round": "1", "--timeout": "5"}
    args[flag] = value
    argv = ["bench"] + [item for pair in args.items() for item in pair]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert flag in err

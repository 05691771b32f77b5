import io
import json
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli_capped
from vcsndp import family as fam
from vcsndp.generate import MODELS
from vcsndp.cli import _build_parser, run
from vcsndp.instance import parse_instance, write_instance

README = Path(__file__).resolve().parent.parent / "README.md"
FEASIBLE = "graph 4 4\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\nreq 0 2 2\n"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(FEASIBLE)
    return path


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = invoke(["gen", "--model", "wheel", "--n", "6", "--k", "2",
                             "--pairs", "2", "--seed", "3", "-o", str(path)])
        assert code == 0
    assert a.read_text() == b.read_text()


def test_solve_feasible_exit_zero(inst_file, tmp_path):
    sol = tmp_path / "sol.txt"
    code, out, _ = invoke([
        "solve", str(inst_file), "--seed", "1", "--backend", "exact",
        "--verify", "--verify-family", "-o", str(sol)])
    assert code == 0
    assert "FEASIBLE" in out
    assert "cost 4" in out
    assert sol.exists()


def test_solve_json_determinism(inst_file, tmp_path):
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = invoke(["solve", str(inst_file), "--seed", "5",
                             "--verify", "--json", str(path)])
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_verify_infeasible_names_pair(inst_file, tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("solution 3 3\n0\n1\n2\n")
    code, out, _ = invoke(["verify", str(inst_file), str(sol)])
    assert code == 1
    assert "pair (0,2)" in out
    assert "achieved 1" in out
    assert "INFEASIBLE" in out


def test_verify_feasible(inst_file, tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("solution 4 4\n0\n1\n2\n3\n")
    code, out, _ = invoke(["verify", str(inst_file), str(sol)])
    assert code == 0
    assert "FEASIBLE" in out


def test_malformed_instance_exit_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 2 1\nedge 0 0 1\n")
    code, _, err = invoke(["solve", str(bad)])
    assert code == 2
    assert "self-loop" in err


def test_zero_denominator_cost_exit_two(inst_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 2 1\nedge 0 1 1/0\n")
    code, _, err = invoke(["verify", str(bad), str(inst_file)])
    assert code == 2
    assert err.startswith("error: line 2: ") and "1/0" in err
    sol = tmp_path / "sol.txt"
    sol.write_text("# header next\nsolution 1 1/0\n0\n")
    code, _, err = invoke(["verify", str(inst_file), str(sol)])
    assert code == 2
    assert err.startswith("error: line 2: ") and "1/0" in err


def test_infeasible_instance_exit_one(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("graph 3 2\nedge 0 1 1\nedge 1 2 1\nreq 0 2 2\n")
    code, _, err = invoke(["solve", str(path)])
    assert code == 1
    assert "vertex-disjoint" in err


def test_param_override_requires_relation(inst_file):
    code, _, err = invoke(["solve", str(inst_file), "--p", "3", "--q", "1"])
    assert code == 2
    assert "2kq" in err
    code, out, _ = invoke(["solve", str(inst_file), "--p", "3", "--q", "1",
                           "--unsafe-params", "--verify"])
    assert code in (0, 1)  # tiny family may or may not be good enough


def test_p_without_q_rejected(inst_file):
    code, _, err = invoke(["solve", str(inst_file), "--p", "4"])
    assert code == 2


def test_usage_error_exit_two():
    code, _, _ = invoke(["solve"])  # missing instance path
    assert code == 2
    code, _, _ = invoke(["nonesuch"])
    assert code == 2


def test_family_check_command():
    code, out, _ = invoke(["family", "--terminals", "6", "--k", "2",
                           "--basis", "12", "--seed", "3", "--check"])
    assert code == 0
    assert "p 2548 q 637" in out
    assert "good True" in out


def test_family_dump_and_estimate():
    code, out, _ = invoke(["family", "--terminals", "4", "--k", "1",
                           "--basis", "4", "--seed", "1", "--dump",
                           "--estimate", "200"])
    assert code == 0
    assert "family 178 89 1" in out  # q = ceil(64 ln 4) = 89, p = 178
    assert "rate_e1 0.0" in out


def test_family_from_single_source_draws_over_the_sinks(tmp_path):
    # the golden wheel: source 0, sinks 2, 5, 7, so tau = 4; `solve --seed
    # 11` draws this family first
    from test_golden import _wheel

    path = tmp_path / "wheel.txt"
    path.write_text(write_instance(_wheel()))
    code, out, _ = invoke(["family", "--from", str(path), "--k", "3",
                           "--mode", "single-source", "--seed", "11",
                           "--dump"])
    assert code == 0
    params = fam.default_params(3, 4, fam.SINGLE_SOURCE)
    family = fam.sample_family([2, 5, 7], params, 11)
    assert out == (f"mode single-source k 3 basis 4 p {params.p} "
                   f"q {params.q}\n" + fam.write_family(family))


def test_family_from_checks_the_instance_pairs(tmp_path):
    # at seed 3, terminals 0 and 1 draw index 1 and terminals 2 and 3 draw
    # index 2: good for the pairs (0,1) and (2,3), bad for the pair (0,2)
    path = tmp_path / "two_pairs.txt"
    path.write_text("graph 4 4\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\n"
                    "edge 3 0 1\nreq 0 1 1\nreq 2 3 1\n")
    code, out, _ = invoke(["family", "--from", str(path), "--k", "1",
                           "--p", "2", "--q", "1", "--seed", "3", "--check"])
    assert code == 0
    assert "good True" in out
    code, out, _ = invoke(["family", "--terminals", "4", "--k", "1",
                           "--p", "2", "--q", "1", "--seed", "3", "--check"])
    assert code == 1
    assert "witness ((0, 2), frozenset(), " in out


def test_family_from_takes_k_from_the_instance(tmp_path):
    from test_golden import _wheel

    path = tmp_path / "wheel.txt"
    path.write_text(write_instance(_wheel()))  # largest requirement 3
    argv = ["family", "--from", str(path), "--mode", "single-source",
            "--seed", "11", "--dump"]
    code, out, _ = invoke(argv)
    assert code == 0
    assert (code, out) == invoke(argv + ["--k", "3"])[:2]
    code, _, err = invoke(argv + ["--k", "4"])
    assert code == 2
    assert "--k 4 differs from the instance's largest requirement 3" in err
    code, _, err = invoke(["family", "--terminals", "4"])
    assert code == 2
    assert "--k" in err


def test_solver_failure_exit_four(inst_file, tmp_path, monkeypatch):
    # an LP that stops at HiGHS's iteration limit
    from test_element import StubSolver
    from vcsndp import element

    core = element._highs().core
    monkeypatch.setattr(element, "lp_solver", lambda: StubSolver(
        core.HighsStatus.kOk, core.HighsStatus.kOk,
        core.HighsModelStatus.kIterationLimit))
    code, _, err = invoke(["solve", str(inst_file), "--seed", "1"])
    assert code == 4
    assert "solver failure: LP solve failed: Iteration limit reached" in err
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c4.txt").write_text(FEASIBLE)
    code, out, _ = invoke(["bench", str(corpus), "--seed", "1", "--no-exact",
                           "--no-timing"])
    assert code == 0
    assert "c4.txt: ERROR SolverError: LP solve failed: Iteration" in out


def test_rejected_model_exit_four(inst_file, monkeypatch):
    # a reused solver that rejects a model still runs the last one it
    # took; the rejection, not that stale optimum, decides the exit
    from test_element import StubSolver
    from vcsndp import element

    status = element._highs().core.HighsStatus
    monkeypatch.setattr(element, "lp_solver",
                        lambda: StubSolver(status.kError, status.kOk))
    code, _, err = invoke(["solve", str(inst_file), "--seed", "1"])
    assert code == 4
    assert "solver failure: HiGHS passModel returned kError" in err


def test_cutting_plane_cap_exit_four(inst_file, monkeypatch):
    # the 4-cycle's LP needs two cutting-plane rounds
    from vcsndp import element

    assert invoke(["solve", str(inst_file), "--seed", "1"])[0] == 0
    monkeypatch.setattr(element, "MAX_CUT_ROUNDS", 1)
    code, _, err = invoke(["solve", str(inst_file), "--seed", "1"])
    assert code == 4
    assert ("solver failure: cutting-plane loop still finds violated cuts "
            "after 1 LP solves") in err


def test_internal_error_exit_five(inst_file, tmp_path, monkeypatch):
    from vcsndp import cli, report

    def broken(*args, **kwargs):
        raise RuntimeError("stub fault")

    monkeypatch.setattr(cli, "solve_pipeline", broken)
    monkeypatch.setattr(report, "solve_pipeline", broken)
    assert invoke(["solve", str(inst_file)]) == (
        5, "", "internal error: RuntimeError: stub fault\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c4.txt").write_text(FEASIBLE)
    code, out, _ = invoke(["bench", str(corpus), "--no-exact", "--no-timing"])
    assert code == 0
    assert "c4.txt: ERROR RuntimeError: stub fault" in out


@pytest.mark.parametrize("argv", [["solve", "--verify"], ["exact"]])
def test_isolated_vertices_take_no_memory(tmp_path, argv):
    # one edge among 2*10^7 vertices: a node per vertex would not fit the cap
    path = tmp_path / "inst.txt"
    path.write_text("graph 20000000 1\nedge 0 1 1\nreq 0 1 1\n")
    proc = run_cli_capped([argv[0], path, *argv[1:]])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "cost 1" in proc.stdout


def test_family_from_rejects_a_requirement_above_connectivity(tmp_path):
    # k sizes the family, so an unmet k is refused before it can allocate,
    # with the message `solve` gives
    path = tmp_path / "inst.txt"
    path.write_text("graph 3 2\nedge 0 1 1\nedge 1 2 1\nreq 0 1 99999999999\n")
    message = ("infeasible: pair (0,1) requires 99999999999 vertex-disjoint "
               "paths but the full graph only provides 1\n")
    for argv in (["family", "--from", path, "--check"], ["solve", path]):
        proc = run_cli_capped(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


NO_REQUIREMENTS = "graph 3 2\nedge 0 1 1\nedge 1 2 1\n"
# (0,1) needs 2 paths on a path graph, and the pairs share no vertex
NO_SOURCE = ("graph 4 3\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\n"
             "req 0 1 2\nreq 2 3 1\n")


@pytest.mark.parametrize("text, mode, message", [
    (NO_REQUIREMENTS, "general", "instance has no requirements"),
    (NO_REQUIREMENTS, "single-source", "instance has no requirements"),
    (NO_SOURCE, "single-source", "requirement pairs share no common source"),
])
def test_family_from_fails_as_solve_does(tmp_path, text, mode, message):
    # both commands take the instance's mode and family from one setup
    path = tmp_path / "inst.txt"
    path.write_text(text)
    flag = "on" if mode == fam.SINGLE_SOURCE else "off"
    family = invoke(["family", "--from", str(path), "--mode", mode])
    solve = invoke(["solve", str(path), "--single-source", flag])
    assert family == solve == (1, "", f"infeasible: {message}\n")


def test_solve_verify_long_path(tmp_path):
    # every max-flow in the run sees a level graph about 2000 vertices deep
    n = 2000
    path = tmp_path / "path.txt"
    path.write_text(
        f"graph {n} {n - 1}\n"
        + "".join(f"edge {v} {v + 1} 1\n" for v in range(n - 1))
        + "req 999 1000 1\n")
    code, out, err = invoke(["solve", str(path), "--verify", "--jobs", "1"])
    assert (code, err) == (0, "")
    assert "cost 1 edges 1\n" in out and out.endswith("FEASIBLE\n")


def test_exact_command(inst_file):
    code, out, _ = invoke(["exact", str(inst_file)])
    assert code == 0
    assert "cost 4" in out


def test_exact_budget_exit_three(tmp_path):
    path = tmp_path / "big.txt"
    code, _, _ = invoke(["gen", "--model", "erdos-renyi", "--n", "9",
                         "--edge-param", "0.6", "--k", "2", "--pairs", "3",
                         "--seed", "2", "-o", str(path)])
    assert code == 0
    code, _, err = invoke(["exact", str(path), "--budget", "3"])
    assert code == 3
    assert "budget" in err.lower()


def test_bench_command(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        invoke(["gen", "--model", "wheel", "--n", "6", "--k", "2",
                "--pairs", "2", "--seed", str(seed),
                "-o", str(corpus / f"w{seed}.txt")])
    report = tmp_path / "bench.json"
    code, out, _ = invoke(["bench", str(corpus), "--seed", "4",
                           "--verify", "--verify-family",
                           "--no-timing", "--json", str(report)])
    assert code == 0
    assert "instances 2" in out
    first = report.read_bytes()
    invoke(["bench", str(corpus), "--seed", "4", "--verify",
            "--verify-family", "--no-timing", "--json", str(report)])
    assert report.read_bytes() == first


def test_bench_missing_directory_exit_two(tmp_path, inst_file):
    for path in (tmp_path / "no_such_dir", inst_file):
        code, out, err = invoke(["bench", str(path), "--no-exact"])
        assert code == 2 and out == ""
        assert "not a directory" in err
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = invoke(["bench", str(empty)])
    assert code == 0
    assert out.startswith("instances 0 ")


_COVERED = "'phi(s) & phi(t) is covered by phi(X)'"


@pytest.mark.parametrize("args, code, expected", [
    (["--terminals", "12", "--k", "3", "--seed", "5"], 0,
     "mode general k 3 basis 12 p 8592 q 1432\ngood True\n"),
    (["--terminals", "10", "--k", "3", "--seed", "5"], 0,
     "mode general k 3 basis 10 p 7962 q 1327\ngood True\n"),
    (["--terminals", "20", "--k", "2", "--seed", "5"], 0,
     "mode general k 2 basis 20 p 3068 q 767\ngood True\n"),
    (["--terminals", "5", "--k", "2", "--p", "6", "--q", "1",
      "--unsafe-params"], 1,
     "mode general k 2 basis 5 p 6 q 1\ngood False\n"
     f"witness ((0, 2), frozenset(), {_COVERED})\n"),
    (["--terminals", "6", "--k", "3", "--p", "8", "--q", "6", "--seed", "1",
      "--unsafe-params"], 1,
     "mode general k 3 basis 6 p 8 q 6\ngood False\n"
     f"witness ((0, 1), frozenset({{2, 3}}), {_COVERED})\n"),
    (["--terminals", "6", "--k", "2", "--p", "6", "--q", "4", "--mode",
      "single-source", "--unsafe-params"], 1,
     "mode single-source k 2 basis 6 p 6 q 4\ngood False\n"
     "witness (1, frozenset({2}), 'phi(t) is covered by phi(X)')\n"),
])
def test_family_check_golden(args, code, expected):
    # verdicts and witnesses recorded from the exhaustive frozenset check
    assert invoke(["family", *args, "--check"]) == (code, expected, "")


def test_family_check_over_budget_exit_three():
    code, _, err = invoke(["family", "--terminals", "40", "--k", "3",
                           "--check"])
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("args", [
    ["family", "--terminals", "200", "--k", "40"],
    ["family", "--terminals", "2", "--k", "1", "--p", "4000000000", "--q",
     "1", "--unsafe-params"],
    ["family", "--terminals", "3", "--k", "1", "--p", "2", "--q",
     "100000000000", "--unsafe-params"],
    ["solve", FEASIBLE, "--p", "4000000000", "--q", "1", "--unsafe-params"],
])
def test_family_sample_over_budget_exit_three(args, tmp_path):
    # refused before the draw: each of these samples would take GiBs
    if args[0] == "solve":
        args[1] = tmp_path / "inst.txt"
        args[1].write_text(FEASIBLE)
    proc = run_cli_capped(args)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("budget exceeded: sampling ")


def test_solve_with_a_huge_p_keeps_only_the_classed_indices(tmp_path):
    # the sample fits its budget; a map over all 10**8 indices would not
    # fit the cap
    path = tmp_path / "inst.txt"
    path.write_text(FEASIBLE)
    proc = run_cli_capped(["solve", path, "--p", "100000000", "--q", "1",
                           "--unsafe-params"])
    assert proc.returncode in (0, 3), proc.stderr


def test_family_terminal_count_bounded_before_listing():
    proc = run_cli_capped(["family", "--terminals", "1000000000", "--k", "1",
                           "--p", "2", "--q", "1", "--unsafe-params"])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("budget exceeded: sampling 1000000000 ")


@pytest.mark.parametrize("model", ["wheel", "grid"])
def test_gen_samples_pairs_without_listing_them(model):
    # all n(n-1)/2 pairs of 20000 vertices would not fit the cap
    proc = run_cli_capped(["gen", "--model", model, "--n", "20000", "--k",
                           "2", "--pairs", "3", "--seed", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("graph 20000 ")
    assert proc.stdout.count("\nreq ") == 3


@pytest.mark.parametrize("width", ["0.5", "-3", "nan", "inf"])
def test_gen_grid_width_below_one_exit_two(width):
    code, out, err = invoke(["gen", "--model", "grid", "--n", "9",
                             "--edge-param", width, "--k", "2", "--pairs",
                             "3", "--seed", "1"])
    assert (code, out) == (2, "")
    assert f"grid width {float(width)} " in err


def test_gen_cost_at_or_above_the_parse_limit_exit_two(tmp_path):
    # reading the file back would fail: "cost ... is not below 10**20"
    argv = ["gen", "--model", "wheel", "--n", "5", "--k", "1", "--pairs",
            "1", "--seed", "1"]
    code, out, err = invoke(argv + ["--cost-min", str(10**20),
                                    "--cost-max", str(10**20 + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: cost {10**20 + 1} is not below 10**20\n"
    path = tmp_path / "top.txt"
    top = str(10**20 - 1)
    code, _, _ = invoke(argv + ["--cost-min", top, "--cost-max", top,
                                "-o", str(path)])
    assert code == 0
    costs = [c for *_, c in parse_instance(path.read_text()).edges]
    assert max(costs) == int(top)


# a sample larger than this runs in a child under the address-space cap
IN_PROCESS_SAMPLE_BYTES = 1 << 24


class _NeedsCap(BaseException):
    """Passes through cli.run's handlers: the sample must be drawn in a
    capped child."""


def _sample_in_process_if_small(real):
    def sample(terminals, params, seed):
        terminals = list(terminals)
        size = max(1, len(terminals)) * (params.p + 32 * params.q)
        if IN_PROCESS_SAMPLE_BYTES < size <= fam.SAMPLE_BUDGET:
            raise _NeedsCap
        return real(terminals, params, seed)
    return sample


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_PQ = st.integers(1, 10**4) | st.integers(1, 10**12)
_GEN_ARGS = st.tuples(
    st.sampled_from(MODELS).map(lambda m: ["gen", "--model", m]),
    st.integers(1, 40).map(lambda n: ["--n", str(n)]),
    _optional("--edge-param", st.floats(-2, 50) | st.sampled_from(
        [0.0, 0.5, float("nan"), float("inf")])),
    st.integers(1, 4).map(lambda k: ["--k", str(k)]),
    st.integers(0, 12).map(lambda n: ["--pairs", str(n)]),
    st.integers(0, 2**32).map(lambda s: ["--seed", str(s)]),
)
_FAMILY_ARGS = st.tuples(
    st.integers(1, 30).map(lambda t: ["family", "--terminals", str(t)]),
    st.integers(1, 4).map(lambda k: ["--k", str(k)]),
    st.sampled_from(fam.MODES).map(lambda m: ["--mode", m]),
    st.one_of(st.just([]), st.tuples(_PQ, _PQ).map(
        lambda pq: ["--p", str(pq[0]), "--q", str(pq[1]),
                    "--unsafe-params"])),
    st.sampled_from([[], ["--check"]]),
    st.integers(0, 2**32).map(lambda s: ["--seed", str(s)]),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_GEN_ARGS, _FAMILY_ARGS).map(
    lambda parts: [a for part in parts for a in part]))
def test_gen_and_family_never_exit_five(argv):
    # small argument lists, p and q up to 10^12: every input is either
    # served, refused as input or refused by a budget
    real = fam.sample_family
    try:
        with mock.patch.object(fam, "sample_family",
                               _sample_in_process_if_small(real)):
            code, _, err = invoke(argv)
    except _NeedsCap:
        proc = run_cli_capped(argv)
        code, err = proc.returncode, proc.stderr
    assert code in (0, 1, 2, 3), (argv, err)


def test_family_p_without_q_rejected():
    code, _, err = invoke(["family", "--terminals", "4", "--k", "1",
                           "--q", "2"])
    assert code == 2
    assert "--p and --q" in err


def test_bench_auto_detects_mode_per_instance(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    cycle = "graph 4 4\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\n"
    (corpus / "a_general.txt").write_text(cycle + "req 0 2 1\nreq 1 3 1\n")
    (corpus / "b_source.txt").write_text(cycle + "req 0 1 1\nreq 0 2 2\n")
    report = tmp_path / "bench.json"
    code, _, _ = invoke(["bench", str(corpus), "--seed", "4", "--verify",
                         "--no-exact", "--no-timing", "--json", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["mode"] == "auto"
    rows = {row["name"]: row for row in rep["instances"]}
    assert rows["a_general.txt"]["mode"] == "general"
    assert rows["b_source.txt"]["mode"] == "single-source"
    for name, row in rows.items():
        assert row["feasible"] is True
        # the same detection and parameters as `solve` on that file
        _, out, _ = invoke(["solve", str(corpus / name), "--seed", "4"])
        assert f"mode {row['mode']}\n" in out
        assert f"p {row['p']} q {row['q']} " in out


def test_readme_cli_lines_parse():
    # every command in the README's CLI block parses; none is run
    block = re.search(r"^## CLI\n+```\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("vcsndp ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert _build_parser().parse_args(argv).command == argv[0]

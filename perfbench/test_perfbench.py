"""Tests of the benchmark itself: traced counts, hooks, digests, spec."""

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vcsndp.cli import run as cli_run  # noqa: E402
from vcsndp.instance import write_instance  # noqa: E402


def _traced_solves(tmp_path, instances, flags):
    tr = tracer.Tracer()
    with tr.installed():
        for i, inst in enumerate(instances):
            path = tmp_path / f"inst{i}.txt"
            path.write_text(write_instance(inst))
            with tr.item_span(f"inst{i}"):
                code = cli_run(["solve", str(path), *flags], out=io.StringIO())
            assert code == 0
    return tr


def test_counts_reproduce_the_criterion2_baseline(tmp_path):
    # the first 10 criterion-2 instances, solved at seed 11
    corpus = workloads.criterion2_corpus(10)
    tr = _traced_solves(tmp_path, corpus, [
        "--single-source", "off", "--verify", "--verify-family",
        "--seed", "11"])
    m = tracer.layer_metrics(tr.spans)
    assert tr.missing == []
    assert m["element.solves"][0] == 66
    assert m["element.lp_solves"][0] == 314
    assert m["element.linprog_calls"][0] == 1834
    assert m["connectivity.separations"][0] == 4072


def test_pool_thread_spans_belong_to_their_item(tmp_path):
    corpus = workloads.criterion2_corpus(2)
    tr = _traced_solves(tmp_path, corpus, [
        "--single-source", "off", "--seed", "11", "--jobs", "2"])
    by_sid = {sp.sid: sp for sp in tr.spans}
    solves = [sp for sp in tr.spans if sp.name == "element.solve"]
    assert len(solves) > 2
    for sp in solves:
        parent = by_sid[sp.parent]
        assert parent.name == "pipeline.solve" and parent.item == sp.item
    assert {sp.item for sp in tr.spans} == {"inst0", "inst1"}


def test_missing_hook_is_reported_and_originals_restored():
    import vcsndp.element as element

    original = element.linprog
    hooks = tracer.HOOKS + (
        ("gone", "vcsndp.element", "no_such_function", None),
        ("gone", "vcsndp.no_such_module", "f", None),
    )
    tr = tracer.Tracer(hooks)
    with tr.installed():
        assert element.linprog is not original
    assert tr.missing == ["vcsndp.element.no_such_function",
                          "vcsndp.no_such_module.f"]
    assert element.linprog is original


def test_self_time_subtracts_overlapping_children():
    spans = [
        tracer.Span(1, None, "a", "item", 0.0, 10.0),
        tracer.Span(2, 1, "a", "pipeline.solve", 1.0, 9.0),
        tracer.Span(3, 2, "a", "element.solve", 2.0, 6.0),
        tracer.Span(4, 2, "a", "element.solve", 4.0, 8.0),
    ]
    ix = tracer.SpanIndex(spans)
    assert ix.self_time("item") == 2.0
    assert ix.self_time("pipeline.solve") == 2.0
    assert ix.busy("element.solve") == 8.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(12) == 50.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0


def test_unreadable_report_fails_the_item(tmp_path):
    inst = workloads.criterion2_corpus(1)[0]
    path = tmp_path / "inst.txt"
    path.write_text(write_instance(inst))
    item = workloads.Item("inst00", ("solve", str(path), "--single-source",
                                     "off", "--verify"), inst=inst)
    extra, files = workloads.output_args(item, str(tmp_path / "a"))
    out = io.StringIO()
    code = cli_run([*item.argv, *extra], out=out)
    assert workloads.check("general-er", item, code, out.getvalue(), files).ok
    for broken in ("{", '{"mode": "general"}', "[]"):
        files["report"].write_text(broken)
        c = workloads.check("general-er", item, code, out.getvalue(), files)
        assert not c.ok and c.reason.startswith("unreadable report")
    files["report"].unlink()
    c = workloads.check("general-er", item, code, out.getvalue(), files)
    assert not c.ok and c.reason.startswith("unreadable report")


def test_two_runs_agree_on_outputs(capsys):
    digests = []
    for _ in range(2):
        assert run.main(["--workload", "family-check", "--seed", "3",
                         "--seconds", "0.1", "--trace", "0"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
        detail = json.loads((run.ROOT / ".perfbench_work"
                             / "family-check-s3-t0" / "result.json").read_text())
        digests.append(detail["digest"])
    assert digests[0] == digests[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.per_layer_spec()

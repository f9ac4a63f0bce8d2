"""Tests of the benchmark itself: failure accounting, tracing, inputs, metric names.

    python3 -m pytest bench
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layer_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mapgvar import games, random_game  # noqa: E402


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    games.save_game(random_game(2, 3, 2, seed=5), path)
    return str(path)


def _report_op(path, name="report"):
    return workloads.Op(name=name, argv=["report", "--game", path, "--format", "json"],
                        check=workloads._check_report())


def test_sabotaged_verify_and_truncated_game_each_count_as_one_failed_op(tmp_path, game_file):
    with open(game_file, encoding="utf-8") as fh:
        text = fh.read()
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2], encoding="utf-8")
    ops = [
        _report_op(game_file),
        workloads.Op(name="sabotage",
                     argv=["verify", "--games", "4", "--seed", "3", "--sabotage",
                           "--format", "json"],
                     check=workloads._check_verify(4)),
        _report_op(str(truncated), name="truncated"),
    ]
    done = run.measure(ops, str(tmp_path / "out"), 0.0)
    assert [r.failed for r in done.plain] == [False, True, True]
    assert done.traced == []
    assert [e["op"] for e in done.op_log if e["problems"]] == ["sabotage", "truncated"]
    assert set(done.first_digest) == {"report"}


def test_failed_check_counts_even_when_the_command_succeeds(tmp_path, game_file):
    def always_wrong(out_dir, stdout, value):
        return ["wrong"]

    op = workloads.Op(name="r", argv=["report", "--game", game_file], check=always_wrong)
    assert workloads.execute(op, str(tmp_path / "out")).problems == ["wrong"]


def test_repeat_with_different_bytes_fails(tmp_path):
    calls = []

    def call():
        calls.append(1)
        return {"n": len(calls)}

    op = workloads.Op(name="drifting", call=call, check=lambda *a: [])
    done = run.measure([op, op], str(tmp_path / "out"), 0.0)
    assert [r.failed for r in done.plain] == [False, True]


def test_traced_pairs_match_and_spans_nest(tmp_path, game_file):
    tracer = layer_trace.Tracer(tuple((m, f, w) for m, f, _, w in run.LAYERS))
    tracer.install()
    try:
        done = run.measure([_report_op(game_file)], str(tmp_path / "out"), 0.0, tracer)
    finally:
        tracer.uninstall()
    plain, traced = done.plain, done.traced
    assert len(plain) == len(traced) == 1 and not plain[0].failed and not traced[0].failed
    assert plain[0].digest == traced[0].digest
    main = tracer.layer("cli.main")
    assert main.calls == 1
    for stats in tracer.stats:
        assert stats.self_s <= stats.busy_s + 1e-9
    for nid, start, end, parent in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end
    total_self = sum(s.self_s for s in tracer.stats)
    assert total_self == pytest.approx(main.busy_s, rel=1e-9)
    assert tracer.root_child_s == pytest.approx(main.busy_s - main.self_s, rel=1e-9)
    metrics = run.layer_metrics(tracer, plain, traced)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["games.parse_game.mb_per_s"]["value"] > 0


def test_uninstall_restores_every_name():
    from mapgvar import cli, values, variance

    before = (values.solve_values, variance.solve_values, cli.solve_values)
    tracer = layer_trace.Tracer((("values", "solve_values", None),))
    tracer.install()
    assert variance.solve_values is not before[1] and cli.solve_values is not before[2]
    tracer.uninstall()
    assert (values.solve_values, variance.solve_values, cli.solve_values) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    def snapshot(seed, where):
        inputs = str(tmp_path / where)
        wl = workloads.build(name, seed, inputs)
        argvs = [[a.replace(inputs, "") for a in op.argv or ()] for op in wl.ops]
        files = {f: (tmp_path / where / f).read_bytes() for f in os.listdir(inputs)}
        return [op.name for op in wl.ops], argvs, files

    names_a, *inputs_a = snapshot(7, "a")
    names_b, *inputs_b = snapshot(7, "b")
    _, *inputs_c = snapshot(8, "c")
    assert names_a == names_b and len(set(names_a)) == len(names_a)
    assert inputs_a == inputs_b
    assert inputs_a != inputs_c


def test_tail_percentile_counts_samples_beyond():
    assert run.tail_percentile(list(range(1, 101)), 90) == (90, 10)
    assert run.tail_percentile([5.0], 75) == (5.0, 0)


def test_latencies_are_scaled_to_the_reference_core_speed():
    fast = workloads.OpResult("a", 0.10, [], None, core_scale=1.0)
    slow = workloads.OpResult("a", 0.17, [], None, core_scale=1.0 / 1.7)
    other = workloads.OpResult("b", 0.30, [], None, core_scale=1.0)
    metrics, info = run.latency_metrics([fast, slow, other], 75)
    assert metrics["op_p50_ms"] == pytest.approx(200.0)
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.4)
    assert info["best_latency_s"] == {"a": 0.10, "b": 0.30}
    assert run.core_scale(run.REF_KERNEL_S, run.REF_KERNEL_S) == 1.0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "train", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

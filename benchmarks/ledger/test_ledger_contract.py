"""Self-tests of the ledger's own contract, at ``--smoke`` sizes.

They check the benchmark, not the engine: that a run emits exactly what
BENCHMARK.json lists, that inputs and counters follow from the seed, that
the arithmetic is right, and that a wrong output cannot pass.
"""

from __future__ import annotations

import json
import re

import pytest

import ledger_inputs
import ledger_layers
import run as ledger
from ledger_stats import layer_self_times, percentile, relative_spread

SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
DETERMINISTIC = ("lexer.tokens", "peak_buffer_bytes", "matcher.dfa_states")


def smoke(name: str, trace: bool, recorder=None, seed: int = SEED) -> dict:
    return ledger.run_workload(
        name, seed, ledger.SMOKE_SECONDS, trace, True, recorder
    )


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {name: smoke(name, False) for name in ledger_inputs.WORKLOADS}


@pytest.fixture(scope="module")
def recorder() -> ledger_layers.SpanRecorder:
    return ledger_layers.SpanRecorder()


@pytest.fixture(scope="module")
def traced(recorder) -> dict[str, dict]:
    return {name: smoke(name, True, recorder) for name in ledger_inputs.WORKLOADS}


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = ledger.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(ledger_inputs.WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]
    listed = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in listed]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert all(m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_exactly_the_listed_metrics(trace, untraced, traced):
    results = traced if trace else untraced
    listed = [spec["name"] for spec in ledger.metric_specs(trace)]
    assert list(results) == list(ledger_inputs.WORKLOADS)
    for name, result in results.items():
        assert result["failed"] == 0, name
        assert result["attempted"] >= 1
        line = json.loads(ledger.driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert list(line["metrics"]) == listed
        assert all(
            isinstance(m["value"], float) and m["unit"]
            for m in line["metrics"].values()
        )
        if not trace:  # an end-to-end metric is defined everywhere, never 0
            assert all(m["value"] > 0 for m in line["metrics"].values()), name


def test_every_per_layer_metric_is_measured_somewhere(traced):
    for spec in ledger.metric_specs(True):
        assert any(
            result["metrics"][spec["name"]] is not None for result in traced.values()
        ), spec["name"]
    assert all(r["metrics"]["trace.probe_errors"] == 0 for r in traced.values())


def test_schema_direct_and_bulk_output_emit_the_same_bytes(traced):
    direct = traced["schema_direct"]["metrics"]
    bulk = traced["bulk_output"]["metrics"]
    assert direct["serialize.output_bytes"] == bulk["serialize.output_bytes"] > 0
    assert direct["peak_buffer_bytes"] == 0 < bulk["peak_buffer_bytes"]


def test_spans_carry_parent_and_op(traced, recorder, tmp_path):
    recorder.write(tmp_path / "trace.json")
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    assert {span["workload"] for span in spans} == set(ledger_inputs.WORKLOADS)
    children = [span for span in spans if span["parent"] is not None]
    assert children
    for span in children:
        parent = by_id[span["parent"]]
        assert parent["op"] == span["op"]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_same_seed_same_inputs_other_seed_other_inputs(traced):
    document = ledger_inputs.xmark_document(40_000, SEED)
    assert document == ledger_inputs.xmark_document(40_000, SEED)
    assert document != ledger_inputs.xmark_document(40_000, SEED + 1)
    assert abs(len(document) - 40_000) <= 0.02 * 40_000
    fragments = ledger_inputs.serve_fragments(8, SEED)
    assert fragments == ledger_inputs.serve_fragments(8, SEED)
    assert fragments != ledger_inputs.serve_fragments(8, SEED + 1)
    assert all(200 <= len(fragment) <= 3072 for fragment in fragments)

    again = smoke("selective_scan", True, ledger_layers.SpanRecorder())
    first = traced["selective_scan"]["metrics"]
    for name in DETERMINISTIC:
        assert again["metrics"][name] == first[name] is not None, name


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(samples, 0.50) == 5.0
    assert percentile(samples, 0.90) == 9.0
    assert percentile(samples, 0.99) == 10.0
    assert percentile([3.0], 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_times_are_prefix_differences_clamped_at_zero():
    selfs = layer_self_times(
        [("lex", 40.0), ("match", 65.0), ("lane", 170.0), ("eval", 168.0),
         ("write", 171.0)]
    )  # fmt: skip
    assert selfs == {"lex": 40.0, "match": 25.0, "lane": 105.0, "eval": 0.0,
                     "write": 1.0}  # fmt: skip
    assert sum(selfs.values()) == 171.0
    # A prefix that could not be measured hands its cost to the next layer.
    holed = layer_self_times([("lex", 40.0), ("match", None), ("lane", 170.0)])
    assert holed == {"lex": 40.0, "match": None, "lane": 130.0}


def test_relative_spread_is_quartile_distance_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert relative_spread(values) == pytest.approx(1.0)


def test_a_wrong_expected_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(ledger_inputs, "oracle_output", lambda query, doc: "<wrong/>")
    status = ledger.main(["--workload", "schema_direct", "--smoke"])
    line = json.loads(capsys.readouterr().out.strip().rsplit("\n", 1)[-1])
    assert status != 0
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0


def test_a_vanished_layer_entry_point_costs_one_probe(monkeypatch):
    def gone(path, query):
        def build():
            raise ImportError("StreamMatcher.match_token is gone")

        return build

    monkeypatch.setattr(ledger_layers, "matcher_probe", gone)
    result = smoke("selective_scan", True, ledger_layers.SpanRecorder())
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert metrics["matcher.step_ms"] is None
    assert metrics["trace.probe_errors"] == 1
    assert metrics["lane.project_ms"] > 0 and metrics["lexer.scan_ms"] > 0
    line = json.loads(ledger.driver_line(result, True))
    assert line["metrics"]["matcher.step_ms"]["value"] == 0.0

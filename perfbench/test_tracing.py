"""The tracer's self-time arithmetic and the metric list it feeds."""

import json

import pytest

import run
import tracing


def test_self_time_of_a_synthetic_nest():
    spans = [
        ["A", 0.0, 10.0, -1],
        ["B", 1.0, 4.0, 0],
        ["C", 2.0, 3.0, 1],
        ["D", 5.0, 9.0, 0],
        ["C", 6.0, 7.0, 3],
        ["F", 11.0, 20.0, -1],
        ["F", 12.0, 15.0, 5],   # recursion: only the outer F counts toward s
    ]
    agg = tracing.aggregate(spans)
    assert agg["A"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["B"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert agg["C"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert agg["D"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert agg["F"] == {"calls": 2, "s": 9.0, "self_s": 9.0}
    # self time never goes negative, and the self times add up to the roots
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(10.0 + 9.0)


def test_covered_time_is_a_clipped_union():
    assert tracing._covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7
    assert tracing._covered([], 0, 10) == 0


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_names()
    assert len(spec["per_layer"]) <= 128

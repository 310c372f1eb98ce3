"""The workload generators, and short traced runs of them: every layer the
benchmark names is reached, nothing fails, and the deterministic counts
repeat exactly."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import run
import workloads
from rugsim.scenario import load_scenario, reference_scenario

SHORT_STORM = 400


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def test_storm_is_a_pure_function_of_the_seed():
    assert canonical(workloads.storm_doc(5)) == canonical(workloads.storm_doc(5))
    assert canonical(workloads.storm_doc(5)) != canonical(workloads.storm_doc(6))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_reference_doc_is_builtin_reference(seed):
    assert workloads.reference_doc(seed) == reference_scenario(10_000, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_storm_loads_and_references_only_declared_ids(seed):
    doc = workloads.storm_doc(seed)
    load_scenario(doc)

    def referenced(entries, key):
        return {entry[key] for entry in entries if key in entry}

    accounts = referenced(doc["accounts"], "id")
    pools = referenced(doc["pools"], "id")
    vaults = referenced(doc["vaults"], "id")
    tokens = referenced(doc["tokens"], "id") | {doc["numeraire"]}
    tokens |= {f"anti:{v['rugged_token']}@{v['chain']}" for v in doc["vaults"]}
    agents = doc["agents"]
    steps = [step for agent in agents for step in agent.get("script", [])]
    noise = [agent["noise"] for agent in agents if "noise" in agent]
    assert referenced(doc["pools"], "token_x") | referenced(doc["pools"], "token_y") <= tokens
    assert referenced(agents + steps + noise + doc["intents"], "pool") <= pools
    assert referenced(agents + steps, "vault") | set(doc["perps"]["enabled_vaults"]) <= vaults
    assert referenced(steps + doc["intents"], "token") <= tokens
    assert referenced(steps, "insured") | referenced(doc["intents"], "owner") <= accounts
    assert {name for agent in agents for name in agent.get("protects", [])} <= accounts
    assert doc["perps"]["amm_pool"] in pools


@dataclass
class Traced:
    doc: dict
    tally: run.Tally
    results: list
    values: dict
    events: Path


def traced_storm(seed: int) -> Traced:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    doc = workloads.storm_doc(seed, SHORT_STORM)
    doc_path = run.WORK / "storm.json"
    doc_path.write_text(canonical(doc), encoding="utf-8")
    tally, results, overhead = run.measure_traced(
        run.WORKLOADS["storm"], doc, doc_path, time.monotonic() + 150)
    return Traced(doc, tally, results, run.layer_metrics(results, overhead),
                  run.WORK / "run" / "events.jsonl")


@pytest.fixture(scope="module")
def storm_twice():
    """Two traced short storms of one seed; the first one's written trace is
    read before the second overwrites it."""
    try:
        first = traced_storm(3)
        attempted, _ = run.count_operations(first.doc, SHORT_STORM, first.events)
        noise = sum(1 for line in first.events.open(encoding="utf-8")
                    if '"memo":"noise"' in line and '"type":"swap"' in line)
        yield first, traced_storm(3), attempted, noise
    finally:
        run.remove_work()


def test_short_storm_reaches_every_layer(storm_twice):
    first, _, _, _ = storm_twice
    run.check_guards(run.WORKLOADS["storm"], first.values)


def test_short_storm_stays_under_the_failed_share_cap(storm_twice):
    first, _, _, _ = storm_twice
    assert first.tally.attempted > 0
    assert first.tally.failed / first.tally.attempted <= workloads.STORM_FAILED_SHARE_CAP


def test_attempts_are_script_steps_queue_work_and_noise(storm_twice):
    first, _, attempted, noise = storm_twice
    due = sum(1 for agent in first.doc["agents"] for step in agent.get("script", [])
              if 1 <= step["block"] <= SHORT_STORM)
    assert attempted == due + first.results[0]["calls"]["harness.queue.executed"] + noise


def deterministic(traced: Traced) -> dict:
    counts = {name: value for name, value in traced.values.items()
              if name.endswith(".calls") or name in run.COUNTED
              or name in ("core.fnv1a_64.bytes", "core.ln.evals", "harness.queue.peak")}
    counts["events"] = run.event_counts(traced.results)
    return counts


def test_deterministic_counts_repeat_exactly(storm_twice):
    first, second, _, _ = storm_twice
    assert deterministic(first) == deterministic(second)
    assert first.tally.run_hash == second.tally.run_hash


def test_reference_never_reaches_the_storm_only_layers():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    try:
        doc = workloads.reference_doc(3, 300)
        doc_path = run.WORK / "reference.json"
        doc_path.write_text(canonical(doc), encoding="utf-8")
        _, results, overhead = run.measure_traced(
            run.WORKLOADS["reference"], doc, doc_path, time.monotonic() + 150)
        values = run.layer_metrics(results, overhead)
        run.check_guards(run.WORKLOADS["reference"], values)
        assert all(values[f"{name}.calls"] == 0 for name in run.STORM_ONLY)
    finally:
        run.remove_work()


def test_refuses_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_work").exists()

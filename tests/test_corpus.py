"""The pinned-output corpus (see ``tests/pinned.py``): every named run's
trace hash, ``state.json`` and ``telemetry.csv``, each sweep's summary
digest, the schema's stdout and the four figure CSVs must be byte-identical
to the pins in
``tests/data/pinned_hashes.json``, under any hash seed. The
corpus runs' lines must also match their ``EVENT_TYPES`` entries."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import pinned
from rugsim.core import amt
from rugsim.harness import run_scenario
from rugsim.scenario import scam_scenario
from rugsim.trace import (AMOUNT, EVENT_TYPES, INT, INT_OR_NULL, TEXT, TEXT_OR_NULL,
                          make_event)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """name -> (pins, output directory) of every corpus run, run once,
    two at a time."""
    work = tmp_path_factory.mktemp("corpus")
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {name: pool.submit(pinned.run_entry, name, work) for name in pinned.CORPUS}
        return {name: run.result() for name, run in runs.items()}


def test_corpus_outputs_match_their_pins(corpus):
    assert pinned.changes(pinned.load_pins(), pinned.all_pins(corpus)) == [], \
        "re-pin with `python tests/pinned.py --repin` only for an intended change"


def test_hash_seed_leaves_a_storm_trace_unchanged(tmp_path):
    # a storm document cut to 100 blocks, in two interpreters at once
    doc = tmp_path / "storm.json"
    doc.write_text(json.dumps(pinned.workloads.storm_doc(777)), encoding="utf-8")
    src = str(pinned.ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for seed in ("0", "12345"):
        argv = [sys.executable, "-m", "rugsim.cli", "run", "--scenario", str(doc),
                "--blocks", "100", "--out", str(tmp_path / seed)]
        runs[seed] = subprocess.Popen(
            argv, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for seed, run in runs.items():
        _, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
    hashes = {(tmp_path / seed / "hash.txt").read_text() for seed in runs}
    assert len(hashes) == 1, hashes


# what a JSON value of each kind may be; an amount is also str(FixedAmount)
KIND_TYPES = {AMOUNT: (str,), INT: (int,), TEXT: (str,), INT_OR_NULL: (int, type(None)),
              TEXT_OR_NULL: (str, type(None))}


def _rare_events_doc() -> dict:
    """builtin:scam plus the steps that write the three types no corpus run
    writes: a withdrawal with no anticoins fails, a policy expires
    unclaimed, and the intent's owner holds nothing when it triggers."""
    doc = scam_scenario()
    doc["accounts"].append({"id": "insurer", "balances": {"USDN": "100"}})
    doc["agents"] += [
        {"kind": "retail", "account": "intent-user", "script": [
            {"block": 1, "op": "transfer", "token": "RUG", "to": "unprotected",
             "amount": "100"},
            {"block": 1, "op": "withdraw", "vault": "v-rug", "amount": "1"}]},
        {"kind": "retail", "account": "insurer", "script": [
            {"block": 1, "op": "issue_policy", "insured": "unprotected",
             "insured_value": "100", "x": "0.1", "duration": 2}]},
    ]
    return doc


def _check_line(line: dict) -> None:
    fields = EVENT_TYPES[line["type"]]
    assert type(line["h"]) is int and type(line["chain"]) is str
    kinds = {name.rstrip("?"): kind[0] if name.endswith("?") else kind
             for name, kind in fields.items()}
    required = {name for name in fields if not name.endswith("?")}
    written = line.keys() - {"type", "h", "chain"}
    # an optional field is omitted, never written as null
    assert required <= written <= kinds.keys(), line
    for name in written:
        value = line[name]
        assert type(value) in KIND_TYPES[kinds[name]], (name, line)
        if kinds[name] == AMOUNT:
            assert str(amt(value)) == value, (name, line)


def test_every_event_line_matches_its_event_type(corpus, tmp_path):
    _, sweep = corpus["builtin:reference lambda sweep (summary.csv sha256)"]
    traces = [sweep / "vaults.0.penalty_lambda=2",  # builtin:reference, 200 blocks
              corpus["builtin:scam"][1], corpus["storm_doc(777)"][1]]
    run_scenario(_rare_events_doc(), out_dir=str(tmp_path))[1].write()
    seen = set()
    for trace in traces + [tmp_path]:
        for text in (trace / "events.jsonl").read_text(encoding="utf-8").splitlines():
            line = json.loads(text)
            seen.add(line["type"])
            _check_line(line)
    assert seen == EVENT_TYPES.keys()


def test_an_event_off_its_table_entry_is_refused():
    with pytest.raises(KeyError):
        make_event("note", 1, "home", (), {})
    with pytest.raises(ValueError):
        make_event("policy_expired", 1, "home", ("pol-1", "extra"), {})
    with pytest.raises(KeyError):
        make_event("policy_expired", 1, "home", ("pol-1",), {"account": "a"})

"""The trace writer hashes what it writes, once, and caches the digest."""

import json

from rugsim.core import fnv1a_64
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario
from rugsim.trace import Trace


def short_trace() -> Trace:
    return run_scenario(reference_scenario(blocks=50))[1]


def test_written_hash_matches_the_file_bytes(tmp_path):
    trace = short_trace()
    trace.write(str(tmp_path))
    from_file = f"{fnv1a_64((tmp_path / 'events.jsonl').read_bytes()):016x}"
    state = json.loads((tmp_path / "state.json").read_text())
    assert (tmp_path / "hash.txt").read_text() == from_file + "\n"
    assert state["trace_hash"] == from_file
    assert trace.trace_hash() == from_file


def test_record_after_write_changes_the_hash(tmp_path):
    trace = short_trace()
    trace.write(str(tmp_path))
    written = trace.trace_hash()
    trace.record({"type": "note", "h": 51})
    assert trace.trace_hash() != written
    assert trace.trace_hash() == Trace(events=list(trace.events)).trace_hash()


def test_hash_without_write_matches_written_hash(tmp_path):
    unwritten = short_trace()
    written = short_trace()
    written.write(str(tmp_path))
    assert unwritten.trace_hash() == (tmp_path / "hash.txt").read_text().strip()

"""The trace writer hashes what it writes, once, and caches the digest;
the verifier names the first event that breaks conservation."""

import json

from hypothesis import given, strategies as st

from rugsim.core import fnv1a_64
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario
from rugsim.trace import Trace, canonical_line, verify_trace


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(st.dictionaries(st.text(), json_values, max_size=6))
def test_canonical_line_is_sorted_compact_json(event):
    # st.text() draws non-ASCII and surrogate code points, escaped as \uXXXX
    assert canonical_line(event) == json.dumps(event, sort_keys=True,
                                               separators=(",", ":"))


def tamper(trace_dir, index: int, **changes) -> str:
    """Rewrite event ``index`` with ``changes`` and re-seal the hash, so only
    the balance replay can catch it; returns the rewritten line."""
    events_path = trace_dir / "events.jsonl"
    lines = events_path.read_bytes().split(b"\n")[:-1]
    event = json.loads(lines[index])
    event.update(changes)
    lines[index] = canonical_line(event).encode("utf-8")
    events_path.write_bytes(b"".join(line + b"\n" for line in lines))
    digest = f"{fnv1a_64(events_path.read_bytes()):016x}"
    (trace_dir / "hash.txt").write_text(digest + "\n")
    state = json.loads((trace_dir / "state.json").read_text())
    state["trace_hash"] = digest
    (trace_dir / "state.json").write_text(json.dumps(state))
    return lines[index].decode("utf-8")


def test_tampered_trace_reports_the_violating_line(tmp_path):
    short_trace().write(str(tmp_path / "clean"))
    events = [json.loads(line) for line in
              (tmp_path / "clean" / "events.jsonl").read_text().splitlines()]
    first = {kind: next(i for i, e in enumerate(events) if e["type"] == kind)
             for kind in ("mint", "burn", "transfer")}
    for kind, amount in (("mint", "-1"), ("burn", "1000000000"),
                         ("transfer", "1000000000")):
        trace_dir = tmp_path / kind
        short_trace().write(str(trace_dir))
        line = tamper(trace_dir, first[kind], amount=amount)
        result = verify_trace(str(trace_dir))
        assert (result.ok, result.error) == (False, "conservation violated")
        assert result.first_violation == line


def test_reference_hash_is_pinned():
    # 2,000 blocks of builtin:reference take the integer ln kernel and the
    # peg keeper's integer sizing through 349 peg trades; any change to a
    # rounded value changes this hash
    trace = run_scenario(reference_scenario(blocks=2000))[1]
    assert sum(event["type"] == "peg_trade" for event in trace.events) == 349
    assert trace.trace_hash() == "2d6dd5df99c6ebbe"

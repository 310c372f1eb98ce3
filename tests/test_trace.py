"""The trace writer hashes what it writes, once, and caches the digest;
the verifier names the first event that breaks conservation."""

import json

import pytest
from hypothesis import given, strategies as st

from rugsim.cli import main
from rugsim.core import MAX_RAW, SCALE, amt, fnv1a_64
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario
from rugsim.trace import Trace, _amount_raw, canonical_line, verify_trace


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


def tamper(trace_dir, index: int, drop: tuple = (), whole: object = None,
           **changes) -> str:
    """Rewrite event ``index`` with ``changes`` and without the keys in
    ``drop`` (or replace it by ``whole``), and re-seal the hash, so only the
    balance replay can catch it; returns the rewritten line."""
    events_path = trace_dir / "events.jsonl"
    lines = events_path.read_bytes().split(b"\n")[:-1]
    event = json.loads(lines[index]) if whole is None else whole
    if whole is None:
        event.update(changes)
        for key in drop:
            del event[key]
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


@pytest.mark.parametrize("drop,changes", [
    ((), {"amount": "1e30"}),
    ((), {"amount": "abc"}),
    ((), {"amount": 5.5}),
    (("amount",), {}),
    ((), {"amount": "1000000000000000000.000000001"}),  # MAX_RAW + 1
    ((), {"amount": "1.0000000001"}),                   # ten places
    ((), {"amount": "9" * 5000}),                       # past int()'s digit limit
    ((), {"amount": "\u0661"}),                         # a non-ASCII digit
    ((), {"account": ["alice"]}),
    (("token",), {}),
    ((), {"whole": ["mint", "alice", "1"]}),
], ids=["exponent", "word", "float", "missing", "past-max-raw", "ten-places",
        "huge", "arabic-digit", "list-account", "no-token", "not-an-object"])
def test_verify_reports_a_malformed_amount_with_its_line(tmp_path, capsys, drop, changes):
    short_trace().write(str(tmp_path))
    events = (tmp_path / "events.jsonl").read_text().splitlines()
    first_mint = next(i for i, line in enumerate(events) if '"type":"mint"' in line)
    line = tamper(tmp_path, first_mint, drop=drop, **changes)
    assert main(["verify", "--trace", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err == ("verification failed: malformed event line\n"
                   f"first violation: {line}\n")
    assert verify_trace(str(tmp_path)).first_violation == line


def test_verify_skips_an_unhashable_event_type(tmp_path):
    # not a movement, so alice's genesis RUG is missing from the replay and
    # her first deposit overdraws
    short_trace().write(str(tmp_path))
    events = (tmp_path / "events.jsonl").read_text().splitlines()
    tamper(tmp_path, next(i for i, line in enumerate(events) if '"type":"mint"' in line),
           type=["mint"])
    result = verify_trace(str(tmp_path))
    assert (result.ok, result.error) == (False, "conservation violated")
    assert '"src":"alice"' in result.first_violation


def test_verify_replays_canonical_amounts_exactly(tmp_path):
    short_trace().write(str(tmp_path))
    for text, raw in (("0", 0), ("-0", 0), ("12", 12 * SCALE), ("0.5", SCALE // 2),
                      ("1.000000001", SCALE + 1), ("007.25", 7_250_000_000),
                      ("1000000000000000000", MAX_RAW), ("-3.5", -3_500_000_000)):
        assert _amount_raw(text) == raw == amt(text).raw
    for value in ("1e3", "1.", ".5", "+1", " 1", "1_000", "NaN", 7, None):
        assert _amount_raw(value) is None


def test_reference_hash_is_pinned():
    # 2,000 blocks of builtin:reference take the integer ln kernel and the
    # peg keeper's integer sizing through 349 peg trades; any change to a
    # rounded value changes this hash
    trace = run_scenario(reference_scenario(blocks=2000))[1]
    assert sum(event["type"] == "peg_trade" for event in trace.events) == 349
    assert trace.trace_hash() == "2d6dd5df99c6ebbe"

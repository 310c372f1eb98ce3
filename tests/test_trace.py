"""The trace writer hashes what it writes, once, and caches the digest;
the verifier streams the trace in bounded memory and names the first event
that breaks conservation, with its line."""

import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rugsim import trace as trace_module
from rugsim.cli import main
from rugsim.core import MAX_RAW, SCALE, amt, fnv1a_64
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario
from rugsim.trace import Trace, _amount_raw, canonical_line, verify_trace


def short_trace() -> Trace:
    return run_scenario(reference_scenario(blocks=50))[1]


@pytest.fixture(scope="module")
def reference_2000() -> Trace:
    return run_scenario(reference_scenario(blocks=2000))[1]


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
    reseal(trace_dir)
    return lines[index].decode("utf-8")


def reseal(trace_dir) -> None:
    """Make hash.txt and state.json's trace_hash those of events.jsonl as
    it now is."""
    digest = f"{fnv1a_64((trace_dir / 'events.jsonl').read_bytes()):016x}"
    (trace_dir / "hash.txt").write_text(digest + "\n")
    edit_state(trace_dir, trace_hash=digest)


def edit_state(trace_dir, **changes) -> None:
    state = json.loads((trace_dir / "state.json").read_text())
    state.update(changes)
    (trace_dir / "state.json").write_text(json.dumps(state))


def first_index(trace_dir, kind: str, after: int = -1) -> int:
    """The 0-based index of the first ``kind`` event after ``after``."""
    lines = (trace_dir / "events.jsonl").read_text().splitlines()
    return next(i for i, line in enumerate(lines)
                if i > after and f'"type":"{kind}"' in line)


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
                   f"first violation at line {first_mint + 1}: {line}\n")
    result = verify_trace(str(tmp_path))
    assert (result.first_violation, result.line) == (line, first_mint + 1)


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


def test_reference_hash_is_pinned(reference_2000):
    # 2,000 blocks of builtin:reference take the integer ln kernel and the
    # peg keeper's integer sizing through 349 peg trades; any change to a
    # rounded value changes this hash
    trace = reference_2000
    assert sum(event["type"] == "peg_trade" for event in trace.events) == 349
    assert trace.trace_hash() == "2d6dd5df99c6ebbe"


def verify_peak(trace_dir) -> int:
    """verify_trace's peak of traced Python allocations, in bytes."""
    tracemalloc.start()
    try:
        assert verify_trace(str(trace_dir)).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_trace(tmp_path, reference_2000):
    # the 2,000-block events.jsonl is ~0.8 MB; decoded into one list it
    # would take several MB
    reference_2000.write(str(tmp_path / "long"))
    run_scenario(reference_scenario(blocks=300))[1].write(str(tmp_path / "short"))
    long_peak = verify_peak(tmp_path / "long")
    assert long_peak < 2_000_000
    assert long_peak - verify_peak(tmp_path / "short") < 1_000_000


def verdict(trace_dir) -> tuple:
    result = verify_trace(str(trace_dir))
    return result.ok, result.error, result.first_violation, result.line


def write_rewritten(trace_dir, rewrite, sealed: bool) -> None:
    short_trace().write(str(trace_dir))
    events_path = trace_dir / "events.jsonl"
    events_path.write_bytes(rewrite(events_path.read_bytes()))
    if sealed:
        reseal(trace_dir)


LONG_MEMO = "x" * (2 * trace_module.READ_BLOCK + 5)

# (rewrite of events.jsonl, re-sealed?, verdict as (ok, error, first_violation)
# or an error prefix); each verdict is the one a line-by-line read of the
# file gives, whatever the block size
BOUNDARY_CASES = {
    "long-line": (lambda data: data.replace(
        b'"type":"mint"', f'"memo":"{LONG_MEMO}","type":"mint"'.encode(), 1),
        True, (True, None, None)),
    "no-trailing-newline": (lambda data: data[:-1], False, "hash mismatch"),
    "no-trailing-newline-sealed": (lambda data: data[:-1], True, (True, None, None)),
    "appended-blank-line": (lambda data: data + b"\n", True,
                            (False, "malformed event line", "")),
    "crlf": (lambda data: data.replace(b"\n", b"\r\n"), False, "hash mismatch"),
    "crlf-sealed": (lambda data: data.replace(b"\n", b"\r\n"), True, (True, None, None)),
}


@pytest.mark.parametrize("block", [1, 7, 4096, trace_module.READ_BLOCK])
@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_verify_verdict_does_not_depend_on_block_edges(tmp_path, monkeypatch, case, block):
    rewrite, sealed, expected = BOUNDARY_CASES[case]
    write_rewritten(tmp_path, rewrite, sealed)
    lines = (tmp_path / "events.jsonl").read_bytes().count(b"\n")
    monkeypatch.setattr(trace_module, "READ_BLOCK", block)
    ok, error, first_violation, line = verdict(tmp_path)
    if isinstance(expected, str):
        assert (ok, error.startswith(expected), line) == (False, True, None)
    else:
        assert (ok, error, first_violation) == expected
        assert line == (lines if error else None)
    if case == "long-line":
        assert len(max((tmp_path / "events.jsonl").read_bytes().split(b"\n"), key=len)) > block


def test_verify_finds_a_violation_split_across_a_block_edge(tmp_path, monkeypatch):
    short_trace().write(str(tmp_path))
    index = first_index(tmp_path, "transfer", after=40)
    line = tamper(tmp_path, index, amount="1000000000")
    expected = (False, "conservation violated", line, index + 1)
    assert verdict(tmp_path) == expected
    data = (tmp_path / "events.jsonl").read_bytes()
    start = data.index(line.encode())
    # a block edge falls in the middle of the violating line
    monkeypatch.setattr(trace_module, "READ_BLOCK", start + len(line) // 2)
    assert verdict(tmp_path) == expected


def test_an_undecodable_line_after_a_violation_wins(tmp_path):
    short_trace().write(str(tmp_path))
    violating = first_index(tmp_path, "transfer")
    tamper(tmp_path, violating, amount="1000000000")
    events_path = tmp_path / "events.jsonl"
    lines = events_path.read_bytes().split(b"\n")
    lines[violating + 30] = b"{oops"
    events_path.write_bytes(b"\n".join(lines))
    reseal(tmp_path)
    assert verdict(tmp_path) == (False, "malformed event line", "{oops", violating + 31)


def test_a_hash_mismatch_wins_over_a_violation(tmp_path):
    short_trace().write(str(tmp_path))
    tamper(tmp_path, first_index(tmp_path, "burn"), amount="1000000000")
    (tmp_path / "hash.txt").write_text("0" * 16 + "\n")
    ok, error, _, line = verdict(tmp_path)
    assert (ok, error.startswith("hash mismatch: recorded 0000000000000000"), line) == (
        False, True, None)


def test_a_replay_failure_wins_over_a_final_balance_mismatch(tmp_path):
    short_trace().write(str(tmp_path))
    index = first_index(tmp_path, "burn")
    line = tamper(tmp_path, index, amount="1000000000")
    edit_state(tmp_path, balances={"nobody": {"RUG": "1"}})
    assert verdict(tmp_path) == (False, "conservation violated", line, index + 1)


def test_state_json_carries_no_initial_balances_and_older_traces_verify(tmp_path):
    short_trace().write(str(tmp_path))
    assert "initial_balances" not in json.loads((tmp_path / "state.json").read_text())
    edit_state(tmp_path, initial_balances={})  # as traces written before
    assert verify_trace(str(tmp_path)).ok


def rewrite_file(name: str, content: bytes):
    def rewrite(trace_dir):
        (trace_dir / name).write_bytes(content)
    return rewrite


def events_as_directory(trace_dir):
    (trace_dir / "events.jsonl").unlink()
    (trace_dir / "events.jsonl").mkdir()


def append_and_reseal(content: bytes):
    def rewrite(trace_dir):
        with open(trace_dir / "events.jsonl", "ab") as handle:
            handle.write(content)
        reseal(trace_dir)
    return rewrite


@pytest.mark.parametrize("damage,code,message", [
    (rewrite_file("state.json", b"{bad"), 4, "state.json is not UTF-8 JSON"),
    (rewrite_file("state.json", b"[1]"), 4, "state.json is not a JSON object"),
    (lambda trace_dir: edit_state(trace_dir, initial_balances={"alice": {"RUG": "abc"}}),
     4, "state.json initial_balances is not empty"),
    (lambda trace_dir: edit_state(trace_dir, balances=[[1]]),
     4, "state.json balances is not a JSON object"),
    (rewrite_file("hash.txt", b"\xff\xfe\n"), 4, "hash.txt is not UTF-8 text"),
    (events_as_directory, 2, "cannot read events.jsonl: "),
    (append_and_reseal(b'{"big":' + b"9" * 5000 + b"}\n"), 4, "malformed event line"),
    (append_and_reseal(b"[" * 100_000 + b"\n"), 4, "malformed event line"),
    (append_and_reseal(2 * b'{"account":"zz","amount":"1000000000000000000",'
                           b'"token":"T","type":"mint"}\n'),
     4, "balance out of range"),
], ids=["state-not-json", "state-not-object", "initial-balance-word",
        "balances-not-object", "hash-not-utf8", "events-is-a-directory",
        "int-past-digit-limit", "nested-past-recursion-limit", "balance-past-max-raw"])
def test_verify_never_ends_in_a_traceback(tmp_path, capsys, damage, code, message):
    short_trace().write(str(tmp_path))
    damage(tmp_path)
    assert main(["verify", "--trace", str(tmp_path)]) == code
    first, *rest = capsys.readouterr().err.splitlines()
    assert first.startswith(f"verification failed: {message}")
    assert all(line.startswith("first violation at line ") for line in rest)


def test_hash_mismatch_message_stays_on_one_line(tmp_path, capsys):
    trace = short_trace()
    trace.write(str(tmp_path))
    (tmp_path / "hash.txt").write_text("abc\ndef\n")
    assert main(["verify", "--trace", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        f"verification failed: hash mismatch: recorded abc\\ndef, "
        f"recomputed {trace.trace_hash()}\n")

"""The trace writes and hashes its events in batches as a run records
them, so a run's memory does not grow with its length; the verifier
streams the trace in bounded memory and names the first event that breaks
conservation, with its line."""

import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rugsim import core, trace as trace_module
from rugsim.cli import main
from rugsim.core import MAX_RAW, SCALE, ParameterError, amt, fnv1a_64
from rugsim.harness import Simulation, run_scenario
from rugsim.scenario import load_scenario, reference_scenario, scam_scenario
from rugsim.trace import FLUSH_EVENTS, Trace, _amount_raw, canonical_line, verify_trace

from test_harness import multichain_doc


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
    expected = json.dumps(event, sort_keys=True, separators=(",", ":"))
    assert canonical_line(event) == expected
    assert "".join(trace_module._line_encoder(None)(event, 0)) == expected


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("doc", [lambda: reference_scenario(blocks=50), multichain_doc],
                         ids=["reference", "multichain"])
def test_each_streamed_line_is_json_dumps_of_the_kept_event(tmp_path, doc):
    kept = run_scenario(doc())[1].events
    run_scenario(doc(), out_dir=str(tmp_path))[1].write()
    lines = (tmp_path / "events.jsonl").read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [dumps(event) for event in kept]


# values the run corpus lacks; the last four are what canonical_line shows
# for a malformed line that is not an object
ENCODER_CASES = {
    "quote-and-backslash": {"memo": 'say "hi" \\ bye', "type": "transfer"},
    "control-characters": {"memo": "\x00\x01\x08\t\n\x0c\r\x1b\x1f\x7f"},
    "line-separators": {"memo": "\u2028\u2029"},
    "non-ascii-accounts": {"type": "transfer", "src": "åsa", "dst": "ωmega\U0001f600",
                           "token": "RUG", "amount": "1.5", "memo": "é"},
    "failed-detail": {"type": "failed", "op": "swap", "error": "StateError",
                      "detail": "pool {a-usdn} broke:\n{\"x\": [1]}"},
    "nulls": {"liquidator": None, "serial": None, "h": 3},
    "ints": {"h": -1, "big": 10**40, "low": -(10**30), "zero": 0, "raw": MAX_RAW},
    "list": [1, "a", None, {"b": 2, "a": 1}],
    "string": "line\u2028",
    "int": -7,
    "null": None,
}


@pytest.mark.parametrize("case", sorted(ENCODER_CASES))
def test_the_line_encoder_gives_json_dumps_text(case):
    value = ENCODER_CASES[case]
    fallback = trace_module._line_encoder(None)
    assert canonical_line(value) == "".join(fallback(value, 0)) == dumps(value)


def test_an_unencodable_value_raises_the_json_dumps_error():
    fallback = trace_module._line_encoder(None)
    for value in ({"amount": amt(1)}, {"h": 1, "x": {1, 2}}, [b"raw"]):
        with pytest.raises(TypeError) as expected:
            dumps(value)
        for encode in (canonical_line, lambda value: "".join(fallback(value, 0))):
            with pytest.raises(TypeError) as raised:
                encode(value)
            assert str(raised.value) == str(expected.value)
        # nothing is left behind by the error
        assert canonical_line({"b": [1], "a": None}) == '{"a":null,"b":[1]}'


def test_a_run_builds_no_json_encoder(tmp_path, monkeypatch):
    # JSONEncoder.encode builds one per call; the trace built its one at
    # import. An indented encoder (state.json) is C only from Python 3.13.
    built = []
    make = json.encoder.c_make_encoder

    def counted(*args):
        built.append(args[3])  # indent
        return make(*args)
    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    assert main(["run", "--scenario", "builtin:reference", "--blocks", "200",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "state.json").exists()
    assert [indent for indent in built if indent is None] == []


@settings(derandomize=True, max_examples=25, deadline=None)
@given(events=st.lists(st.dictionaries(st.text(), json_values, max_size=3), max_size=12),
       flush_events=st.integers(1, 5), probe=st.integers(0, 12))
def test_streaming_matches_the_canonical_bytes_at_every_batch_size(events, flush_events,
                                                                   probe):
    def digest(count: int) -> str:
        return f"{fnv1a_64(b''.join(lines[:count])):016x}"

    lines = [(canonical_line(event) + "\n").encode("utf-8") for event in events]
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(trace_module, "FLUSH_EVENTS", flush_events)
        trace = Trace(out)
        for i, event in enumerate(events):
            if i == probe:  # a hash asked for mid-run
                assert trace.trace_hash() == digest(i)
            trace.record(event)
        assert len(trace.events) < flush_events
        trace.write()
        assert Path(out, "events.jsonl").read_bytes() == b"".join(lines)
        whole = digest(len(events))
        assert Path(out, "hash.txt").read_text() == whole + "\n"
        assert json.loads(Path(out, "state.json").read_text())["trace_hash"] == whole
        assert trace.trace_hash() == whole == Trace(events=events).trace_hash()


def test_a_streaming_run_holds_one_batch_and_no_telemetry(tmp_path, monkeypatch):
    held = []
    step = Simulation.step

    def checked_step(sim):
        step(sim)
        held.append((len(sim.trace.events), len(sim.trace.telemetry)))
    monkeypatch.setattr(Simulation, "step", checked_step)
    trace = run_scenario(reference_scenario(blocks=300), out_dir=str(tmp_path / "s"))[1]
    trace.write()
    assert trace.event_count > FLUSH_EVENTS
    assert max(events for events, _ in held) <= FLUSH_EVENTS
    assert {rows for _, rows in held} == {0}
    # the same bytes as the run that keeps every event
    monkeypatch.undo()
    run_scenario(reference_scenario(blocks=300))[1].write(str(tmp_path / "k"))
    for name in ("events.jsonl", "telemetry.csv", "state.json", "hash.txt"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "k" / name).read_bytes()


def test_a_failed_run_removes_only_the_directories_its_trace_made(tmp_path):
    made = tmp_path / "a" / "b"
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (made, kept):
        with pytest.raises(ParameterError, match="need at least one block"):
            run_scenario(scam_scenario(), blocks=0, out_dir=str(out))
    # a and a/b were made by the trace; kept existed before it
    assert sorted(path.name for path in tmp_path.iterdir()) == ["kept"]
    assert list(kept.iterdir()) == []
    # a directory that holds another file is not removed
    sim = Simulation(load_scenario(scam_scenario()), str(made))
    (made.parent / "other").write_text("")
    with pytest.raises(ParameterError):
        sim.run(0)
    assert [path.name for path in made.parent.iterdir()] == ["other"]


def test_each_flush_and_read_block_is_hashed_in_one_call(tmp_path, monkeypatch):
    # the benchmark counts fnv1a_64 calls and bytes at every binding of the
    # name, as here: slicing inside the kernel must not show in the count
    sizes = []

    def counted(data, state=core.FNV_OFFSET):
        sizes.append(len(data))
        return fnv1a_64(data, state)
    monkeypatch.setattr(core, "fnv1a_64", counted)
    monkeypatch.setattr(trace_module, "fnv1a_64", counted)
    trace = Trace(str(tmp_path))
    for i in range(2 * FLUSH_EVENTS + 5):
        trace.record({"type": "note", "i": i, "memo": "m" * 40})
    trace.write()
    events = (tmp_path / "events.jsonl").read_bytes()
    assert sizes[0] > 3 * core._FNV_SLICE
    assert len(sizes) == 3 and sum(sizes) == len(events)
    assert trace.trace_hash() == f"{fnv1a_64(events):016x}"
    sizes.clear()
    assert verify_trace(str(tmp_path)).ok
    block = trace_module.READ_BLOCK
    assert sizes == [min(block, len(events) - at) for at in range(0, len(events), block)]


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
    assert trace.trace_hash() == "4370c2c334aa399b"


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


def line_by_line(trace_dir, copy_dir) -> tuple:
    """The verdict verify_trace must give on a sealed trace, as a reference
    that decodes events.jsonl one ``json.loads`` per line: the first line
    that does not decode, else the verdict on the decoded values written
    back one canonical line each, as the writer emits them."""
    lines = (trace_dir / "events.jsonl").read_bytes().split(b"\n")
    if not lines[-1]:  # the file's last "\n" ends a line and starts none
        lines.pop()
    events = []
    for number, line in enumerate(lines, 1):
        try:
            events.append(json.loads(line.decode("utf-8")))
        except (ValueError, RecursionError):
            return False, "malformed event line", line.decode("utf-8", "replace"), number
    shutil.copytree(trace_dir, copy_dir)
    (copy_dir / "events.jsonl").write_text("".join(canonical_line(event) + "\n"
                                                   for event in events))
    reseal(copy_dir)
    return verdict(copy_dir)


def insert(index: int, *new: bytes):
    """A rewrite of events.jsonl that puts ``new`` before its 0-based line
    ``index``."""
    def rewrite(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[index:index] = new
        return b"\n".join(lines)
    return rewrite


def edit(index: int, change):
    """A rewrite of events.jsonl that applies ``change`` to its 0-based line
    ``index``."""
    def rewrite(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[index] = change(lines[index])
        return b"\n".join(lines)
    return rewrite


# rewrites of the 38 lines of a 3-block reference trace, each re-sealed; the
# scanner takes a line's value only if it ends at the line's "\n", so every
# other line must get the verdict json.loads gives it
EXACTNESS_CASES = {
    # each not JSON, but "[" + the two joined by "," + "]" decodes to two dicts
    "joined-lines": insert(38, b'{"type":"note","a":1},{"b":[{}', b'{}]}'),
    "leading-space": edit(5, lambda line: b" " + line),
    "trailing-tab": edit(5, lambda line: line + b"\t"),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "nan": insert(20, b"NaN"),
    "not-utf8-mid-block": edit(20, lambda line: line.replace(b'"type"', b'"ty\xffpe"')),
    "line-across-block-edges": edit(4, lambda line: line.replace(
        b'"type"', f'"note":"{LONG_MEMO}","type"'.encode())),
    "5000-digit-int": insert(20, b'{"big":' + b"9" * 5000 + b"}"),
    "100000-brackets": insert(20, b"[" * 100_000),
    "blank-line": insert(20, b""),
    "unterminated-last-line": lambda data: data[:-1],
}


@pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
def test_verify_decodes_each_line_as_json_loads_does(tmp_path, monkeypatch, case):
    trace_dir = tmp_path / "trace"
    run_scenario(reference_scenario(blocks=3))[1].write(str(trace_dir))
    events_path = trace_dir / "events.jsonl"
    events_path.write_bytes(EXACTNESS_CASES[case](events_path.read_bytes()))
    reseal(trace_dir)
    expected = line_by_line(trace_dir, tmp_path / "reference")
    if case == "joined-lines":
        assert expected == (False, "malformed event line", '{"type":"note","a":1},{"b":[{}', 39)
    for block in (1, 7, 4096, 65536):
        monkeypatch.setattr(trace_module, "READ_BLOCK", block)
        assert verdict(trace_dir) == expected, block


@pytest.fixture(scope="module")
def reference_3_files(tmp_path_factory) -> dict:
    """The files of a 3-block reference trace, by name."""
    trace_dir = tmp_path_factory.mktemp("reference_3")
    run_scenario(reference_scenario(blocks=3))[1].write(str(trace_dir))
    return {path.name: path.read_bytes() for path in trace_dir.iterdir()}


def mutate(data: bytes, kind: str, at: int, byte: int) -> bytes:
    """``data`` with one byte flipped, a space or "\\r" inserted, the line
    that ``at`` falls in joined to the next, or split at ``at``."""
    at %= len(data)
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    if kind in (" ", "\r", "\n"):  # "\n" splits a line
        return data[:at] + kind.encode() + data[at:]
    end = data.find(b"\n", at)  # join
    return data if end < 0 else data[:end] + data[end + 1:]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(["flip", " ", "\r", "\n", "join"]),
                                    st.integers(0, 10**6), st.integers(1, 255)),
                          min_size=1, max_size=3),
       block=st.integers(1, 5000))
def test_verify_matches_line_by_line_decoding_on_mutated_lines(reference_3_files,
                                                               mutations, block):
    data = reference_3_files["events.jsonl"]
    for mutation in mutations:
        data = mutate(data, *mutation)
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        trace_dir = Path(out, "trace")
        trace_dir.mkdir()
        for name, content in reference_3_files.items():
            (trace_dir / name).write_bytes(content)
        (trace_dir / "events.jsonl").write_bytes(data)
        reseal(trace_dir)
        expected = line_by_line(trace_dir, Path(out, "reference"))
        patch.setattr(trace_module, "READ_BLOCK", block)
        assert verdict(trace_dir) == expected


def test_verify_decodes_canonical_lines_without_json_loads(tmp_path, monkeypatch,
                                                          reference_2000):
    # a fallback taken on every line would decode the trace correctly but
    # lose the scanner's speed; only state.json goes through json.loads
    reference_2000.write(str(tmp_path))
    decoded = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)
    monkeypatch.setattr(trace_module.json, "loads", counted)
    assert verify_trace(str(tmp_path)).ok
    assert decoded == [(tmp_path / "state.json").read_text()]


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


def set_in_state(*path, value):
    """A damage that sets one value of state.json, at a path of keys."""
    def damage(trace_dir):
        state = json.loads((trace_dir / "state.json").read_text())
        *outer, last = path
        section = state
        for key in outer:
            section = section[key]
        section[last] = value
        (trace_dir / "state.json").write_text(json.dumps(state))
    return damage


@pytest.mark.parametrize("damage,message,violation", [
    (set_in_state("pools", "rug-usdn", "reserve_x", value="1"),
     "state.json pools does not match replay", "pool rug-usdn: reserve_x replay="),
    (set_in_state("pools", "anti-usdn", "reserve_y", value="1.0000000001"),
     "state.json pools does not match replay", "pool anti-usdn: reserve_y replay="),
    (set_in_state("pools", "rug-usdn", "token_y", value="RUG"),
     "state.json pools does not match replay", "pool rug-usdn: reserve_y replay="),
    (set_in_state("pools", "rug-usdn", value=5),
     "state.json pools does not match replay",
     "pool rug-usdn: reserve_x replay=absent recorded=None"),
    (set_in_state("supply", "RUG", value="1"),
     "state.json supply does not match replay", "token RUG replay="),
    (set_in_state("supply", "NEW", value="0"),
     "state.json supply does not match replay", "token NEW replay=absent recorded=0"),
    (set_in_state("home_token_supply", value="5"),
     "state.json home_token_supply does not match replay", "R replay="),
    (set_in_state("failed_events", value=7),
     "state.json failed_events does not match replay", "replay=0 recorded=7"),
    (set_in_state("failed_events", value=False),
     "state.json failed_events does not match replay", "replay=0 recorded=False"),
], ids=["pool-reserve-x", "pool-reserve-y-ten-places", "pool-token", "pool-not-object", "supply",
        "supply-zero-token", "home-token-supply", "failed-events", "failed-events-bool"])
def test_verify_rebuilds_state_sections_from_the_replay(tmp_path, capsys, damage, message,
                                                        violation):
    # state.json is not hashed: each edit leaves the events and both hashes
    # as written, and only the replay can catch it
    short_trace().write(str(tmp_path))
    assert main(["verify", "--trace", str(tmp_path)]) == 0
    capsys.readouterr()
    damage(tmp_path)
    assert main(["verify", "--trace", str(tmp_path)]) == 4
    first, second = capsys.readouterr().err.splitlines()
    assert first == f"verification failed: {message}"
    assert second.startswith(f"first violation: {violation}")


def test_verify_counts_failed_lines_and_reads_absent_reserves_as_zero(tmp_path):
    # builtin:scam with a failed drain: state.json counts two failed lines,
    # and a pool's reserve of a token its account never held replays as 0
    from test_harness import failed_drain_doc
    _, trace = run_scenario(failed_drain_doc())
    trace.write(str(tmp_path))
    assert trace.failed_events == 2 and verify_trace(str(tmp_path)).ok
    set_in_state("failed_events", value=1)(tmp_path)
    assert verdict(tmp_path)[1] == "state.json failed_events does not match replay"
    set_in_state("failed_events", value=2)(tmp_path)
    set_in_state("pools", "rug-usdn", "token_x", value="NOPE")(tmp_path)
    assert verdict(tmp_path)[2].startswith("pool rug-usdn: reserve_x replay=0 recorded=")
    set_in_state("pools", "rug-usdn", "reserve_x", value="0")(tmp_path)
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
    (lambda trace_dir: edit_state(trace_dir, pools=[[1]]),
     4, "state.json pools or supply is not a JSON object"),
    (rewrite_file("hash.txt", b"\xff\xfe\n"), 4, "hash.txt is not UTF-8 text"),
    (events_as_directory, 2, "cannot read events.jsonl: "),
    (append_and_reseal(b'{"big":' + b"9" * 5000 + b"}\n"), 4, "malformed event line"),
    (append_and_reseal(b"[" * 100_000 + b"\n"), 4, "malformed event line"),
    (append_and_reseal(2 * b'{"account":"zz","amount":"1000000000000000000",'
                           b'"token":"T","type":"mint"}\n'),
     4, "balance out of range"),
], ids=["state-not-json", "state-not-object", "initial-balance-word",
        "balances-not-object", "pools-not-object", "hash-not-utf8", "events-is-a-directory",
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

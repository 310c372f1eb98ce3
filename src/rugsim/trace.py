"""Run outputs: the canonical JSONL event log, per-block telemetry CSV,
terminal state snapshot, and the 64-bit FNV-1a trace hash over canonical
event bytes, written and hashed in batches as the run records them. Also
the independent verifier that replays a written trace.

Canonical form: one JSON object per line, keys sorted, compact separators,
all amounts as decimal strings. Identical (scenario, engine) pairs produce
identical bytes, hence identical hashes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional

from .core import FNV_OFFSET, MAX_RAW, SCALE, FixedAmount, fnv1a_64

EVENTS_FILE = "events.jsonl"
TELEMETRY_FILE = "telemetry.csv"
STATE_FILE = "state.json"
HASH_FILE = "hash.txt"

TELEMETRY_COLUMNS = ("height", "emission", "burned", "current_supply", "target_supply")


# json.dumps(..., sort_keys=True, separators=(",", ":")) without building an
# encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_line(event: dict) -> str:
    return _CANONICAL.encode(event)


# a streaming trace encodes, hashes and writes its events this many at a time
FLUSH_EVENTS = 1024
# a streaming trace writes its four files under these suffixed names and
# renames them at write(), hash.txt last, so a run or write() that fails
# leaves none of them under their names
PARTIAL = ".partial"


class Trace:
    """A run's events, in order, and its per-block telemetry rows.

    Given ``out_dir``, the trace streams: once FLUSH_EVENTS events are
    pending, they are encoded as one chunk of canonical lines, folded into
    the running FNV-1a state and appended to events.jsonl, then dropped;
    each telemetry row goes to telemetry.csv as it is recorded. So
    ``events`` holds at most FLUSH_EVENTS pending events and ``telemetry``
    stays empty, however long the run. write() ends a streaming trace.

    Without a directory the trace keeps every event and row for the
    caller to read. trace_hash() folds the events not yet hashed through
    the same flush, and write(out_dir) streams a copy of the whole trace.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 events: Optional[list[dict]] = None) -> None:
        self.out_dir = out_dir
        self.events: list[dict] = [] if events is None else events
        self.telemetry: list[dict] = []
        self.final_state: dict = {}
        self.failed_events = 0
        self._state = FNV_OFFSET
        self._hashed = 0   # events[:_hashed] are in _state (kept traces only)
        self._written = 0  # events written and dropped (streaming traces only)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            self._events_file = open(os.path.join(out_dir, EVENTS_FILE + PARTIAL), "wb")
            self._telemetry_file = open(os.path.join(out_dir, TELEMETRY_FILE + PARTIAL),
                                        "w", encoding="utf-8", newline="")
            self._rows = csv.DictWriter(self._telemetry_file, fieldnames=TELEMETRY_COLUMNS)
            self._rows.writeheader()

    @property
    def event_count(self) -> int:
        return self._written + len(self.events)

    def record(self, event: dict) -> None:
        events = self.events
        events.append(event)
        if event.get("type") == "failed":
            self.failed_events += 1
        if len(events) >= FLUSH_EVENTS and self.out_dir is not None:
            self._flush()

    def record_telemetry(self, row: dict) -> None:
        if self.out_dir is None:
            self.telemetry.append(row)
        else:
            self._rows.writerow(row)

    def _flush(self) -> None:
        """Encode the events not yet hashed as one chunk, fold it into the
        FNV-1a state (FNV-1a is sequential, so this equals hashing line by
        line) and, for a streaming trace, append it to events.jsonl and
        drop the events."""
        pending = self.events[self._hashed:]
        if not pending:
            return
        chunk = ("\n".join(map(_CANONICAL.encode, pending)) + "\n").encode("utf-8")
        self._state = fnv1a_64(chunk, self._state)
        if self.out_dir is None:
            self._hashed = len(self.events)
        else:
            self._events_file.write(chunk)
            self._written += len(pending)
            self.events = []

    def trace_hash(self) -> str:
        self._flush()
        return f"{self._state:016x}"

    def write(self, out_dir: Optional[str] = None) -> None:
        """Finish the four files: the events still pending, then state.json
        and hash.txt; if that fails, delete them all and re-raise. A
        streaming trace finishes its own directory and ignores ``out_dir``;
        a kept trace is written to ``out_dir`` through a streaming copy."""
        if self.out_dir is None:
            if out_dir is None:
                raise ValueError("a trace without a directory is written to out_dir")
            copy = Trace(out_dir, events=list(self.events))
            for row in self.telemetry:
                copy.record_telemetry(row)
            copy.final_state = self.final_state
            copy.write()
            return
        paths = [os.path.join(self.out_dir, name)
                 for name in (EVENTS_FILE, TELEMETRY_FILE, STATE_FILE, HASH_FILE)]
        renamed = 0
        try:
            self._flush()
            digest = f"{self._state:016x}"
            for handle in (self._events_file, self._telemetry_file):
                handle.close()
            state = json.dumps(dict(self.final_state, trace_hash=digest), indent=2,
                               sort_keys=True)
            for path, text in ((paths[2], state), (paths[3], digest)):
                with open(path + PARTIAL, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            for renamed, path in enumerate(paths):  # hash.txt last
                os.replace(path + PARTIAL, path)
        except BaseException:
            for path in paths[:renamed] + [path + PARTIAL for path in paths]:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise

    def discard(self) -> None:
        """Close a streaming trace's files and delete them, for a run that
        failed; a trace without a directory has none."""
        if self.out_dir is None:
            return
        for handle in (self._events_file, self._telemetry_file):
            handle.close()
            os.remove(handle.name)


class VerifyResult:
    __slots__ = ("ok", "error", "first_violation", "line", "unreadable")

    def __init__(self, ok: bool, error: Optional[str] = None,
                 first_violation: Optional[str] = None, line: Optional[int] = None,
                 unreadable: bool = False):
        self.ok, self.error, self.first_violation = ok, error, first_violation
        # 1-based line of events.jsonl the first violation sits on, if any
        self.line = line
        # the trace could not be read (as opposed to read and found wrong)
        self.unreadable = unreadable


# an amount as the writer emits it: str(FixedAmount)
_AMOUNT = re.compile(r"-?[0-9]+(?:\.[0-9]{1,9})?")
# the accounts each ledger movement names
_MOVES = {"mint": ("account",), "burn": ("account",), "transfer": ("src", "dst")}


def _amount_raw(value: object) -> Optional[int]:
    """Raw quanta of an amount string matching _AMOUNT, else None."""
    if type(value) is not str or _AMOUNT.fullmatch(value) is None:
        return None
    whole, _, frac = value.partition(".")
    try:
        raw = abs(int(whole)) * SCALE + int(frac.ljust(9, "0"))
    except ValueError:  # more digits than int() converts
        return None
    return -raw if whole[0] == "-" else raw


def _replay_balances(events: Iterable[object]) -> tuple[dict, Optional[VerifyResult]]:
    """Replay ledger movements from zero balances, in raw quanta.

    Returns (balances, failure): balances are keyed (account, token) -> raw
    int; failure names the first movement that is malformed (an amount
    that is not a decimal string of at most nine places or is above
    MAX_RAW, or an account or token that is not a string), that breaks
    conservation (a negative amount, or a debit the running balance does
    not cover) or that credits a balance past MAX_RAW. The replay stops
    there, without taking another event from ``events``.
    """
    balances: dict[tuple[str, str], int] = {}
    get = balances.get

    def failure(error: str, event: object) -> VerifyResult:
        return VerifyResult(False, error=error, first_violation=canonical_line(event))

    for event in events:
        if type(event) is not dict:
            return balances, failure("malformed event line", event)
        kind = event.get("type")
        holders = _MOVES.get(kind) if type(kind) is str else None
        if holders is None:
            continue
        raw = _amount_raw(event.get("amount"))
        if (raw is None or raw > MAX_RAW
                or any(type(event.get(key)) is not str for key in ("token", *holders))):
            return balances, failure("malformed event line", event)
        if raw < 0:
            return balances, failure("conservation violated", event)
        token = event["token"]
        if kind != "mint":  # burn and transfer debit their first account
            src = (event[holders[0]], token)
            holding = get(src, 0)
            if holding < raw:
                return balances, failure("conservation violated", event)
            balances[src] = holding - raw
        if kind != "burn":  # mint and transfer credit their last account
            dst = (event[holders[-1]], token)
            credited = balances[dst] = get(dst, 0) + raw
            if credited > MAX_RAW:
                return balances, failure("balance out of range", event)
    return balances, None


# events.jsonl is read in blocks of this many bytes, so verify holds one
# block and the longest line at a time, whatever the length of the trace
READ_BLOCK = 64 * 1024


class _EventStream:
    """The events of an open events.jsonl, decoded line by line as the
    file is read in READ_BLOCK-byte blocks.

    Each block is folded into the FNV-1a ``state`` whole as it is read
    (FNV-1a is sequential, so this equals hashing line by line): the
    bytes are hashed exactly as stored, and a blank line or a rewritten
    line ending changes the hash. ``line`` is the 1-based number of the
    last line decoded. Iteration stops at the first line that is not
    UTF-8 JSON and keeps its failure in ``malformed``.
    """

    def __init__(self, handle: BinaryIO) -> None:
        self.handle = handle
        self.state = FNV_OFFSET
        self.line = 0
        self.malformed: Optional[VerifyResult] = None

    def _lines(self) -> Iterator[bytes]:
        """The file's lines without their "\\n", a last unterminated one
        included."""
        head: list[bytes] = []  # the start of a line that spans blocks
        while block := self.handle.read(READ_BLOCK):
            self.state = fnv1a_64(block, self.state)
            lines = block.split(b"\n")
            head.append(lines[0])
            if len(lines) > 1:
                lines[0] = b"".join(head)
                head = [lines.pop()]
                yield from lines
        last = b"".join(head)
        if last:
            yield last

    def __iter__(self) -> Iterator[object]:
        for line in self._lines():
            self.line += 1
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # also UnicodeDecodeError
                self.malformed = VerifyResult(
                    False, error="malformed event line",
                    first_violation=line.decode("utf-8", "replace"), line=self.line)
                return
            yield event


def verify_trace(trace_dir: str) -> VerifyResult:
    """Recompute the hash and replay conservation from a written trace.

    events.jsonl is hashed, decoded and replayed in one streaming pass,
    so memory holds one read block, the longest line and the running
    balances, however long the trace. The outcome is the first of:
    a missing or unreadable file (``unreadable``); the first line that
    is not UTF-8 JSON; hash.txt not matching the event bytes; state.json
    not a JSON object whose trace_hash matches them (with no
    initial_balances but ``{}``, and balances an object); the first
    movement the replay rejects; replayed final balances that differ
    from state.json's. Lines after a replay failure are still hashed and
    decoded, so this order holds wherever the failures sit.
    """
    paths = {name: Path(trace_dir, name) for name in (EVENTS_FILE, STATE_FILE, HASH_FILE)}
    for name, path in paths.items():
        if not path.exists():
            return VerifyResult(False, error=f"missing {name}", unreadable=True)

    reading = HASH_FILE
    try:
        hash_bytes = paths[HASH_FILE].read_bytes()
        reading = STATE_FILE
        state_bytes = paths[STATE_FILE].read_bytes()
        reading = EVENTS_FILE
        with open(paths[EVENTS_FILE], "rb") as handle:
            stream = _EventStream(handle)
            events = iter(stream)
            balances, failure = _replay_balances(events)
            if failure is not None:
                failure.line = stream.line
            for _ in events:  # the lines after a replay failure
                pass
    except OSError as exc:
        return VerifyResult(False, error=f"cannot read {reading}: {exc.strerror}",
                            unreadable=True)
    if stream.malformed is not None:
        return stream.malformed

    recomputed = f"{stream.state:016x}"
    try:
        recorded = hash_bytes.decode("utf-8").strip()
    except UnicodeDecodeError:
        return VerifyResult(False, error="hash.txt is not UTF-8 text")
    if recorded != recomputed:
        # escaped, so that a line break in hash.txt cannot split the message
        shown = recorded.encode("unicode_escape").decode("ascii")
        return VerifyResult(False, error=f"hash mismatch: recorded {shown}, "
                                         f"recomputed {recomputed}")

    try:
        snapshot = json.loads(state_bytes.decode("utf-8"))
    except (ValueError, RecursionError):
        return VerifyResult(False, error="state.json is not UTF-8 JSON")
    if type(snapshot) is not dict:
        return VerifyResult(False, error="state.json is not a JSON object")
    if snapshot.get("trace_hash") != recomputed:
        return VerifyResult(False, error="state.json hash does not match events")
    # the replay starts from zero (genesis is minted as events); older
    # writers emitted initial_balances as {}
    if snapshot.get("initial_balances", {}) != {}:
        return VerifyResult(False, error="state.json initial_balances is not empty")
    recorded_final = snapshot.get("balances", {})
    if type(recorded_final) is not dict:
        return VerifyResult(False, error="state.json balances is not a JSON object")

    if failure is not None:
        return failure
    replayed_final: dict[str, dict[str, str]] = {}
    for (account, token), raw in balances.items():
        if raw != 0:
            replayed_final.setdefault(account, {})[token] = str(FixedAmount(raw))
    if replayed_final != recorded_final:
        for account in sorted(set(replayed_final) | set(recorded_final)):
            if replayed_final.get(account) != recorded_final.get(account):
                return VerifyResult(
                    False, error="final balances do not match replay",
                    first_violation=f"account {account}: replay="
                                    f"{replayed_final.get(account)} "
                                    f"recorded={recorded_final.get(account)}")
    return VerifyResult(True)

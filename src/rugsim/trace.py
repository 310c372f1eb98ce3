"""Run outputs: the canonical JSONL event log, per-block telemetry CSV,
terminal state snapshot, and the 64-bit FNV-1a trace hash over canonical
event bytes. Also the independent verifier that replays a written trace.

Canonical form: one JSON object per line, keys sorted, compact separators,
all amounts as decimal strings. Identical (scenario, engine) pairs produce
identical bytes, hence identical hashes.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

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


@dataclass
class Trace:
    events: list[dict] = field(default_factory=list)
    telemetry: list[dict] = field(default_factory=list)
    final_state: dict = field(default_factory=dict)
    failed_events: int = 0
    # (len(events), hex digest) of the last hash pass; a later record()
    # changes the length, so a stale digest is never returned
    _digest: Optional[tuple[int, str]] = field(default=None, init=False,
                                               repr=False, compare=False)

    def record(self, event: dict) -> None:
        self.events.append(event)
        if event.get("type") == "failed":
            self.failed_events += 1

    def _hash_events(self, sink: Optional[Callable[[bytes], object]] = None) -> str:
        """One pass over the events: each canonical line's exact bytes go
        to ``sink`` (when given) and into the FNV-1a state. Caches the
        digest."""
        state = FNV_OFFSET
        for event in self.events:
            line = (canonical_line(event) + "\n").encode("utf-8")
            if sink is not None:
                sink(line)
            state = fnv1a_64(line, state)
        digest = f"{state:016x}"
        self._digest = (len(self.events), digest)
        return digest

    def trace_hash(self) -> str:
        if self._digest is not None and self._digest[0] == len(self.events):
            return self._digest[1]
        return self._hash_events()

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, EVENTS_FILE), "wb") as handle:
            digest = self._hash_events(handle.write)
        with open(os.path.join(out_dir, TELEMETRY_FILE), "w", encoding="utf-8",
                  newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=TELEMETRY_COLUMNS)
            writer.writeheader()
            for row in self.telemetry:
                writer.writerow(row)
        state = dict(self.final_state)
        state["trace_hash"] = digest
        with open(os.path.join(out_dir, STATE_FILE), "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(os.path.join(out_dir, HASH_FILE), "w", encoding="utf-8") as handle:
            handle.write(digest + "\n")


@dataclass
class VerifyResult:
    ok: bool
    error: Optional[str] = None
    first_violation: Optional[str] = None
    # 1-based line of events.jsonl the first violation sits on, if any
    line: Optional[int] = None
    # the trace could not be read (as opposed to read and found wrong)
    unreadable: bool = False


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

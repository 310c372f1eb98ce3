"""Run outputs: the canonical JSONL event log, per-block telemetry CSV,
terminal state snapshot, and the trace hash, a BLAKE2b-256 digest of the
canonical event bytes written as 64 hex digits; the events are written and
hashed in batches as the run records them. Also the independent verifier,
which hashes, decodes and replays a written trace's events in one pass
over its blocks.

Canonical form: one JSON object per line, keys sorted, compact separators.
``EVENT_TYPES`` declares every event's fields, and ``make_event`` builds
each line from it, writing every amount as ``str(FixedAmount)``. Identical
(scenario, engine) pairs produce identical bytes, hence identical hashes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from pathlib import Path
from typing import Optional

# the C module that hashlib.blake2b names: importing hashlib loads OpenSSL's
# libcrypto, which raised the 10k reference run's peak RSS from 17.9 to
# 21.7 MB and verify's from 16.4 to 19.8 MB (CPython 3.11.7, x86-64 Linux)
from _blake2 import blake2b

from .core import HOME_TOKEN, MAX_RAW, SCALE, FixedAmount

EVENTS_FILE = "events.jsonl"
TELEMETRY_FILE = "telemetry.csv"
STATE_FILE = "state.json"
HASH_FILE = "hash.txt"

TELEMETRY_COLUMNS = ("height", "emission", "burned", "current_supply", "target_supply")

# Event field kinds: an amount is written as str(FixedAmount), an int as a
# JSON number, a string as a JSON string. A fungible deposit's serial is
# null, as is the liquidator of a flagged or auto-liquidated position.
AMOUNT, INT, TEXT = "amount", "int", "string"
INT_OR_NULL, TEXT_OR_NULL = "int or null", "string or null"

# event type -> its fields, in the order the engine passes them, and their
# kinds; every line also holds "type", "h" (the block height, an int) and
# "chain" (a string). A field ending in "?" is optional and maps to (kind,
# None), as in scenario.SCRIPT_OPS: it is passed by keyword, or omitted.
EVENT_TYPES = {
    "mint": {"account": TEXT, "token": TEXT, "amount": AMOUNT, "memo": TEXT},
    "burn": {"account": TEXT, "token": TEXT, "amount": AMOUNT, "memo": TEXT},
    "transfer": {"src": TEXT, "dst": TEXT, "token": TEXT, "amount": AMOUNT, "memo": TEXT},
    "failed": {"op": TEXT, "error": TEXT, "detail": TEXT, "account?": (TEXT, None),
               "vault?": (TEXT, None)},
    "swap": {"pool": TEXT, "account": TEXT, "token_in": TEXT, "amount_in": AMOUNT,
             "token_out": TEXT, "amount_out": AMOUNT, "memo": TEXT},
    "add_liquidity": {"pool": TEXT, "account": TEXT, "dx": AMOUNT, "dy": AMOUNT},
    "remove_liquidity": {"pool": TEXT, "account": TEXT, "out_x": AMOUNT, "out_y": AMOUNT},
    "peg_trade": {"pool": TEXT, "peg": AMOUNT, "amount_in": AMOUNT, "token_in": TEXT,
                  "spot_after": AMOUNT},
    "drain_submitted": {"pool": TEXT, "creator": TEXT, "t_rug": AMOUNT, "t_total": AMOUNT,
                        "executes_at": INT},
    "drain_executed": {"pool": TEXT, "creator": TEXT, "naive_target": AMOUNT,
                       "realized": AMOUNT, "spot_after": AMOUNT},
    "risk_signal": {"kind": TEXT, "magnitude": AMOUNT, "pool?": (TEXT, None)},
    # a frontrun plan quotes its amount, a sandwich plan its profit
    "plan": {"kind": TEXT, "account": TEXT, "pool": TEXT, "amount?": (AMOUNT, None),
             "quoted?": (AMOUNT, None), "expected_profit?": (AMOUNT, None)},
    "sandwich_settled": {"account": TEXT, "profit": AMOUNT, "to_treasury": AMOUNT},
    "intent_registered": {"owner": TEXT, "pool": TEXT, "theta_price": AMOUNT,
                          "theta_liquidity": AMOUNT},
    "intent_triggered": {"intent": INT, "owner": TEXT, "solver": TEXT, "fee_bps": INT},
    "intent_skipped": {"intent": INT, "owner": TEXT, "reason": TEXT},
    "intent_executed": {"intent": INT, "owner": TEXT, "solver": TEXT, "fee_bps": INT},
    "deposit": {"vault": TEXT, "account": TEXT, "amount": AMOUNT, "receipt_kind": TEXT,
                "serial": INT_OR_NULL},
    "anticoin_burn": {"vault": TEXT, "account": TEXT, "amount": AMOUNT,
                      "supply_after": AMOUNT},
    "withdraw": {"vault": TEXT, "account": TEXT, "amount": AMOUNT, "returned": AMOUNT,
                 "penalty": AMOUNT, "rate": AMOUNT, "index": INT},
    "reward_emitted": {"kind": TEXT, "vault": TEXT, "account": TEXT, "amount": AMOUNT,
                       "deliver_at": INT},
    "bridge_delivery": {"kind": TEXT, "vault": TEXT, "account": TEXT, "amount": AMOUNT},
    "position_opened": {"vault": TEXT, "account": TEXT, "position": INT,
                        "collateral": AMOUNT, "leverage": AMOUNT, "direction": TEXT,
                        "entry": AMOUNT},
    "funding_round": {"vault": TEXT, "rate": AMOUNT, "paying_side": TEXT, "transfers": INT,
                      "dust": AMOUNT},
    "liquidation": {"vault": TEXT, "position": INT, "kind": TEXT, "liquidator": TEXT_OR_NULL,
                    "fee_ca": AMOUNT, "swap_ca": AMOUNT},
    "bonded_issuance": {"issuance": TEXT, "issuer": TEXT, "token": TEXT, "bond": AMOUNT},
    "rug_claim": {"claim": TEXT, "issuance": TEXT, "claimant": TEXT, "bond": AMOUNT,
                  "challenge_end": INT},
    "rug_vote": {"claim": TEXT, "voter": TEXT, "side": TEXT, "deposit": AMOUNT},
    "rug_claim_resolved": {"claim": TEXT, "outcome": TEXT, "slashed": AMOUNT},
    "policy_issued": {"policy": TEXT, "insurer": TEXT, "insured": TEXT, "bond": AMOUNT},
    "insurance_claim": {"claim": TEXT, "policy": TEXT, "claimant": TEXT, "bond": AMOUNT},
    "claim_joined": {"claim": TEXT, "account": TEXT, "bond": AMOUNT},
    "claim_disputed": {"claim": TEXT, "challenger": TEXT, "bond": AMOUNT},
    "insurance_vote": {"claim": TEXT, "voter": TEXT, "side": TEXT},
    "claim_escalated": {"claim": TEXT, "party": TEXT, "level": INT},
    "insurance_resolved": {"claim": TEXT, "outcome": TEXT, "slashed": AMOUNT},
    "policy_expired": {"policy": TEXT},
}

# event type -> (its required fields in order, the amounts among them, its
# optional fields -> whether each is an amount)
_LAYOUTS = {kind: (tuple(name for name in fields if name[-1] != "?"),
                   tuple(name for name, field in fields.items() if field == AMOUNT),
                   {name[:-1]: field[0] == AMOUNT
                    for name, field in fields.items() if name[-1] == "?"})
            for kind, fields in EVENT_TYPES.items()}


def make_event(event_type: str, height: int, chain: str, values: tuple,
               optional: dict) -> dict:
    """An event's line: its required fields' ``values`` in table order, its
    ``optional`` ones by name, and only the table's amounts formatted, with
    str(). An unknown type or field, or a wrong count of values, raises."""
    names, amounts, optionals = _LAYOUTS[event_type]
    if len(values) != len(names):  # zip(strict=True) made the whole call ~15% slower
        raise ValueError(f"{event_type} takes {len(names)} values, got {len(values)}")
    event = dict(zip(names, values))
    event["type"], event["h"], event["chain"] = event_type, height, chain
    for name in amounts:
        event[name] = str(event[name])
    if optional:
        for name, value in optional.items():
            event[name] = str(value) if optionals[name] else value
    return event


# json.dumps(..., sort_keys=True, separators=(",", ":"))
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line_encoder(make_encoder=json.encoder.c_make_encoder):
    """The canonical encoder, built once (JSONEncoder.encode builds one per
    call): encode(value, 0) gives the chunks of value's json.dumps text. It
    keeps no markers dict, as no event holds a cycle. Without a C encoder,
    _CANONICAL.encode gives the text as one chunk."""
    c = _CANONICAL
    if make_encoder is None:
        return lambda value, _level: (c.encode(value),)
    return make_encoder(None, c.default, json.encoder.encode_basestring_ascii, c.indent,
                        c.key_separator, c.item_separator, c.sort_keys, c.skipkeys, c.allow_nan)


_ENCODE = _line_encoder()


def canonical_line(event: dict) -> str:
    return "".join(_ENCODE(event, 0))


# a streaming trace encodes, hashes and writes its events this many at a time
FLUSH_EVENTS = 1024
# a streaming trace writes its four files under these suffixed names and
# renames them at write(), hash.txt last, so a run or write() that fails
# leaves none of them under their names
PARTIAL = ".partial"


class Trace:
    """A run's events, in order, and its per-block telemetry rows.

    Given ``out_dir``, the trace streams: once FLUSH_EVENTS events are
    pending, they are encoded as one chunk of canonical lines, fed to the
    running BLAKE2b-256 digest and appended to events.jsonl, then dropped;
    each telemetry row goes to telemetry.csv as it is recorded. So
    ``events`` holds at most FLUSH_EVENTS pending events and ``telemetry``
    stays empty, however long the run. write() ends a streaming trace.

    Without a directory the trace keeps every event and row for the
    caller to read. trace_hash() hashes the events not yet hashed through
    the same flush, and write(out_dir) streams a copy of the whole trace.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 events: Optional[list[dict]] = None) -> None:
        self.out_dir = out_dir
        self.events: list[dict] = [] if events is None else events
        self.telemetry: list[dict] = []
        self.final_state: dict = {}
        self.failed_events = 0
        self._digest = blake2b(digest_size=32)
        self._hashed = 0   # events[:_hashed] are in _digest (kept traces only)
        self._written = 0  # events written and dropped (streaming traces only)
        # the directories os.makedirs creates, deepest first; discard() removes them
        self._made_dirs: list[str] = []
        if out_dir is not None:
            path = os.path.abspath(out_dir)
            while not os.path.exists(path):
                self._made_dirs.append(path)
                path = os.path.dirname(path)
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
        """Encode the events not yet hashed as one chunk, feed it to the
        digest (a hash fed in pieces equals the hash of their bytes joined)
        and, for a streaming trace, append it to events.jsonl and drop the
        events."""
        pending = self.events[self._hashed:]
        if not pending:
            return
        chunk = ("\n".join(["".join(_ENCODE(e, 0)) for e in pending]) + "\n").encode("utf-8")
        self._digest.update(chunk)
        if self.out_dir is None:
            self._hashed = len(self.events)
        else:
            self._events_file.write(chunk)
            self._written += len(pending)
            self.events = []

    def trace_hash(self) -> str:
        self._flush()
        return self._digest.hexdigest()

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
            digest = self._digest.hexdigest()
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
        failed, then each directory the trace created that is left empty; a
        trace without a directory has none."""
        if self.out_dir is None:
            return
        for handle in (self._events_file, self._telemetry_file):
            handle.close()
            os.remove(handle.name)
        for path in self._made_dirs:
            with contextlib.suppress(OSError):  # not empty
                os.rmdir(path)


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
# the accounts each ledger movement names: its fields before token, amount, memo
_MOVES = {kind: tuple(EVENT_TYPES[kind])[:-3] for kind in ("mint", "burn", "transfer")}


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


# events.jsonl is read in blocks of this many bytes, so verify holds one
# block and the longest line at a time, whatever the length of the trace
READ_BLOCK = 64 * 1024

# the C scanner behind json.loads: scan_once(text, index) -> (value, end),
# raising StopIteration where no value starts at index
_SCAN = json.JSONDecoder().scan_once
# movement type -> (the account field it debits, the one it credits), None
# for neither: burn and transfer debit their first account, mint and
# transfer credit their last
_REPLAY = {kind: (None if kind == "mint" else holders[0],
                  None if kind == "burn" else holders[-1])
           for kind, holders in _MOVES.items()}


def verify_trace(trace_dir: str) -> VerifyResult:
    """Recompute the hash and replay conservation from a written trace.

    events.jsonl is hashed, decoded and replayed in one streaming pass,
    so memory holds one read block, the longest line and the running
    balances, however long the trace. Each READ_BLOCK-byte block is fed
    to the BLAKE2b-256 digest in one call as read (a hash fed in pieces
    equals the hash of their bytes joined): the bytes are hashed exactly
    as stored, so a blank line or a rewritten line ending changes the
    hash. The block's complete lines are decoded to text once, and the
    JSON scanner runs at each line's start; its value is taken only if
    it ends at that line's "\\n". Any other line is decoded by
    json.loads, and a line that is not UTF-8 is malformed, so every
    verdict is the one json.loads gives line by line. Each ledger
    movement is replayed from zero balances, in raw quanta, as it is
    decoded.

    The outcome is the first of: a missing or unreadable file
    (``unreadable``); the first line that is not UTF-8 JSON; hash.txt
    not matching the event bytes; state.json not a JSON object whose
    trace_hash matches them (with no initial_balances but ``{}``, and
    balances an object); the first movement the replay rejects (an
    event that is not an object, an amount that is not a decimal string
    of at most nine places or is above MAX_RAW, or an account or token
    that is not a string; a negative amount or a debit the running
    balance does not cover; a balance credited past MAX_RAW); replayed
    final balances that differ from state.json's; state.json's pools,
    supply, home_token_supply and failed_events, rebuilt from the replayed
    balances and the ``failed`` lines, that differ from it (see
    ``_derived_mismatch``). Lines after a replay failure are still hashed
    and decoded, so this order holds wherever the failures sit.
    """
    paths = {name: Path(trace_dir, name) for name in (EVENTS_FILE, STATE_FILE, HASH_FILE)}
    for name, path in paths.items():
        if not path.exists():
            return VerifyResult(False, error=f"missing {name}", unreadable=True)

    reading = HASH_FILE
    digest, line, balances, failed = blake2b(digest_size=32), 0, {}, 0
    get = balances.get
    malformed: Optional[tuple] = None  # the first line that is not UTF-8 JSON, and its number
    failure: Optional[tuple] = None  # the first movement rejected: (error, event, line)
    try:
        hash_bytes = paths[HASH_FILE].read_bytes()
        reading = STATE_FILE
        state_bytes = paths[STATE_FILE].read_bytes()
        reading = EVENTS_FILE
        with open(paths[EVENTS_FILE], "rb") as handle:
            head: list[bytes] = []  # the start of a line that spans blocks
            while malformed is None:
                block = handle.read(READ_BLOCK)
                if block:
                    digest.update(block)
                    cut = block.rfind(b"\n") + 1
                    if not cut:
                        head.append(block)
                        continue
                    head.append(block[:cut])
                    lines, head = b"".join(head), [block[cut:]]
                elif any(head):  # a last line without its "\n"
                    lines, head = b"".join(head) + b"\n", []
                else:
                    break
                try:
                    text, undecodable = lines.decode("utf-8"), b""
                except UnicodeDecodeError as exc:
                    # the lines before the one holding the first bad byte decode
                    cut = lines.rfind(b"\n", 0, exc.start) + 1
                    text, undecodable = lines[:cut].decode("utf-8"), lines[cut:]
                start, size = 0, len(text)
                while start < size:
                    end = text.index("\n", start)
                    line += 1
                    try:
                        event, scanned = _SCAN(text, start)
                    except (StopIteration, ValueError, RecursionError):
                        scanned = -1  # json.loads decides, and names the error
                    if scanned != end:  # not one value filling the line
                        try:
                            event = json.loads(text[start:end])
                        except (ValueError, RecursionError):
                            malformed = text[start:end], line
                            break
                    start = end + 1
                    if failure is not None:  # later lines are only hashed and decoded
                        continue
                    if type(event) is not dict:
                        failure = "malformed event line", event, line
                        continue
                    kind = event.get("type")
                    if kind == "failed":
                        failed += 1
                        continue
                    move = _REPLAY.get(kind) if type(kind) is str else None
                    if move is None:
                        continue
                    debited, credited = move  # no JSON key is None
                    token, src, dst = event.get("token"), event.get(debited), event.get(credited)
                    raw = _amount_raw(event.get("amount"))
                    if (raw is None or raw > MAX_RAW or type(token) is not str
                            or debited and type(src) is not str
                            or credited and type(dst) is not str):
                        failure = "malformed event line", event, line
                        continue
                    if raw < 0:
                        failure = "conservation violated", event, line
                        continue
                    if debited:
                        holding = get((src, token), 0)
                        if holding < raw:
                            failure = "conservation violated", event, line
                            continue
                        balances[src, token] = holding - raw
                    if credited:
                        balance = balances[dst, token] = get((dst, token), 0) + raw
                        if balance > MAX_RAW:
                            failure = "balance out of range", event, line
                if undecodable and malformed is None:
                    bad = undecodable[:undecodable.index(b"\n")]
                    malformed = bad.decode("utf-8", "replace"), line + 1
    except OSError as exc:
        return VerifyResult(False, error=f"cannot read {reading}: {exc.strerror}",
                            unreadable=True)
    if malformed is not None:
        return VerifyResult(False, error="malformed event line", first_violation=malformed[0],
                            line=malformed[1])

    recomputed = digest.hexdigest()
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
        error, event, line = failure
        return VerifyResult(False, error=error, first_violation=canonical_line(event), line=line)
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
    mismatch = _derived_mismatch(snapshot, balances, failed)
    if mismatch is not None:
        return VerifyResult(False, error=mismatch[0], first_violation=mismatch[1])
    return VerifyResult(True)


def _derived_mismatch(snapshot: dict, balances: dict[tuple[str, str], int],
                      failed: int) -> Optional[tuple[str, str]]:
    """The first value of state.json's ``pools``, ``supply``,
    ``home_token_supply`` and ``failed_events`` that is not the replay's, as
    (error, violation), else None. A pool's reserve is its ``pool:<id>``
    balance of that side's token (0 if absent; pools by sorted id), and a
    token's supply its balances summed, recorded only if not 0. Amounts
    compare in value; an absent section reads as an empty run's."""
    supply: dict[str, int] = {}
    for (_, token), raw in balances.items():
        if raw:
            supply[token] = supply.get(token, 0) + raw
    pools, recorded_supply = snapshot.get("pools", {}), snapshot.get("supply", {})
    if type(pools) is not dict or type(recorded_supply) is not dict:
        return "state.json pools or supply is not a JSON object", ""
    # (section, where, recorded, replayed raw or None where nothing may be)
    checks = []
    for pool_id, entry in sorted(pools.items()):
        entry = entry if type(entry) is dict else {}
        for side in "xy":
            token = entry.get(f"token_{side}")
            replayed = balances.get((f"pool:{pool_id}", token), 0) \
                if type(token) is str else None
            checks.append(("pools", f"pool {pool_id}: reserve_{side}",
                           entry.get(f"reserve_{side}"), replayed))
    checks += [("supply", f"token {token}", recorded_supply.get(token), supply.get(token))
               for token in sorted(set(recorded_supply) | set(supply))]
    checks.append(("home_token_supply", HOME_TOKEN, snapshot.get("home_token_supply", "0"),
                   supply.get(HOME_TOKEN, 0)))
    for section, where, recorded, replayed in checks:
        if replayed is None or _amount_raw(recorded) != replayed:
            shown = "absent" if replayed is None else (
                str(FixedAmount(replayed)) if replayed <= MAX_RAW else f"{replayed} quanta")
            return (f"state.json {section} does not match replay",
                    f"{where} replay={shown} recorded={recorded}")
    recorded = snapshot.get("failed_events", 0)
    if type(recorded) is not int or recorded != failed:
        return ("state.json failed_events does not match replay",
                f"replay={failed} recorded={recorded}")
    return None

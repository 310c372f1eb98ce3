"""Scenario documents: the JSON-compatible configuration tree that fully
determines a simulation run, its parse into checked and defaulted values,
and the built-in reference scenarios.

All monetary fields are decimal strings (or ints); bare JSON floats are
rejected so a scenario byte-for-byte determines the run. Every field is
described by one table entry, which gives its kind and, for an optional
field, its default, written as a document would write it;
``load_scenario`` parses each field by its table once, and the engine
reads only the parsed values. A field's range (its kind's) and its default
are written only here: the engine reads the parsed sections unchecked, and
no engine constructor or function defaults a document field. Errors name
the offending path, e.g. ``vaults[0].theta``.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Callable, NamedTuple, Optional

from .core import HOME_TOKEN, MAX_RAW, SCALE, FixedAmount, RugsimError, amt
from .detection import IntentAction
from .ledger import ENGINE_ACCOUNT_PREFIXES
from .market import LP_TOKEN_PREFIX, RugKind
from .trace import EVENT_TYPES
from .vault import ReceiptKind, anticoin_id

KNOWN_AGENT_KINDS = ("creator", "retail", "whale", "lp", "solver",
                     "liquidator", "pegkeeper", "detector")


class Direction(enum.Enum):  # a perp position's side
    LONG = "long"
    SHORT = "short"


# Argument kinds. A scalar kind is its schema text: a ranged amount or int,
# a string, a bool, a declared id of a reference kind, or a new id that
# declares one. An enum class takes its values (and parses to its member),
# a tuple takes its strings, a one-element list is a list of that kind and
# a dict is a nested object with a table of its own. A table key ending in
# "?" is optional and maps to (kind, default): an absent or null field
# takes the default, written as a document would and parsed by the kind;
# a default of None stays None.
AMOUNT, NONNEG, POSITIVE, FRACTION, SHARE, UNIT, AT_LEAST_ONE, ABOVE_ONE = (
    "amount", "amount >= 0", "amount > 0", "amount in (0, 1)", "amount in (0, 1]",
    "amount in [0, 1]", "amount >= 1", "amount > 1")
INT, NAT, COUNT, BPS = "int", "int >= 0", "int >= 1", "int in [0, 10000]"
# the seed is taken mod 2**64 (SeededRng), so a larger one would alias a smaller
SEED = "int in [0, 2**64 - 1]"
# the least and greatest value each ranged kind accepts (raw quanta for
# amounts); None leaves that side open
AMOUNT_RANGES = {AMOUNT: (None, None), NONNEG: (0, None), POSITIVE: (1, None),
                 FRACTION: (1, SCALE - 1), SHARE: (1, SCALE), UNIT: (0, SCALE),
                 AT_LEAST_ONE: (SCALE, None), ABOVE_ONE: (SCALE + 1, None)}
INT_RANGES = {INT: (None, None), NAT: (0, None), COUNT: (1, None), BPS: (0, 10000),
              SEED: (0, 2**64 - 1)}
TEXT, BOOL, AMOUNT_OR_AUTO = "string", "true|false", f"{POSITIVE} or 'auto'"
BALANCES = "{token id: amount >= 0}"
REF_KINDS = CHAIN, TOKEN, PRICED_TOKEN, POOL_TOKEN, POOL, VAULT, PERPS_VAULT, ACCOUNT = (
    "chain", "token", "priced token", "pool token", "pool", "vault", "perps vault",
    "account")
NEW_IDS = {f"new {kind} id": kind for kind in (CHAIN, TOKEN, POOL, VAULT, ACCOUNT)}
NEW_CHAIN, NEW_TOKEN, NEW_POOL, NEW_VAULT, NEW_ACCOUNT = NEW_IDS

# op -> (the entity whose chain runs it: "pool", "vault", "token" or "home",
#        the kinds of its arguments)
SCRIPT_OPS = {
    "drain": ("pool", {"pool": POOL, "t_rug": AMOUNT, "t_total": AMOUNT,
                       "window?": (COUNT, 1)}),
    "deposit": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    "burn": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    "withdraw": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    # token and recipient may come into being during the run (R, bonded tokens)
    "transfer": ("token", {"token": TEXT, "to": TEXT, "amount": AMOUNT}),
    "swap": ("pool", {"pool": POOL, "token_in": TEXT, "amount": AMOUNT}),
    "add_liquidity": ("pool", {"pool": POOL, "dx": POSITIVE, "dy": AMOUNT_OR_AUTO}),
    "remove_liquidity": ("pool", {"pool": POOL, "share": SHARE}),
    "open_position": ("vault", {"vault": PERPS_VAULT, "collateral": AMOUNT,
                                "leverage": AMOUNT, "direction": Direction}),
    # the top-level intents take these arguments too, plus their owner
    "register_intent": ("pool", {
        "pool": POOL, "token": TEXT, "action": IntentAction, "theta_price": FRACTION,
        "theta_liquidity": FRACTION, "vault?": (VAULT, None),
        # the highest solver fee the owner accepts: by default, any
        "solver_fee_bps?": (BPS, 10000)}),
    "issue_bonded": ("home", {"token": TEXT, "total_issued": AMOUNT, "x": AMOUNT}),
    "rug_claim": ("home", {"token": TEXT, "y": AMOUNT}),
    "vote_rug": ("home", {"token": TEXT, "deposit": AMOUNT, "side": TEXT}),
    "issue_policy": ("home", {"insured": ACCOUNT, "insured_value": AMOUNT,
                              "x": AMOUNT, "duration": INT}),
    # policy and claim ids are issued during the run
    "submit_claim": ("home", {"policy": TEXT, "y": AMOUNT, "loss?": (AMOUNT, None)}),
    "join_claim": ("home", {"claim": TEXT, "loss": AMOUNT, "w": AMOUNT}),
    "dispute_claim": ("home", {"claim": TEXT, "z": AMOUNT}),
    "vote_insurance": ("home", {"claim": TEXT, "deposit": AMOUNT, "side": TEXT}),
    "escalate": ("home", {"claim": TEXT}),
}
# each dispute book's ops: the engine builds the book for a document that names one
DISPUTE_OPS = {"rugproof": ("issue_bonded", "rug_claim", "vote_rug"),
               "insurance": ("issue_policy", "submit_claim", "join_claim", "dispute_claim",
                             "vote_insurance", "escalate")}
STEP_FIELDS = {"block": NAT, "op": tuple(SCRIPT_OPS)}

# the fields of the document itself, then of each entry of its lists
SCENARIO_FIELDS = {"seed": SEED, "blocks": COUNT, "bridge_delay_blocks?": (NAT, 1),
                   "chains": [NEW_CHAIN], "home_chain": CHAIN, "numeraire": NEW_TOKEN}
# a rate the kind does not read defaults to 0; the price floor is one quantum
PRICE_PROCESS_ARGS = {"kind": RugKind, "p0": POSITIVE, "tau_rug?": (AMOUNT, 0),
                      "lam?": (AMOUNT, 0), "alpha_sent?": (AMOUNT, 0),
                      "epsilon_floor?": (POSITIVE, "0.000000001")}
# the rate each price kind reads, and the kind of value it must hold
PRICE_RATES = {RugKind.SCAM: ("tau_rug", POSITIVE), RugKind.CATASTROPHIC: ("lam", NONNEG),
               RugKind.SENTIMENT: ("alpha_sent", NONNEG)}
TOKEN_FIELDS = {"id": NEW_TOKEN, "chain": CHAIN,
                "price_process?": (PRICE_PROCESS_ARGS, None)}
# an account without an owner is its own beneficial owner
ACCOUNT_FIELDS = {"id": NEW_ACCOUNT, "owner?": (TEXT, None), "balances?": (BALANCES, {})}
VAULT_FIELDS = {"id": NEW_VAULT, "chain": CHAIN, "rugged_token": PRICED_TOKEN,
                "receipt_kind?": (ReceiptKind, ReceiptKind.FUNGIBLE.value),
                "omega": NONNEG, "theta": AMOUNT, "penalty_k": NONNEG,
                # > 1: the whale penalty k * H**lambda is superlinear
                "penalty_lambda": ABOVE_ONE, "gamma_base": NONNEG, "delta_gamma": NONNEG}
# a pool trades declared tokens and the anticoins of declared vaults
POOL_FIELDS = {"id": NEW_POOL, "chain": CHAIN, "token_x": POOL_TOKEN,
               "token_y": POOL_TOKEN, "reserve_x": POSITIVE, "reserve_y": POSITIVE,
               "fee_bps?": (BPS, 0)}
INTENT_ARGS = {"owner": ACCOUNT, **SCRIPT_OPS["register_intent"][1]}
AGENT_ARGS = {"kind": KNOWN_AGENT_KINDS, "account": ACCOUNT,
              "noise?": ({"pool": POOL, "prob?": (UNIT, "0.1"),
                          "max_size?": (POSITIVE, 1)}, None)}
AGENT_PARAMS = {
    "pegkeeper": {"pool": POOL, "vault?": (VAULT, None), "budget?": (NONNEG, 0),
                  "tolerance?": (NONNEG, "0.005")},
    "detector": {"protects?": ([ACCOUNT], []), "sandwich_budget?": (NONNEG, 0),
                 "backrun_budget?": (NONNEG, 0), "backrun_cap?": (NONNEG, 0)},
    "solver": {"fee_bps?": (BPS, 0)},
}
# the object sections: tokenomics is required, a document without perps has
# no perp books, and the others take every default when absent
SECTION_FIELDS = {
    # s0 scales the supply target; epsilon_rate R is emitted a block, and a
    # block burns kappa of the excess over the target, at most beta_burn
    "tokenomics": {"initial_supply": NONNEG, "s0": NONNEG, "epsilon_rate": NONNEG,
                   "beta_burn": NONNEG, "kappa": UNIT},
    "perps?": ({
        "enabled_vaults?": ([VAULT], []), "alpha_base": POSITIVE, "l_min": POSITIVE,
        "interval_blocks": COUNT, "amm_pool?": (POOL, None),
        "maintenance_fraction?": (FRACTION, "0.1"), "max_leverage?": (AT_LEAST_ONE, 10),
        "liquidator_deadline_blocks?": (NAT, 5), "liquidator_fee_fraction?": (UNIT, "0.05"),
        "revalue_collateral?": (BOOL, False)}, None),
    "detection?": ({
        "drop_threshold?": (POSITIVE, "0.2"), "mint_spike_factor?": (NONNEG, 3),
        "wallet_outflow_fraction?": (UNIT, "0.5"), "volume_spike_factor?": (NONNEG, 4),
        # protective plans outbid drains by this much
        "protocol_priority_boost?": (COUNT, 20),
        # the share of a sandwich's profit sent to the treasury
        "sandwich_treasury_fraction?": (UNIT, 1)}, {}),
    # the slashed fractions of the issuer's and the claimant's bonds, the
    # claimant's share of an issuer slash, the least vote deposit and the
    # least issuance bond fraction
    "rugproof?": ({
        "alpha_slash?": (UNIT, "0.5"), "gamma_slash?": (UNIT, "0.5"),
        "claimant_share?": (UNIT, "0.5"), "z_min?": (NONNEG, 1),
        "challenge_blocks?": (COUNT, 10), "x_min?": (UNIT, "0.01")}, {}),
    # alpha_comp of the insurer's bond is paid to an approved claim's side,
    # gamma_pen of a rejected claim side's bonds is slashed
    "insurance?": ({
        "alpha_comp?": (UNIT, "0.2"), "gamma_pen?": (UNIT, "0.5"),
        "escalation_bond_multiplier?": (ABOVE_ONE, 2), "max_escalations?": (NAT, 2),
        "tau_challenge?": (COUNT, 10), "tau_vote?": (COUNT, 10),
        "escalation_window?": (COUNT, 5), "x_min?": (UNIT, "0.01")}, {}),
}


class ScenarioError(RugsimError):
    """A scenario document failed validation; the message names the path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _as_amount(value: Any, path: str) -> FixedAmount:
    try:
        if isinstance(value, str):
            return FixedAmount.parse(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return amt(value)
    except RugsimError as exc:
        raise ScenarioError(path, f"not a valid amount: {exc}") from None
    if isinstance(value, float):
        raise ScenarioError(path, "floats are not exact; use a decimal string")
    raise ScenarioError(path, f"expected a decimal string or int, got {type(value).__name__}")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, str):
        try:  # a digit string, such as "duration": "7", is an int
            value = int(value)
        except ValueError:
            raise ScenarioError(path, f"expected an integer, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str, choices: Optional[tuple] = None) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {type(value).__name__}")
    if choices and value not in choices:
        raise ScenarioError(path, f"expected one of {choices}, got {value!r}")
    return value


def _as_ref(value: Any, path: str, known: Any, what: str) -> str:
    if _as_str(value, path) not in known:
        raise ScenarioError(path, f"unknown {what} {value!r}")
    return value


def _in_range(kind: str, ranges: dict, number: int, shown: Any, path: str) -> None:
    least, greatest = ranges[kind]
    if (least is not None and number < least) or (greatest is not None and number > greatest):
        raise ScenarioError(path, f"must be {kind.partition(' ')[2]}, got {shown!r}")


def _parse(kind: Any, value: Any, path: str, refs: dict) -> Any:
    """One field's parsed value; refs holds the ids declared so far, by
    reference kind."""
    if isinstance(kind, str):
        if kind in AMOUNT_RANGES:
            amount = _as_amount(value, path)
            _in_range(kind, AMOUNT_RANGES, amount.raw, value, path)
            return amount
        if kind in REF_KINDS:
            return _as_ref(value, path, refs[kind], kind)
        if kind == TEXT:
            return _as_str(value, path)
        if kind in INT_RANGES:
            number = _as_int(value, path)
            _in_range(kind, INT_RANGES, number, value, path)
            return number
        if kind in NEW_IDS:
            declared = refs[NEW_IDS[kind]]
            if _as_str(value, path) in declared:
                raise ScenarioError(path, f"duplicate {NEW_IDS[kind]} {value!r}")
            if kind == NEW_TOKEN and value.startswith(LP_TOKEN_PREFIX):
                raise ScenarioError(path, f"{value!r} names a pool's LP token")
            declared.add(value)
            return value
        if kind == BALANCES:
            if not isinstance(value, dict):
                raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
            return {_as_ref(token, f"{path}.{token}", refs[TOKEN], "token"):
                    _parse(NONNEG, balance, f"{path}.{token}", refs)
                    for token, balance in value.items()}
        if kind == BOOL:
            if not isinstance(value, bool):
                raise ScenarioError(path, f"expected true or false, got {value!r}")
            return value
        # 'auto' is None: the amount the pool's reserve ratio gives
        return None if value == "auto" else _parse(POSITIVE, value, path, refs)
    if isinstance(kind, dict):
        return _parse_args(value, kind, path, refs)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
        return [_parse(kind[0], item, path, refs) for item in value]
    if isinstance(kind, tuple):
        return _as_str(value, path, kind)
    return kind(_as_str(value, path, tuple(member.value for member in kind)))  # an enum


def _parse_args(entry: Any, args: dict, path: str, refs: dict) -> dict:
    """The fields of ``args`` parsed from the object ``entry``, keyed by
    their names; an absent optional field takes its default."""
    if not isinstance(entry, dict):
        raise ScenarioError(path, f"expected an object, got {type(entry).__name__}")
    parsed = {}
    for key, kind in args.items():
        name = key.rstrip("?")
        field_path = f"{path}.{name}" if path else name
        if name == key:
            if name not in entry:
                raise ScenarioError(field_path, "missing required field")
            value = entry[name]
        else:
            kind, default = kind
            value = entry.get(name)
            if value is None:
                value = default
        parsed[name] = None if value is None else _parse(kind, value, field_path, refs)
    return parsed


def _entries(doc: dict, key: str, path: str = "") -> list:
    """The list at ``doc[key]``; an absent or null list is empty."""
    entries = doc.get(key)
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ScenarioError(f"{path}.{key}" if path else key,
                            f"expected a list, got {type(entries).__name__}")
    return entries


def _not_engine_account(account: str, path: str) -> None:
    """Refuse an account whose balance only the engine's bookkeeping moves."""
    if account.startswith(ENGINE_ACCOUNT_PREFIXES):
        raise ScenarioError(path, f"{account!r} names an engine-owned account")


def _check_genesis_totals(accounts: list[dict], pools: list[dict],
                          tokenomics: dict) -> None:
    """Each token's genesis mints, summed in the order the engine makes
    them, stay in the amount range; the mint that would push a total past
    it is refused at its path."""
    mints = [(f"accounts[{i}].balances.{token}", token, amount)
             for i, account in enumerate(accounts)
             for token, amount in account["balances"].items()]
    mints += [(f"pools[{i}].reserve_{side}", pool[f"token_{side}"], pool[f"reserve_{side}"])
              for i, pool in enumerate(pools) for side in "xy"]
    mints.append(("tokenomics.initial_supply", HOME_TOKEN, tokenomics["initial_supply"]))
    totals: dict[str, int] = {}
    for path, token, amount in mints:
        total = totals[token] = totals.get(token, 0) + amount.raw
        if total > MAX_RAW:
            raise ScenarioError(path, f"the genesis total of {token} would exceed "
                                      f"{FixedAmount(MAX_RAW)}")


def _parse_list(entries: list, key: str, fields: dict, refs: dict) -> list[dict]:
    return [_parse_args(entry, fields, f"{key}[{i}]", refs)
            for i, entry in enumerate(entries)]


class Scenario(NamedTuple):
    """A parsed scenario: every field checked and defaulted by its table,
    amounts as FixedAmount, ints as int and choices as their enums. Each
    section keeps the document's shape and keys."""

    seed: int
    blocks: int
    bridge_delay_blocks: int
    chains: list[str]
    home_chain: str
    numeraire: str
    tokens: list[dict]
    accounts: list[dict]
    vaults: list[dict]
    pools: list[dict]
    tokenomics: dict
    perps: Optional[dict]
    detection: dict
    rugproof: dict
    insurance: dict
    agents: list[dict]
    intents: list[dict]
    written: frozenset[str]  # the object sections the document writes, not null


# Each list section's parse and checks, from its document list and the ids
# declared before it; the ids it declares go into refs.

def _load_tokens(entries: list, refs: dict) -> list[dict]:
    tokens = _parse_list(entries, "tokens", TOKEN_FIELDS, refs)
    for i, token in enumerate(tokens):
        process = token["price_process"]
        if process is None:
            continue
        refs[PRICED_TOKEN].add(token["id"])
        rate, kind = PRICE_RATES[process["kind"]]
        path = f"tokens[{i}].price_process.{rate}"
        if process["kind"] is RugKind.SCAM and rate not in entries[i]["price_process"]:
            raise ScenarioError(path, "scam process needs tau_rug")
        _in_range(kind, AMOUNT_RANGES, process[rate].raw, str(process[rate]), path)
    return tokens


def _load_accounts(entries: list, refs: dict) -> list[dict]:
    accounts = _parse_list(entries, "accounts", ACCOUNT_FIELDS, refs)
    for i, account in enumerate(accounts):
        _not_engine_account(account["id"], f"accounts[{i}].id")
        if account["owner"] is None:
            account["owner"] = account["id"]
    return accounts


def _load_vaults(entries: list, refs: dict) -> list[dict]:
    vaults = _parse_list(entries, "vaults", VAULT_FIELDS, refs)
    anticoins: set[str] = set()
    for i, vault in enumerate(vaults):
        if vault["theta"] <= vault["omega"]:
            raise ScenarioError(f"vaults[{i}].theta", f"burn reward {vault['theta']} must "
                                f"exceed deposit reward {vault['omega']}")
        # one vault per rugged token and chain: the pair names its anticoin
        anticoin = anticoin_id(vault["rugged_token"], vault["chain"])
        if anticoin in anticoins:
            raise ScenarioError(f"vaults[{i}].rugged_token",
                                f"a vault for {vault['rugged_token']} already exists "
                                f"on {vault['chain']}")
        # the vault alone issues its anticoin
        if anticoin in refs[TOKEN]:
            raise ScenarioError(f"vaults[{i}].rugged_token",
                                f"its anticoin {anticoin} is a declared token")
        anticoins.add(anticoin)
    refs[POOL_TOKEN].update(anticoins)
    return vaults


def _load_pools(entries: list, refs: dict) -> list[dict]:
    pools = _parse_list(entries, "pools", POOL_FIELDS, refs)
    for i, pool in enumerate(pools):
        if pool["token_y"] == pool["token_x"]:
            raise ScenarioError(f"pools[{i}].token_y",
                                f"a pool trades two tokens, got {pool['token_x']!r} twice")
    return pools


def _load_agents(entries: list, refs: dict) -> list[dict]:
    agents = _parse_list(entries, "agents", AGENT_ARGS, refs)
    agent_accounts: set[str] = set()
    for i, (agent, entry) in enumerate(zip(agents, entries)):
        path = f"agents[{i}]"
        if agent["account"] in agent_accounts:
            raise ScenarioError(f"{path}.account",
                                f"duplicate agent for {agent['account']!r}")
        agent_accounts.add(agent["account"])
        agent.update(_parse_args(entry, AGENT_PARAMS.get(agent["kind"], {}), path, refs))
        agent["script"] = []
        for j, step in enumerate(_entries(entry, "script", path)):
            step_path = f"{path}.script[{j}]"
            parsed = _parse_args(step, STEP_FIELDS, step_path, refs)
            parsed.update(_parse_args(step, SCRIPT_OPS[parsed["op"]][1], step_path, refs))
            if parsed["op"] == "transfer":
                _not_engine_account(parsed["to"], f"{step_path}.to")
            elif (parsed["op"] == "drain"
                  and not 0 <= parsed["t_rug"].raw <= parsed["t_total"].raw):
                raise ScenarioError(f"{step_path}.t_rug",
                                    f"need 0 <= t_rug <= t_total, got "
                                    f"{parsed['t_rug']}/{parsed['t_total']}")
            agent["script"].append(parsed)
    return agents


def _load_intents(entries: list, refs: dict) -> list[dict]:
    return _parse_list(entries, "intents", INTENT_ARGS, refs)


def _section(memo: Optional[dict], key: str, entries: list, refs: dict,
             load: Callable[[list, dict], list[dict]]) -> list[dict]:
    """``load(entries, refs)``. With a memo, a list that an earlier load
    parsed from equal refs is not parsed again: that parse is returned and
    the ids it declared are added to refs. The memo keeps each key's last
    parse that succeeded."""
    if memo is None:
        return load(entries, refs)
    kept = memo.get(key)
    if kept is not None and kept[0] is entries and kept[1] == refs:
        for kind, ids in kept[3].items():
            refs[kind] |= ids
        return kept[2]
    before = {kind: set(ids) for kind, ids in refs.items()}
    parsed = load(entries, refs)
    memo[key] = (entries, before, parsed,
                 {kind: ids - before[kind] for kind, ids in refs.items()})
    return parsed


def load_scenario(doc: dict, memo: Optional[dict] = None) -> Scenario:
    """Parse a scenario document by its tables, then check the rules that
    join fields; every module invariant that can be checked statically is
    checked here, by path.

    ``memo``, an initially empty dict shared by the loads of documents that
    share lists (a sweep's points), lets a load reuse the parse of a list
    section (tokens, accounts, vaults, pools, agents, intents) when its list
    is the very object an earlier load parsed and the ids declared before it
    are equal. The other fields and every check that joins sections run as
    without it, so a load returns the same value, or raises the same error,
    with or without a memo. The reused parse is shared, so a caller must not
    change the lists and dicts of a returned scenario."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    refs: dict[str, set] = {kind: set() for kind in REF_KINDS}
    top = _parse_args(doc, SCENARIO_FIELDS, "", refs)

    def section(key: str, load: Callable[[list, dict], list[dict]]) -> list[dict]:
        return _section(memo, key, _entries(doc, key), refs, load)

    tokens = section("tokens", _load_tokens)
    accounts = section("accounts", _load_accounts)
    refs[POOL_TOKEN].update(refs[TOKEN])
    vaults = section("vaults", _load_vaults)
    pools = section("pools", _load_pools)

    sections = _parse_args(doc, SECTION_FIELDS, "", refs)
    _check_genesis_totals(accounts, pools, sections["tokenomics"])
    perps = sections["perps"]
    if perps is not None:
        refs[PERPS_VAULT].update(perps["enabled_vaults"])
        if perps["liquidator_fee_fraction"] >= perps["maintenance_fraction"]:
            raise ScenarioError("perps.liquidator_fee_fraction", "must be below "
                                f"maintenance_fraction {perps['maintenance_fraction']}, "
                                f"got {perps['liquidator_fee_fraction']}")

    agents = section("agents", _load_agents)
    intents = section("intents", _load_intents)
    # an intent's vault takes its token, and some vault takes the token of an
    # intent that swaps into anticoins
    vault_token = {vault["id"]: vault["rugged_token"] for vault in vaults}
    named = [(f"agents[{i}].script[{j}]", step) for i, agent in enumerate(agents)
             for j, step in enumerate(agent["script"]) if step["op"] == "register_intent"]
    for path, intent in named + [(f"intents[{i}]", e) for i, e in enumerate(intents)]:
        vault, token = intent["vault"], intent["token"]
        if vault is not None and vault_token[vault] != token:
            raise ScenarioError(f"{path}.vault", f"vault {vault!r} holds "
                                f"{vault_token[vault]}, not {token}")
        if intent["action"] is IntentAction.SWAP_TO_ANTICOIN and \
                token not in vault_token.values():
            raise ScenarioError(f"{path}.token", f"no vault takes {token}, so the "
                                "intent cannot swap it into anticoins")
    return Scenario(**top, tokens=tokens, accounts=accounts, vaults=vaults,
                    pools=pools, **sections, agents=agents, intents=intents,
                    written=frozenset(key for key in sections if doc.get(key) is not None))


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ScenarioError("", f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError("", f"not UTF-8 text: {exc}") from None
    return load_scenario(doc)


def _describe(kind: Any) -> Any:
    """Schema text for an argument kind; a dict of kinds maps key by key,
    and an optional field's text ends with its default."""
    if isinstance(kind, type):
        kind = tuple(member.value for member in kind)
    if isinstance(kind, tuple):
        return "|".join(kind)
    if isinstance(kind, list):
        return f"list of {_describe(kind[0])}"
    if not isinstance(kind, dict):
        return f"{kind} id" if kind in REF_KINDS else kind
    described = {}
    for key, value in kind.items():
        name = key.rstrip("?")
        if name == key:
            described[name] = _describe(value)
            continue
        value, default = value
        described[name] = _describe(value)
        if isinstance(value, dict):
            continue
        if default is None:
            described[name] += " (optional)"
        else:
            shown = json.dumps(default) if isinstance(default, (bool, list, dict)) else default
            described[name] += f" (optional, default {shown})"
    return described


SCENARIO_SCHEMA = {
    **_describe(SCENARIO_FIELDS),
    "tokens": [_describe(TOKEN_FIELDS)],
    "accounts": [_describe(ACCOUNT_FIELDS)],
    "vaults": [_describe(VAULT_FIELDS)],
    "pools": [_describe(POOL_FIELDS)],
    **_describe(SECTION_FIELDS),
    "agents": [{**_describe(AGENT_ARGS),
                "script": [{**_describe(STEP_FIELDS), "op": name,
                            "(runs on)": f"the chain of its {chain}"
                            if chain != "home" else "the home chain",
                            **_describe(args)}
                           for name, (chain, args) in SCRIPT_OPS.items()],
                "...": {kind: _describe(params) for kind, params in AGENT_PARAMS.items()}}],
    "intents": [_describe(INTENT_ARGS)],
    # what a run writes: each event type's fields beside type, h and chain
    "(events)": {name: _describe(fields) for name, fields in EVENT_TYPES.items()},
}


# -- built-in scenarios ----------------------------------------------------------


def reference_scenario(blocks: int = 200, seed: int = 42) -> dict:
    """A steady market on one satellite chain: slow catastrophic decay,
    noise traders, an LP, a peg keeper, and the supply controller."""
    return {
        "seed": seed,
        "blocks": blocks,
        "bridge_delay_blocks": 2,
        "home_chain": "home",
        "numeraire": "USDN",
        "chains": ["alpha", "home"],
        "tokens": [
            {"id": "RUG", "chain": "alpha",
             "price_process": {"kind": "catastrophic", "p0": "2", "lam": "0.001"}},
        ],
        "accounts": [
            {"id": "alice", "balances": {"RUG": "4000", "USDN": "2000"}},
            {"id": "bob", "balances": {"RUG": "4000", "USDN": "2000"}},
            {"id": "lp-1", "balances": {"RUG": "20000", "USDN": "40000"}},
            {"id": "keeper", "balances": {"USDN": "5000"}},
            {"id": "sol-1", "balances": {}},
            {"id": "guard", "balances": {"USDN": "1000"}},
        ],
        "pools": [
            {"id": "rug-usdn", "chain": "alpha", "token_x": "RUG", "token_y": "USDN",
             "reserve_x": "10000", "reserve_y": "20000", "fee_bps": 30},
            {"id": "anti-usdn", "chain": "alpha", "token_x": "anti:RUG@alpha",
             "token_y": "USDN", "reserve_x": "1000", "reserve_y": "10",
             "fee_bps": 30},
        ],
        "vaults": [
            {"id": "v-rug", "chain": "alpha", "rugged_token": "RUG",
             "receipt_kind": "fungible", "omega": "0.01", "theta": "0.02",
             "penalty_k": "1", "penalty_lambda": "2", "gamma_base": "0.05",
             "delta_gamma": "0.01"},
        ],
        "tokenomics": {"initial_supply": "1000000", "s0": "1000000",
                       "epsilon_rate": "5", "beta_burn": "500", "kappa": "0.25"},
        "detection": {"drop_threshold": "0.2", "mint_spike_factor": "3",
                      "wallet_outflow_fraction": "0.5", "volume_spike_factor": "4"},
        "agents": [
            {"kind": "retail", "account": "alice",
             "script": [{"block": 1, "op": "deposit", "vault": "v-rug", "amount": "1000"},
                        {"block": 5, "op": "burn", "vault": "v-rug", "amount": "200"}],
             "noise": {"pool": "rug-usdn", "prob": "0.25", "max_size": "5"}},
            {"kind": "retail", "account": "bob",
             "script": [{"block": 2, "op": "deposit", "vault": "v-rug", "amount": "1500"},
                        {"block": 30, "op": "withdraw", "vault": "v-rug", "amount": "100"}],
             "noise": {"pool": "rug-usdn", "prob": "0.25", "max_size": "5"}},
            {"kind": "lp", "account": "lp-1",
             "script": [{"block": 10, "op": "add_liquidity", "pool": "rug-usdn",
                         "dx": "1000", "dy": "auto"}]},
            {"kind": "pegkeeper", "account": "keeper", "pool": "anti-usdn",
             "vault": "v-rug", "budget": "200"},
            {"kind": "solver", "account": "sol-1", "fee_bps": 30},
            {"kind": "detector", "account": "guard", "protects": [],
             "sandwich_budget": "0", "backrun_budget": "0", "backrun_cap": "0"},
        ],
        "intents": [],
    }


def scam_scenario(seed: int = 42) -> dict:
    """The scripted scam rug: a three-block drain window, one user saved by
    an intent, one by front-run protection, and one left unprotected."""
    protected = {"RUG": "100", "USDN": "10"}
    return {
        "seed": seed,
        "blocks": 12,
        "bridge_delay_blocks": 1,
        "home_chain": "home",
        "numeraire": "USDN",
        "chains": ["alpha", "home"],
        "tokens": [
            {"id": "RUG", "chain": "alpha",
             "price_process": {"kind": "scam", "p0": "1", "tau_rug": "3"}},
        ],
        "accounts": [
            {"id": "intent-user", "balances": dict(protected)},
            {"id": "frontrun-user", "balances": dict(protected)},
            {"id": "unprotected", "balances": dict(protected)},
            {"id": "mallory", "balances": {"RUG": "800"}},
            {"id": "sol-1", "balances": {}},
            {"id": "guard", "balances": {"USDN": "500"}},
        ],
        "pools": [
            {"id": "rug-usdn", "chain": "alpha", "token_x": "RUG", "token_y": "USDN",
             "reserve_x": "1000", "reserve_y": "1000", "fee_bps": 0},
        ],
        "vaults": [
            {"id": "v-rug", "chain": "alpha", "rugged_token": "RUG",
             "receipt_kind": "fungible", "omega": "0.01", "theta": "0.02",
             "penalty_k": "0.5", "penalty_lambda": "2", "gamma_base": "0.05",
             "delta_gamma": "0.01"},
        ],
        "tokenomics": {"initial_supply": "1000000", "s0": "1000000",
                       "epsilon_rate": "5", "beta_burn": "500", "kappa": "0.25"},
        "detection": {"drop_threshold": "0.2", "mint_spike_factor": "3",
                      "wallet_outflow_fraction": "0.5", "volume_spike_factor": "4"},
        "agents": [
            {"kind": "creator", "account": "mallory",
             "script": [{"block": 4, "op": "drain", "pool": "rug-usdn",
                         "t_rug": "800", "t_total": "1000", "window": 3}]},
            {"kind": "solver", "account": "sol-1", "fee_bps": 30},
            {"kind": "detector", "account": "guard",
             "protects": ["frontrun-user"], "sandwich_budget": "0",
             "backrun_budget": "100", "backrun_cap": "50"},
        ],
        "intents": [
            {"owner": "intent-user", "pool": "rug-usdn", "token": "RUG",
             "theta_price": "0.5", "theta_liquidity": "0.3",
             "action": "exit_to_numeraire", "solver_fee_bps": 30},
        ],
    }

"""Scenario documents: the JSON-compatible configuration tree that fully
determines a simulation run, its eager validation, and the built-in
reference scenarios.

All monetary fields are decimal strings (or ints); bare JSON floats are
rejected so a scenario byte-for-byte determines the run. Validation errors
name the offending path, e.g. ``vaults[0].theta``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import SCALE, FixedAmount, ParameterError, RugsimError, amt
from .vault import anticoin_id

KNOWN_AGENT_KINDS = ("creator", "retail", "whale", "lp", "solver",
                     "liquidator", "pegkeeper", "detector")
RECEIPT_KINDS = ("fungible", "non_fungible", "refungible")
PRICE_KINDS = ("scam", "catastrophic", "sentiment")
INTENT_ACTIONS = ("exit_to_numeraire", "swap_to_anticoin")
DIRECTIONS = ("long", "short")

# argument kinds: a value check, a declared id of a reference kind, a tuple
# of allowed strings, a one-element list for a list of that kind, or a dict
# for a nested object; an argument whose key ends in "?" is optional
AMOUNT, INT, COUNT, TEXT = "amount", "int", "int >= 1", "string"
FRACTION, AMOUNT_OR_AUTO = "fraction in (0, 1)", "amount or 'auto'"
SIZE = "amount >= 0.000000001"  # at least one quantum
REF_KINDS = CHAIN, PRICED_TOKEN, POOL_TOKEN, POOL, VAULT, PERPS_VAULT, ACCOUNT = (
    "chain", "priced token", "pool token", "pool", "vault", "perps vault", "account")

# op -> (the entity whose chain runs it: "pool", "vault", "token" or "home",
#        the kinds of its arguments)
SCRIPT_OPS = {
    "drain": ("pool", {"pool": POOL, "t_rug": AMOUNT, "t_total": AMOUNT,
                       "window?": COUNT}),
    "deposit": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    "burn": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    "withdraw": ("vault", {"vault": VAULT, "amount": AMOUNT}),
    # token and recipient may come into being during the run (R, bonded tokens)
    "transfer": ("token", {"token": TEXT, "to": TEXT, "amount": AMOUNT}),
    "swap": ("pool", {"pool": POOL, "token_in": TEXT, "amount": AMOUNT}),
    "add_liquidity": ("pool", {"pool": POOL, "dx": AMOUNT, "dy": AMOUNT_OR_AUTO}),
    "remove_liquidity": ("pool", {"pool": POOL, "share": AMOUNT}),
    "open_position": ("vault", {"vault": PERPS_VAULT, "collateral": AMOUNT,
                                "leverage": AMOUNT, "direction": DIRECTIONS}),
    # the top-level intents take these arguments too, plus their owner
    "register_intent": ("pool", {
        "pool": POOL, "token": TEXT, "action": INTENT_ACTIONS, "theta_price": FRACTION,
        "theta_liquidity": FRACTION, "vault?": VAULT, "solver_fee_bps?": INT}),
    "issue_bonded": ("home", {"token": TEXT, "total_issued": AMOUNT, "x": AMOUNT}),
    "rug_claim": ("home", {"token": TEXT, "y": AMOUNT}),
    "vote_rug": ("home", {"token": TEXT, "deposit": AMOUNT, "side": TEXT}),
    "issue_policy": ("home", {"insured": ACCOUNT, "insured_value": AMOUNT,
                              "x": AMOUNT, "duration": INT}),
    # policy and claim ids are issued during the run
    "submit_claim": ("home", {"policy": TEXT, "y": AMOUNT, "loss?": AMOUNT}),
    "join_claim": ("home", {"claim": TEXT, "loss": AMOUNT, "w": AMOUNT}),
    "dispute_claim": ("home", {"claim": TEXT, "z": AMOUNT}),
    "vote_insurance": ("home", {"claim": TEXT, "deposit": AMOUNT, "side": TEXT}),
    "escalate": ("home", {"claim": TEXT}),
}

PRICE_PROCESS_ARGS = {"kind": PRICE_KINDS, "p0": AMOUNT, "tau_rug?": AMOUNT, "lam?": AMOUNT,
                      "alpha_sent?": AMOUNT, "epsilon_floor?": AMOUNT}
INTENT_ARGS = {"owner": ACCOUNT, **SCRIPT_OPS["register_intent"][1]}
AGENT_ARGS = {"kind": KNOWN_AGENT_KINDS, "account": ACCOUNT,
              "noise?": {"pool": POOL, "prob?": AMOUNT, "max_size?": SIZE}}
AGENT_PARAMS = {
    "pegkeeper": {"pool": POOL, "vault?": VAULT, "budget?": AMOUNT, "tolerance?": AMOUNT},
    "detector": {"protects?": [ACCOUNT], "sandwich_budget?": AMOUNT,
                 "backrun_budget?": AMOUNT, "backrun_cap?": AMOUNT},
    "solver": {"fee_bps?": INT},
}
# the optional dispute sections
SECTION_FIELDS = {
    "rugproof": {"alpha_slash?": AMOUNT, "gamma_slash?": AMOUNT, "claimant_share?": AMOUNT,
                 "z_min?": AMOUNT, "challenge_blocks?": INT, "x_min?": AMOUNT},
    "insurance": {"alpha_comp?": AMOUNT, "gamma_pen?": AMOUNT,
                  "escalation_bond_multiplier?": AMOUNT, "max_escalations?": INT,
                  "tau_challenge?": INT, "tau_vote?": INT, "escalation_window?": INT,
                  "x_min?": AMOUNT},
}


class ScenarioError(RugsimError):
    """A scenario document failed validation; the message names the path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _need(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise ScenarioError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _as_amount(value: Any, path: str) -> FixedAmount:
    if isinstance(value, float):
        raise ScenarioError(path, "floats are not exact; use a decimal string")
    if not isinstance(value, (str, int)):
        raise ScenarioError(path, f"expected a decimal string or int, got {type(value).__name__}")
    try:
        return amt(value)
    except (ParameterError, Exception) as exc:
        raise ScenarioError(path, f"not a valid amount: {exc}") from None


def _as_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {value}")
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


def _new_id(entry: Any, key: str, path: str, seen: set, what: str) -> str:
    value = _as_str(_need(entry, key, path), f"{path}.{key}")
    if value in seen:
        raise ScenarioError(f"{path}.{key}", f"duplicate {what} {value!r}")
    seen.add(value)
    return value


def _check_arg(kind: Any, value: Any, path: str, refs: dict) -> None:
    if kind == AMOUNT or (kind == AMOUNT_OR_AUTO and value != "auto"):
        _as_amount(value, path)
    elif kind in REF_KINDS:
        _as_ref(value, path, refs[kind], kind)
    elif kind == TEXT:
        _as_str(value, path)
    elif kind in (INT, COUNT):
        if isinstance(value, str):
            try:  # the engine reads these with int(), so "duration": "7" is an int
                value = int(value)
            except ValueError:
                raise ScenarioError(path, f"expected an integer, got {value!r}") from None
        _as_int(value, path, 1 if kind == COUNT else None)
    elif kind == FRACTION:
        if not 0 < _as_amount(value, path).raw < SCALE:
            raise ScenarioError(path, "must be in (0, 1)")
    elif kind == SIZE:
        if _as_amount(value, path).raw < 1:
            raise ScenarioError(path, "must be at least one quantum (0.000000001)")
    elif isinstance(kind, tuple):
        _as_str(value, path, kind)
    elif isinstance(kind, dict):
        _check_args(value, kind, path, refs)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
        for item in value:
            _check_arg(kind[0], item, path, refs)


def _check_args(entry: Any, args: dict, path: str, refs: dict) -> None:
    if not isinstance(entry, dict):
        raise ScenarioError(path, f"expected an object, got {type(entry).__name__}")
    for key, kind in args.items():
        name = key.rstrip("?")
        if name == key or name in entry:
            _check_arg(kind, _need(entry, name, path), f"{path}.{name}", refs)


@dataclass
class Scenario:
    """Validated scenario, still close to the raw document shape; the
    engine materializes module objects from it."""

    doc: dict
    seed: int
    blocks: int
    bridge_delay_blocks: int
    home_chain: str
    numeraire: str
    chains: list[str]
    tokens: list[dict]
    accounts: list[dict]
    pools: list[dict]
    vaults: list[dict]
    tokenomics: dict
    perps: Optional[dict]
    detection: dict
    rugproof: Optional[dict]
    insurance: Optional[dict]
    agents: list[dict]
    intents: list[dict] = field(default_factory=list)


def load_scenario(doc: dict) -> Scenario:
    """Validate a scenario document eagerly; every module invariant that
    can be checked statically is checked here, by path."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    seed = _as_int(_need(doc, "seed", ""), "seed", minimum=0)
    blocks = _as_int(_need(doc, "blocks", ""), "blocks", minimum=1)
    bridge_delay = _as_int(doc.get("bridge_delay_blocks", 1), "bridge_delay_blocks", 0)
    home_chain = _as_str(_need(doc, "home_chain", ""), "home_chain")
    numeraire = _as_str(_need(doc, "numeraire", ""), "numeraire")

    chains = _need(doc, "chains", "")
    if not isinstance(chains, list) or not chains:
        raise ScenarioError("chains", "expected a non-empty list of chain ids")
    chains = [_as_str(c, f"chains[{i}]") for i, c in enumerate(chains)]
    if home_chain not in chains:
        raise ScenarioError("home_chain", f"{home_chain!r} is not in chains")
    if len(set(chains)) != len(chains):
        raise ScenarioError("chains", "duplicate chain ids")

    token_ids, account_ids, pool_ids, vault_ids = {numeraire}, set(), set(), set()
    refs = {CHAIN: chains, PRICED_TOKEN: set(), POOL_TOKEN: set(), POOL: pool_ids,
            VAULT: vault_ids, ACCOUNT: account_ids, PERPS_VAULT: set()}

    tokens = list(doc.get("tokens", []))
    for i, entry in enumerate(tokens):
        path = f"tokens[{i}]"
        _new_id(entry, "id", path, token_ids, "token")
        _check_args(entry, {"chain": CHAIN, "price_process?": PRICE_PROCESS_ARGS},
                    path, refs)
        process = entry.get("price_process")
        if process is not None:
            refs[PRICED_TOKEN].add(entry["id"])
            if process["kind"] == "scam" and "tau_rug" not in process:
                raise ScenarioError(f"{path}.price_process.tau_rug",
                                    "scam process needs tau_rug")
            # every kind reads p0 and the floor, and one rate of its own
            rate, least = {"scam": ("tau_rug", 1), "catastrophic": ("lam", 0),
                           "sentiment": ("alpha_sent", 0)}[process["kind"]]
            for key, low in (("p0", 1), ("epsilon_floor", 1), (rate, least)):
                key_path = f"{path}.price_process.{key}"
                if key in process and _as_amount(process[key], key_path).raw < low:
                    raise ScenarioError(key_path, "must be > 0" if low else "must be >= 0")

    accounts = list(doc.get("accounts", []))
    for i, entry in enumerate(accounts):
        path = f"accounts[{i}]"
        _new_id(entry, "id", path, account_ids, "account")
        _check_args(entry, {"owner?": TEXT}, path, refs)
        for token, balance in entry.get("balances", {}).items():
            _as_ref(token, f"{path}.balances.{token}", token_ids, "token")
            value = _as_amount(balance, f"{path}.balances.{token}")
            if value.raw < 0:
                raise ScenarioError(f"{path}.balances.{token}", "negative balance")

    # a pool trades declared tokens and the anticoins of declared vaults
    refs[POOL_TOKEN].update(token_ids)
    vaults = list(doc.get("vaults", []))
    for i, entry in enumerate(vaults):
        path = f"vaults[{i}]"
        _new_id(entry, "id", path, vault_ids, "vault")
        _check_args(entry, {"chain": CHAIN, "rugged_token": PRICED_TOKEN,
                            "receipt_kind?": RECEIPT_KINDS}, path, refs)
        refs[POOL_TOKEN].add(anticoin_id(entry["rugged_token"], entry["chain"]))
        omega = _as_amount(_need(entry, "omega", path), f"{path}.omega")
        theta = _as_amount(_need(entry, "theta", path), f"{path}.theta")
        if theta <= omega:
            raise ScenarioError(f"{path}.theta",
                                f"burn reward {theta} must exceed deposit reward {omega}")
        lam = _as_amount(_need(entry, "penalty_lambda", path), f"{path}.penalty_lambda")
        if lam <= amt(1):
            raise ScenarioError(f"{path}.penalty_lambda", f"must be > 1, got {lam}")
        for key in ("penalty_k", "gamma_base", "delta_gamma"):
            value = _as_amount(_need(entry, key, path), f"{path}.{key}")
            if value.raw < 0:
                raise ScenarioError(f"{path}.{key}", "must be >= 0")

    pools = list(doc.get("pools", []))
    for i, entry in enumerate(pools):
        path = f"pools[{i}]"
        _new_id(entry, "id", path, pool_ids, "pool")
        _check_args(entry, {"chain": CHAIN, "token_x": POOL_TOKEN, "token_y": POOL_TOKEN},
                    path, refs)
        for side in ("reserve_x", "reserve_y"):
            value = _as_amount(_need(entry, side, path), f"{path}.{side}")
            if value.raw <= 0:
                raise ScenarioError(f"{path}.{side}", "reserves must be > 0")
        fee = _as_int(entry.get("fee_bps", 0), f"{path}.fee_bps", 0)
        if fee > 10000:
            raise ScenarioError(f"{path}.fee_bps", "fee above 100%")

    tk_path = "tokenomics"
    tokenomics = _need(doc, "tokenomics", "")
    for key in ("initial_supply", "s0", "epsilon_rate", "beta_burn", "kappa"):
        value = _as_amount(_need(tokenomics, key, tk_path), f"{tk_path}.{key}")
        if value.raw < 0:
            raise ScenarioError(f"{tk_path}.{key}", "must be >= 0")
    if _as_amount(tokenomics["kappa"], f"{tk_path}.kappa") > amt(1):
        raise ScenarioError(f"{tk_path}.kappa", "must be <= 1")

    perps = doc.get("perps")
    if perps is not None:
        path = "perps"
        for key in ("alpha_base", "l_min"):
            value = _as_amount(_need(perps, key, path), f"{path}.{key}")
            if value.raw <= 0:
                raise ScenarioError(f"{path}.{key}", "must be > 0")
        _as_int(_need(perps, "interval_blocks", path), f"{path}.interval_blocks", 1)
        _check_args(perps, {"enabled_vaults?": [VAULT], "amm_pool?": POOL,
                            "maintenance_fraction?": AMOUNT, "max_leverage?": AMOUNT,
                            "liquidator_deadline_blocks?": INT,
                            "liquidator_fee_fraction?": AMOUNT}, path, refs)
        refs[PERPS_VAULT] = set(perps.get("enabled_vaults", []))

    detection = doc.get("detection", {})
    _check_args(detection, {"drop_threshold?": AMOUNT, "mint_spike_factor?": AMOUNT,
                            "wallet_outflow_fraction?": AMOUNT,
                            "volume_spike_factor?": AMOUNT, "protocol_priority_boost?": INT,
                            "sandwich_treasury_fraction?": AMOUNT}, "detection", refs)
    for name, fields in SECTION_FIELDS.items():
        if doc.get(name) is not None:
            _check_args(doc[name], fields, name, refs)

    agents = list(doc.get("agents", []))
    seen_agent_accounts = set()
    for i, entry in enumerate(agents):
        path = f"agents[{i}]"
        _check_args(entry, AGENT_ARGS, path, refs)
        _new_id(entry, "account", path, seen_agent_accounts, "agent for")
        if entry["kind"] in AGENT_PARAMS:
            _check_args(entry, AGENT_PARAMS[entry["kind"]], path, refs)
        for j, step in enumerate(entry.get("script", [])):
            spath = f"{path}.script[{j}]"
            _as_int(_need(step, "block", spath), f"{spath}.block", 0)
            op = _as_ref(_need(step, "op", spath), f"{spath}.op", SCRIPT_OPS, "op")
            _check_args(step, SCRIPT_OPS[op][1], spath, refs)

    intents = list(doc.get("intents", []))
    for i, entry in enumerate(intents):
        _check_args(entry, INTENT_ARGS, f"intents[{i}]", refs)

    return Scenario(
        doc=doc, seed=seed, blocks=blocks, bridge_delay_blocks=bridge_delay,
        home_chain=home_chain, numeraire=numeraire, chains=chains,
        tokens=tokens, accounts=accounts, pools=pools, vaults=vaults,
        tokenomics=tokenomics, perps=perps, detection=detection,
        rugproof=doc.get("rugproof"), insurance=doc.get("insurance"),
        agents=agents, intents=intents)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioError("", f"not valid JSON: {exc}") from None
    return load_scenario(doc)


def _describe(kind: Any) -> Any:
    """Schema text for an argument kind; a dict of kinds maps key by key."""
    if isinstance(kind, tuple):
        return "|".join(kind)
    if isinstance(kind, list):
        return f"list of {_describe(kind[0])}"
    if not isinstance(kind, dict):
        return f"{kind} id" if kind in REF_KINDS else kind
    described = {}
    for key, value in kind.items():
        name = key.rstrip("?")
        described[name] = _describe(value)
        if name != key and not isinstance(value, dict):
            described[name] += " (optional)"
    return described


SCENARIO_SCHEMA = {
    "seed": "int >= 0: master seed for all randomness substreams",
    "blocks": "int >= 1: blocks to simulate on every chain (lockstep clock)",
    "bridge_delay_blocks": "int >= 0: blocks before satellite events reach the home chain",
    "home_chain": "chain id receiving emissions, rewards, and supply control",
    "numeraire": "token id of the liquid quote asset",
    "chains": ["chain id", "..."],
    "tokens": [{"id": "token id", "chain": "chain id",
                "price_process": _describe(PRICE_PROCESS_ARGS)}],
    "accounts": [{"id": "account id", "owner": "beneficial owner (default: id)",
                  "balances": {"token id": "amount"}}],
    "pools": [{"id": "pool id", "chain": "chain id",
               "token_x": "token id, or a vault's anticoin anti:<token>@<chain>",
               "token_y": "token id, or a vault's anticoin anti:<token>@<chain>",
               "reserve_x": "amount", "reserve_y": "amount", "fee_bps": "int 0..10000"}],
    "vaults": [{"id": "vault id", "chain": "chain id", "rugged_token": "token id",
                "receipt_kind": "fungible|non_fungible|refungible",
                "omega": "amount", "theta": "amount (> omega)",
                "penalty_k": "amount", "penalty_lambda": "amount (> 1)",
                "gamma_base": "amount", "delta_gamma": "amount"}],
    "tokenomics": {"initial_supply": "amount", "s0": "amount",
                   "epsilon_rate": "amount", "beta_burn": "amount",
                   "kappa": "amount in (0, 1]"},
    "perps": {"enabled_vaults": ["vault id"], "alpha_base": "amount",
              "l_min": "amount", "interval_blocks": "int", "amm_pool": "pool id",
              "maintenance_fraction": "amount", "liquidator_deadline_blocks": "int",
              "liquidator_fee_fraction": "amount", "max_leverage": "amount",
              "revalue_collateral": "bool (default false): mark collateral live"},
    "detection": {"drop_threshold": "amount", "mint_spike_factor": "amount",
                  "wallet_outflow_fraction": "amount", "volume_spike_factor": "amount",
                  "protocol_priority_boost": "int: protective plans outbid drains by this",
                  "sandwich_treasury_fraction": "fraction of sandwich profit to treasury"},
    **{name: _describe(fields) for name, fields in SECTION_FIELDS.items()},
    "agents": [{**_describe(AGENT_ARGS),
                "script": [{"block": "int >= 0", "op": name,
                            "(runs on)": f"the chain of its {chain}"
                            if chain != "home" else "the home chain",
                            **_describe(args)}
                           for name, (chain, args) in SCRIPT_OPS.items()],
                "...": {kind: _describe(params) for kind, params in AGENT_PARAMS.items()}}],
    "intents": [_describe(INTENT_ARGS)],
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

from rugsim.core import amt
from rugsim.ledger import Ledger
from rugsim.scenario import load_scenario, reference_scenario

import pytest


@pytest.fixture
def ledger():
    return Ledger()


def fund(ledger: Ledger, account: str, token: str, amount) -> str:
    """Mint a starting balance and return the account's id."""
    ledger.mint(account, token, amt(amount))
    return account


def loaded(path: str, value: dict) -> dict:
    """What the loader makes of ``value`` written at the dotted ``path`` of
    builtin:reference: a section ("tokenomics", "perps", "rugproof",
    "insurance") or an entry of a list ("tokens.0.price_process",
    "agents.3"); an index one past a list's end appends the entry
    ("intents.0", "vaults.1"). A field ``value`` leaves out takes its table
    default, so a test writes only the fields it reads."""
    parts = [int(part) if part.isdigit() else part for part in path.split(".")]
    doc = node = reference_scenario(blocks=1)
    for part in parts[:-1]:
        node = node[part]
    if isinstance(node, list) and parts[-1] == len(node):
        node.append(value)
    else:
        node[parts[-1]] = value
    node = getattr(load_scenario(doc), parts[0])
    for part in parts[1:]:
        node = node[part]
    return node


def rug_vault(chain: str = "alpha", **fields) -> dict:
    """A parsed vault for RUG on ``chain``: builtin:reference's ``v-rug`` on
    alpha, or ``v-rug@<chain>`` appended beside it; ``fields`` override its
    rates and receipt kind."""
    first = chain == "alpha"
    return loaded("vaults.0" if first else "vaults.1", {
        "id": "v-rug" if first else f"v-rug@{chain}", "chain": chain,
        "rugged_token": "RUG", "omega": "0.01", "theta": "0.02", "penalty_k": "0",
        "penalty_lambda": "2", "gamma_base": "0.1", "delta_gamma": "0.01", **fields})

from rugsim.core import AccountId, amt
from rugsim.ledger import Ledger

import pytest


@pytest.fixture
def ledger():
    return Ledger()


def solo(name: str) -> AccountId:
    """An account that is its own beneficial owner."""
    return AccountId(value=name, owner=name)


def fund(ledger: Ledger, account: str, token: str, amount) -> AccountId:
    """Mint a starting balance and return a solo-owner AccountId."""
    ledger.mint(account, token, amt(amount))
    return solo(account)

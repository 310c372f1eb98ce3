from rugsim.core import amt
from rugsim.ledger import Ledger

import pytest


@pytest.fixture
def ledger():
    return Ledger()


def fund(ledger: Ledger, account: str, token: str, amount) -> str:
    """Mint a starting balance and return the account's id."""
    ledger.mint(account, token, amt(amount))
    return account

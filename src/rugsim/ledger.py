"""Global token ledger: balances, escrow accounts, mint/burn bookkeeping.

Pools, vaults, bonds, and perp margin all live in ordinary ledger accounts
(with conventional ``pool:``/``vault:``/``escrow:`` id prefixes), so the
system-wide conservation check is a single identity: per token, the sum of
all balances equals cumulative mints minus cumulative burns, exactly.
Balances are kept per token, so each token's sum is one pass over its
holders.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Callable, Optional

from .core import FixedAmount, ParameterError, RugsimError, TokenId, ZERO


class BalanceError(RugsimError):
    """An account lacks the funds for a debit."""


# receives each movement's event and its amount (the event carries the
# amount as a decimal string; the recorder gets the value itself)
EventRecorder = Callable[[dict, FixedAmount], None]

_raw = attrgetter("raw")


class Ledger:
    def __init__(self, recorder: Optional[EventRecorder] = None):
        # token -> account -> balance
        self._balances: defaultdict[TokenId, dict[str, FixedAmount]] = defaultdict(dict)
        self._supply: dict[TokenId, FixedAmount] = {}
        self.recorder = recorder

    def _record(self, event: dict, amount: FixedAmount) -> None:
        if self.recorder is not None:
            self.recorder(event, amount)

    def balance(self, account: str, token: TokenId) -> FixedAmount:
        held = self._balances.get(token)
        return ZERO if held is None else held.get(account, ZERO)

    def total_supply(self, token: TokenId) -> FixedAmount:
        return self._supply.get(token, ZERO)

    def accounts_holding(self, token: TokenId) -> list[str]:
        return sorted(a for a, v in self._balances.get(token, {}).items() if v.raw != 0)

    def mint(self, account: str, token: TokenId, amount: FixedAmount, memo: str = "") -> None:
        if amount.raw < 0:
            raise ParameterError(f"mint amount must be >= 0, got {amount}")
        if amount.raw == 0:
            return
        held = self._balances[token]
        held[account] = held.get(account, ZERO) + amount
        self._supply[token] = self.total_supply(token) + amount
        self._record({"type": "mint", "account": account, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def burn(self, account: str, token: TokenId, amount: FixedAmount, memo: str = "") -> None:
        if amount.raw < 0:
            raise ParameterError(f"burn amount must be >= 0, got {amount}")
        if amount.raw == 0:
            return
        bal = self.balance(account, token)
        if bal < amount:
            raise BalanceError(f"{account} holds {bal} {token}, cannot burn {amount}")
        self._balances[token][account] = bal - amount
        self._supply[token] = self.total_supply(token) - amount
        self._record({"type": "burn", "account": account, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def transfer(self, src: str, dst: str, token: TokenId, amount: FixedAmount,
                 memo: str = "") -> None:
        if amount.raw < 0:
            raise ParameterError(f"transfer amount must be >= 0, got {amount}")
        if amount.raw == 0 or src == dst:
            return
        bal = self.balance(src, token)
        if bal < amount:
            raise BalanceError(f"{src} holds {bal} {token}, cannot send {amount}")
        held = self._balances[token]
        held[src] = bal - amount
        held[dst] = held.get(dst, ZERO) + amount
        self._record({"type": "transfer", "src": src, "dst": dst, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def check_conservation(self) -> None:
        """Assert sum of balances == recorded supply for every token; every
        balance is summed on every call."""
        sums = {token: sum(map(_raw, held.values()))
                for token, held in self._balances.items()}
        for token, supply in self._supply.items():
            if sums.get(token, 0) != supply.raw:
                raise RugsimError(
                    f"conservation violated for {token}: "
                    f"balances sum {sums.get(token, 0)} != supply {supply.raw}")
        for token, total in sums.items():
            if token not in self._supply and total != 0:
                raise RugsimError(f"unminted balance for {token}: {total}")

    def snapshot(self) -> dict:
        """JSON-ready view: non-zero balances and per-token supply."""
        held = sorted((account, token, value)
                      for token, accounts in self._balances.items()
                      for account, value in accounts.items() if value.raw != 0)
        balances: dict[str, dict[str, str]] = {}
        for account, token, value in held:
            balances.setdefault(account, {})[token] = str(value)
        supply = {token: str(v) for token, v in sorted(self._supply.items()) if v.raw != 0}
        return {"balances": balances, "supply": supply}

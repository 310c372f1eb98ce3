"""Global token ledger: balances, escrow accounts, mint/burn bookkeeping.

Pools, vaults, bonds, and perp margin all live in ordinary ledger accounts
(with conventional ``pool:``/``vault:``/``escrow:`` id prefixes), so the
system-wide conservation check is a single identity: per token, the sum of
all balances equals cumulative mints minus cumulative burns, exactly.

Balances and supplies are kept as raw ints (counts of 1e-9 quanta), per
token, so each token's sum is one pass over plain ints. Every credit is
range-checked as a ``FixedAmount`` would be, before anything is written,
so a failed operation changes nothing. Amounts enter and leave as
``FixedAmount``: one is built only in ``balance``, ``total_supply`` and
``snapshot``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional

from .core import FixedAmount, ParameterError, RugsimError, TokenId, _checked


class BalanceError(RugsimError):
    """An account lacks the funds for a debit."""


# receives each movement's event and its amount (the event carries the
# amount as a decimal string; the recorder gets the value itself)
EventRecorder = Callable[[dict, FixedAmount], None]


class Ledger:
    def __init__(self, recorder: Optional[EventRecorder] = None):
        # token -> account -> raw balance
        self._balances: defaultdict[TokenId, dict[str, int]] = defaultdict(dict)
        self._supply: dict[TokenId, int] = {}
        self.recorder = recorder

    def _record(self, event: dict, amount: FixedAmount) -> None:
        if self.recorder is not None:
            self.recorder(event, amount)

    def balance_raw(self, account: str, token: TokenId) -> int:
        held = self._balances.get(token)
        return 0 if held is None else held.get(account, 0)

    def balance(self, account: str, token: TokenId) -> FixedAmount:
        return FixedAmount(self.balance_raw(account, token))

    def total_supply(self, token: TokenId) -> FixedAmount:
        return FixedAmount(self._supply.get(token, 0))

    def mint(self, account: str, token: TokenId, amount: FixedAmount, memo: str = "") -> None:
        raw = amount.raw
        if raw < 0:
            raise ParameterError(f"mint amount must be >= 0, got {amount}")
        if raw == 0:
            return
        held = self._balances[token]
        credited = _checked(held.get(account, 0) + raw)
        supply = _checked(self._supply.get(token, 0) + raw)
        held[account] = credited
        self._supply[token] = supply
        self._record({"type": "mint", "account": account, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def burn(self, account: str, token: TokenId, amount: FixedAmount, memo: str = "") -> None:
        raw = amount.raw
        if raw < 0:
            raise ParameterError(f"burn amount must be >= 0, got {amount}")
        if raw == 0:
            return
        bal = self.balance_raw(account, token)
        if bal < raw:
            raise BalanceError(
                f"{account} holds {FixedAmount(bal)} {token}, cannot burn {amount}")
        self._balances[token][account] = bal - raw
        self._supply[token] -= raw
        self._record({"type": "burn", "account": account, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def transfer(self, src: str, dst: str, token: TokenId, amount: FixedAmount,
                 memo: str = "") -> None:
        raw = amount.raw
        if raw < 0:
            raise ParameterError(f"transfer amount must be >= 0, got {amount}")
        if raw == 0 or src == dst:
            return
        bal = self.balance_raw(src, token)
        if bal < raw:
            raise BalanceError(
                f"{src} holds {FixedAmount(bal)} {token}, cannot send {amount}")
        held = self._balances[token]
        credited = _checked(held.get(dst, 0) + raw)
        held[src] = bal - raw
        held[dst] = credited
        self._record({"type": "transfer", "src": src, "dst": dst, "token": token,
                      "amount": str(amount), "memo": memo}, amount)

    def check_conservation(self) -> None:
        """Assert sum of balances == recorded supply for every token; every
        balance is summed on every call."""
        sums = {token: sum(held.values()) for token, held in self._balances.items()}
        for token, supply in self._supply.items():
            if sums.get(token, 0) != supply:
                raise RugsimError(
                    f"conservation violated for {token}: "
                    f"balances sum {sums.get(token, 0)} != supply {supply}")
        for token, total in sums.items():
            if token not in self._supply and total != 0:
                raise RugsimError(f"unminted balance for {token}: {total}")

    def snapshot(self) -> dict:
        """JSON-ready view: non-zero balances and per-token supply."""
        held = sorted((account, token, value)
                      for token, accounts in self._balances.items()
                      for account, value in accounts.items() if value != 0)
        balances: dict[str, dict[str, str]] = {}
        for account, token, value in held:
            balances.setdefault(account, {})[token] = str(FixedAmount(value))
        supply = {token: str(FixedAmount(v))
                  for token, v in sorted(self._supply.items()) if v != 0}
        return {"balances": balances, "supply": supply}

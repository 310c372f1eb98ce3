"""Vault registry: deposits of rugged tokens with 1:1 anticoin issuance (the
anticoins are the deposit's receipt), anticoin valuation under the inverse
logarithmic peg, burns, the whale / cumulative withdrawal-penalty game, and
the bridge that carries deposit and burn rewards to the home chain.

Withdrawal penalties are owner-aggregated: the registry counts prior
withdrawals per beneficial owner (simulator ground truth), so splitting
holdings across sybil accounts strictly raises the total penalty.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    ChainId,
    DustError,
    FixedAmount,
    ParameterError,
    QUANTUM,
    RugsimError,
    StateError,
    TokenId,
    VaultId,
    ZERO,
    amt,
    fixed_pow,
    quantize,
    safe_ln,
)
from .ledger import BalanceError, Ledger


class ConfiscatoryError(RugsimError):
    """The computed penalty would consume the entire withdrawal."""


# Penalty surcharge never exceeds this fraction of the withdrawn amount.
MAX_WHALE_RATE = amt("0.99")


class ReceiptKind(enum.Enum):
    FUNGIBLE = "fungible"
    NON_FUNGIBLE = "non_fungible"
    REFUNGIBLE = "refungible"


class Vault:
    """One vault: its parsed ``vaults[i]`` entry as ``params``, which it reads
    and never writes, the price of its rugged token at creation, and the
    totals that deposits, burns and withdrawals move. ``omega`` is the deposit
    reward rate and ``theta`` the burn reward rate; ``penalty_k``,
    ``penalty_lambda``, ``gamma_base`` and ``delta_gamma`` price withdrawals
    (see ``VaultRegistry.withdraw``)."""

    __slots__ = ("params", "vault_id", "chain", "rugged_token", "anticoin",
                 "price_at_creation", "total_deposited", "total_burned", "total_withdrawn",
                 "next_serial")

    def __init__(self, params: dict, price_at_creation: FixedAmount):
        self.params = params
        self.vault_id, self.chain = params["id"], params["chain"]
        self.rugged_token = params["rugged_token"]
        self.anticoin = anticoin_id(self.rugged_token, self.chain)
        self.price_at_creation = price_at_creation
        self.total_deposited = self.total_burned = self.total_withdrawn = ZERO
        self.next_serial = 1

    @property
    def escrow_account(self) -> str:
        return f"vault:{self.vault_id}"

    @property
    def anticoin_supply(self) -> FixedAmount:
        return self.total_deposited - self.total_burned - self.total_withdrawn


def anticoin_id(token: TokenId, chain: ChainId) -> TokenId:
    """The id of the anticoin a vault for ``token`` on ``chain`` issues."""
    return f"anti:{token}@{chain}"


def anticoin_value(price_at_creation: FixedAmount,
                   current_price: FixedAmount) -> FixedAmount:
    """Inverse-log peg: ln(price_at_creation / price), clamped at zero.

    Rises as the rugged token falls; zero at or above the creation price
    (a negative token value is unrepresentable). A price below one quantum
    is read as one quantum.
    """
    value = safe_ln(price_at_creation / max(current_price, QUANTUM))
    return max(ZERO, value)


def whale_penalty(holdings: FixedAmount, k: FixedAmount,
                  lam: FixedAmount) -> FixedAmount:
    """k * H**lam; superlinear in holdings for lam > 1."""
    if holdings.raw < 0:
        raise ParameterError(f"holdings must be >= 0, got {holdings}")
    return k * fixed_pow(holdings, lam)


def cumulative_penalty(h_total: FixedAmount, n: int, gamma: FixedAmount,
                       delta_gamma: FixedAmount) -> FixedAmount:
    """Total penalty for splitting h_total across n escalating withdrawals.

    Exact sum of (H/n) * (gamma + delta_gamma * i) for i in 1..n, evaluated
    as H*gamma + H*delta_gamma*(n+1)/2 in rational arithmetic and quantized
    once at the end.
    """
    if n < 1:
        raise ParameterError(f"withdrawal count must be >= 1, got {n}")
    if h_total.raw < 0:
        raise ParameterError(f"h_total must be >= 0, got {h_total}")
    h = h_total.as_fraction()
    total = h * gamma.as_fraction() + h * delta_gamma.as_fraction() * Fraction(n + 1, 2)
    return quantize(total)


class VaultRegistry:
    """Single-writer vault state machine for the vaults of every chain,
    keyed by their ids, which are unique across chains; each vault holds
    its chain. The registry runs its script ops (``OPS``) on ``ledger`` and
    records each one's event through ``record``. A deposit or burn earns a
    reward in ``home_token``, which travels ``bridge_delay`` blocks and is
    minted by ``on_block`` on the home chain. ``accounts`` are the parsed
    account entries, whose owners the withdrawal penalty reads, and
    ``chains`` the chains ``snapshot`` lists."""

    OPS = ("deposit", "burn", "withdraw")

    def __init__(self, accounts: Sequence[dict], ledger: Ledger, treasury: str,
                 record: Callable[..., None], bridge_delay: int, home_token: TokenId,
                 chains: Sequence[ChainId] = ()):
        self.ledger = ledger
        self.chains = chains
        self.treasury = treasury
        self.record = record
        self.bridge_delay = bridge_delay
        self.home_token = home_token
        self.vaults: dict[VaultId, Vault] = {}
        # account -> (its beneficial owner, that owner's accounts in order)
        self._owners: dict[str, tuple[str, list[str]]] = {}
        owned: dict[str, list[str]] = {}
        for entry in accounts:
            related = owned.setdefault(entry["owner"], [])
            related.append(entry["id"])
            self._owners[entry["id"]] = entry["owner"], related
        # (owner, vault_id) -> executed withdrawal count
        self.withdrawal_counts: dict[tuple[str, VaultId], int] = {}
        # (delivery height, kind, vault id, account, amount) in emission order
        self.in_flight: list[tuple[int, str, VaultId, str, FixedAmount]] = []
        self.delivered = 0  # the raw home token that the last on_block minted
        self.total_penalties = ZERO

    def vault(self, vault_id: VaultId) -> Vault:
        try:
            return self.vaults[vault_id]
        except KeyError:
            raise StateError(f"no vault {vault_id}") from None

    def vault_for_token(self, token: TokenId, chains: Sequence[ChainId]) -> Optional[Vault]:
        """The vault for ``token`` on the first of ``chains`` that has one."""
        return min((v for v in self.vaults.values() if v.rugged_token == token),
                   key=lambda v: chains.index(v.chain), default=None)

    def create_vault(self, params: dict, current_price: FixedAmount) -> Vault:
        """Open the vault of a parsed ``vaults[i]`` entry at ``current_price``."""
        if current_price.raw <= 0:
            raise ParameterError("creation price must be > 0")
        vault = Vault(params, current_price)
        if any(v.anticoin == vault.anticoin for v in self.vaults.values()):
            raise StateError(f"vault for {vault.rugged_token} already exists on {vault.chain}")
        if vault.vault_id in self.vaults:
            raise StateError(f"vault id {vault.vault_id} already exists")
        self.vaults[vault.vault_id] = vault
        return vault

    def _emit_reward(self, kind: str, vault_id: VaultId, account: str,
                     amount: FixedAmount, height: int) -> None:
        deliver_at = height + self.bridge_delay
        self.in_flight.append((deliver_at, kind, vault_id, account, amount))
        self.record("reward_emitted", kind, vault_id, account, amount, deliver_at)

    def deposit(self, user: str, step: dict, height: int) -> None:
        """Deposit rugged tokens and mint anticoins 1:1. A fungible vault
        numbers no deposit; the others give each its serial."""
        vault_id, amount = step["vault"], step["amount"]
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"deposit must be > 0, got {amount}")
        self.ledger.transfer(user, vault.escrow_account, vault.rugged_token,
                             amount, memo=f"deposit:{vault_id}")
        self.ledger.mint(user, vault.anticoin, amount, memo=f"anticoin:{vault_id}")
        vault.total_deposited = vault.total_deposited + amount

        serial = None
        receipt_kind = vault.params["receipt_kind"]
        if receipt_kind is not ReceiptKind.FUNGIBLE:
            serial = vault.next_serial
            vault.next_serial += 1
        self._emit_reward("deposit", vault_id, user, vault.params["omega"] * amount, height)
        self.record("deposit", vault_id, user, amount, receipt_kind.value, serial)

    def burn(self, user: str, step: dict, height: int) -> None:
        """The script's ``burn`` op, run by ``burn_anticoins``, the name
        that ``perfbench/tracing.py`` times."""
        self.burn_anticoins(user, step, height)

    def burn_anticoins(self, user: str, step: dict, height: int) -> None:
        """Burn anticoins, permanently extinguishing the withdrawal claim."""
        vault_id, amount = step["vault"], step["amount"]
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"burn must be > 0, got {amount}")
        self.ledger.burn(user, vault.anticoin, amount, memo=f"burn:{vault_id}")
        vault.total_burned = vault.total_burned + amount
        self._emit_reward("burn", vault_id, user, vault.params["theta"] * amount, height)
        self.record("anticoin_burn", vault_id, user, amount, vault.anticoin_supply)

    def withdraw(self, account: str, step: dict, height: int) -> None:
        """Redeem anticoins for vaulted rugged tokens, minus the penalty,
        which goes to the treasury.

        The surcharge rate is the whale term k*(H/H_ref)**lambda (H is the
        anticoin holding of every account of the account's owner, H_ref the
        vault's total deposits) plus the escalating per-withdrawal term
        gamma + delta_gamma*i, where i counts the owner's withdrawals from
        this vault from 1.
        """
        vault_id, amount = step["vault"], step["amount"]
        ledger = self.ledger
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"withdrawal must be > 0, got {amount}")
        balance = ledger.balance(account, vault.anticoin)
        if balance < amount:
            raise BalanceError(
                f"{account} holds {balance} anticoins, cannot withdraw {amount}")
        escrow = ledger.balance(vault.escrow_account, vault.rugged_token)
        if escrow < amount:
            raise BalanceError(f"vault {vault_id} holds only {escrow} rugged tokens")

        owner, related = self._owners[account]
        holdings = ZERO
        for acct in related:
            holdings = holdings + ledger.balance(acct, vault.anticoin)

        params = vault.params
        whale_rate = ZERO
        if vault.total_deposited.raw > 0 and params["penalty_k"].raw > 0:
            ratio = holdings / vault.total_deposited
            whale_rate = min(MAX_WHALE_RATE, whale_penalty(ratio, params["penalty_k"],
                                                           params["penalty_lambda"]))
        index = self.withdrawal_counts.get((owner, vault_id), 0) + 1
        step_rate = params["gamma_base"] + params["delta_gamma"] * index
        rate = whale_rate + step_rate
        penalty = amount * rate
        if penalty >= amount:
            raise ConfiscatoryError(
                f"penalty {penalty} would consume the whole withdrawal of {amount}")

        returned = amount - penalty
        ledger.burn(account, vault.anticoin, amount, memo=f"withdraw:{vault_id}")
        ledger.transfer(vault.escrow_account, account, vault.rugged_token,
                        returned, memo=f"withdraw:{vault_id}")
        ledger.transfer(vault.escrow_account, self.treasury, vault.rugged_token,
                        penalty, memo=f"penalty:{vault_id}")
        vault.total_withdrawn = vault.total_withdrawn + amount
        self.withdrawal_counts[(owner, vault_id)] = index
        self.total_penalties = self.total_penalties + penalty
        self.record("withdraw", vault_id, account, amount, returned, penalty, rate, index)

    def on_block(self, chain: ChainId, height: int) -> None:
        """Mint, in emission order, each reward due by ``height`` to its account
        (run on the home chain); ``delivered`` counts the raw home token minted."""
        due = [reward for reward in self.in_flight if reward[0] <= height]
        self.in_flight = [reward for reward in self.in_flight if reward[0] > height]
        self.delivered = 0
        for _, kind, vault_id, account, amount in due:
            self.ledger.mint(account, self.home_token, amount, memo=f"reward:{kind}")
            self.delivered += amount.raw
            self.record("bridge_delivery", kind, vault_id, account, amount)

    def snapshot(self) -> dict:
        """``vaults``: each of ``chains``, sorted, mapped to its vaults by
        sorted id, a chain without a vault to {}; and ``total_penalties``."""
        return {"total_penalties": str(self.total_penalties), "vaults": {chain: {
            vid: {
                "chain": v.chain,
                "rugged_token": v.rugged_token,
                "anticoin": v.anticoin,
                "receipt_kind": v.params["receipt_kind"].value,
                "price_at_creation": str(v.price_at_creation),
                "total_deposited": str(v.total_deposited),
                "total_burned": str(v.total_burned),
                "total_withdrawn": str(v.total_withdrawn),
                "anticoin_supply": str(v.anticoin_supply),
            }
            for vid, v in sorted(self.vaults.items()) if v.chain == chain
        } for chain in sorted(self.chains)}}

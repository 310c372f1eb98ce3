"""Vault registry: deposits of rugged tokens with 1:1 anticoin issuance (the
anticoins are the deposit's receipt), anticoin valuation under the inverse
logarithmic peg, burns, and the whale / cumulative withdrawal-penalty game.

Withdrawal penalties are owner-aggregated: the registry counts prior
withdrawals per beneficial owner (simulator ground truth), so splitting
holdings across sybil accounts strictly raises the total penalty.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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


class RewardEvent(NamedTuple):
    """A reward earned on a satellite chain, minted on the home chain after
    the bridge delay."""

    kind: str  # "deposit" | "burn"
    vault: VaultId
    account: str
    amount: FixedAmount


class WithdrawResult(NamedTuple):
    returned: FixedAmount
    penalty: FixedAmount
    rate: FixedAmount
    withdrawal_index: int  # 1-based index of this withdrawal for the owner


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
    its chain."""

    def __init__(self):
        self.vaults: dict[VaultId, Vault] = {}
        # (owner, vault_id) -> executed withdrawal count
        self.withdrawal_counts: dict[tuple[str, VaultId], int] = {}

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

    def deposit(self, ledger: Ledger, vault_id: VaultId, user: str,
                amount: FixedAmount) -> tuple[Optional[int], RewardEvent]:
        """Deposit rugged tokens and mint anticoins 1:1. Returns the
        deposit's serial (None in a fungible vault, which numbers none) and
        its reward."""
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"deposit must be > 0, got {amount}")
        ledger.transfer(user, vault.escrow_account, vault.rugged_token,
                        amount, memo=f"deposit:{vault_id}")
        ledger.mint(user, vault.anticoin, amount, memo=f"anticoin:{vault_id}")
        vault.total_deposited = vault.total_deposited + amount

        serial = None
        if vault.params["receipt_kind"] is not ReceiptKind.FUNGIBLE:
            serial = vault.next_serial
            vault.next_serial += 1
        reward = RewardEvent("deposit", vault_id, user, vault.params["omega"] * amount)
        return serial, reward

    def burn_anticoins(self, ledger: Ledger, vault_id: VaultId, user: str,
                       amount: FixedAmount) -> tuple[FixedAmount, RewardEvent]:
        """Burn anticoins, permanently extinguishing the withdrawal claim."""
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"burn must be > 0, got {amount}")
        ledger.burn(user, vault.anticoin, amount, memo=f"burn:{vault_id}")
        vault.total_burned = vault.total_burned + amount
        reward = RewardEvent("burn", vault_id, user, vault.params["theta"] * amount)
        return vault.anticoin_supply, reward

    def withdrawal_count(self, owner: str, vault_id: VaultId) -> int:
        return self.withdrawal_counts.get((owner, vault_id), 0)

    def withdraw(self, ledger: Ledger, vault_id: VaultId, account: str,
                 amount: FixedAmount, treasury: str,
                 related_accounts: Optional[Sequence[str]] = None,
                 owner: Optional[str] = None) -> WithdrawResult:
        """Redeem anticoins for vaulted rugged tokens, minus the penalty.

        The surcharge rate is the whale term k*(H/H_ref)**lambda (H is the
        anticoin holding of ``related_accounts``, the account alone by
        default; H_ref the vault's total deposits) plus the escalating
        per-withdrawal term gamma + delta_gamma*i, where i counts ``owner``'s
        (the account's by default) withdrawals from this vault from 1.
        """
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

        accounts = list(related_accounts) if related_accounts else [account]
        holdings = ZERO
        for acct in accounts:
            holdings = holdings + ledger.balance(acct, vault.anticoin)

        params = vault.params
        whale_rate = ZERO
        if vault.total_deposited.raw > 0 and params["penalty_k"].raw > 0:
            ratio = holdings / vault.total_deposited
            whale_rate = min(MAX_WHALE_RATE, whale_penalty(ratio, params["penalty_k"],
                                                           params["penalty_lambda"]))
        owner = owner if owner is not None else account
        index = self.withdrawal_count(owner, vault_id) + 1
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
        ledger.transfer(vault.escrow_account, treasury, vault.rugged_token,
                        penalty, memo=f"penalty:{vault_id}")
        vault.total_withdrawn = vault.total_withdrawn + amount
        self.withdrawal_counts[(owner, vault_id)] = index
        return WithdrawResult(returned=returned, penalty=penalty, rate=rate,
                              withdrawal_index=index)

    def snapshot(self, chains: Sequence[ChainId]) -> dict:
        """Each of ``chains``, sorted, mapped to its vaults by sorted id; a
        chain without a vault maps to {}."""
        return {chain: {
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
        } for chain in sorted(chains)}

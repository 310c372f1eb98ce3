"""Vault registry: deposits of rugged tokens with 1:1 anticoin issuance and
receipts, anticoin valuation under the inverse logarithmic peg, burns, and
the whale / cumulative withdrawal-penalty game.

Withdrawal penalties are owner-aggregated: the registry counts prior
withdrawals per beneficial owner (simulator ground truth), so splitting
holdings across sybil accounts strictly raises the total penalty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    AccountId,
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


@dataclass
class Vault:
    vault_id: VaultId
    chain: ChainId
    rugged_token: TokenId
    anticoin: TokenId
    receipt_kind: ReceiptKind
    price_at_creation: FixedAmount
    omega: FixedAmount           # deposit reward rate
    theta: FixedAmount           # burn reward rate, must exceed omega
    penalty_k: FixedAmount
    penalty_lambda: FixedAmount  # > 1: superlinear whale penalty
    gamma_base: FixedAmount
    delta_gamma: FixedAmount
    total_deposited: FixedAmount = ZERO
    total_burned: FixedAmount = ZERO
    total_withdrawn: FixedAmount = ZERO
    next_serial: int = 1

    @property
    def escrow_account(self) -> str:
        return f"vault:{self.vault_id}"

    @property
    def anticoin_supply(self) -> FixedAmount:
        return self.total_deposited - self.total_burned - self.total_withdrawn


@dataclass(frozen=True)
class Receipt:
    vault: VaultId
    holder: AccountId
    kind: ReceiptKind
    amount: FixedAmount
    nft_serial: Optional[int] = None
    rft_shares: Optional[FixedAmount] = None


@dataclass(frozen=True)
class RewardEvent:
    """A reward earned on a satellite chain, minted on the home chain after
    the bridge delay."""

    kind: str  # "deposit" | "burn"
    vault: VaultId
    chain: ChainId
    account: AccountId
    amount: FixedAmount


@dataclass
class WithdrawResult:
    returned: FixedAmount
    penalty: FixedAmount
    rate: FixedAmount
    withdrawal_index: int  # 1-based index of this withdrawal for the owner


def anticoin_id(token: TokenId, chain: ChainId) -> TokenId:
    """The id of the anticoin a vault for ``token`` on ``chain`` issues."""
    return f"anti:{token}@{chain}"


def anticoin_value(vault: Vault, current_price: FixedAmount,
                   epsilon_floor: FixedAmount = QUANTUM) -> FixedAmount:
    """Inverse-log peg: ln(price_at_creation / price), clamped at zero.

    Rises as the rugged token falls; zero at or above the creation price
    (a negative token value is unrepresentable).
    """
    clamped = max(current_price, epsilon_floor)
    value = safe_ln(vault.price_at_creation / clamped)
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
    """Single-writer vault state machine for one chain."""

    def __init__(self, chain: ChainId):
        self.chain = chain
        self.vaults: dict[VaultId, Vault] = {}
        self._by_token: dict[TokenId, VaultId] = {}
        self.receipts: list[Receipt] = []
        # (owner, vault_id) -> executed withdrawal count
        self.withdrawal_counts: dict[tuple[str, VaultId], int] = {}

    def vault(self, vault_id: VaultId) -> Vault:
        try:
            return self.vaults[vault_id]
        except KeyError:
            raise StateError(f"no vault {vault_id} on chain {self.chain}") from None

    def vault_for_token(self, token: TokenId) -> Optional[Vault]:
        vid = self._by_token.get(token)
        return self.vaults[vid] if vid is not None else None

    def create_vault(self, rugged_token: TokenId, receipt_kind: ReceiptKind,
                     omega: FixedAmount, theta: FixedAmount,
                     penalty_k: FixedAmount, penalty_lambda: FixedAmount,
                     gamma_base: FixedAmount, delta_gamma: FixedAmount,
                     current_price: FixedAmount,
                     vault_id: Optional[VaultId] = None) -> Vault:
        if theta <= omega:
            raise ParameterError(
                f"burn reward rate must exceed deposit rate: theta={theta} <= omega={omega}")
        if penalty_lambda <= amt(1):
            raise ParameterError(f"penalty_lambda must be > 1, got {penalty_lambda}")
        if current_price.raw <= 0:
            raise ParameterError("creation price must be > 0")
        for name, value in (("omega", omega), ("penalty_k", penalty_k),
                            ("gamma_base", gamma_base), ("delta_gamma", delta_gamma)):
            if value.raw < 0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if rugged_token in self._by_token:
            raise StateError(f"vault for {rugged_token} already exists on {self.chain}")
        vid = vault_id or f"v-{rugged_token}@{self.chain}"
        if vid in self.vaults:
            raise StateError(f"vault id {vid} already exists")
        vault = Vault(
            vault_id=vid, chain=self.chain, rugged_token=rugged_token,
            anticoin=anticoin_id(rugged_token, self.chain), receipt_kind=receipt_kind,
            price_at_creation=current_price, omega=omega, theta=theta,
            penalty_k=penalty_k, penalty_lambda=penalty_lambda,
            gamma_base=gamma_base, delta_gamma=delta_gamma)
        self.vaults[vid] = vault
        self._by_token[rugged_token] = vid
        return vault

    def deposit(self, ledger: Ledger, vault_id: VaultId, user: AccountId,
                amount: FixedAmount) -> tuple[FixedAmount, Receipt, RewardEvent]:
        """Deposit rugged tokens; mint anticoins 1:1 plus a typed receipt."""
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"deposit must be > 0, got {amount}")
        ledger.transfer(user.value, vault.escrow_account, vault.rugged_token,
                        amount, memo=f"deposit:{vault_id}")
        ledger.mint(user.value, vault.anticoin, amount, memo=f"anticoin:{vault_id}")
        vault.total_deposited = vault.total_deposited + amount

        serial = None
        shares = None
        if vault.receipt_kind is not ReceiptKind.FUNGIBLE:
            serial = vault.next_serial
            vault.next_serial += 1
        if vault.receipt_kind is ReceiptKind.REFUNGIBLE:
            shares = amount
        receipt = Receipt(vault=vault_id, holder=user, kind=vault.receipt_kind,
                          amount=amount, nft_serial=serial, rft_shares=shares)
        self.receipts.append(receipt)
        reward = RewardEvent("deposit", vault_id, self.chain, user, vault.omega * amount)
        return amount, receipt, reward

    def burn_anticoins(self, ledger: Ledger, vault_id: VaultId, user: AccountId,
                       amount: FixedAmount) -> tuple[FixedAmount, RewardEvent]:
        """Burn anticoins, permanently extinguishing the withdrawal claim."""
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"burn must be > 0, got {amount}")
        ledger.burn(user.value, vault.anticoin, amount, memo=f"burn:{vault_id}")
        vault.total_burned = vault.total_burned + amount
        reward = RewardEvent("burn", vault_id, self.chain, user, vault.theta * amount)
        return vault.anticoin_supply, reward

    def withdrawal_count(self, owner: str, vault_id: VaultId) -> int:
        return self.withdrawal_counts.get((owner, vault_id), 0)

    def withdraw(self, ledger: Ledger, vault_id: VaultId, account: AccountId,
                 amount: FixedAmount, treasury: str,
                 related_accounts: Optional[Sequence[str]] = None) -> WithdrawResult:
        """Redeem anticoins for vaulted rugged tokens, minus the penalty.

        The surcharge rate is the whale term k*(H/H_ref)**lambda (H is the
        owner-aggregated anticoin holding, H_ref the vault's total deposits)
        plus the escalating per-withdrawal term gamma + delta_gamma*i, where
        i counts the owner's withdrawals from this vault starting at 1.
        """
        vault = self.vault(vault_id)
        if amount.raw <= 0:
            raise DustError(f"withdrawal must be > 0, got {amount}")
        balance = ledger.balance(account.value, vault.anticoin)
        if balance < amount:
            raise BalanceError(
                f"{account.value} holds {balance} anticoins, cannot withdraw {amount}")
        escrow = ledger.balance(vault.escrow_account, vault.rugged_token)
        if escrow < amount:
            raise BalanceError(f"vault {vault_id} holds only {escrow} rugged tokens")

        accounts = list(related_accounts) if related_accounts else [account.value]
        holdings = ZERO
        for acct in accounts:
            holdings = holdings + ledger.balance(acct, vault.anticoin)

        whale_rate = ZERO
        if vault.total_deposited.raw > 0 and vault.penalty_k.raw > 0:
            ratio = holdings / vault.total_deposited
            whale_rate = min(MAX_WHALE_RATE,
                             vault.penalty_k * fixed_pow(ratio, vault.penalty_lambda))
        index = self.withdrawal_count(account.owner, vault_id) + 1
        step_rate = vault.gamma_base + vault.delta_gamma * index
        rate = whale_rate + step_rate
        penalty = amount * rate
        if penalty >= amount:
            raise ConfiscatoryError(
                f"penalty {penalty} would consume the whole withdrawal of {amount}")

        returned = amount - penalty
        ledger.burn(account.value, vault.anticoin, amount, memo=f"withdraw:{vault_id}")
        ledger.transfer(vault.escrow_account, account.value, vault.rugged_token,
                        returned, memo=f"withdraw:{vault_id}")
        ledger.transfer(vault.escrow_account, treasury, vault.rugged_token,
                        penalty, memo=f"penalty:{vault_id}")
        vault.total_withdrawn = vault.total_withdrawn + amount
        self.withdrawal_counts[(account.owner, vault_id)] = index
        return WithdrawResult(returned=returned, penalty=penalty, rate=rate,
                              withdrawal_index=index)

    def snapshot(self) -> dict:
        return {
            vid: {
                "chain": v.chain,
                "rugged_token": v.rugged_token,
                "anticoin": v.anticoin,
                "receipt_kind": v.receipt_kind.value,
                "price_at_creation": str(v.price_at_creation),
                "total_deposited": str(v.total_deposited),
                "total_burned": str(v.total_burned),
                "total_withdrawn": str(v.total_withdrawn),
                "anticoin_supply": str(v.anticoin_supply),
            }
            for vid, v in sorted(self.vaults.items())
        }

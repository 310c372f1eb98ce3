"""Home-chain token supply regulation and the vault oracle.

The inverse-log supply law is reified as a *target*: a one-sided
proportional controller burns toward s0 / ln(vaulted value) at rate kappa,
never exceeding the per-block burn cap. Emissions are a flat per-block rate
plus bridged reward mints, so the per-block identity

    delta(current_supply) == minted_this_block - burned_this_block

holds exactly in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    FixedAmount,
    ONE,
    ParameterError,
    SCALE,
    TokenId,
    ZERO,
    _div_round_half_even,
    safe_ln,
)
from .ledger import Ledger
from .vault import VaultRegistry


@dataclass(frozen=True)
class SupplyParams:
    s0: FixedAmount            # scale of the supply target
    epsilon_rate: FixedAmount  # tokens emitted per block
    beta_burn: FixedAmount     # per-block burn cap
    kappa: FixedAmount         # controller convergence rate in (0, 1]

    def __post_init__(self):
        for name in ("s0", "epsilon_rate", "beta_burn", "kappa"):
            if getattr(self, name).raw < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.kappa > ONE:
            raise ParameterError(f"kappa must be <= 1, got {self.kappa}")


@dataclass
class SupplyState:
    current_supply: FixedAmount
    minted_total: FixedAmount = ZERO
    burned_total: FixedAmount = ZERO
    last_height: int = 0
    # accumulates every mint in the current block (emission + rewards)
    block_minted: FixedAmount = ZERO
    block_burned: FixedAmount = ZERO

    def record_mint(self, amount: FixedAmount) -> None:
        self.current_supply = self.current_supply + amount
        self.minted_total = self.minted_total + amount
        self.block_minted = self.block_minted + amount

    def record_burn(self, amount: FixedAmount) -> None:
        self.current_supply = self.current_supply - amount
        self.burned_total = self.burned_total + amount
        self.block_burned = self.block_burned + amount

    def begin_block(self, height: int) -> None:
        self.last_height = height
        self.block_minted = ZERO
        self.block_burned = ZERO


def target_supply(sum_cr_value: FixedAmount, s0: FixedAmount) -> FixedAmount:
    """s0 / max(1, ln(sum)): the inverse-log supply setpoint.

    Capped at s0 for sums at or below e (where the log would amplify
    rather than dampen), and for an empty ecosystem.
    """
    if sum_cr_value.raw < 0:
        raise ParameterError("sum_cr_value must be >= 0")
    if sum_cr_value.raw == 0:
        return s0
    log = safe_ln(sum_cr_value)
    return s0 / max(ONE, log)


def burn_step(state: SupplyState, params: SupplyParams, target: FixedAmount,
              available: FixedAmount | None = None) -> FixedAmount:
    """One-sided controller step: burn kappa * excess over `target` (the
    block's `target_supply`), capped at beta_burn (and at `available`, the
    burnable treasury holding, when given). Never un-burns when supply is
    below target."""
    excess = state.current_supply - target
    if excess.raw <= 0:
        return ZERO
    burned = min(params.kappa * excess, params.beta_burn)
    if available is not None:
        burned = min(burned, available)
    if burned.raw > 0:
        state.record_burn(burned)
    return burned


def aggregate_vault_stats(registries: Sequence[VaultRegistry], ledger: Ledger,
                          price_of: Callable[[TokenId], FixedAmount]) -> FixedAmount:
    """Read-only oracle pass over every vault on every chain: the value of
    the rugged tokens still vaulted, at current prices. Each vault's value
    rounds half-even to the quantum, as a FixedAmount product would; the
    sum is exact, so the visiting order does not matter, and no value is
    negative, so the total passes MAX_RAW whenever one vault's value does."""
    total = 0
    for registry in registries:
        for vault in registry.vaults.values():
            vaulted = ledger.balance_raw(vault.escrow_account, vault.rugged_token)
            price = price_of(vault.rugged_token).raw
            total += _div_round_half_even(vaulted * price, SCALE)
    return FixedAmount(total)

"""Home-chain supply regulation, the vault oracle and the supply controller.

The inverse-log supply law is reified as a *target*: a one-sided
proportional controller burns toward s0 / ln(vaulted value) at rate kappa,
never exceeding the per-block burn cap. The supply it reads is the
ledger's supply of the home token R, the only count of R. A block's
emission is all the R it mints: the flat per-block rate plus bridged
reward mints. So the per-block identity

    delta(current_supply) == emission - burned

holds exactly in every run.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    HOME_TOKEN,
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
from .trace import Trace
from .vault import VaultRegistry


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


def burn_step(current_supply: FixedAmount, tokenomics: dict, target: FixedAmount,
              available: FixedAmount | None = None) -> FixedAmount:
    """One-sided controller step: the burn of kappa * excess of
    `current_supply` over `target` (the block's `target_supply`), capped at
    beta_burn (and at `available`, the burnable treasury holding, when
    given); kappa and beta_burn are read from the scenario's parsed
    `tokenomics` section. Never un-burns when supply is below target."""
    excess = current_supply - target
    if excess.raw <= 0:
        return ZERO
    burned = min(tokenomics["kappa"] * excess, tokenomics["beta_burn"])
    if available is not None:
        burned = min(burned, available)
    return burned


def aggregate_vault_stats(registry: VaultRegistry, ledger: Ledger,
                          price_of: Callable[[TokenId], FixedAmount]) -> FixedAmount:
    """Read-only oracle pass over the registry's vaults on every chain: the
    value of the rugged tokens still vaulted, at current prices. Each vault's
    value rounds half-even to the quantum, as a FixedAmount product would;
    the sum is exact, so the visiting order does not matter, and no value is
    negative, so the total passes MAX_RAW whenever one vault's value does."""
    total = 0
    for vault in registry.vaults.values():
        vaulted = ledger.balance_raw(vault.escrow_account, vault.rugged_token)
        price = price_of(vault.rugged_token).raw
        total += _div_round_half_even(vaulted * price, SCALE)
    return FixedAmount(total)


class SupplyController:
    """The supply of the home token R, run on the home chain
    (``on_block``) from the parsed ``tokenomics`` section: the block's
    emission to ``treasury``, the burn from it toward the target that the
    vaults' value at the engine's live ``prices`` sets, then the block's
    row in ``trace``'s telemetry, whose emission adds the R that the vault
    registry's bridge minted. The ledger holds the only count of R."""

    def __init__(self, params: dict, vaults: VaultRegistry, ledger: Ledger,
                 prices: dict[TokenId, FixedAmount], trace: Trace, treasury: str):
        self.params, self.vaults, self.ledger, self.prices = params, vaults, ledger, prices
        self.trace, self.treasury = trace, treasury

    def on_block(self, chain: str, height: int) -> None:
        ledger, treasury, params = self.ledger, self.treasury, self.params
        emission = params["epsilon_rate"]
        if emission.raw > 0:
            ledger.mint(treasury, HOME_TOKEN, emission, memo="emission")
        # every vault's token has a price process
        target = target_supply(aggregate_vault_stats(self.vaults, ledger, self.prices.__getitem__),
                               params["s0"])
        burned = burn_step(ledger.total_supply(HOME_TOKEN), params, target,
                           available=ledger.balance(treasury, HOME_TOKEN))
        if burned.raw > 0:
            ledger.burn(treasury, HOME_TOKEN, burned, memo="supply-burn")
        self.trace.record_telemetry({
            "height": height,
            "emission": str(FixedAmount(self.vaults.delivered + emission.raw)),
            "burned": str(burned),
            "current_supply": str(ledger.total_supply(HOME_TOKEN)),
            "target_supply": str(target),
        })

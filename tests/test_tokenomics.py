"""Supply target, emissions, burn controller, and oracle aggregation."""

import pytest

from rugsim.core import FixedAmount, RangeError, SCALE, amt, fsum, safe_exp
from rugsim.ledger import Ledger
from rugsim.tokenomics import (
    SupplyParams,
    SupplyState,
    aggregate_vault_stats,
    burn_step,
    target_supply,
)
from rugsim.vault import ReceiptKind, VaultRegistry

from conftest import fund


def mk_params(s0=1000, eps="5", cap="1000", kappa="0.5"):
    return SupplyParams(s0=amt(s0), epsilon_rate=amt(eps),
                        beta_burn=amt(cap), kappa=amt(kappa))


def test_target_supply_examples():
    s0 = amt(1000)
    e = safe_exp(amt(1))
    assert target_supply(e, s0) == s0
    assert abs(target_supply(safe_exp(amt(2)), s0) - s0 / amt(2)).raw <= 4
    assert abs(target_supply(safe_exp(amt(4)), s0) - s0 / amt(4)).raw <= 4


def test_target_supply_caps_below_e():
    s0 = amt(777)
    for value in ("0", "0.5", "1", "2.7"):
        assert target_supply(amt(value), s0) == s0


def test_target_supply_non_increasing():
    s0 = amt(1000)
    grid = [FixedAmount(raw) for raw in range(SCALE, 1000 * SCALE, SCALE)]
    values = [target_supply(x, s0) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_burn_step_controller():
    params = mk_params(s0=1000, kappa="0.5")
    # vaulted value e^1 -> target 1000; at setpoint: no burn
    target = target_supply(safe_exp(amt(1)), params.s0)
    at_target = SupplyState(current_supply=amt(1000))
    assert burn_step(at_target, params, target) == amt(0)
    # 100 over target, kappa 0.5 -> burn 50
    over = SupplyState(current_supply=amt(1100))
    assert burn_step(over, params, target) == amt(50)
    assert over.current_supply == amt(1050)
    # below target: one-sided, never un-burns
    under = SupplyState(current_supply=amt(900))
    assert burn_step(under, params, target) == amt(0)


def test_burn_step_respects_cap():
    params = mk_params(s0=1000, kappa="1", cap="10")
    state = SupplyState(current_supply=amt(5000))
    target = target_supply(safe_exp(amt(1)), params.s0)
    assert burn_step(state, params, target) == amt(10)


def mk_registry(chain, ledger, price=100, deposit=None):
    registry = VaultRegistry(chain)
    vault = registry.create_vault(
        "RUG", ReceiptKind.FUNGIBLE, amt("0.01"), amt("0.02"), amt(0), amt(2),
        amt("0.1"), amt("0.01"), amt(price))
    if deposit:
        user = fund(ledger, f"user-{chain}", "RUG", deposit)
        registry.deposit(ledger, vault.vault_id, user, amt(deposit))
    return registry


def test_aggregate_vault_stats_empty():
    assert aggregate_vault_stats([], Ledger(), lambda token: amt(1)) == amt(0)


def test_aggregate_vault_stats_values(ledger):
    registry = mk_registry("alpha", ledger, deposit=1000)
    assert aggregate_vault_stats([registry], ledger, lambda token: amt(2)) == amt(2000)


def test_aggregate_vault_stats_additive_across_chains(ledger):
    registries = [mk_registry("alpha", ledger, deposit=1000),
                  mk_registry("beta", ledger, deposit=1000)]
    total = aggregate_vault_stats(registries, ledger, lambda token: amt(2))
    single = aggregate_vault_stats(registries[:1], ledger, lambda token: amt(2))
    assert total == single * 2 == amt(4000)
    assert aggregate_vault_stats(registries[::-1], ledger, lambda token: amt(2)) == total


def test_aggregate_vault_stats_rounds_each_vault_half_even(ledger):
    # three quanta vaulted at price 0.5 are worth 1.5 quanta, which rounds
    # to 2 in each vault, as vaulted * price does; rounding the exact sum
    # would give 3, and flooring each vault 2
    registries = [mk_registry(chain, ledger, deposit="0.000000003")
                  for chain in ("alpha", "beta")]
    half = amt("0.5")
    vaulted = [ledger.balance(v.escrow_account, "RUG")
               for r in registries for v in r.vaults.values()]
    assert aggregate_vault_stats(registries, ledger, lambda token: half) == \
        fsum(v * half for v in vaulted) == FixedAmount(4)


def test_aggregate_vault_stats_range_checks_the_value(ledger):
    registry = mk_registry("alpha", ledger, deposit=10**9)
    assert aggregate_vault_stats([registry], ledger, lambda t: amt(10**9)) == amt(10**18)
    with pytest.raises(RangeError):
        aggregate_vault_stats([registry], ledger, lambda t: amt(10**9 + 1))


def test_withdrawals_shrink_vaulted_but_not_gross(ledger):
    registry = mk_registry("alpha", ledger, deposit=1000)
    vault = next(iter(registry.vaults.values()))
    from rugsim.core import AccountId
    # mk_registry's depositor
    registry.withdraw(ledger, vault.vault_id, AccountId.solo("user-alpha"), amt(100),
                      "treasury")
    assert aggregate_vault_stats([registry], ledger, lambda token: amt(1)) == amt(900)
    assert vault.total_deposited == amt(1000)


def test_supply_identity_over_steps():
    params = mk_params(s0=100, eps="5", kappa="0.25")
    state = SupplyState(current_supply=amt(500))
    target = target_supply(safe_exp(amt(2)), params.s0)  # 50
    for height in range(1, 50):
        state.begin_block(height)
        before = state.current_supply
        emission = params.epsilon_rate
        state.record_mint(emission)
        burned = burn_step(state, params, target)
        assert state.current_supply == before + emission - burned
        assert state.block_minted == emission
        assert state.block_burned == burned
    assert state.current_supply == \
        amt(500) + state.minted_total - state.burned_total

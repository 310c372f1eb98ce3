"""Supply target, emissions, burn controller, and oracle aggregation."""

import pytest

from rugsim.core import FixedAmount, RangeError, SCALE, amt, fsum, safe_exp
from rugsim.ledger import Ledger
from rugsim.tokenomics import (
    aggregate_vault_stats,
    burn_step,
    target_supply,
)

from conftest import fund, loaded, rug_vault, step, vault_registry


def mk_params(**fields):
    """A tokenomics section with these fields over the required ones."""
    return loaded("tokenomics", {"initial_supply": "1000000", "s0": "1000",
                                 "epsilon_rate": "5", "beta_burn": "1000", "kappa": "0.5",
                                 **fields})


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
    target = target_supply(safe_exp(amt(1)), params["s0"])
    assert burn_step(amt(1000), params, target) == amt(0)
    # 100 over target, kappa 0.5 -> burn 50
    assert burn_step(amt(1100), params, target) == amt(50)
    # below target: one-sided, never un-burns
    assert burn_step(amt(900), params, target) == amt(0)


def test_burn_step_respects_cap():
    params = mk_params(s0=1000, kappa="1", beta_burn="10")
    target = target_supply(safe_exp(amt(1)), params["s0"])
    assert burn_step(amt(5000), params, target) == amt(10)


def mk_registry(ledger, chains=("alpha",), price=100, deposit=None):
    """A registry with a RUG vault on each of ``chains``, each holding
    ``deposit`` from its own user."""
    registry = vault_registry(ledger, *(f"user-{chain}" for chain in chains))
    for chain in chains:
        vault = registry.create_vault(rug_vault(chain), amt(price))
        if deposit:
            user = fund(ledger, f"user-{chain}", "RUG", deposit)
            registry.deposit(user, step("deposit", vault=vault.vault_id, amount=deposit), 1)
    return registry


def test_aggregate_vault_stats_empty():
    ledger = Ledger()
    assert aggregate_vault_stats(vault_registry(ledger), ledger, lambda token: amt(1)) \
        == amt(0)


def test_aggregate_vault_stats_values(ledger):
    registry = mk_registry(ledger, deposit=1000)
    assert aggregate_vault_stats(registry, ledger, lambda token: amt(2)) == amt(2000)


def test_aggregate_vault_stats_additive_across_chains(ledger):
    registry = mk_registry(ledger, ("alpha", "home"), deposit=1000)
    # the same vaults, reading the same escrows: the first alone, then both
    # created in reverse
    vaults = list(registry.vaults.values())
    single, reverse = vault_registry(ledger), vault_registry(ledger)
    single.create_vault(vaults[0].params, amt(100))
    for vault in vaults[::-1]:
        reverse.create_vault(vault.params, amt(100))
    total = aggregate_vault_stats(registry, ledger, lambda token: amt(2))
    assert total == aggregate_vault_stats(single, ledger, lambda token: amt(2)) * 2 \
        == amt(4000)
    assert aggregate_vault_stats(reverse, ledger, lambda token: amt(2)) == total


def test_aggregate_vault_stats_rounds_each_vault_half_even(ledger):
    # three quanta vaulted at price 0.5 are worth 1.5 quanta, which rounds
    # to 2 in each vault, as vaulted * price does; rounding the exact sum
    # would give 3, and flooring each vault 2
    registry = mk_registry(ledger, ("alpha", "home"), deposit="0.000000003")
    half = amt("0.5")
    vaulted = [ledger.balance(v.escrow_account, "RUG") for v in registry.vaults.values()]
    assert aggregate_vault_stats(registry, ledger, lambda token: half) == \
        fsum(v * half for v in vaulted) == FixedAmount(4)


def test_aggregate_vault_stats_range_checks_the_value(ledger):
    registry = mk_registry(ledger, deposit=10**9)
    assert aggregate_vault_stats(registry, ledger, lambda t: amt(10**9)) == amt(10**18)
    with pytest.raises(RangeError):
        aggregate_vault_stats(registry, ledger, lambda t: amt(10**9 + 1))


def test_withdrawals_shrink_vaulted_but_not_gross(ledger):
    registry = mk_registry(ledger, deposit=1000)
    vault = next(iter(registry.vaults.values()))
    # mk_registry's depositor
    registry.withdraw("user-alpha", step("withdraw", vault=vault.vault_id, amount=100), 2)
    assert aggregate_vault_stats(registry, ledger, lambda token: amt(1)) == amt(900)
    assert vault.total_deposited == amt(1000)


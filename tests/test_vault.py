"""Vault lifecycle, inverse-log valuation, and the penalty game.

The cumulative-penalty closed form is checked against a literal
term-by-term summation oracle in exact rational arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rugsim.core import (
    DustError,
    FixedAmount,
    ParameterError,
    SCALE,
    StateError,
    amt,
    quantize,
    safe_ln,
)
from rugsim.ledger import BalanceError, Ledger
from rugsim.vault import (
    ConfiscatoryError,
    ReceiptKind,
    anticoin_value,
    cumulative_penalty,
    whale_penalty,
)

from conftest import fund, rug_vault, step, vault_registry


def mk_vault(ledger, registry=None, price=100, kind=ReceiptKind.FUNGIBLE, k="0",
             lam="2", gamma="0.1", dgamma="0.01"):
    """A RUG vault in ``registry``, by default a new one on ``ledger`` whose
    accounts alice, bob, whale, minnow and nobody each own themselves."""
    registry = registry or vault_registry(ledger, "alice", "bob", "whale", "minnow", "nobody")
    vault = registry.create_vault(
        rug_vault(receipt_kind=kind.value, penalty_k=k, penalty_lambda=lam,
                  gamma_base=gamma, delta_gamma=dgamma), amt(price))
    return registry, vault


def deposit(registry, vault, account, amount, height=1):
    registry.deposit(account, step("deposit", vault=vault.vault_id, amount=str(amount)),
                     height)


def burn(registry, vault, account, amount, height=1):
    registry.burn(account, step("burn", vault=vault.vault_id, amount=str(amount)), height)


def withdraw(registry, vault, account, amount, height=1):
    """Withdraw; returns the recorded event's (returned, penalty, rate,
    withdrawal index)."""
    registry.withdraw(account, step("withdraw", vault=vault.vault_id, amount=str(amount)),
                      height)
    return registry.record[-1][4:]


def sum_oracle(h: str, n: int, gamma: str, dgamma: str) -> FixedAmount:
    """Literal per-withdrawal summation, exact rationals, quantized once."""
    h_f, g_f, d_f = (Fraction(x) for x in (h, gamma, dgamma))
    total = sum((h_f / n) * (g_f + d_f * i) for i in range(1, n + 1))
    return quantize(total)


# -- creation ---------------------------------------------------------------


def test_create_vault_starts_empty():
    _, vault = mk_vault(Ledger())
    assert vault.anticoin_supply == amt(0)
    assert vault.price_at_creation == amt(100)


def test_create_vault_rejects_duplicates():
    registry, _ = mk_vault(Ledger())
    with pytest.raises(StateError):
        mk_vault(registry.ledger, registry)


# -- deposits and receipts -----------------------------------------------------


def test_deposit_mints_one_to_one(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 1000)
    deposit(registry, vault, alice, 1000, height=5)
    assert ledger.balance("alice", vault.anticoin) == amt(1000)
    assert ledger.balance(vault.escrow_account, "RUG") == amt(1000)
    # omega = 0.01, delivered after the two-block bridge; a fungible vault
    # numbers no deposit
    assert registry.record == [
        ("reward_emitted", "deposit", "v-rug", "alice", amt(10), 7),
        ("deposit", "v-rug", "alice", amt(1000), "fungible", None)]


def test_rewards_are_minted_once_the_bridge_delivers_them(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 1000)
    deposit(registry, vault, alice, 1000, height=5)
    burn(registry, vault, alice, 100, height=6)
    registry.on_block("home", 6)
    assert registry.delivered == 0 and ledger.balance("alice", "R") == amt(0)
    # the deposit's 10 R arrive at block 7, the burn's 2 R at block 8
    registry.on_block("home", 7)
    assert registry.delivered == amt(10).raw
    registry.on_block("home", 8)
    assert registry.delivered == amt(2).raw
    assert ledger.balance("alice", "R") == amt(12) and registry.in_flight == []
    assert registry.record[-2:] == [
        ("bridge_delivery", "deposit", "v-rug", "alice", amt(10)),
        ("bridge_delivery", "burn", "v-rug", "alice", amt(2))]


def test_deposit_zero_rejected(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 10)
    with pytest.raises(DustError):
        deposit(registry, vault, alice, 0)
    assert registry.record == []


def test_nft_receipts_get_distinct_serials(ledger):
    registry, vault = mk_vault(ledger, kind=ReceiptKind.NON_FUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 1000)
    deposit(registry, vault, alice, 500)
    deposit(registry, vault, alice, 500)
    first, second = (e[-1] for e in registry.record if e[0] == "deposit")
    assert first != second


def test_rft_receipts_carry_shares(ledger):
    # a refungible receipt is numbered, and its shares are the anticoins
    registry, vault = mk_vault(ledger, kind=ReceiptKind.REFUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 300)
    deposit(registry, vault, alice, 300)
    assert registry.record[-1] == ("deposit", "v-rug", "alice", amt(300), "refungible", 1)
    assert ledger.balance(alice, vault.anticoin) == amt(300)


def test_receipt_amounts_track_total_deposited(ledger):
    # each deposit's receipt is the anticoins it mints
    registry, vault = mk_vault(ledger, kind=ReceiptKind.NON_FUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 1000)
    for chunk in (100, 250, 650):
        deposit(registry, vault, alice, chunk)
        assert ledger.balance(alice, vault.anticoin) == vault.total_deposited


# -- valuation ----------------------------------------------------------------


def test_anticoin_value_examples():
    created = amt(100)
    assert anticoin_value(created, amt(100)) == amt(0)
    assert anticoin_value(created, amt(10)) == amt("2.302585093")
    assert anticoin_value(created, amt(200)) == amt(0)  # clamped, never negative


def test_anticoin_value_strictly_decreasing():
    grid = [FixedAmount(raw) for raw in range(SCALE // 100, 100 * SCALE, SCALE)]
    values = [anticoin_value(amt(100), p) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# -- burns ----------------------------------------------------------------------


def test_burn_reduces_supply_and_rewards(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 100)
    deposit(registry, vault, alice, 100)
    burn(registry, vault, alice, 30, height=4)
    # theta = 0.02; the event carries the supply left
    assert registry.record[-2:] == [
        ("reward_emitted", "burn", "v-rug", "alice", amt("0.6"), 6),
        ("anticoin_burn", "v-rug", "alice", amt(30), amt(70))]
    assert ledger.balance("alice", vault.anticoin) == amt(70)


def test_burn_extinguishes_withdrawal_claim(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 100)
    deposit(registry, vault, alice, 100)
    burn(registry, vault, alice, 100)
    assert ledger.balance("alice", vault.anticoin) == amt(0)
    with pytest.raises(BalanceError):
        withdraw(registry, vault, alice, 1)
    with pytest.raises(DustError):
        burn(registry, vault, alice, 0)


# -- penalties ---------------------------------------------------------------


def test_whale_penalty_examples():
    assert whale_penalty(amt(0), amt(1), amt(2)) == amt(0)
    assert whale_penalty(amt(10), amt(1), amt(2)) == amt(100)
    assert whale_penalty(amt(100), amt(1), amt("1.5")) == amt(1000)


@given(h=st.integers(min_value=1, max_value=5 * 10**5),
       lam_tenths=st.integers(min_value=11, max_value=30))
def test_whale_penalty_superlinear(h, lam_tenths):
    # h is capped so (2h)**3 stays inside the representable range
    lam = FixedAmount(lam_tenths * SCALE // 10)
    single = whale_penalty(amt(h), amt(1), lam)
    double = whale_penalty(amt(2 * h), amt(1), lam)
    assert double > single + single


def test_whale_penalty_overflow_is_reported():
    from rugsim.core import RangeError
    with pytest.raises(RangeError):
        whale_penalty(amt(10**7), amt(1), amt(3))


def test_cumulative_penalty_examples():
    assert cumulative_penalty(amt(100), 4, amt("0.1"), amt(0)) == amt(10)
    assert cumulative_penalty(amt(100), 4, amt("0.1"), amt("0.01")) == amt("12.5")
    assert cumulative_penalty(amt(100), 1, amt("0.1"), amt("0.01")) == amt(11)
    with pytest.raises(ParameterError):
        cumulative_penalty(amt(100), 0, amt("0.1"), amt(0))


def test_cumulative_penalty_matches_summation_oracle():
    for h in ("1", "17", "100"):
        for n in range(1, 11):
            for gamma in ("0.05", "0.1"):
                for dgamma in ("0", "0.005", "0.02"):
                    assert cumulative_penalty(amt(h), n, amt(gamma), amt(dgamma)) \
                        == sum_oracle(h, n, gamma, dgamma)


def test_sybil_dominance_property():
    # splitting is strictly costlier than one shot, and worsens with n
    for n in range(1, 11):
        split = cumulative_penalty(amt(100), n, amt("0.1"), amt("0.01"))
        assert split > amt(100) * amt("0.1")
        if n > 1:
            assert split > cumulative_penalty(amt(100), n - 1, amt("0.1"), amt("0.01"))


# -- withdrawals -----------------------------------------------------------------


def test_withdraw_first_small_is_near_gamma(ledger):
    registry, vault = mk_vault(ledger, k="0")
    alice = fund(ledger, "alice", "RUG", 1000)
    deposit(registry, vault, alice, 1000)
    returned, penalty, rate, index = withdraw(registry, vault, alice, 10)
    assert rate == amt("0.11")  # gamma + dgamma * 1, no whale term
    assert penalty == amt("1.1") == registry.total_penalties
    assert returned == amt("8.9")
    assert index == 1


def test_withdraw_sybil_split_costs_more_than_one_shot(ledger):
    # the whale's four socks share its withdrawal count
    sybils = [f"sock{i}" for i in range(4)]
    registry, vault = mk_vault(ledger, vault_registry(ledger, "whale", *sybils,
                                                      owner="whale"), k="0")
    whale = "whale"
    ledger.mint("whale", "RUG", amt(100))
    deposit(registry, vault, whale, 100)
    for sock in sybils:
        ledger.transfer("whale", sock, vault.anticoin, amt(25))
    total_penalty = amt(0)
    for i, sock in enumerate(sybils, 1):
        _, penalty, _, index = withdraw(registry, vault, sock, 25)
        total_penalty = total_penalty + penalty
        assert index == i
    assert total_penalty == amt("12.5")  # summation oracle: > 10 one-shot
    assert total_penalty > amt(100) * amt("0.1")
    assert registry.total_penalties == total_penalty


def test_withdraw_whale_surcharge_scales(ledger):
    registry, vault = mk_vault(ledger, k="1", lam="2")
    whale = fund(ledger, "whale", "RUG", 1000)
    minnow = fund(ledger, "minnow", "RUG", 1000)
    deposit(registry, vault, whale, 900)
    deposit(registry, vault, minnow, 100)
    _, _, big, _ = withdraw(registry, vault, whale, 10)
    _, _, small, _ = withdraw(registry, vault, minnow, 10)
    assert big > small
    assert big == amt("0.11") + amt("0.81")  # (900/1000)^2 whale term


def test_withdraw_without_anticoins_rejected(ledger):
    registry, vault = mk_vault(ledger)
    nobody = "nobody"
    with pytest.raises(BalanceError):
        withdraw(registry, vault, nobody, 1)


def test_withdraw_confiscatory_refused(ledger):
    registry, vault = mk_vault(ledger, gamma="0.95", dgamma="0.1")
    alice = fund(ledger, "alice", "RUG", 100)
    deposit(registry, vault, alice, 100)
    before = ledger.balance("alice", vault.anticoin)
    with pytest.raises(ConfiscatoryError):
        withdraw(registry, vault, alice, 10)
    assert ledger.balance("alice", vault.anticoin) == before
    assert registry.withdrawal_counts == {}
    assert registry.record[-1][0] == "deposit"


def test_vault_conservation_identity(ledger):
    registry, vault = mk_vault(ledger)
    alice = fund(ledger, "alice", "RUG", 500)
    bob = fund(ledger, "bob", "RUG", 300)
    deposit(registry, vault, alice, 500)
    deposit(registry, vault, bob, 300)
    burn(registry, vault, alice, 50)
    returned = amt(0)
    penalties = amt(0)
    for account, quantity in ((alice, 100), (bob, 200), (alice, 40)):
        got, penalty, _, _ = withdraw(registry, vault, account, quantity)
        returned = returned + got
        penalties = penalties + penalty
    vault_balance = ledger.balance(vault.escrow_account, "RUG")
    assert vault_balance == vault.total_deposited - returned - penalties
    assert vault.anticoin_supply == \
        vault.total_deposited - vault.total_burned - vault.total_withdrawn
    assert ledger.total_supply(vault.anticoin) == vault.anticoin_supply
    assert ledger.balance("treasury", "RUG") == penalties
    ledger.check_conservation()

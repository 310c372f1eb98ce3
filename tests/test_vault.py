"""Vault lifecycle, inverse-log valuation, and the penalty game.

The cumulative-penalty closed form is checked against a literal
term-by-term summation oracle in exact rational arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rugsim.core import (
    AccountId,
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
    VaultRegistry,
    anticoin_value,
    cumulative_penalty,
    whale_penalty,
)

from conftest import fund


def mk_vault(registry=None, price=100, kind=ReceiptKind.FUNGIBLE, k="0",
             lam="2", gamma="0.1", dgamma="0.01"):
    registry = registry or VaultRegistry("alpha")
    vault = registry.create_vault(
        "RUG", kind, amt("0.01"), amt("0.02"), amt(k), amt(lam),
        amt(gamma), amt(dgamma), amt(price))
    return registry, vault


def sum_oracle(h: str, n: int, gamma: str, dgamma: str) -> FixedAmount:
    """Literal per-withdrawal summation, exact rationals, quantized once."""
    h_f, g_f, d_f = (Fraction(x) for x in (h, gamma, dgamma))
    total = sum((h_f / n) * (g_f + d_f * i) for i in range(1, n + 1))
    return quantize(total)


# -- creation ---------------------------------------------------------------


def test_create_vault_starts_empty():
    _, vault = mk_vault()
    assert vault.anticoin_supply == amt(0)
    assert vault.price_at_creation == amt(100)


def test_create_vault_rejects_bad_rates():
    registry = VaultRegistry("alpha")
    with pytest.raises(ParameterError):  # theta == omega
        registry.create_vault("RUG", ReceiptKind.FUNGIBLE, amt("0.02"), amt("0.02"),
                              amt(0), amt(2), amt("0.1"), amt("0.01"), amt(100))
    with pytest.raises(ParameterError):  # lambda == 1 is not superlinear
        registry.create_vault("RUG", ReceiptKind.FUNGIBLE, amt("0.01"), amt("0.02"),
                              amt(0), amt(1), amt("0.1"), amt("0.01"), amt(100))


def test_create_vault_rejects_duplicates():
    registry, _ = mk_vault()
    with pytest.raises(StateError):
        mk_vault(registry)


# -- deposits and receipts -----------------------------------------------------


def test_deposit_mints_one_to_one(ledger):
    registry, vault = mk_vault()
    alice = fund(ledger, "alice", "RUG", 1000)
    minted, receipt, reward = registry.deposit(ledger, vault.vault_id, alice, amt(1000))
    assert minted == amt(1000)
    assert ledger.balance("alice", vault.anticoin) == amt(1000)
    assert ledger.balance(vault.escrow_account, "RUG") == amt(1000)
    assert receipt.kind is ReceiptKind.FUNGIBLE and receipt.nft_serial is None
    assert reward.amount == amt(10)  # omega = 0.01


def test_deposit_zero_rejected(ledger):
    registry, vault = mk_vault()
    alice = fund(ledger, "alice", "RUG", 10)
    with pytest.raises(DustError):
        registry.deposit(ledger, vault.vault_id, alice, amt(0))


def test_nft_receipts_get_distinct_serials(ledger):
    registry, vault = mk_vault(kind=ReceiptKind.NON_FUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 1000)
    _, r1, _ = registry.deposit(ledger, vault.vault_id, alice, amt(500))
    _, r2, _ = registry.deposit(ledger, vault.vault_id, alice, amt(500))
    assert r1.nft_serial != r2.nft_serial
    assert r1.rft_shares is None


def test_rft_receipts_carry_shares(ledger):
    registry, vault = mk_vault(kind=ReceiptKind.REFUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 300)
    _, receipt, _ = registry.deposit(ledger, vault.vault_id, alice, amt(300))
    assert receipt.nft_serial == 1
    assert receipt.rft_shares == amt(300)


def test_receipt_amounts_track_total_deposited(ledger):
    registry, vault = mk_vault(kind=ReceiptKind.NON_FUNGIBLE)
    alice = fund(ledger, "alice", "RUG", 1000)
    for chunk in (100, 250, 650):
        registry.deposit(ledger, vault.vault_id, alice, amt(chunk))
        total = sum((r.amount for r in registry.receipts if r.vault == vault.vault_id),
                    start=amt(0))
        assert total == vault.total_deposited


# -- valuation ----------------------------------------------------------------


def test_anticoin_value_examples():
    _, vault = mk_vault(price=100)
    assert anticoin_value(vault, amt(100)) == amt(0)
    assert anticoin_value(vault, amt(10)) == amt("2.302585093")
    assert anticoin_value(vault, amt(200)) == amt(0)  # clamped, never negative


def test_anticoin_value_strictly_decreasing():
    _, vault = mk_vault(price=100)
    grid = [FixedAmount(raw) for raw in range(SCALE // 100, 100 * SCALE, SCALE)]
    values = [anticoin_value(vault, p) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# -- burns ----------------------------------------------------------------------


def test_burn_reduces_supply_and_rewards(ledger):
    registry, vault = mk_vault()
    alice = fund(ledger, "alice", "RUG", 100)
    registry.deposit(ledger, vault.vault_id, alice, amt(100))
    supply, reward = registry.burn_anticoins(ledger, vault.vault_id, alice, amt(30))
    assert supply == amt(70)
    assert reward.amount == amt("0.6")  # theta = 0.02
    assert ledger.balance("alice", vault.anticoin) == amt(70)


def test_burn_extinguishes_withdrawal_claim(ledger):
    registry, vault = mk_vault()
    alice = fund(ledger, "alice", "RUG", 100)
    registry.deposit(ledger, vault.vault_id, alice, amt(100))
    registry.burn_anticoins(ledger, vault.vault_id, alice, amt(100))
    assert ledger.balance("alice", vault.anticoin) == amt(0)
    with pytest.raises(BalanceError):
        registry.withdraw(ledger, vault.vault_id, alice, amt(1), "treasury")
    with pytest.raises(DustError):
        registry.burn_anticoins(ledger, vault.vault_id, alice, amt(0))


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
    registry, vault = mk_vault(k="0")
    alice = fund(ledger, "alice", "RUG", 1000)
    registry.deposit(ledger, vault.vault_id, alice, amt(1000))
    res = registry.withdraw(ledger, vault.vault_id, alice, amt(10), "treasury")
    assert res.rate == amt("0.11")  # gamma + dgamma * 1, no whale term
    assert res.penalty == amt("1.1")
    assert res.returned == amt("8.9")


def test_withdraw_sybil_split_costs_more_than_one_shot(ledger):
    registry, vault = mk_vault(k="0")
    whale = AccountId.solo("whale")
    ledger.mint("whale", "RUG", amt(100))
    registry.deposit(ledger, vault.vault_id, whale, amt(100))
    sybils = [AccountId(value=f"sock{i}", owner="whale") for i in range(4)]
    for sock in sybils:
        ledger.transfer("whale", sock.value, vault.anticoin, amt(25))
    total_penalty = amt(0)
    for sock in sybils:
        res = registry.withdraw(ledger, vault.vault_id, sock, amt(25), "treasury",
                                related_accounts=[s.value for s in sybils])
        total_penalty = total_penalty + res.penalty
    assert total_penalty == amt("12.5")  # summation oracle: > 10 one-shot
    assert total_penalty > amt(100) * amt("0.1")


def test_withdraw_whale_surcharge_scales(ledger):
    registry, vault = mk_vault(k="1", lam="2")
    whale = fund(ledger, "whale", "RUG", 1000)
    minnow = fund(ledger, "minnow", "RUG", 1000)
    registry.deposit(ledger, vault.vault_id, whale, amt(900))
    registry.deposit(ledger, vault.vault_id, minnow, amt(100))
    big = registry.withdraw(ledger, vault.vault_id, whale, amt(10), "treasury")
    small = registry.withdraw(ledger, vault.vault_id, minnow, amt(10), "treasury")
    assert big.rate > small.rate
    assert big.rate == amt("0.11") + amt("0.81")  # (900/1000)^2 whale term


def test_withdraw_without_anticoins_rejected(ledger):
    registry, vault = mk_vault()
    nobody = AccountId.solo("nobody")
    with pytest.raises(BalanceError):
        registry.withdraw(ledger, vault.vault_id, nobody, amt(1), "treasury")


def test_withdraw_confiscatory_refused(ledger):
    registry, vault = mk_vault(gamma="0.95", dgamma="0.1")
    alice = fund(ledger, "alice", "RUG", 100)
    registry.deposit(ledger, vault.vault_id, alice, amt(100))
    before = ledger.balance("alice", vault.anticoin)
    with pytest.raises(ConfiscatoryError):
        registry.withdraw(ledger, vault.vault_id, alice, amt(10), "treasury")
    assert ledger.balance("alice", vault.anticoin) == before
    assert registry.withdrawal_count("alice", vault.vault_id) == 0


def test_vault_conservation_identity(ledger):
    registry, vault = mk_vault()
    alice = fund(ledger, "alice", "RUG", 500)
    bob = fund(ledger, "bob", "RUG", 300)
    registry.deposit(ledger, vault.vault_id, alice, amt(500))
    registry.deposit(ledger, vault.vault_id, bob, amt(300))
    registry.burn_anticoins(ledger, vault.vault_id, alice, amt(50))
    returned = amt(0)
    penalties = amt(0)
    for account, quantity in ((alice, 100), (bob, 200), (alice, 40)):
        res = registry.withdraw(ledger, vault.vault_id, account, amt(quantity), "treasury")
        returned = returned + res.returned
        penalties = penalties + res.penalty
    vault_balance = ledger.balance(vault.escrow_account, "RUG")
    assert vault_balance == vault.total_deposited - returned - penalties
    assert vault.anticoin_supply == \
        vault.total_deposited - vault.total_burned - vault.total_withdrawn
    assert ledger.total_supply(vault.anticoin) == vault.anticoin_supply
    assert ledger.balance("treasury", "RUG") == penalties
    ledger.check_conservation()

"""Bonded issuance and the claim/challenge/vote game."""

import pytest

from rugsim.core import ParameterError, StateError, amt
from rugsim.ledger import BalanceError, Ledger
from rugsim.rugproof import (
    SIDE_NOT_RUGGING,
    SIDE_RUGGING,
    ClaimStatus,
    IssuanceStatus,
    RugproofBook,
)

from conftest import fund, loaded

TOKEN = "NEWCOIN"


def mk_book(**fields):
    """A book on a rugproof section with these fields."""
    return RugproofBook(loaded("rugproof", fields), "treasury")


def test_issue_bond_arithmetic(ledger):
    book = mk_book()
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    issuance = book.issue_bonded_token(ledger, issuer, TOKEN, amt(10**6), amt("0.05"))
    assert issuance.bond == amt(50_000)
    assert ledger.balance("issuer", TOKEN) == amt(950_000)


def test_issue_rejects_trivial_bond(ledger):
    book = mk_book()
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    with pytest.raises(ParameterError):
        book.issue_bonded_token(ledger, issuer, TOKEN, amt(10**6), amt(0))


def test_issue_requires_funded_issuer(ledger):
    book = mk_book()
    poor = fund(ledger, "poor", TOKEN, 10)
    with pytest.raises(BalanceError):
        book.issue_bonded_token(ledger, poor, TOKEN, amt(10**6), amt("0.05"))


def setup_claim(ledger, book, y="0.02"):
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    issuance = book.issue_bonded_token(ledger, issuer, TOKEN, amt(10**6), amt("0.05"))
    claimant = fund(ledger, "claimant", TOKEN, 50_000)
    claim = book.submit_rug_claim(ledger, claimant, issuance.issuance_id,
                                  amt(y), 0)
    return issuance, claim, claimant


def test_submit_claim_escrows_bond(ledger):
    book = mk_book()
    _, claim, _ = setup_claim(ledger, book)
    assert claim.claim_bond == amt(20_000)
    assert ledger.balance("claimant", TOKEN) == amt(30_000)
    assert claim.challenge_end == 10


def test_no_second_open_claim(ledger):
    book = mk_book()
    issuance, _, _ = setup_claim(ledger, book)
    rival = fund(ledger, "rival", TOKEN, 50_000)
    with pytest.raises(StateError):
        book.submit_rug_claim(ledger, rival, issuance.issuance_id, amt("0.02"), 1)


def test_claim_on_slashed_issuance_rejected(ledger):
    book = mk_book()
    issuance, claim, _ = setup_claim(ledger, book)
    voter = fund(ledger, "voter", TOKEN, 1000)
    book.cast_vote(claim, voter, amt(100), SIDE_RUGGING, 1)
    book.resolve_claim(claim, 10)
    assert issuance.status is IssuanceStatus.SLASHED
    late = fund(ledger, "late", TOKEN, 50_000)
    with pytest.raises(StateError):
        book.submit_rug_claim(ledger, late, issuance.issuance_id, amt("0.02"), 11)


def test_vote_window_and_deposit_rules(ledger):
    book = mk_book(z_min=10)
    _, claim, _ = setup_claim(ledger, book)
    voter = fund(ledger, "voter", TOKEN, 1000)
    with pytest.raises(Exception):
        book.cast_vote(claim, voter, amt(9), SIDE_RUGGING, 1)  # below z
    book.cast_vote(claim, voter, amt(10), SIDE_RUGGING, 1)    # boundary
    with pytest.raises(Exception):
        book.cast_vote(claim, voter, amt(10), SIDE_RUGGING, 2)  # double
    late = fund(ledger, "late-voter", TOKEN, 1000)
    with pytest.raises(Exception):
        book.cast_vote(claim, late, amt(10), SIDE_RUGGING, 10)  # window end


def test_resolve_rugging_distribution(ledger):
    book = mk_book(alpha_slash="0.5", claimant_share="0.5")
    issuance, claim, claimant = setup_claim(ledger, book)
    voters = [fund(ledger, f"v{i}", TOKEN, 1000) for i in range(2)]
    for voter in voters:
        book.cast_vote(claim, voter, amt(100), SIDE_RUGGING, 1)
    resolution = book.resolve_claim(claim, 10)
    assert claim.status is ClaimStatus.UPHELD_RUG
    assert resolution.slashed == amt(25_000)  # 50% of the 50k bond
    # claimant: half the slash + their bond back; voters split the rest + deposits
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 12_500 + 20_000)
    for i in range(2):
        assert ledger.balance(f"v{i}", TOKEN) == amt(900 + 6250 + 100)
    # issuer got the unslashed remainder back
    assert ledger.balance("issuer", TOKEN) == amt(950_000 + 25_000)


def test_resolve_no_votes_defaults_to_fraud(ledger):
    book = mk_book(gamma_slash="0.5")
    issuance, claim, _ = setup_claim(ledger, book)
    resolution = book.resolve_claim(claim, 10)
    assert claim.status is ClaimStatus.REJECTED_FRAUD
    assert resolution.slashed == amt(10_000)
    # nobody voted against: the slash lands in the treasury
    assert ledger.balance("treasury", TOKEN) == amt(10_000)
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 10_000)
    assert issuance.status is IssuanceStatus.ACTIVE


def test_resolve_not_rugging_distribution(ledger):
    book = mk_book(gamma_slash="0.5")
    _, claim, _ = setup_claim(ledger, book)
    voters = [fund(ledger, f"nv{i}", TOKEN, 1000) for i in range(2)]
    for voter in voters:
        book.cast_vote(claim, voter, amt(50), SIDE_NOT_RUGGING, 2)
    resolution = book.resolve_claim(claim, 10)
    assert resolution.slashed == amt(10_000)
    for i in range(2):
        assert ledger.balance(f"nv{i}", TOKEN) == amt(950 + 5000 + 50)
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 10_000)


def test_resolution_is_order_independent(ledger):
    results = []
    for order in (0, 1):
        led = Ledger()
        book = mk_book()
        issuance, claim, _ = setup_claim(led, book)
        votes = [("a", 120, SIDE_RUGGING), ("b", 80, SIDE_NOT_RUGGING),
                 ("c", 50, SIDE_RUGGING)]
        if order:
            votes = list(reversed(votes))
        for name, deposit, side in votes:
            voter = fund(led, name, TOKEN, 1000)
            book.cast_vote(claim, voter, amt(deposit), side, 1)
        book.resolve_claim(claim, 10)
        results.append({name: str(led.balance(name, TOKEN)) for name in "abc"})
    assert results[0] == results[1]


def test_early_resolution_refused(ledger):
    book = mk_book()
    _, claim, _ = setup_claim(ledger, book)
    with pytest.raises(StateError):
        book.resolve_claim(claim, 9)


def test_escrow_conservation_exact(ledger):
    book = mk_book(alpha_slash="0.37", gamma_slash="0.73", claimant_share="0.61")
    issuance, claim, _ = setup_claim(ledger, book, y="0.013")
    names = ["r1", "r2", "n1"]
    sides = [SIDE_RUGGING, SIDE_RUGGING, SIDE_NOT_RUGGING]
    deposits = ["33.000000007", "11.5", "17.000000001"]
    for name, side, deposit in zip(names, sides, deposits):
        voter = fund(ledger, name, TOKEN, 1000)
        book.cast_vote(claim, voter, amt(deposit), side, 3)
    book.resolve_claim(claim, 10)
    # both case escrow accounts drained to exactly zero
    assert ledger.balance(f"case:{claim.claim_id}", TOKEN) == amt(0)
    assert ledger.balance(f"case:{issuance.issuance_id}", TOKEN) == amt(0)
    ledger.check_conservation()


def test_claim_requires_funded_claimant(ledger):
    book = mk_book()
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    issuance = book.issue_bonded_token(ledger, issuer, TOKEN, amt(10**6), amt("0.05"))
    broke = fund(ledger, "broke", TOKEN, 10)
    with pytest.raises(BalanceError):
        book.submit_rug_claim(ledger, broke, issuance.issuance_id, amt("0.02"), 0)

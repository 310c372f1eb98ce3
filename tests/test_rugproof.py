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

from conftest import Recorder, fund, loaded, step

TOKEN = "NEWCOIN"
# 10**6 TOKEN bonded at 5%: a 50,000 TOKEN bond
ISSUE = step("issue_bonded", token=TOKEN, total_issued=10**6, x="0.05")


def mk_book(ledger, **fields):
    """A book on ``ledger`` and a rugproof section with these fields; its
    ``record`` keeps the events it records."""
    return RugproofBook(loaded("rugproof", fields), ledger, "treasury", Recorder())


def vote(book, voter, deposit, side, height):
    book.vote_rug(voter, step("vote_rug", token=TOKEN, deposit=str(deposit), side=side),
                  height)


def test_issue_bond_arithmetic(ledger):
    book = mk_book(ledger)
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    book.issue_bonded(issuer, ISSUE, 0)
    issuance = book.issuances["iss-1"]
    assert issuance.bond == amt(50_000)
    assert ledger.balance("issuer", TOKEN) == amt(950_000)
    assert book.record == [("bonded_issuance", "iss-1", "issuer", TOKEN, amt(50_000))]


def test_issue_rejects_trivial_bond(ledger):
    book = mk_book(ledger)
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    with pytest.raises(ParameterError):
        book.issue_bonded(issuer, step("issue_bonded", token=TOKEN, total_issued=10**6,
                                       x=0), 0)
    assert book.record == [] and book.issuances == {}


def test_issue_requires_funded_issuer(ledger):
    book = mk_book(ledger)
    poor = fund(ledger, "poor", TOKEN, 10)
    with pytest.raises(BalanceError):
        book.issue_bonded(poor, ISSUE, 0)
    assert book.record == []


def setup_claim(ledger, book, y="0.02"):
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    book.issue_bonded(issuer, ISSUE, 0)
    claimant = fund(ledger, "claimant", TOKEN, 50_000)
    book.rug_claim(claimant, step("rug_claim", token=TOKEN, y=y), 0)
    return book.issuances["iss-1"], book.claims["claim-2"], claimant


def test_submit_claim_escrows_bond(ledger):
    book = mk_book(ledger)
    _, claim, _ = setup_claim(ledger, book)
    assert claim.claim_bond == amt(20_000)
    assert ledger.balance("claimant", TOKEN) == amt(30_000)
    assert claim.challenge_end == 10
    assert book.record[-1] == ("rug_claim", "claim-2", "iss-1", "claimant", amt(20_000), 10)


def test_no_second_open_claim(ledger):
    book = mk_book(ledger)
    setup_claim(ledger, book)
    rival = fund(ledger, "rival", TOKEN, 50_000)
    with pytest.raises(StateError):
        book.rug_claim(rival, step("rug_claim", token=TOKEN, y="0.02"), 1)
    assert len(book.record) == 2


def test_claim_on_slashed_issuance_rejected(ledger):
    book = mk_book(ledger)
    issuance, claim, _ = setup_claim(ledger, book)
    voter = fund(ledger, "voter", TOKEN, 1000)
    vote(book, voter, 100, SIDE_RUGGING, 1)
    book.resolve_claim(claim, 10)
    assert issuance.status is IssuanceStatus.SLASHED
    assert book.record[-1][:3] == ("rug_claim_resolved", "claim-2", "upheld_rug")
    late = fund(ledger, "late", TOKEN, 50_000)
    with pytest.raises(StateError, match=f"no active issuance for {TOKEN}"):
        book.rug_claim(late, step("rug_claim", token=TOKEN, y="0.02"), 11)


def test_vote_window_and_deposit_rules(ledger):
    book = mk_book(ledger, z_min=10)
    _, claim, _ = setup_claim(ledger, book)
    voter = fund(ledger, "voter", TOKEN, 1000)
    with pytest.raises(Exception):
        vote(book, voter, 9, SIDE_RUGGING, 1)  # below z
    vote(book, voter, 10, SIDE_RUGGING, 1)    # boundary
    with pytest.raises(Exception):
        vote(book, voter, 10, SIDE_RUGGING, 2)  # double
    late = fund(ledger, "late-voter", TOKEN, 1000)
    with pytest.raises(Exception):
        vote(book, late, 10, SIDE_RUGGING, 10)  # window end
    assert [e for e in book.record if e[0] == "rug_vote"] == [
        ("rug_vote", "claim-2", "voter", SIDE_RUGGING, amt(10))]


def test_resolve_rugging_distribution(ledger):
    book = mk_book(ledger, alpha_slash="0.5", claimant_share="0.5")
    issuance, claim, claimant = setup_claim(ledger, book)
    voters = [fund(ledger, f"v{i}", TOKEN, 1000) for i in range(2)]
    for voter in voters:
        vote(book, voter, 100, SIDE_RUGGING, 1)
    book.resolve_claim(claim, 10)
    assert claim.status is ClaimStatus.UPHELD_RUG
    # 50% of the 50k bond is slashed
    assert book.record[-1] == ("rug_claim_resolved", "claim-2", "upheld_rug", amt(25_000))
    # claimant: half the slash + their bond back; voters split the rest + deposits
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 12_500 + 20_000)
    for i in range(2):
        assert ledger.balance(f"v{i}", TOKEN) == amt(900 + 6250 + 100)
    # issuer got the unslashed remainder back
    assert ledger.balance("issuer", TOKEN) == amt(950_000 + 25_000)


def test_resolve_no_votes_defaults_to_fraud(ledger):
    book = mk_book(ledger, gamma_slash="0.5")
    issuance, claim, _ = setup_claim(ledger, book)
    book.resolve_claim(claim, 10)
    assert claim.status is ClaimStatus.REJECTED_FRAUD
    assert book.record[-1] == ("rug_claim_resolved", "claim-2", "rejected_fraud",
                               amt(10_000))
    # nobody voted against: the slash lands in the treasury
    assert ledger.balance("treasury", TOKEN) == amt(10_000)
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 10_000)
    assert issuance.status is IssuanceStatus.ACTIVE


def test_resolve_not_rugging_distribution(ledger):
    book = mk_book(ledger, gamma_slash="0.5")
    _, claim, _ = setup_claim(ledger, book)
    voters = [fund(ledger, f"nv{i}", TOKEN, 1000) for i in range(2)]
    for voter in voters:
        vote(book, voter, 50, SIDE_NOT_RUGGING, 2)
    book.resolve_claim(claim, 10)
    assert book.record[-1] == ("rug_claim_resolved", "claim-2", "rejected_fraud",
                               amt(10_000))
    for i in range(2):
        assert ledger.balance(f"nv{i}", TOKEN) == amt(950 + 5000 + 50)
    assert ledger.balance("claimant", TOKEN) == amt(30_000 + 10_000)


def test_resolution_is_order_independent(ledger):
    results = []
    for order in (0, 1):
        led = Ledger()
        book = mk_book(led)
        issuance, claim, _ = setup_claim(led, book)
        votes = [("a", 120, SIDE_RUGGING), ("b", 80, SIDE_NOT_RUGGING),
                 ("c", 50, SIDE_RUGGING)]
        if order:
            votes = list(reversed(votes))
        for name, deposit, side in votes:
            voter = fund(led, name, TOKEN, 1000)
            vote(book, voter, deposit, side, 1)
        book.resolve_claim(claim, 10)
        results.append({name: str(led.balance(name, TOKEN)) for name in "abc"})
    assert results[0] == results[1]


def test_early_resolution_refused(ledger):
    book = mk_book(ledger)
    _, claim, _ = setup_claim(ledger, book)
    with pytest.raises(StateError):
        book.resolve_claim(claim, 9)
    # the block loop resolves the claim only once its window has closed
    book.on_block("home", 9)
    assert claim.status is ClaimStatus.VOTING and len(book.record) == 2
    book.on_block("home", 10)
    assert claim.status is ClaimStatus.REJECTED_FRAUD
    assert book.record[-1][:3] == ("rug_claim_resolved", "claim-2", "rejected_fraud")


def test_escrow_conservation_exact(ledger):
    book = mk_book(ledger, alpha_slash="0.37", gamma_slash="0.73", claimant_share="0.61")
    issuance, claim, _ = setup_claim(ledger, book, y="0.013")
    names = ["r1", "r2", "n1"]
    sides = [SIDE_RUGGING, SIDE_RUGGING, SIDE_NOT_RUGGING]
    deposits = ["33.000000007", "11.5", "17.000000001"]
    for name, side, deposit in zip(names, sides, deposits):
        voter = fund(ledger, name, TOKEN, 1000)
        vote(book, voter, deposit, side, 3)
    book.resolve_claim(claim, 10)
    # both case escrow accounts drained to exactly zero
    assert ledger.balance(f"case:{claim.claim_id}", TOKEN) == amt(0)
    assert ledger.balance(f"case:{issuance.issuance_id}", TOKEN) == amt(0)
    ledger.check_conservation()


def test_claim_requires_funded_claimant(ledger):
    book = mk_book(ledger)
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    book.issue_bonded(issuer, ISSUE, 0)
    broke = fund(ledger, "broke", TOKEN, 10)
    with pytest.raises(BalanceError):
        book.rug_claim(broke, step("rug_claim", token=TOKEN, y="0.02"), 0)
    assert book.claims == {} and len(book.record) == 1


def test_a_claim_that_cannot_cover_its_bond_uses_up_no_id(ledger):
    book = mk_book(ledger)
    issuer = fund(ledger, "issuer", TOKEN, 10**6)
    book.issue_bonded(issuer, ISSUE, 0)
    broke = fund(ledger, "broke", TOKEN, 10)
    with pytest.raises(BalanceError):
        book.rug_claim(broke, step("rug_claim", token=TOKEN, y="0.02"), 0)
    claimant = fund(ledger, "claimant", TOKEN, 20_000)
    book.rug_claim(claimant, step("rug_claim", token=TOKEN, y="0.02"), 0)
    assert list(book.claims) == ["claim-2"]
    assert book.record[-1] == ("rug_claim", "claim-2", "iss-1", "claimant", amt(20_000), 10)

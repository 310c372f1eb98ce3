"""Insurance policies, collective claims, disputes, and escalation."""

import pytest

from rugsim.core import ParameterError, StateError, amt
from rugsim.insurance import (
    SIDE_APPROVE,
    SIDE_REJECT,
    ClaimPhase,
    InsuranceBook,
    PolicyStatus,
)
from rugsim.ledger import BalanceError

from conftest import Recorder, fund, loaded, step

USD = "USD"


def mk_book(ledger, **fields):
    """A book on ``ledger`` and an insurance section with these fields; its
    ``record`` keeps the events it records."""
    return InsuranceBook(loaded("insurance", fields), USD, ledger, "treasury", Recorder())


def mk_policy(ledger, book, i_v=1000, x="0.1", duration=100):
    """insurer's policy pol-1 on insured, issued at block 0."""
    insurer = fund(ledger, "insurer", USD, 10_000)
    insured = fund(ledger, "insured", USD, 1_000)
    book.issue_policy(insurer, step("issue_policy", insured=insured, insured_value=i_v,
                                    x=x, duration=duration), 0)
    return book.policies["pol-1"]


def mk_claim(book, policy, height=1):
    """insured's claim icl-2 on the book's one policy, bonded at 5%."""
    book.submit_claim("insured", step("submit_claim", policy=policy.policy_id, y="0.05"),
                      height)
    return book.claims["icl-2"]


def join(book, claim, joiner, height, loss=100):
    book.join_claim(joiner, step("join_claim", claim=claim.claim_id, loss=loss, w="0.02"),
                    height)


def dispute(book, claim, challenger, height):
    book.dispute_claim(challenger, step("dispute_claim", claim=claim.claim_id, z="0.03"),
                       height)


def vote(book, claim, voter, deposit, side, height):
    book.vote_insurance(voter, step("vote_insurance", claim=claim.claim_id,
                                    deposit=deposit, side=side), height)


def escalate(book, claim, party, height):
    book.escalate(party, step("escalate", claim=claim.claim_id), height)


# -- issuance -----------------------------------------------------------------


def test_issue_policy_bond(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    assert policy.insurer_bond == amt(100)
    assert ledger.balance("insurer", USD) == amt(9_900)
    assert book.record == [("policy_issued", "pol-1", "insurer", "insured", amt(100))]


def test_issue_policy_floors(ledger):
    book = mk_book(ledger)
    insurer = fund(ledger, "insurer", USD, 10_000)
    insured = "insured"
    with pytest.raises(ParameterError):  # default floor x_min = 1%
        book.issue_policy(insurer, step("issue_policy", insured=insured,
                                        insured_value=1000, x=0, duration=100), 0)
    with pytest.raises(ParameterError):  # zero duration
        book.issue_policy(insurer, step("issue_policy", insured=insured,
                                        insured_value=1000, x="0.1", duration=0), 0)
    assert book.record == [] and book.policies == {}


# -- claims and joiners ----------------------------------------------------------


def test_submit_claim_bond(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    assert claim.claim_bond == amt(50)
    assert claim.challenge_end == 11
    # an absent loss claims the insured value
    assert claim.loss_claimed == amt(1000)
    assert book.record[-1] == ("insurance_claim", "icl-2", "pol-1", "insured", amt(50))


def test_a_claim_that_cannot_cover_its_bond_uses_up_no_id(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    broke = fund(ledger, "broke", USD, 10)
    with pytest.raises(BalanceError):
        book.submit_claim(broke, step("submit_claim", policy="pol-1", y="0.05"), 1)
    assert book.claims == {} and len(book.record) == 1
    # the next claim takes the id the failed one did not use
    claim = mk_claim(book, policy)
    assert claim.claim_id == "icl-2"


def test_joiners_post_bonds(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    for i in range(3):
        joiner = fund(ledger, f"j{i}", USD, 100)
        join(book, claim, joiner, 2)
        assert claim.joiners[-1].bond == amt(20)
        assert book.record[-1] == ("claim_joined", "icl-2", joiner, amt(20))
    assert len(claim.joiners) == 3


def test_join_after_dispute_rejected(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    challenger = fund(ledger, "chal", USD, 100)
    dispute(book, claim, challenger, 2)
    late = fund(ledger, "late", USD, 100)
    with pytest.raises(StateError):
        join(book, claim, late, 3, loss=50)
    assert book.record[-1][0] == "claim_disputed"


# -- disputes ---------------------------------------------------------------------


def test_dispute_bond_and_rules(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    challenger = fund(ledger, "chal", USD, 100)
    dispute(book, claim, challenger, 2)
    assert claim.dispute.bond == amt(30)
    assert book.record[-1] == ("claim_disputed", "icl-2", "chal", amt(30))
    with pytest.raises(StateError):  # one dispute per level
        dispute(book, claim, fund(ledger, "c2", USD, 100), 3)
    assert book.record[-1] == ("claim_disputed", "icl-2", "chal", amt(30))


def test_late_dispute_rejected_and_claim_auto_approves(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    book.step_deadlines(claim, 11)
    assert claim.phase is ClaimPhase.APPROVED
    # the insurer's bond is slashed by alpha_comp (20%) to the claim side
    assert book.record[-1] == ("insurance_resolved", "icl-2", "approved", amt(20))
    challenger = fund(ledger, "chal", USD, 100)
    with pytest.raises(StateError):
        dispute(book, claim, challenger, 11)


# -- resolution --------------------------------------------------------------------


def test_approved_undisputed_compensation_exact(ledger):
    book = mk_book(ledger, alpha_comp="0.2")
    policy = mk_policy(ledger, book, i_v=1000, x="0.1")
    insured_before = ledger.balance("insured", USD)
    claim = mk_claim(book, policy)
    # the block loop advances the open claim past its challenge window
    book.on_block("home", 11)
    assert book.record[-1] == ("insurance_resolved", "icl-2", "approved", amt(20))
    # claimant nets I_v + alpha * bond = 1000 + 20 (their own bond returns too)
    assert ledger.balance("insured", USD) == insured_before + amt(1020)
    # insurer paid the principal and lost the bond cut, rest of bond back
    assert ledger.balance("insurer", USD) == amt(10_000) - amt(1000) - amt(20)
    assert policy.status is PolicyStatus.CLAIMED
    ledger.check_conservation()


def test_rejected_pooled_penalty(ledger):
    book = mk_book(ledger, gamma_pen="0.5", tau_vote=10)
    policy = mk_policy(ledger, book, i_v=1000)
    claim = mk_claim(book, policy)
    for i in range(3):
        joiner = fund(ledger, f"j{i}", USD, 100)
        join(book, claim, joiner, 2)
    challenger = fund(ledger, "chal", USD, 1000)
    dispute(book, claim, challenger, 3)
    # nobody votes: tie goes to reject
    book.step_deadlines(claim, 13)
    assert claim.phase is ClaimPhase.PENDING_FINAL
    assert book.record[-1][0] == "claim_disputed"
    book.step_deadlines(claim, 18)
    assert claim.phase is ClaimPhase.REJECTED
    # penalty = 0.5 * (50 + 3*20) = 55, all to the sole challenger
    assert book.record[-1] == ("insurance_resolved", "icl-2", "rejected", amt(55))
    assert ledger.balance("chal", USD) == amt(1000) - amt(30) + amt(30) + amt(55)
    # claim side keeps the unslashed halves
    assert ledger.balance("insured", USD) == amt(1000) - amt(50) + amt(25)
    for i in range(3):
        assert ledger.balance(f"j{i}", USD) == amt(100) - amt(20) + amt(10)
    assert policy.status is PolicyStatus.ACTIVE
    ledger.check_conservation()


def test_disputed_vote_decides(ledger):
    book = mk_book(ledger, tau_vote=10)
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    challenger = fund(ledger, "chal", USD, 100)
    dispute(book, claim, challenger, 2)
    alice = fund(ledger, "alice", USD, 100)
    bob = fund(ledger, "bob", USD, 100)
    vote(book, claim, alice, 60, SIDE_APPROVE, 3)
    vote(book, claim, bob, 40, SIDE_REJECT, 3)
    assert book.record[-2:] == [("insurance_vote", "icl-2", "alice", SIDE_APPROVE),
                                ("insurance_vote", "icl-2", "bob", SIDE_REJECT)]
    book.step_deadlines(claim, 12)
    assert claim.pending_outcome == SIDE_APPROVE
    book.step_deadlines(claim, 17)
    assert claim.phase is ClaimPhase.APPROVED
    assert book.record[-1][:3] == ("insurance_resolved", "icl-2", "approved")
    # voters on both sides got deposits back; challenger got the bond back
    assert ledger.balance("alice", USD) == amt(100)
    assert ledger.balance("bob", USD) == amt(100)
    assert ledger.balance("chal", USD) == amt(100)
    ledger.check_conservation()


# -- escalation -------------------------------------------------------------------


def setup_disputed(ledger, book):
    policy = mk_policy(ledger, book)
    claim = mk_claim(book, policy)
    challenger = fund(ledger, "chal", USD, 1000)
    dispute(book, claim, challenger, 2)
    return policy, claim, challenger


def test_escalation_bond_doubles(ledger):
    book = mk_book(ledger)
    policy, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(claim, 12)  # reject pending (no votes)
    before = ledger.balance("insured", USD)
    escalate(book, claim, "insured", 13)
    assert claim.escalation_level == 1
    assert ledger.balance("insured", USD) == before - amt(100)  # 2 x 50 bond
    assert claim.phase is ClaimPhase.VOTING
    assert book.record[-1] == ("claim_escalated", "icl-2", "insured", 1)


def test_escalation_only_parties(ledger):
    book = mk_book(ledger)
    _, claim, _ = setup_disputed(ledger, book)
    book.step_deadlines(claim, 12)
    outsider = fund(ledger, "outsider", USD, 10_000)
    with pytest.raises(ParameterError):
        escalate(book, claim, outsider, 13)
    assert book.record[-1][0] == "claim_disputed"


def test_escalation_limit_is_final(ledger):
    book = mk_book(ledger, max_escalations=1)
    _, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(claim, 12)
    escalate(book, claim, "insured", 13)
    # level 1 == max: the vote-end resolution is immediately final
    book.step_deadlines(claim, 23)
    assert claim.phase is ClaimPhase.REJECTED
    assert book.record[-1][:3] == ("insurance_resolved", "icl-2", "rejected")
    with pytest.raises(StateError):
        escalate(book, claim, "insured", 24)
    ledger.check_conservation()


def test_loser_escalation_bonds_forfeit_to_winner(ledger):
    book = mk_book(ledger, max_escalations=2)
    policy, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(claim, 12)          # pending reject
    escalate(book, claim, "insured", 13)  # posts 100
    voter = fund(ledger, "voter", USD, 500)
    vote(book, claim, voter, 200, SIDE_APPROVE, 14)
    book.step_deadlines(claim, 23)          # pending approve
    book.step_deadlines(claim, 28)          # final approve
    assert claim.phase is ClaimPhase.APPROVED
    assert book.record[-1] == ("insurance_resolved", "icl-2", "approved", amt(20))
    # claimant recovered the escalation bond (returned to the winning party)
    assert ledger.balance("insured", USD) == \
        amt(1000) - amt(50) - amt(100) + amt(50) + amt(100) + amt(1020)
    ledger.check_conservation()


def test_expire_policy_returns_bond(ledger):
    book = mk_book(ledger)
    policy = mk_policy(ledger, book, duration=10)
    # the block loop expires a policy only once its term has run
    book.on_block("home", 9)
    assert policy.status is PolicyStatus.ACTIVE
    assert ledger.balance("insurer", USD) == amt(9_900)
    book.on_block("home", 10)
    assert policy.status is PolicyStatus.EXPIRED
    assert ledger.balance("insurer", USD) == amt(10_000)
    assert book.record[-1] == ("policy_expired", "pol-1")


def test_policy_with_an_open_claim_expires_after_it_settles(ledger):
    book = mk_book(ledger, tau_vote=10, max_escalations=0)
    policy = mk_policy(ledger, book, duration=5)
    claim = mk_claim(book, policy)
    dispute(book, claim, fund(ledger, "chal", USD, 100), 2)
    for height in range(5, 12):
        book.on_block("home", height)
    assert policy.status is PolicyStatus.ACTIVE
    assert book.record[-1][0] == "claim_disputed"
    # no votes: the claim is rejected at its vote end, then the policy expires
    book.on_block("home", 12)
    assert [event[0] for event in book.record[-2:]] == ["insurance_resolved",
                                                        "policy_expired"]
    assert policy.status is PolicyStatus.EXPIRED
    assert ledger.balance("insurer", USD) == amt(10_000)

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

from conftest import fund, loaded

USD = "USD"


def mk_book(**fields):
    """A book on an insurance section with these fields."""
    return InsuranceBook(loaded("insurance", fields), USD, "treasury")


def mk_policy(ledger, book, i_v=1000, x="0.1", duration=100):
    insurer = fund(ledger, "insurer", USD, 10_000)
    insured = fund(ledger, "insured", USD, 1_000)
    return book.issue_policy(ledger, insurer, insured, amt(i_v), amt(x),
                             duration, 0)


# -- issuance -----------------------------------------------------------------


def test_issue_policy_bond(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    assert policy.insurer_bond == amt(100)
    assert ledger.balance("insurer", USD) == amt(9_900)


def test_issue_policy_floors(ledger):
    book = mk_book()
    insurer = fund(ledger, "insurer", USD, 10_000)
    insured = "insured"
    with pytest.raises(ParameterError):  # default floor x_min = 1%
        book.issue_policy(ledger, insurer, insured, amt(1000), amt(0), 100, 0)
    with pytest.raises(ParameterError):  # zero duration
        book.issue_policy(ledger, insurer, insured, amt(1000), amt("0.1"), 0, 0)


# -- claims and joiners ----------------------------------------------------------


def test_submit_claim_bond(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    assert claim.claim_bond == amt(50)
    assert claim.challenge_end == 11


def test_joiners_post_bonds(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    for i in range(3):
        joiner = fund(ledger, f"j{i}", USD, 100)
        record = book.join_claim(claim, joiner, amt(100), amt("0.02"), 2)
        assert record.bond == amt(20)
    assert len(claim.joiners) == 3


def test_join_after_dispute_rejected(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    challenger = fund(ledger, "chal", USD, 100)
    book.dispute_claim(claim, challenger, amt("0.03"), 2)
    late = fund(ledger, "late", USD, 100)
    with pytest.raises(StateError):
        book.join_claim(claim, late, amt(50), amt("0.02"), 3)


# -- disputes ---------------------------------------------------------------------


def test_dispute_bond_and_rules(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    challenger = fund(ledger, "chal", USD, 100)
    dispute = book.dispute_claim(claim, challenger, amt("0.03"), 2)
    assert dispute.bond == amt(30)
    with pytest.raises(StateError):  # one dispute per level
        book.dispute_claim(claim, fund(ledger, "c2", USD, 100),
                           amt("0.03"), 3)


def test_late_dispute_rejected_and_claim_auto_approves(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    resolution = book.step_deadlines(ledger, claim, 11)
    assert resolution is not None and claim.phase is ClaimPhase.APPROVED
    challenger = fund(ledger, "chal", USD, 100)
    with pytest.raises(StateError):
        book.dispute_claim(claim, challenger, amt("0.03"), 11)


# -- resolution --------------------------------------------------------------------


def test_approved_undisputed_compensation_exact(ledger):
    book = mk_book(alpha_comp="0.2")
    policy = mk_policy(ledger, book, i_v=1000, x="0.1")
    insured_before = ledger.balance("insured", USD)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    book.step_deadlines(ledger, claim, 11)
    # claimant nets I_v + alpha * bond = 1000 + 20 (their own bond returns too)
    assert ledger.balance("insured", USD) == insured_before + amt(1020)
    # insurer paid the principal and lost the bond cut, rest of bond back
    assert ledger.balance("insurer", USD) == amt(10_000) - amt(1000) - amt(20)
    assert policy.status is PolicyStatus.CLAIMED
    ledger.check_conservation()


def test_rejected_pooled_penalty(ledger):
    book = mk_book(gamma_pen="0.5", tau_vote=10)
    policy = mk_policy(ledger, book, i_v=1000)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    for i in range(3):
        joiner = fund(ledger, f"j{i}", USD, 100)
        book.join_claim(claim, joiner, amt(100), amt("0.02"), 2)
    challenger = fund(ledger, "chal", USD, 1000)
    book.dispute_claim(claim, challenger, amt("0.03"), 3)
    # nobody votes: tie goes to reject
    resolution = book.step_deadlines(ledger, claim, 13)
    assert claim.phase is ClaimPhase.PENDING_FINAL
    resolution = book.step_deadlines(ledger, claim, 18)
    assert claim.phase is ClaimPhase.REJECTED
    # penalty = 0.5 * (50 + 3*20) = 55, all to the sole challenger
    assert resolution.slashed == amt(55)
    assert ledger.balance("chal", USD) == amt(1000) - amt(30) + amt(30) + amt(55)
    # claim side keeps the unslashed halves
    assert ledger.balance("insured", USD) == amt(1000) - amt(50) + amt(25)
    for i in range(3):
        assert ledger.balance(f"j{i}", USD) == amt(100) - amt(20) + amt(10)
    assert policy.status is PolicyStatus.ACTIVE
    ledger.check_conservation()


def test_disputed_vote_decides(ledger):
    book = mk_book(tau_vote=10)
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    challenger = fund(ledger, "chal", USD, 100)
    book.dispute_claim(claim, challenger, amt("0.03"), 2)
    alice = fund(ledger, "alice", USD, 100)
    bob = fund(ledger, "bob", USD, 100)
    book.cast_vote(claim, alice, amt(60), SIDE_APPROVE, 3)
    book.cast_vote(claim, bob, amt(40), SIDE_REJECT, 3)
    book.step_deadlines(ledger, claim, 12)
    assert claim.pending_outcome == SIDE_APPROVE
    book.step_deadlines(ledger, claim, 17)
    assert claim.phase is ClaimPhase.APPROVED
    # voters on both sides got deposits back; challenger got the bond back
    assert ledger.balance("alice", USD) == amt(100)
    assert ledger.balance("bob", USD) == amt(100)
    assert ledger.balance("chal", USD) == amt(100)
    ledger.check_conservation()


# -- escalation -------------------------------------------------------------------


def setup_disputed(ledger, book):
    policy = mk_policy(ledger, book)
    claim = book.submit_claim(ledger, policy.policy_id, "insured",
                              amt("0.05"), 1)
    challenger = fund(ledger, "chal", USD, 1000)
    book.dispute_claim(claim, challenger, amt("0.03"), 2)
    return policy, claim, challenger


def test_escalation_bond_doubles(ledger):
    book = mk_book()
    policy, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(ledger, claim, 12)  # reject pending (no votes)
    before = ledger.balance("insured", USD)
    book.escalate(claim, "insured", 13)
    assert claim.escalation_level == 1
    assert ledger.balance("insured", USD) == before - amt(100)  # 2 x 50 bond
    assert claim.phase is ClaimPhase.VOTING


def test_escalation_only_parties(ledger):
    book = mk_book()
    _, claim, _ = setup_disputed(ledger, book)
    book.step_deadlines(ledger, claim, 12)
    outsider = fund(ledger, "outsider", USD, 10_000)
    with pytest.raises(ParameterError):
        book.escalate(claim, outsider, 13)


def test_escalation_limit_is_final(ledger):
    book = mk_book(max_escalations=1)
    _, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(ledger, claim, 12)
    book.escalate(claim, "insured", 13)
    # level 1 == max: the vote-end resolution is immediately final
    resolution = book.step_deadlines(ledger, claim, 23)
    assert resolution is not None and claim.phase is ClaimPhase.REJECTED
    with pytest.raises(StateError):
        book.escalate(claim, "insured", 24)
    ledger.check_conservation()


def test_loser_escalation_bonds_forfeit_to_winner(ledger):
    book = mk_book(max_escalations=2)
    policy, claim, challenger = setup_disputed(ledger, book)
    book.step_deadlines(ledger, claim, 12)          # pending reject
    book.escalate(claim, "insured", 13)  # posts 100
    voter = fund(ledger, "voter", USD, 500)
    book.cast_vote(claim, voter, amt(200), SIDE_APPROVE, 14)
    book.step_deadlines(ledger, claim, 23)          # pending approve
    book.step_deadlines(ledger, claim, 28)          # final approve
    assert claim.phase is ClaimPhase.APPROVED
    # claimant recovered the escalation bond (returned to the winning party)
    assert ledger.balance("insured", USD) == \
        amt(1000) - amt(50) - amt(100) + amt(50) + amt(100) + amt(1020)
    ledger.check_conservation()


def test_expire_policy_returns_bond(ledger):
    book = mk_book()
    policy = mk_policy(ledger, book, duration=10)
    with pytest.raises(StateError):
        book.expire_policy(policy.policy_id, 5)
    book.expire_policy(policy.policy_id, 10)
    assert policy.status is PolicyStatus.EXPIRED
    assert ledger.balance("insurer", USD) == amt(10_000)

"""Decentralized insurance: bonded policies, claims with joiners, disputes,
community voting, escalation, and pooled bond slashing.

Uses the same dispute kernel as the issuance-claim game; only the payout
table differs. A disputed outcome stays provisional for an escalation
window during which either party can buy a fresh voting round by posting
its previous bond times the escalation multiplier; the losing party's
escalation bonds are forfeited to the winning party.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .core import (
    FixedAmount,
    ParameterError,
    QUANTUM,
    StateError,
    TokenId,
    fsum,
)
from .disputes import CaseEscrow, VoteBox
from .ledger import BalanceError, Ledger
from .scenario import DISPUTE_OPS

SIDE_APPROVE = "approve"
SIDE_REJECT = "reject"


class PolicyStatus(enum.Enum):
    ACTIVE = "active"
    CLAIMED = "claimed"
    EXPIRED = "expired"


class ClaimPhase(enum.Enum):
    CHALLENGEABLE = "challengeable"
    VOTING = "voting"
    PENDING_FINAL = "pending_final"
    APPROVED = "approved"
    REJECTED = "rejected"


class Policy:
    __slots__ = ("policy_id", "insurer", "insured", "insured_value", "insurer_bond",
                 "expires_at", "escrow", "status")

    def __init__(self, policy_id: str, insurer: str, insured: str,
                 insured_value: FixedAmount, insurer_bond: FixedAmount, expires_at: int,
                 escrow: CaseEscrow):
        self.policy_id, self.insurer, self.insured = policy_id, insurer, insured
        self.insured_value, self.insurer_bond = insured_value, insurer_bond
        self.expires_at, self.escrow = expires_at, escrow
        self.status = PolicyStatus.ACTIVE


class Joiner:
    __slots__ = ("account", "loss_claimed", "bond")

    def __init__(self, account: str, loss_claimed: FixedAmount, bond: FixedAmount):
        self.account, self.loss_claimed, self.bond = account, loss_claimed, bond


class Dispute:
    __slots__ = ("challenger", "bond")

    def __init__(self, challenger: str, bond: FixedAmount):
        self.challenger, self.bond = challenger, bond


class EscalationBond:
    __slots__ = ("party", "amount")

    def __init__(self, party: str, amount: FixedAmount):
        self.party = party  # account id of the posting party
        self.amount = amount


class InsuranceClaim:
    """A claim on a policy; every field after escrow is the claim's state,
    which starts as below."""

    __slots__ = ("claim_id", "policy_id", "claimant", "claim_bond", "loss_claimed",
                 "challenge_end", "escrow", "phase", "joiners", "dispute", "votes",
                 "vote_end", "escalation_level", "escalation_bonds", "past_votes",
                 "pending_outcome", "decided_at", "last_bond")

    def __init__(self, claim_id: str, policy_id: str, claimant: str,
                 claim_bond: FixedAmount, loss_claimed: FixedAmount, challenge_end: int,
                 escrow: CaseEscrow):
        self.claim_id, self.policy_id, self.claimant = claim_id, policy_id, claimant
        self.claim_bond, self.loss_claimed = claim_bond, loss_claimed
        self.challenge_end, self.escrow = challenge_end, escrow
        self.phase = ClaimPhase.CHALLENGEABLE
        self.joiners: list[Joiner] = []
        self.dispute: Optional[Dispute] = None
        self.votes: Optional[VoteBox] = None
        self.vote_end = 0
        self.escalation_level = 0
        self.escalation_bonds: list[EscalationBond] = []
        self.past_votes: list[VoteBox] = []
        self.pending_outcome: Optional[str] = None
        self.decided_at = 0
        self.last_bond: dict[str, FixedAmount] = {}


class InsuranceBook:
    """State machines for policies and their claims, in one settlement token,
    run by the scenario's parsed ``insurance`` section, which they read and
    never write. The book runs its script ops (``OPS``) and its deadlines
    (``on_block``) on ``ledger`` and records each one's event through
    ``record``."""

    OPS = DISPUTE_OPS["insurance"]

    def __init__(self, params: dict, token: TokenId, ledger: Ledger, treasury: str,
                 record: Callable[..., None]):
        self.params = params
        self.token = token
        self.ledger = ledger
        self.treasury = treasury
        self.record = record
        self.policies: dict[str, Policy] = {}
        self.claims: dict[str, InsuranceClaim] = {}
        self._counter = 1

    # -- issuance --------------------------------------------------------

    def issue_policy(self, insurer: str, step: dict, height: int) -> None:
        insured, insured_value, x_fraction = step["insured"], step["insured_value"], step["x"]
        duration_blocks = step["duration"]
        if insured_value.raw <= 0:
            raise ParameterError("insured value must be > 0")
        if duration_blocks <= 0:
            raise ParameterError("duration must be > 0 blocks")
        if x_fraction < self.params["x_min"]:
            raise ParameterError(
                f"bond fraction {x_fraction} below floor {self.params['x_min']}")
        bond = x_fraction * insured_value
        if self.ledger.balance(insurer, self.token) < bond:
            raise BalanceError(f"insurer cannot cover the bond of {bond}")
        policy_id = f"pol-{self._counter}"
        self._counter += 1
        escrow = CaseEscrow(self.ledger, f"icase:{policy_id}", self.token)
        escrow.take(insurer, bond, "insurer-bond")
        self.policies[policy_id] = Policy(
            policy_id=policy_id, insurer=insurer, insured=insured,
            insured_value=insured_value, insurer_bond=bond,
            expires_at=height + duration_blocks, escrow=escrow)
        self.record("policy_issued", policy_id, insurer, insured, bond)

    def open_claim_for(self, policy_id: str) -> Optional[InsuranceClaim]:
        for claim in self.claims.values():
            if claim.policy_id == policy_id and claim.phase not in (
                    ClaimPhase.APPROVED, ClaimPhase.REJECTED):
                return claim
        return None

    # -- claim lifecycle ---------------------------------------------------

    def submit_claim(self, claimant: str, step: dict, height: int) -> None:
        policy_id = step["policy"]
        policy = self.policies.get(policy_id)
        if policy is None:
            raise StateError(f"no policy {policy_id}")
        if policy.status is not PolicyStatus.ACTIVE:
            raise StateError(f"policy {policy_id} is {policy.status.value}")
        if height >= policy.expires_at:
            raise StateError(f"policy {policy_id} expired at {policy.expires_at}")
        if self.open_claim_for(policy_id) is not None:
            raise StateError(f"policy {policy_id} already has an open claim")
        bond = step["y"] * policy.insured_value
        if bond.raw <= 0:
            raise ParameterError("claim bond must be > 0")
        loss = step["loss"] if step["loss"] is not None else policy.insured_value
        if loss.raw <= 0:
            raise ParameterError("claimed loss must be > 0")
        claim_id = f"icl-{self._counter}"
        escrow = CaseEscrow(self.ledger, f"icase:{claim_id}", self.token)
        escrow.take(claimant, bond, "claim-bond")
        self._counter += 1
        claim = InsuranceClaim(
            claim_id=claim_id, policy_id=policy_id, claimant=claimant,
            claim_bond=bond, loss_claimed=loss,
            challenge_end=height + self.params["tau_challenge"], escrow=escrow)
        claim.last_bond[claimant] = bond
        self.claims[claim_id] = claim
        self.record("insurance_claim", claim_id, policy_id, claimant, bond)

    def _claim(self, claim_id: str) -> InsuranceClaim:
        claim = self.claims.get(claim_id)
        if claim is None:
            raise StateError(f"no insurance claim {claim_id}")
        return claim

    def join_claim(self, account: str, step: dict, height: int) -> None:
        claim = self._claim(step["claim"])
        loss_claimed = step["loss"]
        if claim.phase is not ClaimPhase.CHALLENGEABLE:
            raise StateError(f"claim {claim.claim_id} no longer accepts joiners")
        if height >= claim.challenge_end:
            raise StateError("challenge window closed")
        if loss_claimed.raw <= 0:
            raise ParameterError("claimed loss must be > 0")
        parties = {claim.claimant} | {j.account for j in claim.joiners}
        if account in parties:
            raise StateError(f"{account} is already part of the claim")
        policy = self.policies[claim.policy_id]
        bond = step["w"] * policy.insured_value
        if bond.raw <= 0:
            raise ParameterError("join bond must be > 0")
        claim.escrow.take(account, bond, "join-bond")
        claim.joiners.append(Joiner(account=account, loss_claimed=loss_claimed, bond=bond))
        self.record("claim_joined", claim.claim_id, account, bond)

    def dispute_claim(self, challenger: str, step: dict, height: int) -> None:
        claim = self._claim(step["claim"])
        if claim.phase is not ClaimPhase.CHALLENGEABLE:
            raise StateError(f"claim {claim.claim_id} is not challengeable")
        if height >= claim.challenge_end:
            raise StateError("challenge window closed; claim auto-approves")
        if claim.dispute is not None:
            raise StateError("claim already disputed at this level")
        if challenger == claim.claimant:
            raise ParameterError("claimant cannot dispute their own claim")
        policy = self.policies[claim.policy_id]
        bond = step["z"] * policy.insured_value
        if bond.raw <= 0:
            raise ParameterError("dispute bond must be > 0")
        claim.escrow.take(challenger, bond, "dispute-bond")
        claim.dispute = Dispute(challenger=challenger, bond=bond)
        claim.last_bond[challenger] = bond
        claim.phase = ClaimPhase.VOTING
        claim.vote_end = height + self.params["tau_vote"]
        claim.votes = VoteBox(height, claim.vote_end, QUANTUM,
                              (SIDE_APPROVE, SIDE_REJECT))
        self.record("claim_disputed", claim.claim_id, challenger, bond)

    def vote_insurance(self, voter: str, step: dict, height: int) -> None:
        claim = self._claim(step["claim"])
        if claim.phase is not ClaimPhase.VOTING or claim.votes is None:
            raise StateError(f"claim {claim.claim_id} is not in a voting round")
        side = step["side"]
        vote = claim.votes.cast(voter, step["deposit"], side, height)
        claim.escrow.take(voter, vote.deposit, f"vote:{side}")
        self.record("insurance_vote", claim.claim_id, voter, side)

    def escalate(self, party: str, step: dict, height: int) -> None:
        """Buy a fresh voting round; only the claimant or challenger may,
        posting their previous bond scaled by the escalation multiplier."""
        claim = self._claim(step["claim"])
        if claim.phase is not ClaimPhase.PENDING_FINAL:
            raise StateError(f"claim {claim.claim_id} has no pending outcome")
        if claim.escalation_level >= self.params["max_escalations"]:
            raise StateError("escalation limit reached; outcome is final")
        if claim.dispute is None:
            raise StateError("undisputed claims cannot be escalated")
        if party not in (claim.claimant, claim.dispute.challenger):
            raise ParameterError(f"{party} is not a party to the claim")
        bond = claim.last_bond[party] * self.params["escalation_bond_multiplier"]
        claim.escrow.take(party, bond,
                          f"escalation-bond:L{claim.escalation_level + 1}")
        claim.last_bond[party] = bond
        claim.escalation_level += 1
        claim.escalation_bonds.append(
            EscalationBond(party=party, amount=bond))
        claim.pending_outcome = None
        if claim.votes is not None:
            claim.past_votes.append(claim.votes)
        claim.phase = ClaimPhase.VOTING
        claim.vote_end = height + self.params["tau_vote"]
        claim.votes = VoteBox(height, claim.vote_end, QUANTUM,
                              (SIDE_APPROVE, SIDE_REJECT))
        self.record("claim_escalated", claim.claim_id, party, claim.escalation_level)

    # -- deadlines ---------------------------------------------------------

    def on_block(self, chain: str, height: int) -> None:
        """Advance each open claim, in claim id order, then expire, in policy
        id order, each active policy past its term with no open claim."""
        for claim_id in sorted(self.claims):
            claim = self.claims[claim_id]
            if claim.phase not in (ClaimPhase.APPROVED, ClaimPhase.REJECTED):
                self.step_deadlines(claim, height)
        for policy_id in sorted(self.policies):
            policy = self.policies[policy_id]
            if policy.status is PolicyStatus.ACTIVE and height >= policy.expires_at \
                    and self.open_claim_for(policy_id) is None:
                policy.escrow.pay(policy.insurer, policy.insurer_bond, "bond-release")
                policy.escrow.close()
                policy.status = PolicyStatus.EXPIRED
                self.record("policy_expired", policy_id)

    def step_deadlines(self, claim: InsuranceClaim, height: int) -> None:
        """Advance the claim when a window expires, settling it when its
        outcome becomes final this block."""
        if claim.phase is ClaimPhase.CHALLENGEABLE and height >= claim.challenge_end:
            self._finalize(claim, SIDE_APPROVE)
        elif claim.phase is ClaimPhase.VOTING and height >= claim.vote_end:
            outcome = claim.votes.winner(tie_side=SIDE_REJECT)
            if claim.escalation_level >= self.params["max_escalations"]:
                self._finalize(claim, outcome)
            else:
                claim.pending_outcome = outcome
                claim.decided_at = height
                claim.phase = ClaimPhase.PENDING_FINAL
        elif claim.phase is ClaimPhase.PENDING_FINAL and \
                height >= claim.decided_at + self.params["escalation_window"]:
            self._finalize(claim, claim.pending_outcome)

    # -- settlement --------------------------------------------------------

    def _finalize(self, claim: InsuranceClaim, outcome: str) -> None:
        policy = self.policies[claim.policy_id]
        escrow = claim.escrow
        challenger = claim.dispute.challenger if claim.dispute else None

        if outcome == SIDE_APPROVE:
            claim.phase = ClaimPhase.APPROVED
            slashed = self.params["alpha_comp"] * policy.insurer_bond
            principal = min(policy.insured_value,
                            self.ledger.balance(policy.insurer, self.token))
            escrow.take(policy.insurer, principal, "compensation-principal")
            policy.escrow.pay(escrow.account, slashed, "insurer-bond-slash")
            escrow.total_in = escrow.total_in + slashed
            weights = [(claim.claimant, claim.loss_claimed)]
            weights += [(j.account, j.loss_claimed) for j in claim.joiners]
            escrow.award(principal + slashed, weights, claim.claimant,
                         "compensation")
            escrow.pay(claim.claimant, claim.claim_bond, "bond-return")
            for joiner in claim.joiners:
                escrow.pay(joiner.account, joiner.bond, "bond-return")
            winner = forfeit_to = claim.claimant
        else:
            claim.phase = ClaimPhase.REJECTED
            # floor-rounded per-bond slashes keep the pooled penalty at or
            # below gamma * (claim bond + joined bonds)
            gamma = self.params["gamma_pen"].as_fraction()
            cut_claim = FixedAmount(int(gamma * claim.claim_bond.raw))
            cuts = [(j, FixedAmount(int(gamma * j.bond.raw))) for j in claim.joiners]
            slashed = fsum([cut_claim] + [cut for _, cut in cuts])
            weights = []
            if challenger is not None:
                weights.append((challenger, claim.dispute.bond))
            if claim.votes is not None:
                weights += claim.votes.weights(SIDE_REJECT)
            fallback = challenger if challenger is not None else self.treasury
            escrow.award(slashed, weights, fallback, "penalty-award")
            escrow.pay(claim.claimant, claim.claim_bond - cut_claim,
                       "bond-return")
            for joiner, cut in cuts:
                escrow.pay(joiner.account, joiner.bond - cut, "bond-return")
            winner, forfeit_to = challenger, fallback

        for esc in claim.escalation_bonds:
            if esc.party == winner:
                escrow.pay(esc.party, esc.amount, "escalation-return")
            else:
                escrow.pay(forfeit_to, esc.amount, "escalation-forfeit")
        for votebox in claim.past_votes + ([claim.votes] if claim.votes else []):
            for vote in votebox.votes:
                escrow.pay(vote.voter, vote.deposit, "deposit-return")
        if challenger is not None:
            escrow.pay(challenger, claim.dispute.bond, "dispute-bond-return")
        if outcome == SIDE_APPROVE:
            # an approved claim consumes the policy; the rest of the bond returns
            policy.escrow.pay(policy.insurer, policy.insurer_bond - slashed,
                              "bond-release")
            policy.status = PolicyStatus.CLAIMED
            policy.escrow.close()
        escrow.close()
        self.record("insurance_resolved", claim.claim_id, claim.phase.value, slashed)

    def snapshot(self) -> dict:
        """The ``insurance`` section: the policy book and each claim's state."""
        return {"insurance": {
            pid: {
                "insurer": p.insurer,
                "insured": p.insured,
                "insured_value": str(p.insured_value),
                "insurer_bond": str(p.insurer_bond),
                "expires_at": p.expires_at,
                "status": p.status.value,
                "claims": {
                    cid: {"phase": c.phase.value,
                          "claimant": c.claimant,
                          "claim_bond": str(c.claim_bond),
                          "joiners": len(c.joiners),
                          "escalation_level": c.escalation_level}
                    for cid, c in sorted(self.claims.items())
                    if c.policy_id == pid},
            }
            for pid, p in sorted(self.policies.items())
        }}

"""Issuance-time bonding and the claim/challenge/vote game that slashes
rugging issuers or fraudulent claimants.

All flows of one case are denominated in the issued token and pass through
the case escrow, so conservation is checked exactly at resolution.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .core import (
    FixedAmount,
    ParameterError,
    StateError,
    TokenId,
)
from .disputes import CaseEscrow, VoteBox
from .ledger import BalanceError, Ledger
from .scenario import DISPUTE_OPS

SIDE_RUGGING = "rugging"
SIDE_NOT_RUGGING = "not_rugging"


class IssuanceStatus(enum.Enum):
    ACTIVE = "active"
    SLASHED = "slashed"


class ClaimStatus(enum.Enum):
    VOTING = "voting"
    UPHELD_RUG = "upheld_rug"
    REJECTED_FRAUD = "rejected_fraud"


class BondedIssuance:
    __slots__ = ("issuance_id", "issuer", "token", "total_issued", "bond", "escrow", "status")

    def __init__(self, issuance_id: str, issuer: str, token: TokenId,
                 total_issued: FixedAmount, bond: FixedAmount, escrow: CaseEscrow):
        self.issuance_id, self.issuer, self.token = issuance_id, issuer, token
        self.total_issued, self.bond, self.escrow = total_issued, bond, escrow
        self.status = IssuanceStatus.ACTIVE


class RugClaim:
    __slots__ = ("claim_id", "issuance_id", "claimant", "claim_bond", "challenge_end", "votes",
                 "escrow", "status")

    def __init__(self, claim_id: str, issuance_id: str, claimant: str,
                 claim_bond: FixedAmount, challenge_end: int, votes: VoteBox,
                 escrow: CaseEscrow):
        self.claim_id, self.issuance_id, self.claimant = claim_id, issuance_id, claimant
        self.claim_bond, self.challenge_end = claim_bond, challenge_end
        self.votes, self.escrow = votes, escrow
        self.status = ClaimStatus.VOTING


class RugproofBook:
    """State machines for bonded issuances and their claims, run by the
    scenario's parsed ``rugproof`` section, which they read and never write.
    The book runs its script ops (``OPS``) and its deadlines (``on_block``)
    on ``ledger`` and records each one's event through ``record``."""

    OPS = DISPUTE_OPS["rugproof"]

    def __init__(self, params: dict, ledger: Ledger, treasury: str,
                 record: Callable[..., None]):
        self.params = params
        self.ledger = ledger
        self.treasury = treasury
        self.record = record
        self.issuances: dict[str, BondedIssuance] = {}
        self.claims: dict[str, RugClaim] = {}
        self._counter = 1

    def issue_bonded(self, issuer: str, step: dict, height: int) -> None:
        token, total_issued, bond_fraction = step["token"], step["total_issued"], step["x"]
        if total_issued.raw <= 0:
            raise ParameterError("total_issued must be > 0")
        if bond_fraction < self.params["x_min"]:
            raise ParameterError(
                f"bond fraction {bond_fraction} below the nontrivial floor "
                f"{self.params['x_min']}")
        bond = bond_fraction * total_issued
        if self.ledger.balance(issuer, token) < bond:
            raise BalanceError(f"issuer cannot cover the bond of {bond}")
        issuance_id = f"iss-{self._counter}"
        self._counter += 1
        escrow = CaseEscrow(self.ledger, f"case:{issuance_id}", token)
        escrow.take(issuer, bond, "issuer-bond")
        self.issuances[issuance_id] = BondedIssuance(
            issuance_id=issuance_id, issuer=issuer, token=token,
            total_issued=total_issued, bond=bond, escrow=escrow)
        self.record("bonded_issuance", issuance_id, issuer, token, bond)

    def _active_issuance(self, token: TokenId) -> BondedIssuance:
        for issuance_id in sorted(self.issuances):
            issuance = self.issuances[issuance_id]
            if issuance.token == token and issuance.status is IssuanceStatus.ACTIVE:
                return issuance
        raise StateError(f"no active issuance for {token}")

    def open_claim_for(self, issuance_id: str) -> Optional[RugClaim]:
        for claim in self.claims.values():
            if claim.issuance_id == issuance_id and claim.status is ClaimStatus.VOTING:
                return claim
        return None

    def rug_claim(self, user: str, step: dict, height: int) -> None:
        issuance = self._active_issuance(step["token"])
        issuance_id = issuance.issuance_id
        if self.open_claim_for(issuance_id) is not None:
            raise StateError(f"issuance {issuance_id} already has an open claim")
        bond = step["y"] * issuance.total_issued
        if bond.raw <= 0:
            raise ParameterError("claim bond must be > 0")
        claim_id = f"claim-{self._counter}"
        escrow = CaseEscrow(self.ledger, f"case:{claim_id}", issuance.token)
        escrow.take(user, bond, "claim-bond")
        self._counter += 1
        end = height + self.params["challenge_blocks"]
        self.claims[claim_id] = RugClaim(
            claim_id=claim_id, issuance_id=issuance_id, claimant=user,
            claim_bond=bond, challenge_end=end, escrow=escrow,
            votes=VoteBox(height, end, self.params["z_min"],
                          (SIDE_RUGGING, SIDE_NOT_RUGGING)))
        self.record("rug_claim", claim_id, issuance_id, user, bond, end)

    def vote_rug(self, voter: str, step: dict, height: int) -> None:
        issuance_id = self._active_issuance(step["token"]).issuance_id
        claim = self.open_claim_for(issuance_id)
        if claim is None:
            raise StateError(f"no open claim on {issuance_id}")
        side, deposit = step["side"], step["deposit"]
        vote = claim.votes.cast(voter, deposit, side, height)
        claim.escrow.take(voter, vote.deposit, f"vote:{side}")
        self.record("rug_vote", claim.claim_id, voter, side, deposit)

    def on_block(self, chain: str, height: int) -> None:
        """Resolve, in claim id order, each claim whose challenge window
        has closed."""
        for claim_id in sorted(self.claims):
            claim = self.claims[claim_id]
            if claim.status is ClaimStatus.VOTING and height >= claim.challenge_end:
                self.resolve_claim(claim, height)

    def resolve_claim(self, claim: RugClaim, height: int) -> None:
        """Settle at the end of the challenge window.

        Rugging upheld: slash alpha% of the issuer bond; the claimant takes
        claimant_share of it, supporting voters split the rest by deposit.
        Claim rejected (including tie or no votes): slash gamma% of the
        claim bond to the not-rugging voters, or the treasury if none.
        Deposits and unslashed bond remainders always flow back out.
        """
        if claim.status is not ClaimStatus.VOTING:
            raise StateError(f"claim {claim.claim_id} already resolved")
        if height < claim.challenge_end:
            raise StateError(
                f"challenge window open until {claim.challenge_end}, now {height}")
        issuance = self.issuances[claim.issuance_id]
        winner = claim.votes.winner(tie_side=SIDE_NOT_RUGGING)

        if winner == SIDE_RUGGING:
            claim.status = ClaimStatus.UPHELD_RUG
            issuance.status = IssuanceStatus.SLASHED
            slashed = self.params["alpha_slash"] * issuance.bond
            claimant_cut = self.params["claimant_share"] * slashed
            issuance.escrow.pay(claim.claimant, claimant_cut, "claimant-award")
            issuance.escrow.award(slashed - claimant_cut, claim.votes.weights(SIDE_RUGGING),
                                  claim.claimant, "voter-award")
            # unslashed remainder leaves escrow; the issuer keeps no claim on it
            issuance.escrow.pay(issuance.issuer, issuance.bond - slashed,
                                "bond-remainder")
            claim.escrow.pay(claim.claimant, claim.claim_bond, "bond-return")
        else:
            claim.status = ClaimStatus.REJECTED_FRAUD
            slashed = self.params["gamma_slash"] * claim.claim_bond
            weights = claim.votes.weights(SIDE_NOT_RUGGING)
            fallback = weights[0][0] if weights else self.treasury
            claim.escrow.award(slashed, weights, fallback, "voter-award")
            claim.escrow.pay(claim.claimant, claim.claim_bond - slashed,
                             "bond-return")

        losing = SIDE_NOT_RUGGING if winner == SIDE_RUGGING else SIDE_RUGGING
        for side in (winner, losing):
            for vote in claim.votes.voters_for(side):
                claim.escrow.pay(vote.voter, vote.deposit, "deposit-return")

        claim.escrow.close()
        if winner == SIDE_RUGGING:
            issuance.escrow.close()
        self.record("rug_claim_resolved", claim.claim_id, claim.status.value, slashed)

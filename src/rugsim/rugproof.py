"""Issuance-time bonding and the claim/challenge/vote game that slashes
rugging issuers or fraudulent claimants.

All flows of one case are denominated in the issued token and pass through
the case escrow, so conservation is checked exactly at resolution.
"""

from __future__ import annotations

import enum
from typing import Optional

from .core import (
    FixedAmount,
    ParameterError,
    StateError,
    TokenId,
)
from .disputes import CaseEscrow, Resolution, VoteBox
from .ledger import BalanceError, Ledger

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
    scenario's parsed ``rugproof`` section, which they read and never write."""

    def __init__(self, params: dict, treasury: str):
        self.params = params
        self.treasury = treasury
        self.issuances: dict[str, BondedIssuance] = {}
        self.claims: dict[str, RugClaim] = {}
        self._counter = 1

    def issue_bonded_token(self, ledger: Ledger, issuer: str, token: TokenId,
                           total_issued: FixedAmount,
                           bond_fraction: FixedAmount) -> BondedIssuance:
        if total_issued.raw <= 0:
            raise ParameterError("total_issued must be > 0")
        if bond_fraction < self.params["x_min"]:
            raise ParameterError(
                f"bond fraction {bond_fraction} below the nontrivial floor "
                f"{self.params['x_min']}")
        bond = bond_fraction * total_issued
        if ledger.balance(issuer, token) < bond:
            raise BalanceError(f"issuer cannot cover the bond of {bond}")
        issuance_id = f"iss-{self._counter}"
        self._counter += 1
        escrow = CaseEscrow(ledger, f"case:{issuance_id}", token)
        escrow.take(issuer, bond, "issuer-bond")
        issuance = BondedIssuance(
            issuance_id=issuance_id, issuer=issuer, token=token,
            total_issued=total_issued, bond=bond, escrow=escrow)
        self.issuances[issuance_id] = issuance
        return issuance

    def open_claim_for(self, issuance_id: str) -> Optional[RugClaim]:
        for claim in self.claims.values():
            if claim.issuance_id == issuance_id and claim.status is ClaimStatus.VOTING:
                return claim
        return None

    def submit_rug_claim(self, ledger: Ledger, user: str, issuance_id: str,
                         y_fraction: FixedAmount, height: int) -> RugClaim:
        issuance = self.issuances.get(issuance_id)
        if issuance is None:
            raise StateError(f"no issuance {issuance_id}")
        if issuance.status is not IssuanceStatus.ACTIVE:
            raise StateError(f"issuance {issuance_id} is {issuance.status.value}")
        if self.open_claim_for(issuance_id) is not None:
            raise StateError(f"issuance {issuance_id} already has an open claim")
        bond = y_fraction * issuance.total_issued
        if bond.raw <= 0:
            raise ParameterError("claim bond must be > 0")
        claim_id = f"claim-{self._counter}"
        self._counter += 1
        escrow = CaseEscrow(ledger, f"case:{claim_id}", issuance.token)
        escrow.take(user, bond, "claim-bond")
        end = height + self.params["challenge_blocks"]
        claim = RugClaim(
            claim_id=claim_id, issuance_id=issuance_id, claimant=user,
            claim_bond=bond, challenge_end=end, escrow=escrow,
            votes=VoteBox(height, end, self.params["z_min"],
                          (SIDE_RUGGING, SIDE_NOT_RUGGING)))
        self.claims[claim_id] = claim
        return claim

    def cast_vote(self, claim: RugClaim, voter: str,
                  deposit: FixedAmount, side: str, height: int) -> None:
        if claim.status is not ClaimStatus.VOTING:
            raise StateError(f"claim {claim.claim_id} is not accepting votes")
        vote = claim.votes.cast(voter, deposit, side, height)
        claim.escrow.take(voter, vote.deposit, f"vote:{side}")

    def resolve_claim(self, claim: RugClaim, height: int) -> Resolution:
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
        return Resolution(outcome=claim.status.value, slashed=slashed)

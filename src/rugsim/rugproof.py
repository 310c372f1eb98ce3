"""Issuance-time bonding and the claim/challenge/vote game that slashes
rugging issuers or fraudulent claimants.

All flows of one case are denominated in the issued token and pass through
the case escrow, so conservation is checked exactly at resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import (
    AccountId,
    BlockTime,
    FixedAmount,
    ParameterError,
    StateError,
    TokenId,
    ZERO,
    amt,
)
from .disputes import CaseEscrow, Resolution, Transfer, VoteBox, pro_rata
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


@dataclass(frozen=True)
class SlashParams:
    alpha_slash: FixedAmount          # fraction of the issuer bond slashed
    gamma_slash: FixedAmount          # fraction of the claim bond slashed
    claimant_share: FixedAmount = amt("0.5")
    z_min: FixedAmount = amt(1)       # minimum vote deposit
    challenge_blocks: int = 10
    x_min: FixedAmount = amt("0.01")  # "nontrivial" issuance bond floor
    forfeit_losing_deposits: bool = False

    def __post_init__(self):
        one = amt(1)
        for name in ("alpha_slash", "gamma_slash", "claimant_share", "x_min"):
            v = getattr(self, name)
            if not (ZERO <= v <= one):
                raise ParameterError(f"{name} must be in [0, 1], got {v}")
        if self.challenge_blocks <= 0:
            raise ParameterError("challenge_blocks must be > 0")


@dataclass
class BondedIssuance:
    issuance_id: str
    issuer: AccountId
    token: TokenId
    total_issued: FixedAmount
    bond_fraction: FixedAmount
    bond: FixedAmount
    status: IssuanceStatus = IssuanceStatus.ACTIVE


@dataclass
class RugClaim:
    claim_id: str
    issuance_id: str
    claimant: AccountId
    claim_bond: FixedAmount
    opened_at: int
    challenge_end: int
    votes: VoteBox
    status: ClaimStatus = ClaimStatus.VOTING


class RugproofBook:
    """State machines for bonded issuances and their claims."""

    def __init__(self, params: SlashParams, treasury: str = "treasury"):
        self.params = params
        self.treasury = treasury
        self.issuances: dict[str, BondedIssuance] = {}
        self.claims: dict[str, RugClaim] = {}
        self._escrows: dict[str, CaseEscrow] = {}
        self._counter = 1

    def _escrow_for(self, ledger: Ledger, case_id: str, token: TokenId) -> CaseEscrow:
        escrow = self._escrows.get(case_id)
        if escrow is None:
            escrow = CaseEscrow(ledger, f"case:{case_id}", token)
            self._escrows[case_id] = escrow
        return escrow

    def issue_bonded_token(self, ledger: Ledger, issuer: AccountId, token: TokenId,
                           total_issued: FixedAmount,
                           bond_fraction: FixedAmount) -> BondedIssuance:
        if total_issued.raw <= 0:
            raise ParameterError("total_issued must be > 0")
        if bond_fraction < self.params.x_min:
            raise ParameterError(
                f"bond fraction {bond_fraction} below the nontrivial floor "
                f"{self.params.x_min}")
        bond = bond_fraction * total_issued
        if ledger.balance(issuer.value, token) < bond:
            raise BalanceError(f"issuer cannot cover the bond of {bond}")
        issuance_id = f"iss-{self._counter}"
        self._counter += 1
        escrow = self._escrow_for(ledger, issuance_id, token)
        escrow.take(issuer.value, bond, "issuer-bond")
        issuance = BondedIssuance(
            issuance_id=issuance_id, issuer=issuer, token=token,
            total_issued=total_issued, bond_fraction=bond_fraction, bond=bond)
        self.issuances[issuance_id] = issuance
        return issuance

    def open_claim_for(self, issuance_id: str) -> Optional[RugClaim]:
        for claim in self.claims.values():
            if claim.issuance_id == issuance_id and claim.status is ClaimStatus.VOTING:
                return claim
        return None

    def submit_rug_claim(self, ledger: Ledger, user: AccountId, issuance_id: str,
                         y_fraction: FixedAmount, at: BlockTime) -> RugClaim:
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
        escrow = self._escrow_for(ledger, claim_id, issuance.token)
        escrow.take(user.value, bond, "claim-bond")
        end = at.height + self.params.challenge_blocks
        claim = RugClaim(
            claim_id=claim_id, issuance_id=issuance_id, claimant=user,
            claim_bond=bond, opened_at=at.height, challenge_end=end,
            votes=VoteBox(at.height, end, self.params.z_min,
                          (SIDE_RUGGING, SIDE_NOT_RUGGING)))
        self.claims[claim_id] = claim
        return claim

    def cast_vote(self, ledger: Ledger, claim: RugClaim, voter: AccountId,
                  deposit: FixedAmount, side: str, at: BlockTime) -> None:
        if claim.status is not ClaimStatus.VOTING:
            raise StateError(f"claim {claim.claim_id} is not accepting votes")
        vote = claim.votes.cast(voter, deposit, side, at.height)
        issuance = self.issuances[claim.issuance_id]
        self._escrow_for(ledger, claim.claim_id, issuance.token).take(
            voter.value, vote.deposit, f"vote:{side}")

    def resolve_claim(self, claim: RugClaim, at: BlockTime) -> Resolution:
        """Settle at the end of the challenge window.

        Rugging upheld: slash alpha% of the issuer bond; the claimant takes
        claimant_share of it, supporting voters split the rest by deposit.
        Claim rejected (including tie or no votes): slash gamma% of the
        claim bond to the not-rugging voters, or the treasury if none.
        Deposits and unslashed bond remainders always flow back out.
        """
        if claim.status is not ClaimStatus.VOTING:
            raise StateError(f"claim {claim.claim_id} already resolved")
        if at.height < claim.challenge_end:
            raise StateError(
                f"challenge window open until {claim.challenge_end}, now {at.height}")
        issuance = self.issuances[claim.issuance_id]
        params = self.params
        claim_escrow = self._escrows[claim.claim_id]
        issuance_escrow = self._escrows[claim.issuance_id]
        winner = claim.votes.winner(tie_side=SIDE_NOT_RUGGING)
        transfers: list[Transfer] = []

        def payout(escrow: CaseEscrow, to: str, amount: FixedAmount, reason: str):
            if amount.raw > 0:
                escrow.pay(to, amount, reason)
                transfers.append(Transfer(to, amount, reason))

        if winner == SIDE_RUGGING:
            claim.status = ClaimStatus.UPHELD_RUG
            issuance.status = IssuanceStatus.SLASHED
            slashed = params.alpha_slash * issuance.bond
            claimant_cut = params.claimant_share * slashed
            payout(issuance_escrow, claim.claimant.value, claimant_cut, "claimant-award")
            voter_pool = slashed - claimant_cut
            weights = [(v.voter.value, v.deposit)
                       for v in claim.votes.voters_for(SIDE_RUGGING)]
            for key, cut in pro_rata(voter_pool, weights, claim.claimant.value):
                payout(issuance_escrow, key, cut, "voter-award")
            # unslashed remainder leaves escrow; the issuer keeps no claim on it
            payout(issuance_escrow, issuance.issuer.value, issuance.bond - slashed,
                   "bond-remainder")
            payout(claim_escrow, claim.claimant.value, claim.claim_bond, "bond-return")
        else:
            claim.status = ClaimStatus.REJECTED_FRAUD
            slashed = params.gamma_slash * claim.claim_bond
            weights = [(v.voter.value, v.deposit)
                       for v in claim.votes.voters_for(SIDE_NOT_RUGGING)]
            fallback = weights[0][0] if weights else self.treasury
            for key, cut in pro_rata(slashed, weights, fallback):
                payout(claim_escrow, key, cut, "voter-award")
            payout(claim_escrow, claim.claimant.value, claim.claim_bond - slashed,
                   "bond-return")

        losing = SIDE_NOT_RUGGING if winner == SIDE_RUGGING else SIDE_RUGGING
        for vote in claim.votes.voters_for(winner):
            payout(claim_escrow, vote.voter.value, vote.deposit, "deposit-return")
        if params.forfeit_losing_deposits:
            forfeited = ZERO
            for vote in claim.votes.voters_for(losing):
                forfeited = forfeited + vote.deposit
            weights = [(v.voter.value, v.deposit) for v in claim.votes.voters_for(winner)]
            fallback = weights[0][0] if weights else self.treasury
            for key, cut in pro_rata(forfeited, weights, fallback):
                payout(claim_escrow, key, cut, "forfeit-award")
        else:
            for vote in claim.votes.voters_for(losing):
                payout(claim_escrow, vote.voter.value, vote.deposit, "deposit-return")

        claim_escrow.close()
        if winner == SIDE_RUGGING:
            issuance_escrow.close()
        return Resolution(outcome=claim.status.value, slashed=slashed,
                          transfers=transfers)

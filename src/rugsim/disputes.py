"""Shared kernel for the two bonded dispute games (token issuance claims
and insurance claims). Both differ only in their payout tables, so the
escrow bookkeeping, deposit-weighted vote tally, and exact pro-rata
distribution live here, in one audited place.

Each case (a bonded issuance, a rug claim, a policy, an insurance claim)
holds its own ``CaseEscrow``, made with the case. Escrow conservation is
structural: every deposit lands in the case's own ledger account, every
payout leaves it, and ``close`` asserts the account is empty with total-in
equal to total-out.
"""

from __future__ import annotations

from .core import (
    FixedAmount,
    ParameterError,
    RugsimError,
    TokenId,
    ZERO,
    fsum,
)
from .ledger import Ledger


class VoteError(RugsimError):
    """A vote violates the window, deposit floor, or one-vote rule."""


class Vote:
    __slots__ = ("voter", "deposit", "side")

    def __init__(self, voter: str, deposit: FixedAmount, side: str):
        self.voter, self.deposit, self.side = voter, deposit, side


class VoteBox:
    """Deposit-weighted vote record over a half-open block window."""

    def __init__(self, start: int, end: int, min_deposit: FixedAmount, sides: tuple[str, str]):
        self.start = start
        self.end = end
        self.min_deposit = min_deposit
        self.sides = sides
        self.votes: list[Vote] = []
        self._voters: set[str] = set()

    def cast(self, voter: str, deposit: FixedAmount, side: str, at: int) -> Vote:
        if side not in self.sides:
            raise ParameterError(f"unknown side {side!r}; expected one of {self.sides}")
        if not (self.start <= at < self.end):
            raise VoteError(f"vote at height {at} outside [{self.start}, {self.end})")
        if deposit < self.min_deposit:
            raise VoteError(f"deposit {deposit} below the minimum {self.min_deposit}")
        if voter in self._voters:
            raise VoteError(f"{voter} already voted")
        vote = Vote(voter=voter, deposit=deposit, side=side)
        self.votes.append(vote)
        self._voters.add(voter)
        return vote

    def mass(self, side: str) -> FixedAmount:
        return fsum(v.deposit for v in self.votes if v.side == side)

    def voters_for(self, side: str) -> list[Vote]:
        """Votes on a side, ordered deposit-descending then by account id."""
        votes = [v for v in self.votes if v.side == side]
        votes.sort(key=lambda v: (-v.deposit.raw, v.voter))
        return votes

    def weights(self, side: str) -> list[tuple[str, FixedAmount]]:
        """(voter, deposit) pairs of a side, in ``voters_for`` order."""
        return [(v.voter, v.deposit) for v in self.voters_for(side)]

    def winner(self, tie_side: str) -> str:
        first, second = self.sides
        a, b = self.mass(first), self.mass(second)
        if a == b:
            return tie_side
        return first if a > b else second


class CaseEscrow:
    """Escrow account for one dispute case, with exact in/out accounting."""

    def __init__(self, ledger: Ledger, account: str, token: TokenId):
        self.ledger = ledger
        self.account = account
        self.token = token
        self.total_in = ZERO
        self.total_out = ZERO

    @property
    def balance(self) -> FixedAmount:
        return self.ledger.balance(self.account, self.token)

    def take(self, party: str, amount: FixedAmount, tag: str) -> None:
        self.ledger.transfer(party, self.account, self.token, amount,
                             memo=f"escrow:{tag}")
        self.total_in = self.total_in + amount

    def pay(self, party: str, amount: FixedAmount, tag: str) -> None:
        if amount.raw == 0:
            return
        self.ledger.transfer(self.account, party, self.token, amount,
                             memo=f"payout:{tag}")
        self.total_out = self.total_out + amount

    def award(self, total: FixedAmount, weights: list[tuple[str, FixedAmount]],
              remainder_key: str, tag: str) -> None:
        """Pay ``total`` out of the escrow, split by ``pro_rata``."""
        for key, cut in pro_rata(total, weights, remainder_key):
            self.pay(key, cut, tag)

    def close(self) -> None:
        if self.balance.raw != 0 or self.total_in != self.total_out:
            raise RugsimError(
                f"escrow {self.account} not balanced: in={self.total_in} "
                f"out={self.total_out} left={self.balance}")


def pro_rata(total: FixedAmount, weights: list[tuple[str, FixedAmount]],
             remainder_key: str) -> list[tuple[str, FixedAmount]]:
    """Split total by weight, floor-rounded, remainder to remainder_key.

    The shares sum to total exactly. With an empty or zero-weight list,
    everything goes to remainder_key.
    """
    if total.raw < 0:
        raise ParameterError("cannot split a negative total")
    weight_sum = sum(w.raw for _, w in weights)
    shares: list[tuple[str, FixedAmount]] = []
    paid = 0
    if weight_sum > 0:
        for key, w in weights:
            cut = total.raw * w.raw // weight_sum
            if cut > 0:
                shares.append((key, FixedAmount(cut)))
                paid += cut
    leftover = total.raw - paid
    if leftover > 0:
        for i, (key, cut) in enumerate(shares):
            if key == remainder_key:
                shares[i] = (key, cut + FixedAmount(leftover))
                break
        else:
            shares.append((remainder_key, FixedAmount(leftover)))
    return shares


"""The shared dispute kernel: vote tally, exact pro-rata splits, and
escrow accounting."""

import pytest
from hypothesis import given, strategies as st

from rugsim.core import FixedAmount, amt, fsum
from rugsim.disputes import CaseEscrow, VoteBox, VoteError, pro_rata
from rugsim.ledger import Ledger


def test_pro_rata_examples():
    split = pro_rata(amt(100), [("a", amt(1)), ("b", amt(1)), ("c", amt(1))], "a")
    assert dict(split) == {"a": amt("33.333333334"), "b": amt("33.333333333"),
                           "c": amt("33.333333333")}
    assert pro_rata(amt(10), [], "fallback") == [("fallback", amt(10))]
    assert pro_rata(amt(0), [("a", amt(5))], "a") == []


@given(total=st.integers(min_value=0, max_value=10**15),
       weights=st.lists(st.integers(min_value=0, max_value=10**12),
                        min_size=0, max_size=8))
def test_pro_rata_sums_exactly(total, weights):
    entries = [(f"k{i}", FixedAmount(w)) for i, w in enumerate(weights)]
    split = pro_rata(FixedAmount(total), entries, "rest")
    assert fsum(cut for _, cut in split).raw == total
    for _, cut in split:
        assert cut.raw > 0 or total == 0


def test_votebox_window_and_tally():
    box = VoteBox(5, 10, amt(2), ("yes", "no"))
    box.cast("a", amt(10), "yes", at=5)
    box.cast("b", amt(3), "no", at=9)
    box.cast("c", amt(3), "no", at=9)
    assert box.mass("yes") == amt(10)
    assert box.mass("no") == amt(6)
    assert box.winner(tie_side="no") == "yes"
    with pytest.raises(VoteError):
        box.cast("d", amt(2), "yes", at=10)  # window closed
    with pytest.raises(VoteError):
        box.cast("a", amt(2), "no", at=9)    # double vote
    with pytest.raises(VoteError):
        box.cast("e", amt(1), "no", at=9)    # below floor


def test_votebox_tie_goes_to_tie_side():
    box = VoteBox(0, 10, amt(1), ("yes", "no"))
    assert box.winner(tie_side="no") == "no"  # empty vote is a tie
    box.cast("a", amt(5), "yes", at=1)
    box.cast("b", amt(5), "no", at=1)
    assert box.winner(tie_side="no") == "no"


def test_voters_for_orders_deterministically():
    box = VoteBox(0, 10, amt(1), ("yes", "no"))
    box.cast("zed", amt(5), "yes", at=1)
    box.cast("ann", amt(5), "yes", at=2)
    box.cast("mid", amt(9), "yes", at=3)
    names = [v.voter for v in box.voters_for("yes")]
    assert names == ["mid", "ann", "zed"]  # deposit desc, then account id


def test_case_escrow_balances_exactly():
    ledger = Ledger()
    ledger.mint("payer", "T", amt(100))
    escrow = CaseEscrow(ledger, "case:t", "T")
    escrow.take("payer", amt(60), "bond")
    escrow.pay("payer", amt(25), "refund")
    with pytest.raises(Exception):
        escrow.close()  # 35 still inside
    escrow.pay("winner", amt(35), "award")
    escrow.close()
    assert ledger.balance("case:t", "T") == amt(0)

"""The ledger's per-token balance store: balances, snapshots and the
conservation check against a plain model of the same operations."""

import pytest
from hypothesis import given, settings, strategies as st

from rugsim.core import FixedAmount, RugsimError, amt
from rugsim.ledger import BalanceError, Ledger

ACCOUNTS = ("alice", "bob", "pool:p", "treasury")
TOKENS = ("R", "USDN", "anti:RUG@alpha")

ops = st.lists(st.tuples(st.sampled_from(("mint", "burn", "transfer")),
                         st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS),
                         st.sampled_from(TOKENS),
                         st.integers(min_value=0, max_value=10**12)),
               max_size=60)


def apply(ledger, op, src, dst, token, amount):
    if op == "transfer":
        ledger.transfer(src, dst, token, amount)
    else:
        getattr(ledger, op)(src, token, amount)


@settings(max_examples=200)
@given(ops=ops)
def test_ledger_matches_a_model(ops):
    ledger = Ledger()
    model: dict[tuple[str, str], int] = {}
    supply: dict[str, int] = {}
    for op, src, dst, token, raw in ops:
        held = model.get((src, token), 0)
        if op != "mint" and held < raw and not (op == "transfer" and src == dst):
            with pytest.raises(BalanceError):
                apply(ledger, op, src, dst, token, FixedAmount(raw))
            continue
        apply(ledger, op, src, dst, token, FixedAmount(raw))
        if op == "mint":
            model[(src, token)] = held + raw
            supply[token] = supply.get(token, 0) + raw
        elif op == "burn":
            model[(src, token)] = held - raw
            supply[token] = supply.get(token, 0) - raw
        elif src != dst:
            model[(src, token)] = held - raw
            model[(dst, token)] = model.get((dst, token), 0) + raw
        ledger.check_conservation()
    for account in ACCOUNTS:
        for token in TOKENS:
            assert ledger.balance(account, token).raw == model.get((account, token), 0)
    expected: dict[str, dict[str, str]] = {}
    for (account, token), raw in sorted(model.items()):
        if raw:
            expected.setdefault(account, {})[token] = str(FixedAmount(raw))
    snapshot = ledger.snapshot()
    assert snapshot["balances"] == expected
    assert list(snapshot["balances"]) == sorted(expected)
    assert snapshot["supply"] == {t: str(FixedAmount(v))
                                  for t, v in sorted(supply.items()) if v}
    for token in TOKENS:
        assert ledger.accounts_holding(token) == sorted(
            a for (a, t), raw in model.items() if t == token and raw)


def test_conservation_check_reads_every_balance():
    # no ledger operation breaks conservation, so these corrupt the
    # balance store directly
    ledger = Ledger()
    ledger.mint("alice", "R", amt(5))
    ledger.mint("bob", "R", amt(2))
    ledger.check_conservation()
    ledger._balances["R"]["bob"] = amt(3)
    with pytest.raises(RugsimError, match="conservation violated for R"):
        ledger.check_conservation()
    ledger._balances["R"]["bob"] = amt(2)
    ledger._balances["GHOST"]["carol"] = amt(1)
    with pytest.raises(RugsimError, match="unminted balance for GHOST"):
        ledger.check_conservation()

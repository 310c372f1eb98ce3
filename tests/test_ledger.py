"""The ledger's per-token balance store: balances, snapshots and the
conservation check against a plain model of the same operations."""

import pytest
from hypothesis import given, settings, strategies as st

from rugsim.core import MAX_RAW, FixedAmount, ParameterError, RangeError, RugsimError, amt
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


def test_conservation_check_reads_every_balance():
    # no ledger operation breaks conservation, so these corrupt the
    # balance store (raw quanta) directly
    ledger = Ledger()
    ledger.mint("alice", "R", amt(5))
    ledger.mint("bob", "R", amt(2))
    ledger.check_conservation()
    ledger._balances["R"]["bob"] = amt(3).raw
    with pytest.raises(RugsimError, match="conservation violated for R"):
        ledger.check_conservation()
    ledger._balances["R"]["bob"] = amt(2).raw
    ledger._balances["GHOST"]["carol"] = amt(1).raw
    with pytest.raises(RugsimError, match="unminted balance for GHOST"):
        ledger.check_conservation()


class _FixedLedger:
    """The ledger written with FixedAmount balances: every sum is a
    FixedAmount sum, and a failed credit writes nothing."""

    def __init__(self):
        self.balances: dict[tuple[str, str], FixedAmount] = {}
        self.supply: dict[str, FixedAmount] = {}
        self.events: list[tuple[dict, FixedAmount]] = []

    def get(self, account, token):
        return self.balances.get((account, token), FixedAmount(0))

    def mint(self, account, token, amount):
        if amount.raw < 0:
            raise ParameterError(f"mint amount must be >= 0, got {amount}")
        if amount.raw == 0:
            return
        credited = self.get(account, token) + amount
        supply = self.supply.get(token, FixedAmount(0)) + amount
        self.balances[(account, token)], self.supply[token] = credited, supply
        self.events.append(({"type": "mint", "account": account, "token": token,
                             "amount": str(amount), "memo": ""}, amount))

    def burn(self, account, token, amount):
        if amount.raw < 0:
            raise ParameterError(f"burn amount must be >= 0, got {amount}")
        if amount.raw == 0:
            return
        bal = self.get(account, token)
        if bal < amount:
            raise BalanceError(f"{account} holds {bal} {token}, cannot burn {amount}")
        self.balances[(account, token)] = bal - amount
        self.supply[token] = self.supply[token] - amount
        self.events.append(({"type": "burn", "account": account, "token": token,
                             "amount": str(amount), "memo": ""}, amount))

    def transfer(self, src, dst, token, amount):
        if amount.raw < 0:
            raise ParameterError(f"transfer amount must be >= 0, got {amount}")
        if amount.raw == 0 or src == dst:
            return
        bal = self.get(src, token)
        if bal < amount:
            raise BalanceError(f"{src} holds {bal} {token}, cannot send {amount}")
        credited = self.get(dst, token) + amount
        self.balances[(src, token)], self.balances[(dst, token)] = bal - amount, credited
        self.events.append(({"type": "transfer", "src": src, "dst": dst, "token": token,
                             "amount": str(amount), "memo": ""}, amount))


def _outcome(call):
    try:
        call()
    except (BalanceError, ParameterError, RangeError) as exc:
        return type(exc).__name__, str(exc)
    return None


# amounts of every size up to MAX_RAW, so that credits overflow
fixed_ops = st.lists(st.tuples(st.sampled_from(("mint", "burn", "transfer")),
                               st.sampled_from(ACCOUNTS), st.sampled_from(ACCOUNTS),
                               st.sampled_from(TOKENS[:2]),
                               st.one_of(st.integers(min_value=-3, max_value=10**12),
                                         st.integers(min_value=MAX_RAW // 3,
                                                     max_value=MAX_RAW))),
                     max_size=40)


@settings(max_examples=300)
@given(ops=fixed_ops)
def test_raw_ledger_matches_a_fixed_amount_ledger(ops):
    # outcomes and error texts op by op, then balances, supply, snapshot
    # and the recorded movements
    events: list[tuple[dict, FixedAmount]] = []
    ledger = Ledger(recorder=lambda event, amount: events.append((event, amount)))
    model = _FixedLedger()
    for op, src, dst, token, raw in ops:
        amount = FixedAmount(raw)
        assert (_outcome(lambda: apply(ledger, op, src, dst, token, amount))
                == _outcome(lambda: apply(model, op, src, dst, token, amount)))
        ledger.check_conservation()
    assert events == model.events
    for account in ACCOUNTS:
        for token in TOKENS:
            assert ledger.balance(account, token) == model.get(account, token)
    for token in TOKENS:
        assert ledger.total_supply(token) == model.supply.get(token, FixedAmount(0))
    held = sorted((a, t, v) for (a, t), v in model.balances.items() if v.raw)
    expected: dict[str, dict[str, str]] = {}
    for account, token, value in held:
        expected.setdefault(account, {})[token] = str(value)
    assert ledger.snapshot() == {
        "balances": expected,
        "supply": {t: str(v) for t, v in sorted(model.supply.items()) if v.raw}}

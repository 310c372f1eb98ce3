"""Span tracing for the benchmark's per-layer run.

Run as a child process, this module wraps rugsim's layer boundaries,
executes one ``rugsim`` CLI command in-process and writes what it recorded
as JSON:

    python3 perfbench/tracing.py --out SPANS.json --run-id ID -- run --scenario F --out D

Wrappers are installed at every binding a caller looks up: a function
imported by name into another module (``rugsim.harness.anticoin_value``,
``rugsim.cli.run_scenario``) is replaced there as well as in its defining
module, and methods are replaced on their class.  Spans are kept in memory
and written when the command ends.  ``aggregate`` turns spans into per-name
call counts, inclusive time and self time.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import json
import sys
import time

SPAN = "span"    # record a span per call: calls, s, self_s
COUNT = "count"  # count calls only; for callables hit hundreds of thousands of times

# name -> (module, attribute path, mode).  A span name is the defining
# module (without the package) and the callable, and yields the metrics
# <name>.calls, <name>.s and <name>.self_s; a count name is the metric.
WRAPPED: dict[str, tuple[str, str, str]] = {
    "cli.cmd_sweep": ("rugsim.cli", "cmd_sweep", SPAN),
    "harness.run_scenario": ("rugsim.harness", "run_scenario", SPAN),
    "scenario.load_scenario": ("rugsim.scenario", "load_scenario", SPAN),
    "harness.Simulation.__init__": ("rugsim.harness", "Simulation.__init__", SPAN),
    "harness.Simulation.step": ("rugsim.harness", "Simulation.step", SPAN),
    "ledger.Ledger.check_conservation": ("rugsim.ledger", "Ledger.check_conservation", SPAN),
    "ledger.Ledger.mint": ("rugsim.ledger", "Ledger.mint", SPAN),
    "ledger.Ledger.burn": ("rugsim.ledger", "Ledger.burn", SPAN),
    "ledger.Ledger.transfer": ("rugsim.ledger", "Ledger.transfer", SPAN),
    "trace.Trace.trace_hash": ("rugsim.trace", "Trace.trace_hash", SPAN),
    "trace.Trace.write": ("rugsim.trace", "Trace.write", SPAN),
    "trace.verify_trace": ("rugsim.trace", "verify_trace", SPAN),
    "tokenomics.target_supply": ("rugsim.tokenomics", "target_supply", SPAN),
    "tokenomics.burn_step": ("rugsim.tokenomics", "burn_step", SPAN),
    "tokenomics.aggregate_vault_stats": ("rugsim.tokenomics", "aggregate_vault_stats", SPAN),
    "market.price_at": ("rugsim.market", "price_at", SPAN),
    "market.peg_keeper_step": ("rugsim.market", "peg_keeper_step", SPAN),
    "detection.PoolMonitor.observe": ("rugsim.detection", "PoolMonitor.observe", SPAN),
    "detection.AuxMonitor.scan": ("rugsim.detection", "AuxMonitor.scan", SPAN),
    "detection.solver_step": ("rugsim.detection", "solver_step", SPAN),
    "detection.plan_frontrun": ("rugsim.detection", "plan_frontrun", SPAN),
    "detection.plan_sandwich": ("rugsim.detection", "plan_sandwich", SPAN),
    "detection.plan_backrun": ("rugsim.detection", "plan_backrun", SPAN),
    "vault.VaultRegistry.deposit": ("rugsim.vault", "VaultRegistry.deposit", SPAN),
    "vault.VaultRegistry.withdraw": ("rugsim.vault", "VaultRegistry.withdraw", SPAN),
    "vault.VaultRegistry.burn_anticoins": ("rugsim.vault", "VaultRegistry.burn_anticoins", SPAN),
    "vault.anticoin_value": ("rugsim.vault", "anticoin_value", SPAN),
    "perps.PerpBook.apply_funding": ("rugsim.perps", "PerpBook.apply_funding", SPAN),
    "perps.PerpBook.flag_and_liquidate": ("rugsim.perps", "PerpBook.flag_and_liquidate", SPAN),
    "rugproof.RugproofBook.resolve_claim": ("rugsim.rugproof", "RugproofBook.resolve_claim", SPAN),
    "insurance.InsuranceBook.step_deadlines": ("rugsim.insurance", "InsuranceBook.step_deadlines", SPAN),
    "core.quantize.calls": ("rugsim.core", "quantize", COUNT),
    "core.fnv1a_64.calls": ("rugsim.core", "fnv1a_64", COUNT),
    "core.FixedAmount.new": ("rugsim.core", "FixedAmount.__init__", COUNT),
    "trace.Trace.record.calls": ("rugsim.trace", "Trace.record", COUNT),
    "market.pool_swap.calls": ("rugsim.market", "pool_swap", COUNT),
    # the transaction queue has no public boundary: its two private entry
    # points are counted to give the queue's work and depth
    "harness.queue.executed": ("rugsim.harness", "Simulation._execute_tx", COUNT),
    "harness.queue.enqueued": ("rugsim.harness", "Simulation._enqueue", COUNT),
}


class Recorder:
    """Spans and counters of one traced command.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing span, or -1.  All spans of a recorder share its run id.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls: collections.Counter = collections.Counter()
        self.events: collections.Counter = collections.Counter()
        self.fnv_bytes = 0
        self.peg_trades = 0
        self.queue_peak = 0
        self._open: list[int] = []

    def span(self, name: str, fn):
        spans, open_, calls, clock = self.spans, self._open, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name: str, fn, mode: str):
        """The wrapper for ``name``; a few boundaries also record what
        passes through them."""
        wrapper = self.span(name, fn) if mode == SPAN else self.count(name, fn)
        if name == "core.fnv1a_64.calls":
            def fnv(data, *args, **kwargs):
                self.fnv_bytes += len(data)
                return wrapper(data, *args, **kwargs)
            return functools.wraps(fn)(fnv)
        if name == "trace.Trace.record.calls":
            def record(trace, event):
                self.events[event.get("type")] += 1
                return wrapper(trace, event)
            return functools.wraps(fn)(record)
        if name == "market.peg_keeper_step":
            def peg(*args, **kwargs):
                trade = wrapper(*args, **kwargs)
                self.peg_trades += trade is not None
                return trade
            return functools.wraps(fn)(peg)
        if name == "harness.queue.enqueued":
            def enqueue(sim, *args, **kwargs):
                result = wrapper(sim, *args, **kwargs)
                self.queue_peak = max(self.queue_peak, len(sim.queue))
                return result
            return functools.wraps(fn)(enqueue)
        return wrapper

    def result(self, exit_code: int, ln_info) -> dict:
        return {"run_id": self.run_id, "exit": exit_code, "spans": self.spans,
                "calls": dict(self.calls), "events": dict(self.events),
                "fnv_bytes": self.fnv_bytes, "peg_trades": self.peg_trades,
                "queue_peak": self.queue_peak,
                "ln_hits": ln_info.hits, "ln_misses": ln_info.misses}


def install(recorder: Recorder) -> None:
    """Wrap every entry of WRAPPED; raises if a named callable is gone."""
    importlib.import_module("rugsim.cli")  # imports every module it wraps
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rugsim" or name.startswith("rugsim.")]
    for name, (module_name, path, mode) in WRAPPED.items():
        owner = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, recorder.wrap(name, cls.__dict__[method], mode))
            continue
        original = getattr(owner, path)
        wrapper = recorder.wrap(name, original, mode)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``s``, the time inside the outermost spans
    of that name; and ``self_s``, each span's duration minus the part of it
    that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(index, []), start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for spans and counters")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by rugsim CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    recorder = Recorder(args.run_id)
    install(recorder)
    from rugsim import cli, core
    exit_code = cli.main(command)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(recorder.result(exit_code, core._ln_raw.cache_info()), handle,
                  separators=(",", ":"))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""rugsim's benchmark: `rugsim run`, `verify` and `sweep` end to end, in
fresh interpreters, on one seed-generated workload.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the benchmark repeats the workload's commands
(at least MIN_REPEATS times, and while another repeat fits in ``--seconds``)
and reports the end-to-end metrics: the median of each command's samples,
its CPU time scaled to a reference CPU speed by the calibration of
``Clock``.  With ``--trace 1`` it runs each command once more under the span
tracer of ``tracing.py`` and reports per-layer metrics.  Either way it first
checks the program's outputs and exits 1, printing no metrics, if any check
fails.  The last line of standard output is one JSON object; see README.md
for every metric.

The loop is closed: one command at a time from this single process, pinned
to one CPU with its children.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())  # one directory per benchmark process
PROBE = str(BENCH_DIR / "probe.py")
TRACER = str(BENCH_DIR / "tracing.py")

TIME_LIMIT = 170.0   # seconds for the whole benchmark, which must end within 180
MIN_REPEATS = 2      # every end-to-end metric has at least this many samples
SETUP_SAMPLES = 5    # setup_s samples per repeat
VERIFY_SAMPLES = 3   # verify_s samples per repeat
SLICE_S = 0.1        # a timed command runs this long between calibration samples
PRE_SAMPLES = 3      # calibration samples just before each timed command
CALIBRATION_ROUNDS = 80_000  # work of one calibration sample
REFERENCE_SAMPLE_S = 0.015   # seconds one calibration sample takes at reference speed

END_TO_END = {       # name -> unit
    "run_s": "s", "verify_s": "s", "sweep_s": "s", "setup_s": "s",
    "run_rss_mb": "MB", "verify_rss_mb": "MB",
}

SPANNED = frozenset(name for name, (_, _, mode) in tracing.WRAPPED.items()
                    if mode == tracing.SPAN)
COUNTED = frozenset(tracing.WRAPPED) - SPANNED
# layers only storm reaches: reference has no drains, perps, bonds or policies
STORM_ONLY = frozenset({
    "detection.plan_frontrun", "detection.plan_sandwich", "detection.plan_backrun",
    "perps.PerpBook.apply_funding", "perps.PerpBook.flag_and_liquidate",
    "rugproof.RugproofBook.resolve_claim", "insurance.InsuranceBook.step_deadlines"})


class BenchError(Exception):
    """The program is missing, a command failed, or an output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_doc: Callable[[int], dict]
    sweep_blocks: int   # --blocks for each sweep point
    fires: frozenset    # wrappers that must count calls in the traced run
    silent: frozenset   # wrappers that must count none


WORKLOADS = {
    "reference": Workload("reference", workloads.reference_doc, workloads.SWEEP_BLOCKS,
                          (SPANNED - STORM_ONLY) | COUNTED, STORM_ONLY),
    "storm": Workload("storm", workloads.storm_doc, workloads.STORM_SWEEP_BLOCKS,
                      SPANNED | COUNTED, frozenset()),
}


# -- child processes ------------------------------------------------------------


@dataclass
class Child:
    cpu_s: float   # user + system time of the child
    rss_mb: float
    stdout: str


def run_child(argv: list[str], deadline: float, clock: Optional[Clock] = None) -> Child:
    """Run one command to completion from the checkout root.  Raises
    BenchError if it exits non-zero or outlives ``deadline`` (a
    time.monotonic value).  With a ``clock`` the child is stopped every
    SLICE_S seconds of its run for one calibration sample."""
    if deadline - time.monotonic() < 1:
        raise BenchError(f"out of time before {argv[1:4]}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            status, usage = wait_child(proc.pid, deadline, clock)
        except BaseException:  # out of time, or an interrupt: end the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    return Child(usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout)


def wait_child(pid: int, deadline: float, clock: Optional[Clock]) -> tuple[int, object]:
    """Reap the child, polling every SLICE_S seconds; (wait status, rusage)."""
    while True:
        time.sleep(SLICE_S)
        if clock is not None:
            os.kill(pid, signal.SIGSTOP)  # a child that has already ended ignores it
        done, status, usage = os.wait4(pid, os.WUNTRACED if clock else os.WNOHANG)
        if done and not os.WIFSTOPPED(status):
            return status, usage
        if time.monotonic() > deadline:
            raise BenchError(f"timed out: pid {pid}")
        if clock is not None:
            clock.calibrate()
            os.kill(pid, signal.SIGCONT)


def rugsim(*args: str) -> list[str]:
    return [sys.executable, "-m", "rugsim.cli", *args]


def sweep_args(workload: Workload, doc_path: Path, out: Path) -> list[str]:
    return ["sweep", "--scenario", str(doc_path), "--param", workloads.SWEEP_PARAM,
            "--out", str(out), "--blocks", str(workload.sweep_blocks)]


# -- host speed -------------------------------------------------------------------


def calibration_kernel(rounds: int) -> int:
    """FNV-1a over ``rounds`` bytes in pure Python, as rugsim hashes its
    traces: integer bytecode work, which the host's slow state slows by
    about as much as it slows rugsim (work that allocates many objects,
    such as exact fractions, slows down more)."""
    digest = 0xCBF29CE484222325
    for i in range(rounds):
        digest = ((digest ^ (i & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


class Clock:
    """Converts CPU times to seconds at a fixed reference CPU speed.

    On a shared host the CPU this benchmark gets alternates, within
    seconds, between a fast state and a much slower one, and the share of
    slow time drifts over minutes, so the same work takes a different time
    from run to run.  The clock times ``calibration_kernel`` on the same
    pinned CPU as the timed command: PRE_SAMPLES samples just before the
    command and one at each SLICE_S of the command's run, while the command
    is stopped.  The command's CPU time is scaled by REFERENCE_SAMPLE_S over
    the mean of the middle 60% of those samples (a sample taken just after
    a command ran starts with cold caches).  A change to rugsim leaves the calibration as
    it is, so the scaled times move with the program alone.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration_kernel(CALIBRATION_ROUNDS)
        self.samples.append(time.perf_counter() - start)

    def timed(self, argv: list[str], deadline: float) -> tuple[Child, float]:
        """Run a command; the child and its factor from CPU seconds to
        reference seconds."""
        first = len(self.samples)
        for _ in range(PRE_SAMPLES):
            self.calibrate()
        child = run_child(argv, deadline, self)
        return child, REFERENCE_SAMPLE_S / middle_mean(self.samples[first:])


def middle_mean(values: list[float]) -> float:
    """The mean of the values left when the lowest and the highest fifth
    are dropped."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def pin_cpu() -> None:
    """Run this process and every child on one CPU, so that the calibration
    and the commands share that CPU's speed.  The highest one is taken, as
    Linux keeps more of its own housekeeping on CPU 0."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- correctness ------------------------------------------------------------------


def read_hash(trace_dir: Path) -> str:
    return (trace_dir / "hash.txt").read_text(encoding="utf-8").strip()


def check_sweep(out: Path) -> list[tuple[str, str]]:
    """The sweep's (value, hash) rows, after checking that each summary.csv
    hash is the hash.txt of its point."""
    with open(out / "summary.csv", "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise BenchError(f"empty sweep summary in {out}")
    for row in rows:
        point = out / f"{row['param']}={row['value']}"
        if read_hash(point) != row["trace_hash"]:
            raise BenchError(f"summary.csv hash {row['trace_hash']} != {point}/hash.txt")
    return [(row["value"], row["trace_hash"]) for row in rows]


def sweep_points(out: Path) -> list[Path]:
    return sorted(path for path in out.iterdir() if path.is_dir())


def check_golden(deadline: float) -> dict:
    child = run_child([sys.executable, PROBE, "golden"], deadline)
    golden = json.loads(child.stdout.strip().splitlines()[-1])
    if not Path(golden["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported rugsim from {golden['module']}, not {SRC}")
    return golden


def count_operations(doc: dict, blocks: int, events_path: Path) -> tuple[int, int]:
    """(attempted, failed) operations of one written trace.

    Attempts are the script steps due within ``blocks``, the queued
    transactions (drains, front-run and sandwich legs, back-runs, intents,
    peg-keeper steps) and the noise trades; failures are ``failed`` events.
    Queued work that leaves no event of its own is counted from the
    document: a peg keeper queues one transaction per block, and every
    drain queues a back-run when some detector has a back-run budget.
    """
    pools = {pool["id"] for pool in doc.get("pools", [])}
    attempted = sum(1 for agent in doc.get("agents", [])
                    for step in agent.get("script", []) if 1 <= step["block"] <= blocks)
    attempted += blocks * sum(1 for agent in doc.get("agents", [])
                              if agent["kind"] == "pegkeeper" and agent.get("pool") in pools)
    backruns = any(agent["kind"] == "detector"
                   and float(agent.get("backrun_budget", 0)) > 0
                   for agent in doc.get("agents", []))
    failed = 0
    with open(events_path, "r", encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            kind = event["type"]
            if kind == "failed":
                failed += 1
                if event["op"] == "noise":
                    attempted += 1
                elif event["op"] == "drain":
                    attempted += 1 + backruns
            elif kind == "drain_executed":
                attempted += 1 + backruns
            elif kind == "plan":
                attempted += 2 if event["kind"] == "sandwich" else 1
            elif kind == "intent_triggered":
                attempted += 1
            elif kind == "swap" and event["memo"] == "noise":
                attempted += 1
    return attempted, failed


# -- measurement --------------------------------------------------------------------


@dataclass
class Tally:
    """What one benchmark run accumulates across its commands."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    run_hash: Optional[str] = None
    run_ops: tuple[int, int] = (0, 0)
    sweep_rows: Optional[list] = None
    sweep_ops: tuple[int, int] = (0, 0)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, ops: tuple[int, int]) -> None:
        self.attempted += ops[0]
        self.failed += ops[1]


FIRST_SWEEP = "first-sweep"  # under WORK: the verified sweep later ones must equal


def checked_run(doc: dict, trace_dir: Path, tally: Tally) -> None:
    """Every run of a document must give the first run's trace hash; its
    operations are counted once, as equal traces count the same."""
    digest = read_hash(trace_dir)
    if tally.run_hash is None:
        tally.run_hash = digest
        tally.run_ops = count_operations(doc, doc["blocks"], trace_dir / "events.jsonl")
    elif digest != tally.run_hash:
        raise BenchError(f"repeat gave trace hash {digest}, first gave {tally.run_hash}")
    tally.count(tally.run_ops)


def checked_sweep(workload: Workload, doc: dict, out: Path, tally: Tally,
                  deadline: float) -> None:
    """Check a finished sweep's summary hashes.  The first sweep of a run has
    every point verified by `rugsim verify` and is kept; each later sweep
    must give the same rows and byte-identical point files."""
    rows = check_sweep(out)
    first = WORK / FIRST_SWEEP
    if tally.sweep_rows is None:
        points = sweep_points(out)
        run_child([sys.executable, PROBE, "verify", *map(str, points)], deadline)
        ops = [count_operations(doc, workload.sweep_blocks, point / "events.jsonl")
               for point in points]
        tally.sweep_ops = (sum(a for a, _ in ops), sum(f for _, f in ops))
        tally.sweep_rows = rows
        out.rename(first)
    elif rows != tally.sweep_rows:
        raise BenchError("repeat gave different sweep hashes")
    else:
        for point in sweep_points(out):
            for path in point.iterdir():
                if not filecmp.cmp(path, first / point.name / path.name, shallow=False):
                    raise BenchError(f"{path} differs from the first sweep's")
    tally.count(tally.sweep_ops)


def measure(workload: Workload, doc: dict, doc_path: Path, seconds: int,
            deadline: float) -> Tally:
    """Repeat setup, run, verify and sweep, at least MIN_REPEATS times and
    then while another repeat fits in ``seconds``; every output is checked."""
    tally = Tally()

    def timed(name: str, argv: list[str]) -> Child:
        """Run a command and add its CPU time, in reference seconds, to ``name``
        (for the setup probe: the time the probe reports)."""
        child, factor = tally.clock.timed(argv, deadline)
        cpu_s = float(child.stdout.split()[-1]) if name == "setup_s" else child.cpu_s
        tally.add(name, cpu_s * factor)
        tally.add(f"{name}.cpu", cpu_s)
        return child

    run_child([sys.executable, PROBE, "setup", str(doc_path)], deadline)  # warm .pyc
    stop = time.monotonic() + seconds
    repeat = 0
    while True:
        began = time.monotonic()
        out = WORK / f"repeat-{repeat}"
        for _ in range(SETUP_SAMPLES):
            timed("setup_s", [sys.executable, PROBE, "setup", str(doc_path)])
        run = timed("run_s", rugsim("run", "--scenario", str(doc_path), "--out",
                                    str(out / "run")))
        tally.add("run_rss_mb", run.rss_mb)
        for _ in range(VERIFY_SAMPLES):
            verify = timed("verify_s", rugsim("verify", "--trace", str(out / "run")))
            tally.add("verify_rss_mb", verify.rss_mb)
        timed("sweep_s", rugsim(*sweep_args(workload, doc_path, out / "sweep")))
        checked_run(doc, out / "run", tally)
        checked_sweep(workload, doc, out / "sweep", tally, deadline)
        shutil.rmtree(out)
        repeat += 1
        now = time.monotonic()
        next_end = now + (now - began)  # if the next repeat takes as long
        if next_end > deadline or (repeat >= MIN_REPEATS and next_end > stop):
            break
    if repeat < MIN_REPEATS:
        raise BenchError(f"only {repeat} repeats fit in {TIME_LIMIT:.0f} s")
    return tally


def traced(cli_args: list[str], run_id: str, deadline: float) -> tuple[Child, dict]:
    spans = WORK / f"{run_id}.spans.json"
    child = run_child([sys.executable, TRACER, "--out", str(spans), "--run-id", run_id,
                       "--", *cli_args], deadline)
    with open(spans, "r", encoding="utf-8") as handle:
        return child, json.load(handle)


def measure_traced(workload: Workload, doc: dict, doc_path: Path,
                   deadline: float) -> tuple[Tally, list[dict], float]:
    """One untraced run, then each command of a repeat under the tracer.
    Returns the tally, the tracer's results and the tracing overhead."""
    tally = Tally()
    plain = run_child(rugsim("run", "--scenario", str(doc_path), "--out",
                             str(WORK / "plain")), deadline)
    checked_run(doc, WORK / "plain", tally)
    run_child([sys.executable, PROBE, "verify", str(WORK / "plain")], deadline)
    run, run_result = traced(["run", "--scenario", str(doc_path), "--out",
                              str(WORK / "run")], "run", deadline)
    checked_run(doc, WORK / "run", tally)  # tracing must not change the trace
    _, verify_result = traced(["verify", "--trace", str(WORK / "run")], "verify", deadline)
    _, sweep_result = traced(sweep_args(workload, doc_path, WORK / "sweep"), "sweep",
                             deadline)
    checked_sweep(workload, doc, WORK / "sweep", tally, deadline)
    return tally, [run_result, verify_result, sweep_result], run.cpu_s - plain.cpu_s


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric, name -> unit."""
    names = {}
    for name, (_, _, mode) in tracing.WRAPPED.items():
        if mode == tracing.SPAN:
            names.update({f"{name}.calls": "count", f"{name}.s": "s",
                          f"{name}.self_s": "s"})
        else:
            names[name] = "count"
    names.update({"core.fnv1a_64.bytes": "bytes", "core.ln.evals": "count",
                  "core.ln.hit_ratio": "ratio", "market.peg_keeper_step.trade_ratio": "ratio",
                  "harness.queue.peak": "count", "bench.trace_overhead_s": "s"})
    return names


def layer_metrics(results: list[dict], overhead_s: float) -> dict[str, float]:
    """Sum the tracer's results over the traced commands."""
    values = dict.fromkeys(layer_metric_names(), 0)
    for result in results:
        for name, row in tracing.aggregate(result["spans"]).items():
            for key in ("calls", "s", "self_s"):
                values[f"{name}.{key}"] += row[key]
        for name in COUNTED:
            values[name] += result["calls"].get(name, 0)
        values["core.fnv1a_64.bytes"] += result["fnv_bytes"]
        values["core.ln.evals"] += result["ln_misses"]
        values["harness.queue.peak"] = max(values["harness.queue.peak"], result["queue_peak"])
    ln_calls = sum(r["ln_hits"] + r["ln_misses"] for r in results)
    values["core.ln.hit_ratio"] = (ln_calls - values["core.ln.evals"]) / ln_calls if ln_calls else 0
    peg_calls = values["market.peg_keeper_step.calls"]
    peg_trades = sum(r["peg_trades"] for r in results)
    values["market.peg_keeper_step.trade_ratio"] = peg_trades / peg_calls if peg_calls else 0
    values["bench.trace_overhead_s"] = overhead_s
    return values


def check_guards(workload: Workload, values: dict[str, float]) -> None:
    """A wrapper that should fire here and counted nothing sits on a dead
    binding; one that fired where it should not is on the wrong callable."""
    def calls(name):
        return values[name if name in COUNTED else f"{name}.calls"]
    dead = sorted(name for name in workload.fires if calls(name) == 0)
    stray = sorted(name for name in workload.silent if calls(name) != 0)
    if dead or stray:
        raise BenchError(f"trace guards on {workload.name}: no calls to {dead}, "
                         f"unexpected calls to {stray}")


def event_counts(results: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for result in results:
        for kind, n in result["events"].items():
            counts[kind] = counts.get(kind, 0) + n
    return dict(sorted(counts.items()))


# -- entry point --------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def benchmark(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "rugsim" / "cli.py").is_file():
        raise BenchError(f"no rugsim sources under {SRC}")
    workload = WORKLOADS[args.workload]
    doc = workload.make_doc(args.seed)
    doc_path = WORK / f"{workload.name}-{args.seed}.json"
    doc_path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    golden = check_golden(deadline)
    print(f"scam golden ok: hash {golden['trace_hash']} margin {golden['margin']}")

    if args.trace:
        tally, results, overhead = measure_traced(workload, doc, doc_path, deadline)
        values = layer_metrics(results, overhead)
        check_guards(workload, values)
        names = layer_metric_names()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in names.items()}
        print(f"events by type: {json.dumps(event_counts(results))}")
    else:
        pin_cpu()
        tally = measure(workload, doc, doc_path, args.seconds, deadline)
        samples = tally.clock.samples
        print(f"calibration: {len(samples)} samples, mean {statistics.fmean(samples):.5f} s, "
              f"reference {REFERENCE_SAMPLE_S} s")
        metrics = {}
        for name, unit in END_TO_END.items():
            values = tally.samples[name]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            cpu = tally.samples.get(f"{name}.cpu")
            print(f"{name:14s} {value:10.4f} {unit:3s} n={len(values)}: "
                  f"{' '.join(f'{v:.4f}' for v in values)}"
                  + (f" (cpu s: {' '.join(f'{v:.4f}' for v in cpu)})" if cpu else ""))
    share = tally.failed / tally.attempted
    print(f"workload {workload.name} seed {args.seed}: run hash {tally.run_hash}, "
          f"sweep hashes {','.join(h for _, h in tally.sweep_rows)}")
    print(f"failed_share {share:.6f} ({tally.failed} failed of {tally.attempted} "
          f"operations attempted)")
    return {"correct": True, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def remove_work() -> None:
    """Delete this process's work directory, and the shared parent if empty."""
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # another benchmark process still works there


def _on_term(signum, frame):
    sys.exit(1)  # unwinds through run_child, which ends its child, and remove_work


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    args = parse_args(argv)
    try:
        WORK.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"benchmark error: cannot create {WORK}: {exc}", file=sys.stderr)
        return 1
    try:
        result = benchmark(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""CLI surface: subcommands, exit codes, and output files."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pinned
import rugsim
from rugsim import cli
from rugsim.cli import main
from rugsim.core import RangeError, RugsimError, amt
from rugsim.harness import Simulation
from rugsim.scenario import (
    ABOVE_ONE,
    ACCOUNT,
    ACCOUNT_FIELDS,
    AGENT_ARGS,
    AGENT_PARAMS,
    AMOUNT_OR_AUTO,
    BALANCES,
    BOOL,
    BPS,
    CHAIN,
    FRACTION,
    INT_RANGES,
    INTENT_ARGS,
    PERPS_VAULT,
    POOL,
    POOL_FIELDS,
    SCENARIO_FIELDS,
    SCRIPT_OPS,
    SECTION_FIELDS,
    STEP_FIELDS,
    TEXT,
    TOKEN_FIELDS,
    UNIT,
    VAULT,
    VAULT_FIELDS,
    ScenarioError,
    load_scenario,
    reference_scenario,
    scam_scenario,
)
from rugsim.trace import FLUSH_EVENTS


TRACE_FILES = ("events.jsonl", "telemetry.csv", "state.json", "hash.txt")


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_four_files(tmp_path):
    out = tmp_path / "trace"
    code = main(["run", "--scenario", "builtin:scam", "--out", str(out)])
    assert code == 0
    for name in TRACE_FILES:
        assert (out / name).exists()


def test_run_malformed_scenario_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2


def test_run_invalid_scenario_exits_2(tmp_path):
    doc = reference_scenario(blocks=5)
    doc["vaults"][0]["theta"] = doc["vaults"][0]["omega"]  # theta <= omega
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2


def test_run_strict_flags_failures(tmp_path):
    doc = reference_scenario(blocks=10)
    # scripted withdrawal that cannot be covered -> a recorded failure
    doc["agents"][0]["script"].append(
        {"block": 3, "op": "withdraw", "vault": "v-rug", "amount": "999999"})
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "b"),
                 "--strict"]) == 3


def test_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "trace"
    assert main(["run", "--scenario", "builtin:scam", "--out", str(out)]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    state_path = out / "state.json"
    state = json.loads(state_path.read_text())
    account = next(iter(state["balances"]))
    token = next(iter(state["balances"][account]))
    state["balances"][account][token] = "123456789"
    state_path.write_text(json.dumps(state))
    assert main(["verify", "--trace", str(out)]) == 4
    assert main(["verify", "--trace", str(tmp_path / "missing")]) == 2


def test_verify_detects_edited_event(tmp_path):
    out = tmp_path / "trace"
    main(["run", "--scenario", "builtin:scam", "--out", str(out)])
    events_path = out / "events.jsonl"
    lines = events_path.read_text().splitlines()
    lines[3] = lines[3].replace('"amount":"', '"amount":"9')
    events_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--trace", str(out)]) == 4


def test_verify_rejects_blank_lines_and_crlf(tmp_path):
    path = write_scenario(tmp_path, reference_scenario(blocks=50))
    for name, rewrite in (("blank", lambda data: data.replace(b"\n", b"\n\n", 3)),
                          ("crlf", lambda data: data.replace(b"\n", b"\r\n"))):
        out = tmp_path / name
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        events_path = out / "events.jsonl"
        events_path.write_bytes(rewrite(events_path.read_bytes()))
        assert main(["verify", "--trace", str(out)]) == 4, name


def test_figures_are_bit_identical(tmp_path):
    for which in ("peg", "supply", "whale", "cumulative"):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["figures", "--which", which, "--out", str(a_dir)]) == 0
        assert main(["figures", "--which", which, "--out", str(b_dir)]) == 0
        a = (a_dir / f"figure_{which}.csv").read_bytes()
        b = (b_dir / f"figure_{which}.csv").read_bytes()
        assert a == b and len(a) > 100


def test_figures_cumulative_series():
    from rugsim.cli import figure_rows
    header, rows = figure_rows("cumulative")
    assert header == ["accounts", "h_total", "penalty"]
    assert {r[0] for r in rows} == {"1", "4", "10"}
    by_n = {n: {r[1]: amt(r[2]) for r in rows if r[0] == n} for n in ("1", "4", "10")}
    # splitting across more accounts always costs more, for every H
    for h in by_n["1"]:
        assert by_n["10"][h] > by_n["4"][h] > by_n["1"][h]


def test_sweep_delta_gamma_zero_matches_one_shot(tmp_path):
    doc = reference_scenario(blocks=40)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", path, "--out", str(out),
                 "--param", "vaults.0.delta_gamma=0:0.02:0.01"])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "param,value,trace_hash,current_supply,total_penalties,failed_events"
    table = [line.split(",") for line in rows[1:]]
    assert [r[1] for r in table] == ["0", "0.01", "0.02"]
    penalties = [amt(r[4]) for r in table]
    # the scripted withdrawal is bob's first: at dgamma=0 the escalating term
    # vanishes and the penalty is the flat gamma plus the whale surcharge
    assert penalties[0] == amt(100) * (amt("0.05") + amt("0.36"))
    assert penalties[0] < penalties[1] < penalties[2]


def test_sweep_rejects_empty_or_bad_ranges(tmp_path):
    path = write_scenario(tmp_path, reference_scenario(blocks=5))
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--param", "vaults.0.delta_gamma=3:1:1"]) == 2
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--param", "vaults.0.delta_gamma=a:b:c"]) == 2
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--param", "chains=1:2:1"]) == 2  # not a numeric field


def test_sweep_writes_ints_into_integer_fields(tmp_path):
    # seed and a drain window hold ints: each point is written as an int
    for param, values in (("seed=1:2:1", ["1", "2"]),
                          ("agents.0.script.0.window=2:3:1", ["2", "3"])):
        out = tmp_path / param.partition("=")[0]
        assert main(["sweep", "--scenario", "builtin:scam", "--out", str(out),
                     "--param", param]) == 0
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == values
        assert all(row[5] == "0" for row in rows)
    lines = (tmp_path / "agents.0.script.0.window" / "agents.0.script.0.window=2"
             / "events.jsonl").read_text().splitlines()
    submitted = next(json.loads(line) for line in lines if '"drain_submitted"' in line)
    assert submitted["executes_at"] == submitted["h"] + 2


def test_sweep_reads_an_int_field_point_as_an_int(tmp_path):
    # seeds past the amount range (10**18 whole units) are ints, not amounts:
    # each point runs as `run --seed` does
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", "builtin:reference", "--blocks", "5",
                 "--out", str(out), "--param",
                 "seed=1000000000000000001:1000000000000000002:1"]) == 0
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["1000000000000000001", "1000000000000000002"]
    for seed, row in zip(("1000000000000000001", "1000000000000000002"), rows):
        assert main(["run", "--scenario", "builtin:reference", "--blocks", "5",
                     "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        assert (tmp_path / seed / "hash.txt").read_text().strip() == row[2]


@pytest.mark.parametrize("param,message", [
    ("seed=1:2:0.5", "bad --param key 'seed': seed holds an integer, got 1.5"),
    ("agents.0.script.0.window=1:2:0.25",
     "bad --param key 'agents.0.script.0.window': agents.0.script.0.window holds an "
     "integer, got 1.25"),
    ("vaults.0.delta_gamma=2:2.0000000003:0.0000000001",
     "bad --param: two points of '2:2.0000000003:0.0000000001' quantize to 2"),
    ("vaults.0.delta_gamma=0:0.0000000012:0.0000000006",
     "bad --param: two points of '0:0.0000000012:0.0000000006' quantize to 0.000000001"),
    ("vaults.0.delta_gamma=1:2:0.0000000001",
     "bad --param: '1:2:0.0000000001' has 10000000001 points, more than 10000"),
    ("vaults.0.delta_gamma=0:10000:1",
     "bad --param: '0:10000:1' has 10001 points, more than 10000"),
    ("vaults.0.delta_gamma=1e19:1e19:1",
     "bad --param: '1e19:1e19:1': fixed-point overflow: "
     "raw=10000000000000000000000000000"),
    ("tokenomics.kappa=0.5:1.5:0.5",
     "scenario error at tokenomics.kappa=1.5: tokenomics.kappa: must be in [0, 1], "
     "got '1.5'"),
    ("seed=18446744073709551615:18446744073709551616:1",
     "scenario error at seed=18446744073709551616: seed: must be in [0, 2**64 - 1], "
     "got 18446744073709551616"),
], ids=["fractional-seed", "fractional-window", "four-points-one-value",
        "two-points-one-value", "ten-billion-points", "one-past-the-limit",
        "past-the-amount-range", "a-later-point-fails-to-load", "a-seed-past-64-bits"])
def test_sweep_refuses_a_bad_range_before_any_run(tmp_path, capsys, param, message):
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", "builtin:scam", "--out", str(out),
                 "--param", param]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


def test_sweep_refuses_a_point_that_breaks_a_module_invariant(tmp_path, capsys):
    doc = scam_scenario()
    doc["perps"] = dict(PERPS_SECTION, liquidator_fee_fraction="0.05")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", write_scenario(tmp_path, doc), "--out", str(out),
                 "--param", "perps.liquidator_fee_fraction=0.05:0.15:0.05"]) == 2
    assert capsys.readouterr().err == (
        "scenario error at perps.liquidator_fee_fraction=0.1: "
        "perps.liquidator_fee_fraction: must be below maintenance_fraction 0.1, got 0.1\n")
    assert not out.exists()


def fail_after_a_flush(monkeypatch, when=lambda sim: True):
    """Make the tokenomics phase of each simulation that ``when`` picks
    raise once its trace has streamed a batch of events to disk."""
    phase = Simulation._phase_tokenomics

    def failing(sim, height, minted):
        if when(sim) and sim.trace.event_count > FLUSH_EVENTS:
            raise RugsimError("injected failure")
        phase(sim, height, minted)
    monkeypatch.setattr(Simulation, "_phase_tokenomics", failing)


def test_a_run_that_fails_leaves_no_trace_files(tmp_path, capsys, monkeypatch):
    fail_after_a_flush(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "builtin:reference", "--blocks", "1000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "scenario error: injected failure\n"
    assert not out.exists()  # the run made it, and left it empty


def test_a_sweep_point_that_fails_leaves_no_files(tmp_path, capsys, monkeypatch):
    fail_after_a_flush(monkeypatch, lambda sim: sim.scenario.vaults[0]["penalty_lambda"]
                       == amt("1.2"))
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", "builtin:reference", "--blocks", "1000",
                 "--out", str(out), "--param", "vaults.0.penalty_lambda=1.1:1.2:0.1"]) == 2
    assert capsys.readouterr().err == (
        "scenario error at vaults.0.penalty_lambda=1.2: injected failure\n")
    assert [path.name for path in out.iterdir()] == ["vaults.0.penalty_lambda=1.1"]
    assert sorted(path.name for path in (out / "vaults.0.penalty_lambda=1.1").iterdir()) \
        == sorted(TRACE_FILES)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("blocks", ["0", "-3"])
def test_blocks_below_one_are_refused_before_anything_is_created(tmp_path, capsys,
                                                                 command, blocks):
    argv = [command, "--scenario", "builtin:scam", "--blocks", blocks,
            "--out", str(tmp_path / "o")]
    if command == "sweep":
        argv += ["--param", "seed=1:2:1"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"need at least one block, got {blocks}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _file_in_the_way(tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("")
    return str(blocker / "x")


def _directory_in_the_way(tmp_path):
    # the run streams into o; its last write, hash.txt, cannot replace a directory
    (tmp_path / "o" / "hash.txt").mkdir(parents=True)
    return str(tmp_path / "o")


@pytest.mark.parametrize("out", [_file_in_the_way, _directory_in_the_way])
def test_run_reports_an_unwritable_out_in_one_line(tmp_path, capsys, out):
    assert main(["run", "--scenario", "builtin:scam", "--out", out(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write trace: ") and err.count("\n") == 1
    # hash.txt is renamed last: the files renamed before it and every
    # .partial are deleted, so no file is left
    assert not any(path.is_file() for path in (tmp_path / "o").rglob("*"))


def test_a_seed_past_64_bits_is_refused_in_one_line(tmp_path, capsys):
    # the run takes its seed mod 2**64, so 2**64 + 42 would replay seed 42
    assert main(["run", "--scenario", "builtin:reference", "--blocks", "50",
                 "--seed", str(2**64 + 42), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "scenario error: seed: must be in [0, 2**64 - 1], got 18446744073709551658\n")
    assert not (tmp_path / "o").exists()
    assert load_scenario({**reference_scenario(), "seed": 2**64 - 1}).seed == 2**64 - 1


def test_figures_reports_an_unwritable_out_in_one_line(tmp_path, capsys):
    assert main(["figures", "--which", "peg", "--out", _file_in_the_way(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write figure: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-too-deeply"])
@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "vaults.0.penalty_lambda=1.1:1.2:0.1"]], ids=["run", "sweep"])
def test_an_unreadable_scenario_is_reported_in_one_line(tmp_path, capsys, command, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main([command[0], "--scenario", str(path), "--out", str(tmp_path / "o"),
                 *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load scenario: ") and err.count("\n") == 1


def test_sweep_reports_an_unwritable_out_in_one_line(tmp_path, capsys):
    assert main(["sweep", "--scenario", "builtin:scam", "--out", _file_in_the_way(tmp_path),
                 "--param", "vaults.0.penalty_lambda=1.1:1.2:0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write trace: ") and err.count("\n") == 1


def test_a_sweep_point_that_cannot_be_finished_leaves_no_file_behind(tmp_path, capsys):
    # the second point's hash.txt cannot replace a directory; the first
    # point's trace stays whole
    out = tmp_path / "o"
    point = out / "vaults.0.penalty_lambda=1.2"
    (point / "hash.txt").mkdir(parents=True)
    assert main(["sweep", "--scenario", "builtin:scam", "--out", str(out),
                 "--param", "vaults.0.penalty_lambda=1.1:1.2:0.1"]) == 2
    assert capsys.readouterr().err.startswith("cannot write trace: ")
    assert [path.name for path in point.iterdir()] == ["hash.txt"]
    assert sorted(path.name for path in (out / "vaults.0.penalty_lambda=1.1").iterdir()) \
        == sorted(TRACE_FILES)


def test_sweep_runs_the_largest_range_it_allows():
    key, values = cli._parse_range(f"x=1:{cli.MAX_SWEEP_POINTS}:1")
    assert (key, len(values), values[-1]) == ("x", cli.MAX_SWEEP_POINTS,
                                              cli.MAX_SWEEP_POINTS)


def test_sweep_does_not_treat_a_bool_field_as_numeric():
    doc = {"perps": {"revalue_collateral": False, "interval_blocks": 4}}
    with pytest.raises(TypeError, match="not a numeric field"):
        cli._sweep_point(doc, "perps.revalue_collateral", Fraction(1))
    point, text = cli._sweep_point(doc, "perps.interval_blocks", Fraction(6))
    assert point["perps"] == {"revalue_collateral": False, "interval_blocks": 6}
    assert text == "6"


def test_each_sweep_point_copies_only_its_path():
    base = reference_scenario(blocks=5)
    before = json.dumps(base)
    doc, text = cli._sweep_point(base, "vaults.0.delta_gamma", Fraction(1, 2))
    assert doc["vaults"][0]["delta_gamma"] == text == "0.5"
    assert json.dumps(base) == before
    assert doc["agents"] is base["agents"] and doc["vaults"] is not base["vaults"]
    # a path that leaves the document raises and leaves it as it was
    for dotted, error in (("nope.x", KeyError), ("vaults.9.theta", IndexError),
                          ("chains.a.b", ValueError), ("seed.x", TypeError)):
        with pytest.raises(error):
            cli._sweep_point(base, dotted, Fraction(1))
        assert json.dumps(base) == before


def _scalar_leaves(node, prefix=""):
    """The dotted path of every string or int (not bool) in a document."""
    for key, value in enumerate(node) if isinstance(node, list) else node.items():
        path = f"{prefix}{key}"
        if isinstance(value, (dict, list)):
            yield from _scalar_leaves(value, path + ".")
        elif isinstance(value, (str, int)) and not isinstance(value, bool):
            yield path


def _load_outcome(doc, memo=None):
    try:
        return load_scenario(doc, memo)
    except ScenarioError as exc:
        return str(exc)


def test_a_memo_load_equals_a_fresh_load():
    # sweep points, built as cmd_sweep builds them, at every scalar leaf of
    # the builtins and at the first leaf of each storm section plus every
    # 500th; an id leaf receives numeric text, which changes the ids the
    # later lists are checked against. One memo serves every point of a base.
    storm = pinned.workloads.storm_doc(777)
    storm_leaves, sections = [], set()
    for i, path in enumerate(_scalar_leaves(storm)):
        section = path.partition(".")[0]
        if section not in sections or i % 500 == 0:
            storm_leaves.append(path)
        sections.add(section)
    bases = [(reference_scenario(), list(_scalar_leaves(reference_scenario()))),
             (scam_scenario(), list(_scalar_leaves(scam_scenario()))),
             (storm, storm_leaves)]
    loads = failures = 0
    for base, leaves in bases:
        memo = {}
        for path in leaves:
            for value in (Fraction(0), Fraction(-1), Fraction(3, 2), Fraction(10**19)):
                try:
                    doc, _ = cli._sweep_point(base, path, value)
                except (RangeError, ValueError):  # refused before any load
                    continue
                fresh = _load_outcome(doc)
                assert _load_outcome(doc, memo) == fresh, (path, value)
                loads += 1
                failures += isinstance(fresh, str)
    assert "tokens.0.id" in storm_leaves and "agents.0.kind" in storm_leaves
    assert 0 < failures < loads


def test_a_sweep_whose_base_fails_to_load_runs_points_that_load(tmp_path):
    doc = scam_scenario()
    doc["vaults"][0]["penalty_lambda"] = "1"  # must be > 1
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "run")]) == 2
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", path, "--out", str(out),
                 "--param", "vaults.0.penalty_lambda=1.5:2:0.5"]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1.5", "2"]


def test_a_sweep_point_that_fails_in_a_parsed_list_writes_nothing(tmp_path, capsys):
    # the first point fills the memo; the second re-parses vaults and fails
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", "builtin:scam", "--out", str(out),
                 "--param", "vaults.0.omega=0.01:0.02:0.01"]) == 2
    assert capsys.readouterr() == ("", "scenario error at vaults.0.omega=0.02: "
                                       "vaults[0].theta: burn reward 0.02 must exceed "
                                       "deposit reward 0.02\n")
    assert not out.exists()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # each record is a plain class: importing dataclasses (which loads
    # inspect, ast, dis and tokenize) and running its code generation was
    # a third of start-up
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(rugsim.__file__)))
    probe = ("import sys, rugsim.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_schema_prints_json(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert "vaults" in schema and "agents" in schema
    # every default of every table is printed beside its field
    texts = set()

    def collect(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, str):
                texts.add((key, value))
            else:
                collect(value)

    collect(schema)
    for _, name, kind, default in OPTIONAL_FIELDS:
        if default is None or isinstance(kind, dict):
            continue
        shown = json.dumps(default) if isinstance(default, (bool, list, dict)) else default
        assert any(key == name and text.endswith(f"(optional, default {shown})")
                   for key, text in texts), name


def test_regen_golden_round_trips(tmp_path, monkeypatch):
    import rugsim.cli as cli
    golden_path = tmp_path / "golden.json"
    monkeypatch.setattr(cli, "GOLDEN_PATH", golden_path)
    assert main(["verify", "--regen-golden"]) == 0
    golden = json.loads(golden_path.read_text())
    assert amt(golden["margin"]).raw > 0
    # regenerated values are reproducible
    assert golden == cli.scam_margin()


def test_rugsim_out_env_default(tmp_path, monkeypatch):
    import importlib
    import rugsim.cli as cli
    monkeypatch.setenv("RUGSIM_OUT", str(tmp_path / "envout"))
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--scenario", "builtin:scam"])
    assert args.out == str(tmp_path / "envout")
    assert args.func(args) == 0
    assert (tmp_path / "envout" / "hash.txt").exists()


def test_state_snapshot_includes_policy_book(tmp_path):
    import sys
    sys.path.insert(0, "tests")
    from test_harness import dispute_doc
    from rugsim.harness import run_scenario
    _, trace = run_scenario(dispute_doc())
    assert "pol-1" in trace.final_state["insurance"]
    policy = trace.final_state["insurance"]["pol-1"]
    assert policy["claims"]["icl-2"]["phase"] == "rejected"


def test_sweep_lambda_twenty_runs_monotone(tmp_path):
    doc = reference_scenario(blocks=40)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", path, "--out", str(out),
                 "--param", "vaults.0.penalty_lambda=1.1:3.0:0.1"])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 20
    penalties = [amt(line.split(",")[4]) for line in rows]
    # bob's whale ratio is below 1, so raising lambda shrinks the surcharge:
    # the summary is monotone decreasing across the whole sweep
    assert all(a > b for a, b in zip(penalties, penalties[1:]))


def test_run_non_finite_noise_literal_exits_2(tmp_path, capsys):
    doc = reference_scenario(blocks=10)
    noisy = next(agent for agent in doc["agents"] if "noise" in agent)
    noisy["noise"]["prob"] = "NaN"
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and "'NaN'" in err


def _script_step(**fields):
    """Append a block-3 step to alice's script (it becomes script[2])."""
    return lambda doc: doc["agents"][0]["script"].append({"block": 3, **fields})


def _set(*keys, value):
    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return mutate


PERPS_SECTION = {"enabled_vaults": ["v-rug"], "alpha_base": "0.01", "l_min": "100",
                 "interval_blocks": 4}


def _with_perps(doc):
    doc["perps"] = dict(PERPS_SECTION)
    _script_step(op="open_position", vault="v-rug", collateral="10",
                 leverage="2", direction="up")(doc)


def _token_named_like_an_anticoin(doc):
    doc["tokens"].append({"id": "anti:RUG@alpha", "chain": "alpha"})
    doc["accounts"][0]["balances"]["anti:RUG@alpha"] = "50"


def _transfer_into_a_case_escrow(doc):
    # a donation to a claim's escrow would leave it unbalanced at close
    doc["tokens"].append({"id": "BND", "chain": "home"})
    doc["accounts"][0]["balances"]["BND"] = "1000"
    doc["agents"][0]["script"] += [
        {"block": 1, "op": "issue_bonded", "token": "BND", "total_issued": "1000",
         "x": "0.01"},
        {"block": 2, "op": "rug_claim", "token": "BND", "y": "0.01"},
        {"block": 3, "op": "transfer", "token": "BND", "to": "case:claim-2",
         "amount": "1"}]


def _intent_into_a_vault_for_zed(scripted):
    """alice holds ZED, and v-zed takes it; her swap_to_anticoin intent on RUG
    names v-zed, at the top level or as a step of her script."""
    def mutate(doc):
        doc["tokens"].append({"id": "ZED", "chain": "alpha",
                              "price_process": {"kind": "catastrophic", "p0": "1"}})
        doc["vaults"].append(dict(doc["vaults"][0], id="v-zed", rugged_token="ZED"))
        doc["accounts"][0]["balances"]["ZED"] = "10000"
        intent = {"pool": "rug-usdn", "token": "RUG", "action": "swap_to_anticoin",
                  "theta_price": "0.99", "theta_liquidity": "0.99", "vault": "v-zed"}
        if scripted:
            _script_step(op="register_intent", **intent)(doc)
        else:
            doc["intents"] = [dict(intent, owner="alice")]
    return mutate


def _genesis_rug(*balances):
    """Give the first accounts of the document these RUG balances."""
    def mutate(doc):
        for account, balance in zip(doc["accounts"], balances):
            account["balances"]["RUG"] = balance
    return mutate


def _refused(builtin, *keys, value):
    """A probe that sets the field at ``keys`` to a value out of its kind's
    range. A section that the builtin lacks is added: perps with
    PERPS_SECTION's fields, the dispute sections with that field alone."""
    section, *rest = keys
    path = section + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                             for key in rest)
    if section == "perps":
        mutate = _set("perps", value=dict(PERPS_SECTION, **{rest[0]: value}))
    elif section in ("rugproof", "insurance"):
        mutate = _set(section, value={rest[0]: value})
    else:
        mutate = _set(*keys, value=value)
    return pytest.param(builtin, mutate, path,
                        id=f"out-of-range-{'.'.join(map(str, keys))}={value}")


LOAD_PROBES = [
    pytest.param("reference", _script_step(op="swap", pool="nope", token_in="RUG",
                                           amount="1"),
                 "agents[0].script[2].pool", id="swap-unknown-pool"),
    pytest.param("reference", _script_step(op="deposit", vault="nope", amount="1"),
                 "agents[0].script[2].vault", id="deposit-unknown-vault"),
    pytest.param("reference", _script_step(op="withdraw", vault="nope", amount="1"),
                 "agents[0].script[2].vault", id="withdraw-unknown-vault"),
    pytest.param("reference", _script_step(op="deposit", vault="v-rug"),
                 "agents[0].script[2].amount", id="deposit-without-amount"),
    pytest.param("reference", _script_step(op="deposit", vault="v-rug", amount=1.5),
                 "agents[0].script[2].amount", id="float-amount"),
    pytest.param("reference", _script_step(op="deposit", vault="v-rug", amount=True),
                 "agents[0].script[2].amount", id="bool-amount"),
    pytest.param("reference", _script_step(op="open_position", vault="v-rug",
                                           collateral="10", leverage="2",
                                           direction="long"),
                 "agents[0].script[2].vault", id="position-on-vault-without-perps"),
    pytest.param("reference", _with_perps, "agents[0].script[2].direction",
                 id="unknown-direction"),
    pytest.param("reference", _script_step(op="register_intent", pool="rug-usdn",
                                           token="RUG", action="hodl",
                                           theta_price="0.5", theta_liquidity="0.5"),
                 "agents[0].script[2].action", id="unknown-intent-action"),
    pytest.param("reference", _script_step(op="register_intent", pool="rug-usdn",
                                           token="RUG", action="exit_to_numeraire",
                                           theta_price="0", theta_liquidity="0.5"),
                 "agents[0].script[2].theta_price", id="script-intent-theta-range"),
    pytest.param("scam", _set("intents", 0, "theta_liquidity", value="1"),
                 "intents[0].theta_liquidity", id="intent-theta-range"),
    pytest.param("reference", _script_step(op="issue_policy", insured="ghost",
                                           insured_value="10", x="0.1", duration="7"),
                 "agents[0].script[2].insured", id="policy-for-unknown-account"),
    pytest.param("reference", _script_step(op="hodl"), "agents[0].script[2].op",
                 id="unknown-op"),
    pytest.param("reference", _set("agents", 3, "vault", value="nope"),
                 "agents[3].vault", id="keeper-unknown-vault"),
    pytest.param("reference", _set("agents", 3, "pool", value="nope"),
                 "agents[3].pool", id="keeper-unknown-pool"),
    pytest.param("reference", _set("agents", 3, "budget", value=200.0),
                 "agents[3].budget", id="keeper-float-budget"),
    pytest.param("reference", _set("agents", 3, "tolerance", value=0.01),
                 "agents[3].tolerance", id="keeper-float-tolerance"),
    pytest.param("reference", _set("agents", 0, "noise", "prob", value=0.25),
                 "agents[0].noise.prob", id="noise-float-prob"),
    pytest.param("reference", _set("agents", 0, "noise", "max_size", value=5.0),
                 "agents[0].noise.max_size", id="noise-float-size"),
    pytest.param("reference", _set("agents", 0, "noise", "pool", value="nope"),
                 "agents[0].noise.pool", id="noise-unknown-pool"),
    pytest.param("reference", _set("agents", 0, "noise", "max_size", value="0"),
                 "agents[0].noise.max_size", id="noise-zero-size"),
    pytest.param("reference", _set("agents", 1, "noise", "max_size", value="-2"),
                 "agents[1].noise.max_size", id="noise-negative-size"),
    pytest.param("reference", _set("agents", 0, "noise", "max_size",
                                   value="0.0000000004"),
                 "agents[0].noise.max_size", id="noise-size-below-a-quantum"),
    pytest.param("scam", _set("agents", 2, "protects", value=["ghost"]),
                 "agents[2].protects", id="detector-protects-unknown-account"),
    pytest.param("scam", _set("agents", 2, "backrun_budget", value=100.0),
                 "agents[2].backrun_budget", id="detector-float-budget"),
    pytest.param("scam", _set("agents", 2, "backrun_cap", value=50.0),
                 "agents[2].backrun_cap", id="detector-float-cap"),
    pytest.param("reference", _set("rugproof", value={"z_min": 1.5}),
                 "rugproof.z_min", id="rugproof-float"),
    pytest.param("reference", _set("insurance", value={"alpha_comp": 0.2}),
                 "insurance.alpha_comp", id="insurance-float"),
    pytest.param("scam", _set("agents", 0, "script", 0, "window", value=0),
                 "agents[0].script[0].window", id="drain-window-zero"),
    pytest.param("scam", _set("agents", 0, "script", 0, "window", value="-2"),
                 "agents[0].script[0].window", id="drain-window-negative"),
    pytest.param("reference", _set("tokens", 0, "price_process", "lam", value="-0.001"),
                 "tokens[0].price_process.lam", id="negative-lam"),
    pytest.param("scam", _set("tokens", 0, "price_process", "tau_rug", value="0"),
                 "tokens[0].price_process.tau_rug", id="zero-tau-rug"),
    pytest.param("reference", _set("tokens", 0, "price_process",
                                   value={"kind": "sentiment", "p0": "2", "alpha_sent": "-1"}),
                 "tokens[0].price_process.alpha_sent", id="negative-alpha-sent"),
    pytest.param("reference", _set("pools", 0, "token_x", value="ZZZ"),
                 "pools[0].token_x", id="undeclared-pool-token"),
    pytest.param("reference", _set("pools", 1, "token_y", value="ZZZ"),
                 "pools[1].token_y", id="undeclared-pool-token-y"),
    pytest.param("reference", _set("pools", 1, "token_x", value="anti:RUG@home"),
                 "pools[1].token_x", id="anticoin-of-no-vault"),
    # its reserves would be two balances of one token in one pool account
    pytest.param("reference", _set("pools", 0, "token_y", value="RUG"),
                 "pools[0].token_y", id="pool-trades-a-token-for-itself"),
    pytest.param("scam", _set("perps",
                              value=dict(PERPS_SECTION, revalue_collateral="false")),
                 "perps.revalue_collateral", id="revalue-collateral-string"),
    pytest.param("reference", _set("accounts", 0, "balances", value=[]),
                 "accounts[0].balances", id="balances-not-an-object"),
    pytest.param("reference", _set("agents", 0, "script", value={}),
                 "agents[0].script", id="script-not-a-list"),
    pytest.param("reference", _set("rugproof", value={"challenge_blocks": -3}),
                 "rugproof.challenge_blocks", id="negative-challenge-blocks"),
    pytest.param("reference", _set("detection", "drop_threshold", value="-1"),
                 "detection.drop_threshold", id="negative-drop-threshold"),
    pytest.param("scam", _set("intents", 0, "solver_fee_bps", value=-5),
                 "intents[0].solver_fee_bps", id="negative-solver-fee-cap"),
    pytest.param("reference", _set("pools", 0, "fee_bps", value=10001),
                 "pools[0].fee_bps", id="pool-fee-above-all"),
    pytest.param("scam", _set("agents", 1, "fee_bps", value=-1),
                 "agents[1].fee_bps", id="negative-solver-fee"),
    pytest.param("scam", _set("detection", "sandwich_treasury_fraction", value="2"),
                 "detection.sandwich_treasury_fraction", id="treasury-fraction-above-1"),
    pytest.param("scam", _set("detection", "sandwich_treasury_fraction", value="-1"),
                 "detection.sandwich_treasury_fraction", id="negative-treasury-fraction"),
    pytest.param("scam", _set("perps",
                              value=dict(PERPS_SECTION, liquidator_fee_fraction="0.1")),
                 "perps.liquidator_fee_fraction", id="liquidator-fee-at-maintenance"),
    pytest.param("reference", _set("insurance", value={"escalation_bond_multiplier": "1"}),
                 "insurance.escalation_bond_multiplier", id="escalation-multiplier-one"),
    pytest.param("reference", lambda doc: doc["vaults"].append(
        dict(doc["vaults"][0], id="v-rug-2")), "vaults[1].rugged_token",
                 id="second-vault-for-a-token-and-chain"),
    pytest.param("reference", _token_named_like_an_anticoin, "vaults[0].rugged_token",
                 id="declared-token-named-like-an-anticoin"),
    # an intent deposits its token into its vault, which must take that token
    pytest.param("reference", _intent_into_a_vault_for_zed(scripted=False),
                 "intents[0].vault", id="intent-vault-for-another-token"),
    pytest.param("reference", _intent_into_a_vault_for_zed(scripted=True),
                 "agents[0].script[2].vault", id="script-intent-vault-for-another-token"),
    pytest.param("reference", _transfer_into_a_case_escrow, "agents[0].script[4].to",
                 id="transfer-into-a-case-escrow"),
    # a declared pool account's balance would not be the pool's reserve
    pytest.param("reference", lambda doc: doc["accounts"].append(
        {"id": "pool:rug-usdn", "balances": {"RUG": "7"}}), "accounts[6].id",
                 id="declared-pool-account"),
    # each balance is in range; bob's takes RUG's genesis total past it
    pytest.param("reference", _genesis_rug("600000000000000000", "600000000000000000"),
                 "accounts[1].balances.RUG", id="genesis-total-past-the-amount-range"),
    # the accounts hold 999999999999994000 RUG; the pool's 10000 are minted last
    pytest.param("reference", _genesis_rug("999999999999970000"), "pools[0].reserve_x",
                 id="genesis-pool-reserve-past-the-amount-range"),
    # the treasury's initial supply of R is minted last of all
    pytest.param("reference", lambda doc: (
        doc["tokens"].append({"id": "R", "chain": "home"}),
        doc["accounts"][0]["balances"].update(R="1000000000000000000")),
                 "tokenomics.initial_supply", id="genesis-home-token-past-the-amount-range"),
    # a drain sells between none and all of the supply it names
    pytest.param("scam", lambda doc: doc["agents"][0]["script"][0].update(
        t_rug="900", t_total="800"), "agents[0].script[0].t_rug",
                 id="drain-above-its-total"),
    pytest.param("scam", _set("agents", 0, "script", 0, "t_rug", value="-5"),
                 "agents[0].script[0].t_rug", id="negative-drain"),
    # a deposit of liquidity is of both tokens, a removal a share of the pool
    *(pytest.param("reference", _script_step(op="add_liquidity", pool="rug-usdn",
                                             **{"dx": "10", "dy": "auto", field: value}),
                   f"agents[0].script[2].{field}", id=f"add-liquidity-{field}-{value}")
      for field, value in (("dx", "0"), ("dx", "-5"), ("dy", "0"), ("dy", "-5"))),
    *(pytest.param("reference", _script_step(op="remove_liquidity", pool="rug-usdn",
                                             share=value),
                   "agents[0].script[2].share", id=f"remove-liquidity-share-{value}")
      for value in ("0", "1.5")),
    # the engine alone issues a pool's LP token
    pytest.param("reference", lambda doc: doc["tokens"].append(
        {"id": "lp:x", "chain": "alpha"}), "tokens[1].id",
                 id="declared-token-named-like-an-lp-token"),
    pytest.param("reference", _set("numeraire", value="lp:x"), "numeraire",
                 id="numeraire-named-like-an-lp-token"),
    # a vault's rates: theta > omega >= 0 and a superlinear penalty
    _refused("reference", "vaults", 0, "omega", value="-0.01"),
    pytest.param("reference", _set("vaults", 0, "theta", value="0.01"), "vaults[0].theta",
                 id="theta-equal-to-omega"),
    _refused("reference", "vaults", 0, "penalty_lambda", value="1"),
    pytest.param("reference", lambda doc: doc["vaults"].append(dict(doc["vaults"][0])),
                 "vaults[1].id", id="duplicate-vault-id"),
    # the ranges of the fields that each runtime record used to re-check, or
    # that nothing checked
    *(_refused(builtin, *keys, value=value) for builtin, keys, value in (
        ("scam", ("perps", "liquidator_fee_fraction"), "-0.5"),
        ("scam", ("perps", "liquidator_deadline_blocks"), -4),
        ("scam", ("perps", "max_leverage"), "0.5"),
        ("reference", ("agents", 0, "noise", "prob"), "-1"),
        ("reference", ("agents", 0, "noise", "prob"), "7"),
        ("reference", ("detection", "mint_spike_factor"), "-3"),
        ("reference", ("detection", "volume_spike_factor"), "-1"),
        ("reference", ("detection", "wallet_outflow_fraction"), "1.5"),
        ("reference", ("detection", "protocol_priority_boost"), 0),
        ("reference", ("agents", 3, "budget"), "-1"),
        ("reference", ("agents", 3, "tolerance"), "-0.005"),
        ("scam", ("agents", 2, "sandwich_budget"), "-1"),
        ("scam", ("agents", 2, "backrun_budget"), "-1"),
        ("scam", ("agents", 2, "backrun_cap"), "-1"),
        ("reference", ("rugproof", "z_min"), "-1"),
        ("reference", ("insurance", "x_min"), "-1"),
        ("reference", ("insurance", "x_min"), "1.5"))),
]


@pytest.mark.parametrize("builtin,mutate,path", LOAD_PROBES)
def test_run_rejects_bad_documents_at_load_with_a_path(tmp_path, capsys, builtin,
                                                       mutate, path):
    doc = reference_scenario(blocks=10) if builtin == "reference" else scam_scenario()
    mutate(doc)
    code = main(["run", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"scenario error: {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# -- load tests walked from the tables: a field added to a table is covered
# with no new test code


def example(kind):
    """A valid document value of an argument kind, in builtin:reference,
    with every optional field left out."""
    if isinstance(kind, dict):
        return {key: example(value) for key, value in kind.items()
                if not key.endswith("?")}
    if isinstance(kind, list):
        return [example(kind[0])]
    if isinstance(kind, type):
        return next(iter(kind)).value
    if isinstance(kind, tuple):
        return kind[0]
    known = {CHAIN: "alpha", POOL: "rug-usdn", VAULT: "v-rug", PERPS_VAULT: "v-rug",
             ACCOUNT: "alice", AMOUNT_OR_AUTO: "auto", TEXT: "RUG", BOOL: False,
             FRACTION: "0.5", UNIT: "0.5", BPS: 30, ABOVE_ONE: "2"}
    return known.get(kind, 1 if kind in INT_RANGES else "1")


def full_doc():
    """builtin:reference with every table in use: a second priced token that
    no vault takes, a perps section, the dispute sections, an intent, and
    alice running a step of every op."""
    doc = reference_scenario(blocks=10)
    doc["tokens"].append({"id": "ALT", "chain": "alpha",
                          "price_process": {"kind": "sentiment", "p0": "1",
                                            "alpha_sent": "0.01"}})
    doc["perps"] = {**example(SECTION_FIELDS["perps?"][0]), "enabled_vaults": ["v-rug"]}
    doc["rugproof"], doc["insurance"] = {}, {}
    doc["intents"] = [example(INTENT_ARGS)]
    doc["agents"][0]["script"] += [{"block": 3, "op": op, **example(args)}
                                   for op, (_, args) in SCRIPT_OPS.items()]
    return doc


def table_sites(doc):
    """(path, table) for every table that ``doc`` fills, nested ones too."""
    sites = [("", SCENARIO_FIELDS), ("", SECTION_FIELDS), ("tokens[1]", TOKEN_FIELDS),
             ("accounts[0]", ACCOUNT_FIELDS), ("vaults[0]", VAULT_FIELDS),
             ("pools[0]", POOL_FIELDS), ("intents[0]", INTENT_ARGS)]
    for i, agent in enumerate(doc["agents"]):
        sites += [(f"agents[{i}]", AGENT_ARGS),
                  (f"agents[{i}]", AGENT_PARAMS.get(agent["kind"], {}))]
        sites += [(f"agents[{i}].script[{j}]", {**STEP_FIELDS, **SCRIPT_OPS[step["op"]][1]})
                  for j, step in enumerate(agent.get("script", []))]
    for path, table in sites:  # grows as nested tables are found
        for key, kind in table.items():
            name = key.rstrip("?")
            kind = kind[0] if name != key else kind
            nested = f"{path}.{name}" if path else name
            if isinstance(kind, dict) and at(doc, nested) is not None:
                sites.append((nested, kind))
    return sites


def at(node, path):
    """The value at a document path, in a document or a loaded Scenario;
    None where an object lacks the key."""
    for part in filter(None, path.replace("[", ".").replace("]", "").split(".")):
        if part.isdigit():
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node.get(part)
        else:
            node = getattr(node, part)
    return node


def parsed_default(kind, default):
    """What a default loads as, worked out apart from the loader."""
    if default is None:
        return None
    if isinstance(kind, dict):  # a section of optional fields
        return {key.rstrip("?"): parsed_default(*spec) for key, spec in kind.items()}
    if isinstance(kind, list) or kind == BALANCES:
        return type(default)(default)
    if isinstance(kind, type):
        return kind(default)
    if kind in INT_RANGES or kind == BOOL:
        return default
    return amt(default)


SITES = table_sites(full_doc())
OPTIONAL_FIELDS = [(path, key[:-1], *spec) for path, table in SITES
                   for key, spec in table.items() if key.endswith("?")]
REQUIRED_FIELDS = [(path, key) for path, table in SITES
                   for key in table if not key.endswith("?")]


@pytest.mark.parametrize(
    "path,name,kind,default",
    [field for field in OPTIONAL_FIELDS if field[3] is not None],
    ids=[f"{path}.{name}" if path else name
         for path, name, _, default in OPTIONAL_FIELDS if default is not None])
def test_an_absent_optional_field_loads_as_its_default(path, name, kind, default):
    # the table is the one place a default is written, as a document literal
    # (the loader refuses a FixedAmount); the engine has no default of its own
    doc = full_doc()
    at(doc, path).pop(name, None)
    if not (doc.get("perps") or {}).get("enabled_vaults"):
        # no perps vault: an open_position step would not load
        for agent in doc["agents"]:
            agent["script"] = [step for step in agent.get("script", [])
                               if step["op"] != "open_position"]
    loaded = at(load_scenario(doc), f"{path}.{name}")
    expected = parsed_default(kind, default)
    assert loaded == expected
    assert type(loaded) is type(expected)


@pytest.mark.parametrize("path,name", REQUIRED_FIELDS,
                         ids=[f"{path}.{name}" if path else name
                              for path, name in REQUIRED_FIELDS])
def test_an_absent_required_field_exits_2_with_its_path(tmp_path, capsys, path, name):
    doc = full_doc()
    del at(doc, path)[name]
    code = main(["run", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(tmp_path / "o")])
    field_path = f"{path}.{name}" if path else name
    assert code == 2
    assert capsys.readouterr().err == \
        f"scenario error: {field_path}: missing required field\n"

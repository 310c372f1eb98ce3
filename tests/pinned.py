"""The pinned-output corpus: named runs whose outputs must stay byte-identical.

Each entry of ``tests/data/pinned_hashes.json`` maps a run's name to its
trace hash (``hash.txt``), or, for a sweep, to the SHA-256 of its
``summary.csv``, which holds every point's trace hash. The runs go through
the command line, as a user would make them; the two benchmark documents
come from ``perfbench/workloads.py``, which is read and not edited.

    python tests/pinned.py            # run the corpus, exit 1 on any mismatch
    python tests/pinned.py --repin    # rewrite the file, print old -> new

Only the standard library is needed, so any interpreter can run the check;
``tests/test_corpus.py`` runs the same corpus under pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402  (perfbench/workloads.py)
from rugsim.cli import main  # noqa: E402

PINNED_FILE = Path(__file__).resolve().parent / "data" / "pinned_hashes.json"

# name -> (the document: a builtin name or a function building one,
#          the extra command-line arguments, "run" or "sweep")
CORPUS: dict[str, tuple[str | Callable[[], dict], list[str], str]] = {
    "builtin:reference --blocks 10000": ("builtin:reference", ["--blocks", "10000"], "run"),
    "builtin:scam": ("builtin:scam", [], "run"),
    "reference_doc(9001, 2000)": (lambda: workloads.reference_doc(9001, 2000), [], "run"),
    "storm_doc(777)": (lambda: workloads.storm_doc(777), [], "run"),
    "storm_doc(31337)": (lambda: workloads.storm_doc(31337), [], "run"),
    "builtin:reference lambda sweep (summary.csv sha256)": (
        "builtin:reference", ["--param", workloads.SWEEP_PARAM], "sweep"),
    # points share the parsed lists their path leaves alone: this one
    # re-parses `pools` and reuses `agents` and `accounts`
    "storm_doc(777) pools.0.fee_bps sweep (summary.csv sha256)": (
        lambda: workloads.storm_doc(777),
        ["--param", "pools.0.fee_bps=10:50:10", "--blocks", "10"], "sweep"),
}


def run_entry(name: str, work: Path) -> tuple[str, Path]:
    """Run one corpus entry in a directory of its own under ``work``;
    returns its digest and that directory. Raises RuntimeError if the
    command exits non-zero."""
    source, extra, command = CORPUS[name]
    out = work / f"run-{list(CORPUS).index(name)}"
    if callable(source):
        spec = out.with_suffix(".json")
        spec.write_text(json.dumps(source()), encoding="utf-8")
    else:
        spec = source
    argv = [command, "--scenario", str(spec), "--out", str(out), *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: `rugsim {' '.join(argv)}` exited {code}")
    if command == "run":
        return (out / "hash.txt").read_text(encoding="utf-8").strip(), out
    return hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(), out


def run_corpus(work: Path) -> dict[str, tuple[str, Path]]:
    """name -> (digest, output directory) of every corpus entry, run in turn."""
    return {name: run_entry(name, work) for name in CORPUS}


def load_pins() -> dict[str, str]:
    return json.loads(PINNED_FILE.read_text(encoding="utf-8"))


def changes(pins: dict[str, str], digests: dict[str, str]) -> list[tuple[str, str, str]]:
    """(name, pin, digest) of every entry whose digest differs from its pin;
    an entry pinned but not run, or run but not pinned, shows None."""
    return [(name, pins.get(name), digests.get(name))
            for name in sorted(set(pins) | set(digests))
            if pins.get(name) != digests.get(name)]


def main_pinned(argv: list[str]) -> int:
    repin = argv == ["--repin"]
    if argv and not repin:
        print("usage: python tests/pinned.py [--repin]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        digests = {name: digest for name, (digest, _) in run_corpus(Path(work)).items()}
    pins = load_pins() if PINNED_FILE.exists() else {}
    changed = changes(pins, digests)
    if repin:
        PINNED_FILE.parent.mkdir(parents=True, exist_ok=True)
        PINNED_FILE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        for name, old, new in changed:
            print(f"{name}: {old} -> {new}")
        print(f"{len(changed)} of {len(digests)} entries changed; wrote {PINNED_FILE}")
        return 0
    for name, old, new in changed:
        print(f"{name}: pinned {old}, got {new}")
    print(f"python {sys.version.split()[0]}: "
          f"{len(digests) - len(changed)} of {len(digests)} pinned outputs match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_pinned(sys.argv[1:]))

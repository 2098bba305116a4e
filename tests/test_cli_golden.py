"""Byte-for-byte snapshot of the CLI on the golden corpus.

Every `check`, `rank`, `space`, `space --conditional` and `compare` command
on every `loops/*.loop` file, for every method that applies to it, in both
output formats, must print exactly the stdout recorded in
`data/cli_golden.json` and exit with the recorded code.  After a deliberate
output change, regenerate the snapshot with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from linrank.cli import main
from linrank.loopfile import parse_loop

LOOPS = Path(__file__).resolve().parents[1] / "loops"
SNAPSHOT = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def commands() -> list[list[str]]:
    """Argument lists with the loop file given by name, relative to LOOPS."""
    out = []
    for path in sorted(LOOPS.glob("*.loop")):
        guarded = parse_loop(path.read_text(encoding="utf-8")).is_guarded
        methods = ("ms", "pr") + (("pr-alt",) if guarded else ()) + ("svg", "both")
        for fmt in ("text", "json"):
            tail = [f"--format={fmt}"]
            for kind in ("check", "rank", "space"):
                for method in methods:
                    out.append([kind, path.name, f"--method={method}"] + tail)
            for method in ("ms", "both"):
                out.append(["space", path.name, f"--method={method}", "--conditional"] + tail)
            out.append(["compare", path.name] + tail)
    return out


def run(argv: list[str]) -> dict:
    resolved = [argv[0], str(LOOPS / argv[1])] + argv[2:]
    out = io.StringIO()
    code = main(resolved, out=out)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _snapshot() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_lists_every_command():
    assert [entry["argv"] for entry in _snapshot()] == commands()


@pytest.mark.parametrize("name", sorted(path.name for path in LOOPS.glob("*.loop")))
def test_cli_output_matches_snapshot(name):
    entries = [entry for entry in _snapshot() if entry["argv"][1] == name]
    assert entries
    changed = [" ".join(e["argv"]) for e in entries if run(e["argv"]) != e]
    assert not changed, f"{len(changed)} commands differ from the snapshot: {changed}"


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in commands()]
    lines = ",\n".join(json.dumps(record) for record in records)
    SNAPSHOT.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {SNAPSHOT}", file=sys.stderr)

"""Exact snapshot of the parser's outcome on seeded malformed loop files.

Every input of the mutation stream of `tests/test_loopfile.py` (seed
20240607, one to three `_mutate`s of each golden loop file) must either
parse to the recorded loop, pinned by a 16-hex SHA-256 digest of its
`serialize_loop`, or fail with exactly the recorded `LoopParseError`:
its line, its column and the message of its text `line L, col C: message`
(kept apart so that the snapshot stays under 200 KB).  After a deliberate
change of outcome, regenerate the snapshot with

    PYTHONPATH=src:. python tests/test_parse_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from linrank.loopfile import LoopParseError, parse_loop, serialize_loop
from tests.test_loopfile import mutated_loop_files

SNAPSHOT = Path(__file__).resolve().parent / "data" / "parse_golden.json"
LOOPS_DIR = Path(__file__).resolve().parents[1] / "loops"


def outcome(text: str) -> str | list:
    """[line, col, message] of the parse error, or the loop's digest."""
    try:
        loop = parse_loop(text)
    except LoopParseError as err:
        return [err.line, err.col, str(err).split(": ", 1)[1]]
    return hashlib.sha256(serialize_loop(loop).encode()).hexdigest()[:16]


def records() -> list:
    return [outcome(text) for text in mutated_loop_files(LOOPS_DIR)]


def test_snapshot_covers_parses_and_errors():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert len(expected) == 5 * 1000
    parsed = [e for e in expected if isinstance(e, str)]
    assert parsed and len(parsed) < len(expected)


def test_mutated_loop_files_match_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    changed = [i for i, (e, got) in enumerate(zip(expected, records())) if e != got]
    assert not changed, f"{len(changed)} inputs differ from the snapshot: {changed[:20]}"


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    data = records()
    SNAPSHOT.write_text("[\n" + ",\n".join(json.dumps(r) for r in data) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(data)} outcomes to {SNAPSHOT}", file=sys.stderr)

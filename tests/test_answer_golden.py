"""Exact snapshot of every op's answer on the benchmark's streams.

Each op of perfbench's `decide` streams (seeds 1 and 2) and `space` streams
(seeds 1 and 207), whole cycles, goes through `cross_check` as the benchmark
runs it.  Its digest covers the report as perfbench's `digest_text` reads
it: both verdicts and witnesses, the witnesses' cross-membership and, on
`space`, whether the spaces are equal.  On `space` it also covers the
rendered rows of `ms_space` and `pr_space`.  The streams are imported from
perfbench read-only.  After a deliberate change of answer, regenerate the
snapshot with

    PYTHONPATH=src:. python tests/test_answer_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from linrank.ms import ms_space
from linrank.pr import pr_space
from linrank.simplex import find_point

SNAPSHOT = Path(__file__).resolve().parent / "data" / "answer_golden.json"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STREAMS = (("decide", 1), ("decide", 2), ("space", 1), ("space", 207))


def _workloads():
    """perfbench's workload module, which imports its oracle by bare name."""
    sys.path.append(str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def _op_digest(wl, name: str, op) -> str:
    text = wl.digest_text(wl.run(op))
    if name == "space":
        spaces = (route(op.payload).constraints.render() for route in (ms_space, pr_space))
        text += "".join("\n--\n" + "\n".join(rows) for rows in spaces)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stream_digests(name: str, seed: int) -> list[str]:
    """One digest per op of the stream, in op order."""
    wl = _workloads().workload(name)
    find_point.cache_clear()
    return [_op_digest(wl, name, op) for op in wl.inputs(seed)]


def records() -> dict:
    return {f"{name}:{seed}": stream_digests(name, seed) for name, seed in STREAMS}


def _snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_every_stream_in_full():
    expected = _snapshot()
    assert list(expected) == [f"{name}:{seed}" for name, seed in STREAMS]
    assert [len(v) for v in expected.values()] == [144, 144, 120, 120]


@pytest.mark.parametrize("name,seed", STREAMS)
def test_op_answers_match_snapshot(name, seed):
    expected = _snapshot()[f"{name}:{seed}"]
    got = stream_digests(name, seed)
    assert len(got) == len(expected)
    changed = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not changed, f"{len(changed)} {name} seed {seed} ops differ from the snapshot: {changed}"


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    data = records()
    body = ",\n".join(f'"{key}": {json.dumps(digests)}' for key, digests in data.items())
    SNAPSHOT.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(map(len, data.values()))} op digests to {SNAPSHOT}", file=sys.stderr)

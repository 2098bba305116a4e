"""Exact snapshot of the termination engines' answers on seeded loops.

On 150 loops of criterion 4's stream, widened to n <= 6 and m <= 14 (single
and guarded, every third one with a planted ranking function), `ms_analyze`,
`pr_analyze` and, on guarded loops, `pr_alt_analyze` must return exactly the
recorded verdict, witness (mu0, mu, delta) and certificate.  After a
deliberate change of answer, regenerate the snapshot with

    PYTHONPATH=src python tests/test_witness_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from linrank.constraints import loop_system
from linrank.equivalence import random_loop
from linrank.ms import TerminationStatus, ms_analyze
from linrank.pr import pr_alt_analyze, pr_analyze
from linrank.simplex import find_point

SNAPSHOT = Path(__file__).resolve().parent / "data" / "witness_golden.json"
SEED = 20261019
N_LOOPS = 150


def golden_loops():
    """The seeded loops, in snapshot order."""
    rng = random.Random(SEED)
    return [
        random_loop(
            rng, max_vars=6, max_rows=14, coeff_bound=5,
            force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
        )
        for i in range(N_LOOPS)
    ]


def _text(values):
    return [str(v) for v in values]


def _verdict_record(verdict) -> dict:
    record = {"status": verdict.status.value}
    w = verdict.witness
    if w is not None:
        record["witness"] = {"mu0": str(w.mu0), "mu": _text(w.mu), "delta": str(w.delta)}
        record["certificate"] = None if w.certificate is None else [
            _text(part) for part in w.certificate
        ]
    return record


def _loop_record(index: int, loop) -> dict:
    engines = {"ms": ms_analyze, "pr": pr_analyze}
    if loop.is_guarded:
        engines["pr_alt"] = pr_alt_analyze
    return {
        "index": index,
        "loop": loop_system(loop).render(),
        **{name: _verdict_record(engine(loop)) for name, engine in engines.items()},
    }


def records() -> list[dict]:
    find_point.cache_clear()
    return [_loop_record(i, loop) for i, loop in enumerate(golden_loops())]


def _snapshot() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_both_verdicts_and_all_engines():
    expected = _snapshot()
    assert len(expected) == N_LOOPS
    statuses = {e["ms"]["status"] for e in expected}
    assert statuses == {TerminationStatus.TERMINATING.value, TerminationStatus.UNKNOWN.value}
    assert any("pr_alt" in e and "witness" in e["pr_alt"] for e in expected)


def test_verdicts_witnesses_and_certificates_match_snapshot():
    find_point.cache_clear()
    expected = _snapshot()
    changed = [
        e["index"] for e, loop in zip(expected, golden_loops()) if _loop_record(e["index"], loop) != e
    ]
    assert not changed, f"{len(changed)} loops differ from the snapshot: {changed}"


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    data = records()
    SNAPSHOT.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in data) + "\n]\n", encoding="utf-8"
    )
    print(f"wrote {len(data)} loops to {SNAPSHOT}", file=sys.stderr)

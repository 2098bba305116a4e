"""Exact snapshot of the engines' answers on loops with non-integral rows.

The engines read the loop's matrix as ints where its entries are integral,
and keep a `Fraction` only where an entry is not.  This snapshot pins that
second path: 60 seeded `random_loop`s (single and guarded, every third one
with a planted ranking function) whose every row is scaled by a seeded
positive p/q.  Scaling keeps each loop's polyhedron but makes its matrix
non-integral.  `ms_analyze`, `pr_analyze` and, on guarded loops,
`pr_alt_analyze` must return exactly the recorded verdict, witness and
certificate, and `ms_space` and `pr_space` exactly the recorded rows.
After a deliberate change of answer, regenerate the snapshot with

    PYTHONPATH=src python tests/test_fraction_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from linrank.constraints import ConstraintSystem, LinConstraint, LoopModel, loop_system
from linrank.equivalence import random_loop
from linrank.ms import ms_analyze, ms_space
from linrank.pr import pr_alt_analyze, pr_analyze, pr_space
from linrank.simplex import find_point

SNAPSHOT = Path(__file__).resolve().parent / "data" / "fraction_golden.json"
SEED = 20261020
N_LOOPS = 60


def _scaled(rng: random.Random, c: ConstraintSystem) -> ConstraintSystem:
    """c with each row times its own positive p/q: the same solution set."""
    rows = []
    for row in c.rows:
        k = Fraction(rng.randint(1, 9), rng.randint(2, 7))
        rows.append(LinConstraint(tuple(k * v for v in row.coeffs), row.rel, k * row.const))
    return c.with_rows(rows)


def golden_loops() -> list[LoopModel]:
    """The seeded loops, scaled, in snapshot order."""
    rng = random.Random(SEED)
    loops = []
    for i in range(N_LOOPS):
        loop = random_loop(rng, max_vars=4, max_rows=8, force_rank=i % 3 == 0, guarded=i % 2 == 0)
        if loop.is_guarded:
            scaled = LoopModel(
                loop.space, guard=_scaled(rng, loop.guard), update=_scaled(rng, loop.update)
            )
        else:
            scaled = LoopModel(loop.space, single=_scaled(rng, loop.single))
        loops.append(scaled)
    return loops


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


def _loop_record(index: int, loop: LoopModel) -> dict:
    engines = {"ms": ms_analyze, "pr": pr_analyze}
    if loop.is_guarded:
        engines["pr_alt"] = pr_alt_analyze
    return {
        "index": index,
        "loop": loop_system(loop).render(),
        **{name: _verdict_record(engine(loop)) for name, engine in engines.items()},
        "ms_space": ms_space(loop).constraints.render(),
        "pr_space": pr_space(loop).constraints.render(),
    }


def records() -> list[dict]:
    find_point.cache_clear()
    return [_loop_record(i, loop) for i, loop in enumerate(golden_loops())]


def _snapshot() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_loops_are_non_integral_and_cover_every_engine():
    expected = _snapshot()
    assert len(expected) == N_LOOPS
    assert all(any("/" in row for row in e["loop"]) for e in expected)
    statuses = {e["ms"]["status"] for e in expected}
    assert statuses == {"terminating", "unknown"}
    assert any("pr_alt" in e and "witness" in e["pr_alt"] for e in expected)
    assert any("/" in v for e in expected if "witness" in e["pr"] for v in e["pr"]["certificate"][0])


def test_answers_on_scaled_loops_match_snapshot():
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

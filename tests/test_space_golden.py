"""Exact snapshot of ranking-function spaces and projections.

`ms_space`, `ms_decreasing_space`, `ms_bounded_space` and `pr_space` must
return exactly the recorded rows on seeded `random_loop`s (guarded and
single, with and without a planted ranking function), and so must
`cone_extend` of every non-empty `ms_space`.  `eliminate` and `project`
must return exactly the recorded rows on seeded satisfiable systems that
mix equalities, strict and non-strict rows.  Rows are compared as rendered
text, which is exact.  After a deliberate change of output, regenerate the
snapshot with

    PYTHONPATH=src python tests/test_space_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from linrank.constraints import EQ, GE, GT, LE, LT, ConstraintSystem, LinConstraint
from linrank.equivalence import cone_extend, random_loop
from linrank.loopfile import serialize_loop
from linrank.ms import ms_bounded_space, ms_decreasing_space, ms_space
from linrank.pr import pr_space
from linrank.projection import eliminate, project
from linrank.simplex import find_point, satisfiable

SNAPSHOT = Path(__file__).resolve().parent / "data" / "space_golden.json"
N_LOOPS = 40
N_SYSTEMS = 60


def _loop(seed: int):
    """Guarded on even seeds; a planted ranking function on seeds 0, 1 mod 4."""
    rng = random.Random(seed)
    return random_loop(
        rng, max_vars=3, max_rows=5, force_rank=seed % 4 < 2, guarded=seed % 2 == 0
    )


def _loop_record(seed: int) -> dict:
    loop = _loop(seed)
    full = ms_space(loop)
    record = {
        "seed": seed,
        "loop": serialize_loop(loop),
        "ms": full.constraints.render(),
        "ms_decreasing": ms_decreasing_space(loop).constraints.render(),
        "ms_bounded": ms_bounded_space(loop).constraints.render(),
        "pr": pr_space(loop).constraints.render(),
        "cone": None,
    }
    if satisfiable(full.constraints):
        record["cone"] = cone_extend(full).constraints.render()
    return record


def _system(seed: int) -> ConstraintSystem:
    """A satisfiable system priced off a planted integer point."""
    rng = random.Random(seed)
    nv = rng.randint(2, 4)
    p = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(2, 7)):
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(nv)]
        lhs = sum(a * b for a, b in zip(coeffs, p))
        kind = rng.random()
        if kind < 0.15:
            rows.append(LinConstraint(tuple(coeffs), EQ, lhs))
        elif kind < 0.55:
            rel = rng.choice((LE, LE, LT))
            slack = rng.randint(1 if rel == LT else 0, 3)
            rows.append(LinConstraint(tuple(coeffs), rel, lhs + slack))
        else:
            rel = rng.choice((GE, GE, GT))
            slack = rng.randint(1 if rel == GT else 0, 3)
            rows.append(LinConstraint(tuple(coeffs), rel, lhs - slack))
    return ConstraintSystem(tuple(f"v{i}" for i in range(nv)), tuple(rows))


def _system_record(seed: int) -> dict:
    c = _system(seed)
    rng = random.Random(seed + 1000)
    var = rng.choice(c.variables)
    keep = tuple(v for v in c.variables if rng.random() < 0.5) or (c.variables[-1],)
    eliminated = eliminate(c, var)
    projected = project(c, keep)
    return {
        "seed": seed,
        "system": c.render(),
        "eliminate": [var, eliminated.render()],
        "project": [list(keep), projected.render()],
    }


def records() -> dict:
    find_point.cache_clear()
    return {
        "loops": [_loop_record(seed) for seed in range(N_LOOPS)],
        "systems": [_system_record(seed) for seed in range(N_SYSTEMS)],
    }


def _snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_every_loop_shape():
    loops = _snapshot()["loops"]
    assert len(loops) == N_LOOPS
    assert {"guard:" in e["loop"] for e in loops} == {True, False}
    assert any(e["cone"] is None for e in loops) and any(e["cone"] for e in loops)


def test_spaces_match_snapshot():
    find_point.cache_clear()
    changed = [e["seed"] for e in _snapshot()["loops"] if _loop_record(e["seed"]) != e]
    assert not changed, f"{len(changed)} loops differ from the snapshot: seeds {changed}"


def test_projections_match_snapshot():
    find_point.cache_clear()
    expected = _snapshot()["systems"]
    assert len(expected) == N_SYSTEMS
    changed = [e["seed"] for e in expected if _system_record(e["seed"]) != e]
    assert not changed, f"{len(changed)} systems differ from the snapshot: seeds {changed}"


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    data = records()
    body = ",\n".join(
        f'"{key}": [\n' + ",\n".join(json.dumps(r) for r in data[key]) + "\n]" for key in data
    )
    SNAPSHOT.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    counts = f"{len(data['loops'])} loops and {len(data['systems'])} systems"
    print(f"wrote {counts} to {SNAPSHOT}", file=sys.stderr)

"""Exact snapshot of LP outcomes on seeded problems.

`solve` must return exactly the recorded status, point, value and ray on
every seeded `LpProblem` below, and `find_point` exactly the recorded
point (or None) on every seeded system with strict rows.  The problems mix
rational coefficients, free variables, equality rows, negative right-hand
sides, duplicate and parallel rows, coefficients of 2^64 and larger, and
the classic degenerate cycling instance; together they reach all four
statuses.  After a deliberate change of outcome, regenerate the snapshot
with

    PYTHONPATH=src:. python tests/test_simplex_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from linrank.constraints import EQ, GE, GT, LE, LT
from linrank.simplex import FREE, NONNEG, LpStatus, find_point, lp, solve
from tests.oracles import constraint, system

SNAPSHOT = Path(__file__).resolve().parent / "data" / "simplex_golden.json"
N_LPS = 300
N_SYSTEMS = 100

CYCLING = (
    [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    False,
    [
        ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
        ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ],
    [NONNEG] * 4,
)


def _number(rng: random.Random, style: str) -> Fraction:
    if style == "int":
        return Fraction(rng.randint(-4, 4))
    if style == "rational":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    # "big": magnitudes of 2^64 and beyond, sometimes with a denominator
    if rng.random() < 0.4:
        return Fraction(rng.randint(-3, 3))
    magnitude = rng.randint(2**64, 2**72)
    return Fraction(rng.choice((-1, 1)) * magnitude, rng.choice((1, 1, 3, 2**65 + 1)))


def _lp_case(seed: int):
    """(objective, maximize, rows, signs) of the seed-th problem."""
    if seed == 0:
        return CYCLING
    rng = random.Random(seed)
    style = ("int", "rational", "big")[seed % 3]
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    signs = [FREE if rng.random() < 0.35 else NONNEG for _ in range(n)]
    # odd seeds price each row off a point, so that the problem is feasible
    x0 = [abs(_number(rng, style)) for _ in range(n)] if seed % 2 else None
    rows = []
    for _ in range(m):
        coeffs = [_number(rng, style) if rng.random() < 0.75 else Fraction(0) for _ in range(n)]
        rel = rng.choice((LE, LE, GE, GE, EQ))
        if x0 is None:
            rhs = _number(rng, style)
        else:
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            rhs = lhs + {LE: 1, GE: -1, EQ: 0}[rel] * abs(_number(rng, style))
        rows.append((coeffs, rel, rhs))
    if seed % 5 == 0:
        # a duplicate and a positively scaled parallel copy of some row
        coeffs, rel, rhs = rng.choice(rows)
        rows.append((list(coeffs), rel, rhs))
        t = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        rows.append(([t * c for c in coeffs], rel, t * rhs))
    if seed % 7 == 0:
        # a parallel row of opposite direction, possibly contradicting
        coeffs, rel, rhs = rng.choice(rows)
        flipped = {LE: GE, GE: LE, EQ: EQ}[rel]
        rows.append(([-c for c in coeffs], flipped, -rhs - rng.randint(-1, 1)))
    rng.shuffle(rows)
    if seed % 4 == 0:
        objective = None
    else:
        objective = [_number(rng, style) for _ in range(n)]
    return objective, rng.random() < 0.5, rows, signs


def _system_case(seed: int):
    """A constraint system with at least one strict row."""
    rng = random.Random(10_000 + seed)
    style = ("int", "rational", "big")[seed % 3]
    n = rng.randint(1, 4)
    names = tuple(f"x{i}" for i in range(n))
    rows = []
    for k in range(rng.randint(1, 6)):
        coeffs = [_number(rng, style) for _ in range(n)]
        rel = LT if k == 0 else rng.choice((LT, GT, LE, GE, EQ))
        const = _number(rng, style)
        if seed % 6 == 0 and rel in (LT, GT):
            const = Fraction(0)  # homogeneous strict rows, tightened with no lift
        rows.append(constraint(coeffs, rel, const))
    if seed % 5 == 0:
        rows.append(rng.choice(rows))
    if seed % 8 == 0:
        # nonnegativity rows, which find_point absorbs into variable signs
        rows.extend(constraint([int(i == j) for j in range(n)], GE, 0) for i in range(n))
    return system(names, rows)


def _text(values):
    return None if values is None else [str(v) for v in values]


def _lp_record(seed: int) -> dict:
    objective, maximize, rows, signs = _lp_case(seed)
    problem = {
        "objective": _text(objective),
        "maximize": maximize,
        "rows": [[_text(coeffs), rel, str(rhs)] for coeffs, rel, rhs in rows],
        "signs": signs,
    }
    out = solve(lp(objective, maximize, rows, signs))
    outcome = {
        "status": out.status.value,
        "point": _text(out.point),
        "value": None if out.value is None else str(out.value),
        "ray": _text(out.ray),
    }
    return {"seed": seed, "problem": problem, "outcome": outcome}


def _system_record(seed: int) -> dict:
    c = _system_case(seed)
    return {"seed": seed, "system": c.render(), "point": _text(find_point(c))}


def records() -> dict:
    find_point.cache_clear()
    return {
        "lps": [_lp_record(seed) for seed in range(N_LPS)],
        "systems": [_system_record(seed) for seed in range(N_SYSTEMS)],
    }


def _snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_reaches_every_status():
    statuses = {entry["outcome"]["status"] for entry in _snapshot()["lps"]}
    assert statuses == {status.value for status in LpStatus}
    points = [entry["point"] for entry in _snapshot()["systems"]]
    assert any(p is None for p in points) and any(p is not None for p in points)


def test_lp_outcomes_match_snapshot():
    expected = _snapshot()["lps"]
    assert len(expected) == N_LPS
    changed = [e["seed"] for e in expected if _lp_record(e["seed"]) != e]
    assert not changed, f"{len(changed)} LPs differ from the snapshot: seeds {changed}"


def test_find_point_matches_snapshot():
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
    counts = f"{len(data['lps'])} LPs and {len(data['systems'])} systems"
    print(f"wrote {counts} to {SNAPSHOT}", file=sys.stderr)

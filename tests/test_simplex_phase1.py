"""Phase 1 without an artificial block.

`solve` keeps one artificial cell per tableau row and prices real columns
only.  These tests hold it to the textbook layout kept in
`tests.oracles.solve_with_artificial_block`, outcome for outcome, and check
that phase-1 rows stay n + 2 ints wide.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from linrank import simplex
from linrank.constraints import EQ, GE, LE
from linrank.equivalence import cross_check, random_loop
from linrank.simplex import FREE, NONNEG, LpProblem, LpStatus, find_point, lp, solve
from tests.oracles import solve_with_artificial_block

N_SEEDED = 120
N_LOOPS = 24


def _number(rng: random.Random, big: bool) -> Fraction:
    if big and rng.random() < 0.05:
        magnitude = rng.randint(2**64, 2**70)
        return Fraction(rng.choice((-1, 1)) * magnitude, rng.choice((1, 1, 3, 2**64 + 1)))
    return Fraction(rng.randint(-9, 9))


def _decide_size_lp(seed: int) -> LpProblem:
    """An LP shaped like the multiplier systems of the `decide` workload: up
    to 27 rows over up to 40 variables, mostly equality rows, a fifth of the
    variables free, sparse rows.  Every fifth seed has some coefficients of
    2^64 and more.  Odd seeds price each row off a point, so they are feasible;
    seeds 1 mod 6 minimize a nonnegative objective over nonnegative
    variables, so they are bounded too."""
    rng = random.Random(seed)
    big = seed % 5 == 2
    bounded = seed % 6 == 1
    m, n = rng.randint(1, 27), rng.randint(1, 40)
    signs = [NONNEG if bounded or rng.random() < 0.8 else FREE for _ in range(n)]
    x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)] if seed % 2 else None
    rows = []
    for _ in range(m):
        coeffs = [_number(rng, big) if rng.random() < 0.3 else Fraction(0) for _ in range(n)]
        rel = rng.choice((EQ,) * 6 + (LE, GE))
        if x0 is None:
            rhs = _number(rng, big)
        else:
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            rhs = lhs + {LE: 1, GE: -1, EQ: 0}[rel] * rng.randint(0, 3)
        rows.append((coeffs, rel, rhs))
    if seed % 3 == 0:
        objective = None
    elif bounded:
        objective = [abs(_number(rng, big)) for _ in range(n)]
    else:
        objective = [_number(rng, big) for _ in range(n)]
    return lp(objective, not bounded and rng.random() < 0.5, rows, signs)


def _cross_check_lps(monkeypatch) -> list[LpProblem]:
    """Every LP that `cross_check` solves on the first loops of criterion
    4's stream, each loop from a cold `find_point` memo."""
    asked = []
    standard_form = simplex._integer_standard_form

    def recording(p):
        asked.append(p)
        return standard_form(p)

    rng = random.Random(20260810)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_integer_standard_form", recording)
        for i in range(N_LOOPS):
            loop = random_loop(
                rng, max_vars=4, max_rows=8, coeff_bound=5,
                force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
            )
            find_point.cache_clear()
            cross_check(loop, compare_spaces=(i % 4 == 0))
    find_point.cache_clear()
    return asked


def test_solve_matches_artificial_block_oracle(monkeypatch):
    """Same status, point, value and ray as the artificial block, on seeded
    decide-size LPs and on the LPs of `cross_check`.  All four statuses
    occur in the seeded family; the `cross_check` family is infeasible,
    feasible and optimal LPs, none of them unbounded."""
    families = {
        "seeded": [_decide_size_lp(seed) for seed in range(N_SEEDED)],
        "cross_check": _cross_check_lps(monkeypatch),
    }
    counts = {}
    for name, problems in families.items():
        outcomes = [solve(p) for p in problems]
        oracle = [solve_with_artificial_block(p) for p in problems]
        differ = [i for i, (out, want) in enumerate(zip(outcomes, oracle)) if out != want]
        assert not differ, f"{name}: {len(differ)} outcomes differ from the oracle's, at {differ}"
        counts[name] = Counter(out.status.value for out in outcomes)
    assert counts["seeded"] == {"infeasible": 30, "unbounded": 29, "optimal": 33, "feasible": 28}
    assert set(counts["cross_check"]) == {"infeasible", "feasible", "optimal"}, counts


def test_phase1_rows_are_n_plus_2_wide(monkeypatch):
    """Three equality rows without a unit column need three artificials;
    every row that phase 1 combines is still the n real columns, one
    artificial cell and the rhs."""
    widths = []
    combine = simplex._combine

    def recording(row, prow, p, f):
        widths.extend((len(row), len(prow)))
        return combine(row, prow, p, f)

    monkeypatch.setattr(simplex, "_combine", recording)
    rows = [([1, 1, 1, 2], EQ, 5), ([1, -1, 2, 1], EQ, 3), ([2, 1, -1, 1], EQ, 3)]
    out = solve(lp(None, False, rows, [NONNEG] * 4))
    assert out.status is LpStatus.FEASIBLE
    n = 4  # four nonnegative variables and no slack
    assert widths and max(widths) <= n + 2, widths


def test_feasibility_lp_returns_its_phase1_point(monkeypatch):
    """A duplicated equality row leaves artificials basic at zero after
    phase 1, one of them in a row with a nonzero real entry, where a
    drive-out pivot could take place.  A feasibility LP returns right
    there, with no further pivot, and its point is the artificial block's."""
    after_phase1 = []
    pivots = []
    bland_min, pivot = simplex._bland_min, simplex._pivot

    def recording_min(tableau, basis, cost, n, phase1=False):
        outcome = bland_min(tableau, basis, cost, n, phase1)
        if phase1:
            after_phase1.extend((row[-1], any(row[:n])) for row, b in zip(tableau, basis) if b >= n)
            pivots.clear()
        return outcome

    def recording_pivot(*args):
        pivots.append(args[2:4])
        return pivot(*args)

    monkeypatch.setattr(simplex, "_bland_min", recording_min)
    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    rows = [([1, 1, 1], EQ, 3), ([1, 1, 1], EQ, 3), ([0, 1, -1], EQ, 0)]
    problem = lp(None, False, rows, [FREE, NONNEG, NONNEG])
    out = solve(problem)
    assert sorted(after_phase1) == [(0, False), (0, True)]
    assert pivots == []
    assert out.status is LpStatus.FEASIBLE
    assert out == solve_with_artificial_block(problem)
    assert out.point == (3, 0, 0)

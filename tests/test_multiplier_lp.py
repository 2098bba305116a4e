"""Each engine's multiplier rows reach the simplex through one bridge.

`ms_analyze`, `pr_analyze`, `pr_alt_analyze` and `svg_analyze` hand
`simplex._point` their row triples with a sign per column, and the space
routes decide emptiness with `_point` on the triples they project; the
`ConstraintSystem` builders package the same triples, for the API
(`build_ms_systems`, `build_pr_system`) and for the reference checks
(`tests.oracles`: `build_svg_system`, `build_pr_alt_system`).  On the
witness-golden loops and on the loops of acceptance criteria 4 and 5,
the LP each analysis hands `solve` must equal `_lp_rows` applied to the
builder's system (strict row normalized to <= -1): the same signs, then
the same rows in the same order, by value.
And each space route's emptiness decision must equal `satisfiable` of the
builder's system it projects.
"""

from __future__ import annotations

import random

import pytest

from linrank import ms, simplex
from linrank.constraints import EQ, ConstraintSystem, LinConstraint, loop_system, to_leq_matrix
from linrank.equivalence import random_loop
from linrank.ms import (
    TerminationStatus,
    UnsatisfiableLoopError,
    build_ms_systems,
    ms_analyze,
    ms_bounded_space,
    ms_decreasing_space,
    svg_analyze,
    svg_space,
)
from linrank.pr import (
    build_pr_system,
    extraction_rows,
    pr_alt_analyze,
    pr_analyze,
    pr_space,
    with_affine_slot,
)
from linrank.simplex import FREE, LpProblem, _lp_rows, _triples, satisfiable
from tests.oracles import (
    build_pr_alt_system,
    build_svg_system,
    conjoined_ms_system,
    normalize_strict,
)
from tests.test_witness_golden import golden_loops


def _criterion_loops():
    """The loop streams of criteria 4 and 5, unfiltered: criterion 5 keeps
    the terminating loops among its first 76 draws."""
    rng = random.Random(20260810)
    for i in range(200):
        yield random_loop(
            rng, max_vars=4, max_rows=8, coeff_bound=5,
            force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
        )
    rng = random.Random(31337)
    for attempts in range(1, 101):
        yield random_loop(
            rng, max_vars=4, max_rows=8, coeff_bound=5,
            force_rank=(attempts % 2 == 0), guarded=(attempts % 3 == 0),
        )


def _as_lp_rows_lays_out(system: ConstraintSystem) -> LpProblem:
    triples = _triples(normalize_strict(system))
    signs, rows = _lp_rows(triples, (FREE,) * system.n_vars)
    return LpProblem(None, False, rows, signs)


@pytest.fixture
def solved(monkeypatch):
    """The LPs handed to `simplex.solve`, in order."""
    problems = []

    def recording(problem):
        problems.append(problem)
        return solve(problem)

    solve = simplex.solve
    monkeypatch.setattr(simplex, "solve", recording)
    return problems


def _mismatches(solved, loops) -> list[str]:
    """The loops where an analysis's last LP differs from its builder's
    system's; loops an analysis finds trivially terminating are skipped."""
    bad = []
    for i, loop in enumerate(loops):
        c = loop_system(loop)
        m = to_leq_matrix(c, loop.space)
        checks = [
            ("ms", ms_analyze, loop, conjoined_ms_system(c)),
            ("pr", pr_analyze, loop, build_pr_system(m)),
            ("svg", svg_analyze, c, build_svg_system(c)),
        ]
        if loop.is_guarded:
            checks.append(("pr-alt", pr_alt_analyze, loop, build_pr_alt_system(loop)))
        for name, analyze, arg, system in checks:
            solved.clear()
            if analyze(arg).status is TerminationStatus.TRIVIALLY_TERMINATING:
                continue
            if not solved or solved[-1] != _as_lp_rows_lays_out(system):
                bad.append(f"loop {i}: {name}")
    return bad


def test_decision_lps_match_the_builders_on_golden_loops(solved):
    assert not _mismatches(solved, golden_loops())


def test_decision_lps_match_the_builders_on_criterion_loops(solved):
    assert not _mismatches(solved, _criterion_loops())


def _with_mu0(decrease: ConstraintSystem) -> ConstraintSystem:
    """The decrease system over (y, mu1..mun) with an all-zero mu0 column
    inserted before mu1."""
    m = sum(name.startswith("y") for name in decrease.variables)
    variables = decrease.variables[:m] + ("mu0",) + decrease.variables[m:]
    rows = [
        LinConstraint(r.coeffs[:m] + (0,) + r.coeffs[m:], r.rel, r.const) for r in decrease.rows
    ]
    return ConstraintSystem(variables, tuple(rows))


def _with_definitions(base: ConstraintSystem, defining) -> ConstraintSystem:
    """base with one more column per defining row, mu0 then mu1.., each
    equal to that combination of base's variables."""
    names = tuple(f"mu{k}" for k in range(len(defining)))
    pad = (0,) * len(names)
    rows = [LinConstraint(r.coeffs + pad, r.rel, r.const) for r in base.rows]
    for k, coeffs in enumerate(defining):
        unit = tuple(-int(i == k) for i in range(len(names)))
        rows.append(LinConstraint(tuple(coeffs) + unit, EQ, 0))
    return ConstraintSystem(base.variables + names, tuple(rows))


@pytest.fixture
def emptiness(monkeypatch):
    """Call a space route and return whether `_point` found a point of its
    rows; the projection itself is skipped."""
    decisions = []

    def recording(rows, signs):
        found = point(rows, signs)
        decisions.append(found is not None)
        return found

    point = ms._point
    monkeypatch.setattr(ms, "_point", recording)
    monkeypatch.setattr(ms, "_project", lambda rows, width, keep: [])

    def decide(route, arg) -> bool:
        route(arg)
        return decisions.pop()

    return decide


def _emptiness_mismatches(decide, loops) -> tuple[list[str], int]:
    """The loops where a space route's emptiness decision differs from
    `satisfiable` of the builder's system, and how many decreasing spaces
    are empty."""
    bad, empty_decreasing = [], 0
    for i, loop in enumerate(loops):
        c = loop_system(loop)
        decrease, bounded = build_ms_systems(c)
        ext = with_affine_slot(to_leq_matrix(c, loop.space))
        checks = [
            ("ms-decreasing", ms_decreasing_space, loop, _with_mu0(decrease)),
            ("ms-bounded", ms_bounded_space, loop, bounded),
            ("pr", pr_space, loop, _with_definitions(build_pr_system(ext), extraction_rows(ext))),
            ("svg", svg_space, c, build_svg_system(c)),
        ]
        for name, route, arg, system in checks:
            try:
                decision = decide(route, arg)
            except UnsatisfiableLoopError:
                continue
            if decision != satisfiable(system):
                bad.append(f"loop {i}: {name}")
            empty_decreasing += name == "ms-decreasing" and not decision
    return bad, empty_decreasing


def test_space_emptiness_matches_the_builders_on_golden_loops(emptiness):
    bad, empty_decreasing = _emptiness_mismatches(emptiness, golden_loops())
    assert not bad
    assert empty_decreasing > 0


def test_space_emptiness_matches_the_builders_on_criterion_loops(emptiness):
    bad, empty_decreasing = _emptiness_mismatches(emptiness, _criterion_loops())
    assert not bad
    assert empty_decreasing > 0

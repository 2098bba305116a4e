"""Each engine's multiplier rows, packaged three ways, agree.

`ms_analyze`, `pr_analyze` and `pr_alt_analyze` solve an `LpProblem` built
straight off the loop's matrices; the space routes project the same row
triples, after deciding emptiness by `_multiplier_lp` (`ms._has_point`); the
`ConstraintSystem` builders package them for the API and the reference
checks.  On the witness-golden loops and on the loops of acceptance
criteria 4 and 5, each decision LP must equal `_lp_rows` applied to the
builder's system (strict row normalized to <= -1): the same signs, then the
same rows in the same order, by value.  And each space route's emptiness
decision must equal `satisfiable` of the builder's system it projects.
"""

from __future__ import annotations

import random

import pytest

from linrank import ms
from linrank.constraints import EQ, ConstraintSystem, LinConstraint, loop_system, to_leq_matrix
from linrank.equivalence import random_loop
from linrank.ms import (
    UnsatisfiableLoopError,
    _ms_lp,
    build_ms_systems,
    build_svg_system,
    conjoined_ms_system,
    ms_bounded_space,
    ms_decreasing_space,
    svg_space,
)
from linrank.pr import (
    _pr_alt_lp,
    _pr_lp,
    build_pr_alt_system,
    build_pr_system,
    extraction_rows,
    pr_space,
    with_affine_slot,
)
from linrank.simplex import LpProblem, _lp_rows, satisfiable
from tests.oracles import normalize_strict
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


def _as_find_point_lays_out(system) -> LpProblem:
    signs, rows = _lp_rows(normalize_strict(system), False)
    return LpProblem(None, False, tuple(rows), signs)


def _mismatches(loops) -> list[str]:
    bad = []
    for i, loop in enumerate(loops):
        c = loop_system(loop)
        if _ms_lp(c)[1] != _as_find_point_lays_out(conjoined_ms_system(c)):
            bad.append(f"loop {i}: ms")
        m = to_leq_matrix(c, loop.space)
        if _pr_lp(m) != _as_find_point_lays_out(build_pr_system(m)):
            bad.append(f"loop {i}: pr")
        if loop.is_guarded and _pr_alt_lp(loop)[1] != _as_find_point_lays_out(
            build_pr_alt_system(loop)
        ):
            bad.append(f"loop {i}: pr-alt")
    return bad


def test_decision_lps_match_the_builders_on_golden_loops():
    assert not _mismatches(golden_loops())


def test_decision_lps_match_the_builders_on_criterion_loops():
    assert not _mismatches(_criterion_loops())


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
    """Call a space route and return its `_has_point` decision; the
    projection itself is skipped."""
    decisions = []

    def recording(rows, signs):
        decisions.append(has_point(rows, signs))
        return decisions[-1]

    has_point = ms._has_point
    monkeypatch.setattr(ms, "_has_point", recording)
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

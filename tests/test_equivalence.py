import random
from fractions import Fraction

import pytest

from linrank.constraints import ConstraintError, ConstraintSystem, loop_system, to_leq_matrix
from linrank.equivalence import (
    cone_extend,
    cross_check,
    random_loop,
    witness_in_ms_denormalized,
    witness_in_pr_set,
)
from linrank.ms import (
    MS_FULL,
    RankingFunction,
    RankingSpace,
    TerminationStatus,
    ms_analyze,
    ms_decreasing_space,
    ms_space,
)
from linrank.pr import pr_analyze
from linrank.projection import equivalent, project
from linrank.simplex import satisfiable
from tests.conftest import space_family
from tests.oracles import constraint, in_denormalized_space, system


def full_space(params, rows):
    sys_rows = system(params, [constraint(c, rel, k) for c, rel, k in rows])
    return RankingSpace(tuple(params), sys_rows, MS_FULL)


def test_cone_extend_strictens_offset_thresholds():
    space = full_space(("mu1",), [((1,), ">=", 1)])
    extended = cone_extend(space)
    assert equivalent(
        extended.constraints,
        system(("mu1",), (constraint((1,), ">", 0),)),
    )
    # membership probes at the boundary
    assert extended.contains((Fraction(1, 2),))
    assert not extended.contains((Fraction(0),))


def test_cone_extend_fixes_existing_cone():
    space = full_space(("mu1",), [((1,), ">=", 0)])
    extended = cone_extend(space)
    assert equivalent(extended.constraints, space.constraints)


def test_cone_extend_idempotent(log2_loop):
    space = ms_space(log2_loop)
    once = cone_extend(space)
    twice = cone_extend(once)
    assert equivalent(once.constraints, twice.constraints)


def test_cone_extend_requires_full_space(log2_loop):
    from linrank.ms import ms_decreasing_space

    with pytest.raises(ConstraintError):
        cone_extend(ms_decreasing_space(log2_loop))


def _lifted_projection(space: RankingSpace) -> ConstraintSystem:
    """The k-lifted system over (params, k), each row a.params rel c as
    a.params - c*k rel 0 beside k > 0, projected onto the params."""
    rows = [constraint(row.coeffs + (-row.const,), row.rel, 0) for row in space.constraints.rows]
    rows.append(constraint((0,) * len(space.params) + (1,), ">", 0))
    return project(system(space.params + ("k",), rows), space.params)


def test_cone_extend_matches_the_projected_lift():
    spaces = [ms_space(loop) for loop in space_family()]
    assert sum(not space.is_empty() for space in spaces) >= 20
    for space in spaces:
        assert cone_extend(space).constraints.render() == _lifted_projection(space).render()


def test_cone_extend_of_empty_space(diverge_loop):
    extended = cone_extend(ms_space(diverge_loop))
    assert not satisfiable(extended.constraints)


def test_cross_check_log2(log2_loop):
    report = cross_check(log2_loop)
    assert report.agree
    assert report.ms_witness_in_pr_set is True
    assert report.pr_witness_in_ms_set is True
    assert report.spaces_equivalent is True
    assert report.all_consistent


def test_cross_check_diverge(diverge_loop):
    report = cross_check(diverge_loop)
    assert report.agree
    assert report.verdict_ms.status is TerminationStatus.UNKNOWN
    assert report.ms_witness_in_pr_set is None  # vacuous without witnesses
    assert report.spaces_equivalent is True  # both empty
    assert report.all_consistent


def test_cross_check_unsat(unsat_loop):
    report = cross_check(unsat_loop)
    assert report.agree
    assert report.verdict_ms.status is TerminationStatus.TRIVIALLY_TERMINATING
    assert report.spaces_equivalent is None
    assert report.all_consistent


def test_membership_helpers_cross_validate(log2_loop, countdown_loop):
    """The direct multiplier-level membership queries agree with the
    projected-space implementations."""
    for loop in (log2_loop, countdown_loop):
        f = pr_analyze(loop).witness
        direct = witness_in_ms_denormalized(loop, f)
        spacewise = in_denormalized_space(ms_space(loop), f)
        assert direct is True and spacewise is True
        g = ms_analyze(loop).witness
        m = to_leq_matrix(loop_system(loop), loop.space)
        assert witness_in_pr_set(m, g)
        bad = RankingFunction(g.mu0, tuple(-v for v in g.mu), g.delta, g.lower_bound)
        assert not witness_in_pr_set(m, bad)
        assert not witness_in_ms_denormalized(loop, bad)


def test_random_loops_are_satisfiable_and_agree():
    rng = random.Random(1000)
    for i in range(30):
        loop = random_loop(rng, force_rank=(i % 3 == 0), guarded=(i % 2 == 0))
        assert satisfiable(loop_system(loop))
        report = cross_check(loop, compare_spaces=(i % 6 == 0))
        assert report.agree
        assert report.all_consistent


def test_forced_rank_loops_terminate():
    rng = random.Random(555)
    for _ in range(10):
        loop = random_loop(rng, force_rank=True)
        assert ms_analyze(loop).status is TerminationStatus.TERMINATING


def test_random_loop_row_budget_respected():
    rng = random.Random(77)
    for i in range(30):
        loop = random_loop(rng, max_rows=8, force_rank=(i % 2 == 0), guarded=(i % 3 == 0))
        assert len(loop_system(loop).rows) <= 8


def test_projection_keeps_the_row_that_rules_out_a_false_ranking_function(seed207_loop):
    assert cross_check(seed207_loop).spaces_equivalent is True
    assert not ms_decreasing_space(seed207_loop).contains((0, 2, 8))

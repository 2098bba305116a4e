"""Each engine's decision LP is its multiplier system as `find_point` lays
it out.

`ms_analyze`, `pr_analyze` and `pr_alt_analyze` solve an `LpProblem` built
straight off the loop's matrices; projection and the reference checks use
the `ConstraintSystem` builders.  Both are packagings of one row generator
per engine, and this test keeps them equal: on the witness-golden loops and
on the loops of acceptance criteria 4 and 5, the decision LP must equal
`_lp_rows` applied to the builder's system (strict row normalized to
<= -1): the same signs, then the same rows in the same order, by value.
"""

from __future__ import annotations

import random

from linrank.constraints import loop_system, to_leq_matrix
from linrank.equivalence import random_loop
from linrank.ms import _ms_lp, conjoined_ms_system
from linrank.pr import _pr_alt_lp, _pr_lp, build_pr_alt_system, build_pr_system
from linrank.simplex import LpProblem, _lp_rows
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

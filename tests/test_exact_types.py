"""Public values are Fractions, whatever the engines compute in.

The engines build their multiplier rows from an integer view of the loop's
matrix, so ints run through every LP.  What they hand back must still be
`Fraction`s: the goldens compare `str()`, which cannot tell 3 from
`Fraction(3)`, so these tests check `type(v) is Fraction` on every witness
field, certificate entry, matrix-form entry, builder row, space row and
`find_point` coordinate.  Verdicts, witnesses, matrix forms and builders
are checked on the golden loop files, the witness golden's loops and the
fraction golden's scaled loops; spaces on the golden loop files and the
fraction golden's loops, whose sizes keep projection fast.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from linrank.constraints import loop_system, to_geq_matrix, to_leq_matrix, to_leq_rows
from linrank.ms import (
    UnsatisfiableLoopError,
    build_ms_systems,
    ms_analyze,
    ms_bounded_space,
    ms_decreasing_space,
    ms_space,
    svg_analyze,
    svg_space,
)
from linrank.pr import (
    build_pr_system,
    pr_alt_analyze,
    pr_alt_space,
    pr_analyze,
    pr_space,
)
from linrank.simplex import find_point
from tests import test_fraction_golden, test_witness_golden
from tests.conftest import LOOPS_DIR, load_loop

GOLDEN_FILES = sorted(path.name for path in LOOPS_DIR.glob("*.loop"))


def _not_fractions(values) -> list:
    return [v for v in values if type(v) is not Fraction]


def _rows_not_fractions(system) -> list:
    return [v for row in system.rows for v in _not_fractions(row.coeffs + (row.const,))]


def _verdict_values(verdict) -> list:
    f = verdict.witness
    if f is None:
        return []
    values = [f.mu0, *f.mu, f.delta, f.lower_bound]
    for part in f.certificate or ():
        values.extend(part)
    return values


def _answer_values(loop) -> list:
    """Every public value of the verdicts, matrix forms, builders and the
    loop body's point."""
    c = loop_system(loop)
    values = []
    verdicts = [ms_analyze(loop), pr_analyze(loop), svg_analyze(c)]
    if loop.is_guarded:
        verdicts.append(pr_alt_analyze(loop))
    for verdict in verdicts:
        values.extend(_verdict_values(verdict))
    m = to_leq_matrix(c, loop.space)
    for row in m.a + m.a_prime + (m.b,):
        values.extend(row)
    a_c, b_c = to_geq_matrix(c)
    rows, consts = to_leq_rows(c)
    for row in a_c + (b_c,) + rows + (consts,):
        values.extend(row)
    point = find_point(c)
    values.extend(point or ())
    for system in [*build_ms_systems(c), build_pr_system(m)]:
        values.extend(v for row in system.rows for v in row.coeffs + (row.const,))
    return _not_fractions(values)


def _space_values(loop) -> list:
    spaces = [ms_space, ms_decreasing_space, ms_bounded_space, pr_space]
    if loop.is_guarded:
        spaces.append(pr_alt_space)
    values = []
    for space in spaces:
        try:
            system = space(loop).constraints
        except UnsatisfiableLoopError:
            continue
        values.extend(_rows_not_fractions(system))
        values.extend(_not_fractions(find_point(system) or ()))
    try:
        values.extend(_rows_not_fractions(svg_space(loop_system(loop)).constraints))
    except UnsatisfiableLoopError:
        pass
    return values


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_loop_values_are_fractions(name):
    loop = load_loop(name)
    assert _answer_values(loop) == []
    assert _space_values(loop) == []


def test_witness_golden_values_are_fractions():
    find_point.cache_clear()
    loops = test_witness_golden.golden_loops()
    wrong = {i: found for i, loop in enumerate(loops) if (found := _answer_values(loop))}
    assert not wrong, f"non-Fraction values on {len(wrong)} loops: {wrong}"


def test_fraction_golden_values_are_fractions():
    find_point.cache_clear()
    loops = test_fraction_golden.golden_loops()
    wrong = {
        i: found for i, loop in enumerate(loops) if (found := _answer_values(loop) + _space_values(loop))
    }
    assert not wrong, f"non-Fraction values on {len(wrong)} loops: {wrong}"

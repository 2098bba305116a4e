import random
from fractions import Fraction

import pytest

from linrank.constraints import constraint, system
from linrank.simplex import (
    FREE,
    NONNEG,
    LpProblem,
    LpShapeError,
    LpStatus,
    dual,
    find_point,
    lp,
    satisfiable,
    solve,
    to_standard_form,
)
from tests.oracles import optimize


def check_rows(p: LpProblem, point) -> bool:
    for coeffs, rel, rhs in p.rows:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "=" and not lhs == rhs:
            return False
    for sign, x in zip(p.signs, point):
        if sign == NONNEG and x < 0:
            return False
    return True


def test_min_with_lower_bound():
    p = lp([1], False, [([1], ">=", 3)], [FREE])
    out = solve(p)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 3 and out.point == (Fraction(3),)


def test_max_unbounded_with_certificate():
    p = lp([1], True, [([1], ">=", 0)], [FREE])
    out = solve(p)
    assert out.status is LpStatus.UNBOUNDED
    assert check_rows(p, out.point)
    # moving along the ray stays feasible and strictly improves
    stepped = [x + 10 * r for x, r in zip(out.point, out.ray)]
    assert check_rows(p, stepped)
    assert sum(c * r for c, r in zip(p.objective, out.ray)) > 0


def test_infeasible_interval():
    p = lp(None, False, [([1], "<=", 0), ([1], ">=", 1)], [FREE])
    assert solve(p).status is LpStatus.INFEASIBLE


def test_feasibility_without_objective_returns_point():
    p = lp(None, False, [([1, 1], "=", 4), ([1, -1], ">=", 0)], [NONNEG, NONNEG])
    out = solve(p)
    assert out.status is LpStatus.FEASIBLE
    assert check_rows(p, out.point)


def test_standard_form_is_fixpoint_on_equality_problems():
    p = lp([1, 2], False, [([1, 1], "=", 3)], [NONNEG, NONNEG])
    std, vmap = to_standard_form(p)
    assert std.rows == p.rows
    assert std.signs == p.signs
    assert std.objective == p.objective
    assert vmap.recover((Fraction(1), Fraction(2))) == (Fraction(1), Fraction(2))


def test_standard_form_splits_free_and_adds_slack():
    p = lp([1], True, [([1], "<=", 5)], [FREE])
    std, vmap = to_standard_form(p)
    assert std.n_vars == 3  # x+, x-, slack
    assert len(std.rows) == 1 and std.rows[0][1] == "="
    assert all(s == NONNEG for s in std.signs)
    assert vmap.recover((Fraction(7), Fraction(2), Fraction(0))) == (Fraction(5),)
    # maximization became minimization of the negated objective
    assert std.objective[0] == -1


def test_standard_form_counts_for_worked_instance(log2_clp_loop):
    # The final multiplier system of the recursive log clause: m=5 dual
    # variables, n=2 coefficient variables, all nonnegative; 2n homogeneous
    # <= rows plus the decrease row.  Standard form must add exactly one
    # slack per inequality: 5 equalities over (5+2) + 5 = 12 variables.
    from linrank.ms import build_svg_system

    sys_rows = build_svg_system(log2_clp_loop.single)
    ineq_rows = [r for r in sys_rows.rows if not (r.rel == ">=" and r.const == 0 and sum(1 for c in r.coeffs if c != 0) == 1)]
    assert len(ineq_rows) == 5  # 2n homogeneous rows + decrease row
    p = lp(
        None,
        False,
        [(r.as_le().coeffs, r.as_le().rel, r.as_le().const) for r in ineq_rows],
        [NONNEG] * 7,
    )
    std, _ = to_standard_form(p)
    assert len(std.rows) == 5
    assert std.n_vars == 12


def test_dual_of_min_geq_shape():
    p = lp([1], False, [([1], ">=", 1)], [NONNEG])
    d = dual(p)
    assert d.maximize and d.objective == (Fraction(1),)
    assert d.rows == (((Fraction(1),), "<=", Fraction(1)),)
    assert d.signs == (NONNEG,)


def test_dual_of_recursive_log_clause_golden(log2_clp_loop):
    from linrank.constraints import to_geq_matrix

    a_c, b_c = to_geq_matrix(log2_clp_loop.single)
    mu = (Fraction(1), Fraction(3))
    objective = [mu[0], mu[1], -mu[0], -mu[1]]
    primal = lp(
        objective,
        False,
        [(row, ">=", k) for row, k in zip(a_c, b_c)],
        [NONNEG] * 4,
    )
    d = dual(primal)
    assert d.maximize
    # the split equality x2 - x2' = 1 gives its >= row last
    assert d.objective == (Fraction(2), Fraction(-1), Fraction(0), Fraction(-1), Fraction(1))
    expected_transpose = (
        (1, -1, 1, 0, 0),
        (0, 0, 0, -1, 1),
        (0, 2, -2, 0, 0),
        (0, 0, 0, 1, -1),
    )
    for row, expected, bound in zip(d.rows, expected_transpose, (mu[0], mu[1], -mu[0], -mu[1])):
        assert row[0] == tuple(Fraction(v) for v in expected)
        assert row[1] == "<="
        assert row[2] == bound
    assert all(s == NONNEG for s in d.signs)


def test_free_primal_variables_become_dual_equalities():
    p = lp([1, 0], False, [([1, 1], ">=", 1), ([1, -1], ">=", 0)], [FREE, NONNEG])
    d = dual(p)
    assert d.rows[0][1] == "="
    assert d.rows[1][1] == "<="


def test_dual_rejects_unsupported_shape():
    p = lp([1], False, [([1], "<=", 1)], [NONNEG])
    with pytest.raises(LpShapeError):
        dual(p)


def _random_bounded_min_problem(rng):
    """min c.x, A x >= b, x >= 0 with c >= 0 (bounded) and b priced off a
    nonnegative feasible point."""
    d = rng.randint(1, 4)
    m = rng.randint(1, 5)
    x0 = [Fraction(rng.randint(0, 4)) for _ in range(d)]
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
        lhs = sum(c * x for c, x in zip(coeffs, x0))
        rows.append((coeffs, ">=", lhs - rng.randint(0, 3)))
    c = [Fraction(rng.randint(0, 4)) for _ in range(d)]
    return lp(c, False, rows, [NONNEG] * d)


def test_strong_duality_on_random_problems():
    rng = random.Random(123)
    for _ in range(100):
        p = _random_bounded_min_problem(rng)
        primal = solve(p)
        assert primal.status is LpStatus.OPTIMAL
        assert check_rows(p, primal.point)
        d = dual(p)
        dual_out = solve(d)
        assert dual_out.status is LpStatus.OPTIMAL
        assert check_rows(d, dual_out.point)
        assert primal.value == dual_out.value


def test_double_dual_has_same_value():
    rng = random.Random(321)
    for _ in range(30):
        p = _random_bounded_min_problem(rng)
        dd = dual(dual(p))
        a, b = solve(p), solve(dd)
        assert a.status is LpStatus.OPTIMAL and b.status is LpStatus.OPTIMAL
        assert a.value == b.value


def test_degenerate_cycling_instance_terminates():
    # The classic degenerate instance that cycles under naive pivoting.
    p = lp(
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        False,
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        [NONNEG] * 4,
    )
    out = solve(p)
    assert out.status is LpStatus.OPTIMAL
    assert check_rows(p, out.point)
    # hand-checkable feasible point of the same value, plus a matching
    # bound from the dual: together they certify optimality exactly
    hand = (Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0))
    assert check_rows(p, hand)
    assert out.value == Fraction(-3, 4) * hand[0] + Fraction(-1, 50) * hand[2]
    geq_form = lp(
        p.objective,
        False,
        [(tuple(-c for c in coeffs), ">=", -rhs) for coeffs, _, rhs in p.rows],
        p.signs,
    )
    dual_out = solve(dual(geq_form))
    assert dual_out.status is LpStatus.OPTIMAL
    assert dual_out.value == out.value == Fraction(-1, 20)


def test_strict_feasible_point_examples():
    c1 = system(("x",), [constraint((1,), "<", 0)])
    p1 = find_point(c1)
    assert p1 is not None and p1[0] < 0

    c2 = system(("x",), [constraint((1,), "<", 0), constraint((1,), ">", 0)])
    assert find_point(c2) is None


def test_strict_feasible_point_on_multiplier_system(log2_loop):
    from linrank.constraints import loop_system, to_leq_matrix
    from linrank.pr import build_pr_system

    m = to_leq_matrix(loop_system(log2_loop), log2_loop.space)
    sys_rows = build_pr_system(m)
    point = find_point(sys_rows)
    assert point is not None
    assert sys_rows.satisfied_by(point)
    # a known admissible multiplier pair
    known = (2, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
    assert sys_rows.satisfied_by([Fraction(v) for v in known])


def test_optimize_and_satisfiable_bridge():
    c = system(
        ("x", "y"),
        [constraint((1, 0), ">=", 0), constraint((0, 1), ">=", 0), constraint((1, 1), "<=", 4)],
    )
    assert satisfiable(c)
    out = optimize(c, [1, 1], maximize=True)
    assert out.status is LpStatus.OPTIMAL and out.value == 4
    assert find_point(c) is not None

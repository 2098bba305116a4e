import random
from fractions import Fraction

import pytest

from linrank.simplex import (
    FREE,
    NONNEG,
    LpProblem,
    LpShapeError,
    LpStatus,
    _lp_rows,
    _point,
    find_point,
    lp,
    satisfiable,
    solve,
)
from tests.oracles import constraint, dual, optimize, shared_slack_point, system


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
    # no rows at all: the origin, with one coordinate per variable
    out = solve(lp(None, False, [], [NONNEG, FREE]))
    assert out.status is LpStatus.FEASIBLE
    assert out.point == (Fraction(0), Fraction(0))


@pytest.mark.parametrize(
    "maximize, sign, status, ray",
    [
        (False, NONNEG, LpStatus.OPTIMAL, None),
        (True, NONNEG, LpStatus.UNBOUNDED, (Fraction(1),)),
        (False, FREE, LpStatus.UNBOUNDED, (Fraction(-1),)),
        (True, FREE, LpStatus.UNBOUNDED, (Fraction(1),)),
    ],
)
def test_objective_without_rows(maximize, sign, status, ray):
    out = solve(lp([2], maximize, [], [sign]))
    assert out.status is status
    assert out.point == (Fraction(0),)
    assert out.ray == ray
    assert out.value == (Fraction(0) if status is LpStatus.OPTIMAL else None)


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


def test_lp_rows_tightens_strict_rows_of_homogeneous_systems_only(monkeypatch):
    """A homogeneous strict row is tightened to <= -1 as it is; a system
    with a strict row and a nonzero constant is first made homogeneous by
    `_point`, over a last column t > 0, and its point is x / t."""
    from linrank import simplex

    asked = []
    original = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda p: asked.append(p) or original(p))

    strict = ((Fraction(1), Fraction(-1)), "<", Fraction(0))
    signs, rows = _lp_rows([strict, ((Fraction(1), Fraction(1)), "=", 0)], (FREE, FREE))
    assert signs == (FREE, FREE)
    assert rows == (((1, -1), "<=", -1), ((1, 1), "=", 0))

    # 0 < x < 1/2: rows -x <= -1 and x - t/2 <= -1, and t >= 1 for t > 0
    point = _point([((1,), ">", 0), ((1,), "<", Fraction(1, 2))], (FREE,))
    assert [(p.rows, p.signs) for p in asked] == [
        (
            (((-1, 0), "<=", -1), ((1, Fraction(-1, 2)), "<=", -1), ((0, -1), "<=", -1)),
            (FREE, NONNEG),
        )
    ]
    assert len(point) == 1 and 0 < point[0] < Fraction(1, 2)
    assert all(type(v) is Fraction for v in point)

    # x > 0 and x < 0 with a constant elsewhere: homogenized, then infeasible
    asked.clear()
    rows = [((1,), ">", 0), ((1,), "<", 0), ((1,), "<=", 3)]
    assert _point(rows, (FREE,)) is None
    assert len(asked) == 1 and asked[0].signs == (FREE, NONNEG)
    # without a constant the same strict rows are tightened as they are
    asked.clear()
    assert _point(rows[:2], (FREE,)) is None
    assert [p.rows for p in asked] == [(((-1,), "<=", -1), ((1,), "<=", -1))]


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


def test_satisfiable_answers_strict_systems_from_one_lp(monkeypatch):
    """`satisfiable` and `find_point` decide a strict system by one
    feasibility LP, whatever its constants; they always agree."""
    from linrank import simplex
    from tests.test_simplex_golden import N_SYSTEMS, _system_case

    outcomes = []
    original = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda p: outcomes.append(original(p)) or outcomes[-1])

    def answers(c):
        outcomes.clear()
        find_point.cache_clear()
        answer = satisfiable(c)
        asked = list(outcomes)
        find_point.cache_clear()
        assert answer == (find_point(c) is not None), c.render()
        assert outcomes[len(asked):] == asked
        return asked

    # strict rows whose solutions run off along a ray: still one LP
    unbounded = system(("x", "y"), [constraint((1, -1), "<", 0), constraint((1, 0), ">=", 1)])
    assert [out.status for out in answers(unbounded)] == [LpStatus.FEASIBLE]

    # the golden's strict systems, and as many again from further seeds
    statuses = set()
    for seed in range(2 * N_SYSTEMS):
        asked = answers(_system_case(seed))
        assert len(asked) <= 1
        statuses.update(out.status for out in asked)
    assert statuses == {LpStatus.FEASIBLE, LpStatus.INFEASIBLE}


def test_find_point_agrees_with_the_shared_slack_reference():
    """On the simplex golden's systems and 500 further seeds, `find_point`
    finds a point exactly when the shared-slack reference does; each point
    satisfies its system, strict rows strictly, in Fraction coordinates;
    and `satisfiable` agrees with `find_point`."""
    from tests.test_simplex_golden import N_SYSTEMS, _system_case

    found = 0
    for seed in range(N_SYSTEMS + 500):
        c = _system_case(seed)
        point = find_point(c)
        assert (point is None) == (shared_slack_point(c) is None), seed
        assert satisfiable(c) == (point is not None), seed
        if point is not None:
            found += 1
            assert c.satisfied_by(point), seed
            assert all(type(v) is Fraction for v in point), seed
    assert 0 < found < N_SYSTEMS + 500
    find_point.cache_clear()


@pytest.mark.parametrize("value", (0.1, 0.5, "0.5", "1e3"))
def test_lp_rejects_inexact_values(value):
    cases = (([value], []), (None, [([value], "<=", 1)]), (None, [([1], "<=", value)]))
    for objective, rows in cases:
        with pytest.raises(LpShapeError):
            lp(objective, False, rows, [FREE])
        # an LpProblem keeps its values as given; solve rejects them alike
        hand_built = LpProblem(objective, False, tuple(rows), (FREE,))
        with pytest.raises(LpShapeError):
            solve(hand_built)
    exact = lp(["1/2"], False, [([True], ">=", Fraction(1, 3))], [FREE])
    assert exact.objective == (Fraction(1, 2),)


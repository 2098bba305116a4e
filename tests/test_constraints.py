import random
from fractions import Fraction

import pytest

from linrank import parse_loop
from linrank.constraints import (
    RELATIONS,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
    VarSpace,
    loop_system,
    merge_guarded,
    to_geq_matrix,
    to_leq_matrix,
)
from linrank.ms import RankingFunction, build_ms_systems
from linrank.projection import remove_redundant
from linrank.simplex import find_point, satisfiable
from tests.oracles import constraint, geq_satisfied_by, leq_satisfied_by, system


def cs(variables, rows):
    return system(variables, [constraint(c, rel, k) for c, rel, k in rows])


def test_leq_matrix_of_countdown():
    space = VarSpace(("x",))
    c = cs(("x", "x'"), [((1, 0), ">=", 0), ((-1, 1), "=", -1)])
    m = to_leq_matrix(c, space)
    assert m.a == ((-1,), (-1,), (1,))
    assert m.a_prime == ((0,), (1,), (-1,))
    assert m.b == (0, -1, 1)


def test_leq_matrix_agrees_with_source_on_random_points():
    rng = random.Random(5)
    space = VarSpace(("x", "y"))
    c = cs(
        ("x", "y", "x'", "y'"),
        [
            ((1, 2, 0, 0), ">=", 1),
            ((0, 1, -1, 0), "<=", 3),
            ((1, 0, 0, -2), "=", 0),
        ],
    )
    m = to_leq_matrix(c, space)
    geq = to_geq_matrix(c)
    for _ in range(100):
        p = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        direct = c.satisfied_by(p)
        assert direct == leq_satisfied_by(m, p[:2], p[2:])
        assert direct == geq_satisfied_by(geq, p)


def test_matrix_forms_agree_on_random_systems():
    from linrank.equivalence import random_loop

    rng = random.Random(29)
    for i in range(10):
        loop = random_loop(rng, force_rank=(i % 2 == 0))
        c = loop_system(loop)
        n = loop.space.n
        m = to_leq_matrix(c, loop.space)
        geq = to_geq_matrix(c)
        for _ in range(100):
            p = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(2 * n)]
            direct = c.satisfied_by(p)
            assert direct == leq_satisfied_by(m, p[:n], p[n:])
            assert direct == geq_satisfied_by(geq, p)


def test_leq_matrix_of_log2_matches_golden_rows():
    # The six inequality rows of the base-2 log loop, in the fixed order
    # and orientation the multiplier tests rely on.
    space = VarSpace(("x1", "x2"))
    c = cs(
        ("x1", "x2", "x1'", "x2'"),
        [
            ((1, 0, 0, 0), ">=", 2),
            ((-1, 0, 2, 0), "<=", 0),
            ((1, 0, -2, 0), "<=", 1),
            ((0, -1, 0, 1), ">=", 1),
            ((0, -1, 0, 1), "<=", 1),
            ((0, 0, 0, 1), ">=", 1),
        ],
    )
    m = to_leq_matrix(c, space)
    assert m.a == ((-1, 0), (-1, 0), (1, 0), (0, 1), (0, -1), (0, 0))
    assert m.a_prime == ((0, 0), (2, 0), (-2, 0), (0, -1), (0, 1), (0, -1))
    assert m.b == (-2, 0, 1, -1, 1, -1)


def test_leq_matrix_empty_system():
    space = VarSpace(("x",))
    m = to_leq_matrix(system(("x", "x'"), []), space)
    assert m.n_rows == 0 and m.n_vars == 1


def test_geq_matrix_single_row():
    c = cs(("x", "x'"), [((1, 0), ">=", 0)])
    assert to_geq_matrix(c) == (((1, 0),), (0,))


def test_geq_matrix_of_recursive_log_clause_golden(log2_clp_loop):
    # the split equality x2 - x2' = 1 gives its >= row last
    a_c, b_c = to_geq_matrix(log2_clp_loop.single)
    assert a_c == (
        (1, 0, 0, 0),
        (-1, 0, 2, 0),
        (1, 0, -2, 0),
        (0, -1, 0, 1),
        (0, 1, 0, -1),
    )
    assert b_c == (2, -1, 0, -1, 1)


def test_geq_matrix_equality_split():
    c = cs(("x", "x'"), [((1, 0), "=", 2)])
    assert to_geq_matrix(c) == (((-1, 0), (1, 0)), (-2, 2))


def test_matrix_forms_reject_strict_rows():
    c = cs(("x", "x'"), [((1, 0), "<", 1)])
    with pytest.raises(ConstraintError):
        to_geq_matrix(c)
    with pytest.raises(ConstraintError):
        to_leq_matrix(c, VarSpace(("x",)))


def test_merge_guarded_concatenates():
    space = VarSpace(("x",))
    loop = LoopModel(
        space,
        guard=cs(("x",), [((1,), ">=", 2)]),
        update=cs(("x", "x'"), [((1, -1), ">=", 1)]),
    )
    merged = merge_guarded(loop)
    assert merged.rows[0] == constraint((1, 0), ">=", 2)
    assert merged.rows[1] == constraint((1, -1), ">=", 1)


def test_merge_guarded_of_log2_matches_single_form(log2_loop):
    merged = merge_guarded(log2_loop)
    assert merged.n_rows == 5
    single = parse_loop(
        "vars: x1 x2\n"
        "single: x1 >= 2, 2*x1' <= x1, 2*x1' + 1 >= x1, x2' = x2 + 1, x2' >= 1\n"
    ).single
    assert merged == single


def test_merge_guarded_empty_update():
    space = VarSpace(("x",))
    loop = LoopModel(
        space,
        guard=cs(("x",), [((1,), ">=", 0)]),
        update=cs(("x", "x'"), []),
    )
    merged = merge_guarded(loop)
    assert merged.n_rows == 1 and merged.variables == ("x", "x'")


def test_merge_guarded_preserves_solutions():
    rng = random.Random(11)
    space = VarSpace(("a", "b"))
    guard = cs(("a", "b"), [((1, 1), ">=", 0), ((2, -1), "<=", 4)])
    update = cs(
        ("a", "b", "a'", "b'"),
        [((1, 0, -1, 0), ">=", 1), ((0, 1, 0, -1), "=", 0)],
    )
    loop = LoopModel(space, guard=guard, update=update)
    merged = merge_guarded(loop)
    for _ in range(100):
        p = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        separately = guard.satisfied_by(p[:2]) and update.satisfied_by(p)
        assert merged.satisfied_by(p) == separately


def test_satisfiability_examples(log2_loop):
    assert not satisfiable(cs(("x",), [((1,), ">=", 1), ((1,), "<=", 0)]))
    merged = loop_system(log2_loop)
    # exhibit a point and check it, then agree with the decision procedure
    point = [Fraction(2), Fraction(0), Fraction(1), Fraction(1)]
    assert merged.satisfied_by(point)
    assert satisfiable(merged)
    assert satisfiable(system(("x",), []))


def test_guard_must_be_unprimed():
    space = VarSpace(("x",))
    with pytest.raises(ConstraintError):
        LoopModel(
            space,
            guard=cs(("x", "x'"), [((1, 0), ">=", 0)]),
            update=cs(("x", "x'"), []),
        )


def test_varspace_validation():
    with pytest.raises(ConstraintError):
        VarSpace(())
    with pytest.raises(ConstraintError):
        VarSpace(("x", "x"))
    with pytest.raises(ConstraintError):
        VarSpace(("x'",))


def test_row_dimension_validation():
    with pytest.raises(ConstraintError):
        system(("x",), [constraint((1, 2), "<=", 0)])
    with pytest.raises(ConstraintError):
        LinConstraint((Fraction(1),), "!!", Fraction(0))
    with pytest.raises(ConstraintError):
        LeqMatrixForm(((1, 2),), ((3,),), (0,), 2)
    with pytest.raises(ConstraintError):
        LeqMatrixForm(((1,),), ((3,),), (0, 1), 1)


def test_row_values_are_stored_as_fractions():
    row = LinConstraint((1, "1/2", True), ">=", 0)
    assert [type(v) for v in row.coeffs + (row.const,)] == [Fraction] * 4
    assert row.coeffs == (1, Fraction(1, 2), 1)
    half = Fraction(1, 2)
    kept = LinConstraint((half,), "<", half)
    assert kept.coeffs[0] is half and kept.const is half


@pytest.mark.parametrize("value", (0.1, 0.5, "0.5", "1e3", " 1.0 "))
def test_inexact_row_values_are_rejected(value):
    with pytest.raises(ConstraintError):
        LinConstraint((value,), "<=", 1)
    with pytest.raises(ConstraintError):
        LinConstraint((1,), "<=", value)


@pytest.mark.parametrize("value", (0.1, 0.5, "0.5", "1e3", " 1.0 "))
def test_inexact_point_values_are_rejected(value):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, which
    # exceeds 1/10: taken as it is, the point would miss the row.
    row = LinConstraint((1,), "<=", Fraction(1, 10))
    assert row.satisfied_by((Fraction(1, 10),)) and row.satisfied_by(("1/10",))
    with pytest.raises(ConstraintError):
        row.satisfied_by((value,))
    f = RankingFunction(Fraction(0), (Fraction(1),), Fraction(1), Fraction(0))
    assert f.value_at(("1/10",)) == Fraction(1, 10)
    with pytest.raises(ValueError):
        f.value_at((value,))


@pytest.mark.parametrize("rel", RELATIONS)
@pytest.mark.parametrize("const", (-1, 0, 1))
def test_origin_tests_agree_with_satisfied_by(rel, const):
    for coeffs in ((0, 0), (1, -2)):
        row = LinConstraint(coeffs, rel, const)
        at_origin = row.satisfied_by((0, 0))
        assert row.holds_at_zero() == at_origin
        # A ground row is dropped when the origin satisfies it and empties
        # the system when it does not; any other single row is kept.
        kept = remove_redundant(ConstraintSystem(("x", "y"), (row,))).rows
        if any(coeffs):
            assert len(kept) == 1
        else:
            assert kept == (() if at_origin else (LinConstraint((0, 0), "<", 0),))
        if at_origin:
            assert find_point(ConstraintSystem(("x", "y"), (row,))) == (0, 0)


def test_satisfiable_answers_an_origin_system_before_the_memo():
    """A system the origin satisfies, strict rows and all, is satisfiable
    without a memo lookup; find_point still finds the origin.  Every MS
    boundedness system is one."""
    countdown = loop_system(parse_loop("vars: x\nsingle: x >= 0, x' = x - 1"))
    origin_systems = [
        cs(("x", "y"), [((1, -1), ">=", 0), ((1, 1), "=", 0), ((2, 3), "<", 5)]),
        cs(("x", "y", "z"), [((0, 1, -1), "<=", 0), ((1, 0, 0), ">=", 0), ((1, 1, 1), ">", -1)]),
        build_ms_systems(countdown)[1],
    ]
    find_point.cache_clear()
    for c in origin_systems:
        before = find_point.cache_info()
        assert satisfiable(c)
        assert find_point.cache_info() == before
        assert find_point(c) == (0,) * c.n_vars
    find_point.cache_clear()


def test_find_point_memo_hits_on_an_equal_but_distinct_system():
    first = cs(("x", "y"), [((1, "1/3"), ">=", 2), ((1, -1), "<", 0)])
    second = ConstraintSystem(
        ("x", "y"),
        (
            LinConstraint((Fraction(3, 3), Fraction(2, 6)), ">=", Fraction(2)),
            LinConstraint(("1", "-1"), "<", "0/7"),
        ),
    )
    assert second is not first and second == first
    find_point.cache_clear()
    point = find_point(first)
    assert find_point(second) is point
    assert find_point.cache_info().hits == 1 and find_point.cache_info().misses == 1
    find_point.cache_clear()

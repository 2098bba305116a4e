import random
from fractions import Fraction

import pytest

from linrank import parse_loop
from linrank.constraints import (
    ConstraintError,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
    VarSpace,
    constraint,
    loop_system,
    merge_guarded,
    system,
    to_geq_matrix,
    to_leq_matrix,
)
from linrank.simplex import satisfiable
from tests.oracles import geq_satisfied_by, leq_satisfied_by


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

import random
from fractions import Fraction

import pytest

from linrank.constraints import ConstraintError
from linrank.projection import (
    eliminate,
    entails,
    equivalent,
    project,
    remove_redundant,
)
from linrank.simplex import satisfiable
from tests.conftest import sample_points
from tests.oracles import constraint, system


def cs(variables, rows):
    return system(variables, [constraint(c, rel, k) for c, rel, k in rows])


def test_eliminate_pairs_opposite_rows():
    c = cs(("x", "y"), [((1, 1), "<=", 4), ((1, -1), "<=", 2)])
    out = eliminate(c, "y")
    assert out.variables == ("x",)
    assert equivalent(out, cs(("x",), [((2,), "<=", 6)]))


def test_eliminate_one_sided_bound_vanishes():
    c = cs(("x", "y"), [((0, 1), ">=", 0)])
    out = eliminate(c, "y")
    assert out.variables == ("x",)
    assert out.n_rows == 0


def test_eliminate_propagates_strictness():
    c = cs(("x", "y"), [((1, -1), "<", 0), ((0, 1), "<=", 3)])
    out = eliminate(c, "y")
    assert equivalent(out, cs(("x",), [((1,), "<", 3)]))
    assert any(row.is_strict for row in out.rows)


def test_eliminate_uses_equalities_as_substitutions():
    c = cs(("x", "y", "z"), [((1, -1, 0), "=", 0), ((0, 1, -1), "=", 0)])
    out = project(c, ("x", "z"))
    assert equivalent(out, cs(("x", "z"), [((1, -1), "=", 0)]))


def test_project_onto_all_variables_just_prunes():
    c = cs(("x",), [((1,), ">=", 0), ((1,), ">=", -1)])
    out = project(c, ("x",))
    assert equivalent(out, remove_redundant(c))
    assert out.n_rows == 1


def test_project_of_infeasible_system_is_empty():
    c = cs(("x", "y"), [((1, 0), ">=", 1), ((1, 0), "<=", 0)])
    out = project(c, ("y",))
    assert not satisfiable(out)


def test_entails_examples():
    c = cs(("x",), [((1,), ">=", 2)])
    assert entails(c, constraint((1,), ">=", 0))
    assert not entails(c, constraint((1,), ">=", 3))


def test_entails_requires_satisfiable_premise():
    c = cs(("x",), [((1,), ">=", 1), ((1,), "<=", 0)])
    with pytest.raises(ConstraintError):
        entails(c, constraint((1,), ">=", 0))


def test_entails_from_projected_space(log2_loop):
    from linrank.ms import ms_space

    space = ms_space(log2_loop).constraints
    # mu1 >= 1 follows from mu1 - mu2 >= 1 and mu2 >= 0
    assert entails(space, constraint((0, 1, 0), ">=", 1))
    assert not entails(space, constraint((0, 0, 1), ">=", 1))


def test_infeasible_system_reduces_to_zero_less_than_zero():
    false_row = constraint((0,), "<", 0)
    for rows in (
        [((1, -1), ">=", 1), ((-1, 1), ">=", 0)],  # y eliminates to 0 >= 1
        [((1, 2), "<=", 0), ((-1, -2), "<=", -1), ((1, 0), ">=", 0)],
        [((1, 1), "=", 1), ((2, 2), "=", 3)],
    ):
        assert eliminate(cs(("x", "y"), rows), "y").rows == (false_row,)
    for rows in ([((1,), ">=", 0), ((0,), ">=", 1)], [((0,), "<=", -1)]):
        assert remove_redundant(cs(("x",), rows)).rows == (false_row,)


def test_remove_redundant_examples():
    c = cs(("x",), [((1,), ">=", 0), ((1,), ">=", -1)])
    out = remove_redundant(c)
    assert out.n_rows == 1 and out.rows[0].const == 0

    irredundant = cs(("x", "y"), [((1, 0), ">=", 0), ((0, 1), ">=", 0)])
    assert remove_redundant(irredundant).n_rows == 2


def test_remove_redundant_preserves_equivalence():
    rng = random.Random(17)
    for _ in range(25):
        nv = rng.randint(1, 3)
        names = tuple(f"v{i}" for i in range(nv))
        p = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
            lhs = sum(a * b for a, b in zip(coeffs, p))
            rel = rng.choice(("<=", ">="))
            rows.append((coeffs, rel, lhs + rng.randint(0, 2) if rel == "<=" else lhs - rng.randint(0, 2)))
        c = cs(names, rows)
        pruned = remove_redundant(c)
        assert equivalent(c, pruned)


def test_equivalent_examples():
    interval = cs(("x",), [((1,), ">=", 0), ((1,), "<=", 0)])
    point = cs(("x",), [((1,), "=", 0)])
    assert equivalent(interval, point)

    closed = cs(("x",), [((1,), ">=", 0)])
    open_ = cs(("x",), [((1,), ">", 0)])
    assert not equivalent(closed, open_)


def test_equivalent_detects_strict_face_differences():
    a = cs(("x", "y"), [((1, 0), ">", 0), ((0, 1), ">=", 0)])
    b = cs(("x", "y"), [((1, 0), ">", 0), ((0, 1), ">", 0)])
    assert not equivalent(a, b)
    assert equivalent(a, cs(("x", "y"), [((0, 1), ">=", 0), ((1, 0), ">", 0)]))


def test_equivalent_empty_sets():
    empty1 = cs(("x",), [((1,), "<", 0), ((1,), ">", 0)])
    empty2 = cs(("x",), [((1,), ">=", 1), ((1,), "<=", 0)])
    assert equivalent(empty1, empty2)
    assert not equivalent(empty1, cs(("x",), [((1,), ">=", 0)]))


def test_elimination_order_insensitive():
    rng = random.Random(23)
    for _ in range(10):
        names = ("a", "b", "c")
        p = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        rows = []
        for _ in range(rng.randint(2, 5)):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            lhs = sum(x * y for x, y in zip(coeffs, p))
            rows.append((coeffs, "<=", lhs + rng.randint(0, 2)))
        c = cs(names, rows)
        ab = eliminate(eliminate(c, "b"), "c")
        ba = eliminate(eliminate(c, "c"), "b")
        assert equivalent(ab, ba)


def _random_system(rng, nv=None):
    nv = nv or rng.randint(2, 4)
    names = tuple(f"v{i}" for i in range(nv))
    p = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(2, 6)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
        lhs = sum(a * b for a, b in zip(coeffs, p))
        kind = rng.random()
        if kind < 0.15:
            rows.append((coeffs, "=", lhs))
        elif kind < 0.6:
            rows.append((coeffs, "<=", lhs + rng.randint(0, 3)))
        else:
            rows.append((coeffs, ">=", lhs - rng.randint(0, 3)))
    return cs(names, rows)


def fm_sampling_check(rng, c, keep):
    """Soundness: solutions of c drop to solutions of the projection.
    Completeness: projection points extend to full solutions of c."""
    projected = project(c, keep)
    keep_idx = [c.variables.index(v) for v in keep]

    for point in sample_points(c, rng, 8):
        assert projected.satisfied_by([point[i] for i in keep_idx])

    for q in sample_points(projected, rng, 8):
        pins = tuple(
            constraint(
                [1 if j == i else 0 for j in range(c.n_vars)], "=", q[k]
            )
            for k, i in enumerate(keep_idx)
        )
        assert satisfiable(c.with_rows(c.rows + pins))


def test_projection_sound_and_complete_sampling():
    rng = random.Random(31)
    for _ in range(30):
        c = _random_system(rng)
        keep = tuple(v for v in c.variables if rng.random() < 0.5) or (c.variables[0],)
        fm_sampling_check(rng, c, keep)

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from linrank import projection
from linrank.constraints import ConstraintError, LinConstraint, loop_system
from linrank.ms import build_ms_systems
from linrank.projection import (
    eliminate,
    entails,
    equivalent,
    project,
    remove_redundant,
)
from linrank.simplex import FREE, NONNEG, LpProblem, LpStatus, satisfiable, solve
from tests.conftest import sample_points
from tests.oracles import (
    constraint,
    entails_by_negation,
    equivalent_by_boundaries,
    remove_redundant_by_negation,
    system,
)


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


def test_entails_strict_faces_and_contract():
    # sup x + y = 1 on both premises; only a strict premise row keeps it unattained
    assert entails(cs(("x", "y"), [((1, 0), "<", 1), ((0, 1), "<=", 0)]), constraint((1, 1), "<", 1))
    assert not entails(cs(("x", "y"), [((1, 0), "<=", 1), ((0, 1), "<=", 0)]), constraint((1, 1), "<", 1))
    # x = (x + y) - y needs a negative multiplier on the equality y = 1
    line = cs(("x", "y"), [((1, 1), "=", 2), ((0, 1), "=", 1)])
    assert entails(line, constraint((1, 0), "=", 1))
    assert not entails(line, constraint((1, 0), "=", 2))
    with pytest.raises(ConstraintError):
        entails(line, constraint((1,), "<=", 1))
    with pytest.raises(ConstraintError):
        entails(cs(("x",), [((1,), "<", 0), ((1,), ">", 0)]), constraint((1,), "<=", 1))


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


_FLIPPED = {"<=": ">=", "<": ">", "=": "=", ">=": "<=", ">": "<"}


def _noncanonical_system(rng):
    """Rows as they come: fractional and 2^64-sized coefficients, every
    relation, negative-lead equalities, parallel duplicates and ground rows."""
    nv = rng.randint(1, 3)
    p = [Fraction(rng.randint(-2, 2)) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            coeffs, rel, const = rows[rng.randrange(len(rows))]
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            rows.append(([v * scale for v in coeffs], rel, const * scale + rng.randint(0, 1)))
        elif kind < 0.25:
            rows.append(([0] * nv, rng.choice(tuple(_FLIPPED)), rng.randint(-1, 1)))
        else:
            big = 2**64 if rng.random() < 0.3 else 1
            coeffs = [Fraction(rng.randint(-3, 3) * big, rng.randint(1, 3)) for _ in range(nv)]
            lhs = sum(a * b for a, b in zip(coeffs, p))
            rel = rng.choice(tuple(_FLIPPED))
            slack = rng.randint(-1, 3)
            const = lhs if rel == "=" else lhs + slack if rel in ("<=", "<") else lhs - slack
            rows.append((coeffs, rel, const))
    return tuple(f"v{i}" for i in range(nv)), rows


def _rescaled(rng, rows):
    """Each row times a positive rational, and re-oriented half the time."""
    out = []
    for coeffs, rel, const in rows:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            scale, rel = -scale, _FLIPPED[rel]
        out.append(([v * scale for v in coeffs], rel, const * scale))
    return out


def assert_canonical(c):
    kinds = set()
    for row in c.rows:
        assert row.rel in ("<=", "<", "=")
        assert type(row.const) is Fraction  # public rows, whatever the internal form
        assert all(v.denominator == 1 for v in row.coeffs)
        if not any(row.coeffs):
            assert c.rows == (constraint((0,) * c.n_vars, "<", 0),)
            continue
        assert gcd(*(v.numerator for v in row.coeffs)) == 1
        if row.rel == "=":
            assert next(v for v in row.coeffs if v) > 0
        key = (row.rel == "=", row.coeffs)
        assert key not in kinds
        kinds.add(key)


def test_projection_output_is_canonical_and_ignores_row_scaling():
    rng = random.Random(59)
    for _ in range(150):
        names, rows = _noncanonical_system(rng)
        c, scaled = cs(names, rows), cs(names, _rescaled(rng, rows))
        keep = tuple(v for v in names if rng.random() < 0.5) or names[-1:]
        pairs = [(eliminate(c, v), eliminate(scaled, v)) for v in names]
        pairs.append((project(c, keep), project(scaled, keep)))
        pairs.append((remove_redundant(c), remove_redundant(scaled)))
        for out, out_scaled in pairs:
            assert out.rows == out_scaled.rows
            assert_canonical(out)


def test_prune_gives_int_and_fraction_rows_the_same_triples():
    """Rows of equal value prune to identical triples whether their
    coefficients are ints or Fractions: coprime int directions, and
    constants that are ints exactly when integral, Fractions otherwise."""
    rng = random.Random(61)
    for _ in range(300):
        nv = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            factor = rng.choice((1, 1, 2, 6, 2**65))
            coeffs = [rng.randint(-4, 4) * factor for _ in range(nv)]
            const = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
            rows.append((coeffs, rng.choice(tuple(_FLIPPED)), const))
        pruned = projection._prune(rows)
        as_fractions = [([Fraction(v) for v in d], rel, b) for d, rel, b in rows]
        assert pruned == projection._prune(as_fractions)
        for direction, rel, const in pruned:
            assert all(type(v) is int for v in direction)
            assert type(const) is (int if const.denominator == 1 else Fraction)


def _upper_bound(row):
    """(coeffs, const) of an inequality row read as  coeffs . x  <=  const."""
    if row.rel in (">=", ">"):
        return tuple(-v for v in row.coeffs), -row.const
    return row.coeffs, row.const


def _candidates(rng, c):
    """Rows to test for entailment: each row of c moved and re-related, and
    the sum of each two consecutive inequalities of c as a <, <= and = row
    at the sum's bound (the strict-face cases)."""
    out = [
        LinConstraint(r.coeffs, rng.choice(tuple(_FLIPPED)), r.const + rng.randint(-1, 1))
        for r in c.rows
    ]
    bounds = [_upper_bound(r) for r in c.rows if r.rel != "="]
    for (d1, b1), (d2, b2) in zip(bounds, bounds[1:]):
        coeffs = tuple(x + y for x, y in zip(d1, d2))
        out.extend(LinConstraint(coeffs, rel, b1 + b2) for rel in ("<", "<=", "="))
    return out


def test_redundancy_and_entailment_match_the_negation_rule():
    """remove_redundant keeps exactly the rows, in the same order, that the
    primal greedy rule keeps, and entails gives the negation-based answer,
    on systems with strict rows, equalities, ground rows, 2^64-sized
    coefficients and infeasible inputs."""
    rng = random.Random(71)
    infeasible = strict = 0
    answers = set()
    for _ in range(320):
        names, rows = _noncanonical_system(rng)
        c = cs(names, rows)
        assert remove_redundant(c).rows == remove_redundant_by_negation(c).rows
        strict += c.has_strict_rows()
        if not satisfiable(c):
            infeasible += 1
            continue
        for row in _candidates(rng, c):
            answer = entails(c, row)
            assert answer == entails_by_negation(c, row)
            answers.add((answer, row.is_strict))
    assert infeasible >= 20 and strict >= 100
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


def _dual_lp(rest, direction):
    """The dual LP of `_entailed`: min y.b with sum y_i d_i = direction,
    y_i >= 0 on an inequality row and free on an equality."""
    signs = tuple(FREE if rel == "=" else NONNEG for _, rel, _ in rest)
    rows = tuple((tuple(d[j] for d, _, _ in rest), "=", a) for j, a in enumerate(direction))
    return LpProblem(tuple(b for _, _, b in rest), False, rows, signs)


def _entailed_and_lp_count(monkeypatch, rest, row):
    calls = []
    original = projection.solve
    with monkeypatch.context() as patch:
        patch.setattr(projection, "solve", lambda p: calls.append(p) or original(p))
        answer = projection._entailed(rest, row)
    return answer, len(calls)


def test_entailed_skips_the_lp_only_when_signs_decide(monkeypatch):
    """`_entailed` answers False with no LP when a coordinate of the row's
    direction has a sign no row of `rest` can supply; the skipped dual LP is
    then infeasible.  Answers agree with the negation rule either way."""
    rng = random.Random(89)
    skipped = solved = 0
    for _ in range(200):
        names, rows = _noncanonical_system(rng)
        c = cs(names, rows)
        if not satisfiable(c):
            continue
        rest = projection._canonical(c.rows)
        premise = projection._system(names, rest)
        for candidate in _candidates(rng, c):
            for direction, rel, const in projection._canonical((candidate,)):
                if not any(direction):
                    continue
                halves = [(direction, rel, const)]
                if rel == "=":  # an equality is tested as its two <= halves
                    opposite = tuple(-v for v in direction)
                    halves = [(direction, "<=", const), (opposite, "<=", -const)]
                for row in halves:
                    answer, lps = _entailed_and_lp_count(monkeypatch, rest, row)
                    assert answer == entails_by_negation(premise, LinConstraint(*row))
                    if lps:
                        solved += 1
                    else:
                        skipped += 1
                        assert not answer
                        assert solve(_dual_lp(rest, row[0])).status is LpStatus.INFEASIBLE
    assert skipped >= 100 and solved >= 1000, (skipped, solved)

    # x = 0 supplies either sign in x's column, so -x <= 0 needs its LP.
    x_is_zero = [((1, 0), "=", 0), ((0, 1), "<=", 1)]
    assert _entailed_and_lp_count(monkeypatch, x_is_zero, ((-1, 0), "<=", 0)) == (True, 1)
    x_at_most_zero = [((1, 0), "<=", 0), ((0, 1), "<=", 1)]
    assert _entailed_and_lp_count(monkeypatch, x_at_most_zero, ((-1, 0), "<=", 0)) == (False, 0)


_TOGGLED = {"<=": "<", "<": "<=", "=": "=", ">=": ">", ">": ">="}


def test_equivalent_matches_the_boundary_rule():
    """equivalent, which is mutual entailment, gives the answer of the
    boundary-hyperplane rule on pairs built from one system: a rescaled and
    reordered copy, the copy with one row's strictness toggled or its bound
    moved, and the system plus one candidate row (equal iff it entails the
    row, which tests strict faces)."""
    rng = random.Random(83)
    answers = {True: 0, False: 0}  # on feasible pairs with a strict row
    for _ in range(90):
        names, rows = _noncanonical_system(rng)
        c = cs(names, rows)
        copy = _rescaled(rng, rows)
        rng.shuffle(copy)
        i = rng.randrange(len(rows))
        coeffs, rel, const = rows[i]
        toggled = rows[:i] + [(coeffs, _TOGGLED[rel], const)] + rows[i + 1 :]
        moved = rows[:i] + [(coeffs, rel, const + rng.choice((-1, 1)))] + rows[i + 1 :]
        others = [cs(names, copy), cs(names, toggled), cs(names, moved)]
        candidates = _candidates(rng, c)
        others += [c.with_rows(c.rows + (k,)) for k in rng.sample(candidates, min(3, len(candidates)))]
        for other in others:
            answer = equivalent(c, other)
            assert answer == equivalent(other, c) == equivalent_by_boundaries(c, other)
            if satisfiable(c) and satisfiable(other) and c.conjoin(other).has_strict_rows():
                answers[answer] += 1
    assert answers[True] >= 100 and answers[False] >= 50


def test_project_checks_feasibility_once(monkeypatch):
    """One satisfiable call on a feasible input serves every redundancy scan
    of its projection, since the projection of a feasible system is
    feasible."""
    calls = []
    original = projection.satisfiable
    monkeypatch.setattr(projection, "satisfiable", lambda c: calls.append(c) or original(c))
    rng = random.Random(41)
    for _ in range(20):
        c = _random_system(rng)
        calls.clear()
        project(c, c.variables[1:])
        assert calls == [c]


def _stepwise(c, keep):
    """Plain Fourier-Motzkin: `eliminate` each variable outside keep, in
    order, with no pruning between steps, then `remove_redundant`."""
    for v in c.variables:
        if v not in keep:
            c = eliminate(c, v)
    return remove_redundant(c)


def test_project_matches_stepwise_elimination(seed207_loop):
    """project, which prunes between steps, gives the solution set of plain
    stepwise elimination, on small systems with strict rows, equalities,
    fractional coefficients and infeasible inputs, and on the decrease
    system of `seed207_loop` projected onto its mu block."""
    rng = random.Random(97)
    cases = []
    for _ in range(240):
        nv = rng.randint(2, 4)
        names = tuple(f"v{i}" for i in range(nv))
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nv)]
        rows = []
        for _ in range(rng.randint(2, 7)):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nv)]
            lhs = sum(a * b for a, b in zip(coeffs, p))
            rel = rng.choice(tuple(_FLIPPED))
            slack = rng.randint(-1, 3)
            const = lhs if rel == "=" else lhs + slack if rel in ("<=", "<") else lhs - slack
            rows.append((coeffs, rel, const))
        keep = tuple(v for v in names if rng.random() < 0.5) or names[:1]
        cases.append((cs(names, rows), keep))
    assert sum(not satisfiable(c) for c, _ in cases) >= 20
    assert sum(c.has_strict_rows() for c, _ in cases) >= 100
    assert sum(any(r.rel == "=" for r in c.rows) for c, _ in cases) >= 100

    # The decrease system over (y, mu1, mu2), with an all-zero mu0 column
    # inserted before mu1.
    decrease, _ = build_ms_systems(loop_system(seed207_loop))
    m = decrease.n_vars - 2
    rows = [(r.coeffs[:m] + (0,) + r.coeffs[m:], r.rel, r.const) for r in decrease.rows]
    mu = ("mu0", "mu1", "mu2")
    cases.append((cs(decrease.variables[:m] + mu, rows), mu))
    for c, keep in cases:
        assert equivalent(project(c, keep), _stepwise(c, keep))


def test_projection_growth_stays_within_budget():
    """A feasible system of 6 variables and 13 rows whose projection onto
    two variables ran past a minute while intermediate Fourier-Motzkin
    steps could grow unpruned; pruning each step that grows the system
    keeps it within seconds."""
    rng = random.Random(0)
    nv = rng.randint(5, 6)
    p = [rng.randint(-3, 3) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(10, 13)):
        coeffs = [rng.randint(-4, 4) for _ in range(nv)]
        rel = rng.choice(["<=", "<", ">=", ">"])
        lhs = sum(a * b for a, b in zip(coeffs, p))
        slack = rng.randint(1, 3)
        rows.append((coeffs, rel, lhs + slack if rel in ("<=", "<") else lhs - slack))
    c = cs(tuple(f"v{i}" for i in range(nv)), rows)
    assert (c.n_vars, len(c.rows)) == (6, 13)
    start = time.perf_counter()
    fm_sampling_check(rng, c, c.variables[:2])
    assert time.perf_counter() - start < 30

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from linrank import ms, parse_loop
from linrank.constraints import (
    LinConstraint,
    loop_system,
    to_geq_matrix,
)
from linrank.ms import (
    RankingFunction,
    TerminationStatus,
    UnsatisfiableLoopError,
    build_ms_systems,
    ms_analyze,
    ms_bounded_space,
    ms_decreasing_space,
    ms_space,
    svg_analyze,
    svg_global_space,
    svg_space,
)
from linrank.pr import pr_alt_space, pr_space
from linrank.projection import entails, equivalent, project
from linrank.simplex import find_point, satisfiable
from tests.conftest import sample_points
from tests.oracles import (
    build_svg_system,
    conjoined_ms_system,
    constraint,
    in_denormalized_space,
    system,
)


def cs(variables, rows):
    return system(variables, [constraint(c, rel, k) for c, rel, k in rows])


def space_cs(rows):
    return cs(("mu0", "mu1", "mu2"), rows)


LOG2_FULL_SPACE_ROWS = [
    ((0, 1, -1), ">=", 1),   # mu1 - mu2 >= 1
    ((0, 0, 1), ">=", 0),    # mu2 >= 0
    ((1, 2, 0), ">=", 0),    # mu0 + 2 mu1 >= 0
]


# --- nonnegative-variable engine ------------------------------------------


def test_svg_system_golden_matrix(log2_clp_loop):
    sys_rows = build_svg_system(log2_clp_loop.single)
    assert sys_rows.variables == ("y1", "y2", "y3", "y4", "y5", "mu1", "mu2")
    # y4, y5 weight the split equality x2 - x2' = 1, its >= row last
    expected_rows = [
        ((1, -1, 1, 0, 0, -1, 0), "<=", 0),
        ((0, 0, 0, -1, 1, 0, -1), "<=", 0),
        ((0, 2, -2, 0, 0, 1, 0), "<=", 0),
        ((0, 0, 0, 1, -1, 0, 1), "<=", 0),
    ]
    for row, (coeffs, rel, const) in zip(sys_rows.rows, expected_rows):
        assert row.coeffs == tuple(Fraction(v) for v in coeffs)
        assert row.rel == rel and row.const == const
    # decrease row b^T y >= 1, negated by hand to -b^T y <= -1
    row = sys_rows.rows[4]
    assert row.rel == ">="
    decrease = LinConstraint(tuple(-v for v in row.coeffs), "<=", -row.const)
    assert decrease.coeffs == tuple(Fraction(v) for v in (-2, 1, 0, 1, -1, 0, 0))
    assert decrease.const == -1
    # trailing sign rows: y >= 0 and mu >= 0
    assert all(r.rel == ">=" and r.const == 0 for r in sys_rows.rows[5:])
    assert len(sys_rows.rows) == 5 + 7


def test_svg_system_feasible_with_hand_point():
    clause = cs(
        ("x", "x'"),
        [((1, 0), ">=", 1), ((1, -1), ">=", 1)],  # x >= 1, x' <= x - 1
    )
    sys_rows = build_svg_system(clause)
    hand = [Fraction(0), Fraction(1), Fraction(1)]  # y=(0,1), mu1=1
    assert sys_rows.satisfied_by(hand)
    assert find_point(sys_rows) is not None


def test_svg_system_of_empty_clause_infeasible():
    clause = cs(("x", "x'"), [])
    assert find_point(build_svg_system(clause)) is None


def test_svg_analyze_log2(log2_clp_loop):
    verdict = svg_analyze(log2_clp_loop.single)
    assert verdict.status is TerminationStatus.TERMINATING
    mu = verdict.witness.mu
    assert all(v >= 0 for v in mu)
    assert mu[0] + mu[1] >= 1


def test_svg_analyze_inconclusive():
    clause = cs(("x", "x'"), [((1, 0), ">=", 0), ((-1, 1), ">=", 1)])
    # over nonnegative states the measure mu*x - mu*x' is at most 0 for
    # every nonnegative mu: confirm by direct optimization at sampled mu
    from linrank.simplex import NONNEG, LpStatus, lp, solve

    a_c, b_c = to_geq_matrix(clause)
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        p = lp(
            [mu, -mu],
            False,
            [(row, ">=", k) for row, k in zip(a_c, b_c)],
            [NONNEG, NONNEG],
        )
        out = solve(p)
        assert out.status is not LpStatus.INFEASIBLE
        assert out.status is LpStatus.UNBOUNDED or out.value < 1
    assert svg_analyze(clause).status is TerminationStatus.UNKNOWN


def test_svg_analyze_trivially_terminating():
    clause = cs(("x", "x'"), [((1, 0), ">=", 1), ((1, 0), "<=", 0)])
    assert svg_analyze(clause).status is TerminationStatus.TRIVIALLY_TERMINATING


def test_svg_space_requires_satisfiable_clause():
    clause = cs(("x", "x'"), [((1, 0), ">=", 1), ((1, 0), "<=", 0)])
    with pytest.raises(UnsatisfiableLoopError):
        svg_space(clause)


def test_svg_space_log2_golden(log2_clp_loop):
    space = svg_space(log2_clp_loop.single)
    assert space.kind == "svg"
    expected = cs(
        ("mu1", "mu2"),
        [((1, 1), ">=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)],
    )
    assert equivalent(space.constraints, expected)


def test_svg_space_countdown():
    clause = cs(("x", "x'"), [((1, 0), ">=", 1), ((1, -1), ">=", 1)])
    space = svg_space(clause)
    assert equivalent(space.constraints, cs(("mu1",), [((1,), ">=", 1)]))
    # sampled points against the strict-decrease oracle on feasible pairs
    rng = random.Random(5)
    nonneg = clause.with_rows(
        clause.rows + (constraint((1, 0), ">=", 0), constraint((0, 1), ">=", 0))
    )
    pairs = sample_points(nonneg, rng, 20)
    for mu1 in (Fraction(1), Fraction(3, 2), Fraction(7)):
        assert space.contains((mu1,))
        for p in pairs:
            assert mu1 * p[0] - mu1 * p[1] >= 1
    for bad in (Fraction(0), Fraction(1, 2)):
        assert not space.contains((bad,))


def test_svg_global_space_is_intersection(log2_clp_loop):
    c1 = log2_clp_loop.single
    c2 = cs(
        ("x1", "x2", "x1'", "x2'"),
        [((1, 0, -1, 0), ">=", 1), ((1, 0, 0, 0), ">=", 1)],  # x1 strictly drops
    )
    merged = svg_global_space([c1, c2])
    s1, s2 = svg_space(c1), svg_space(c2)
    conj = s1.constraints.conjoin(s2.constraints)
    assert equivalent(merged.constraints, conj)


# --- rational affine engine -------------------------------------------------


def test_ms_systems_shapes(countdown_loop):
    c = loop_system(countdown_loop)
    decrease, bounded = build_ms_systems(c)
    m = len(to_geq_matrix(c)[0])
    assert decrease.variables == tuple(f"y{i}" for i in range(1, m + 1)) + ("mu1",)
    assert bounded.variables == tuple(f"z{i}" for i in range(1, m + 3)) + ("mu0", "mu1")
    # hand witnesses: weight on the split x' = x - 1 pair / on x >= 0
    dec_point = find_point(decrease)
    assert dec_point is not None
    bnd_point = find_point(bounded)
    assert bnd_point is not None
    hand_dec = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]  # y2=1, mu1=1
    assert decrease.satisfied_by(hand_dec)
    hand_bnd = [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    assert bounded.satisfied_by(hand_bnd)


def _golden_space_rows() -> list:
    """Each space's rows (or its error type) on every `loops/*.loop`."""
    out = []
    for path in sorted((Path(__file__).resolve().parents[1] / "loops").glob("*.loop")):
        loop = parse_loop(path.read_text())
        calls = [(f, loop) for f in (ms_space, ms_decreasing_space, ms_bounded_space)]
        calls += [(pr_space, loop), (pr_alt_space, loop), (svg_space, loop_system(loop))]
        for space, arg in calls:
            try:
                out.append(space(arg).constraints.rows)
            except ValueError as err:
                out.append(type(err))
    return out


def test_spaces_project_without_packaging_a_multiplier_system(monkeypatch):
    """The space routes project the engines' row triples straight away: no
    space packages a multiplier system as a `ConstraintSystem`, and each
    still returns its rows."""
    expected = _golden_space_rows()
    assert sum(isinstance(rows, tuple) for rows in expected) >= 20

    def packaging(*_args):
        raise AssertionError("a space route packaged a multiplier system")

    monkeypatch.setattr(ms, "_multiplier_system", packaging)
    assert _golden_space_rows() == expected


def test_ms_analyze_log2(log2_loop):
    verdict = ms_analyze(log2_loop)
    assert verdict.status is TerminationStatus.TERMINATING
    f = verdict.witness
    assert f.delta == 1 and f.lower_bound == 0
    assert ms_space(log2_loop).contains((f.mu0,) + f.mu)


def test_ms_analyze_diverge(diverge_loop):
    assert ms_analyze(diverge_loop).status is TerminationStatus.UNKNOWN


def test_ms_analyze_trivially_terminating(unsat_loop):
    assert ms_analyze(unsat_loop).status is TerminationStatus.TRIVIALLY_TERMINATING


def test_ms_space_log2_golden(log2_loop):
    space = ms_space(log2_loop)
    assert space.kind == "ms-full"
    assert space.params == ("mu0", "mu1", "mu2")
    assert equivalent(space.constraints, space_cs(LOG2_FULL_SPACE_ROWS))


def test_ms_space_via_single_conjoined_projection(log2_loop, countdown_loop):
    # dual route: project the conjoined system in one pass and compare
    for loop in (log2_loop, countdown_loop):
        conj = conjoined_ms_system(loop_system(loop))
        params = tuple(v for v in conj.variables if v.startswith("mu"))
        direct = project(conj, params)
        assert equivalent(direct, ms_space(loop).constraints)


def test_ms_space_countdown(countdown_loop):
    space = ms_space(countdown_loop)
    expected = cs(("mu0", "mu1"), [((0, 1), ">=", 1), ((1, 0), ">=", 0)])
    assert equivalent(space.constraints, expected)


def test_ms_space_diverge_empty(diverge_loop):
    assert ms_space(diverge_loop).is_empty()


def test_ms_space_requires_satisfiable_loop(unsat_loop):
    with pytest.raises(UnsatisfiableLoopError):
        ms_space(unsat_loop)


def test_conditional_spaces_diverge(diverge_loop):
    dec = ms_decreasing_space(diverge_loop)
    bnd = ms_bounded_space(diverge_loop)
    assert dec.kind == "ms-decreasing" and bnd.kind == "ms-bounded"
    # decrease forces mu1 <= -1 (mu0 free); nonnegativity over x >= 0
    # forces mu1 >= 0 and additionally mu0 >= 0 at the state x = 0
    assert equivalent(dec.constraints, cs(("mu0", "mu1"), [((0, 1), "<=", -1)]))
    assert equivalent(
        bnd.constraints,
        cs(("mu0", "mu1"), [((0, 1), ">=", 0), ((1, 0), ">=", 0)]),
    )
    assert not satisfiable(dec.constraints.conjoin(bnd.constraints))


def test_conditional_spaces_conjoin_to_full(log2_loop, countdown_loop, diverge_loop):
    for loop in (log2_loop, countdown_loop, diverge_loop):
        dec = ms_decreasing_space(loop)
        bnd = ms_bounded_space(loop)
        conj = dec.constraints.conjoin(bnd.constraints)
        assert equivalent(conj, ms_space(loop).constraints)


def test_stationary_loop_has_empty_decreasing_space():
    loop = parse_loop("vars: x\nsingle: x' = x")
    assert ms_decreasing_space(loop).is_empty()


def test_denormalized_membership(log2_loop):
    space = ms_space(log2_loop)
    inside = RankingFunction(Fraction(-4), (Fraction(2), Fraction(0)), Fraction(2), Fraction(0))
    assert in_denormalized_space(space, inside)
    half = RankingFunction(Fraction(0), (Fraction(1, 2), Fraction(0)), Fraction(1), Fraction(0))
    assert in_denormalized_space(space, half)
    wrong = RankingFunction(Fraction(0), (Fraction(0), Fraction(1)), Fraction(1), Fraction(0))
    assert not in_denormalized_space(space, wrong)


def test_denormalized_membership_requires_full_space(log2_loop):
    from linrank.constraints import ConstraintError

    dec = ms_decreasing_space(log2_loop)
    f = RankingFunction(Fraction(0), (Fraction(1), Fraction(0)), Fraction(1), Fraction(0))
    with pytest.raises(ConstraintError):
        in_denormalized_space(dec, f)


def _lrf_oracle(c, mu0, mu):
    """Direct check of the defining implications over the loop constraint:
    decrease by >= 1 and nonnegativity, via entailment LPs."""
    n = len(mu)
    decrease = constraint(tuple(mu) + tuple(-v for v in mu), ">=", 1)
    bound = constraint(tuple(mu) + (0,) * n, ">=", -mu0)
    return entails(c, decrease) and entails(c, bound)


def test_ms_witness_validity_by_sampling_and_entailment(log2_loop, countdown_loop):
    rng = random.Random(77)
    for loop in (log2_loop, countdown_loop):
        f = ms_analyze(loop).witness
        c = loop_system(loop)
        n = loop.space.n
        assert _lrf_oracle(c, f.mu0, f.mu)
        for p in sample_points(c, rng, 200):
            x, xp = p[:n], p[n:]
            assert f.value_at(x) - f.value_at(xp) >= 1
            assert f.value_at(x) >= 0


def test_ms_space_points_satisfy_oracle(log2_loop):
    rng = random.Random(13)
    space = ms_space(log2_loop)
    c = loop_system(log2_loop)
    pts = sample_points(space.constraints, rng, 50)
    assert pts
    for mu_tuple in pts:
        assert _lrf_oracle(c, mu_tuple[0], mu_tuple[1:])


def test_ms_space_completeness_on_grid():
    loops = [
        parse_loop("vars: x\nsingle: x >= 0, x' = x - 1"),
        parse_loop("vars: x y\nsingle: x >= 0, x' <= x - 1, y' = y"),
    ]
    grid = [Fraction(v) for v in range(-3, 4)]
    for loop in loops:
        c = loop_system(loop)
        space = ms_space(loop)
        n = loop.space.n
        for point in itertools.product(grid, repeat=n + 1):
            expected = _lrf_oracle(c, point[0], point[1:])
            assert space.contains(point) == expected, (loop.space.names, point)

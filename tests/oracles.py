"""Reference checks and samplers that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from linrank.constraints import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
)
from linrank.ms import MS_FULL, RankingFunction, RankingSpace
from linrank.projection import _canonical, project
from linrank.rationals import Rational
from linrank.simplex import (
    LpOutcome,
    LpProblem,
    LpStatus,
    _lp_rows,
    find_point,
    solve,
)


def constraint(coeffs: Iterable[int | Rational], rel: str, const: int | Rational) -> LinConstraint:
    return LinConstraint(tuple(Fraction(c) for c in coeffs), rel, Fraction(const))


def system(variables: Sequence[str], rows: Iterable[LinConstraint]) -> ConstraintSystem:
    return ConstraintSystem(tuple(variables), tuple(rows))


def _dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def leq_satisfied_by(
    m: LeqMatrixForm, x: Sequence[Rational], x_prime: Sequence[Rational]
) -> bool:
    """Does (x, x') satisfy  (A A') <x, x'> <= b ?"""
    return all(
        _dot(row, x) + _dot(row_p, x_prime) <= k for row, row_p, k in zip(m.a, m.a_prime, m.b)
    )


def geq_satisfied_by(geq, combined: Sequence[Rational]) -> bool:
    """Does the point satisfy  A_c v >= b_c  for geq = (A_c, b_c) ?"""
    a_c, b_c = geq
    return all(_dot(row, combined) >= k for row, k in zip(a_c, b_c))


def permute_rows(m: LeqMatrixForm, order: Sequence[int]) -> LeqMatrixForm:
    """Row permutation of the matrix form (the ranking space is invariant)."""
    if sorted(order) != list(range(m.n_rows)):
        raise ConstraintError("not a permutation of the row indices")
    return LeqMatrixForm(
        tuple(m.a[i] for i in order),
        tuple(m.a_prime[i] for i in order),
        tuple(m.b[i] for i in order),
        m.n_vars,
    )


_RELAXED = {LT: LE, GT: GE}


def closure(c: ConstraintSystem) -> ConstraintSystem:
    """c with every strict row relaxed: the topological closure of a
    feasible c's solution set."""
    return c.with_rows(LinConstraint(r.coeffs, _RELAXED.get(r.rel, r.rel), r.const) for r in c.rows)


def optimize(
    c: ConstraintSystem, objective: Sequence[Rational], maximize: bool
) -> LpOutcome:
    """Optimize over the topological closure of c (strict rows relaxed)."""
    signs, rows = _lp_rows(closure(c), False)
    problem = LpProblem(tuple(Fraction(v) for v in objective), maximize, tuple(rows), signs)
    return solve(problem)


def feasible_points_sample(
    c: ConstraintSystem, objectives: Sequence[Sequence[Rational]]
) -> list[tuple[Rational, ...]]:
    """Distinct vertices/points of c found by optimizing the given objective
    directions; strict rows are honored by averaging with an interior point."""
    interior = find_point(c)
    if interior is None:
        return []
    points = {interior}
    for obj in objectives:
        outcome = optimize(c, obj, maximize=True)
        if outcome.status is LpStatus.OPTIMAL:
            candidate = outcome.point
            if not c.satisfied_by(candidate):
                half = Fraction(1, 2)
                candidate = tuple(half * (a + b) for a, b in zip(candidate, interior))
            if c.satisfied_by(candidate):
                points.add(candidate)
    return sorted(points)


def in_denormalized_space(space: RankingSpace, f: RankingFunction) -> bool:
    """Membership of f in the denormalization of a full space: all
    <h, k*mu> with <mu0, mu> in the space, h rational, k positive.

    Decided by one feasibility query: substitute mu = t * f.mu (t = 1/k)
    into the space projected onto mu alone and ask for a t > 0.
    """
    if space.kind != MS_FULL:
        raise ConstraintError("denormalized membership needs a full space")
    mu_params = tuple(p for p in space.params if p != "mu0")
    mu_only = project(space.constraints, mu_params)
    rows = []
    for row in mu_only.rows:
        t_coeff = sum(
            (a * b for a, b in zip(row.coeffs, f.mu)), Fraction(0)
        )
        rows.append(LinConstraint((t_coeff,), row.rel, row.const))
    rows.append(LinConstraint((Fraction(1),), GT, Fraction(0)))
    return find_point(ConstraintSystem(("t",), tuple(rows))) is not None


# The rows whose union is the complement of a row's solution set.
_NEGATED = {LE: (GT,), LT: (GE,), GE: (LT,), GT: (LE,), EQ: (GT, LT)}


def _negations(k: LinConstraint) -> list[LinConstraint]:
    return [LinConstraint(k.coeffs, rel, k.const) for rel in _NEGATED[k.rel]]


def entails_by_negation(c: ConstraintSystem, k: LinConstraint) -> bool:
    """c entails k iff c and each negation of k have no common point: one
    primal feasibility query per negation, over all of c's rows."""
    return all(find_point(c.with_rows(c.rows + (neg,))) is None for neg in _negations(k))


def remove_redundant_by_negation(c: ConstraintSystem) -> ConstraintSystem:
    """The primal greedy rule: scan the canonical rows in order and drop
    each one that the rows still kept entail, by `entails_by_negation`."""
    keep = [LinConstraint(*row) for row in _canonical(c.rows)]
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if entails_by_negation(c.with_rows(rest), keep[i]):
            keep = rest
        else:
            i += 1
    return c.with_rows(keep)


def equivalent_by_boundaries(c1: ConstraintSystem, c2: ConstraintSystem) -> bool:
    """The boundary-hyperplane rule for solution-set equality.  Two feasible
    systems whose closures entail each other can only differ at a point of
    one that lies on the boundary hyperplane of a strict row of the other,
    so they are equal iff every such hyperplane misses the other system."""
    sat1, sat2 = find_point(c1) is not None, find_point(c2) is not None
    if not sat1 or not sat2:
        return sat1 == sat2
    r1, r2 = closure(c1), closure(c2)
    if not all(entails_by_negation(r1, k) for k in r2.rows):
        return False
    if not all(entails_by_negation(r2, k) for k in r1.rows):
        return False
    for source, other in ((c1, c2), (c2, c1)):
        for row in source.rows:
            if row.is_strict:
                boundary = LinConstraint(row.coeffs, EQ, row.const)
                if find_point(other.with_rows(other.rows + (boundary,))) is not None:
                    return False
    return True

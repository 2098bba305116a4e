"""Reference checks and samplers that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from linrank.constraints import (
    GT,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
)
from linrank.ms import MS_FULL, RankingFunction, RankingSpace
from linrank.projection import project
from linrank.rationals import Rational
from linrank.simplex import (
    LpOutcome,
    LpProblem,
    LpStatus,
    _lp_rows,
    _split_signs,
    find_point,
    solve,
)


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


def optimize(
    c: ConstraintSystem, objective: Sequence[Rational], maximize: bool
) -> LpOutcome:
    """Optimize over the topological closure of c (strict rows relaxed)."""
    relaxed = c.relaxed()
    signs, remaining = _split_signs(relaxed)
    rows = tuple(_lp_rows(remaining, c.n_vars, False))
    problem = LpProblem(tuple(Fraction(v) for v in objective), maximize, rows, signs)
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

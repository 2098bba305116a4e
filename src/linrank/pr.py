"""Ranking-function synthesis by nonnegative row multipliers.

For a loop in <=-form  (A A') <x, x'> <= b  the loop terminates on all
inputs if two nonnegative multiplier vectors lam1, lam2 over the rows
satisfy

    lam1^T A' = 0,   (lam1 - lam2)^T A = 0,   lam2^T (A + A') = 0,
    lam2^T b < 0,

and on loops whose iterations the constraint characterizes completely the
converse holds as well.  From any solution, f(x) = (lam2^T A') x is a
ranking function with certified decrease -lam2^T b and offset lam1^T b.

Because solutions scale (k*lam1, k*lam2 solve the system for any k > 0),
the strict row is normalized to lam2^T b <= -1 when only feasibility is
wanted; space computations keep the strict row and project it through
variable elimination.

A guarded loop can alternatively be handled without merging its guard and
update blocks, via three multiplier vectors (v1, v2 over the guard rows,
v3 over the update rows); the original-system multipliers are recovered as
lam1 = <v1, 0>, lam2 = <v2, v3> and both routes yield the same space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .constraints import (
    EQ,
    LT,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
    Rows,
    loop_system,
    merge_guarded,
    to_leq_matrix,
    to_leq_rows,
)
from .ms import (
    PR,
    RankingFunction,
    RankingSpace,
    UnsatisfiableLoopError,
    Verdict,
    _mu_names,
    _sign_rows,
)
from .projection import project
from .rationals import Rational
from .simplex import find_point, satisfiable


class InvalidWitnessError(ValueError):
    """Multiplier vectors do not satisfy the witness equations exactly."""


def _combine(weights: Sequence[Rational], rows: Rows, n: int) -> tuple[Rational, ...]:
    """The row combination  weights^T M  of an n-column matrix M."""
    return tuple(sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(n))


def _dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@dataclass(frozen=True)
class PrWitness:
    """Nonnegative multipliers solving the four witness equations."""

    lambda1: tuple[Rational, ...]
    lambda2: tuple[Rational, ...]

    def check(self, m: LeqMatrixForm) -> None:
        rows = m.n_rows
        if len(self.lambda1) != rows or len(self.lambda2) != rows:
            raise InvalidWitnessError("multiplier length does not match row count")
        if any(v < 0 for v in self.lambda1) or any(v < 0 for v in self.lambda2):
            raise InvalidWitnessError("multipliers must be nonnegative")
        l1, l2, n = self.lambda1, self.lambda2, m.n_vars
        if any(_combine(l1, m.a_prime, n)):
            raise InvalidWitnessError("lam1^T A' != 0")
        diff = tuple(a - b for a, b in zip(l1, l2))
        if any(_combine(diff, m.a, n)):
            raise InvalidWitnessError("(lam1 - lam2)^T A != 0")
        summed = tuple(tuple(p + q for p, q in zip(r, rp)) for r, rp in zip(m.a, m.a_prime))
        if any(_combine(l2, summed, n)):
            raise InvalidWitnessError("lam2^T (A + A') != 0")
        if _dot(l2, m.b) >= 0:
            raise InvalidWitnessError("lam2^T b is not negative")


@dataclass(frozen=True)
class PrAltWitness:
    """Multipliers for the split guard/update formulation."""

    v1: tuple[Rational, ...]
    v2: tuple[Rational, ...]
    v3: tuple[Rational, ...]

    def reconstruct(self) -> PrWitness:
        """Multipliers for the merged system (guard rows first)."""
        zeros = (Fraction(0),) * len(self.v3)
        return PrWitness(self.v1 + zeros, self.v2 + self.v3)


def _lambda_names(rows: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (
        tuple(f"lam1_{i}" for i in range(1, rows + 1)),
        tuple(f"lam2_{i}" for i in range(1, rows + 1)),
    )


def with_affine_slot(m: LeqMatrixForm) -> LeqMatrixForm:
    """Append the universally-true row 0 <= 1.

    The row changes no solution of the loop constraint, but its multiplier
    plays the role of the constant term in an affine nonnegative
    combination.  Without it, mu0 = lam1^T b cannot reach every offset of a
    valid ranking function (it is pinned whenever no existing row supplies
    slack), so space computations and membership queries run on the
    extended matrix.  Feasibility is unaffected either way.
    """
    zero = ((Fraction(0),) * m.n_vars,)
    return LeqMatrixForm(m.a + zero, m.a_prime + zero, m.b + (Fraction(1),), m.n_vars)


def build_pr_system(m: LeqMatrixForm) -> ConstraintSystem:
    """The witness equations over (lam1, lam2), the final row kept strict."""
    rows_n, n = m.n_rows, m.n_vars
    l1_names, l2_names = _lambda_names(rows_n)
    variables = l1_names + l2_names
    out: list[LinConstraint] = []
    zeros = (Fraction(0),) * rows_n
    for j in range(n):  # lam1^T A' = 0
        coeffs = tuple(row[j] for row in m.a_prime) + zeros
        out.append(LinConstraint(coeffs, EQ, Fraction(0)))
    for j in range(n):  # (lam1 - lam2)^T A = 0
        col = tuple(row[j] for row in m.a)
        out.append(LinConstraint(col + tuple(-v for v in col), EQ, Fraction(0)))
    for j in range(n):  # lam2^T (A + A') = 0
        coeffs = zeros + tuple(r[j] + rp[j] for r, rp in zip(m.a, m.a_prime))
        out.append(LinConstraint(coeffs, EQ, Fraction(0)))
    out.append(LinConstraint(zeros + m.b, LT, Fraction(0)))  # lam2^T b < 0
    out.extend(_sign_rows(variables, variables))
    return ConstraintSystem(variables, tuple(out))


def _normalize_strict(system: ConstraintSystem) -> ConstraintSystem:
    """Replace each strict homogeneous row e.z < 0 by e.z <= -1; sound and
    complete for feasibility because solutions scale."""
    rows = []
    for row in system.rows:
        if row.is_strict:
            le_row = row.as_le()
            if le_row.const != 0:
                raise ConstraintError("scaling normalization needs a homogeneous strict row")
            rows.append(LinConstraint(le_row.coeffs, "<=", Fraction(-1)))
        else:
            rows.append(row)
    return system.with_rows(tuple(rows))


def extraction_rows(m: LeqMatrixForm) -> list[tuple[Rational, ...]]:
    """Coefficients over (lam1, lam2) of the extracted offset lam1^T b,
    then of each coordinate of mu = lam2^T A'."""
    zeros = (Fraction(0),) * m.n_rows
    rows = [m.b + zeros]
    rows += [zeros + tuple(row[j] for row in m.a_prime) for j in range(m.n_vars)]
    return rows


def extract_rf(w: PrWitness, m: LeqMatrixForm) -> RankingFunction:
    """mu = lam2^T A', mu0 = lam1^T b, delta = -lam2^T b; the function
    mu0 + mu . x is nonnegative on reachable states (lower bound 0)."""
    w.check(m)
    mu = _combine(w.lambda2, m.a_prime, m.n_vars)
    mu0 = _dot(w.lambda1, m.b)
    delta = -_dot(w.lambda2, m.b)
    return RankingFunction(mu0, mu, delta, Fraction(0))


def pr_analyze(loop: LoopModel) -> Verdict:
    """Feasibility of the multiplier system (strict row normalized to <= -1)
    proves termination and yields an extracted witness."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    m = to_leq_matrix(c, loop.space)
    system = _normalize_strict(build_pr_system(m))
    point = find_point(system)
    if point is None:
        return Verdict.unknown()
    rows_n = m.n_rows
    witness = PrWitness(tuple(point[:rows_n]), tuple(point[rows_n : 2 * rows_n]))
    return Verdict.terminating(extract_rf(witness, m))


def _space_from(
    base: ConstraintSystem, mu_defs: list[tuple[Rational, ...]], n: int
) -> RankingSpace:
    """Augment a multiplier system with (mu0, mu) and their defining
    equalities, then eliminate the multipliers."""
    params = _mu_names(n, with_mu0=True)
    variables = base.variables + params
    pad = len(params)
    rows = [
        LinConstraint(row.coeffs + (Fraction(0),) * pad, row.rel, row.const)
        for row in base.rows
    ]
    for k, coeffs in enumerate(mu_defs):
        full = list(coeffs) + [Fraction(0)] * pad
        full[len(base.variables) + k] = Fraction(-1)
        rows.append(LinConstraint(tuple(full), EQ, Fraction(0)))
    projected = project(ConstraintSystem(variables, tuple(rows)), params)
    return RankingSpace(params, projected, PR)


def pr_space(loop: LoopModel) -> RankingSpace:
    """All ranking-function coefficient pairs <mu0, mu> reachable from
    witness multipliers; the strict witness row makes this a cone-like set
    with strict faces."""
    c = loop_system(loop)
    if not satisfiable(c):
        raise UnsatisfiableLoopError("loop body constraint is unsatisfiable")
    return pr_space_of_matrix(to_leq_matrix(c, loop.space))


def _guard_update_matrices(loop: LoopModel):
    if not loop.is_guarded:
        raise ConstraintError("alternative formulation needs a guarded loop")
    a_b, b_b = to_leq_rows(loop.guard)
    update = to_leq_matrix(loop.update, loop.space)
    return a_b, b_b, update


def build_pr_alt_system(loop: LoopModel) -> ConstraintSystem:
    """Witness equations over (v1, v2, v3) for a guarded loop:

        (v1 - v2)^T A_B - v3^T A_C = 0
        v2^T A_B + v3^T (A_C + A'_C) = 0
        v2^T b_B + v3^T b_C < 0,   v1, v2, v3 >= 0

    Feasibility is always sound (a solution reconstructs to a witness on
    the merged system).  It matches the merged search exactly when the
    guard block is the loop-head invariant; a guard weaker than the
    reachable-state projection can make the search miss witnesses whose
    nonnegativity relies on update rows.
    """
    a_b, b_b, update = _guard_update_matrices(loop)
    r, s, n = len(a_b), update.n_rows, loop.space.n
    v1 = tuple(f"v1_{i}" for i in range(1, r + 1))
    v2 = tuple(f"v2_{i}" for i in range(1, r + 1))
    v3 = tuple(f"v3_{i}" for i in range(1, s + 1))
    variables = v1 + v2 + v3
    rows: list[LinConstraint] = []
    for j in range(n):
        guard_col = tuple(row[j] for row in a_b)
        upd_col = tuple(row[j] for row in update.a)
        coeffs = guard_col + tuple(-v for v in guard_col + upd_col)
        rows.append(LinConstraint(coeffs, EQ, Fraction(0)))
    zeros = (Fraction(0),) * r
    for j in range(n):
        guard_col = tuple(row[j] for row in a_b)
        upd_col = tuple(u[j] + up[j] for u, up in zip(update.a, update.a_prime))
        rows.append(LinConstraint(zeros + guard_col + upd_col, EQ, Fraction(0)))
    rows.append(LinConstraint(zeros + b_b + update.b, LT, Fraction(0)))
    rows.extend(_sign_rows(variables, variables))
    return ConstraintSystem(variables, tuple(rows))


def pr_alt_analyze(loop: LoopModel) -> Verdict:
    """Same verdict as pr_analyze, computed on the guard/update split; the
    witness is reconstructed onto the merged system for extraction."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    r = len(_guard_update_matrices(loop)[0])
    system = _normalize_strict(build_pr_alt_system(loop))
    point = find_point(system)
    if point is None:
        return Verdict.unknown()
    witness = PrAltWitness(
        tuple(point[:r]), tuple(point[r : 2 * r]), tuple(point[2 * r :])
    )
    merged = to_leq_matrix(merge_guarded(loop), loop.space)
    return Verdict.terminating(extract_rf(witness.reconstruct(), merged))


def pr_alt_space(loop: LoopModel) -> RankingSpace:
    """Space computed from the guard/update blocks without merging the
    loop model first; equivalent to pr_space of the merged system.

    The three-vector system is kept for feasibility only: its extraction
    rule reads the offset off the guard multipliers alone, which pins mu0
    whenever a valid offset needs weight on update rows, so the space is
    projected from the block-assembled matrix with full multipliers."""
    c = loop_system(loop)
    if not satisfiable(c):
        raise UnsatisfiableLoopError("loop body constraint is unsatisfiable")
    a_b, b_b, update = _guard_update_matrices(loop)
    n = loop.space.n
    zeros = ((Fraction(0),) * n,) * len(a_b)
    block = LeqMatrixForm(a_b + update.a, zeros + update.a_prime, b_b + update.b, n)
    return pr_space_of_matrix(block)


def pr_space_of_matrix(m: LeqMatrixForm) -> RankingSpace:
    """The multiplier-to-space projection for any <=-form matrix; pr_space
    is this applied to the loop's merged form.  The affine slot row is
    appended first so the mu0 coordinate ranges over every valid offset."""
    ext = with_affine_slot(m)
    return _space_from(build_pr_system(ext), extraction_rows(ext), ext.n_vars)

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

from .certify import _combine, _dot
from .constraints import (
    EQ,
    LT,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LoopModel,
    loop_system,
    merge_guarded,
    to_leq_matrix,
    to_leq_rows,
)
from .ms import (
    PR,
    RankingFunction,
    RankingSpace,
    Verdict,
    _feasible_point,
    _multiplier_lp,
    _multiplier_space,
    _multiplier_system,
    _mu_names,
    _names,
    _require_satisfiable,
)
from .rationals import Rational
from .simplex import NONNEG, LpProblem, satisfiable


class InvalidWitnessError(ValueError):
    """Multiplier vectors do not satisfy the witness equations exactly."""


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
        l2_a = _combine(l2, m.a, n)
        if _combine(l1, m.a, n) != l2_a:
            raise InvalidWitnessError("(lam1 - lam2)^T A != 0")
        if any(p + q for p, q in zip(l2_a, _combine(l2, m.a_prime, n))):
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


def _pr_rows(m: LeqMatrixForm) -> list:
    """The witness equations over (lam1, lam2), the strict row last."""
    rows_n, n = m.n_rows, m.n_vars
    zero = Fraction(0)
    zeros = (zero,) * rows_n
    out = []
    for j in range(n):  # lam1^T A' = 0
        out.append((tuple(row[j] for row in m.a_prime) + zeros, EQ, zero))
    for j in range(n):  # (lam1 - lam2)^T A = 0
        col = tuple(row[j] for row in m.a)
        out.append((col + tuple(-v for v in col), EQ, zero))
    for j in range(n):  # lam2^T (A + A') = 0
        out.append((zeros + tuple(r[j] + rp[j] for r, rp in zip(m.a, m.a_prime)), EQ, zero))
    out.append((zeros + m.b, LT, zero))  # lam2^T b < 0
    return out


def build_pr_system(m: LeqMatrixForm) -> ConstraintSystem:
    """The witness equations over (lam1, lam2), the final row kept strict."""
    variables = _names("lam1_", m.n_rows) + _names("lam2_", m.n_rows)
    return _multiplier_system(variables, _pr_rows(m), (NONNEG,) * len(variables))


def _pr_lp(m: LeqMatrixForm) -> LpProblem:
    """The decision LP of `build_pr_system(m)`, strict row at <= -1."""
    return _multiplier_lp(_pr_rows(m), (NONNEG,) * (2 * m.n_rows))


def extraction_rows(m: LeqMatrixForm) -> list[tuple[Rational, ...]]:
    """Coefficients over (lam1, lam2) of the extracted offset lam1^T b,
    then of each coordinate of mu = lam2^T A'."""
    zeros = (Fraction(0),) * m.n_rows
    rows = [m.b + zeros]
    rows += [zeros + tuple(row[j] for row in m.a_prime) for j in range(m.n_vars)]
    return rows


def extract_rf(w: PrWitness, m: LeqMatrixForm) -> RankingFunction:
    """mu = lam2^T A', mu0 = lam1^T b, delta = -lam2^T b; the function
    mu0 + mu . x is nonnegative on reachable states (lower bound 0).  Its
    certificate is (lam2, lam1): the witness equations give lam2^T A = -mu
    and lam1^T A = lam2^T A."""
    w.check(m)
    mu = _combine(w.lambda2, m.a_prime, m.n_vars)
    mu0 = _dot(w.lambda1, m.b)
    delta = -_dot(w.lambda2, m.b)
    return RankingFunction(mu0, mu, delta, Fraction(0), (w.lambda2, w.lambda1))


def pr_analyze(loop: LoopModel) -> Verdict:
    """Feasibility of the witness equations, solved as one LP straight off
    the loop's <=-form matrix with the strict row at <= -1, proves
    termination and yields an extracted witness."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    m = to_leq_matrix(c, loop.space)
    point = _feasible_point(_pr_lp(m))
    if point is None:
        return Verdict.unknown()
    rows_n = m.n_rows
    witness = PrWitness(point[:rows_n], point[rows_n : 2 * rows_n])
    return Verdict.terminating(extract_rf(witness, m))


def pr_space(loop: LoopModel) -> RankingSpace:
    """All ranking-function coefficient pairs <mu0, mu> reachable from
    witness multipliers; the strict witness row makes this a cone-like set
    with strict faces."""
    return pr_space_of_matrix(to_leq_matrix(_require_satisfiable(loop), loop.space))


def _pr_alt_rows(loop: LoopModel) -> tuple[int, int, list]:
    """(r guard rows, s update rows, the witness equations over (v1, v2, v3)
    with the strict row last)."""
    if not loop.is_guarded:
        raise ConstraintError("alternative formulation needs a guarded loop")
    a_b, b_b = to_leq_rows(loop.guard)
    update = to_leq_matrix(loop.update, loop.space)
    r, zero = len(a_b), Fraction(0)
    zeros = (zero,) * r
    first, second = [], []
    for j in range(loop.space.n):
        guard_col = tuple(row[j] for row in a_b)
        upd_col = tuple(row[j] for row in update.a)
        first.append((guard_col + tuple(-v for v in guard_col + upd_col), EQ, zero))
        upd_sum = tuple(u[j] + up[j] for u, up in zip(update.a, update.a_prime))
        second.append((zeros + guard_col + upd_sum, EQ, zero))
    return r, update.n_rows, first + second + [(zeros + b_b + update.b, LT, zero)]


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
    r, s, rows = _pr_alt_rows(loop)
    variables = _names("v1_", r) + _names("v2_", r) + _names("v3_", s)
    return _multiplier_system(variables, rows, (NONNEG,) * len(variables))


def _pr_alt_lp(loop: LoopModel) -> tuple[int, LpProblem]:
    """r and the decision LP of `build_pr_alt_system(loop)`, strict row at
    <= -1."""
    r, s, rows = _pr_alt_rows(loop)
    return r, _multiplier_lp(rows, (NONNEG,) * (2 * r + s))


def pr_alt_analyze(loop: LoopModel) -> Verdict:
    """Same verdict as pr_analyze, computed on the guard/update split as one
    LP straight off the guard and update matrices; the witness is
    reconstructed onto the merged system for extraction."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    r, problem = _pr_alt_lp(loop)
    point = _feasible_point(problem)
    if point is None:
        return Verdict.unknown()
    witness = PrAltWitness(point[:r], point[r : 2 * r], point[2 * r :])
    merged = to_leq_matrix(merge_guarded(loop), loop.space)
    return Verdict.terminating(extract_rf(witness.reconstruct(), merged))


def pr_alt_space(loop: LoopModel) -> RankingSpace:
    """The space of a guarded loop, which is pr_space of its merged system.

    The three-vector system is kept for feasibility only: its extraction
    rule reads the offset off the guard multipliers alone, which pins mu0
    whenever a valid offset needs weight on update rows.  The guard/update
    block matrix with full multipliers is row for row the merged system's
    matrix, so the space is projected from that."""
    if not loop.is_guarded:
        raise ConstraintError("alternative formulation needs a guarded loop")
    return pr_space(loop)


def pr_space_of_matrix(m: LeqMatrixForm) -> RankingSpace:
    """The multiplier-to-space projection for any <=-form matrix; pr_space
    is this applied to the loop's merged form.  The affine slot row is
    appended first so the mu0 coordinate ranges over every valid offset.
    The parameters are defined by the extraction rows: mu0 = lam1^T b and
    mu = lam2^T A'."""
    ext = with_affine_slot(m)
    signs, params = (NONNEG,) * (2 * ext.n_rows), _mu_names(ext.n_vars, with_mu0=True)
    return _multiplier_space(_pr_rows(ext), signs, params, PR, extraction_rows(ext))

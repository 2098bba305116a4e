"""Ranking-function synthesis by LP duality.

For a loop constraint c over (x, x') in >=-form  A_c <x,x'> >= b_c, the
decrease requirement "mu.x - mu.x' >= 1 whenever c holds" says the LP
minimizing <mu, -mu>.<x, x'> over c has optimum >= 1.  Dualizing makes mu
appear linearly, so the quantified requirement collapses to feasibility of
one linear system in the dual multipliers and mu together.

Two variants are implemented:

* the nonnegative-variable setting (variables and coefficients in Q+),
  where feasibility of the single system below decides existence of a
  positive linear ranking function:

      A_c^T y <= <mu, -mu>,   b_c^T y >= 1,   y >= 0,   mu >= 0

* the general affine setting over Q, which strengthens the condition to
  "decrease by >= 1 and bounded below by 0" and pairs the decrease system
  with a boundedness system over an extended matrix encoding x0 = 1; the
  loop admits an affine ranking function iff their conjunction (sharing
  mu) is satisfiable, and projecting onto (mu0, mu) yields the space of
  all normalized ranking functions.

Projecting the two systems separately yields the decreasing-only and
bounded-only candidate spaces used for conditional termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .constraints import (
    EQ,
    GE,
    LE,
    ConstraintError,
    ConstraintSystem,
    LinConstraint,
    LoopModel,
    Rows,
    VarSpace,
    loop_system,
    to_geq_matrix,
)
from .projection import _false_row, _project, _system, remove_redundant
from .rationals import Rational, rat
from .simplex import FREE, NONNEG, _point, _triples, satisfiable

SVG, MS_FULL, MS_DECREASING, MS_BOUNDED, PR = (
    "svg",
    "ms-full",
    "ms-decreasing",
    "ms-bounded",
    "pr",
)


class UnsatisfiableLoopError(ValueError):
    """Operation requires a satisfiable loop constraint."""


class TerminationStatus(Enum):
    TERMINATING = "terminating"
    TRIVIALLY_TERMINATING = "trivially-terminating"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RankingFunction:
    """f(x) = mu0 + mu . x, certified to decrease by at least `delta` per
    iteration and to stay >= `lower_bound` while the loop runs.

    `certificate`, when set, is a pair (decrease, bound) of nonnegative
    multiplier vectors over the rows of the loop's <=-form
    `to_leq_matrix(loop_system(loop), loop.space)`, in `to_leq_rows`
    order.  Summing the rows with weights `decrease` gives f(x) - f(x') >=
    delta, and with weights `bound` gives f(x) >= lower_bound;
    `certify.certificate_holds` checks both.  The engines' terminating
    verdicts carry one (MS: the y block and the z block without its two
    x0 rows; PR: lam2 and lam1); it takes no part in equality, hashing or
    repr."""

    mu0: Rational
    mu: tuple[Rational, ...]
    delta: Rational
    lower_bound: Rational
    certificate: tuple[tuple[Rational, ...], tuple[Rational, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    def value_at(self, x: Sequence[Rational]) -> Rational:
        if len(x) != len(self.mu):
            raise ValueError("point dimension mismatch")
        return self.mu0 + sum((m * rat(v) for m, v in zip(self.mu, x)), Fraction(0))


@dataclass(frozen=True)
class RankingSpace:
    """All (normalized) ranking-function coefficient tuples of one loop, as
    a constraint system over the parameter variables."""

    params: tuple[str, ...]
    constraints: ConstraintSystem
    kind: str

    def __post_init__(self):
        if self.constraints.variables != self.params:
            raise ConstraintError("space constraints must range over its parameters")

    def is_empty(self) -> bool:
        return not satisfiable(self.constraints)

    def contains(self, point: Sequence[Rational]) -> bool:
        return self.constraints.satisfied_by(point)


@dataclass(frozen=True)
class Verdict:
    status: TerminationStatus
    witness: RankingFunction | None = None

    @staticmethod
    def terminating(witness: RankingFunction) -> "Verdict":
        return Verdict(TerminationStatus.TERMINATING, witness)

    @staticmethod
    def trivially_terminating() -> "Verdict":
        return Verdict(TerminationStatus.TRIVIALLY_TERMINATING)

    @staticmethod
    def unknown() -> "Verdict":
        return Verdict(TerminationStatus.UNKNOWN)


def combined_varspace(c: ConstraintSystem) -> VarSpace:
    """Recover the loop VarSpace from a system over (x1..xn, x1'..xn')."""
    names = c.variables
    if len(names) % 2 != 0:
        raise ConstraintError("not a loop system: odd variable count")
    n = len(names) // 2
    space = VarSpace(names[:n])
    if space.combined_names != names:
        raise ConstraintError("not a loop system: primed block does not mirror the base block")
    return space


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def _mu_names(n: int, with_mu0: bool) -> tuple[str, ...]:
    return (("mu0",) if with_mu0 else ()) + _names("mu", n)


# A multiplier system is stated once per engine, as (coeffs, rel, const)
# triples without the multipliers' sign rows, and a sign per column.  The
# rows are ints inside: read off the loop's matrix with `_ints` (a Fraction
# only where the loop's entry is not integral), with int 0/+-1 constants.
# The analyses and the spaces' emptiness checks hand the triples and signs
# to `simplex._point`, which lays them out as `find_point` lays out a
# system's rows; the spaces project the triples (`_multiplier_space`).
# Public values are Fractions: the builders' `ConstraintSystem`s, and the
# witnesses, certificates and space rows that the simplex and projection
# return.


def _sign_rows(signs: tuple[str, ...]) -> list:
    """A row v >= 0 for each NONNEG column v, as int triples."""
    columns = [j for j, sign in enumerate(signs) if sign == NONNEG]
    return [(tuple(int(i == j) for i in range(len(signs))), GE, 0) for j in columns]


def _multiplier_system(variables, rows: list, signs: tuple[str, ...]) -> ConstraintSystem:
    """The rows, then their sign rows, as `LinConstraint`s of Fractions."""
    rows = list(rows) + _sign_rows(signs)
    return ConstraintSystem(variables, tuple(LinConstraint(*row) for row in rows))


def _multiplier_space(
    rows: list, signs: tuple[str, ...], params: tuple[str, ...], kind: str, defining=()
) -> RankingSpace:
    """The projection of a multiplier system onto its trailing columns,
    named `params`.  The system is the rows, then their sign rows, then for
    each of `defining`, a combination of the multipliers, the equality
    that gives it one more column.  It is empty iff `_point` finds no
    point of the rows; otherwise its triples go to `_project` as they are,
    which substitutes the columns its equalities hold before pairing."""
    if _point(rows, signs) is None:
        return RankingSpace(params, _system(params, [_false_row(len(params))]), kind)
    extra = len(defining)
    system = [(coeffs + (0,) * extra, rel, const) for coeffs, rel, const in rows]
    system += _sign_rows(signs + (FREE,) * extra)
    for k, coeffs in enumerate(defining):
        system.append((tuple(coeffs) + tuple(-int(i == k) for i in range(extra)), EQ, 0))
    width = len(signs) + extra
    projected = _project(system, width, range(width - len(params), width))
    return RankingSpace(params, _system(params, projected), kind)


def _mu_rows(a_c: Rows, n: int, rel: str) -> list:
    """The 2n homogeneous rows  A_c^T y  rel  <mu, -mu>  over (y, mu1..mun)."""
    m = len(a_c)
    rows = []
    for j in range(2 * n):
        coeffs = [row[j] for row in a_c] + [0] * n
        coeffs[m + j % n] = -1 if j < n else 1
        rows.append((tuple(coeffs), rel, 0))
    return rows


def _svg_rows(c: ConstraintSystem) -> tuple[int, list]:
    """(n, the multiplier rows over (y, mu1..mun) that decide a positive
    linear ranking function for the clause c): the 2n homogeneous rows
    A_c^T y <= <mu, -mu>, then the decrease row b_c^T y >= 1.  Every
    column is nonnegative; the sign rows are left to the caller."""
    n = combined_varspace(c).n
    a_c, b_c = to_geq_matrix(c, _ints=True)
    rows = _mu_rows(a_c, n, LE)
    rows.append((b_c + (0,) * n, GE, 1))
    return n, rows


def _satisfiable_nonneg(c: ConstraintSystem) -> bool:
    """Satisfiability of c with every variable restricted to Q+."""
    return _point(_triples(c), (NONNEG,) * c.n_vars) is not None


def svg_analyze(c: ConstraintSystem) -> Verdict:
    """Decision procedure for clauses over nonnegative variables: an
    unsatisfiable clause body terminates trivially (zero iterations);
    otherwise feasibility of the multiplier system proves termination and
    any feasible point supplies the coefficients; otherwise the analysis
    is inconclusive."""
    if not _satisfiable_nonneg(c):
        return Verdict.trivially_terminating()
    n, rows = _svg_rows(c)
    point = _point(rows, (NONNEG,) * len(rows[0][0]))
    if point is not None:
        mu = point[-n:]
        witness = RankingFunction(Fraction(0), mu, Fraction(1), Fraction(0))
        return Verdict.terminating(witness)
    return Verdict.unknown()


def svg_space(c: ConstraintSystem) -> RankingSpace:
    """Space of all positive linear ranking coefficient vectors mu."""
    if not _satisfiable_nonneg(c):
        raise UnsatisfiableLoopError("svg space of an unsatisfiable clause")
    n, rows = _svg_rows(c)
    signs = (NONNEG,) * len(rows[0][0])
    return _multiplier_space(rows, signs, _mu_names(n, with_mu0=False), SVG)


def svg_global_space(clauses: Sequence[ConstraintSystem]) -> RankingSpace:
    """Global ranking coefficients valid for every clause: the conjunction
    (set intersection) of the per-clause spaces."""
    if not clauses:
        raise ConstraintError("need at least one clause")
    spaces = [svg_space(c) for c in clauses]
    params = spaces[0].params
    if any(s.params != params for s in spaces):
        raise ConstraintError("clauses have different arities")
    rows: tuple[LinConstraint, ...] = ()
    for s in spaces:
        rows = rows + s.constraints.rows
    merged = remove_redundant(ConstraintSystem(params, rows))
    return RankingSpace(params, merged, SVG)


def _ms_rows(c: ConstraintSystem) -> tuple[int, int, list, list]:
    """(n, m, decrease rows over (y, mu), boundedness rows over (z, mu0, mu))
    for the m rows of  A_c <x, x'> >= b_c  (see `build_ms_systems`)."""
    n = combined_varspace(c).n
    a_c, b_c = to_geq_matrix(c, _ints=True)
    m = len(a_c)
    decrease = [(b_c + (0,) * n, GE, 1)] + _mu_rows(a_c, n, EQ)
    # The x0 = 1 rows lead the extended matrix: z1 - z2 takes mu0's column.
    bounded = [((1, -1) + b_c + (0,) * (n + 1), GE, 0)]
    bounded.append(((1, -1) + (0,) * m + (-1,) + (0,) * n, EQ, 0))
    for j in range(2 * n):
        coeffs = [0, 0] + [row[j] for row in a_c] + [0] * (n + 1)
        if j < n:
            coeffs[m + 3 + j] = -1
        bounded.append((tuple(coeffs), EQ, 0))
    return n, m, decrease, bounded


def _ms_signs(multipliers: int, n: int) -> tuple[str, ...]:
    """Nonnegative multipliers, then free (mu0, mu1..mun)."""
    return (NONNEG,) * multipliers + (FREE,) * (n + 1)


def build_ms_systems(c: ConstraintSystem) -> tuple[ConstraintSystem, ConstraintSystem]:
    """The decrease system over (y, mu) and the boundedness system over
    (z, mu0, mu); mu and mu0 are free-sign variables.

        decrease:  b_c^T y >= 1,   A_c^T y  = <mu, -mu>,   y >= 0
        bounded:   bt^T  z >= 0,   At^T  z  = <mu0, mu, 0>, z >= 0

    where (At, bt) extend (A_c, b_c) with the two leading rows encoding
    x0 = 1.
    """
    n, m, decrease, bounded = _ms_rows(c)
    y, z = _names("y", m), _names("z", m + 2)
    return (
        _multiplier_system(y + _mu_names(n, False), decrease, (NONNEG,) * m + (FREE,) * n),
        _multiplier_system(z + _mu_names(n, True), bounded, _ms_signs(m + 2, n)),
    )


def _conjoined_rows(c: ConstraintSystem) -> tuple[int, int, list]:
    """(n, m, both MS systems' rows without sign rows) over y (one per row
    of to_geq_matrix(c)), z (two x0 rows, then one per row) and mu0..mun."""
    n, m, decrease, bounded = _ms_rows(c)
    pad, lead = (0,) * (m + 3), (0,) * m
    rows = [(coeffs[:m] + pad + coeffs[m:], rel, k) for coeffs, rel, k in decrease]
    rows += [(lead + coeffs, rel, k) for coeffs, rel, k in bounded]
    return n, m, rows


def ms_analyze(loop: LoopModel) -> Verdict:
    """Affine ranking-function existence test over Q: feasibility of the
    conjoined decrease+boundedness system, solved as one LP straight off
    the loop's >=-form matrix, after short-circuiting loops whose body
    constraint is unsatisfiable."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    n, m, rows = _conjoined_rows(c)
    point = _point(rows, _ms_signs(2 * m + 2, n))
    if point is None:
        return Verdict.unknown()
    certificate = (point[:m], point[m + 2 : 2 * m + 2])
    mu0, mu = point[2 * m + 2], point[2 * m + 3 :]
    witness = RankingFunction(mu0, mu, Fraction(1), Fraction(0), certificate)
    return Verdict.terminating(witness)


def _require_satisfiable(loop: LoopModel) -> ConstraintSystem:
    c = loop_system(loop)
    if not satisfiable(c):
        raise UnsatisfiableLoopError("loop body constraint is unsatisfiable")
    return c


def _ms_space(n: int, m: int, rows: list, kind: str) -> RankingSpace:
    """The decreasing or the bounded space, projected from its `_ms_rows`
    rows; the decrease rows get mu0's column, all zero."""
    if kind == MS_DECREASING:
        rows = [(coeffs[:m] + (0,) + coeffs[m:], rel, k) for coeffs, rel, k in rows]
    signs = _ms_signs(len(rows[0][0]) - n - 1, n)
    return _multiplier_space(rows, signs, _mu_names(n, with_mu0=True), kind)


def ms_space(loop: LoopModel) -> RankingSpace:
    """Space of all normalized affine ranking functions (decrease >= 1,
    lower bound 0), as constraints over (mu0, mu1..muN).

    The conjoined system's y and z blocks share only (mu0, mu), so its
    projection is computed block-by-block and conjoined; this is exact and
    keeps each elimination small.  An unsatisfiable loop raises
    UnsatisfiableLoopError."""
    n, m, decrease, bounded = _ms_rows(_require_satisfiable(loop))
    spaces = _ms_space(n, m, decrease, MS_DECREASING), _ms_space(n, m, bounded, MS_BOUNDED)
    merged = remove_redundant(spaces[0].constraints.conjoin(spaces[1].constraints))
    return RankingSpace(spaces[0].params, merged, MS_FULL)


def ms_decreasing_space(loop: LoopModel) -> RankingSpace:
    """Candidates that decrease by >= 1 each iteration (mu0 unconstrained)."""
    n, m, rows, _ = _ms_rows(_require_satisfiable(loop))
    return _ms_space(n, m, rows, MS_DECREASING)


def ms_bounded_space(loop: LoopModel) -> RankingSpace:
    """Candidates bounded below by 0 on the loop's reachable states."""
    n, m, _, rows = _ms_rows(_require_satisfiable(loop))
    return _ms_space(n, m, rows, MS_BOUNDED)

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

from dataclasses import dataclass
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
from .projection import project, remove_redundant
from .rationals import Rational
from .simplex import find_point, satisfiable

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
    iteration and to stay >= `lower_bound` while the loop runs."""

    mu0: Rational
    mu: tuple[Rational, ...]
    delta: Rational
    lower_bound: Rational

    def value_at(self, x: Sequence[Rational]) -> Rational:
        if len(x) != len(self.mu):
            raise ValueError("point dimension mismatch")
        return self.mu0 + sum((m * Fraction(v) for m, v in zip(self.mu, x)), Fraction(0))

    def scaled(self, k: Rational) -> "RankingFunction":
        k = Fraction(k)
        return RankingFunction(
            self.mu0 * k, tuple(m * k for m in self.mu), self.delta * k, self.lower_bound * k
        )


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


def _mu_names(n: int, with_mu0: bool) -> tuple[str, ...]:
    base = tuple(f"mu{i}" for i in range(1, n + 1))
    return (("mu0",) + base) if with_mu0 else base


def _sign_rows(variables: tuple[str, ...], names: Sequence[str]) -> list[LinConstraint]:
    rows = []
    for name in names:
        coeffs = [Fraction(0)] * len(variables)
        coeffs[variables.index(name)] = Fraction(1)
        rows.append(LinConstraint(tuple(coeffs), GE, Fraction(0)))
    return rows


def _mu_rows(a_c: Rows, n: int, rel: str) -> list[LinConstraint]:
    """The 2n homogeneous rows  A_c^T y  rel  <mu, -mu>  over (y, mu1..mun)."""
    m = len(a_c)
    rows = []
    for j in range(2 * n):
        coeffs = [row[j] for row in a_c] + [Fraction(0)] * n
        coeffs[m + j % n] = Fraction(-1) if j < n else Fraction(1)
        rows.append(LinConstraint(tuple(coeffs), rel, Fraction(0)))
    return rows


def build_svg_system(c: ConstraintSystem) -> ConstraintSystem:
    """Feasibility system deciding existence of a positive linear ranking
    function for a clause over nonnegative variables.

    Rows, in order: the 2n homogeneous rows A_c^T y <= <mu, -mu>, the
    decrease row b_c^T y >= 1, then y >= 0 and mu >= 0.
    """
    n = combined_varspace(c).n
    a_c, b_c = to_geq_matrix(c)
    y_names = tuple(f"y{i}" for i in range(1, len(a_c) + 1))
    variables = y_names + _mu_names(n, with_mu0=False)
    rows = _mu_rows(a_c, n, LE)
    rows.append(LinConstraint(b_c + (Fraction(0),) * n, GE, Fraction(1)))
    rows.extend(_sign_rows(variables, variables))
    return ConstraintSystem(variables, tuple(rows))


def _satisfiable_nonneg(c: ConstraintSystem) -> bool:
    """Satisfiability of c with every variable restricted to Q+."""
    extended = c.with_rows(tuple(c.rows) + tuple(_sign_rows(c.variables, c.variables)))
    return satisfiable(extended)


def svg_analyze(c: ConstraintSystem) -> Verdict:
    """Decision procedure for clauses over nonnegative variables: an
    unsatisfiable clause body terminates trivially (zero iterations);
    otherwise feasibility of the multiplier system proves termination and
    any feasible point supplies the coefficients; otherwise the analysis
    is inconclusive."""
    if not _satisfiable_nonneg(c):
        return Verdict.trivially_terminating()
    system = build_svg_system(c)
    point = find_point(system)
    if point is not None:
        n = combined_varspace(c).n
        mu = point[-n:]
        witness = RankingFunction(Fraction(0), mu, Fraction(1), Fraction(0))
        return Verdict.terminating(witness)
    return Verdict.unknown()


def svg_space(c: ConstraintSystem) -> RankingSpace:
    """Space of all positive linear ranking coefficient vectors mu."""
    if not _satisfiable_nonneg(c):
        raise UnsatisfiableLoopError("svg space of an unsatisfiable clause")
    n = combined_varspace(c).n
    params = _mu_names(n, with_mu0=False)
    projected = project(build_svg_system(c), params)
    return RankingSpace(params, projected, SVG)


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


def _extended_geq(
    a_c: Rows, b_c: tuple[Rational, ...], n: int
) -> tuple[Rows, tuple[Rational, ...]]:
    """Prepend the two rows encoding x0 = 1 to the >=-form matrix; columns
    become (x0, x, x')."""
    zeros = (Fraction(0),) * (2 * n)
    rows = ((Fraction(1),) + zeros, (Fraction(-1),) + zeros)
    rows += tuple((Fraction(0),) + row for row in a_c)
    return rows, (Fraction(1), Fraction(-1)) + b_c


def build_ms_systems(c: ConstraintSystem) -> tuple[ConstraintSystem, ConstraintSystem]:
    """The decrease system over (y, mu) and the boundedness system over
    (z, mu0, mu); mu and mu0 are free-sign variables.

        decrease:  b_c^T y >= 1,   A_c^T y  = <mu, -mu>,   y >= 0
        bounded:   bt^T  z >= 0,   At^T  z  = <mu0, mu, 0>, z >= 0

    where (At, bt) extend (A_c, b_c) with the rows encoding x0 = 1.
    """
    n = combined_varspace(c).n
    a_c, b_c = to_geq_matrix(c)

    y_names = tuple(f"y{i}" for i in range(1, len(a_c) + 1))
    dec_vars = y_names + _mu_names(n, with_mu0=False)
    dec_rows = [LinConstraint(b_c + (Fraction(0),) * n, GE, Fraction(1))]
    dec_rows.extend(_mu_rows(a_c, n, EQ))
    dec_rows.extend(_sign_rows(dec_vars, y_names))
    decrease = ConstraintSystem(dec_vars, tuple(dec_rows))

    ext_rows, ext_consts = _extended_geq(a_c, b_c, n)
    mz = len(ext_rows)
    z_names = tuple(f"z{i}" for i in range(1, mz + 1))
    bnd_vars = z_names + _mu_names(n, with_mu0=True)
    bnd_rows = [LinConstraint(ext_consts + (Fraction(0),) * (n + 1), GE, Fraction(0))]
    for j in range(2 * n + 1):
        coeffs = [row[j] for row in ext_rows] + [Fraction(0)] * (n + 1)
        if j <= n:
            coeffs[mz + j] = Fraction(-1)
        bnd_rows.append(LinConstraint(tuple(coeffs), EQ, Fraction(0)))
    bnd_rows.extend(_sign_rows(bnd_vars, z_names))
    bounded = ConstraintSystem(bnd_vars, tuple(bnd_rows))
    return decrease, bounded


def _embed(c: ConstraintSystem, variables: tuple[str, ...]) -> ConstraintSystem:
    """Widen c's rows onto a larger variable tuple (matching by name)."""
    index = {name: variables.index(name) for name in c.variables}
    rows = []
    for row in c.rows:
        coeffs = [Fraction(0)] * len(variables)
        for name, coeff in zip(c.variables, row.coeffs):
            coeffs[index[name]] = coeff
        rows.append(LinConstraint(tuple(coeffs), row.rel, row.const))
    return ConstraintSystem(variables, tuple(rows))


def conjoined_ms_system(c: ConstraintSystem) -> ConstraintSystem:
    """Both systems over shared (mu0, mu) with disjoint y and z blocks."""
    decrease, bounded = build_ms_systems(c)
    y_names = tuple(v for v in decrease.variables if v.startswith("y"))
    z_names = tuple(v for v in bounded.variables if v.startswith("z"))
    mu_names = tuple(v for v in bounded.variables if v.startswith("mu"))
    variables = y_names + z_names + mu_names
    return ConstraintSystem(
        variables, _embed(decrease, variables).rows + _embed(bounded, variables).rows
    )


def ms_analyze(loop: LoopModel) -> Verdict:
    """Affine ranking-function existence test over Q: satisfiability of the
    conjoined decrease+boundedness system, after short-circuiting loops
    whose body constraint is unsatisfiable."""
    c = loop_system(loop)
    if not satisfiable(c):
        return Verdict.trivially_terminating()
    conjoined = conjoined_ms_system(c)
    point = find_point(conjoined)
    if point is None:
        return Verdict.unknown()
    n = loop.space.n
    names = conjoined.variables
    mu0 = point[names.index("mu0")]
    mu = tuple(point[names.index(f"mu{i}")] for i in range(1, n + 1))
    witness = RankingFunction(mu0, mu, Fraction(1), Fraction(0))
    return Verdict.terminating(witness)


def _require_satisfiable(loop: LoopModel) -> ConstraintSystem:
    c = loop_system(loop)
    if not satisfiable(c):
        raise UnsatisfiableLoopError("loop body constraint is unsatisfiable")
    return c


def ms_space(loop: LoopModel) -> RankingSpace:
    """Space of all normalized affine ranking functions (decrease >= 1,
    lower bound 0), as constraints over (mu0, mu1..muN).

    The conjoined system's y and z blocks share only (mu0, mu), so its
    projection is computed block-by-block and conjoined; this is exact and
    keeps each elimination small."""
    _require_satisfiable(loop)
    params = _mu_names(loop.space.n, with_mu0=True)
    decreasing = ms_decreasing_space(loop)
    bounded = ms_bounded_space(loop)
    merged = remove_redundant(decreasing.constraints.conjoin(bounded.constraints))
    return RankingSpace(params, merged, MS_FULL)


def ms_decreasing_space(loop: LoopModel) -> RankingSpace:
    """Candidates that decrease by >= 1 each iteration (mu0 unconstrained)."""
    c = _require_satisfiable(loop)
    decrease, _ = build_ms_systems(c)
    params = _mu_names(loop.space.n, with_mu0=True)
    widened = _embed(decrease, tuple(v for v in decrease.variables if v.startswith("y")) + params)
    projected = project(widened, params)
    return RankingSpace(params, projected, MS_DECREASING)


def ms_bounded_space(loop: LoopModel) -> RankingSpace:
    """Candidates bounded below by 0 on the loop's reachable states."""
    c = _require_satisfiable(loop)
    _, bounded = build_ms_systems(c)
    params = _mu_names(loop.space.n, with_mu0=True)
    projected = project(bounded, params)
    return RankingSpace(params, projected, MS_BOUNDED)

"""Exact rational linear programming.

A dense two-phase simplex with Bland's pivoting rule, so every run
terminates, on fraction-free integer rows.  Rows are ints inside: most
LP rows arrive all-int (the engines' rows come from an integer view of
the loop's matrix) and are laid out as they are; any other row is
integer-scaled once.  Every reported point, value and certificate is an
exact `Fraction`.  Problems here are small (tens of rows), which makes
the dense tableau the right trade-off.

Phase 1 keeps no artificial columns: each row has one artificial cell,
the basic entry of its artificial variable while that is basic, and only
real columns are priced.  No pivot changes, as an artificial would enter
only where the simplex multipliers are a Farkas certificate that the LP
is infeasible (see `_bland_min`).  A feasibility LP returns its point
right after phase 1: driving out an artificial still basic, which is
zero, is a degenerate pivot.

`solve` takes an `LpProblem`.  Projection's entailment test builds its
dual LPs itself; every other question is one of feasibility, and `_point`
is its only routine: the four termination analyses and the space routes'
emptiness checks hand it the engines' multiplier rows, and `find_point`
(so `satisfiable`) a `ConstraintSystem`'s rows.  One rule decides strict
rows, the one the paper's PR uses on its multiplier cone: in a
homogeneous system the solutions scale, so e.x < 0 has a solution iff
e.x <= -1 does.  `_point` makes a system with a strict row homogeneous
first (a new column t > 0 takes the constants), and its bridge `_lp_rows`
orients each row as <= or =, turns plain sign rows into variable bounds
and tightens each strict row to <= -1; one feasibility LP answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .constraints import EQ, GE, GT, HOLDS, LE, LT, ConstraintSystem
from .rationals import Rational, integer_scaling, rat

NONNEG = "nonneg"
FREE = "free"
_ZERO = Fraction(0)


class LpShapeError(ValueError):
    """Problem shape unsupported by the requested transformation."""


class LpStatus(Enum):
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: tuple[Rational, ...] | None = None
    value: Rational | None = None
    ray: tuple[Rational, ...] | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status is not LpStatus.INFEASIBLE


@dataclass(frozen=True)
class LpProblem:
    """minimize/maximize  objective . x  subject to rows, with per-variable
    sign restrictions; objective None means a pure feasibility problem."""

    objective: tuple[Rational, ...] | None
    maximize: bool
    rows: tuple[tuple[tuple[Rational, ...], str, Rational], ...]
    signs: tuple[str, ...]

    def __post_init__(self):
        n = len(self.signs)
        if self.objective is not None and len(self.objective) != n:
            raise LpShapeError("objective length does not match variable count")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != n:
                raise LpShapeError("row length does not match variable count")
            if rel not in (LE, EQ, GE):
                raise LpShapeError(f"unsupported relation {rel!r} in LP row")
        for sign in self.signs:
            if sign not in (NONNEG, FREE):
                raise LpShapeError(f"unknown variable sign {sign!r}")

    @property
    def n_vars(self) -> int:
        return len(self.signs)


def lp(objective, maximize, rows, signs) -> LpProblem:
    """An LpProblem from plain values, each taken exactly by `rat`; a float
    or a decimal string raises LpShapeError."""
    try:
        obj = None if objective is None else tuple(rat(c) for c in objective)
        norm_rows = tuple(
            (tuple(rat(c) for c in coeffs), rel, rat(rhs)) for coeffs, rel, rhs in rows
        )
    except ValueError as err:
        raise LpShapeError(str(err)) from None
    return LpProblem(obj, maximize, norm_rows, tuple(signs))


def _integer_standard_form(p: LpProblem):
    """The layout of p's standard form, as int rows.  Each variable gets a
    column pair (col+, col-), col- None for a nonnegative one, and the
    slack of each inequality follows them in row order.  Returns the
    columns, the column count n, the rows (n + 1 ints each, rhs last), the
    positive scale of each row (row i stands for rows[i] / scales[i]: one
    `integer_scaling` of its coeffs and rhs, slack +-scale), and the
    objective to minimize as ints, or None.  An all-int row, as the engines
    and projection give them, is laid out as it is, with scale 1 and no
    `integer_scaling`, whatever its columns' signs.  A value that is
    neither int nor Fraction raises LpShapeError."""
    columns: list[tuple[int, int | None]] = []
    slack = 0
    for sign in p.signs:
        columns.append((slack, None if sign == NONNEG else slack + 1))
        slack += 1 if sign == NONNEG else 2
    n = slack + sum(1 for _, rel, _ in p.rows if rel != EQ)
    # With every variable nonnegative, variable j is column j, so a row is
    # widened by appending its zero slack cells.
    pad = [0] * (n - slack) if slack == len(p.signs) else None

    def widen(coeffs, rhs):
        if pad is not None:
            return [*coeffs, *pad, rhs]
        row = [0] * (n + 1)
        for (plus, minus), v in zip(columns, coeffs):
            row[plus] = v
            if minus is not None:
                row[minus] = -v
        row[-1] = rhs
        return row

    rows, scales = [], []
    try:
        for coeffs, rel, rhs in p.rows:
            if type(rhs) is int and all(type(v) is int for v in coeffs):
                scale, row = 1, widen(coeffs, rhs)
            else:
                scale, ints = integer_scaling((*coeffs, rhs))
                row = widen(ints[:-1], ints[-1])
            if rel != EQ:
                row[slack] = scale if rel == LE else -scale
                slack += 1
            rows.append(row)
            scales.append(scale)
        objective = None if p.objective is None else integer_scaling(p.objective)[1]
    except AttributeError:  # a float or a str has no denominator
        raise LpShapeError("LP values must be ints or Fractions") from None
    if objective is not None:
        if p.maximize:
            objective = [-v for v in objective]
        objective = widen(objective, 0)[:-1]
    return tuple(columns), n, rows, scales, objective


# --- tableau core -----------------------------------------------------------
#
# Fraction-free rows (Edmonds/Bareiss): each row is a list of Python ints,
# scaled once from its LP row by `_integer_standard_form`, and row r stands
# for the rational row T[r] / T[r][basis[r]], whose basic entry is kept
# positive.  Every sign test and ratio comparison of the rational tableau
# therefore reads off the integers directly, so the pivots are exactly those
# of the rational simplex; rationals are rebuilt only for the reported point
# and ray, from the basic rows' nonzero entries only.  The layout is one
# pass: the crash basis is one sweep over the columns, and the phase-1 cost
# row the column sums of the rows it leaves uncovered.  Only then does each
# row get its artificial cell, so a phase-1 row is the n real columns, the
# artificial cell and the rhs; artificial k keeps the virtual column n + k
# in `basis`.  An LP the crash basis covers skips phase 1 with n + 1 wide rows.


def _combine(row, prow, p, f):
    """row * p - prow * f, divided by the gcd of its entries."""
    out = [a * p - b * f if b else a * p for a, b in zip(row, prow)]
    g = gcd(*out)
    return [e // g for e in out] if g > 1 else out


def _pivot(tableau, basis, r, col, n):
    prow = tableau[r]
    if basis[r] >= n:  # a leaving artificial: its column goes, so clear its cell
        prow[n] = 0
    p = prow[col]
    if p < 0:  # only the phase-1 drive-out pivots on a negative entry
        prow = tableau[r] = [-e for e in prow]
        p = -p
    for i, other in enumerate(tableau):
        f = other[col]
        if f and i != r:
            tableau[i] = _combine(other, prow, p, f)
    basis[r] = col


def _bland_min(tableau, basis, cost, n, phase1=False):
    """Minimize over the current tableau by Bland's rule, pricing the n real
    columns only; cost is the reduced-cost row with the negated objective
    value in its last cell, as ints scaled by a positive factor.  Updates
    cost in place and returns ('optimal',) or ('unbounded', entering_col).
    With phase1, cost prices w >= 0, the sum of the artificials, and the
    run returns once w is zero.  An artificial would enter only if every
    real column priced non-negative: pi.A <= 0 for the simplex multipliers
    pi.  A feasible x >= 0 would give w = pi.b = pi.A x <= 0, so with w > 0
    pi is a Farkas certificate of infeasibility, and the run returns there
    instead, with -w < 0 in the last cost cell."""
    while True:
        if phase1 and cost[-1] >= 0:
            return ("optimal",)
        entering = next((j for j in range(n) if cost[j] < 0), None)
        if entering is None:
            return ("optimal",)
        # Bland's ratio test: least rhs / entry over positive entries,
        # compared by cross-multiplication, ties to the least basic column.
        leaving = None
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving, best_a, best_b = r, a, row[-1]
        if leaving is None:
            return ("unbounded", entering)
        _pivot(tableau, basis, leaving, entering, n)
        cost[:] = _combine(cost, tableau[leaving], best_a, cost[entering])


def _solve_standard(rows, scales, objective, n):
    """Simplex on  min objective . x  s.t.  rows x = rhs, x >= 0  over n
    variables.  Row i is n + 1 ints, the last one its rhs, and stands for
    the rational row divided by scales[i] > 0; objective is ints or None.
    Rows the crash basis leaves uncovered get an artificial in their cell;
    the phase-1 cost row is minus the column sums of those rows, each
    times lcm / scales[i].

    Returns (status, point, ray) in standard-form coordinates, the point
    built from the basic rows with a nonzero rhs.  Objective None asks for
    feasibility only, answered right after phase 1 (see the module doc).
    """
    m = len(rows)
    tableau = [[-e for e in row] if row[-1] < 0 else row for row in rows]
    # Crash basis, in one sweep over the columns: a row's basic variable is
    # the first column whose only nonzero is that row's scale (a unit
    # column of the rational row); only uncovered rows get an artificial.
    basis = [-1] * m
    for j, column in zip(range(n), zip(*tableau)):
        top = max(column)
        if top > 0 and column.count(0) == m - 1:
            i = column.index(top)
            if basis[i] < 0 and top == scales[i]:
                basis[i] = j
    uncovered = [i for i in range(m) if basis[i] < 0]

    def current_point():
        point = [_ZERO] * n
        for r, row in enumerate(tableau):
            if row[-1]:
                point[basis[r]] = Fraction(row[-1], row[basis[r]])
        return point

    if uncovered:
        for row in tableau:
            row.insert(n, 0)
        for k, i in enumerate(uncovered):
            # An artificial basic entry is 1 in the rational row, so its row's scale.
            basis[i] = n + k
            tableau[i][n] = scales[i]
        common = lcm(*(scales[i] for i in uncovered))
        weighted = (
            tableau[i] if scales[i] == common else [common // scales[i] * e for e in tableau[i]]
            for i in uncovered
        )
        cost = [-sum(column) for column in zip(*weighted)]
        cost[n] = 0
        outcome = _bland_min(tableau, basis, cost, n, phase1=True)
        assert outcome[0] == "optimal", "phase 1 is bounded below by zero"
        if cost[-1] < 0:
            return LpStatus.INFEASIBLE, None, None
    if objective is None:
        # An artificial still basic is zero: driving it out cannot move the point.
        return LpStatus.FEASIBLE, current_point(), None

    if uncovered:
        # Drive artificial variables out of the basis; rows where that is
        # impossible are redundant and dropped.
        keep = []
        for r in range(m):
            if basis[r] >= n:
                pivot_col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if pivot_col is None:
                    continue
                _pivot(tableau, basis, r, pivot_col, n)
            keep.append(r)
        tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]

    cost = list(objective) + [0]  # priced out: zero on every basic column
    for r, row in enumerate(tableau):
        if cost[basis[r]]:
            cost = _combine(cost, row, row[basis[r]], cost[basis[r]])
    outcome = _bland_min(tableau, basis, cost, n)
    point = current_point()
    if outcome[0] == "unbounded":
        entering = outcome[1]
        ray = [_ZERO] * n
        ray[entering] = Fraction(1)
        for r, row in enumerate(tableau):
            if row[entering]:
                ray[basis[r]] = Fraction(-row[entering], row[basis[r]])
        return LpStatus.UNBOUNDED, point, ray
    return LpStatus.OPTIMAL, point, None


def _recover(columns, standard_point):
    """Original-variable values of a standard-form point: col+ - col-."""
    return tuple(
        standard_point[plus] if minus is None or not standard_point[minus]
        else standard_point[plus] - standard_point[minus]
        for plus, minus in columns
    )


def solve(p: LpProblem) -> LpOutcome:
    """Exact resolution: infeasible, unbounded (with certificate ray),
    optimal (with point and value), or a bare feasible point when the
    problem has no objective."""
    columns, n, rows, scales, objective = _integer_standard_form(p)
    status, point, ray = _solve_standard(rows, scales, objective, n)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    free = FREE in p.signs  # else variable j is column j
    orig_point = _recover(columns, point) if free else tuple(point[: p.n_vars])
    if status is LpStatus.UNBOUNDED:
        ray = _recover(columns, ray) if free else tuple(ray[: p.n_vars])
        return LpOutcome(LpStatus.UNBOUNDED, point=orig_point, ray=ray)
    if status is LpStatus.FEASIBLE:
        return LpOutcome(LpStatus.FEASIBLE, point=orig_point)
    value = sum((c * x for c, x in zip(p.objective, orig_point) if x), _ZERO)
    return LpOutcome(LpStatus.OPTIMAL, point=orig_point, value=value)


def dual(p: LpProblem) -> LpProblem:
    """Dual of the two inequality shapes this package derives:

        min c.x  s.t. A x >= b            max b.y  s.t. A^T y <= c, y >= 0
        max c.x  s.t. A x <= b            min b.y  s.t. A^T y >= c, y >= 0

    A free primal variable turns its dual row into an equality.
    """
    if p.objective is None:
        raise LpShapeError("cannot dualize a problem without an objective")
    want_rel = LE if p.maximize else GE
    for _, rel, _ in p.rows:
        if rel != want_rel:
            raise LpShapeError(
                f"dual expects all rows {want_rel!r} for a "
                f"{'maximization' if p.maximize else 'minimization'} problem"
            )
    m = len(p.rows)
    dual_rows = []
    dual_rel = GE if p.maximize else LE
    for j in range(p.n_vars):
        col = tuple(p.rows[i][0][j] for i in range(m))
        rel = EQ if p.signs[j] == FREE else dual_rel
        dual_rows.append((col, rel, p.objective[j]))
    objective = tuple(rhs for _, _, rhs in p.rows)
    return LpProblem(objective, not p.maximize, tuple(dual_rows), (NONNEG,) * m)


# --- the row bridge -----------------------------------------------------------

def _lp_rows(rows, signs: tuple[str, ...]):
    """Turn (coeffs, rel, const) rows with a starting sign per column into
    LP data; returns (signs, rows).  A plain sign row (c*x >= 0, one nonzero
    positive coefficient) becomes a variable bound, so a nonnegative
    variable takes one standard-form column, not two, and its sign row no
    LP row.  Every other row becomes an LP row, oriented as <= or =.  A
    strict row e.x < 0 becomes e.x <= -1: `_point` hands over a system with
    a strict row only once it is homogeneous, and a homogeneous system's
    solutions scale."""
    signs = list(signs)
    out = []
    for coeffs, rel, const in rows:
        if not const and (rel == GE or rel == LE):
            nonzero = [(j, v) for j, v in enumerate(coeffs) if v]
            if len(nonzero) == 1 and (nonzero[0][1] > 0) == (rel == GE):
                signs[nonzero[0][0]] = NONNEG
                continue
        if rel == GE or rel == GT:
            coeffs, rel, const = tuple(-v for v in coeffs), LE if rel == GE else LT, -const
        if rel == LT:
            assert not const, "a strict row reaches the LP only in a homogeneous system"
            out.append((coeffs, LE, -1))
        else:
            out.append((coeffs, rel, const))
    return tuple(signs), tuple(out)


def _point(rows, signs: tuple[str, ...]) -> tuple[Rational, ...] | None:
    """A point of the rows with the columns signed as given, or None: the
    origin when it satisfies every row, else the point of one feasibility
    LP.  A system with a strict row and a nonzero constant is made
    homogeneous first: each row e.x rel f becomes e.x - f*t rel 0 over a
    new nonnegative last column t, with t > 0, and a point (x, t) gives
    x / t."""
    if all(HOLDS[rel](0, const) for _, rel, const in rows):
        return (_ZERO,) * len(signs)
    n = len(signs)
    lift = any(rel == LT or rel == GT for _, rel, _ in rows) and any(c for _, _, c in rows)
    if lift:
        rows = [(coeffs + (-const,), rel, 0) for coeffs, rel, const in rows]
        rows.append(((0,) * n + (1,), GT, 0))
        signs += (NONNEG,)
    signs, lp_rows = _lp_rows(rows, signs)
    outcome = solve(LpProblem(None, False, lp_rows, signs))
    if not outcome.is_feasible:
        return None
    if lift:
        t = outcome.point[n]
        return tuple(x / t for x in outcome.point[:n])
    return outcome.point


def _triples(c: ConstraintSystem):
    """c's rows as (coeffs, rel, const) triples, for `_point`."""
    return [(row.coeffs, row.rel, row.const) for row in c.rows]


@lru_cache(maxsize=8192)
def find_point(c: ConstraintSystem) -> tuple[Rational, ...] | None:
    """A rational point of c honoring strict rows strictly, or None: the
    point of `_point` over c's rows, every column free, so one LP at most.
    Results are memoized because every analysis and space of a loop first
    asks `satisfiable` of the same loop body: those repeats are nearly all
    of the measured hits (on the 144-op `decide` cycle, 144 of the 288
    lookups, all of them loop bodies).
    """
    return _point(_triples(c), (FREE,) * c.n_vars)


def satisfiable(c: ConstraintSystem) -> bool:
    """Whether `find_point(c)` finds a point.  A system the origin satisfies
    (any homogeneous one without strict rows) is answered before the memo
    hashes it."""
    if all(row.holds_at_zero() for row in c.rows):
        return True
    return find_point(c) is not None

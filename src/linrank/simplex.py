"""Exact rational linear programming.

A two-phase simplex with Bland's pivoting rule, so every run terminates,
on a condensed (dictionary) tableau of integer rows: a row holds only the
nonbasic columns and the rhs, and one positive scale, its basic variable's
entry, so a pivot updates the nonbasic columns only and divides each row
it touches exactly by its old scale.  Rows are ints inside: most LP rows
arrive all-int (from an integer view of the loop's matrix) and are laid
out as they are; any other row is integer-scaled once.  Every reported
point, value and certificate is an exact `Fraction`.  Problems here are
small (tens of rows), which makes a dense tableau the right trade-off.

Each variable is one column, a free one too: of the textbook split
x = x+ - x- the column holds one half, its orientation sign +1 or -1.  No
pivot changes.  The other half's column and reduced cost are the
negations, so while one half is basic the other prices 0, and with x-
indexed right after x+ Bland's rule enters whichever half prices
negative; the crash basis, `_bland_min` and the phase-1 drive-out each
choose the half the split layout would, flipping the column to it.

Phase 1 keeps no artificial columns: an artificial variable is basic in
its row with the row's scale as its entry, has no cell, and is never
priced; when it leaves, its position goes from every row.  No pivot
changes, as an artificial would enter only where the simplex multipliers
are a Farkas certificate that the LP is infeasible (see `_bland_min`).
A feasibility LP returns its point right after phase 1: driving out an
artificial still basic, which is zero, is a degenerate pivot.

`solve` takes an `LpProblem`.  The engines ask only feasibility questions,
and `_point`, the one caller of `solve` here, answers them: the four
termination analyses hand it the engines' multiplier rows, the space
builder its rows (multiplier rows, two spaces' rows or a cone lift),
entailment its Farkas rows and `find_point` a system's rows.  Phase 2
(pricing, the drive-out, rays) serves only an `LpProblem` with an
objective, through the public `solve` and `lp`.  One rule decides strict
rows, the one the paper's PR uses on its multiplier cone: in a
homogeneous system the solutions scale, so e.x < 0 has a solution iff
e.x <= -1 does.  `_point` makes a system with a strict row homogeneous
first (a new column t > 0 takes the constants: only `find_point` needs it,
as entailment asks no strict row), and its bridge `_lp_rows` orients each
row as <= or =, turns plain sign rows into variable bounds and tightens
each strict row to <= -1; one feasibility LP answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .constraints import EQ, GE, GT, HOLDS, LE, LT, ConstraintSystem
from .rationals import Rational, integer_scaling, rat

NONNEG = "nonneg"
FREE = "free"
_ZERO = Fraction(0)
_INT = frozenset((int,))


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
    """The layout of p's standard form, as int rows.  Variable j is column
    j, nonnegative or free, and the slacks of the inequalities follow in
    row order.  Returns each column's sign (see `_Tableau`: 1 for a free
    variable, taken as +x), the rows (an int per column, then the rhs), the
    positive scale of each row (row i stands for rows[i] / scales[i]: one
    `integer_scaling` of its coeffs and rhs, slack +-scale), and the
    objective to minimize as ints, or None.  An all-int row, as the engines
    and projection give them, is laid out as it is, with scale 1.  A value
    that is neither int nor Fraction raises LpShapeError."""
    slack = p.n_vars
    pad = [0] * sum(rel != EQ for _, rel, _ in p.rows)
    rows, scales = [], []
    try:
        for coeffs, rel, rhs in p.rows:
            if type(rhs) is int and _INT.issuperset(map(type, coeffs)):
                scale, row = 1, [*coeffs, *pad, rhs]
            else:
                scale, ints = integer_scaling((*coeffs, rhs))
                row = [*ints[:-1], *pad, ints[-1]]
            if rel != EQ:
                row[slack] = scale if rel == LE else -scale
                slack += 1
            rows.append(row)
            scales.append(scale)
        objective = None if p.objective is None else integer_scaling(p.objective)[1]
    except AttributeError:  # a float or a str has no denominator
        raise LpShapeError("LP values must be ints or Fractions") from None
    if objective is not None:
        objective = [-v if p.maximize else v for v in objective] + pad
    sign = [0 if s == NONNEG else 1 for s in p.signs] + pad
    return sign, rows, scales, objective


# --- tableau core -----------------------------------------------------------
#
# A condensed (dictionary) tableau of integer rows (Chvatal, *Linear
# Programming*, 1983).  Only the nonbasic real columns are stored: cell k of
# every row is variable nonbasic[k], and the last cell is the rhs.  Row r
# stands for the rational row  row / scale[r],  in which its basic variable
# basis[r] has the unit entry, so every sign test and ratio comparison of the
# rational tableau reads off the ints: the pivots are the rational simplex's,
# and rationals are rebuilt only for the reported point and ray.  The ints
# are integer-preserving elimination's (Edmonds 1967; Bareiss 1968): with
# det = |det B| for the basis B of the int layout A, row * det / scale[r] is
# row r of adj(B) A, which is integral, so `_exchange` divides exactly.  An
# up-to-date row has scale[r] == det and is that row; a stale one, untouched
# since det last changed, keeps its older scale.  Columns cut out and rows
# dropped stay as they are in the full tableau, which keeps the invariant.
# A pivot is an exchange step: the leaving variable takes the entering
# column's position, or deletes it if it is an artificial, which never
# re-enters; so Bland's rule, which enters the least variable index, reads
# each eligible position's variable off `nonbasic`.
# The layout is one pass: the crash basis is one sweep over the columns,
# the rows lose the columns it makes basic, and the phase-1 cost row is the
# column sums of the rows it leaves uncovered.  Artificial k is variable
# n + k, basic in its row with the row's scale as its entry, so phase 1
# adds no cell to a row.


def _basic_point(rows, scale, basis, sign):
    """The basic solution over the len(sign) real columns; an artificial
    still basic is zero."""
    point = [_ZERO] * len(sign)
    for row, s, b in zip(rows, scale, basis):
        if row[-1]:
            point[b] = Fraction(-row[-1] if sign[b] < 0 else row[-1], s)
    return point


class _Tableau:
    """The condensed tableau's rows, their scales and basic variables, the
    variable at each position, each real column's orientation (sign[j] is
    +-1 for a free one, 0 for any other) and det, the basis determinant,
    first the product of the scales: each row's first basic entry."""

    __slots__ = ("rows", "scale", "basis", "nonbasic", "sign", "det")

    def __init__(self, rows, scale, basis, nonbasic, sign):
        self.rows, self.scale, self.basis = rows, scale, basis
        self.nonbasic, self.sign, self.det = nonbasic, sign, prod(scale)


def _flip(t, q, cost):
    """Turn the free column at position q to the other half of its split
    variable, whose cells and reduced cost are the negations."""
    for row in t.rows:
        row[q] = -row[q]
    if cost is not None:
        cost[q] = -cost[q]
    t.sign[t.nonbasic[q]] *= -1


def _exchange(t, r, q, cost):
    """Pivot on row r at position q: the variable at q enters the basis in
    row r, and the leaving one takes position q, or deletes it if it is an
    artificial.  The pivot row is first brought up to date, times s / its
    scale with s = det, or -det on the drive-out's negative entry, so its
    entry p > 0 at q is the new det.  Each other row with a cell g != 0 at
    q becomes  (row * p - prow * g) / scale,  exactly, with -s * g / scale
    at q and scale p; cost, if given, likewise but over its gcd.  The pivot
    row keeps its ints, s at q, and gets scale p."""
    rows, scale, basis, nonbasic = t.rows, t.scale, t.basis, t.nonbasic
    prow, s = rows[r], t.det
    if prow[q] < 0:  # only the phase-1 drive-out pivots on a negative entry
        s = -s
    if scale[r] != s:  # a stale or negated pivot row: to its cells * s / scale
        prow = rows[r] = [e * s // scale[r] for e in prow]
    p = prow[q]
    leaving, basis[r], scale[r], t.det = basis[r], nonbasic[q], p, p
    artificial = leaving >= len(t.sign)
    if artificial:
        del prow[q], nonbasic[q]
        f = cost.pop(q) if cost is not None else 0
    else:
        f = cost[q] if cost is not None else 0
        prow[q] = p + s  # so that every combination leaves -s * g at q
    for i, (row, c) in enumerate(zip(rows, scale)):
        if i == r:
            continue
        g = row.pop(q) if artificial else row[q]
        if g:
            rows[i], scale[i] = [(a * p - b * g) // c for a, b in zip(row, prow)], p
    if f:
        out = [a * p - b * f if b else a * p for a, b in zip(cost, prow)]
        d = gcd(*out)
        cost[:] = [e // d for e in out] if d > 1 else out
    if not artificial:
        prow[q] = s
        nonbasic[q] = leaving


def _bland_min(t, cost, phase1=False):
    """Minimize over the tableau by Bland's rule; cost is the reduced-cost
    row over t's positions with the negated objective value in its last
    cell, as ints scaled by a positive factor.  Updates cost in place and
    returns None at the optimum, or the entering position of an unbounded
    ray.  Of the eligible positions, the one whose variable is least
    enters.  A free column with a positive reduced cost is eligible too,
    and enters flipped: its other half prices negative.  With phase1, cost
    prices w >= 0, the sum of the artificials, and the run returns once w
    is zero.  An artificial would enter only if every real column priced
    non-negative: pi.A <= 0 for the simplex multipliers pi.  A feasible
    x >= 0 would give w = pi.b = pi.A x <= 0, so with w > 0 pi is a Farkas
    certificate of infeasibility, and the run returns there instead, with
    -w < 0 in the last cost cell."""
    rows, basis, nonbasic, sign = t.rows, t.basis, t.nonbasic, t.sign
    while True:
        if phase1 and cost[-1] >= 0:
            return None
        eligible = [k for k, (c, j) in enumerate(zip(cost, nonbasic)) if c < 0 or c and sign[j]]
        if not eligible:
            return None
        entering = min(eligible, key=nonbasic.__getitem__)
        if cost[entering] > 0:
            _flip(t, entering, cost)
        # Bland's ratio test: least rhs / entry over positive entries,
        # compared by cross-multiplication, ties to the least basic variable.
        leaving = None
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving, best_a, best_b = r, a, row[-1]
        if leaving is None:
            return entering
        _exchange(t, leaving, entering, cost)


def _solve_standard(rows, scales, objective, sign):
    """Simplex on  min objective . x  s.t.  rows x = rhs  over n = len(sign)
    columns, x free where sign is 1 and x >= 0 where it is 0.  Row i is
    n + 1 ints, rhs last, and stands for the rational row divided by
    scales[i] > 0; objective is ints or None.  The lists are taken over:
    rows become the condensed tableau's rows, the crash basis's columns cut
    out in place (a row with a negative rhs is negated into a copy first),
    scales its scale list, whose product is the first basis determinant,
    and sign its orientations.  Rows the crash basis leaves uncovered get
    an artificial basic variable; the phase-1 cost row is minus the column
    sums of those rows, each times lcm / scales[i], and the phase-2 one the
    oriented objective priced out on the condensed rows.

    Returns (status, point, ray).  Objective None asks for feasibility only,
    answered right after phase 1 (see the module doc), which a crash basis
    covering every row skips: its point is then the answer.
    """
    m, n = len(rows), len(sign)
    rows = [[-e for e in row] if row[-1] < 0 else row for row in rows]
    # Crash basis, in one sweep over the columns: a row's basic variable is
    # the first column whose only nonzero is that row's scale (a unit
    # column of the rational row), or minus it in a free column, taken as
    # -x; only uncovered rows get an artificial.
    basis = [-1] * m
    runs = []  # the basic columns, as [start, stop) runs
    for j, column in zip(range(n), zip(*rows)):
        if column.count(0) == m - 1:
            top = max(column, key=abs)
            i = column.index(top)
            if basis[i] < 0 and (top == scales[i] or sign[j] and top == -scales[i]):
                if top < 0:
                    sign[j] = -1
                basis[i] = j
                if runs and runs[-1][1] == j:
                    runs[-1][1] = j + 1
                else:
                    runs.append([j, j + 1])
    uncovered = [i for i in range(m) if basis[i] < 0]
    nonbasic = list(range(n))
    for start, stop in reversed(runs):
        del nonbasic[start:stop]
        for row in rows:
            del row[start:stop]
    for k, i in enumerate(uncovered):
        basis[i] = n + k
    t = _Tableau(rows, scales, basis, nonbasic, sign)

    if uncovered:
        common = lcm(*(scales[i] for i in uncovered))
        weighted = (
            rows[i] if scales[i] == common else [common // scales[i] * e for e in rows[i]]
            for i in uncovered
        )
        cost = [-sum(column) for column in zip(*weighted)]
        unbounded = _bland_min(t, cost, phase1=True)
        assert unbounded is None, "phase 1 is bounded below by zero"
        if cost[-1] < 0:
            return LpStatus.INFEASIBLE, None, None
    if objective is None:
        # An artificial still basic is zero: driving it out cannot move the point.
        return LpStatus.FEASIBLE, _basic_point(t.rows, t.scale, t.basis, sign), None

    if uncovered:
        # Drive artificial variables out of the basis, each on the
        # least-index real column nonzero in its row, a free one as +x;
        # rows where that is impossible are redundant and dropped.
        keep = []
        for r in range(m):
            if basis[r] >= n:
                q = min((k for k, e in enumerate(rows[r][:-1]) if e),
                        key=nonbasic.__getitem__, default=None)
                if q is None:
                    continue
                if sign[nonbasic[q]] < 0:
                    _flip(t, q, None)
                _exchange(t, r, q, None)
            keep.append(r)
        if len(keep) < m:
            t.rows, t.scale, t.basis = ([x[r] for r in keep] for x in (rows, scales, basis))

    # Price the objective out of the basic columns, one row at a time, with
    # k the factor the cost row is scaled by so far; over its gcd, this is
    # the primitive int row that pricing out a full tableau ends with.
    objective = [-c if o < 0 else c for c, o in zip(objective, sign)]
    cost = [objective[j] for j in t.nonbasic] + [0]
    k = 1
    for row, s, b in zip(t.rows, t.scale, t.basis):
        if c := objective[b] * k:
            cost = [a * s - e * c if e else a * s for a, e in zip(cost, row)]
            k *= s
    g = gcd(*cost)
    if g > 1:
        cost = [e // g for e in cost]
    entering = _bland_min(t, cost)
    point = _basic_point(t.rows, t.scale, t.basis, sign)
    if entering is not None:
        ray = [_ZERO] * n
        ray[t.nonbasic[entering]] = Fraction(-1 if sign[t.nonbasic[entering]] < 0 else 1)
        for row, s, b in zip(t.rows, t.scale, t.basis):
            if row[entering]:
                ray[b] = Fraction(row[entering] if sign[b] < 0 else -row[entering], s)
        return LpStatus.UNBOUNDED, point, ray
    return LpStatus.OPTIMAL, point, None


def solve(p: LpProblem) -> LpOutcome:
    """Exact resolution: infeasible, unbounded (with certificate ray),
    optimal (with point and value), or a bare feasible point when the
    problem has no objective."""
    sign, rows, scales, objective = _integer_standard_form(p)
    status, point, ray = _solve_standard(rows, scales, objective, sign)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    point = tuple(point[: p.n_vars])
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status, point=point, ray=None if ray is None else tuple(ray[: p.n_vars]))
    value = sum((c * x for c, x in zip(p.objective, point) if x), _ZERO)
    return LpOutcome(LpStatus.OPTIMAL, point=point, value=value)


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

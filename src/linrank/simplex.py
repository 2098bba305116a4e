"""Exact rational linear programming.

A dense two-phase simplex over `fractions.Fraction` with Bland's pivoting
rule, so every run terminates and every reported point, value and
certificate is exact.  Problems here are small (tens of rows), which makes
the dense tableau the right trade-off.

Besides the raw `LpProblem` interface this module bridges from
`ConstraintSystem`: feasibility of systems that mix strict and non-strict
rows is decided by maximizing one shared slack added to every strict row --
the system has a point satisfying all strict rows strictly iff the optimal
slack is positive or unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .constraints import EQ, GE, LE, LT, ConstraintSystem
from .rationals import Rational

NONNEG = "nonneg"
FREE = "free"


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
    obj = None if objective is None else tuple(Fraction(c) for c in objective)
    norm_rows = tuple(
        (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs)) for coeffs, rel, rhs in rows
    )
    return LpProblem(obj, maximize, norm_rows, tuple(signs))


@dataclass(frozen=True)
class StandardFormMap:
    """Recovers original-variable values from standard-form points."""

    columns: tuple[tuple[int, int | None], ...]  # per original var: (col+, col-)
    n_standard_vars: int
    objective_negated: bool

    def recover(self, standard_point: Sequence[Rational]) -> tuple[Rational, ...]:
        out = []
        for plus, minus in self.columns:
            value = Fraction(standard_point[plus])
            if minus is not None:
                value -= Fraction(standard_point[minus])
            out.append(value)
        return tuple(out)


def to_standard_form(p: LpProblem) -> tuple[LpProblem, StandardFormMap]:
    """Equalities-and-nonnegatives form: each free variable splits into a
    difference of two nonnegatives, each inequality gains one slack."""
    columns: list[tuple[int, int | None]] = []
    next_col = 0
    for sign in p.signs:
        if sign == NONNEG:
            columns.append((next_col, None))
            next_col += 1
        else:
            columns.append((next_col, next_col + 1))
            next_col += 2
    n_slacks = sum(1 for _, rel, _ in p.rows if rel != EQ)
    n_std = next_col + n_slacks

    def widen(coeffs: Sequence[Rational]) -> list[Rational]:
        row = [Fraction(0)] * n_std
        for j, (plus, minus) in enumerate(columns):
            row[plus] = Fraction(coeffs[j])
            if minus is not None:
                row[minus] = -Fraction(coeffs[j])
        return row

    std_rows = []
    slack_col = next_col
    for coeffs, rel, rhs in p.rows:
        row = widen(coeffs)
        if rel == LE:
            row[slack_col] = Fraction(1)
            slack_col += 1
        elif rel == GE:
            row[slack_col] = Fraction(-1)
            slack_col += 1
        std_rows.append((tuple(row), EQ, Fraction(rhs)))

    if p.objective is None:
        std_obj = None
    else:
        base = widen(p.objective)
        std_obj = tuple(-c for c in base) if p.maximize else tuple(base)
    std = LpProblem(std_obj, False, tuple(std_rows), (NONNEG,) * n_std)
    return std, StandardFormMap(tuple(columns), n_std, p.maximize)


# --- tableau core -----------------------------------------------------------

def _pivot(tableau, basis, r, col):
    row = tableau[r]
    inv = Fraction(1) / row[col]
    tableau[r] = [e * inv for e in row]
    for i, other in enumerate(tableau):
        if i != r and other[col] != 0:
            factor = other[col]
            tableau[i] = [e - factor * p for e, p in zip(other, tableau[r])]
    basis[r] = col


def _bland_min(tableau, basis, cost, n_cols, allowed, stop_at_zero=False):
    """Minimize over the current tableau; cost is a reduced-cost row with
    the negated objective value in its last cell.  Returns ('optimal',) or
    ('unbounded', entering_col).  With stop_at_zero, returns as soon as the
    objective value reaches zero (used by phase 1, whose optimum is never
    negative)."""
    while True:
        if stop_at_zero and cost[-1] >= 0:
            return ("optimal",)
        entering = None
        for j in range(n_cols):
            if allowed[j] and cost[j] < 0:
                entering = j
                break
        if entering is None:
            return ("optimal",)
        leaving = None
        best_ratio = None
        for r, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving is None:
            return ("unbounded", entering)
        factor = cost[entering]
        _pivot(tableau, basis, leaving, entering)
        for j in range(n_cols + 1):
            cost[j] -= factor * tableau[leaving][j]


def _reduced_cost_row(tableau, basis, c, n_cols):
    cost = list(c) + [Fraction(0)]
    for r, row in enumerate(tableau):
        cb = c[basis[r]]
        if cb != 0:
            for j in range(n_cols + 1):
                cost[j] -= cb * row[j]
    return cost


def _solve_standard(rows, rhs, objective):
    """Simplex on  min objective . x  s.t.  rows x = rhs, x >= 0.

    Returns (status, point, value, ray) in standard-form coordinates;
    objective None solves feasibility only.
    """
    m = len(rows)
    n = len(rows[0]) if m else (len(objective) if objective else 0)
    if m == 0:
        point = (Fraction(0),) * n
        if objective is None:
            return LpStatus.FEASIBLE, point, None, None
        for j, c in enumerate(objective):
            if c < 0:
                ray = [Fraction(0)] * n
                ray[j] = Fraction(1)
                return LpStatus.UNBOUNDED, point, None, tuple(ray)
        return LpStatus.OPTIMAL, point, Fraction(0), None

    tableau = []
    for row, b in zip(rows, rhs):
        if b < 0:
            tableau.append([-e for e in row] + [-b])
        else:
            tableau.append(list(row) + [b])

    # Crash basis: a column that is a unit vector serves as the basic
    # variable of its row; only uncovered rows get an artificial variable.
    basis = [-1] * m
    unit_candidates: dict[int, list[int]] = {}
    for j in range(n):
        row_idx = None
        ok = True
        for i in range(m):
            v = tableau[i][j]
            if v == 0:
                continue
            if v == 1 and row_idx is None:
                row_idx = i
            else:
                ok = False
                break
        if ok and row_idx is not None:
            unit_candidates.setdefault(row_idx, []).append(j)
    for i, cols in unit_candidates.items():
        basis[i] = cols[0]
    uncovered = [i for i in range(m) if basis[i] < 0]
    n_art = len(uncovered)
    for k, i in enumerate(uncovered):
        basis[i] = n + k
    for i in range(m):
        art = [Fraction(0)] * n_art
        if basis[i] >= n:
            art[basis[i] - n] = Fraction(1)
        tableau[i] = tableau[i][:-1] + art + [tableau[i][-1]]
    total = n + n_art

    if n_art:
        phase1_cost = [Fraction(0)] * n + [Fraction(1)] * n_art
        cost = _reduced_cost_row(tableau, basis, phase1_cost, total)
        allowed = [True] * total
        outcome = _bland_min(tableau, basis, cost, total, allowed, stop_at_zero=True)
        assert outcome[0] == "optimal", "phase 1 is bounded below by zero"
        if -cost[-1] > 0:
            return LpStatus.INFEASIBLE, None, None, None

        # Drive artificial variables out of the basis; rows where that is
        # impossible are redundant and dropped.
        keep = []
        for r in range(m):
            if basis[r] >= n:
                pivot_col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if pivot_col is None:
                    continue
                _pivot(tableau, basis, r, pivot_col)
            keep.append(r)
        tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
    else:
        tableau = [row[:n] + [row[-1]] for row in tableau]

    def current_point():
        point = [Fraction(0)] * n
        for r, row in enumerate(tableau):
            point[basis[r]] = row[-1]
        return tuple(point)

    if objective is None:
        return LpStatus.FEASIBLE, current_point(), None, None

    cost = _reduced_cost_row(tableau, basis, list(objective), n)
    outcome = _bland_min(tableau, basis, cost, n, [True] * n)
    point = current_point()
    if outcome[0] == "unbounded":
        entering = outcome[1]
        ray = [Fraction(0)] * n
        ray[entering] = Fraction(1)
        for r, row in enumerate(tableau):
            ray[basis[r]] = -row[entering]
        return LpStatus.UNBOUNDED, point, None, tuple(ray)
    value = sum((c * x for c, x in zip(objective, point)), Fraction(0))
    return LpStatus.OPTIMAL, point, value, None


def solve(p: LpProblem) -> LpOutcome:
    """Exact resolution: infeasible, unbounded (with certificate ray),
    optimal (with point and value), or a bare feasible point when the
    problem has no objective."""
    std, vmap = to_standard_form(p)
    rows = [list(coeffs) for coeffs, _, _ in std.rows]
    rhs = [r for _, _, r in std.rows]
    status, point, value, ray = _solve_standard(rows, rhs, std.objective)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    orig_point = vmap.recover(point)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, point=orig_point, ray=vmap.recover(ray))
    if status is LpStatus.FEASIBLE:
        return LpOutcome(LpStatus.FEASIBLE, point=orig_point)
    if vmap.objective_negated:
        value = -value
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


# --- constraint-system bridge ------------------------------------------------

def _split_signs(c: ConstraintSystem):
    """Absorb plain sign rows (c*x >= 0, one nonzero positive coefficient)
    into variable bounds; returns (signs, remaining rows).  Halves the
    standard-form column count for the multiplier systems, which consist
    mostly of nonnegative variables."""
    signs = [FREE] * c.n_vars
    kept = []
    for row in c.rows:
        le_row = row.as_le()
        if le_row.rel == LE and le_row.const == 0:
            nonzero = [(j, v) for j, v in enumerate(le_row.coeffs) if v != 0]
            if len(nonzero) == 1 and nonzero[0][1] < 0:
                signs[nonzero[0][0]] = NONNEG
                continue
        kept.append(row)
    return tuple(signs), kept


def _lp_rows(rows, n: int, slack: bool):
    """LP rows over n variables (+ trailing slack column when requested);
    strict rows are tightened by the shared slack."""
    extra = 1 if slack else 0
    out = []
    for row in rows:
        le_row = row.as_le()  # orient strict rows as <
        width = list(le_row.coeffs) + [Fraction(0)] * extra
        if le_row.rel == LT:
            if not slack:
                raise LpShapeError("strict row needs the slack encoding")
            width[-1] = Fraction(1)
            out.append((tuple(width), LE, le_row.const))
        else:
            out.append((tuple(width), le_row.rel, le_row.const))
    return out


@lru_cache(maxsize=8192)
def find_point(c: ConstraintSystem) -> tuple[Rational, ...] | None:
    """A rational point of c honoring strict rows strictly, or None.

    With strict rows present, maximize a shared slack s with every strict
    row  e.z < f  tightened to  e.z + s <= f: a qualifying point exists iff
    the optimum is positive or unbounded.  Results are memoized (systems
    are immutable value objects and whole-loop analyses re-ask the same
    satisfiability questions many times).
    """
    n = c.n_vars
    zeros = (Fraction(0),) * n
    if c.satisfied_by(zeros):
        return zeros
    signs, remaining = _split_signs(c)
    if not c.has_strict_rows():
        outcome = solve(LpProblem(None, False, tuple(_lp_rows(remaining, n, False)), signs))
        return outcome.point if outcome.is_feasible else None

    rows = _lp_rows(remaining, n, True)
    objective = (Fraction(0),) * n + (Fraction(1),)
    problem = LpProblem(objective, True, tuple(rows), signs + (NONNEG,))
    outcome = solve(problem)
    if outcome.status is LpStatus.INFEASIBLE:
        return None
    if outcome.status is LpStatus.OPTIMAL:
        if outcome.value <= 0:
            return None
        return outcome.point[:n]
    # Unbounded slack: pin it to 1 and take any feasible point.
    pinned = rows + [((Fraction(0),) * n + (Fraction(1),), EQ, Fraction(1))]
    feas = solve(LpProblem(None, False, tuple(pinned), signs + (NONNEG,)))
    assert feas.is_feasible, "slack unbounded implies slack=1 is attainable"
    return feas.point[:n]


def satisfiable(c: ConstraintSystem) -> bool:
    return find_point(c) is not None

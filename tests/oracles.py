"""Reference checks and samplers that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from linrank.constraints import (
    EQ,
    GE,
    GT,
    HOLDS,
    LE,
    LT,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
)
from linrank.ms import (
    MS_FULL,
    RankingFunction,
    RankingSpace,
    _conjoined_rows,
    _ms_signs,
    _mu_names,
    _multiplier_system,
    _names,
    _svg_rows,
)
from linrank.pr import _pr_alt_rows
from linrank.projection import _irredundant, project
from linrank.rationals import Rational, integer_scaling
from linrank.simplex import (
    FREE,
    NONNEG,
    LpOutcome,
    LpProblem,
    LpShapeError,
    LpStatus,
    _lp_rows,
    _triples,
    find_point,
    solve,
)


def constraint(coeffs: Iterable[int | Rational], rel: str, const: int | Rational) -> LinConstraint:
    return LinConstraint(tuple(Fraction(c) for c in coeffs), rel, Fraction(const))


def system(variables: Sequence[str], rows: Iterable[LinConstraint]) -> ConstraintSystem:
    return ConstraintSystem(tuple(variables), tuple(rows))


def _dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def conjoined_ms_system(c: ConstraintSystem) -> ConstraintSystem:
    """Both MS systems over shared (mu0, mu) with disjoint y and z blocks:
    the system `ms_analyze` decides, as a `ConstraintSystem`."""
    n, m, rows = _conjoined_rows(c)
    variables = _names("y", m) + _names("z", m + 2) + _mu_names(n, with_mu0=True)
    return _multiplier_system(variables, rows, _ms_signs(2 * m + 2, n))


def build_svg_system(c: ConstraintSystem) -> ConstraintSystem:
    """Feasibility system deciding existence of a positive linear ranking
    function for a clause over nonnegative variables: the system
    `svg_analyze` decides, as a `ConstraintSystem`.

    Rows, in order: the 2n homogeneous rows A_c^T y <= <mu, -mu>, the
    decrease row b_c^T y >= 1, then y >= 0 and mu >= 0.
    """
    n, rows = _svg_rows(c)
    variables = _names("y", len(rows[0][0]) - n) + _mu_names(n, with_mu0=False)
    return _multiplier_system(variables, rows, (NONNEG,) * len(variables))


def build_pr_alt_system(loop: LoopModel) -> ConstraintSystem:
    """Witness equations over (v1, v2, v3) for a guarded loop: the system
    `pr_alt_analyze` decides, as a `ConstraintSystem`.

        (v1 - v2)^T A_B - v3^T A_C = 0
        v2^T A_B + v3^T (A_C + A'_C) = 0
        v2^T b_B + v3^T b_C < 0,   v1, v2, v3 >= 0
    """
    r, s, rows = _pr_alt_rows(loop)
    variables = _names("v1_", r) + _names("v2_", r) + _names("v3_", s)
    return _multiplier_system(variables, rows, (NONNEG,) * len(variables))


def dual(p: LpProblem) -> LpProblem:
    """Dual of the two inequality shapes:

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


def normalize_strict(c: ConstraintSystem) -> ConstraintSystem:
    """c with each strict homogeneous row e.z < 0 (or > 0) replaced by
    e.z <= -1: the same feasibility for a cone, whose solutions scale."""
    rows = []
    for row in c.rows:
        if row.is_strict:
            assert row.const == 0, "scaling normalization needs a homogeneous strict row"
            coeffs = row.coeffs if row.rel == LT else tuple(-v for v in row.coeffs)
            row = LinConstraint(coeffs, LE, Fraction(-1))
        rows.append(row)
    return c.with_rows(rows)


def optimize(
    c: ConstraintSystem, objective: Sequence[Rational], maximize: bool
) -> LpOutcome:
    """Optimize over the topological closure of c (strict rows relaxed)."""
    signs, rows = _lp_rows(_triples(closure(c)), (FREE,) * c.n_vars)
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


# The rows whose union is the complement of a row's solution set.
_NEGATED = {LE: (GT,), LT: (GE,), GE: (LT,), GT: (LE,), EQ: (GT, LT)}


def _negations(k: LinConstraint) -> list[LinConstraint]:
    return [LinConstraint(k.coeffs, rel, k.const) for rel in _NEGATED[k.rel]]


def entails_by_negation(c: ConstraintSystem, k: LinConstraint) -> bool:
    """c entails k iff c and each negation of k have no common point: one
    primal feasibility query per negation, over all of c's rows."""
    return all(find_point(c.with_rows(c.rows + (neg,))) is None for neg in _negations(k))


def entailment_dual_lp(rest: Sequence[tuple], direction: Sequence[int]) -> LpProblem:
    """The dual LP of entailment over canonical rows `rest`: min y.b with
    sum y_i d_i = direction, y_i >= 0 on an inequality row and free on an
    equality.  Over a feasible `rest` its optimum is the supremum of
    direction.x (the affine Farkas lemma), and it is infeasible when that
    supremum is infinite.  `projection._entailed` asks no LP with an
    objective: one feasibility question on these rows, scaled by one more
    column, with y.b bounded by the tested row's constant in a row of its
    own, and a strict row's strictness in one more (see `projection`)."""
    signs = tuple(FREE if rel == EQ else NONNEG for _, rel, _ in rest)
    rows = tuple((tuple(d[j] for d, _, _ in rest), EQ, a) for j, a in enumerate(direction))
    return LpProblem(tuple(b for _, _, b in rest), False, rows, signs)


def remove_redundant_by_negation(c: ConstraintSystem) -> ConstraintSystem:
    """The primal greedy rule: scan the canonical rows in order and drop
    each one that the rows still kept entail, by `entails_by_negation`."""
    keep = [LinConstraint(*row) for row in prune_rows((r.coeffs, r.rel, r.const) for r in c.rows)]
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


# --- Fourier-Motzkin one column per step ------------------------------------
#
# `projection._project` substitutes every column an equality holds in one
# sweep and prunes once; this reference removes one column per step, by
# substitution through the first equality holding it or else by pairing,
# prunes after every step and scans after every step that grows the
# system.  The two must give the same rows, in the same order.


def prune_rows(rows: Iterable[tuple]) -> list[tuple]:
    """One pass over (coeffs, rel, const) rows in any form: give each row
    its canonical form (oriented <=, < or =, a coprime-integer direction
    with an equality's leading coefficient positive, a const that is an
    int exactly when it is integral), drop trivially-true rows, keep the
    tightest of parallel rows at the first one's position, and give an
    empty system as the single row 0 < 0.  `projection` splits this into
    `_row` and `_prune`; this copy shares no code with them."""
    best: dict[tuple, tuple] = {}  # (kind, direction) -> (rel, const)
    for coeffs, rel, const in rows:
        width = len(coeffs)
        if not any(coeffs):
            if HOLDS[rel](0, const):
                continue
            return [((0,) * width, LT, 0)]
        denom = lcm(*(Fraction(v).denominator for v in coeffs))
        nums = [int(v * denom) for v in coeffs]
        divisor = gcd(*nums)
        if rel in (GE, GT):
            divisor, rel = -divisor, (LE if rel == GE else LT)
        elif rel == EQ and next(v for v in nums if v) < 0:
            divisor = -divisor
        direction = tuple(v // divisor for v in nums)
        const = Fraction(const) * denom / divisor
        const = const.numerator if const.denominator == 1 else const
        key = (EQ if rel == EQ else LE, direction)
        incumbent = best.get(key)
        if incumbent is not None and rel == EQ:
            if incumbent[1] != const:
                return [((0,) * width, LT, 0)]
            continue
        if incumbent is None or const < incumbent[1] or (const == incumbent[1] and rel == LT):
            best[key] = (rel, const)
    return [(direction, rel, const) for (_, direction), (rel, const) in best.items()]


def eliminate_column(rows: Sequence[tuple], idx: int) -> list[tuple]:
    """Remove column idx from canonical rows, by substitution through the
    first equality that holds it, or else by one Fourier-Motzkin step, and
    prune the result."""
    dropped = [d[:idx] + d[idx + 1 :] for d, _, _ in rows]
    out: list[tuple] = []

    def combine(i: int, a, k: int, b, rel: str) -> None:
        coeffs = tuple(x * a + y * b for x, y in zip(dropped[i], dropped[k]))
        out.append((coeffs, rel, rows[i][2] * a + rows[k][2] * b))

    pivot = next((k for k, (d, rel, _) in enumerate(rows) if rel == EQ and d[idx]), None)
    for i, (d, rel, const) in enumerate(rows):
        if d[idx] == 0:
            out.append((dropped[i], rel, const))
        elif pivot is not None and i != pivot:
            p = rows[pivot][0][idx]
            combine(i, abs(p), pivot, -d[idx] if p > 0 else d[idx], rel)
    if pivot is None:
        upper = [i for i, (d, _, _) in enumerate(rows) if d[idx] > 0]
        lower = [k for k, (d, _, _) in enumerate(rows) if d[idx] < 0]
        for i in upper:
            for k in lower:
                rel = LT if LT in (rows[i][1], rows[k][1]) else LE
                combine(i, -rows[k][0][idx], k, rows[i][0][idx], rel)
    return prune_rows(out)


def project_stepwise(rows: Iterable[tuple], width: int, keep: Sequence[int]) -> list[tuple]:
    """`projection._project` one column per step: the leftmost column an
    equality holds first, then the column with the fewest (upper, lower)
    pairs; `_irredundant` after each step that grows the system, and at the
    end unless the last step grew it."""
    rows = prune_rows(rows)
    columns = list(range(width))
    kept = set(keep)

    def cost(i: int) -> tuple[int, int]:
        if any(rel == EQ and d[i] for d, rel, _ in rows):
            return 0, 0
        return 1, sum(d[i] > 0 for d, _, _ in rows) * sum(d[i] < 0 for d, _, _ in rows)

    grew = False
    for _ in range(width - len(kept)):
        idx = min((i for i, col in enumerate(columns) if col not in kept), key=cost)
        stepped = eliminate_column(rows, idx)
        grew = len(stepped) > len(rows)
        rows = _irredundant(stepped) if grew else stepped
        del columns[idx]
    perm = [columns.index(col) for col in keep]
    rows = prune_rows((tuple(d[i] for i in perm), rel, const) for d, rel, const in rows)
    return rows if grew else _irredundant(rows)


# --- phase 1 with an explicit artificial block -------------------------------
#
# The textbook tableau layout: every row holds every column, basic ones
# included, every artificial variable has a column of its own, priced and
# updated at every pivot like a real column, so phase 1 runs until no
# column at all prices negative, and a free variable x is split into two
# nonnegative columns x+ and x-.  `solve` keeps a condensed tableau of the
# nonbasic real columns, prices real columns only and keeps one signed
# column per free variable; it must return exactly what this returns.  This
# block tableau also keeps the gcd rule on purpose: every row it combines is
# made primitive, where `simplex._exchange` divides exactly by the row's old
# scale, so the exact-division core is checked against a reference that
# does not share its invariant.


def _split_standard_form(p: LpProblem):
    """p's standard form as int rows, each variable a column pair (col+,
    col-), col- None for a nonnegative one, and the slack of each
    inequality after them in row order.  Returns the columns, the column
    count n, the rows (n + 1 ints each, rhs last), the positive scale of
    each row (one `integer_scaling` of its coeffs and rhs, slack +-scale)
    and the objective to minimize as ints, or None."""
    columns = []
    slack = 0
    for sign in p.signs:
        columns.append((slack, None if sign == NONNEG else slack + 1))
        slack += 1 if sign == NONNEG else 2
    n = slack + sum(rel != EQ for _, rel, _ in p.rows)

    def widen(coeffs, rhs):
        row = [0] * (n + 1)
        for (plus, minus), v in zip(columns, coeffs):
            row[plus] = v
            if minus is not None:
                row[minus] = -v
        row[-1] = rhs
        return row

    rows, scales = [], []
    for coeffs, rel, rhs in p.rows:
        scale, ints = integer_scaling((*coeffs, rhs))
        row = widen(ints[:-1], ints[-1])
        if rel != EQ:
            row[slack] = scale if rel == LE else -scale
            slack += 1
        rows.append(row)
        scales.append(scale)
    objective = None
    if p.objective is not None:
        objective = integer_scaling(p.objective)[1]
        if p.maximize:
            objective = [-v for v in objective]
        objective = widen(objective, 0)[:-1]
    return tuple(columns), n, rows, scales, objective


def _recover(columns, standard_point):
    """Original-variable values of a split standard-form point: col+ - col-."""
    return tuple(
        standard_point[plus] if minus is None or not standard_point[minus]
        else standard_point[plus] - standard_point[minus]
        for plus, minus in columns
    )


def _combine(row, prow, p, f):
    """row * p - prow * f, divided by the gcd of its entries: the primitive
    row, kept as the reference's rule in place of the core's exact division
    by the old scale."""
    out = [a * p - b * f if b else a * p for a, b in zip(row, prow)]
    g = gcd(*out)
    return [e // g for e in out] if g > 1 else out


def _block_pivot(tableau, basis, r, col):
    prow = tableau[r]
    p = prow[col]
    if p < 0:  # only the phase-1 drive-out pivots on a negative entry
        prow = tableau[r] = [-e for e in prow]
        p = -p
    for i, other in enumerate(tableau):
        f = other[col]
        if f and i != r:
            tableau[i] = _combine(other, prow, p, f)
    basis[r] = col


def _block_bland_min(tableau, basis, cost, n_cols, stop_at_zero=False):
    """Bland's rule over the first n_cols columns; returns ('optimal',) or
    ('unbounded', entering_col).  With stop_at_zero, returns as soon as the
    objective value reaches zero."""
    while True:
        if stop_at_zero and cost[-1] >= 0:
            return ("optimal",)
        entering = next((j for j in range(n_cols) if cost[j] < 0), None)
        if entering is None:
            return ("optimal",)
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
        _block_pivot(tableau, basis, leaving, entering)
        cost[:] = _combine(cost, tableau[leaving], best_a, cost[entering])


def _block_reduced_cost_row(tableau, basis, c):
    cost = list(c) + [0]
    for r, row in enumerate(tableau):
        f = cost[basis[r]]
        if f:
            cost = _combine(cost, row, row[basis[r]], f)
    return cost


def _block_solve_standard(rows, scales, objective, n):
    m = len(rows)
    rows = [[-e for e in row] if row[-1] < 0 else row for row in rows]
    basis = [-1] * m
    for j in range(n):
        nonzero = (i for i in range(m) if rows[i][j])
        i = next(nonzero, None)
        if i is not None and basis[i] < 0 and rows[i][j] == scales[i] and next(nonzero, None) is None:
            basis[i] = j
    uncovered = [i for i in range(m) if basis[i] < 0]
    n_art = len(uncovered)
    for k, i in enumerate(uncovered):
        basis[i] = n + k
    tableau = []
    for i, row in enumerate(rows):
        art = [0] * n_art
        if basis[i] >= n:
            art[basis[i] - n] = scales[i]
        tableau.append(row[:-1] + art + row[-1:])

    if n_art:
        cost = _block_reduced_cost_row(tableau, basis, [0] * n + [1] * n_art)
        outcome = _block_bland_min(tableau, basis, cost, n + n_art, stop_at_zero=True)
        assert outcome[0] == "optimal", "phase 1 is bounded below by zero"
        if cost[-1] < 0:
            return LpStatus.INFEASIBLE, None, None
        keep = []
        for r in range(m):
            if basis[r] >= n:
                pivot_col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if pivot_col is None:
                    continue
                _block_pivot(tableau, basis, r, pivot_col)
            keep.append(r)
        tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
    else:
        tableau = [row[:n] + [row[-1]] for row in tableau]

    def current_point():
        point = [Fraction(0)] * n
        for r, row in enumerate(tableau):
            point[basis[r]] = Fraction(row[-1], row[basis[r]])
        return tuple(point)

    if objective is None:
        return LpStatus.FEASIBLE, current_point(), None
    cost = _block_reduced_cost_row(tableau, basis, objective)
    outcome = _block_bland_min(tableau, basis, cost, n)
    point = current_point()
    if outcome[0] == "unbounded":
        entering = outcome[1]
        ray = [Fraction(0)] * n
        ray[entering] = Fraction(1)
        for r, row in enumerate(tableau):
            ray[basis[r]] = Fraction(-row[entering], row[basis[r]])
        return LpStatus.UNBOUNDED, point, tuple(ray)
    return LpStatus.OPTIMAL, point, None


def solve_with_artificial_block(p: LpProblem) -> LpOutcome:
    """`solve` on the split standard form, with the artificial block and
    every combined row made primitive by its gcd (`_combine`), independent
    of the core's exact-division invariant."""
    columns, n, rows, scales, objective = _split_standard_form(p)
    status, point, ray = _block_solve_standard(rows, scales, objective, n)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    orig_point = _recover(columns, point)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, point=orig_point, ray=_recover(columns, ray))
    if status is LpStatus.FEASIBLE:
        return LpOutcome(LpStatus.FEASIBLE, point=orig_point)
    value = sum((c * x for c, x in zip(p.objective, orig_point)), Fraction(0))
    return LpOutcome(LpStatus.OPTIMAL, point=orig_point, value=value)


# --- strict rows by a shared slack -------------------------------------------
#
# The encoding that decided strict rows before `simplex._point` homogenized
# and tightened them: one slack s >= 0 is added to every strict row and
# maximized.  The system has a point honoring its strict rows strictly iff
# the optimal slack is positive or unbounded; an unbounded slack is pinned
# to 1 in a second LP for a point.

_TO_LEQ = {GE: LE, GT: LT}


def shared_slack_point(c: ConstraintSystem) -> tuple[Rational, ...] | None:
    """A point of c honoring its strict rows strictly, or None, decided by
    the shared-slack LP."""
    n = c.n_vars
    rows = []
    for row in c.rows:
        coeffs, rel, const = row.coeffs, row.rel, row.const
        if rel in _TO_LEQ:
            coeffs, rel, const = tuple(-v for v in coeffs), _TO_LEQ[rel], -const
        rows.append((coeffs + (int(rel == LT),), LE if rel == LT else rel, const))
    signs = (FREE,) * n + (NONNEG,)
    outcome = solve(LpProblem((0,) * n + (1,), True, tuple(rows), signs))
    if outcome.status is LpStatus.OPTIMAL:
        return outcome.point[:n] if outcome.value > 0 else None
    if outcome.status is LpStatus.INFEASIBLE:
        return None
    pinned = solve(LpProblem(None, False, (*rows, ((0,) * n + (1,), EQ, 1)), signs))
    assert pinned.is_feasible, "slack unbounded implies slack=1 is attainable"
    return pinned.point[:n]

"""Variable elimination, redundancy removal, entailment and set equality
for constraint systems that may contain strict rows.

Inside this module a row is a triple (direction, rel, const): direction a
tuple of coprime ints, rel one of <=, < or =, and const an int when it is
integral and a Fraction otherwise, so elimination, the tightest-row compare
and the entailment LPs run in int arithmetic on integral rows.  Three
functions make the row algebra, each the one place that does its job:
`_row` canonicalizes one triple in any form, `_cancel` combines two rows
into the canonical row with a zero in one column, and `_prune` only
collapses canonical rows (trivially-true rows go, parallel rows keep the
tightest at the first one's position, `0 < 0` is the one empty row).
`LinConstraint`s are built only on the way out, so public rows keep
Fraction constants.

Elimination first substitutes, then pairs, and both are `_cancel`.  Its
row is unchanged by positive scaling of r and any scaling of s, and
canonicalizing a row changes neither which entries are zero nor whether
it is an equality, so canonical rows give the same pivots and pairs, in
the same order, as any scaling of them.  `_sweep` canonicalizes its input
once, visits the columns to eliminate in index order and substitutes each
one that an equality row (s) holds, through the first such row,
recombining only the rows (r) with a nonzero there; one `_prune` follows.
Deferring the prune to the end of the sweep gives the rows that pruning
after every substitution would: `_prune` keeps each set of parallel rows
at the position of its first row, and a column the sweep has passed can
never be held by an equality again, since equalities are combined only
with equalities.  The columns left are removed by Fourier-Motzkin, one
`_eliminate` step each, which copies the rows with a zero in the column
and pairs each upper row (r) with each lower row (s).
`_project`, the one elimination loop, prunes exactly when a step grows the
system: a step that leaves more rows than it started with is followed by
the exact greedy scan `_irredundant`, so no step ends with more rows than
the larger of its input count and an irredundant system's.  The result
gets one final scan, unless the last step already had one.  That is sound
because `_project` only takes a feasible input, and the projection of a
feasible system is feasible, as `_entailed` requires.  Two callers check
that, then hand `_project` their row triples as they are (the sweep
canonicalizes them): `project`, so `remove_redundant`, with one
`satisfiable` call, and `ms._multiplier_space`, which builds every space
of the engines and `cone_extend`'s closure, with one `_point` question.
`eliminate` makes the same check; each gives an empty set as `0 < 0`.

Entailment is one test, `_entailed`, in the space's own dimension: one
`simplex._point` feasibility question per `<=` or `<` row, with no strict
row in it.  By the affine Farkas lemma and Motzkin's transposition theorem
a feasible system of rows d_i.x rel_i b_i entails a.x <= c iff multipliers
y >= 0 (free on an equality) have sum y_i d_i = a and b.y <= c, and a.x < c
iff such a y also has (b - e).y < c, e the strict rows' indicator: b.y < c,
or b.y = c with weight on a strict row.  The question asks this of y scaled
by 1 + s, s >= 0: sum y_i d_i - a s = a, b.y - c s <= c and, for a.x < c,
(b - e).y - c s <= c - 1.  A solution gives y / (1 + s), and y gives a
solution ((1 + s) y, s) for s large enough.  Solution-set equality is mutual
entailment of the canonical rows.  No LP is needed when a coordinate of the
row's direction has a sign that no row can supply to the equality for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .constraints import (
    EQ,
    GE,
    GT,
    HOLDS,
    LE,
    LT,
    ConstraintError,
    ConstraintSystem,
    LinConstraint,
)
from .rationals import integer_scaling
from .simplex import FREE, NONNEG, _point, _triples, satisfiable

Row = tuple[tuple[int, ...], str, int | Fraction]


def _system(variables: tuple[str, ...], rows: Iterable[Row]) -> ConstraintSystem:
    return ConstraintSystem(variables, tuple(LinConstraint(*row) for row in rows))


def _false_row(width: int) -> Row:
    """0 < 0, the one row of an empty system."""
    return (0,) * width, LT, 0


def _row(coeffs: Sequence, rel: str, const) -> Row:
    """The canonical form of one (coeffs, rel, const) row, whose
    coefficients may be ints or Fractions and const an int or a Fraction:
    oriented <=, < or =, a coprime-integer direction (an equality's leading
    coefficient positive), and a const that is an int exactly when it is
    integral.  A zero row is returned as it is."""
    if not any(coeffs):
        return coeffs, rel, const
    # Equalities canonicalize up to sign, inequalities only up to positive
    # scaling; directions are kept as coprime integers, so the divisor's
    # sign orients the row as <=, < or = in one step.
    denom, nums = integer_scaling(coeffs)
    divisor = gcd(*nums)
    if rel == GE or rel == GT:
        divisor, rel = -divisor, (LE if rel == GE else LT)
    elif rel == EQ and next(v for v in nums if v) < 0:
        divisor = -divisor
    if divisor == 1:
        direction = tuple(nums)
    elif divisor == -1:
        direction = tuple(-v for v in nums)
    else:
        direction = tuple(v // divisor for v in nums)
    # const * denom / divisor, an int when it is integral
    num, den = const.numerator * denom, const.denominator * divisor
    quotient, remainder = divmod(num, den)
    return direction, rel, (Fraction(num, den) if remainder else quotient)


def _cancel(r: Row, s: Row, j: int) -> Row:
    """The canonical row |s_j|*r - sign(s_j)*r_j*s, a positive multiple of
    r - (r_j/s_j)*s, whose column j is 0: strict if s is, else of r's
    relation."""
    (d, rel, b), (e, rel_s, c) = r, s
    a, f = abs(e[j]), (-d[j] if e[j] > 0 else d[j])
    return _row([x * a + y * f for x, y in zip(d, e)], LT if rel_s == LT else rel, b * a + c * f)


def _prune(rows: Iterable[Row]) -> list[Row]:
    """Collapse canonical or zero rows: drop trivially-true rows and
    duplicates, and among parallel rows of the same direction keep only
    the tightest one, at the position of the first.  A ground-false row, or
    two parallel equalities that disagree, collapse the whole system to
    the single row 0 < 0."""
    best: dict[tuple, tuple] = {}  # (kind, direction) -> (rel, const)
    for direction, rel, const in rows:
        if not any(direction):
            if HOLDS[rel](0, const):
                continue
            return [_false_row(len(direction))]
        key = (EQ if rel == EQ else LE, direction)
        incumbent = best.get(key)
        if incumbent is not None and rel == EQ:
            if incumbent[1] != const:
                return [_false_row(len(direction))]
            continue
        if incumbent is None or const < incumbent[1] or (const == incumbent[1] and rel == LT):
            best[key] = (rel, const)
    return [(direction, rel, const) for (_, direction), (rel, const) in best.items()]


def _canonical(rows: Iterable[LinConstraint]) -> list[Row]:
    return _prune(_row(row.coeffs, row.rel, row.const) for row in rows)


def _sweep(rows: Iterable[tuple], width: int, kept: set[int]) -> tuple[list[Row], list[int]]:
    """Canonicalize triples in any form over `width` columns, substitute,
    in index order, each column outside `kept` that an equality row holds,
    through the first equality row holding it, then prune once.  Returns
    the canonical rows over the columns left, and those columns' indices."""
    rows = [_row(*row) for row in rows]
    swept = set()
    for j in range(width):
        if j in kept:
            continue
        k = next((k for k, (d, rel, _) in enumerate(rows) if rel == EQ and d[j]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        rows = [_cancel(row, pivot, j) if row[0][j] else row for row in rows]
        swept.add(j)
    columns = [j for j in range(width) if j not in swept]
    if swept:
        rows = [(tuple(d[j] for j in columns), rel, const) for d, rel, const in rows]
    return _prune(rows), columns


def _eliminate(rows: Sequence[Row], idx: int) -> list[Row]:
    """Remove column idx, which no equality row holds, from canonical rows
    by one Fourier-Motzkin step: copy the rows with a zero there, then
    `_cancel` each upper row with each lower row, so a paired row is strict
    iff either parent is.  The rows are canonical or zero, not pruned."""
    upper = [row for row in rows if row[0][idx] > 0]
    lower = [row for row in rows if row[0][idx] < 0]
    out = [row for row in rows if not row[0][idx]]
    out += [_cancel(r, s, idx) for r in upper for s in lower]
    return [(d[:idx] + d[idx + 1 :], rel, const) for d, rel, const in out]


def eliminate(c: ConstraintSystem, var: str) -> ConstraintSystem:
    """Project c's solution set along one variable; the result ranges over
    the remaining variables.  A variable an equality holds is substituted
    (`_sweep`); otherwise each upper row is paired with each lower row, and
    a combined row is strict iff either parent is.  An infeasible c gives
    the single row 0 < 0, as `project` does."""
    idx = c.index_of(var)
    variables = c.variables[:idx] + c.variables[idx + 1 :]
    if not satisfiable(c):
        return _system(variables, [_false_row(len(variables))])
    rows, columns = _sweep(_triples(c), c.n_vars, set(range(c.n_vars)) - {idx})
    if idx in columns:
        rows = _prune(_eliminate(rows, idx))
    return _system(variables, rows)


def _entailed(rest: Sequence[Row], row: Row) -> bool:
    """Whether every point of the feasible canonical rows `rest` satisfies
    the canonical `row`: one `_point` question with no strict row (see the
    module doc).  An equality is both directions."""
    direction, rel, const = row
    if rel == EQ:
        opposite = (tuple(-v for v in direction), LE, -const)
        return _entailed(rest, (direction, LE, const)) and _entailed(rest, opposite)
    rels = [r for _, r, _ in rest]
    columns = list(zip(*(d for d, _, _ in rest))) if rest else [()] * len(direction)
    # The gradient row j, sum_i y_i d_ij = a_j, needs a term of a_j's sign: an
    # inequality row (y_i >= 0) of that sign in column j, or an equality row
    # (y_i free) with any nonzero there.  Without one it is infeasible.
    for a, column in zip(direction, columns):
        if a == 0 or (max(column, default=0) > 0 if a > 0 else min(column, default=0) < 0):
            continue
        if not any(v for v, r in zip(column, rels) if r == EQ):
            return False
    signs = tuple(FREE if r == EQ else NONNEG for r in rels) + (NONNEG,)
    consts = tuple(b for _, _, b in rest)
    rows = [(column + (-a,), EQ, a) for column, a in zip(columns, direction)]
    rows.append((consts + (-const,), LE, const))
    if rel == LT:
        shifted = tuple(b - 1 if r == LT else b for b, r in zip(consts, rels))
        rows.append((shifted + (-const,), LE, const - 1))
    return _point(rows, signs) is not None


def entails(c: ConstraintSystem, k: LinConstraint) -> bool:
    """True iff every rational solution of c satisfies k; c must be
    satisfiable.  One `_entailed` test, no primal LP over c's rows."""
    if len(k.coeffs) != c.n_vars:
        raise ConstraintError(f"row has {len(k.coeffs)} coefficients for {c.n_vars} variables")
    if not satisfiable(c):
        raise ConstraintError("entailment over an unsatisfiable system")
    premise = _canonical(c.rows)
    return all(_entailed(premise, row) for row in _canonical((k,)))


def _irredundant(rows: Sequence[Row]) -> list[Row]:
    """Greedy pruning of feasible canonical rows: drop, in order, each row
    that the rows still kept entail (`_entailed`)."""
    keep = list(rows)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if _entailed(rest, keep[i]):
            keep = rest
        else:
            i += 1
    return keep


def remove_redundant(c: ConstraintSystem) -> ConstraintSystem:
    """Drop, in order, each canonical row that the rows still kept entail;
    the result has c's solution set and no entailed row.  This is `project`
    keeping every variable, which eliminates nothing: one `satisfiable` on
    c, then one `_entailed` test per canonical row of a feasible c, and the
    single row 0 < 0 for an infeasible one."""
    return project(c, c.variables)


def project(c: ConstraintSystem, keep: Sequence[str]) -> ConstraintSystem:
    """Eliminate every variable outside `keep`, then remove redundancy.
    The result's variables follow the order of `keep`.  Feasibility is
    checked once, on c; every redundancy scan is an `_irredundant` pass."""
    keep = tuple(keep)
    columns = [c.index_of(name) for name in keep]  # validates membership
    if len(set(keep)) != len(keep):
        raise ConstraintError("variable names must be unique")
    # Projecting an empty set is the empty set; eliminating variables from
    # an infeasible system head-on can blow up combinatorially instead.
    if not satisfiable(c):
        return _system(keep, [_false_row(len(keep))])
    return _system(keep, _project(_triples(c), c.n_vars, columns))


def _project(rows: Iterable[tuple], width: int, keep: Sequence[int]) -> list[Row]:
    """Eliminate every column outside `keep` from a feasible system of
    triples in any form over `width` columns: `_sweep`, then one pairing
    step per column left.  Then remove redundancy; the result's columns
    follow the order of `keep`."""
    kept = set(keep)
    rows, columns = _sweep(rows, width, kept)

    def cost(i: int) -> int:
        # The column with the fewest (upper, lower) pairs.  No equality
        # holds a column outside `keep` after the sweep, and pairing never
        # creates an equality.
        return sum(d[i] > 0 for d, _, _ in rows) * sum(d[i] < 0 for d, _, _ in rows)

    grew = False
    for _ in range(len(columns) - len(kept)):
        idx = min((i for i, col in enumerate(columns) if col not in kept), key=cost)
        stepped = _prune(_eliminate(rows, idx))
        grew = len(stepped) > len(rows)
        rows = _irredundant(stepped) if grew else stepped
        del columns[idx]

    # The columns left are `keep` in index order.  A permuted coprime
    # direction keeps its scale, so `_row` can only flip an equality's
    # leading sign, and distinct canonical rows stay distinct: nothing is
    # pruned again.  After a growing last step the rows are irredundant.
    if columns != list(keep):
        perm = [columns.index(col) for col in keep]
        rows = [_row(tuple(d[i] for i in perm), rel, const) for d, rel, const in rows]
    return rows if grew else _irredundant(rows)


def equivalent(c1: ConstraintSystem, c2: ConstraintSystem) -> bool:
    """Exact solution-set equality of two (possibly strict) systems over the
    same variables: both empty, or each system entails every canonical row
    of the other, by `_entailed`, which is exact for strict rows.  One
    emptiness question, on c1: an empty c1 equals c2 iff c2 is empty too,
    and a non-empty c1 is tested inside c2 before c2 inside c1."""
    if c1.variables != c2.variables:
        raise ConstraintError("cannot compare systems over different variables")
    rows1, rows2 = _canonical(c1.rows), _canonical(c2.rows)
    if set(rows1) == set(rows2):
        return True
    if not satisfiable(c1):
        return not satisfiable(c2)
    # A non-empty c1 inside c2 makes c2 non-empty, as `_entailed` needs of rows2.
    return all(_entailed(rows1, r) for r in rows2) and all(_entailed(rows2, r) for r in rows1)

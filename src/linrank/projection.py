"""Variable elimination, redundancy removal, entailment and set equality
for constraint systems that may contain strict rows.

Inside this module a row is a triple (direction, rel, const): direction a
tuple of coprime ints, rel one of <=, < or =, and const an int when it is
integral and a Fraction otherwise, so elimination, the tightest-row compare
and the entailment LPs run in int arithmetic on integral rows.  `_prune`
is the one canonicalizer.  It takes (coeffs, rel, const) triples in any
form and gives each row its canonical form: oriented <=, < or =, a
coprime-integer direction (an equality's leading coefficient positive),
parallel rows collapsed to the tightest representative, and `0 < 0` as the
only empty row.  `LinConstraint`s are built only on the way out, so public
rows keep Fraction constants.

Elimination is Fourier-Motzkin with the standard accelerations, one column
per `_eliminate` step.  A variable occurring in an equality row is
eliminated by substitution through that row (row count never grows);
otherwise each upper row is paired with each lower row.  Both combine
integer directions into a positive multiple of the rational combination,
so `_prune` restores the canonical form.  A row with a zero in the
eliminated column is copied with that zero dropped, which keeps it
canonical, so `_prune` passes it straight to the parallel-row collapse
with no integer scaling or gcd.  `_project`, the one elimination loop,
prunes exactly when a step grows the system: a step that leaves more rows
than it started with is followed by the exact greedy scan `_irredundant`,
so no step ends with more rows than the larger of its input count and an
irredundant system's.  The result gets one final scan, unless the last
step already had one.  That is sound because `_project` only takes a
feasible input, and the projection of a feasible system is feasible, as
`_entailed` requires.  `project` checks that with one `satisfiable` call
on its `ConstraintSystem`; the engines' space routes
(`ms._multiplier_space`) check it with their own decision LP, then hand
`_project` their row triples, canonicalized, with no system built.

Entailment is one test, `_entailed`, in the space's own dimension.  By
Farkas' lemma, min y.b over the multipliers y >= 0 (free on an equality)
with sum y_i d_i = a is the supremum of a.x over a feasible system's
closure: a dual LP with one equality row per variable, however many rows
the system has.  When a strict a.x < b meets that supremum exactly, a
second LP decides it (Motzkin's transposition theorem): it holds iff the
multipliers reaching b can weight a strict row.  So `_entailed` is exact
for strict rows too, and solution-set equality is mutual entailment of the
canonical rows.  No LP is needed when a coordinate of the row's direction
has a sign that no row can supply to the dual's equality for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
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
from .simplex import FREE, NONNEG, LpProblem, LpStatus, satisfiable, solve

Row = tuple[tuple[int, ...], str, int | Fraction]


def _system(variables: tuple[str, ...], rows: Iterable[Row]) -> ConstraintSystem:
    return ConstraintSystem(variables, tuple(LinConstraint(*row) for row in rows))


def _false_row(width: int) -> Row:
    """0 < 0, the one row of an empty system."""
    return (0,) * width, LT, 0


def _prune(rows: Iterable[tuple], copied: Iterable[bool] = ()) -> list[Row]:
    """Give each (coeffs, rel, const) row its canonical form, drop
    trivially-true rows and duplicates, and among parallel rows of the same
    direction keep only the tightest one.  A ground-false row, or two
    parallel equalities that disagree, collapse the whole system to the
    single row 0 < 0.  Coefficients may be ints or Fractions, and const an
    int or a Fraction; the canonical const is an int exactly when it is
    integral.  A row flagged in `copied` is canonical already (`_eliminate`
    copied it with a zero dropped) and goes straight to the collapse."""
    best: dict[tuple, tuple] = {}  # (kind, direction) -> (rel, const)
    for (coeffs, rel, const), canonical in zip(rows, chain(copied, repeat(False))):
        if not any(coeffs):
            if HOLDS[rel](0, const):
                continue
            return [_false_row(len(coeffs))]
        if canonical:
            direction = coeffs
        else:
            # Equalities canonicalize up to sign, inequalities only up to
            # positive scaling; directions are kept as coprime integers, so
            # the divisor's sign orients the row as <=, < or = in one step.
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
            const = Fraction(num, den) if remainder else quotient
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
    return _prune((row.coeffs, row.rel, row.const) for row in rows)


def _eliminate(rows: Sequence[Row], idx: int) -> tuple[list[tuple], list[bool]]:
    """Remove column idx from canonical rows, by substitution through the
    first equality that holds it, or else by one Fourier-Motzkin step.
    Returns the new rows, with int directions but not yet pruned, and for
    each a flag: whether it is a row copied with a zero dropped, which is
    still canonical.  A paired row is strict iff either parent is."""
    dropped = [d[:idx] + d[idx + 1 :] for d, _, _ in rows]
    out: list[tuple] = []
    copied: list[bool] = []

    def combine(i: int, a: int, k: int, b: int, rel: str) -> None:
        coeffs = tuple(x * a + y * b for x, y in zip(dropped[i], dropped[k]))
        out.append((coeffs, rel, rows[i][2] * a + rows[k][2] * b))
        copied.append(False)

    pivot = next((k for k, (d, rel, _) in enumerate(rows) if rel == EQ and d[idx]), None)
    for i, (d, rel, const) in enumerate(rows):
        if d[idx] == 0:
            out.append((dropped[i], rel, const))
            copied.append(True)
        elif pivot is not None and i != pivot:
            # |p|*row - sign(p)*f*pivot: a positive multiple of row - (f/p)*pivot
            p = rows[pivot][0][idx]
            combine(i, abs(p), pivot, -d[idx] if p > 0 else d[idx], rel)
    if pivot is None:
        upper = [i for i, (d, _, _) in enumerate(rows) if d[idx] > 0]
        lower = [k for k, (d, _, _) in enumerate(rows) if d[idx] < 0]
        for i in upper:
            for k in lower:
                # up*pl + low*pu: a positive multiple of up/pu + low/pl
                rel = LT if LT in (rows[i][1], rows[k][1]) else LE
                combine(i, -rows[k][0][idx], k, rows[i][0][idx], rel)
    return out, copied


def eliminate(c: ConstraintSystem, var: str) -> ConstraintSystem:
    """Project c's solution set along one variable; the result ranges over
    the remaining variables.  A combined row is strict iff either parent is."""
    idx = c.index_of(var)
    rows = _prune(*_eliminate(_canonical(c.rows), idx))
    return _system(c.variables[:idx] + c.variables[idx + 1 :], rows)


def _entailed(rest: Sequence[Row], row: Row) -> bool:
    """Whether every point of the feasible canonical rows `rest` satisfies
    the canonical `row`: the dual LP, then the Motzkin stage for a strict
    row at its bound.  An equality is both of its directions."""
    direction, rel, const = row
    if rel == EQ:
        opposite = (tuple(-v for v in direction), LE, -const)
        return _entailed(rest, (direction, LE, const)) and _entailed(rest, opposite)
    rels = [r for _, r, _ in rest]
    columns = list(zip(*(d for d, _, _ in rest))) if rest else [()] * len(direction)
    # The dual's row j, sum_i y_i d_ij = a_j, needs a term of a_j's sign: an
    # inequality row (y_i >= 0) of that sign in column j, or an equality row
    # (y_i free) with any nonzero there.  Without one it is infeasible.
    for a, column in zip(direction, columns):
        if a == 0 or (max(column, default=0) > 0 if a > 0 else min(column, default=0) < 0):
            continue
        if not any(v for v, r in zip(column, rels) if r == EQ):
            return False
    signs = tuple(FREE if r == EQ else NONNEG for r in rels)
    consts = tuple(b for _, _, b in rest)
    gradient = tuple((column, EQ, a) for column, a in zip(columns, direction))
    bound = solve(LpProblem(consts, False, gradient, signs))
    if bound.status is LpStatus.INFEASIBLE or bound.value > const:
        return False
    if bound.value < const or rel == LE:
        return True
    strict = tuple(int(r == LT) for r in rels)
    if not any(strict):
        return False
    face = solve(LpProblem(strict, True, gradient + ((consts, EQ, const),), signs))
    return face.status is LpStatus.UNBOUNDED or face.value > 0


def entails(c: ConstraintSystem, k: LinConstraint) -> bool:
    """True iff every rational solution of c satisfies k; c must be
    satisfiable.  One `_entailed` test, no primal LP over c's rows."""
    if not satisfiable(c):
        raise ConstraintError("entailment over an unsatisfiable system")
    if len(k.coeffs) != c.n_vars:
        raise ConstraintError(f"row has {len(k.coeffs)} coefficients for {c.n_vars} variables")
    premise = _canonical(c.rows)
    return all(_entailed(premise, row) for row in _canonical((k,)))


def _irredundant(rows: Sequence[Row], redundant=_entailed) -> list[Row]:
    """Greedy pruning of canonical rows: drop, in order, each row that
    `redundant(rest, row)` finds redundant given the rows still kept.  The
    default, `_entailed`, needs feasible rows."""
    keep = list(rows)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if redundant(rest, keep[i]):
            keep = rest
        else:
            i += 1
    return keep


def remove_redundant(c: ConstraintSystem) -> ConstraintSystem:
    """Drop, in order, each canonical row that the rows still kept entail;
    the result has c's solution set and no entailed row.  Dropping a row
    keeps the solution set, so one `satisfiable` on c tells feasibility for
    the whole scan: on a feasible c each row is one `_entailed` test (no
    witness points are kept), and on an infeasible c a row goes iff the
    rest stay infeasible."""
    rows = _canonical(c.rows)
    if satisfiable(c):
        return _system(c.variables, _irredundant(rows))

    def still_infeasible(rest: Sequence[Row], _row: Row) -> bool:
        return not satisfiable(_system(c.variables, rest))

    return _system(c.variables, _irredundant(rows, still_infeasible))


def project(c: ConstraintSystem, keep: Sequence[str]) -> ConstraintSystem:
    """Eliminate every variable outside `keep`, then remove redundancy.
    The result's variables follow the order of `keep`.  Feasibility is
    checked once, on c; every redundancy scan is an `_irredundant` pass."""
    keep = tuple(keep)
    columns = [c.index_of(name) for name in keep]  # validates membership
    # Projecting an empty set is the empty set; eliminating variables from
    # an infeasible system head-on can blow up combinatorially instead.
    if not satisfiable(c):
        return _system(keep, [_false_row(len(keep))])
    return _system(keep, _project(_canonical(c.rows), c.n_vars, columns))


def _project(rows: list[Row], width: int, keep: Sequence[int]) -> list[Row]:
    """Eliminate every column outside `keep` from feasible canonical rows
    over `width` columns, then remove redundancy; the result's columns
    follow the order of `keep`."""
    columns = list(range(width))
    kept = set(keep)

    def cost(i: int) -> tuple[int, int]:
        # Substitution through an equality first, in index order (each such
        # step removes one row and one column); then the column with the
        # fewest (upper, lower) pairs.  Pairing never creates an equality.
        if any(rel == EQ and d[i] for d, rel, _ in rows):
            return 0, 0
        return 1, sum(d[i] > 0 for d, _, _ in rows) * sum(d[i] < 0 for d, _, _ in rows)

    grew = False
    for _ in range(width - len(kept)):
        idx = min((i for i, col in enumerate(columns) if col not in kept), key=cost)
        stepped = _prune(*_eliminate(rows, idx))
        grew = len(stepped) > len(rows)
        rows = _irredundant(stepped) if grew else stepped
        del columns[idx]

    # Permuting columns can flip an equality's leading sign, so the rows are
    # pruned again.  After a growing last step they are already irredundant.
    perm = [columns.index(col) for col in keep]
    rows = _prune((tuple(d[i] for i in perm), rel, const) for d, rel, const in rows)
    return rows if grew else _irredundant(rows)


def equivalent(c1: ConstraintSystem, c2: ConstraintSystem) -> bool:
    """Exact solution-set equality of two (possibly strict) systems over the
    same variables: both empty, or each system entails every canonical row
    of the other, by `_entailed`, which is exact for strict rows."""
    if c1.variables != c2.variables:
        raise ConstraintError("cannot compare systems over different variables")
    rows1, rows2 = _canonical(c1.rows), _canonical(c2.rows)
    if set(rows1) == set(rows2):
        return True
    sat1, sat2 = satisfiable(c1), satisfiable(c2)
    if not sat1 or not sat2:
        return sat1 == sat2
    return all(_entailed(rows1, r) for r in rows2) and all(_entailed(rows2, r) for r in rows1)

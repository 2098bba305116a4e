"""Variable elimination, redundancy removal, entailment and set equality
for constraint systems that may contain strict rows.

Elimination is Fourier-Motzkin with the standard accelerations: variables
occurring in equality rows are eliminated by substitution first (row count
never grows), and the remaining variables are eliminated pairwise with
ancestry tracking so that any non-strict row combining more than k+1
original rows after k eliminations is dropped as redundant (Chernikov's
counting rule; such rows are consequences of the retained ones).  After
every step `_prune_trivial` gives each row its one canonical form: oriented
<=, < or =, a coprime-integer direction (an equality's leading coefficient
positive), parallel rows collapsed to the tightest representative, and
`0 < 0` as the only empty row.  An exact LP-based prune acts as a backstop
when row counts still grow.

Equality of solution sets is decided exactly, strict faces included: after
the two relaxed systems entail each other, any remaining discrepancy must
be a point of one set lying exactly on the boundary hyperplane of a strict
row of the other, and each such hyperplane is checked by one feasibility
call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .constraints import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    ConstraintError,
    ConstraintSystem,
    LinConstraint,
)
from .rationals import integer_scaling
from .simplex import find_point, satisfiable

_FULL_PRUNE_THRESHOLD = 40


def _combine_eq(row: LinConstraint, pivot: LinConstraint, t: Fraction) -> LinConstraint:
    """row - t * pivot, pivot an equality (relation preserved)."""
    coeffs = tuple(a - t * b for a, b in zip(row.coeffs, pivot.coeffs))
    return LinConstraint(coeffs, row.rel, row.const - t * pivot.const)


def _drop_column(
    variables: tuple[str, ...], idx: int, rows: Iterable[LinConstraint]
) -> ConstraintSystem:
    remaining = variables[:idx] + variables[idx + 1 :]
    new_rows = tuple(
        LinConstraint(row.coeffs[:idx] + row.coeffs[idx + 1 :], row.rel, row.const)
        for row in rows
    )
    return ConstraintSystem(remaining, new_rows)


def _fm_combinations(
    rows: Sequence[LinConstraint], idx: int
) -> list[tuple[LinConstraint, tuple[int, ...]]]:
    """One Fourier-Motzkin step on column idx over <=-oriented rows.

    Returns (row, parents) pairs: parents is (i,) for a row i passed
    through and (i, j) for the combination of upper row i with lower row j,
    so the caller can track ancestry.  Raises if an equality row holds the
    variable (callers substitute those first)."""
    passthrough: list[int] = []
    upper: list[int] = []
    lower: list[int] = []
    oriented: list[LinConstraint] = []
    for i, row in enumerate(rows):
        le_row = row.as_le()
        oriented.append(le_row)
        coeff = le_row.coeffs[idx]
        if coeff == 0:
            passthrough.append(i)
        elif le_row.rel == EQ:
            raise AssertionError("equality rows are substituted before FM")
        elif coeff > 0:
            upper.append(i)
        else:
            lower.append(i)
    out: list[tuple[LinConstraint, tuple[int, ...]]] = []
    for i in passthrough:
        out.append((oriented[i], (i,)))
    for i in upper:
        up = oriented[i]
        pu = up.coeffs[idx]
        for j in lower:
            low = oriented[j]
            pl = -low.coeffs[idx]
            coeffs = tuple(a / pu + b / pl for a, b in zip(up.coeffs, low.coeffs))
            const = up.const / pu + low.const / pl
            rel = LT if (up.rel == LT or low.rel == LT) else LE
            out.append((LinConstraint(coeffs, rel, const), (i, j)))
    return out


def eliminate(c: ConstraintSystem, var: str) -> ConstraintSystem:
    """Project c's solution set along one variable; the result ranges over
    the remaining variables.  A combined row is strict iff either parent is."""
    idx = c.index_of(var)
    pivot = next((row for row in c.rows if row.rel == EQ and row.coeffs[idx] != 0), None)
    if pivot is not None:
        out = []
        for row in c.rows:
            if row is pivot:
                continue
            coeff = row.coeffs[idx]
            out.append(_combine_eq(row, pivot, coeff / pivot.coeffs[idx]) if coeff != 0 else row)
        return _drop_column(c.variables, idx, _prune_trivial(out)[0])
    combined = [row for row, _ in _fm_combinations(c.rows, idx)]
    return _drop_column(c.variables, idx, _prune_trivial(combined)[0])


def _false_row(width: int) -> LinConstraint:
    """0 < 0, the one row of an empty system."""
    return LinConstraint((Fraction(0),) * width, LT, Fraction(0))


def _prune_trivial(
    rows: Sequence[LinConstraint],
) -> tuple[list[LinConstraint], list[int]]:
    """Give each row its canonical form, drop trivially-true rows and
    duplicates, and among parallel rows of the same direction keep only the
    tightest one.  Returns the kept rows and the source index of each.  A
    ground-false row, or two parallel equalities that disagree, collapse
    the whole system to the single row 0 < 0."""
    best: dict[tuple, tuple] = {}  # (kind, direction) -> (rel, const, index)
    for i, row in enumerate(rows):
        if row.is_trivially_true():
            continue
        if row.is_trivially_false():
            return [_false_row(len(row.coeffs))], [i]
        rel = row.rel
        # Equalities canonicalize up to sign, inequalities only up to
        # positive scaling; directions are kept as coprime integers, so the
        # divisor's sign orients the row as <=, < or = in the same step.
        denom, nums = integer_scaling(row.coeffs)
        divisor = gcd(*nums)
        if rel == GE or rel == GT:
            divisor, rel = -divisor, (LE if rel == GE else LT)
        elif rel == EQ and next(v for v in nums if v) < 0:
            divisor = -divisor
        direction = tuple(v // divisor for v in nums)
        key = (EQ if rel == EQ else LE, direction)
        scaled_const = row.const * Fraction(denom, divisor)
        incumbent = best.get(key)
        if incumbent is not None and rel == EQ:
            if incumbent[1] != scaled_const:
                return [_false_row(len(direction))], [i]
            continue
        if incumbent is None or scaled_const < incumbent[1] or (
            scaled_const == incumbent[1] and rel == LT
        ):
            best[key] = (rel, scaled_const, i)
    kept = [
        LinConstraint(direction, rel, const) for (_, direction), (rel, const, _) in best.items()
    ]
    return kept, [i for _, _, i in best.values()]


# The rows whose union is the complement of a row's solution set.
_NEGATED = {LE: (GT,), LT: (GE,), GE: (LT,), GT: (LE,), EQ: (GT, LT)}


def _negations(k: LinConstraint) -> list[LinConstraint]:
    return [LinConstraint(k.coeffs, rel, k.const) for rel in _NEGATED[k.rel]]


def _entails_system(c: ConstraintSystem, k: LinConstraint) -> bool:
    """Every point of c satisfies k (c may be empty or carry strict rows)."""
    return all(
        find_point(c.with_rows(c.rows + (neg,))) is None for neg in _negations(k)
    )


def entails(c: ConstraintSystem, k: LinConstraint) -> bool:
    """True iff every rational solution of c satisfies k; c must be
    satisfiable."""
    if not satisfiable(c):
        raise ConstraintError("entailment over an unsatisfiable system")
    return _entails_system(c, k)


def remove_redundant(c: ConstraintSystem) -> ConstraintSystem:
    """Greedy pruning: drop each row entailed by the remaining ones.  The
    result has the same solution set and no row entailed by the others.

    Every feasibility query that certifies a row as needed yields a point;
    those points are cached and re-checked first, so most non-redundant
    rows are confirmed without another LP."""
    keep = _prune_trivial(c.rows)[0]
    witnesses: list[tuple] = []
    i = 0
    while i < len(keep):
        candidate = keep[i]
        rest = keep[:i] + keep[i + 1 :]
        cached = any(
            all(row.satisfied_by(p) for row in rest) and not candidate.satisfied_by(p)
            for p in witnesses
        )
        if cached:
            i += 1
            continue
        point = None
        for neg in _negations(candidate):
            point = find_point(c.with_rows(tuple(rest) + (neg,)))
            if point is not None:
                break
        if point is None:
            keep = rest
        else:
            witnesses.append(point)
            i += 1
    return c.with_rows(tuple(keep))


def project(c: ConstraintSystem, keep: Sequence[str]) -> ConstraintSystem:
    """Eliminate every variable outside `keep`, then remove redundancy.
    The result's variables follow the order of `keep`."""
    keep = tuple(keep)
    for name in keep:
        c.index_of(name)  # validates membership
    # Projecting an empty set is the empty set; eliminating variables from
    # an infeasible system head-on can blow up combinatorially instead.
    if not satisfiable(c):
        return ConstraintSystem(keep, (_false_row(len(keep)),))
    current = c.with_rows(_prune_trivial(c.rows)[0])

    # Substitution phase: any to-eliminate variable held by an equality row
    # goes first (each such step removes one row and one column).
    while True:
        idx = next(
            (
                current.variables.index(v)
                for v in current.variables
                if v not in keep
                and any(r.rel == EQ and r.coeffs[current.variables.index(v)] != 0 for r in current.rows)
            ),
            None,
        )
        if idx is None:
            break
        current = eliminate(current, current.variables[idx])

    # Pairing phase: pure FM with Chernikov's counting rule.  Ancestries
    # are sets of baseline row indices; after k eliminations a non-strict
    # row combining more than k+1 baseline rows is redundant.  Strict rows
    # are exempted (their strictness may not be re-derivable) and left to
    # the exact prune at the end.
    rows = list(current.rows)
    ancestry = [frozenset([i]) for i in range(len(rows))]
    variables = current.variables
    eliminated = 0
    remaining = [v for v in variables if v not in keep]
    while remaining:
        counts = {}
        for name in remaining:
            idx = variables.index(name)
            pos = neg = 0
            for row in rows:  # canonical, so oriented <=, < or =
                coeff = row.coeffs[idx]
                if coeff > 0:
                    pos += 1
                elif coeff < 0:
                    neg += 1
            counts[name] = pos * neg
        victim = min(remaining, key=lambda v: (counts[v], variables.index(v)))
        idx = variables.index(victim)

        produced = _fm_combinations(rows, idx)
        eliminated += 1
        new_rows: list[LinConstraint] = []
        new_anc: list[frozenset] = []
        for row, parents in produced:
            anc = frozenset().union(*(ancestry[p] for p in parents))
            if not row.is_strict and len(anc) > eliminated + 1:
                continue
            new_rows.append(row)
            new_anc.append(anc)
        kept_rows, kept_idx = _prune_trivial(new_rows)
        stripped = _drop_column(variables, idx, kept_rows)
        variables = stripped.variables
        rows = list(stripped.rows)
        ancestry = [new_anc[i] for i in kept_idx]
        remaining.remove(victim)

        if len(rows) > _FULL_PRUNE_THRESHOLD:
            reduced = remove_redundant(ConstraintSystem(variables, tuple(rows)))
            kept_set = {row: None for row in reduced.rows}
            pairs = [(r, a) for r, a in zip(rows, ancestry) if r in kept_set]
            rows = [r for r, _ in pairs]
            ancestry = [a for _, a in pairs]

    result = _reorder(ConstraintSystem(variables, tuple(rows)), keep)
    return remove_redundant(result)


def _reorder(c: ConstraintSystem, variables: tuple[str, ...]) -> ConstraintSystem:
    if c.variables == variables:
        return c
    perm = [c.index_of(name) for name in variables]
    rows = tuple(
        LinConstraint(tuple(row.coeffs[i] for i in perm), row.rel, row.const)
        for row in c.rows
    )
    return ConstraintSystem(variables, rows)


def equivalent(c1: ConstraintSystem, c2: ConstraintSystem) -> bool:
    """Exact solution-set equality of two (possibly strict) systems over the
    same variables.

    After mutual entailment of the relaxed closures, the sets can only
    differ at a point of one system lying on the boundary hyperplane of a
    strict row of the other, so each such hyperplane is intersected with
    the other system; equality holds iff every intersection is empty.
    """
    if c1.variables != c2.variables:
        raise ConstraintError("cannot compare systems over different variables")
    if set(_prune_trivial(c1.rows)[0]) == set(_prune_trivial(c2.rows)[0]):
        return True
    sat1, sat2 = satisfiable(c1), satisfiable(c2)
    if not sat1 or not sat2:
        return sat1 == sat2
    r1, r2 = c1.relaxed(), c2.relaxed()
    if not all(_entails_system(r1, row) for row in r2.rows):
        return False
    if not all(_entails_system(r2, row) for row in r1.rows):
        return False
    for source, other in ((c1, c2), (c2, c1)):
        for row in source.rows:
            if not row.is_strict:
                continue
            boundary = LinConstraint(row.coeffs, EQ, row.const)
            if find_point(other.with_rows(other.rows + (boundary,))) is not None:
                return False
    return True

"""Variable elimination, redundancy removal, entailment and set equality
for constraint systems that may contain strict rows.

Elimination is Fourier-Motzkin with the standard accelerations: variables
occurring in equality rows are eliminated by substitution first (row count
never grows), and the remaining variables are eliminated pairwise with
ancestry tracking so that any non-strict row combining more than k+1
original rows after k eliminations is dropped as redundant (Chernikov's
counting rule; such rows are consequences of the retained ones).  Rows are
rescaled to coprime integer coefficients at every step to keep rational
arithmetic small, parallel rows collapse to the tightest representative,
and an exact LP-based prune acts as a backstop when row counts still grow.

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
from .simplex import find_point, satisfiable

_FULL_PRUNE_THRESHOLD = 40


def _int_normalize(row: LinConstraint) -> LinConstraint:
    """Scale by a positive rational so all numbers are coprime integers."""
    denom = row.const.denominator
    for c in row.coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    nums = [c.numerator * (denom // c.denominator) for c in row.coeffs]
    const = row.const.numerator * (denom // row.const.denominator)
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    g = gcd(g, abs(const))
    if g > 1:
        nums = [v // g for v in nums]
        const //= g
    return LinConstraint(tuple(Fraction(v) for v in nums), row.rel, Fraction(const))


def _combine_eq(row: LinConstraint, pivot: LinConstraint, t: Fraction) -> LinConstraint:
    """row - t * pivot, pivot an equality (relation preserved)."""
    coeffs = tuple(a - t * b for a, b in zip(row.coeffs, pivot.coeffs))
    return _int_normalize(LinConstraint(coeffs, row.rel, row.const - t * pivot.const))


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
        le_row = row.as_le() if row.rel in (GE, GT) else row
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
            out.append((_int_normalize(LinConstraint(coeffs, rel, const)), (i, j)))
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
        return _drop_column(c.variables, idx, _prune_trivial(out))
    combined = [row for row, _ in _fm_combinations(c.rows, idx)]
    return _drop_column(c.variables, idx, _prune_trivial(combined))


def _prune_trivial(rows: Sequence[LinConstraint]) -> list[LinConstraint]:
    """Drop trivially-true rows and syntactic duplicates; among parallel rows
    of the same direction keep only the tightest one.  A ground-false row
    collapses the whole system to just that row."""
    kept, _ = _prune_trivial_tracked(rows)
    return kept


def _direction_scale(coeffs: Sequence[Fraction]) -> Fraction:
    """Positive t such that coeffs * t are coprime integers."""
    denom = 1
    for c in coeffs:
        if c != 0:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    num = 0
    for c in coeffs:
        if c != 0:
            num = gcd(num, abs(c.numerator * (denom // c.denominator)))
    return Fraction(denom, num)


def _prune_trivial_tracked(
    rows: Sequence[LinConstraint],
) -> tuple[list[LinConstraint], list[int]]:
    """_prune_trivial plus the source index of each kept row."""
    for i, row in enumerate(rows):
        if row.is_trivially_false():
            return [row], [i]
    best: dict[tuple, tuple[LinConstraint, int]] = {}
    order: list[tuple] = []
    conflict: tuple[LinConstraint, int] | None = None
    for i, row in enumerate(rows):
        if row.is_trivially_true():
            continue
        le_row = row.as_le() if row.rel in (GE, GT) else row
        kind = EQ if le_row.rel == EQ else LE
        # Equalities canonicalize up to sign, inequalities only up to
        # positive scaling; directions are kept as coprime integers.
        scale = _direction_scale(le_row.coeffs)
        lead = next(a for a in le_row.coeffs if a != 0)
        if kind == EQ and lead < 0:
            scale = -scale
        direction = tuple(a * scale for a in le_row.coeffs)
        key = (kind, direction)
        scaled_const = le_row.const * scale
        incumbent = best.get(key)
        if incumbent is None:
            best[key] = (LinConstraint(direction, le_row.rel, scaled_const), i)
            order.append(key)
            continue
        if kind == EQ:
            if incumbent[0].const != scaled_const:
                width = len(direction)
                conflict = (
                    LinConstraint((Fraction(0),) * width, LT, Fraction(0)),
                    i,
                )
                break
            continue
        tighter = scaled_const < incumbent[0].const or (
            scaled_const == incumbent[0].const and le_row.rel == LT
        )
        if tighter:
            best[key] = (LinConstraint(direction, le_row.rel, scaled_const), i)
    if conflict is not None:
        return [conflict[0]], [conflict[1]]
    kept = [best[key] for key in order]
    return [row for row, _ in kept], [i for _, i in kept]


def _negations(k: LinConstraint) -> list[LinConstraint]:
    if k.rel == LE:
        return [LinConstraint(k.coeffs, GT, k.const)]
    if k.rel == LT:
        return [LinConstraint(k.coeffs, GE, k.const)]
    if k.rel == GE:
        return [LinConstraint(k.coeffs, LT, k.const)]
    if k.rel == GT:
        return [LinConstraint(k.coeffs, LE, k.const)]
    return [
        LinConstraint(k.coeffs, GT, k.const),
        LinConstraint(k.coeffs, LT, k.const),
    ]


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
    keep = _prune_trivial(c.rows)
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


def _empty_system(variables: tuple[str, ...]) -> ConstraintSystem:
    false_row = LinConstraint((Fraction(0),) * len(variables), LT, Fraction(0))
    return ConstraintSystem(variables, (false_row,))


def project(c: ConstraintSystem, keep: Sequence[str]) -> ConstraintSystem:
    """Eliminate every variable outside `keep`, then remove redundancy.
    The result's variables follow the order of `keep`."""
    keep = tuple(keep)
    for name in keep:
        c.index_of(name)  # validates membership
    # Projecting an empty set is the empty set; eliminating variables from
    # an infeasible system head-on can blow up combinatorially instead.
    if not satisfiable(c):
        return _empty_system(keep)
    current = c.with_rows(_prune_trivial(c.rows))

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
            for row in rows:
                le_row = row.as_le() if row.rel in (GE, GT) else row
                coeff = le_row.coeffs[idx]
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
        kept_rows, kept_idx = _prune_trivial_tracked(new_rows)
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


def _canonical_rows(c: ConstraintSystem) -> frozenset:
    out = []
    for row in _prune_trivial(c.rows):
        le_row = row.as_le() if row.rel in (GE, GT) else row
        out.append((le_row.rel, le_row.coeffs, le_row.const))
    return frozenset(out)


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
    if _canonical_rows(c1) == _canonical_rows(c2):
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

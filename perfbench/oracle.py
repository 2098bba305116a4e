"""Exact answer checks that share no code with linrank.

A system is a list of rows `(coeffs, rel, const)` with rel one of
`<=`, `<`, `=`, `>=`, `>` over `fractions.Fraction`.  Emptiness is decided
by plain Fourier-Motzkin elimination with strictness carried through, which
is exact and fast enough for the few-dimensional spaces and loop polyhedra
the benchmark checks (at most 5 variables and a few dozen rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ROW_CAP = 20000  # an oracle blow-up is a benchmark error, never a silent pass


class OracleLimit(RuntimeError):
    pass


def _le_rows(rows):
    """Rows as (coeffs, strict, const) meaning coeffs . x (< or <=) const."""
    out = []
    for coeffs, rel, const in rows:
        coeffs = tuple(Fraction(c) for c in coeffs)
        const = Fraction(const)
        neg = tuple(-c for c in coeffs)
        if rel in ("<=", "<"):
            out.append((coeffs, rel == "<", const))
        elif rel in (">=", ">"):
            out.append((neg, rel == ">", -const))
        elif rel == "=":
            out.append((coeffs, False, const))
            out.append((neg, False, -const))
        else:
            raise ValueError(f"unknown relation {rel!r}")
    return out


def _normalized(coeffs, strict, const):
    """Scale by a positive factor to coprime integers (dedupes parallel copies)."""
    denom = const.denominator
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    nums = [int(c * denom) for c in coeffs]
    rhs = int(const * denom)
    g = 0
    for v in nums + [rhs]:
        g = gcd(g, abs(v))
    g = g or 1
    return tuple(Fraction(v // g) for v in nums), strict, Fraction(rhs // g)


def _empty_le(rows, n_vars: int) -> bool:
    current = {_normalized(*row) for row in rows}
    for _ in range(n_vars + 1):
        kept = set()
        for coeffs, strict, const in current:
            if any(coeffs):
                kept.add((coeffs, strict, const))
            elif const < 0 or (strict and const == 0):
                return True
        current = kept
        live = [j for j in range(n_vars) if any(row[0][j] for row in current)]
        if not live:
            return False

        def growth(j):
            pos = sum(1 for row in current if row[0][j] > 0)
            neg = sum(1 for row in current if row[0][j] < 0)
            return pos * neg - pos - neg

        j = min(live, key=growth)
        pos = [row for row in current if row[0][j] > 0]
        neg = [row for row in current if row[0][j] < 0]
        nxt = {row for row in current if row[0][j] == 0}
        for pc, ps, pk in pos:
            for nc, ns, nk in neg:
                a, b = -nc[j], pc[j]
                coeffs = tuple(a * x + b * y for x, y in zip(pc, nc))
                nxt.add(_normalized(coeffs, ps or ns, a * pk + b * nk))
        if len(nxt) > ROW_CAP:
            raise OracleLimit(f"Fourier-Motzkin exceeded {ROW_CAP} rows")
        current = nxt
    raise AssertionError("every variable is eliminated within n_vars steps")


def is_empty(rows, n_vars: int) -> bool:
    return _empty_le(_le_rows(rows), n_vars)


def subset(a, b, n_vars: int) -> bool:
    """Every point of system a satisfies system b."""
    base = _le_rows(a)
    for coeffs, strict, const in _le_rows(b):
        negation = (tuple(-c for c in coeffs), not strict, -const)
        if not _empty_le(base + [negation], n_vars):
            return False
    return True


def equal(a, b, n_vars: int) -> bool:
    return subset(a, b, n_vars) and subset(b, a, n_vars)


def contains(rows, point) -> bool:
    for coeffs, strict, const in _le_rows(rows):
        lhs = sum((c * Fraction(x) for c, x in zip(coeffs, point)), Fraction(0))
        if lhs > const or (strict and lhs == const):
            return False
    return True

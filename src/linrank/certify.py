"""An exact checker for the certificates of terminating verdicts.

A certificate (y, z) of f(x) = mu0 + mu . x is a pair of nonnegative
multiplier vectors over the rows of a loop's <=-form (A A') <x, x'> <= b.
It is accepted when, in exact arithmetic,

    y^T A = -mu,   y^T A' = mu,   y^T b <= -delta < 0,
    z^T A = -mu,   z^T A' = 0,    z^T b <= mu0 - lower_bound,  lower_bound >= 0.

Summing the rows with weights y gives mu . x - mu . x' >= delta, and with
weights z gives mu0 + mu . x >= lower_bound, on every iteration.  An
accepted certificate also proves f a member of both engines' solution
sets, with no LP:

* PR: lam2 = (y, 0) and lam1 = (z, mu0 - z^T b) solve the witness
  equations on the matrix with the affine slot row 0 <= 1 appended, and
  extract to mu = lam2^T A' and mu0 = lam1^T b;
* MS: y / delta and z / delta solve the decrease and boundedness systems
  at mu = t * f.mu with t = 1 / delta.

This module reads only the matrix form and the scalars, so no engine code
judges its own answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .constraints import LeqMatrixForm, Rows
from .rationals import Rational


def _combine(weights: Sequence[Rational], rows: Rows, n: int) -> tuple[Rational, ...]:
    """weights^T M for an n-column matrix M, skipping zero terms (most
    multipliers of an LP vertex are zero)."""
    out = [Fraction(0)] * n
    for w, row in zip(weights, rows):
        if w:
            for j, v in enumerate(row):
                if v:
                    out[j] += w * v
    return tuple(out)


def _dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    return sum((a * b for a, b in zip(u, v) if a), Fraction(0))


def certificate_holds(m: LeqMatrixForm, f) -> bool:
    """Whether `f.certificate` proves the ranking function f (anything with
    `mu0`, `mu`, `delta`, `lower_bound` and `certificate`, such as
    `ms.RankingFunction`) on the loop whose <=-form is m.  A missing
    certificate is not accepted."""
    if f.certificate is None:
        return False
    y, z = f.certificate
    n = m.n_vars
    if len(y) != m.n_rows or len(z) != m.n_rows or len(f.mu) != n:
        return False
    if any(v < 0 for v in y) or any(v < 0 for v in z):
        return False
    if f.delta <= 0 or f.lower_bound < 0:
        return False
    minus_mu = tuple(-v for v in f.mu)
    return (
        _combine(y, m.a, n) == minus_mu
        and _combine(y, m.a_prime, n) == f.mu
        and _dot(y, m.b) <= -f.delta
        and _combine(z, m.a, n) == minus_mu
        and not any(_combine(z, m.a_prime, n))
        and _dot(z, m.b) <= f.mu0 - f.lower_bound
    )

"""Linear constraint systems over named rational variables.

A loop over variables x1..xn is modelled by constraints on the combined
tuple (x1..xn, x1'..xn'): unprimed values before an iteration, primed values
after it.  The same `ConstraintSystem` class also carries every derived
system this package builds (multiplier systems, ranking-function spaces),
which range over arbitrary named variables and may contain strict rows.

Loop *input* files admit only <=, = and >=; strict relations appear solely
in derived systems, so the parser rejects them while the data model and all
downstream machinery carry them natively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rationals import Rational, format_rational

LE, LT, EQ, GE, GT = "<=", "<", "=", ">=", ">"
RELATIONS = (LE, LT, EQ, GE, GT)
NONSTRICT_RELATIONS = (LE, EQ, GE)

_FLIP = {LE: GE, LT: GT, GE: LE, GT: LT, EQ: EQ}
_RELAX = {LT: LE, GT: GE, LE: LE, GE: GE, EQ: EQ}


class ConstraintError(ValueError):
    """Malformed constraint or constraint-system construction."""


@dataclass(frozen=True)
class VarSpace:
    """Ordered loop variables; position i of the primed block mirrors i."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ConstraintError("a variable space needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ConstraintError("variable names must be unique")
        for name in self.names:
            if name.endswith("'"):
                raise ConstraintError(f"base variable may not be primed: {name!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def primed_names(self) -> tuple[str, ...]:
        return tuple(name + "'" for name in self.names)

    @property
    def combined_names(self) -> tuple[str, ...]:
        return self.names + self.primed_names


@dataclass(frozen=True)
class LinConstraint:
    """A row  coeffs . vars  rel  const  over a system's variable tuple."""

    coeffs: tuple[Rational, ...]
    rel: str
    const: Rational

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ConstraintError(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "const", Fraction(self.const))

    def lhs_at(self, point: Sequence[Rational]) -> Rational:
        if len(point) != len(self.coeffs):
            raise ConstraintError("point dimension mismatch")
        return sum((c * Fraction(x) for c, x in zip(self.coeffs, point)), Fraction(0))

    def satisfied_by(self, point: Sequence[Rational]) -> bool:
        lhs = self.lhs_at(point)
        if self.rel == LE:
            return lhs <= self.const
        if self.rel == LT:
            return lhs < self.const
        if self.rel == EQ:
            return lhs == self.const
        if self.rel == GE:
            return lhs >= self.const
        return lhs > self.const

    @property
    def is_strict(self) -> bool:
        return self.rel in (LT, GT)

    def negate(self) -> "LinConstraint":
        """Flip orientation without changing the solution set."""
        return LinConstraint(tuple(-c for c in self.coeffs), _FLIP[self.rel], -self.const)

    def relaxed(self) -> "LinConstraint":
        """The non-strict closure of this row."""
        return LinConstraint(self.coeffs, _RELAX[self.rel], self.const)

    def as_le(self) -> "LinConstraint":
        """Orient as <= (or < for strict rows); equalities are left alone."""
        if self.rel in (GE, GT):
            return self.negate()
        return self

    def is_trivially_true(self) -> bool:
        return all(c == 0 for c in self.coeffs) and self.satisfied_by([0] * len(self.coeffs))

    def is_trivially_false(self) -> bool:
        return all(c == 0 for c in self.coeffs) and not self.satisfied_by([0] * len(self.coeffs))

    def render(self, variables: Sequence[str]) -> str:
        if len(variables) != len(self.coeffs):
            raise ConstraintError("variable list does not match coefficient count")
        terms: list[str] = []
        for coeff, name in zip(self.coeffs, variables):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = name if mag == 1 else f"{format_rational(mag)}*{name}"
            if not terms:
                terms.append(body if coeff > 0 else f"-{body}")
            else:
                terms.append(f"{'+' if coeff > 0 else '-'} {body}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {self.rel} {format_rational(self.const)}"


def constraint(coeffs: Iterable[int | Rational], rel: str, const: int | Rational) -> LinConstraint:
    return LinConstraint(tuple(Fraction(c) for c in coeffs), rel, Fraction(const))


@dataclass(frozen=True)
class ConstraintSystem:
    """Conjunction of linear constraints over one ordered variable tuple."""

    variables: tuple[str, ...]
    rows: tuple[LinConstraint, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ConstraintError("variable names must be unique")
        for row in self.rows:
            if len(row.coeffs) != len(self.variables):
                raise ConstraintError(
                    f"row has {len(row.coeffs)} coefficients for {len(self.variables)} variables"
                )

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def has_strict_rows(self) -> bool:
        return any(row.is_strict for row in self.rows)

    def satisfied_by(self, point: Sequence[Rational]) -> bool:
        return all(row.satisfied_by(point) for row in self.rows)

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ConstraintError(f"unknown variable {name!r}") from None

    def with_rows(self, rows: Iterable[LinConstraint]) -> "ConstraintSystem":
        return ConstraintSystem(self.variables, tuple(rows))

    def conjoin(self, other: "ConstraintSystem") -> "ConstraintSystem":
        if other.variables != self.variables:
            raise ConstraintError("cannot conjoin systems over different variables")
        return self.with_rows(self.rows + other.rows)

    def relaxed(self) -> "ConstraintSystem":
        return self.with_rows(row.relaxed() for row in self.rows)

    def render(self) -> list[str]:
        return [row.render(self.variables) for row in self.rows]


def system(variables: Sequence[str], rows: Iterable[LinConstraint]) -> ConstraintSystem:
    return ConstraintSystem(tuple(variables), tuple(rows))


@dataclass(frozen=True)
class LoopModel:
    """A loop given either as one combined system over (x, x') or as a
    (guard over x, update over (x, x')) pair."""

    space: VarSpace
    single: ConstraintSystem | None = None
    guard: ConstraintSystem | None = None
    update: ConstraintSystem | None = None

    def __post_init__(self):
        combined = self.space.combined_names
        if self.single is not None:
            if self.guard is not None or self.update is not None:
                raise ConstraintError("loop is either single or guarded, not both")
            if self.single.variables != combined:
                raise ConstraintError("single system must range over (x, x')")
        else:
            if self.guard is None or self.update is None:
                raise ConstraintError("guarded loop needs both guard and update")
            if self.guard.variables != self.space.names:
                raise ConstraintError("guard must range over unprimed variables only")
            if self.update.variables != combined:
                raise ConstraintError("update system must range over (x, x')")

    @property
    def is_guarded(self) -> bool:
        return self.single is None


Rows = tuple[tuple[Rational, ...], ...]


@dataclass(frozen=True)
class LeqMatrixForm:
    """(A A') <x, x'>  <=  b   with equalities already split; A and A' are
    tuples of rows, each with n_vars entries."""

    a: Rows
    a_prime: Rows
    b: tuple[Rational, ...]
    n_vars: int

    def __post_init__(self):
        if not (len(self.a) == len(self.a_prime) == len(self.b)):
            raise ConstraintError("row counts of A, A' and b must agree")
        if any(len(row) != self.n_vars for row in self.a + self.a_prime):
            raise ConstraintError(f"rows of A and A' must have {self.n_vars} entries")

    @property
    def n_rows(self) -> int:
        return len(self.b)


def to_leq_rows(c: ConstraintSystem) -> tuple[Rows, tuple[Rational, ...]]:
    """Rewrite any system as  M v <= d  (equalities split, <= row first)."""
    rows: list[tuple[Rational, ...]] = []
    consts: list[Rational] = []
    for row in c.rows:
        if row.is_strict:
            raise ConstraintError("strict relation has no matrix form here")
        if row.rel != GE:
            rows.append(row.coeffs)
            consts.append(row.const)
        if row.rel != LE:
            neg = row.negate()
            rows.append(neg.coeffs)
            consts.append(neg.const)
    return tuple(rows), tuple(consts)


def to_leq_matrix(c: ConstraintSystem, space: VarSpace) -> LeqMatrixForm:
    """Split a loop system into (A A') <x,x'> <= b, columns in space order."""
    if c.variables != space.combined_names:
        raise ConstraintError("system does not range over the loop's (x, x') tuple")
    n = space.n
    rows, consts = to_leq_rows(c)
    return LeqMatrixForm(
        tuple(r[:n] for r in rows), tuple(r[n:] for r in rows), consts, n
    )


def to_geq_matrix(c: ConstraintSystem) -> tuple[Rows, tuple[Rational, ...]]:
    """Rewrite as  A_c v >= b_c: the rows of to_leq_rows, negated (so an
    equality expands to its >= row last)."""
    rows, consts = to_leq_rows(c)
    return tuple(tuple(-v for v in r) for r in rows), tuple(-k for k in consts)


def merge_guarded(loop: LoopModel) -> ConstraintSystem:
    """Lift guard rows to (x, x') with zero primed part, then append update."""
    if not loop.is_guarded:
        raise ConstraintError("merge_guarded expects a guarded loop")
    n = loop.space.n
    lifted = [
        LinConstraint(row.coeffs + (Fraction(0),) * n, row.rel, row.const)
        for row in loop.guard.rows
    ]
    return ConstraintSystem(
        loop.space.combined_names, tuple(lifted) + loop.update.rows
    )


def loop_system(loop: LoopModel) -> ConstraintSystem:
    """The loop's combined constraint over (x, x'), whatever its shape."""
    return loop.single if loop.single is not None else merge_guarded(loop)

"""Cross-validation of the two synthesis engines.

The two methods are provably interchangeable on satisfiable loop
constraints: they return the same verdict, and the multiplier-based space
equals the positive-scaling closure of the duality-based (normalized)
space.  This module turns those facts into executable checks:

* `cone_extend` closes a normalized space under positive scaling by
  homogenizing the right-hand sides with a fresh k > 0 and eliminating k;
* witness membership in the *other* engine's solution set is read off the
  witness's certificate (`certify.certificate_holds`, whose module
  docstring gives the algebra), with no LP.  `witness_in_pr_set` and
  `witness_in_ms_denormalized` answer the same questions by one
  feasibility query each, as a reference;
* `cross_check` bundles verdict agreement, the two cross-memberships and
  exact space equality into one report.

The random-loop generator keeps every emitted loop satisfiable by pricing
the right-hand sides off a sampled feasible state pair, and can plant a
decrease/bound row pair to force termination when terminating samples are
wanted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .certify import _dot, certificate_holds
from .constraints import (
    EQ,
    GE,
    GT,
    LE,
    ConstraintError,
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    LoopModel,
    VarSpace,
    loop_system,
    merge_guarded,
    to_leq_matrix,
)
from .ms import (
    MS_FULL,
    RankingFunction,
    RankingSpace,
    TerminationStatus,
    Verdict,
    _conjoined_rows,
    _ms_signs,
    _multiplier_system,
    _names,
    ms_analyze,
    ms_space,
)
from .pr import build_pr_system, extraction_rows, pr_analyze, pr_space, with_affine_slot
from .projection import equivalent, project
from .simplex import satisfiable


def cone_extend(space: RankingSpace) -> RankingSpace:
    """Positive-scaling closure {k * <mu0, mu> : k > 0} of a full space.

    Each row  a . params  rel  c  becomes  a . params - c*k  rel  0, k > 0
    is added, and k is eliminated; strictness appears exactly where the
    closure loses its boundary."""
    if space.kind != MS_FULL:
        raise ConstraintError("cone extension is defined for full spaces")
    variables = space.params + ("k",)
    rows = [
        LinConstraint(row.coeffs + (-row.const,), row.rel, Fraction(0))
        for row in space.constraints.rows
    ]
    rows.append(
        LinConstraint((Fraction(0),) * len(space.params) + (Fraction(1),), GT, Fraction(0))
    )
    projected = project(ConstraintSystem(variables, tuple(rows)), space.params)
    return RankingSpace(space.params, projected, space.kind)


def witness_in_pr_set(m: LeqMatrixForm, f: RankingFunction) -> bool:
    """Is <f.mu0, f.mu> realizable by multiplier vectors?  One feasibility
    query on the witness equations with the extraction rows pinned (run on
    the affine-slot extension so every valid offset is reachable)."""
    m = with_affine_slot(m)
    base = build_pr_system(m)
    values = (f.mu0,) + f.mu
    extra = tuple(LinConstraint(r, EQ, v) for r, v in zip(extraction_rows(m), values))
    return satisfiable(base.with_rows(base.rows + extra))


def witness_in_ms_denormalized(loop: LoopModel, f: RankingFunction) -> bool:
    """Is f a positive multiple of a normalized witness (offset free)?

    Substitutes mu = t * f.mu into the conjoined decrease+boundedness
    system, keeps mu0 free, and asks for a solution with t > 0."""
    _, m, rows = _conjoined_rows(loop_system(loop))
    width = 2 * m + 3  # the y and z blocks, then mu0
    rows = [(coeffs[:width] + (_dot(coeffs[width:], f.mu),), rel, k) for coeffs, rel, k in rows]
    rows.append(((0,) * width + (1,), GT, 0))
    variables = _names("y", m) + _names("z", m + 2) + ("mu0", "t")
    return satisfiable(_multiplier_system(variables, rows, _ms_signs(2 * m + 2, 1)))


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of running both engines on one loop."""

    verdict_ms: Verdict
    verdict_pr: Verdict
    agree: bool
    ms_witness_in_pr_set: bool | None
    pr_witness_in_ms_set: bool | None
    spaces_equivalent: bool | None

    @property
    def all_consistent(self) -> bool:
        checks = (self.ms_witness_in_pr_set, self.pr_witness_in_ms_set, self.spaces_equivalent)
        return self.agree and all(c is not False for c in checks)


def cross_check(loop: LoopModel, compare_spaces: bool = True) -> CrossCheckReport:
    """Run both engines and verify their agreement.

    When both prove termination, each witness must belong to the other
    method's solution set, which its certificate proves (see `certify`).
    When the loop constraint is satisfiable and `compare_spaces` is set,
    the scaled duality-based space must equal the multiplier-based space
    exactly (strict faces included)."""
    vm = ms_analyze(loop)
    vp = pr_analyze(loop)
    agree = vm.status == vp.status

    ms_in_pr = pr_in_ms = None
    if vm.status is TerminationStatus.TERMINATING and vp.status is TerminationStatus.TERMINATING:
        m = to_leq_matrix(loop_system(loop), loop.space, _ints=True)
        ms_in_pr = certificate_holds(m, vm.witness)
        pr_in_ms = certificate_holds(m, vp.witness)

    spaces_equal = None
    if compare_spaces and vm.status is not TerminationStatus.TRIVIALLY_TERMINATING:
        extended = cone_extend(ms_space(loop))
        spaces_equal = equivalent(extended.constraints, pr_space(loop).constraints)

    return CrossCheckReport(vm, vp, agree, ms_in_pr, pr_in_ms, spaces_equal)


def random_loop(
    rng: random.Random,
    max_vars: int = 4,
    max_rows: int = 8,
    coeff_bound: int = 5,
    force_rank: bool = False,
    guarded: bool = False,
) -> LoopModel:
    """A random loop whose constraint is satisfiable by construction.

    Right-hand sides are priced off a sampled state pair (p, p'), and one
    x1 >= 0 row is always included (with p1 >= 0).  With `force_rank`, a
    random nonnegative mu is planted via the rows mu.x - mu.x' >= 1 and
    mu.x >= b0, which makes the loop provably terminating.
    """
    n = rng.randint(1, max_vars)
    space = VarSpace(tuple(f"x{i}" for i in range(1, n + 1)))
    p = [rng.randint(0, 4) if i == 0 else rng.randint(-4, 4) for i in range(n)]

    mu = None
    if force_rank:
        while True:
            mu = [rng.randint(0, 2) for _ in range(n)]
            if any(v > 0 for v in mu):
                break
        # p' = p - d with mu . d >= 1
        d = [rng.randint(0, 2) for _ in range(n)]
        while sum(a * b for a, b in zip(mu, d)) < 1:
            j = rng.choice([i for i in range(n) if mu[i] > 0])
            d[j] += 1
        pp = [a - b for a, b in zip(p, d)]
    else:
        pp = [rng.randint(-4, 4) for _ in range(n)]

    def priced_row(coeffs: list[int], point: list[int], rel: str) -> LinConstraint:
        lhs = sum(c * v for c, v in zip(coeffs, point))
        slack = rng.randint(0, 3)
        const = lhs + slack if rel == LE else lhs - slack
        return LinConstraint(tuple(coeffs), rel, const)

    state = p + pp

    guard_rows: list[LinConstraint] = []
    update_rows: list[LinConstraint] = []
    x1_nonneg = [0] * n
    x1_nonneg[0] = 1
    guard_rows.append(LinConstraint(tuple(x1_nonneg), GE, 0))

    budget = max_rows - 1 - (2 if force_rank else 0)  # x1 >= 0 and plant rows count
    n_rows = rng.randint(1, max(1, budget))
    for _ in range(n_rows):
        rel = rng.choice([LE, GE])
        if guarded and rng.random() < 0.4:
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
            guard_rows.append(priced_row(coeffs, p, rel))
        else:
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(2 * n)]
            update_rows.append(priced_row(coeffs, state, rel))

    if force_rank:
        decrease = tuple(mu) + tuple(-v for v in mu)
        update_rows.append(LinConstraint(decrease, GE, 1))
        b0 = sum(a * b for a, b in zip(mu, p)) - rng.randint(0, 3)
        guard_rows.append(LinConstraint(tuple(mu), GE, b0))

    loop = LoopModel(
        space,
        guard=ConstraintSystem(space.names, tuple(guard_rows)),
        update=ConstraintSystem(space.combined_names, tuple(update_rows)),
    )
    return loop if guarded else LoopModel(space, single=merge_guarded(loop))

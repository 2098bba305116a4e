"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance here is exact (rational equality / set equivalence); the
only numeric thresholds are wall-clock budgets.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from linrank.cli import main as cli_main
from linrank.constraints import (
    ConstraintSystem,
    LeqMatrixForm,
    LinConstraint,
    loop_system,
    to_leq_matrix,
)
from linrank.equivalence import (
    cone_extend,
    random_loop,
    witness_in_ms_denormalized,
    witness_in_pr_set,
)
from linrank.ms import TerminationStatus, ms_analyze, ms_space, svg_space
from linrank.pr import (
    PrWitness,
    build_pr_system,
    pr_alt_space,
    pr_analyze,
    pr_space,
    pr_space_of_matrix,
)
from linrank.projection import equivalent
from linrank.rationals import parse_rational
from linrank.simplex import NONNEG, LpStatus, lp, satisfiable, solve
from tests.conftest import load_loop
from tests.oracles import constraint, dual, permute_rows, system
from tests.test_projection import _random_system, fm_sampling_check

LOOPS = Path(__file__).resolve().parents[1] / "loops"


def _report(criterion: int, started: float, budget: float, detail: str):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_01_golden_affine_space_via_cli():
    t0 = time.perf_counter()
    out = io.StringIO()
    code = cli_main(
        ["space", str(LOOPS / "log2.loop"), "--method=ms", "--format=json"], out=out
    )
    assert code == 0
    payload = json.loads(out.getvalue())["space"]
    recovered = ConstraintSystem(
        tuple(payload["params"]),
        tuple(
            LinConstraint(
                tuple(parse_rational(c) for c in row["coeffs"]),
                row["rel"],
                parse_rational(row["const"]),
            )
            for row in payload["constraints"]
        ),
    )
    expected = system(
        ("mu0", "mu1", "mu2"),
        [
            constraint((0, 1, -1), ">=", 1),
            constraint((0, 0, 1), ">=", 0),
            constraint((1, 2, 0), ">=", 0),
        ],
    )
    assert equivalent(recovered, expected)
    _report(1, t0, 1.0, "mu1-mu2>=1, mu2>=0, mu0+2mu1>=0 (exact)")


def test_criterion_02_golden_svg_space():
    t0 = time.perf_counter()
    clause = load_loop("log2_clp.loop").single
    space = svg_space(clause)
    expected = system(
        ("mu1", "mu2"),
        [constraint((1, 1), ">=", 1), constraint((1, 0), ">=", 0), constraint((0, 1), ">=", 0)],
    )
    assert equivalent(space.constraints, expected)
    _report(2, t0, 1.0, "mu1+mu2>=1 with mu>=0 (exact)")


def test_criterion_03_golden_multiplier_witness():
    t0 = time.perf_counter()
    m = LeqMatrixForm(
        ((-1, 0), (-1, 0), (1, 0), (0, 1), (0, -1), (0, 0)),
        ((0, 0), (2, 0), (-2, 0), (0, -1), (0, 1), (0, -1)),
        (-2, 0, 1, -1, 1, -1),
        2,
    )
    lam1 = tuple(Fraction(v) for v in (2, 0, 0, 0, 0, 0))
    lam2 = tuple(Fraction(v) for v in (1, 1, 0, 0, 0, 0))
    assert build_pr_system(m).satisfied_by(lam1 + lam2)
    PrWitness(lam1, lam2).check(m)
    assert pr_analyze(load_loop("log2.loop")).status is TerminationStatus.TERMINATING
    _report(3, t0, 1.0, "golden multiplier pair satisfies the witness equations")


def test_criterion_04_verdict_agreement_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    checked = terminating = 0
    for i in range(200):
        loop = random_loop(
            rng, max_vars=4, max_rows=8, coeff_bound=5,
            force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
        )
        assert satisfiable(loop_system(loop))
        vm, vp = ms_analyze(loop), pr_analyze(loop)
        assert vm.status == vp.status, f"loop {i}: {vm.status} vs {vp.status}"
        if vm.status is TerminationStatus.TERMINATING:
            terminating += 1
            m = to_leq_matrix(loop_system(loop), loop.space)
            assert witness_in_pr_set(m, vm.witness), f"loop {i}: ms witness rejected"
            assert witness_in_ms_denormalized(loop, vp.witness), f"loop {i}: pr witness rejected"
        checked += 1
    assert checked == 200
    _report(4, t0, 60.0, f"200 loops agree, {terminating} terminating with cross-membership")


def test_criterion_05_space_equality_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        loop = random_loop(
            rng, max_vars=4, max_rows=8, coeff_bound=5,
            force_rank=(attempts % 2 == 0), guarded=(attempts % 3 == 0),
        )
        if ms_analyze(loop).status is not TerminationStatus.TERMINATING:
            continue
        extended = cone_extend(ms_space(loop))
        assert equivalent(extended.constraints, pr_space(loop).constraints), (
            f"space mismatch on terminating loop {attempts}"
        )
        done += 1
    _report(5, t0, 120.0, f"50 terminating loops, scaled spaces equal incl. strict faces")


def test_criterion_06_permutation_invariance():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    for i in range(50):
        loop = random_loop(
            rng, max_vars=3, max_rows=6, coeff_bound=5,
            force_rank=(i % 2 == 0), guarded=True,
        )
        m = to_leq_matrix(loop_system(loop), loop.space)
        base = pr_space_of_matrix(m)
        order = list(range(m.n_rows))
        rng.shuffle(order)
        permuted = pr_space_of_matrix(permute_rows(m, order))
        alt = pr_alt_space(loop)
        assert equivalent(base.constraints, permuted.constraints), f"loop {i}: permuted differs"
        assert equivalent(base.constraints, alt.constraints), f"loop {i}: alt differs"
        assert equivalent(permuted.constraints, alt.constraints), f"loop {i}: pair differs"
    _report(6, t0, 60.0, "50 guarded loops, three space routes pairwise equal")


def test_criterion_07_strong_duality():
    t0 = time.perf_counter()
    rng = random.Random(9001)
    for i in range(100):
        d = rng.randint(1, 4)
        rows_n = rng.randint(1, 5)
        x0 = [Fraction(rng.randint(0, 4)) for _ in range(d)]
        rows = []
        for _ in range(rows_n):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            rows.append((coeffs, ">=", lhs - rng.randint(0, 3)))
        objective = [Fraction(rng.randint(0, 4)) for _ in range(d)]
        p = lp(objective, False, rows, [NONNEG] * d)
        primal = solve(p)
        dual_out = solve(dual(p))
        assert primal.status is LpStatus.OPTIMAL, f"problem {i} not bounded-feasible"
        assert dual_out.status is LpStatus.OPTIMAL
        assert primal.value == dual_out.value, f"problem {i}: duality gap"
    _report(7, t0, 10.0, "100 bounded-feasible problems, primal = dual exactly")


def test_criterion_08_projection_oracle():
    t0 = time.perf_counter()
    rng = random.Random(60613)
    for _ in range(100):
        c = _random_system(rng)
        keep = tuple(v for v in c.variables if rng.random() < 0.5) or (c.variables[0],)
        fm_sampling_check(rng, c, keep)
    _report(8, t0, 30.0, "100 systems pass soundness/completeness sampling")


def test_criterion_09_negative_controls():
    t0 = time.perf_counter()
    diverge = load_loop("diverge.loop")
    assert ms_analyze(diverge).status is TerminationStatus.UNKNOWN
    assert pr_analyze(diverge).status is TerminationStatus.UNKNOWN
    assert ms_space(diverge).is_empty()
    assert pr_space(diverge).is_empty()
    unsat = load_loop("unsat.loop")
    assert ms_analyze(unsat).status is TerminationStatus.TRIVIALLY_TERMINATING
    assert pr_analyze(unsat).status is TerminationStatus.TRIVIALLY_TERMINATING
    _report(9, t0, 5.0, "diverging loop unknown/empty; unsatisfiable guard trivial")


def test_criterion_10_unreproduced_results_are_documented():
    t0 = time.perf_counter()
    # The published corpus measurements (per-benchmark loop counts, solver
    # CPU times and precision percentages) rest on extracted constraint
    # systems that were never published, so they cannot be reproduced here.
    # The shipped substitute is the synthetic corpus + property suites: the
    # bench harness must run and agree on the golden corpus.
    out = io.StringIO()
    code = cli_main(["bench", str(LOOPS)], out=out)
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    assert lines[0].startswith("file,n,m,verdict_ms,verdict_pr,agree")
    body = [line for line in lines[1:] if line]
    assert len(body) == 5
    assert all(",true," in line for line in body)
    print(
        "ACCEPTANCE 10: PASS - published corpus timings/precision tables are "
        "not reproducible (source constraint systems unavailable); synthetic "
        "bench harness + property suites stand in"
    )
    _report(10, t0, 30.0, "bench harness covers the golden corpus")

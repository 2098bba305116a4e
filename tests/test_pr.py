import random
from fractions import Fraction

import pytest

from linrank import parse_loop
from linrank.constraints import (
    LeqMatrixForm,
    LoopModel,
    VarSpace,
    loop_system,
    merge_guarded,
    to_leq_matrix,
)
from linrank.equivalence import random_loop
from linrank.ms import TerminationStatus, UnsatisfiableLoopError, ms_analyze
from linrank.pr import (
    InvalidWitnessError,
    PrAltWitness,
    PrWitness,
    build_pr_system,
    extract_rf,
    pr_alt_analyze,
    pr_alt_space,
    pr_analyze,
    pr_space,
    pr_space_of_matrix,
)
from linrank.projection import equivalent
from linrank.simplex import find_point
from tests.conftest import sample_points
from tests.oracles import build_pr_alt_system, constraint, normalize_strict, permute_rows, system

GOLDEN_A = ((-1, 0), (-1, 0), (1, 0), (0, 1), (0, -1), (0, 0))
GOLDEN_A_PRIME = ((0, 0), (2, 0), (-2, 0), (0, -1), (0, 1), (0, -1))
GOLDEN_B = (-2, 0, 1, -1, 1, -1)

LAMBDA1 = tuple(Fraction(v) for v in (2, 0, 0, 0, 0, 0))
LAMBDA2 = tuple(Fraction(v) for v in (1, 1, 0, 0, 0, 0))


@pytest.fixture(scope="module")
def golden_matrix():
    return LeqMatrixForm(GOLDEN_A, GOLDEN_A_PRIME, GOLDEN_B, 2)


def test_golden_witness_pair_satisfies_system(golden_matrix):
    sys_rows = build_pr_system(golden_matrix)
    point = LAMBDA1 + LAMBDA2
    assert sys_rows.satisfied_by(point)
    PrWitness(LAMBDA1, LAMBDA2).check(golden_matrix)


def test_scaling_closure(golden_matrix):
    sys_rows = build_pr_system(golden_matrix)
    for k in (Fraction(2), Fraction(1, 3)):
        scaled = tuple(k * v for v in LAMBDA1 + LAMBDA2)
        assert sys_rows.satisfied_by(scaled)


def test_zero_row_matrix_is_infeasible():
    m = LeqMatrixForm((), (), (), 1)
    sys_rows = build_pr_system(m)
    assert find_point(sys_rows) is None


def test_pr_analyze_log2(log2_loop):
    verdict = pr_analyze(log2_loop)
    assert verdict.status is TerminationStatus.TERMINATING
    f = verdict.witness
    assert f.delta > 0 and f.lower_bound == 0


def test_pr_analyze_diverge(diverge_loop):
    # the affine engine proves the ranking space empty, and the multiplier
    # system is directly infeasible as well
    assert ms_analyze(diverge_loop).status is TerminationStatus.UNKNOWN
    m = to_leq_matrix(loop_system(diverge_loop), diverge_loop.space)
    assert find_point(build_pr_system(m)) is None
    assert pr_analyze(diverge_loop).status is TerminationStatus.UNKNOWN


def test_pr_analyze_unsat(unsat_loop):
    assert pr_analyze(unsat_loop).status is TerminationStatus.TRIVIALLY_TERMINATING


def test_extract_rf_from_golden_witness(golden_matrix):
    f = extract_rf(PrWitness(LAMBDA1, LAMBDA2), golden_matrix)
    assert f.mu == (Fraction(2), Fraction(0))
    assert f.mu0 == Fraction(-4)
    assert f.delta == Fraction(2)
    assert f.lower_bound == 0


def test_extracted_function_in_denormalized_affine_space(log2_loop, golden_matrix):
    from linrank.ms import ms_space
    from tests.oracles import in_denormalized_space

    f = extract_rf(PrWitness(LAMBDA1, LAMBDA2), golden_matrix)
    assert in_denormalized_space(ms_space(log2_loop), f)
    # spot check against the golden space at k = 1
    mu0, mu1, mu2 = f.mu0, f.mu[0], f.mu[1]
    assert mu1 - mu2 >= 1 and mu2 >= 0 and mu0 + 2 * mu1 >= 0


def test_doubling_witness_doubles_extraction(golden_matrix):
    f = extract_rf(PrWitness(LAMBDA1, LAMBDA2), golden_matrix)
    doubled = extract_rf(
        PrWitness(tuple(2 * v for v in LAMBDA1), tuple(2 * v for v in LAMBDA2)),
        golden_matrix,
    )
    assert doubled.mu == tuple(2 * v for v in f.mu)
    assert doubled.mu0 == 2 * f.mu0
    assert doubled.delta == 2 * f.delta


def test_extract_rf_validates_witness(golden_matrix):
    with pytest.raises(InvalidWitnessError):
        extract_rf(PrWitness(LAMBDA2, LAMBDA1), golden_matrix)
    with pytest.raises(InvalidWitnessError):
        extract_rf(PrWitness(LAMBDA1, tuple(-v for v in LAMBDA2)), golden_matrix)


def test_pr_witness_valid_on_sampled_pairs(log2_loop, countdown_loop):
    from linrank.projection import entails

    rng = random.Random(3)
    for loop in (log2_loop, countdown_loop):
        f = pr_analyze(loop).witness
        c = loop_system(loop)
        n = loop.space.n
        for p in sample_points(c, rng, 200):
            x, xp = p[:n], p[n:]
            assert f.value_at(x) - f.value_at(xp) >= f.delta
            assert f.value_at(x) >= 0
        # certify both defining implications outright via entailment
        decrease = constraint(tuple(f.mu) + tuple(-v for v in f.mu), ">=", f.delta)
        bound = constraint(tuple(f.mu) + (0,) * n, ">=", -f.mu0)
        assert entails(c, decrease)
        assert entails(c, bound)


def test_pr_space_log2_equals_scaled_affine_space(log2_loop):
    from linrank.equivalence import cone_extend
    from linrank.ms import ms_space

    space = pr_space(log2_loop)
    assert space.kind == "pr"
    assert equivalent(space.constraints, cone_extend(ms_space(log2_loop)).constraints)


def test_pr_space_countdown_contains_scalings(countdown_loop):
    space = pr_space(countdown_loop)
    for k in (Fraction(1), Fraction(2), Fraction(1, 2)):
        assert space.contains((Fraction(0), k))
    assert not space.contains((Fraction(0), Fraction(0)))
    assert not space.contains((Fraction(0), Fraction(-1)))


def test_pr_space_empty_for_nonterminating(diverge_loop):
    assert pr_space(diverge_loop).is_empty()


def test_pr_space_requires_satisfiable(unsat_loop):
    with pytest.raises(UnsatisfiableLoopError):
        pr_space(unsat_loop)


def test_alt_system_log2(log2_loop):
    sys_rows = build_pr_alt_system(log2_loop)
    # r = 1 guard row, s = 5 update rows after the equality split
    assert sys_rows.variables[:2] == ("v1_1", "v2_1")
    assert len([v for v in sys_rows.variables if v.startswith("v3_")]) == 5
    point = find_point(sys_rows)
    assert point is not None
    assert pr_alt_analyze(log2_loop).status is TerminationStatus.TERMINATING


def test_alt_witness_reconstruction(log2_loop):
    sys_rows = build_pr_alt_system(log2_loop)
    point = find_point(normalize_strict(sys_rows))
    assert point is not None
    r = 1
    s = 5
    witness = PrAltWitness(tuple(point[:r]), tuple(point[r : 2 * r]), tuple(point[2 * r :]))
    merged = to_leq_matrix(merge_guarded(log2_loop), log2_loop.space)
    reconstructed = witness.reconstruct()
    reconstructed.check(merged)  # the four witness equations hold exactly


def test_alt_system_with_empty_guard():
    # With no guard rows the three-vector system degenerates to v3 alone;
    # the nonnegativity certificate then has to hold over the whole space,
    # so the search is sound but may miss functions that are nonnegative
    # only on reachable states.
    space = VarSpace(("x",))
    loop = LoopModel(
        space,
        guard=system(("x",), ()),
        update=system(("x", "x'"), (constraint((1, -1), ">=", 1), constraint((1, 0), ">=", 0))),
    )
    sys_rows = build_pr_alt_system(loop)
    assert not any(v.startswith("v1_") or v.startswith("v2_") for v in sys_rows.variables)
    # first block of equations reduces to -v3^T A_C = 0
    first = sys_rows.rows[0]
    a_c_col = (Fraction(1), Fraction(1))  # -A_C column for x
    assert first.rel == "=" and first.coeffs == a_c_col
    assert pr_alt_analyze(loop).status is TerminationStatus.UNKNOWN
    # moving the state constraint into the guard restores completeness
    guarded = LoopModel(
        space,
        guard=system(("x",), (constraint((1,), ">=", 0),)),
        update=system(("x", "x'"), (constraint((1, -1), ">=", 1),)),
    )
    assert pr_alt_analyze(guarded).status is TerminationStatus.TERMINATING


def test_alt_space_equals_merged_space(log2_loop):
    assert equivalent(pr_alt_space(log2_loop).constraints, pr_space(log2_loop).constraints)


def test_alt_space_guarded_countdown():
    loop = parse_loop("vars: x\nguard: x >= 0\nupdate: x' = x - 1")
    assert pr_alt_analyze(loop).status is TerminationStatus.TERMINATING
    space = pr_alt_space(loop)
    assert space.contains((Fraction(0), Fraction(1)))
    assert space.contains((Fraction(0), Fraction(5)))
    assert equivalent(space.constraints, pr_space(loop).constraints)


def test_space_invariant_under_row_permutation(log2_loop):
    rng = random.Random(8)
    m = to_leq_matrix(loop_system(log2_loop), log2_loop.space)
    base = pr_space_of_matrix(m)
    order = list(range(m.n_rows))
    for _ in range(3):
        rng.shuffle(order)
        permuted = pr_space_of_matrix(permute_rows(m, order))
        assert equivalent(base.constraints, permuted.constraints)


def test_permutation_and_alt_on_random_guarded_loops():
    rng = random.Random(14)
    done = 0
    while done < 6:
        loop = random_loop(rng, max_vars=3, max_rows=5, guarded=True, force_rank=(done % 2 == 0))
        m = to_leq_matrix(loop_system(loop), loop.space)
        base = pr_space_of_matrix(m)
        order = list(range(m.n_rows))
        rng.shuffle(order)
        assert equivalent(base.constraints, pr_space_of_matrix(permute_rows(m, order)).constraints)
        assert equivalent(base.constraints, pr_alt_space(loop).constraints)
        done += 1


def test_verdict_agreement_with_affine_engine(log2_loop, countdown_loop, diverge_loop, unsat_loop):
    for loop in (log2_loop, countdown_loop, diverge_loop, unsat_loop):
        assert pr_analyze(loop).status == ms_analyze(loop).status

"""Phase 1 without an artificial block.

`solve` keeps a condensed tableau: a row holds the nonbasic real columns
and the rhs, an artificial has no cell, and only real columns are priced.
It also keeps one column per free variable, oriented as one half of the
split x = x+ - x-.  These tests hold it to the textbook layout kept in
`tests.oracles.solve_with_artificial_block`, with an artificial block and
both halves of every free variable, outcome for outcome, on seeded LPs and
on degenerate shapes; check that phase-1 rows hold no more than the real
nonbasic columns; and run each place where the core picks a half.  They
also hold every exchange step to the textbook rational pivot, and check
that it divides each row it touches exactly by the row's old scale, with
no gcd, on LPs whose rows all start with scales of their own.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from linrank import projection, simplex
from linrank.constraints import EQ, GE, LE
from linrank.equivalence import cross_check, random_loop
from linrank.simplex import FREE, NONNEG, LpProblem, LpStatus, find_point, lp, solve
from tests.oracles import entailment_dual_lp, solve_with_artificial_block

N_SEEDED = 120
N_LOOPS = 24
# One prime past the coefficients' range per row of `_decide_size_lp`.
_ROW_PRIMES = (
    11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
)


def _number(rng: random.Random, big: bool) -> Fraction:
    if big and rng.random() < 0.05:
        magnitude = rng.randint(2**64, 2**70)
        return Fraction(rng.choice((-1, 1)) * magnitude, rng.choice((1, 1, 3, 2**64 + 1)))
    return Fraction(rng.randint(-9, 9))


def _decide_size_lp(seed: int) -> LpProblem:
    """An LP shaped like the multiplier systems of the `decide` workload: up
    to 27 rows over up to 40 variables, mostly equality rows, a fifth of the
    variables free, sparse rows.  Every fifth seed has some coefficients of
    2^64 and more.  Odd seeds price each row off a point, so they are feasible;
    seeds 1 mod 6 minimize a nonnegative objective over nonnegative
    variables, so they are bounded too."""
    rng = random.Random(seed)
    big = seed % 5 == 2
    bounded = seed % 6 == 1
    m, n = rng.randint(1, 27), rng.randint(1, 40)
    signs = [NONNEG if bounded or rng.random() < 0.8 else FREE for _ in range(n)]
    x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)] if seed % 2 else None
    rows = []
    for _ in range(m):
        coeffs = [_number(rng, big) if rng.random() < 0.3 else Fraction(0) for _ in range(n)]
        rel = rng.choice((EQ,) * 6 + (LE, GE))
        if x0 is None:
            rhs = _number(rng, big)
        else:
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            rhs = lhs + {LE: 1, GE: -1, EQ: 0}[rel] * rng.randint(0, 3)
        rows.append((coeffs, rel, rhs))
    if seed % 3 == 0:
        objective = None
    elif bounded:
        objective = [abs(_number(rng, big)) for _ in range(n)]
    else:
        objective = [_number(rng, big) for _ in range(n)]
    return lp(objective, not bounded and rng.random() < 0.5, rows, signs)


def _scaled_rows_lp(seed: int) -> LpProblem:
    """`_decide_size_lp(seed)` with row i divided by the i-th of
    `_ROW_PRIMES`: the same LP, but each row with an entry the prime does
    not divide is laid out with a scale of its own, greater than 1."""
    p = _decide_size_lp(seed)
    rows = tuple(
        (tuple(c / d for c in coeffs), rel, rhs / d)
        for (coeffs, rel, rhs), d in zip(p.rows, _ROW_PRIMES)
    )
    return LpProblem(p.objective, p.maximize, rows, p.signs)


def _cross_check_lps() -> list[LpProblem]:
    """Every LP that `cross_check` solves on the first loops of criterion
    4's stream, each loop from a cold `find_point` memo, all of them
    feasibility LPs; then the dual LP of each entailment it asks, so that
    phase 2 meets the projection's LPs too."""
    asked, duals = [], []
    standard_form, entailed = simplex._integer_standard_form, projection._entailed

    def recording(p):
        asked.append(p)
        return standard_form(p)

    def recording_entailed(rest, row):
        duals.append(entailment_dual_lp(rest, row[0]))
        return entailed(rest, row)

    rng = random.Random(20260810)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_integer_standard_form", recording)
        patch.setattr(projection, "_entailed", recording_entailed)
        for i in range(N_LOOPS):
            loop = random_loop(
                rng, max_vars=4, max_rows=8, coeff_bound=5,
                force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
            )
            find_point.cache_clear()
            cross_check(loop, compare_spaces=(i % 4 == 0))
    find_point.cache_clear()
    return asked + duals


@pytest.fixture(scope="module")
def families() -> dict[str, list[LpProblem]]:
    return {
        "seeded": [_decide_size_lp(seed) for seed in range(N_SEEDED)],
        "scaled": [_scaled_rows_lp(seed) for seed in range(N_SEEDED)],
        "cross_check": _cross_check_lps(),
    }


def test_scaled_family_lays_out_a_scale_per_row(families):
    """In the scaled family, the rows of an LP that have a nonzero entry
    get distinct scales, each greater than 1, so the starting basis
    determinant, the product of the scales, exceeds 1."""
    laid_out = 0
    for p in families["scaled"]:
        _, rows, scales, _ = simplex._integer_standard_form(p)
        nonzero = [s for (coeffs, _, rhs), s in zip(p.rows, scales) if any(coeffs) or rhs]
        assert all(s > 1 for s in nonzero) and len(set(nonzero)) == len(nonzero), scales
        laid_out += len(nonzero) > 1
    assert laid_out > N_SEEDED * 3 // 4, laid_out


def test_solve_matches_artificial_block_oracle(families):
    """Same status, point, value and ray as the artificial block, on seeded
    decide-size LPs, on the same LPs with a scale per row, and on the LPs
    of `cross_check`.  All four statuses occur in the seeded families,
    equally often, as dividing a row by a positive number changes no
    status; in the `cross_check` family the feasibility LPs are infeasible
    or feasible and the entailment duals infeasible or optimal, none of
    them unbounded."""
    counts = {}
    for name, problems in families.items():
        outcomes = [solve(p) for p in problems]
        oracle = [solve_with_artificial_block(p) for p in problems]
        differ = [i for i, (out, want) in enumerate(zip(outcomes, oracle)) if out != want]
        assert not differ, f"{name}: {len(differ)} outcomes differ from the oracle's, at {differ}"
        counts[name] = Counter(out.status.value for out in outcomes)
    assert counts["seeded"] == {"infeasible": 30, "unbounded": 29, "optimal": 33, "feasible": 28}
    assert counts["scaled"] == counts["seeded"]
    assert set(counts["cross_check"]) == {"infeasible", "feasible", "optimal"}, counts


def _rational_exchange(t, r, q):
    """The textbook pivot of t's rational rows on row r at position q, each
    new row given as numerators over one denominator.  Row i stands for
    row / c with c its scale; with a the pivot row's cell at q and c_r its
    scale, the pivot entry is a / c_r, so the pivot row becomes prow / a,
    and each other row, its cell g at q, becomes  row / c - g / c * prow / a,
    that is  (row * a - prow * g) / (c * a).  Position q, now the leaving
    variable's, holds c_r / a in the pivot row and -g * c_r / (c * a) in
    the others, or is deleted if an artificial leaves."""
    prow, c_r = t.rows[r], t.scale[r]
    a = prow[q]
    artificial = t.basis[r] >= len(t.sign)
    out = []
    for i, (row, c) in enumerate(zip(t.rows, t.scale)):
        if i == r:
            num, den = list(prow), a
            num[q] = c_r
        else:
            g = row[q]
            num, den = [e * a - b * g for e, b in zip(row, prow)], c * a
            num[q] = -g * c_r
        if artificial:
            del num[q]
        out.append((num, den))
    return out


def _same_rationals(t, want) -> bool:
    """Whether each row of t, its cells over its positive scale, is the
    rational row that want gives as numerators over a denominator."""
    return len(t.rows) == len(want) and all(
        s > 0 and len(row) == len(num) and all(e * den == n * s for e, n in zip(row, num))
        for row, s, (num, den) in zip(t.rows, t.scale, want)
    )


def test_every_exchange_leaves_the_rational_pivot(families, monkeypatch):
    """Each exchange step leaves exactly the rational rows that the
    textbook pivot makes of the rows before it, compared by
    cross-multiplication, on all three families: every pivot of the int
    core is the rational one, and a division in it that drops a remainder
    fails here."""
    exchange = simplex._exchange
    steps, wrong = Counter(), Counter()
    family = None

    def checking(t, r, q, cost):
        want = _rational_exchange(t, r, q)
        exchange(t, r, q, cost)
        steps[family] += 1
        wrong[family] += not _same_rationals(t, want)

    monkeypatch.setattr(simplex, "_exchange", checking)
    for family, problems in families.items():
        for p in problems:
            solve(p)
    assert not +wrong, (wrong, steps)
    assert min(steps.values()) > 900, steps


def test_exchange_divides_touched_rows_by_their_old_scale(families, monkeypatch):
    """No tableau row is made primitive: while the `cross_check` family
    solves, `gcd` runs at most once per exchange step (the cost row) and
    once per LP (its phase-2 pricing).  After every exchange, on all three
    families, each row the step touched has the pivot entry as its scale:
    the pivot row's new scale, which is the new basis determinant.  In the
    scaled family every LP starts with a determinant above 1, and most
    first pivot rows are stale."""
    calls = Counter()
    exchange, solve_standard, gcd = simplex._exchange, simplex._solve_standard, simplex.gcd

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(simplex, "_solve_standard", counting("lp", solve_standard))
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "gcd", counting("gcd", gcd))
        patch.setattr(simplex, "_exchange", counting("exchange", exchange))
        for p in families["cross_check"]:
            solve(p)
    assert calls["exchange"] > 900, calls
    assert calls["gcd"] <= calls["exchange"] + calls["lp"], calls

    firsts = {}  # per LP: the determinant, and whether the pivot row is stale, at its first step

    def checking(t, r, q, cost):
        firsts.setdefault(calls["lp"], (t.det, t.scale[r] != t.det))
        touched = [i for i, row in enumerate(t.rows) if row[q]]
        exchange(t, r, q, cost)
        calls["off scale"] += any(t.scale[i] != t.scale[r] for i in touched) or t.det != t.scale[r]

    monkeypatch.setattr(simplex, "_exchange", checking)
    for name in ("cross_check", "seeded", "scaled"):
        firsts.clear()
        for p in families[name]:
            solve(p)
    assert not calls["off scale"], calls
    pivoted = list(firsts.values())
    assert len(pivoted) > N_SEEDED // 2 and all(det > 1 for det, _ in pivoted), pivoted
    assert sum(stale for _, stale in pivoted) > len(pivoted) // 2, pivoted


def _recording_exchange(monkeypatch, record):
    """Patch `simplex._exchange` to call record(tableau, row, position)
    before each exchange step, then take it."""
    exchange = simplex._exchange

    def recording(t, r, q, cost):
        record(t, r, q)
        return exchange(t, r, q, cost)

    monkeypatch.setattr(simplex, "_exchange", recording)


def test_phase1_rows_are_no_wider_than_the_nonbasic_columns(monkeypatch):
    """Three equality rows without a unit column need three artificials;
    every row phase 1 exchanges on is no wider than the real nonbasic
    columns plus the rhs: no artificial has a cell, and the crash basis's
    columns are left out."""
    widths = []

    def record(t, r, q):
        n = len(t.sign)
        real_nonbasic = n - sum(b < n for b in t.basis)
        widths.extend((len(row), real_nonbasic + 1) for row in t.rows)

    _recording_exchange(monkeypatch, record)
    rows = [([1, 1, 1, 2], EQ, 5), ([1, -1, 2, 1], EQ, 3), ([2, 1, -1, 1], EQ, 3)]
    out = solve(lp(None, False, rows, [NONNEG] * 4))
    assert out.status is LpStatus.FEASIBLE
    assert widths and all(width <= bound for width, bound in widths), widths
    # One slack is a crash column, so the first exchange already sees 3 + 1 cells.
    rows = [([1, 1, 1], LE, 4), ([1, -1, 2], EQ, 3), ([2, 1, -1], EQ, 3)]
    widths.clear()
    out = solve(lp(None, False, rows, [NONNEG] * 3))
    assert out.status is LpStatus.FEASIBLE
    assert widths[0] == (4, 4) and all(width <= bound for width, bound in widths), widths


def test_feasibility_lp_returns_its_phase1_point(monkeypatch):
    """A duplicated equality row leaves artificials basic at zero after
    phase 1, one of them in a row with a nonzero real cell, where a
    drive-out exchange could take place.  A feasibility LP returns right
    there, with no further exchange, and its point is the artificial
    block's."""
    after_phase1 = []
    exchanges = []
    bland_min = simplex._bland_min

    def recording_min(t, cost, phase1=False):
        outcome = bland_min(t, cost, phase1)
        if phase1:
            n = len(t.sign)
            after_phase1.extend((row[-1], any(row[:-1])) for row, b in zip(t.rows, t.basis) if b >= n)
            exchanges.clear()
        return outcome

    monkeypatch.setattr(simplex, "_bland_min", recording_min)
    _recording_exchange(monkeypatch, lambda t, r, q: exchanges.append((r, q)))
    rows = [([1, 1, 1], EQ, 3), ([1, 1, 1], EQ, 3), ([0, 1, -1], EQ, 0)]
    problem = lp(None, False, rows, [FREE, NONNEG, NONNEG])
    out = solve(problem)
    assert sorted(after_phase1) == [(0, False), (0, True)]
    assert exchanges == []
    assert out.status is LpStatus.FEASIBLE
    assert out == solve_with_artificial_block(problem)
    assert out.point == (3, 0, 0)


def _recording_phases(monkeypatch):
    """Patch `simplex._bland_min` to note, as each phase starts, whether it
    is phase 1 and which rows hold an artificial basic variable."""
    phases = []
    bland_min = simplex._bland_min

    def recording(t, cost, phase1=False):
        phases.append((phase1, [b >= len(t.sign) for b in t.basis]))
        return bland_min(t, cost, phase1)

    monkeypatch.setattr(simplex, "_bland_min", recording)
    return phases


def _matches_oracle(problem, status):
    out = solve(problem)
    assert out == solve_with_artificial_block(problem)
    assert out.status is status, out
    return out


def test_lp_without_rows_matches_oracle():
    for maximize, signs, status in (
        (False, [NONNEG, NONNEG], LpStatus.OPTIMAL),
        (False, [NONNEG, FREE], LpStatus.UNBOUNDED),
        (True, [NONNEG, NONNEG], LpStatus.UNBOUNDED),
    ):
        out = _matches_oracle(lp([1, 2], maximize, [], signs), status)
        assert out.point == (0, 0)
    assert _matches_oracle(lp(None, False, [], [FREE]), LpStatus.FEASIBLE).point == (0,)


def test_lp_without_variables_matches_oracle():
    """Rows over no variables hold or fail on their rhs alone."""
    feasible = [([], EQ, 0), ([], LE, 1), ([], GE, -2)]
    _matches_oracle(lp(None, False, feasible, []), LpStatus.FEASIBLE)
    out = _matches_oracle(lp([], True, feasible, []), LpStatus.OPTIMAL)
    assert out.point == () and out.value == 0
    for row in (([], EQ, 1), ([], LE, -1), ([], GE, 3)):
        _matches_oracle(lp(None, False, [*feasible, row], []), LpStatus.INFEASIBLE)


def test_all_zero_row_matches_oracle():
    rows = [([0, 0, 0], EQ, 0), ([1, 2, -1], EQ, 2), ([0, 0, 0], LE, 0)]
    out = _matches_oracle(lp([1, 1, 1], False, rows, [NONNEG] * 3), LpStatus.OPTIMAL)
    assert out.value == 1
    _matches_oracle(lp(None, False, rows, [NONNEG] * 3), LpStatus.FEASIBLE)
    _matches_oracle(lp(None, False, [*rows, ([0, 0, 0], EQ, 1)], [NONNEG] * 3), LpStatus.INFEASIBLE)


def test_crash_basis_covering_every_row_skips_phase1(monkeypatch):
    """Each <= row with a nonnegative rhs is covered by its slack, so no row
    gets an artificial and only phase 2 runs."""
    phases = _recording_phases(monkeypatch)
    rows = [([1, 2], LE, 4), ([3, -1], LE, 2), ([-1, 1], LE, 1)]
    out = _matches_oracle(lp([1, 1], True, rows, [NONNEG, NONNEG]), LpStatus.OPTIMAL)
    assert out.point == (Fraction(8, 7), Fraction(10, 7)) and out.value == Fraction(18, 7)
    assert [phase1 for phase1, _ in phases] == [False]
    # A feasibility LP the crash basis covers is answered by that basis.
    phases.clear()
    _matches_oracle(lp(None, False, rows, [NONNEG, NONNEG]), LpStatus.FEASIBLE)
    assert phases == []


def test_every_row_artificial_matches_oracle(monkeypatch):
    """Equality rows with no unit column all start on an artificial."""
    phases = _recording_phases(monkeypatch)
    rows = [([1, 1, 2], EQ, 4), ([2, -1, 1], EQ, 1), ([1, 3, -1], EQ, 2)]
    _matches_oracle(lp([1, -1, 1], False, rows, [NONNEG] * 3), LpStatus.OPTIMAL)
    assert phases[0] == (True, [True, True, True])
    _matches_oracle(lp(None, False, rows, [FREE] * 3), LpStatus.FEASIBLE)
    _matches_oracle(lp(None, False, [*rows, ([1, 1, 1], EQ, -1)], [NONNEG] * 3), LpStatus.INFEASIBLE)


def test_artificial_left_in_a_zero_row_is_dropped(monkeypatch):
    """A duplicated equality row keeps an artificial basic at zero in a row
    that phase 1 has made all zero; the drive-out finds no real column to
    pivot on there and drops the row, so phase 2 runs on one row less."""
    phases = _recording_phases(monkeypatch)
    rows = [([1, 2, 1], EQ, 3), ([1, 2, 1], EQ, 3), ([0, 1, 1], LE, 2)]
    out = _matches_oracle(lp([-1, -1, -2], False, rows, [NONNEG] * 3), LpStatus.OPTIMAL)
    assert out.value == -5
    (phase1, artificial), (phase2, rows_in_phase2) = phases
    assert phase1 and not phase2
    assert artificial == [True, True, False]
    assert len(rows_in_phase2) == 2 and not any(rows_in_phase2)


def test_unbounded_ray_through_both_halves_of_a_free_variable():
    """min x s.t. x + y = 1 over free x, y: x's plus column is the crash
    basis, y's plus column replaces it, and then x's minus column enters
    with no bound, so the ray lowers x and raises y."""
    out = _matches_oracle(lp([1, 0], False, [([1, 1], EQ, 1)], [FREE, FREE]), LpStatus.UNBOUNDED)
    assert out.point == (0, 1)
    assert out.ray == (-1, 1)
    # The same LP maximized runs its ray the other way, through x's plus column.
    out = _matches_oracle(lp([1, 0], True, [([1, 1], EQ, 1)], [FREE, FREE]), LpStatus.UNBOUNDED)
    assert out.ray == (1, -1)


def _recording_flips(monkeypatch):
    """Patch `simplex._flip` to note each flip as (caller, variable, new
    sign): "bland" when `_bland_min` flips a column to enter it, "drive-out"
    when the phase-1 drive-out does."""
    flips = []
    flip = simplex._flip

    def recording(t, q, cost):
        flip(t, q, cost)
        variable = t.nonbasic[q]
        flips.append(("bland" if cost is not None else "drive-out", variable, t.sign[variable]))

    monkeypatch.setattr(simplex, "_flip", recording)
    return flips


def test_crash_basis_takes_a_negated_free_column(monkeypatch):
    """In  -x + y = 2,  y + z <= 3  over free x, x's column holds only -1, minus
    the row's scale: the split layout's crash sweep takes x- there, so the
    core takes x's column as -x, with no flip on the way."""
    flips = _recording_flips(monkeypatch)
    started = []
    bland_min = simplex._bland_min

    def recording(t, cost, phase1=False):
        started.append((phase1, list(t.basis), list(t.sign)))
        return bland_min(t, cost, phase1)

    monkeypatch.setattr(simplex, "_bland_min", recording)
    rows = [([-1, 1, 0], EQ, 2), ([0, 1, 1], LE, 3)]
    out = _matches_oracle(lp([0, 1, -1], False, rows, [FREE, NONNEG, NONNEG]), LpStatus.OPTIMAL)
    assert out.point == (-2, 0, 3) and out.value == -3
    assert started[0] == (False, [0, 2], [-1, 0, 0, 0])
    assert flips == []


def test_free_variable_enters_on_a_positive_reduced_cost(monkeypatch):
    """min x s.t. x + y = 1, y <= 3 over free x: y enters and takes x's
    place, after which x prices +1; its other half prices -1, so x enters
    as -x and lowers x to -2, where y's bound stops it."""
    flips = _recording_flips(monkeypatch)
    rows = [([1, 1], EQ, 1), ([0, 1], LE, 3)]
    out = _matches_oracle(lp([1, 0], False, rows, [FREE, NONNEG]), LpStatus.OPTIMAL)
    assert out.point == (-2, 3) and out.value == -2
    assert flips == [("bland", 0, -1)]


def test_drive_out_flips_a_free_column_back_to_plus_x(monkeypatch):
    """In  -x + y = 2,  -y = -2  over free x, the crash basis takes x as -x
    in the first row, and the second row starts on an artificial.  Phase 1
    enters y with a tie in the ratio test, which x leaves, as -x, so the
    artificial stays basic at zero with x's cell nonzero in its row.  The
    split layout drives it out on x+, the lesser index of the two halves,
    so the core flips x's column back to +x before it pivots."""
    flips = _recording_flips(monkeypatch)
    phases = _recording_phases(monkeypatch)
    rows = [([-1, 1], EQ, 2), ([0, -1], EQ, -2)]
    out = _matches_oracle(lp([2, 2], False, rows, [FREE, NONNEG]), LpStatus.OPTIMAL)
    assert out.point == (0, 2) and out.value == 4
    assert phases == [(True, [False, True]), (False, [False, False])]
    assert flips == [("drive-out", 0, 1)]

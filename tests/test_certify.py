"""The certificate checker and the cross-check that leans on it.

Every terminating MS, PR and PR-alt verdict carries the multipliers its LP
found; `certify.certificate_holds` must accept them, must reject any single
change that leaves the function unproved, and `cross_check` must answer
the two membership questions exactly as the feasibility queries do.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from pathlib import Path

import pytest

from linrank import certify, equivalence
from linrank.certify import certificate_holds
from linrank.constraints import loop_system, to_leq_matrix
from linrank.equivalence import (
    cross_check,
    random_loop,
    witness_in_ms_denormalized,
    witness_in_pr_set,
)
from linrank.ms import TerminationStatus, ms_analyze
from linrank.pr import pr_alt_analyze, pr_analyze
from tests.conftest import LOOPS_DIR, load_loop

TERMINATING = TerminationStatus.TERMINATING
N_SEEDED = 200
N_MUTATED = 30  # seeded loops whose certificates are also mutated


def _verdicts(loop) -> dict:
    verdicts = {"ms": ms_analyze(loop), "pr": pr_analyze(loop)}
    if loop.is_guarded:
        verdicts["pr-alt"] = pr_alt_analyze(loop)
    return verdicts


def _seeded_loops() -> list:
    """Loops of the `decide` sweep (n <= 6, m <= 14) with criterion 4's flag
    mix: every third forced to rank, every second guarded."""
    rng = random.Random(20261018)
    return [
        random_loop(
            rng, max_vars=6, max_rows=14, coeff_bound=5,
            force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
        )
        for i in range(N_SEEDED)
    ]


@pytest.fixture(scope="module")
def golden():
    loops = [load_loop(path.name) for path in sorted(LOOPS_DIR.glob("*.loop"))]
    return [(loop, _verdicts(loop)) for loop in loops]


@pytest.fixture(scope="module")
def seeded():
    return [(loop, _verdicts(loop)) for loop in _seeded_loops()]


def _terminating(corpus):
    """(matrix, method, witness) of every terminating verdict."""
    for loop, verdicts in corpus:
        m = to_leq_matrix(loop_system(loop), loop.space)
        for method, v in verdicts.items():
            if v.status is TERMINATING:
                yield m, method, v.witness


def test_golden_certificates_are_accepted(golden):
    found = [(method, certificate_holds(m, f)) for m, method, f in _terminating(golden)]
    # countdown, log2 (guarded) and log2_clp, each with an = row, for each
    # engine; pr-alt runs on the guarded one
    assert sorted(found) == [("ms", True)] * 3 + [("pr", True)] * 3 + [("pr-alt", True)]


def test_seeded_certificates_are_accepted(seeded):
    counts = {}
    for m, method, f in _terminating(seeded):
        assert certificate_holds(m, f), f"{method} certificate of {f} rejected"
        counts[method] = counts.get(method, 0) + 1
    # every forced loop terminates, so each engine has a real share
    assert counts["ms"] == counts["pr"] >= N_SEEDED // 3
    assert counts["pr-alt"] >= N_SEEDED // 6


def _mutants(m, f):
    """Single changes of f or its certificate, each of which leaves f
    unproved.  A certificate entry goes up and down by one (down past zero
    is negative) unless its (A A') row is zero.  mu_i goes up and down by
    one.  mu0 and delta enter only inequalities, so each moves by one past
    the certificate's slack, in the direction where f claims more."""
    y, z = f.certificate
    for which, vector in ((0, y), (1, z)):
        for r, value in enumerate(vector):
            if not any(m.a[r]) and not any(m.a_prime[r]):
                continue
            for step in (1, -1):
                changed = vector[:r] + (value + step,) + vector[r + 1 :]
                pair = (changed, z) if which == 0 else (y, changed)
                yield f"certificate[{which}][{r}] {step:+}", dataclasses.replace(
                    f, certificate=pair
                )
    for i in range(len(f.mu)):
        for step in (1, -1):
            mu = f.mu[:i] + (f.mu[i] + step,) + f.mu[i + 1 :]
            yield f"mu{i + 1} {step:+}", dataclasses.replace(f, mu=mu)
    yb = sum(a * b for a, b in zip(y, m.b))
    zb = sum(a * b for a, b in zip(z, m.b))
    offset_slack = f.mu0 - f.lower_bound - zb
    decrease_slack = -yb - f.delta
    yield "mu0", dataclasses.replace(f, mu0=f.mu0 - offset_slack - 1)
    yield "delta", dataclasses.replace(f, delta=f.delta + decrease_slack + 1)


def test_every_single_change_is_rejected(golden, seeded):
    corpus = golden + seeded[:N_MUTATED]
    tried = 0
    for m, method, f in _terminating(corpus):
        assert certificate_holds(m, f)
        for what, mutant in _mutants(m, f):
            assert not certificate_holds(m, mutant), f"{method}: {what} accepted"
            tried += 1
    assert tried > 1000


def _split_equalities(m):
    """Indices r of the <= row pairs (r, r + 1) that `to_leq_rows` made
    from one = row."""
    return [
        r
        for r in range(m.n_rows - 1)
        if m.a[r + 1] == tuple(-v for v in m.a[r])
        and m.a_prime[r + 1] == tuple(-v for v in m.a_prime[r])
        and m.b[r + 1] == -m.b[r]
    ]


def test_negative_multipliers_are_rejected(golden):
    """Lowering both halves of a split = row by the same amount leaves
    every sum the same; taking one of them below zero must be rejected.
    The golden loops have = rows; `random_loop` makes none."""
    tried = 0
    for m, method, f in _terminating(golden):
        for r in _split_equalities(m):
            for which in (0, 1):
                vector = f.certificate[which]
                shift = min(vector[r], vector[r + 1]) + 1
                changed = list(vector)
                changed[r] -= shift
                changed[r + 1] -= shift
                pair = list(f.certificate)
                pair[which] = tuple(changed)
                assert not certificate_holds(m, dataclasses.replace(f, certificate=tuple(pair)))
                tried += 1
    assert tried >= 10


def test_missing_certificate_is_not_accepted(golden):
    m, _, f = next(_terminating(golden))
    assert not certificate_holds(m, dataclasses.replace(f, certificate=None))


def test_certificate_is_out_of_equality_and_repr(golden):
    _, _, f = next(_terminating(golden))
    bare = dataclasses.replace(f, certificate=None)
    assert bare == f and hash(bare) == hash(f) and repr(bare) == repr(f)


def test_checker_imports_only_constraints_and_rationals():
    tree = ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            own.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("linrank"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("linrank") for alias in node.names)
    assert own == {"constraints", "rationals"}


def test_cross_check_answers_as_the_lps_do(seeded, monkeypatch):
    """cross_check's membership booleans are the feasibility queries'
    answers, and a witness without a certificate is reported, not
    answered some other way."""
    both = [
        (loop, verdicts)
        for loop, verdicts in seeded
        if verdicts["ms"].status is TERMINATING and verdicts["pr"].status is TERMINATING
    ]
    expected = []
    for loop, verdicts in both:
        m = to_leq_matrix(loop_system(loop), loop.space)
        expected.append(
            (
                witness_in_pr_set(m, verdicts["ms"].witness),
                witness_in_ms_denormalized(loop, verdicts["pr"].witness),
            )
        )
    assert all(pair == (True, True) for pair in expected)

    def answers():
        reports = [cross_check(loop, compare_spaces=False) for loop, _ in both]
        return [(r.ms_witness_in_pr_set, r.pr_witness_in_ms_set) for r in reports], reports

    found, reports = answers()
    assert found == expected
    assert all(r.all_consistent for r in reports)

    def stripped(engine):
        def run(loop):
            v = engine(loop)
            if v.witness is None:
                return v
            return dataclasses.replace(
                v, witness=dataclasses.replace(v.witness, certificate=None)
            )

        return run

    monkeypatch.setattr(equivalence, "ms_analyze", stripped(ms_analyze))
    monkeypatch.setattr(equivalence, "pr_analyze", stripped(pr_analyze))
    found, reports = answers()
    assert found == [(False, False)] * len(both)
    assert not any(r.all_consistent for r in reports)

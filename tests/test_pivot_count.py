"""The simplex's pivot rule, pinned by count.

Every exchange step the simplex takes on the engines' feasibility LPs is
fixed by Bland's rule and the ratio test's tie-break.  This test counts the
LPs and the exchange steps on a fixed `random_loop` stream, so any change
to those rules, or to the LPs the engines ask, shows as a changed count.
"""

from __future__ import annotations

import random

from linrank import simplex
from linrank.equivalence import random_loop
from linrank.ms import ms_analyze, ms_space
from linrank.pr import pr_analyze, pr_space
from linrank.simplex import find_point

N_LOOPS = 48
# (LPs, exchange steps) per route over the stream.  Every LP is a
# feasibility LP, answered after phase 1, so no step is a drive-out.  The
# space routes, ms_space and pr_space, run on the loops with at most 3
# variables only, as larger ones take seconds each in the projection;
# pr_space is the one whose entailments test strict rows, each one `_point`
# question with no strict row (the Motzkin face folded in).
EXPECTED = {
    "ms_analyze": (92, 2138),
    "pr_analyze": (48, 940),
    "ms_space": (685, 4358),
    "pr_space": (513, 5982),
}


def test_lp_and_exchange_counts_are_pinned(monkeypatch):
    counts = [0, 0]
    solve_standard, exchange = simplex._solve_standard, simplex._exchange

    def counting_solve(*args):
        counts[0] += 1
        return solve_standard(*args)

    def counting_exchange(*args):
        counts[1] += 1
        return exchange(*args)

    monkeypatch.setattr(simplex, "_solve_standard", counting_solve)
    monkeypatch.setattr(simplex, "_exchange", counting_exchange)
    totals = {name: (0, 0) for name in EXPECTED}
    rng = random.Random(20)
    try:
        for i in range(N_LOOPS):
            loop = random_loop(
                rng, max_vars=6, max_rows=14, coeff_bound=5,
                force_rank=(i % 3 == 0), guarded=(i % 2 == 0),
            )
            find_point.cache_clear()
            routes = [ms_analyze, pr_analyze] + ([ms_space, pr_space] if loop.space.n <= 3 else [])
            for route in routes:
                before = tuple(counts)
                route(loop)
                lps, steps = totals[route.__name__]
                totals[route.__name__] = (lps + counts[0] - before[0], steps + counts[1] - before[1])
    finally:
        find_point.cache_clear()
    assert totals == EXPECTED

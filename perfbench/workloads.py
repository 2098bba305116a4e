"""The three workloads: their fixed input sets, the op each input drives,
and the answer checks, none of which asks the engine under test.

Ops look up linrank functions through their modules at call time, so the
traced run's rebindings are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from linrank import cli, equivalence, projection
from linrank.constraints import loop_system
from linrank.ms import TerminationStatus

import oracle

TERMINATING = TerminationStatus.TERMINATING
UNKNOWN = TerminationStatus.UNKNOWN
TRIVIAL = TerminationStatus.TRIVIALLY_TERMINATING

# Op shapes (n, m) repeat the shapes of the first loops of a fixed stream,
# so every --seed, and every run however many ops it completes, has nearly
# the same shape mix; the seed draws only the coefficients.  Op cost depends
# mostly on shape.
SHAPE_SEED = 20101004


@dataclass(frozen=True)
class Op:
    n: int
    m: int
    payload: object
    force_rank: bool = False


def _rows_of(system):
    return [(row.coeffs, row.rel, row.const) for row in system.rows]


def _witness_text(verdict) -> str:
    f = verdict.witness
    if f is None:
        return verdict.status.value
    mu = ",".join(str(v) for v in f.mu)
    return f"{verdict.status.value}:{f.mu0};{mu};{f.delta};{f.lower_bound}"


def _point(f) -> tuple:
    return (f.mu0,) + tuple(f.mu)


class Generated:
    """Seeded `random_loop` families pushed through `cross_check`."""

    def __init__(self, params: dict, flags, compare_spaces: bool, cycle: int, size: int):
        self.params = params
        self.flags = flags
        self.compare_spaces = compare_spaces
        self.cycle = cycle  # a multiple of 6, the period of both flag patterns
        self.size = size
        self.captured = None

    def inputs(self, seed: int) -> list[Op]:
        """Op i gets the flags of i and the shape of loop i % cycle of the
        fixed stream; its loop is the seed stream's next unused loop of that
        shape and those flags."""
        ref, rng = random.Random(SHAPE_SEED), random.Random(seed)
        cycle = []
        for i in range(self.cycle):
            flags = self.flags(i)
            kwargs = dict(self.params, force_rank=flags[0], guarded=flags[1])
            cycle.append(flags + self._shape(equivalence.random_loop(ref, **kwargs)))
        unused: dict[tuple, list] = {}
        ops = []
        for i in range(self.size):
            flags = self.flags(i)
            kwargs = dict(self.params, force_rank=flags[0], guarded=flags[1])
            key = cycle[i % self.cycle]
            while not unused.get(key):
                loop = equivalence.random_loop(rng, **kwargs)
                unused.setdefault(flags + self._shape(loop), []).append(loop)
            ops.append(Op(key[2], key[3], unused[key].pop(0), flags[0]))
        return ops

    @staticmethod
    def _shape(loop) -> tuple[int, int]:
        return loop.space.n, loop_system(loop).n_rows

    def prepare(self) -> None:
        """Record the two spaces `cross_check` compares, for the checks.
        The call goes on through `projection`, where the traced run
        rebinds it."""

        def capturing(c1, c2):
            self.captured = (c1, c2)
            return projection.equivalent(c1, c2)

        equivalence.equivalent = capturing

    def run(self, op: Op):
        self.captured = None
        return equivalence.cross_check(op.payload, compare_spaces=self.compare_spaces)

    def check(self, op: Op, report) -> str | None:
        vm, vp = report.verdict_ms, report.verdict_pr
        if TRIVIAL in (vm.status, vp.status):
            return "satisfiable loop judged trivially terminating"
        if not report.agree:
            return f"verdicts differ: ms={vm.status.value} pr={vp.status.value}"
        if op.force_rank and vm.status is not TERMINATING:
            return "loop with a planted ranking function not proved terminating"
        if vm.status is TERMINATING and not (
            report.ms_witness_in_pr_set and report.pr_witness_in_ms_set
        ):
            return "witness cross-membership failed"
        if not self.compare_spaces:
            return None
        if report.spaces_equivalent is not True or self.captured is None:
            return "scaled ms space differs from pr space"
        ms_rows, pr_rows = (_rows_of(c) for c in self.captured)
        if vm.status is TERMINATING:
            if not oracle.contains(pr_rows, _point(vm.witness)):
                return "ms witness outside the pr space"
            if not oracle.contains(ms_rows, _point(vp.witness)):
                return "pr witness outside the scaled ms space"
        elif not oracle.is_empty(pr_rows, op.n + 1):
            return "unknown verdict with a non-empty ranking space"
        return None

    def digest_text(self, report) -> str:
        return "|".join(
            (
                _witness_text(report.verdict_ms),
                _witness_text(report.verdict_pr),
                str(report.ms_witness_in_pr_set),
                str(report.pr_witness_in_ms_set),
                str(report.spaces_equivalent),
            )
        )

    @staticmethod
    def verdict(op: Op, report) -> str:
        return report.verdict_ms.status.value


# --- golden corpus ----------------------------------------------------------
#
# Loop polyhedra over (x, x') and ranking spaces over (mu0, mu), written out
# by hand from the loop files and the paper's worked examples.

@dataclass(frozen=True)
class Golden:
    n: int
    status: TerminationStatus
    body: list
    space: list | None  # None: the loop body is unsatisfiable
    guarded: bool = False


def _row(coeffs, rel, const):
    return tuple(Fraction(c) for c in coeffs), rel, Fraction(const)


GOLDEN = {
    "countdown.loop": Golden(
        1, TERMINATING,
        [_row((1, 0), ">=", 0), _row((-1, 1), "=", -1)],
        [_row((0, 1), ">=", 1), _row((1, 0), ">=", 0)],
    ),
    "diverge.loop": Golden(
        1, UNKNOWN,
        [_row((1, 0), ">=", 0), _row((-1, 1), "=", 1)],
        [_row((0, 1), "<=", -1), _row((0, 1), ">=", 0)],  # empty
    ),
    "log2.loop": Golden(  # criterion 1
        2, TERMINATING,
        [_row((1, 0, 0, 0), ">=", 2), _row((-1, 0, 2, 0), "<=", 0),
         _row((-1, 0, 2, 0), ">=", -1), _row((0, -1, 0, 1), "=", 1),
         _row((0, 0, 0, 1), ">=", 1)],
        [_row((0, 1, -1), ">=", 1), _row((0, 0, 1), ">=", 0), _row((1, 2, 0), ">=", 0)],
        guarded=True,
    ),
    "log2_clp.loop": Golden(
        2, TERMINATING,
        [_row((1, 0, 0, 0), ">=", 2), _row((-1, 0, 2, 0), ">=", -1),
         _row((-1, 0, 2, 0), "<=", 0), _row((0, 1, 0, -1), "=", 1)],
        [_row((0, 1, 0), ">=", 1), _row((0, 0, 1), "=", 0), _row((1, 2, 0), ">=", 0)],
    ),
    "unsat.loop": Golden(
        1, TRIVIAL,
        [_row((1, 0), ">=", 1), _row((1, 0), "<=", 0), _row((-1, 1), "=", 0)],
        None,
        guarded=True,
    ),
}

# Spaces of the other engines, by (loop, method).  svg: criterion 2, over
# (mu1, mu2).  pr-alt: the positive-scaling closure of criterion 1's space,
# as the multiplier methods return it.
OTHER_SPACES = {
    ("log2_clp.loop", "svg"): [_row((1, 1), ">=", 1), _row((1, 0), ">=", 0), _row((0, 1), ">=", 0)],
    ("log2.loop", "pr-alt"): [_row((0, 1, -1), ">", 0), _row((0, 0, 1), ">=", 0), _row((1, 2, 0), ">=", 0)],
    ("unsat.loop", "pr-alt"): None,
}


def _commands() -> list[tuple]:
    out = []
    for name, golden in GOLDEN.items():
        methods = ["ms", "pr", "svg"] + (["pr-alt"] if golden.guarded else [])
        for fmt in ("text", "json"):
            out.append(("check", name, "both", fmt))
            out.extend(("rank", name, method, fmt) for method in methods)
            out.append(("space", name, "both", fmt))
            out.append(("conditional", name, "both", fmt))
            out.append(("compare", name, None, fmt))
            out.extend(("space", name, method, fmt) for loop, method in OTHER_SPACES if loop == name)
    return out


def _argv(kind, name, method, fmt) -> list[str]:
    path = str(Path("loops") / name)
    if kind == "compare":
        return ["compare", path, f"--format={fmt}"]
    argv = ["space" if kind == "conditional" else kind, path, f"--method={method}", f"--format={fmt}"]
    if kind == "conditional":
        argv.append("--conditional")
    return argv


def _parse_space(payload) -> list:
    return [
        (tuple(Fraction(c) for c in row["coeffs"]), row["rel"], Fraction(row["const"]))
        for row in payload["constraints"]
    ]


def _ranking_error(golden: Golden, f: dict, svg: bool) -> str | None:
    """f decreases by delta > 0 and stays >= 0 on the loop polyhedron."""
    n = golden.n
    mu0, delta = Fraction(f["mu0"]), Fraction(f["delta"])
    mu = tuple(Fraction(v) for v in f["mu"])
    body = list(golden.body)
    if svg:
        body += [_row(tuple(int(j == k) for j in range(2 * n)), ">=", 0) for k in range(2 * n)]
    if delta <= 0:
        return "non-positive decrease"
    if not oracle.is_empty(body + [(mu + tuple(-v for v in mu), "<", delta)], 2 * n):
        return "ranking function does not decrease by delta"
    if not oracle.is_empty(body + [(mu + (Fraction(0),) * n, "<", -mu0)], 2 * n):
        return "ranking function is not bounded below by 0"
    return None


def _space_error(golden: Golden, rows: list, expected: list | None = None) -> str | None:
    expected = golden.space if expected is None else expected
    dims = len(rows[0][0]) if rows else len(expected[0][0])
    if golden.status is UNKNOWN:
        return None if oracle.is_empty(rows, dims) else "space should be empty"
    return None if oracle.equal(rows, expected, dims) else "space differs from the expected one"


class Cli:
    """In-process `cli.main` commands over the golden `loops/` corpus."""

    def __init__(self, cycles: int):
        self.cycles = cycles

    def inputs(self, seed: int) -> list[Op]:
        missing = [name for name in GOLDEN if not (Path("loops") / name).is_file()]
        if missing:
            raise FileNotFoundError(f"golden loops missing: {missing}")
        rng = random.Random(seed)
        base = _commands()
        ops = []
        for _ in range(self.cycles):
            order = list(base)
            rng.shuffle(order)
            for spec in order:
                golden = GOLDEN[spec[1]]
                ops.append(Op(golden.n, len(golden.body), spec))
        return ops

    def prepare(self) -> None:
        pass

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(_argv(*op.payload), out=out)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> str | None:
        kind, name, method, fmt = op.payload
        golden = GOLDEN[name]
        code, text, err = result
        status = golden.status.value
        want_code = 10 if golden.status is UNKNOWN and kind in ("check", "rank") else 0
        if code != want_code or err:
            return f"exit code {code} (want {want_code}), stderr {err.strip()!r}"
        if fmt == "text":
            return self._check_text(kind, golden, text)
        payload = json.loads(text)
        if kind == "compare":
            return self._check_compare(golden, payload)
        if golden.status is TRIVIAL or kind in ("check", "rank"):
            if payload["status"] != status:
                return f"status {payload['status']} (want {status})"
            if kind == "rank" and golden.status is TERMINATING:
                return _ranking_error(golden, payload["ranking_function"], method == "svg")
            return None
        if payload["status"] != "ok":
            return f"space status {payload['status']}"
        if kind == "conditional":
            rows = _parse_space(payload["decreasing_space"]) + _parse_space(payload["bounded_space"])
            return _space_error(golden, rows)
        if method != "both":
            return _space_error(golden, _parse_space(payload["space"]), OTHER_SPACES[name, method])
        if payload.get("engines_agree") is not True:
            return "engines disagree on the space"
        return _space_error(golden, _parse_space(payload["space"]))

    @staticmethod
    def _check_text(kind, golden: Golden, text: str) -> str | None:
        lines = text.splitlines()
        status = golden.status.value
        if kind in ("check", "rank"):
            want = status
        elif kind == "compare":
            want = f"verdict_ms: {status}"
        elif golden.status is TRIVIAL:
            want = "trivially-terminating: loop body is unsatisfiable"
        else:
            want = "decreasing candidates:" if kind == "conditional" else "ranking-function space:"
        if not lines or lines[0] != want:
            return f"first line {lines[:1]} (want {want!r})"
        if kind == "compare" and lines[-1] != "consistent: True":
            return "compare report is not consistent"
        return None

    @staticmethod
    def _check_compare(golden: Golden, payload: dict) -> str | None:
        status = golden.status.value
        terminating = golden.status is TERMINATING
        want = {
            "verdict_ms": status,
            "verdict_pr": status,
            "agree": True,
            "ms_witness_in_pr_set": True if terminating else None,
            "pr_witness_in_ms_set": True if terminating else None,
            "spaces_equivalent": None if golden.status is TRIVIAL else True,
            "consistent": True,
        }
        wrong = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
        return f"compare report {wrong}" if wrong else None

    @staticmethod
    def digest_text(result) -> str:
        code, text, _ = result
        return f"{code}\n{text}"

    @staticmethod
    def verdict(op: Op, result) -> str:
        return GOLDEN[op.payload[1]].status.value


def workload(name: str):
    if name == "decide":
        # Criterion 4's op, widened to the n <= 6, m <= 14 sweep.
        return Generated(
            dict(max_vars=6, max_rows=14, coeff_bound=5),
            lambda i: (i % 3 == 0, i % 2 == 0),
            compare_spaces=False,
            cycle=24,
            size=144,
        )
    if name == "space":
        # What `linrank compare` does: verdicts, witnesses and exact spaces.
        return Generated(
            dict(max_vars=4, max_rows=8, coeff_bound=5),
            lambda i: (i % 2 == 0, i % 3 == 0),
            compare_spaces=True,
            cycle=12,
            size=120,
        )
    if name == "cli":
        return Cli(cycles=40)
    raise ValueError(f"unknown workload {name!r}")

"""Command-line front end.

Subcommands mirror the four library functionalities: `check` (Boolean
termination test), `rank` (test plus one witness), `space` (all ranking
functions; `--conditional` adds the decreasing/bounded candidate spaces),
and `compare` (cross-validation report of the two engines).  `bench` runs
both engines over a directory of loop files and emits CSV, and `selftest`
cross-checks them on seeded random loops.

Exit codes: 0 terminating or trivially terminating, 10 unknown (`check`
and `rank` only: `space` and `compare` exit 0 on an unknown loop), 2 input
errors, 3 method disagreement (with --method=both) or an inconsistent
`compare` report; `selftest` exits 1 on any failure, and every command
exits 1 when its stdout is closed before it has written everything.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import cache
from pathlib import Path

from .constraints import ConstraintError, LoopModel, loop_system
from .equivalence import cone_extend, cross_check, random_loop
from .loopfile import LoopParseError, parse_loop
from .ms import (
    RankingFunction,
    RankingSpace,
    TerminationStatus,
    UnsatisfiableLoopError,
    Verdict,
    ms_analyze,
    ms_bounded_space,
    ms_decreasing_space,
    ms_space,
    svg_analyze,
    svg_space,
)
from .pr import pr_alt_analyze, pr_alt_space, pr_analyze, pr_space
from .projection import equivalent
from .rationals import format_rational
from .simplex import find_point, satisfiable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREE = 3
EXIT_UNKNOWN = 10


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_loop(path: str | Path) -> LoopModel:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_loop(text)
    except LoopParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _guarded(loop: LoopModel) -> LoopModel:
    if not loop.is_guarded:
        raise CliError("--method=pr-alt needs a guarded loop file")
    return loop


def _both_verdict(loop: LoopModel) -> Verdict:
    """The ms verdict, after checking that pr reaches the same one."""
    vm = ms_analyze(loop)
    vp = pr_analyze(loop)
    if vm.status != vp.status:
        raise CliError(
            f"engines disagree: ms={vm.status.value} pr={vp.status.value}",
            EXIT_DISAGREE,
        )
    return vm


def _both_space(loop: LoopModel) -> RankingSpace:
    """The ms space, after checking that its scaling closure is pr's space."""
    ms = ms_space(loop)
    if not equivalent(cone_extend(ms).constraints, pr_space(loop).constraints):
        raise CliError("engines disagree: scaled ms space differs from pr space", EXIT_DISAGREE)
    return ms


# Each method's (verdict, space) engines.  The lambdas look the engines up in
# this module's globals at call time, so a rebound global (a test's stub, the
# perfbench tracer's wrapper) reaches every entry.
METHODS = {
    "ms": (lambda loop: ms_analyze(loop), lambda loop: ms_space(loop)),
    "pr": (lambda loop: pr_analyze(loop), lambda loop: pr_space(loop)),
    "pr-alt": (
        lambda loop: pr_alt_analyze(_guarded(loop)),
        lambda loop: pr_alt_space(_guarded(loop)),
    ),
    "svg": (
        lambda loop: svg_analyze(loop_system(loop)),
        lambda loop: svg_space(loop_system(loop)),
    ),
    "both": (_both_verdict, _both_space),
}


def _rf_json(f: RankingFunction) -> dict:
    return {
        "mu0": format_rational(f.mu0),
        "mu": [format_rational(v) for v in f.mu],
        "delta": format_rational(f.delta),
    }


def _space_json(s: RankingSpace) -> dict:
    return {
        "params": list(s.params),
        "constraints": [
            {
                "coeffs": [format_rational(c) for c in row.coeffs],
                "rel": row.rel,
                "const": format_rational(row.const),
            }
            for row in s.constraints.rows
        ],
    }


def _emit(payload: dict, out) -> None:
    print(json.dumps(payload, indent=2), file=out)


def _exit_for(verdict: Verdict) -> int:
    return EXIT_UNKNOWN if verdict.status is TerminationStatus.UNKNOWN else EXIT_OK


def cmd_check(args, out) -> int:
    loop = _load_loop(args.file)
    verdict = METHODS[args.method][0](loop)
    if args.format == "json":
        _emit({"status": verdict.status.value, "method": args.method}, out)
    else:
        print(verdict.status.value, file=out)
    return _exit_for(verdict)


def cmd_rank(args, out) -> int:
    loop = _load_loop(args.file)
    verdict = METHODS[args.method][0](loop)
    payload: dict = {"status": verdict.status.value, "method": args.method}
    if verdict.witness is not None:
        payload["ranking_function"] = _rf_json(verdict.witness)
    if args.format == "json":
        _emit(payload, out)
    else:
        print(verdict.status.value, file=out)
        if verdict.witness is not None:
            f = verdict.witness
            coeffs = ", ".join(format_rational(v) for v in f.mu)
            print(f"f(x) = {format_rational(f.mu0)} + <{coeffs}> . x", file=out)
            print(f"decrease per iteration >= {format_rational(f.delta)}", file=out)
    return _exit_for(verdict)


def _print_space(title: str, s: RankingSpace, out) -> None:
    print(title, file=out)
    if s.is_empty():
        print("  empty space", file=out)
        return
    for line in s.constraints.render():
        print(f"  {line}", file=out)


def cmd_space(args, out) -> int:
    loop = _load_loop(args.file)
    if args.conditional and args.method not in ("ms", "both"):
        raise CliError("--conditional requires the ms method")
    method = "ms" if args.conditional else args.method  # --conditional runs only MS
    try:
        if args.conditional:
            spaces = {
                "decreasing_space": ("decreasing candidates:", ms_decreasing_space(loop)),
                "bounded_space": ("bounded candidates:", ms_bounded_space(loop)),
            }
        else:
            spaces = {"space": ("ranking-function space:", METHODS[method][1](loop))}
    except UnsatisfiableLoopError:  # for svg: no point over Q+
        if args.format == "json":
            _emit({"status": "trivially-terminating", "method": method}, out)
        elif method == "svg" and satisfiable(loop_system(loop)):
            print("trivially-terminating: no nonnegative point satisfies the loop body", file=out)
        else:
            print("trivially-terminating: loop body is unsatisfiable", file=out)
        return EXIT_OK

    if args.format == "json":
        payload = {"status": "ok", "method": method}
        payload.update((key, _space_json(space)) for key, (_, space) in spaces.items())
        if method == "both":
            payload["engines_agree"] = True
        _emit(payload, out)
    else:
        for title, space in spaces.values():
            _print_space(title, space, out)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    loop = _load_loop(args.file)
    report = cross_check(loop)
    payload = {
        "verdict_ms": report.verdict_ms.status.value,
        "verdict_pr": report.verdict_pr.status.value,
        "agree": report.agree,
        "ms_witness_in_pr_set": report.ms_witness_in_pr_set,
        "pr_witness_in_ms_set": report.pr_witness_in_ms_set,
        "spaces_equivalent": report.spaces_equivalent,
        "consistent": report.all_consistent,
    }
    if args.format == "json":
        _emit(payload, out)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}", file=out)
    return EXIT_OK if report.all_consistent else EXIT_DISAGREE


def cmd_bench(args, out) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    print("file,n,m,verdict_ms,verdict_pr,agree,us_ms,us_pr", file=out)
    for path in sorted(directory.glob("*.loop")):
        try:
            loop = _load_loop(path)
        except CliError:
            print(f"{path.name},,,parse-error,parse-error,,,", file=out)
            continue
        c = loop_system(loop)
        find_point.cache_clear()
        t0 = time.perf_counter()
        vm = ms_analyze(loop)
        us_ms = int((time.perf_counter() - t0) * 1e6)
        find_point.cache_clear()
        t0 = time.perf_counter()
        vp = pr_analyze(loop)
        us_pr = int((time.perf_counter() - t0) * 1e6)
        agree = vm.status == vp.status
        print(
            f"{path.name},{loop.space.n},{c.n_rows},"
            f"{vm.status.value},{vp.status.value},{str(agree).lower()},{us_ms},{us_pr}",
            file=out,
        )
    return EXIT_OK


def cmd_selftest(args, out) -> int:
    rng = random.Random(args.seed)
    failures = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        loop = random_loop(
            rng, force_rank=(i % 3 == 0), guarded=(i % 2 == 0)
        )
        report = cross_check(loop, compare_spaces=(i % 5 == 0))
        if not report.all_consistent:
            failures += 1
            print(f"inconsistency on loop {i}: {report}", file=sys.stderr)
    elapsed = time.perf_counter() - t0
    print(f"selftest: {args.count} loops, {failures} failures, {elapsed:.1f}s", file=out)
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrank",
        description="Termination analysis of linear loops by exact "
        "ranking-function synthesis.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
    )

    def add_common(p, with_method=True):
        p.add_argument("file", help="loop file")
        if with_method:
            p.add_argument("--method", choices=METHODS, default="both")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="Boolean termination test")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_rank = sub.add_parser("rank", help="termination test plus one witness")
    add_common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_space = sub.add_parser("space", help="space of all ranking functions")
    add_common(p_space)
    p_space.add_argument(
        "--conditional",
        action="store_true",
        help="print the decreasing and bounded candidate spaces (ms only)",
    )
    p_space.set_defaults(func=cmd_space)

    p_cmp = sub.add_parser("compare", help="cross-validate the two engines")
    add_common(p_cmp, with_method=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="run both engines over a directory")
    p_bench.add_argument("dir", help="directory of .loop files")
    p_bench.set_defaults(func=cmd_bench)

    def count(text: str) -> int:  # argparse names this type in its errors
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {text}")
        return int(text)

    p_self = sub.add_parser("selftest", help="cross-check both engines on random loops")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--count", type=count, default=50)
    p_self.set_defaults(func=cmd_selftest)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parse_args keeps no state
    in the parser, and the commands look their engines up at call time."""
    return build_parser()


def main(argv=None, out=None) -> int:
    if out is None:  # the real stdout, which a reader may close first
        try:
            try:
                return main(argv, sys.stdout)
            finally:
                sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        except BrokenPipeError:
            # As the Python docs advise: point stdout at devnull, so that the
            # interpreter's final flush stays quiet; exit 1, no traceback.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConstraintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

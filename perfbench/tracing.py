"""Spans around linrank's public functions, recorded from outside the package.

Modules import each other's functions by name (`from .simplex import
find_point`), so a function is rebound in every linrank module that holds
it, not only where it is defined.  Spans carry op id, name, parent, start
and end; they stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TARGETS = {
    "simplex": ("solve", "find_point"),
    "projection": ("remove_redundant", "project", "eliminate", "equivalent"),
    "ms": ("ms_analyze", "ms_space", "svg_space", "build_ms_systems"),
    "pr": ("pr_analyze", "pr_space", "pr_alt_space", "build_pr_system"),
    "equivalence": ("cone_extend", "witness_in_pr_set", "witness_in_ms_denormalized"),
    "constraints": ("loop_system", "to_leq_matrix", "to_geq_matrix"),
    "loopfile": ("parse_loop",),
    "cli": ("main",),
}

# Row count above which `project` prunes between eliminations
# (projection._FULL_PRUNE_THRESHOLD): the input property ROADMAP item 2 targets.
FULL_PRUNE_THRESHOLD = 40


def _coeff_bits(system) -> int:
    return max(
        (
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for row in system.rows
            for v in row.coeffs + (row.const,)
        ),
        default=0,
    )


PROJECTIONS = ("projection.remove_redundant", "projection.project", "projection.eliminate")

# What a span records about its call: from the arguments on entry, and from
# the result on return (a call cut short by the time limit has no result).
ON_ENTRY = {
    "simplex.solve": lambda args: (len(args[0].rows), args[0].n_vars),
    "loopfile.parse_loop": lambda args: len(args[0].encode()),
    **{name: (lambda args: args[0].n_rows) for name in PROJECTIONS},
}
ON_RETURN = {name: (lambda result: (result.n_rows, _coeff_bits(result))) for name in PROJECTIONS}

# span layout
OP, NAME, PARENT, START, END, ENTRY, RETURN = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "linrank" or name.startswith("linrank.")
        ]
        for home_name, functions in TARGETS.items():
            home = importlib.import_module(f"linrank.{home_name}")
            for function in functions:
                name = f"{home_name}.{function}"
                original = getattr(home, function)
                traced = self._wrap(name, original, ON_ENTRY.get(name), ON_RETURN.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, traced)

    def abandon(self, end: float) -> None:
        """Close the spans an op left open when the time limit stopped it."""
        for span in reversed(self.spans):
            if span[OP] != self.op:
                break
            if span[END] is None:
                span[END] = end
        self._stack.clear()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn, on_entry, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            entry = on_entry(args) if on_entry is not None else None
            span = [self.op, name, stack[-1] if stack else -1, clock(), None, entry, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                span[RETURN] = on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def coverage_errors(spans, records) -> list[tuple[int, str]]:
    """Each op's find_point span count must equal its memo hits + misses,
    and every span must open and close inside its op.  Ops stopped by the
    time limit are not checked: the stop may fall inside the tracer's own
    bookkeeping."""
    timed_out = {r.index for r in records if r.outcome == "timeout"}
    records = [r for r in records if r.outcome != "timeout"]
    bounds = {r.index: (r.start, r.end) for r in records}
    fp_spans = {r.index: 0 for r in records}
    errors = []
    for span in spans:
        op = span[OP]
        if op in timed_out:
            continue
        if op not in bounds:
            errors.append((op, f"span {span[NAME]} outside any op"))
            continue
        start, end = bounds[op]
        if span[END] is None or span[START] < start or span[END] > end:
            errors.append((op, f"span {span[NAME]} not closed inside its op"))
        if span[NAME] == "simplex.find_point":
            fp_spans[op] += 1
    for r in records:
        if fp_spans[r.index] != r.memo_calls:
            errors.append(
                (r.index, f"{fp_spans[r.index]} find_point spans, {r.memo_calls} memo lookups")
            )
    return errors


def _nested_in_same(spans, i) -> bool:
    name, parent = spans[i][NAME], spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, records) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the traced ops: (value, unit) by metric name."""
    n = len(spans)
    child = [0.0] * n
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    names = [f"{home}.{fn}" for home, fns in TARGETS.items() for fn in fns]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    incl_s = dict.fromkeys(names, 0.0)
    rr_ancestor = [-1] * n
    rr_lp_calls = 0
    rr_over_ops = set()
    top_level = 0.0
    solve_rows = solve_cols = elim_rows = rr_max_in = bits = parse_bytes = 0
    rows = {"projection.remove_redundant": [0, 0], "projection.project": [0, 0]}
    for i, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        duration = span[END] - span[START]
        calls[name] += 1
        self_s[name] += duration - child[i]
        if parent >= 0:
            rr_ancestor[i] = rr_ancestor[parent]
        else:
            top_level += duration
        if not _nested_in_same(spans, i):
            incl_s[name] += duration
        entry, returned = span[ENTRY], span[RETURN]
        if name == "simplex.solve":
            solve_rows, solve_cols = max(solve_rows, entry[0]), max(solve_cols, entry[1])
        elif name == "loopfile.parse_loop":
            parse_bytes += entry
        elif name == "simplex.find_point" and rr_ancestor[i] >= 0:
            rr_lp_calls += 1
        elif name in PROJECTIONS:
            if name == "projection.remove_redundant":
                rr_ancestor[i] = i
                rr_max_in = max(rr_max_in, entry)
                if entry > FULL_PRUNE_THRESHOLD:
                    rr_over_ops.add(span[OP])
            if returned is not None:
                bits = max(bits, returned[1])
                if name == "projection.eliminate":
                    elim_rows = max(elim_rows, returned[0])
                else:
                    rows[name][0] += entry
                    rows[name][1] += returned[0]

    op_s = sum(r.end - r.start for r in records)
    memo_hits = sum(r.memo_hits for r in records)
    fp_calls = calls["simplex.find_point"]
    rr_in, rr_out = rows["projection.remove_redundant"]
    parse_s = self_s["loopfile.parse_loop"]
    metrics = {
        "simplex.solve.calls": (calls["simplex.solve"], "count"),
        "simplex.solve.self_s": (self_s["simplex.solve"], "s"),
        "simplex.solve.max_rows": (solve_rows, "rows"),
        "simplex.solve.max_cols": (solve_cols, "cols"),
        "simplex.find_point.calls": (fp_calls, "count"),
        "simplex.find_point.self_s": (self_s["simplex.find_point"], "s"),
        "simplex.find_point.memo_hits": (memo_hits, "count"),
        "simplex.find_point.hit_ratio": (memo_hits / fp_calls if fp_calls else 0.0, "ratio"),
        "projection.remove_redundant.calls": (calls["projection.remove_redundant"], "count"),
        "projection.remove_redundant.self_s": (self_s["projection.remove_redundant"], "s"),
        "projection.remove_redundant.incl_s": (incl_s["projection.remove_redundant"], "s"),
        "projection.remove_redundant.rows_in": (rr_in, "rows"),
        "projection.remove_redundant.rows_out": (rr_out, "rows"),
        "projection.remove_redundant.max_rows_in": (rr_max_in, "rows"),
        "projection.remove_redundant.lp_calls": (rr_lp_calls, "count"),
        "projection.remove_redundant.rows_dropped_per_lp": (
            (rr_in - rr_out) / rr_lp_calls if rr_lp_calls else 0.0,
            "rows/lp",
        ),
        "projection.project.calls": (calls["projection.project"], "count"),
        "projection.project.self_s": (self_s["projection.project"], "s"),
        "projection.project.rows_in": (rows["projection.project"][0], "rows"),
        "projection.project.rows_out": (rows["projection.project"][1], "rows"),
        "projection.eliminate.calls": (calls["projection.eliminate"], "count"),
        "projection.eliminate.self_s": (self_s["projection.eliminate"], "s"),
        "projection.eliminate.max_rows_out": (elim_rows, "rows"),
        "projection.equivalent.calls": (calls["projection.equivalent"], "count"),
        "projection.equivalent.self_s": (self_s["projection.equivalent"], "s"),
        "projection.max_coeff_bits": (bits, "bits"),
    }
    for name in (
        "ms.ms_analyze", "ms.ms_space", "ms.svg_space",
        "pr.pr_analyze", "pr.pr_space", "pr.pr_alt_space",
        "equivalence.cone_extend", "equivalence.witness_in_pr_set",
        "equivalence.witness_in_ms_denormalized",
    ):
        metrics[f"{name}.incl_s"] = (incl_s[name], "s")
    for name in (
        "ms.build_ms_systems", "pr.build_pr_system", "constraints.loop_system",
        "constraints.to_leq_matrix", "constraints.to_geq_matrix",
    ):
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics.update(
        {
            "loopfile.parse_loop.calls": (calls["loopfile.parse_loop"], "count"),
            "loopfile.parse_loop.self_s": (parse_s, "s"),
            "loopfile.parse_loop.bytes_per_s": (parse_bytes / parse_s if parse_s else 0.0, "B/s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "trace.ops": (len(records), "count"),
            "trace.op_s": (op_s, "s"),
            "trace.spans": (n, "count"),
            "trace.untraced_share": (1.0 - top_level / op_s if op_s else 0.0, "ratio"),
            "input.rr_over_40_share": (
                len(rr_over_ops) / len(records) if records else 0.0,
                "ratio",
            ),
        }
    )
    return metrics

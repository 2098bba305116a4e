"""linrank benchmark: one workload in one closed loop, one op after another.

    python3 perfbench/run.py --workload {decide,space,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports linrank from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones (see perfbench/README.md).  Details of each run (per-op digests,
input properties, failures, spans) go to perfbench/out/.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_REPEATS = 3
TAIL_PERCENTILE = 80
DIGEST_OPS = 20
# Verifier time limit per op: an op still running after LIMIT_S (at
# reference speed) is stopped and counts as undecided, not as failed.
LIMIT_S = 1.0
# Times are reported at the machine speed where _reference_kernel takes
# REF_KERNEL_S (about a shared 2-core Xeon under its usual load).
REF_KERNEL_S = 0.3e-3
KERNEL_EVERY_S = 0.05
KERNEL_WINDOW = 20
# Share of a traced run spent replaying its first ops untraced, for trace.overhead.
REPLAY_SHARE = 0.2


@dataclass
class Record:
    index: int
    start: float
    end: float
    outcome: str  # ok | failed | timeout
    error: str | None
    digest: str | None
    verdict: str | None
    memo_hits: int
    memo_calls: int

    @property
    def latency(self) -> float:
        return self.end - self.start


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_program():
    src = ROOT / "src"
    if not (src / "linrank" / "__init__.py").is_file():
        sys.exit("perfbench: no linrank sources in ./src (run from the repository root)")
    sys.path[:0] = [str(src), str(HERE)]
    import linrank

    if Path(linrank.__file__).resolve().parent != (src / "linrank").resolve():
        sys.exit(f"perfbench: imported linrank from {linrank.__file__}, not ./src")


def measure_setup(args) -> float:
    """Median time of fresh processes that import linrank and build the
    workload's inputs, as a `linrank` process would before its first op;
    each is scaled by the reference kernel's speed right after it."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--seconds", "0",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        speed = Speedometer()
        times.append(elapsed * speed.run_factor())
    return statistics.median(times)


def run_op(wl, op, memo, index, limit_s) -> Record:
    memo.cache_clear()
    error = digest = verdict = end = None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        try:
            result = wl.run(op)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)  # no alarm after this
        outcome = "ok"
    except OpTimeout:
        outcome = "timeout"
    except Exception as exc:  # a raising op is a failed op; the run goes on
        outcome, error = "failed", f"{type(exc).__name__}: {exc}"
    end = end or time.perf_counter()
    info = memo.cache_info()
    if outcome == "ok":
        try:
            error = wl.check(op, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            outcome = "failed"
        digest = hashlib.sha256(wl.digest_text(result).encode()).hexdigest()[:16]
        verdict = wl.verdict(op, result)
    return Record(index, start, end, outcome, error, digest, verdict,
                  info.hits, info.hits + info.misses)


def _reference_kernel() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
    return time.perf_counter() - t0


class Speedometer:
    """Machine speed, from a fixed reference kernel run between ops.

    Other tenants of a shared machine slow every instruction by up to 70 %
    for seconds at a time.  The kernel slows the same way, so an op's wall
    time times REF_KERNEL_S over the kernel's mean time around the op is
    the time the op takes where the kernel takes REF_KERNEL_S."""

    def __init__(self):
        self.samples = [_reference_kernel() for _ in range(2 * KERNEL_WINDOW)]
        self.ends = [len(self.samples)]  # ends[i + 1]: samples up to op i

    def sample(self, busy_s: float) -> None:
        """About one kernel per KERNEL_EVERY_S of the op just run, at least one."""
        for _ in range(min(40, 1 + int(busy_s / KERNEL_EVERY_S))):
            self.samples.append(_reference_kernel())
        self.ends.append(len(self.samples))

    def _factor(self, lo: int, hi: int) -> float:
        window = self.samples[max(0, lo - KERNEL_WINDOW) : hi + KERNEL_WINDOW]
        return REF_KERNEL_S / statistics.fmean(window)

    def current(self) -> float:
        return self._factor(len(self.samples), len(self.samples))

    def op_factor(self, i: int) -> float:
        """From the samples taken right after op i and its neighbours."""
        return self._factor(self.ends[i], self.ends[i + 1])

    def run_factor(self) -> float:
        return REF_KERNEL_S / statistics.fmean(self.samples)


def closed_loop(wl, ops, memo, seconds, speed, tracer=None) -> list[Record]:
    records = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        index = len(records)
        if tracer is not None:
            tracer.op = index
        record = run_op(wl, ops[index % len(ops)], memo, index, LIMIT_S / speed.current())
        if tracer is not None and record.outcome == "timeout":
            tracer.abandon(record.end)
        speed.sample(record.latency)
        records.append(record)
    return records


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(records, setup_s, speed) -> dict:
    latencies = [r.latency * speed.op_factor(i) for i, r in enumerate(records)]
    answered = [r for r in records if r.outcome != "timeout"]
    within = [
        r for r, t in zip(records, latencies) if r.outcome == "ok" and t <= LIMIT_S
    ]
    failed = [r for r in records if r.outcome == "failed"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(answered) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        f"latency_p{TAIL_PERCENTILE}_ms": (percentile(latencies, TAIL_PERCENTILE) * 1e3, "ms"),
        "within_1s_share": (len(within) / len(records), "ratio"),
        "correct_share": (1 - len(failed) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def overhead(wl, ops, memo, tracer, records, budget, limit_s) -> float:
    """Run the traced run's first ops again, each once traced and once
    untraced (alternating which goes first); traced / untraced time."""
    tracer.uninstall()
    times = {True: 0.0, False: 0.0}
    t0 = time.perf_counter()
    for k, r in enumerate(records):
        if time.perf_counter() - t0 >= budget:
            break
        pair = {}
        for traced in (True, False) if k % 2 == 0 else (False, True):
            if traced:
                tracer.install()
            pair[traced] = run_op(wl, ops[r.index % len(ops)], memo, r.index, limit_s)
            if traced:
                tracer.uninstall()
        if all(rec.outcome != "timeout" for rec in pair.values()):
            for traced, rec in pair.items():
                times[traced] += rec.latency
    return times[True] / times[False] if times[False] else 0.0


def properties(ops, records) -> dict:
    done = [ops[r.index % len(ops)] for r in records]
    verdicts = Counter(r.verdict or r.outcome for r in records)
    return {
        "n_histogram": dict(sorted(Counter(op.n for op in done).items())),
        "m_histogram": dict(sorted(Counter(op.m for op in done).items())),
        "verdict_shares": {k: v / len(records) for k, v in sorted(verdicts.items())},
    }


def expected_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide", "space", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    import workloads

    wl = workloads.workload(args.workload)
    ops = wl.inputs(args.seed)
    if args.setup_only:
        return 0
    want = expected_metrics(args.trace == 1)
    setup_s = None if args.trace else measure_setup(args)

    from linrank import simplex

    memo = simplex.find_point  # the lru_cache object, kept before any rebinding
    wl.prepare()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    measured = args.seconds * (1 - REPLAY_SHARE) if tracer else args.seconds
    speed = Speedometer()
    records = closed_loop(wl, ops, memo, measured, speed, tracer)
    factor = speed.run_factor()

    failures = [(r.index, r.error) for r in records if r.outcome == "failed"]
    props = properties(ops, records)
    if tracer is None:
        metrics = end_to_end(records, setup_s, speed)
    else:
        spans = list(tracer.spans)
        failures += tracing.coverage_errors(spans, records)
        metrics = tracing.layer_metrics(spans, records)
        for name, (value, unit) in metrics.items():
            if unit == "s":
                metrics[name] = (value * factor, unit)
            elif unit == "B/s":
                metrics[name] = (value / factor, unit)
        metrics["trace.overhead"] = (
            overhead(wl, ops, memo, tracer, records, args.seconds * REPLAY_SHARE,
                     LIMIT_S / factor),
            "ratio",
        )
        shares = props["verdict_shares"]
        metrics["input.terminating_share"] = (shares.get("terminating", 0.0), "ratio")
        metrics["input.unknown_share"] = (shares.get("unknown", 0.0), "ratio")
        metrics["input.timeout_share"] = (shares.get("timeout", 0.0), "ratio")

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")

    digests = [r.digest or r.outcome for r in records]
    prefix = digests[:DIGEST_OPS]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(records),
        "speed_factor": factor,
        "tail_percentile": TAIL_PERCENTILE,
        "digest": hashlib.sha256("\n".join(prefix).encode()).hexdigest()[:16],
        "digest_ops": len(prefix),
        "properties": props,
        "failures": failures,
        "op_digests": digests,
        "latencies_s": [r.latency for r in records],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracing.write_spans(OUT / f"{stem}.spans.jsonl", spans)

    print(
        f"{args.workload} seed {args.seed}: {len(records)} ops, {len(failures)} failures, "
        f"speed factor {factor:.3f}, "
        f"verdicts {props['verdict_shares']}, digest {details['digest']} "
        f"(first {len(prefix)} ops), n {props['n_histogram']}, m {props['m_histogram']}"
    )
    for index, message in failures[:10]:
        print(f"  op {index}: {message}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len({index for index, _ in failures}),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

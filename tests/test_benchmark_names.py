"""The names the benchmark binds stay in linrank.

`perfbench/tracing.py` wraps each function its `TARGETS` table names,
looked up as an attribute of the linrank module that defines it, and
`perfbench/run.py` clears and reads `simplex.find_point`'s memo around
every op.  A deleted or renamed target would fail only a traced benchmark
run; this test fails on it in the plain test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from linrank import equivalence, projection, simplex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves_in_linrank():
    targets = _targets()
    assert targets, "the tracer names no targets"
    missing = [
        f"{home}.{name}"
        for home, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"linrank.{home}"), name, None))
    ]
    assert not missing, f"perfbench traces names linrank no longer has: {missing}"


def test_find_point_keeps_its_memo_interface():
    assert callable(simplex.find_point.cache_clear)
    assert callable(simplex.find_point.cache_info)


def test_cross_check_looks_up_equivalent_through_its_module():
    """The `space` workload rebinds `equivalence.equivalent` to capture the
    two spaces `cross_check` compares."""
    assert equivalence.equivalent is projection.equivalent
    assert "equivalent" in equivalence.cross_check.__code__.co_names

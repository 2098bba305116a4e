"""Shared fixtures: the golden loop corpus and sampling helpers."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from linrank import parse_loop
from linrank.constraints import ConstraintSystem
from tests.oracles import feasible_points_sample

LOOPS_DIR = Path(__file__).resolve().parents[1] / "loops"


@pytest.fixture(scope="session")
def loops_dir() -> Path:
    return LOOPS_DIR


def load_loop(name: str):
    return parse_loop((LOOPS_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def log2_loop():
    return load_loop("log2.loop")


@pytest.fixture(scope="session")
def log2_clp_loop():
    return load_loop("log2_clp.loop")


@pytest.fixture(scope="session")
def countdown_loop():
    return load_loop("countdown.loop")


@pytest.fixture(scope="session")
def diverge_loop():
    return load_loop("diverge.loop")


@pytest.fixture(scope="session")
def unsat_loop():
    return load_loop("unsat.loop")


@pytest.fixture(scope="session")
def seed207_loop():
    """A `random_loop`-shaped loop whose decreasing space once came out too
    large: an ancestry-count filter in `project` dropped the row
    4*mu1 - mu2 <= -2, so mu = (2, 8) was taken for a ranking function
    although the least decrease of 2*x1 + 8*x2 over the loop is 0."""
    return parse_loop(
        "vars: x1 x2\n"
        "single: x1 >= 0, 2*x2 >= 6, 4*x1 + 2*x2 - 4*x1' + 4*x2' <= 24,"
        " 4*x2 + 5*x1' + 2*x2' >= 21, -2*x1 + 5*x2 + 2*x1' <= 19,"
        " 5*x1 - 4*x2 - 3*x1' + 2*x2' <= -3, 2*x2 - 2*x2' >= 1\n"
    )


def sample_points(c: ConstraintSystem, rng: random.Random, want: int) -> list[tuple]:
    """Up to `want` points of c: optimized vertices in random directions,
    densified with convex combinations (still solutions by convexity)."""
    objectives = [
        [Fraction(rng.randint(-3, 3)) for _ in range(c.n_vars)]
        for _ in range(min(want, 12))
    ]
    points = feasible_points_sample(c, objectives)
    if not points:
        return []
    mixed = list(points)
    while len(mixed) < want:
        a, b = rng.choice(points), rng.choice(points)
        t = Fraction(rng.randint(1, 7), 8)
        mixed.append(tuple(t * x + (1 - t) * y for x, y in zip(a, b)))
    return mixed[:want]

import random
from fractions import Fraction

import pytest

from linrank.equivalence import random_loop
from linrank.loopfile import LoopParseError, parse_loop, serialize_loop


def test_parse_single_section():
    loop = parse_loop("vars: x\nsingle: x >= 0, x' = x - 1")
    assert not loop.is_guarded
    assert loop.space.names == ("x",)
    assert len(loop.single.rows) == 2
    row = loop.single.rows[1]
    assert row.coeffs == (Fraction(-1), Fraction(1))
    assert row.rel == "=" and row.const == Fraction(-1)


def test_parse_log2_guarded_file(log2_loop):
    assert log2_loop.is_guarded
    assert len(log2_loop.guard.rows) == 1
    assert len(log2_loop.update.rows) == 4
    assert log2_loop.space.combined_names == ("x1", "x2", "x1'", "x2'")


def test_strict_inequality_rejected():
    with pytest.raises(LoopParseError, match="strict"):
        parse_loop("vars: x\nsingle: x < 1")
    with pytest.raises(LoopParseError, match="strict"):
        parse_loop("vars: x\nsingle: x > 1")


def test_error_positions_reported():
    with pytest.raises(LoopParseError) as err:
        parse_loop("vars: x\nsingle: x >= 0\n  x' <= @ 1\n")
    assert err.value.line == 3
    assert err.value.col >= 9


def test_undeclared_variable():
    with pytest.raises(LoopParseError, match="undeclared"):
        parse_loop("vars: x\nsingle: y >= 0")


def test_primed_variable_in_guard_rejected():
    with pytest.raises(LoopParseError, match="primed"):
        parse_loop("vars: x\nguard: x' >= 0\nupdate: x' = x")


def test_empty_file_rejected():
    with pytest.raises(LoopParseError, match="vars"):
        parse_loop("")
    with pytest.raises(LoopParseError, match="vars"):
        parse_loop("# only a comment\n")


def test_decimal_coefficient_rejected():
    with pytest.raises(LoopParseError):
        parse_loop("vars: x\nsingle: 1.5*x >= 0")
    with pytest.raises(LoopParseError) as zero:
        parse_loop("vars: x\nsingle: x >= 1/0")
    assert (zero.value.line, zero.value.col) == (2, 14)


def test_fraction_coefficients_and_comments():
    loop = parse_loop(
        "# a comment\nvars: x y\nsingle:\n  1/2*x - 3*y >= 1/3  # inline\n  x' = x, y' = y\n"
    )
    row = loop.single.rows[0]
    assert row.coeffs[0] == Fraction(1, 2)
    assert row.coeffs[1] == Fraction(-3)
    assert row.const == Fraction(1, 3)


def test_missing_star_between_coefficient_and_variable():
    with pytest.raises(LoopParseError, match=r"\*"):
        parse_loop("vars: x\nsingle: 2 x >= 0")


def test_sections_must_be_complete():
    with pytest.raises(LoopParseError):
        parse_loop("vars: x\nguard: x >= 0")
    with pytest.raises(LoopParseError):
        parse_loop("vars: x\nupdate: x' = x")
    with pytest.raises(LoopParseError):
        parse_loop("vars: x\nsingle: x >= 0\nguard: x >= 0\nupdate: x' = x")


def test_round_trip_handwritten(log2_loop, countdown_loop, unsat_loop):
    for loop in (log2_loop, countdown_loop, unsat_loop):
        assert parse_loop(serialize_loop(loop)) == loop


def test_round_trip_random_models():
    rng = random.Random(99)
    for i in range(40):
        loop = random_loop(rng, guarded=(i % 2 == 0), force_rank=(i % 3 == 0))
        assert parse_loop(serialize_loop(loop)) == loop


def test_terms_may_repeat_and_collect():
    loop = parse_loop("vars: x\nsingle: x + x - 3 + 1 >= x' - x'")
    row = loop.single.rows[0]
    assert row.coeffs == (Fraction(2), Fraction(0))
    assert row.const == Fraction(2)

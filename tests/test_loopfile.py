import random
import sys
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


def test_over_long_number_reports_its_position():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    with pytest.raises(LoopParseError) as err:
        parse_loop(f"vars: x\nsingle: x >= {'7' * (limit + 1)}, x' = x - 1\n")
    assert (err.value.line, err.value.col) == (2, 14)
    assert "too many digits" in str(err.value)


def test_vars_errors_point_at_the_name():
    for text, message, position in (
        ("vars: x, y\nsingle: x >= 0", "bad variable name 'x,'", (1, 7)),
        ("  vars: x y x\nsingle: x >= 0", "duplicate variable name 'x'", (1, 13)),
        ("# c\nvars:\tx  1y\nsingle: x >= 0", "bad variable name '1y'", (2, 10)),
    ):
        with pytest.raises(LoopParseError) as err:
            parse_loop(text)
        assert str(err.value).endswith(message)
        assert (err.value.line, err.value.col) == position


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


def test_numbers_are_ascii_digits():
    # U+0663 ARABIC-INDIC DIGIT THREE is a Unicode decimal digit, not a number.
    with pytest.raises(LoopParseError) as err:
        parse_loop("vars: x\nsingle: \u0663*x >= 12, x' = x - 1")
    assert str(err.value).endswith("unexpected character '\u0663'")
    assert (err.value.line, err.value.col) == (2, 9)


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
    """Each section-structure error points at the header that breaks the
    grammar: a partner-less `guard:` or `update:`, an `update:` before its
    `guard:`, or the first header that `single:` cannot be combined with."""
    cases = [
        ("vars: x\nguard: x >= 0", "expected", 2, 1),
        ("vars: x\n# no guard\n  update: x' = x", "expected", 3, 3),
        ("vars: x\nupdate: x' <= x - 1, x' >= x - 1\nguard: x >= 0", "expected", 2, 1),
        ("vars: x\nsingle: x >= 0\nguard: x >= 0\nupdate: x' = x", "combined", 3, 1),
        ("vars: x\nguard: x >= 0\nupdate: x' = x\n\n single: x >= 0", "combined", 5, 2),
        ("vars: x\nsingle: x >= 0\nupdate: x' = x", "combined", 3, 1),
        ("\n  vars: x\n", "expected", 2, 3),
    ]
    for text, match, line, col in cases:
        with pytest.raises(LoopParseError, match=match) as err:
            parse_loop(text)
        assert (err.value.line, err.value.col) == (line, col), text


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


_FUZZ_TOKENS = (
    "x", "x'", "x1", "x2'", "y", "0", "1", "2", "1/2", "1/0", "0/0", "*", "+", "-",
    "<=", ">=", "=", "<", ">", ",", "#", ":", " ", "\n", "\r", "\t", "\x0b", "\xa0",
    "٣", "@", ".", "vars:", "single:", "guard:", "update:",
)


def _mutate(rng, text):
    """One insert, delete or replace of a token or a short span."""
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:pos] + rng.choice(_FUZZ_TOKENS) + text[pos:]
    end = min(len(text), pos + rng.randint(1, 3))
    return text[:pos] + (rng.choice(_FUZZ_TOKENS) if kind == 2 else "") + text[end:]


def mutated_loop_files(loops_dir):
    """The seeded mutation stream: for each `*.loop` file in name order,
    1,000 inputs of one to three `_mutate`s each, about 2,000 mutations."""
    rng = random.Random(20240607)
    for path in sorted(loops_dir.glob("*.loop")):
        source = path.read_text(encoding="utf-8")
        for _ in range(1000):
            text = source
            for _ in range(rng.randint(1, 3)):
                text = _mutate(rng, text)
            yield text


def test_mutated_loop_files_parse_or_fail_with_a_position(loops_dir):
    for text in mutated_loop_files(loops_dir):
        try:
            parse_loop(text)
        except LoopParseError as err:
            assert err.line >= 1 and err.col >= 1, (text, err)

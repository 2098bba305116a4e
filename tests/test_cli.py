import argparse
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from linrank.cli import build_parser, main
from linrank.constraints import ConstraintError, ConstraintSystem, LinConstraint
from linrank.ms import Verdict
from linrank.projection import equivalent
from linrank.rationals import parse_rational

LOOPS = Path(__file__).resolve().parents[1] / "loops"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_log2_ms():
    code, text = run("check", str(LOOPS / "log2.loop"), "--method=ms")
    assert code == 0
    assert text.strip() == "terminating"


def test_check_diverge_exit_code():
    code, text = run("check", str(LOOPS / "diverge.loop"))
    assert code == 10
    assert text.strip() == "unknown"


def test_check_unsat():
    code, text = run("check", str(LOOPS / "unsat.loop"), "--method=both")
    assert code == 0
    assert text.strip() == "trivially-terminating"


def test_check_empty_file_is_input_error(tmp_path):
    empty = tmp_path / "empty.loop"
    empty.write_text("")
    code, _ = run("check", str(empty))
    assert code == 2
    zero = tmp_path / "zero.loop"
    zero.write_text("vars: x\nsingle: x >= 1/0\n")
    code, _ = run("check", str(zero))
    assert code == 2


def test_check_missing_file():
    code, _ = run("check", str(LOOPS / "missing.loop"))
    assert code == 2


def test_rank_pr_witness_in_affine_space(log2_loop):
    code, text = run("rank", str(LOOPS / "log2.loop"), "--method=pr", "--format=json")
    assert code == 0
    payload = json.loads(text)
    assert payload["status"] == "terminating"
    f = payload["ranking_function"]
    mu = tuple(parse_rational(v) for v in f["mu"])
    mu0 = parse_rational(f["mu0"])
    delta = parse_rational(f["delta"])
    assert delta > 0
    from linrank.equivalence import witness_in_ms_denormalized
    from linrank.ms import RankingFunction

    assert witness_in_ms_denormalized(
        log2_loop, RankingFunction(mu0, mu, delta, Fraction(0))
    )


def test_rank_countdown_witness_shape():
    code, text = run("rank", str(LOOPS / "countdown.loop"), "--format=json")
    assert code == 0
    payload = json.loads(text)
    mu = [parse_rational(v) for v in payload["ranking_function"]["mu"]]
    mu0 = parse_rational(payload["ranking_function"]["mu0"])
    assert mu[0] >= 1 and mu0 >= 0


def test_rank_trivially_terminating_has_no_witness():
    code, text = run("rank", str(LOOPS / "unsat.loop"), "--format=json")
    assert code == 0
    payload = json.loads(text)
    assert payload["status"] == "trivially-terminating"
    assert "ranking_function" not in payload


def _space_from_json(payload) -> ConstraintSystem:
    space = payload["space"]
    rows = tuple(
        LinConstraint(
            tuple(parse_rational(c) for c in row["coeffs"]),
            row["rel"],
            parse_rational(row["const"]),
        )
        for row in space["constraints"]
    )
    return ConstraintSystem(tuple(space["params"]), rows)


def test_space_json_round_trips_to_golden_space():
    code, text = run("space", str(LOOPS / "log2.loop"), "--method=ms", "--format=json")
    assert code == 0
    recovered = _space_from_json(json.loads(text))
    expected = ConstraintSystem(
        ("mu0", "mu1", "mu2"),
        (
            LinConstraint((Fraction(0), Fraction(1), Fraction(-1)), ">=", Fraction(1)),
            LinConstraint((Fraction(0), Fraction(0), Fraction(1)), ">=", Fraction(0)),
            LinConstraint((Fraction(1), Fraction(2), Fraction(0)), ">=", Fraction(0)),
        ),
    )
    assert equivalent(recovered, expected)


def test_space_conditional_conjunction(log2_loop):
    code, text = run(
        "space", str(LOOPS / "log2.loop"), "--method=ms", "--conditional", "--format=json"
    )
    assert code == 0
    payload = json.loads(text)
    dec = payload["decreasing_space"]
    bnd = payload["bounded_space"]
    rows = tuple(
        LinConstraint(
            tuple(parse_rational(c) for c in row["coeffs"]),
            row["rel"],
            parse_rational(row["const"]),
        )
        for row in dec["constraints"] + bnd["constraints"]
    )
    conj = ConstraintSystem(tuple(dec["params"]), rows)
    from linrank.ms import ms_space

    assert equivalent(conj, ms_space(log2_loop).constraints)


def test_space_conditional_requires_ms():
    code, _ = run("space", str(LOOPS / "log2.loop"), "--method=pr", "--conditional")
    assert code == 2


def test_space_empty_for_diverge():
    code, text = run("space", str(LOOPS / "diverge.loop"), "--method=ms")
    assert code == 0
    assert "empty space" in text


def test_empty_space_json_is_the_same_under_every_method():
    """An empty space is the single row 0 < 0 whichever engine built it."""
    spaces = []
    for method in ("ms", "pr", "both"):
        code, text = run("space", str(LOOPS / "diverge.loop"), f"--method={method}", "--format=json")
        assert code == 0
        spaces.append(json.loads(text)["space"])
    assert spaces[0]["constraints"] == [{"coeffs": ["0", "0"], "rel": "<", "const": "0"}]
    assert spaces[1] == spaces[0] and spaces[2] == spaces[0]


def test_conditional_space_json_reports_ms_on_every_loop():
    """`--conditional` runs only MS, so its JSON says so, also on a loop
    whose body is unsatisfiable and under the default method."""
    for path in sorted(LOOPS.glob("*.loop")):
        for method in ("ms", "both"):
            code, text = run("space", str(path), f"--method={method}", "--conditional", "--format=json")
            assert code == 0
            assert json.loads(text)["method"] == "ms", (path.name, method)


def test_space_method_both_checks_agreement():
    code, text = run("space", str(LOOPS / "log2.loop"), "--format=json")
    assert code == 0
    payload = json.loads(text)
    assert payload["engines_agree"] is True


def test_compare_emits_consistent_report():
    code, text = run("compare", str(LOOPS / "log2.loop"), "--format=json")
    assert code == 0
    payload = json.loads(text)
    assert payload["agree"] is True and payload["consistent"] is True


def test_bench_golden_corpus(tmp_path):
    for name in ("log2.loop", "countdown.loop", "diverge.loop", "unsat.loop"):
        (tmp_path / name).write_text((LOOPS / name).read_text())
    code, text = run("bench", str(tmp_path))
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "file,n,m,verdict_ms,verdict_pr,agree,us_ms,us_pr"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[5] == "true"
        assert int(cells[6]) >= 0 and int(cells[7]) >= 0


def test_bench_times_both_engines_cold(tmp_path, monkeypatch):
    # each engine must start with an empty find_point memo, so that us_ms
    # and us_pr are comparable
    import linrank.cli as cli_mod
    from linrank.simplex import find_point

    (tmp_path / "log2.loop").write_text((LOOPS / "log2.loop").read_text())
    memo_sizes = []
    for name in ("ms_analyze", "pr_analyze"):
        engine = getattr(cli_mod, name)

        def wrapped(loop, engine=engine):
            memo_sizes.append(find_point.cache_info().currsize)
            return engine(loop)

        monkeypatch.setattr(cli_mod, name, wrapped)
    code, _ = run("bench", str(tmp_path))
    assert code == 0
    assert memo_sizes == [0, 0]


def test_bench_empty_directory(tmp_path):
    code, text = run("bench", str(tmp_path))
    assert code == 0
    assert text.strip() == "file,n,m,verdict_ms,verdict_pr,agree,us_ms,us_pr"


def test_bench_survives_malformed_file(tmp_path):
    (tmp_path / "ok.loop").write_text((LOOPS / "countdown.loop").read_text())
    (tmp_path / "bad.loop").write_text("vars x\nooops")
    (tmp_path / "latin1.loop").write_bytes("vars: x\nsingle: x >= 0 # \xe9\n".encode("latin-1"))
    malformed = ["bad.loop", "latin1.loop"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        (tmp_path / "long.loop").write_text(f"vars: x\nsingle: x >= {'7' * (limit + 1)}\n")
        malformed.append("long.loop")
    code, text = run("bench", str(tmp_path))
    assert code == 0
    lines = text.strip().splitlines()
    for name in malformed:
        assert f"{name},,,parse-error,parse-error,,," in lines
    assert any(line.startswith("ok.loop,") for line in lines)


def test_loop_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    """A loop file saved with a UTF-8 byte-order mark parses as the file
    without it, for `rank` and for `bench`."""
    original = LOOPS / "countdown.loop"
    marked = tmp_path / "countdown.loop"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert run("rank", str(marked)) == run("rank", str(original))
    code, text = run("bench", str(tmp_path))
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert row[:6] == ["countdown.loop", "1", "2", "terminating", "terminating", "true"]


def test_check_names_an_undecodable_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.loop"
    latin1.write_bytes("vars: x\nsingle: x >= 0 # \xe9\n".encode("latin-1"))
    code, _ = run("check", str(latin1))
    assert code == 2
    assert f"error: cannot read {latin1}: " in capsys.readouterr().err


def test_selftest_runs_clean():
    code, text = run("selftest", "--seed=5", "--count=6")
    assert code == 0
    assert "0 failures" in text


def test_selftest_rejects_a_negative_count(capsys):
    for argv in (["--count=-1"], ["--count", "-1"]):
        with pytest.raises(SystemExit) as exit_info:
            run("selftest", *argv)
        assert exit_info.value.code == 2
        assert "--count: must not be negative: -1" in capsys.readouterr().err
    code, text = run("selftest", "--count=0")
    assert code == 0
    assert text.startswith("selftest: 0 loops, 0 failures")


def test_help_lists_every_subcommand():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    text = parser.format_help()
    listed = {line.split()[0] for line in text.splitlines() if line.startswith("    ")}
    assert "{" + ",".join(sub.choices) + "}" in text
    assert set(sub.choices) <= listed


def _empty_pr_space(loop):
    # pr's space of the loop, with every row replaced by 0 < 0
    from linrank.pr import pr_space

    c = pr_space(loop).constraints
    return SimpleNamespace(
        constraints=ConstraintSystem(c.variables, (LinConstraint((0,) * c.n_vars, "<", 0),))
    )


def test_method_both_fails_on_engine_disagreement(monkeypatch, capsys):
    # the engines provably agree, so force a bogus answer to pin the
    # production guard: any disagreement must abort with exit code 3
    import linrank.cli as cli_mod

    for command, engine, stub, message in (
        ("check", "pr_analyze", lambda loop: Verdict.unknown(),
         "engines disagree: ms=terminating pr=unknown"),
        ("space", "pr_space", _empty_pr_space,
         "engines disagree: scaled ms space differs from pr space"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, engine, stub)
            code, _ = run(command, str(LOOPS / "log2.loop"), "--method=both")
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("error", [ConstraintError, ValueError])
def test_engine_input_error_exits_2_without_a_traceback(monkeypatch, capsys, error):
    import linrank.cli as cli_mod

    def failing(loop):
        raise error("bad input")

    monkeypatch.setattr(cli_mod, "ms_analyze", failing)
    code, text = run("check", str(LOOPS / "log2.loop"), "--method=ms")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: bad input\n"


def test_pr_alt_method_requires_guarded_file():
    code, _ = run("check", str(LOOPS / "countdown.loop"), "--method=pr-alt")
    assert code == 2
    code, text = run("check", str(LOOPS / "log2.loop"), "--method=pr-alt")
    assert code == 0
    assert text.strip() == "terminating"


def test_svg_method_on_clp_clause():
    code, text = run("space", str(LOOPS / "log2_clp.loop"), "--method=svg", "--format=json")
    assert code == 0
    payload = json.loads(text)
    assert payload["space"]["params"] == ["mu1", "mu2"]


def test_svg_space_without_nonnegative_point_is_trivial(tmp_path):
    # satisfiable over Q, but no point has x >= 0 and x' >= 0
    path = tmp_path / "negative.loop"
    path.write_text("vars: x\nsingle: x <= -1, x' = x\n")
    code, text = run("check", str(path), "--method=svg")
    assert (code, text) == (0, "trivially-terminating\n")
    code, text = run("space", str(path), "--method=svg")
    assert code == 0
    assert text == "trivially-terminating: no nonnegative point satisfies the loop body\n"
    code, text = run("space", str(path), "--method=svg", "--format=json")
    assert code == 0
    assert json.loads(text) == {"status": "trivially-terminating", "method": "svg"}

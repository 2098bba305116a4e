import io
import json
from fractions import Fraction
from pathlib import Path

from linrank.cli import main
from linrank.constraints import ConstraintSystem, LinConstraint
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
    code, text = run("bench", str(tmp_path))
    assert code == 0
    lines = text.strip().splitlines()
    assert any("bad.loop,,,parse-error,parse-error" in line for line in lines)
    assert any(line.startswith("ok.loop,") for line in lines)


def test_selftest_runs_clean():
    code, text = run("selftest", "--seed=5", "--count=6")
    assert code == 0
    assert "0 failures" in text


def test_method_both_fails_on_engine_disagreement(monkeypatch):
    # the engines provably agree, so force a bogus verdict to pin the
    # production guard: any disagreement must abort with exit code 3
    import linrank.cli as cli_mod
    from linrank.ms import Verdict

    monkeypatch.setattr(cli_mod, "pr_analyze", lambda loop: Verdict.unknown())
    code, _ = run("check", str(LOOPS / "log2.loop"), "--method=both")
    assert code == 3


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

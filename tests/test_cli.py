import json
import os
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmink.algebras import minkowski_system, table_relations, x_alphabet
from qmink import coeff
from qmink.cli import (MAX_WORK, ExprSyntaxError, NoncommutativeDivisionError,
                       ParseContext, UnknownSymbolError, main, nf_system,
                       parse_expr, run_suites)
from qmink.coeff import (ALL_REGIMES, ONE, Q, T, UNIT_CIRCLE, ZERO,
                         GaussianRational, LaurentPoly, Scalar, ScalarTable,
                         WorkBudget, WorkBudgetExceeded, exact_divide)
from qmink.rewrite import NCPoly

UC_ALPH = x_alphabet(UNIT_CIRCLE)
CTX = ParseContext(UC_ALPH, UNIT_CIRCLE)


def w(*names, coeff=ONE):
    return NCPoly.word(UC_ALPH, names, coeff)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_two_term_relation():
    p = parse_expr("alpha*beta - t*q*beta*alpha", CTX)
    assert len(p.terms) == 2
    assert p.equals(w("alpha", "beta") - w("beta", "alpha", coeff=T * Q))


def test_parse_commutator_relation():
    p = parse_expr("[alpha, delta] - (1/t)*(q - 1/q)*beta*gamma", CTX)
    want = (w("alpha", "delta") - w("delta", "alpha")
            - w("beta", "gamma", coeff=(Q - Q ** -1) / T))
    assert p.equals(want)
    # this is exactly the sixth displayed relation
    table = table_relations(UNIT_CIRCLE)
    assert any(p.equals(r) for r in table)


def test_parse_star():
    from qmink.coeff import I
    assert parse_expr("star(beta)", CTX).equals(w("gamma"))
    assert parse_expr("star(i*alpha)", CTX).equals(w("alpha", coeff=-I))


def test_parse_half_powers_and_negative_exponents():
    assert parse_expr("q^(1/2)*q^(1/2)", CTX).equals(
        NCPoly.scalar(UC_ALPH, Q))
    assert parse_expr("q^-1", CTX).equals(NCPoly.scalar(UC_ALPH, Q ** -1))
    assert parse_expr("q^(-1/2)*q^(3/2)", CTX).equals(NCPoly.scalar(UC_ALPH, Q))
    assert parse_expr("alpha^2", CTX).equals(w("alpha", "alpha"))


def test_half_powers_of_the_specialized_atoms_store_what_specializing_would():
    from qmink.cli import _HALF_ATOMS, _REGIME_HALF_ATOMS
    for regime in ALL_REGIMES:
        for name, atom in _HALF_ATOMS.items():
            base = _REGIME_HALF_ATOMS[regime.label][name]
            for k in range(-64, 65):
                got, want = base ** k, (atom ** k).specialize(regime)
                assert list(got.num.terms.items()) == list(want.num.terms.items())
                assert list(got.den.terms.items()) == list(want.den.terms.items())


def test_parse_bracketed_generators():
    assert parse_expr("x[1,1]", CTX).equals(w("alpha"))
    assert parse_expr("x[2,2]", CTX).equals(w("delta"))
    alph, _ = nf_system(UNIT_CIRCLE)
    ctx = ParseContext(alph, UNIT_CIRCLE)
    assert parse_expr("u[1,2]", ctx).equals(NCPoly.word(alph, ("u[1,2]",)))
    assert parse_expr("h[0,3]", ctx).equals(NCPoly.word(alph, ("h[0,3]",)))
    assert parse_expr("x[1,2]'", ctx).equals(NCPoly.word(alph, ("beta'",)))


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("alpha +", CTX)
    with pytest.raises(ExprSyntaxError):
        parse_expr("(alpha", CTX)
    with pytest.raises(ExprSyntaxError):
        parse_expr("alpha $ beta", CTX)
    with pytest.raises(UnknownSymbolError):
        parse_expr("zeta", CTX)
    with pytest.raises(NoncommutativeDivisionError):
        parse_expr("q / alpha", CTX)
    with pytest.raises(NoncommutativeDivisionError):
        parse_expr("alpha^-1", CTX)


@pytest.mark.parametrize("text, pos", [("x[0,1]", 2), ("x[3,1]", 2),
                                       ("u[1,3]", 4), ("h[4,0]", 2)])
def test_generator_index_out_of_range(text, pos):
    alph, _ = nf_system(UNIT_CIRCLE)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text, ParseContext(alph, UNIT_CIRCLE))
    assert exc.value.pos == pos


def test_generator_index_out_of_range_exits_2(capsys):
    assert main(["nf", "--regime", "unit-circle", "--expr", "x[0,1]"]) == 2
    assert "outside 1..2" in capsys.readouterr().err


def test_print_parse_round_trip():
    sys = minkowski_system(UNIT_CIRCLE).system
    for lhs, rhs in sys.rules.items():
        again = parse_expr(str(rhs), CTX)
        assert again.equals(rhs), str(rhs)
    probe = parse_expr("(1 + 2*i)*alpha*delta - q^(1/2)*beta", CTX)
    assert parse_expr(str(probe), CTX).equals(probe)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_verify_unit_circle_exit_code_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--regime", "unit-circle", "--suite", "spectral",
                 "--json", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload) == {"version", "regime", "checks", "summary"}
    assert payload["regime"] == "unit-circle"
    assert payload["summary"]["failed"] == 0
    assert all(set(c) >= {"check_id", "regime", "status", "mode", "elapsed_ms"}
               for c in payload["checks"])


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_verify_json_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    path = tmp_path / "no-such-dir" / "report.json" if where == "missing-dir" \
        else tmp_path
    code = main(["verify", "--regime", "generic", "--suite", "moves",
                 "--json", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["nf", "--expr=--"], ["eval", "--q=--"],
                                  ["eval", "--t=--"], ["verify", "--json=--"]])
def test_a_bare_double_dash_option_value_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    option = argv[1].split("=")[0]
    assert capsys.readouterr().err == f"error: argument {option}: expected one argument\n"
    assert list(tmp_path.iterdir()) == []  # verify wrote no report


def test_verify_reports_expected_nonzero_semantics(capsys):
    code = main(["verify", "--regime", "generic", "--suite", "pbw"])
    assert code == 0
    text = capsys.readouterr().out
    assert "pbw/ordering-obstruction" in text
    assert "[expected-nonzero]" in text


def test_tracer_traces_every_suite():
    # perfbench/tracer.py names the suites it wraps on its own; a suite
    # missing there would run untraced without any error
    import importlib.util
    from pathlib import Path
    from qmink.cli import SUITE_ORDER
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SUITE_NAMES == SUITE_ORDER


def test_obstruction_command_prints_the_shared_criteria(capsys):
    from qmink.algebras import obstruction_criteria, pbw_obstruction_generic
    assert main(["obstruction"]) == 0
    printed = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()
               if line.startswith(("  PASS", "  FAIL"))]
    criteria = obstruction_criteria(*pbw_obstruction_generic()[:2])
    assert printed == [["PASS", label] for label in criteria]
    assert all(criteria.values())


def test_verify_orders_output_by_check_id(capsys):
    main(["verify", "--regime", "unit-circle", "--suite", "moves"])
    lines = [l.split()[1] for l in capsys.readouterr().out.splitlines()
             if l.startswith(("PASS", "FAIL", "SKIP"))]
    assert lines == sorted(lines)


def test_nf_command(capsys):
    code = main(["nf", "--regime", "unit-circle", "--expr", "delta*alpha"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    got = parse_expr(printed, CTX)
    want = (w("alpha", "delta") - w("beta", "gamma", coeff=(Q - Q ** -1) / T))
    assert got.equals(want)


def test_nf_command_bad_expression(capsys):
    assert main(["nf", "--regime", "unit-circle", "--expr", "zeta*alpha"]) == 2
    assert "unknown symbol" in capsys.readouterr().err


def test_nf_command_division_by_zero(capsys):
    assert main(["nf", "--regime", "unit-circle", "--expr", "1/(q-q)"]) == 2
    assert capsys.readouterr().err == "error: inverse of zero scalar (at position 1)\n"
    # a negative power of zero names its '^'
    assert main(["nf", "--regime", "unit-circle", "--expr", "alpha + 0^-1"]) == 2
    assert capsys.readouterr().err == "error: inverse of zero scalar (at position 9)\n"


def test_nf_pretty_rendering(capsys):
    assert main(["nf", "--regime", "unit-circle", "--expr", "delta*alpha",
                 "--pretty"]) == 0
    printed = capsys.readouterr().out
    assert "α" in printed and "·" in printed
    from qmink.cli import unicode_pretty
    assert unicode_pretty("qb^2*beta") == "q̄²·β"
    assert unicode_pretty("q^(1/2)") == "q^(1/2)"  # half powers stay ASCII


def test_relations_command_json(capsys):
    code = main(["relations", "--regime", "unit-circle", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ordering"] == ["alpha", "beta", "gamma", "delta"]
    assert len(payload["rules"]) == 6
    lhs = {r["lhs"] for r in payload["rules"]}
    assert "delta*alpha" in lhs


def test_obstruction_command(capsys):
    assert main(["obstruction"]) == 0
    text = capsys.readouterr().out
    assert "alpha*alpha*delta" in text
    assert text.count("PASS") == 6


def test_length_command(capsys):
    assert main(["length", "--regime", "unit-circle"]) == 0
    text = capsys.readouterr().out
    assert "comparison scalar" in text and "-2" in text


def test_eval_command_deterministic(capsys):
    args = ["eval", "--regime", "unit-circle", "--samples", "2",
            "--tol", "1e-9", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seed 7" in first


@pytest.mark.parametrize("point", ["0,1", "0,0"])
def test_eval_excluded_point_exits_2(capsys, point):
    args = ["eval", "--regime", "unit-circle", "--q", point, "--samples", "1"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "excluded" in captured.err
    assert "Traceback" not in captured.err


def test_eval_malformed_point_exits_2(capsys):
    assert main(["eval", "--regime", "unit-circle", "--q", "1"]) == 2
    assert "--q needs RE,IM" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--regime", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_python_dash_m_qmink_runs_the_command_line():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "qmink", "verify", "--regime",
                           "unit-circle", "--suite", "delta"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("PASS  delta/")
               for line in proc.stdout.splitlines()) == 4


def test_run_suites_all_regimes_green():
    for label in ("generic", "unit-circle", "real-q", "case2+", "case2-"):
        from qmink.coeff import regime_from_label
        reports = run_suites(regime_from_label(label), "all")
        assert all(r.status != "fail" for r in reports), label
        ids = [r.check_id for r in reports]
        assert len(ids) == len(set(ids)), f"duplicate check ids in {label}"


@pytest.mark.parametrize("extra, needle", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-3"], "--samples"),
    (["--t", "0"], "--t"),
    (["--t", "-1"], "--t"),
    (["--t", "nan"], "--t"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "inf"], "--tol"),
    (["--tol", "0"], "--tol"),
    (["--tol=-1e-9"], "--tol"),
])
def test_eval_rejects_vacuous_or_meaningless_options(capsys, extra, needle):
    assert main(["eval", "--regime", "unit-circle"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and needle in captured.err
    assert "samples," not in captured.out  # nothing was checked or reported


def test_eval_samples_budget_refuses_before_sampling(monkeypatch, capsys):
    from qmink import cli, intertwiners

    def fake_suite(regime, q, t, qb, scales=None):
        raise AssertionError("sampled despite the budget")
    monkeypatch.setattr(intertwiners, "numeric_suite", fake_suite)
    t0 = time.perf_counter()
    for n in (cli.MAX_SAMPLES + 1, 10 ** 20):
        assert main(["eval", "--regime", "unit-circle", "--samples", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --samples must be between 1 and "
                                f"{cli.MAX_SAMPLES}, got {n}\n")
        assert captured.out == ""
    assert time.perf_counter() - t0 < 1.0


def test_eval_uses_the_given_t(monkeypatch, capsys):
    from qmink import intertwiners
    seen = []

    def fake_suite(regime, q, t, qb, scales=None):
        seen.append(t)
        return {"moves/X.X.M": 0.0}
    monkeypatch.setattr(intertwiners, "numeric_suite", fake_suite)
    assert main(["eval", "--regime", "unit-circle", "--t", "3", "--samples", "2"]) == 0
    assert seen == [3.0, 3.0]



@pytest.mark.parametrize("regime, point", [
    ("real-q", "nan,0"),
    ("real-q", "inf,0"),
    ("generic", "0,inf"),
    ("unit-circle", "nan,0"),
    ("generic", "1e200,0"),
    ("real-q", "1e200,0"),
])
def test_eval_non_finite_or_huge_point_exits_2(capsys, regime, point):
    assert main(["eval", "--regime", regime, "--q", point, "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "samples," not in captured.out  # nothing was checked or reported


@pytest.mark.parametrize("args", [
    ["--regime", "unit-circle", "--t", "1e-3", "--samples", "3"],
    ["--regime", "unit-circle", "--t", "1e4", "--samples", "3"],
    ["--regime", "unit-circle", "--t", "1e-8", "--samples", "2"],
    ["--regime", "real-q", "--q=100,0", "--samples", "1"],
    ["--regime", "case2+", "--q=0.001,0", "--samples", "1"],
])
def test_eval_judges_residuals_against_their_scale(capsys, args):
    # far from q = t = 1 the entries, and the rounding of true identities,
    # are huge; each residual is judged against tol times its scale
    assert main(["eval"] + args) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "  scale " in out


@pytest.mark.parametrize("args", [
    ["--t", "1e-320", "--samples", "1"],
    ["--regime", "generic", "--q", "1e308,1e308", "--samples", "1"],
])
def test_eval_float_overflow_is_one_error_line(args):
    # a subprocess: pytest would capture numpy's warnings in-process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "qmink.cli", "eval"] + args,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: double precision")
    assert "Warning" not in proc.stderr and "samples," not in proc.stdout


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_eval_non_finite_residual_is_a_failure(monkeypatch, capsys, bad):
    from qmink import intertwiners
    calls = []

    def fake_suite(regime, q, t, qb, scales=None):
        calls.append(q)
        # the bad value comes first, then a finite one that max() would keep
        return {"moves/X.X.M": bad if len(calls) == 1 else 1e-15,
                "braid/Rhat+": 0.0}
    monkeypatch.setattr(intertwiners, "numeric_suite", fake_suite)
    assert main(["eval", "--regime", "unit-circle", "--samples", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "PASS braid/Rhat+  max residual 0.000e+00"
    assert lines[1] == f"FAIL moves/X.X.M  max residual {bad:.3e}"

def test_nf_input_budget_refuses_blowup_quickly(capsys):
    import time
    t0 = time.perf_counter()
    code = main(["nf", "--regime", "unit-circle",
                 "--expr", "(alpha+beta+gamma+delta)^8"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression too large") and "Traceback" not in err


@pytest.mark.parametrize("regime, expr", [
    # each concatenates or reduces long words: the first two ran 6.5 s and
    # 3.2 s at the length caps, the second then accepted; charged one unit
    # per popped word, the next three were refused after 1.6-2.7 s
    ("unit-circle", "*".join(["alpha"] * 60_000)),
    ("unit-circle", "*".join(["q^64"] * 21_000)),
    ("unit-circle", "(delta*alpha)^32"),
    ("unit-circle", "(delta*alpha)^64"),
    ("unit-circle", "delta^64*alpha^64"),
    # 16 384 terms, each divided 1000 times: about 100 s with an uncharged
    # division
    ("generic", "(alpha+beta+gamma+delta)^7" + "/2" * 1000),
], ids=lambda v: v[:40])
def test_nf_work_budget_bounds_long_words(capsys, regime, expr):
    t0 = time.perf_counter()
    assert main(["nf", "--regime", regime, "--expr", expr]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: expression too large") and "Traceback" not in err


def test_nf_sum_is_built_in_one_pass(capsys):
    # 32 768 distinct words of three letters: adding term by term copied
    # the sum per term, 6.1 s before a refusal; in one pass about 1 s
    alph, _ = nf_system(UNIT_CIRCLE)
    names = [alph.name(k) for k in range(32)]
    expr = " + ".join(f"{a}*{b}*{c}" for a in names for b in names for c in names)
    t0 = time.perf_counter()
    assert main(["nf", "--regime", "unit-circle", "--expr", expr]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().out.count(" + ") > 10_000


@pytest.mark.parametrize("expr", [
    "*".join(["2^64"] * 226),        # 4355 digits, from 1.1 KB of input
    "*".join(["9" * 1000] * 5),
], ids=["2^64-226-factors", "five-1000-digit-literals"])
def test_nf_coefficient_over_the_digit_limit_exits_2(capsys, expr):
    assert main(["nf", "--regime", "unit-circle", "--expr", expr]) == 2
    assert capsys.readouterr() == ("", "error: a coefficient has over 4300 "
                                   "digits, the limit for printing an integer\n")


@pytest.mark.parametrize("expr, code", [
    pytest.param(expr, code, id=expr) for expr, code in [
        # words are not capped: a word of 13 letters prints
        ("alpha^13", 0),
        ("alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha*alpha", 0),
        ("[(alpha+beta)^6, (gamma+delta)^5]", 2),
        ("q^65", 2),
        ("q^(-129/2)", 2),
    ]
])
def test_nf_input_budget_limits(capsys, expr, code):
    assert main(["nf", "--regime", "unit-circle", "--expr", expr]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out == "*".join(["alpha"] * 13) + "\n"
    else:
        assert err.startswith("error: ") and "too large" in err


def test_nf_input_budget_leaves_room_for_ordinary_queries():
    alph, _ = nf_system(UNIT_CIRCLE)
    ctx = ParseContext(alph, UNIT_CIRCLE)
    with WorkBudget(MAX_WORK):
        assert len(parse_expr("(alpha+beta+gamma+delta)^6", ctx).terms) == 4096
    with WorkBudget(MAX_WORK):
        assert len(parse_expr("alpha^12", ctx).terms) == 1
    with WorkBudget(MAX_WORK):
        parse_expr("(q*alpha*beta + t*gamma)^2*(i*alpha - delta*u[1,2])*h[0,3]^2", ctx)
    # the power's k-th product charges 4^k * (k + 1): 589 824 for k = 8
    with pytest.raises(WorkBudgetExceeded, match="too large"), WorkBudget(MAX_WORK):
        parse_expr("(alpha+beta+gamma+delta)^8", ctx)


def test_the_budgeted_nf_path_reads_no_product_table():
    # a product read from a table would skip the charges of building it
    alph, system = nf_system(UNIT_CIRCLE)
    ctx = ParseContext(alph, UNIT_CIRCLE)

    def query():
        with WorkBudget(MAX_WORK) as budget:
            nf = system.normal_form(parse_expr("(q*alpha + t*beta)^3*(gamma - i*delta)", ctx))
        return str(nf), budget.units - budget.left

    plain = query()
    with ScalarTable() as table:
        assert query() == plain
        assert coeff.active_table is table
    assert not table.ids and not table.products and not table.sums
    assert not table.quotients
    # a table entered under a budget is not put in force either
    with WorkBudget(MAX_WORK), ScalarTable():
        assert coeff.active_table is None


@pytest.mark.parametrize("expr", [
    # one term and one word each, but 6545^2 and 47905^2 term products
    "(q+qb+t+1)^32*(q+qb+t+2)^32",
    "(q+qb+t+1)^64*(q+qb+t+2)^64",
    # one coefficient raised to a power: C(67, 64) = 47905 terms, and the
    # nested form's C(172, 8) and 129^3 (spans 16 in q, qb, t) both exceed it
    "(q+qb+t+1)^64",
    "((q+qb+t+1)^8)^8",
    # the same blow-up through a sum, a quotient, a negative power, a bracket
    "1/(q+qb+t+1)^32 + 1/(q+qb+t+2)^32",
    "1/(q+qb+t+1)^20/(q+qb+t+2)^20",
    "(q+qb+t+1)^-45",
    "[alpha/(q+qb+t+1)^20, beta/(q+qb+t+2)^20]",
])
def test_nf_scalar_term_budget_refuses_coefficient_blowup(capsys, expr):
    # the refused product or sum of the first one alone took 100 s; each is
    # refused within 0.4 s on one core of a 2-core Xeon
    t0 = time.perf_counter()
    assert main(["nf", "--regime", "generic", "--expr", expr]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: expression too large") and "Traceback" not in err


def test_nf_work_budget_edge(capsys):
    # (q+qb+t+1)^k charges 4*C(k+3, 4) - 3 + k units: 365 594 for k = 37
    # and 405 115 for k = 38, on either side of MAX_WORK
    assert main(["nf", "--regime", "generic", "--expr", "(q+qb+t+1)^37"]) == 0
    assert main(["nf", "--regime", "generic", "--expr", "(q+qb+t+1)^38"]) == 2
    assert capsys.readouterr().err.startswith("error: expression too large")
    # honest powers of one coefficient fit
    alph, system = nf_system(ALL_REGIMES[0])
    ctx = ParseContext(alph, ALL_REGIMES[0])
    for expr in ("((q+1)^8)^8", "(q+1)^64", "q^64*q^64", "(q-1/q)^64"):
        with WorkBudget(MAX_WORK):
            system.normal_form(parse_expr(expr, ctx))


@pytest.mark.parametrize("expr", ["delta^5*alpha^5", "(delta+alpha)^8"])
def test_nf_work_budget_bounds_the_reduction(capsys, expr):
    # accepted by every syntactic cap; they reduced for 177 s and 16 s, and
    # are refused after 0.3 s and 0.4 s on one core of a 2-core Xeon
    t0 = time.perf_counter()
    assert main(["nf", "--regime", "generic", "--expr", expr]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: expression too large") and "Traceback" not in err


def test_nf_work_budget_bounds_the_time_of_a_division(capsys):
    # 365 558 units, 9139 of them division steps over a remainder of about
    # 9.9k terms: each step costs O(log n) in the remainder (0.4 s in all),
    # where a scan of the remainder per step took 12 s
    t0 = time.perf_counter()
    assert main(["nf", "--regime", "generic",
                 "--expr", "(q+qb+t+1)^36*(q+1)/(q+1)"]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert main(["nf", "--regime", "generic", "--expr", "(q+qb+t+1)^36"]) == 0
    quotient, power = capsys.readouterr().out.splitlines()
    assert quotient == power


@pytest.mark.parametrize("regime, expr", [
    ("generic", "(q+qb+t+1)^32"),
    ("unit-circle", "delta^6*alpha^6"),
])
def test_nf_work_budget_admits_the_heaviest_honest_queries(capsys, regime, expr):
    assert main(["nf", "--regime", regime, "--expr", expr]) == 0
    assert capsys.readouterr().out.strip()


def test_nf_work_budget_leaves_no_state_behind(capsys):
    refused = "1/(q+qb+t+1)^20/(q+qb+t+2)^20"  # refused in one large charge
    assert main(["nf", "--regime", "generic", "--expr", refused]) == 2
    assert coeff.active_budget is None
    # a fresh budget for the next query, and none for library callers
    assert main(["nf", "--regime", "generic", "--expr", "(q+qb+t+1)^4"]) == 0
    alph, system = nf_system(ALL_REGIMES[0])
    p = parse_expr("delta*alpha*delta*alpha", ParseContext(alph, ALL_REGIMES[0]))
    assert system.normal_form(p).terms


def test_work_budget_charges_each_kind_of_work():
    a, b = Q + ONE, T + ONE  # two terms each: 4 coefficient products
    with WorkBudget(4):
        a * b
    with pytest.raises(WorkBudgetExceeded), WorkBudget(3):
        a * b
    # (q^3 + q^2 + q + 1)/(q + 1): an attempt of 4 + 2 terms, then two
    # division steps of 1 + 1 (the divisor's tail); the q^2 that the first
    # step cancels surfaces from the heap at no charge
    num, den = (Q ** 3 + Q * Q + Q + ONE).n, (Q + ONE).n
    with WorkBudget(10):
        exact_divide(num, den)
    with pytest.raises(WorkBudgetExceeded), WorkBudget(9):
        exact_divide(num, den)
    # delta*alpha is popped, then the two words it rewrites to
    alph, system = nf_system(UNIT_CIRCLE)
    p = parse_expr("delta*alpha", ParseContext(alph, UNIT_CIRCLE))
    with WorkBudget(3):
        system.normal_form(p)
    with pytest.raises(WorkBudgetExceeded), WorkBudget(2):
        system.normal_form(p)
    # an inner budget passes its charges on, and exit restores the outer one
    with WorkBudget(10) as outer:
        with WorkBudget(100):
            a * b
        assert coeff.active_budget is outer and outer.left == 6
        with pytest.raises(WorkBudgetExceeded):
            with WorkBudget(100):
                a * b
                a * b
    assert coeff.active_budget is None


def test_normal_form_charges_a_popped_word_by_its_length():
    # alpha^k is in normal form: one pop, charged 1 + k // 16
    alph, system = nf_system(UNIT_CIRCLE)
    ctx = ParseContext(alph, UNIT_CIRCLE)
    for k, units in ((15, 1), (16, 2), (40, 3)):
        p = parse_expr(f"alpha^{k}", ctx)
        with WorkBudget(10 ** 6) as budget:
            system.normal_form(p)
        assert budget.units - budget.left == units


@pytest.mark.parametrize("nested, flat", [
    ("((q*q+q+1)^8)^8", "(q*q+q+1)^64"),
    ("((q*q+q+1)^-8)^8", "(q*q+q+1)^-64"),
    ("((q*q+q+1)^8)^-8", "(q*q+q+1)^-64"),
])
def test_nf_nested_power_of_one_coefficient_is_bounded_by_its_spans(capsys, nested, flat):
    # C(17+8-1, 8) = 735471 terms for c^8 with c = (q*q+q+1)^8 of 17 terms,
    # but every term of c^8 has its q^(1/2) exponent in 8*[0, 32]: at most
    # 257 terms, within the budget; the flat power counts C(66, 64) = 2145
    outs = []
    for expr in (nested, flat):
        assert main(["nf", "--regime", "generic", "--expr", expr]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# hostile input: power chains, non-ASCII characters, deep nesting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expr", [
    "q^64^64", "(q+1)^64^64", "((q+1)^64)^64", "((q+1)^8)^9",
    "q^2^2^2^2^2^2^2", "(q^(3/2))^(-43)", "-(q^-1^65)",
])
def test_nf_power_chains_share_one_exponent_budget(capsys, expr):
    import time
    t0 = time.perf_counter()
    assert main(["nf", "--regime", "unit-circle", f"--expr={expr}"]) == 2
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: exponent too large") and "Traceback" not in err


def test_nf_power_chains_within_the_budget_multiply():
    alph, _ = nf_system(UNIT_CIRCLE)
    ctx = ParseContext(alph, UNIT_CIRCLE)
    assert parse_expr("q^8^8", ctx).equals(parse_expr("q^64", ctx))
    assert parse_expr("((q+1)^8)^8", ctx).equals(parse_expr("(q+1)^64", ctx))
    assert parse_expr("(q^(1/2))^4^2", ctx).equals(parse_expr("q^4", ctx))
    # a product adds exponents, which the input length already bounds
    assert parse_expr("q^64*q^64", ctx).equals(parse_expr("q^2*q^63*q^63", ctx))
    assert parse_expr("(q^0)^64^0", ctx).equals(parse_expr("1", ctx))


@pytest.mark.parametrize("expr, message, pos", [
    # a sibling factor's powers count although a later one has fewer
    ("(q^16*q)^8", "exponent too large: nested powers multiply to 128, "
                   "budget 64 in magnitude", 8),
])
def test_power_refusals_give_the_budget_and_the_power(expr, message, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(expr, CTX)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


@pytest.mark.parametrize("expr, equal", [
    pytest.param(expr, equal, id=expr) for expr, equal in [
        # words over 12 letters, once refused, through a power, a product,
        # a bracket, a sum and a product of polynomials
        ("alpha^13", "*".join(["alpha"] * 13)),
        ("(alpha*beta)^7", "*".join(["alpha*beta"] * 7)),
        ("alpha^7*alpha^6", "alpha^13"),
        ("beta*[alpha^6, beta^7]", "beta*alpha^6*beta^7 - beta^8*alpha^6"),
        ("beta + " + "*".join(["alpha"] * 13), "alpha^13 + beta"),
        ("(alpha + beta)*(alpha^6*beta^6)", "alpha^7*beta^6 + beta*alpha^6*beta^6"),
    ]
])
def test_long_words_are_accepted(expr, equal):
    with WorkBudget(MAX_WORK):
        assert parse_expr(expr, CTX).equals(parse_expr(equal, CTX))


@pytest.mark.parametrize("expr", ["alpha^12*alpha - alpha^12*alpha", "[alpha^6, alpha^7]"])
def test_long_products_that_cancel_are_accepted(capsys, expr):
    # words are not capped, so a sum of long products that cancel prints 0
    assert main(["nf", "--regime", "unit-circle", "--expr", expr]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize("expr, pos", [
    ("alpha^\u00b2", 6), ("\u00b2*alpha", 0), ("q^(1/\u00b2)", 5),
    ("x[\u00b2,1]", 2), ("h[\u0663,1]", 2), ("\u00e9", 0),
    ("alpha\u03b1", 5), ("alpha\u00a0*beta", 5),
])
def test_nf_refuses_non_ascii_characters(capsys, expr, pos):
    assert main(["nf", "--regime", "unit-circle", "--expr", expr]) == 2
    assert capsys.readouterr().err == \
        f"error: unexpected character {expr[pos]!r} (at position {pos})\n"


def test_nf_nesting_budget(capsys):
    from qmink.cli import MAX_DEPTH
    deep = "(" * 400 + "alpha" + ")" * 400
    assert main(["nf", "--regime", "unit-circle", "--expr", deep]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    for expr in ("-" * 2000 + "alpha", "star(" * 400 + "q" + ")" * 400):
        assert main(["nf", "--regime", "unit-circle", f"--expr={expr}"]) == 2
        assert "nested too deeply" in capsys.readouterr().err
    # MAX_DEPTH factors: MAX_DEPTH - 1 parentheses around one generator
    ok = "(" * (MAX_DEPTH - 1) + "alpha" + ")" * (MAX_DEPTH - 1)
    assert main(["nf", "--regime", "unit-circle", "--expr", ok]) == 0
    assert capsys.readouterr().out == "alpha\n"
    # a factor left is no longer nested: side by side, factors never count
    flat = "+".join(["(q*alpha)"] * (4 * MAX_DEPTH))
    assert main(["nf", "--regime", "unit-circle", "--expr", flat]) == 0
    assert capsys.readouterr().out == f"{4 * MAX_DEPTH}*q*alpha\n"


def test_nf_number_literal_budget(capsys):
    assert main(["nf", "--regime", "unit-circle", "--expr", "9" * 5000]) == 2
    assert capsys.readouterr().err.startswith("error: number too long: 5000 digits")
    assert main(["nf", "--regime", "unit-circle", "--expr", "9" * 1000]) == 0


@pytest.mark.parametrize("text, message, pos", [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("alpha +  ", "unexpected end of input", 9),
    ("(alpha", "expected ')', found end of input", 6),
    ("x[1,", "expected 'num', found end of input", 4),
    ("alpha \u00b2", "unexpected character '\u00b2'", 6),
    ("  " + "9" * 1001, "number too long: 1001 digits, budget 1000", 2),
])
def test_tokenizer_edge_errors(text, message, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, CTX)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def _triples(text):
    """The (kind, value, pos) tokens of text, the eof sentinel included."""
    from qmink.cli import _scan
    return list(zip(*_scan(text)))


def test_tokenizer_trailing_whitespace():
    assert _triples("alpha  \t\n") == [("name", "alpha", 0), ("eof", "", 9)]
    assert parse_expr(" alpha*beta  ", CTX).equals(w("alpha", "beta"))


def _stored(s: Scalar) -> tuple:
    return ([(m, repr(c)) for m, c in s.num.terms.items()],
            [(m, repr(c)) for m, c in s.den.terms.items()])


def test_atoms_are_specialized_once_per_regime():
    from qmink.cli import _SCALAR_ATOMS
    for regime in ALL_REGIMES:
        ctx = ParseContext(nf_system(regime)[0], regime)
        for name, atom in _SCALAR_ATOMS.items():
            got = parse_expr(name, ctx).terms[()]
            assert _stored(got) == _stored(atom.specialize(regime))
            assert parse_expr(name, ctx).terms[()] is got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 40))
def test_literal_is_stored_as_from_poly(n):
    got = parse_expr(str(n), CTX).terms.get((), ZERO)
    want = Scalar.from_poly(LaurentPoly.const(GaussianRational.of(n)))
    assert _stored(got) == _stored(want)


def _reference_scan(text):
    """The character-class scanner the regex replaced, for ASCII input."""
    toks, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < len(text) and text[j] == "'":
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()[],'":
            toks.append((ch, ch, i))
            i += 1
        else:
            return toks, i
    return toks, None


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=30))
def test_scanner_matches_the_character_class_scanner_on_ascii(text):
    want, bad = _reference_scan(text)
    if bad is None:
        assert _triples(text) == want + [("eof", "", len(text))]
    else:
        with pytest.raises(ExprSyntaxError, match=f"at position {bad}"):
            _triples(text)


# the characters of the ASCII grammar, whitespace included
_GRAMMAR_CHARS = string.ascii_letters + string.digits + "_'+-*/^()[], \t\n"


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(_GRAMMAR_CHARS), max_size=20),
       st.characters(min_codepoint=128), st.text(max_size=10))
def test_scanner_refuses_the_first_non_ascii_character_where_it_stands(
        prefix, ch, suffix):
    with pytest.raises(ExprSyntaxError) as err:
        _triples(prefix + ch + suffix)
    assert str(err.value) == \
        f"unexpected character {ch!r} (at position {len(prefix)})"
    assert err.value.pos == len(prefix)

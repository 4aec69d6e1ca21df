"""Fuzz the ``qmink nf`` grammar: any input exits 0 or 2, never a traceback.

Expressions are built from the grammar's own tokens mixed with hostile
ones: non-ASCII digits, letters and spaces, deep nesting and long ``^``
chains.  Sizes stay small (a handful of generators, exponents of at most
three outside the hostile chains).  Where the input is known to break a
budget or to hold a character outside ASCII, the test also asserts the
refusal and its message (a power chain may be refused by the word-length
budget before the exponent budget).

Every accepted query runs to its normal form: the work budget that
``qmink nf`` parses and reduces under refuses a slow reduction with exit
2, as it refuses the generic (delta+alpha)^8, which took 16 s to reduce.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from qmink.cli import MAX_DEPTH, MAX_EXPONENT, main

REGIMES = ("generic", "unit-circle", "real-q", "case2+", "case2-")

GENERATORS = ("alpha", "beta", "gamma", "delta", "alpha'", "x[1,2]",
              "u[2,1]", "ub[1,1]", "h[0,3]")
SCALARS = ("q", "qb", "t", "i", "2", "3", "(1/2)", "q^(1/2)", "t^(-3/2)")
PUNCT = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",", "'", " ",
         "star(", "^2", "^3", "^-1", "^0")
# non-ASCII digits (superscript two, Arabic-Indic three, fullwidth one),
# letters (Greek alpha, e acute) and spaces (no-break, ideographic)
HOSTILE = ("\u00b2", "\u0663", "\uff11", "\u03b1", "\u00e9", "\u00a0", "\u3000")


def nf(regime: str, expr: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["nf", "--regime", regime, f"--expr={expr}"])
    return code, err.getvalue()


def assert_clean(code: int, err: str):
    assert code in (0, 2), err
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error: ")


token_soup = st.lists(st.sampled_from(GENERATORS + SCALARS + PUNCT + HOSTILE),
                      max_size=10).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REGIMES), token_soup)
def test_any_token_string_exits_0_or_2(regime, expr):
    assert_clean(*nf(regime, expr))


# a valid query with one ASCII digit replaced by a non-ASCII one
DIGIT_SLOTS = ("alpha^{}", "{}*alpha", "q^(1/{})", "q^({}/2)*beta",
               "x[{},1]", "h[{},1]", "u[1,{}]*delta", "alpha + {}")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REGIMES), st.sampled_from(DIGIT_SLOTS),
       st.sampled_from(HOSTILE))
def test_non_ascii_characters_are_refused_where_they_stand(regime, slot, ch):
    expr = slot.format(ch)
    code, err = nf(regime, expr)
    assert_clean(code, err)
    assert code == 2
    assert f"unexpected character {ch!r} (at position {expr.index(ch)})" in err


nesting = st.integers(1, 8 * MAX_DEPTH).flatmap(
    lambda n: st.lists(st.sampled_from(("(", "-", "star(", "[", "((")),
                       min_size=n, max_size=n))


def _nest(openers: list[str], inner: str) -> str:
    """Wrap inner in the openers, outermost first, closing each one."""
    out = inner
    for op in reversed(openers):
        if op == "[":
            out = f"[{out}, q]"  # a scalar partner keeps one word
        elif op == "-":
            out = f"-{out}"
        else:
            out = f"{op}{out}{')' * op.count('(')}"
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REGIMES), nesting, st.sampled_from(("alpha", "q", "2")))
def test_deep_nesting_is_refused_or_reduced(regime, openers, inner):
    expr = _nest(openers, inner)
    code, err = nf(regime, expr)
    assert_clean(code, err)
    # every parenthesis or bracket opens one more factor level (a minus
    # may open none, as the sign of a sum); the parser descends through
    # them before it computes anything, so the depth budget refuses first
    levels = sum(op.count("(") + op.count("[") for op in openers)
    if levels >= MAX_DEPTH:
        assert code == 2 and "nested too deeply" in err


exponents = st.lists(st.sampled_from((0, 1, 2, 3, 8, 64, 65, 4096)),
                     min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REGIMES),
       st.sampled_from(("q", "(q+1)", "(q+t)", "alpha", "(alpha+beta)", "i", "2")),
       exponents, exponents)
def test_power_chains_stay_within_the_exponent_budget(regime, atom, inner, outer):
    def chain(exps):
        return "".join(f"^{e}" for e in exps)

    expr = f"({atom}{chain(inner)}){chain(outer)}"
    code, err = nf(regime, expr)
    assert_clean(code, err)
    magnitude = 1
    for e in inner + outer:
        magnitude *= e
        if magnitude > MAX_EXPONENT:
            assert code == 2 and "too large" in err
            break

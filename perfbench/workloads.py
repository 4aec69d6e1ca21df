"""Seeded inputs for the two workloads.

Everything here is plain data made from the seed with `random.Random`, so
the same seed always gives the same queries and sample points.  Nothing in
this module imports qmink: the program only ever sees the generated inputs.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random

REGIMES = ("generic", "unit-circle", "real-q", "case2+", "case2-")
WORKLOADS = ("verify-all", "nf-stream")

NF_QUERIES = 10000         # distinct queries per nf-stream pass
NUMERIC_SAMPLES = 6        # float-mirror sample points per regime per verify-all pass

_X = ("alpha", "beta", "gamma", "delta")
_SYM = tuple(f"{s}[{a},{b}]" for s in ("u", "ub") for a in (1, 2) for b in (1, 2))
_H = tuple(f"h[{j},{k}]" for j in range(4) for k in range(4))
_COEFFS = ("q", "t", "qb", "i", "2", "(1/2)", "(3/4)", "q^(1/2)", "t^(-1/2)",
           "qb^(3/2)", "(q - 1/q)", "i*t", "(2/3)*q^-1", "(1 + i)")


def _letters(regime: str, primes: bool) -> tuple[str, ...]:
    out = _X
    if primes and regime == "unit-circle":
        out += tuple(x + "'" for x in _X)
    return out


def _sym_letters(regime: str) -> tuple[str, ...]:
    return _SYM + (_H if regime != "generic" else ())


def _word(rng: random.Random, letters, lo: int, hi: int) -> list[str]:
    return [rng.choice(letters) for _ in range(rng.randint(lo, hi))]


def _term(rng: random.Random, regime: str, degree: int = 3) -> str:
    word = "*".join(_word(rng, _letters(regime, True), 1, degree))
    return f"{rng.choice(_COEFFS)}*{word}"


def _sum(rng: random.Random, regime: str, lo: int, hi: int,
         degree: int = 3) -> str:
    terms = [_term(rng, regime, degree) for _ in range(rng.randint(lo, hi))]
    out = terms[0]
    for t in terms[1:]:
        out += rng.choice((" + ", " - ")) + t
    return out


KINDS = ("product", "mixed", "sum", "power")


def _query(rng: random.Random, regime: str, kind: str, level: int) -> dict:
    """One nf query: a product of factors, so it can be split for the check.

    The four classes: products of degree 2-6 in alpha..delta; mixed words
    of length 2-5 with u/ub/h letters (and primed letters on the unit
    circle); sums of 1-3 terms with scalar coefficients; sums of two terms
    raised to a small power (a square of terms of degree 1-2, or a cube of
    terms of degree 1), so that no query has a word longer than degree 6.
    ``level`` picks the degree, length, term count or power in turn.
    """
    if kind == "product":
        factors = _word(rng, _X, 2 + level % 5, 2 + level % 5)
    elif kind == "mixed":
        n = 2 + level % 4
        factors = _word(rng, _sym_letters(regime) + _letters(regime, True), n, n)
        factors[rng.randrange(n)] = rng.choice(_sym_letters(regime))
        factors[rng.randrange(n)] = rng.choice(_letters(regime, True))
    elif kind == "sum":
        terms = 1 + level % 3
        factors = [f"({_sum(rng, regime, terms, terms)})"]
    else:
        power = 2 + level % 2
        factors = [f"({_sum(rng, regime, 2, 2, 4 - power)})^{power}"]
    if len(factors) == 1:
        # a single factor is checked against a seeded right co-factor
        cofactor = rng.choice(_letters(regime, True))
        split = 1
    else:
        cofactor = None
        split = rng.randint(1, len(factors) - 1)
    return {"regime": regime, "kind": kind, "factors": factors,
            "split": split, "cofactor": cofactor}


def nf_queries(seed: int, n: int = NF_QUERIES) -> list[dict]:
    """A stratified mix: every (regime, class, size) cell gets the same share
    of the n queries, so seeds differ in the words, not in the mix; the
    order is shuffled."""
    rng = random.Random(f"nf-stream:{seed}")
    cells = len(REGIMES) * len(KINDS)
    out = [_query(rng, REGIMES[i % len(REGIMES)], KINDS[(i // len(REGIMES)) % len(KINDS)],
                  i // cells)
           for i in range(n)]
    rng.shuffle(out)
    return out


def numeric_points(seed: int, per_regime: int = NUMERIC_SAMPLES) -> list[dict]:
    """Sample points under the domain rules of `qmink eval`.

    Real positive q for real-q and case2; |q| = 1 away from q = +-i on the
    unit circle; independent q and qb off both in the generic regime.
    """
    rng = random.Random(f"verify-all:{seed}")
    out = []
    for regime in REGIMES:
        k = 0
        while k < per_regime:
            t = 0.5 + 1.5 * rng.random()
            qb = None
            if regime in ("real-q", "case2+", "case2-"):
                q = complex(0.5 + 1.5 * rng.random())
            elif regime == "unit-circle":
                theta = rng.uniform(0.08, cmath.pi - 0.08)
                if abs(theta - cmath.pi / 2) < 0.1:
                    continue
                q = cmath.exp(1j * theta)
            else:
                q = cmath.exp(1j * rng.uniform(0.1, 3.0)) * (0.5 + rng.random())
                qb = cmath.exp(1j * rng.uniform(0.1, 3.0)) * (0.5 + rng.random())
            out.append({"regime": regime, "q": [q.real, q.imag], "t": t,
                        "qb": None if qb is None else [qb.real, qb.imag]})
            k += 1
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """The whole input of one workload pass, as JSON-ready data."""
    if workload == "verify-all":
        # the suites are fixed; the seed picks the float mirror's points
        return {"regimes": list(REGIMES), "points": numeric_points(seed)}
    if workload == "nf-stream":
        return {"queries": nf_queries(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def input_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def query_text(query: dict) -> str:
    return "*".join(query["factors"])

"""Noncommutative polynomials and oriented quadratic rewriting.

Words over a declared, totally ordered generator alphabet; polynomials
are finite scalar-weighted sums of words.  Rules have a length-2 left
side and a strictly smaller right side in degree-lex order, which makes
every reduction terminate.  Local confluence is checked by resolving all
length-3 overlap words both ways (the Diamond Lemma criterion; with
quadratic left sides there are no inclusion ambiguities).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from . import coeff
from .coeff import GENERIC, ONE, Regime, Scalar, ZERO
from .tensor import row_echelon

__all__ = [
    "Generator", "Alphabet", "NCPoly", "RewriteRule", "RewriteSystem",
    "Obstruction", "orient", "NotOrientableError", "UnknownGeneratorError",
]


class NotOrientableError(ValueError):
    """A relation cannot be turned into a quadratic rewrite rule."""


class UnknownGeneratorError(KeyError):
    """A generator name is not part of the alphabet."""


@dataclass(frozen=True)
class Generator:
    """Named generator with the name of its star partner."""

    name: str
    star: str


class Alphabet:
    """Ordered generator list; the list order is the total ordering."""

    def __init__(self, gens: list[Generator]):
        self.gens = list(gens)
        self._index = {g.name: k for k, g in enumerate(self.gens)}
        if len(self._index) != len(self.gens):
            raise ValueError("duplicate generator names")
        self._star = []
        for g in self.gens:
            if g.star not in self._index:
                raise ValueError(f"star partner {g.star} of {g.name} not declared")
            self._star.append(self._index[g.star])
        for k, s in enumerate(self._star):
            if self._star[s] != k:
                raise ValueError("star is not an involution on the alphabet")

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def star_index(self, k: int) -> int:
        return self._star[k]

    def name(self, k: int) -> str:
        return self.gens[k].name


Word = tuple[int, ...]


def _word_key(w: Word):
    return (len(w), w)


# bytes(w).translate(_DESCENDING) orders words of one length in reverse
# lexicographic order, so a min-heap of (-len(w), that key) pops the
# degree-lex largest word first; it needs letters below 256
_DESCENDING = bytes(range(255, -1, -1))
MAX_LETTERS = len(_DESCENDING)


class NCPoly:
    """Finite map word -> nonzero Scalar over a fixed alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: dict[Word, Scalar]):
        self.alphabet = alphabet
        self.terms = terms

    @staticmethod
    def zero(alphabet: Alphabet) -> "NCPoly":
        return NCPoly(alphabet, {})

    @staticmethod
    def word(alphabet: Alphabet, names, coeff: Scalar = ONE) -> "NCPoly":
        w = tuple(alphabet.index(n) if isinstance(n, str) else n for n in names)
        if coeff.is_zero():
            return NCPoly(alphabet, {})
        return NCPoly(alphabet, {w: coeff})

    @staticmethod
    def scalar(alphabet: Alphabet, coeff: Scalar) -> "NCPoly":
        return NCPoly.word(alphabet, (), coeff)

    @staticmethod
    def sum(alphabet: Alphabet, polys) -> "NCPoly":
        """The sum of polys in one pass.  Each word's coefficients are added
        in the same order, and zero sums deleted in the same way, as by a
        chain of ``+`` from zero, so the stored terms are the same."""
        out: dict[Word, Scalar] = {}
        for p in polys:
            for w, c in p.terms.items():
                s = out.get(w)
                if s is None:
                    out[w] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[w]
                    else:
                        out[w] = s
        return NCPoly(alphabet, out)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Word]:
        return sorted(self.terms, key=_word_key)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        return NCPoly(self.alphabet, out)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """The product; a one-term factor takes a one-pass path.

        With one factor a single term, the words of the product are distinct
        (a common prefix or suffix on distinct words), and a product of two
        stored, hence nonzero, coefficients is nonzero: the general loop
        would build exactly this dict, in this order.
        """
        a, b = self.terms, other.terms
        if len(a) == 1:
            (w1, c1), = a.items()
            return NCPoly(self.alphabet, {w1 + w2: c1 * c2 for w2, c2 in b.items()})
        if len(b) == 1:
            (w2, c2), = b.items()
            return NCPoly(self.alphabet, {w1 + w2: c1 * c2 for w1, c1 in a.items()})
        return _mul_general(self, other)

    def scale(self, c: Scalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly(self.alphabet, {})
        return NCPoly(self.alphabet, {w: v * c for w, v in self.terms.items()})

    def star(self, regime: Regime = GENERIC) -> "NCPoly":
        """Anti-automorphism: reverse words, star generators and scalars."""
        alph = self.alphabet
        out: dict[Word, Scalar] = {}
        for w, c in self.terms.items():
            w2 = tuple(alph.star_index(k) for k in reversed(w))
            c2 = c.star(regime)
            s = out.get(w2)
            out[w2] = c2 if s is None else s + c2
        return NCPoly(alph, {w: c for w, c in out.items() if not c.is_zero()})

    def equals(self, other: "NCPoly") -> bool:
        return (self - other).is_zero()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        alph = self.alphabet
        parts = []
        for w in self.support():
            c = self.terms[w]
            ws = "*".join(alph.name(k) for k in w) if w else "1"
            cs = str(c)
            neg = cs.startswith("-") and "+" not in cs and " - " not in cs[1:]
            if neg:
                cs = cs[1:]
            if cs == "1" and w:
                body = ws
            else:
                if any(ch in cs for ch in "+-/* ") and not (
                        cs.replace("/", "").replace("*", "").isalnum()):
                    cs = f"({cs})"
                body = f"{cs}*{ws}" if w else cs
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)


def _mul_general(a: NCPoly, b: NCPoly) -> NCPoly:
    """a*b by the full double loop, merging and cancelling like terms.

    ``NCPoly.__mul__`` uses it when both factors have two or more terms;
    the tests use it as the reference for the one-term paths.
    """
    out: dict[Word, Scalar] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            c = c1 * c2
            s = out.get(w)
            if s is None:
                if not c.is_zero():
                    out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
    return NCPoly(a.alphabet, out)


@dataclass(frozen=True)
class RewriteRule:
    """Oriented quadratic rule lhs -> rhs with rhs strictly smaller."""

    lhs: Word
    rhs: NCPoly

    def __post_init__(self):
        if len(self.lhs) != 2:
            raise NotOrientableError("rule left sides must be length-2 words")
        for w in self.rhs.terms:
            if _word_key(w) >= _word_key(self.lhs):
                raise NotOrientableError(
                    "rule right side is not smaller than its left side")


@dataclass(frozen=True)
class Obstruction:
    """Unresolvable overlap: the two reductions of word differ by diff."""

    rule_left: Word
    rule_right: Word
    word: Word
    diff: NCPoly


def _wait(waiting: dict, heap: list, w: Word, pos: int, c: Scalar) -> None:
    """Puts w in ``RewriteSystem.normal_form``'s waiting words."""
    e = waiting[w] = [-len(w), bytes(w).translate(_DESCENDING), w, pos, c]
    heappush(heap, e)


class RewriteSystem:
    """Ordered generators plus oriented quadratic rules."""

    def __init__(self, alphabet: Alphabet, rules: list[RewriteRule],
                 regime: Regime = GENERIC):
        if len(alphabet) > MAX_LETTERS:
            raise ValueError(
                f"an alphabet of {len(alphabet)} generators: normal_form orders "
                f"words by byte keys, so it takes at most {MAX_LETTERS} generators")
        self.alphabet = alphabet
        self.regime = regime
        self.rules: dict[Word, NCPoly] = {}
        for r in rules:
            if r.lhs in self.rules:
                raise NotOrientableError(f"duplicate rule left side {r.lhs}")
            # normal_form relies on right sides without zero coefficients
            self.rules[r.lhs] = NCPoly(alphabet, {w: c for w, c in r.rhs.terms.items()
                                                  if not c.is_zero()})

    # -- reduction ----------------------------------------------------------

    def apply_rule_at(self, w: Word, pos: int, coeff: Scalar = ONE) -> NCPoly:
        """One rewrite step at a stated position (for scripted reductions)."""
        rhs = self.rules[(w[pos], w[pos + 1])]
        out = NCPoly.zero(self.alphabet)
        for w2, c2 in rhs.terms.items():
            out = out + NCPoly(self.alphabet,
                               {w[:pos] + w2 + w[pos + 2:]: coeff * c2})
        return out

    def normal_form(self, p: NCPoly) -> NCPoly:
        """Reduce until no rule left side occurs; leftmost position first.

        Termination is structural: each step replaces a word by strictly
        smaller words in degree-lex order.  So when the degree-lex largest
        reducible word is always reduced first, every contribution to a
        word has arrived before it is reduced, and it never arrives again:
        each word is reduced once, with the sum of its contributions, as in
        Bergman's diamond lemma.  The other reducible words wait in a heap.
        A reducible word is scanned when it first arrives, later arrivals
        being added to its waiting sum; an irreducible one is scanned at
        each arrival and added to the output.  The first
        reducible word a step writes is reduced next, in place, unless a
        larger word waits, so a chain of one-term rewrites keeps no heap.

        The map is linear in every system, confluent or not: a word's
        reduction is the sum of its contributions times the reduction of
        the word, so ``normal_form(a p1 + b p2)`` has the value ``a
        normal_form(p1) + b normal_form(p2)``, and sums that cancel are
        dropped.  The stored forms depend on the order of the sums, as a
        Scalar has no canonical form.

        A word rewritten at ``pos`` keeps its prefix ``w[:pos]``, in which
        no left side occurs, so each new word is scanned from ``pos - 1``.
        Stored coefficients and rule right sides (filtered in ``__init__``)
        are nonzero, so their products are nonzero in the field and are
        taken without a zero test.  Under a ``coeff.WorkBudget`` a scan
        costs ``1 + len(w) // 16`` and a reduction half a unit per term of
        the word's coefficient and of its rule: merged coefficients of long
        words grow to hundreds of terms, and a product by a one-term rule
        coefficient is charged nowhere else.
        """
        rules = self.rules
        budget = coeff.active_budget
        out: dict[Word, Scalar] = {}
        # A waiting word's entry is [-len(w), key, w, pos, c]: the first two
        # order the min-heap degree-lex largest first, pos is the word's
        # leftmost left side and c the sum of its contributions, None when
        # they cancel.  A popped entry stays in waiting: its word never
        # arrives again.
        waiting: dict[Word, list] = {}
        heap: list = []
        # nw, npos, nc: the first reducible word of a step; the others wait
        nw = None
        for w3, c3 in p.terms.items():  # distinct words
            if c3.is_zero():
                continue
            if budget is not None:  # a scan costs time in its word's length
                budget.charge(1 + len(w3) // 16)
            for i in range(len(w3) - 1):
                if (w3[i], w3[i + 1]) in rules:
                    if nw is None:
                        nw, npos, nc = w3, i, c3
                    else:
                        _wait(waiting, heap, w3, i, c3)
                    break
            else:
                out[w3] = c3
        while True:
            if nw is not None and (not heap or (len(nw), nw) > (-heap[0][0], heap[0][2])):
                w, pos, c = nw, npos, nc
            else:
                if nw is not None:
                    _wait(waiting, heap, nw, npos, nc)
                while True:
                    if not heap:
                        return NCPoly(p.alphabet, out)
                    _, _, w, pos, c = heappop(heap)
                    if c is not None:
                        break
            nw = None
            pre, post = w[:pos], w[pos + 2:]
            start = pos - 1 if pos else 0
            rhs = rules[(w[pos], w[pos + 1])].terms
            if budget is not None:  # c times each rule coefficient
                budget.charge(len(rhs) * c.num_terms() // 2)
            for w2, c2 in rhs.items():
                w3 = pre + w2 + post
                c3 = c * c2
                if heap:
                    e = waiting.get(w3)
                    if e is not None:
                        s = e[4]
                        if s is not None:
                            c3 = s + c3
                        e[4] = None if c3.is_zero() else c3
                        continue
                if budget is not None:
                    budget.charge(1 + len(w3) // 16)
                for i in range(start, len(w3) - 1):
                    if (w3[i], w3[i + 1]) in rules:
                        if nw is None:
                            nw, npos, nc = w3, i, c3
                        else:
                            _wait(waiting, heap, w3, i, c3)
                        break
                else:
                    s = out.get(w3)
                    if s is None:
                        out[w3] = c3
                    else:
                        s = s + c3
                        if s.is_zero():
                            del out[w3]
                        else:
                            out[w3] = s

    # -- confluence ----------------------------------------------------------

    def check_confluence(self) -> list[Obstruction]:
        """Resolve every overlap u.v / v.w both ways; collect differences."""
        out = []
        by_first: dict[int, list[Word]] = {}
        for lhs in self.rules:
            by_first.setdefault(lhs[0], []).append(lhs)
        for lhs1 in sorted(self.rules):
            for lhs2 in sorted(by_first.get(lhs1[1], ())):
                word = (lhs1[0], lhs1[1], lhs2[1])
                left = self.normal_form(
                    self.rules[lhs1] * NCPoly.word(self.alphabet, (lhs2[1],)))
                right = self.normal_form(
                    NCPoly.word(self.alphabet, (lhs1[0],)) * self.rules[lhs2])
                diff = left - right
                if not diff.is_zero():
                    out.append(Obstruction(lhs1, lhs2, word, diff))
        return out

    def count_normal_words(self, degree: int) -> int:
        """Number of words of the given degree avoiding every rule lhs."""
        if degree == 0:
            return 1
        n = len(self.alphabet)
        counts = [1] * n
        for _ in range(degree - 1):
            nxt = [0] * n
            for j in range(n):
                nxt[j] = sum(counts[i] for i in range(n)
                             if (i, j) not in self.rules)
            counts = nxt
        return sum(counts)

    def is_star_closed(self) -> bool:
        """Star of each defining relation reduces to zero."""
        for lhs, rhs in self.rules.items():
            rel = NCPoly(self.alphabet, {lhs: ONE}) - rhs
            if not self.normal_form(rel.star(self.regime)).is_zero():
                return False
        return True


def orient(relations: list[NCPoly], alphabet: Alphabet,
           regime: Regime = GENERIC) -> RewriteSystem:
    """Orient quadratic relations into rules along the alphabet order.

    The relations' reduced row echelon form, with the words as columns in
    decreasing degree-lex order, puts each row's leading word (its degree-lex
    maximum) at its pivot, and no other row contains it; the row with
    leading word u gives the rule u -> -(rest of the row).
    """
    words = sorted({w for rel in relations for w in rel.terms},
                   key=_word_key, reverse=True)
    rows, pivots = row_echelon([[rel.terms.get(w, ZERO) for w in words]
                                for rel in relations])
    rules = []
    for row, p in zip(rows, pivots):
        lead = words[p]
        if len(lead) != 2:
            raise NotOrientableError(
                f"leading word {lead} of an eliminated relation is not quadratic")
        rhs = NCPoly(alphabet, {w: -c for w, c in zip(words[p + 1:], row[p + 1:])
                                if not c.is_zero()})
        rules.append(RewriteRule(lead, rhs))
    return RewriteSystem(alphabet, rules, regime)

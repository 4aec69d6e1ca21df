"""Out-of-package tracing: spans at layer boundaries and counts of hot calls.

The tracer wraps public functions of the qmink modules from the outside.
A function can be reachable under several names (``intertwiners`` and
``algebras`` do ``from qmink.tensor import compose, place``, and
``cli.SUITES`` holds the suite functions), so installing a wrapper rebinds
every module attribute and every module-level dict value that refers to
the original object.  ``uninstall`` puts every original back.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent) for coarse boundaries;
  a span's self time is its duration minus the time its children cover;
* count wrappers only bump a counter; they are meant for the hot ``coeff``
  methods and run in a pass of their own, so their cost never lands in a
  span's self time.

Extra numbers the tracer derives from arguments (nonzero products of a
``compose``, nonzero entries of a ``to_numpy``) are computed with the
original, unwrapped ``Scalar.is_zero``, so they are never counted, and
their time is booked to a ``tracer`` pseudo-span that is excluded from
every layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric stem, module, attribute path) of every span boundary
SUITE_NAMES = ("moves", "braid", "spectral", "compat", "crossed",
               "pbw", "delta", "length", "classical")
SPAN_TARGETS = (
    ("tensor.compose", "qmink.tensor", "compose"),
    ("tensor.place", "qmink.tensor", "place"),
    ("tensor.to_numpy", "qmink.tensor", "TMap.to_numpy"),
    ("tensor.row_echelon", "qmink.tensor", "row_echelon"),
    ("rewrite.normal_form", "qmink.rewrite", "RewriteSystem.normal_form"),
    ("rewrite.check_confluence", "qmink.rewrite", "RewriteSystem.check_confluence"),
    ("cli.parse_expr", "qmink.cli", "parse_expr"),
    ("intertwiners.operator_build", "qmink.intertwiners", "OperatorSource._build"),
    ("algebras.minkowski_system", "qmink.algebras", "minkowski_system"),
    ("algebras.full_system", "qmink.algebras", "full_system"),
    ("algebras.braided_delta_check", "qmink.algebras", "braided_delta_check"),
) + tuple(
    (f"suite.{name}",
     "qmink.intertwiners" if name in ("moves", "braid", "spectral", "compat", "crossed")
     else "qmink.algebras",
     f"suite_{name}")
    for name in SUITE_NAMES)

# counted without a span: cheap enough to ride along in the span pass
SPAN_PASS_COUNTS = (
    ("intertwiners.operator_get", "qmink.intertwiners", "OperatorSource.get"),
)

# the hot coefficient methods, counted in a pass of their own
COEFF_COUNTS = (
    ("coeff.scalar_mul", "qmink.coeff", "Scalar.__mul__"),
    ("coeff.scalar_add", "qmink.coeff", "Scalar.__add__"),
    ("coeff.gaussian_mul", "qmink.coeff", "GaussianRational.__mul__"),
    ("coeff.scalar_is_zero", "qmink.coeff", "Scalar.is_zero"),
    ("coeff.exact_divide", "qmink.coeff", "exact_divide"),
    ("coeff.scalar_eval", "qmink.coeff", "Scalar.eval"),
)

TRACER_SPAN = "tracer"


def resolve(module: str, path: str):
    """(owner, attribute name, original object) for a dotted target."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Installs wrappers into the loaded qmink modules; keeps data in memory."""

    def __init__(self, spans: bool = True, coeff_counts: bool = False):
        self.spans: list[list] = []          # [name, start, end, parent, payload]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.operator_pairs: set[tuple[int, str]] = set()
        self._restore: list = []
        self.records_spans = spans
        self.counts_coeff = coeff_counts
        self._is_zero = sys.modules["qmink.coeff"].Scalar.is_zero

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        if self.records_spans:
            for name, module, path in SPAN_TARGETS:
                self._wrap(name, module, path, self._span_wrapper)
            for name, module, path in SPAN_PASS_COUNTS:
                self._wrap(name, module, path, self._count_wrapper)
        if self.counts_coeff:
            for name, module, path in COEFF_COUNTS:
                self._wrap(name, module, path, self._count_wrapper)
        return self

    def uninstall(self) -> None:
        for kind, holder, key, original in reversed(self._restore):
            if kind == "attr":
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._restore.clear()

    def _wrap(self, name: str, module: str, path: str, factory) -> None:
        owner, attr, original = resolve(module, path)
        wrapper = functools.wraps(original)(factory(name, original, _AFTER.get(name)))
        self.calls.setdefault(name, 0)
        if isinstance(owner, type):
            self._restore.append(("attr", owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind every alias in every qmink module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmink" or mod_name.startswith("qmink.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append(("attr", mod, key, original))
                    setattr(mod, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._restore.append(("item", value, k, original))
                            value[k] = wrapper

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after):
        calls, clock = self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                t0 = clock()
                self.spans[idx][4] = after(self, args, out)
                self.spans.append([TRACER_SPAN, t0, clock(),
                                   self.stack[-1] if self.stack else -1, None])
            return out
        return wrapper

    def _count_wrapper(self, name: str, fn, after):
        calls = self.calls
        if after is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                after(self, args, out)
                return out
        return wrapper

    # -- spans, also opened by the benchmark around each operation -----------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus derived numbers."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        outermost = _outermost_suites(self.spans)
        out: dict[str, dict] = {}
        unattributed = 0.0
        for k, (name, start, end, parent, payload) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "outer_s": 0.0, "extra": {}})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered[k]
            if payload:
                for key, v in payload.items():
                    row["extra"][key] = row["extra"].get(key, 0) + v
            if outermost[k]:
                row["outer_s"] += end - start
                unattributed += end - start - (payload or {}).get("checks_s", 0.0)
        return {"spans": out, "calls": dict(self.calls),
                "operator_pairs": len(self.operator_pairs),
                "suites_unattributed_s": unattributed,
                "span_count": len(self.spans)}

    def count_nonzero(self, rows) -> int:
        iz = self._is_zero
        return sum(1 for row in rows for v in row if not iz(v))


def _outermost_suites(spans) -> list[bool]:
    """True for suite spans with no suite span among their ancestors."""
    out = []
    inside = [False] * len(spans)
    for k, (name, _, _, parent, _) in enumerate(spans):
        is_suite = name.startswith("suite.")
        above = inside[parent] if parent >= 0 else False
        inside[k] = above or is_suite
        out.append(is_suite and not above)
    return out


# -- derived numbers, computed after the wrapped call returns ---------------

def _after_compose(tracer: Tracer, args, out) -> dict:
    f, g = args[0], args[1]
    iz = tracer._is_zero
    width = len(g.entries)
    col_f = [0] * width
    for row in f.entries:
        for k, v in enumerate(row):
            if not iz(v):
                col_f[k] += 1
    nonzero = 0
    for k, row in enumerate(g.entries):
        if col_f[k]:
            nonzero += col_f[k] * sum(1 for v in row if not iz(v))
    dense = (1 << len(f.out_sig)) * (1 << len(f.in_sig)) * (1 << len(g.in_sig))
    return {"dense_products": dense, "nonzero_products": nonzero}


def _after_to_numpy(tracer: Tracer, args, out) -> dict:
    m = args[0]
    return {"nonzero": tracer.count_nonzero(m.entries),
            "entries": len(m.entries) * len(m.entries[0])}


def _after_normal_form(tracer: Tracer, args, out) -> dict:
    return {"terms_out": len(out.terms)}


def _after_suite(tracer: Tracer, args, out) -> dict:
    return {"checks_s": sum(r.elapsed_ms for r in out) / 1e3}


def _after_exact_divide(tracer: Tracer, args, out) -> None:
    if out is not None:
        tracer.calls["coeff.exact_divide.hits"] = \
            tracer.calls.get("coeff.exact_divide.hits", 0) + 1


def _after_operator_get(tracer: Tracer, args, out) -> None:
    tracer.operator_pairs.add((id(args[0]), args[1]))


_AFTER = {"tensor.compose": _after_compose,
          "tensor.to_numpy": _after_to_numpy,
          "rewrite.normal_form": _after_normal_form,
          "coeff.exact_divide": _after_exact_divide,
          "intertwiners.operator_get": _after_operator_get}
_AFTER.update({f"suite.{name}": _after_suite for name in SUITE_NAMES})

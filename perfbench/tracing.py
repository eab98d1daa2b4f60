"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the oscform modules with
wrappers, in every module namespace that binds them (a name imported with
`from .exactla import rank` is patched in the importing module too), and
`uninstall()` puts the originals back.  Each wrapped call records a span
(name, start, end, parent span, task id) kept in memory; self time is a
span's duration minus the time its child spans cover.  The hottest
polynomial methods only bump counters and a total time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _field_tag(matrix) -> str:
    return "qu" if type(matrix.field).__name__ == "FunctionField" else "q"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []      # [name, child_seconds, span index]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.task_id = 0
        self._plan: list[tuple] = []     # (owner, attribute, original, wrapper)

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, after=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [span_name, 0.0, len(tracer.spans)]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[span_name] += duration - frame[1]
                tracer.total_s[span_name] += duration
                tracer.calls[span_name] += 1
                tracer.spans[frame[2]] = (
                    span_name, start, end,
                    parent[2] if parent is not None else None, tracer.task_id)
                if parent is not None and span_name.endswith(".rref") \
                        and parent[0] in ("exactla.subspace", "fundforms.linear_system"):
                    tracer.counts["exactla.recanon.calls"] += 1
                    tracer.total_s["exactla.recanon"] += duration
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn, work=None):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            tracer.total_s[name] += perf_counter() - start
            tracer.counts[name + ".calls"] += 1
            if work is not None:
                work(args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def task(self, task_id: int, run):
        """Run one task as a root span."""
        self.task_id = task_id
        return self._span("task", run)()

    # -- observations ---------------------------------------------------

    def _entry_sizes(self, args, result) -> None:
        """Largest entry of a returned basis: degree and terms over Q(u),
        bits over Q."""
        rows = getattr(result, "basis", None)
        if rows is None:
            rows = result.matrix.rows[: result.rank]
        for row in rows:
            for e in row:
                num = getattr(e, "numerator", None)
                if hasattr(num, "terms"):
                    for p in (num, e.denominator):
                        if p.terms:
                            self._max("exactla.qu.max_degree", p.total_degree())
                            self._max("exactla.qu.max_terms", len(p.terms))
                elif e:
                    self._max("exactla.q.max_bits",
                              max(e.numerator.bit_length(), e.denominator.bit_length()))

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- patching ---------------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, wrapper_of) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_of(original)
        for name, module in list(sys.modules.items()):
            if name == "oscform" or name.startswith("oscform."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._plan.append((module, key, original, wrapper))

    def _patch_method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        self._plan.append((cls, attr, original, wrapper_of(original)))

    def install(self) -> None:
        """Put the wrappers in place (built on first use)."""
        if not self._plan:
            self._build_plan()
        for owner, key, _, wrapper in self._plan:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._plan):
            setattr(owner, key, original)

    def _build_plan(self) -> None:
        import oscform.cli  # noqa: F401  (loads every module to patch)
        from oscform.exactla import Subspace
        from oscform.fundforms import LinearSystem
        from oscform.polyring.poly import Polynomial
        from oscform.polyring.quotient import QuotientRingElement
        from oscform.polyring.ratfunc import RationalFunction

        def span(name, **kw):
            return lambda fn: self._span(name, fn, **kw)

        functions = [
            ("oscform.varfile", "parse_variety", span("varfile.parse")),
            ("oscform.varfile", "build_variety", span("varfile.build")),
            ("oscform.report", "render", span("report.render")),
            ("oscform.jets", "jet_matrix", span("jets.jet_matrix")),
            ("oscform.jets", "jet_parameterize", span("jets.jet_parameterize")),
            ("oscform.exactla", "rref", lambda fn: self._span(
                "", fn, after=self._entry_sizes,
                name_of=lambda a: f"exactla.{_field_tag(a[0])}.rref")),
            ("oscform.exactla", "rank", lambda fn: self._span(
                "", fn, name_of=lambda a: f"exactla.{_field_tag(a[0])}.rank")),
            ("oscform.exactla", "determinant", lambda fn: self._span(
                "", fn, name_of=lambda a: f"exactla.{_field_tag(a[0])}.determinant")),
            ("oscform.exactla", "kernel_basis",
             span("exactla.kernel_basis", after=self._entry_sizes)),
            ("oscform.exactla", "row_space",
             span("exactla.row_space", after=self._entry_sizes)),
            ("oscform.polyring.series", "solve_series_system", span("polyring.series.solve")),
            ("oscform.polyring.series", "truncated_compose", span("polyring.series.compose")),
            ("oscform.polyring.series", "truncated_inverse", span("polyring.series.inverse")),
            ("oscform.polyring.binform", "resultant_binary", span("polyring.binform.resultant")),
            ("oscform.polyring.binform", "binary_form_gcd", span("polyring.binform.gcd")),
            ("oscform.polyring.binform", "rational_zeros",
             span("polyring.binform.rational_zeros")),
            ("oscform.fundforms", "fundamental_form", span("fundforms.fundamental_form")),
            ("oscform.fundforms", "jacobian_system", span("fundforms.jacobian")),
            ("oscform.fundforms", "check_jacobian_containment", span("fundforms.jacobian")),
            ("oscform.fundforms", "verify_phibar_relation", span("fundforms.phibar")),
            ("oscform.fundforms", "base_locus_pencil", span("fundforms.base_locus")),
            ("oscform.ruled", "monge_form", span("ruled.monge")),
            ("oscform.ruled", "fubini_intersection_test", span("ruled.fubini")),
            ("oscform.ruled", "line_contact_order", span("ruled.contact")),
            ("oscform.ruled", "scroll", span("ruled.scroll")),
            ("oscform.ruled", "scroll_rank_check", span("ruled.scroll")),
            ("oscform.ruled", "pushdown_rank_check", span("ruled.scroll")),
            ("oscform.ruled", "ruling_fixed_component_check", span("ruled.ruling")),
            ("oscform.ruled", "dim_bound_check", span("ruled.ruling")),
        ]
        for module_name, attr, wrapper_of in functions:
            self._patch_function(module_name, attr, wrapper_of)

        self._patch_method(Subspace, "__init__", span("exactla.subspace"))
        self._patch_method(LinearSystem, "__init__", span("fundforms.linear_system"))

        def products(args):
            other = args[1]
            self.counts["polyring.poly.mul.term_products"] += (
                len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1))

        self._patch_method(Polynomial, "__init__",
                           lambda fn: self._counter("polyring.poly.new", fn))
        self._patch_method(Polynomial, "__mul__",
                           lambda fn: self._counter("polyring.poly.mul", fn, products))
        self._patch_method(Polynomial, "exact_div",
                           lambda fn: self._counter("polyring.poly.exact_div", fn))
        self._patch_method(RationalFunction, "__init__",
                           lambda fn: self._counter("polyring.ratfunc.new", fn))
        for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                   "__rtruediv__", "__pow__", "inverse"):
            self._patch_method(QuotientRingElement, op,
                               lambda fn: self._counter("polyring.quotient.op", fn))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values by name.  Times and counts are per traced
        task, so they do not grow when more tasks fit in the run; the
        largest entry sizes are maxima over the run."""
        s, t, c, n, mx = self.self_s, self.total_s, self.calls, self.counts, self.maxima
        elim = ("rref", "rank", "determinant")
        sums = {
            "varfile.parse_s": s["varfile.parse"] + s["varfile.build"],
            "report.render_s": s["report.render"],
            "jets.jet_matrix.calls": c["jets.jet_matrix"],
            "jets.jet_matrix.self_s": s["jets.jet_matrix"],
            "jets.jet_parameterize.self_s": s["jets.jet_parameterize"],
            "exactla.q.eliminations": sum(c[f"exactla.q.{k}"] for k in elim),
            "exactla.qu.eliminations": sum(c[f"exactla.qu.{k}"] for k in elim),
            "exactla.q.self_s": sum(s[f"exactla.q.{k}"] for k in elim),
            "exactla.qu.self_s": sum(s[f"exactla.qu.{k}"] for k in elim),
            "exactla.recanon.calls": n["exactla.recanon.calls"],
            "exactla.recanon_s": t["exactla.recanon"],
            "exactla.kernel_basis.self_s": s["exactla.kernel_basis"],
            "polyring.poly.new.calls": n["polyring.poly.new.calls"],
            "polyring.poly.mul.term_products": n["polyring.poly.mul.term_products"],
            "polyring.poly.exact_div.calls": n["polyring.poly.exact_div.calls"],
            "polyring.poly.exact_div_s": t["polyring.poly.exact_div"],
            "polyring.ratfunc.new.calls": n["polyring.ratfunc.new.calls"],
            "polyring.ratfunc.new_s": t["polyring.ratfunc.new"],
            "polyring.series.solve.self_s": s["polyring.series.solve"],
            "polyring.series.compose_s": t["polyring.series.compose"],
            "polyring.series.inverse_s": t["polyring.series.inverse"],
            "polyring.binform.resultant_s": t["polyring.binform.resultant"],
            "polyring.binform.gcd_s": t["polyring.binform.gcd"],
            "polyring.binform.rational_zeros_s": t["polyring.binform.rational_zeros"],
            "polyring.binform.rational_zeros.calls": c["polyring.binform.rational_zeros"],
            "polyring.quotient.ops": n["polyring.quotient.op.calls"],
            "fundforms.fundamental_form.self_s": s["fundforms.fundamental_form"],
            "fundforms.linear_system.self_s": s["fundforms.linear_system"],
            "fundforms.jacobian.self_s": s["fundforms.jacobian"],
            "fundforms.phibar.self_s": s["fundforms.phibar"],
            "fundforms.base_locus.self_s": s["fundforms.base_locus"],
            "ruled.monge.self_s": s["ruled.monge"],
            "ruled.fubini.self_s": s["ruled.fubini"],
            "ruled.contact.self_s": s["ruled.contact"],
            "ruled.scroll.self_s": s["ruled.scroll"],
            "ruled.ruling.self_s": s["ruled.ruling"],
        }
        tasks = max(c["task"], 1)
        out = {name: value / tasks for name, value in sums.items()}
        for name in ("exactla.qu.max_degree", "exactla.qu.max_terms", "exactla.q.max_bits"):
            out[name] = mx[name]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, task."""
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, task = span
                out.write(json.dumps({"id": i, "name": name, "start": round(start, 7),
                                      "end": round(end, 7), "parent": parent,
                                      "task": task}) + "\n")

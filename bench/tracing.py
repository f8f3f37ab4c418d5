"""Spans around the library's layers, recorded from outside the program.

:func:`install` replaces each traced function at the module attribute its
caller looks it up from (``solver.total_domination_number``,
``_kernel_py.find_coloring``, ``perturb.dom_chromatic``, ...) with a wrapper
that records a span with its parent.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` puts every original back.

Each span adds its duration to its parent's child time, so a layer's self
time is its total minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Ties in the bound go to the cheaper term: the count bound needs only the
# maximum degree, the greedy clique a sort, total domination an exact search.
BOUND_TERMS = ("count", "clique", "gamma_t")


def count_bound(comp) -> int:
    """The solver's class-size term: no class outgrows the maximum degree."""
    delta = comp.max_degree()
    return -(-comp.n // delta) if delta else comp.n


def winning_term(terms: dict) -> str:
    best = max(terms[t] for t in BOUND_TERMS)
    return next(t for t in BOUND_TERMS if terms[t] == best)


@dataclass
class _Open:
    index: int
    child: float = 0.0


@dataclass
class Component:
    """Bound terms and kernel calls of one solved component."""

    n: int
    clique: int
    count: int | None = None
    gamma_t: int | None = None
    tries: list = field(default_factory=list)  # [k, ms, feasible]

    @property
    def won(self) -> str:
        return winning_term({"count": self.count, "clique": self.clique, "gamma_t": self.gamma_t})

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "clique": self.clique,
            "gamma_t": self.gamma_t,
            "won": self.won,
            "tries": [{"k": k, "ms": ms, "feasible": ok} for k, ms, ok in self.tries],
        }


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self):
        self.stack: list[_Open] = []
        self.spans: list[tuple] = []  # (name, parent, start, end)
        self.keep_spans = False
        # name -> [calls, total seconds, child seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.kernel_infeasible = [0, 0.0]
        # bound statistics over every solved component
        self.won = {term: 0 for term in BOUND_TERMS}
        self.gap = 0
        # per-component records, kept only while record_components is set
        self.record_components = False
        self.components: list[Component] = []
        self._current: Component | None = None
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        ``observe(args, result, seconds)`` runs after each call returns.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1].index if tracer.stack else None
            index = len(tracer.spans) if tracer.keep_spans else -1
            if tracer.keep_spans:
                tracer.spans.append(None)
            frame = _Open(index)
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.close(name, frame, t0, t1, parent)
            if observe is not None:
                observe(args, result, t1 - t0)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def close(self, name: str, frame: _Open, t0: float, t1: float, parent) -> None:
        total = self.totals[name]
        total[0] += 1
        total[1] += t1 - t0
        total[2] += frame.child
        if self.stack:
            self.stack[-1].child += t1 - t0
        if frame.index >= 0:
            self.spans[frame.index] = (name, parent, t0, t1)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- derived numbers ------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def ms(self, name: str) -> float:
        return self.totals[name][1] * 1e3 if name in self.totals else 0.0

    def self_ms(self, name: str) -> float:
        if name not in self.totals:
            return 0.0
        _, total, child = self.totals[name]
        return (total - child) * 1e3

    def begin_instance(self) -> None:
        """Forget state a time-limit abort may have left half-built."""
        self.stack.clear()
        self.components = []
        self._current = None

    def take_components(self) -> list[Component]:
        """Records of the components solved since :meth:`begin_instance`."""
        out, self.components = self.components, []
        return out

    # -- observers ------------------------------------------------------------

    def _on_clique(self, args, result, seconds) -> None:
        self._current = Component(n=len(args[0]), clique=len(result))
        if self.record_components:
            self.components.append(self._current)

    def _on_gamma_t(self, args, result, seconds) -> None:
        self._current.count = count_bound(args[0])
        self._current.gamma_t = result.value

    def _on_kernel(self, args, result, seconds) -> None:
        if result is None:
            self.kernel_infeasible[0] += 1
            self.kernel_infeasible[1] += seconds
        comp = self._current
        if comp is None:
            return
        comp.tries.append([args[1], seconds * 1e3, result is not None])
        if result is not None:  # the solver stops at the first feasible k
            self.won[comp.won] += 1
            self.gap += len(comp.tries) - 1
            self._current = None


def install(dc) -> Tracer:
    """Wrap every traced layer of the imported package ``dc``."""
    t = Tracer()
    solver, audit, perturb = dc.solver, dc.audit, dc.perturb
    # the benchmark's own call sites look these up on the package
    t.wrap(dc, "dom_chromatic", "solver.dom_chromatic")
    t.wrap(dc, "audit_specs", "audit.audit_specs")
    t.wrap(dc, "dom_stability", "perturb.sweep")
    t.wrap(dc, "dom_bondage", "perturb.sweep")
    # solver internals
    t.wrap(solver, "components", "graph.components")
    t.wrap(solver, "greedy_clique", "invariants.greedy_clique", t._on_clique)
    t.wrap(solver, "total_domination_number", "invariants.gamma_t", t._on_gamma_t)
    for name in dc.available_backends():
        module = solver._BACKENDS[name]
        t.wrap(module, "find_coloring", "kernel.find_coloring", t._on_kernel)
    # audit
    t.wrap(audit, "dom_chromatic", "solver.dom_chromatic")
    t.wrap(audit, "dom_chromatic_oracle", "oracle")
    t.wrap(audit, "predict_dom_chromatic", "predictions")
    t.wrap(audit, "generate", "families.generate")
    # perturbation sweeps
    t.wrap(perturb, "dom_chromatic", "perturb.solve")
    t.wrap(perturb, "delete_vertices", "graph.edit")
    t.wrap(perturb, "delete_edges", "graph.edit")
    return t


def layer_metrics(
    t: Tracer, passes: int, speed: float, overhead_share: float
) -> dict[str, float]:
    """Per-layer numbers per pass, keyed as in ``BENCHMARK.json``; times
    are multiplied by ``speed``, the factor to the reference host speed."""
    kernel_calls = t.calls("kernel.find_coloring")
    infeasible, infeasible_s = t.kernel_infeasible
    subsets = t.calls("graph.edit")
    # perturb.solve spans are the solver.dom_chromatic calls made by the sweeps
    solver_calls = t.calls("solver.dom_chromatic") + t.calls("perturb.solve")
    solver_self = t.self_ms("solver.dom_chromatic") + t.self_ms("perturb.solve")
    per = 1.0 / passes
    scale = speed * per  # to milliseconds per pass at the reference speed
    return {
        "kernel.calls": kernel_calls * per,
        "kernel.infeasible_calls": infeasible * per,
        "kernel.ms": t.ms("kernel.find_coloring") * scale,
        "kernel.infeasible_ms": infeasible_s * 1e3 * scale,
        "kernel.useful_share": (kernel_calls - infeasible) / kernel_calls if kernel_calls else 0.0,
        "bound.gap": t.gap * per,
        "bound.won_clique": t.won["clique"] * per,
        "bound.won_count": t.won["count"] * per,
        "bound.won_gamma_t": t.won["gamma_t"] * per,
        "invariants.gamma_t_ms": t.ms("invariants.gamma_t") * scale,
        "invariants.gamma_t_calls": t.calls("invariants.gamma_t") * per,
        "invariants.clique_ms": t.ms("invariants.greedy_clique") * scale,
        "graph.components_ms": t.ms("graph.components") * scale,
        "graph.components_calls": t.calls("graph.components") * per,
        "graph.edit_ms": t.ms("graph.edit") * scale,
        "graph.edit_calls": subsets * per,
        "solver.calls": solver_calls * per,
        "solver.self_ms": solver_self * scale,
        "oracle.ms": t.ms("oracle") * scale,
        "oracle.calls": t.calls("oracle") * per,
        "predictions.ms": t.ms("predictions") * scale,
        "families.generate_ms": t.ms("families.generate") * scale,
        "perturb.subsets": subsets * per,
        "perturb.solves": t.calls("perturb.solve") * per,
        "perturb.miss_share": t.calls("perturb.solve") / subsets if subsets else 0.0,
        "perturb.self_ms": t.self_ms("perturb.sweep") * scale,
        "trace.overhead_share": overhead_share,
    }

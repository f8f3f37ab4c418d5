"""Dominated colorings: verification, k-colorability, exact minimum, and an
independent brute-force oracle.

A dominated coloring is a proper coloring in which every color class lies
inside the open neighborhood of some vertex (its dominator).  The only
exception is an isolated vertex, which forms a dominator-less singleton
class of its own; this convention makes the minimum additive over
connected components and is load-bearing for the perturbation results.

Two interchangeable search kernels exist: a compiled extension and a pure
Python fallback.  The compiled one is picked at import time when present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import _kernel_py
from .errors import OracleCapError
from .graph import Graph, components, induced
from .invariants import greedy_clique, total_domination_number

try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _kernel = None

_BACKENDS: dict[str, object] = {"python": _kernel_py}
if _kernel is not None:
    _BACKENDS["compiled"] = _kernel

DEFAULT_BACKEND = "compiled" if _kernel is not None else "python"


def available_backends() -> tuple[str, ...]:
    """Names of the search kernels usable in this interpreter."""
    return tuple(sorted(_BACKENDS))


def has_compiled_kernel() -> bool:
    return _kernel is not None


def _kernel_for(backend: str | None):
    name = backend or DEFAULT_BACKEND
    try:
        mod = _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown solver backend: {name!r}") from None
    if name == "compiled":
        return lambda adj, k: mod.find_coloring(adj, k) if len(adj) <= 64 \
            else _kernel_py.find_coloring(adj, k)
    return mod.find_coloring


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class DomColoring:
    """A dominated coloring certificate.

    ``assignment[v]`` is the 1-based color of vertex ``v``; colors are
    dense ``1..k``.  ``dominators`` maps a color to a vertex adjacent to
    every member of that class; exempt isolated-vertex classes have no
    entry.
    """

    assignment: tuple[int, ...]
    dominators: Mapping[int, int] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return max(self.assignment, default=0)

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.assignment):
            out.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in sorted(out.items())}


@dataclass(frozen=True)
class Violation:
    """First rule broken by a rejected coloring."""

    kind: str  # "improper-edge" | "undominated-class"
    detail: str
    edge: tuple[int, int] | None = None
    color: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def verify(g: Graph, coloring: DomColoring) -> Violation | None:
    """Check a certificate against the graph; ``None`` means accepted.

    Malformed certificates (wrong length, colors not dense ``1..k``) raise;
    violations of properness or domination are reported, first one wins.
    """
    assignment = coloring.assignment
    if len(assignment) != g.n:
        raise ValueError("assignment does not cover the vertex set")
    k = max(assignment, default=0)
    if g.n and sorted(set(assignment)) != list(range(1, k + 1)):
        raise ValueError(f"colors are not dense 1..{k}")
    for v, u in g.edges():
        if assignment[v] == assignment[u]:
            return Violation(
                "improper-edge",
                f"adjacent vertices {v} and {u} share color {assignment[v]}",
                edge=(v, u),
            )
    for c, members in coloring.classes().items():
        d = coloring.dominators.get(c)
        if d is None:
            if len(members) == 1 and not g.adj[members[0]]:
                continue  # exempt isolated singleton
            return Violation(
                "undominated-class",
                f"class {c} has no dominator and is not an isolated singleton",
                color=c,
            )
        mask = 0
        for v in members:
            mask |= 1 << v
        if mask & ~g.adj[d]:
            bad = (mask & ~g.adj[d]).bit_length() - 1
            return Violation(
                "undominated-class",
                f"vertex {d} does not dominate class {c} (not adjacent to {bad})",
                color=c,
            )
    return None


# -- exact solver ------------------------------------------------------------


def _degeneracy_order(adj: list[int]) -> list[int]:
    """Reverse degeneracy order (core first), ties broken by lowest index."""
    n = len(adj)
    alive = (1 << n) - 1
    elim = []
    for _ in range(n):
        best = -1
        best_deg = n + 1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            d = (adj[v] & alive).bit_count()
            if d < best_deg:
                best_deg = d
                best = v
            m &= m - 1
        elim.append(best)
        alive ^= 1 << best
    elim.reverse()
    return elim


def _component_lower_bound(comp: Graph) -> int:
    """max(greedy clique, class-size count bound, total domination number).

    Valid because classes are cliques' rainbow targets (chromatic bound),
    no class exceeds the maximum degree, and chosen dominators form a total
    dominating set.
    """
    clique = len(greedy_clique(comp.adj))
    delta = comp.max_degree()
    count_bound = -(-comp.n // delta) if delta else comp.n
    gamma_t = total_domination_number(comp).value
    return max(clique, count_bound, gamma_t, 1)


def _solve_component(comp: Graph, kernel) -> tuple[int, list[int]]:
    """Exact minimum for a connected isolate-free graph, with a coloring
    in local labels (0-based)."""
    order = _degeneracy_order(list(comp.adj))
    local_adj = induced(comp, order).adj
    for k in range(_component_lower_bound(comp), comp.n + 1):
        found = kernel(local_adj, k)
        if found is not None:
            colors = [0] * comp.n
            for i, v in enumerate(order):
                colors[v] = found[i]
            return max(found) + 1, colors
    raise AssertionError("one color per vertex always succeeds")


def _assemble(g: Graph, class_lists: list[list[int]], exempt: set[int]) -> DomColoring:
    """Canonical certificate: classes renumbered 1..k by smallest member."""
    class_lists = sorted(class_lists, key=min)
    assignment = [0] * g.n
    dominators = {}
    for idx, members in enumerate(class_lists, start=1):
        mask = 0
        for v in members:
            assignment[v] = idx
            mask |= 1 << v
        if len(members) == 1 and members[0] in exempt:
            continue
        d = next(v for v in range(g.n) if g.adj[v] & mask == mask)
        dominators[idx] = d
    return DomColoring(tuple(assignment), dominators)


def dom_chromatic(g: Graph, *, backend: str | None = None) -> tuple[int, DomColoring]:
    """Exact dominated chromatic number with a verified certificate.

    Classes cannot span components, so the minimum is computed per
    connected component and summed; isolated vertices add one exempt
    singleton class each.  The empty graph has value 0.
    """
    kernel = _kernel_for(backend)
    class_lists: list[list[int]] = []
    exempt: set[int] = set()
    for comp, original in components(g):
        if comp.n == 1:
            class_lists.append([original[0]])
            exempt.add(original[0])
            continue
        _, colors = _solve_component(comp, kernel)
        by_color: dict[int, list[int]] = {}
        for local_v, c in enumerate(colors):
            by_color.setdefault(c, []).append(original[local_v])
        class_lists.extend(by_color.values())
    coloring = _assemble(g, class_lists, exempt)
    return coloring.k, coloring


def exists_k(g: Graph, k: int, *, backend: str | None = None) -> DomColoring | None:
    """A verified dominated coloring with at most ``k`` classes, or ``None``.

    Splitting any class of two or more vertices preserves validity, so a
    coloring with at most ``k`` classes exists exactly when the minimum is
    at most ``k``; the optimal certificate is returned.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    best, coloring = dom_chromatic(g, backend=backend)
    return coloring if best <= k else None


# -- independent oracle --------------------------------------------------------


def dom_chromatic_oracle(g: Graph, *, cap: int = 10) -> int:
    """Ground truth by direct enumeration of vertex-set partitions.

    Walks every partition of the vertices into independent blocks (in
    canonical first-vertex order) and checks the domination condition only
    at complete partitions, scanning all vertices for each block.  Shares
    no search logic with the solver.
    """
    if g.n > cap:
        raise OracleCapError(f"oracle cap is {cap} vertices, graph has {g.n}")
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    best = n + 1
    block_masks: list[int] = []

    def dominated(mask: int) -> bool:
        if mask & (mask - 1) == 0:  # singleton
            v = mask.bit_length() - 1
            if not adj[v]:
                return True  # exempt isolate
        return any(adj[d] & mask == mask for d in range(n))

    def rec(v: int) -> None:
        nonlocal best
        if len(block_masks) >= best:
            return
        if v == n:
            if all(dominated(mask) for mask in block_masks):
                best = len(block_masks)
            return
        bit = 1 << v
        for i, mask in enumerate(block_masks):
            if mask & adj[v]:
                continue
            block_masks[i] = mask | bit
            rec(v + 1)
            block_masks[i] = mask
        block_masks.append(bit)
        rec(v + 1)
        block_masks.pop()

    rec(0)
    return best

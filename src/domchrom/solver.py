"""Dominated colorings: verification, k-colorability, exact minimum, and an
independent brute-force oracle.

A dominated coloring is a proper coloring in which every color class lies
inside the open neighborhood of some vertex (its dominator).  The only
exception is an isolated vertex, which forms a dominator-less singleton
class of its own; this convention makes the minimum additive over
connected components and is load-bearing for the perturbation results.

The exact solver brackets each component between a lower bound (greedy
clique, neighborhood independence, total domination γ_t) and the size of
a dominated coloring read off the γ_t witness.  Only an open bracket pays
for the distance-two bound α(D2) before the first search call.

Two interchangeable search kernels exist: a compiled extension and a pure
Python fallback.  The compiled one is used when it imports and the
component has at most 64 vertices; the Python one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import _kernel_py
from .errors import OracleCapError
from .graph import Graph, bits, components, induced
from .invariants import (
    distance_two_independence,
    greedy_clique,
    max_neighborhood_independence,
    total_domination_number,
)

try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _kernel = None

_BACKENDS: dict[str, object] = {"python": _kernel_py}
if _kernel is not None:
    _BACKENDS["compiled"] = _kernel

DEFAULT_BACKEND = "compiled" if _kernel is not None else "python"

#: Largest graph the brute-force oracle takes unless told otherwise.
DEFAULT_ORACLE_CAP = 10


def available_backends() -> tuple[str, ...]:
    """Names of the search kernels usable in this interpreter."""
    return tuple(sorted(_BACKENDS))


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

    Malformed certificates (wrong length, colors not dense ``1..k``, a
    dominator that is not a vertex or whose color has no class) raise
    ``ValueError``; violations of properness or domination are reported,
    first one wins.
    """
    assignment = coloring.assignment
    if len(assignment) != g.n:
        raise ValueError("assignment does not cover the vertex set")
    k = max(assignment, default=0)
    if g.n and sorted(set(assignment)) != list(range(1, k + 1)):
        raise ValueError(f"colors are not dense 1..{k}")
    for c, d in coloring.dominators.items():
        if not 0 <= d < g.n:
            raise ValueError(f"dominator {d} is not a vertex")
        if not 1 <= c <= k:
            raise ValueError(f"dominator {d} is given for color {c}, which has no class")
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


def _degeneracy_order(adj: tuple[int, ...]) -> list[int]:
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


def _component_bounds(comp: Graph) -> tuple[int, int]:
    """``(lower, upper)`` on the dominated chromatic number of ``comp``.

    ``comp`` is connected with at least two vertices, hence isolate-free,
    so every class of a dominated coloring has a dominator.  ``lower`` is
    max(greedy clique, neighborhood-independence term, γ_t):

    * Clique: the vertices of a clique need pairwise distinct colors.
    * Neighborhood independence, ``⌈n / max_d α(G[N(d)])⌉``: a class is
      independent and lies inside the open neighborhood N(d) of its
      dominator d, so it holds at most α(G[N(d)]) vertices.  Since
      α(G[N(d)]) <= deg d, this term is never below ``⌈n / Δ⌉``.
    * Total domination number: the dominators of the classes cover every
      vertex by open neighborhoods, so they form a total dominating set.

    ``upper`` is the size of a dominated coloring built from the γ_t
    witness D.  The witness covers every vertex, so the parts
    ``N(d) minus the earlier parts``, for d in D in witness order,
    partition the vertices.  Each part gets a first-fit proper coloring;
    every class is independent and lies inside N(d), so d dominates it.
    In a triangle-free component each N(d) is independent, every part is
    one class, and ``upper`` <= γ_t <= ``lower``: the bounds meet.
    """
    adj = comp.adj
    clique = len(greedy_clique(adj))
    neighborhood = -(-comp.n // max_neighborhood_independence(adj))
    gamma_t = total_domination_number(comp)
    upper = 0
    left = (1 << comp.n) - 1
    for d in gamma_t.witness:
        part = adj[d] & left
        left ^= part
        classes: list[int] = []
        for v in bits(part):
            for i, mask in enumerate(classes):
                if not adj[v] & mask:
                    classes[i] = mask | 1 << v
                    break
            else:
                classes.append(1 << v)
        upper += len(classes)
    return max(clique, neighborhood, gamma_t.value), upper


def _assemble(g: Graph, classes: list[int]) -> DomColoring:
    """Canonical certificate from class bitmasks: classes renumbered 1..k by
    lowest member, each dominated by the lowest common neighbor of its
    members.  Only an isolated singleton has no common neighbor; it is the
    exempt class and gets no dominator."""
    assignment = [0] * g.n
    dominators = {}
    for idx, mask in enumerate(sorted(classes, key=lambda m: m & -m), start=1):
        common = -1
        for v in bits(mask):
            assignment[v] = idx
            common &= g.adj[v]
        if common:
            dominators[idx] = (common & -common).bit_length() - 1
    return DomColoring(tuple(assignment), dominators)


def dom_chromatic(g: Graph, *, backend: str | None = None) -> tuple[int, DomColoring]:
    """Exact dominated chromatic number with a verified certificate.

    Classes cannot span components, so the minimum is computed per
    connected component and summed; isolated vertices add one exempt
    singleton class each.  The kernel sees each component relabeled once,
    in degeneracy order, and is asked once per k, counting up from a
    proven lower bound.  That start is the lower bound of
    ``_component_bounds``, raised to the distance-two bound α(D2)
    (vertices at distance exactly 2 are the only ones that can share a
    class) when the upper bound, the size of the γ_t witness coloring,
    exceeds it.  Where the two bounds meet, the lower bound is the value
    and α(D2), which costs about a third of γ_t, could not raise it; that
    holds for every triangle-free component, so for nearly all of a
    stability or bondage sweep.  Each kernel call stands alone and only
    infeasible k are skipped, so the first feasible k and its solution do
    not depend on the bounds.  The empty graph has value 0.
    """
    kernel = _kernel_for(backend)
    classes: list[int] = []
    for comp, original in components(g):
        if comp.n == 1:
            classes.append(1 << original[0])
            continue
        order = [original[v] for v in _degeneracy_order(comp.adj)]
        local_adj = induced(g, order).adj
        lower, upper = _component_bounds(comp)
        start = lower
        if upper > lower:
            start = max(lower, distance_two_independence(local_adj))
        for k in range(start, upper + 1):
            found = kernel(local_adj, k)
            if found is not None:
                break
        else:
            raise AssertionError("the γ_t witness coloring makes k = upper feasible")
        masks = [0] * k
        for v, c in zip(order, found):
            masks[c] |= 1 << v
        classes.extend(masks)
    coloring = _assemble(g, classes)
    return coloring.k, coloring


def exists_k(g: Graph, k: int) -> DomColoring | None:
    """A verified dominated coloring with at most ``k`` classes, or ``None``.

    Splitting any class of two or more vertices preserves validity, so a
    coloring with at most ``k`` classes exists exactly when the minimum is
    at most ``k``; the optimal certificate is returned.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    best, coloring = dom_chromatic(g)
    return coloring if best <= k else None


# -- independent oracle --------------------------------------------------------


def dom_chromatic_oracle(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> int:
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

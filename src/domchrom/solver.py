"""Dominated colorings: verification, k-colorability, exact minimum, and an
independent exact oracle.

A dominated coloring is a proper coloring in which every color class lies
inside the open neighborhood of some vertex (its dominator).  The only
exception is an isolated vertex, which forms a dominator-less singleton
class of its own; this convention makes the minimum additive over
connected components and is load-bearing for the perturbation results.

The exact solver brackets each component between a lower bound (greedy
clique, neighborhood independence, total domination γ_t) and the size of
a dominated coloring read off the γ_t witness.  On an open bracket the
search starts at the distance-two bound α(D2) if that is higher.
``invariants.distance_two_bound`` decides whether α(D2), exponential
along a chain, is worth computing; ``predictions.sandwich`` shares it.
``dom_chromatic`` and ``dom_chromatic_value`` run one component loop,
``_solve``.  ``dom_chromatic`` always takes its certificate from the
search kernel, so it is the canonical one wherever a certificate is
printed or pinned.  It therefore asks γ_t only whether it exceeds the
clique and neighborhood terms, which leaves the lower bound and every
kernel call the same and skips proving the cover minimal, the cost on
long triangle chains.  ``dom_chromatic_value``, for callers that drop
the certificate (the audit), keeps the exact γ_t, reads the value of a
closed bracket off the bounds and searches only the open ones.  The
stability and bondage sweeps call ``_solve`` on that path directly and
keep its classes.

Two interchangeable search kernels exist: a compiled extension and a pure
Python fallback.  The compiled one is used when it imports and the
component has at most 64 vertices; the Python one otherwise.

The oracle takes another route to the same number: a minimum cover of the
vertices by maximal admissible classes, memoised over the vertex subsets
left to cover.  It reads only the adjacency masks and shares no search
with the kernels, the bounds or the γ_t cover, so the two cross-check
each other; its default cap of 10 vertices keeps audit reports as they
were.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import _kernel_py
from .errors import OracleCapError
from .graph import Graph, bits, components, induced
from .invariants import (
    distance_two_bound,
    first_fit,
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

#: Largest graph the oracle takes unless told otherwise.
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

    Malformed certificates (wrong length, a color or dominator that is not
    an ``int``, colors not dense ``1..k``, a dominator that is not a vertex
    or whose color has no class) raise ``ValueError``; violations of
    properness or domination are reported, first one wins.
    """
    assignment = coloring.assignment
    if len(assignment) != g.n:
        raise ValueError("assignment does not cover the vertex set")
    labels = (*assignment, *coloring.dominators, *coloring.dominators.values())
    if not all(isinstance(x, int) for x in labels):
        raise ValueError("colors and dominators must be integers")
    k = max(assignment, default=0)
    if sorted(set(assignment)) != list(range(1, k + 1)):
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
    """Reverse degeneracy order (core first), ties broken by lowest index.

    Smallest-last from degree buckets (Matula & Beck, 1983): ``buckets[d]``
    masks the live vertices of current degree d.  Each step removes the
    lowest vertex of the lowest non-empty bucket and moves its live
    neighbors down one bucket, so no live vertex falls below the removed
    degree less one, where the next scan starts.
    """
    n = len(adj)
    degree = [row.bit_count() for row in adj]
    buckets = [0] * (n + 1)
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    alive = (1 << n) - 1
    elim = []
    d = 0
    for _ in range(n):
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        alive ^= low
        v = low.bit_length() - 1
        elim.append(v)
        m = adj[v] & alive
        while m:
            bit = m & -m
            u = bit.bit_length() - 1
            buckets[degree[u]] ^= bit
            degree[u] -= 1
            buckets[degree[u]] |= bit
            m ^= bit
        d = max(d - 1, 0)
    elim.reverse()
    return elim


def _component_bounds(comp: Graph, certify: bool = False) -> tuple[int, list[int]]:
    """``(lower, classes)``: a lower bound on the dominated chromatic number
    of ``comp`` and the class bitmasks of a dominated coloring of it, whose
    count is the upper bound.

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

    ``classes`` is built from the γ_t witness D.  The witness covers every
    vertex, so the parts ``N(d) minus the earlier parts``, for d in D in
    witness order, partition the vertices.  Each part gets a first-fit
    proper coloring; every class is independent and lies inside N(d), so d
    dominates it.  In a triangle-free component each N(d) is independent,
    every part is one class, and ``len(classes)`` <= γ_t <= ``lower``: the
    bounds meet.

    With ``certify``, the kernel search follows and fixes the certificate,
    so γ_t is asked only whether it exceeds max(clique, neighborhood
    term): ``at_most`` of ``total_domination_number``.  ``lower`` is the
    same, but the witness, hence ``classes``, may be any total dominating
    set of at most that size; ``_search`` reads only its α(D2) gate and
    its loop's end from it.
    """
    adj = comp.adj
    clique = len(greedy_clique(adj))
    neighborhood = -(-comp.n // max_neighborhood_independence(adj))
    at_most = max(clique, neighborhood) if certify else 0
    gamma_t = total_domination_number(comp, at_most=at_most)
    classes: list[int] = []
    left = (1 << comp.n) - 1
    for d in gamma_t.witness:
        part = adj[d] & left
        left ^= part
        classes += first_fit(adj, bits(part))
    return max(clique, neighborhood, gamma_t.value), classes


def _search(comp: Graph, original: tuple[int, ...], lower: int, upper: int, kernel) -> list[int]:
    """Class bitmasks of the kernel's first solution at the least feasible
    k for ``comp``, with each vertex ``v`` of ``comp`` written as
    ``original[v]``.

    The kernel sees the component relabeled once, in degeneracy order, and
    is asked once per k, counting up from ``lower``.  When ``upper``, the
    size of the γ_t witness coloring, exceeds ``lower``, the start is
    raised by ``distance_two_bound`` to α(D2) if that is higher (vertices
    at distance exactly 2 are the only ones that can share a class); its
    matching gate skips α(D2) on the triangle chains.  Each kernel call
    stands alone and only infeasible k are skipped, so the first feasible
    k and its solution do not depend on the bounds.
    """
    order = _degeneracy_order(comp.adj)
    local_adj = induced(comp, order).adj
    start = distance_two_bound(local_adj, lower) if upper > lower else lower
    for k in range(start, upper + 1):
        found = kernel(local_adj, k)
        if found is not None:
            break
    else:
        raise AssertionError("the γ_t witness coloring makes k = upper feasible")
    masks = [0] * k
    for v, c in zip(order, found):
        masks[c] |= 1 << original[v]
    return masks


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


def _solve(g: Graph, backend: str | None, certify: bool) -> list[int]:
    """Class bitmasks of a minimum dominated coloring of ``g``.

    Classes cannot span components, so the minimum is computed per
    connected component and summed; an isolated vertex is one exempt
    singleton class.  Every other component is bracketed by
    ``_component_bounds`` and searched by the kernel (see ``_search``).
    Only with ``certify`` false does a closed bracket skip the search and
    give its γ_t witness classes instead.  Either way every class is in
    ``g``'s labels and together they form a dominated coloring of ``g``.
    """
    kernel = _kernel_for(backend)
    classes: list[int] = []
    for comp, original in components(g):
        if comp.n == 1:
            classes.append(1 << original[0])
            continue
        lower, witness = _component_bounds(comp, certify)
        if certify or lower < len(witness):
            classes += _search(comp, original, lower, len(witness), kernel)
        elif comp is g:  # connected: ``components`` returns g itself
            classes += witness
        else:
            classes += [sum(1 << original[v] for v in bits(mask)) for mask in witness]
    return classes


def dom_chromatic(g: Graph, *, backend: str | None = None) -> tuple[int, DomColoring]:
    """Exact dominated chromatic number with a certificate that is correct
    by construction; ``verify`` checks it in the tests and the benchmark.

    Isolated vertices add one exempt singleton class each; every other
    component is searched by the kernel, counting up from the lower bound
    of ``_component_bounds``.  Where that bound meets the size of the γ_t
    witness coloring it is the value, and α(D2) could not raise it; that
    holds for every triangle-free component.  Where they differ, α(D2) is
    computed only if a matching bound on it exceeds the lower bound, which
    it does on no triangle chain of up to 60 links.  The certificate is
    always the kernel's first solution, never the witness coloring, so it
    does not depend on the bounds; hence γ_t is asked only whether it
    exceeds the clique and neighborhood terms.  The empty graph has value 0.
    """
    coloring = _assemble(g, _solve(g, backend, certify=True))
    return coloring.k, coloring


def dom_chromatic_value(g: Graph, *, backend: str | None = None) -> int:
    """``dom_chromatic(g)[0]``, without the certificate.

    Each isolated vertex counts 1.  A component whose lower bound meets
    the size of its γ_t witness coloring counts that bound, with no search;
    on nearly all of a stability or bondage sweep the bracket is closed.
    Only an open bracket runs the kernel search of ``dom_chromatic``.
    """
    return len(_solve(g, backend, certify=False))


def exists_k(g: Graph, k: int) -> DomColoring | None:
    """A dominated coloring with at most ``k`` classes, or ``None``.

    Splitting any class of two or more vertices preserves validity, so a
    coloring with at most ``k`` classes exists exactly when the minimum is
    at most ``k``; the optimal certificate of ``dom_chromatic`` is
    returned, correct by construction and not re-checked here.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    best, coloring = dom_chromatic(g)
    return coloring if best <= k else None


# -- independent oracle --------------------------------------------------------


def dom_chromatic_oracle(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Ground truth by an exact minimum cover over maximal admissible blocks.

    A class is admissible when it is independent and lies inside some open
    neighborhood N(d), or is the singleton of an isolated vertex.  The
    blocks are the maximal admissible sets: the maximal independent sets
    of each G[N(d)], plus each isolated vertex's singleton.  With c(∅) = 0
    and c(X) = 1 + min c(X minus B) over the blocks B that contain the
    lowest vertex of X, c(V) is the value.  This is exact because the
    admissible family is hereditary, so the fewest admissible sets that
    cover V also partition it (trim each set to what the earlier ones left);
    every admissible set lies inside some block; and c is monotone under
    taking subsets, so a class may always grow to a block that contains it.
    Both recursions are at most n deep, and the memo lives for one call.

    The oracle reads only ``g.adj`` and shares no search logic with the
    solver's kernel, bounds or γ_t cover.  Its cost grows with the number
    of subsets the cover reaches, so it refuses graphs above ``cap``
    vertices; the default of 10 keeps the audit reports' ``oracle``
    column as it was.
    """
    if g.n > cap:
        raise OracleCapError(f"oracle cap is {cap} vertices, graph has {g.n}")
    adj = g.adj
    blocks: set[int] = set()

    def maximal(nd: int, chosen: int, blocked: int, cand: int) -> None:
        # maximal independent sets of G[nd] holding ``chosen``, grown from
        # ``cand``; ``blocked`` is the neighborhood of ``chosen``
        if not cand:
            if not nd & ~chosen & ~blocked:  # nothing of N(d) can be added
                blocks.add(chosen)
            return
        low = cand & -cand
        v = low.bit_length() - 1
        maximal(nd, chosen | low, blocked | adj[v], cand & ~low & ~adj[v])
        if adj[v] & cand:  # else every set without v could still take it
            maximal(nd, chosen, blocked, cand & ~low)

    for d, nd in enumerate(adj):
        if nd:
            maximal(nd, 0, 0, nd)
        else:
            blocks.add(1 << d)  # an isolated vertex's exempt singleton
    containing: list[list[int]] = [[] for _ in adj]
    for block in blocks:
        for v in bits(block):
            containing[v].append(block)
    memo = {0: 0}

    def cover(left: int) -> int:
        best = memo.get(left)
        if best is None:
            low = (left & -left).bit_length() - 1
            best = 1 + min(cover(left & ~block) for block in containing[low])
            memo[left] = best
        return best

    return cover((1 << g.n) - 1)

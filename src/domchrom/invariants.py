"""Exact chromatic, domination and total domination numbers.

These are the classical parameters the library's bounds reference.  The
chromatic number counts up from a greedy clique to a first-fit coloring,
asking the dominated-coloring kernel at each k on the graph plus an apex;
both domination numbers are one exact set-cover search on the symmetric
neighborhood bitmasks.  At desk scale (around 20 vertices) clarity and
verifiability beat sophistication.  Every result carries a
polynomial-time-checkable witness.  The bitmask independence number next
to ``greedy_clique`` serves the two α bounds of the solver and of
``sandwich``: the neighborhood bound ``⌈n / max_d α(G[N(d)])⌉`` and the
distance-two bound ``α(D2)``, where D2 joins the vertices at distance
exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass

# Bound at import, not looked up on the module: a tracer that wraps the
# solver's kernel through ``_kernel_py.find_coloring`` then counts no χ calls.
from ._kernel_py import find_coloring
from .errors import UndefinedInvariantError
from .graph import Graph, bits, induced


@dataclass(frozen=True)
class InvariantResult:
    value: int
    witness: tuple[int, ...]


# -- proper coloring --------------------------------------------------------


def greedy_clique(adj: list[int] | tuple[int, ...]) -> list[int]:
    """A maximal clique grown greedily from the highest-degree vertex."""
    n = len(adj)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    clique = [order[0]]
    mask = adj[order[0]]
    for v in order[1:]:
        if mask >> v & 1:
            clique.append(v)
            mask &= adj[v]
    return clique


def independence_number(adj: list[int] | tuple[int, ...], mask: int) -> int:
    """Exact independence number of the subgraph induced by ``mask``.

    The lowest vertex with at most one neighbor ``u`` left in ``mask`` is
    always taken: a largest independent set without it contains ``u``,
    and swapping ``u`` for it keeps the set independent.  When every
    vertex has two or more, the search branches on one of highest degree
    in ``mask`` (lowest label on ties): take it and drop its neighbors, or
    skip it.  Labels only break ties, so the cost hardly depends on how
    the vertices are labelled.
    """
    size = 0
    while mask:
        best = best_deg = -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (adj[v] & mask).bit_count()
            if deg <= 1:
                break
            if deg > best_deg:
                best, best_deg = v, deg
            m ^= low
        else:
            rest = mask & ~(1 << best)
            return size + max(
                1 + independence_number(adj, rest & ~adj[best]),
                independence_number(adj, rest),
            )
        size += 1
        mask &= ~(adj[v] | 1 << v)
    return size


def max_neighborhood_independence(adj: list[int] | tuple[int, ...]) -> int:
    """``max_d α(G[N(d)])``: the largest class any one dominator can hold.

    ``α(G[N(d)]) <= deg d``, so a vertex whose degree does not exceed the
    best value found so far is skipped without computing its α.
    """
    best = 0
    for nbrs in adj:
        if nbrs.bit_count() > best:
            best = max(best, independence_number(adj, nbrs))
    return best


def distance_two_rows(adj: list[int] | tuple[int, ...]) -> list[int]:
    """Adjacency rows of D2, the graph joining vertices at distance exactly 2.

    The row of ``u`` is the OR of ``adj[w]`` over its neighbors ``w``,
    minus N(u) and ``u`` itself.
    """
    rows = []
    for u, nbrs in enumerate(adj):
        row = 0
        m = nbrs
        while m:
            low = m & -m
            row |= adj[low.bit_length() - 1]
            m ^= low
        rows.append(row & ~(nbrs | 1 << u))
    return rows


def distance_two_independence(adj: list[int] | tuple[int, ...]) -> int:
    """``α(D2)``: a lower bound on the dominated chromatic number.

    Two vertices share a class only if they are non-adjacent and have a
    common neighbor (their dominator), that is, only if they are at
    distance exactly 2.  So an independent set of D2 needs pairwise
    distinct classes.  A clique of G is independent in D2, so the bound is
    never below ω(G); it holds for every graph, isolated vertices included.
    """
    return independence_number(distance_two_rows(adj), (1 << len(adj)) - 1)


def first_fit(adj: list[int] | tuple[int, ...], order) -> list[int]:
    """Class bitmasks of the first-fit proper coloring: each vertex of
    ``order`` in turn joins the earliest class holding none of its
    neighbors, or opens a new class."""
    classes: list[int] = []
    for v in order:
        for i, mask in enumerate(classes):
            if not adj[v] & mask:
                classes[i] = mask | 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def chromatic_number(g: Graph) -> InvariantResult:
    """Minimum colors in a proper coloring, with a witness coloring.

    An apex, a vertex adjacent to every other, dominates every class it is
    not in, so the dominated colorings of G plus an apex are exactly the
    proper colorings of G with the apex alone in one more class, and
    χ(G) = χ_dom(G + apex) - 1.  The kernel sees the apex first, so it
    takes class 0, then G's vertices in degree-descending order.  Each k
    from a greedy clique up to the first-fit coloring's size is asked once;
    if none is feasible, the first-fit coloring is the witness.
    """
    if g.n == 0:
        return InvariantResult(0, ())
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy = first_fit(g.adj, order)
    colors = [0] * g.n
    for c, mask in enumerate(greedy, start=1):
        for v in bits(mask):
            colors[v] = c
    apex_adj = [((1 << g.n) - 1) << 1] + [1 | row << 1 for row in induced(g, order).adj]
    for k in range(max(len(greedy_clique(g.adj)), 1), len(greedy)):
        found = find_coloring(apex_adj, k + 1)
        if found is not None:
            for v, c in zip(order, found[1:]):
                colors[v] = c
            return InvariantResult(k, tuple(colors))
    return InvariantResult(len(greedy), tuple(colors))


# -- domination --------------------------------------------------------------


def _min_cover(masks: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Smallest vertex subset whose ``masks`` union covers every vertex.

    The masks are symmetric (``v`` covers ``e`` exactly when ``e`` covers
    ``v``), so ``masks[e]`` lists the coverers of ``e``.  Exact branch and
    bound: branch on the uncovered vertex with the fewest coverers, try
    them in ascending order, and prune with a covers-per-pick bound.  The
    search starts from the cover by every vertex; the witness is the first
    minimum cover in depth-first order, so it is reproducible.
    """
    n = len(masks)
    full = (1 << n) - 1
    sizes = [m.bit_count() for m in masks]
    max_gain = max(sizes)
    least = min(sizes)
    best = tuple(range(n))
    chosen: list[int] = []

    def rec(covered: int) -> None:
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = tuple(sorted(chosen))
            return
        uncovered = full & ~covered
        if len(chosen) + -(-uncovered.bit_count() // max_gain) >= len(best):
            return
        # lowest-labelled uncovered vertex with the fewest coverers; none
        # has fewer than ``least``, so the scan may stop at the first such
        target, fewest = -1, n + 1
        m = uncovered
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if sizes[v] < fewest:
                target, fewest = v, sizes[v]
                if fewest == least:
                    break
            m ^= low
        m = masks[target]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            chosen.append(v)
            rec(covered | masks[v])
            chosen.pop()
            m ^= low

    rec(0)
    return best


def domination_number(g: Graph) -> InvariantResult:
    """Minimum size of a set whose closed neighborhoods cover the graph."""
    if g.n == 0:
        raise UndefinedInvariantError("domination number of the empty graph is undefined")
    witness = _min_cover([g.adj[v] | (1 << v) for v in range(g.n)])
    return InvariantResult(len(witness), witness)


def total_domination_number(g: Graph) -> InvariantResult:
    """Minimum size of a set whose open neighborhoods cover the graph.

    Undefined when the graph is empty or has an isolated vertex.
    """
    if g.n == 0:
        raise UndefinedInvariantError(
            "total domination number of the empty graph is undefined"
        )
    if g.isolated_vertices():
        raise UndefinedInvariantError(
            "total domination number is undefined with isolated vertices"
        )
    witness = _min_cover(g.adj)
    return InvariantResult(len(witness), witness)

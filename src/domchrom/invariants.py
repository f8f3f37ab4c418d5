"""Exact chromatic, domination and total domination numbers.

These are the classical parameters the library's bounds reference.  The
chromatic number deepens from a greedy clique up to a greedy coloring;
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

from .errors import UndefinedInvariantError
from .graph import Graph, bits


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


def _greedy_coloring(adj, order) -> list[int]:
    colors = [0] * len(adj)
    for v in order:
        used = 0
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            if colors[u]:
                used |= 1 << colors[u]
            m &= m - 1
        c = 1
        while used >> c & 1:
            c += 1
        colors[v] = c
    return colors


def _k_coloring(adj, order, k: int) -> list[int] | None:
    """Backtracking proper coloring with at most ``k`` colors (1-based)."""
    n = len(adj)
    colors = [0] * n

    def rec(i: int, n_used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        forbidden = 0
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            if colors[u]:
                forbidden |= 1 << colors[u]
            m &= m - 1
        limit = min(n_used + 1, k)
        for c in range(1, limit + 1):
            if forbidden >> c & 1:
                continue
            colors[v] = c
            if rec(i + 1, max(n_used, c)):
                return True
        colors[v] = 0
        return False

    return list(colors) if rec(0, 0) else None


def chromatic_number(g: Graph) -> InvariantResult:
    """Minimum colors in a proper coloring, with a witness coloring."""
    if g.n == 0:
        return InvariantResult(0, ())
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy = _greedy_coloring(g.adj, order)
    ub = max(greedy)
    lb = max(len(greedy_clique(g.adj)), 1)
    for k in range(lb, ub):
        witness = _k_coloring(g.adj, order, k)
        if witness is not None:
            return InvariantResult(k, tuple(witness))
    return InvariantResult(ub, tuple(greedy))


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
        target = min(bits(uncovered), key=sizes.__getitem__)
        for v in bits(masks[target]):
            chosen.append(v)
            rec(covered | masks[v])
            chosen.pop()

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

"""Exact chromatic, domination and total domination numbers.

These are the classical parameters the library's bounds reference.  The
chromatic number counts up from a greedy clique to a first-fit coloring,
asking the dominated-coloring kernel at each k on the graph plus an apex.
Both domination numbers are one iteratively deepened set-cover search on
the symmetric neighborhood bitmasks.  Every result carries a witness checkable
in polynomial time.  The bitmask independence number serves the two α
bounds of the solver and of ``sandwich``: ``⌈n / max_d α(G[N(d)])⌉`` and
``α(D2)``, where D2 joins the vertices at distance exactly 2.  Both callers
raise their lower bound through ``distance_two_bound``, the one place that
decides, by a greedy matching of D2, whether α(D2) is worth computing.
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


def _two_step_rows(masks: list[int] | tuple[int, ...]) -> list[int]:
    """Row ``u`` is the OR of ``masks[w]`` over the members ``w`` of ``masks[u]``."""
    rows = []
    for mask in masks:
        row = 0
        while mask:
            low = mask & -mask
            row |= masks[low.bit_length() - 1]
            mask ^= low
        rows.append(row)
    return rows


def distance_two_rows(adj: list[int] | tuple[int, ...]) -> list[int]:
    """Adjacency rows of D2, the graph joining vertices at distance exactly 2.

    The row of ``u`` is the OR of ``adj[w]`` over its neighbors ``w``,
    minus N(u) and ``u`` itself.
    """
    return [
        row & ~(nbrs | 1 << u)
        for u, (nbrs, row) in enumerate(zip(adj, _two_step_rows(adj)))
    ]


def _matching_bound(rows: list[int]) -> int:
    """``n - |M|`` for a greedy matching M of the graph with adjacency
    ``rows``: an upper bound on its independence number, since an
    independent set holds at most one end of each matched edge.

    Vertices are taken in ascending degree, lowest label on ties, and each
    free one is matched to its free neighbor of least degree (the
    minimum-degree rule of Karp & Sipser, 1981, with degrees fixed).
    """
    degree = [row.bit_count() for row in rows]
    free = (1 << len(rows)) - 1
    matched = 0
    for v in sorted(range(len(rows)), key=degree.__getitem__):
        m = rows[v] & free
        if m and free >> v & 1:
            u, least = -1, len(rows)
            while m:
                low = m & -m
                w = low.bit_length() - 1
                if degree[w] < least:
                    u, least = w, degree[w]
                m ^= low
            free &= ~(1 << v | 1 << u)
            matched += 1
    return len(rows) - matched


def distance_two_bound(adj: list[int] | tuple[int, ...], lower: int) -> int:
    """``max(lower, α(D2))``, a lower bound on the dominated chromatic
    number whenever ``lower`` is one; ``distance_two_bound(adj, 0)`` is α(D2).

    Two vertices share a class only if they are non-adjacent and have a
    common neighbor (their dominator), that is, only if they are at
    distance exactly 2.  So an independent set of D2 needs pairwise
    distinct classes.  A clique of G is independent in D2, so α(D2) is
    never below ω(G); it holds for every graph, isolated vertices included.

    The D2 rows are built once.  α(D2), exponential along a chain, is
    skipped when ``_matching_bound`` of D2 is at most ``lower``, since it
    could not exceed ``lower`` then.  That bound is at least ⌈n/2⌉, so
    the matching is built only when 2 * ``lower`` >= n.  On every triangle
    chain the gate holds.
    """
    rows = distance_two_rows(adj)
    if 2 * lower >= len(adj) and _matching_bound(rows) <= lower:
        return lower
    return max(lower, independence_number(rows, (1 << len(adj)) - 1))


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
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy = first_fit(g.adj, order)
    colors = [0] * g.n
    for c, mask in enumerate(greedy, start=1):
        for v in bits(mask):
            colors[v] = c
    apex_adj = [((1 << g.n) - 1) << 1] + [1 | row << 1 for row in induced(g, order).adj]
    for k in range(len(greedy_clique(g.adj)), len(greedy)):
        found = find_coloring(apex_adj, k + 1)
        if found is not None:
            for v, c in zip(order, found[1:]):
                colors[v] = c
            return InvariantResult(k, tuple(colors))
    return InvariantResult(len(greedy), tuple(colors))


# -- domination --------------------------------------------------------------


def _min_cover(masks: list[int] | tuple[int, ...], at_most: int = 0) -> tuple[int, ...]:
    """Smallest vertex subset whose ``masks`` union covers every vertex, or,
    where some cover has at most ``at_most`` picks, the first such cover.

    The masks are symmetric, so ``masks[e]`` lists the coverers of ``e``.
    Depth-first search for a cover of at most t picks, t raised by one until
    one is found (iterative deepening; Korf, 1985).  A node branches on the
    uncovered vertex with the fewest coverers (lowest label on ties), trying
    them in ascending order.  With uncovered set U and b picks left, it is
    cut when ⌈|U| / max gain⌉ > b, when a greedy packing of U exceeds b, or
    when ``refuted[U] > b``: once every child of U fails with b picks left,
    no b picks cover U, so ``refuted[U]`` becomes b + 1 for the rest of the
    call.  The packing (open on open masks, ρ° <= γ_t; closed on closed
    ones, ρ <= γ; Henning & Yeo, *Total Domination in Graphs*, 2013) takes
    U's lowest vertex and drops its ``share`` row, every vertex one pick can
    cover along with it, again and again.  t counts up from ``at_most``, 0
    by default; the first two cuts reject every t below both bounds at the
    root, before anything is recorded in ``refuted`` or ``chosen``.  The
    cuts drop only subtrees with no cover of t picks or fewer, so the first
    cover found at the least t is the first minimum cover in depth-first
    order: a reproducible witness.  A first t that finds no cover has only
    filled ``refuted``, which stays true as t rises, so the witness is the
    same as from t = 0; one that finds a cover returns the first cover of
    at most ``at_most`` picks, which need not be minimum.
    """
    n = len(masks)
    full = (1 << n) - 1
    sizes = [m.bit_count() for m in masks]
    max_gain = max(sizes)
    least = min(sizes)
    share = _two_step_rows(masks)
    refuted: dict[int, int] = {}
    chosen: list[int] = []

    def rec(uncovered: int, budget: int) -> bool:
        if not uncovered:
            return True
        if -(-uncovered.bit_count() // max_gain) > budget or refuted.get(uncovered, 0) > budget:
            return False
        m = uncovered
        pack = 0
        while m:
            pack += 1
            if pack > budget:
                return False
            m &= ~share[(m & -m).bit_length() - 1]
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
            if rec(uncovered & ~masks[v], budget - 1):
                return True
            chosen.pop()
            m ^= low
        refuted[uncovered] = budget + 1
        return False

    t = at_most
    while not rec(full, t):
        t += 1
    return tuple(sorted(chosen))


def domination_number(g: Graph) -> InvariantResult:
    """Minimum size of a set whose closed neighborhoods cover the graph."""
    if g.n == 0:
        raise UndefinedInvariantError("domination number of the empty graph is undefined")
    witness = _min_cover([g.adj[v] | (1 << v) for v in range(g.n)])
    return InvariantResult(len(witness), witness)


def total_domination_number(g: Graph, *, at_most: int = 0) -> InvariantResult:
    """Minimum size of a set whose open neighborhoods cover the graph.

    With ``at_most``, the question is only whether γ_t exceeds it.  Where
    some total dominating set has at most ``at_most`` vertices, the result
    is the first one the cover search meets, and its size may exceed γ_t;
    otherwise it is the default call's minimum set.  Either way
    ``max(at_most, value)`` is ``max(at_most, γ_t)``, and proving a set
    minimal, the costly part on long chains, is skipped below the bound.

    Undefined when the graph is empty or has an isolated vertex.
    """
    if at_most < 0:
        raise ValueError("at_most must be non-negative")
    if g.n == 0:
        raise UndefinedInvariantError(
            "total domination number of the empty graph is undefined"
        )
    if g.isolated_vertices():
        raise UndefinedInvariantError(
            "total domination number is undefined with isolated vertices"
        )
    witness = _min_cover(g.adj, at_most)
    return InvariantResult(len(witness), witness)

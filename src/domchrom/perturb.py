"""Exact stability and bondage of the dominated chromatic number.

Stability is the minimum number of vertex deletions that change the value;
bondage the minimum number of edge deletions.  Both are computed by
exhaustive minimal-cardinality sweeps in lexicographic order, so the
reported witness is the first one of minimum size and runs are
reproducible.  Deleted-vertex/edge witnesses are reported in the labels
of the input graph.  The printed stability and bondage tables that these
sweeps check live in :mod:`.predictions`.

The sweep solves one subset per orbit of the graph's automorphism group.
If an automorphism maps ``S`` to ``S'``, then ``G - S`` and ``G - S'`` are
isomorphic and have the same value.  So at the first subset of an orbit in
lexicographic order the sweep marks the whole orbit seen and solves that
subset alone; every later member of the orbit has the value already
found, and when that value is unchanged none of them can be the first
witness.  The witness, and every field of the result, is therefore the one
a plain sweep over all subsets would give.  The generators are searched
once, before the walk, and every size, size 1 included, follows this rule.

Only values are compared, so each subset is solved by
``dom_chromatic_value``, which reads a closed bound bracket without a
kernel search.  The one unperturbed solve per sweep stays on
``dom_chromatic``, which the benchmark's tracer looks up by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, Deadline
from .graph import (
    Graph,
    automorphism_generators,
    bits,
    delete_edges,
    delete_vertices,
    induced,
)
from .solver import dom_chromatic, dom_chromatic_value

#: Default complexity-guard caps for the exhaustive sweeps.
STABILITY_VERTEX_CAP = 14
BONDAGE_EDGE_CAP = 24


@dataclass(frozen=True)
class PerturbationResult:
    """Minimum removal size with a witness, or an explicit no-witness status.

    ``witness`` holds vertices (stability) or edges (bondage) in original
    labels.  ``found=False`` means the exhaustive sweep ran out without any
    removal changing the value (e.g. edge bondage of a single edge), in
    which case ``size`` and ``after`` are ``None``.
    """

    mode: str  # "vertex" | "edge"
    found: bool
    before: int
    size: int | None = None
    witness: tuple = ()
    after: int | None = None


def _item_permutations(g: Graph, mode: str, items, check) -> list[tuple[int, ...]]:
    """Generators of Aut(g) acting on the indices of ``items``.

    For edges the group is computed on the non-isolated vertices only:
    isolated vertices lie on no edge, and a large set of them would make
    the search long for nothing.  A generator that fixes every edge, such
    as the swap of a ``K2`` component's ends, is dropped.
    """
    if mode == "vertex":
        return automorphism_generators(g.adj, check)
    live = [v for v in range(g.n) if g.adj[v]]
    index = {e: i for i, e in enumerate(items)}
    identity = tuple(range(len(items)))
    perms = []
    for p in automorphism_generators(induced(g, live).adj, check):
        image = dict(zip(live, (live[q] for q in p)))
        perm = tuple(index[tuple(sorted((image[u], image[v])))] for u, v in items)
        if perm != identity:
            perms.append(perm)
    return perms


def _orbit(mask: int, perms, check) -> set[int]:
    """Orbit of the item subset ``mask`` under the group generated by
    ``perms``, by graph search."""
    seen = {mask}
    frontier = [mask]
    while frontier:
        members = bits(frontier.pop())
        check()
        for p in perms:
            image = 0
            for i in members:
                image |= 1 << p[i]
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def _sweep(g: Graph, mode: str, items, delete, budget_ms, backend) -> PerturbationResult:
    """Try removing subsets of ``items``, smallest and lexicographically
    first, one per automorphism orbit, until the value changes."""
    deadline = Deadline(budget_ms)
    before = dom_chromatic(g, backend=backend)[0]
    perms = _item_permutations(g, mode, items, deadline.check)
    for s in range(1, len(items) + 1):
        seen: set[int] = set()
        for combo in combinations(range(len(items)), s):
            deadline.check()
            mask = 0
            for i in combo:
                mask |= 1 << i
            if mask in seen:
                continue
            seen |= _orbit(mask, perms, deadline.check)
            subset = tuple(items[i] for i in combo)
            after = dom_chromatic_value(delete(g, subset), backend=backend)
            if after != before:
                return PerturbationResult(
                    mode, True, before, size=s, witness=subset, after=after
                )
    return PerturbationResult(mode, False, before)


def dom_stability(
    g: Graph,
    *,
    max_vertices: int = STABILITY_VERTEX_CAP,
    budget_ms: int | None = None,
    backend: str | None = None,
) -> PerturbationResult:
    """Minimum number of vertex deletions changing the dominated chromatic
    number.  Removing all vertices yields the empty graph (value 0), so a
    witness always exists."""
    if g.n == 0:
        raise ValueError("stability of the empty graph is undefined")
    if g.n > max_vertices:
        raise BudgetExceededError(
            f"stability sweep refused: {g.n} vertices exceeds the cap of {max_vertices}"
        )
    return _sweep(g, "vertex", range(g.n), delete_vertices, budget_ms, backend)


def dom_bondage(
    g: Graph,
    *,
    max_edges: int = BONDAGE_EDGE_CAP,
    budget_ms: int | None = None,
    backend: str | None = None,
) -> PerturbationResult:
    """Minimum number of edge deletions changing the dominated chromatic
    number, or a no-witness result when no edge subset changes it."""
    edges = g.edges()
    if not edges:
        raise ValueError("bondage of an edgeless graph is undefined")
    if len(edges) > max_edges:
        raise BudgetExceededError(
            f"bondage sweep refused: {len(edges)} edges exceeds the cap of {max_edges}"
        )
    return _sweep(g, "edge", edges, delete_edges, budget_ms, backend)

"""Exact stability and bondage of the dominated chromatic number.

Stability is the minimum number of vertex deletions that change the value;
bondage the minimum number of edge deletions.  Both are computed by
exhaustive minimal-cardinality sweeps in lexicographic order, so the
reported witness is the first one of minimum size and runs are
reproducible.  Deleted-vertex/edge witnesses are reported in the labels
of the input graph.  The printed stability and bondage tables that these
sweeps check live in :mod:`.predictions`.

The sweep solves one subset per orbit of the graph's automorphism group:
the lexicographically least one.  If an automorphism maps ``S`` to
``S'``, then ``G - S`` and ``G - S'`` are isomorphic and have the same
value, so every later member of an orbit has the value already found, and
when that value is unchanged none of them can be the first witness.  The
witness, and every field of the result, is therefore the one a plain sweep
over all subsets would give.  The generators are searched once, before the
walk.

The least subsets are generated without touching the rest of their
orbits.  A least set has only least prefixes, so extending each least set
of size ``s - 1`` by every larger item, in order, and keeping the least
extensions yields every least set of size ``s`` in lexicographic order.
Whether ``T`` is least is decided by a minimal-image search (Linton,
"Finding the smallest image of a set", ISSAC 2004; Jefferson, Jonauskyte,
Pfeiffer & Waldecker, J. Algebra 2019).  It reads ``T`` element by element
and keeps the images of ``T`` whose least elements equal the prefix read so
far.  The group still acting on them is the pointwise stabiliser of that
prefix; its generators come from Schreier's lemma, thinned by Sims' filter
(Seress, *Permutation Group Algorithms*, 2003), and are cached per prefix.
If some image can bring a point below the next element of ``T``, ``T`` is
not least.

Each subset is solved by ``solver._solve`` without a certificate, which
reads a closed bound bracket without a kernel search and returns the
classes of a dominated coloring of ``G - S``.  The one unperturbed solve
per sweep stays on ``dom_chromatic``, which the benchmark's tracer looks
up by name.

The edge sweep skips most of those solves.  Deleting edges never lowers
γ_t (Henning & Yeo, *Total Domination in Graphs*, 2013), and the value is
never below the floor: γ_t summed over the components of two or more
vertices, plus one per isolated vertex.  For a dominated coloring of
``G - S`` restricted to a component ``C`` of ``G``, the dominators of its
classes, with one neighbor in ``G`` of each vertex that ``S`` isolates,
form a total dominating set of ``C`` no larger than the number of those
classes.  So where the floor equals the
unperturbed value, a subset whose removal leaves some known coloring of
that many classes dominated keeps the value, and needs no solve.  The
known colorings are the unperturbed certificate and the classes of every
subset solved since, newest first.  The floor is compared with the value
once, before the walk; below the value, no coloring is known and the
sweep solves every subset.  Deleting a vertex can lower γ_t, so the vertex
sweep solves every subset.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError, Deadline
from .graph import (
    Graph,
    automorphism_generators,
    bits,
    components,
    delete_edges,
    delete_vertices,
    induced,
)
from .invariants import total_domination_number
from .solver import _solve, dom_chromatic

#: Complexity-guard caps for the exhaustive sweeps.
STABILITY_VERTEX_CAP = 14
BONDAGE_EDGE_CAP = 24

#: A permutation of item indices, ``p[i]`` the image of ``i``.
Perm = tuple[int, ...]


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


def _item_permutations(g: Graph, mode: str, items, check) -> list[Perm]:
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


def _compose(p: Perm, q: Perm) -> Perm:
    """``p`` after ``q``: the permutation ``i -> p[q[i]]``.  Only groups
    with a generator compose, so there are at least two points and
    ``itemgetter`` returns a tuple."""
    return itemgetter(*q)(p)


def _inverse(p: Perm) -> Perm:
    inverse = [0] * len(p)
    for i, j in enumerate(p):
        inverse[j] = i
    return tuple(inverse)


def _image(mask: int, p: Perm) -> int:
    image = 0
    for i in bits(mask):
        image |= 1 << p[i]
    return image


class _Level:
    """The group generated by ``gens``, with each point's orbit minimum
    ``least[a]`` and an element ``to_least[a]`` of the group carrying ``a``
    there, read off a breadth-first Schreier tree."""

    def __init__(self, n: int, gens: list[Perm]):
        self.gens = gens
        self.identity = identity = tuple(range(n))
        self.least = least = list(range(n))
        self.to_least: list[Perm] = [identity] * n
        inverses = [_inverse(p) for p in gens]
        reached = [False] * n
        for a in range(n):
            if reached[a]:
                continue
            reached[a] = True
            orbit = [a]
            for b in orbit:  # ``orbit`` grows as it is read
                for k, p in enumerate(gens):
                    c = p[b]
                    if not reached[c]:
                        reached[c] = True
                        least[c] = a
                        self.to_least[c] = _compose(self.to_least[b], inverses[k])
                        orbit.append(c)

    def stabiliser(self, t: int, check: Callable[[], None]) -> _Level:
        """The stabiliser of ``t``, a point that is its own orbit minimum.

        By Schreier's lemma it is generated by ``u(p(b))^-1 p u(b)`` over
        the generators ``p`` and the orbit points ``b``, where ``u(b)``
        carries ``t`` to ``b``; here ``u(b)^-1`` is ``to_least[b]``.  Sims'
        filter keeps at most one of them per first moved point and its
        image, dividing each newcomer by the one kept before it; a Schreier
        tree edge gives the identity, which the filter drops.
        """
        if all(p[t] == t for p in self.gens):
            return self
        identity = self.identity
        kept: dict[tuple[int, int], tuple[Perm, Perm]] = {}  # with its inverse
        for b, a in enumerate(self.least):
            if a != t:
                continue
            u = _inverse(self.to_least[b])
            for p in self.gens:
                check()
                h = _compose(self.to_least[p[b]], _compose(p, u))
                while h != identity:
                    i = 0
                    while h[i] == i:
                        i += 1
                    divisor = kept.get((i, h[i]))
                    if divisor is None:
                        kept[i, h[i]] = h, _inverse(h)
                        break
                    h = _compose(divisor[1], h)
        return _Level(len(identity), [h for h, _ in kept.values()])


def _least_subsets(
    n: int, perms: list[Perm], check: Callable[[], None]
) -> Iterator[tuple[int, ...]]:
    """The lexicographically least subset of each orbit of the group
    generated by ``perms`` on the subsets of ``range(n)``, as sorted
    tuples, by size and then in lexicographic order."""
    levels = {(): _Level(n, perms)}  # pointwise stabiliser of each prefix

    def level(prefix: tuple[int, ...]) -> _Level:
        # each prefix is asked for after its own prefix, so no recursion
        # (a self-referencing closure would hold ``levels`` until the
        # cyclic garbage collector ran)
        if prefix not in levels:
            levels[prefix] = levels[prefix[:-1]].stabiliser(prefix[-1], check)
        return levels[prefix]

    def is_least(subset: tuple[int, ...]) -> bool:
        """The minimal-image test: ``images`` holds the images of ``subset``
        whose least elements are ``subset[:i]``, up to the stabiliser of
        that prefix, which can bring each remaining point down to its orbit
        minimum."""
        images = {sum(1 << t for t in subset)}
        prefix = 0
        for i, t in enumerate(subset):
            stab = level(subset[:i])
            next_images = set()
            for image in images:
                check()
                for u in bits(image & ~prefix):
                    if stab.least[u] < t:
                        return False
                    if stab.least[u] == t:
                        next_images.add(image if u == t else _image(image, stab.to_least[u]))
            images = next_images
            prefix |= 1 << t
        return True

    smaller: list[tuple[int, ...]] = [()]
    for _ in range(n):
        found = []
        for r in smaller:
            least = level(r).least
            for x in range(r[-1] + 1 if r else 0, n):
                check()
                # an x the stabiliser of r can lower gives a smaller image
                if least[x] == x and is_least(r + (x,)):
                    found.append(r + (x,))
                    yield r + (x,)
        smaller = found


def _colors(adj: tuple[int, ...], classes: list[int]) -> bool:
    """Whether the class bitmasks ``classes`` form a dominated coloring of
    the graph with rows ``adj``: each class is independent and has a common
    neighbor, or is the singleton of an isolated vertex."""
    for mask in classes:
        common = -1
        for v in bits(mask):
            if adj[v] & mask:
                return False
            common &= adj[v]
        if not common and mask & (mask - 1):
            return False
    return True


def _floor(g: Graph) -> int:
    """A lower bound on the value of ``g`` minus any set of edges: γ_t of
    each component of two or more vertices, one per isolated vertex."""
    return sum(
        total_domination_number(comp).value if comp.n > 1 else 1
        for comp, _ in components(g)
    )


def _sweep(g: Graph, mode: str, items, delete, budget_ms, backend) -> PerturbationResult:
    """Try removing subsets of ``items``, smallest and lexicographically
    first, one per automorphism orbit, until the value changes.  In edge
    mode, when the floor equals the value (compared once, before the
    walk), a subset that a pooled coloring still colors is skipped (see
    the module docstring); otherwise the pool stays empty."""
    deadline = Deadline(budget_ms)
    before, coloring = dom_chromatic(g, backend=backend)
    pool = []  # dominated colorings with ``before`` classes
    if mode == "edge" and _floor(g) == before:
        pool.append([sum(1 << v for v in members) for members in coloring.classes().values()])
    perms = _item_permutations(g, mode, items, deadline.check)
    for combo in _least_subsets(len(items), perms, deadline.check):
        subset = tuple(items[i] for i in combo)
        h = delete(g, subset)
        if pool and any(_colors(h.adj, classes) for classes in pool):
            continue
        classes = _solve(h, backend, False)
        if len(classes) != before:
            return PerturbationResult(
                mode, True, before, size=len(combo), witness=subset, after=len(classes)
            )
        if pool:
            pool.insert(0, classes)
    return PerturbationResult(mode, False, before)


def dom_stability(
    g: Graph, *, budget_ms: int | None = None, backend: str | None = None
) -> PerturbationResult:
    """Minimum number of vertex deletions changing the dominated chromatic
    number.  Removing all vertices yields the empty graph (value 0), so a
    witness always exists.

    The cap is fixed at ``STABILITY_VERTEX_CAP`` (14) vertices: a larger
    graph raises :class:`BudgetExceededError` before any solve (CLI exit
    code 2).  ``budget_ms`` bounds the time of the sweep."""
    if g.n == 0:
        raise ValueError("stability of the empty graph is undefined")
    if g.n > STABILITY_VERTEX_CAP:
        raise BudgetExceededError(
            f"stability sweep refused: {g.n} vertices exceeds the cap of "
            f"{STABILITY_VERTEX_CAP}"
        )
    return _sweep(g, "vertex", range(g.n), delete_vertices, budget_ms, backend)


def dom_bondage(
    g: Graph, *, budget_ms: int | None = None, backend: str | None = None
) -> PerturbationResult:
    """Minimum number of edge deletions changing the dominated chromatic
    number, or a no-witness result when no edge subset changes it.

    The cap is fixed at ``BONDAGE_EDGE_CAP`` (24) edges: a larger graph
    raises :class:`BudgetExceededError` before any solve (CLI exit code 2).
    ``budget_ms`` bounds the time of the sweep."""
    edges = g.edges()
    if not edges:
        raise ValueError("bondage of an edgeless graph is undefined")
    if len(edges) > BONDAGE_EDGE_CAP:
        raise BudgetExceededError(
            f"bondage sweep refused: {len(edges)} edges exceeds the cap of "
            f"{BONDAGE_EDGE_CAP}"
        )
    return _sweep(g, "edge", edges, delete_edges, budget_ms, backend)

"""Immutable simple graphs with bitmask adjacency, plus the structural
operations (deletion, union, products, attachments) that the parametrized
constructions reduce to.

Vertices are always ``0..n-1``.  ``adj[v]`` is an int bitmask of the open
neighborhood of ``v``, which makes adjacency tests and neighborhood-subset
checks (the core test of dominated-coloring search) single integer ops.
``bits`` lists the vertices of a mask, and ``mask_image`` carries a mask
through a vertex relabeling.

A graph is checked once, where it enters: ``Graph(n, rows)`` checks rows
from outside the library, and ``_derived`` builds the graphs derived from
checked input.  Graphs are immutable; an operation returns a new one, or
its input where nothing changes (``components`` of a connected graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import GraphFormatError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if mask & ~full:
                raise ValueError(f"neighbor out of range at vertex {v}")
        for v, mask in enumerate(self.adj):
            m = mask
            while m:
                u = (m & -m).bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
                m &= m - 1

    # -- basic queries ----------------------------------------------------

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex out of range: {v}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[self._vertex(u)] >> self._vertex(v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter(bits(self.adj[self._vertex(v)]))

    def edges(self) -> list[Edge]:
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                out.append((v, u))
                m &= m - 1
        return out

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adj[v]]


def _derived(adj: tuple[int, ...]) -> Graph:
    """A graph built from checked input, without the checks of
    ``Graph.__post_init__``, which cannot fail on its producers' rows.
    ``induced`` and ``delete_edges`` cut a simple graph, which stays
    simple.  ``make_graph`` sets both rows of each edge that passed its
    loop and endpoint checks.  ``r_glue`` maps two simple graphs
    injectively each, its identified vertices being distinct.  The solver
    and the sweeps build such graphs by the thousand."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "adj", adj)
    return g


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def mask_image(mask: int, labels: Sequence[int] | Mapping[int, int]) -> int:
    """The bitmask of ``labels[v]`` over the set bits ``v`` of ``mask``."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return image


def make_graph(n: int, edges: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a graph from a vertex count and an edge collection.

    Duplicate edges collapse; loops, out-of-range endpoints and a negative
    count raise.  The count check comes after the edge loop, where a
    negative count has made every endpoint out of range, so the first
    edge, if any, is the error reported.
    """
    masks = [0] * n
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return _derived(tuple(masks))


def induced(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on distinct ``vertices``, with ``vertices[i]``
    relabeled ``i``."""
    pos = {v: i for i, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise ValueError("repeated vertex in induced-subgraph selection")
    keep = 0
    for v in vertices:
        keep |= 1 << v
    return _derived(tuple(mask_image(g.adj[v] & keep, pos) for v in vertices))


# -- symmetry -------------------------------------------------------------


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Coarsest equitable refinement of the ordered partition ``cells``
    (bitmasks), splitting by neighbor counts into each splitter in turn.

    A split cell keeps its place, its fragments ordered by count, so the
    result depends on the partition's order and never on labels: an
    automorphism maps the refinement of a partition to the refinement of
    its image.
    """
    queue = list(splitters)
    for w in queue:
        out = []
        for cell in cells:
            if cell & (cell - 1):
                by_count: dict[int, int] = {}
                m = cell
                while m:
                    low = m & -m
                    c = (adj[low.bit_length() - 1] & w).bit_count()
                    by_count[c] = by_count.get(c, 0) | low
                    m ^= low
                if len(by_count) > 1:
                    fragments = [by_count[c] for c in sorted(by_count)]
                    out.extend(fragments)
                    queue.extend(fragments)
                    continue
            out.append(cell)
        cells = out
    return cells


def _individualize(adj: Sequence[int], cells: list[int], i: int, v: int) -> list[int]:
    """Split ``v`` off cell ``i`` as a singleton placed before the rest, then
    refine.  The old partition was equitable, so ``{v}`` is the only
    splitter needed."""
    single = 1 << v
    return _refine(adj, cells[:i] + [single, cells[i] ^ single] + cells[i + 1:], [single])


def _target(cells: list[int]) -> int:
    """Index of the first non-singleton cell, or -1 for a discrete partition."""
    for i, cell in enumerate(cells):
        if cell & (cell - 1):
            return i
    return -1


def automorphism_generators(
    adj: Sequence[int], check: Callable[[], None]
) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the graph with bitmask rows
    ``adj``, each as a tuple ``p`` with ``p[v]`` the image of ``v``.

    Individualization and refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): the first path of the search tree individualizes
    the lowest vertex of the first non-singleton cell until the partition is
    discrete.  Then, from the deepest level up, every vertex ``w`` of that
    level's cell that is not yet in the orbit of the path's vertex ``v``
    (under the generators found so far, which all fix the path above) gets a
    search below it for a leaf whose labeling maps the first leaf's onto an
    automorphism.  Such a leaf exists exactly when some automorphism fixing
    the path above sends ``v`` to ``w``, so the generators found at each
    level extend those below to the whole pointwise stabilizer, and at the
    root to the whole group.  A ``w`` whose search fails rules out its whole
    orbit.  Subtrees are pruned where the cell sizes differ from the first
    path's.  ``check`` is required and runs at every search node, so a
    caller bounds the work by raising from it.
    """
    n = len(adj)
    full = (1 << n) - 1
    path = [_refine(adj, [full] if n else [], [full])]
    chosen = []
    while (i := _target(path[-1])) >= 0:
        check()
        v = (path[-1][i] & -path[-1][i]).bit_length() - 1
        chosen.append((i, v))
        path.append(_individualize(adj, path[-1], i, v))
    first_leaf = [cell.bit_length() - 1 for cell in path[-1]]
    shapes = [[cell.bit_count() for cell in cells] for cells in path]

    def leaf_automorphism(cells: list[int], depth: int) -> tuple[int, ...] | None:
        check()
        if [cell.bit_count() for cell in cells] != shapes[depth]:
            return None
        i = _target(cells)
        if i < 0:
            p = [0] * n
            for a, cell in zip(first_leaf, cells):
                p[a] = cell.bit_length() - 1
            for v in range(n):
                if mask_image(adj[v], p) != adj[p[v]]:
                    return None
            return tuple(p)
        for x in bits(cells[i]):
            found = leaf_automorphism(_individualize(adj, cells, i, x), depth + 1)
            if found is not None:
                return found
        return None

    orbit = list(range(n))  # union-find forest over the orbits found so far

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    gens = []
    for depth in range(len(chosen) - 1, -1, -1):
        i, v = chosen[depth]
        failed: list[int] = []
        for w in bits(path[depth][i]):
            rw = find(w)
            if rw == find(v) or any(find(f) == rw for f in failed):
                continue
            p = leaf_automorphism(_individualize(adj, path[depth], i, w), depth + 1)
            if p is None:
                failed.append(w)
                continue
            gens.append(p)
            for a, b in enumerate(p):
                orbit[find(a)] = find(b)
    return gens


# -- deletion -------------------------------------------------------------


def delete_vertices(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the complement of ``vertices``, densely relabeled."""
    gone = set(vertices)
    for v in gone:
        g._vertex(v)  # raises for a vertex out of range
    return induced(g, [v for v in range(g.n) if v not in gone])


def delete_edges(g: Graph, edges: Iterable[Sequence[int]]) -> Graph:
    """Same vertex set with the given edges removed; absent edges raise."""
    adj = list(g.adj)
    for e in edges:
        u, v = e
        if not g.has_edge(u, v):
            raise ValueError(f"edge not in graph: {tuple(e)}")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return _derived(tuple(adj))


# -- composition ----------------------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; ``h``'s vertices are shifted by ``g.n``."""
    return r_glue(g, h, (), ())


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex ``(u, v)`` gets row-major index ``u*h.n + v``."""
    edges = []
    for u in range(g.n):
        for v, w in h.edges():
            edges.append((u * h.n + v, u * h.n + w))
    for v in range(h.n):
        for u, w in g.edges():
            edges.append((u * h.n + v, w * h.n + v))
    return make_graph(g.n * h.n, edges)


def point_attach(g: Graph, h: Graph, u: int, v: int) -> Graph:
    """Glue ``h`` onto ``g`` by identifying ``v`` (in h) with ``u`` (in g).

    The identified vertex keeps label ``u``; the remaining vertices of ``h``
    are appended densely after ``g``'s.
    """
    return r_glue(g, h, (u,), (v,))


def _is_clique(g: Graph, vs: Sequence[int]) -> bool:
    return all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:])


def r_glue(g: Graph, h: Graph, clique_g: Sequence[int], clique_h: Sequence[int]) -> Graph:
    """Identify an r-clique of ``g`` with an r-clique of ``h`` positionally.

    ``clique_g[i]`` is identified with ``clique_h[i]``; the sequences thus
    carry the matching bijection.  ``r = 0`` degenerates to disjoint union.
    """
    if len(clique_g) != len(clique_h):
        raise ValueError("clique size mismatch")
    if len(set(clique_g)) != len(clique_g) or len(set(clique_h)) != len(clique_h):
        raise ValueError("repeated vertex in clique selection")
    for v in clique_g:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex out of range in first graph: {v}")
    for v in clique_h:
        if not (0 <= v < h.n):
            raise ValueError(f"vertex out of range in second graph: {v}")
    if not _is_clique(g, clique_g):
        raise ValueError("selected vertices do not induce a clique in the first graph")
    if not _is_clique(h, clique_h):
        raise ValueError("selected vertices do not induce a clique in the second graph")
    mapping = dict(zip(clique_h, clique_g))
    nxt = g.n
    for w in range(h.n):
        if w not in mapping:
            mapping[w] = nxt
            nxt += 1
    adj = list(g.adj) + [0] * (nxt - g.n)
    for w in range(h.n):
        adj[mapping[w]] |= mask_image(h.adj[w], mapping)
    return _derived(tuple(adj))


# -- traversal ------------------------------------------------------------


def _bfs_layers(adj: Sequence[int], start: int) -> Iterator[int]:
    """Breadth-first layers from ``start`` as bitmasks: ``1 << start``,
    then the vertices at distance 1, 2, ... from it, ending with the last
    non-empty layer.  The layers are disjoint, and their union is the
    component of ``start``."""
    seen = layer = 1 << start
    while layer:
        yield layer
        nxt = 0
        m = layer
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= adj[v]
            m &= m - 1
        layer = nxt & ~seen
        seen |= layer


def diameter(g: Graph) -> int | float:
    """Maximum BFS distance over all vertex pairs; ``math.inf`` when
    disconnected.  Graphs with fewer than two vertices have diameter 0."""
    full = (1 << g.n) - 1
    best = 0
    for v in range(g.n):
        layers = list(_bfs_layers(g.adj, v))
        if sum(layers) != full:  # disjoint layers, so the sum is the union
            return math.inf
        best = max(best, len(layers) - 1)
    return best


def components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components as ``(subgraph, original_vertices)`` pairs.

    ``original_vertices[i]`` is the input label of the subgraph's vertex
    ``i``; components are ordered by their smallest original vertex.  A
    connected graph is its own one component: ``g`` itself is returned,
    not a copy, which is safe because graphs are immutable.
    """
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        reached = sum(_bfs_layers(g.adj, v))  # disjoint layers
        if reached == (1 << g.n) - 1:
            return [(g, tuple(range(g.n)))]
        seen |= reached
        members = bits(reached)
        out.append((induced(g, members), tuple(members)))
    return out


# -- text formats ----------------------------------------------------------


def format_edge_list(g: Graph) -> str:
    """Serialize as ``n m`` followed by one ``u v`` line per edge (0-based)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _ints(tokens: Iterable[str]) -> list[int] | None:
    """The integers ``tokens`` spell, or ``None`` where one spells none.
    The text formats here and the family specs read every integer through
    it, each caller checking the count it needs."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        return None


def _parsed_graph(n: int, edges: list[Sequence[int]]) -> Graph:
    """``make_graph`` whose bad input, absurd sizes too, is a format error."""
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    except (MemoryError, OverflowError):
        raise GraphFormatError(f"vertex count too large: {n}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list format."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise GraphFormatError("empty edge-list document")
    header = _ints(rows[0])
    if header is None:
        raise GraphFormatError(f"bad header line: {rows[0]}")
    if len(header) != 2:
        raise GraphFormatError("header must be 'n m'")
    n, m = header
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        edge = _ints(row)
        if edge is None or len(edge) != 2:
            raise GraphFormatError(f"bad edge line: {' '.join(row)}")
        edges.append(edge)
    return _parsed_graph(n, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS ``.col`` document (1-based ``e u v`` lines)."""
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line")
            counts = _ints(parts[2:]) if parts[1:2] in (["edge"], ["edges"], ["col"]) else None
            # the edge count is read but not matched against the e lines
            if counts is None or len(counts) != 2 or counts[1] < 0:
                raise GraphFormatError(f"bad problem line: {line}")
            n = counts[0]
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before problem line")
            edge = _ints(parts[1:])
            if edge is None or len(edge) != 2:
                raise GraphFormatError(f"bad edge line: {line}")
            edges.append((edge[0] - 1, edge[1] - 1))
        else:
            raise GraphFormatError(f"unrecognized line: {line}")
    if n is None:
        raise GraphFormatError("missing problem line")
    return _parsed_graph(n, edges)

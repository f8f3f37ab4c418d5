"""Classical invariants against known values and brute-force enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domchrom as dc
from domchrom.graph import _bfs_masks
from domchrom.invariants import distance_two_rows, independence_number
from corpus import random_corpus


def gen(text):
    return dc.generate(dc.parse_family(text))


# -- brute-force oracles (independent of the library's solvers) ----------------


def chi_brute(g):
    """Minimum blocks over all partitions into independent sets."""
    best = [g.n]
    blocks = []

    def rec(v):
        if len(blocks) >= best[0]:
            return
        if v == g.n:
            best[0] = len(blocks)
            return
        for i, b in enumerate(blocks):
            if not (g.adj[v] & b):
                blocks[i] |= 1 << v
                rec(v + 1)
                blocks[i] = b
        blocks.append(1 << v)
        rec(v + 1)
        blocks.pop()

    rec(0)
    return best[0]


def cover_brute(g, closed):
    full = (1 << g.n) - 1
    masks = [g.adj[v] | (1 << v) if closed else g.adj[v] for v in range(g.n)]
    best = g.n + 1
    for subset in range(1 << g.n):
        cover = 0
        m = subset
        while m:
            v = (m & -m).bit_length() - 1
            cover |= masks[v]
            m &= m - 1
        if cover == full:
            best = min(best, bin(subset).count("1"))
    return best


def alpha_brute(adj, vertices):
    """Largest subset of ``vertices`` with no edge inside, by enumeration."""
    for r in range(len(vertices), 0, -1):
        for subset in itertools.combinations(vertices, r):
            if all(not adj[u] >> v & 1 for u, v in itertools.combinations(subset, 2)):
                return r
    return 0


# -- independence number -----------------------------------------------------------


@st.composite
def graph_and_mask(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = dc.make_graph(n, [e for e, keep in zip(pairs, picks) if keep])
    vertices = draw(st.lists(st.sampled_from(range(n)), unique=True)) if n else []
    return g, sorted(vertices)


@settings(max_examples=400)
@given(graph_and_mask())
def test_independence_number_matches_brute_force(case):
    g, vertices = case
    mask = sum(1 << v for v in vertices)
    assert independence_number(g.adj, mask) == alpha_brute(g.adj, vertices)


def test_distance_two_rows_are_the_second_bfs_layer():
    for g in random_corpus(1012, 120, n_hi=14, probs=(0.15, 0.3, 0.5)):
        rows = distance_two_rows(g.adj)
        for u in range(g.n):
            dist = _bfs_masks(g.adj, u)
            assert rows[u] == sum(1 << v for v in range(g.n) if dist[v] == 2)


# -- chromatic number ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("cycle:5", 3), ("bipartite:3x3", 2), ("complete:6", 6), ("path:7", 2), ("wheel:5", 4),
        # the graph plus an apex has 64, 65 and 66 vertices
        ("circulant:63:1,3", 3), ("circulant:64:1,3", 2), ("circulant:65:1,3", 3),
    ],
)
def test_chromatic_examples(text, value):
    g = gen(text)
    res = dc.chromatic_number(g)
    assert res.value == value
    # witness is a proper coloring using exactly `value` colors
    assert max(res.witness) == value
    for u, v in g.edges():
        assert res.witness[u] != res.witness[v]


def test_chromatic_empty_graph():
    assert dc.chromatic_number(dc.make_graph(0)).value == 0


# -- domination -------------------------------------------------------------------


@pytest.mark.parametrize("text,value", [("complete:5", 1), ("cycle:6", 2), ("path:7", 3)])
def test_domination_examples(text, value):
    g = gen(text)
    res = dc.domination_number(g)
    assert res.value == value
    covered = 0
    for v in res.witness:
        covered |= g.adj[v] | (1 << v)
    assert covered == (1 << g.n) - 1


def test_domination_empty_graph_undefined():
    with pytest.raises(dc.UndefinedInvariantError):
        dc.domination_number(dc.make_graph(0))


def test_domination_edgeless():
    assert dc.domination_number(dc.make_graph(3)).value == 3


# -- total domination ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("complete:2", 2), ("circulant:8:1,3", 2), ("circulant:10:1,3", 4)],
)
def test_total_domination_examples(text, value):
    g = gen(text)
    res = dc.total_domination_number(g)
    assert res.value == value
    covered = 0
    for v in res.witness:
        covered |= g.adj[v]
    assert covered == (1 << g.n) - 1


def test_total_domination_rejects_isolates():
    with pytest.raises(dc.UndefinedInvariantError, match="isolated"):
        dc.total_domination_number(dc.make_graph(3, [(0, 1)]))


def test_total_domination_rejects_empty():
    with pytest.raises(dc.UndefinedInvariantError):
        dc.total_domination_number(dc.make_graph(0))


# -- solver equivalence with exhaustive enumeration -----------------------------------


def test_solvers_agree_with_brute_force_small():
    for g in random_corpus(31, 60, n_lo=1, n_hi=8):
        assert dc.chromatic_number(g).value == chi_brute(g)
        if g.n:
            assert dc.domination_number(g).value == cover_brute(g, closed=True)
        if g.n and not g.isolated_vertices():
            assert dc.total_domination_number(g).value == cover_brute(g, closed=False)


def test_gamma_sandwich_gamma_t():
    # gamma <= gamma_t <= 2 gamma on isolate-free graphs
    for g in random_corpus(32, 40, n_lo=2, n_hi=8, isolate_free=True):
        gamma = dc.domination_number(g).value
        gamma_t = dc.total_domination_number(g).value
        assert gamma <= gamma_t <= 2 * gamma

"""Stability/bondage sweeps, witnesses, budgets and prediction tables."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import domchrom as dc
from domchrom import perturb, solver
from domchrom.graph import automorphism_generators
from domchrom.perturb import PerturbationResult
from domchrom.predictions import PROVED, SUSPECT
from corpus import random_corpus


def gen(text):
    return dc.generate(dc.parse_family(text))


# -- stability -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,size",
    [("path:7", 2), ("cycle:8", 3), ("bipartite:3x3", 3), ("friendship:2", 1)],
)
def test_stability_values(text, size):
    r = dc.dom_stability(gen(text))
    assert r.found and r.size == size
    assert r.after != r.before


def test_stability_single_vertex():
    r = dc.dom_stability(dc.make_graph(1))
    assert r.size == 1 and r.before == 1 and r.after == 0


def test_stability_empty_graph_undefined():
    with pytest.raises(ValueError):
        dc.dom_stability(dc.make_graph(0))


def test_stability_witness_changes_value():
    g = gen("cycle:12")
    r = dc.dom_stability(g)
    assert dc.dom_chromatic(dc.delete_vertices(g, r.witness))[0] == r.after != r.before


def test_stability_witness_is_minimal():
    g = gen("cycle:8")
    r = dc.dom_stability(g)
    assert r.size == 3
    for smaller in combinations(range(g.n), r.size - 1):
        assert dc.dom_chromatic(dc.delete_vertices(g, smaller))[0] == r.before


def test_stability_witness_is_lexicographically_first():
    g = gen("bipartite:3x3")
    assert dc.dom_stability(g).witness == (0, 1, 2)


def test_stability_cap_guard(monkeypatch):
    with pytest.raises(dc.BudgetExceededError) as refused:
        dc.dom_stability(gen("path:15"))
    assert str(refused.value) == "stability sweep refused: 15 vertices exceeds the cap of 14"
    # the cap is read at call time, so the sweep past it stays covered
    monkeypatch.setattr(perturb, "STABILITY_VERTEX_CAP", 15)
    assert dc.dom_stability(gen("path:15")).size == 2


def test_stability_time_budget():
    with pytest.raises(dc.BudgetExceededError, match="budget"):
        dc.dom_stability(gen("bipartite:4x4"), budget_ms=0)


def test_bondage_time_budget():
    with pytest.raises(dc.BudgetExceededError, match="budget"):
        dc.dom_bondage(gen("bipartite:4x5"), budget_ms=0)


def perfect_matching(pairs):
    return dc.make_graph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def test_budget_bounds_the_orbit_walk_of_a_perfect_matching():
    # no edge subset of 24K2 changes the value (a lone vertex is its own
    # class), so the sweep runs through every size; the subsets of size s
    # form one orbit of C(24, s) members, up to 2.7 million at s = 12, of
    # which only the least, {0, ..., s - 1}, is solved.  The budget must cut
    # the group search, the stabiliser chain and the walk
    g = perfect_matching(24)
    start = time.monotonic()
    try:
        r = dc.dom_bondage(g, budget_ms=200)
    except dc.BudgetExceededError:
        pass
    else:
        assert not r.found
    assert time.monotonic() - start < 1.0


def test_perfect_matching_sweep_finishes_without_budget():
    # one least subset per size: 24 solves, not 2^24
    start = time.monotonic()
    r = dc.dom_bondage(perfect_matching(24))
    assert time.monotonic() - start < 1.0
    assert r == PerturbationResult("edge", False, 48)


def test_the_least_subset_walk_checks_the_budget():
    # the group search is done; a budget that runs out during the walk
    # (candidates, stabiliser chain, minimal-image tests) must stop it
    g = perfect_matching(24)
    edges = g.edges()
    perms = perturb._item_permutations(g, "edge", edges, lambda: None)
    calls = 0

    def check():
        nonlocal calls
        calls += 1
        if calls > 50:
            raise dc.BudgetExceededError("budget")

    with pytest.raises(dc.BudgetExceededError):
        for _ in perturb._least_subsets(len(edges), perms, check):
            pass


# -- bondage ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,size",
    [("path:6", 2), ("cycle:6", 3), ("cycle:8", 2), ("bipartite:2x2", 2), ("book:2", 1)],
)
def test_bondage_values(text, size):
    r = dc.dom_bondage(gen(text))
    assert r.found and r.size == size


def test_bondage_no_witness_for_k2():
    r = dc.dom_bondage(dc.make_graph(2, [(0, 1)]))
    assert not r.found and r.size is None and r.after is None and r.before == 2


def test_bondage_edgeless_undefined():
    with pytest.raises(ValueError):
        dc.dom_bondage(dc.make_graph(3))


def test_bondage_witness_changes_value():
    g = gen("cycle:10")
    r = dc.dom_bondage(g)
    assert r.size == 3
    assert dc.dom_chromatic(dc.delete_edges(g, r.witness))[0] == r.after != r.before


def test_bondage_single_edge_never_changes_cycles():
    # removing one edge of a cycle leaves a path with the same value
    for n in range(4, 11):
        assert dc.dom_bondage(gen(f"cycle:{n}")).size >= 2


def test_bondage_cap_guard(monkeypatch):
    with pytest.raises(dc.BudgetExceededError, match="cap"):
        dc.dom_bondage(gen("complete:8"))
    with pytest.raises(dc.BudgetExceededError) as refused:
        dc.dom_bondage(gen("cycle:25"))
    assert str(refused.value) == "bondage sweep refused: 25 edges exceeds the cap of 24"
    # the cap is read at call time, so the sweep past it stays covered
    monkeypatch.setattr(perturb, "BONDAGE_EDGE_CAP", 25)
    r = dc.dom_bondage(gen("cycle:25"))
    assert (r.size, r.witness) == (2, ((0, 1), (2, 3)))
    assert dc.predict_bondage(dc.parse_family("cycle:25")).value == r.size


# -- orbit sweep against a plain sweep ---------------------------------------------


def plain_sweep(g, mode):
    """Every subset in lexicographic order, each one solved: the reference
    the orbit sweep must agree with field for field."""
    if mode == "vertex":
        items, delete = range(g.n), dc.delete_vertices
    else:
        items, delete = g.edges(), dc.delete_edges
    before = dc.dom_chromatic(g)[0]
    for s in range(1, len(items) + 1):
        for subset in combinations(items, s):
            after = dc.dom_chromatic(delete(g, subset))[0]
            if after != before:
                return PerturbationResult(mode, True, before, s, subset, after)
    return PerturbationResult(mode, False, before)


def _proved(ranges, predict):
    out = []
    for text in ranges:
        for fs in dc.parse_family_range(text):
            try:
                if predict(fs).status == PROVED:
                    out.append(str(fs))
            except dc.NoPredictionError:
                pass
    return out


STABILITY_TABLE = _proved(
    ["path:4..12", "cycle:4..12", "friendship:2..3", "wheel:3..6", "book:2..3",
     "flower:3..4x2", "bipartite:3..4x3..4"],
    dc.predict_stability,
)
BONDAGE_TABLE = _proved(
    ["path:4..12", "cycle:4..11", "book:2..3", "bipartite:1..4x1..4"],
    dc.predict_bondage,
)


def test_group_is_searched_once_per_sweep_on_non_isolated_vertices(monkeypatch):
    sizes = []

    def spy(adj, check):
        sizes.append(len(adj))
        return automorphism_generators(adj, check)

    monkeypatch.setattr(perturb, "automorphism_generators", spy)
    # a star loses its value with one edge: the group is still searched,
    # once, before size 1
    assert dc.dom_bondage(gen("bipartite:1x24")).size == 1
    assert sizes == [25]
    # C8 plus three isolated vertices needs two edges: the group is
    # searched once, on the eight cycle vertices
    g = dc.disjoint_union(gen("cycle:8"), dc.make_graph(3))
    assert dc.dom_bondage(g).size == 2
    assert sizes == [25, 8]


def _count_visits_and_solves(monkeypatch, g, mode):
    """Lists that fill, as the sweep runs, with the size of each subset it
    removes and of each subset it solves."""
    visited, solved = [], []
    name = "delete_vertices" if mode == "vertex" else "delete_edges"
    delete = getattr(perturb, name)

    def counted_delete(h, subset):
        visited.append(len(subset))
        return delete(h, subset)

    def counted_solve(h, backend, certify):
        solved.append(g.n - h.n if mode == "vertex" else g.m - h.m)
        return solver._solve(h, backend, certify)

    monkeypatch.setattr(perturb, name, counted_delete)
    monkeypatch.setattr(perturb, "_solve", counted_solve)
    return visited, solved


@pytest.mark.parametrize("text,mode", [("cycle:12", "vertex"), ("cycle:18", "edge")])
def test_size_one_solves_one_subset_per_orbit(monkeypatch, text, mode):
    g = gen(text)
    visited, solved = _count_visits_and_solves(monkeypatch, g, mode)
    r = (dc.dom_stability if mode == "vertex" else dc.dom_bondage)(g)
    # a cycle's group is transitive on its vertices and on its edges
    assert r.size > 1 and visited.count(1) == 1
    # the vertex sweep solves every subset it visits; the edge sweep skips
    # those the cycle's certificate or an earlier solve still colors
    if mode == "vertex":
        assert solved == visited and len(solved) == 8
    else:
        assert len(solved) == 5 and solved[-1] == r.size


def test_bondage_of_a_large_group_solves_one_subset_per_orbit(monkeypatch):
    # Aut(K_{4,5}) = S_4 x S_5 has order 2880 on the 20 edges: the sweep
    # visits 22 least subsets, up to the first witness of size 4
    g = gen("bipartite:4x5")
    visited, solved = _count_visits_and_solves(monkeypatch, g, "edge")
    unperturbed = []

    def counted(h, *, backend=None):
        unperturbed.append(h.m)
        return solver.dom_chromatic(h, backend=backend)

    monkeypatch.setattr(perturb, "dom_chromatic", counted)
    assert dc.dom_bondage(g).size == 4
    assert len(visited) == 22 and unperturbed == [20]
    # γ_t(K_{4,5}) = 2 is the value, and the certificate colors every
    # subset but the witness, the one subset solved
    assert solved == [4]


@pytest.mark.parametrize("text", STABILITY_TABLE + ["prism:5", "circulant:12:1,3"])
def test_stability_equals_plain_sweep(text):
    g = gen(text)
    assert dc.dom_stability(g) == plain_sweep(g, "vertex")


@pytest.mark.parametrize(
    "text", BONDAGE_TABLE + ["circulant:12:1,3", "bipartite:4x5", "prism:8"]
)
def test_bondage_equals_plain_sweep(text):
    g = gen(text)
    assert dc.dom_bondage(g) == plain_sweep(g, "edge")


def dense_and_sparse_graphs(seed, count):
    """``count`` seeded G(n, p) with 2 <= n <= 10 and p = 0.15..0.7, at
    least one edge and at most the bondage cap: with triangles, isolated
    vertices and several components."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, p = rng.randint(2, 10), rng.uniform(0.15, 0.7)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        if edges:
            out.append(dc.make_graph(n, edges[: perturb.BONDAGE_EDGE_CAP]))
    return out


def test_bondage_skips_only_subsets_that_keep_the_value():
    # A skipped subset keeps the value only if the pooled coloring is proper
    # in G - S and the γ_t floor equals the value.  Dropping the properness
    # test changes the result on 4 of these graphs, dropping the floor guard
    # on 334, so the corpus is sized to catch both.
    graphs = dense_and_sparse_graphs(1, 1000)
    assert all(
        sum(f(g) for g in graphs) > 300
        for f in (
            lambda g: any(g.adj[u] & g.adj[v] for u, v in g.edges()),
            lambda g: bool(g.isolated_vertices()),
            lambda g: len(dc.components(g)) > 1,
        )
    )
    for g in graphs:
        assert dc.dom_bondage(g) == plain_sweep(g, "edge")


def test_pool_check_agrees_with_verify():
    rng = random.Random(7)
    seen = set()
    for g in dense_and_sparse_graphs(7, 400):
        k = rng.randint(1, g.n)
        assignment = [rng.randrange(k) for _ in range(g.n)]
        members = [[v for v in range(g.n) if assignment[v] == c] for c in range(k)]
        classes = [sum(1 << v for v in vs) for vs in members if vs]
        ok = perturb._colors(g.adj, classes)
        assert ok == (solver.verify(g, solver._assemble(g, classes)) is None)
        seen.add(ok)
    assert seen == {True, False}


@st.composite
def symmetric_graphs(draw, max_n=9):
    """Copies of one small graph, with random extra edges and isolated
    vertices, shuffled: graphs with many automorphisms and with none."""
    size = draw(st.integers(1, 4))
    copies = draw(st.integers(1, max_n // size))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    part = [e for e in pairs if draw(st.booleans())]
    n = draw(st.integers(size * copies, max_n))
    edges = [(c * size + i, c * size + j) for c in range(copies) for i, j in part]
    extra = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += draw(st.lists(st.sampled_from(extra), max_size=3)) if extra else []
    order = draw(st.permutations(range(n)))
    return dc.make_graph(n, [(order[u], order[v]) for u, v in edges])


@st.composite
def sparse_graphs(draw, max_n=9):
    """At most 12 random edges on up to 9 vertices, so isolated vertices
    are common."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return dc.make_graph(n, draw(st.lists(st.sampled_from(pairs), max_size=12))
                         if pairs else [])


@settings(max_examples=200)
@given(st.one_of(symmetric_graphs(), sparse_graphs()))
def test_orbit_sweeps_equal_plain_sweeps(g):
    if g.n:
        assert dc.dom_stability(g) == plain_sweep(g, "vertex")
    if 0 < g.m <= 10:
        assert dc.dom_bondage(g) == plain_sweep(g, "edge")


def least_by_closure(n, perms):
    """The least member of every orbit of subsets of ``range(n)``, each
    orbit found by closing a subset under the generators ``perms``, sorted
    by size and then lexicographically."""
    least = []
    seen = set()
    for s in range(1, n + 1):
        for subset in combinations(range(n), s):
            if subset in seen:
                continue
            orbit = {subset}
            frontier = [subset]
            while frontier:
                members = frontier.pop()
                for p in perms:
                    image = tuple(sorted(p[i] for i in members))
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            seen |= orbit
            least.append(min(orbit))
    return sorted(least, key=lambda t: (len(t), t))


@settings(max_examples=300)
@given(st.one_of(symmetric_graphs(max_n=10), sparse_graphs(max_n=10)), st.booleans())
def test_least_subsets_are_one_per_orbit_in_order(g, edges):
    items = g.edges() if edges else range(g.n)
    assume(len(items) <= 10)
    perms = perturb._item_permutations(g, "edge" if edges else "vertex", items, lambda: None)
    got = list(perturb._least_subsets(len(items), perms, lambda: None))
    assert got == least_by_closure(len(items), perms)


# -- prediction tables ---------------------------------------------------------------


def test_predict_stability_paths_cycles():
    assert dc.predict_stability(dc.parse_family("path:11")).value == 2
    assert dc.predict_stability(dc.parse_family("path:10")).value == 1
    assert dc.predict_stability(dc.parse_family("cycle:9")).value == 1
    assert dc.predict_stability(dc.parse_family("cycle:12")).value == 3
    assert dc.predict_stability(dc.parse_family("cycle:11")).value == 2


def test_predict_stability_families():
    assert dc.predict_stability(dc.parse_family("friendship:4")).value == 1
    assert dc.predict_stability(dc.parse_family("wheel:6")).value == 1
    assert dc.predict_stability(dc.parse_family("book:3")).value == 1
    assert dc.predict_stability(dc.parse_family("flower:5x2")).value == 1
    p = dc.predict_stability(dc.parse_family("bipartite:4x4"))
    assert p.value == 4 and p.status == PROVED


def test_predict_stability_balanced_two_is_suspect():
    # the 2x2 case is the 4-cycle: the side-removal argument stalls there
    p = dc.predict_stability(dc.parse_family("bipartite:2x2"))
    assert p.value == 2 and p.status == SUSPECT
    assert dc.dom_stability(gen("bipartite:2x2")).size == 3


def test_predict_stability_unsupported():
    with pytest.raises(dc.NoPredictionError):
        dc.predict_stability(dc.parse_family("bipartite:3x4"))
    with pytest.raises(dc.NoPredictionError):
        dc.predict_stability(dc.parse_family("tchain:3"))


def test_predict_bondage_tables():
    assert dc.predict_bondage(dc.parse_family("path:10")).value == 2
    assert dc.predict_bondage(dc.parse_family("path:9")).value == 1
    assert dc.predict_bondage(dc.parse_family("cycle:12")).value == 2
    assert dc.predict_bondage(dc.parse_family("cycle:10")).value == 3
    assert dc.predict_bondage(dc.parse_family("book:4")).value == 1
    assert dc.predict_bondage(dc.parse_family("bipartite:5x3")).value == 3


def test_predict_bondage_friendship_is_suspect():
    p = dc.predict_bondage(dc.parse_family("friendship:3"))
    assert p.value == 1 and p.status == SUSPECT
    # solver refutes the printed value at n = 2
    assert dc.dom_bondage(gen("friendship:2")).size == 2


def test_predict_bondage_requires_larger_first_side():
    with pytest.raises(dc.NoPredictionError):
        dc.predict_bondage(dc.parse_family("bipartite:2x5"))


# -- cross-cutting properties ----------------------------------------------------------


def test_stability_gap_construction():
    # balanced complete bipartite vs double stars: equal values, stability
    # gap n - 1
    for n in (3, 4):
        knn = gen(f"bipartite:{n}x{n}")
        dstar = gen(f"doublestar:{n}x{n}")
        assert dc.dom_chromatic(knn)[0] == dc.dom_chromatic(dstar)[0] == 2
        gap = abs(dc.dom_stability(knn).size - dc.dom_stability(dstar).size)
        assert gap == n - 1


def test_stability_lemma_small_random():
    for g in random_corpus(13, 25, n_lo=2, n_hi=7):
        st_g = dc.dom_stability(g).size
        for v in range(g.n):
            h = dc.delete_vertices(g, [v])
            if h.n == 0:
                continue
            assert st_g <= dc.dom_stability(h).size + 1

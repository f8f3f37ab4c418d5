import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domchrom as dc
from domchrom.graph import automorphism_generators, bits, induced, make_graph
from corpus import digest, generated_corpus, isolated_random_corpus


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, keep in zip(pairs, picks) if keep])


def path(n):
    return dc.generate(dc.spec("path", n))


def cycle(n):
    return dc.generate(dc.spec("cycle", n))


def complete(n):
    return dc.generate(dc.spec("complete", n))


# -- construction -------------------------------------------------------------


def test_make_graph_k2():
    g = make_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)


def test_make_graph_p4():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_make_graph_edgeless():
    g = make_graph(3, [])
    assert g.m == 0 and g.isolated_vertices() == [0, 1, 2]


def test_make_graph_collapses_duplicates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_make_graph_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        make_graph(3, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="range"):
        make_graph(3, [(0, 3)])


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        dc.Graph(2, (0b10, 0b00))  # asymmetric


# A negative count leaves every endpoint out of range, so the first edge, if
# there is one, is the first error; without edges it is the count.
_COUNT_ERROR = "vertex count must be non-negative"
_ENDPOINT_ERROR = "edge endpoint out of range: (0, 1)"


@pytest.mark.parametrize(
    "build,args,error,message",
    [
        (make_graph, (-1,), ValueError, _COUNT_ERROR),
        (make_graph, (-2, [(0, 1)]), ValueError, _ENDPOINT_ERROR),
        (dc.parse_edge_list, ("-1 0\n",), dc.GraphFormatError, _COUNT_ERROR),
        (dc.parse_edge_list, ("-2 1\n0 1\n",), dc.GraphFormatError, _ENDPOINT_ERROR),
        (dc.parse_dimacs, ("p edge -3 0\n",), dc.GraphFormatError, _COUNT_ERROR),
        (dc.parse_dimacs, ("p edge -3 1\ne 1 2\n",), dc.GraphFormatError, _ENDPOINT_ERROR),
    ],
)
def test_negative_vertex_count_reports_its_first_error(build, args, error, message):
    with pytest.raises(error) as info:
        build(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def _builder_corpus():
    """Graphs from every builder: the generated family graphs, and the
    disjoint unions, point attachments, 2-glues and Cartesian products of
    every pair from a small set."""
    graphs = [g for _, g in generated_corpus()]
    small = [make_graph(0), make_graph(1), make_graph(2), path(2), path(4), cycle(5),
             complete(4), dc.generate(dc.spec("star", 3)), dc.generate(dc.spec("grid", 2, 3)),
             dc.generate(dc.spec("friendship", 2)), dc.disjoint_union(path(2), complete(3))]
    for g in small:
        for h in small:
            graphs += [dc.disjoint_union(g, h), dc.cartesian_product(g, h)]
            if g.n and h.n:
                graphs += [dc.point_attach(g, h, 0, h.n - 1), dc.point_attach(g, h, g.n - 1, 0)]
            if g.m and h.m:
                (a, b), (c, d) = g.edges()[-1], h.edges()[0]
                graphs += [dc.r_glue(g, h, (a, b), (c, d)), dc.r_glue(g, h, (b, a), (c, d))]
    return graphs


def test_builders_return_rows_the_full_check_accepts():
    graphs = _builder_corpus()
    assert len(graphs) > 1000
    for g in graphs:
        assert dc.Graph(g.n, g.adj) == g


# -- deletion -----------------------------------------------------------------


def test_delete_endpoint_of_path():
    assert dc.delete_vertices(path(4), [3]) == path(3)


def test_delete_cut_vertex_of_path():
    g = dc.delete_vertices(path(4), [1])
    comps = sorted(c.n for c, _ in dc.components(g))
    assert comps == [1, 2]


def test_delete_full_side_of_k33():
    g = dc.generate(dc.spec("bipartite", 3, 3))
    h = dc.delete_vertices(g, [0, 1, 2])
    assert h.n == 3 and h.m == 0


def test_delete_vertices_relabels_densely():
    assert dc.delete_vertices(path(5), [2]) == make_graph(4, [(0, 1), (2, 3)])
    assert dc.delete_vertices(path(5), [1, 3]) == make_graph(3, [])


def test_delete_vertices_out_of_range():
    with pytest.raises(ValueError, match="range"):
        dc.delete_vertices(path(3), [5])


def test_delete_one_edge_of_cycle_gives_path():
    g = dc.delete_edges(cycle(5), [(4, 0)])
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert dc.diameter(g) == 4  # a 5-path


def test_delete_only_edge_of_k2():
    g = dc.delete_edges(make_graph(2, [(0, 1)]), [(0, 1)])
    assert g.m == 0 and g.n == 2


def test_delete_alternating_cycle_edges_gives_matching():
    # on a 6-cycle, dropping every other edge leaves three disjoint edges
    g = dc.delete_edges(cycle(6), [(1, 2), (3, 4), (5, 0)])
    comps = [c for c, _ in dc.components(g)]
    assert len(comps) == 3 and all(c.n == 2 and c.m == 1 for c in comps)


def test_delete_absent_edge_raises():
    with pytest.raises(ValueError, match="not in graph"):
        dc.delete_edges(path(4), [(0, 2)])


@pytest.mark.parametrize("edge", [(5, 0), (0, 5), (-1, 1), (1, -1)])
def test_delete_edges_out_of_range(edge):
    with pytest.raises(ValueError, match="vertex out of range"):
        dc.delete_edges(path(3), [edge])


@pytest.mark.parametrize(
    "method,args",
    [
        ("has_edge", (-1, 1)), ("has_edge", (0, -1)), ("has_edge", (3, 0)),
        ("has_edge", (0, 3)), ("degree", (-1,)), ("degree", (3,)),
        ("neighbors", (-1,)), ("neighbors", (3,)),
    ],
)
def test_vertex_queries_reject_out_of_range_vertices(method, args):
    # a negative vertex would read the last row by negative indexing
    with pytest.raises(ValueError, match="vertex out of range"):
        getattr(path(3), method)(*args)


@given(graphs())
def test_deleting_nothing_is_identity(g):
    assert dc.delete_vertices(g, []) == g
    assert dc.delete_edges(g, []) == g


@pytest.mark.parametrize(
    "g,vertices",
    [
        (make_graph(2, [(0, 1)]), [0, 1, 0]),  # the row of 1 would point at 0 only
        (make_graph(2), [1, 1]),  # an isolated repeat gave two vertices
    ],
)
def test_induced_rejects_a_repeated_vertex(g, vertices):
    with pytest.raises(ValueError, match="repeated vertex"):
        induced(g, vertices)


def _induced_reference(g, kept):
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return make_graph(len(kept), edges)


def _subset(data, items):
    picks = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return [x for x, keep in zip(items, picks) if keep]


@given(graphs(max_n=12), graphs(max_n=6), st.data())
def test_derived_graphs_match_edge_list_reference(g, h, data):
    gone = _subset(data, range(g.n))
    kept = [v for v in range(g.n) if v not in gone]
    assert dc.delete_vertices(g, gone) == _induced_reference(g, kept)

    drop = _subset(data, g.edges())
    want = make_graph(g.n, [e for e in g.edges() if e not in drop])
    assert dc.delete_edges(g, [(v, u) for u, v in drop]) == want

    comps = dc.components(g)
    assert sorted(v for _, orig in comps for v in orig) == list(range(g.n))
    assert [orig[0] for _, orig in comps] == sorted(orig[0] for _, orig in comps)
    for comp, orig in comps:
        assert list(orig) == sorted(orig)
        assert comp == _induced_reference(g, orig)
        assert dc.diameter(comp) < math.inf
        assert all((u in orig) == (v in orig) for u, v in g.edges())

    shifted = [(u + g.n, v + g.n) for u, v in h.edges()]
    assert dc.disjoint_union(g, h) == make_graph(g.n + h.n, g.edges() + shifted)

    if g.n and h.n:
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, h.n - 1))
        label = {w: u if w == v else g.n + w - (w > v) for w in range(h.n)}
        glued = [(label[a], label[b]) for a, b in h.edges()]
        assert dc.point_attach(g, h, u, v) == make_graph(g.n + h.n - 1, g.edges() + glued)


# -- composition ---------------------------------------------------------------


def test_disjoint_union_shifts_indices():
    g = dc.disjoint_union(complete(1), make_graph(2, [(0, 1)]))
    assert g.n == 3 and g.edges() == [(1, 2)]


def test_disjoint_union_components():
    g = dc.disjoint_union(path(3), path(3))
    assert len(dc.components(g)) == 2


@given(graphs(max_n=5), graphs(max_n=5))
def test_product_counts(g, h):
    p = dc.cartesian_product(g, h)
    assert p.n == g.n * h.n
    assert p.m == g.n * h.m + h.n * g.m


def test_p2_square_p2_is_4cycle():
    p = dc.cartesian_product(path(2), path(2))
    assert p.n == 4 and p.m == 4
    assert all(p.degree(v) == 2 for v in range(4))


def test_ladder_is_p2_product():
    assert dc.generate(dc.spec("ladder", 5)) == dc.cartesian_product(path(2), path(5))


def test_book_is_star_product():
    star3 = dc.generate(dc.spec("star", 3))
    assert dc.generate(dc.spec("book", 3)) == dc.cartesian_product(star3, path(2))


def test_point_attach_two_edges_gives_path():
    g = dc.point_attach(make_graph(2, [(0, 1)]), make_graph(2, [(0, 1)]), 1, 0)
    assert g.edges() == [(0, 1), (1, 2)]


@given(graphs(max_n=6), graphs(max_n=6))
def test_point_attach_counts(g, h):
    if g.n == 0 or h.n == 0:
        return
    a = dc.point_attach(g, h, 0, h.n - 1)
    assert a.n == g.n + h.n - 1
    assert a.m == g.m + h.m


def test_point_attach_triangles_is_friendship():
    tri = complete(3)
    g = dc.point_attach(tri, tri, 0, 0)
    g = dc.point_attach(g, tri, 0, 0)
    assert g == dc.generate(dc.spec("friendship", 3))


def test_clique_with_attachments_builds_clique_star():
    assert dc.clique_with_attachments(3, complete(3), 0) == dc.generate(
        dc.spec("cliquestar", 3, 3)
    )


def test_r_glue_zero_is_disjoint_union():
    g, h = path(3), cycle(3)
    assert dc.r_glue(g, h, [], []) == dc.disjoint_union(g, h)


def test_r_glue_complete_graphs():
    g = dc.r_glue(complete(4), complete(5), [0, 1, 2, 3], [0, 1, 2, 3])
    assert g == complete(5)
    g = dc.r_glue(complete(5), complete(6), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    assert g == complete(6)


def test_r_glue_counts():
    g = dc.r_glue(complete(4), complete(4), [0, 1], [2, 3])
    assert g.n == 6 and g.m == 6 + 6 - 1


def test_r_glue_rejects_non_clique():
    with pytest.raises(ValueError, match="clique"):
        dc.r_glue(path(4), complete(2), [0, 2], [0, 1])


def test_r_glue_rejects_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dc.r_glue(complete(3), complete(3), [0, 1], [0])


# -- traversal ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_diameter_complete(n):
    assert dc.diameter(complete(n)) == 1


def test_diameter_path():
    assert dc.diameter(path(4)) == 3


def test_diameter_disconnected():
    assert dc.diameter(make_graph(2, [])) == math.inf


@pytest.mark.parametrize("n,want", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_diameter_cycle(n, want):
    assert dc.diameter(cycle(n)) == want


# -- automorphisms ----------------------------------------------------------------


def _group_order(gens, n):
    """Size of the group the permutations ``gens`` generate, by closure."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for gen in gens:
            q = tuple(gen[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def _is_automorphism(g, p):
    return sorted(p) == list(range(g.n)) and all(
        g.has_edge(p[u], p[v]) for u, v in g.edges()
    )


def _automorphism_graphs():
    rng = random.Random(20141)
    out = [
        make_graph(0),
        make_graph(1),
        make_graph(7),
        complete(7),
        make_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # 2K3 + K1
        make_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
        make_graph(7, [(1, 4), (2, 6)]),  # 2K2 + 3K1
        # C3 on {0, 4, 5} and C4 on 1-2-3-6: the first candidate image of 0
        # fails and a later one succeeds
        make_graph(7, [(0, 4), (4, 5), (5, 0), (1, 2), (2, 3), (3, 6), (6, 1)]),
        dc.generate(dc.parse_family("bipartite:3x3")),
    ]
    for _ in range(150):
        n = rng.randint(2, 7)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        pairs = itertools.combinations(range(n), 2)
        out.append(make_graph(n, [e for e in pairs if rng.random() < p]))
    return out


def test_automorphism_generators_match_brute_force():
    for g in _automorphism_graphs():
        gens = automorphism_generators(g.adj, lambda: None)
        assert all(_is_automorphism(g, p) for p in gens)
        brute = sum(
            _is_automorphism(g, p) for p in itertools.permutations(range(g.n))
        )
        assert _group_order(gens, g.n) == brute, g.edges()


def test_automorphism_generators_of_larger_graphs():
    # |Aut| of K_{4,5} is 4! 5!, of C_n is 2n, of the n-prism (n != 4) is 4n
    cases = [
        (dc.generate(dc.parse_family(text)), order)
        for text, order in [("bipartite:4x5", 2880), ("cycle:9", 18), ("prism:5", 20)]
    ]
    # a cubic graph on 8 vertices whose refinement reaches leaves with the
    # first leaf's cell sizes that are not automorphisms (order by brute force)
    cubic = [(0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (2, 5), (2, 7),
             (3, 4), (3, 6), (3, 7), (6, 7)]
    cases.append((make_graph(8, cubic), 4))
    for g, order in cases:
        gens = automorphism_generators(g.adj, lambda: None)
        assert all(_is_automorphism(g, p) for p in gens)
        assert _group_order(gens, g.n) == order


def test_automorphism_search_runs_the_check():
    class Stop(Exception):
        pass

    def stop():
        raise Stop

    with pytest.raises(Stop):
        automorphism_generators(cycle(6).adj, stop)


def test_components_edgeless():
    assert len(dc.components(make_graph(4, []))) == 4


def test_components_carry_original_labels():
    g = dc.disjoint_union(path(2), path(3))
    comps = dc.components(g)
    assert [orig for _, orig in comps] == [(0, 1), (2, 3, 4)]


def test_components_connected():
    # a connected graph is returned itself, not rebuilt
    for g in (cycle(6), path(1), dc.generate(dc.spec("circulant", 11, 1, 3))):
        ((comp, members),) = dc.components(g)
        assert comp is g
        assert members == tuple(range(g.n))


def _traversal_corpus():
    return [g for _, g in generated_corpus()] + isolated_random_corpus()


# sha256 over the components (member tuples and subgraph rows) and the
# diameter of every graph generate builds from parameter_corpus(-2, 12,
# range(3, 26)), and of 200 seeded random graphs with 0-3 isolated
# vertices inserted
_TRAVERSAL_DIGEST = "ae4ce669687dcffd7259db57869f9c732c8e17c2300228bf9612c07c927efc50"


def test_components_and_diameter_are_pinned():
    rows = []
    for g in _traversal_corpus():
        comps = [[list(members), list(comp.adj)] for comp, members in dc.components(g)]
        rows.append([g.n, list(g.adj), comps, str(dc.diameter(g))])
    assert digest(rows) == _TRAVERSAL_DIGEST


# -- text formats ----------------------------------------------------------------


def test_edge_list_round_trip():
    g = dc.generate(dc.spec("circulant", 7, 1, 3))
    parsed = dc.parse_edge_list(dc.format_edge_list(g))
    assert parsed == g and dc.Graph(parsed.n, parsed.adj) == parsed


def test_edge_list_header():
    text = dc.format_edge_list(path(3))
    assert text.splitlines()[0] == "3 2"


def test_parse_edge_list_rejects_bad_count():
    with pytest.raises(dc.GraphFormatError):
        dc.parse_edge_list("2 2\n0 1\n")


def test_parse_dimacs():
    g = dc.parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g == path(3) and dc.Graph(g.n, g.adj) == g


def test_parse_dimacs_requires_problem_line():
    with pytest.raises(dc.GraphFormatError):
        dc.parse_dimacs("e 1 2\n")


def test_parse_dimacs_rejects_second_problem_line():
    with pytest.raises(dc.GraphFormatError, match="duplicate problem line"):
        dc.parse_dimacs("p edge 3 1\ne 1 2\np edge 2 0\n")


@pytest.mark.parametrize("count", ["x", "-1", "1.5", ""])
def test_parse_dimacs_needs_a_non_negative_edge_count(count):
    line = f"p edge 3 {count}".rstrip()
    with pytest.raises(dc.GraphFormatError, match=f"^bad problem line: {line}$"):
        dc.parse_dimacs(f"{line}\ne 1 2\n")


def test_parse_dimacs_does_not_match_the_edge_count():
    assert dc.parse_dimacs("p edge 3 5\ne 1 2\ne 2 3\n") == path(3)


@pytest.mark.parametrize(
    "parse,doc",
    [
        (dc.parse_edge_list, "99999999999999999999 0\n"),
        (dc.parse_dimacs, "p edge 99999999999999999999 0\n"),
    ],
)
def test_parsers_reject_a_vertex_count_beyond_an_index(parse, doc):
    with pytest.raises(dc.GraphFormatError, match="^vertex count too large: 99999999999999999999$"):
        parse(doc)


# Vertex counts come from a small range or from 2**63 up, never from between:
# a count in between is a real allocation.
_COUNT = st.one_of(st.integers(-5, 40), st.integers(2**63, 2**70))
_TOKEN = st.one_of(_COUNT, st.sampled_from(["x", "1.5", "-", "0x3", "1e3", "e", "p", "∞"]))
_ROW = st.lists(_TOKEN, max_size=3)  # wrong arity, junk tokens, blank lines


def _text(rows):
    return "\n".join(" ".join(map(str, row)) for row in rows)


@st.composite
def _edge_list_docs(draw):
    edges = draw(st.lists(st.one_of(st.tuples(_COUNT, _COUNT), _ROW), max_size=6))
    header = draw(st.one_of(_COUNT.map(lambda n: (n, len(edges))), _ROW))
    return _text([header, *edges])


@st.composite
def _dimacs_docs(draw):
    junk = st.one_of(_ROW.map(lambda row: ["p", *row]), _ROW.map(lambda row: ["e", *row]), _ROW)
    problem = draw(st.one_of(
        st.tuples(st.just("p"), st.sampled_from(["edge", "col", "graph"]), _COUNT, _COUNT), junk
    ))
    lines = st.one_of(
        st.tuples(st.just("e"), _COUNT, _COUNT), _ROW.map(lambda row: ["c", *row]), junk
    )
    return _text([problem, *draw(st.lists(lines, max_size=6))])


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(st.just(dc.parse_edge_list), _edge_list_docs()),
    st.tuples(st.just(dc.parse_dimacs), _dimacs_docs()),
))
def test_parsers_return_a_graph_or_raise_a_format_error(case):
    parse, doc = case
    try:
        g = parse(doc)
    except dc.GraphFormatError:
        return
    assert isinstance(g, dc.Graph) and 0 <= g.n <= 40
    assert dc.Graph(g.n, g.adj) == g


# Spec-like text: a family token or junk, then one to three slots of signed
# numbers of at most three characters, plain or as ``lo..hi`` or junk, joined
# by 'x', and maybe a connection list.  Two ``lo..hi`` slots can ask for up
# to 1099^2 specs, more than a range may list, so such specs on the
# two-parameter families are drawn as well.
_NUMBER = st.integers(-99, 999)
_RANGE = st.lists(_NUMBER, min_size=2, max_size=2).map(sorted).map(lambda b: f"{b[0]}..{b[1]}")
_SLOT = st.one_of(
    _NUMBER.map(str),
    _RANGE,
    st.tuples(_NUMBER, _NUMBER).map(lambda b: f"{b[0]}..{b[1]}"),
    st.sampled_from(["", "..", "x", "1.5", "5.."]),
)


@st.composite
def _spec_texts(draw):
    head = draw(st.sampled_from([f.value for f in dc.Family] + ["", "moebius"]))
    text = head + draw(st.sampled_from([":", ":", "", "::"]))
    text += "x".join(draw(st.lists(_SLOT, min_size=1, max_size=3)))
    if head == "circulant" or draw(st.booleans()):
        text += ":" + ",".join(draw(st.lists(st.one_of(_NUMBER.map(str), st.just("")), max_size=3)))
    return text


_TWO_SLOT_RANGES = st.builds(
    "{}:{}x{}".format,
    st.sampled_from(["grid", "bipartite", "doublestar", "flower", "cliquestar"]),
    _RANGE,
    _RANGE,
)


@settings(max_examples=300)
@pytest.mark.parametrize("parse", [dc.parse_family, dc.parse_family_range])
@given(text=st.one_of(_spec_texts(), _TWO_SLOT_RANGES))
def test_spec_parsers_return_specs_or_raise_a_parameter_error(parse, text):
    try:
        got = parse(text)
    except dc.InvalidParameterError:
        return
    specs = [got] if parse is dc.parse_family else got
    assert isinstance(specs, list) and len(specs) <= 100_000
    assert all(isinstance(fs, dc.FamilySpec) for fs in specs)


def test_bits_helper():
    assert bits(0b10110) == [1, 2, 4]

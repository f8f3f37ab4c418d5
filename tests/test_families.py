import hashlib

import pytest

import domchrom as dc
from domchrom import families
from domchrom.families import normalize_connection_set
from domchrom.graph import make_graph
from corpus import digest, family_corpus, outcome, parameter_corpus


def gen(text):
    return dc.generate(dc.parse_family(text))


# -- spec strings ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,family,params",
    [
        ("path:7", dc.Family.PATH, (7,)),
        ("grid:3x5", dc.Family.GRID, (3, 5)),
        ("circulant:12:1,3", dc.Family.CIRCULANT, (12, 1, 3)),
        ("tchain:4", dc.Family.TRIANGLE_CHAIN, (4,)),
        ("bipartite:3x4", dc.Family.COMPLETE_BIPARTITE, (3, 4)),
        ("flower:4x2", dc.Family.FLOWER, (4, 2)),
    ],
)
def test_parse_family(text, family, params):
    fs = dc.parse_family(text)
    assert fs.family is family and fs.params == params
    assert str(fs) == text


def test_parse_family_unknown():
    with pytest.raises(dc.InvalidParameterError, match="unknown family"):
        dc.parse_family("moebius:7")


def test_parse_family_bad_params():
    with pytest.raises(dc.InvalidParameterError):
        dc.parse_family("path:x")


def test_parse_range_single_param():
    specs = dc.parse_family_range("cycle:4..6")
    assert [str(s) for s in specs] == ["cycle:4", "cycle:5", "cycle:6"]


def test_parse_range_two_params():
    specs = dc.parse_family_range("grid:2..3x2..3")
    assert [s.params for s in specs] == [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_parse_range_circulant():
    specs = dc.parse_family_range("circulant:6..8:1,3")
    assert [s.params for s in specs] == [(6, 1, 3), (7, 1, 3), (8, 1, 3)]


def test_parse_range_plain_value():
    assert [str(s) for s in dc.parse_family_range("path:7")] == ["path:7"]


@pytest.mark.parametrize("parse", [dc.parse_family, dc.parse_family_range])
@pytest.mark.parametrize(
    "text,message",
    [
        ("moebius:7", "unknown family"),
        ("path", "missing parameters in spec"),
        ("circulant:8", "bad parameters in spec"),
        ("circulant:8:1,x", "bad parameters in spec"),
        ("circulant:6..8:1,x", "bad parameters in spec"),
        ("circulant:8:1,,3", "bad parameters in spec"),
    ],
)
def test_both_parsers_reject_malformed_specs(parse, text, message):
    with pytest.raises(dc.InvalidParameterError, match=message):
        parse(text)


@pytest.mark.parametrize(
    "text,single,ranged",
    [
        ("grid:3", "bad parameters in spec", "bad range token"),
        ("circulant:x:1", "bad parameters in spec", "bad range token"),
        ("cycle:6..4", "bad parameters in spec", "bad range token"),
    ],
)
def test_malformed_slots_name_the_parser_grammar(text, single, ranged):
    with pytest.raises(dc.InvalidParameterError, match=single):
        dc.parse_family(text)
    with pytest.raises(dc.InvalidParameterError, match=ranged):
        dc.parse_family_range(text)


@pytest.mark.parametrize(
    "family,params",
    [("grid", (3,)), ("path", ()), ("path", (3, 4)), ("circulant", ()),
     ("bipartite", (1, 2, 3)), ("flower", ())],
)
def test_spec_rejects_a_wrong_parameter_count(family, params):
    with pytest.raises(dc.InvalidParameterError, match="wrong number of parameters"):
        dc.spec(family, *params)
    with pytest.raises(dc.InvalidParameterError, match="wrong number of parameters"):
        dc.FamilySpec(dc.Family(family), params)


def test_circulant_spec_without_connection_values_is_rejected():
    with pytest.raises(dc.InvalidParameterError, match="nonempty connection set"):
        dc.generate(dc.spec("circulant", 12))


# the family ranges of the benchmark's audit workload
AUDIT_RANGES = (
    "cycle:3..24", "path:1..24", "grid:2..6x2..6", "ladder:2..12",
    "prism:4..12", "circulant:6..30:1,3",
    "tchain:2..8", "parasquare:1..6", "orthosquare:1..6",
    "parahex:2..4", "metahex:2..4",
    "wheel:3..16", "flower:3..5x1..4", "cliquestar:3..4x3..4",
    "bipartite:1..6x1..6", "book:2..8", "friendship:1..8",
)


@pytest.mark.parametrize("text", AUDIT_RANGES + ("circulant:5..9:1,2,3",))
def test_specs_round_trip_through_str(text):
    for fs in dc.parse_family_range(text):
        assert dc.parse_family(str(fs)) == fs


# -- generators -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,n,m",
    [
        ("path:1", 1, 0),
        ("path:6", 6, 5),
        ("cycle:5", 5, 5),
        ("complete:4", 4, 6),
        ("bipartite:2x3", 5, 6),
        ("star:4", 5, 4),
        ("doublestar:2x3", 7, 6),
        ("ladder:4", 8, 10),
        ("prism:4", 8, 12),
        ("grid:3x3", 9, 12),
        ("book:3", 8, 10),
        ("wheel:5", 6, 10),
        ("friendship:3", 7, 9),
        ("flower:4x2", 7, 8),
        ("circulant:8:1,3", 8, 16),
        ("cliquestar:3x3", 9, 12),
        ("tchain:2", 5, 6),
        ("parasquare:3", 10, 12),
        ("orthosquare:3", 10, 12),
        ("parahex:2", 11, 12),
        ("metahex:2", 11, 12),
    ],
)
def test_generated_sizes(text, n, m):
    g = gen(text)
    assert (g.n, g.m) == (n, m)


def test_friendship_equals_flower():
    assert gen("friendship:4") == gen("flower:3x4")


def test_wheel_hub_is_last_vertex():
    g = gen("wheel:6")
    assert g.degree(6) == 6 and all(g.degree(v) == 3 for v in range(6))


def test_double_star_degree_sequence():
    g = gen("doublestar:3x2")
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    assert degs == [4, 3, 1, 1, 1, 1, 1]


def test_circulant_6_13_is_k33():
    g = gen("circulant:6:1,3")
    # 3-regular, 9 edges, bipartite on parity classes
    assert g.m == 9 and all(g.degree(v) == 3 for v in range(6))
    for u in range(6):
        for v in range(u + 1, 6):
            if g.has_edge(u, v):
                assert (u + v) % 2 == 1


@pytest.mark.parametrize("n,conn", [(8, (1, 3)), (9, (1, 2)), (10, (2, 4)), (12, (1, 6))])
def test_circulant_regularity(n, conn):
    g = dc.generate(dc.spec("circulant", n, *conn))
    folded = normalize_connection_set(n, conn)
    k = 2 * len(folded) - 1 if n % 2 == 0 and n // 2 in folded else 2 * len(folded)
    assert all(g.degree(v) == k for v in range(n))


def test_circulant_folds_large_values():
    # values above n/2 fold back, so (1,3) on four vertices is the 4-cycle
    assert gen("circulant:4:1,3") == gen("cycle:4")
    assert gen("circulant:5:1,3") == gen("complete:5")


def test_circulant_rejects_zero_value():
    with pytest.raises(dc.InvalidParameterError, match="loop"):
        gen("circulant:6:6")


@pytest.mark.parametrize(
    "text", ["cycle:2", "prism:2", "wheel:2", "flower:2x2", "path:0", "tchain:0"]
)
def test_parameter_domains(text):
    with pytest.raises(dc.InvalidParameterError):
        gen(text)


def test_vertex_count_table_matches_every_built_family():
    for fs in family_corpus(12):
        assert families._FAMILIES[fs.family][0](*fs.params) == dc.generate(fs).n


@pytest.mark.parametrize(
    "text,order",
    [
        ("path:99999999999999999999", 99999999999999999999),
        ("grid:4294967296x2147483648", 1 << 63),
        ("tchain:4611686018427387904", (1 << 63) + 1),
        ("circulant:99999999999999999999:1", 99999999999999999999),
    ],
)
def test_vertex_count_of_2_to_the_63_is_refused_before_building(text, order, monkeypatch):
    monkeypatch.setattr(families, "make_graph", None)  # any build would raise TypeError
    with pytest.raises(dc.InvalidParameterError, match=f"^vertex count too large: {order}$"):
        gen(text)


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_a_build_that_runs_out_of_memory_is_a_parameter_error(error, monkeypatch):
    def make_graph(n, edges):
        raise error

    monkeypatch.setattr(families, "make_graph", make_graph)
    with pytest.raises(dc.InvalidParameterError, match="^vertex count too large: 12$"):
        gen("grid:3x4")


# -- cactus chains -----------------------------------------------------------------


@pytest.mark.parametrize(
    "family,count,vertices",
    [
        ("tchain", 4, lambda n: 2 * n + 1),
        ("parasquare", 4, lambda n: 3 * n + 1),
        ("orthosquare", 4, lambda n: 3 * n + 1),
        ("parahex", 3, lambda n: 5 * n + 1),
        ("metahex", 3, lambda n: 5 * n + 1),
    ],
)
def test_chain_vertex_counts(family, count, vertices):
    for n in range(1, count + 1):
        g = dc.generate(dc.spec(family, n))
        assert g.n == vertices(n)
        assert len(dc.components(g)) == 1


def _cycle_edges(g):
    """Edge -> number of cycles it lies on, via per-edge fundamental checks."""
    import itertools

    count = {e: 0 for e in g.edges()}
    # enumerate all cycles by brute force on these small graphs
    for size in range(3, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            sub = set(combo)
            # check combo forms a single cycle: all degrees 2 within subset
            degs = {}
            edges_in = []
            for u, v in g.edges():
                if u in sub and v in sub:
                    degs[u] = degs.get(u, 0) + 1
                    degs[v] = degs.get(v, 0) + 1
                    edges_in.append((u, v))
            if len(edges_in) != size or set(degs) != sub:
                continue
            if any(d != 2 for d in degs.values()):
                continue
            # connected single cycle?
            adj = {v: [] for v in sub}
            for u, v in edges_in:
                adj[u].append(v)
                adj[v].append(u)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == sub:
                for e in edges_in:
                    count[e] += 1
    return count


@pytest.mark.parametrize("family,n", [("tchain", 3), ("parasquare", 2), ("orthosquare", 2), ("parahex", 2), ("metahex", 2)])
def test_chains_are_cacti(family, n):
    g = dc.generate(dc.spec(family, n))
    assert all(c == 1 for c in _cycle_edges(g).values())


def test_tchain_2_has_one_cut_vertex():
    g = gen("tchain:2")
    assert (g.n, g.m) == (5, 6)
    assert dc.chain_cut_vertices(dc.spec("tchain", 2)) == (2,)


def test_chain_cut_vertices_have_degree_four():
    for family, n in [("tchain", 4), ("parasquare", 3), ("orthosquare", 3), ("parahex", 3), ("metahex", 3)]:
        fs = dc.spec(family, n)
        g = dc.generate(fs)
        cuts = dc.chain_cut_vertices(fs)
        assert len(cuts) == n - 1
        assert all(g.degree(v) == 4 for v in cuts)


def _dist(g, start, goal):
    frontier, seen, d = {start}, {start}, 0
    while goal not in frontier:
        frontier = {
            u for v in frontier for u in g.neighbors(v) if u not in seen
        }
        seen |= frontier
        d += 1
    return d


def test_hex_chain_cut_distances():
    # para-chains re-enter opposite the entry, meta-chains two steps away
    g = dc.generate(dc.spec("parahex", 2))
    assert _dist(g, 0, dc.chain_cut_vertices(dc.spec("parahex", 2))[0]) == 3
    g = dc.generate(dc.spec("metahex", 2))
    assert _dist(g, 0, dc.chain_cut_vertices(dc.spec("metahex", 2))[0]) == 2


# sha256 over the edge lists, and for the chains the cut vertices, of
# chains 1..12, flowers 3..6 x 1..5 and friendship graphs 1..5: the exact
# vertex labels that gen output, certificates and audit rows depend on
_LABELS = {
    "tchain": "0b4bc590d934250f2896ad1b7fae52acb7486727996034195b4790fb94548a22",
    "parasquare": "d2fdaccb44f89cc5bec883ad919405c600c92c4bcfafde748758523cf1ca3caa",
    "orthosquare": "6176b38248b5d907be89852686737c05d493a6bb4bbaa80c24dac03d42d415e2",
    "parahex": "7e2ee4a01ae8dc9a55482b0bcca92a9e26afa0b00dde48e38a3de2c252f2589c",
    "metahex": "b91090263d9c6e3fc8ee056470f503145ff2caa1e4a7a77e4d31ff29ec60c254",
    "flower": "dfa13d59d131c28e6dbe81e743e4ccd9d31d25f736c311f2f9e9f6e96c1d302e",
    "friendship": "913fa7d628276b7f1672c1be1cfc82bfc3b56da23c12d2ed6636c7f2c9a860da",
}


@pytest.mark.parametrize("family", sorted(_LABELS))
def test_ring_family_labels_are_pinned(family):
    if family == "flower":
        texts = [f"flower:{m}x{n}" for m in range(3, 7) for n in range(1, 6)]
    elif family == "friendship":
        texts = [f"friendship:{n}" for n in range(1, 6)]
    else:
        texts = [f"{family}:{n}" for n in range(1, 13)]
    h = hashlib.sha256()
    for text in texts:
        fs = dc.parse_family(text)
        h.update(f"{text}\n{dc.format_edge_list(dc.generate(fs))}".encode())
        if fs.family not in (dc.Family.FLOWER, dc.Family.FRIENDSHIP):
            h.update(f"cut vertices {dc.chain_cut_vertices(fs)}\n".encode())
    assert h.hexdigest() == _LABELS[family]


# sha256 over the edge list of every spec in parameter_corpus(-2, 12,
# range(3, 26)), or its error type and message
_GRAPHS_DIGEST = "d263490dae91ae99dc1711a4c6389e346023ad4aef6f7dc708566dadf72ce8a1"


def test_every_generated_graph_is_pinned():
    rows = [
        [str(f), outcome(lambda fs: dc.format_edge_list(dc.generate(fs)), f)]
        for f in parameter_corpus(-2, 12, range(3, 26))
    ]
    assert digest(rows) == _GRAPHS_DIGEST


@pytest.mark.parametrize("text", ["tchain:0", "metahex:-1"])
def test_chains_of_fewer_than_two_rings_have_no_cut_vertices(text):
    assert dc.chain_cut_vertices(dc.parse_family(text)) == ()


@pytest.mark.parametrize("text", ["path:3", "flower:3x2", "friendship:3"])
def test_cut_vertices_need_a_chain(text):
    with pytest.raises(dc.InvalidParameterError, match="not a cactus chain family"):
        dc.chain_cut_vertices(dc.parse_family(text))


# -- circulant reduction -------------------------------------------------------------


def test_circulant_reduce_examples():
    assert dc.circulant_reduce(8, 3, 1).c == 3
    assert dc.circulant_reduce(9, 2, 6).c == 3
    assert dc.circulant_reduce(10, 1, 4).c == 4


def test_circulant_reduce_rejects_non_invertible():
    with pytest.raises(dc.InvalidParameterError, match="invertible"):
        dc.circulant_reduce(8, 2, 3)


def _is_isomorphism(n, conn_from, conn_to, mapping):
    g = dc.generate(dc.spec("circulant", n, *conn_from))
    h = dc.generate(dc.spec("circulant", n, *conn_to))
    mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges()}
    return mapped == set(h.edges())


def test_circulant_reduce_mapping_is_isomorphism_exhaustive():
    import math

    for n in range(5, 31):
        for a in range(2, n // 2 + 1):
            if math.gcd(a, n) != 1:
                continue
            for b in range(1, n // 2 + 1):
                if a == b or b % n == 0:
                    continue
                red = dc.circulant_reduce(n, a, b)
                if red.c == 1:
                    continue  # degenerate: the two values collapse
                assert _is_isomorphism(n, (a, b), (1, red.c), red.mapping), (n, a, b)

"""Dominated-coloring verifier, decision layer, exact solver and oracle."""

import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import domchrom as dc
from domchrom import _kernel_py, invariants, predictions, solver
from domchrom.graph import bits
from domchrom.invariants import (
    distance_two_bound,
    greedy_clique,
    independence_number,
    max_neighborhood_independence,
)
from domchrom.solver import DomColoring
from corpus import digest, generated_corpus, isolated_random_corpus, random_corpus, random_graph


def gen(text):
    return dc.generate(dc.parse_family(text))


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return dc.make_graph(n, [e for e, keep in zip(pairs, picks) if keep])


# -- verify ----------------------------------------------------------------------


def test_verify_accepts_p4_certificate():
    g = gen("path:4")
    col = DomColoring((1, 2, 1, 2), {1: 1, 2: 2})
    assert dc.verify(g, col) is None


def test_verify_accepts_k2():
    g = dc.make_graph(2, [(0, 1)])
    col = DomColoring((1, 2), {1: 1, 2: 0})
    assert dc.verify(g, col) is None


def test_verify_rejects_self_domination():
    # {v0, v2} cannot be dominated by v2 itself
    g = gen("path:3")
    col = DomColoring((1, 2, 1), {1: 2, 2: 0})
    v = dc.verify(g, col)
    assert v is not None and v.kind == "undominated-class"


def test_verify_rejects_improper_edge():
    g = gen("path:3")
    col = DomColoring((1, 1, 2), {1: 1, 2: 1})
    v = dc.verify(g, col)
    assert v is not None and v.kind == "improper-edge" and v.edge == (0, 1)


def test_verify_rejects_missing_dominator():
    g = dc.make_graph(3, [(0, 1), (1, 2)])
    col = DomColoring((1, 2, 1), {2: 0})  # class 1 = {0, 2} has no dominator
    v = dc.verify(g, col)
    assert v is not None and v.kind == "undominated-class"


def test_verify_exempts_isolated_singleton():
    g = dc.make_graph(3, [(0, 1)])
    col = DomColoring((1, 2, 3), {1: 1, 2: 0})  # class 3 = isolated vertex 2
    assert dc.verify(g, col) is None


def test_verify_raises_on_sparse_colors():
    g = gen("path:3")
    with pytest.raises(ValueError, match="dense"):
        dc.verify(g, DomColoring((1, 3, 1), {1: 1, 3: 0}))


def test_verify_raises_on_partial_assignment():
    g = gen("path:3")
    with pytest.raises(ValueError, match="cover"):
        dc.verify(g, DomColoring((1, 2), {1: 1, 2: 0}))


@pytest.mark.parametrize("dominator", [-1, 3])
def test_verify_raises_on_dominator_outside_the_graph(dominator):
    # path 0-2-1: with -1 read as an index, g.adj[-1] would be vertex 2
    g = dc.make_graph(3, [(0, 2), (2, 1)])
    with pytest.raises(ValueError, match="not a vertex"):
        dc.verify(g, DomColoring((1, 1, 2), {1: dominator, 2: 0}))


@pytest.mark.parametrize("color", [0, 9])
def test_verify_raises_on_dominator_for_a_color_without_class(color):
    g = gen("path:3")
    with pytest.raises(ValueError, match="has no class"):
        dc.verify(g, DomColoring((1, 2, 1), {1: 1, 2: 0, color: 2}))


@pytest.mark.parametrize(
    "coloring",
    [
        DomColoring((1, 2.0, 1), {1: 1, 2: 0}),  # float color
        DomColoring((1, 2, 1), {1: 1.0, 2: 0}),  # float dominator
        DomColoring((1, 2, 1), {"1": 1, "2": 0}),  # color keys as in solve's JSON
    ],
)
def test_verify_raises_on_a_color_or_dominator_that_is_not_an_int(coloring):
    with pytest.raises(ValueError, match="must be integers"):
        dc.verify(gen("path:3"), coloring)


# -- exists_k ---------------------------------------------------------------------


def test_exists_k_k33_two_classes():
    col = dc.exists_k(gen("bipartite:3x3"), 2)
    assert col is not None and col.k == 2


def test_exists_k_ladder4_needs_more_than_three():
    assert dc.exists_k(gen("ladder:4"), 3) is None


def test_exists_k_c7_circulant():
    g = gen("circulant:7:1,3")
    col = dc.exists_k(g, 4)
    assert col is not None and col.k == 4 and dc.verify(g, col) is None
    # the textbook certificate for this graph is also accepted
    book = DomColoring((1, 2, 1, 3, 4, 3, 2), {1: 1, 2: 0, 3: 4, 4: 3})
    assert dc.verify(g, book) is None


def test_exists_k_zero():
    assert dc.exists_k(dc.make_graph(0), 0) is not None
    assert dc.exists_k(gen("path:2"), 0) is None


def test_exists_k_rejects_negative():
    with pytest.raises(ValueError):
        dc.exists_k(gen("path:2"), -1)


# -- dom_chromatic ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("path:7", 4),
        ("complete:1", 1),
        ("cycle:4", 2),
        ("circulant:6:1,3", 2),
        ("star:4", 2),
        ("wheel:4", 3),
        ("wheel:5", 4),
    ],
)
def test_dom_chromatic_values(text, value):
    g = gen(text)
    k, col = dc.dom_chromatic(g)
    assert k == value
    assert dc.verify(g, col) is None


# Canonical outputs: classes numbered by lowest member, each dominated by the
# lowest common neighbor of its members; γ/γ_t witnesses are the first minimum
# cover in the set-cover search order.  A faster path must keep these bytes.
_MIXED = dc.make_graph(8, [(0, 5), (5, 2), (2, 7), (1, 4), (4, 6), (6, 1)])


@pytest.mark.parametrize(
    "g,assignment,dominators",
    [
        (gen("grid:3x5"), (1, 2, 3, 4, 3, 2, 1, 4, 5, 4, 1, 2, 5, 4, 5),
         {1: 5, 2: 6, 3: 3, 4: 8, 5: 13}),
        (gen("circulant:12:1,3"), (1, 2, 1, 2, 3, 4, 3, 4, 3, 4, 3, 4),
         {1: 1, 2: 0, 3: 7, 4: 8}),
        (gen("wheel:7"), (1, 2, 3, 2, 3, 2, 3, 4), {1: 1, 2: 7, 3: 7, 4: 0}),
        # path 0-5-2-7, triangle 1-4-6, isolated vertex 3
        (_MIXED, (1, 2, 1, 3, 4, 5, 6, 5), {1: 5, 2: 4, 4: 1, 5: 2, 6: 1}),
    ],
)
def test_dom_chromatic_canonical_certificate(g, assignment, dominators):
    k, col = dc.dom_chromatic(g)
    assert (k, col.assignment, dict(col.dominators)) == (
        max(assignment), assignment, dominators,
    )


# sha256 over [spec, k, assignment, dominators, χ value, χ witness, diameter]
# for every graph generate builds from parameter_corpus(-2, 12, range(3, 26))
# with n <= 30, the 0- and 1-vertex graphs, and 200 seeded random graphs
# with 0-3 isolated vertices
_CERTIFICATE_DIGEST = "bb4e8201e638cec8d775c13f880e253156242cf9fa97345818657d29d947ad79"


def test_certificates_and_chi_witnesses_are_pinned():
    graphs = [(str(fs), g) for fs, g in generated_corpus() if g.n <= 30]
    assert len(graphs) == 851
    graphs += [("empty", dc.make_graph(0)), ("K1", dc.make_graph(1))]
    graphs += [(f"random#{i}", g) for i, g in enumerate(isolated_random_corpus())]
    rows = []
    for name, g in graphs:
        k, col = dc.dom_chromatic(g)
        chi = dc.chromatic_number(g)
        rows.append([name, k, list(col.assignment), sorted(col.dominators.items()),
                     chi.value, list(chi.witness), str(dc.diameter(g))])
    assert digest(rows) == _CERTIFICATE_DIGEST


@pytest.mark.parametrize(
    "text,gamma,gamma_t",
    [
        ("grid:3x5", (2, 5, 9, 12), (1, 6, 8, 9, 11)),
        ("circulant:12:1,3", (0, 2, 7), (0, 1, 4, 5)),
        ("wheel:7", (7,), (1, 7)),
    ],
)
def test_domination_witnesses_are_canonical(text, gamma, gamma_t):
    g = gen(text)
    assert dc.domination_number(g) == dc.InvariantResult(len(gamma), gamma)
    assert dc.total_domination_number(g) == dc.InvariantResult(len(gamma_t), gamma_t)


def test_dom_chromatic_on_a_ten_ring_chain():
    # the lower bound γ_t = 22 is the value, so the one kernel call returns
    # at once and the cost is the γ_t cover search: about 15 ms in all,
    # 8 s before the cover search had its packing bound
    g = gen("parahex:10")
    start = time.perf_counter()
    k, coloring = dc.dom_chromatic(g)
    elapsed = time.perf_counter() - start
    assert k == 22
    assert dc.verify(g, coloring) is None
    assert elapsed < 3.0


def test_isolated_vertices_each_take_a_color():
    g = dc.disjoint_union(gen("path:2"), dc.make_graph(1))
    k, col = dc.dom_chromatic(g)
    assert k == 3
    # two dominated singletons plus one exempt isolated class
    assert set(col.dominators) == {1, 2}


def test_empty_graph_value_zero():
    k, col = dc.dom_chromatic(dc.make_graph(0))
    assert k == 0 and col.assignment == ()
    assert dc.verify(dc.make_graph(0), DomColoring(())) is None


def test_dom_chromatic_is_deterministic():
    g = gen("circulant:9:1,3")
    a = dc.dom_chromatic(g)
    b = dc.dom_chromatic(g)
    assert a == b


def test_backends_agree_and_match_certificates():
    assert "python" in dc.available_backends()
    cases = [(g, None) for g in random_corpus(51, 40, n_lo=1, n_hi=8)]
    # around the compiled kernel's 64-vertex limit: at 65 and 66 vertices
    # the compiled backend hands the component to the Python kernel
    boundary = {"path:63": 32, "path:64": 32, "path:65": 33, "cycle:66": 34}
    cases += [(gen(text), value) for text, value in boundary.items()]
    for g, expected in cases:
        results = {
            name: dc.dom_chromatic(g, backend=name) for name in dc.available_backends()
        }
        values = {k for k, _ in results.values()}
        certs = {col.assignment for _, col in results.values()}
        assert len(values) == 1 and len(certs) == 1
        assert expected is None or values == {expected}


def test_python_kernel_takes_any_k():
    # k may be any int: no vertices give [] for every k, no class opens at
    # k <= 0, and at most n classes open, so every k >= n searches alike
    for k in (-1, 0, 1, 5):
        assert _kernel_py.find_coloring([], k) == []
    for g in random_corpus(27, 30, n_lo=1, n_hi=9, isolate_free=True):
        assert all(_kernel_py.find_coloring(g.adj, k) is None for k in (-3, -1, 0))
        at_n = _kernel_py.find_coloring(g.adj, g.n)
        assert at_n is not None
        for k in (g.n + 1, g.n + 7, 10**6):
            assert _kernel_py.find_coloring(g.adj, k) == at_n


@pytest.fixture(scope="module")
def built_kernel(tmp_path_factory):
    """``_kernel.c`` built out of tree by ``setup.py build_ext``, imported."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("kernel")
    # any compiler warning in _kernel.c fails the build, and with it the tests
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        env={**os.environ, "CFLAGS": "-Wall -Wextra -Werror"},
    )
    built = list((out / "lib" / "domchrom").glob("_kernel.*"))
    assert build.returncode == 0 and len(built) == 1, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("domchrom._kernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_kernel_matches_python_kernel(built_kernel):
    rng = random.Random(2019)
    cases = [
        (random_graph(rng, n, p).adj, k)
        for n in range(23)
        for p in (0.2, 0.35, 0.5, 0.65, 0.8)
        for k in range(-1, n + 2)
    ]
    # 64 vertices, whose rows reach bit 63.  Below the value only k <= 1,
    # which fails at once: at k = value - 1 the Python kernel can take minutes.
    # Both kernels take any int k, past the C int and long long ranges too
    for text in ("path:64", "cycle:64", "circulant:64:1,3", "grid:8x8"):
        g = gen(text)
        value = dc.dom_chromatic(g)[0]
        cases += [
            (g.adj, k)
            for k in (-(2**63), -1, 0, 1, value, value + 1, 64, 65, 2**31 - 1, 2**31, 2**63)
        ]
    cases += [([], k) for k in (-(2**63), 2**31, 2**63)]
    for adj, k in cases:
        assert built_kernel.find_coloring(adj, k) == _kernel_py.find_coloring(adj, k)


def test_compiled_backend_sends_only_components_up_to_64_vertices(built_kernel, monkeypatch):
    g = gen("cycle:64")
    for part in (gen("path:65"), gen("path:3"), dc.make_graph(2)):
        g = dc.disjoint_union(g, part)
    want = dc.dom_chromatic(g, backend="python")
    sizes = {"compiled": set(), "python": set()}

    def counted(name, find_coloring):
        def kernel(adj, k):
            sizes[name].add(len(adj))
            return find_coloring(adj, k)
        return kernel

    compiled = SimpleNamespace(find_coloring=counted("compiled", built_kernel.find_coloring))
    monkeypatch.setitem(solver._BACKENDS, "compiled", compiled)
    monkeypatch.setattr(_kernel_py, "find_coloring", counted("python", _kernel_py.find_coloring))
    k, coloring = dc.dom_chromatic(g, backend="compiled")
    # the 64-cycle and the 3-path go to the compiled kernel, the 65-path to
    # the Python one, and the two isolated vertices to neither
    assert sizes == {"compiled": {64, 3}, "python": {65}}
    assert (k, coloring) == want and k == 69
    assert dc.verify(g, coloring) is None


def test_value_path_searches_open_brackets_on_the_compiled_kernel(built_kernel, monkeypatch):
    rng = random.Random(2026)
    cases = [
        dc.generate(fs)
        for text in ("cliquestar:3..5x3", "tchain:8..12")
        for fs in dc.parse_family_range(text)
    ]
    cases += [
        random_graph(rng, rng.randint(20, 26), rng.choice((0.35, 0.4))) for _ in range(30)
    ]
    calls = []

    def kernel(adj, k):
        calls.append(k)
        return built_kernel.find_coloring(adj, k)

    monkeypatch.setitem(solver._BACKENDS, "compiled", SimpleNamespace(find_coloring=kernel))
    for g in cases:
        calls.clear()
        value = solver.dom_chromatic_value(g, backend="compiled")
        assert calls, "every case has an open bracket"
        assert value == dc.dom_chromatic(g, backend="python")[0]


def test_compiled_kernel_rejects_what_it_cannot_represent(built_kernel):
    with pytest.raises(ValueError, match="limited to 64 vertices"):
        built_kernel.find_coloring([0] * 65, 1)
    with pytest.raises(OverflowError):
        built_kernel.find_coloring([2, -1], 2)
    with pytest.raises(TypeError):
        built_kernel.find_coloring([2, "1"], 2)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        dc.dom_chromatic(gen("path:3"), backend="gpu")


@given(graphs())
def test_solver_output_always_verifies(g):
    k, col = dc.dom_chromatic(g)
    assert dc.verify(g, col) is None
    assert k == col.k


@given(graphs())
def test_chromatic_lower_bound(g):
    k, _ = dc.dom_chromatic(g)
    assert k >= dc.chromatic_number(g).value


@given(graphs())
def test_class_size_bound(g):
    k, col = dc.dom_chromatic(g)
    delta = g.max_degree()
    non_isolated = g.n - len(g.isolated_vertices())
    if delta:
        dominated = [
            (members, col.dominators[c])
            for c, members in col.classes().items()
            if c in col.dominators
        ]
        # a class is independent inside N(dominator), so alpha caps its size
        assert all(
            len(members) <= independence_number(g.adj, g.adj[d])
            for members, d in dominated
        )
        assert all(len(members) <= delta for members, _ in dominated)
        assert k >= math.ceil(non_isolated / max_neighborhood_independence(g.adj))
        assert k >= math.ceil(non_isolated / delta)


def kernel_ks(monkeypatch, g):
    """Every k the Python kernel is asked about while solving ``g``."""
    ks = []
    find = _kernel_py.find_coloring

    def recording(adj, k):
        ks.append(k)
        return find(adj, k)

    monkeypatch.setattr(_kernel_py, "find_coloring", recording)
    value = dc.dom_chromatic(g, backend="python")[0]
    return value, ks


@pytest.mark.parametrize("links", range(2, 13))
def test_neighborhood_bound_closes_triangle_chain_gap(monkeypatch, links):
    # the lower bound equals the value, so the kernel is asked once
    assert kernel_ks(monkeypatch, gen(f"tchain:{links}")) == (links + 1, [links + 1])


def test_neighborhood_bound_lifts_clique_star(monkeypatch):
    g = gen("cliquestar:4x3")
    assert solver._component_bounds(g)[0] == 6
    # the bounds differ, so α(D2) = 8 moves the start past every refuted k
    assert kernel_ks(monkeypatch, g) == (8, [8])


CLIQUE_STAR_KS = {
    "cliquestar:3x3": [6],
    "cliquestar:4x3": [8],
    "cliquestar:5x3": [10],
    "cliquestar:3x4": [9],
    "cliquestar:4x4": [12],
}


@pytest.mark.parametrize("text", CLIQUE_STAR_KS)
def test_distance_two_bound_skips_infeasible_ks(monkeypatch, text):
    # the γ_t witness coloring shows a gap, so the search starts at α(D2),
    # the value here, and the kernel is never asked an infeasible k
    ks = CLIQUE_STAR_KS[text]
    assert kernel_ks(monkeypatch, gen(text)) == (ks[-1], ks)


def test_distance_two_bound_is_computed_only_when_the_bounds_differ(monkeypatch):
    calls = []

    def spy(adj, lower):
        calls.append(len(adj))
        return distance_two_bound(adj, lower)

    monkeypatch.setattr(solver, "distance_two_bound", spy)
    alpha_calls = alpha_d2_calls(monkeypatch)
    # ladder:30, parahex:12 and circulant:40:1,3 meet at 20, 26 and 10 on
    # the certificate path; asking α(D2) on them anyway made dom_chromatic
    # 18 to 110 times slower with the Python kernel
    for text in [
        "cycle:12",
        "prism:7",
        "bipartite:4x5",
        "grid:3x4",
        "tchain:3",
        "ladder:30",
        "parahex:12",
        "circulant:40:1,3",
    ]:
        g = gen(text)
        lower, classes = solver._component_bounds(g)
        assert lower == len(classes)
        dc.dom_chromatic(g)
    # on the certificate path γ_t is asked only whether it exceeds 4, and
    # its witness coloring has 7 classes, so the gate runs once on tchain:3;
    # its matching bound is 4, so α(D2) is not computed
    assert calls == [7]
    lower, classes = solver._component_bounds(gen("tchain:3"), certify=True)
    assert (lower, len(classes)) == (4, 7)
    assert alpha_calls == []
    calls.clear()
    dc.dom_chromatic(gen("cliquestar:5x3"))
    assert calls == [15]


def alpha_d2_calls(monkeypatch):
    """The vertex count of each graph whose whole independence number is
    asked for.  Only α(D2) asks that: the neighborhood term asks for
    α(G[N(d)]), and N(d) misses d, and each branch drops a vertex."""
    calls = []
    alpha = invariants.independence_number

    def spy(adj, mask):
        if mask == (1 << len(adj)) - 1:
            calls.append(len(adj))
        return alpha(adj, mask)

    monkeypatch.setattr(invariants, "independence_number", spy)
    return calls


def distance_two_builds(monkeypatch):
    """The vertex count of each graph whose D2 rows are built, through
    every module of the package that binds ``distance_two_rows``."""
    calls = []
    rows = invariants.distance_two_rows

    def spy(adj):
        calls.append(len(adj))
        return rows(adj)

    for module in (invariants, solver, predictions):
        if getattr(module, "distance_two_rows", None) is rows:
            monkeypatch.setattr(module, "distance_two_rows", spy)
    return calls


def test_distance_two_bound_is_skipped_where_the_matching_bound_closes_the_gap(monkeypatch):
    calls = alpha_d2_calls(monkeypatch)
    # every bracket here but tchain:3's is open, and the matching bound on
    # D2 is the lower bound, so α(D2) could not lift the start
    for links in [*range(2, 13), 20, 30, 40]:
        assert dc.dom_chromatic(gen(f"tchain:{links}"))[0] == links + 1
    assert calls == []
    for text in CLIQUE_STAR_KS:
        dc.dom_chromatic(gen(text))
    assert calls == [gen(text).n for text in CLIQUE_STAR_KS]


@pytest.mark.parametrize("text", CLIQUE_STAR_KS)
def test_distance_two_rows_are_built_once_per_open_bracket(monkeypatch, text):
    calls = distance_two_builds(monkeypatch)
    g = gen(text)
    assert dc.dom_chromatic(g)[0] == CLIQUE_STAR_KS[text][-1]
    assert calls == [g.n]


def test_sandwich_skips_distance_two_bound_on_a_forty_link_triangle_chain(monkeypatch):
    # χ, γ_t and the neighborhood term give 41, which the matching bound
    # on D2 does not exceed, so α(D2) cannot raise the lower end
    calls = alpha_d2_calls(monkeypatch)
    p = dc.sandwich(gen("tchain:40"))
    assert (p.lo, p.hi) == (41, 60)
    assert calls == []


def _timed_dom_chromatic(text, value):
    """Seconds ``dom_chromatic`` of ``text`` takes, after checking its value
    and certificate."""
    g = gen(text)
    start = time.perf_counter()
    k, coloring = dc.dom_chromatic(g)
    elapsed = time.perf_counter() - start
    assert k == value
    assert dc.verify(g, coloring) is None
    return elapsed


def test_dom_chromatic_on_a_forty_link_triangle_chain():
    # α(D2) alone takes 0.47 s here and is skipped.  γ_t, asked only
    # whether it exceeds the neighborhood term, leaves about 1 ms in all;
    # proving γ_t minimal took 0.18 s (Python kernel, shared 2-CPU VM)
    assert _timed_dom_chromatic("tchain:40", 41) < 2.0


def test_dom_chromatic_on_a_sixty_link_triangle_chain():
    # about 1.5 ms; proving γ_t minimal took 24 s (same machine as above)
    assert _timed_dom_chromatic("tchain:60", 61) < 1.0


def certified_runs(monkeypatch, graphs):
    """``[value, assignment, dominators, kernel ks]`` of ``dom_chromatic``
    on each graph, with the Python kernel."""
    ks = []
    find = _kernel_py.find_coloring

    def recording(adj, k):
        ks.append(k)
        return find(adj, k)

    monkeypatch.setattr(_kernel_py, "find_coloring", recording)
    runs = []
    for g in graphs:
        ks.clear()
        k, coloring = dc.dom_chromatic(g, backend="python")
        runs.append([k, coloring.assignment, sorted(coloring.dominators.items()), list(ks)])
    return runs


def test_bounded_total_domination_leaves_certificates_and_kernel_calls_unchanged(monkeypatch):
    graphs = [
        gen(str(fs))
        for text in ("tchain:2..20", "cliquestar:3..5x3")
        for fs in dc.parse_family_range(text)
    ]
    graphs += random_corpus(77, 200, n_lo=12, n_hi=24, probs=(0.3, 0.35, 0.4, 0.45))
    bounds = []
    original = invariants.total_domination_number

    def recording(g, *, at_most):
        bounds.append(at_most)
        return original(g, at_most=at_most)

    monkeypatch.setattr(solver, "total_domination_number", recording)
    bounded = certified_runs(monkeypatch, graphs)
    assert bounds and all(b > 0 for b in bounds)
    # ignore the bound: the exact cover
    monkeypatch.setattr(solver, "total_domination_number", lambda g, *, at_most: original(g))
    assert bounded == certified_runs(monkeypatch, graphs)


def degeneracy_order_reference(adj):
    """The quadratic elimination order before its degree buckets, kept as a
    reference: each step rescans every live vertex for the least degree."""
    n = len(adj)
    alive = (1 << n) - 1
    elim = []
    for _ in range(n):
        best = -1
        best_deg = n + 1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            d = (adj[v] & alive).bit_count()
            if d < best_deg:
                best_deg = d
                best = v
            m &= m - 1
        elim.append(best)
        alive ^= 1 << best
    elim.reverse()
    return elim


@st.composite
def tied_graphs(draw):
    """Graphs of up to 70 vertices, past the compiled kernel's 64, with many
    degree ties: relabelled circulants, where every degree is equal, and
    random graphs, sparse ones mostly."""
    n = draw(st.integers(min_value=0, max_value=70))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()) and n > 2:
        jumps = draw(st.sets(st.integers(min_value=1, max_value=n // 2), min_size=1, max_size=3))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[i], perm[(i + j) % n]) for i in range(n) for j in jumps]
    else:
        p = draw(st.sampled_from([0.03, 0.06, 0.1, 0.2, 0.5, 0.9]))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return dc.make_graph(n, edges)


@settings(max_examples=300)
@given(tied_graphs())
@example(gen("cycle:5"))
@example(gen("tchain:40"))
def test_degeneracy_order_matches_the_reference(g):
    assert solver._degeneracy_order(g.adj) == degeneracy_order_reference(g.adj)


@settings(max_examples=300)
@given(graphs(max_n=14))
@example(gen("star:3"))
def test_matching_bound_is_never_below_the_independence_number(g):
    assert invariants._matching_bound(list(g.adj)) >= independence_number(g.adj, (1 << g.n) - 1)


@given(graphs(max_n=8))
def test_component_bounds_bracket_the_value(g):
    for comp, _ in dc.components(g):
        if comp.n < 2:
            continue
        lower, classes = solver._component_bounds(comp)
        upper = len(classes)
        value = dc.dom_chromatic_oracle(comp)
        assert lower <= value <= upper
        if not any(comp.adj[u] & comp.adj[v] for u, v in comp.edges()):
            # triangle-free and isolate-free: every N(d) is one class
            assert upper == dc.total_domination_number(comp).value == value


def check_value_path(g):
    """The value path equals ``dom_chromatic`` and its classes, in ``g``'s
    labels, verify as a dominated coloring of ``g``; every component's γ_t
    witness coloring verifies, with exactly ``lower`` classes where the
    bracket is closed."""
    value = dc.dom_chromatic(g)[0]
    assert solver.dom_chromatic_value(g) == value
    classes = solver._solve(g, None, False)
    coloring = solver._assemble(g, classes)
    assert dc.verify(g, coloring) is None
    assert coloring.k == len(classes) == value
    for comp, _ in dc.components(g):
        if comp.n < 2:
            continue
        lower, classes = solver._component_bounds(comp)
        coloring = solver._assemble(comp, classes)
        assert dc.verify(comp, coloring) is None
        assert coloring.k == len(classes)
        if lower == len(classes):
            assert coloring.k == lower == dc.dom_chromatic(comp)[0]


@st.composite
def split_graphs(draw, max_n=20):
    """Up to ``max_n`` vertices: two random parts and up to two isolated
    vertices, so the graph may be disconnected or have isolated vertices."""
    g = draw(graphs(max_n=max_n))
    h = draw(graphs(max_n=max_n - g.n))
    isolates = draw(st.integers(min_value=0, max_value=min(2, max_n - g.n - h.n)))
    return dc.disjoint_union(dc.disjoint_union(g, h), dc.make_graph(isolates))


@given(split_graphs())
def test_value_path_equals_dom_chromatic(g):
    check_value_path(g)


# the seven graphs of the benchmark's sweep workload
SWEEP_GRAPHS = (
    "circulant:12:1,3", "bipartite:4x5", "prism:8", "cycle:18", "cycle:22",
    "cycle:12", "prism:7",
)


@pytest.mark.parametrize("text", SWEEP_GRAPHS)
def test_value_path_on_edge_deletions_of_the_sweep_graphs(text):
    g = gen(text)
    edges = g.edges()
    rng = random.Random(f"deletions-{text}")
    for size in range(1, 5):
        for _ in range(10):
            check_value_path(dc.delete_edges(g, rng.sample(edges, size)))


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_closed_bracket_makes_no_kernel_call(monkeypatch, backend):
    cases = [gen(text) for text in SWEEP_GRAPHS]
    cases.append(dc.delete_edges(gen("prism:8"), [(0, 1), (2, 3)]))
    want = [dc.dom_chromatic(g)[0] for g in cases]

    def refuse(adj, k):
        raise AssertionError("kernel called on a closed bracket")

    monkeypatch.setitem(solver._BACKENDS, "compiled", SimpleNamespace(find_coloring=refuse))
    monkeypatch.setattr(_kernel_py, "find_coloring", refuse)
    assert [solver.dom_chromatic_value(g, backend=backend) for g in cases] == want


@given(graphs(max_n=7), st.integers(min_value=0, max_value=2))
def test_distance_two_bound_lies_between_clique_and_value(g, isolates):
    g = dc.disjoint_union(g, dc.make_graph(isolates, []))
    alpha = distance_two_bound(g.adj, 0)
    assert len(greedy_clique(g.adj)) <= alpha <= dc.dom_chromatic_oracle(g)


@given(split_graphs(max_n=12))
@example(gen("tchain:3"))
@example(gen("cliquestar:3x3"))
def test_distance_two_bound_gate_never_changes_the_bound(g):
    alpha = distance_two_bound(g.adj, 0)
    for lower in range(g.n + 1):
        assert distance_two_bound(g.adj, lower) == max(lower, alpha)


@given(graphs(max_n=9), graphs(max_n=9), st.integers(min_value=0, max_value=2))
def test_additivity_over_disjoint_union(g, h, isolates):
    union = dc.disjoint_union(dc.disjoint_union(g, dc.make_graph(isolates)), h)
    ku = dc.dom_chromatic(union)[0]
    assert ku == dc.dom_chromatic(g)[0] + isolates + dc.dom_chromatic(h)[0]


# -- metamorphic checks past the oracle's reach ----------------------------------------


def _relabelled(g, perm):
    return dc.make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _moved(coloring, perm):
    """The certificate ``coloring`` carried along the relabelling ``perm``."""
    assignment = [0] * len(perm)
    for v, c in enumerate(coloring.assignment):
        assignment[perm[v]] = c
    return DomColoring(
        tuple(assignment), {c: perm[d] for c, d in coloring.dominators.items()}
    )


def _with_false_twin(g, u):
    """``g`` plus a vertex ``g.n`` with the neighbors of ``u``."""
    return dc.make_graph(g.n + 1, [*g.edges(), *((g.n, w) for w in bits(g.adj[u]))])


def _assert_relabelling_keeps_the_value(g, perm):
    h = _relabelled(g, perm)
    k, coloring = dc.dom_chromatic(g)
    kh, coloring_h = dc.dom_chromatic(h)
    assert kh == k
    assert dc.verify(h, coloring_h) is None
    assert dc.verify(h, _moved(coloring, perm)) is None


@given(graphs(max_n=20), st.data())
def test_relabelling_leaves_the_value_unchanged(g, data):
    _assert_relabelling_keeps_the_value(g, data.draw(st.permutations(range(g.n))))


@given(graphs(max_n=19), st.integers(min_value=0))
@example(dc.make_graph(2, [(0, 1)]), 0)
def test_false_twin_leaves_the_value_unchanged(g, pick):
    # v copies N(u) for a u with neighbors: v joins u's class, and whatever
    # dominated a class holding v dominates u's class as well
    hubs = [u for u in range(g.n) if g.adj[u]]
    assume(hubs)
    u = hubs[pick % len(hubs)]
    twin = _with_false_twin(g, u)
    assert twin.adj[g.n] == g.adj[u] and not twin.adj[u] >> g.n & 1
    assert dc.dom_chromatic(twin)[0] == dc.dom_chromatic(g)[0]


# Family instances of 21 to 35 vertices.  Solve time depends heavily on the
# labels (ladder:18 solves in milliseconds as generated and in seconds
# relabelled), so the permutations are seeded, not drawn, and each instance
# here solves in milliseconds under every one of them.
_LARGE = [
    "tchain:10", "circulant:21:1,3", "circulant:24:1,3", "prism:12", "ladder:12",
    "grid:4x6", "cliquestar:3x8", "grid:5x5", "parasquare:8", "orthosquare:8",
    "flower:4x8", "parahex:5", "metahex:5", "circulant:27:1,3", "cycle:30",
    "path:30", "circulant:30:1,3", "wheel:30", "book:16", "friendship:17",
]


def _permutation(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


@pytest.mark.parametrize("text", _LARGE)
def test_relabelling_large_family_instances(text):
    g = gen(text)
    for seed in range(3):
        _assert_relabelling_keeps_the_value(g, _permutation(g.n, seed))


@pytest.mark.parametrize("text", _LARGE)
def test_false_twin_in_large_family_instances(text):
    g = gen(text)
    k = dc.dom_chromatic(g)[0]
    for seed in range(3):
        u = random.Random(seed).choice([u for u in range(g.n) if g.adj[u]])
        assert dc.dom_chromatic(_with_false_twin(g, u))[0] == k


@pytest.mark.parametrize(
    "first,isolates,second",
    [
        ("tchain:10", 0, "cycle:5"),
        ("prism:12", 1, "path:7"),
        ("circulant:21:1,3", 2, "tchain:5"),
        ("wheel:20", 1, "grid:3x4"),
        ("book:8", 2, "friendship:5"),
        ("cliquestar:3x6", 0, "metahex:2"),
    ],
)
def test_additivity_over_large_disjoint_unions(first, isolates, second):
    # 26 to 34 vertices, relabelled so that the components interleave
    g, h = gen(first), gen(second)
    union = dc.disjoint_union(dc.disjoint_union(g, dc.make_graph(isolates)), h)
    union = _relabelled(union, _permutation(union.n, isolates))
    k, coloring = dc.dom_chromatic(union)
    assert k == dc.dom_chromatic(g)[0] + isolates + dc.dom_chromatic(h)[0]
    assert dc.verify(union, coloring) is None


def test_full_degree_vertex_forces_chromatic_equality():
    # connected graphs with a universal vertex
    for text in ["wheel:4", "wheel:5", "wheel:6", "star:5", "complete:4", "friendship:3"]:
        g = gen(text)
        assert dc.dom_chromatic(g)[0] == dc.chromatic_number(g).value


@given(graphs(max_n=8))
@example(dc.make_graph(0))
# a path plus an isolated vertex, where first-fit uses 3 colors: the search must run
@example(dc.make_graph(7, [(0, 1), (0, 3), (3, 5), (4, 5), (4, 6)]))
def test_chromatic_number_is_dominated_number_with_an_apex_less_one(g):
    # an apex dominates every class it is not in, so χ(G) = χ_dom(G + apex) - 1;
    # the oracle shares no search with chromatic_number, which relies on this
    apex = dc.make_graph(g.n + 1, list(g.edges()) + [(g.n, v) for v in range(g.n)])
    res = dc.chromatic_number(g)
    assert dc.dom_chromatic_oracle(apex) == res.value + 1
    assert sorted(set(res.witness)) == list(range(1, res.value + 1))
    assert all(res.witness[u] != res.witness[v] for u, v in g.edges())


def test_diameter_two_equality_has_counterexamples():
    # equality at diameter <= 2 does not hold in general: this 7-vertex graph (and
    # the Petersen graph) have diameter 2 but value strictly above chi
    g = dc.make_graph(
        7,
        [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 6), (4, 6), (5, 6)],
    )
    assert dc.diameter(g) == 2
    assert dc.chromatic_number(g).value == 3
    assert dc.dom_chromatic(g)[0] == 4
    assert dc.dom_chromatic_oracle(g) == 4

    petersen = dc.make_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert dc.diameter(petersen) == 2
    assert dc.chromatic_number(petersen).value == 3
    assert dc.dom_chromatic(petersen)[0] == 4

    # even a named family member refutes it
    circ = gen("circulant:9:1,2")
    assert dc.diameter(circ) == 2
    assert dc.chromatic_number(circ).value == 3
    assert dc.dom_chromatic(circ)[0] == 5
    assert dc.dom_chromatic_oracle(circ) == 5


# -- oracle ---------------------------------------------------------------------------


def partition_oracle(g):
    """Reference for the oracle: walk every partition of the vertices into
    independent blocks, in first-vertex order, and check domination only at
    complete partitions, scanning all vertices for each block."""
    n, adj = g.n, g.adj
    best = n + 1
    block_masks = []

    def dominated(mask):
        if mask & (mask - 1) == 0 and not adj[mask.bit_length() - 1]:
            return True  # exempt isolate
        return any(adj[d] & mask == mask for d in range(n))

    def rec(v):
        nonlocal best
        if len(block_masks) >= best:
            return
        if v == n:
            if all(dominated(mask) for mask in block_masks):
                best = len(block_masks)
            return
        bit = 1 << v
        for i, mask in enumerate(block_masks):
            if not mask & adj[v]:
                block_masks[i] = mask | bit
                rec(v + 1)
                block_masks[i] = mask
        block_masks.append(bit)
        rec(v + 1)
        block_masks.pop()

    rec(0)
    return best


@pytest.mark.parametrize("text,value", [("path:5", 3), ("cycle:4", 2), ("star:4", 2)])
def test_oracle_values(text, value):
    assert dc.dom_chromatic_oracle(gen(text)) == value


def test_oracle_cap():
    with pytest.raises(dc.OracleCapError):
        dc.dom_chromatic_oracle(gen("path:11"))
    assert dc.dom_chromatic_oracle(gen("path:11"), cap=11) == 6


@pytest.mark.parametrize(
    "text,value", [("path:20", 10), ("grid:4x4", 6), ("friendship:8", 3)]
)
def test_oracle_reaches_past_its_default_cap(text, value):
    assert dc.dom_chromatic_oracle(gen(text), cap=20) == value


@given(graphs(max_n=8), st.integers(min_value=0, max_value=2))
def test_oracle_matches_partition_enumeration(g, isolates):
    g = dc.disjoint_union(g, dc.make_graph(isolates))
    assert dc.dom_chromatic_oracle(g) == partition_oracle(g)


@given(graphs(max_n=12))
@example(dc.make_graph(0))
@example(dc.make_graph(1))
def test_oracle_matches_solver(g):
    assert dc.dom_chromatic_oracle(g, cap=12) == dc.dom_chromatic(g)[0]

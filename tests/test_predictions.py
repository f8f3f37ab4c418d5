"""Closed-form tables, bound intervals, errata behavior."""

import math
from dataclasses import asdict

import pytest

import domchrom as dc
from domchrom.families import normalize_connection_set
from domchrom.predictions import PROVED, SUSPECT
from corpus import digest, outcome, parameter_corpus


def fs(text):
    return dc.parse_family(text)


# -- exact tables -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("path:8", 4),
        ("path:7", 4),
        ("cycle:12", 6),
        ("circulant:17:1,3", 5),
        ("parahex:3", 7),
        ("metahex:2", 6),
        ("tchain:5", 6),
        ("parasquare:4", 5),
        ("orthosquare:1", 2),
        ("cliquestar:3x3", 6),
        ("friendship:4", 3),
        ("wheel:6", 3),
        ("wheel:7", 4),
        ("ladder:5", 4),
        ("prism:6", 4),
        ("grid:2x3", 2),
        ("grid:3x3", 3),
        ("bipartite:4x4", 2),
        ("doublestar:3x4", 2),
        ("book:5", 2),
        ("complete:9", 9),
    ],
)
def test_predicted_values(text, value):
    assert dc.predict_dom_chromatic(fs(text)).value == value


# sha256 over the result of every printed rule, or its error type and
# message, on parameter_corpus(-2, 12, range(3, 26)): values, statuses,
# notes and the messages of out-of-domain parameters.  The erratum a
# prediction carries is left out here and checked against the errata table
# by the next test.
_RULES_DIGEST = "e4825e3cfdf217bdc53447702c68e8ec53d5857a03dc135f25379865144f3be7"


def test_every_printed_rule_is_pinned():
    rows = []
    for f in parameter_corpus(-2, 12, range(3, 26)):
        for rule in (dc.predict_dom_chromatic, dc.predict_stability, dc.predict_bondage):
            got = outcome(rule, f)
            if not isinstance(got, str):
                got = asdict(got)
                del got["erratum"]
            rows.append([rule.__name__, str(f), got])
    assert digest(rows) == _RULES_DIGEST


def test_each_prediction_carries_its_erratum():
    carried = set()
    for f in parameter_corpus(-2, 12, range(3, 26)):
        got = outcome(dc.predict_dom_chromatic, f)
        if not isinstance(got, str):
            assert got.erratum == dc.erratum_for(f)
            carried.add(got.erratum)
        for rule in (dc.predict_stability, dc.predict_bondage):
            got = outcome(rule, f)
            assert isinstance(got, str) or got.erratum is None
    assert carried == {None, *dc.ERRATA.values()}


def test_unsupported_family_raises():
    with pytest.raises(dc.NoPredictionError):
        dc.predict_dom_chromatic(fs("circulant:12:1,4"))
    with pytest.raises(dc.NoPredictionError):
        dc.predict_dom_chromatic(fs("tchain:1"))
    with pytest.raises(dc.NoPredictionError):
        dc.predict_dom_chromatic(fs("parahex:1"))


def test_circulant_prediction_via_reduction():
    # connection set (2, 6) on 9 vertices reduces to (1, 3)
    p = dc.predict_dom_chromatic(fs("circulant:9:2,6"))
    assert p.value == 3 and p.status == PROVED
    assert dc.dom_chromatic(dc.generate(fs("circulant:9:2,6")))[0] == 3


@pytest.mark.parametrize("n", range(3, 26))
def test_coprime_circulant_is_the_cycle(n):
    # C_n(a) with gcd(a, n) = 1 is the n-cycle under i -> a^-1 * i, so it
    # gets the cycle's prediction and erratum; other single values get none
    cycle = dc.predict_dom_chromatic(fs(f"cycle:{n}"))
    for a in (*range(1, n), -2, -3):
        circulant = fs(f"circulant:{n}:{a}")
        if math.gcd(a, n) == 1:
            assert dc.predict_dom_chromatic(circulant) == cycle
            assert dc.erratum_for(circulant) == dc.erratum_for(fs(f"cycle:{n}"))
        elif a % n:
            with pytest.raises(dc.NoPredictionError):
                dc.predict_dom_chromatic(circulant)


@pytest.mark.parametrize("n", range(6, 25))
def test_two_value_circulant_rules(n):
    # C_n(S) and C_n(uS) are isomorphic under i -> u * i for every unit u
    # of Z_n, so the two-value sets with the (1, 3) table's prediction and
    # erratum are the folded images of {u, 3u}, and no other set has a rule
    reduced = {
        normalize_connection_set(n, (u, 3 * u)) for u in range(1, n) if math.gcd(u, n) == 1
    }
    table = dc.predict_dom_chromatic(fs(f"circulant:{n}:1,3"))
    assert table.rule == "circulant(1,3) table"
    for a in range(1, n // 2 + 1):
        for b in range(a + 1, n // 2 + 1):
            if (a, b) == (1, 3):
                continue
            if (a, b) not in reduced:
                with pytest.raises(dc.NoPredictionError):
                    dc.predict_dom_chromatic(fs(f"circulant:{n}:{a},{b}"))
                continue
            p = dc.predict_dom_chromatic(fs(f"circulant:{n}:{a},{b}"))
            assert p.rule == "circulant(1,3) table via isomorphism reduction"
            assert (p.value, p.status, p.erratum) == (table.value, table.status, table.erratum)


def test_circulant_singleton_set_uses_cycle_rule():
    assert dc.predict_dom_chromatic(fs("circulant:9:1")).value == 5
    # C_n(1) is the n-cycle, so it has the cycle's erratum, which only n = 3 has
    triangle = dc.erratum_for(dc.spec("cycle", 3))
    assert dc.erratum_for(dc.spec("circulant", 3, 1)) is triangle
    for n in range(4, 26):
        assert dc.erratum_for(dc.spec("circulant", n, 1)) is None


@pytest.mark.parametrize("n", [-5, 0, 1, 2])
def test_circulant_rule_needs_three_vertices(n):
    f = dc.spec("circulant", n, 1)
    assert dc.erratum_for(f) is None
    with pytest.raises(dc.NoPredictionError, match=r"^circulant rule needs n >= 3$"):
        dc.predict_dom_chromatic(f)


def test_prism_prediction_equals_ladder():
    for n in range(4, 12):
        assert (
            dc.predict_dom_chromatic(fs(f"prism:{n}")).value
            == dc.predict_dom_chromatic(fs(f"ladder:{n}")).value
        )


def test_flower_recursion_unrolls():
    # base is the (corrected) single-cycle value, then the printed steps
    assert dc.predict_dom_chromatic(fs("flower:4x1")).value == 2
    assert dc.predict_dom_chromatic(fs("flower:4x2")).value == 3
    assert dc.predict_dom_chromatic(fs("flower:4x3")).value == 4
    assert dc.predict_dom_chromatic(fs("flower:5x2")).value == 4
    p = dc.predict_dom_chromatic(fs("flower:3x5"))
    assert p.kind == "recursive" and p.status == SUSPECT
    # n = 5 is congruent to 1 mod 4: the printed recursion adds a full
    # half-cycle step, breaking the constant-3 friendship value
    assert p.value == 4


def test_gamma_t_circulant_table():
    assert dc.predict_gamma_t_circulant13(12).value == 4
    assert dc.predict_gamma_t_circulant13(16).value == 4
    assert dc.predict_gamma_t_circulant13(8).value == 2
    with pytest.raises(dc.NoPredictionError):
        dc.predict_gamma_t_circulant13(3)


# -- errata and suspicion -----------------------------------------------------------


def test_errata_entries_are_solver_verified():
    for (family, params), erratum in dc.ERRATA.items():
        spec = dc.FamilySpec(dc.Family(family), params)
        prediction = dc.predict_dom_chromatic(spec)
        assert prediction.value == erratum.printed
        assert prediction.status == SUSPECT
        g = dc.generate(spec)
        assert dc.dom_chromatic(g)[0] == erratum.corrected
        if g.n <= 10:
            assert dc.dom_chromatic_oracle(g) == erratum.corrected


def test_cycle_three_erratum():
    e = dc.erratum_for(fs("cycle:3"))
    assert e is not None and (e.printed, e.corrected) == (2, 3)


def test_ladder_four_erratum():
    e = dc.erratum_for(fs("ladder:4"))
    assert e is not None and (e.printed, e.corrected) == (2, 4)
    # derived independently: exhaustive enumeration on the 8-vertex ladder
    assert dc.dom_chromatic_oracle(dc.generate(fs("ladder:4"))) == 4


def test_circulant_six_erratum_normalizes_connection_set():
    assert dc.erratum_for(fs("circulant:6:1,3")) is not None
    assert dc.erratum_for(fs("circulant:6:3,1")) is not None  # order folds away
    assert dc.erratum_for(fs("circulant:6:1,9")) is not None  # 9 folds to 3
    assert dc.erratum_for(fs("circulant:7:1,3")) is None


def test_ladder_suspicion_follows_count_bound():
    assert dc.predict_dom_chromatic(fs("ladder:2")).status == PROVED
    assert dc.predict_dom_chromatic(fs("ladder:3")).status == PROVED
    assert dc.predict_dom_chromatic(fs("ladder:4")).status == SUSPECT
    assert dc.predict_dom_chromatic(fs("ladder:5")).status == PROVED
    assert dc.predict_dom_chromatic(fs("ladder:7")).status == SUSPECT


def test_hex_chain_rule_suspect_beyond_two():
    assert dc.predict_dom_chromatic(fs("parahex:2")).status == PROVED
    assert dc.predict_dom_chromatic(fs("parahex:3")).status == SUSPECT
    assert dc.predict_dom_chromatic(fs("metahex:4")).status == SUSPECT


def test_circulant_residue_three_suspect():
    assert dc.predict_dom_chromatic(fs("circulant:11:1,3")).status == SUSPECT
    assert dc.predict_dom_chromatic(fs("circulant:19:1,3")).status == SUSPECT
    assert dc.predict_dom_chromatic(fs("circulant:16:1,3")).status == PROVED


def test_grid_column_branch_suspect():
    assert dc.predict_dom_chromatic(fs("grid:3x4")).status == SUSPECT
    assert dc.predict_dom_chromatic(fs("grid:3x3")).status == PROVED
    assert dc.predict_dom_chromatic(fs("grid:4x5")).status == SUSPECT  # ladder input


# -- bounds ---------------------------------------------------------------------------


def test_point_attach_bound():
    p = dc.bound_point_attach([2, 2])
    assert (p.lo, p.hi) == (2, 4)
    assert dc.bound_point_attach([5]).hi == 5
    # the friendship graph shows how slack the sum can be
    assert dc.bound_point_attach([3] * 4).hi == 12
    with pytest.raises(ValueError):
        dc.bound_point_attach([])


@pytest.mark.parametrize("parts", [[-1, 5], [-2], [0], [3, 0, 2]])
def test_point_attach_refuses_a_part_value_below_one(parts):
    # every part has a vertex, so its value is at least 1
    with pytest.raises(ValueError) as info:
        dc.bound_point_attach(parts)
    assert str(info.value) == "part value must be >= 1"
    assert (dc.bound_point_attach([1, 5]).lo, dc.bound_point_attach([1, 5]).hi) == (5, 6)


def test_clique_star_bound():
    assert (dc.bound_clique_star(3, 2).lo, dc.bound_clique_star(3, 2).hi) == (3, 6)
    assert (dc.bound_clique_star(5, 1).lo, dc.bound_clique_star(5, 1).hi) == (0, 5)
    m, n = 3, 3
    p = dc.bound_clique_star(m, n)
    assert p.lo <= m * (n - 1) <= p.hi


def test_r_glue_bound():
    assert (dc.bound_r_glue(4, 5, 4).lo, dc.bound_r_glue(4, 5, 4).hi) == (5, 5)
    assert (dc.bound_r_glue(5, 6, 5).lo, dc.bound_r_glue(5, 6, 5).hi) == (6, 6)
    assert (dc.bound_r_glue(3, 3, 0).lo, dc.bound_r_glue(3, 3, 0).hi) == (3, 6)


def test_r_glue_upper_bound_counterexample():
    # gluing a 4-path and a 3-path along an end edge yields a 5-path whose
    # value 3 exceeds 2 + 2 - 2; the printed interval is marked suspect
    p4 = dc.make_graph(4, [(0, 1), (1, 2), (2, 3)])
    p3 = dc.make_graph(3, [(0, 1), (1, 2)])
    glued = dc.r_glue(p4, p3, [2, 3], [0, 1])
    assert dc.dom_chromatic(glued)[0] == 3
    assert dc.dom_chromatic_oracle(glued) == 3
    bound = dc.bound_r_glue(2, 2, 2)
    assert bound.hi == 2 and bound.status == SUSPECT


def test_r_glue_rejects_inconsistent_interval():
    with pytest.raises(ValueError, match="interval"):
        dc.bound_r_glue(2, 2, 4)


@pytest.mark.parametrize("chi1,chi2,r", [(1, 1, 2), (2, 2, 4), (3, 9, 4), (9, 3, 4)])
def test_r_glue_refuses_a_clique_above_either_value(chi1, chi2, r):
    # an r-clique needs r colors, so both values are at least r
    least = min(chi1, chi2)
    message = (
        f"impossible r-gluing interval: a graph with a clique of {r} vertices "
        f"has a value of at least {r}, not {least}"
    )
    with pytest.raises(ValueError) as info:
        dc.bound_r_glue(chi1, chi2, r)
    assert str(info.value) == message
    # at min(chi1, chi2) = r the interval is still the single value r
    assert (dc.bound_r_glue(r, r, r).lo, dc.bound_r_glue(r, r, r).hi) == (r, r)


def test_clique_star_refuses_a_negative_clique_size():
    with pytest.raises(ValueError) as info:
        dc.bound_clique_star(-2, 2)
    assert str(info.value) == "clique size must be non-negative, got m = -2"
    assert (dc.bound_clique_star(0, 2).lo, dc.bound_clique_star(0, 2).hi) == (0, 0)


def test_sandwich_examples():
    p = dc.sandwich(dc.generate(fs("bipartite:3x3")))
    assert (p.lo, p.hi) == (2, 4)
    p = dc.sandwich(dc.generate(fs("complete:5")))
    assert (p.lo, p.hi) == (5, 5)
    p = dc.sandwich(dc.generate(fs("cycle:8")))
    assert (p.lo, p.hi) == (4, 6)
    assert p.contains(dc.dom_chromatic(dc.generate(fs("cycle:8")))[0])


@pytest.mark.parametrize("text,lo", [("cliquestar:4x3", 8), ("cliquestar:5x3", 10)])
def test_sandwich_lower_end_includes_distance_two_bound(text, lo):
    # χ, γ_t and the neighborhood term reach only 6 and 8; α(D2) is the value
    g = dc.generate(fs(text))
    assert dc.sandwich(g).lo == lo == dc.dom_chromatic(g)[0]


def test_sandwich_rejects_isolates():
    with pytest.raises(dc.UndefinedInvariantError):
        dc.sandwich(dc.make_graph(2, []))

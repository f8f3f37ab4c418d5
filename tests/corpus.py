"""Shared instance corpora for the test suite.

The family corpus enumerates every supported family instance up to a
vertex cap; the random corpus is seeded so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import domchrom as dc
from domchrom.families import _TWO_PARAM
from domchrom.graph import Graph, make_graph


def family_corpus(max_n: int) -> list[dc.FamilySpec]:
    """All supported family instances with at most ``max_n`` vertices."""
    specs: list[dc.FamilySpec] = []
    specs += [dc.spec("path", n) for n in range(1, max_n + 1)]
    specs += [dc.spec("cycle", n) for n in range(3, max_n + 1)]
    specs += [dc.spec("complete", n) for n in range(1, max_n + 1)]
    specs += [
        dc.spec("bipartite", m, n)
        for m in range(1, max_n)
        for n in range(m, max_n)
        if m + n <= max_n
    ]
    specs += [dc.spec("star", n) for n in range(1, max_n)]
    specs += [
        dc.spec("doublestar", a, b)
        for a in range(1, max_n)
        for b in range(a, max_n)
        if a + b + 2 <= max_n
    ]
    specs += [dc.spec("ladder", n) for n in range(1, max_n // 2 + 1)]
    specs += [dc.spec("prism", n) for n in range(3, max_n // 2 + 1)]
    specs += [
        dc.spec("grid", m, n)
        for m in range(1, max_n + 1)
        for n in range(m, max_n + 1)
        if m * n <= max_n
    ]
    specs += [dc.spec("book", n) for n in range(1, (max_n - 2) // 2 + 1)]
    specs += [dc.spec("wheel", n) for n in range(3, max_n)]
    specs += [dc.spec("friendship", n) for n in range(1, (max_n - 1) // 2 + 1)]
    specs += [
        dc.spec("flower", m, n)
        for m in range(3, max_n)
        for n in range(1, max_n)
        if n * (m - 1) + 1 <= max_n
    ]
    for conn in ((1, 2), (1, 3), (2, 3)):
        specs += [
            dc.spec("circulant", n, *conn)
            for n in range(max(conn) + 2, max_n + 1)
        ]
    specs += [
        dc.spec("cliquestar", m, n)
        for m in range(2, max_n)
        for n in range(1, max_n)
        if m * n <= max_n
    ]
    specs += [dc.spec("tchain", n) for n in range(1, (max_n - 1) // 2 + 1)]
    specs += [dc.spec("parasquare", n) for n in range(1, (max_n - 1) // 3 + 1)]
    specs += [dc.spec("orthosquare", n) for n in range(1, (max_n - 1) // 3 + 1)]
    specs += [dc.spec("parahex", n) for n in range(1, (max_n - 1) // 5 + 1)]
    specs += [dc.spec("metahex", n) for n in range(1, (max_n - 1) // 5 + 1)]
    return specs


# the family ranges of the benchmark's audit workload (Audit.RANGES in
# bench/workloads.py), one row per family that has a closed-form rule
AUDIT_RANGES = (
    "cycle:3..24", "path:1..24", "grid:2..6x2..6", "ladder:2..12",
    "prism:4..12", "circulant:6..30:1,3",
    "tchain:2..8", "parasquare:1..6", "orthosquare:1..6",
    "parahex:2..4", "metahex:2..4",
    "wheel:3..16", "flower:3..5x1..4", "cliquestar:3..4x3..4",
    "bipartite:1..6x1..6", "book:2..8", "friendship:1..8",
)


def audited_corpus(max_n: int) -> list[dc.FamilySpec]:
    """Family instances that carry a closed-form prediction (the audit's
    reach), up to ``max_n`` vertices."""
    out = []
    for fs in family_corpus(max_n):
        try:
            dc.predict_dom_chromatic(fs)
        except dc.NoPredictionError:
            continue
        out.append(fs)
    return out


# circulant connection sets: folded, unfolded, reducible, negative and loops
_CONNECTION_SETS = (
    (1,), (2,), (-1,), (-3,), (0,), (1, 2), (1, 3), (3, 1), (2, 3), (2, 6),
    (1, 4), (1, 3, 5),
)

# vertex counts of 2^63 or more, refused before anything is built
_HUGE = [
    dc.spec("path", 1 << 63),
    dc.spec("grid", 1 << 32, 1 << 31),
    dc.spec("tchain", 1 << 62),
    dc.spec("circulant", 1 << 63, 1, 3),
]


def parameter_corpus(lo: int, hi: int, orders: range) -> list[dc.FamilySpec]:
    """Every family with each parameter in ``lo..hi``, out-of-domain and
    negative values included; circulants of the given orders over a fixed
    list of connection sets; and a few specs too large to build."""
    specs = list(_HUGE)
    for family in dc.Family:
        if family is dc.Family.CIRCULANT:
            specs += [
                dc.spec(family, n, *conn) for n in orders for conn in _CONNECTION_SETS
            ]
            continue
        arity = 2 if family in _TWO_PARAM else 1
        specs += [
            dc.spec(family, *params)
            for params in itertools.product(range(lo, hi + 1), repeat=arity)
        ]
    return specs


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except dc.DomchromError as exc:
        return f"{type(exc).__name__}: {exc}"


def digest(rows) -> str:
    """sha256 of the sorted JSON encodings of ``rows``."""
    text = json.dumps(sorted(json.dumps(row) for row in rows))
    return hashlib.sha256(text.encode()).hexdigest()


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def random_corpus(
    seed: int,
    count: int,
    *,
    n_lo: int = 1,
    n_hi: int = 9,
    probs: tuple[float, ...] = (0.3, 0.5),
    isolate_free: bool = False,
) -> list[Graph]:
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, rng.randint(n_lo, n_hi), rng.choice(probs))
        if isolate_free and (g.n == 0 or g.isolated_vertices()):
            continue
        out.append(g)
    return out

"""Exact stability and bondage of the dominated chromatic number.

Stability is the minimum number of vertex deletions that change the value;
bondage the minimum number of edge deletions.  Both are computed by
exhaustive minimal-cardinality sweeps in lexicographic order, so the
reported witness is the first one of minimum size and runs are
reproducible.  Deleted-vertex/edge witnesses are reported in the labels
of the input graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, NoPredictionError
from .families import Family, FamilySpec
from .graph import Graph, delete_edges, delete_vertices
from .predictions import PROVED, SUSPECT, Prediction
from .solver import dom_chromatic

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


class _Deadline:
    def __init__(self, budget_ms: int | None):
        self.limit = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    def check(self) -> None:
        if self.limit is not None and time.monotonic() > self.limit:
            raise BudgetExceededError("perturbation sweep exceeded the time budget")


def _value_cache(backend):
    cache: dict[tuple[int, tuple[int, ...]], int] = {}

    def value(g: Graph) -> int:
        key = (g.n, g.adj)
        if key not in cache:
            cache[key] = dom_chromatic(g, backend=backend)[0]
        return cache[key]

    return value


def _sweep(g: Graph, mode: str, items, delete, budget_ms, backend) -> PerturbationResult:
    """Try removing every subset of ``items``, smallest and lexicographically
    first, until the value changes."""
    deadline = _Deadline(budget_ms)
    value = _value_cache(backend)
    before = value(g)
    for s in range(1, len(items) + 1):
        for subset in combinations(items, s):
            deadline.check()
            after = value(delete(g, subset))
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


# -- closed-form stability/bondage tables -------------------------------------


def predict_stability(fs: FamilySpec) -> Prediction:
    """Closed-form stability prediction for the supported families."""
    f, p = fs.family, fs.params

    if f is Family.PATH:
        (n,) = p
        if n < 4:
            raise NoPredictionError("path stability rule needs n >= 4")
        return Prediction(
            "exact", PROVED, "path stability rule", value=2 if n % 4 == 3 else 1
        )

    if f is Family.CYCLE:
        (n,) = p
        if n < 4:
            raise NoPredictionError("cycle stability rule needs n >= 4")
        if n % 4 == 0:
            value = 3
        elif n % 4 == 3:
            value = 2
        else:
            value = 1
        return Prediction("exact", PROVED, "cycle stability rule", value=value)

    if f in (Family.FRIENDSHIP, Family.WHEEL, Family.FLOWER, Family.BOOK):
        if f is Family.WHEEL:
            if p[0] < 3:
                raise NoPredictionError("wheel stability rule needs n >= 3")
        elif f is Family.FLOWER:
            if p[0] < 3 or p[1] < 2:
                raise NoPredictionError("flower stability rule needs m >= 3, n >= 2")
        elif p[0] < 2:
            raise NoPredictionError("stability rule needs n >= 2")
        return Prediction("exact", PROVED, "single-vertex stability family", value=1)

    if f is Family.COMPLETE_BIPARTITE:
        m, n = p
        if m != n or n < 2:
            raise NoPredictionError("balanced-sides stability rule needs m = n >= 2")
        if n == 2:
            # the graph is the 4-cycle, whose stability is 3; the printed
            # side-removal argument does not change the value at n = 2
            return Prediction(
                "exact",
                SUSPECT,
                "balanced bipartite stability rule",
                value=2,
                note="conflicts with the cycle rule on the same graph",
            )
        return Prediction("exact", PROVED, "balanced bipartite stability rule", value=n)

    raise NoPredictionError(f"no stability rule for family {f.value!r}")


def predict_bondage(fs: FamilySpec) -> Prediction:
    """Closed-form bondage prediction for the supported families."""
    f, p = fs.family, fs.params

    if f is Family.PATH:
        (n,) = p
        if n < 4:
            raise NoPredictionError("path bondage rule needs n >= 4")
        return Prediction(
            "exact", PROVED, "path bondage rule", value=2 if n % 4 == 2 else 1
        )

    if f is Family.CYCLE:
        (n,) = p
        if n < 4:
            raise NoPredictionError("cycle bondage rule needs n >= 4")
        return Prediction(
            "exact", PROVED, "cycle bondage rule", value=3 if n % 4 == 2 else 2
        )

    if f is Family.FRIENDSHIP:
        (n,) = p
        if n < 2:
            raise NoPredictionError("friendship bondage rule needs n >= 2")
        return Prediction(
            "exact",
            SUSPECT,
            "friendship bondage rule",
            value=1,
            note="after any single edge removal a dominated 3-coloring "
            "still exists, so the true value exceeds the printed 1",
        )

    if f is Family.BOOK:
        (n,) = p
        if n < 2:
            raise NoPredictionError("book bondage rule needs n >= 2")
        return Prediction("exact", PROVED, "book bondage rule", value=1)

    if f is Family.COMPLETE_BIPARTITE:
        m, n = p
        if m < n or n < 1:
            raise NoPredictionError("bipartite bondage rule needs m >= n >= 1")
        return Prediction("exact", PROVED, "bipartite bondage rule", value=n)

    raise NoPredictionError(f"no bondage rule for family {f.value!r}")

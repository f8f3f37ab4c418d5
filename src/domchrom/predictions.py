"""Every rule the paper prints: the closed-form dominated chromatic number,
stability and bondage of each family, the structural bounds used to
sandwich the value, and the errata that refute printed values.

The printed values are three tables keyed by family: ``_DOM_RULES``,
``_STABILITY_RULES`` and ``_BONDAGE_RULES``.  A row takes the instance's
parameters and returns its prediction, or raises
:class:`NoPredictionError` for parameters outside the rule's domain.  A
rule in one parameter with a fixed status is built by ``_one_param``;
rules with more logic are named functions.

Each prediction carries a provenance status so the audit can adjudicate
rather than silently correct:

* ``proved``  - the shipped derivation is believed sound;
* ``suspect`` - the printed form conflicts with an independent check (a
  counting bound, an isomorphism, or solver ground truth) or rests on an
  internally inconsistent recursion.

A small errata table records the instances where the printed value is
refuted outright, together with the corrected value the audit expects;
``predict_dom_chromatic`` marks every instance it lists ``suspect``.
Suspicion is propagated, never laundered: derived rules (grids) inherit
``suspect`` from their ladder inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Callable

from .errors import NoPredictionError, UndefinedInvariantError
from .families import Family, FamilySpec, circulant_reduce, normalize_connection_set
from .graph import Graph
from .invariants import (
    chromatic_number,
    distance_two_bound,
    domination_number,
    max_neighborhood_independence,
    total_domination_number,
)

PROVED = "proved"
SUSPECT = "suspect"


@dataclass(frozen=True)
class Erratum:
    printed: int
    corrected: int
    reason: str


@dataclass(frozen=True)
class Prediction:
    """A closed-form value or bound interval with provenance status.
    ``erratum`` is the errata-table entry that refutes the printed value,
    if any (set by :func:`predict_dom_chromatic`)."""

    kind: str  # "exact" | "interval" | "recursive"
    status: str
    rule: str
    value: int | None = None
    lo: int | None = None
    hi: int | None = None
    note: str = ""
    erratum: Erratum | None = None

    def __post_init__(self) -> None:
        if self.kind == "interval" and self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v: int) -> bool:
        if self.kind == "interval":
            return self.lo <= v <= self.hi
        return v == self.value


#: Instances whose printed value is refuted; the audit expects ``corrected``
#: while the prediction keeps the printed value with status ``suspect``.
ERRATA: dict[tuple[str, tuple[int, ...]], Erratum] = {
    ("cycle", (3,)): Erratum(
        printed=2,
        corrected=3,
        reason="a 3-cycle is a triangle, so three singleton classes are forced",
    ),
    ("ladder", (4,)): Erratum(
        printed=2,
        corrected=4,
        reason="2 violates the class-size lower bound ceil(8/3) = 3; "
        "exhaustive search gives 4",
    ),
    ("circulant", (6, 1, 3)): Erratum(
        printed=3,
        corrected=2,
        reason="the graph is K_{3,3}, whose dominated chromatic number is 2",
    ),
    ("circulant", (11, 1, 3)): Erratum(
        printed=4,
        corrected=3,
        reason="an explicit 3-class certificate exists ({0,2,4}, {1,6,8,10}, "
        "{3,5,7,9}); brute-force enumeration confirms 3",
    ),
    ("grid", (3, 4)): Erratum(
        printed=5,
        corrected=4,
        reason="the column construction behind the n = 3t+1 branch is not "
        "optimal here; exhaustive search gives 4",
    ),
}


def _fold_circulant(n: int, conn: tuple[int, ...]) -> tuple[int, ...]:
    """The folded connection set; C_n(a) with gcd(a, n) = 1 is the n-cycle."""
    folded = normalize_connection_set(n, conn)
    return (1,) if len(folded) == 1 and gcd(folded[0], n) == 1 else folded


def erratum_for(fs: FamilySpec) -> Erratum | None:
    """The errata entry of ``fs``, a circulant keyed by its folded
    connection set and one whose set folds to ``(1,)`` as the n-cycle."""
    key = (fs.family.value, fs.params)
    if fs.family is Family.CIRCULANT:
        n, *conn = fs.params
        if n < 3:
            return None
        folded = _fold_circulant(n, tuple(conn))
        key = ("cycle", (n,)) if folded == (1,) else (fs.family.value, (n, *folded))
    return ERRATA.get(key)


# -- per-family rules --------------------------------------------------------


def _one_param(
    least: int, name: str, rule: str, value: Callable[[int], int],
    status: str = PROVED, note: str = "",
) -> Callable[[int], Prediction]:
    """The row of a rule in one parameter ``n >= least`` with value
    ``value(n)`` and a fixed status."""

    def predict(n: int) -> Prediction:
        if n < least:
            raise NoPredictionError(f"{name} rule needs n >= {least}")
        return Prediction("exact", status, rule, value=value(n), note=note)

    return predict


def _lookup(
    rules: dict[Family, Callable[..., Prediction]], what: str, fs: FamilySpec
) -> Prediction:
    """The prediction of ``fs``'s row in ``rules``, applied to its parameters."""
    rule = rules.get(fs.family)
    if rule is None:
        raise NoPredictionError(f"no {what} for family {fs.family.value!r}")
    return rule(*fs.params)


def _path_cycle_value(n: int) -> int:
    return n // 2 if n % 4 == 0 else n // 2 + 1


def _ladder_value(n: int) -> int:
    return 2 * (-(-(n - 1) // 3))


def _ladder_suspicious(n: int) -> bool:
    # classes cannot exceed the maximum degree 3, so 2n vertices force at
    # least ceil(2n/3) classes; the printed formula dips below that for
    # n = 3t + 1 >= 4
    return n >= 3 and _ladder_value(n) < -(-2 * n // 3)


def _two_sides(*sides: int) -> Prediction:
    if any(x < 1 for x in sides):
        raise NoPredictionError("side sizes must be >= 1")
    return Prediction("exact", PROVED, "two dominated sides", value=2)


def _ladder_rule(least: int, name: str, rule: str) -> Callable[[int], Prediction]:
    """The ladder rule, or the prism's, which equals it."""

    def predict(n: int) -> Prediction:
        if n < least:
            raise NoPredictionError(f"{name} rule needs n >= {least}")
        suspect = _ladder_suspicious(n)
        return Prediction(
            "exact",
            SUSPECT if suspect else PROVED,
            rule,
            value=_ladder_value(n),
            note="below the class-size bound" if suspect else "",
        )

    return predict


def _grid_prediction(m: int, n: int) -> Prediction:
    if m < 2 or n < 2:
        raise NoPredictionError("grid rule needs m, n >= 2")
    suspect = False
    note = ""
    t, r = divmod(n, 3)
    value = t * m
    if r == 1:
        # the extra-path-of-columns construction is refuted at 3x4, where
        # the true value is one lower, so the whole branch carries doubt
        value += _path_cycle_value(m)
        suspect = True
        note = "the n = 3t+1 column construction is not always optimal"
    elif r == 2:
        value += _ladder_value(m)
        if _ladder_suspicious(m):
            suspect = True
            note = "inherits a suspect ladder input"
    # the assembled value may also dip under the class-size bound ceil(mn/4)
    if value < -(-m * n // 4):
        suspect = True
        note = "below the class-size bound"
    return Prediction(
        kind="exact",
        status=SUSPECT if suspect else PROVED,
        rule="grid column recursion",
        value=value,
        note=note,
    )


def _circulant13_value(n: int) -> int:
    if n == 6:
        return 3  # printed value; refuted, see ERRATA
    if n == 7:
        return 4
    base = 2 * (n // 8)
    if n % 8 == 0:
        return base
    if n % 8 == 1:
        return base + 1
    return base + 2


def _flower_value(m: int, n: int) -> int:
    # recursion as printed, applied literally to the number of cycles n,
    # from the (corrected) single-cycle base
    err = erratum_for(FamilySpec(Family.CYCLE, (m,)))
    value = err.corrected if err else _path_cycle_value(m)
    for i in range(2, n + 1):
        value += m // 2 if i % 4 == 1 else m // 2 - 1
    return value


def _flower_prediction(m: int, n: int) -> Prediction:
    if m < 3 or n < 1:
        raise NoPredictionError("flower rule needs m >= 3, n >= 1")
    return Prediction(
        "recursive",
        SUSPECT,
        "flower recursion",
        value=_flower_value(m, n),
        note="the printed recursion is internally inconsistent (constant "
        "for triangles only by accident); every instance is audited",
    )


def _circulant_prediction(n: int, *conn: int) -> Prediction:
    if n < 3:
        raise NoPredictionError("circulant rule needs n >= 3")
    folded = _fold_circulant(n, conn)
    if folded == (1,):
        return _DOM_RULES[Family.CYCLE](n)
    rule = "circulant(1,3) table"
    if folded != (1, 3) and len(folded) == 2 and n >= 8:
        # reduce C_n(a,b) to C_n(1, a^-1 b) when some value is invertible
        pairs = [(x, y) for x, y in (folded, folded[::-1]) if gcd(x, n) == 1]
        if pairs and circulant_reduce(n, *pairs[0]).c == 3:
            folded = (1, 3)
            rule = "circulant(1,3) table via isomorphism reduction"
    if folded == (1, 3) and n >= 6:
        # on residue 3 the claimed value sits one above the
        # total-domination floor and is refuted at n = 11 and 19
        above_floor = n >= 8 and n % 8 == 3
        return Prediction(
            "exact",
            SUSPECT if above_floor else PROVED,
            rule,
            value=_circulant13_value(n),
            note="claimed value exceeds the total-domination floor"
            if above_floor else "",
        )
    raise NoPredictionError(f"no circulant rule for connection set {folded}")


def _clique_star_prediction(m: int, n: int) -> Prediction:
    if m < 3 or n < 3:
        raise NoPredictionError("clique star rule needs m, n >= 3")
    return Prediction("exact", PROVED, "clique star rule", value=m * (n - 1))


def _hex_chain_prediction(n: int) -> Prediction:
    if n < 2:
        raise NoPredictionError("hexagonal chain rule needs n >= 2")
    if n == 2:
        return Prediction("exact", PROVED, "cactus chain rule", value=6)
    # the stated closed form n+4 grows by 1 per ring while the stated
    # per-ring recursion adds 2; the solver sides with the recursion
    # (value 2n+2), so the closed form is kept only as suspect
    return Prediction(
        "exact",
        SUSPECT,
        "cactus chain rule",
        value=n + 4,
        note="conflicts with the stated per-ring recursion, which the "
        "solver confirms",
    )


_square_chain = _one_param(1, "square chain", "cactus chain rule", lambda n: n + 1)

_DOM_RULES: dict[Family, Callable[..., Prediction]] = {
    Family.PATH: _one_param(1, "path", "path/cycle rule", _path_cycle_value),
    Family.CYCLE: _one_param(3, "cycle", "path/cycle rule", _path_cycle_value),
    Family.COMPLETE: _one_param(
        1, "complete", "diameter <= 2 so equal to chromatic number", lambda n: n
    ),
    Family.COMPLETE_BIPARTITE: _two_sides,
    Family.STAR: _two_sides,
    Family.DOUBLE_STAR: _two_sides,
    Family.BOOK: _two_sides,
    Family.LADDER: _ladder_rule(2, "ladder", "ladder rule"),
    Family.PRISM: _ladder_rule(4, "prism", "prism equals ladder rule"),
    Family.GRID: _grid_prediction,
    Family.WHEEL: _one_param(
        3, "wheel", "hub has full degree so equal to chromatic number", lambda n: 3 + n % 2
    ),
    Family.FRIENDSHIP: _one_param(1, "friendship", "friendship rule", lambda n: 3),
    Family.FLOWER: _flower_prediction,
    Family.CIRCULANT: _circulant_prediction,
    Family.CLIQUE_STAR: _clique_star_prediction,
    Family.TRIANGLE_CHAIN: _one_param(
        2, "triangular chain", "cactus chain rule", lambda n: n + 1
    ),
    Family.PARA_SQUARE_CHAIN: _square_chain,
    Family.ORTHO_SQUARE_CHAIN: _square_chain,
    Family.PARA_HEX_CHAIN: _hex_chain_prediction,
    Family.META_HEX_CHAIN: _hex_chain_prediction,
}


def predict_dom_chromatic(fs: FamilySpec) -> Prediction:
    """Closed-form prediction for a family instance, ``suspect`` whenever
    the errata table refutes it.

    Raises :class:`NoPredictionError` when the family or parameter range is
    outside the shipped table.
    """
    prediction = _lookup(_DOM_RULES, "rule", fs)
    erratum = erratum_for(fs)
    if erratum is not None:
        return replace(prediction, status=SUSPECT, erratum=erratum)
    return prediction


# -- closed-form stability/bondage tables -------------------------------------


def _flower_stability(m: int, n: int) -> Prediction:
    if m < 3 or n < 2:
        raise NoPredictionError("flower stability rule needs m >= 3, n >= 2")
    return Prediction("exact", PROVED, "single-vertex stability family", value=1)


def _balanced_bipartite_stability(m: int, n: int) -> Prediction:
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


_single_vertex_stability = _one_param(
    2, "stability", "single-vertex stability family", lambda n: 1
)

_STABILITY_RULES: dict[Family, Callable[..., Prediction]] = {
    Family.PATH: _one_param(
        4, "path stability", "path stability rule", lambda n: 2 if n % 4 == 3 else 1
    ),
    Family.CYCLE: _one_param(
        4, "cycle stability", "cycle stability rule", lambda n: {0: 3, 3: 2}.get(n % 4, 1)
    ),
    Family.WHEEL: _one_param(
        3, "wheel stability", "single-vertex stability family", lambda n: 1
    ),
    Family.FRIENDSHIP: _single_vertex_stability,
    Family.BOOK: _single_vertex_stability,
    Family.FLOWER: _flower_stability,
    Family.COMPLETE_BIPARTITE: _balanced_bipartite_stability,
}


def predict_stability(fs: FamilySpec) -> Prediction:
    """Closed-form stability prediction for the supported families."""
    return _lookup(_STABILITY_RULES, "stability rule", fs)


def _bipartite_bondage(m: int, n: int) -> Prediction:
    if m < n or n < 1:
        raise NoPredictionError("bipartite bondage rule needs m >= n >= 1")
    return Prediction("exact", PROVED, "bipartite bondage rule", value=n)


_BONDAGE_RULES: dict[Family, Callable[..., Prediction]] = {
    Family.PATH: _one_param(
        4, "path bondage", "path bondage rule", lambda n: 2 if n % 4 == 2 else 1
    ),
    Family.CYCLE: _one_param(
        4, "cycle bondage", "cycle bondage rule", lambda n: 3 if n % 4 == 2 else 2
    ),
    Family.FRIENDSHIP: _one_param(
        2, "friendship bondage", "friendship bondage rule", lambda n: 1, SUSPECT,
        "after any single edge removal a dominated 3-coloring "
        "still exists, so the true value exceeds the printed 1",
    ),
    Family.BOOK: _one_param(2, "book bondage", "book bondage rule", lambda n: 1),
    Family.COMPLETE_BIPARTITE: _bipartite_bondage,
}


def predict_bondage(fs: FamilySpec) -> Prediction:
    """Closed-form bondage prediction for the supported families."""
    return _lookup(_BONDAGE_RULES, "bondage rule", fs)


def predict_gamma_t_circulant13(n: int) -> Prediction:
    """Total domination number of the circulant with connection set (1, 3)."""
    if n < 4:
        raise NoPredictionError("total domination table needs n >= 4")
    value = -(-n // 4)
    if n % 8 in (2, 4):
        value += 1
    return Prediction("exact", PROVED, "circulant(1,3) total domination table", value=value)


# -- structural bounds --------------------------------------------------------


def bound_point_attach(parts: list[int]) -> Prediction:
    """Interval for a graph assembled by point-attaching the given parts.

    The upper bound (sum of part values) is proved; the lower bound (their
    maximum) is only a heuristic, hence the interval is marked suspect.
    """
    if not parts:
        raise ValueError("need at least one part")
    if min(parts) < 1:
        raise ValueError("part value must be >= 1")
    return Prediction(
        "interval",
        SUSPECT,
        "point-attach bound",
        lo=max(parts),
        hi=sum(parts),
        note="upper bound proved; lower bound heuristic",
    )


def bound_clique_star(m: int, chi_h: int) -> Prediction:
    """Interval for a clique on m vertices with a copy of H attached to
    each vertex, given H's dominated chromatic number."""
    if chi_h < 1:
        raise ValueError("part value must be >= 1")
    if m < 0:
        raise ValueError(f"clique size must be non-negative, got m = {m}")
    return Prediction(
        "interval",
        PROVED,
        "clique attachment bound",
        lo=m * (chi_h - 1),
        hi=m * chi_h,
    )


def bound_r_glue(chi1: int, chi2: int, r: int) -> Prediction:
    """Interval for the r-gluing of two graphs with known values.

    The lower bound (restriction argument) is sound.  The upper bound
    ``chi1 + chi2 - r`` is refuted: gluing two paths along an end edge
    gives a longer path whose value exceeds it (e.g. 4- and 3-vertex paths
    glue to a 5-vertex path of value 3 > 2 + 2 - 2).  The interval is kept
    as printed, marked suspect.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if min(chi1, chi2) < r:
        # the glued graphs hold an r-clique, whose vertices need r colors
        raise ValueError(
            f"impossible r-gluing interval: a graph with an {r}-clique has a value "
            f"of at least {r}, not {min(chi1, chi2)}"
        )
    return Prediction(
        "interval",
        SUSPECT,
        "r-gluing bound",
        lo=max(chi1, chi2),
        hi=chi1 + chi2 - r,
        note="lower bound sound; upper bound refuted by edge-gluing paths",
    )


def sandwich(g: Graph) -> Prediction:
    """``max(chi, gamma_t, ⌈n / max_d α(G[N(d)])⌉, α(D2)) <= value <= chi * gamma``
    for isolate-free graphs.

    The third term holds because every class is an independent set inside
    the open neighborhood of its dominator.  The fourth holds because two
    vertices can share a class only if they are at distance exactly 2,
    so an independent set of D2 needs pairwise distinct classes.  The
    fourth goes through ``invariants.distance_two_bound``, the solver's
    gate, so α(D2) is computed only where it could raise the other three:
    never on a triangle chain.
    """
    if g.isolated_vertices():
        raise UndefinedInvariantError("sandwich bound needs an isolate-free graph")
    chi = chromatic_number(g).value
    gamma = domination_number(g).value
    gamma_t = total_domination_number(g).value
    neighborhood = -(-g.n // max_neighborhood_independence(g.adj))
    return Prediction(
        "interval",
        PROVED,
        "sandwich bound",
        lo=distance_two_bound(g.adj, max(chi, gamma_t, neighborhood)),
        hi=chi * gamma,
    )

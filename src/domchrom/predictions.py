"""Every rule the paper prints: the closed-form dominated chromatic number,
stability and bondage of each family, the structural bounds used to
sandwich the value, and the errata that refute printed values.

The printed values are three tables keyed by family: ``_DOM_RULES``,
``_STABILITY_RULES`` and ``_BONDAGE_RULES``.  A row takes the instance's
parameters and returns its prediction, or raises
:class:`NoPredictionError` for parameters outside the rule's domain.
Almost every row is built by ``_rule`` from its domain, the message for
parameters outside it, the rule's name, its value and its note
(``_one_param`` for a rule in one parameter ``n >= least``); only the grid
and circulant rules, whose notes depend on intermediate values, are named
functions.

Each prediction carries a provenance status so the audit can adjudicate
rather than silently correct:

* ``proved``  - the shipped derivation is believed sound;
* ``suspect`` - the printed form conflicts with an independent check (a
  counting bound, an isomorphism, or solver ground truth) or rests on an
  internally inconsistent recursion.

A row is ``suspect`` exactly where a note gives a reason.  A small errata
table records the instances where the printed value is refuted outright,
together with the corrected value the audit expects;
``predict_dom_chromatic`` marks every instance it lists ``suspect``.
Suspicion is propagated, never laundered: derived rules (grids) inherit
``suspect`` from their ladder inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Callable

from .errors import NoPredictionError, UndefinedInvariantError
from .families import Family, FamilySpec, normalize_connection_set
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
    """The folded connection set, carried onto a set with a rule where a
    unit u of Z_n does so (C_n(S) and C_n(uS) are isomorphic under
    i -> u * i): C_n(a) with gcd(a, n) = 1 is the n-cycle ``(1,)``, and
    C_n(x, y) with gcd(x, n) = 1 is C_n(1, x^-1 y), so ``(1, 3)`` where
    x^-1 y folds to 3."""
    folded = normalize_connection_set(n, conn)
    if len(folded) == 1 and gcd(folded[0], n) == 1:
        return (1,)
    if n >= 6 and len(folded) == 2 and any(
        gcd(x, n) == 1 and pow(x, -1, n) * y % n in (3, n - 3)
        for x, y in (folded, folded[::-1])
    ):
        return (1, 3)
    return folded


def erratum_for(fs: FamilySpec) -> Erratum | None:
    """The errata entry of ``fs``, a circulant keyed by its folded
    connection set (``_fold_circulant``) and one whose set folds to
    ``(1,)`` as the n-cycle."""
    key = (fs.family.value, fs.params)
    if fs.family is Family.CIRCULANT:
        n, *conn = fs.params
        if n < 3:
            return None
        folded = _fold_circulant(n, tuple(conn))
        key = ("cycle", (n,)) if folded == (1,) else (fs.family.value, (n, *folded))
    return ERRATA.get(key)


# -- per-family rules --------------------------------------------------------


def _rule(
    domain: Callable[..., bool], needs: str, rule: str, value: Callable[..., int],
    note: Callable[..., str] = lambda *p: "", kind: str = "exact",
) -> Callable[..., Prediction]:
    """The row of a rule with value ``value(*params)`` where
    ``domain(*params)`` holds, ``suspect`` exactly where ``note(*params)``
    gives a reason; elsewhere it raises ``NoPredictionError(needs)``."""

    def predict(*params: int) -> Prediction:
        if not domain(*params):
            raise NoPredictionError(needs)
        why = note(*params)
        return Prediction(kind, SUSPECT if why else PROVED, rule, value=value(*params), note=why)

    return predict


def _one_param(
    least: int, name: str, rule: str, value: Callable[[int], int],
    note: Callable[[int], str] = lambda n: "",
) -> Callable[[int], Prediction]:
    """The row of a rule in one parameter ``n >= least``."""
    return _rule(lambda n: n >= least, f"{name} rule needs n >= {least}", rule, value, note)


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


def _ladder_note(n: int) -> str:
    # classes cannot exceed the maximum degree 3, so 2n vertices force at
    # least ceil(2n/3) classes; the printed formula dips below that for
    # n = 3t + 1 >= 4
    below = n >= 3 and _ladder_value(n) < -(-2 * n // 3)
    return "below the class-size bound" if below else ""


def _grid_prediction(m: int, n: int) -> Prediction:
    if m < 2 or n < 2:
        raise NoPredictionError("grid rule needs m, n >= 2")
    note = ""
    t, r = divmod(n, 3)
    value = t * m
    if r == 1:
        # the extra-path-of-columns construction is refuted at 3x4, where
        # the true value is one lower, so the whole branch carries doubt
        value += _path_cycle_value(m)
        note = "the n = 3t+1 column construction is not always optimal"
    elif r == 2:
        value += _ladder_value(m)
        if _ladder_note(m):
            note = "inherits a suspect ladder input"
    # the assembled value may also dip under the class-size bound ceil(mn/4)
    if value < -(-m * n // 4):
        note = "below the class-size bound"
    return Prediction(
        "exact", SUSPECT if note else PROVED, "grid column recursion", value=value, note=note
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


def _circulant_prediction(n: int, *conn: int) -> Prediction:
    if n < 3:
        raise NoPredictionError("circulant rule needs n >= 3")
    folded = _fold_circulant(n, conn)
    if folded == (1,):
        return _DOM_RULES[Family.CYCLE](n)
    if folded != (1, 3):
        raise NoPredictionError(f"no circulant rule for connection set {folded}")
    rule = "circulant(1,3) table"
    if normalize_connection_set(n, conn) != folded:
        rule += " via isomorphism reduction"
    # on residue 3 the claimed value sits one above the total-domination
    # floor and is refuted at n = 11 and 19
    note = "claimed value exceeds the total-domination floor" if n >= 8 and n % 8 == 3 else ""
    return Prediction(
        "exact", SUSPECT if note else PROVED, rule, value=_circulant13_value(n), note=note
    )


_two_sides = _rule(
    lambda *sides: min(sides) >= 1, "side sizes must be >= 1", "two dominated sides",
    lambda *sides: 2,
)

# the stated closed form n+4 grows by 1 per ring while the stated per-ring
# recursion adds 2; the solver sides with the recursion (value 2n+2), so
# the closed form is kept only as suspect
_hex_chain = _one_param(
    2, "hexagonal chain", "cactus chain rule", lambda n: 6 if n == 2 else n + 4,
    lambda n: "conflicts with the stated per-ring recursion, which the solver confirms"
    if n > 2 else "",
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
    Family.LADDER: _one_param(2, "ladder", "ladder rule", _ladder_value, _ladder_note),
    Family.PRISM: _one_param(
        4, "prism", "prism equals ladder rule", _ladder_value, _ladder_note
    ),
    Family.GRID: _grid_prediction,
    Family.WHEEL: _one_param(
        3, "wheel", "hub has full degree so equal to chromatic number", lambda n: 3 + n % 2
    ),
    Family.FRIENDSHIP: _one_param(1, "friendship", "friendship rule", lambda n: 3),
    Family.FLOWER: _rule(
        lambda m, n: m >= 3 and n >= 1, "flower rule needs m >= 3, n >= 1",
        "flower recursion", _flower_value,
        lambda m, n: "the printed recursion is internally inconsistent (constant "
        "for triangles only by accident); every instance is audited",
        kind="recursive",
    ),
    Family.CIRCULANT: _circulant_prediction,
    Family.CLIQUE_STAR: _rule(
        lambda m, n: m >= 3 and n >= 3, "clique star rule needs m, n >= 3",
        "clique star rule", lambda m, n: m * (n - 1),
    ),
    Family.TRIANGLE_CHAIN: _one_param(
        2, "triangular chain", "cactus chain rule", lambda n: n + 1
    ),
    Family.PARA_SQUARE_CHAIN: _square_chain,
    Family.ORTHO_SQUARE_CHAIN: _square_chain,
    Family.PARA_HEX_CHAIN: _hex_chain,
    Family.META_HEX_CHAIN: _hex_chain,
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
    Family.FLOWER: _rule(
        lambda m, n: m >= 3 and n >= 2, "flower stability rule needs m >= 3, n >= 2",
        "single-vertex stability family", lambda m, n: 1,
    ),
    # at n = 2 the graph is the 4-cycle, whose stability is 3; the printed
    # side-removal argument does not change the value there
    Family.COMPLETE_BIPARTITE: _rule(
        lambda m, n: m == n >= 2, "balanced-sides stability rule needs m = n >= 2",
        "balanced bipartite stability rule", lambda m, n: 2 if n == 2 else n,
        lambda m, n: "conflicts with the cycle rule on the same graph" if n == 2 else "",
    ),
}


def predict_stability(fs: FamilySpec) -> Prediction:
    """Closed-form stability prediction for the supported families."""
    return _lookup(_STABILITY_RULES, "stability rule", fs)


_BONDAGE_RULES: dict[Family, Callable[..., Prediction]] = {
    Family.PATH: _one_param(
        4, "path bondage", "path bondage rule", lambda n: 2 if n % 4 == 2 else 1
    ),
    Family.CYCLE: _one_param(
        4, "cycle bondage", "cycle bondage rule", lambda n: 3 if n % 4 == 2 else 2
    ),
    Family.FRIENDSHIP: _one_param(
        2, "friendship bondage", "friendship bondage rule", lambda n: 1,
        lambda n: "after any single edge removal a dominated 3-coloring "
        "still exists, so the true value exceeds the printed 1",
    ),
    Family.BOOK: _one_param(2, "book bondage", "book bondage rule", lambda n: 1),
    Family.COMPLETE_BIPARTITE: _rule(
        lambda m, n: m >= n >= 1, "bipartite bondage rule needs m >= n >= 1",
        "bipartite bondage rule", lambda m, n: n,
    ),
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
            f"impossible r-gluing interval: a graph with a clique of {r} vertices "
            f"has a value of at least {r}, not {min(chi1, chi2)}"
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
    never on a triangle chain.  Like the solver, ``sandwich`` asks γ_t
    only whether it exceeds max(χ, neighborhood term), which leaves the
    lower end the same.
    """
    if g.n == 0:
        raise UndefinedInvariantError("sandwich bound of the empty graph is undefined")
    if g.isolated_vertices():
        raise UndefinedInvariantError("sandwich bound needs an isolate-free graph")
    chi = chromatic_number(g).value
    gamma = domination_number(g).value
    neighborhood = -(-g.n // max_neighborhood_independence(g.adj))
    lower = max(chi, neighborhood)
    gamma_t = total_domination_number(g, at_most=lower).value
    return Prediction(
        "interval",
        PROVED,
        "sandwich bound",
        lo=distance_two_bound(g.adj, max(lower, gamma_t)),
        hi=chi * gamma,
    )

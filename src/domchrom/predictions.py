"""Closed-form predictions for the dominated chromatic number, plus the
structural bounds used to sandwich it.

Each prediction carries a provenance status so the audit can adjudicate
rather than silently correct:

* ``proved``  - the shipped derivation is believed sound;
* ``suspect`` - the printed form conflicts with an independent check (a
  counting bound, an isomorphism, or solver ground truth) or rests on an
  internally inconsistent recursion.

A small errata table records the instances where the printed value is
refuted outright, together with the corrected value the audit expects.
Suspicion is propagated, never laundered: derived rules (grids) inherit
``suspect`` from their ladder inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NoPredictionError, UndefinedInvariantError
from .families import Family, FamilySpec, circulant_reduce, normalize_connection_set
from .graph import Graph
from .invariants import (
    chromatic_number,
    domination_number,
    max_neighborhood_independence,
    total_domination_number,
)

PROVED = "proved"
SUSPECT = "suspect"


@dataclass(frozen=True)
class Prediction:
    """A closed-form value or bound interval with provenance status."""

    kind: str  # "exact" | "interval" | "recursive"
    status: str
    rule: str
    value: int | None = None
    lo: int | None = None
    hi: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind == "interval" and self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v: int) -> bool:
        if self.kind == "interval":
            return self.lo <= v <= self.hi
        return v == self.value


@dataclass(frozen=True)
class Erratum:
    printed: int
    corrected: int
    reason: str


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


def erratum_for(fs: FamilySpec) -> Erratum | None:
    key = (fs.family.value, fs.params)
    if fs.family is Family.CIRCULANT:
        n, *conn = fs.params
        key = (fs.family.value, (n, *normalize_connection_set(n, tuple(conn))))
    return ERRATA.get(key)


# -- per-family rules --------------------------------------------------------


def _path_cycle_value(n: int) -> int:
    return n // 2 if n % 4 == 0 else n // 2 + 1


def _ladder_value(n: int) -> int:
    return 2 * (-(-(n - 1) // 3))


def _ladder_suspicious(n: int) -> bool:
    # classes cannot exceed the maximum degree 3, so 2n vertices force at
    # least ceil(2n/3) classes; the printed formula dips below that for
    # n = 3t + 1 >= 4
    return n >= 3 and _ladder_value(n) < -(-2 * n // 3)


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
    cycle_rule = _path_cycle_value(m)
    err = ERRATA.get(("cycle", (m,)))
    value = err.corrected if err else cycle_rule
    for i in range(2, n + 1):
        value += m // 2 if i % 4 == 1 else m // 2 - 1
    return value


def predict_dom_chromatic(fs: FamilySpec) -> Prediction:
    """Closed-form prediction for a family instance.

    Raises :class:`NoPredictionError` when the family or parameter range is
    outside the shipped table.
    """
    f, p = fs.family, fs.params

    if f is Family.PATH:
        (n,) = p
        if n < 1:
            raise NoPredictionError("path rule needs n >= 1")
        return Prediction("exact", PROVED, "path/cycle rule", value=_path_cycle_value(n))

    if f is Family.CYCLE:
        (n,) = p
        if n < 3:
            raise NoPredictionError("cycle rule needs n >= 3")
        status = SUSPECT if ("cycle", (n,)) in ERRATA else PROVED
        return Prediction("exact", status, "path/cycle rule", value=_path_cycle_value(n))

    if f is Family.COMPLETE:
        (n,) = p
        if n < 1:
            raise NoPredictionError("complete rule needs n >= 1")
        return Prediction("exact", PROVED, "diameter <= 2 so equal to chromatic number", value=n)

    if f in (Family.COMPLETE_BIPARTITE, Family.STAR, Family.DOUBLE_STAR, Family.BOOK):
        if any(x < 1 for x in p):
            raise NoPredictionError("side sizes must be >= 1")
        return Prediction("exact", PROVED, "two dominated sides", value=2)

    if f is Family.LADDER:
        (n,) = p
        if n < 2:
            raise NoPredictionError("ladder rule needs n >= 2")
        suspect = _ladder_suspicious(n) or ("ladder", (n,)) in ERRATA
        return Prediction(
            "exact",
            SUSPECT if suspect else PROVED,
            "ladder rule",
            value=_ladder_value(n),
            note="below the class-size bound" if _ladder_suspicious(n) else "",
        )

    if f is Family.PRISM:
        (n,) = p
        if n < 4:
            raise NoPredictionError("prism rule needs n >= 4")
        suspect = _ladder_suspicious(n)
        return Prediction(
            "exact",
            SUSPECT if suspect else PROVED,
            "prism equals ladder rule",
            value=_ladder_value(n),
            note="below the class-size bound" if suspect else "",
        )

    if f is Family.GRID:
        return _grid_prediction(*p)

    if f is Family.WHEEL:
        (n,) = p
        if n < 3:
            raise NoPredictionError("wheel rule needs n >= 3")
        return Prediction(
            "exact",
            PROVED,
            "hub has full degree so equal to chromatic number",
            value=3 if n % 2 == 0 else 4,
        )

    if f is Family.FRIENDSHIP:
        (n,) = p
        if n < 1:
            raise NoPredictionError("friendship rule needs n >= 1")
        return Prediction("exact", PROVED, "friendship rule", value=3)

    if f is Family.FLOWER:
        m, n = p
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

    if f is Family.CIRCULANT:
        n, *conn = p
        folded = normalize_connection_set(n, tuple(conn))
        if folded == (1,):
            return predict_dom_chromatic(FamilySpec(Family.CYCLE, (n,)))
        rule = "circulant(1,3) table"
        if folded != (1, 3) and len(folded) == 2 and n >= 8:
            # reduce C_n(a,b) to C_n(1, a^-1 b) when some value is invertible
            pairs = [(x, y) for x, y in (folded, folded[::-1]) if gcd(x, n) == 1]
            if pairs and circulant_reduce(n, *pairs[0]).c == 3:
                folded = (1, 3)
                rule = "circulant(1,3) table via isomorphism reduction"
        if folded == (1, 3) and n >= 6:
            suspect = ("circulant", (n, 1, 3)) in ERRATA
            note = ""
            if n >= 8 and n % 8 == 3:
                # on this residue the claimed value sits one above the
                # total-domination floor and is refuted at n = 11 and 19
                suspect = True
                note = "claimed value exceeds the total-domination floor"
            return Prediction(
                "exact",
                SUSPECT if suspect else PROVED,
                rule,
                value=_circulant13_value(n),
                note=note,
            )
        raise NoPredictionError(f"no circulant rule for connection set {folded}")

    if f is Family.CLIQUE_STAR:
        m, n = p
        if m < 3 or n < 3:
            raise NoPredictionError("clique star rule needs m, n >= 3")
        return Prediction("exact", PROVED, "clique star rule", value=m * (n - 1))

    if f is Family.TRIANGLE_CHAIN:
        (n,) = p
        if n < 2:
            raise NoPredictionError("triangular chain rule needs n >= 2")
        return Prediction("exact", PROVED, "cactus chain rule", value=n + 1)

    if f in (Family.PARA_SQUARE_CHAIN, Family.ORTHO_SQUARE_CHAIN):
        (n,) = p
        if n < 1:
            raise NoPredictionError("square chain rule needs n >= 1")
        return Prediction("exact", PROVED, "cactus chain rule", value=n + 1)

    if f in (Family.PARA_HEX_CHAIN, Family.META_HEX_CHAIN):
        (n,) = p
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

    raise NoPredictionError(f"no rule for family {f.value!r}")


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
    return Prediction(
        "interval",
        SUSPECT,
        "r-gluing bound",
        lo=max(chi1, chi2),
        hi=chi1 + chi2 - r,
        note="lower bound sound; upper bound refuted by edge-gluing paths",
    )


def sandwich(g: Graph) -> Prediction:
    """``max(chi, gamma_t, ⌈n / max_d α(G[N(d)])⌉) <= value <= chi * gamma``
    for isolate-free graphs.

    The third term holds because every class is an independent set inside
    the open neighborhood of its dominator.
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
        lo=max(chi, gamma_t, neighborhood),
        hi=chi * gamma,
    )

"""Constructors for the parametrized graph families under study.

Every family is reduced to the structural operations in :mod:`.graph`
(products, point-attachments, ...) so the constructions themselves stay
testable.  Canonical vertex numbering per family:

* path/cycle: sequential, ``i ~ i+1`` (cycle closes ``n-1 ~ 0``)
* products (ladder, prism, grid, book): row-major over the first factor
* wheel: rim ``0..n-1``, hub ``n``
* flower (n cycles of length m at a common vertex): hub ``0``, cycle ``i``
  uses ``1+(i-1)(m-1) .. i(m-1)``
* circulant: vertices ``0..n-1``, connection values folded into
  ``1..floor(n/2)`` modulo ``n``
* cactus chains: cycle by cycle; the cut vertex shared by blocks ``i`` and
  ``i+1`` is the highest-numbered vertex of block ``i`` for the triangular,
  para-square and ortho-square chains, while the hexagonal chains re-enter
  at the para (distance 3) or meta (distance 2) position of each ring.

The cactus chains and the flowers (friendship graphs included) all come
from one ring walk, ``_rings``, which also gives the chains' cut vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import InvalidParameterError
from .graph import Graph, _ints, cartesian_product, make_graph, point_attach


class Family(Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    COMPLETE_BIPARTITE = "bipartite"
    STAR = "star"
    DOUBLE_STAR = "doublestar"
    LADDER = "ladder"
    PRISM = "prism"
    GRID = "grid"
    BOOK = "book"
    WHEEL = "wheel"
    FRIENDSHIP = "friendship"
    FLOWER = "flower"
    CIRCULANT = "circulant"
    CLIQUE_STAR = "cliquestar"
    TRIANGLE_CHAIN = "tchain"
    PARA_SQUARE_CHAIN = "parasquare"
    ORTHO_SQUARE_CHAIN = "orthosquare"
    PARA_HEX_CHAIN = "parahex"
    META_HEX_CHAIN = "metahex"


# families whose spec string takes two parameters joined by 'x'
_TWO_PARAM = {
    Family.COMPLETE_BIPARTITE,
    Family.DOUBLE_STAR,
    Family.GRID,
    Family.FLOWER,
    Family.CLIQUE_STAR,
}

_BY_TOKEN = {f.value: f for f in Family}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters.

    Circulant specs store ``(n, a1, a2, ...)``; two-parameter families
    store ``(m, n)``; the rest store ``(n,)``.
    """

    family: Family
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        want, got = 2 if self.family in _TWO_PARAM else 1, len(self.params)
        if got < want or (got > want and self.family is not Family.CIRCULANT):
            raise InvalidParameterError(
                f"wrong number of parameters for {self.family.value}: {got}"
            )
        if self.family is Family.CIRCULANT and got == 1:
            # str() would print "circulant:n:", which does not parse
            raise InvalidParameterError("circulant graph needs a nonempty connection set")

    def __str__(self) -> str:
        tok = self.family.value
        if self.family is Family.CIRCULANT:
            n, *conn = self.params
            return f"{tok}:{n}:{','.join(map(str, conn))}"
        if self.family in _TWO_PARAM:
            return f"{tok}:{self.params[0]}x{self.params[1]}"
        return f"{tok}:{self.params[0]}"


def spec(family: Family | str, *params: int) -> FamilySpec:
    if isinstance(family, str):
        try:
            family = _BY_TOKEN[family]
        except KeyError:
            raise InvalidParameterError(f"unknown family: {family!r}") from None
    return FamilySpec(family, tuple(params))


def _split_spec(text: str) -> tuple[Family, list[str], tuple[int, ...]]:
    """Split a spec into its family, its numeric slots (one, or two joined
    by 'x') and the parsed circulant connection list (empty otherwise)."""
    head, _, rest = text.partition(":")
    if head not in _BY_TOKEN:
        raise InvalidParameterError(f"unknown family: {head!r}")
    family = _BY_TOKEN[head]
    if not rest:
        raise InvalidParameterError(f"missing parameters in spec: {text!r}")
    if family is Family.CIRCULANT:
        n_text, _, conn_text = rest.partition(":")
        conn = _ints(conn_text.split(","))
        if conn is None:
            raise InvalidParameterError(f"bad parameters in spec: {text!r}")
        return family, [n_text], tuple(conn)
    if family in _TWO_PARAM:
        a, _, b = rest.partition("x")
        return family, [a, b], ()
    return family, [rest], ()


def parse_family(text: str) -> FamilySpec:
    """Parse a spec string such as ``path:7``, ``grid:3x5`` or
    ``circulant:12:1,3``."""
    family, slots, conn = _split_spec(text)
    params = _ints(slots)
    if params is None:
        raise InvalidParameterError(f"bad parameters in spec: {text!r}")
    return FamilySpec(family, (*params, *conn))


# the most instances one range spec may list
MAX_RANGE_SPECS = 100_000


def parse_family_range(text: str) -> list[FamilySpec]:
    """Expand a range spec like ``cycle:4..12`` or ``grid:2..4x2..4``.

    Plain values are allowed in any slot, so ``circulant:6..16:1,3`` sweeps
    only the order.  Instances come out in row-major parameter order.  The
    instances are counted before any is listed: a slot of no values, or
    of more than ``MAX_RANGE_SPECS``, is a bad range token, and slots whose
    counts multiply to more than that make the range too long.
    """
    family, slots, conn = _split_spec(text)
    ranges = []
    for token in slots:
        lo, sep, hi = token.partition("..")
        bounds = _ints([lo, hi] if sep else [token, token])
        if bounds is None or not 1 <= bounds[1] - bounds[0] + 1 <= MAX_RANGE_SPECS:
            raise InvalidParameterError(f"bad range token: {token!r}")
        ranges.append(range(bounds[0], bounds[1] + 1))
    count = math.prod(map(len, ranges))
    if count > MAX_RANGE_SPECS:
        raise InvalidParameterError(
            f"range too long: {text!r} lists {count} instances, more than {MAX_RANGE_SPECS}"
        )
    return [FamilySpec(family, params + conn) for params in itertools.product(*ranges)]


# -- individual builders ---------------------------------------------------


def _path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("path needs n >= 1")
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def _complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    return make_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameterError("complete bipartite graph needs m, n >= 1")
    return make_graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def _double_star(n1: int, n2: int) -> Graph:
    # two adjacent centers 0 and 1 carrying n1 and n2 leaves
    if n1 < 1 or n2 < 1:
        raise InvalidParameterError("double star needs n1, n2 >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(n1)]
    edges += [(1, 2 + n1 + i) for i in range(n2)]
    return make_graph(2 + n1 + n2, edges)


def _wheel(n: int) -> Graph:
    # hub joined to an n-cycle rim; rim 0..n-1, hub n
    if n < 3:
        raise InvalidParameterError("wheel needs n >= 3 rim vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return make_graph(n + 1, edges)


def _rings(cycle: tuple[int, ...], exit: int, n: int) -> tuple[Graph, list[int]]:
    """``n`` cycles glued in a row, each at one vertex of the one before.

    Ring ``i`` is the vertex it shares with ring ``i - 1`` (vertex 0 for the
    first ring) followed by ``len(cycle) - 1`` fresh vertices numbered on
    from the last ring's.  ``cycle`` lists the ring's positions in cycle
    order, and the next ring attaches at position ``exit``.  Returns the
    graph and each ring's shared vertex.
    """
    step = len(cycle) - 1
    pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
    shared: list[int] = []

    def edges():
        entry = 0
        for base in range(0, n * step, step):
            ring = [entry, *range(base + 1, base + step + 1)]
            shared.append(entry)
            yield from ((ring[a], ring[b]) for a, b in pairs)
            entry = ring[exit]

    # make_graph sizes its vertex list before it draws the first edge
    return make_graph(n * step + 1, edges()), shared


def _flower(m: int, n: int) -> Graph:
    # n cycles of length m sharing vertex 0
    if m < 3:
        raise InvalidParameterError("flower needs cycle length m >= 3")
    if n < 1:
        raise InvalidParameterError("flower needs n >= 1 cycles")
    return _rings(tuple(range(m)), 0, n)[0]


def normalize_connection_set(n: int, values: tuple[int, ...]) -> tuple[int, ...]:
    """Fold circulant connection values into ``1..floor(n/2)`` modulo ``n``.

    Values congruent to 0 are rejected (they would be loops); duplicates
    after folding collapse, so e.g. ``(1, 3)`` on 4 vertices is just ``(1,)``.
    """
    out = set()
    for a in values:
        r = a % n
        if r == 0:
            raise InvalidParameterError(
                f"connection value {a} is divisible by {n} (loop)"
            )
        out.add(min(r, n - r))
    return tuple(sorted(out))


def _circulant(n: int, *conn: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("circulant graph needs n >= 3")
    folded = normalize_connection_set(n, conn)
    return make_graph(n, ((i, (i + a) % n) for a in folded for i in range(n)))


def clique_with_attachments(m: int, h: Graph, attach_at: int) -> Graph:
    """A clique on ``m`` vertices with one copy of ``h`` point-attached at
    vertex ``attach_at`` to every clique vertex."""
    if m < 2:
        raise InvalidParameterError("attachment clique needs m >= 2")
    if not (0 <= attach_at < h.n):
        raise InvalidParameterError(f"attachment vertex out of range: {attach_at}")
    g = _complete(m)
    for i in range(m):
        g = point_attach(g, h, i, attach_at)
    return g


def _clique_star(m: int, n: int) -> Graph:
    # K_m with a K_n glued onto each of its vertices
    if n < 1:
        raise InvalidParameterError("clique star needs attached clique size n >= 1")
    return clique_with_attachments(m, _complete(n), 0)


# each cactus chain's ring: its positions in cycle order, and the position
# at which the next ring attaches
_CHAINS = {
    Family.TRIANGLE_CHAIN: ((0, 1, 2), 2),
    Family.PARA_SQUARE_CHAIN: ((0, 1, 3, 2), 3),
    Family.ORTHO_SQUARE_CHAIN: ((0, 1, 2, 3), 3),
    Family.PARA_HEX_CHAIN: (tuple(range(6)), 3),
    Family.META_HEX_CHAIN: (tuple(range(6)), 2),
}


def chain_cut_vertices(fs: FamilySpec) -> tuple[int, ...]:
    """The cut vertices of a cactus chain spec, in chain order."""
    if fs.family not in _CHAINS:
        raise InvalidParameterError(f"not a cactus chain family: {fs.family.value}")
    # rings 2..n; a chain of fewer than two rings has none
    return tuple(_rings(*_CHAINS[fs.family], max(fs.params[0], 1))[1][1:])


def _star(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("star needs n >= 1 leaves")
    return _complete_bipartite(1, n)


def _ladder(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("ladder needs n >= 1")
    return cartesian_product(_path(2), _path(n))


def _prism(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("prism needs n >= 3")
    return cartesian_product(_path(2), _cycle(n))


def _grid(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameterError("grid needs m, n >= 1")
    return cartesian_product(_path(m), _path(n))


def _book(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("book needs n >= 1 pages")
    return cartesian_product(_complete_bipartite(1, n), _path(2))


def _friendship(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("friendship graph needs n >= 1")
    return _flower(3, n)


def _chain(family: Family):
    def build(n: int) -> Graph:
        if n < 1:
            raise InvalidParameterError("chain length must be >= 1")
        return _rings(*_CHAINS[family], n)[0]

    return build


# each family's vertex count from its parameters, and its builder
_FAMILIES: dict[Family, tuple[Callable[..., int], Callable[..., Graph]]] = {
    Family.PATH: (lambda n: n, _path),
    Family.CYCLE: (lambda n: n, _cycle),
    Family.COMPLETE: (lambda n: n, _complete),
    Family.COMPLETE_BIPARTITE: (lambda m, n: m + n, _complete_bipartite),
    Family.STAR: (lambda n: n + 1, _star),
    Family.DOUBLE_STAR: (lambda n1, n2: n1 + n2 + 2, _double_star),
    Family.LADDER: (lambda n: 2 * n, _ladder),
    Family.PRISM: (lambda n: 2 * n, _prism),
    Family.GRID: (lambda m, n: m * n, _grid),
    Family.BOOK: (lambda n: 2 * (n + 1), _book),
    Family.WHEEL: (lambda n: n + 1, _wheel),
    Family.FRIENDSHIP: (lambda n: 2 * n + 1, _friendship),
    Family.FLOWER: (lambda m, n: n * (m - 1) + 1, _flower),
    Family.CIRCULANT: (lambda n, *conn: n, _circulant),
    Family.CLIQUE_STAR: (lambda m, n: m * n, _clique_star),
    **{
        f: (lambda n, step=len(cycle) - 1: n * step + 1, _chain(f))
        for f, (cycle, _) in _CHAINS.items()
    },
}


def _order(fs: FamilySpec) -> int:
    """The vertex count of ``fs``'s graph, read off its parameters without
    building anything; 2^63 or more is refused, as the graph parsers
    refuse it."""
    # a negative parameter counts as 0 here and is refused by its builder
    order = _FAMILIES[fs.family][0](*(max(x, 0) for x in fs.params))
    if order >= 1 << 63:
        raise InvalidParameterError(f"vertex count too large: {order}")
    return order


def generate(fs: FamilySpec) -> Graph:
    """Build the graph described by a family spec.

    The vertex count is read off the parameters before anything is built
    (see ``_order``).  A count that does not fit in memory fails when the
    vertex list is sized, before the first edge is drawn; both are
    parameter errors.
    """
    order = _order(fs)
    try:
        return _FAMILIES[fs.family][1](*fs.params)
    except (MemoryError, OverflowError):
        raise InvalidParameterError(f"vertex count too large: {order}") from None


# -- circulant isomorphism reduction ----------------------------------------


@dataclass(frozen=True)
class CirculantReduction:
    """Reduction of a two-value circulant to connection set ``{1, c}``.

    ``mapping[i]`` relabels vertex ``i`` of the original graph; the map is
    an isomorphism onto the circulant with connection set ``(1, c)``.
    """

    n: int
    c: int
    mapping: tuple[int, ...]


def circulant_reduce(n: int, a: int, b: int) -> CirculantReduction:
    """Reduce a circulant on values ``(a, b)`` to one on ``(1, c)`` with
    ``c = a^-1 * b mod n``, witnessed by the relabeling ``i -> a^-1 * i``."""
    if n < 3:
        raise InvalidParameterError("circulant graph needs n >= 3")
    if math.gcd(a, n) != 1:
        raise InvalidParameterError(
            f"value {a} is not invertible modulo {n}; reduction inapplicable"
        )
    inv = pow(a, -1, n)
    c_raw = (inv * b) % n
    if c_raw == 0:
        raise InvalidParameterError(f"connection value {b} is divisible by {n}")
    c = min(c_raw, n - c_raw)
    mapping = tuple((inv * i) % n for i in range(n))
    return CirculantReduction(n, c, mapping)

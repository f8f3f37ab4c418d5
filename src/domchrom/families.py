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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError
from .graph import Graph, cartesian_product, make_graph, point_attach


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
        try:
            conn = tuple(int(tok) for tok in conn_text.split(","))
        except ValueError:
            raise InvalidParameterError(f"bad parameters in spec: {text!r}") from None
        return family, [n_text], conn
    if family in _TWO_PARAM:
        a, _, b = rest.partition("x")
        return family, [a, b], ()
    return family, [rest], ()


def parse_family(text: str) -> FamilySpec:
    """Parse a spec string such as ``path:7``, ``grid:3x5`` or
    ``circulant:12:1,3``."""
    family, slots, conn = _split_spec(text)
    try:
        params = tuple(int(slot) for slot in slots)
    except ValueError:
        raise InvalidParameterError(f"bad parameters in spec: {text!r}") from None
    return FamilySpec(family, params + conn)


def parse_family_range(text: str) -> list[FamilySpec]:
    """Expand a range spec like ``cycle:4..12`` or ``grid:2..4x2..4``.

    Plain values are allowed in any slot, so ``circulant:6..16:1,3`` sweeps
    only the order.  Instances come out in row-major parameter order.
    """

    def expand(token: str) -> list[int]:
        lo, sep, hi = token.partition("..")
        try:
            values = list(range(int(lo), int(hi) + 1)) if sep else [int(token)]
        except ValueError:
            values = []
        if not values:
            raise InvalidParameterError(f"bad range token: {token!r}")
        return values

    family, slots, conn = _split_spec(text)
    return [
        FamilySpec(family, params + conn)
        for params in itertools.product(*map(expand, slots))
    ]


# -- individual builders ---------------------------------------------------


def _path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("path needs n >= 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameterError("complete bipartite graph needs m, n >= 1")
    return make_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


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


def _flower(m: int, n: int) -> Graph:
    # n cycles of length m sharing vertex 0
    if m < 3:
        raise InvalidParameterError("flower needs cycle length m >= 3")
    if n < 1:
        raise InvalidParameterError("flower needs n >= 1 cycles")
    edges = []
    for i in range(n):
        ring = [0] + [1 + i * (m - 1) + j for j in range(m - 1)]
        edges += [(ring[j], ring[(j + 1) % m]) for j in range(m)]
    return make_graph(n * (m - 1) + 1, edges)


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


def _circulant(n: int, conn: tuple[int, ...]) -> Graph:
    if n < 3:
        raise InvalidParameterError("circulant graph needs n >= 3")
    if not conn:
        raise InvalidParameterError("circulant graph needs a nonempty connection set")
    folded = normalize_connection_set(n, conn)
    edges = [(i, (i + a) % n) for a in folded for i in range(n)]
    return make_graph(n, edges)


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


def _triangle_chain(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError("chain length must be >= 1")
    edges = []
    for i in range(n):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    return make_graph(2 * n + 1, edges)


def _square_chain(n: int, ortho: bool) -> Graph:
    if n < 1:
        raise InvalidParameterError("chain length must be >= 1")
    edges = []
    for i in range(n):
        a, b, c, d = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        if ortho:
            # entry a adjacent to exit d
            edges += [(a, b), (b, c), (c, d), (d, a)]
        else:
            # entry a opposite to exit d
            edges += [(a, b), (a, c), (b, d), (c, d)]
    return make_graph(3 * n + 1, edges)


def _hex_chain(n: int, exit_pos: int) -> Graph:
    """Chain of 6-cycles; each ring re-enters at ``exit_pos`` steps from its
    entry vertex (3 = para, 2 = meta)."""
    if n < 1:
        raise InvalidParameterError("chain length must be >= 1")
    edges = []
    entry = 0
    for i in range(1, n + 1):
        fresh = [5 * i - 4, 5 * i - 3, 5 * i - 2, 5 * i - 1, 5 * i]
        ring = [entry] + fresh
        edges += [(ring[j], ring[(j + 1) % 6]) for j in range(6)]
        entry = ring[exit_pos]
    return make_graph(5 * n + 1, edges)


def chain_cut_vertices(fs: FamilySpec) -> tuple[int, ...]:
    """The cut vertices of a cactus chain spec, in chain order."""
    n = fs.params[0]
    if fs.family is Family.TRIANGLE_CHAIN:
        return tuple(2 * i for i in range(1, n))
    if fs.family in (Family.PARA_SQUARE_CHAIN, Family.ORTHO_SQUARE_CHAIN):
        return tuple(3 * i for i in range(1, n))
    if fs.family in (Family.PARA_HEX_CHAIN, Family.META_HEX_CHAIN):
        exit_pos = 3 if fs.family is Family.PARA_HEX_CHAIN else 2
        cuts = []
        entry = 0
        for i in range(1, n):
            ring = [entry] + [5 * i - 4, 5 * i - 3, 5 * i - 2, 5 * i - 1, 5 * i]
            entry = ring[exit_pos]
            cuts.append(entry)
        return tuple(cuts)
    raise InvalidParameterError(f"not a cactus chain family: {fs.family.value}")


def generate(fs: FamilySpec) -> Graph:
    """Build the graph described by a family spec."""
    f, p = fs.family, fs.params
    if f is Family.PATH:
        return _path(*p)
    if f is Family.CYCLE:
        return _cycle(*p)
    if f is Family.COMPLETE:
        return _complete(*p)
    if f is Family.COMPLETE_BIPARTITE:
        return _complete_bipartite(*p)
    if f is Family.STAR:
        if p[0] < 1:
            raise InvalidParameterError("star needs n >= 1 leaves")
        return _complete_bipartite(1, p[0])
    if f is Family.DOUBLE_STAR:
        return _double_star(*p)
    if f is Family.LADDER:
        if p[0] < 1:
            raise InvalidParameterError("ladder needs n >= 1")
        return cartesian_product(_path(2), _path(p[0]))
    if f is Family.PRISM:
        if p[0] < 3:
            raise InvalidParameterError("prism needs n >= 3")
        return cartesian_product(_path(2), _cycle(p[0]))
    if f is Family.GRID:
        if p[0] < 1 or p[1] < 1:
            raise InvalidParameterError("grid needs m, n >= 1")
        return cartesian_product(_path(p[0]), _path(p[1]))
    if f is Family.BOOK:
        if p[0] < 1:
            raise InvalidParameterError("book needs n >= 1 pages")
        return cartesian_product(_complete_bipartite(1, p[0]), _path(2))
    if f is Family.WHEEL:
        return _wheel(*p)
    if f is Family.FRIENDSHIP:
        if p[0] < 1:
            raise InvalidParameterError("friendship graph needs n >= 1")
        return _flower(3, p[0])
    if f is Family.FLOWER:
        return _flower(*p)
    if f is Family.CIRCULANT:
        return _circulant(p[0], p[1:])
    if f is Family.CLIQUE_STAR:
        return _clique_star(*p)
    if f is Family.TRIANGLE_CHAIN:
        return _triangle_chain(*p)
    if f is Family.PARA_SQUARE_CHAIN:
        return _square_chain(p[0], ortho=False)
    if f is Family.ORTHO_SQUARE_CHAIN:
        return _square_chain(p[0], ortho=True)
    if f is Family.PARA_HEX_CHAIN:
        return _hex_chain(p[0], exit_pos=3)
    if f is Family.META_HEX_CHAIN:
        return _hex_chain(p[0], exit_pos=2)
    raise InvalidParameterError(f"unknown family: {f!r}")


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

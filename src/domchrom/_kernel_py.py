"""Pure-Python search kernel for dominated k-colorings.

The solver uses it when the compiled extension is unavailable or a
component has more than 64 vertices; ``invariants.chromatic_number``
always uses it, on the graph plus an apex vertex.  The search must stay
behaviorally identical to ``_kernel.c``: same vertex order, same class
order, same first solution.  ``k`` may be any int: at most n classes can
open, so every ``k >= n`` searches alike, and a graph with no vertices
gives ``[]`` for every ``k``.
"""

from __future__ import annotations


def find_coloring(adj: list[int], k: int) -> list[int] | None:
    """First dominated coloring of an isolate-free graph with at most ``k``
    classes, or ``None``.

    ``adj`` holds open-neighborhood bitmasks; vertices are assigned in the
    given order, trying existing classes lowest-first and opening at most
    one new class per step.  Each partial class keeps the bitmask of its
    surviving candidate dominators (vertices adjacent to every member);
    a branch dies as soon as some class has none left.  A class opens only
    at a vertex, so the slots are sized by n; a slot at or past the open
    count is rewritten in full before it is read.
    """
    n = len(adj)
    colors = [-1] * n
    class_mask = [0] * n
    cand = [0] * n

    def rec(i: int, n_open: int) -> bool:
        if i == n:
            return True
        av = adj[i]
        bit = 1 << i
        for c in range(n_open):
            if class_mask[c] & av:
                continue
            narrowed = cand[c] & av
            if not narrowed:
                continue
            saved = cand[c]
            class_mask[c] |= bit
            cand[c] = narrowed
            colors[i] = c
            if rec(i + 1, n_open):
                return True
            class_mask[c] ^= bit
            cand[c] = saved
        if n_open < k:
            class_mask[n_open] = bit
            cand[n_open] = av
            colors[i] = n_open
            if rec(i + 1, n_open + 1):
                return True
        return False

    return colors if rec(0, 0) else None

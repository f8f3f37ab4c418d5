"""Pure-Python search kernel for dominated k-colorings.

Used when the compiled extension is unavailable or a component has more
than 64 vertices.  The search must stay behaviorally identical to
``_kernel.c``: same vertex order, same class order, same first solution.
"""

from __future__ import annotations


def find_coloring(adj: list[int], k: int) -> list[int] | None:
    """First dominated coloring of an isolate-free graph with at most ``k``
    classes, or ``None``.

    ``adj`` holds open-neighborhood bitmasks; vertices are assigned in the
    given order, trying existing classes lowest-first and opening at most
    one new class per step.  Each partial class keeps the bitmask of its
    surviving candidate dominators (vertices adjacent to every member);
    a branch dies as soon as some class has none left.
    """
    n = len(adj)
    if k <= 0:
        return [] if n == 0 else None
    colors = [-1] * n
    class_mask = [0] * k
    cand = [0] * k

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
            class_mask[n_open] = 0
        colors[i] = -1
        return False

    return list(colors) if rec(0, 0) else None

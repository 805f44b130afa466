"""Closure operations and the Kelmans edge-shift operation.

The closure cl(G) joins nonadjacent pairs with degree sum >= n until none
remain; the bipartite closure cl_B(G) does the same across the sides of a
balanced bipartite graph with threshold n+1 (n the side size).  Both return
the (unique) closed supergraph together with the number of joins performed.
The scan order over candidate pairs is lexicographic by default so the join
count is reproducible; the result itself is order-independent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import BipartiteGraph, Graph, bits

__all__ = [
    "bc_closure",
    "bipartite_closure",
    "is_closed",
    "is_b_closed",
    "kelmans",
]


def _close(g: Graph, pairs, threshold: int) -> tuple[Graph, int]:
    """Join the nonadjacent pairs of g with degree sum >= threshold, scanning
    ``pairs`` in order until a full pass joins none; returns (graph, joins)."""
    rows = list(g.adj)
    deg = [r.bit_count() for r in rows]
    joins = 0
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if not (rows[u] >> v & 1) and deg[u] + deg[v] >= threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
                joins += 1
                changed = True
    return Graph(g.n, tuple(rows)), joins


def bc_closure(
    g: Graph, scan_order: Optional[Sequence[tuple[int, int]]] = None
) -> tuple[Graph, int]:
    """Bondy-Chvatal closure of g and the number of pair joins performed."""
    if g.n < 1:
        raise ValueError("closure undefined on the 0-vertex graph")
    n = g.n
    pairs = (
        [(u, v) for u in range(n) for v in range(u + 1, n)]
        if scan_order is None
        else list(scan_order)
    )
    return _close(g, pairs, n)


def bipartite_closure(
    b: BipartiteGraph, scan_order: Optional[Sequence[tuple[int, int]]] = None
) -> tuple[BipartiteGraph, int]:
    """B-closure: join nonadjacent cross pairs with degree sum >= n+1.

    Runs on ``b.to_graph()``, where cross pair (i, j) is the pair (i, n + j).
    """
    if not b.balanced:
        raise ValueError("bipartite closure requires a balanced bipartite graph")
    n = b.nx
    if n < 1:
        raise ValueError("closure undefined on the empty bipartite graph")
    pairs = (
        [(i, j) for i in range(n) for j in range(n)]
        if scan_order is None
        else list(scan_order)
    )
    closed, joins = _close(b.to_graph(), [(i, n + j) for i, j in pairs], n + 1)
    return BipartiteGraph(n, n, tuple(r >> n for r in closed.adj[:n])), joins


def is_closed(g: Graph) -> bool:
    """True iff every nonadjacent pair has degree sum < n."""
    deg = g.degrees()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and deg[u] + deg[v] >= g.n:
                return False
    return True


def is_b_closed(b: BipartiteGraph) -> bool:
    """True iff every nonadjacent cross pair has degree sum <= n (side size)."""
    if not b.balanced:
        raise ValueError("B-closedness requires a balanced bipartite graph")
    n = b.nx
    xdeg = b.x_degrees()
    ydeg = b.y_degrees()
    for i in range(n):
        for j in range(n):
            if not b.has_edge(i, j) and xdeg[i] + ydeg[j] >= n + 1:
                return False
    return True


def kelmans(g: Graph, u: int, v: int) -> Graph:
    """Kelmans operation: move every edge uw with w in N(u)\\(N(v) u {v}) to vw.

    The vertex u stays in place (possibly isolated); the edge uv, if present,
    is untouched.  Preserves the edge count exactly and never decreases rho
    or q.
    """
    if u == v:
        raise ValueError("Kelmans operation needs distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    moved = g.adj[u] & ~(g.adj[v] | (1 << v))
    rows = list(g.adj)
    rows[u] &= ~moved
    rows[v] |= moved
    for w in bits(moved):
        rows[w] = (rows[w] & ~(1 << u)) | (1 << v)
    return Graph(g.n, tuple(rows))

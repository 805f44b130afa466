"""Bitset-backed graphs, bipartite graphs, construction algebra, and I/O.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one Python
int per vertex (bit ``u`` of ``adj[v]`` is set iff ``uv`` is an edge), which
keeps degree queries (popcount) and neighbourhood intersections cheap during
exhaustive enumeration.  ``Graph`` and ``BipartiteGraph`` are immutable and
hashable, so instances can be shared read-only across parallel workers.

Labeling conventions are fixed so golden tests stay stable:

* ``join(g, h)`` and ``disjoint_union(g, h)`` label the vertices of ``g``
  first, then those of ``h`` shifted by ``g.n``.
* ``BipartiteGraph.to_graph()`` labels side X as ``0..nx-1`` and side Y as
  ``nx..nx+ny-1``.

The module also implements the two interchange formats used by the harness:
standard graph6, and a plain edge-list text format (first line ``"n m"``,
then ``m`` lines ``"u v"``, 0-based, LF-terminated).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import getitem, or_
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "Graph",
    "BipartiteGraph",
    "Graph6Error",
    "build_graph",
    "build_bipartite",
    "bipartite_from_graph",
    "bipartite_sides",
    "join",
    "disjoint_union",
    "k_copies",
    "complement",
    "quasi_complement",
    "degree_profile",
    "bipartition",
    "is_isomorphic",
    "graph6_encode",
    "graph6_decode",
    "parse_edge_list",
    "format_edge_list",
    "complete_graph",
    "complete_bipartite_graph",
    "cycle_graph",
    "path_graph",
    "empty_graph",
    "as_graph",
    "pair_order",
]


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertex set {0..n-1}.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  Instances built
    through :func:`build_graph` and the algebra below always satisfy the
    symmetry/no-loop invariants; the raw constructor is trusted internal API.
    """

    n: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for v in range(self.n):
            row = self.adj[v] & ((1 << v) - 1)
            for u in bits(row):
                out.append((u, v))
        out.sort()
        return out

    def matrix(self, dtype=float) -> np.ndarray:
        """Dense adjacency matrix, float64 by default (row v unpacked from the bitmask adj[v])."""
        n = self.n
        width = (n + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self.adj)
        octets = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
        return np.unpackbits(octets, axis=1, count=n, bitorder="little").astype(dtype)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loops are not allowed")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def relabel(self, perm) -> "Graph":
        """Graph in which old vertex v is renamed perm[v]."""
        perm = [int(p) for p in perm]
        rows = [0] * self.n
        for v in range(self.n):
            m = 0
            for u in bits(self.adj[v]):
                m |= 1 << perm[u]
            rows[perm[v]] = m
        return Graph(self.n, tuple(rows))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by least vertex."""
        seen = 0
        full = (1 << self.n) - 1
        comps = []
        while seen != full:
            root = (~seen & full) & -(~seen & full)
            reach = root
            frontier = root
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~reach
                reach |= frontier
            comps.append(reach)
            seen |= reach
        return comps


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with labeled sides X (size nx) and Y (size ny).

    Only cross edges exist; ``rows[i]`` is the Y-neighbourhood bitmask of the
    i-th X vertex.  Kept as a distinct type (not a Graph plus a colouring) so
    that the quasi-complement is total on its domain.
    """

    nx: int
    ny: int
    rows: tuple[int, ...]

    @property
    def balanced(self) -> bool:
        return self.nx == self.ny

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def y_degree(self, j: int) -> int:
        return sum(r >> j & 1 for r in self.rows)

    def x_degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def y_degrees(self) -> list[int]:
        return [self.y_degree(j) for j in range(self.ny)]

    def col(self, j: int) -> int:
        """X-neighbourhood of the j-th Y vertex, as a bitmask over X."""
        m = 0
        for i in range(self.nx):
            m |= (self.rows[i] >> j & 1) << i
        return m

    def cols(self) -> list[int]:
        return [self.col(j) for j in range(self.ny)]

    def swap_sides(self) -> "BipartiteGraph":
        return BipartiteGraph(self.ny, self.nx, tuple(self.cols()))

    def min_degree(self) -> int:
        if self.nx == 0 and self.ny == 0:
            raise ValueError("minimum degree undefined on the empty bipartite graph")
        return min(self.x_degrees() + self.y_degrees())

    def to_graph(self) -> Graph:
        """Plain graph with X labeled 0..nx-1 and Y labeled nx..nx+ny-1."""
        n = self.nx + self.ny
        rows = [0] * n
        for i in range(self.nx):
            rows[i] = self.rows[i] << self.nx
        for j in range(self.ny):
            rows[self.nx + j] = self.col(j)
        return Graph(n, tuple(rows))


def build_graph(n: int, edges) -> Graph:
    """Graph on n vertices with exactly the listed edges.

    Duplicate pairs collapse to a single edge.  Out-of-range endpoints and
    loops raise ValueError.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"loop edge not allowed: ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def build_bipartite(nx: int, ny: int, pairs) -> BipartiteGraph:
    """Bipartite graph from cross pairs (i, j), i in X, j in Y."""
    if nx < 0 or ny < 0:
        raise ValueError("side sizes must be nonnegative")
    rows = [0] * nx
    for i, j in pairs:
        if not (0 <= i < nx and 0 <= j < ny):
            raise ValueError(f"cross pair out of range: ({i}, {j})")
        rows[i] |= 1 << j
    return BipartiteGraph(nx, ny, tuple(rows))


def bipartite_sides(g: Graph) -> tuple[list[int], list[int]]:
    """The sides (X, Y), each sorted, of :func:`bipartite_from_graph` without given sides.

    They are the :func:`bipartition` colouring; when that is unbalanced,
    whole components are swapped between the sides to balance it if some
    choice of them does.  Raises ValueError on non-bipartite input.
    """
    sides = bipartition(g)
    if sides is None:
        raise ValueError("graph is not bipartite")
    xs, ys = _balanced(g, *sides)
    return sorted(xs), sorted(ys)


def bipartite_from_graph(g: Graph, sides: Optional[tuple] = None) -> BipartiteGraph:
    """View a bipartite Graph as a BipartiteGraph, x_i and y_j in vertex order.

    The sides default to :func:`bipartite_sides`.  Raises ValueError on
    non-bipartite input or when the given sides do not form a bipartition.
    """
    xs, ys = bipartite_sides(g) if sides is None else (sorted(sides[0]), sorted(sides[1]))
    if sorted(xs + ys) != list(range(g.n)):
        raise ValueError("sides must partition the vertex set")
    xpos = {v: i for i, v in enumerate(xs)}
    ypos = {v: j for j, v in enumerate(ys)}
    rows = [0] * len(xs)
    for u, v in g.edges():
        if u in xpos and v in ypos:
            rows[xpos[u]] |= 1 << ypos[v]
        elif v in xpos and u in ypos:
            rows[xpos[v]] |= 1 << ypos[u]
        else:
            raise ValueError(f"edge ({u}, {v}) lies within one side")
    return BipartiteGraph(len(xs), len(ys), tuple(rows))


def _balanced(g: Graph, xs: set[int], ys: set[int]) -> tuple[set[int], set[int]]:
    """The colouring (xs, ys) with some components swapped so that the sides
    have equal size, or (xs, ys) itself when it is balanced or nothing balances it.

    Swapping the components S moves sum_S (x - y) vertices from X to Y; a
    subset sum over the components in order of least vertex picks S, the
    first subset found for each sum, so the result depends only on g.
    """
    surplus = len(xs) - len(ys)
    if surplus == 0 or surplus % 2:
        return xs, ys
    comps = g.components()
    reach = {0: 0}  # sum of (x - y) -> bitmask of the component indices giving it
    for i, c in enumerate(comps):
        d = sum(1 if v in xs else -1 for v in bits(c))
        for total, chosen in list(reach.items()):
            reach.setdefault(total + d, chosen | 1 << i)
    if surplus // 2 not in reach:
        return xs, ys
    swap = {v for i in bits(reach[surplus // 2]) for v in bits(comps[i])}
    return (xs - swap) | (ys & swap), (ys - swap) | (xs & swap)


def as_graph(obj) -> Graph:
    """Coerce a Graph or BipartiteGraph to a plain Graph."""
    if isinstance(obj, BipartiteGraph):
        return obj.to_graph()
    if isinstance(obj, Graph):
        return obj
    raise TypeError(f"expected Graph or BipartiteGraph, got {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Construction algebra
# ---------------------------------------------------------------------------

def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 + g2, with g2's vertices relabeled after g1's."""
    shift = g1.n
    rows = list(g1.adj) + [row << shift for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """g1 v g2: disjoint union plus all edges between the two vertex sets."""
    g = disjoint_union(g1, g2)
    m1 = (1 << g1.n) - 1
    m2 = ((1 << g2.n) - 1) << g1.n
    rows = [(g.adj[v] | (m2 if v < g1.n else m1)) for v in range(g.n)]
    return Graph(g.n, tuple(rows))


def k_copies(k: int, g: Graph) -> Graph:
    """kG: k disjoint copies of g (k >= 1)."""
    if k < 1:
        raise ValueError("k_copies requires k >= 1")
    out = g
    for _ in range(k - 1):
        out = disjoint_union(out, g)
    return out


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = [(~g.adj[v] & full) & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, tuple(rows))


def quasi_complement(b: BipartiteGraph) -> BipartiteGraph:
    """Complement within the cross pairs only (the bipartite complement)."""
    full = (1 << b.ny) - 1
    return BipartiteGraph(b.nx, b.ny, tuple((~r) & full for r in b.rows))


def degree_profile(g: Graph) -> tuple[list[int], int, int]:
    """(degrees, minimum degree, edge count); minimum undefined for n = 0."""
    if g.n == 0:
        raise ValueError("degree profile undefined on the empty graph")
    degs = g.degrees()
    return degs, min(degs), sum(degs) // 2


def bipartition(g: Graph) -> Optional[tuple[set[int], set[int]]]:
    """A proper 2-colouring (X, Y) if g is bipartite, else None.

    Per connected component, the smallest-index vertex is the BFS root and
    lands in X, so the output is deterministic.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    xs = {v for v in range(g.n) if color[v] == 0}
    ys = {v for v in range(g.n) if color[v] == 1}
    return xs, ys


# ---------------------------------------------------------------------------
# Isomorphism: colour refinement, then backtracking within colour classes
# ---------------------------------------------------------------------------

def _refine_colors(g: Graph, colors: list[int]) -> list[int]:
    """Stable partition refinement by multiset of neighbour colours."""
    n = g.n
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in bits(g.adj[v]))))
            for v in range(n)
        ]
        lut = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [lut[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test.

    Degree-sequence and iterated-neighbourhood invariants prune the search,
    then a backtracking bijection is sought class by class.  Intended for
    small graphs (exceptional-case checks); larger inputs are allowed but may
    be slow.
    """
    if g.n != h.n:
        return False
    if g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.n
    if n == 0:
        return True

    cg = _refine_colors(g, g.degrees())
    ch = _refine_colors(h, h.degrees())
    if sorted(cg) != sorted(ch):
        return False

    # Map g-vertices in order of ascending colour-class size (most constrained
    # first); candidates are same-coloured h-vertices consistent with the
    # partial map.
    class_size = {c: cg.count(c) for c in set(cg)}
    order = sorted(range(n), key=lambda v: (class_size[cg[v]], cg[v], v))
    cand = [[w for w in range(n) if ch[w] == cg[v]] for v in order]

    mapping = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in cand[i]:
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return place(0)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def pair_order(n: int) -> list[tuple[int, int]]:
    """The graph6 bit order: upper triangle, column-major."""
    return [(u, v) for v in range(1, n) for u in range(v)]


# Orders up to this cap run the graph6 codec and ``harness.graph_from_index``
# through per-order tables (``_g6_masks``), built on first use; the tables
# grow as O(n^4) bytes, about 1.6 MiB for every order up to the cap, so larger
# orders go through a bool adjacency matrix (``_graph_from_pairs``).
_G6_TABLE_CAP = 24
# A 6-bit group of pair bits read least significant first, as a graph6 byte
# value (first pair in the top bit), and that value's character.
_REV6 = bytes(int(f"{c:06b}"[::-1], 2) for c in range(64))
_REV6_CHARS = bytes(c + 63 for c in _REV6)
_LESS_63 = bytes(max(0, c - 63) for c in range(256))  # graph6 character -> value


@lru_cache(maxsize=None)
def _g6_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """masks[k][val]: the pairs that value val of body byte k sets, as a row-major mask.

    Bit b of byte k is pair 6k + 5 - b of ``pair_order(n)``; its mask has
    bits v*n + u and u*n + v, so OR-ing one mask per body byte gives the
    adjacency with row v at bits v*n .. v*n + n - 1.  Padding bits set
    nothing.
    """
    pairs = pair_order(n)
    out = []
    for k in range(0, len(pairs), 6):
        group = pairs[k : k + 6]
        masks = [0]  # masks[val] for val < 2^b after value bits 0 .. b - 1
        for j in range(5, -1, -1):  # value bit 5 - j, pair 6k + j
            bit = 0
            if j < len(group):
                u, v = group[j]
                bit = 1 << (v * n + u) | 1 << (u * n + v)
            masks += [m | bit for m in masks]
        out.append(tuple(masks))
    return tuple(out)


def _graph_from_masks(n: int, masks, values) -> Graph:
    """The graph whose body byte values are ``values``, from ``_g6_masks(n)``."""
    adj = reduce(or_, map(getitem, masks, values), 0)
    full = (1 << n) - 1
    return Graph(n, tuple([adj >> s & full for s in range(0, n * n, max(n, 1))]))


def _graph_from_pair_bits(n: int, idx: int) -> Graph:
    """The graph whose pair bits read idx, bit t for pair_order(n)[t]; higher bits are ignored."""
    if n <= _G6_TABLE_CAP:
        masks = _g6_masks(n)
        return _graph_from_masks(n, masks, bytes(
            [_REV6[idx >> t & 63] for t in range(0, 6 * len(masks), 6)]))
    npairs = n * (n - 1) // 2
    raw = (idx & ((1 << npairs) - 1)).to_bytes((npairs + 7) // 8, "little")
    return _graph_from_pairs(n, np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=npairs, bitorder="little"))


def _graph_from_pairs(n: int, pairs: np.ndarray) -> Graph:
    """The graph on n vertices whose pair bits, in ``pair_order(n)``, are ``pairs``.

    ``pair_order`` is the row-major lower triangle of the adjacency matrix.
    """
    a = np.zeros((n, n), dtype=bool)
    a[np.tri(n, n, -1, dtype=bool)] = pairs
    a |= a.T
    return Graph(n, tuple(int.from_bytes(row.tobytes(), "little")
                          for row in np.packbits(a, axis=1, bitorder="little")))


def graph6_encode(g) -> str:
    """Standard graph6 string for g (supports n up to 258047); a BipartiteGraph as ``to_graph()``."""
    g = as_graph(g)
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph6 encoding supported up to n = 258047")
    if n <= _G6_TABLE_CAP:
        # column v's pairs (u, v), u < v, are the low v bits of adj[v]
        stream = 0
        for v in range(1, n):
            stream |= (g.adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
        nbits = n * (n - 1) // 2
        return head + bytes([_REV6_CHARS[stream >> t & 63] for t in range(0, nbits, 6)]).decode()
    pairs = g.matrix(bool)[np.tri(n, n, -1, dtype=bool)]  # pair_order(n), as in _graph_from_pairs
    groups = np.zeros(-(-pairs.size // 6) * 6, dtype=bool)  # zero padding to whole bytes
    groups[: pairs.size] = pairs
    values = np.packbits(groups.reshape(-1, 6), axis=1).ravel() >> 2  # first pair in bit 5
    return head + (values + 63).tobytes().decode()


def graph6_decode(s: str) -> Graph:
    """Decode a graph6 string, rejecting malformed input with a byte offset.

    Surrounding whitespace is ignored; offsets count in s itself, leading
    whitespace included.
    """
    lead = len(s) - len(s.lstrip())
    s = s.strip()
    if not s:
        raise Graph6Error("empty graph6 string", lead)
    if not (s.isascii() and min(s) >= "?" and max(s) <= "~"):
        for i, ch in enumerate(s):
            if not (63 <= ord(ch) <= 126):
                raise Graph6Error(f"byte {ord(ch)} outside graph6 range 63..126", lead + i)
    if s[0] != "~":
        n = ord(s[0]) - 63
        body_at = 1
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 orders beyond 258047 are not supported", lead + 1)
        if len(s) < 4:
            raise Graph6Error("truncated extended order field", lead + len(s))
        n = 0
        for i in range(1, 4):
            n = (n << 6) | (ord(s[i]) - 63)
        body_at = 4
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(s) - body_at != nbytes:
        raise Graph6Error(
            f"expected {nbytes} body bytes for n={n}, found {len(s) - body_at}",
            lead + min(len(s), body_at + nbytes),
        )
    body = s[body_at:].encode().translate(_LESS_63)
    # the padding bits (fewer than 6) all sit in the last body byte
    if body and body[-1] & ((1 << (6 * nbytes - npairs)) - 1):
        raise Graph6Error("nonzero padding bits", lead + len(s) - 1)
    if n <= _G6_TABLE_CAP:
        return _graph_from_masks(n, _g6_masks(n), body)
    octets = np.frombuffer(body, dtype=np.uint8).reshape(-1, 1)
    return _graph_from_pairs(n, np.unpackbits(octets, axis=1)[:, 2:].ravel()[:npairs])


def _graph6_lines(path: str) -> Iterator[tuple[str, str, Graph]]:
    """(where, line, graph) for each non-blank line of a graph6 file, in file order.

    where is the line's "path, line N: " prefix, which a line that does not
    decode carries in its ValueError; line is stripped.  Latin-1 reads each
    byte as one character, so a byte outside graph6's range is reported
    with its line and offset too.
    """
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path}, line {lineno}: "
                try:
                    g = graph6_decode(line)
                except Graph6Error as exc:
                    raise ValueError(f"{where}{exc}") from exc
                yield where, line.strip(), g


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def format_edge_list(g: Graph) -> str:
    """Text form: first line "n m", then m lines "u v", LF-terminated."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# Small named graphs
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def complete_bipartite_graph(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, ((1 << b) - 1,) * a)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])

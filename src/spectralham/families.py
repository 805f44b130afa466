"""Constructors and recognizers for the extremal graph families.

Families (with their validity ranges):

* ``L`` : K_1 v (K_k + K_{n-k-1}),           1 <= k <= (n-1)/2
* ``N`` : K_k v (K_{n-2k} + k K_1),          1 <= k <= (n-1)/2
* ``barL``: K_{k+1} + K_{n-k-1},             0 <= k <= n/2 - 1
* ``barN``: K_k v (K_{n-2k-1} + (k+1) K_1),  0 <= k <= n/2 - 1
* ``H`` : graphs between K_{s,b} and K_s v b K_1 with s = ceil(n/2)-1,
          b = floor(n/2)+1 (the ``inner`` payload sits on the small side)
* ``B`` : K_{n,n} minus the edges of one K_{n-k,k},   1 <= k <= n/2
* ``Bset``: balanced bipartite graphs built from a k x (n-k) core H by
          adding k vertices complete to the X-side of H and n-k vertices
          complete to the Y-side of H (``inner`` is the core)
* ``Gamma1``/``Gamma2``: the two special 4+4 bipartite graphs
* ``complete``, ``complete_bipartite``, ``complete_split`` (K_k v (n-2k)K_1)

Split joins.  L, N, barL, barN and complete_split are each written once, in
``_SPLIT_JOINS``, as a validity range and a shape (d, clique sizes): the
member is K_d v (K_{s_1} + K_{s_2} + ...).  ``construct`` joins K_d with the
cliques in the listed order; ``recognize`` asks for exactly d dominating
vertices whose removal leaves disjoint cliques of those sizes.

Labeling conventions (fixed for stable golden graph6 strings): join operands
are labeled first-operand-first, so e.g. N_n^k carries the K_k clique on
0..k-1, then K_{n-2k}, then the k independent vertices.  B_n^k labels the
k fully-joined X vertices first and the n-k fully-joined Y vertices first.

Recognizers are structural characterizations (exact membership up to
isomorphism); tests cross-check them against the backtracking isomorphism
test on small orders.  Out-of-range parameters make ``recognize`` return
False (an empty family has no members), while ``construct`` raises.

Quasi-complement summary.  ``Bset`` (every k), ``B`` and the Gamma1/Gamma2
gate read ``_qc_summary``: the sorted component sizes of the graph's
quasi-complement and the side counts (x, y) of its complete bipartite
components, computed once per graph object and kept while it lives.  G is
in Bset_n^k when one of those complete components has n - k vertices on one
side and k on the other (that component is the K_{n-k,k} that Bset's
construction leaves out of the quasi-complement); it is in B_n^k when, besides,
every other component is a single vertex.  Gamma1 and Gamma2 are
connected, so an isomorphism keeps their sides up to a swap and their
quasi-complements' component sizes (C_6 + K_2 and C_6 + 2K_1);
``is_isomorphic`` runs only on graphs whose sizes match.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Union

from .graphs import (
    BipartiteGraph,
    Graph,
    bipartition,
    bits,
    build_bipartite,
    complete_graph,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    join,
    quasi_complement,
)

__all__ = [
    "FamilySpec",
    "construct",
    "recognize",
    "recognize_h_family",
    "spanning_subgraph_of",
    "h_family_members",
    "FAMILY_NAMES",
]

FAMILY_NAMES = (
    "L",
    "N",
    "barL",
    "barN",
    "H",
    "B",
    "Bset",
    "Gamma1",
    "Gamma2",
    "complete",
    "complete_bipartite",
    "complete_split",
)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of one extremal-family member.

    ``inner`` carries the payload graph where a family has one (H: the graph
    on the small side; Bset: the k x (n-k) bipartite core).
    """

    family: str
    n: Optional[int] = None
    k: Optional[int] = None
    inner: Optional[Union[Graph, BipartiteGraph]] = None

    def text(self) -> str:
        """Canonical text form, e.g. "N:n=7,k=2" or "Gamma1"."""
        parts = []
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.inner is not None:
            g = self.inner.to_graph() if isinstance(self.inner, BipartiteGraph) else self.inner
            parts.append(f"inner={graph6_encode(g)}")
        return self.family if not parts else f"{self.family}:{','.join(parts)}"

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        name, _, rest = text.partition(":")
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {name!r}")
        n = k = None
        inner = None
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if key == "n":
                    n = int(val)
                elif key == "k":
                    k = int(val)
                elif key == "inner":
                    inner = graph6_decode(val)
                else:
                    raise ValueError(f"unknown family parameter {key!r}")
        if inner is not None and name == "Bset":
            if n is None or k is None:
                raise ValueError("Bset needs n and k")
            # the inner payload of Bset is bipartite k x (n-k), X labeled first
            g = inner
            rows = [g.adj[i] >> k for i in range(k)]
            inner = BipartiteGraph(k, n - k, tuple(rows))
        return FamilySpec(name, n=n, k=k, inner=inner)


def _validate(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _l_range(n, k):
    return n is not None and k is not None and 1 <= k and 2 * k <= n - 1

def _bar_range(n, k):
    return n is not None and k is not None and 0 <= k and 2 * (k + 1) <= n

def _b_range(n, k):
    return n is not None and k is not None and 1 <= k and 2 * k <= n


_L_TEXT, _BAR_TEXT = "1 <= k <= (n-1)/2", "0 <= k <= n/2-1"

# The split joins K_d v (K_{s_1} + K_{s_2} + ...): family -> (range, range
# text, (n, k) -> (d, clique sizes in labeling order)).
_SPLIT_JOINS = {
    "L": (_l_range, _L_TEXT, lambda n, k: (1, [k, n - k - 1])),
    "N": (_l_range, _L_TEXT, lambda n, k: (k, [n - 2 * k] + [1] * k)),
    "barL": (_bar_range, _BAR_TEXT, lambda n, k: (0, [k + 1, n - k - 1])),
    "barN": (_bar_range, _BAR_TEXT, lambda n, k: (k, [n - 2 * k - 1] + [1] * (k + 1))),
    "complete_split": (_l_range, _L_TEXT, lambda n, k: (k, [1] * (n - 2 * k))),
}


def construct(spec: FamilySpec):
    """Build the exact family member described by ``spec``.

    Returns a Graph for L/N/barL/barN/H/complete/complete_split and a
    BipartiteGraph for B/Bset/Gamma1/Gamma2/complete_bipartite.
    """
    fam, n, k = spec.family, spec.n, spec.k
    if fam in _SPLIT_JOINS:
        in_range, text, shape = _SPLIT_JOINS[fam]
        _validate(in_range(n, k), f"{fam} needs {text}, got n={n}, k={k}")
        d, sizes = shape(n, k)
        return join(complete_graph(d), reduce(disjoint_union, map(complete_graph, sizes)))
    if fam == "H":
        _validate(n is not None and n >= 2, f"H needs n >= 2, got n={n}")
        s = (n + 1) // 2 - 1
        b = n // 2 + 1
        inner = spec.inner if spec.inner is not None else empty_graph(s)
        _validate(isinstance(inner, Graph) and inner.n == s, f"H inner payload must be a graph on {s} vertices")
        return join(inner, empty_graph(b))
    if fam == "B":
        _validate(_b_range(n, k), f"B needs 1 <= k <= n/2, got n={n}, k={k}")
        core = build_bipartite(k, n - k, [(i, j) for i in range(k) for j in range(n - k)])
        return construct(FamilySpec("Bset", n=n, k=k, inner=core))
    if fam == "Bset":
        _validate(_b_range(n, k), f"Bset needs 1 <= k <= n/2, got n={n}, k={k}")
        core = spec.inner
        if core is None:
            core = build_bipartite(k, n - k, [])
        _validate(
            isinstance(core, BipartiteGraph) and core.nx == k and core.ny == n - k,
            f"Bset inner payload must be bipartite {k} x {n - k}",
        )
        # X = X0 (k, core X side) then X1 (n-k, complete to Y0);
        # Y = Y0 (n-k, core Y side) then Y1 (k, complete to X0).
        y1 = ((1 << k) - 1) << (n - k)
        rows = [core.rows[i] | y1 for i in range(k)]
        rows += [(1 << (n - k)) - 1] * (n - k)
        return BipartiteGraph(n, n, tuple(rows))
    if fam in ("Gamma1", "Gamma2"):
        return _gamma(fam)
    if fam == "complete":
        _validate(n is not None and n >= 1, "complete needs n >= 1")
        return complete_graph(n)
    if fam == "complete_bipartite":
        _validate(n is not None and k is not None and n >= 0 and k >= 0, "complete_bipartite needs sides n, k >= 0")
        return build_bipartite(n, k, [(i, j) for i in range(n) for j in range(k)])
    raise ValueError(f"unknown family {fam!r}")


@lru_cache(maxsize=None)
def _gamma(fam: str) -> BipartiteGraph:
    """The Gamma1 / Gamma2 graph, built and checked against its decoding once."""
    pairs = [(i, i) for i in range(1, 4)]
    pairs += [(0, j) for j in range(1, 4)]
    pairs += [(i, 0) for i in range(1, 4)]
    if fam == "Gamma2":
        pairs.append((0, 0))
    g = build_bipartite(4, 4, pairs)
    _gamma_gate(g, fam)
    return g


def _gamma_gate(g: BipartiteGraph, fam: str):
    """Pin the Fig.-3 decoding: quasi-complement must be C_6 + K_2 (Gamma1)
    or C_6 + 2K_1 (Gamma2)."""
    qc = quasi_complement(g).to_graph()
    comps = qc.components()
    sizes = sorted(m.bit_count() for m in comps)
    want_sizes = [2, 6] if fam == "Gamma1" else [1, 1, 6]
    assert sizes == want_sizes, f"{fam} gate: component sizes {sizes}"
    for m in comps:
        degs = [qc.degree(v) for v in bits(m)]
        if m.bit_count() == 6:
            assert degs == [2] * 6, f"{fam} gate: 6-component not a cycle"
        elif m.bit_count() == 2:
            assert degs == [1, 1], f"{fam} gate: 2-component degrees {degs}"


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------

def _induced(g: Graph, keep: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v]):
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
    return Graph(len(keep), tuple(rows))


def _clique_component_sizes(g: Graph) -> Optional[list[int]]:
    """Component sizes if every component is a clique, else None."""
    sizes = []
    for m in g.components():
        c = m.bit_count()
        verts = list(bits(m))
        for v in verts:
            if (g.adj[v] & m).bit_count() != c - 1:
                return None
        sizes.append(c)
    return sorted(sizes)


def _dominating(g: Graph) -> list[int]:
    return [v for v in range(g.n) if g.degree(v) == g.n - 1]


def _is_split_join(g: Graph, d: int, clique_sizes: list[int]) -> bool:
    """g == K_d v (disjoint cliques of the given sizes)?"""
    n = d + sum(clique_sizes)
    if g.n != n:
        return False
    doms = _dominating(g)
    if len(clique_sizes) == 1:  # K_d v K_s is K_n, where every vertex dominates
        return len(doms) == n
    if len(doms) != d:
        return False
    rest = [v for v in range(n) if v not in doms]
    got = _clique_component_sizes(_induced(g, rest))
    return got == sorted(clique_sizes)


def recognize_h_family(g: Graph, n: int) -> bool:
    """Membership in the family between K_{s,b} and K_s v b K_1."""
    if g.n != n or n < 2:
        return False
    s = (n + 1) // 2 - 1
    b = n // 2 + 1
    iset = [v for v in range(n) if g.degree(v) == s]
    if len(iset) != b:
        return False
    imask = 0
    for v in iset:
        imask |= 1 << v
    # Independence plus degree exactly s forces completeness towards V \ I.
    return all(not (g.adj[v] & imask) for v in iset)


_QC_SUMMARIES: "weakref.WeakKeyDictionary[BipartiteGraph, tuple]" = weakref.WeakKeyDictionary()


def _qc_summary(b: BipartiteGraph) -> tuple[tuple[int, ...], frozenset]:
    """The components of b's quasi-complement, summarised once per graph.

    Returns (sizes, complete): the sorted component sizes, and the side
    counts (x, y) of each component that is complete bipartite (every X
    vertex of the component adjacent to every Y vertex of it).  The ``Bset``
    recognizer (every k) and the Gamma1/Gamma2 gate read it; it is kept for
    as long as the graph object lives, so the recognizers a conclusion tries
    in turn on one graph share it.
    """
    summary = _QC_SUMMARIES.get(b)
    if summary is not None:
        return summary
    rows = quasi_complement(b).rows
    sizes, complete = [], set()
    seen_x = seen_y = 0
    for i in range(b.nx):
        if seen_x >> i & 1:
            continue
        xs, grown = 0, 1 << i
        while grown != xs:  # alternate X -> Y -> X until the component stops growing
            xs = grown
            ys = 0
            for t in bits(xs):
                ys |= rows[t]
            grown = xs
            for t in range(b.nx):
                if rows[t] & ys:
                    grown |= 1 << t
        seen_x |= xs
        seen_y |= ys
        cx, cy = xs.bit_count(), ys.bit_count()
        sizes.append(cx + cy)
        if all(rows[t] & ys == ys for t in bits(xs)):
            complete.add((cx, cy))
    sizes += [1] * (b.ny - seen_y.bit_count())  # Y vertices no X vertex reaches
    summary = _QC_SUMMARIES[b] = (tuple(sorted(sizes)), frozenset(complete))
    return summary


def _recognize_bset(b: BipartiteGraph, n: int, k: int) -> bool:
    """Some component of the quasi-complement (of b or of b with its sides
    swapped) is a complete bipartite graph with n - k vertices in X and k in Y."""
    if not (_b_range(n, k) and b.nx == n and b.ny == n):
        return False
    complete = _qc_summary(b)[1]
    return (n - k, k) in complete or (k, n - k) in complete


def recognize(g, family: str, n: Optional[int] = None, k: Optional[int] = None) -> bool:
    """Exact membership of g in the named family, up to isomorphism.

    Out-of-range (n, k) simply yield False.  Bipartite families expect a
    BipartiteGraph; the others expect a Graph.
    """
    if family == "complete_bipartite":
        gg = g.to_graph() if isinstance(g, BipartiteGraph) else g
        if n is None or k is None or gg.n != n + k:
            return False
        sides = bipartition(gg)
        return (
            sides is not None
            and gg.edge_count == n * k
            and sorted([len(sides[0]), len(sides[1])]) == sorted([n, k])
        )
    if family in ("B", "Bset", "Gamma1", "Gamma2"):
        if not isinstance(g, BipartiteGraph):
            raise TypeError(f"family {family} recognizer expects a BipartiteGraph")
        if family == "Bset":
            return _recognize_bset(g, n, k)
        if family == "B":  # the Bset member whose quasi-complement is K_{n-k,k} + n K_1
            return _recognize_bset(g, n, k) and _qc_summary(g)[0] == (1,) * n + (n,)
        ref = _gamma(family)
        # isomorphic graphs have quasi-complements with the same component
        # sizes (C_6 + K_2 or C_6 + 2K_1), so the backtracking test runs
        # only on graphs that pass that gate
        return (
            g.nx + g.ny == 8
            and g.edge_count == ref.edge_count
            and _qc_summary(g)[0] == _qc_summary(ref)[0]
            and is_isomorphic(g.to_graph(), ref.to_graph())
        )
    if not isinstance(g, Graph):
        raise TypeError(f"family {family} recognizer expects a Graph")
    if family in _SPLIT_JOINS:
        in_range, _, shape = _SPLIT_JOINS[family]
        return in_range(n, k) and _is_split_join(g, *shape(n, k))
    if family == "H":
        return n is not None and recognize_h_family(g, n)
    if family == "complete":
        return n is not None and g.n == n and g.edge_count == n * (n - 1) // 2
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Spanning-subgraph containment (the refined lemmas' "G ⊆ F" tests)
# ---------------------------------------------------------------------------

def _indep_with_small_nbhd(g: Graph, size: int, cap: int) -> bool:
    """Is there an independent set of the given size whose joint
    neighbourhood has at most ``cap`` vertices?"""
    if size == 0:
        return True
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))

    def rec(start: int, count: int, chosen: int, nbhd: int) -> bool:
        if count == size:
            return True
        if g.n - start < size - count:
            return False
        for i in range(start, g.n):
            v = order[i]
            vb = 1 << v
            if g.adj[v] & chosen:
                continue
            nb = nbhd | g.adj[v]
            if nb.bit_count() <= cap and rec(i + 1, count + 1, chosen | vb, nb):
                return True
        return False

    return rec(0, 0, 0, 0)


def _subset_sum(sizes: list[int], target: int) -> bool:
    reach = 1
    for c in sizes:
        reach |= reach << c
    return bool(reach >> target & 1)


def _small_union_of_cols(cols: list[int], size: int, cap: int) -> bool:
    """Is there a ``size``-subset of columns whose union has <= cap bits?"""
    if size == 0:
        return True
    cols = sorted(cols, key=lambda m: m.bit_count())

    def rec(start: int, count: int, union: int) -> bool:
        if count == size:
            return True
        if len(cols) - start < size - count:
            return False
        for i in range(start, len(cols)):
            u = union | cols[i]
            if u.bit_count() <= cap and rec(i + 1, count + 1, u):
                return True
        return False

    return rec(0, 0, 0)


def spanning_subgraph_of(g, family: str, n: int, k: int) -> bool:
    """Is g isomorphic to a spanning subgraph of the family graph?

    Supported families: L, N, B (per the refined lemmas) plus barL and barN
    (their traceability analogues).  Raises on an order mismatch.
    """
    if family in ("L", "N", "barL", "barN"):
        if not isinstance(g, Graph):
            raise TypeError("spanning containment in L/N/barL/barN expects a Graph")
        if g.n != n:
            raise ValueError(f"order mismatch: graph has {g.n} vertices, family has {n}")
    if family == "N":
        # G ⊆ N_n^k  <=>  an independent k-set with joint neighbourhood <= k
        return _l_range(n, k) and _indep_with_small_nbhd(g, k, k)
    if family == "barN":
        return _bar_range(n, k) and _indep_with_small_nbhd(g, k + 1, k)
    if family == "L":
        # G ⊆ L_n^k  <=>  some vertex v with the components of G - v
        # packable into groups of k and n-k-1 vertices
        if not _l_range(n, k):
            return False
        for v in range(n):
            rest = [u for u in range(n) if u != v]
            sizes = [m.bit_count() for m in _induced(g, rest).components()]
            if _subset_sum(sizes, k):
                return True
        return False
    if family == "barL":
        if not _bar_range(n, k):
            return False
        sizes = [m.bit_count() for m in g.components()]
        return _subset_sum(sizes, k + 1)
    if family == "B":
        if not isinstance(g, BipartiteGraph):
            raise TypeError("spanning containment in B expects a BipartiteGraph")
        if g.nx != n or g.ny != n:
            raise ValueError(f"order mismatch: sides {g.nx}x{g.ny}, family side {n}")
        if not _b_range(n, k):
            return False
        # G ⊆ B_n^k  <=>  k vertices of one side with joint neighbourhood
        # inside a common k-set of the other side
        return _small_union_of_cols(list(g.rows), k, k) or _small_union_of_cols(
            g.cols(), k, k
        )
    raise ValueError(f"unsupported family for spanning containment: {family!r}")


def h_family_members(n: int):
    """All members of the H family of order n (one per inner graph)."""
    s = (n + 1) // 2 - 1
    pairs = [(u, v) for u in range(s) for v in range(u + 1, s)]
    for mask in range(1 << len(pairs)):
        inner = empty_graph(s)
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                inner = inner.with_edge(u, v)
        yield construct(FamilySpec("H", n=n, inner=inner))

"""Graph-space enumeration, random models, and verification campaigns.

Spaces are labeled (not isomorphism-reduced): theorem statements are
isomorphism-invariant, so the redundancy costs time but not correctness,
and hard caps keep runs at desk scale (all_labeled needs n <= 8,
balanced_bipartite_labeled needs side <= 5).

``verify_theorem`` checks one theorem or lemma over a space: every graph
satisfying the hypothesis must satisfy the conclusion, where the conclusion
includes the statement's exceptional-family / containment disjuncts
(evaluated with the family recognizers) and Hamiltonicity is decided by the
exact oracle.  Counterexamples are reported as graph6 strings; oracle budget
exhaustion is recorded per graph and never counted as a pass.

Enumerated spaces are processed in index chunks with stacked-eigensolver
statistics (numpy) as a coarse prefilter; the per-graph hypothesis is always
re-checked exactly.  Campaigns can be partitioned across a worker pool; the
merged report is identical to the serial one.

Bound gate.  Every spectral prefilter is one threshold comparison in one
quantity (rho, q, or the radius of the complement or quasi-complement), so
it is monotone in that quantity.  Before eigensolving, each chunk gets an
interval [lo, hi] per quantity from integer statistics alone (edge count and
degrees, via ``spectral.radius_intervals``: average degree, the star
K_{1,Delta}, Delta, Nikiforov at k = delta, Feng-Yu, and sqrt(e) and
e/side + side on bipartite spaces).  The interval is widened by the tolerance
plus a rounding slack; a row whose prefilters fail at both ends fails them at
the computed value too, so it is not eigensolved and its value stays NaN
(which fails every comparison and is never seeded into the per-graph
context).  The remaining rows are eigensolved exactly as before, so
verdicts, counts and failure lists do not change.  A quantity is not gated
when a check that needs it has no prefilter or also needs another
non-integer statistic.  ``extremal_search`` and the soundness sweep need
every value and do not gate.

Batched conclusions.  On enumerated spaces, the rows of a chunk that pass
some prefilter (the candidates) get their neighbourhood bitmasks from one
matmul over the index bits.  The first time a conclusion of one of them asks
"Hamiltonian?" or "traceable?", ``oracle._held_karp_batch`` answers that
question for every candidate row of the chunk at once, and each row reads
its own verdict.  Each row is charged 1 << order nodes, the charge
``is_hamiltonian`` reports for its subset DP; when that exceeds the oracle
budget the row is recorded as aborted, never decided.  The kernel rebuilds a
witness for every "yes" row and checks it against the row's adjacency before
any verdict is used.  A row's context takes n, e and delta from the chunk
statistics, and its Graph / BipartiteGraph is built only when something
reads ``g`` (a recognizer, a closure or biclique test, a graph6 report).
graph6 and random spaces, ``extremal_search`` and the soundness sweep use the
scalar oracle.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Optional

import numpy as np

from .certifier import certify_bipartite_hamiltonicity, certify_hamiltonicity
from .families import FamilySpec, construct, recognize, recognize_h_family, spanning_subgraph_of
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_graph,
    graph6_decode,
    graph6_encode,
    pair_order,
)
from .oracle import (
    DEFAULT_BUDGET,
    _held_karp_batch,
    clique_number,
    contains_biclique,
    is_hamiltonian,
    is_traceable,
)
from .spectral import DEFAULT_TOL, q_radius, radius_intervals, spectral_radius
from .transforms import is_b_closed, is_closed

__all__ = [
    "SearchSpace",
    "VerificationReport",
    "SpaceCapError",
    "enumerate_space",
    "random_model",
    "verify_theorem",
    "extremal_search",
    "certifier_soundness_sweep",
    "VERIFY_TARGETS",
]

MAX_ALL_LABELED_N = 8
MAX_BIP_SIDE = 5
_CHUNK = 1 << 14
_EIG_BLOCK = 1 << 11


class SpaceCapError(ValueError):
    pass


@dataclass(frozen=True)
class SearchSpace:
    """Description of a graph space to enumerate or sample.

    kinds: all_labeled(n), labeled_min_degree(n, k), balanced_bipartite_labeled
    (side), graph6_file(path), random_model(model, n/side, p, seed, count).
    """

    kind: str
    n: Optional[int] = None
    k: Optional[int] = None
    side: Optional[int] = None
    p: Optional[float] = None
    seed: Optional[int] = None
    count: Optional[int] = None
    path: Optional[str] = None
    model: Optional[str] = None

    @staticmethod
    def all_labeled(n: int) -> "SearchSpace":
        return SearchSpace("all_labeled", n=n)

    @staticmethod
    def labeled_min_degree(n: int, k: int) -> "SearchSpace":
        return SearchSpace("labeled_min_degree", n=n, k=k)

    @staticmethod
    def balanced_bipartite_labeled(side: int) -> "SearchSpace":
        return SearchSpace("balanced_bipartite_labeled", side=side)

    @staticmethod
    def graph6_file(path: str) -> "SearchSpace":
        return SearchSpace("graph6_file", path=path)

    @staticmethod
    def gnp(n: int, p: float, count: int, seed: int) -> "SearchSpace":
        return SearchSpace("random_model", model="uniform_gnp", n=n, p=p, count=count, seed=seed)

    @staticmethod
    def bipartite_gnp(side: int, p: float, count: int, seed: int) -> "SearchSpace":
        return SearchSpace(
            "random_model", model="bipartite_gnp", side=side, p=p, count=count, seed=seed
        )

    @property
    def order_hint(self) -> Optional[int]:
        return self.n if self.n is not None else self.side

    @property
    def is_bipartite_space(self) -> bool:
        return self.kind == "balanced_bipartite_labeled" or self.model == "bipartite_gnp"

    def describe(self) -> dict:
        out = {"kind": self.kind}
        for name in ("n", "k", "side", "p", "seed", "count", "path", "model"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out

    def kwargs(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "k": self.k, "side": self.side,
            "p": self.p, "seed": self.seed, "count": self.count,
            "path": self.path, "model": self.model,
        }

    def validate(self):
        if self.kind in ("all_labeled", "labeled_min_degree"):
            if self.n is None or self.n < 1:
                raise SpaceCapError("labeled enumeration needs n >= 1")
            if self.n > MAX_ALL_LABELED_N:
                raise SpaceCapError(
                    f"all_labeled is capped at n <= {MAX_ALL_LABELED_N} "
                    f"(2^C(n,2) graphs); use graph6_file mode for larger orders"
                )
        elif self.kind == "balanced_bipartite_labeled":
            if self.side is None or self.side < 1:
                raise SpaceCapError("bipartite enumeration needs side >= 1")
            if self.side > MAX_BIP_SIDE:
                raise SpaceCapError(
                    f"balanced_bipartite_labeled is capped at side <= {MAX_BIP_SIDE}; "
                    f"use graph6_file mode for larger sides"
                )
        elif self.kind == "random_model":
            if self.model not in ("uniform_gnp", "bipartite_gnp"):
                raise SpaceCapError(f"unknown random model {self.model!r}")
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise SpaceCapError("edge probability must lie in [0, 1]")
            if self.count is None or self.count < 0:
                raise SpaceCapError("random_model needs a sample count")
        elif self.kind == "graph6_file":
            if not self.path:
                raise SpaceCapError("graph6_file needs a path")
        else:
            raise SpaceCapError(f"unknown space kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Index decoding and enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_arrays(n: int):
    pairs = pair_order(n)
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    return us, vs


def graph_from_index(n: int, idx: int) -> Graph:
    """The idx-th labeled graph on n vertices (edge-subset index, graph6 bit order)."""
    rows = [0] * n
    for t, (u, v) in enumerate(pair_order(n)):
        if idx >> t & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def bipartite_from_index(side: int, idx: int) -> BipartiteGraph:
    """The idx-th labeled balanced bipartite graph (bit i*side+j <-> edge x_i y_j)."""
    rows = [0] * side
    for i in range(side):
        rows[i] = (idx >> (i * side)) & ((1 << side) - 1)
    return BipartiteGraph(side, side, tuple(rows))


def _index_bits(nbits: int, start: int, stop: int) -> np.ndarray:
    """Row i holds the low nbits bits of start + i, least significant first."""
    idx = np.arange(start, stop, dtype="<u8")
    octets = idx.view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=nbits, bitorder="little").view(bool)


def random_model(kind: str, *, n: Optional[int] = None, side: Optional[int] = None,
                 p: float, seed: int, count: int) -> Iterator:
    """Reproducible G(n, p) streams driven by numpy's PCG64 generator.

    The stream is a pure function of (kind, parameters, seed): graph i uses
    the next block of uniform deviates, one per vertex pair.
    """
    rng = np.random.default_rng(seed)
    if kind == "uniform_gnp":
        us, vs = _pair_arrays(n)
        m = len(us)
        for _ in range(count):
            draw = rng.random(m) < p
            rows = [0] * n
            for t in np.flatnonzero(draw):
                u = int(us[t])
                v = int(vs[t])
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            yield Graph(n, tuple(rows))
    elif kind == "bipartite_gnp":
        for _ in range(count):
            draw = rng.random(side * side) < p
            rows = [0] * side
            for t in np.flatnonzero(draw):
                t = int(t)
                rows[t // side] |= 1 << (t % side)
            yield BipartiteGraph(side, side, tuple(rows))
    else:
        raise ValueError(f"unknown random model {kind!r}")


def enumerate_space(space: SearchSpace) -> Iterator:
    """Stream the space's graphs in deterministic order."""
    space.validate()
    if space.kind in ("all_labeled", "labeled_min_degree"):
        n = space.n
        total = 1 << (n * (n - 1) // 2)
        for idx in range(total):
            g = graph_from_index(n, idx)
            if space.kind == "labeled_min_degree" and min(g.degrees()) < space.k:
                continue
            yield g
    elif space.kind == "balanced_bipartite_labeled":
        side = space.side
        for idx in range(1 << (side * side)):
            yield bipartite_from_index(side, idx)
    elif space.kind == "graph6_file":
        with open(space.path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield graph6_decode(line)
    elif space.kind == "random_model":
        yield from random_model(
            space.model, n=space.n, side=space.side, p=space.p,
            seed=space.seed, count=space.count,
        )


# ---------------------------------------------------------------------------
# Batched statistics over index chunks
# ---------------------------------------------------------------------------

_RADII = ("rho", "q", "rho_complement", "rho_qc", "q_qc")
_COMPLEMENTED = ("rho_complement", "rho_qc", "q_qc")
_DEGREE_SUMS = ("min_ds", "min_cross_ds")
_INTEGER_STATS = frozenset(["e", "delta"])
# Added to the tolerance when gating: it covers the rounding of eigvalsh
# (about 1e-14 at the capped orders) and of the bound formulas, so a row whose
# computed value would pass a prefilter is never gated away, even at tol = 0.
_GATE_SLACK = 1e-9


@lru_cache(maxsize=None)
def _bit_ends(size: int, bip: bool):
    """Endpoints (us, vs) of each index bit and the vertex-bit incidence matrix.

    Plain graphs use pair_order(n); balanced bipartite graphs put x_i at
    column i and y_j at column side + j, so bit i*side+j joins i and side+j.
    The incidence is float32 so that degrees come from one BLAS matmul; the
    counts are small integers, exact in float32.
    """
    if bip:
        t = np.arange(size * size)
        us, vs = t // size, size + t % size
        order = 2 * size
    else:
        us, vs = _pair_arrays(size)
        order = size
    inc = np.zeros((order, len(us)), dtype=np.float32)
    inc[us, np.arange(len(us))] = 1
    inc[vs, np.arange(len(us))] = 1
    return us, vs, inc


def _degree_stats(size: int, bip: bool, start: int, stop: int) -> dict:
    """Index bits and integer statistics of the chunk [start, stop).

    deg[v, i] is the degree of vertex v in row i (vertex-major, so the
    reductions below run over contiguous rows), e the edge count and
    delta / Delta the minimum / maximum degree.
    """
    us, _, inc = _bit_ends(size, bip)
    bits = _index_bits(len(us), start, stop)
    deg = (inc @ bits.T.astype(np.float32)).astype(np.int64)
    return {
        "bits": bits,
        "deg": deg,
        "e": deg.sum(axis=0) // 2,
        "delta": deg.min(axis=0),
        "Delta": deg.max(axis=0),
    }


def _radii(key: str, size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """The spectral quantity ``key`` of each row of bits, by batched eigvalsh.

    rho / q are taken on the graph, rho_complement on its complement and
    rho_qc / q_qc on its quasi-complement (the bipartite complement).  Rows
    go to eigvalsh _EIG_BLOCK at a time, which bounds the float64 matrix
    stack (1 MiB at order 8); eigvalsh solves each matrix on its own, so the
    values do not depend on the block.
    """
    us, vs, _ = _bit_ends(size, bip)
    order = 2 * size if bip else size
    out = np.empty(len(bits))
    for lo in range(0, len(bits), _EIG_BLOCK):
        x = bits[lo : lo + _EIG_BLOCK]
        if key in _COMPLEMENTED:
            x = ~x
        a = np.zeros((len(x), order, order))
        a[:, us, vs] = x
        a[:, vs, us] = x
        if key in ("q", "q_qc"):
            diag = np.arange(order)
            a[:, diag, diag] = a.sum(axis=2)
        out[lo : lo + _EIG_BLOCK] = np.linalg.eigvalsh(a)[:, -1]
    return out


def _radius_interval(key: str, stats: dict, size: int, bip: bool):
    """[lo, hi] containing the quantity ``key`` of each row, from integer stats alone."""
    e, dmin, dmax = stats["e"], stats["delta"], stats["Delta"]
    if key in _COMPLEMENTED:
        full = size if bip else size - 1  # a vertex's degree in K_{side,side} or K_n
        e, dmin, dmax = stats["bits"].shape[1] - e, full - dmax, full - dmin
    rho, q = radius_intervals(2 * size if bip else size, e, dmin, dmax, size if bip else None)
    return q if key in ("q", "q_qc") else rho


def _min_degree_sum(size: int, bip: bool, stats: dict) -> np.ndarray:
    """Minimum of d(u) + d(v) over non-adjacent pairs (cross pairs when bip); inf if none."""
    us, vs, _ = _bit_ends(size, bip)
    deg = stats["deg"]
    ds = np.where(stats["bits"].T, np.inf, deg[us] + deg[vs])
    return ds.min(axis=0, initial=np.inf)


def _chunk_stats(size: int, bip: bool, start: int, stop: int, needs: frozenset) -> dict:
    """Integer statistics plus every quantity in needs, for all rows of the chunk."""
    stats = _degree_stats(size, bip, start, stop)
    for key in _RADII:
        if key in needs:
            stats[key] = _radii(key, size, bip, stats["bits"])
    for key in _DEGREE_SUMS:
        if key in needs:
            stats[key] = _min_degree_sum(size, bip, stats)
    return stats


@lru_cache(maxsize=None)
def _row_weights(size: int, bip: bool) -> np.ndarray:
    """(bits, order) matrix: index bit t adds 1 << v to row u and 1 << u to row v."""
    us, vs, inc = _bit_ends(size, bip)
    t = np.arange(len(us))
    w = np.zeros((len(us), inc.shape[0]), dtype=np.float32)
    w[t, us] = 2.0 ** vs
    w[t, vs] = 2.0 ** us
    return w


def _adjacency_rows(size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """Neighbourhood bitmasks (rows, order) of rows of index bits, by one matmul.

    Bipartite rows use the labelling of ``BipartiteGraph.to_graph`` (x_i is
    i, y_j is side + j).  Each entry is a sum of distinct powers of two below
    2^order <= 2^10, so the float32 BLAS product is exact.
    """
    return (bits.astype(np.float32) @ _row_weights(size, bip)).astype(np.int64)


def _row_graph(size: int, bip: bool, row: list[int]):
    """The graph of one row of ``_adjacency_rows``: a Graph, or a BipartiteGraph when bip."""
    if bip:
        return BipartiteGraph(size, size, tuple(a >> size for a in row[:size]))
    return Graph(size, tuple(row))


def _graphs_from_bits(size: int, bip: bool, bits: np.ndarray) -> list:
    return [_row_graph(size, bip, row) for row in _adjacency_rows(size, bip, bits).tolist()]


# ---------------------------------------------------------------------------
# Per-graph evaluation context
# ---------------------------------------------------------------------------

class _OracleAborted(Exception):
    pass


class _BatchVerdicts:
    """Held-Karp verdicts for one chunk's candidate rows, solved on first use.

    adj holds the rows' neighbourhood bitmasks in the plain labelling.  Each
    row is charged 1 << order nodes, the subset-DP charge of is_hamiltonian;
    when that exceeds the budget every answer is "aborted".
    """

    def __init__(self, adj: np.ndarray, order: int, budget: int):
        self.adj = adj
        self.order = order
        self.affordable = (1 << order) <= budget
        self.found = {}

    def status(self, question: str, row: int) -> str:
        if not self.affordable:
            return "aborted"
        if question not in self.found:
            self.found[question] = _held_karp_batch(self.adj, self.order, question == "ham")[0]
        return "yes" if self.found[question][row] else "no"


class _Ctx:
    """Lazily computed per-graph values.

    ``_Ctx.of(g, ...)`` wraps a graph.  Indexed rows pass n, e and delta and
    the radii (``seeded``) from the chunk statistics, a ``build`` function
    that makes the graph the first time ``g`` is read, and a ``verdict``
    function that answers "ham" / "trace" from the chunk's batched oracle
    instead of the scalar one.
    """

    def __init__(self, tol: float, budget: int, bip: bool, n: int, e: int, delta: int,
                 build: Callable, seeded: Optional[dict] = None,
                 verdict: Optional[Callable[[str], str]] = None):
        self.tol = tol
        self.budget = budget
        self.bip = bip
        self.n = n
        self.e = e
        self.delta = delta
        self._build = build
        self._verdict = verdict or self._scalar_verdict
        self.vals = dict(seeded or {})

    @classmethod
    def of(cls, g, tol: float, budget: int) -> "_Ctx":
        if isinstance(g, BipartiteGraph):
            delta = g.min_degree() if (g.nx or g.ny) else 0
            return cls(tol, budget, True, g.nx, g.edge_count, delta, lambda: g)
        return cls(tol, budget, False, g.n, g.edge_count, min(g.degrees()) if g.n else 0, lambda: g)

    @cached_property
    def g(self):
        return self._build()

    def _get(self, key: str, fn) -> float:
        if key not in self.vals:
            self.vals[key] = fn()
        return self.vals[key]

    def rho(self):
        return self._get("rho", lambda: spectral_radius(self.g).value)

    def q(self):
        return self._get("q", lambda: q_radius(self.g).value)

    def rho_complement(self):
        from .graphs import complement

        return self._get("rho_complement", lambda: spectral_radius(complement(self.g)).value)

    def rho_qc(self):
        from .graphs import quasi_complement

        return self._get("rho_qc", lambda: spectral_radius(quasi_complement(self.g).to_graph()).value)

    def q_qc(self):
        from .graphs import quasi_complement

        return self._get("q_qc", lambda: q_radius(quasi_complement(self.g).to_graph()).value)

    def min_ds(self):
        def compute():
            g = self.g
            degs = g.degrees()
            best = math.inf
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        best = min(best, degs[u] + degs[v])
            return best

        return self._get("min_ds", compute)

    def min_cross_ds(self):
        def compute():
            b = self.g
            xd, yd = b.x_degrees(), b.y_degrees()
            best = math.inf
            for i in range(b.nx):
                for j in range(b.ny):
                    if not b.has_edge(i, j):
                        best = min(best, xd[i] + yd[j])
            return best

        return self._get("min_cross_ds", compute)

    def _scalar_verdict(self, question: str) -> str:
        if question == "ham":
            return is_hamiltonian(self.g.to_graph() if self.bip else self.g, budget=self.budget).status
        return is_traceable(self.g, budget=self.budget).status

    def _decide(self, question: str) -> bool:
        status = self._get(question, lambda: self._verdict(question))
        if status == "aborted":
            raise _OracleAborted
        return status == "yes"

    def ham(self):
        return self._decide("ham")

    def trace(self):
        return self._decide("trace")

    def g6(self) -> str:
        g = self.g.to_graph() if self.bip else self.g
        return graph6_encode(g)


# ---------------------------------------------------------------------------
# Target registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Check:
    name: str
    domain: str  # "graph" | "bipartite"
    needs: tuple[str, ...]
    hypothesis: Callable
    conclusion: Callable  # ctx -> (ok, exceptional)
    prefilter: Optional[Callable] = None  # (stats, n, k, tol) -> bool mask
    precheck: Optional[Callable] = None  # (order, k) -> error message or None


def _c_ham(ctx):
    return (True, False) if ctx.ham() else (False, False)


def _c_trace(ctx):
    return (True, False) if ctx.trace() else (False, False)


def _ham_or(recognizer):
    def conclusion(ctx):
        if ctx.ham():
            return True, False
        return (True, True) if recognizer(ctx) else (False, False)

    return conclusion


def _trace_or(recognizer):
    def conclusion(ctx):
        if ctx.trace():
            return True, False
        return (True, True) if recognizer(ctx) else (False, False)

    return conclusion


@lru_cache(maxsize=None)
def _fam_rho(family: str, n: int, k: int) -> float:
    return spectral_radius(construct(FamilySpec(family, n=n, k=k))).value


@lru_cache(maxsize=None)
def _fam_q(family: str, n: int, k: int) -> float:
    return q_radius(construct(FamilySpec(family, n=n, k=k))).value


def _erdos_bound(n: int, k: int) -> int:
    return max(
        math.comb(n - k, 2) + k * k,
        math.comb((n + 2) // 2, 2) + ((n - 1) // 2) ** 2,
    )


def _moon_moser_bound(n: int, k: int) -> int:
    return max(n * (n - k) + k * k, n * (n - n // 2) + (n // 2) ** 2)


def _expand_target(target: str, k: Optional[int], tol: float) -> list[_Check]:
    """Resolve a target id (optionally suffixed .1/.2) into atomic checks."""

    def needs_k(name):
        if k is None:
            raise ValueError(f"target {name} needs a k parameter")
        return k

    checks: dict[str, list[_Check]] = {}

    # --- plain-graph integer conditions -----------------------------------
    checks["ore"] = [
        _Check(
            "ore", "graph", ("e",),
            hypothesis=lambda c: c.e > math.comb(c.n - 1, 2) + 1,
            conclusion=_c_ham,
            prefilter=lambda s, n, kk, t: s["e"] > math.comb(n - 1, 2) + 1,
        )
    ]
    checks["dirac"] = [
        _Check(
            "dirac", "graph", ("delta",),
            hypothesis=lambda c: c.n >= 3 and 2 * c.delta >= c.n,
            conclusion=_c_ham,
            prefilter=lambda s, n, kk, t: 2 * s["delta"] >= n,
        )
    ]
    if target == "erdos":
        kk = needs_k("erdos")
        checks["erdos"] = [
            _Check(
                "erdos", "graph", ("e", "delta"),
                hypothesis=lambda c: c.delta >= kk
                and 2 * kk <= c.n - 1
                and c.e > _erdos_bound(c.n, kk),
                conclusion=_c_ham,
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk) & (s["e"] > _erdos_bound(n, kk)),
                precheck=lambda n, _k: (
                    None if n is None or (1 <= kk and 2 * kk <= n - 1)
                    else f"erdos needs 1 <= k <= (n-1)/2, got n={n}, k={kk}"
                ),
            )
        ]

    # --- Fiedler-Nikiforov -------------------------------------------------
    checks["fn_rho.2"] = [
        _Check(
            "fn_rho.2", "graph", ("rho",),
            hypothesis=lambda c: c.n >= 3 and c.rho() > c.n - 2 + c.tol,
            conclusion=_ham_or(lambda c: recognize(c.g, "N", n=c.n, k=1)),
            prefilter=lambda s, n, kk, t: s["rho"] > n - 2 + t,
        )
    ]
    checks["fn_rho.1"] = [
        _Check(
            "fn_rho.1", "graph", ("rho",),
            hypothesis=lambda c: c.rho() >= c.n - 2 - c.tol,
            conclusion=_trace_or(lambda c: recognize(c.g, "barN", n=c.n, k=0)),
            prefilter=lambda s, n, kk, t: s["rho"] >= n - 2 - t,
        )
    ]
    checks["fn_rho"] = checks["fn_rho.1"] + checks["fn_rho.2"]

    checks["fn_rho_complement.2"] = [
        _Check(
            "fn_rho_complement.2", "graph", ("rho_complement",),
            hypothesis=lambda c: c.n >= 3
            and c.rho_complement() <= math.sqrt(c.n - 2) + c.tol,
            conclusion=_ham_or(lambda c: recognize(c.g, "L", n=c.n, k=1)),
            prefilter=lambda s, n, kk, t: s["rho_complement"] <= math.sqrt(n - 2) + t,
        )
    ]
    checks["fn_rho_complement.1"] = [
        _Check(
            "fn_rho_complement.1", "graph", ("rho_complement",),
            hypothesis=lambda c: c.n >= 2
            and c.rho_complement() <= math.sqrt(c.n - 1) + c.tol,
            conclusion=_trace_or(lambda c: recognize(c.g, "barL", n=c.n, k=0)),
            prefilter=lambda s, n, kk, t: s["rho_complement"] <= math.sqrt(n - 1) + t,
        )
    ]
    checks["fn_rho_complement"] = checks["fn_rho_complement.1"] + checks["fn_rho_complement.2"]

    # --- Yu-Fan -------------------------------------------------------------
    def _yu_fan_pre(n, _k):
        return None if n is None or n >= 6 else f"yu_fan_q needs order n >= 6, got n={n}"

    checks["yu_fan_q.2"] = [
        _Check(
            "yu_fan_q.2", "graph", ("q",),
            hypothesis=lambda c: c.n >= 6 and c.q() > 2 * c.n - 4 + c.tol,
            conclusion=_ham_or(lambda c: recognize(c.g, "N", n=c.n, k=1)),
            prefilter=lambda s, n, kk, t: s["q"] > 2 * n - 4 + t,
            precheck=_yu_fan_pre,
        )
    ]
    checks["yu_fan_q.1"] = [
        _Check(
            "yu_fan_q.1", "graph", ("q",),
            hypothesis=lambda c: c.n >= 6 and c.q() >= 2 * c.n - 4 - c.tol,
            conclusion=_trace_or(lambda c: recognize(c.g, "barN", n=c.n, k=0)),
            prefilter=lambda s, n, kk, t: s["q"] >= 2 * n - 4 - t,
            precheck=_yu_fan_pre,
        )
    ]
    checks["yu_fan_q"] = checks["yu_fan_q.1"] + checks["yu_fan_q.2"]

    # --- main theorems (k-parameterized) -------------------------------------
    if target.startswith(("main_rho", "main_q")):
        kk = needs_k(target)

        def _main_pre(lo_expr):
            def pre(n, _k):
                if n is None or n >= lo_expr:
                    return None
                return f"order threshold not met: need n >= {lo_expr}, got n={n}"

            return pre

        checks["main_rho.2"] = [
            _Check(
                "main_rho.2", "graph", ("rho", "delta"),
                hypothesis=lambda c: kk >= 1
                and c.delta >= kk
                and c.n >= max(6 * kk + 5, (kk * kk + 6 * kk + 4) / 2)
                and c.rho() >= _fam_rho("N", c.n, kk) - c.tol,
                conclusion=_ham_or(lambda c: recognize(c.g, "N", n=c.n, k=kk)),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["rho"] >= _fam_rho("N", n, kk) - t),
                precheck=_main_pre(max(6 * kk + 5, (kk * kk + 6 * kk + 4) / 2)) if kk >= 1 else None,
            )
        ]
        checks["main_rho.1"] = [
            _Check(
                "main_rho.1", "graph", ("rho", "delta"),
                hypothesis=lambda c: c.delta >= kk
                and c.n >= max(6 * kk + 10, (kk * kk + 7 * kk + 8) / 2)
                and c.rho() >= _fam_rho("barN", c.n, kk) - c.tol,
                conclusion=_trace_or(lambda c: recognize(c.g, "barN", n=c.n, k=kk)),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["rho"] >= _fam_rho("barN", n, kk) - t),
                precheck=_main_pre(max(6 * kk + 10, (kk * kk + 7 * kk + 8) / 2)),
            )
        ]
        checks["main_rho"] = checks["main_rho.1"] + checks["main_rho.2"]

        checks["main_q.2"] = [
            _Check(
                "main_q.2", "graph", ("q", "delta"),
                hypothesis=lambda c: kk >= 1
                and c.delta >= kk
                and c.n >= max(6 * kk + 5, (3 * kk * kk + 5 * kk + 4) / 2)
                and c.q() >= _fam_q("N", c.n, kk) - c.tol,
                conclusion=_ham_or(lambda c: recognize(c.g, "N", n=c.n, k=kk)),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["q"] >= _fam_q("N", n, kk) - t),
                precheck=_main_pre(max(6 * kk + 5, (3 * kk * kk + 5 * kk + 4) / 2)) if kk >= 1 else None,
            )
        ]
        checks["main_q.1"] = [
            _Check(
                "main_q.1", "graph", ("q", "delta"),
                hypothesis=lambda c: c.delta >= kk
                and c.n >= max(6 * kk + 10, (3 * kk * kk + 9 * kk + 8) / 2)
                and c.q() >= _fam_q("barN", c.n, kk) - c.tol,
                conclusion=_trace_or(lambda c: recognize(c.g, "barN", n=c.n, k=kk)),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["q"] >= _fam_q("barN", n, kk) - t),
                precheck=_main_pre(max(6 * kk + 10, (3 * kk * kk + 9 * kk + 8) / 2)),
            )
        ]
        checks["main_q"] = checks["main_q.1"] + checks["main_q.2"]

    if target.startswith("main_rho_complement"):
        kk = needs_k(target)

        def _h2(c):
            if recognize(c.g, "L", n=c.n, k=kk):
                return True
            return c.n == 2 * kk + 1 and recognize_h_family(c.g, c.n)

        def _h1(c):
            if recognize(c.g, "barL", n=c.n, k=kk):
                return True
            return c.n == 2 * kk + 2 and recognize_h_family(c.g, c.n)

        checks["main_rho_complement.2"] = [
            _Check(
                "main_rho_complement.2", "graph", ("rho_complement", "delta"),
                hypothesis=lambda c: kk >= 1
                and c.delta >= kk
                and c.n >= 2 * kk + 1
                and c.rho_complement() <= math.sqrt(kk * (c.n - kk - 1)) + c.tol,
                conclusion=_ham_or(_h2),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["rho_complement"] <= math.sqrt(kk * (n - kk - 1)) + t),
                precheck=lambda n, _k: (
                    None if n is None or n >= 2 * kk + 1
                    else f"main_rho_complement part 2 needs n >= 2k+1 = {2 * kk + 1}"
                ),
            )
        ]
        checks["main_rho_complement.1"] = [
            _Check(
                "main_rho_complement.1", "graph", ("rho_complement", "delta"),
                hypothesis=lambda c: c.delta >= kk
                and c.n >= 2 * kk + 2
                and c.rho_complement() <= math.sqrt((kk + 1) * (c.n - kk - 1)) + c.tol,
                conclusion=_trace_or(_h1),
                prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                & (s["rho_complement"] <= math.sqrt((kk + 1) * (n - kk - 1)) + t),
                precheck=lambda n, _k: (
                    None if n is None or n >= 2 * kk + 2
                    else f"main_rho_complement part 1 needs n >= 2k+2 = {2 * kk + 2}"
                ),
            )
        ]
        checks["main_rho_complement"] = (
            checks["main_rho_complement.1"] + checks["main_rho_complement.2"]
        )

    # --- Ainouche-Christofides ----------------------------------------------
    def _ac_conclusion(ctx):
        for j in range(1, (ctx.n - 1) // 2 + 1):
            if recognize(ctx.g, "L", n=ctx.n, k=j):
                return True, True
        if ctx.n % 2 == 1 and recognize_h_family(ctx.g, ctx.n):
            return True, True
        return False, False

    checks["ainouche_christofides"] = [
        _Check(
            "ainouche_christofides", "graph", ("min_ds",),
            hypothesis=lambda c: c.n >= 3 and c.min_ds() >= c.n - 1 and not c.ham(),
            conclusion=_ac_conclusion,
            prefilter=lambda s, n, kk, t: s["min_ds"] >= n - 1,
        )
    ]

    # --- closure / clique lemmas ---------------------------------------------
    if target in ("clique_lemma", "refined_hamilton_lemma", "refined_traceable_lemma"):
        kk = needs_k(target)
        if target == "clique_lemma":
            checks["clique_lemma"] = [
                _Check(
                    "clique_lemma", "graph", ("e",),
                    hypothesis=lambda c: kk >= 1
                    and c.n >= 6 * kk + 5
                    and c.e > math.comb(c.n - kk - 1, 2) + (kk + 1) ** 2
                    and is_closed(c.g),
                    conclusion=lambda c: (clique_number(c.g) >= c.n - kk, False),
                    prefilter=lambda s, n, _k, t: s["e"] > math.comb(n - kk - 1, 2) + (kk + 1) ** 2,
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= 6 * kk + 5))
                        else f"clique_lemma needs k >= 1 and n >= 6k+5, got n={n}, k={kk}"
                    ),
                )
            ]
        if target == "refined_hamilton_lemma":
            checks["refined_hamilton_lemma"] = [
                _Check(
                    "refined_hamilton_lemma", "graph", ("e", "delta"),
                    hypothesis=lambda c: kk >= 1
                    and c.n >= 6 * kk + 5
                    and c.delta >= kk
                    and c.e > math.comb(c.n - kk - 1, 2) + (kk + 1) ** 2,
                    conclusion=_ham_or(
                        lambda c: spanning_subgraph_of(c.g, "L", c.n, kk)
                        or spanning_subgraph_of(c.g, "N", c.n, kk)
                    ),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["e"] > math.comb(n - kk - 1, 2) + (kk + 1) ** 2),
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= 6 * kk + 5))
                        else f"refined_hamilton_lemma needs k >= 1 and n >= 6k+5, got n={n}, k={kk}"
                    ),
                )
            ]
        if target == "refined_traceable_lemma":
            checks["refined_traceable_lemma"] = [
                _Check(
                    "refined_traceable_lemma", "graph", ("e", "delta"),
                    hypothesis=lambda c: c.n >= 6 * kk + 10
                    and c.delta >= kk
                    and c.e > math.comb(c.n - kk - 2, 2) + (kk + 1) * (kk + 2),
                    conclusion=_trace_or(
                        lambda c: spanning_subgraph_of(c.g, "barL", c.n, kk)
                        or spanning_subgraph_of(c.g, "barN", c.n, kk)
                    ),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["e"] > math.comb(n - kk - 2, 2) + (kk + 1) * (kk + 2)),
                    precheck=lambda n, _k: (
                        None if (kk >= 0 and (n is None or n >= 6 * kk + 10))
                        else f"refined_traceable_lemma needs k >= 0 and n >= 6k+10, got n={n}, k={kk}"
                    ),
                )
            ]

    # --- bipartite targets ----------------------------------------------------
    checks["moon_moser"] = [
        _Check(
            "moon_moser.delta", "bipartite", ("delta",),
            hypothesis=lambda c: 2 * c.delta > c.n,
            conclusion=_c_ham,
            prefilter=lambda s, n, kk, t: 2 * s["delta"] > n,
        ),
        _Check(
            "moon_moser.edges", "bipartite", ("e", "delta"),
            hypothesis=lambda c: c.delta >= 1
            and c.e > _moon_moser_bound(c.n, min(c.delta, c.n // 2)),
            conclusion=_c_ham,
            prefilter=lambda s, n, kk, t: (s["delta"] >= 1)
            & (s["e"] > _moon_moser_bound(n, n // 2)),
        ),
    ]

    def _fjp_conclusion(ctx):
        for j in range(1, ctx.n // 2 + 1):
            if recognize(ctx.g, "Bset", n=ctx.n, k=j):
                return True, True
        if ctx.n == 4 and (recognize(ctx.g, "Gamma1") or recognize(ctx.g, "Gamma2")):
            return True, True
        return False, False

    checks["ferrara_jacobson_powell"] = [
        _Check(
            "ferrara_jacobson_powell", "bipartite", ("min_cross_ds",),
            hypothesis=lambda c: c.n >= 2 and c.min_cross_ds() >= c.n and not c.ham(),
            conclusion=_fjp_conclusion,
            prefilter=lambda s, n, kk, t: s["min_cross_ds"] >= n,
            precheck=lambda n, _k: (
                None if n is None or n >= 2 else "ferrara_jacobson_powell needs side >= 2"
            ),
        )
    ]

    if target in ("bip_rho", "bip_q", "bip_rho_qc"):
        kk = needs_k(target)
        if target == "bip_rho":
            checks["bip_rho"] = [
                _Check(
                    "bip_rho", "bipartite", ("rho", "delta"),
                    hypothesis=lambda c: kk >= 1
                    and c.delta >= kk
                    and c.n >= (kk + 1) ** 2
                    and c.rho() >= _fam_rho("B", c.n, kk) - c.tol,
                    conclusion=_ham_or(lambda c: recognize(c.g, "B", n=c.n, k=kk)),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["rho"] >= _fam_rho("B", n, kk) - t),
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= (kk + 1) ** 2))
                        else f"bip_rho needs k >= 1 and side n >= (k+1)^2, got n={n}, k={kk}"
                    ),
                )
            ]
        if target == "bip_q":
            checks["bip_q"] = [
                _Check(
                    "bip_q", "bipartite", ("q", "delta"),
                    hypothesis=lambda c: kk >= 1
                    and c.delta >= kk
                    and c.n >= (kk + 1) ** 2
                    and c.q() >= _fam_q("B", c.n, kk) - c.tol,
                    conclusion=_ham_or(lambda c: recognize(c.g, "B", n=c.n, k=kk)),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["q"] >= _fam_q("B", n, kk) - t),
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= (kk + 1) ** 2))
                        else f"bip_q needs k >= 1 and side n >= (k+1)^2, got n={n}, k={kk}"
                    ),
                )
            ]
        if target == "bip_rho_qc":

            def _qc_exceptional(c):
                if recognize(c.g, "Bset", n=c.n, k=kk):
                    return True
                if c.n == 4 and kk == 2:
                    return recognize(c.g, "Gamma1") or recognize(c.g, "Gamma2")
                return False

            checks["bip_rho_qc"] = [
                _Check(
                    "bip_rho_qc", "bipartite", ("rho_qc", "delta"),
                    hypothesis=lambda c: kk >= 1
                    and c.delta >= kk
                    and c.n >= 2 * kk
                    and c.rho_qc() <= math.sqrt(kk * (c.n - kk)) + c.tol,
                    conclusion=_ham_or(_qc_exceptional),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["rho_qc"] <= math.sqrt(kk * (n - kk)) + t),
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= 2 * kk))
                        else f"bip_rho_qc needs k >= 1 and side n >= 2k, got n={n}, k={kk}"
                    ),
                )
            ]

    def _qqc_exceptional(c):
        for j in range(1, c.n // 2 + 1):
            if recognize(c.g, "Bset", n=c.n, k=j):
                return True
        if c.n == 4:
            return recognize(c.g, "Gamma1") or recognize(c.g, "Gamma2")
        return False

    checks["bip_q_qc"] = [
        _Check(
            "bip_q_qc", "bipartite", ("q_qc",),
            hypothesis=lambda c: c.n >= 2 and c.q_qc() <= c.n + c.tol,
            conclusion=_ham_or(_qqc_exceptional),
            prefilter=lambda s, n, kk, t: s["q_qc"] <= n + t,
            precheck=lambda n, _k: (
                None if n is None or n >= 2 else "bip_q_qc needs side >= 2"
            ),
        )
    ]

    if target in ("biclique_lemma", "refined_bipartite_lemma"):
        kk = needs_k(target)

        def _biclique_conclusion(c):
            total = 2 * c.n - kk
            found = False
            for s_ in range(max(1, total - c.n), c.n + 1):
                t_ = total - s_
                if 1 <= t_ <= c.n and contains_biclique(c.g, s_, t_):
                    found = True
                    break
            if not found:
                return False, False
            if c.delta >= kk:
                sw = c.g.swap_sides()
                if not (
                    contains_biclique(c.g, c.n, c.n - kk)
                    or contains_biclique(sw, c.n, c.n - kk)
                ):
                    return False, False
            return True, False

        if target == "biclique_lemma":
            checks["biclique_lemma"] = [
                _Check(
                    "biclique_lemma", "bipartite", ("e",),
                    hypothesis=lambda c: kk >= 1
                    and c.n >= 2 * kk + 1
                    and c.e > c.n * (c.n - kk - 1) + (kk + 1) ** 2
                    and is_b_closed(c.g),
                    conclusion=_biclique_conclusion,
                    prefilter=lambda s, n, _k, t: s["e"] > n * (n - kk - 1) + (kk + 1) ** 2,
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= 2 * kk + 1))
                        else f"biclique_lemma needs k >= 1 and side n >= 2k+1, got n={n}, k={kk}"
                    ),
                )
            ]
        if target == "refined_bipartite_lemma":
            checks["refined_bipartite_lemma"] = [
                _Check(
                    "refined_bipartite_lemma", "bipartite", ("e", "delta"),
                    hypothesis=lambda c: kk >= 1
                    and c.delta >= kk
                    and c.n >= 2 * kk + 1
                    and c.e > c.n * (c.n - kk - 1) + (kk + 1) ** 2,
                    conclusion=_ham_or(lambda c: spanning_subgraph_of(c.g, "B", c.n, kk)),
                    prefilter=lambda s, n, _k, t: (s["delta"] >= kk)
                    & (s["e"] > n * (n - kk - 1) + (kk + 1) ** 2),
                    precheck=lambda n, _k: (
                        None if (kk >= 1 and (n is None or n >= 2 * kk + 1))
                        else f"refined_bipartite_lemma needs k >= 1 and side n >= 2k+1, got n={n}, k={kk}"
                    ),
                )
            ]

    if target not in checks:
        raise ValueError(f"unknown verification target {target!r}")
    return checks[target]


VERIFY_TARGETS = (
    "ore",
    "dirac",
    "erdos",
    "fn_rho",
    "fn_rho.1",
    "fn_rho.2",
    "fn_rho_complement",
    "fn_rho_complement.1",
    "fn_rho_complement.2",
    "yu_fan_q",
    "yu_fan_q.1",
    "yu_fan_q.2",
    "main_rho",
    "main_rho.1",
    "main_rho.2",
    "main_q",
    "main_q.1",
    "main_q.2",
    "main_rho_complement",
    "main_rho_complement.1",
    "main_rho_complement.2",
    "ainouche_christofides",
    "clique_lemma",
    "refined_hamilton_lemma",
    "refined_traceable_lemma",
    "moon_moser",
    "ferrara_jacobson_powell",
    "bip_rho",
    "bip_q",
    "bip_rho_qc",
    "bip_q_qc",
    "biclique_lemma",
    "refined_bipartite_lemma",
)


# ---------------------------------------------------------------------------
# Verification driver
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one campaign.

    hypothesis_count sums over the target's atomic checks, so a graph
    satisfying several parts of a multi-part theorem is counted once per
    part.  conclusion_failures / aborted carry graph6 strings, sorted.
    """

    target: str
    space: dict
    processed: int = 0
    hypothesis_count: int = 0
    exceptional_matches: int = 0
    conclusion_failures: list = field(default_factory=list)
    aborted: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.conclusion_failures and not self.aborted

    def merge(self, other: "VerificationReport"):
        self.processed += other.processed
        self.hypothesis_count += other.hypothesis_count
        self.exceptional_matches += other.exceptional_matches
        self.conclusion_failures.extend(other.conclusion_failures)
        self.aborted.extend(other.aborted)

    def finalize(self):
        self.conclusion_failures = sorted(set(self.conclusion_failures))
        self.aborted = sorted(set(self.aborted))
        return self

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "space": self.space,
            "processed": self.processed,
            "hypothesis_count": self.hypothesis_count,
            "exceptional_matches": self.exceptional_matches,
            "conclusion_failures": self.conclusion_failures,
            "aborted": self.aborted,
            "wall_time": self.wall_time,
        }


def _eval_graph(ctx: _Ctx, checks: list[_Check], report: VerificationReport,
                active: Optional[list[bool]] = None):
    for ci, chk in enumerate(checks):
        if active is not None and not active[ci]:
            continue
        try:
            if not chk.hypothesis(ctx):
                continue
            report.hypothesis_count += 1
            ok, exceptional = chk.conclusion(ctx)
        except _OracleAborted:
            report.aborted.append(ctx.g6())
            continue
        if exceptional:
            report.exceptional_matches += 1
        if not ok:
            report.conclusion_failures.append(ctx.g6())


def _gated(key: str, checks: list[_Check]) -> bool:
    """Can ``key`` be gated: is every check needing it one threshold comparison in it?"""
    return all(
        chk.prefilter is not None and set(chk.needs) <= _INTEGER_STATS | {key}
        for chk in checks
        if key in chk.needs
    )


def _may_pass(key, checks, stats, size, bip, k, tol) -> np.ndarray:
    """Rows where some prefilter on ``key`` holds at either end of its padded interval."""
    lo, hi = _radius_interval(key, stats, size, bip)
    pad = abs(tol) + _GATE_SLACK
    ends = (dict(stats, **{key: lo - pad}), dict(stats, **{key: hi + pad}))
    keep = np.zeros(len(lo), dtype=bool)
    for chk in checks:
        if key in chk.needs:
            for at in ends:
                keep |= np.asarray(chk.prefilter(at, size, k, tol))
    return keep


def _verify_indexed_range(target, space, k, tol, budget, start, stop) -> VerificationReport:
    checks = _expand_target(target, k, tol)
    report = VerificationReport(target, space.describe())
    needs = frozenset(n for chk in checks for n in chk.needs)
    radii = [key for key in _RADII if key in needs]
    gated = {key for key in radii if _gated(key, checks)}
    bip = space.kind == "balanced_bipartite_labeled"
    size = space.side if bip else space.n
    min_deg = space.k if space.kind == "labeled_min_degree" else None
    pos = start
    while pos < stop:
        hi = min(pos + _CHUNK, stop)
        stats = _degree_stats(size, bip, pos, hi)
        cnt = hi - pos
        in_space = np.ones(cnt, dtype=bool)
        if min_deg is not None:
            in_space = stats["delta"] >= min_deg
        report.processed += int(in_space.sum())
        for key in radii:
            rows = in_space
            if key in gated:
                rows = rows & _may_pass(key, checks, stats, size, bip, k, tol)
            vals = np.full(cnt, np.nan)  # NaN fails every prefilter comparison
            if rows.any():
                vals[rows] = _radii(key, size, bip, stats["bits"][rows])
            stats[key] = vals
        for key in _DEGREE_SUMS:
            if key in needs:
                stats[key] = _min_degree_sum(size, bip, stats)
        masks = []
        for chk in checks:
            if chk.prefilter is None:
                masks.append(in_space.copy())
            else:
                masks.append(np.asarray(chk.prefilter(stats, size, k, tol)) & in_space)
        _eval_candidates(checks, report, stats, np.stack(masks, axis=1), size, bip, tol, budget)
        pos = hi
    return report


def _eval_candidates(checks, report, stats, active, size, bip, tol, budget):
    """Evaluate the rows of a chunk where some check's mask (a column of active) holds."""
    cand = np.flatnonzero(active.any(axis=1))
    if not len(cand):
        return
    adj = _adjacency_rows(size, bip, stats["bits"][cand])
    batch = _BatchVerdicts(adj, 2 * size if bip else size, budget)
    active = active[cand]
    es = stats["e"][cand].tolist()
    deltas = stats["delta"][cand].tolist()
    seeds = [(key, stats[key][cand]) for key in (*_RADII, *_DEGREE_SUMS) if key in stats]

    def build(j):
        return _row_graph(size, bip, adj[j].tolist())

    # Per-row values are taken one row at a time (not converted to lists for
    # the whole chunk), so a chunk with thousands of candidates does not hold
    # thousands of Python objects at once.
    for j in range(len(cand)):
        # A gated-away value stays NaN and is left to the lazy context.
        seeded = {key: float(col[j]) for key, col in seeds if not math.isnan(col[j])}
        ctx = _Ctx(tol, budget, bip, size, es[j], deltas[j], partial(build, j), seeded,
                   partial(batch.status, row=j))
        _eval_graph(ctx, checks, report, active[j].tolist())


def _worker(args):
    target, space_dict, k, tol, budget, start, stop = args
    space = SearchSpace(**space_dict)
    return _verify_indexed_range(target, space, k, tol, budget, start, stop)


def _space_index_total(space: SearchSpace) -> Optional[int]:
    if space.kind in ("all_labeled", "labeled_min_degree"):
        return 1 << (space.n * (space.n - 1) // 2)
    if space.kind == "balanced_bipartite_labeled":
        return 1 << (space.side * space.side)
    return None


def verify_theorem(
    target: str,
    space: SearchSpace,
    k: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    emit: Optional[Callable[[dict], None]] = None,
) -> VerificationReport:
    """Check one theorem/lemma over a space; see the module docstring."""
    space.validate()
    checks = _expand_target(target, k, tol)
    domains = {chk.domain for chk in checks}
    if space.is_bipartite_space and domains != {"bipartite"}:
        raise ValueError(f"target {target} needs a plain-graph space")
    if not space.is_bipartite_space and domains != {"graph"} and space.kind != "graph6_file":
        raise ValueError(f"target {target} needs a balanced-bipartite space")
    order = space.order_hint
    for chk in checks:
        if chk.precheck is not None:
            msg = chk.precheck(order, k)
            if msg:
                raise ValueError(f"space does not satisfy the statement's preconditions: {msg}")

    t0 = time.perf_counter()
    total = _space_index_total(space)
    if total is not None:
        if jobs > 1:
            bounds = np.linspace(0, total, jobs + 1, dtype=np.int64)
            tasks = [
                (target, space.kwargs(), k, tol, oracle_budget, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
                if a < b
            ]
            with multiprocessing.Pool(jobs) as pool:
                parts = pool.map(_worker, tasks)
            report = VerificationReport(target, space.describe())
            for part in parts:
                report.merge(part)
        else:
            report = _verify_indexed_range(target, space, k, tol, oracle_budget, 0, total)
    else:
        report = VerificationReport(target, space.describe())
        wants_bip = domains == {"bipartite"}
        for g in enumerate_space(space):
            if wants_bip and isinstance(g, Graph):
                g = bipartite_from_graph(g)
                if not g.balanced:
                    raise ValueError("bipartite target needs balanced bipartite inputs")
            report.processed += 1
            _eval_graph(_Ctx.of(g, tol, oracle_budget), checks, report)
    report.finalize()
    report.wall_time = time.perf_counter() - t0
    if emit is not None:
        for g6 in report.conclusion_failures:
            emit({"target": target, "space": report.space, "verdict": "counterexample",
                  "detail": {"graph6": g6, "reason": "hypothesis held but conclusion failed"}})
        for g6 in report.aborted:
            emit({"target": target, "space": report.space, "verdict": "aborted",
                  "detail": {"graph6": g6, "reason": "oracle budget exhausted"}})
        emit({"target": target, "space": report.space, "verdict": "summary",
              "detail": report.to_json()})
    return report


# ---------------------------------------------------------------------------
# Extremal search
# ---------------------------------------------------------------------------

_OBJECTIVES = {
    "max_rho": ("rho", "max"),
    "max_q": ("q", "max"),
    "min_rho_complement": ("rho_complement", "min"),
    "min_q_qc": ("q_qc", "min"),
}


def extremal_search(
    space: SearchSpace,
    objective: str,
    constraint: str,
    k: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
):
    """Exact optimum of a spectral objective over constrained graphs.

    constraint: "non_hamiltonian" or "non_traceable"; k adds a minimum-degree
    filter.  Returns (best value, sorted graph6 list of all optima within the
    comparison tolerance); (None, []) when nothing satisfies the constraint.
    """
    space.validate()
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if constraint not in ("non_hamiltonian", "non_traceable"):
        raise ValueError(f"unknown constraint {constraint!r}")
    stat_key, sense = _OBJECTIVES[objective]
    bip = space.is_bipartite_space
    if stat_key == "q_qc" and not bip:
        raise ValueError("min_q_qc needs a balanced-bipartite space")
    if stat_key == "rho_complement" and bip:
        raise ValueError("min_rho_complement needs a plain-graph space")

    total = _space_index_total(space)
    values = []
    graphs = []
    if total is not None:
        size = space.side if bip else space.n
        needs = frozenset([stat_key])
        pos = 0
        while pos < total:
            hi = min(pos + _CHUNK, total)
            stats = _chunk_stats(size, bip, pos, hi, needs)
            sel = np.ones(hi - pos, dtype=bool)
            if space.kind == "labeled_min_degree":
                sel = stats["delta"] >= space.k
            if k is not None:
                sel &= stats["delta"] >= k
            for i in np.flatnonzero(sel):
                values.append(float(stats[stat_key][i]))
                graphs.append(pos + int(i))
            pos = hi

        def build(idx):
            return bipartite_from_index(size, idx) if bip else graph_from_index(size, idx)

    else:
        for g in enumerate_space(space):
            delta = g.min_degree() if bip else min(g.degrees())
            if k is not None and delta < k:
                continue
            ctx = _Ctx.of(g, tol, oracle_budget)
            values.append(getattr(ctx, stat_key)())
            graphs.append(g)

        def build(g):
            return g

    if not values:
        return None, []
    values = np.array(values)
    order = np.argsort(values)
    if sense == "max":
        order = order[::-1]
    best = None
    winners = []
    for i in order:
        val = float(values[i])
        if best is not None:
            gap = (best - val) if sense == "max" else (val - best)
            if gap > tol:
                break
        g = build(graphs[int(i)])
        gg = g.to_graph() if isinstance(g, BipartiteGraph) else g
        if constraint == "non_hamiltonian":
            res = is_hamiltonian(gg, budget=oracle_budget)
        else:
            res = is_traceable(gg, budget=oracle_budget)
        if res.status == "no":
            if best is None:
                best = val
            winners.append(graph6_encode(gg))
    return best, sorted(winners)


# ---------------------------------------------------------------------------
# Certifier soundness sweep (acceptance criterion 8)
# ---------------------------------------------------------------------------

def certifier_soundness_sweep(
    ns=(3, 4, 5, 6, 7),
    bip_sides=(2, 3, 4),
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
) -> dict:
    """Certify every labeled graph / balanced bipartite graph in the ranges.

    Checks that no certified_positive graph is oracle-negative and no
    exceptional graph is oracle-positive.  Returns a summary dict with any
    violations as graph6 strings.
    """
    summary = {
        "graphs": 0,
        "bipartite_graphs": 0,
        "certified_positive": 0,
        "exceptional": 0,
        "inconclusive": 0,
        "violations": [],
        "aborted": [],
    }
    needs = frozenset(["rho", "q", "rho_complement"])
    for n in ns:
        total = 1 << (n * (n - 1) // 2)
        pos = 0
        while pos < total:
            hi = min(pos + _CHUNK, total)
            stats = _chunk_stats(n, False, pos, hi, needs)
            for i, g in enumerate(_graphs_from_bits(n, False, stats["bits"])):
                pre = {
                    "rho": float(stats["rho"][i]),
                    "q": float(stats["q"][i]),
                    "rho_complement": float(stats["rho_complement"][i]),
                }
                cert = certify_hamiltonicity(g, tol=tol, precomputed=pre)
                summary["graphs"] += 1
                if cert.verdict == "certified_positive":
                    summary["certified_positive"] += 1
                    res = is_hamiltonian(g, budget=oracle_budget)
                    if res.status == "aborted":
                        summary["aborted"].append(graph6_encode(g))
                    elif res.status != "yes":
                        summary["violations"].append(
                            {"graph6": graph6_encode(g), "kind": "certified_not_hamiltonian",
                             "theorem": cert.theorem}
                        )
                elif cert.verdict == "exceptional":
                    summary["exceptional"] += 1
                    res = is_hamiltonian(g, budget=oracle_budget)
                    if res.status == "aborted":
                        summary["aborted"].append(graph6_encode(g))
                    elif res.status != "no":
                        summary["violations"].append(
                            {"graph6": graph6_encode(g), "kind": "exceptional_but_hamiltonian",
                             "theorem": cert.theorem}
                        )
                else:
                    summary["inconclusive"] += 1
            pos = hi
    bip_needs = frozenset(["rho", "q", "rho_qc", "q_qc"])
    for side in bip_sides:
        total = 1 << (side * side)
        pos = 0
        while pos < total:
            hi = min(pos + _CHUNK, total)
            stats = _chunk_stats(side, True, pos, hi, bip_needs)
            for i, b in enumerate(_graphs_from_bits(side, True, stats["bits"])):
                pre = {key: float(stats[key][i]) for key in ("rho", "q", "rho_qc", "q_qc")}
                cert = certify_bipartite_hamiltonicity(b, tol=tol, precomputed=pre)
                summary["bipartite_graphs"] += 1
                g = b.to_graph()
                if cert.verdict == "certified_positive":
                    summary["certified_positive"] += 1
                    res = is_hamiltonian(g, budget=oracle_budget)
                    if res.status == "aborted":
                        summary["aborted"].append(graph6_encode(g))
                    elif res.status != "yes":
                        summary["violations"].append(
                            {"graph6": graph6_encode(g), "kind": "certified_not_hamiltonian",
                             "theorem": cert.theorem}
                        )
                elif cert.verdict == "exceptional":
                    summary["exceptional"] += 1
                    res = is_hamiltonian(g, budget=oracle_budget)
                    if res.status == "aborted":
                        summary["aborted"].append(graph6_encode(g))
                    elif res.status != "no":
                        summary["violations"].append(
                            {"graph6": graph6_encode(g), "kind": "exceptional_but_hamiltonian",
                             "theorem": cert.theorem}
                        )
                else:
                    summary["inconclusive"] += 1
            pos = hi
    return summary

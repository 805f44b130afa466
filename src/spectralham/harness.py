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

Statements come from ``statements.STATEMENTS``.  Enumerated spaces are
processed in index chunks, one block of the cached degree table each (see
Chunk statistics): integer statistics (edge count, degrees) and
stacked-eigensolver radii form one column per quantity, and
``Statement.hypothesis`` evaluated over those columns gives each statement's
hypothesis mask exactly, with the same comparison the scalar path applies to
one graph's values.  The masks are stacked statement-major, (statements,
rows), so the reductions over them run along contiguous memory.  Only the
parts of a hypothesis that need the graph itself (closedness, "not
Hamiltonian") are checked per row.  graph6 and random spaces evaluate the
same hypothesis on each graph's ``GraphValues``.  Campaigns can be
partitioned across a worker pool; the merged report is identical to the
serial one.

Chunk statistics.  ``_degree_table`` holds the degree of every vertex (int16,
vertex-major) and the edge count of every graph whose index fits in the low
log2(_CHUNK) index bits; it is built once per (size, bip).  A chunk's degrees
are a contiguous slice of it plus the degrees of the chunk's high index bits,
one small vector per block.  Index bits are unpacked only for the rows that
are eigensolved or are candidates; the minimum degree sums
(``min_ds`` / ``min_cross_ds``), ``extremal_search`` and the soundness sweep
unpack every row.

Bound gate.  Every statement is one threshold comparison in one quantity
(rho, q, or the radius of the complement or quasi-complement), plus at most
delta >= k and a per-row graph check, so its mask is monotone in that
quantity.  Before eigensolving, each row gets an interval [lo, hi] per
quantity from integer statistics alone (edge count and degrees, via
``spectral.radius_intervals``: average degree, the star K_{1,Delta}, Delta,
Nikiforov at k = delta, Feng-Yu, and sqrt(e) and e/side + side on bipartite
spaces).  The interval is widened by the tolerance plus a rounding slack; a
row whose masks fail at both ends fails them at the computed value too, so
it is not eigensolved and its value stays NaN (which fails every
comparison).  The interval and the hypotheses on its quantity depend on
(e, delta, Delta) only, so ``_gate_table`` decides every triple a graph of
the space can have, once per (target, space, k, tol), and a chunk gates
each row by one lookup.  Only the remaining rows are eigensolved (by
relabelling class, below); the gate changes no verdict, count or failure
list.  ``extremal_search`` and the soundness sweep need every value and do
not gate.

Class-keyed eigensolves.  Every quantity is a graph invariant, so a campaign
eigensolves once per relabelling class of its gated rows, not once per row.
``_class_keys`` sorts each row's vertices (stably) by degree, then by the sum
of their neighbours' degrees, one round of colour refinement, each side on
its own in bipartite spaces; the index of the relabelled graph is the row's
key.  Equal keys mean equal relabelled adjacency, so the rows are
isomorphic, and so are their complements and quasi-complements (the
relabelling keeps the sides).  ``_class_radii`` solves only the keys not yet
in a {key: value} memo, and solves each on the key's own bits, so a value
depends on its class alone, never on which row of the class came first.  A
memo lives for one ``_verify_indexed_range`` call and one quantity, shared by
its chunks; keys are built _EIG_BLOCK rows at a time, which bounds the
temporary arrays.  A class value differs from a row's own eigvalsh value only
by rounding, but it puts a whole class on one side of a threshold, which can
move counts at tol = 0.  ``extremal_search`` and the soundness sweep solve
every row, since the sweep's certificates record each value bitwise.

Column-wise conclusions.  On enumerated spaces, the rows of a chunk where some
statement's mask holds (the candidates) get their neighbourhood bitmasks from
one matmul over their index bits, and ``oracle._held_karp_batch`` decides
"Hamiltonian?" / "traceable?" for many rows at once.  A statement with no
graph check and a "ham" / "trace" conclusion is finished a column at a time:
its hypothesis count is the sum of its mask, Hamiltonicity is asked of every
row such a statement needs, and traceability only of the rows whose answer
was not "yes" (a Hamiltonian graph is traceable).  A row is looked at on its
own only where the answer is "no" (the exceptional-family check) or
"aborted" (its graph6 report).  The other statements (graph checks, clique
and biclique conclusions) go row by row and read the same kernel's verdicts,
solved for every candidate on first use.  ``_BatchVerdicts.column`` is the
one place either path gets a verdict from.  Each row is charged 1 << order
nodes, the charge ``is_hamiltonian`` reports for its subset DP; when that
exceeds the oracle budget the row is recorded as aborted, never decided.
The kernel rebuilds a witness for every "yes" row and checks it against the
row's adjacency before any verdict is used.  A row's Graph / BipartiteGraph
is built only when something reads it (a recognizer, a closure or biclique
test, a graph6 report), and at most once.  graph6 and random spaces,
``extremal_search`` and the soundness sweep use the scalar oracle.

Stage timers.  ``VerificationReport.timings`` charges the campaign's time to
stats, gate, eigensolve, hypothesis, conclusion and recognize (the family
recognizers and containment tests), lap by lap, so the stages sum to about
the wall time of a serial run; workers' timings are summed.
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
from .families import recognize, spanning_subgraph_of
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
from .spectral import DEFAULT_TOL, radius_intervals
from .statements import VERIFY_TARGETS, GraphValues, Statement, statements_for
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


def _check_tol(tol: float) -> float:
    """tol itself; ValueError unless it is finite and >= 0 (NaN passes no comparison)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


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


def _bits_of(nbits: int, idx) -> np.ndarray:
    """Row i holds the low nbits bits of idx[i], least significant first."""
    octets = np.asarray(idx, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=nbits, bitorder="little").view(bool)


def _index_bits(nbits: int, start: int, stop: int) -> np.ndarray:
    """Row i holds the low nbits bits of start + i, least significant first."""
    return _bits_of(nbits, np.arange(start, stop, dtype="<u8"))


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
# Added to the tolerance when gating: it covers the rounding of eigvalsh
# (about 1e-14 at the capped orders) and of the bound formulas, so a row whose
# computed value would meet a statement's comparison is never gated away, even
# at tol = 0.
_GATE_SLACK = 1e-9


@lru_cache(maxsize=None)
def _bit_ends(size: int, bip: bool):
    """Endpoints (us, vs) of each index bit, and the order of the graphs.

    Plain graphs use pair_order(n); balanced bipartite graphs put x_i at
    column i and y_j at column side + j, so bit i*side+j joins i and side+j.
    """
    if bip:
        t = np.arange(size * size)
        return t // size, size + t % size, 2 * size
    us, vs = _pair_arrays(size)
    return us, vs, size


@lru_cache(maxsize=None)
def _degree_table(size: int, bip: bool):
    """Degrees and edge counts of the graphs whose index is below 2^low.

    low = min(index bits, log2 _CHUNK).  deg[v, i] (int16, vertex-major) is
    the degree of v and e[i] the edge count of the graph with index i; the
    table doubles once per bit, and index i + 2^t adds bit t's two ends to
    index i.  It holds at most 10 x 16,384 entries.
    """
    us, vs, order = _bit_ends(size, bip)
    low = min(len(us), _CHUNK.bit_length() - 1)
    deg = np.zeros((order, 1 << low), dtype=np.int16)
    for t in range(low):
        half = deg[:, 1 << t : 2 << t]
        half[...] = deg[:, : 1 << t]
        half[us[t]] += 1
        half[vs[t]] += 1
    return deg, deg.sum(axis=0, dtype=np.int64) // 2


def _degree_stats(size: int, bip: bool, start: int, stop: int) -> dict:
    """Integer statistics of the graphs with index in [start, stop).

    deg[v, i] is the degree of vertex v in row i (vertex-major int16, so the
    reductions below run over contiguous rows), e the edge count and
    delta / Delta the minimum / maximum degree (two_delta is 2 delta).  Each
    row is a contiguous slice of ``_degree_table`` for its low index bits
    plus the degrees of its high bits, which are the same for a whole
    table-width block of indices.
    """
    us, vs, order = _bit_ends(size, bip)
    deg_low, e_low = _degree_table(size, bip)
    width = deg_low.shape[1]
    low = width.bit_length() - 1
    degs, es = [], []
    pos = start
    while pos < stop:
        block, lo = divmod(pos, width)
        hi = min(stop - block * width, width)
        on = block >> np.arange(len(us) - low) & 1  # the high index bits
        high = np.zeros(order, dtype=np.int16)
        np.add.at(high, us[low:], on)
        np.add.at(high, vs[low:], on)
        degs.append(deg_low[:, lo:hi] + high[:, None])
        es.append(e_low[lo:hi] + block.bit_count())
        pos = block * width + hi
    deg = degs[0] if len(degs) == 1 else np.concatenate(degs, axis=1)
    delta = deg.min(axis=0).astype(np.int64)
    return {
        "deg": deg,
        "e": es[0] if len(es) == 1 else np.concatenate(es),
        "delta": delta,
        "two_delta": 2 * delta,
        "Delta": deg.max(axis=0).astype(np.int64),
    }


def _radii(key: str, size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """The spectral quantity ``key`` of each row of bits, by batched eigvalsh.

    rho / q are taken on the graph, rho_complement on its complement and
    rho_qc / q_qc on its quasi-complement (the bipartite complement).  Rows
    go to eigvalsh _EIG_BLOCK at a time, which bounds the float64 matrix
    stack (1 MiB at order 8); eigvalsh solves each matrix on its own, so the
    values do not depend on the block.
    """
    us, vs, order = _bit_ends(size, bip)
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


def _class_keys(size: int, bip: bool, bits: np.ndarray, deg: np.ndarray):
    """Relabelling-class keys of rows of index bits, and the relabellings behind them.

    deg (order, rows) holds the rows' degrees.  Each row's vertices are put
    in stable order of (degree, sum of neighbour degrees), one round of
    colour refinement, each side on its own when bip; perm[r, v] is the
    vertex that becomes v.  The key is the index of the relabelled graph, as
    an int64, so rows with equal keys are isomorphic.
    """
    us, vs, order = _bit_ends(size, bip)
    adj = np.zeros((len(bits), order, order), dtype=bool)
    adj[:, us, vs] = bits
    adj[:, vs, us] = bits
    deg = deg.T.astype(np.int64)
    # the neighbour sum is below order^2, so degree decides first
    score = deg * order * order + np.einsum("rvu,ru->rv", adj, deg)
    if bip:
        perm = np.concatenate([np.argsort(score[:, :size], axis=1, kind="stable"),
                               size + np.argsort(score[:, size:], axis=1, kind="stable")], axis=1)
    else:
        perm = np.argsort(score, axis=1, kind="stable")
    relabelled = adj[np.arange(len(bits))[:, None], perm[:, us], perm[:, vs]]
    return relabelled @ (1 << np.arange(len(us), dtype=np.int64)), perm


def _class_radii(key: str, size: int, bip: bool, bits: np.ndarray, deg: np.ndarray,
                 memo: dict) -> np.ndarray:
    """The quantity ``key`` of each row, eigensolved once per relabelling class.

    Keys come from ``_class_keys``, _EIG_BLOCK rows at a time.  Only keys
    missing from memo ({class key: value}) are solved, on the key's own
    bits, so a value depends on its class alone and never on which row of
    the class came first.
    """
    classes = np.concatenate([
        _class_keys(size, bip, bits[lo : lo + _EIG_BLOCK], deg[:, lo : lo + _EIG_BLOCK])[0]
        for lo in range(0, len(bits), _EIG_BLOCK)
    ])
    uniq, inverse = np.unique(classes, return_inverse=True)
    uniq = uniq.tolist()
    new = [c for c in uniq if c not in memo]
    if new:
        memo.update(zip(new, _radii(key, size, bip, _bits_of(bits.shape[1], new)).tolist()))
    return np.array([memo[c] for c in uniq])[inverse]


def _radius_interval(key: str, stats: dict, size: int, bip: bool):
    """[lo, hi] containing the quantity ``key`` of each row, from integer stats alone."""
    us, _, order = _bit_ends(size, bip)
    e, dmin, dmax = stats["e"], stats["delta"], stats["Delta"]
    if key in _COMPLEMENTED:
        full = size if bip else size - 1  # a vertex's degree in K_{side,side} or K_n
        e, dmin, dmax = len(us) - e, full - dmax, full - dmin
    rho, q = radius_intervals(order, e, dmin, dmax, size if bip else None)
    return q if key in ("q", "q_qc") else rho


def _min_degree_sum(size: int, bip: bool, stats: dict) -> np.ndarray:
    """Minimum of d(u) + d(v) over non-adjacent pairs (cross pairs when bip); inf if none."""
    us, vs, _ = _bit_ends(size, bip)
    deg = stats["deg"]
    ds = np.where(stats["bits"].T, np.inf, deg[us] + deg[vs])
    return ds.min(axis=0, initial=np.inf)


def _chunk_stats(size: int, bip: bool, start: int, stop: int, needs: frozenset) -> dict:
    """Index bits, integer statistics and every quantity in needs, for all rows of the chunk."""
    stats = _degree_stats(size, bip, start, stop)
    stats["bits"] = _index_bits(len(_bit_ends(size, bip)[0]), start, stop)
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
    us, vs, order = _bit_ends(size, bip)
    t = np.arange(len(us))
    w = np.zeros((len(us), order), dtype=np.float32)
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
# Per-graph evaluation
# ---------------------------------------------------------------------------

class _OracleAborted(Exception):
    pass


class _BatchVerdicts:
    """Held-Karp verdicts for one chunk's candidate rows.

    adj holds the rows' neighbourhood bitmasks in the plain labelling.  Each
    row is charged 1 << order nodes, the subset-DP charge of is_hamiltonian;
    when that exceeds the budget every answer is "aborted".  ``column`` is
    the one place a verdict comes from: the column path calls it per
    question on the rows it needs, and ``status`` (the row-wise path) calls
    it once per question on every candidate row.
    """

    def __init__(self, adj: np.ndarray, order: int, budget: int):
        self.adj = adj
        self.order = order
        self.affordable = (1 << order) <= budget
        self.found = {}

    def column(self, question: str, rows: np.ndarray) -> np.ndarray:
        """Statuses ("yes" / "no" / "aborted") of the given rows for "ham" or "trace"."""
        if not self.affordable:
            return np.full(len(rows), "aborted")
        found = _held_karp_batch(self.adj[rows], self.order, question == "ham")[0]
        return np.where(found, "yes", "no")

    def status(self, question: str, row: int) -> str:
        if question not in self.found:
            self.found[question] = self.column(question, np.arange(len(self.adj)))
        return str(self.found[question][row])


def _g6(g) -> str:
    return graph6_encode(g.to_graph() if isinstance(g, BipartiteGraph) else g)


class _Row:
    """One graph under verification: the graph, built on first read, and its verdicts.

    ``verdict`` answers "ham" / "trace": from the chunk's batched oracle for
    indexed rows, from the scalar oracle otherwise.
    """

    def __init__(self, build: Callable, verdict: Callable[[str], str]):
        self._build = build
        self._verdict = verdict
        self._status = {}

    @cached_property
    def g(self):
        return self._build()

    def decide(self, question: str) -> bool:
        if question not in self._status:
            self._status[question] = self._verdict(question)
        if self._status[question] == "aborted":
            raise _OracleAborted
        return self._status[question] == "yes"

    def g6(self) -> str:
        return _g6(self.g)


def _scalar_verdict(g, budget: int, question: str) -> str:
    if question == "ham":
        gg = g.to_graph() if isinstance(g, BipartiteGraph) else g
        return is_hamiltonian(gg, budget=budget).status
    return is_traceable(g, budget=budget).status


# the part of a hypothesis that needs the graph itself
_GRAPH_CHECKS = {
    "closed": lambda row: is_closed(row.g),
    "b_closed": lambda row: is_b_closed(row.g),
    "not_ham": lambda row: not row.decide("ham"),
}


def _biclique_conclusion(b: BipartiteGraph, n: int, k: int, delta: int) -> bool:
    total = 2 * n - k
    if not any(contains_biclique(b, s, total - s)
               for s in range(max(1, total - n), n + 1) if 1 <= total - s <= n):
        return False
    if delta >= k:
        return contains_biclique(b, n, n - k) or contains_biclique(b.swap_sides(), n, n - k)
    return True


def _exceptional(st: Statement, g, n: int, k, clock: "_Clock") -> bool:
    """Is g one of st's exceptional families (a spanning subgraph of one when st.spanning)?"""
    clock.lap("conclusion")
    hit = any(spanning_subgraph_of(g, spec.family, spec.n, spec.k) if st.spanning
              else recognize(g, spec.family, n=spec.n, k=spec.k) for spec in st.families(n, k))
    clock.lap("recognize")
    return hit


def _conclusion(st: Statement, row: _Row, n: int, k, delta: int, clock) -> tuple[bool, bool]:
    """(conclusion holds, by an exceptional family) for a row meeting st's hypothesis."""
    if st.conclusion == "clique":
        return clique_number(row.g) >= n - k, False
    if st.conclusion == "biclique":
        return _biclique_conclusion(row.g, n, k, delta), False
    if row.decide(st.conclusion):
        return True, False
    if _exceptional(st, row.g, n, k, clock):
        return True, True
    return False, False


# ---------------------------------------------------------------------------
# Verification driver
# ---------------------------------------------------------------------------

_STAGES = ("stats", "gate", "eigensolve", "hypothesis", "conclusion", "recognize")


class _Clock:
    """Stage timer: each lap charges the time since the previous lap to one stage."""

    def __init__(self, timings: dict):
        self.timings = timings
        self.last = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.timings[stage] += now - self.last
        self.last = now


@dataclass
class VerificationReport:
    """Outcome of one campaign.

    hypothesis_count sums over the target's atomic checks, so a graph
    satisfying several parts of a multi-part theorem is counted once per
    part.  conclusion_failures / aborted carry graph6 strings, sorted.
    timings holds perf_counter seconds per stage (stats, gate, eigensolve,
    hypothesis, conclusion, recognize), summed over chunks and workers.
    """

    target: str
    space: dict
    processed: int = 0
    hypothesis_count: int = 0
    exceptional_matches: int = 0
    conclusion_failures: list = field(default_factory=list)
    aborted: list = field(default_factory=list)
    wall_time: float = 0.0
    timings: dict = field(default_factory=lambda: dict.fromkeys(_STAGES, 0.0))

    @property
    def clean(self) -> bool:
        return not self.conclusion_failures and not self.aborted

    def merge(self, other: "VerificationReport"):
        self.processed += other.processed
        self.hypothesis_count += other.hypothesis_count
        self.exceptional_matches += other.exceptional_matches
        self.conclusion_failures.extend(other.conclusion_failures)
        self.aborted.extend(other.aborted)
        for stage, seconds in other.timings.items():
            self.timings[stage] += seconds

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
            "timings": dict(self.timings),
        }


def _eval_row(row: _Row, held: list, report: VerificationReport, n: int, k, delta: int, clock):
    """Finish the statements whose hypothesis (less the graph check) holds on a row."""
    for st in held:
        try:
            if st.graph_check and not _GRAPH_CHECKS[st.graph_check](row):
                continue
            report.hypothesis_count += 1
            ok, exceptional = _conclusion(st, row, n, k, delta, clock)
        except _OracleAborted:
            report.aborted.append(row.g6())
            continue
        if exceptional:
            report.exceptional_matches += 1
        if not ok:
            report.conclusion_failures.append(row.g6())


def _may_pass(key, stmts, stats, size, bip, k, tol) -> np.ndarray:
    """Rows where some statement on ``key`` holds at either end of its padded interval."""
    lo, hi = _radius_interval(key, stats, size, bip)
    pad = tol + _GATE_SLACK
    keep = np.zeros(len(lo), dtype=bool)
    for st in stmts:
        if st.quantity == key:
            for end in (lo - pad, hi + pad):
                keep |= st.hypothesis(dict(stats, **{key: end}), size, k, tol)
    return keep


@lru_cache(maxsize=256)
def _gate_table(target: str, key: str, size: int, bip: bool, k, tol: float) -> np.ndarray:
    """``_may_pass`` for every (e, delta, Delta) that a graph of the space can have.

    The interval of ``key`` and the hypotheses on it depend on these three
    integers only, so a chunk gates each row by one lookup at
    (e * order + delta) * order + Delta.  Triples no graph has (delta >
    Delta, or 2e outside [order delta, order Delta]) stay False.
    """
    us, _, order = _bit_ends(size, bip)
    e, dmin, dmax = np.indices((len(us) + 1, order, order)).reshape(3, -1)
    real = (dmin <= dmax) & (order * dmin <= 2 * e) & (2 * e <= order * dmax)
    stats = {"e": e[real], "delta": dmin[real], "two_delta": 2 * dmin[real], "Delta": dmax[real]}
    keep = np.zeros(len(e), dtype=bool)
    keep[real] = _may_pass(key, statements_for(target), stats, size, bip, k, tol)
    return keep


def _verify_indexed_range(target, space, k, tol, budget, start, stop) -> VerificationReport:
    stmts = statements_for(target)
    report = VerificationReport(target, space.describe())
    clock = _Clock(report.timings)
    quantities = {st.quantity for st in stmts}
    bip = space.kind == "balanced_bipartite_labeled"
    size = space.side if bip else space.n
    us, _, order = _bit_ends(size, bip)
    gates = {key: _gate_table(target, key, size, bip, k, tol) for key in _RADII if key in quantities}
    memos = {key: {} for key in gates}  # {class key: value}, for this call only
    min_deg = space.k if space.kind == "labeled_min_degree" else None
    width = _degree_table(size, bip)[0].shape[1]
    pos = start
    while pos < stop:
        hi = min((pos // width + 1) * width, stop)  # one degree-table block per chunk
        cnt = hi - pos
        stats = _degree_stats(size, bip, pos, hi)
        in_space = None if min_deg is None else stats["delta"] >= min_deg
        report.processed += cnt if in_space is None else int(in_space.sum())
        if quantities & set(_DEGREE_SUMS):
            stats["bits"] = _index_bits(len(us), pos, hi)
            for key in _DEGREE_SUMS:
                if key in quantities:
                    stats[key] = _min_degree_sum(size, bip, stats)
        clock.lap("stats")
        code = (stats["e"] * order + stats["delta"]) * order + stats["Delta"]
        keeps = {key: gate[code] if in_space is None else gate[code] & in_space
                 for key, gate in gates.items()}
        clock.lap("gate")
        for key, keep in keeps.items():
            rows = np.flatnonzero(keep)
            vals = np.full(cnt, np.nan)  # NaN fails every comparison
            if len(rows):
                vals[rows] = _class_radii(key, size, bip, _bits_of(len(us), pos + rows),
                                          stats["deg"][:, rows], memos[key])
            stats[key] = vals
        clock.lap("eigensolve")
        active = np.zeros((len(stmts), cnt), dtype=bool)  # statement-major
        for i, st in enumerate(stmts):
            active[i] = st.hypothesis(stats, size, k, tol)
        if in_space is not None:
            active &= in_space
        clock.lap("hypothesis")
        _eval_candidates(stmts, report, stats, active, size, bip, k, budget, pos, clock)
        clock.lap("conclusion")
        pos = hi
    return report


def _by_column(st: Statement) -> bool:
    """Is st decided a column at a time (no graph check, a Hamiltonicity conclusion)?"""
    return st.graph_check is None and st.conclusion in ("ham", "trace")


def _eval_candidates(stmts, report, stats, active, size, bip, k, budget, pos, clock):
    """Evaluate the rows of a chunk where some statement's mask (a row of active) holds.

    The candidates' adjacency comes from their own index bits (row pos + j is
    index pos + j).  Statements ``_by_column`` are decided over whole
    columns; the others row by row.  A row's graph is built once, and only
    when a recognizer, a graph check or a graph6 report needs it.
    """
    cand = np.flatnonzero(active.any(axis=0))
    if not len(cand):
        return
    us, _, order = _bit_ends(size, bip)
    adj = _adjacency_rows(size, bip, _bits_of(len(us), pos + cand))
    batch = _BatchVerdicts(adj, order, budget)
    active = active[:, cand]
    graphs = {}

    def graph(j):
        if j not in graphs:
            graphs[j] = _row_graph(size, bip, adj[j].tolist())
        return graphs[j]

    columns = [i for i, st in enumerate(stmts) if _by_column(st)]
    if columns:
        _eval_columns([stmts[i] for i in columns], active[columns], batch, graph,
                      report, size, k, clock)
    rowwise = [i for i, st in enumerate(stmts) if not _by_column(st)]
    if rowwise:
        deltas = stats["delta"][cand].tolist()
        for j, on in enumerate(active[rowwise].T.tolist()):
            held = [stmts[i] for i, hit in zip(rowwise, on) if hit]
            if held:
                row = _Row(partial(graph, j), partial(batch.status, row=j))
                _eval_row(row, held, report, size, k, deltas[j], clock)


def _eval_columns(stmts, active, batch, graph, report, n, k, clock):
    """Hypothesis counts and verdicts of column statements over a chunk's candidates.

    Hamiltonicity is asked of every row some statement needs, traceability
    only of the rows that are not Hamiltonian (a Hamiltonian graph is
    traceable).  Only a row whose answer is "no" is looked at on its own,
    for the exceptional families, and an "aborted" one for its graph6 report.
    """
    need = {q: np.zeros(active.shape[1], dtype=bool) for q in ("ham", "trace")}
    for st, mask in zip(stmts, active):
        need[st.conclusion] |= mask
    ham = np.full(active.shape[1], "", dtype="<U7")
    asked = np.flatnonzero(need["ham"] | need["trace"])
    if len(asked):
        ham[asked] = batch.column("ham", asked)
    trace = np.where(ham == "yes", ham, "")
    asked = np.flatnonzero(need["trace"] & (ham != "yes"))
    if len(asked):
        trace[asked] = batch.column("trace", asked)
    verdicts = {"ham": ham, "trace": trace}
    for st, mask in zip(stmts, active):
        rows = np.flatnonzero(mask)
        report.hypothesis_count += len(rows)
        got = verdicts[st.conclusion][rows]
        report.aborted.extend(_g6(graph(j)) for j in rows[got == "aborted"].tolist())
        for j in rows[got == "no"].tolist():
            if _exceptional(st, graph(j), n, k, clock):
                report.exceptional_matches += 1
            else:
                report.conclusion_failures.append(_g6(graph(j)))


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
    _check_tol(tol)
    stmts = statements_for(target)
    if k is None and any(st.needs_k for st in stmts):
        raise ValueError(f"target {target} needs a k parameter")
    domains = {st.domain for st in stmts}
    if space.is_bipartite_space and domains != {"bipartite"}:
        raise ValueError(f"target {target} needs a plain-graph space")
    if not space.is_bipartite_space and domains != {"graph"} and space.kind != "graph6_file":
        raise ValueError(f"target {target} needs a balanced-bipartite space")
    for st in stmts:
        msg = st.refuses(space.order_hint, k)
        if msg:
            raise ValueError(msg)

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
        clock = _Clock(report.timings)
        wants_bip = domains == {"bipartite"}
        for g in enumerate_space(space):
            if wants_bip and isinstance(g, Graph):
                g = bipartite_from_graph(g)
                if not g.balanced:
                    raise ValueError("bipartite target needs balanced bipartite inputs")
            report.processed += 1
            n = g.nx if wants_bip else g.n
            clock.lap("stats")
            vals = GraphValues(g)
            held = [st for st in stmts if st.hypothesis(vals, n, k, tol)]
            clock.lap("hypothesis")
            row = _Row(lambda: g, partial(_scalar_verdict, g, oracle_budget))
            _eval_row(row, held, report, n, k, vals["delta"], clock)
            clock.lap("conclusion")
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
    _check_tol(tol)
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
            values.append(GraphValues(g)[stat_key])
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
    _check_tol(tol)
    summary = {
        "graphs": 0,
        "bipartite_graphs": 0,
        "certified_positive": 0,
        "exceptional": 0,
        "inconclusive": 0,
        "violations": [],
        "aborted": [],
    }
    runs = [(n, False, certify_hamiltonicity, ("rho", "q", "rho_complement")) for n in ns]
    runs += [(side, True, certify_bipartite_hamiltonicity, ("rho", "q", "rho_qc", "q_qc"))
             for side in bip_sides]
    for size, bip, certify, keys in runs:
        total = 1 << (size * size if bip else size * (size - 1) // 2)
        for pos in range(0, total, _CHUNK):
            stats = _chunk_stats(size, bip, pos, min(pos + _CHUNK, total), frozenset(keys))
            for i, g in enumerate(_graphs_from_bits(size, bip, stats["bits"])):
                cert = certify(g, tol=tol, precomputed={key: float(stats[key][i]) for key in keys})
                summary["bipartite_graphs" if bip else "graphs"] += 1
                if cert.verdict not in ("certified_positive", "exceptional"):
                    summary["inconclusive"] += 1
                    continue
                summary[cert.verdict] += 1
                gg = g.to_graph() if bip else g
                res = is_hamiltonian(gg, budget=oracle_budget)
                if cert.verdict == "certified_positive":
                    want, kind = "yes", "certified_not_hamiltonian"
                else:
                    want, kind = "no", "exceptional_but_hamiltonian"
                if res.status == "aborted":
                    summary["aborted"].append(graph6_encode(gg))
                elif res.status != want:
                    summary["violations"].append(
                        {"graph6": graph6_encode(gg), "kind": kind, "theorem": cert.theorem})
    return summary

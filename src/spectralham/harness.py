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

Row blocks.  Every space reaches one engine as blocks of rows of one order
(one side for bipartite rows).  A row is a graph's pair bits, in
``pair_order`` or bit i*side+j for the cross pair x_i y_j, and a block
carries its rows' edge counts and degrees (int16, vertex-major).  Index
ranges (the enumerated spaces) take the degrees from ``_degree_table``,
built once per (size, bip), and unpack the bits of an index only where they
are read.  graph6 files and random models materialise the bits, grouped by
order (by side when a graph6 file is read through its bipartition for a
bipartite target), and count the degrees from them; a random model draws
``rng.random((rows, pairs)) < p`` a block at a time.

Per block, each statistic or spectral radius is one column, and
``Statement.hypothesis`` over the columns gives each statement's mask
exactly, with the comparison the certifier applies to one graph's values.
Before eigensolving, ``spectral.radius_intervals`` bounds each radius from
(e, delta, Delta) alone; widened by the tolerance plus a rounding slack, a
row whose masks fail at both ends of its interval fails them at the value
too, so it is not eigensolved (its NaN fails every comparison).
``_gate_table`` decides every triple of an order once, so a row is gated by
one lookup; past _GATE_TABLE_MAX triples ``_may_pass`` gates the block's own
rows instead.  The gate changes no verdict, count or failure list.

Class-keyed eigensolves.  A row's key is the row relabelled by one round of
colour refinement (stable order of degree, then neighbours' degree sum, each
side on its own), read as an int64.  Equal keys mean isomorphic rows (and
complements and quasi-complements), so a memo kept for one campaign and one
(quantity, order) solves each key once, on the key's own bits; a value
depends on its class alone, which at tol = 0 puts a whole class on one side
of a threshold.  Rows of more than 63 bits (order 12 and up, side 8 and up)
have no key and are solved one by one.  Matrix stacks are sized by bytes.

Conclusions.  The candidate rows of a block (some mask holds) get their
neighbourhood bitmasks from one matmul, and ``_BatchVerdicts`` decides
"Hamiltonian?" / "traceable?" for them: ``oracle._held_karp_batch`` up to
order 16, charging each row 1 << order nodes (aborted past the budget) and
validating every witness, and the scalar oracle above that.  Every
statement is finished a column at a time: a "not_ham" check reads the
Hamiltonicity column, traceability is asked only of rows that are not
Hamiltonian, and the closure checks and the clique / biclique conclusions
look at the masked rows only.  A row's graph is built only for a graph
check, a structural conclusion, a recognizer or a graph6 report.

``extremal_search`` and the soundness sweep read the same producers but
eigensolve every row and use the scalar oracle.  Enumerated campaigns can be
split across a worker pool; the merged report equals the serial one.
``VerificationReport.timings`` charges time to the stages stats (including
producing the rows), gate, eigensolve, hypothesis, conclusion and recognize,
lap by lap, so they sum to about the wall time of a serial run.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterator, Optional

import numpy as np

from .certifier import certify_bipartite_hamiltonicity, certify_hamiltonicity
from .graphs import (
    BipartiteGraph,
    Graph,
    as_graph,
    bipartite_from_graph,
    graph6_decode,
    graph6_encode,
    pair_order,
)
from .oracle import (
    DEFAULT_BUDGET,
    _HK_MAX_ORDER,
    _held_karp_batch,
    clique_number,
    contains_biclique,
    is_hamiltonian,
    is_traceable,
)
from .spectral import DEFAULT_TOL, _check_tol, radius_intervals
from .statements import VERIFY_TARGETS, Statement, statements_for
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
# Bytes of one float64 matrix stack per eigvalsh call (the class keys'
# temporaries take the same number of rows): 2,048 rows at order 8.
_EIG_BYTES = 1 << 20
# Bytes of float64 deviates per random-model block; graph6 blocks take as
# many rows.
_ROW_BYTES = 1 << 20
# Entries of the largest (e, delta, Delta) gate table.
_GATE_TABLE_MAX = 1 << 16


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
        return {name: val for name, val in asdict(self).items() if val is not None}

    def kwargs(self) -> dict:
        return asdict(self)

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
            bip = self.model == "bipartite_gnp"
            order = self.side if bip else self.n
            if order is None or order < 1:
                raise SpaceCapError(f"{self.model} needs {'side' if bip else 'n'} >= 1")
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


def _mask_bits(masks, width: int) -> np.ndarray:
    """Row i holds the low width bits of the Python int masks[i], least significant first."""
    nbytes = max(1, (width + 7) // 8)
    octets = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(octets.reshape(len(masks), nbytes), axis=1, count=width,
                         bitorder="little").view(bool)


def random_model(kind: str, *, n: Optional[int] = None, side: Optional[int] = None,
                 p: float, seed: int, count: int) -> Iterator:
    """Reproducible G(n, p) streams driven by numpy's PCG64 generator.

    The stream is a pure function of (kind, parameters, seed): graph i uses
    the next block of uniform deviates, one per vertex pair (``pair_order``)
    or per cross pair x_i y_j (bit i*side+j).
    """
    if kind not in ("uniform_gnp", "bipartite_gnp"):
        raise ValueError(f"unknown random model {kind!r}")
    bip = kind == "bipartite_gnp"
    size = side if bip else n
    for bits in _gnp_bits(size, bip, p, seed, count):
        yield from _graphs_from_bits(size, bip, bits)


def enumerate_space(space: SearchSpace) -> Iterator:
    """Stream the space's graphs in deterministic order (a graph6 file's in file order)."""
    space.validate()
    if space.kind == "graph6_file":
        with open(space.path, "r", encoding="ascii") as fh:
            yield from (graph6_decode(line) for line in fh if line.strip())
        return
    for blk in _space_blocks(space, space.is_bipartite_space):
        graphs = _graphs_from_bits(blk.size, blk.bip, blk.rows_bits())
        yield from graphs if blk.in_space is None else compress(graphs, blk.in_space)


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------

_RADII = ("rho", "q", "rho_complement", "rho_qc", "q_qc")
_COMPLEMENTED = ("rho_complement", "rho_qc", "q_qc")
_DEGREE_SUMS = ("min_ds", "min_cross_ds")
# Added to the tolerance when gating: it covers the rounding of eigvalsh
# (about 1e-14 at the enumeration caps) and of the bound formulas, so a row whose
# computed value would meet a statement's comparison is never gated away, even
# at tol = 0.
_GATE_SLACK = 1e-9


@lru_cache(maxsize=None)
def _bit_ends(size: int, bip: bool):
    """Endpoints (us, vs) of each pair bit, and the order of the graphs.

    Plain graphs use pair_order(n); balanced bipartite graphs put x_i at
    column i and y_j at column side + j, so bit i*side+j joins i and side+j.
    """
    if bip:
        t = np.arange(size * size)
        return t // size, size + t % size, 2 * size
    pairs = np.array(pair_order(size), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], size


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


def _stats(deg: np.ndarray, e: np.ndarray) -> dict:
    """A block's integer statistics from its degrees deg (order, rows) and edge counts e.

    deg is vertex-major int16, so the reductions run over contiguous rows;
    delta / Delta are the minimum / maximum degree and two_delta is 2 delta.
    """
    delta = deg.min(axis=0).astype(np.int64)
    return {"deg": deg, "e": e, "delta": delta, "two_delta": 2 * delta,
            "Delta": deg.max(axis=0).astype(np.int64)}


@dataclass
class _Block:
    """Rows of one order: materialised pair bits, or the indices start, start + 1, ...

    stats are the rows' integer statistics (``_stats``); in_space masks the
    rows of a labeled_min_degree space (None keeps every row).
    """

    size: int
    bip: bool
    stats: Optional[dict]
    bits: Optional[np.ndarray] = None
    start: int = 0
    in_space: Optional[np.ndarray] = None

    def rows_bits(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The pair bits of the given rows (every row when None)."""
        if rows is None:
            rows = np.arange(len(self.stats["e"]))
        if self.bits is not None:
            return self.bits[rows]
        return _bits_of(len(_bit_ends(self.size, self.bip)[0]), self.start + rows)


def _index_blocks(size: int, bip: bool, start: int, stop: int,
                  min_deg: Optional[int] = None) -> Iterator[_Block]:
    """The index range [start, stop) as blocks, one degree-table block each.

    A row's degrees are a contiguous slice of ``_degree_table`` for its low
    index bits plus the degrees of its high bits, which are the same for the
    whole block.
    """
    us, vs, order = _bit_ends(size, bip)
    deg_low, e_low = _degree_table(size, bip)
    width = deg_low.shape[1]
    low = width.bit_length() - 1
    pos = start
    while pos < stop:
        block, lo = divmod(pos, width)
        hi = min(stop - block * width, width)
        on = block >> np.arange(len(us) - low) & 1  # the high index bits
        high = np.zeros(order, dtype=np.int16)
        np.add.at(high, us[low:], on)
        np.add.at(high, vs[low:], on)
        stats = _stats(deg_low[:, lo:hi] + high[:, None], e_low[lo:hi] + block.bit_count())
        in_space = None if min_deg is None else stats["delta"] >= min_deg
        yield _Block(size, bip, stats, start=pos, in_space=in_space)
        pos = block * width + hi


def _block_rows(nbits: int) -> int:
    """Rows per materialised block: one float64 deviate per bit in _ROW_BYTES."""
    return max(1, _ROW_BYTES // (8 * max(nbits, 1)))


def _gnp_bits(size: int, bip: bool, p: float, seed: int, count: int) -> Iterator[np.ndarray]:
    """Blocks of pair bits of a random model's stream, one graph per row."""
    rng = np.random.default_rng(seed)
    nbits = len(_bit_ends(size, bip)[0])
    step = _block_rows(nbits)
    for lo in range(0, count, step):
        yield rng.random((min(step, count - lo), nbits)) < p


def _graph6_blocks(path: str, bip: bool) -> Iterator[_Block]:
    """A graph6 file's rows as blocks, grouped by order and flushed when full.

    With bip each line is read through its bipartition (x_i, y_j numbered in
    vertex order), which must be balanced, and grouped by side.  A line of
    order 0 is refused.
    """
    groups = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            g = graph6_decode(line)
            where = f"{path}, line {lineno}: "
            if g.n == 0:
                raise ValueError(f"{where}the order-0 graph {line!r} has no statement to check")
            if bip:
                try:
                    b = bipartite_from_graph(g)
                except ValueError as exc:
                    raise ValueError(f"{where}{exc}") from exc
                if not b.balanced:
                    raise ValueError(f"{where}bipartite target needs balanced bipartite inputs")
                size, bits = b.nx, _mask_bits(b.rows, b.nx).reshape(-1)
            else:
                us, vs, _ = _bit_ends(g.n, False)
                size, bits = g.n, _mask_bits(g.adj, g.n)[us, vs]
            group = groups.setdefault(size, [])
            group.append(bits)
            if len(group) == _block_rows(len(bits)):
                yield _row_block(size, bip, np.array(group))
                group.clear()
    for size, group in groups.items():
        if group:
            yield _row_block(size, bip, np.array(group))


def _row_block(size: int, bip: bool, bits: np.ndarray) -> _Block:
    """A block of materialised rows, their degrees counted from their bits."""
    us, vs, order = _bit_ends(size, bip)
    rows, t = np.nonzero(bits)
    ends = np.concatenate([us[t], vs[t]]) * len(bits) + np.concatenate([rows, rows])
    deg = np.bincount(ends, minlength=order * len(bits)).reshape(order, len(bits))
    return _Block(size, bip, _stats(deg.astype(np.int16), bits.sum(axis=1, dtype=np.int64)),
                  bits=bits)


def _space_index_total(space: SearchSpace) -> Optional[int]:
    if space.kind in ("all_labeled", "labeled_min_degree"):
        return 1 << (space.n * (space.n - 1) // 2)
    if space.kind == "balanced_bipartite_labeled":
        return 1 << (space.side * space.side)
    return None


def _space_blocks(space: SearchSpace, bip: bool, start: int = 0,
                  stop: Optional[int] = None) -> Iterator[_Block]:
    """The space's rows as blocks; bip reads a graph6 file as balanced bipartite graphs.

    Enumerated spaces give the index range [start, stop) (the whole space
    when stop is None); the other spaces give all their rows.
    """
    if space.kind == "graph6_file":
        return _graph6_blocks(space.path, bip)
    size = space.side if bip else space.n
    if space.kind == "random_model":
        return (_row_block(size, bip, bits)
                for bits in _gnp_bits(size, bip, space.p, space.seed, space.count))
    min_deg = space.k if space.kind == "labeled_min_degree" else None
    stop = _space_index_total(space) if stop is None else stop
    return _index_blocks(size, bip, start, stop, min_deg)


# ---------------------------------------------------------------------------
# Quantities and graphs of rows
# ---------------------------------------------------------------------------

def _eig_rows(order: int) -> int:
    """Rows per eigvalsh call (and per class-key block) at this order."""
    return max(1, _EIG_BYTES // (8 * order * order))


def _radii(key: str, size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """The spectral quantity ``key`` of each row of bits, by batched eigvalsh.

    rho / q are taken on the graph, rho_complement on its complement and
    rho_qc / q_qc on its quasi-complement (the bipartite complement).  Rows
    go to eigvalsh ``_eig_rows(order)`` at a time, which bounds the float64
    matrix stack by _EIG_BYTES; eigvalsh solves each matrix on its own, so
    the values do not depend on the block.
    """
    us, vs, order = _bit_ends(size, bip)
    step = _eig_rows(order)
    out = np.empty(len(bits))
    for lo in range(0, len(bits), step):
        x = bits[lo : lo + step]
        if key in _COMPLEMENTED:
            x = ~x
        a = np.zeros((len(x), order, order))
        a[:, us, vs] = x
        a[:, vs, us] = x
        if key in ("q", "q_qc"):
            diag = np.arange(order)
            a[:, diag, diag] = a.sum(axis=2)
        out[lo : lo + step] = np.linalg.eigvalsh(a)[:, -1]
    return out


def _class_keys(size: int, bip: bool, bits: np.ndarray, deg: np.ndarray):
    """Relabelling-class keys of rows of pair bits, and the relabellings behind them.

    deg (order, rows) holds the rows' degrees.  Each row's vertices are put
    in stable order of (degree, sum of neighbour degrees), one round of
    colour refinement, each side on its own when bip; perm[r, v] is the
    vertex that becomes v.  The key is the relabelled row's bits read as an
    int64 (so at most 63 bits), and rows with equal keys are isomorphic.
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

    Keys come from ``_class_keys``, ``_eig_rows(order)`` rows at a time.
    Only keys missing from memo ({class key: value}) are solved, on the
    key's own bits, so a value depends on its class alone and never on which
    row of the class came first.  Rows of more than 63 bits have no int64
    key and are solved one by one.
    """
    if bits.shape[1] > 63:
        return _radii(key, size, bip, bits)
    step = _eig_rows(_bit_ends(size, bip)[2])
    classes = np.concatenate([
        _class_keys(size, bip, bits[lo : lo + step], deg[:, lo : lo + step])[0]
        for lo in range(0, len(bits), step)
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


def _min_degree_sum(size: int, bip: bool, deg: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Minimum of d(u) + d(v) over non-adjacent pairs (cross pairs when bip); inf if none."""
    us, vs, _ = _bit_ends(size, bip)
    ds = np.where(bits.T, np.inf, deg[us] + deg[vs])
    return ds.min(axis=0, initial=np.inf)


@lru_cache(maxsize=None)
def _row_weights(size: int, bip: bool) -> np.ndarray:
    """(bits, order) matrix: pair bit t adds 1 << v to row u and 1 << u to row v."""
    us, vs, order = _bit_ends(size, bip)
    t = np.arange(len(us))
    w = np.zeros((len(us), order), dtype=np.float32)
    w[t, us] = 2.0 ** vs
    w[t, vs] = 2.0 ** us
    return w


def _adjacency_rows(size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """Neighbourhood bitmasks (rows, order) of rows of pair bits.

    Bipartite rows use the labelling of ``BipartiteGraph.to_graph`` (x_i is
    i, y_j is side + j).  Up to order 24 one float32 BLAS product builds
    them as int64: each entry is a sum of distinct powers of two below 2^24,
    so the product is exact.  Wider rows are packed from the dense adjacency
    into Python ints (an object array).
    """
    us, vs, order = _bit_ends(size, bip)
    if order <= 24:
        return (bits.astype(np.float32) @ _row_weights(size, bip)).astype(np.int64)
    dense = np.zeros((len(bits), order, order), dtype=bool)
    dense[:, us, vs] = bits
    dense[:, vs, us] = bits
    packed = np.packbits(dense, axis=2, bitorder="little")
    return np.array([[int.from_bytes(v.tobytes(), "little") for v in g] for g in packed],
                    dtype=object)


def _row_graph(size: int, bip: bool, row: list[int]):
    """The graph of one row of ``_adjacency_rows``: a Graph, or a BipartiteGraph when bip."""
    if bip:
        return BipartiteGraph(size, size, tuple(a >> size for a in row[:size]))
    return Graph(size, tuple(row))


def _graphs_from_bits(size: int, bip: bool, bits: np.ndarray) -> list:
    return [_row_graph(size, bip, row) for row in _adjacency_rows(size, bip, bits).tolist()]


# ---------------------------------------------------------------------------
# Verdicts and conclusions
# ---------------------------------------------------------------------------

class _BatchVerdicts:
    """Oracle verdicts for one block's candidate rows (neighbourhood bitmasks adj).

    Up to order _HK_MAX_ORDER the batched Held-Karp kernel decides them,
    charging each row 1 << order nodes (all "aborted" past the budget); the
    scalar oracle decides larger orders row by row.  ``column`` is the one
    place a verdict comes from.
    """

    def __init__(self, adj: np.ndarray, order: int, budget: int):
        self.adj = adj
        self.order = order
        self.budget = budget

    def column(self, question: str, rows: np.ndarray) -> np.ndarray:
        """Statuses ("yes" / "no" / "aborted") of the given rows for "ham" or "trace"."""
        if self.order > _HK_MAX_ORDER:
            oracle = is_hamiltonian if question == "ham" else is_traceable
            return np.array([oracle(Graph(self.order, tuple(self.adj[r].tolist())),
                                    budget=self.budget).status for r in rows.tolist()])
        if (1 << self.order) > self.budget:
            return np.full(len(rows), "aborted")
        found = _held_karp_batch(self.adj[rows], self.order, question == "ham")[0]
        return np.where(found, "yes", "no")


# the graph checks that read the graph itself ("not_ham" reads the "ham" column)
_GRAPH_CHECKS = {"closed": is_closed, "b_closed": is_b_closed}


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
    hit = st.exception(g, n, k) is not None
    clock.lap("recognize")
    return hit


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
    hypothesis, conclusion, recognize), summed over blocks and workers.
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
        return asdict(self)


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
    integers only, so a block gates each row by one lookup at
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


def _gate(target: str, key: str, stmts, stats: dict, size: int, bip: bool, k, tol: float):
    """Rows of a block that may pass some statement on ``key``: one table lookup each."""
    us, _, order = _bit_ends(size, bip)
    if (len(us) + 1) * order * order > _GATE_TABLE_MAX:
        return _may_pass(key, stmts, stats, size, bip, k, tol)
    code = (stats["e"] * order + stats["delta"]) * order + stats["Delta"]
    return _gate_table(target, key, size, bip, k, tol)[code]


def _verify_blocks(target, space, k, tol, budget, blocks) -> VerificationReport:
    """The campaign over blocks of rows: stats, gate, eigensolve, hypothesis, conclusion."""
    stmts = statements_for(target)
    report = VerificationReport(target, space.describe())
    clock = _Clock(report.timings)
    quantities = {st.quantity for st in stmts}
    memos = {}  # {(quantity, size, bip): {class key: value}}, for this call only
    for blk in blocks:
        size, bip, stats, in_space = blk.size, blk.bip, blk.stats, blk.in_space
        cnt = len(stats["e"])
        report.processed += cnt if in_space is None else int(in_space.sum())
        if quantities & set(_DEGREE_SUMS):
            bits = blk.rows_bits()
            for key in _DEGREE_SUMS:
                if key in quantities:
                    stats[key] = _min_degree_sum(size, bip, stats["deg"], bits)
        clock.lap("stats")
        keeps = {}
        for key in _RADII:
            if key in quantities:
                keep = _gate(target, key, stmts, stats, size, bip, k, tol)
                keeps[key] = keep if in_space is None else keep & in_space
        clock.lap("gate")
        for key, keep in keeps.items():
            rows = np.flatnonzero(keep)
            vals = np.full(cnt, np.nan)  # NaN fails every comparison
            if len(rows):
                memo = memos.setdefault((key, size, bip), {})
                vals[rows] = _class_radii(key, size, bip, blk.rows_bits(rows),
                                          stats["deg"][:, rows], memo)
            stats[key] = vals
        clock.lap("eigensolve")
        active = np.zeros((len(stmts), cnt), dtype=bool)  # statement-major
        for i, st in enumerate(stmts):
            active[i] = st.hypothesis(stats, size, k, tol)
        if in_space is not None:
            active &= in_space
        clock.lap("hypothesis")
        _eval_candidates(stmts, report, blk, active, k, budget, clock)
        clock.lap("conclusion")
    return report


def _eval_candidates(stmts, report, blk: _Block, active, k, budget, clock):
    """Finish each statement's mask (a row of active) over the rows where some mask holds.

    Hamiltonicity is asked of every row a "ham" conclusion or a "not_ham"
    check needs (such a statement's conclusion is "ham"), traceability only
    of the rows that are not Hamiltonian (a Hamiltonian graph is traceable).
    A "not_ham" mask keeps the rows whose answer is "no" and reports the
    aborted ones.  A row's graph is built once, and only when a graph check,
    a structural conclusion, a recognizer or a graph6 report needs it.
    """
    cand = np.flatnonzero(active.any(axis=0))
    if not len(cand):
        return
    size, bip = blk.size, blk.bip
    adj = _adjacency_rows(size, bip, blk.rows_bits(cand))
    batch = _BatchVerdicts(adj, _bit_ends(size, bip)[2], budget)
    active = active[:, cand]
    graphs = {}

    def graph(j):
        if j not in graphs:
            graphs[j] = _row_graph(size, bip, adj[j].tolist())
        return graphs[j]

    def g6(rows):
        return [graph6_encode(as_graph(graph(j))) for j in rows]

    need = {q: active[[st.conclusion == q for st in stmts]].any(axis=0) for q in ("ham", "trace")}
    ham = np.full(len(cand), "", dtype="<U7")
    asked = np.flatnonzero(need["ham"] | need["trace"])
    if len(asked):
        ham[asked] = batch.column("ham", asked)
    trace = np.where(ham == "yes", ham, "")
    asked = np.flatnonzero(need["trace"] & (ham != "yes"))
    if len(asked):
        trace[asked] = batch.column("trace", asked)
    verdicts = {"ham": ham, "trace": trace}
    for st, mask in zip(stmts, active):
        if st.graph_check == "not_ham":
            report.aborted += g6(np.flatnonzero(mask & (ham == "aborted")).tolist())
            mask &= ham == "no"
        elif st.graph_check:
            rows = np.flatnonzero(mask)
            mask[rows] = [_GRAPH_CHECKS[st.graph_check](graph(j)) for j in rows.tolist()]
        rows = np.flatnonzero(mask)
        report.hypothesis_count += len(rows)
        if st.conclusion == "clique":
            failed = [j for j in rows.tolist() if clique_number(graph(j)) < size - k]
        elif st.conclusion == "biclique":
            delta = blk.stats["delta"][cand]
            failed = [j for j in rows.tolist()
                      if not _biclique_conclusion(graph(j), size, k, int(delta[j]))]
        else:
            got = verdicts[st.conclusion][rows]
            report.aborted += g6(rows[got == "aborted"].tolist())
            no = rows[got == "no"].tolist()
            failed = [j for j in no if not _exceptional(st, graph(j), size, k, clock)]
            report.exceptional_matches += len(no) - len(failed)
        report.conclusion_failures += g6(failed)


def _worker(args):
    target, space_dict, k, tol, budget, start, stop = args
    space = SearchSpace(**space_dict)
    blocks = _space_blocks(space, space.is_bipartite_space, start, stop)
    return _verify_blocks(target, space, k, tol, budget, blocks)


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
    if total is not None and jobs > 1:
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
        blocks = _space_blocks(space, domains == {"bipartite"})
        report = _verify_blocks(target, space, k, tol, oracle_budget, blocks)
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
    Every row of the space that passes the filters is eigensolved; the
    oracle then walks them from the best value down.
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

    kept = []  # (block less its statistics, its filtered rows, their values)
    for blk in _space_blocks(space, bip):
        sel = blk.stats["delta"] >= (k if k is not None else 0)
        if blk.in_space is not None:
            sel &= blk.in_space
        rows = np.flatnonzero(sel)
        if len(rows):
            values = _radii(stat_key, blk.size, blk.bip, blk.rows_bits(rows))
            kept.append((replace(blk, stats=None, in_space=None), rows, values))
    if not kept:
        return None, []
    values = np.concatenate([vals for _, _, vals in kept])
    offsets = np.cumsum([0] + [len(vals) for _, _, vals in kept])
    order = np.argsort(values)
    if sense == "max":
        order = order[::-1]
    best = None
    winners = []
    for i in order.tolist():
        val = float(values[i])
        if best is not None:
            gap = (best - val) if sense == "max" else (val - best)
            if gap > tol:
                break
        b = int(np.searchsorted(offsets, i, side="right")) - 1
        blk, rows, _ = kept[b]
        bits = blk.rows_bits(rows[i - offsets[b] :][:1])
        gg = as_graph(_graphs_from_bits(blk.size, blk.bip, bits)[0])
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
        for blk in _index_blocks(size, bip, 0, total):
            bits = blk.rows_bits()
            values = {key: _radii(key, size, bip, bits).tolist() for key in keys}
            for i, g in enumerate(_graphs_from_bits(size, bip, bits)):
                cert = certify(g, tol=tol, precomputed={key: values[key][i] for key in keys})
                summary["bipartite_graphs" if bip else "graphs"] += 1
                if cert.verdict not in ("certified_positive", "exceptional"):
                    summary["inconclusive"] += 1
                    continue
                summary[cert.verdict] += 1
                gg = as_graph(g)
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

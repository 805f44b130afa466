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

Space kinds.  Each kind of space (each random model its own) is one entry
of ``_SPACE_KINDS``, the one place that knows it: the ``SearchSpace`` fields
it takes (``validate`` refuses any other field that is set), its checks,
whether its rows are bipartite, its index total, its block producer and
whether a campaign cuts it to the edge-count window.

Row blocks.  Every space reaches one engine as blocks of rows of one order
(one side for bipartite rows).  A row is a graph's pair bits, in
``pair_order`` or bit i*side+j for the cross pair x_i y_j, and a block
carries its rows' edge counts and degrees and holds only rows of its space
(``_Block``).  Index ranges take their degrees from two cached
``_degree_table``s and unpack an index's bits only where they are read
(``_index_blocks``); graph6 files and random models materialise the bits
(``_row_block``).  A campaign on a windowed kind gives statistics only to
the index rows whose edge count some statement of its target can accept
(``_edge_window``), and counts the others as processed.

Gates.  Each statistic or spectral radius is one column, and
``Statement.hypothesis`` over the columns gives each statement's mask
exactly, with the comparison the certifier applies to one graph's values.
Per block only the statistics and the gate run.  ``spectral.radius_intervals``
bounds each radius from (e, delta, Delta) alone, one ``_gate_table`` lookup
per row; widened by the tolerance plus a rounding slack, a row whose masks
fail at both ends of its interval fails them at the value too, so it is not
eigensolved (its NaN fails every comparison).  For a radius with an "le"
statement the lower end is raised to the degree floor and then the
Rayleigh quotient (``_gate``).  A row survives when it passes the gate of
some radius statement, or the hypothesis of a statement on an integer
quantity; the others fail every hypothesis.  The edge-count window and the
gate change no verdict, count or failure list, and both are cached by the
statements they read.

Relabelling classes.  The surviving rows are gathered over blocks, up to
_GROUP_ROWS of one order, and ``_eval_group`` keys each of them once by one
round of colour refinement (``_class_keys``): equal keys mean isomorphic
rows (and complements and quasi-complements).  From then on a group is
evaluated per class: everything a hypothesis or a conclusion reads is a
class invariant, so each class takes its statistics and gate flags from one
of its rows, and each radius, verdict, graph check and recognizer is
decided once per class, on its key's own bits (``_Classes.values``), so a
value depends on its class alone (at tol = 0 a whole class lies on one side
of a threshold).  ``_Classes.verdicts`` is the one place an oracle verdict
comes from: the batched Held-Karp kernel up to order 16, charging each
representative 1 << order nodes, which no relabelling changes, and the
scalar oracle above.  The class sizes are the row weights: processed counts
the rows of the space, and hypothesis_count and exceptional_matches add the
sizes of the classes that count.  Only a failing or aborted class is
expanded back to its rows, each reported by the graph6 of its own bits.
Rows of more than 63 bits have no key: each is a class of one.

``extremal_search`` and the soundness sweep (``_fired_rows``) read the same
producers and take their radii and verdicts per class the same way, with
memos per call.  An enumerated campaign can be split into ``jobs`` index
ranges, run by at most as many workers as there are ranges and CPUs; the
merged report equals the serial one.  ``VerificationReport.timings`` charges
time to its stages lap by lap, so they sum to about the wall time of a
serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .certifier import _CERTIFIERS
from .graphs import (
    BipartiteGraph,
    Graph,
    _graph6_lines,
    _graph_from_pair_bits,
    bipartite_from_graph,
    graph6_encode,
    pair_order,
)
from .oracle import (
    DEFAULT_BUDGET,
    _HK_MAX_ORDER,
    _check_budget,
    _held_karp_batch,
    clique_number,
    contains_biclique,
    is_hamiltonian,
    is_traceable,
)
from .spectral import DEFAULT_TOL, _check_tol, radius_intervals
from .statements import RADII, SPECTRAL, VERIFY_TARGETS, Statement, radius_matrix, statements_for
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
# Bytes of one float64 matrix stack per eigvalsh call: 2,048 rows at order 8.
_EIG_BYTES = 1 << 20
# Bytes of float64 deviates per random-model block; graph6 blocks take as
# many rows.
_ROW_BYTES = 1 << 20
# Bytes of one (pairs, rows) int64 temporary of ``_class_keys`` (``_rayleigh``'s
# are int32, half of it): 1,024 rows at side 4.
_PAIR_BYTES = 1 << 17
# Entries of the largest (e, delta, Delta) gate table.
_GATE_TABLE_MAX = 1 << 16
# Surviving rows of one order gathered, over blocks, before one ``_eval_group``.
_GROUP_ROWS = 1 << 13


class SpaceCapError(ValueError):
    pass


_INTS = (int, np.integer)  # the parameter types a space accepts for an integer
_FIELD_TYPES = {"n": (_INTS, "an int"), "side": (_INTS, "an int"), "count": (_INTS, "an int"),
                "p": ((int, float, np.integer, np.floating), "a real number"),
                "path": (str, "a str")}


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
        kind = _space_kind(self)
        return bool(kind and kind.bip)

    def describe(self) -> dict:
        return {name: val for name, val in asdict(self).items() if val is not None}

    def validate(self):
        """Refuse a space its ``_SPACE_KINDS`` entry does not accept: a field of
        the wrong type, a value its checks refuse, or a field it does not take."""
        for name, (types, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is not None and not isinstance(value, types):
                raise SpaceCapError(f"{name} must be {what}, got {value!r}")
        kind = _space_kind(self)
        if kind is None:
            if any(name == self.kind for name, model in _SPACE_KINDS if model):
                raise SpaceCapError(f"unknown random model {self.model!r}")
            raise SpaceCapError(f"unknown space kind {self.kind!r}")
        for ok, message in kind.checks:
            if not ok(self):
                raise SpaceCapError(message.format_map(vars(self)))
        for name, value in self.describe().items():
            if name not in ("kind", *kind.fields):
                raise SpaceCapError(f"{self.kind} takes no {name}, got {name}={value!r}")


# ---------------------------------------------------------------------------
# Index decoding and enumeration
# ---------------------------------------------------------------------------

def graph_from_index(n: int, idx: int) -> Graph:
    """The idx-th labeled graph on n vertices (edge-subset index, graph6 bit order)."""
    return _graph_from_pair_bits(n, idx)


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
    or per cross pair x_i y_j (bit i*side+j).  It is the stream of the
    random_model ``SearchSpace``, whose checks the parameters pass.
    """
    return enumerate_space(SearchSpace("random_model", model=kind, n=n, side=side, p=p,
                                       seed=seed, count=count))


def enumerate_space(space: SearchSpace) -> Iterator:
    """Stream the space's graphs in deterministic order (a graph6 file's in file order)."""
    space.validate()
    kind = _space_kind(space)
    if kind.graphs is not None:
        yield from kind.graphs(space)
        return
    for blk in _space_blocks(space, bool(kind.bip)):
        yield from _graphs_from_bits(blk.size, blk.bip, blk.rows_bits())


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------

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
def _degree_table(size: int, bip: bool, first: int = 0):
    """Degrees and edge counts of the graphs on the pair bits first .. first + low - 1.

    low = min(bits past first, log2 _CHUNK).  deg[v, i] (int8, vertex-major)
    is the degree of v and e[i] the edge count of the graph whose bits read i;
    the table doubles once per bit, and i + 2^t adds bit first + t's two ends
    to i.  It holds at most 10 x 16,384 entries.  int8 holds every degree of
    an index row: the enumeration caps keep the order at 10 or less, so a
    degree, and even a sum of two (``_min_degree_sum``), stays below 127.
    """
    us, vs, order = _bit_ends(size, bip)
    us, vs = us[first:], vs[first:]
    low = min(len(us), _CHUNK.bit_length() - 1)
    deg = np.zeros((order, 1 << low), dtype=np.int8)
    for t in range(low):
        half = deg[:, 1 << t : 2 << t]
        half[...] = deg[:, : 1 << t]
        half[us[t]] += 1
        half[vs[t]] += 1
    return deg, deg.sum(axis=0, dtype=np.int64) // 2


def _stats(deg: np.ndarray, e: np.ndarray) -> dict:
    """A block's integer statistics from its degrees deg (order, rows) and edge counts e.

    deg is vertex-major (int8 for index rows, int16 for materialised rows),
    so the reductions run over contiguous rows; delta / Delta are the
    minimum / maximum degree and two_delta is 2 delta, all three int64: the
    bound formulas multiply them by Python ints, which int8 would wrap.
    """
    delta = deg.min(axis=0).astype(np.int64)
    return {"deg": deg, "e": e, "delta": delta, "two_delta": 2 * delta,
            "Delta": deg.max(axis=0).astype(np.int64)}


@dataclass
class _Block:
    """Rows of one order: materialised pair bits, or the rows' space indices.

    Every row is in the space.  stats are the rows' integer statistics
    (``_stats``); span counts the rows of the space the block stands for,
    its own and those an edge-count window passed over.
    """

    size: int
    bip: bool
    stats: dict
    span: int
    bits: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None

    def rows_bits(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The pair bits of the given rows (every row when None)."""
        if self.bits is not None:
            return self.bits if rows is None else self.bits[rows]
        return _bits_of(len(_bit_ends(self.size, self.bip)[0]),
                        self.index if rows is None else self.index[rows])


@lru_cache(maxsize=64)
def _window_rows(size: int, bip: bool, window: bytes, high: int) -> tuple:
    """The rows of ``_degree_table`` whose edge count plus high the window
    admits: their int32 table indices, their degrees (C-contiguous) and their
    int8 edge counts, read-only.  ``_joined_block`` widens the indices and
    edge counts to int64."""
    deg, e = _degree_table(size, bip)
    sel = np.flatnonzero(np.frombuffer(window, dtype=bool)[e + high])
    cols = sel.astype(np.int32), deg.take(sel, axis=1), e[sel].astype(np.int8)
    for col in cols:
        col.flags.writeable = False
    return cols


def _index_blocks(size: int, bip: bool, start: int, stop: int, min_deg: Optional[int] = None,
                  window: Optional[bytes] = None) -> Iterator[_Block]:
    """The index range [start, stop) as blocks of at most _CHUNK rows.

    A row's degrees and edge count are a slice of ``_degree_table`` for its
    low index bits plus one column of the table over the high bits (at most
    log2 _CHUNK of them), the same for the whole table block.  window (one
    bool per edge count, never given with min_deg) keeps only the rows whose
    edge count it admits: a table block takes its admitted rows, with their
    degrees and edge counts, from ``_window_rows`` for the edge count of its
    high bits (a slice of them for a partial first or last table block), and
    the admitted rows of consecutive table blocks are joined into one
    C-contiguous block.
    """
    deg_low, e_low = _degree_table(size, bip)
    width = deg_low.shape[1]
    deg_high, e_high = _degree_table(size, bip, width.bit_length() - 1)
    parts, rows = [], 0  # (index, deg, e, span) of the table blocks gathered, and their rows
    pos = start
    while pos < stop:
        block, lo = divmod(pos, width)
        hi = min(stop - block * width, width)
        high, e_top = deg_high[:, block, None], int(e_high[block])
        if window is None:
            sel, deg, e = np.arange(lo, hi), deg_low[:, lo:hi], e_low[lo:hi]
        else:
            sel, deg, e = _window_rows(size, bip, window, e_top)
            if lo or hi < width:
                a, b = np.searchsorted(sel, (lo, hi))
                sel, deg, e = sel[a:b], deg[:, a:b], e[a:b]
        if parts and rows + len(sel) > _CHUNK:
            yield _joined_block(size, bip, parts, min_deg)
            parts, rows = [], 0
        # deg + high is a new C-contiguous array (never the read-only cache),
        # so the per-vertex reductions of _stats run over contiguous rows; a
        # cached int32 index plus block * width stays below the 2^28 indices
        # of the largest space, and an int8 edge count below its 28 pairs
        parts.append((block * width + sel, deg + high, e + e_top, hi - lo))
        rows += len(sel)
        pos = block * width + hi
    if parts:
        yield _joined_block(size, bip, parts, min_deg)


def _joined_block(size: int, bip: bool, parts: list, min_deg: Optional[int]) -> _Block:
    """One block of the index rows gathered in parts by ``_index_blocks``; with
    min_deg only those of minimum degree >= min_deg, which its span counts.

    Its indices and edge counts are int64 (``_window_rows`` caches them
    narrower): ``_gate`` codes a row's triple as (e * order + delta) * order
    + Delta, which int8 would wrap.
    """
    index, deg, e = (col[0] if len(parts) == 1 else np.concatenate(col, axis=-1)
                     for col in list(zip(*parts))[:3])
    index, e = index.astype(np.int64, copy=False), e.astype(np.int64, copy=False)
    span = sum(p[3] for p in parts)
    if min_deg is not None:
        keep = np.flatnonzero(deg.min(axis=0) >= min_deg)
        index, deg, e, span = index[keep], deg.take(keep, axis=1), e[keep], len(keep)
    return _Block(size, bip, _stats(deg, e), span, index=index)


def _block_rows(nbits: int) -> int:
    """Rows per materialised block: one float64 deviate per bit in _ROW_BYTES."""
    return max(1, _ROW_BYTES // (8 * max(nbits, 1)))


def _graph6_blocks(path: str, bip: bool) -> Iterator[_Block]:
    """A graph6 file's rows as blocks, grouped by order and flushed when full.

    With bip each line is read through its bipartition (x_i, y_j numbered in
    vertex order), which must be balanced, and grouped by side.  A line of
    order 0 is refused.
    """
    groups = {}
    for where, line, g in _graph6_lines(path):
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
                  len(bits), bits=bits)


# ---------------------------------------------------------------------------
# Space kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SpaceKind:
    """One kind of space, the one place that knows it (``_SPACE_KINDS``)."""

    fields: tuple  # the SearchSpace fields it takes besides kind
    checks: tuple  # (test, message) pairs, a message formatted with the space's fields
    bip: Optional[bool]  # balanced bipartite rows; None: as the target reads them (graph6)
    total: Optional[Callable]  # its index total; None when its rows are materialised
    blocks: Callable  # (space, bip, start, stop, window) -> its rows as _Blocks
    windowed: bool = False  # a campaign cuts it to the edge-count window
    graphs: Optional[Callable] = None  # its graphs in its own order, where blocks regroup them


def _positive(field: str, who: str) -> tuple:
    return (lambda s: getattr(s, field) is not None and getattr(s, field) >= 1,
            f"{who} needs {field} >= 1")


_LABELED = (_positive("n", "labeled enumeration"),
            (lambda s: s.n <= MAX_ALL_LABELED_N, f"all_labeled is capped at n <= "
             f"{MAX_ALL_LABELED_N} (2^C(n,2) graphs); use graph6_file mode for larger orders"))
_GNP = ((lambda s: s.p is not None and 0.0 <= s.p <= 1.0, "edge probability must lie in [0, 1]"),
        (lambda s: s.count is not None and s.count >= 0, "random_model needs a sample count"),
        (lambda s: isinstance(s.seed, _INTS) and s.seed >= 0,
         "random_model needs an int seed >= 0, got {seed!r}"))


def _enumerated(space: SearchSpace, bip: bool, start: int, stop: int, window) -> Iterator[_Block]:
    # k is None but in a labeled_min_degree space, the one kind that takes it
    return _index_blocks(space.order_hint, bip, start, stop, space.k, window)


def _sampled(space: SearchSpace, bip: bool, *_) -> Iterator[_Block]:
    """A random model's stream as blocks, one graph per row."""
    size, count, rng = space.order_hint, space.count, np.random.default_rng(space.seed)
    nbits = len(_bit_ends(size, bip)[0])
    step = _block_rows(nbits)
    for lo in range(0, count, step):
        yield _row_block(size, bip, rng.random((min(step, count - lo), nbits)) < space.p)


# keyed by (kind, model): each random model is a kind of its own
_SPACE_KINDS = {
    ("all_labeled", None): _SpaceKind(
        ("n",), _LABELED, False, lambda s: 1 << (s.n * (s.n - 1) // 2), _enumerated, True),
    ("labeled_min_degree", None): _SpaceKind(
        ("n", "k"), (*_LABELED, (lambda s: isinstance(s.k, _INTS) and s.k >= 0,
                                 "labeled_min_degree needs an int k >= 0")),
        False, lambda s: 1 << (s.n * (s.n - 1) // 2), _enumerated),
    ("balanced_bipartite_labeled", None): _SpaceKind(
        ("side",), (_positive("side", "bipartite enumeration"),
                    (lambda s: s.side <= MAX_BIP_SIDE, f"balanced_bipartite_labeled is capped at "
                     f"side <= {MAX_BIP_SIDE}; use graph6_file mode for larger sides")),
        True, lambda s: 1 << (s.side * s.side), _enumerated, True),
    ("graph6_file", None): _SpaceKind(
        ("path",), ((lambda s: bool(s.path), "graph6_file needs a path"),), None, None,
        lambda s, bip, *_: _graph6_blocks(s.path, bip),
        graphs=lambda s: (g for _, _, g in _graph6_lines(s.path))),
    ("random_model", "uniform_gnp"): _SpaceKind(
        ("model", "n", "p", "count", "seed"), (_positive("n", "uniform_gnp"), *_GNP), False,
        None, _sampled),
    ("random_model", "bipartite_gnp"): _SpaceKind(
        ("model", "side", "p", "count", "seed"), (_positive("side", "bipartite_gnp"), *_GNP),
        True, None, _sampled),
}


def _space_kind(space: SearchSpace) -> Optional[_SpaceKind]:
    """The entry of the space's (kind, model), else of its kind alone (whose
    fields then refuse the model); None for an unknown kind or model."""
    return _SPACE_KINDS.get((space.kind, space.model)) or _SPACE_KINDS.get((space.kind, None))


def _space_index_total(space: SearchSpace) -> Optional[int]:
    total = _space_kind(space).total
    return None if total is None else total(space)


def _space_blocks(space: SearchSpace, bip: bool, start: int = 0, stop: Optional[int] = None,
                  window: Optional[bytes] = None) -> Iterator[_Block]:
    """The space's rows as blocks from its kind's producer; bip reads a graph6
    file as balanced bipartite graphs, and stop None is the index total."""
    kind = _space_kind(space)
    if stop is None and kind.total is not None:
        stop = kind.total(space)
    return kind.blocks(space, bip, start, stop, window)


# ---------------------------------------------------------------------------
# Quantities and graphs of rows
# ---------------------------------------------------------------------------

def _eig_rows(order: int) -> int:
    """Rows per eigvalsh call at this order."""
    return max(1, _EIG_BYTES // (8 * order * order))


def _pair_rows(size: int, bip: bool) -> int:
    """Rows per ``_rayleigh`` or ``_class_keys`` call: a (pairs, rows) int64
    temporary in _PAIR_BYTES (``_rayleigh``'s int32 ones take half)."""
    return max(1, _PAIR_BYTES // (8 * max(len(_bit_ends(size, bip)[0]), 1)))


def _radii(key: str, size: int, bip: bool, bits: np.ndarray) -> np.ndarray:
    """The spectral quantity ``key`` of each row of bits: the top eigenvalue of
    its ``radius_matrix`` (the X side of a bipartite row is its first size
    vertices), by batched eigvalsh.

    Rows go to eigvalsh ``_eig_rows(order)`` at a time, which bounds the
    float64 matrix stack by _EIG_BYTES; eigvalsh solves each matrix on its
    own, so the values do not depend on the block.
    """
    us, vs, order = _bit_ends(size, bip)
    step = _eig_rows(order)
    out = np.empty(len(bits))
    for lo in range(0, len(bits), step):
        x = bits[lo : lo + step]
        a = np.zeros((len(x), order, order))
        a[:, us, vs] = x
        a[:, vs, us] = x
        m = radius_matrix(key, a, size if bip else None)
        out[lo : lo + step] = np.linalg.eigvalsh(m)[:, -1]
    return out


@lru_cache(maxsize=None)
def _pair_weights(size: int, bip: bool) -> np.ndarray:
    """Flat (order * order) int64 table: entry u * order + v is 1 << the pair bit
    joining u and v, and 0 where no pair bit does (entry 0 among them)."""
    us, vs, order = _bit_ends(size, bip)
    w = np.zeros((order, order), dtype=np.int64)
    w[us, vs] = w[vs, us] = 1 << np.arange(len(us), dtype=np.int64)
    return w.ravel()


@lru_cache(maxsize=None)
def _incidence(size: int, bip: bool):
    """(order, pairs) float32 matrices at_u and at_v: pair bit t has a 1 in
    column t at row us[t] of at_u and at row vs[t] of at_v."""
    us, vs, order = _bit_ends(size, bip)
    t = np.arange(len(us))
    at_u, at_v = np.zeros((2, order, len(us)), dtype=np.float32)
    at_u[us, t] = at_v[vs, t] = 1.0
    return at_u, at_v


def _ranks(score: np.ndarray) -> np.ndarray:
    """rank[v, r] = #{u : score[u, r] < score[v, r]}, for distinct scores (order, rows)."""
    return (score[:, None] < score[None]).sum(axis=0, dtype=np.int16)


def _class_keys(size: int, bip: bool, bits: np.ndarray, deg: np.ndarray):
    """Relabelling-class keys of rows of pair bits, and the relabellings behind them.

    deg (order, rows) holds the rows' degrees.  Each row's vertices are put
    in stable order of (degree, sum of neighbour degrees), one round of
    colour refinement, each side on its own when bip; rank[v, r] is the
    vertex that v becomes in row r.  The key is the relabelled row's bits
    read as an int64 (so at most 63 bits), and rows with equal keys are
    isomorphic.  Everything is vertex- or pair-major over the rows: the
    neighbour sums are one float32 product per pair side with
    ``_incidence`` (exact: each term is a degree, at most 13 at order 14,
    and each sum is below 2^24), a rank counts the smaller scores, and the
    key adds ``_pair_weights`` at the ranks of each set pair.
    """
    us, vs, order = _bit_ends(size, bip)
    edges = np.ascontiguousarray(bits.T)
    at_u, at_v = _incidence(size, bip)
    degf, edgef = deg.astype(np.float32), edges.astype(np.float32)
    nsum = (at_u @ (edgef * degf[vs]) + at_v @ (edgef * degf[us])).astype(np.int32)
    deg = deg.astype(np.int32)
    # the neighbour sum is below order^2, so degree decides first, and the
    # vertex breaks ties as a stable sort does (below order^4: 38,416 at order 14)
    score = (deg * order * order + nsum) * order + np.arange(order, dtype=np.int32)[:, None]
    if bip:
        rank = np.concatenate([_ranks(score[:size]), size + _ranks(score[size:])])
    else:
        rank = _ranks(score)
    # an absent pair reads entry 0 of the table, which is 0
    at = (rank[us] * order + rank[vs]) * edges
    return _pair_weights(size, bip).take(at).sum(axis=0), rank


@dataclass
class _Classes:
    """Rows of pair bits (of one size and bip) grouped by relabelling class.

    Row r is in class of[r]; row[c] is one of the rows of class c and
    sizes[c] their number, the class's weight in every count.  keys
    lists the class keys, or is None when the rows have more than 63 bits
    and so no int64 key; each row is then a class of one.  memos is the
    call's {(name, size, bip): {class key: value}}.  Values are asked by
    class index c (an int array) and come back one per class.
    """

    size: int
    bip: bool
    rows: np.ndarray
    of: np.ndarray
    row: np.ndarray
    sizes: np.ndarray
    memos: defaultdict
    keys: Optional[list] = None

    @property
    def count(self) -> int:
        return len(self.row)

    def bits(self, c: Optional[np.ndarray] = None) -> np.ndarray:
        """The representatives of the classes c (every class when None): the
        key's own bits, or the row itself."""
        if self.keys is None:
            return self.rows if c is None else self.rows[c]
        return _bits_of(self.rows.shape[1],
                        self.keys if c is None else [self.keys[i] for i in c.tolist()])

    def radii(self, key: str, c: Optional[np.ndarray] = None) -> np.ndarray:
        """The spectral quantity ``key`` of the classes c (every class when
        None), eigensolved on their representatives."""
        return self.values(key, lambda c: _radii(key, self.size, self.bip, self.bits(c)), c)

    def verdicts(self, question: str, budget: int,
                 c: Optional[np.ndarray] = None) -> np.ndarray:
        """Statuses ("yes" / "no" / "aborted") of "ham" or "trace" for the
        classes c (every class when None), decided on their representatives.

        Up to order _HK_MAX_ORDER the batched Held-Karp kernel decides them,
        charging each representative 1 << order nodes (all "aborted" past the
        budget); the scalar oracle decides larger orders one at a time.
        """
        order = _bit_ends(self.size, self.bip)[2]

        def solve(c):
            adj = _adjacency_rows(self.size, self.bip, self.bits(c))
            if order > _HK_MAX_ORDER:
                oracle = is_hamiltonian if question == "ham" else is_traceable
                return [oracle(Graph(order, tuple(row)), budget=budget).status
                        for row in adj.tolist()]
            if (1 << order) > budget:
                return np.full(len(c), "aborted")
            return np.where(_held_karp_batch(adj, order, question == "ham")[0], "yes", "no")

        return self.values(question, solve, c)

    def values(self, name: str, solve: Callable, c: Optional[np.ndarray] = None) -> np.ndarray:
        """The value ``name`` of each of the classes c (every class when None).

        A keyed class takes memo[key], memo = memos[name, size, bip]; only the
        classes missing from memo go to solve, which gets their indices and
        returns their values, computed on the representatives, and memo keeps
        them.  Unkeyed classes are solved every time.
        """
        if c is not None and not len(c):
            return np.zeros(0, dtype=bool)
        if self.keys is None:
            return np.asarray(solve(np.arange(self.count) if c is None else c))
        memo = self.memos[name, self.size, self.bip]
        which = range(self.count) if c is None else c.tolist()
        keys = self.keys if c is None else [self.keys[i] for i in which]
        new = [i for i, key in zip(which, keys) if key not in memo]
        if new:
            solved = np.asarray(solve(np.array(new))).tolist()
            memo.update(zip([self.keys[i] for i in new], solved))
        return np.array([memo[key] for key in keys])


def _row_classes(size: int, bip: bool, bits: np.ndarray, deg: np.ndarray, memos) -> _Classes:
    """The relabelling classes of rows of pair bits with degrees deg (order, rows).

    Keys come from ``_class_keys``, ``_pair_rows`` rows at a time;
    memos (a defaultdict(dict)) is the calling driver's.
    """
    if bits.shape[1] > 63:
        rows = np.arange(len(bits))
        return _Classes(size, bip, bits, rows, rows, np.ones(len(bits), dtype=np.int64), memos)
    step = _pair_rows(size, bip)
    keys = np.concatenate([
        _class_keys(size, bip, bits[lo : lo + step], deg[:, lo : lo + step])[0]
        for lo in range(0, len(bits), step)
    ])
    uniq, of, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    row = np.empty(len(uniq), dtype=np.int64)
    row[of] = np.arange(len(keys))  # any row of a class will do: no sorting for the first
    return _Classes(size, bip, bits, of, row, sizes, memos, uniq.tolist())


def _radius_interval(key: str, stats: dict, size: int, bip: bool):
    """[lo, hi] containing the quantity ``key`` of each row, from integer stats alone."""
    us, _, order = _bit_ends(size, bip)
    e, dmin, dmax = stats["e"], stats["delta"], stats["Delta"]
    complemented, signless = RADII[key]
    if complemented:
        full = size if bip else size - 1  # a vertex's degree in K_{side,side} or K_n
        e, dmin, dmax = len(us) - e, full - dmax, full - dmin
    rho, q = radius_intervals(order, e, dmin, dmax, size if bip else None)
    return q if signless else rho


def _rayleigh(key: str, size: int, bip: bool, bits: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """x^T M x / x^T x at the degree vector x of the graph the quantity ``key`` is taken on.

    The quotient is a lower bound on the largest eigenvalue of M
    (Brouwer-Haemers, *Spectra of Graphs*, 3.1), here the adjacency matrix
    (rho keys) or the signless Laplacian (q keys) of the graph of each row
    of bits, its complement or its quasi-complement, with deg (order, rows)
    the row's degrees.  An edge uv adds 2 x_u x_v to x^T A x and
    (x_u + x_v)^2 to x^T Q x.  x and the pair weights are int32, which
    holds (2 d)^2 for every degree d below 23,170 (one row of that order
    would hold 2.7e8 pair bits), and numerator and denominator are summed
    in int64, so both are exact.  Its (pairs, rows) temporaries are bounded by
    ``_gate`` (_PAIR_BYTES).  A row whose x is 0 gets 0.
    """
    us, vs, _ = _bit_ends(size, bip)
    x = deg.astype(np.int32)
    edges = bits.T
    complemented, signless = RADII[key]
    if complemented:
        x = (size if bip else size - 1) - x
        edges = ~edges
    w = x[us]
    if signless:
        w += x[vs]
        w *= w
    else:
        w *= x[vs]
        w *= 2
    w *= edges
    num = w.sum(axis=0, dtype=np.int64)
    den = np.square(x).sum(axis=0, dtype=np.int64)
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def _degree_floor(key: str, size: int, bip: bool, deg: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sum x^2 / e(H) at the degree vector x of the graph H the signless quantity
    ``key`` is taken on, with deg (order, rows) and e the rows' degrees and edge counts.

    It is 2 plus the average degree of H's line graph, a lower bound on
    q(H) = 2 + rho(line graph).  By Cauchy-Schwarz,
    (sum_v x_v^2)^2 <= e(H) sum_uv (x_u + x_v)^2, so it is at most
    ``_rayleigh``'s quotient.  Both are one correctly rounded division of
    exact int64 sums, so the computed floor is at most the computed quotient
    too.  A row whose H has no edge gets 0.  The sums are taken from deg
    directly (sum d^2, and sum d = 2e), so no int64 copy of deg is made:
    each d^2 is int32 (exact for any int16 degree) and their sum int64.
    """
    us, _, order = _bit_ends(size, bip)
    num = np.square(deg, dtype=np.int32).sum(axis=0, dtype=np.int64)
    if RADII[key][0]:
        # x = full - d, so sum x^2 = order full^2 - 2 full sum d + sum d^2
        full = size if bip else size - 1
        num += order * full * full - 4 * full * e
        e = len(us) - e
    return np.divide(num, e, out=np.zeros(len(num)), where=e > 0)


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


def _graph6_rows(size: int, bip: bool, bits: np.ndarray) -> list[str]:
    """The graph6 strings of rows of pair bits (a bipartite row as its whole graph)."""
    return [graph6_encode(g) for g in _graphs_from_bits(size, bip, bits)]


# ---------------------------------------------------------------------------
# Verdicts and conclusions
# ---------------------------------------------------------------------------

# the graph checks that read the graph itself ("not_ham" reads the "ham" column)
_GRAPH_CHECKS = {"closed": is_closed, "b_closed": is_b_closed}


def _biclique_conclusion(b: BipartiteGraph, n: int, k: int) -> bool:
    total = 2 * n - k
    if not any(contains_biclique(b, s, total - s)
               for s in range(max(1, total - n), n + 1) if 1 <= total - s <= n):
        return False
    if b.min_degree() >= k:
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

    processed counts the graphs of the space.  hypothesis_count sums over
    the target's atomic checks, so a graph satisfying several parts of a
    multi-part theorem is counted once per part; the campaign decides each
    relabelling class once and adds its size (its number of graphs) to
    hypothesis_count and exceptional_matches.  conclusion_failures / aborted
    carry graph6 strings, sorted, one per graph: a failing or aborted class
    lists each of its graphs by its own labeling.
    timings holds perf_counter seconds per stage (stats, gate, eigensolve,
    hypothesis, conclusion, recognize), summed over blocks and workers; the
    gate stage includes choosing the surviving rows, and the eigensolve stage
    keying them by class.
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


def _some_holds(key: str, stmts, stats: dict, value, size: int, k, tol: float) -> np.ndarray:
    """Rows where some statement on ``key`` holds with the key's column set to value."""
    vals = dict(stats, **{key: value})
    out = np.zeros(len(value), dtype=bool)
    for st in stmts:
        if st.quantity == key:
            out |= st.hypothesis(vals, size, k, tol)
    return out


def _may_pass(key, stmts, stats, size, bip, k, tol):
    """(keep, lo, sure) per row from the padded interval [lo - pad, hi + pad] of ``key``.

    keep: some statement on key holds at either end; sure: one holds at
    hi + pad; lo: the interval's unpadded lower end.
    """
    lo, hi = _radius_interval(key, stats, size, bip)
    pad = tol + _GATE_SLACK
    sure = _some_holds(key, stmts, stats, hi + pad, size, k, tol)
    return sure | _some_holds(key, stmts, stats, lo - pad, size, k, tol), lo, sure


def _triples(size: int, bip: bool):
    """The (e, delta, Delta) triples of order size, coded (e * order + delta) * order + Delta.

    Returns a mask of the codes some graph can have (not delta > Delta, and
    2e within [order delta, order Delta]) and those triples' statistics.
    """
    us, _, order = _bit_ends(size, bip)
    e, dmin, dmax = np.indices((len(us) + 1, order, order)).reshape(3, -1)
    real = (dmin <= dmax) & (order * dmin <= 2 * e) & (2 * e <= order * dmax)
    return real, {"e": e[real], "delta": dmin[real], "two_delta": 2 * dmin[real],
                  "Delta": dmax[real]}


@lru_cache(maxsize=256)
def _gate_table(stmts: tuple, key: str, size: int, bip: bool, k, tol: float) -> tuple:
    """``_may_pass``'s (keep, lo, sure) of the statements stmts (a tuple: the
    cache keys on them) for every (e, delta, Delta) a graph of the space can have.

    The interval of ``key`` and the hypotheses on it depend on these three
    integers only, so a block reads each row's columns by one lookup at its
    triple's code (``_triples``).  Triples no graph has are not kept.
    """
    real, stats = _triples(size, bip)
    table = (np.zeros(len(real), dtype=bool), np.zeros(len(real)), np.zeros(len(real), dtype=bool))
    for col, got in zip(table, _may_pass(key, stmts, stats, size, bip, k, tol)):
        col[real] = got
    return table


@lru_cache(maxsize=256)
def _edge_window(stmts: tuple, size: int, bip: bool, k, tol: float) -> Optional[bytes]:
    """The edge counts of the rows of order size that may pass some statement of stmts.

    A count is admitted when one of its (e, delta, Delta) triples passes the
    gate table of some radius statement or the hypothesis of a statement on
    e or two_delta; a row of another count fails every hypothesis.  Returns
    one bool per count 0..pairs, or None when every count is admitted or a
    statement on a minimum degree sum (which reads the bits) needs every row.
    """
    if any(st.quantity in _DEGREE_SUMS for st in stmts):
        return None
    real, stats = _triples(size, bip)
    keep = np.zeros(len(real), dtype=bool)
    for st in stmts:
        if st.quantity in SPECTRAL:
            keep |= _gate_table(stmts, st.quantity, size, bip, k, tol)[0]
        else:
            keep[real] |= st.hypothesis(stats, size, k, tol)
    order = _bit_ends(size, bip)[2]
    window = keep.reshape(-1, order * order).any(axis=1)
    return None if window.all() else window.tobytes()


def _gate(key: str, stmts: tuple, blk: _Block, k, tol: float):
    """Rows of a block that may pass some statement on ``key``.

    The interval gate is one table lookup per row (``_may_pass`` on the
    block's own rows past _GATE_TABLE_MAX).  When key has an "le" statement,
    the rows it keeps without being sure of are gated again, with the lower
    end of their interval raised to a floor: for a signless key first the
    degree floor (``_degree_floor``), then, on the rows left, the Rayleigh
    quotient (``_rayleigh``, ``_pair_rows`` rows at a time), which is never
    below it.  A row is cut when no statement on key holds at
    max(lo, floor) - pad.
    """
    stats, size, bip = blk.stats, blk.size, blk.bip
    us, _, order = _bit_ends(size, bip)
    # at: each row's position in the (keep, lo, sure) columns
    if (len(us) + 1) * order * order > _GATE_TABLE_MAX:
        keep, lo, sure = _may_pass(key, stmts, stats, size, bip, k, tol)
        at = np.arange(len(keep))
    else:
        at = (stats["e"] * order + stats["delta"]) * order + stats["Delta"]
        keep, lo, sure = _gate_table(stmts, key, size, bip, k, tol)
    keep = keep[at]
    if not any(st.quantity == key and st.relation == "le" for st in stmts):
        return keep
    step = _pair_rows(size, bip)
    pad = tol + _GATE_SLACK

    def rayleigh(rows):
        floor = np.empty(len(rows))
        for i in range(0, len(rows), step):
            part = rows[i : i + step]
            floor[i : i + step] = _rayleigh(key, size, bip, blk.rows_bits(part),
                                            stats["deg"].take(part, axis=1))
        return floor

    def degrees(rows):
        return _degree_floor(key, size, bip, stats["deg"].take(rows, axis=1), stats["e"][rows])

    rows = np.flatnonzero(keep & ~sure[at])
    lo = lo[at[rows]]
    for floor in (degrees, rayleigh) if RADII[key][1] else (rayleigh,):
        # a statement on key reads its column and delta alone (``Statement.holds_at``)
        value = np.maximum(lo, floor(rows)) - pad
        ok = _some_holds(key, stmts, {"delta": stats["delta"][rows]}, value, size, k, tol)
        keep[rows[~ok]] = False
        rows, lo = rows[ok], lo[ok]
    return keep


def _verify_blocks(target, space, k, tol, budget, start=0, stop=None) -> VerificationReport:
    """The campaign over the space's rows (the index range [start, stop) of
    an enumerated space): stats and gate per block, then the rows that
    survive, gathered over blocks of one order, through ``_eval_group``.

    A row survives when it passes the gate of some radius statement or the
    hypothesis of a statement on an integer quantity; every other row fails
    every hypothesis.  A windowed kind gives only the rows in the target's
    ``_edge_window``, and counts the others as processed.
    """
    stmts = tuple(statements_for(target))
    bip = stmts[0].domain == "bipartite"
    window = None
    if _space_kind(space).windowed:
        window = _edge_window(stmts, space.order_hint, bip, k, tol)
    report = VerificationReport(target, space.describe())
    clock = _Clock(report.timings)
    quantities = {st.quantity for st in stmts}
    integral = [st for st in stmts if st.quantity not in SPECTRAL]
    memos = defaultdict(dict)  # the call's per-class values (``_Classes``)
    pending = {}  # {(size, bip): [(bits, stats, gates) of some surviving rows]}
    for blk in _space_blocks(space, bip, start, stop, window):
        size, stats = blk.size, blk.stats
        report.processed += blk.span
        for key in quantities & set(_DEGREE_SUMS):  # min_ds or min_cross_ds
            stats[key] = _min_degree_sum(size, bip, stats["deg"], blk.rows_bits())
        clock.lap("stats")
        gates = {key: _gate(key, stmts, blk, k, tol)
                 for key in sorted(quantities & SPECTRAL)}
        survive = np.zeros(len(stats["e"]), dtype=bool)
        for mask in [*gates.values(), *(st.hypothesis(stats, size, k, tol) for st in integral)]:
            survive |= mask
        rows = np.flatnonzero(survive)
        clock.lap("gate")
        if len(rows):
            group = pending.setdefault((size, bip), [])
            group.append((blk.rows_bits(rows),
                          {name: col.take(rows, axis=-1) for name, col in stats.items()},
                          {key: gate[rows] for key, gate in gates.items()}))
            clock.lap("stats")
            if sum(len(bits) for bits, _, _ in group) >= _GROUP_ROWS:
                _eval_group(stmts, report, size, bip, group, k, tol, budget, memos, clock)
                group.clear()
    for (size, bip), group in pending.items():
        if group:
            _eval_group(stmts, report, size, bip, group, k, tol, budget, memos, clock)
    return report


def _eval_group(stmts, report, size: int, bip: bool, group: list, k, tol, budget,
                memos: dict, clock):
    """Radii, hypotheses and conclusions of surviving rows, one relabelling class at a time.

    group lists (bits, stats, gates) of the surviving rows of some blocks,
    gates holding, per radius, the rows its gate kept.  The rows are keyed
    once (``_row_classes``), and from then on the work is per class: every
    statistic and gate flag the statements read is a class invariant, so
    each class takes them from one of its rows, and its values come from that
    one ``_Classes``, kept in the call's memos and answered on the class's
    representative: first each radius over the classes its gate kept (NaN
    elsewhere, which fails every comparison), then, after each statement's
    mask, the questions below.  Hamiltonicity is asked of every class a
    "ham" conclusion or a "not_ham" check needs (such a statement's
    conclusion is "ham"), traceability only of the classes that are not
    Hamiltonian (a Hamiltonian graph is traceable).  A "not_ham" mask keeps
    the classes whose answer is "no" and reports the aborted ones.  A
    representative's graph is built once, and only for a graph check, a
    structural conclusion or a recognizer.  Counts add the class sizes; a
    failing or aborted class is expanded to its rows, each reported by the
    graph6 of its own bits.
    """
    bits = np.concatenate([b for b, _, _ in group])
    deg = np.concatenate([s["deg"] for _, s, _ in group], axis=-1)
    classes = _row_classes(size, bip, bits, deg, memos)
    weight = classes.sizes

    def column(cols):  # the value at a row of each class
        return (cols[0] if len(cols) == 1 else np.concatenate(cols))[classes.row]

    stats = {name: column([s[name] for _, s, _ in group]) for name in group[0][1] if name != "deg"}
    for key in group[0][2]:
        c = np.flatnonzero(column([g[key] for _, _, g in group]))
        stats[key] = np.full(classes.count, np.nan)
        stats[key][c] = classes.radii(key, c)
    clock.lap("eigensolve")
    active = np.zeros((len(stmts), classes.count), dtype=bool)  # statement-major
    for i, st in enumerate(stmts):
        active[i] = st.hypothesis(stats, size, k, tol)
    clock.lap("hypothesis")
    adj = _adjacency_rows(size, bip, classes.bits())
    graph = lru_cache(maxsize=None)(lambda c: _row_graph(size, bip, adj[c].tolist()))

    def on_graphs(answer):
        return lambda c: [answer(graph(j)) for j in c.tolist()]

    need = {q: active[[st.conclusion == q for st in stmts]].any(axis=0) for q in ("ham", "trace")}
    ham = np.full(classes.count, "", dtype="<U7")
    asked = np.flatnonzero(need["ham"] | need["trace"])
    ham[asked] = classes.verdicts("ham", budget, asked)
    trace = np.where(ham == "yes", ham, "")
    asked = np.flatnonzero(need["trace"] & (ham != "yes"))
    trace[asked] = classes.verdicts("trace", budget, asked)
    verdicts = {"ham": ham, "trace": trace}
    failed, aborted = np.zeros((2, classes.count), dtype=bool)
    for st, mask in zip(stmts, active):
        if st.graph_check == "not_ham":
            aborted |= mask & (ham == "aborted")
            mask &= ham == "no"
        elif st.graph_check:
            c = np.flatnonzero(mask)
            mask[c] = classes.values(st.graph_check, on_graphs(_GRAPH_CHECKS[st.graph_check]), c)
        c = np.flatnonzero(mask)
        report.hypothesis_count += int(weight[c].sum())
        if st.conclusion == "clique":
            bad = c[~classes.values(
                "clique", on_graphs(lambda g: clique_number(g) >= size - k), c)]
        elif st.conclusion == "biclique":
            bad = c[~classes.values(
                "biclique", on_graphs(lambda g: _biclique_conclusion(g, size, k)), c)]
        else:
            got = verdicts[st.conclusion][c]
            aborted[c[got == "aborted"]] = True
            no = c[got == "no"]
            bad = no[~classes.values(
                st.id, on_graphs(lambda g: _exceptional(st, g, size, k, clock)), no)]
            report.exceptional_matches += int(weight[no].sum() - weight[bad].sum())
        failed[bad] = True
    for out, hit in ((report.conclusion_failures, failed), (report.aborted, aborted)):
        if hit.any():
            out += _graph6_rows(size, bip, bits[hit[classes.of]])
    clock.lap("conclusion")


def _worker(args):
    return _verify_blocks(*args)


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
    _check_budget(oracle_budget)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    stmts = statements_for(target)
    if k is None and any(st.needs_k for st in stmts):
        raise ValueError(f"target {target} needs a k parameter")
    bip = _space_kind(space).bip  # None: a graph6 file serves either domain
    if bip is not None and {st.domain for st in stmts} != {"bipartite" if bip else "graph"}:
        raise ValueError(f"target {target} needs a "
                         f"{'plain-graph' if bip else 'balanced-bipartite'} space")
    for st in stmts:
        msg = st.refuses(space.order_hint, k)
        if msg:
            raise ValueError(msg)

    t0 = time.perf_counter()
    total = _space_index_total(space)
    if total is not None and jobs > 1:
        # past one range per index the split gains no range (and the bounds no memory)
        bounds = np.linspace(0, total, min(jobs, total) + 1, dtype=np.int64)
        tasks = [
            (target, space, k, tol, oracle_budget, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if a < b
        ]
        with multiprocessing.Pool(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            parts = pool.map(_worker, tasks)
        report = VerificationReport(target, space.describe())
        for part in parts:
            report.merge(part)
    else:
        report = _verify_blocks(target, space, k, tol, oracle_budget)
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
    Every row of the space that passes the filters takes its value and its
    verdict from its relabelling class (``_Classes.radii``,
    ``_Classes.verdicts``), and a block asks for verdicts only on the
    classes that can still reach the best value decided "no" so far.  Raises
    ValueError when the oracle aborted on a row that could reach the
    returned optimum, or on some row while none was decided "no".
    """
    space.validate()
    _check_tol(tol)
    _check_budget(oracle_budget)
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if constraint not in ("non_hamiltonian", "non_traceable"):
        raise ValueError(f"unknown constraint {constraint!r}")
    stat_key, sense = _OBJECTIVES[objective]
    question = "ham" if constraint == "non_hamiltonian" else "trace"
    sign = 1.0 if sense == "max" else -1.0  # a signed value is better when larger
    bip = space.is_bipartite_space
    if stat_key == "q_qc" and not bip:
        raise ValueError("min_q_qc needs a balanced-bipartite space")
    if stat_key == "rho_complement" and bip:
        raise ValueError("min_rho_complement needs a plain-graph space")

    # the best signed value decided "no", and the best whose run aborted
    best = reach = -np.inf
    kept = []  # (size, bits, signed values) of the rows decided "no"
    memos = defaultdict(dict)  # the call's per-class values (``_Classes``)
    for blk in _space_blocks(space, bip):
        rows = np.flatnonzero(blk.stats["delta"] >= (k if k is not None else 0))
        if not len(rows):
            continue
        size = blk.size
        bits = blk.rows_bits(rows)
        classes = _row_classes(size, bip, bits, blk.stats["deg"].take(rows, axis=1), memos)
        values = sign * classes.radii(stat_key)  # per class
        # a class more than tol below the best "no" so far holds no optimum
        ask = np.flatnonzero(best - values <= tol)
        status = classes.verdicts(question, oracle_budget, ask)
        reach = max(reach, values[ask[status == "aborted"]].max(initial=-np.inf))
        no = ask[status == "no"]
        if len(no):
            rows = np.flatnonzero(np.isin(classes.of, no))
            kept.append((size, bits[rows], values[classes.of[rows]]))
            best = max(best, values[no].max())
    if reach > -np.inf and best - reach <= tol:
        raise ValueError(f"the oracle aborted at budget {oracle_budget} on graphs that could "
                         f"reach the optimum; raise the oracle budget")
    if not kept:
        return None, []
    winners = [g6 for size, bits, values in kept
               for g6 in _graph6_rows(size, bip, bits[best - values <= tol])]
    return float(sign * best), sorted(winners)


# ---------------------------------------------------------------------------
# Certifier soundness sweep (acceptance criterion 8)
# ---------------------------------------------------------------------------

def _fired_rows(mode: str, classes: _Classes, stats: dict, tol: float) -> tuple:
    """(rows, step, exceptional): the rows whose ``certify_<mode>`` cascade
    fires, the step of the walk that fires and whether the verdict is
    "exceptional" (else "certified_positive"), one array entry per row.

    classes holds the rows' bits and stats their statistics.  The radii the
    cascade reads come from the classes (``_Classes.radii``).  For each
    k = delta(G) of the rows, a row fires at the first step of the walk whose
    precondition and ``Statement.holds_at`` pass, as ``certifier._walk``
    decides one graph.  The fired statement's exceptional families, which
    make the verdict "exceptional", are recognized once per (class, fired
    step) in the call (``_Classes.values``), on the labeled graph of the
    first row that fires there, and the answer holds for the class's other
    rows: recognition is isomorphism-invariant.
    """
    walk = _CERTIFIERS[mode][4]
    size, bip = classes.size, classes.bip
    cols = dict(stats)
    for key in {st.quantity for _, st in walk} & SPECTRAL:
        cols[key] = classes.radii(key)[classes.of]
    delta = cols["delta"]
    first = np.full(len(delta), -1)  # the step that fires, -1 while none has
    for k in np.unique(delta).tolist():
        for i, (_, st) in enumerate(walk):
            if st.admits(size, k):
                first[(first < 0) & (delta == k) & st.holds_at(cols, size, k, tol)] = i
    rows = np.flatnonzero(first >= 0)
    hit = np.zeros(len(delta), dtype=bool)
    for i, (name, st) in enumerate(walk):
        fired = rows[first[rows] == i]
        c, at, back = np.unique(classes.of[fired], return_index=True, return_inverse=True)

        def solve(new, st=st, seen=fired[at]):  # on the first fired row of each new class
            seen = seen[np.searchsorted(c, new)]
            return [st.exception(g, size, k) is not None for g, k in zip(
                _graphs_from_bits(size, bip, classes.rows[seen]), delta[seen].tolist())]

        hit[fired] = classes.values(("exception", name), solve, c)[back]
    return rows, first[rows], hit[rows]


def certifier_soundness_sweep(
    ns=(3, 4, 5, 6, 7),
    bip_sides=(2, 3, 4),
    tol: float = DEFAULT_TOL,
    oracle_budget: int = DEFAULT_BUDGET,
) -> dict:
    """Run the certifier cascades over every labeled graph / balanced bipartite graph in the ranges.

    Checks that no certified_positive graph is oracle-negative and no
    exceptional graph is oracle-positive.  The Hamiltonicity cascade runs on
    every graph of order n in ns, the bipartite one on every graph of side
    in bip_sides, a block at a time (``_fired_rows``): each row gets the
    verdict and theorem its certifier would give, with the radii taken per
    relabelling class and the exceptional families recognized once per
    class and fired step in the call, on the labeled graph of its first
    fired row, and no ``Certificate`` is built.  The oracle's answer
    for a fired row comes from its class (``_Classes.verdicts``), as in a
    campaign.  Returns a summary dict with any violations and aborts as
    graph6 strings.  Every order and side is checked against the
    enumeration caps and its certifier's minimum order before any work.
    """
    _check_tol(tol)
    _check_budget(oracle_budget)
    runs = [("hamiltonicity", SearchSpace.all_labeled(n)) for n in ns]
    runs += [("bipartite_hamiltonicity", SearchSpace.balanced_bipartite_labeled(side))
             for side in bip_sides]
    for mode, space in runs:
        space.validate()
        if space.order_hint < _CERTIFIERS[mode][1]:
            raise ValueError(_CERTIFIERS[mode][2])
    summary = {**dict.fromkeys(("graphs", "bipartite_graphs", "certified_positive", "exceptional",
                                "inconclusive"), 0), "violations": [], "aborted": []}
    memos = defaultdict(dict)  # the call's per-class values (``_Classes``)
    for mode, space in runs:
        bip = space.is_bipartite_space
        walk = _CERTIFIERS[mode][4]
        for blk in _space_blocks(space, bip):
            size, bits = blk.size, blk.rows_bits()
            classes = _row_classes(size, bip, bits, blk.stats["deg"], memos)
            rows, step, exceptional = _fired_rows(mode, classes, blk.stats, tol)
            summary["bipartite_graphs" if bip else "graphs"] += len(bits)
            summary["inconclusive"] += len(bits) - len(rows)
            fired_classes, at = np.unique(classes.of[rows], return_inverse=True)
            status = classes.verdicts("ham", oracle_budget, fired_classes)[at]
            summary["aborted"] += _graph6_rows(size, bip, bits[rows[status == "aborted"]])
            summary["exceptional"] += int(exceptional.sum())
            summary["certified_positive"] += int((~exceptional).sum())
            # an exceptional row expects "no" from the oracle, a certified one "yes"
            wrong = (status != "aborted") & (status != np.where(exceptional, "no", "yes"))
            for i in np.flatnonzero(wrong).tolist():
                summary["violations"].append({
                    "graph6": _graph6_rows(size, bip, bits[rows[i : i + 1]])[0],
                    "kind": ("exceptional_but_hamiltonian" if exceptional[i]
                             else "certified_not_hamiltonian"),
                    "theorem": walk[step[i]][0]})
    return summary

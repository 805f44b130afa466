"""Exact decision procedures: Hamilton cycle/path, cliques, bicliques.

The Hamilton-cycle search is backtracking from a minimum-degree start vertex
with three sound prunes: (i) an unvisited vertex with fewer than two usable
slots kills the branch, (ii) the unvisited region must stay reachable from
the current endpoint, (iii) at most one unvisited vertex may depend on the
path endpoints alone.  A subset dynamic program (exact, 2^n states) takes
over for orders 12..21 when the backtracking probe exhausts its node budget,
so structured family instances are decided with a worst-case guarantee.
Traceability is Hamiltonicity of G v K_1, decided by the same search, so the
DP window serves G of order 11..20 through the join.
Every "yes" witness is checked with ``is_valid_cycle`` / ``is_valid_path``
before it is returned; a witness that fails the check raises RuntimeError.

``_held_karp_batch`` decides many graphs of one small order at once: the
same Held-Karp subset DP, run as one numpy "pull" step per subset size
across all rows.  The harness gives it the relabelling-class representatives
of order <= 16 of every campaign, extremal search and soundness sweep, and
calls the scalar search only above that order.  Its index tables are built
on every call.  Its witnesses are rebuilt from the DP table and validated
the same way.

Budget exhaustion is an explicit "aborted" outcome, never a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, as_graph, bits, complete_graph, join

__all__ = [
    "DEFAULT_BUDGET",
    "OracleResult",
    "is_hamiltonian",
    "is_traceable",
    "clique_number",
    "contains_biclique",
    "is_valid_cycle",
    "is_valid_path",
]

DEFAULT_BUDGET = 10**8


def _check_budget(budget: int) -> int:
    """budget itself; ValueError unless it is an int >= 0 (0 decides only the trivial cases)."""
    if not (isinstance(budget, (int, np.integer)) and budget >= 0):
        raise ValueError(f"oracle budget must be an int >= 0, got {budget!r}")
    return budget


# Backtracking probe before the subset DP takes over (orders 12..21).
_PROBE_BUDGET = 50_000
_DP_MIN, _DP_MAX = 12, 21


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact search.

    status is "yes", "no", or "aborted" (node budget exhausted with no
    verdict).  witness is a vertex order: a Hamilton cycle (consecutive
    cyclically adjacent) or path, present only on "yes".
    """

    status: str
    witness: Optional[tuple[int, ...]]
    nodes: int
    method: str

    @property
    def yes(self) -> bool:
        return self.status == "yes"

    @property
    def decided(self) -> bool:
        return self.status in ("yes", "no")


class _BudgetExceeded(Exception):
    pass


def _ham_backtrack(adj: list[int], n: int, budget: int):
    """Returns (found, cycle_or_None, nodes); raises _BudgetExceeded."""
    full = (1 << n) - 1
    s = min(range(n), key=lambda x: (adj[x].bit_count(), x))
    sbit = 1 << s
    path = [s]
    counter = [0]

    def dfs(cur: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[cur] & sbit)
        counter[0] += 1
        if counter[0] > budget:
            raise _BudgetExceeded
        unv = full & ~visited
        endpoints = sbit | (1 << cur)
        lonely = 0
        it = unv
        while it:
            b = it & -it
            it ^= b
            row = adj[b.bit_length() - 1]
            if (row & (unv | endpoints)).bit_count() < 2:
                return False
            if not row & unv:
                lonely += 1
                if lonely > 1:
                    return False
        frontier = adj[cur] & unv
        if not frontier:
            return False
        reach = 0
        while frontier:
            reach |= frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & unv & ~reach
        if reach != unv:
            return False
        cand = adj[cur] & unv
        while cand:
            b = cand & -cand
            cand ^= b
            w = b.bit_length() - 1
            path.append(w)
            if dfs(w, visited | b):
                return True
            path.pop()
        return False

    found = dfs(s, sbit)
    return found, (list(path) if found else None), counter[0]


def _ham_subset_dp(adj: list[int], n: int):
    """Held-Karp reachability: dp[mask] = endpoint set of paths from vertex 0."""
    full = (1 << n) - 1
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n, 2):
        ends = dp[mask]
        if not ends:
            continue
        rest = full & ~mask
        while ends:
            b = ends & -ends
            ends ^= b
            ext = adj[b.bit_length() - 1] & rest
            while ext:
                wb = ext & -ext
                ext ^= wb
                dp[mask | wb] |= wb
    closers = dp[full] & adj[0]
    if not closers:
        return False, None
    cyc = []
    mask = full
    vb = closers & -closers
    while mask != 1:
        v = vb.bit_length() - 1
        cyc.append(v)
        mask &= ~vb
        prev = dp[mask] & adj[v]
        vb = prev & -prev
    cyc.append(0)
    cyc.reverse()
    return True, cyc


def _checked(g: Graph, found: bool, cyc, nodes: int, method: str) -> OracleResult:
    """A decided result; a "yes" must carry a witness that passes is_valid_cycle."""
    if not found:
        return OracleResult("no", None, nodes, method)
    if not is_valid_cycle(g, cyc):
        raise RuntimeError(f"{method} returned an invalid Hamilton cycle {cyc}")
    return OracleResult("yes", tuple(cyc), nodes, method)


def is_hamiltonian(g, budget: int = DEFAULT_BUDGET, method: str = "auto") -> OracleResult:
    """Exact Hamilton-cycle decision with witness.

    method: "auto" (backtracking, subset DP fallback for orders 12..21),
    "backtracking", or "dp".
    """
    _check_budget(budget)
    g = as_graph(g)
    n = g.n
    if n < 3:
        return OracleResult("no", None, 0, "trivial")
    if any(g.degree(v) < 2 for v in range(n)) or not g.is_connected():
        return OracleResult("no", None, 0, "trivial")
    adj = list(g.adj)
    if method == "dp":
        found, cyc = _ham_subset_dp(adj, n)
        return _checked(g, found, cyc, 1 << n, "subset_dp")
    probe = min(budget, _PROBE_BUDGET) if (method == "auto" and _DP_MIN <= n <= _DP_MAX) else budget
    try:
        found, cyc, nodes = _ham_backtrack(adj, n, probe)
    except _BudgetExceeded:
        if method == "auto" and _DP_MIN <= n <= _DP_MAX:
            found, cyc = _ham_subset_dp(adj, n)
            return _checked(g, found, cyc, probe + (1 << n), "subset_dp")
        return OracleResult("aborted", None, probe, "backtracking")
    return _checked(g, found, cyc, nodes, "backtracking")


def is_traceable(g, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact Hamilton-path decision: G is traceable iff G v K_1 is Hamiltonian.

    The subset-DP fallback covers G of order 11..20 (joins of order 12..21).
    """
    _check_budget(budget)
    g = as_graph(g)
    if g.n < 1:
        raise ValueError("traceability undefined on the 0-vertex graph")
    if g.n == 1:
        return OracleResult("yes", (0,), 0, "trivial")
    apex = g.n
    res = is_hamiltonian(join(g, complete_graph(1)), budget=budget)
    if res.status != "yes":
        return OracleResult(res.status, None, res.nodes, res.method)
    cyc = list(res.witness)
    i = cyc.index(apex)
    path = cyc[i + 1 :] + cyc[:i]
    if not is_valid_path(g, path):
        raise RuntimeError(f"{res.method} returned an invalid Hamilton path {path}")
    return OracleResult("yes", tuple(path), res.nodes, res.method)


# Rows per block of the batched DP are chosen so that one (pairs, rows)
# uint16 array of the widest subset size stays near this many bytes.
_HK_SCRATCH = 1 << 21
# The largest order the batched DP takes: its state bitmasks are uint16.
_HK_MAX_ORDER = 16


def _held_karp_tables(order: int, cycle: bool):
    """Index tables of the batched subset DP for one (order, cycle).

    State bit j stands for vertex j + off, where off = 1 for cycles (their
    paths start at vertex 0, which is never in a state) and 0 for paths.
    For each subset size, ``ts`` lists the states of that size; the pairs
    (t, j) with j in t, grouped by t in ascending j, give ``prev`` = t - j,
    ``vs`` = the vertex of j and ``vbit`` = 1 << vs as a uint16 column.
    """
    off = 1 if cycle else 0
    m = order - off
    states = np.arange(1 << m)
    member = (states[:, None] >> np.arange(m)) & 1
    size = member.sum(axis=1)
    layers = []
    for s in range(1, m + 1):
        ts = states[size == s]
        t_idx, j = np.nonzero(member[ts])
        vs = j + off
        layers.append((ts, ts[t_idx] ^ (1 << j), vs, (1 << vs).astype(np.uint16)[:, None]))
    return off, m, layers


def _valid_orders(adj: np.ndarray, wit: np.ndarray, cycle: bool) -> np.ndarray:
    """Row-wise witness check: wit[r] is a permutation and consecutive vertices are adjacent."""
    rows, order = wit.shape
    inside = ((wit >= 0) & (wit < order)).all(axis=1)
    w = np.where(inside[:, None], wit, 0)
    # order powers of two below 2^order sum to 2^order - 1 only when they are distinct
    perm = inside & ((1 << w).sum(axis=1) == (1 << order) - 1)
    here, nxt = (w, w[:, (np.arange(order) + 1) % order]) if cycle else (w[:, :-1], w[:, 1:])
    steps = (adj.reshape(-1)[np.arange(rows)[:, None] * order + here] >> nxt) & 1
    return perm & steps.all(axis=1)


def _held_karp_batch(adj, order: int, cycle: bool):
    """Hamilton-cycle (cycle=True) or Hamilton-path decisions for many graphs of one order.

    adj is an (R, order) array of neighbourhood bitmasks, order <= 16.
    dp[t, r] is the set of vertices v such that row r has a path through
    exactly the vertex set t ending at v (starting at vertex 0 for cycles,
    anywhere for paths).  One vectorised pull step per subset size fills
    it: v is an end of t when some end of t - v is adjacent to v.  Rows run
    in blocks so the scratch arrays stay at a few MiB.

    Returns (found, witness): found is a bool array of length R, witness an
    (R, order) array holding a Hamilton cycle or path of every found row
    (-1 elsewhere), rebuilt by walking dp back and validated against adj;
    a witness that fails validation raises RuntimeError.
    """
    if not 1 <= order <= _HK_MAX_ORDER:
        raise ValueError(f"batched Held-Karp supports orders 1..{_HK_MAX_ORDER}, got {order}")
    adj = np.asarray(adj, dtype=np.uint16).reshape(-1, order)
    rows = len(adj)
    found = np.zeros(rows, dtype=bool)
    witness = np.full((rows, order), -1, dtype=np.int64)
    if cycle and order < 3:
        return found, witness
    if order == 1:
        found[:] = True
        witness[:] = 0
        return found, witness
    off, m, layers = _held_karp_tables(order, cycle)
    powers = 1 << np.arange(order)
    step = max(1, _HK_SCRATCH // (2 * max(len(layer[1]) for layer in layers)))
    for lo in range(0, rows, step):
        a = adj[lo : lo + step]
        at = np.ascontiguousarray(a.T)
        dp = np.empty((1 << m, len(a)), dtype=np.uint16)
        dp[0] = 1 if cycle else (1 << order) - 1
        for ts, prev, vs, vbit in layers:
            hit = (dp[prev] & at[vs]) != 0
            # the bits vbit of one state are distinct, so their sum is their OR
            dp[ts] = (hit * vbit).reshape(len(ts), -1, len(a)).sum(axis=1, dtype=np.uint16)
        ends = dp[-1] & at[0] if cycle else dp[-1]
        yes = np.flatnonzero(ends)
        if not len(yes):
            continue
        # walk dp back from the last vertex, one position per step, on int64
        # values (e & -e needs a signed type)
        a = a.astype(np.int64)
        flat_dp, flat_a = dp.reshape(-1), a.reshape(-1)
        wit = np.zeros((len(yes), order), dtype=np.int64)
        t = np.full(len(yes), (1 << m) - 1)
        e = ends[yes].astype(np.int64)
        for pos in range(order - 1, off - 1, -1):
            # the lowest vertex of e: its bit exceeds exactly that many powers of two
            v = ((e & -e)[:, None] > powers).sum(axis=1)
            wit[:, pos] = v
            t ^= 1 << (v - off)
            if pos > off:
                e = flat_dp[t * len(a) + yes] & flat_a[yes * order + v]
        if not _valid_orders(a[yes], wit, cycle).all():
            raise RuntimeError("batched Held-Karp rebuilt an invalid witness")
        found[lo + yes] = True
        witness[lo + yes] = wit
    return found, witness


def clique_number(g) -> int:
    """Exact clique number by branch-and-bound with greedy-colouring bounds."""
    g = as_graph(g)
    n = g.n
    if n < 1:
        raise ValueError("clique number undefined on the 0-vertex graph")
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    adj = [0] * n
    for i, v in enumerate(order):
        m = 0
        for u in bits(g.adj[v]):
            m |= 1 << pos[u]
        adj[i] = m
    best = [1]

    def expand(size: int, cand: int):
        if not cand:
            if size > best[0]:
                best[0] = size
            return
        seq = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                seq.append((v, color))
                uncolored ^= b
                avail &= ~(adj[v] | b)
        for v, c in reversed(seq):
            if size + c <= best[0]:
                return
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best[0]


def contains_biclique(b, s: int, t: int) -> bool:
    """True iff some s-subset of X and t-subset of Y induce K_{s,t} in b.

    Branch-and-bound over Y-subsets, intersecting X-neighbourhood bitmasks.
    """
    if s < 0 or t < 0:
        raise ValueError("subset sizes must be nonnegative")
    if s > b.nx or t > b.ny:
        raise ValueError(f"requested K_{{{s},{t}}} exceeds side sizes {b.nx}x{b.ny}")
    if s == 0 or t == 0:
        return True
    cols = sorted(b.cols(), key=lambda m: -m.bit_count())

    def rec(idx: int, chosen: int, inter: int) -> bool:
        if chosen == t:
            return True
        if b.ny - idx < t - chosen:
            return False
        for i in range(idx, b.ny):
            ni = inter & cols[i]
            if ni.bit_count() >= s and rec(i + 1, chosen + 1, ni):
                return True
        return False

    return rec(0, 0, (1 << b.nx) - 1)


def is_valid_cycle(g: Graph, order) -> bool:
    """Witness check: covers every vertex once, cyclically adjacent."""
    order = list(order)
    if len(order) != g.n or g.n < 3 or sorted(order) != list(range(g.n)):
        return False
    return all(g.has_edge(order[i], order[(i + 1) % g.n]) for i in range(g.n))


def is_valid_path(g: Graph, order) -> bool:
    order = list(order)
    if len(order) != g.n or sorted(order) != list(range(g.n)):
        return False
    return all(g.has_edge(order[i], order[i + 1]) for i in range(g.n - 1))

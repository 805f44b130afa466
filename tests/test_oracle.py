import itertools

import numpy as np
import pytest

from spectralham.families import FamilySpec, construct
from spectralham.graphs import (
    BipartiteGraph,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
import spectralham.oracle as oracle
from spectralham.harness import bipartite_from_index, graph_from_index
from spectralham.oracle import (
    OracleResult,
    _HK_MAX_ORDER,
    _held_karp_batch,
    _valid_orders,
    clique_number,
    contains_biclique,
    is_hamiltonian,
    is_traceable,
    is_valid_cycle,
    is_valid_path,
)

from conftest import brute_clique_number, brute_hamiltonian, brute_traceable, gnp

PETERSEN = build_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_hamiltonian_knowns():
    res = is_hamiltonian(cycle_graph(6))
    assert res.status == "yes" and is_valid_cycle(cycle_graph(6), res.witness)
    assert is_hamiltonian(construct(FamilySpec("N", n=7, k=2))).status == "no"
    assert is_hamiltonian(PETERSEN).status == "no"
    assert is_hamiltonian(complete_graph(2)).status == "no"
    assert is_hamiltonian(empty_graph(1)).status == "no"


def test_traceable_knowns():
    res = is_traceable(path_graph(5))
    assert res.status == "yes" and is_valid_path(path_graph(5), res.witness)
    barl = construct(FamilySpec("barL", n=6, k=0))
    assert is_traceable(barl).status == "no"
    barn = construct(FamilySpec("barN", n=8, k=1))
    assert is_traceable(barn).status == "no"
    assert is_traceable(empty_graph(1)).status == "yes"
    assert is_traceable(complete_graph(2)).status == "yes"
    assert is_traceable(empty_graph(2)).status == "no"
    with pytest.raises(ValueError):
        is_traceable(empty_graph(0))


def test_oracle_agrees_with_brute_force_exhaustive_n6():
    for n in range(1, 7):
        for idx in range(1 << (n * (n - 1) // 2)):
            g = graph_from_index(n, idx)
            res = is_hamiltonian(g)
            assert res.decided
            assert (res.status == "yes") == brute_hamiltonian(g), g.edges()
            if res.witness:
                assert is_valid_cycle(g, res.witness)


def test_oracle_agrees_with_brute_force_random():
    rng = np.random.default_rng(61)
    for _ in range(150):
        n = int(rng.integers(3, 8))
        g = gnp(n, float(rng.uniform(0.2, 0.9)), rng)
        assert (is_hamiltonian(g).status == "yes") == brute_hamiltonian(g)
        assert (is_traceable(g).status == "yes") == brute_traceable(g)
    # heavier n = 7 sample against the permanent-style scan
    for _ in range(1500):
        g = gnp(7, float(rng.uniform(0.15, 0.95)), rng)
        assert (is_hamiltonian(g).status == "yes") == brute_hamiltonian(g)


def test_dp_and_backtracking_agree():
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(8, 14))
        g = gnp(n, float(rng.uniform(0.15, 0.5)), rng)
        a = is_hamiltonian(g, method="backtracking")
        b = is_hamiltonian(g, method="dp")
        if a.decided:
            assert a.status == b.status
        if b.witness:
            assert is_valid_cycle(g, b.witness)


def test_dp_fallback_on_structured_instances():
    g = construct(FamilySpec("N", n=14, k=2))
    res = is_hamiltonian(g)
    assert res.status == "no" and res.method == "subset_dp"


def test_traceable_dp_window_uses_the_asked_order():
    # barN_20^5 is not traceable; the backtracking probe alone aborts on it,
    # so the answer must come from the subset DP on its order-21 join with K_1
    g = construct(FamilySpec("barN", n=20, k=5))
    res = is_traceable(g)
    assert res.status == "no" and res.method == "subset_dp"


def test_budget_abort_is_explicit():
    g = cycle_graph(10)
    res = is_hamiltonian(g, budget=0)
    assert res.status == "aborted" and res.witness is None


def test_edge_addition_monotonicity():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        g = gnp(n, 0.3, rng)
        was = is_hamiltonian(g).status == "yes"
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        for u, v in non_edges:
            g = g.with_edge(u, v)
            now = is_hamiltonian(g).status == "yes"
            assert now or not was
            was = now


def test_dirac_consistency():
    rng = np.random.default_rng(73)
    count = 0
    while count < 60:
        n = int(rng.integers(3, 11))
        g = gnp(n, 0.7, rng)
        if 2 * min(g.degrees()) >= n:
            count += 1
            assert is_hamiltonian(g).status == "yes"


def test_moon_moser_delta_consistency():
    rng = np.random.default_rng(79)
    count = 0
    while count < 60:
        side = int(rng.integers(2, 8))
        rows = tuple(int(rng.integers(0, 1 << side)) for _ in range(side))
        b = BipartiteGraph(side, side, rows)
        if 2 * b.min_degree() > side:
            count += 1
            assert is_hamiltonian(b.to_graph()).status == "yes"


def test_clique_number():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(construct(FamilySpec("N", n=7, k=2))) == 5
    rng = np.random.default_rng(83)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        g = gnp(n, float(rng.uniform(0.2, 0.9)), rng)
        assert clique_number(g) == brute_clique_number(g)


def _brute_biclique(b: BipartiteGraph, s: int, t: int) -> bool:
    if s == 0 or t == 0:
        return True
    for xs in itertools.combinations(range(b.nx), s):
        for ys in itertools.combinations(range(b.ny), t):
            if all(b.has_edge(i, j) for i in xs for j in ys):
                return True
    return False


def test_contains_biclique():
    k33 = complete_bipartite_graph(3, 3)
    assert contains_biclique(k33, 3, 3)
    b42 = construct(FamilySpec("B", n=4, k=2))
    assert contains_biclique(b42, 4, 2)
    assert not contains_biclique(b42, 3, 3)
    with pytest.raises(ValueError):
        contains_biclique(k33, 4, 1)
    rng = np.random.default_rng(89)
    for _ in range(120):
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rows = tuple(int(rng.integers(0, 1 << b)) for _ in range(a))
        bg = BipartiteGraph(a, b, rows)
        s, t = int(rng.integers(0, a + 1)), int(rng.integers(0, b + 1))
        assert contains_biclique(bg, s, t) == _brute_biclique(bg, s, t)


def test_witness_validators_reject_bad_orders():
    c6 = cycle_graph(6)
    assert not is_valid_cycle(c6, [0, 1, 2, 3, 4])  # wrong length
    assert not is_valid_cycle(c6, [0, 2, 4, 1, 3, 5])  # non-adjacent steps
    assert is_valid_path(path_graph(4), [0, 1, 2, 3])
    assert not is_valid_path(path_graph(4), [0, 2, 1, 3])


def _check_batch(graphs, expected_cycle, expected_path):
    """Run the batched kernel on graphs of one order; compare and validate witnesses."""
    n = graphs[0].n
    adj = np.array([g.adj for g in graphs], dtype=np.int64).reshape(-1, n)
    for cycle, expected, valid in (
        (True, expected_cycle, is_valid_cycle),
        (False, expected_path, is_valid_path),
    ):
        found, witness = _held_karp_batch(adj, n, cycle)
        for g, f, w in zip(graphs, found, witness):
            assert bool(f) == expected(g), (cycle, g.edges())
            if f:
                assert valid(g, w.tolist())
            else:
                assert (w == -1).all()


def _scalar_cycle(g):
    return is_hamiltonian(g).status == "yes"


def _scalar_path(g):
    return is_traceable(g).status == "yes"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_held_karp_matches_scalar_exhaustive(n):
    graphs = [graph_from_index(n, idx) for idx in range(1 << (n * (n - 1) // 2))]
    _check_batch(graphs, _scalar_cycle, _scalar_path)


@pytest.mark.parametrize("side", [2, 3])
def test_batched_held_karp_matches_scalar_bipartite(side):
    graphs = [bipartite_from_index(side, idx).to_graph() for idx in range(1 << (side * side))]
    _check_batch(graphs, _scalar_cycle, _scalar_path)


def test_batched_held_karp_matches_brute_force_n7():
    rng = np.random.default_rng(113)
    graphs = [graph_from_index(7, int(i)) for i in rng.integers(0, 1 << 21, size=500)]
    _check_batch(graphs, brute_hamiltonian, brute_traceable)


@pytest.mark.parametrize("n, bip", [(8, False), (5, True)])
def test_batched_held_karp_matches_scalar_sample(n, bip):
    rng = np.random.default_rng(127)
    if bip:
        graphs = [bipartite_from_index(n, int(i)).to_graph()
                  for i in rng.integers(0, 1 << (n * n), size=2000)]
    else:
        graphs = [graph_from_index(n, int(i)) for i in rng.integers(0, 1 << 28, size=2000)]
    _check_batch(graphs, _scalar_cycle, _scalar_path)


def test_batched_held_karp_small_orders_and_blocks(monkeypatch):
    found, witness = _held_karp_batch(np.zeros((3, 1), dtype=np.int64), 1, False)
    assert found.all() and (witness == 0).all()
    assert not _held_karp_batch(np.zeros((2, 1), dtype=np.int64), 1, True)[0].any()
    k2 = np.array([[0b10, 0b01]])
    assert not _held_karp_batch(k2, 2, True)[0].any()
    assert _held_karp_batch(k2, 2, False)[0].all()
    with pytest.raises(ValueError):
        _held_karp_batch(np.zeros((1, 17), dtype=np.int64), 17, True)
    # tiny row blocks give the same verdicts as one block
    rng = np.random.default_rng(131)
    graphs = [graph_from_index(6, int(i)) for i in rng.integers(0, 1 << 15, size=300)]
    adj = np.array([g.adj for g in graphs])
    whole = _held_karp_batch(adj, 6, True)
    monkeypatch.setattr(oracle, "_HK_SCRATCH", 1)
    blocked = _held_karp_batch(adj, 6, True)
    assert (whole[0] == blocked[0]).all() and (whole[1] == blocked[1]).all()


def test_batched_witness_validation_rejects_bad_orders():
    c5 = np.array([cycle_graph(5).adj])
    assert _valid_orders(c5, np.array([[0, 1, 2, 3, 4]]), True).all()
    assert not _valid_orders(c5, np.array([[0, 2, 1, 3, 4]]), True).any()  # non-adjacent
    assert not _valid_orders(c5, np.array([[0, 1, 2, 3, 3]]), True).any()  # not a permutation
    assert not _valid_orders(c5, np.array([[0, 1, 2, 3, -1]]), False).any()
    p4 = np.array([path_graph(4).adj])
    assert _valid_orders(p4, np.array([[0, 1, 2, 3]]), False).all()
    assert not _valid_orders(p4, np.array([[0, 1, 2, 3]]), True).any()  # 3-0 is no edge


def test_held_karp_tables_cache_is_bounded():
    # the order-16 tables alone hold 14 MiB; a campaign pass's three stay cached
    tables = oracle._held_karp_tables
    for order in range(9, _HK_MAX_ORDER + 1):
        for cycle in (True, False):
            tables(order, cycle)
    info = tables.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    working_set = ((7, True), (7, False), (8, True))
    for order, cycle in working_set:
        tables(order, cycle)
    hits = tables.cache_info().hits
    for order, cycle in working_set:
        tables(order, cycle)
    assert tables.cache_info().hits == hits + len(working_set)


def test_scalar_oracle_rejects_invalid_witness(monkeypatch):
    c6 = cycle_graph(6)
    monkeypatch.setattr(oracle, "_ham_backtrack", lambda adj, n, budget: (True, [0, 1, 2, 3, 5, 4], 1))
    with pytest.raises(RuntimeError, match="invalid Hamilton cycle"):
        is_hamiltonian(c6)
    with pytest.raises(RuntimeError, match="invalid Hamilton cycle"):
        is_traceable(path_graph(6))
    monkeypatch.setattr(oracle, "_ham_subset_dp", lambda adj, n: (True, list(range(n - 1))))
    with pytest.raises(RuntimeError, match="invalid Hamilton cycle"):
        is_hamiltonian(c6, method="dp")
    # a path that is not one, handed over by the cycle search on G v K_1
    monkeypatch.setattr(
        oracle, "is_hamiltonian",
        lambda g, budget=0: OracleResult("yes", (6, 0, 2, 1, 3, 4, 5), 1, "backtracking"),
    )
    with pytest.raises(RuntimeError, match="invalid Hamilton path"):
        is_traceable(path_graph(6))

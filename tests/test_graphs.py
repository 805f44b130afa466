import numpy as np
import pytest

from spectralham.graphs import (
    Graph6Error,
    bipartite_from_graph,
    bipartition,
    build_bipartite,
    build_graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    join,
    k_copies,
    parse_edge_list,
    path_graph,
    quasi_complement,
)

from conftest import gnp


def test_build_graph_basics():
    g = build_graph(3, [])
    assert g.edge_count == 0
    c5 = cycle_graph(5)
    assert c5.degrees() == [2] * 5 and c5.edge_count == 5
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert k4.edge_count == 6
    # duplicates collapse
    assert build_graph(3, [(0, 1), (1, 0), (0, 1)]).edge_count == 1


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_join_union_edge_counts():
    # K_1 v (K_2 + K_2) is the L-family graph with n=5, k=2: 6 edges
    l52 = join(complete_graph(1), disjoint_union(complete_graph(2), complete_graph(2)))
    assert l52.n == 5 and l52.edge_count == 6
    # canonical L_5^1 = K_1 v (K_1 + K_3) has 7 edges
    l51 = join(complete_graph(1), disjoint_union(complete_graph(1), complete_graph(3)))
    assert l51.edge_count == 7
    rng = np.random.default_rng(7)
    for _ in range(50):
        g1 = gnp(int(rng.integers(1, 6)), 0.5, rng)
        g2 = gnp(int(rng.integers(1, 6)), 0.5, rng)
        j = join(g1, g2)
        assert j.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n
        u = disjoint_union(g1, g2)
        assert u.edge_count == g1.edge_count + g2.edge_count


def test_join_labels_first_operand_first():
    j = join(path_graph(2), empty_graph(1))
    assert j.has_edge(0, 1) and j.has_edge(0, 2) and j.has_edge(1, 2)


def test_complement_involution_and_count():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = gnp(int(rng.integers(1, 9)), 0.4, rng)
        gc = complement(g)
        assert complement(gc) == g
        assert g.edge_count + gc.edge_count == g.n * (g.n - 1) // 2
    assert complement(complete_graph(5)).edge_count == 0


def test_k_copies():
    g = k_copies(3, complete_graph(2))
    assert g.n == 6 and g.edge_count == 3
    with pytest.raises(ValueError):
        k_copies(0, complete_graph(2))


def test_quasi_complement():
    k33 = complete_bipartite_graph(3, 3)
    minus_pm = build_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3) if i != j])
    qc = quasi_complement(minus_pm)
    assert qc.edge_count == 3 and all(qc.has_edge(i, i) for i in range(3))
    assert quasi_complement(qc).rows == minus_pm.rows
    assert quasi_complement(k33).edge_count == 0
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rows = tuple(int(rng.integers(0, 1 << b)) for _ in range(a))
        from spectralham.graphs import BipartiteGraph

        bg = BipartiteGraph(a, b, rows)
        assert bg.edge_count + quasi_complement(bg).edge_count == a * b


def test_degree_profile():
    degs, delta, e = degree_profile(cycle_graph(5))
    assert (degs, delta, e) == ([2] * 5, 2, 5)
    degs, delta, e = degree_profile(complete_bipartite_graph(2, 3).to_graph())
    assert sorted(degs) == [2, 2, 2, 3, 3] and delta == 2 and e == 6
    with pytest.raises(ValueError):
        degree_profile(empty_graph(0))


def test_bipartition():
    assert bipartition(cycle_graph(6)) == ({0, 2, 4}, {1, 3, 5})
    assert bipartition(cycle_graph(5)) is None
    g = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert bipartition(g) == ({0, 1}, {2, 3, 4})


def test_bipartite_from_graph_roundtrip():
    b = complete_bipartite_graph(2, 3)
    g = b.to_graph()
    b2 = bipartite_from_graph(g)
    assert b2.edge_count == 6 and {b2.nx, b2.ny} == {2, 3}
    with pytest.raises(ValueError):
        bipartite_from_graph(cycle_graph(5))


def test_bipartite_from_graph_balances_by_components():
    from spectralham.harness import random_model

    # E?b_: x0..x2 / y0..y2 with y0 isolated; the default colouring puts it on X
    g = graph6_decode("E?b_")
    assert [len(side) for side in bipartition(g)] == [4, 2]
    b = bipartite_from_graph(g)
    assert (b.nx, b.ny, b.edge_count) == (3, 3, 4)
    # a colouring that is already balanced is kept
    c6 = cycle_graph(6)
    assert bipartite_from_graph(c6).rows == bipartite_from_graph(c6, bipartition(c6)).rows
    # every balanced bipartite graph comes back balanced
    graphs = list(random_model("bipartite_gnp", side=3, p=0.75, seed=3, count=200))
    assert all(bipartite_from_graph(bg.to_graph()).balanced for bg in graphs)
    # an odd order or a lopsided component has no balanced colouring
    assert not bipartite_from_graph(path_graph(3)).balanced
    assert not bipartite_from_graph(complete_bipartite_graph(1, 3).to_graph()).balanced


def test_is_isomorphic():
    assert is_isomorphic(cycle_graph(4), complete_bipartite_graph(2, 2).to_graph())
    assert not is_isomorphic(complete_bipartite_graph(1, 3).to_graph(), path_graph(4))
    # different edge counts
    l52 = join(complete_graph(1), disjoint_union(complete_graph(2), complete_graph(2)))
    n52 = join(complete_graph(2), disjoint_union(complete_graph(1), k_copies(2, complete_graph(1))))
    assert not is_isomorphic(l52, n52)


def test_is_isomorphic_relabel_invariance():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        g = gnp(n, 0.5, rng)
        perm = list(rng.permutation(n))
        assert is_isomorphic(g, g.relabel(perm))
        h = gnp(n, 0.5, rng)
        # symmetric
        assert is_isomorphic(g, h) == is_isomorphic(h, g)


def test_is_isomorphic_equivalence_relation():
    rng = np.random.default_rng(13)
    pool = [gnp(6, 0.5, rng) for _ in range(12)]
    pool += [g.relabel(list(rng.permutation(6))) for g in pool[:6]]
    for g in pool:
        assert is_isomorphic(g, g)
    for g in pool:
        for h in pool:
            for f in pool:
                if is_isomorphic(g, h) and is_isomorphic(h, f):
                    assert is_isomorphic(g, f)


def test_graph6_goldens():
    assert graph6_encode(complete_graph(4)) == "C~"
    assert graph6_encode(empty_graph(1)) == "@"
    assert graph6_decode("C~") == complete_graph(4)


def test_graph6_roundtrip_small():
    from spectralham.harness import graph_from_index

    for n in range(0, 6):
        for idx in range(1 << (n * (n - 1) // 2)):
            g = graph_from_index(n, idx)
            assert graph6_decode(graph6_encode(g)) == g


def test_graph6_large_order_header():
    g = empty_graph(100)
    s = graph6_encode(g)
    assert s.startswith("~")
    assert graph6_decode(s) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        graph6_decode("C~~")  # trailing data
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error) as exc:
        graph6_decode("C")  # missing body
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        graph6_decode("C" + chr(10))  # byte below 63 after strip-resistant spot
    with pytest.raises(Graph6Error):
        graph6_decode("")
    # nonzero padding bits: n=2 needs one body byte with only the top bit used
    with pytest.raises(Graph6Error) as exc:
        graph6_decode("A" + chr(63 + 1))
    assert exc.value.offset == 1


def test_edge_list_roundtrip():
    g = cycle_graph(6)
    text = format_edge_list(g)
    assert text.splitlines()[0] == "6 6"
    assert text.endswith("\n")
    assert parse_edge_list(text) == g
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 130])
def test_matrix_matches_edges(n):
    # rows are unpacked from the adjacency bitmasks; check across byte widths
    rng = np.random.default_rng(n)
    g = gnp(n, 0.4, rng)
    expected = np.zeros((n, n))
    for u, v in g.edges():
        expected[u, v] = expected[v, u] = 1.0
    a = g.matrix()
    assert a.dtype == np.float64 and a.shape == (n, n)
    assert np.array_equal(a, expected)

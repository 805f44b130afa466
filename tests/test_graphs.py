import numpy as np
import pytest

from spectralham import graphs
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


def test_graph6_encode_takes_a_bipartite_graph_as_its_whole_graph():
    k23 = complete_bipartite_graph(2, 3)
    assert graph6_encode(k23) == graph6_encode(k23.to_graph()) == "D]o"
    assert graph6_decode(graph6_encode(k23)) == k23.to_graph()
    with pytest.raises(TypeError):
        graph6_encode("D]o")


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


# Pure-Python reference codec: the per-pair bit loops the library ran above the
# table cap before its array path, kept here to check that path against.

def _loop_graph_from_pair_bits(n, idx):
    rows = [0] * n
    for t, (u, v) in enumerate(graphs.pair_order(n)):
        if idx >> t & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return graphs.Graph(n, tuple(rows))


def _loop_encode(g):
    n = g.n
    out = [chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))]
    acc = nbits = 0
    for u, v in graphs.pair_order(n):
        acc = (acc << 1) | (g.adj[v] >> u & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(acc + 63))
            acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def _loop_decode(s):
    """Decode a graph6 string with in-range bytes and a complete order field."""
    lead = len(s) - len(s.lstrip())
    s = s.strip()
    if s[0] != "~":
        n, body_at = ord(s[0]) - 63, 1
    else:
        n, body_at = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63), 4
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(s) - body_at != nbytes:
        raise Graph6Error(f"expected {nbytes} body bytes for n={n}, found {len(s) - body_at}",
                          lead + min(len(s), body_at + nbytes))
    rows = [0] * n
    pairs = graphs.pair_order(n)
    idx = 0
    for k in range(nbytes):
        val = ord(s[body_at + k]) - 63
        for b in range(5, -1, -1):
            bit = val >> b & 1
            if idx < npairs:
                if bit:
                    u, v = pairs[idx]
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                idx += 1
            elif bit:
                raise Graph6Error("nonzero padding bits", lead + body_at + k)
    return graphs.Graph(n, tuple(rows))


def _tables_and_loops(fn):
    """fn() with the codec's per-order tables, then with its array path at every order."""
    with pytest.MonkeyPatch.context() as mp:
        tables = fn()
        mp.setattr(graphs, "_G6_TABLE_CAP", -1)
        return tables, fn()


def test_graph6_tables_match_bit_loops():
    from math import comb
    from random import Random

    from spectralham.harness import graph_from_index

    rng = Random(19)
    cases = [(n, idx) for n in range(6) for idx in range(1 << comb(n, 2))]
    # both sides of the cap, and the orders where the header switches
    for n in [*range(6, graphs._G6_TABLE_CAP + 3), 62, 63]:
        cases += [(n, rng.getrandbits(comb(n, 2))) for _ in range(6)]
        cases += [(n, 0), (n, (1 << comb(n, 2)) - 1)]
        cases.append((n, rng.getrandbits(8) << comb(n, 2) | rng.getrandbits(comb(n, 2))))

    def run():
        out = []
        for n, idx in cases:
            g = graph_from_index(n, idx)
            s = graph6_encode(g)
            out.append((g, s, graph6_decode(s)))
        return out

    tables, loops = _tables_and_loops(run)
    assert tables == loops
    assert all(decoded == g for g, _, decoded in tables)
    reference = []
    for n, idx in cases:
        g = _loop_graph_from_pair_bits(n, idx)
        reference.append((g, _loop_encode(g), _loop_decode(_loop_encode(g))))
    assert loops == reference


@pytest.mark.parametrize("n", sorted({*range(25, 71), 62, 63, 64, 200, 500}))
def test_graph6_array_path_matches_python_reference(n):
    from math import comb
    from random import Random

    from spectralham.harness import graph_from_index

    rng = Random(n)
    npairs = comb(n, 2)
    # random, empty and complete graphs, and indices with bits above C(n, 2) set
    for idx in (rng.getrandbits(npairs), rng.getrandbits(npairs) & rng.getrandbits(npairs),
                0, (1 << npairs) - 1, rng.getrandbits(9) << npairs | rng.getrandbits(npairs)):
        g = graph_from_index(n, idx)
        assert g == _loop_graph_from_pair_bits(n, idx)
        s = graph6_encode(g)
        assert s == _loop_encode(g)
        assert graph6_decode(s) == _loop_decode(s) == g
    assert graph_from_index(n, (1 << npairs) - 1) == complete_graph(n)
    assert graph_from_index(n, 1 << npairs) == empty_graph(n)


def test_graph6_errors_above_the_cap_match_python_reference():
    full = graph6_encode(empty_graph(100))
    for bad in (_padded(26), _padded(27), _padded(29), " " + _padded(29), full + "?", full[:-1],
                full[:-7]):
        with pytest.raises(Graph6Error) as got:
            graph6_decode(bad)
        with pytest.raises(Graph6Error) as want:
            _loop_decode(bad)
        assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)


def _padded(n):
    """A graph6 string of order n whose last body byte sets its top padding bit."""
    npairs = n * (n - 1) // 2
    pad = 6 * ((npairs + 5) // 6) - npairs
    return chr(n + 63) + "?" * ((npairs - 1) // 6) + chr(63 + (1 << (pad - 1)))


# (malformed input, byte offset in that input)
G6_ERRORS = [
    ("", 0),
    ("C~~", 2),  # a body that is long
    ("C", 1),  # and short
    ("I???", 4),
    ("C" + chr(10), 1),  # the newline is stripped, leaving a short body
    ("A" + chr(63 + 1), 1),  # nonzero padding
    (">C~", 0),  # bytes outside 63..126: first, middle, last
    ("I???>????", 4),
    ("I???????" + chr(127), 8),
    ("I???????" + chr(233), 8),
    ("~~", 1),
    ("~~~???", 1),
    ("~", 1),  # a truncated extended header
    ("~??", 3),
    ("~??~", 4),  # extended order 62, missing its body
    # leading whitespace counts in the offset, trailing whitespace does not
    ("  C~~", 4),
    ("\tC~~", 3),
    (" \t>C~", 2),
    (" A" + chr(63 + 1), 2),
    (" " + _padded(26), len(_padded(26))),
    ("  ", 2),
    ("C~~ \n", 2),
] + [
    # nonzero padding for each residue 1, 3, 4 of C(n, 2) mod 6 (residue 0 has
    # no padding bits), below the cap and above it
    (_padded(n), len(_padded(n)) - 1) for n in (2, 3, 5, 11, 6, 8, 26, 27, 29)
]


def test_graph6_errors_carry_offsets():
    def run():
        out = []
        for bad, _ in G6_ERRORS:
            with pytest.raises(Graph6Error) as exc:
                graph6_decode(bad)
            out.append((str(exc.value), exc.value.offset))
        return out

    tables, loops = _tables_and_loops(run)
    assert tables == loops
    assert [offset for _, offset in tables] == [offset for _, offset in G6_ERRORS]
    messages = dict(zip((bad for bad, _ in G6_ERRORS), (msg for msg, _ in tables)))
    assert messages["I???>????"] == "byte 62 outside graph6 range 63..126 (byte offset 4)"
    assert messages["  C~~"] == "expected 1 body bytes for n=4, found 2 (byte offset 4)"
    assert messages[_padded(26)].startswith("nonzero padding bits")


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

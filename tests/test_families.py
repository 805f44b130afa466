import math

import numpy as np
import pytest

from spectralham.families import (
    FamilySpec,
    _gamma_labelings,
    construct,
    h_family_members,
    recognize,
    recognize_h_family,
    spanning_subgraph_of,
)
from spectralham.graphs import (
    BipartiteGraph,
    build_bipartite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    quasi_complement,
)
from spectralham.harness import bipartite_from_index as graph_from_index_bip
from spectralham.harness import graph_from_index
from spectralham.oracle import is_hamiltonian
from spectralham.spectral import q_radius, spectral_radius

from conftest import brute_spanning_into, gnp

TOL = 1e-9


def _e_L(n, k):
    return (n - 1) + math.comb(k, 2) + math.comb(n - k - 1, 2)


def test_constructor_edge_counts():
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            assert construct(FamilySpec("L", n=n, k=k)).edge_count == _e_L(n, k)
            assert construct(FamilySpec("N", n=n, k=k)).edge_count == math.comb(n - k, 2) + k * k
    for n in range(2, 13):
        for k in range(0, n // 2):
            assert (
                construct(FamilySpec("barL", n=n, k=k)).edge_count
                == math.comb(k + 1, 2) + math.comb(n - k - 1, 2)
            )
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            assert construct(FamilySpec("B", n=n, k=k)).edge_count == n * (n - k) + k * k


def test_l1_equals_n1():
    for n in range(3, 10):
        l1 = construct(FamilySpec("L", n=n, k=1))
        n1 = construct(FamilySpec("N", n=n, k=1))
        assert is_isomorphic(l1, n1)
        assert l1.edge_count == math.comb(n - 1, 2) + 1


def test_construct_range_errors():
    for spec in (
        FamilySpec("L", n=6, k=3),
        FamilySpec("N", n=5, k=0),
        FamilySpec("barL", n=6, k=3),
        FamilySpec("B", n=4, k=3),
        FamilySpec("complete_split", n=7, k=4),
    ):
        with pytest.raises(ValueError):
            construct(spec)


def test_gamma_graphs():
    g1 = construct(FamilySpec("Gamma1"))
    g2 = construct(FamilySpec("Gamma2"))
    assert (g1.nx + g1.ny, g1.edge_count) == (8, 9)
    assert g2.edge_count == 10
    qc1 = quasi_complement(g1)
    assert abs(spectral_radius(qc1).value - 2) < TOL
    assert abs(q_radius(qc1).value - 4) < TOL
    qc2 = quasi_complement(g2)
    assert abs(spectral_radius(qc2).value - 2) < TOL
    assert abs(q_radius(qc2).value - 4) < TOL
    for g in (g1, g2):
        assert is_hamiltonian(g.to_graph()).status == "no"
    assert recognize(g1, "Gamma1") and not recognize(g1, "Gamma2")
    assert recognize(g2, "Gamma2") and not recognize(g2, "Gamma1")
    # either side first; an order-8 graph with sides 3 and 5 is no member
    assert recognize(g2.swap_sides(), "Gamma2") and not recognize(g2.swap_sides(), "Gamma1")
    assert not recognize(complete_bipartite_graph(3, 5), "Gamma1")


def test_recognize_roundtrip():
    for n in range(3, 11):
        for k in range(1, (n - 1) // 2 + 1):
            for fam in ("L", "N"):
                g = construct(FamilySpec(fam, n=n, k=k))
                perm = list(np.random.default_rng(n * 31 + k).permutation(n))
                assert recognize(g.relabel(perm), fam, n=n, k=k)
    for n in range(2, 11):
        for k in range(0, n // 2):
            for fam in ("barL", "barN"):
                g = construct(FamilySpec(fam, n=n, k=k))
                assert recognize(g, fam, n=n, k=k)
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            b = construct(FamilySpec("B", n=n, k=k))
            assert recognize(b, "B", n=n, k=k)
            assert recognize(b, "Bset", n=n, k=k)
            assert recognize(b.swap_sides(), "B", n=n, k=k)


def test_recognize_bset_with_core_payload():
    core = build_bipartite(2, 2, [(0, 1)])
    member = construct(FamilySpec("Bset", n=4, k=2, inner=core))
    assert recognize(member, "Bset", n=4, k=2)
    assert not recognize(member, "B", n=4, k=2)  # core is not complete
    assert recognize(construct(FamilySpec("B", n=4, k=2)), "Bset", n=4, k=2)


def test_recognize_negative_and_h_family():
    assert not recognize(cycle_graph(5), "N", n=5, k=2)
    assert recognize_h_family(complete_bipartite_graph(2, 3).to_graph(), 5)
    # K_{1,3} is the single member of the order-4 family
    assert recognize_h_family(complete_bipartite_graph(1, 3).to_graph(), 4)
    assert not recognize_h_family(cycle_graph(4), 4)
    # out-of-range parameters are simply non-members
    assert not recognize(cycle_graph(5), "L", n=5, k=4)
    assert not recognize(construct(FamilySpec("barN", n=8, k=1)), "barN", n=8, k=5)


def test_h_family_members_enumeration():
    members = list(h_family_members(6))
    assert len(members) == 2 ** math.comb(2, 2)  # s = 2: one optional edge
    for g in members:
        assert recognize_h_family(g, 6)
    members5 = list(h_family_members(5))
    assert len(members5) == 2  # s = 2
    assert any(is_isomorphic(g, complete_bipartite_graph(2, 3).to_graph()) for g in members5)


def test_recognizers_match_isomorphism_exhaustively_n5():
    n = 5
    configs = []
    for k in range(1, (n - 1) // 2 + 1):
        configs.append(("L", n, k, construct(FamilySpec("L", n=n, k=k))))
        configs.append(("N", n, k, construct(FamilySpec("N", n=n, k=k))))
    for k in range(0, n // 2):
        configs.append(("barL", n, k, construct(FamilySpec("barL", n=n, k=k))))
        configs.append(("barN", n, k, construct(FamilySpec("barN", n=n, k=k))))
    # complete_split(m, k) = K_k v (m-2k) K_1 has order m - k: every k with order 5
    for k in range(1, n):
        configs.append(("complete_split", n + k, k,
                        construct(FamilySpec("complete_split", n=n + k, k=k))))
    for a in range(1, n):
        configs.append(("complete_bipartite", a, n - a,
                        construct(FamilySpec("complete_bipartite", n=a, k=n - a)).to_graph()))
    assert all(ref.n == n for *_, ref in configs)
    h_members = list(h_family_members(n))
    for idx in range(1 << (n * (n - 1) // 2)):
        g = graph_from_index(n, idx)
        for fam, m, k, ref in configs:
            assert recognize(g, fam, n=m, k=k) == is_isomorphic(g, ref), (fam, k, g.edges())
        want_h = any(is_isomorphic(g, m) for m in h_members)
        assert recognize_h_family(g, n) == want_h, g.edges()


def test_recognizers_match_isomorphism_sampled_n7():
    rng = np.random.default_rng(97)
    n = 7
    configs = []
    for k in range(1, (n - 1) // 2 + 1):
        for fam in ("L", "N"):
            configs.append((fam, k, construct(FamilySpec(fam, n=n, k=k))))
    for k in range(0, n // 2):
        for fam in ("barL", "barN"):
            configs.append((fam, k, construct(FamilySpec(fam, n=n, k=k))))
    samples = [gnp(n, float(rng.uniform(0.2, 0.9)), rng) for _ in range(400)]
    # include the family members themselves and single-edge perturbations
    for _, _, ref in configs:
        samples.append(ref.relabel(list(rng.permutation(n))))
        edges = ref.edges()
        u, v = edges[int(rng.integers(0, len(edges)))]
        samples.append(ref.without_edge(u, v))
    for g in samples:
        for fam, k, ref in configs:
            assert recognize(g, fam, n=n, k=k) == is_isomorphic(g, ref)


def _bset_per_k(b, n, k):
    """The Bset recognizer as it was before the quasi-complement summary: one
    search per k over the quasi-complements of b and of b with its sides swapped."""
    if not (1 <= k and 2 * k <= n and b.nx == n and b.ny == n):
        return False
    for bb in (b, b.swap_sides()):
        qc = quasi_complement(bb)
        for comp in qc.to_graph().components():
            xs, ys = comp & ((1 << n) - 1), comp >> n
            if xs.bit_count() != n - k or ys.bit_count() != k:
                continue
            if all((qc.rows[i] & ys) == ys for i in range(n) if xs >> i & 1):
                return True
    return False


@pytest.mark.parametrize("side", [1, 2, 3, 4])
def test_qc_summary_recognizers_match_reference_exhaustively(side):
    # every balanced bipartite graph of the side, every k: the Bset and B
    # recognizers (which read one cached quasi-complement summary per graph)
    # against the per-k search and against backtracking isomorphism, and the
    # Gamma recognizers (a lookup among the reference's labelings) against
    # backtracking isomorphism; at side 4 each graph isomorphic to Gamma1 or
    # Gamma2 is one of the labelings, 192 between them
    gammas = [construct(FamilySpec(fam)) for fam in ("Gamma1", "Gamma2")]
    matches = 0
    bs = {k: construct(FamilySpec("B", n=side, k=k)).to_graph() for k in range(1, side // 2 + 1)}
    for idx in range(1 << (side * side)):
        b = graph_from_index_bip(side, idx)
        for k in range(0, side + 1):
            assert recognize(b, "Bset", n=side, k=k) == _bset_per_k(b, side, k), (idx, k)
            is_b = k in bs and is_isomorphic(b.to_graph(), bs[k])
            assert recognize(b, "B", n=side, k=k) == is_b, (idx, k)
        for fam, ref in zip(("Gamma1", "Gamma2"), gammas):
            iso = b.edge_count == ref.edge_count and is_isomorphic(b.to_graph(), ref.to_graph())
            assert recognize(b, fam) == iso == (b.rows in _gamma_labelings(fam)), (idx, fam)
            matches += iso
    labelings = sum(len(_gamma_labelings(fam)) for fam in ("Gamma1", "Gamma2"))
    assert matches == (labelings if side == 4 else 0) and labelings == 192


def test_spanning_subgraph_examples():
    n72 = construct(FamilySpec("N", n=7, k=2))
    u, v = n72.edges()[0]
    assert spanning_subgraph_of(n72.without_edge(u, v), "N", 7, 2)
    assert spanning_subgraph_of(n72, "N", 7, 2)
    assert not spanning_subgraph_of(cycle_graph(7), "L", 7, 2)
    with pytest.raises(ValueError):
        spanning_subgraph_of(cycle_graph(6), "L", 7, 2)


@pytest.mark.slow
def test_spanning_subgraph_matches_brute_force_n6():
    n = 6
    refs = {}
    for k in (1, 2):
        refs[("L", k)] = construct(FamilySpec("L", n=n, k=k))
        refs[("N", k)] = construct(FamilySpec("N", n=n, k=k))
    for idx in range(1 << (n * (n - 1) // 2)):
        g = graph_from_index(n, idx)
        for (fam, k), ref in refs.items():
            assert spanning_subgraph_of(g, fam, n, k) == brute_spanning_into(g, ref), (
                fam, k, g.edges(),
            )


def test_spanning_subgraph_b_matches_brute_force():
    rng = np.random.default_rng(101)
    side = 3
    for k in (1,):
        ref = construct(FamilySpec("B", n=side, k=k)).to_graph()
        for idx in range(1 << (side * side)):
            rows = [(idx >> (i * side)) & ((1 << side) - 1) for i in range(side)]
            b = BipartiteGraph(side, side, tuple(rows))
            got = spanning_subgraph_of(b, "B", side, k)
            want = brute_spanning_into(b.to_graph(), ref)
            assert got == want, rows


def test_spanning_bar_families_consistent_with_join_reduction():
    from spectralham.graphs import join

    rng = np.random.default_rng(103)
    for _ in range(150):
        n = int(rng.integers(4, 9))
        g = gnp(n, float(rng.uniform(0.2, 0.8)), rng)
        for k in range(0, n // 2):
            direct = spanning_subgraph_of(g, "barN", n, k)
            lifted = spanning_subgraph_of(
                join(g, complete_graph(1)), "N", n + 1, k + 1
            )
            assert direct == lifted
            direct = spanning_subgraph_of(g, "barL", n, k)
            lifted = spanning_subgraph_of(
                join(g, complete_graph(1)), "L", n + 1, k + 1
            )
            assert direct == lifted


def test_familyspec_text_roundtrip():
    for text in ("N:n=7,k=2", "B:n=4,k=2", "Gamma1", "L:n=9,k=3"):
        spec = FamilySpec.parse(text)
        assert spec.text() == text
    inner = complete_bipartite_graph(2, 2)
    spec = FamilySpec("Bset", n=4, k=2, inner=build_bipartite(2, 2, [(0, 0)]))
    round_tripped = FamilySpec.parse(spec.text())
    assert round_tripped.inner.rows == spec.inner.rows
    g6 = graph6_encode(complete_graph(2))
    h = FamilySpec.parse(f"H:n=5,inner={g6}")
    assert h.inner == complete_graph(2)
    with pytest.raises(ValueError):
        FamilySpec.parse("Z:n=3")
    with pytest.raises(ValueError):
        FamilySpec.parse("N:q=3")
    # a Bset core is an order-n graph whose edges all join 0..k-1 to k..n-1:
    # @ has order 1, A_ order 2, and C~ = K_4 has edges inside both sides
    for g6 in ("@", "A_", "C~"):
        with pytest.raises(ValueError, match="Bset inner graph"):
            FamilySpec.parse(f"Bset:n=4,k=2,inner={g6}")


def test_h_members_contained_in_extremal_families():
    # odd n: members span-embed into N_n^{(n-1)/2}; even n: into barN_n^{n/2-1}
    for n in range(4, 11):
        if n % 2 == 1:
            fam, k = "N", (n - 1) // 2
        else:
            fam, k = "barN", n // 2 - 1
        for g in h_family_members(n):
            assert spanning_subgraph_of(g, fam, n, k), (n, g.edges())


def test_h_members_share_complement_spectra():
    from spectralham.graphs import complement

    for n in range(4, 11):
        rhos = []
        qs = []
        for g in h_family_members(n):
            c = complement(g)
            rhos.append(spectral_radius(c).value)
            qs.append(q_radius(c).value)
        assert max(rhos) - min(rhos) < TOL
        assert max(qs) - min(qs) < TOL


def test_bset_members_share_quasi_complement_spectra():
    import itertools

    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            pairs = [(i, j) for i in range(k) for j in range(n - k)]
            rhos = []
            qs = []
            for bits_ in range(1 << len(pairs)):
                core = build_bipartite(
                    k, n - k, [p for t, p in enumerate(pairs) if bits_ >> t & 1]
                )
                member = construct(FamilySpec("Bset", n=n, k=k, inner=core))
                qc = quasi_complement(member)
                rhos.append(spectral_radius(qc).value)
                qs.append(q_radius(qc).value)
            assert max(rhos) - min(rhos) < TOL, (n, k)
            assert max(qs) - min(qs) < TOL, (n, k)
            assert abs(rhos[0] - math.sqrt(k * (n - k))) < TOL
            assert abs(qs[0] - n) < TOL


def test_h_construct_matches_bounds():
    # members lie between K_{s,b} and K_s v b K_1; n = 9 gives s = 4, b = 5
    g_min = construct(FamilySpec("H", n=9))
    assert is_isomorphic(g_min, complete_bipartite_graph(4, 5).to_graph())
    g_max = construct(FamilySpec("H", n=9, inner=complete_graph(4)))
    from spectralham.graphs import join, k_copies

    assert is_isomorphic(g_max, join(complete_graph(4), k_copies(5, complete_graph(1))))

import hashlib
import json
import re

import numpy as np
import pytest

import spectralham.families as families
import spectralham.harness as harness
import spectralham.statements as statements
from spectralham.families import FamilySpec, construct, recognize
from spectralham.graphs import Graph, complete_graph, graph6_decode, graph6_encode, pair_order
from spectralham.harness import (
    _CHUNK,
    SearchSpace,
    SpaceCapError,
    bipartite_from_index,
    certifier_soundness_sweep,
    enumerate_space,
    extremal_search,
    graph_from_index,
    random_model,
    verify_theorem,
    _bit_ends,
    _class_keys,
    _class_radii,
    _eig_rows,
    _graphs_from_bits,
    _index_blocks,
    _radii,
    _radius_interval,
)
from spectralham.oracle import is_hamiltonian, is_traceable
from spectralham.spectral import radius_intervals, spectral_radius


def _index_bits(nbits, start, stop):
    """Row i holds the low nbits bits of start + i."""
    return harness._bits_of(nbits, np.arange(start, stop))


def _degree_stats(size, bip, start, stop):
    """The statistics of the index range [start, stop), joined across its blocks."""
    blocks = [blk.stats for blk in _index_blocks(size, bip, start, stop)]
    return {key: np.concatenate([b[key] for b in blocks], axis=-1) for key in blocks[0]}


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_space(SearchSpace.all_labeled(5))) == 1024
    assert sum(1 for _ in enumerate_space(SearchSpace.balanced_bipartite_labeled(2))) == 16
    graphs = list(enumerate_space(SearchSpace.labeled_min_degree(4, 3)))
    assert graphs == [complete_graph(4)]


def test_enumeration_is_deterministic_and_complete():
    seen = {graph6_encode(g) for g in enumerate_space(SearchSpace.all_labeled(4))}
    assert len(seen) == 64
    first = next(enumerate_space(SearchSpace.all_labeled(4)))
    assert first.edge_count == 0


def test_space_caps():
    with pytest.raises(SpaceCapError, match="graph6_file"):
        SearchSpace.all_labeled(9).validate()
    with pytest.raises(SpaceCapError, match="graph6_file"):
        SearchSpace.balanced_bipartite_labeled(6).validate()
    with pytest.raises(SpaceCapError):
        SearchSpace("random_model", model="uniform_gnp", n=5, p=1.5, count=3, seed=0).validate()


@pytest.mark.parametrize("space, message", [
    (SearchSpace.gnp(None, 0.5, 3, seed=0), "uniform_gnp needs n >= 1"),
    (SearchSpace.gnp(0, 0.5, 3, seed=0), "uniform_gnp needs n >= 1"),
    (SearchSpace.bipartite_gnp(None, 0.5, 3, seed=0), "bipartite_gnp needs side >= 1"),
    (SearchSpace.bipartite_gnp(-2, 0.5, 3, seed=0), "bipartite_gnp needs side >= 1"),
])
def test_random_spaces_need_an_order(space, message):
    with pytest.raises(SpaceCapError, match=message):
        space.validate()
    target = "moon_moser" if space.is_bipartite_space else "ore"
    with pytest.raises(SpaceCapError, match=message):
        verify_theorem(target, space)
    with pytest.raises(SpaceCapError, match=message):
        extremal_search(space, "max_rho", "non_hamiltonian")


def test_graph6_line_of_order_zero_is_refused(tmp_path):
    path = tmp_path / "orders.g6"
    path.write_text("A_\n\n?\nD~{\n")
    for call in (lambda: verify_theorem("ore", SearchSpace.graph6_file(str(path))),
                 lambda: verify_theorem("moon_moser", SearchSpace.graph6_file(str(path))),
                 lambda: extremal_search(SearchSpace.graph6_file(str(path)), "max_rho",
                                         "non_hamiltonian")):
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: the order-0 graph '?'")):
            call()


def test_graph6_refusals_for_bipartite_targets_name_the_line(tmp_path):
    # a bipartite target reads each line through its bipartition
    path = tmp_path / "sides.g6"
    for lines, lineno, message in ((["Cr", "Bw"], 2, "graph is not bipartite"),
                                   (["Cr", "", "Bg"], 3,
                                    "bipartite target needs balanced bipartite inputs")):
        path.write_text("\n".join(lines) + "\n")
        for target in ("moon_moser", "ferrara_jacobson_powell"):
            with pytest.raises(ValueError, match=re.escape(f"{path}, line {lineno}: {message}")):
                verify_theorem(target, SearchSpace.graph6_file(str(path)))


def test_random_model_blocks_replay_the_per_graph_stream():
    # one rng.random((rows, pairs)) call per block draws the same PCG64
    # deviates as one rng.random(pairs) call per graph; the counts span
    # several blocks
    for kind, size, nbits, count in (("uniform_gnp", 30, 435, 700),
                                     ("bipartite_gnp", 12, 144, 2000)):
        assert count > 2 * harness._block_rows(nbits)
        rng = np.random.default_rng(9)
        draws = [rng.random(nbits) < 0.4 for _ in range(count)]
        decode = bipartite_from_index if kind == "bipartite_gnp" else graph_from_index
        want = [decode(size, sum(1 << t for t in np.flatnonzero(d).tolist())) for d in draws]
        kwargs = {"side": size} if kind == "bipartite_gnp" else {"n": size}
        assert list(random_model(kind, p=0.4, seed=9, count=count, **kwargs)) == want


def test_random_model_determinism_and_extremes():
    gs = list(random_model("uniform_gnp", n=10, p=0.0, seed=1, count=5))
    assert all(g.edge_count == 0 for g in gs)
    gs = list(random_model("uniform_gnp", n=10, p=1.0, seed=1, count=5))
    assert all(g.edge_count == 45 for g in gs)
    a = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=42, count=3)]
    b = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=42, count=3)]
    assert a == b
    c = [graph6_encode(g) for g in random_model("uniform_gnp", n=10, p=0.5, seed=43, count=3)]
    assert a != c
    bs = list(random_model("bipartite_gnp", side=4, p=1.0, seed=7, count=2))
    assert all(b_.edge_count == 16 for b_ in bs)


def test_verify_ore_small():
    rep = verify_theorem("ore", SearchSpace.all_labeled(5))
    assert rep.processed == 1024
    assert rep.hypothesis_count >= 1
    assert rep.conclusion_failures == [] and rep.aborted == []
    assert rep.clean


def test_verify_refusals():
    with pytest.raises(ValueError, match="preconditions"):
        verify_theorem("refined_hamilton_lemma", SearchSpace.all_labeled(7), k=1)
    with pytest.raises(ValueError, match="preconditions"):
        verify_theorem("yu_fan_q", SearchSpace.all_labeled(5))
    with pytest.raises(ValueError, match="needs a k parameter"):
        verify_theorem("erdos", SearchSpace.all_labeled(6))
    with pytest.raises(ValueError):
        verify_theorem("moon_moser", SearchSpace.all_labeled(5))
    with pytest.raises(ValueError):
        verify_theorem("ore", SearchSpace.balanced_bipartite_labeled(3))


def test_parallel_matches_serial():
    serial = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    parallel = verify_theorem("fn_rho", SearchSpace.all_labeled(6), jobs=2)
    assert serial.processed == parallel.processed
    assert serial.hypothesis_count == parallel.hypothesis_count
    assert serial.exceptional_matches == parallel.exceptional_matches
    assert serial.conclusion_failures == parallel.conclusion_failures
    assert serial.aborted == parallel.aborted


def test_verify_graph6_file_space(tmp_path):
    path = tmp_path / "graphs.g6"
    lines = [graph6_encode(graph_from_index(5, idx)) for idx in range(0, 1024, 7)]
    path.write_text("\n".join(lines) + "\n")
    rep = verify_theorem("ore", SearchSpace.graph6_file(str(path)))
    assert rep.processed == len(lines)
    assert rep.clean


def test_bipartite_graph6_lines_are_read_through_a_balanced_colouring(tmp_path):
    # E?b_ is balanced bipartite with an isolated vertex its default colouring puts on X
    path = tmp_path / "isolated.g6"
    path.write_text("E?b_\n")
    rep = verify_theorem("bip_q_qc", SearchSpace.graph6_file(str(path)))
    assert rep.processed == 1 and rep.clean


def test_verify_random_space():
    rep = verify_theorem("ore", SearchSpace.gnp(8, 0.85, 500, seed=3))
    assert rep.processed == 500 and rep.clean
    rep = verify_theorem(
        "ferrara_jacobson_powell", SearchSpace.bipartite_gnp(3, 0.6, 400, seed=5)
    )
    assert rep.processed == 400 and rep.clean


def test_oracle_budget_exhaustion_recorded():
    rep = verify_theorem("ore", SearchSpace.all_labeled(4), oracle_budget=0)
    assert rep.hypothesis_count > 0
    assert rep.aborted and not rep.conclusion_failures
    assert not rep.clean


def test_emit_stream():
    events = []
    verify_theorem("ore", SearchSpace.all_labeled(4), emit=events.append)
    assert events[-1]["verdict"] == "summary"
    json.dumps(events)  # JSON-serializable


def test_biclique_and_refined_bipartite_lemmas_side3():
    rep = verify_theorem("biclique_lemma", SearchSpace.balanced_bipartite_labeled(3), k=1)
    assert rep.clean and rep.hypothesis_count > 0
    rep = verify_theorem(
        "refined_bipartite_lemma", SearchSpace.balanced_bipartite_labeled(3), k=1
    )
    assert rep.clean and rep.hypothesis_count > 0


def test_extremal_search_matches_family_theory():
    best, winners = extremal_search(
        SearchSpace.all_labeled(6), "max_rho", "non_hamiltonian", k=1
    )
    ref = spectral_radius(construct(FamilySpec("N", n=6, k=1))).value
    assert abs(best - ref) < 1e-9
    assert winners
    for g6 in winners:
        assert recognize(graph6_decode(g6), "N", n=6, k=1)

    best, winners = extremal_search(
        SearchSpace.all_labeled(6), "min_rho_complement", "non_hamiltonian", k=1
    )
    assert abs(best - 2.0) < 1e-9  # sqrt(k (n-k-1)) = sqrt(4)
    for g6 in winners:
        assert recognize(graph6_decode(g6), "L", n=6, k=1)


def test_extremal_search_min_q_qc_side4():
    best, winners = extremal_search(
        SearchSpace.balanced_bipartite_labeled(4), "min_q_qc", "non_hamiltonian", k=2
    )
    assert abs(best - 4.0) < 1e-9
    # winners include Gamma_1, Gamma_2 and members of the k=2 family
    gamma1 = graph6_encode(construct(FamilySpec("Gamma1")).to_graph())
    gamma2 = graph6_encode(construct(FamilySpec("Gamma2")).to_graph())
    b42 = graph6_encode(construct(FamilySpec("B", n=4, k=2)).to_graph())
    assert gamma1 in winners and gamma2 in winners and b42 in winners


def test_extremal_search_relabel_invariant(tmp_path):
    # optimum value is invariant under vertex relabeling of the space
    rng = np.random.default_rng(107)
    graphs = [graph_from_index(5, int(i)) for i in rng.integers(0, 1024, size=300)]
    plain = tmp_path / "plain.g6"
    plain.write_text("\n".join(graph6_encode(g) for g in graphs) + "\n")
    shuffled = tmp_path / "shuffled.g6"
    shuffled.write_text(
        "\n".join(
            graph6_encode(g.relabel(list(rng.permutation(5)))) for g in graphs
        )
        + "\n"
    )
    a, _ = extremal_search(SearchSpace.graph6_file(str(plain)), "max_rho", "non_hamiltonian")
    b, _ = extremal_search(SearchSpace.graph6_file(str(shuffled)), "max_rho", "non_hamiltonian")
    assert a is not None and abs(a - b) < 1e-9


def test_extremal_search_empty_constraint_set():
    best, winners = extremal_search(
        SearchSpace.all_labeled(3), "max_rho", "non_traceable", k=1
    )
    # every graph on 3 vertices with min degree >= 1 is P_3 or K_3: traceable
    assert best is None and winners == []


def test_soundness_sweep_tiny():
    s = certifier_soundness_sweep(ns=(3, 4, 5), bip_sides=(2,))
    assert s["violations"] == [] and s["aborted"] == []
    assert s["graphs"] == 8 + 64 + 1024


def test_index_decoding_matches_enumeration():
    for idx in (0, 1, 37, 63):
        assert graph_from_index(4, idx) == list(enumerate_space(SearchSpace.all_labeled(4)))[idx]
    b = bipartite_from_index(3, 0b101_000_110)
    assert b.rows == (0b110, 0b000, 0b101)
    # the matmul row builder against the per-bit loops of the index decoders
    for size, bip, decode in ((5, False, graph_from_index), (3, True, bipartite_from_index)):
        total = 1 << (size * size if bip else size * (size - 1) // 2)
        bits = _index_bits(size * size if bip else size * (size - 1) // 2, 0, total)
        assert _graphs_from_bits(size, bip, bits) == [decode(size, idx) for idx in range(total)]


@pytest.mark.parametrize("size, bip", [(6, False), (4, True)])
def test_radius_intervals_bracket_eigvalsh(size, bip):
    # every graph of all_labeled(6) / balanced_bipartite_labeled(4): the
    # integer-statistics interval of each quantity holds the eigvalsh value
    keys = ("rho", "q", "rho_qc", "q_qc") if bip else ("rho", "q", "rho_complement")
    total = 1 << (size * size if bip else size * (size - 1) // 2)
    seen_regular = 0
    for blk in _index_blocks(size, bip, 0, total):
        stats = blk.stats
        regular = np.flatnonzero(stats["delta"] == stats["Delta"])
        seen_regular += len(regular)
        for key in keys:
            lo, hi = _radius_interval(key, stats, size, bip)
            val = _radii(key, size, bip, blk.rows_bits())
            assert np.all(lo <= val + 1e-9) and np.all(val <= hi + 1e-9), key
            # equality cases: regular graphs (K_n, K_{s,s}, the empty graph,
            # cycles, ...) and their complements pin the value exactly
            assert np.allclose(lo[regular], val[regular], atol=1e-9), key
            assert np.allclose(hi[regular], val[regular], atol=1e-9), key
    assert seen_regular > 2


def test_radius_intervals_complete_graphs():
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 15, 5, 5)
    assert rho_lo == rho_hi == 5 and q_lo == q_hi == 10
    # K_{3,3} as a balanced bipartite graph of order 6
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 9, 3, 3, half=3)
    assert rho_lo == rho_hi == 3 and q_lo == q_hi == 6


@pytest.mark.parametrize("key, size, bip", [("q", 6, False), ("rho_qc", 4, True)])
def test_blocked_radii_equal_one_stacked_eigvalsh(key, size, bip):
    # rows cross several eigvalsh blocks; each value equals the one-stack solve bitwise
    nbits = size * size if bip else size * (size - 1) // 2
    order = 2 * size if bip else size
    bits = _index_bits(nbits, 0, min(1 << nbits, 3 * _eig_rows(order) + 5))
    us, vs, _ = _bit_ends(size, bip)
    x = ~bits if key == "rho_qc" else bits
    a = np.zeros((len(bits), order, order))
    a[:, us, vs] = x
    a[:, vs, us] = x
    if key == "q":
        a[:, np.arange(order), np.arange(order)] = a.sum(axis=2)
    assert np.array_equal(_radii(key, size, bip, bits), np.linalg.eigvalsh(a)[:, -1])


def _space_rows(size, bip):
    """(bits, deg) of every row of the space, one _CHUNK block at a time."""
    nbits = size * size if bip else size * (size - 1) // 2
    for pos in range(0, 1 << nbits, _CHUNK):
        hi = min(pos + _CHUNK, 1 << nbits)
        yield _index_bits(nbits, pos, hi), _degree_stats(size, bip, pos, hi)["deg"]


@pytest.mark.parametrize("keys, size, bip", [
    (("rho", "q", "rho_complement"), 6, False),
    (("rho", "q", "rho_qc", "q_qc"), 3, True),
])
def test_class_values_match_row_values(keys, size, bip):
    # every row of the space, with one memo per quantity shared across chunks
    for key in keys:
        memo = {}
        for bits, deg in _space_rows(size, bip):
            got = _class_radii(key, size, bip, bits, deg, memo)
            assert np.allclose(got, _radii(key, size, bip, bits), rtol=0, atol=1e-12), key


def test_gated_class_values_match_row_values(monkeypatch):
    # the rows a campaign actually eigensolves, against their own eigvalsh value
    seen = {}
    orig = harness._class_radii

    def checking(key, size, bip, bits, deg, memo):
        got = orig(key, size, bip, bits, deg, memo)
        assert np.allclose(got, _radii(key, size, bip, bits), rtol=0, atol=1e-12), key
        seen[key] = seen.get(key, 0) + len(bits)
        return got

    monkeypatch.setattr(harness, "_class_radii", checking)
    assert verify_theorem("fn_rho", SearchSpace.all_labeled(7)).clean
    assert verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4)).clean
    assert seen.keys() == {"rho", "q_qc"} and min(seen.values()) > 0


@pytest.mark.parametrize("size, bip", [(5, False), (7, False), (3, True), (4, True)])
def test_class_key_is_the_relabelled_row(size, bip):
    # perm[r, v] is the vertex that becomes v; relabelling the row's graph so
    # gives the graph whose index is the key, and bipartite rows keep sides
    nbits = size * size if bip else size * (size - 1) // 2
    idx = np.arange(1 << nbits) if nbits <= 10 else \
        np.random.default_rng(5).choice(1 << nbits, 3000, replace=False)
    bits = harness._bits_of(nbits, idx)
    us, vs, order = _bit_ends(size, bip)
    inc = np.zeros((order, nbits), dtype=np.int64)
    inc[us, np.arange(nbits)] = inc[vs, np.arange(nbits)] = 1
    keys, perm = _class_keys(size, bip, bits, inc @ bits.T)
    decode = bipartite_from_index if bip else graph_from_index
    for i, key, p in zip(idx.tolist(), keys.tolist(), perm.tolist()):
        g, h = decode(size, i), decode(size, key)
        if bip:
            assert sorted(p[:size]) == list(range(size))
            g, h = g.to_graph(), h.to_graph()
        inverse = [0] * len(p)
        for new, old in enumerate(p):
            inverse[old] = new
        assert g.relabel(inverse) == h


def _index_of(g) -> int:
    return sum(1 << t for t, (u, v) in enumerate(pair_order(g.n)) if g.has_edge(u, v))


def test_relabellings_share_one_class_value():
    # one round of refinement separates all seven vertices of this graph, so
    # every relabelling has the same key and hence bitwise the same value,
    # whether the relabellings share a chunk or not
    g = graph6_decode("Fya?G")
    rng = np.random.default_rng(11)
    idx = np.array(sorted({_index_of(g.relabel(rng.permutation(7))) for _ in range(40)}))
    assert len(set((idx // _CHUNK).tolist())) > 1
    bits = harness._bits_of(21, idx)
    deg = np.concatenate([_degree_stats(7, False, i, i + 1)["deg"] for i in idx.tolist()], axis=1)
    keys, _ = _class_keys(7, False, bits, deg)
    assert len(set(keys.tolist())) == 1
    together = _class_radii("rho", 7, False, bits, deg, {})
    assert len(set(together.tolist())) == 1
    shared = {}
    for chunk in sorted(set((idx // _CHUNK).tolist())):
        rows = np.flatnonzero(idx // _CHUNK == chunk)
        for memo in (shared, {}):
            got = _class_radii("rho", 7, False, bits[rows], deg[:, rows], memo)
            assert np.array_equal(got, together[rows])


def test_class_keyed_campaigns_solve_few_matrices(monkeypatch):
    # the benchmark's campaign pass; no value outlives a verify_theorem call,
    # so a second identical pass eigensolves as many matrices as the first
    solved = []
    orig = np.linalg.eigvalsh

    def counting(a):
        solved.append(len(a))
        return orig(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    totals = []
    for _ in range(2):
        solved.clear()
        reps = [verify_theorem("fn_rho", SearchSpace.all_labeled(7)),
                verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4))]
        assert [(r.processed, r.hypothesis_count, r.clean) for r in reps] == \
            [(1 << 21, 6890, True), (1 << 16, 7583, True)]
        totals.append(sum(solved))
    assert 0 < totals[0] == totals[1] <= 1000


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12, float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        verify_theorem("fn_rho", SearchSpace.all_labeled(5), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        extremal_search(SearchSpace.all_labeled(4), "max_rho", "non_hamiltonian", tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        certifier_soundness_sweep(ns=(3,), bip_sides=(), tol=tol)


def test_moon_moser_needs_side_two(tmp_path):
    # K_{1,1} has no Hamilton cycle, and no balanced bipartite graph of side 1 does
    for k in (None, 0, 1, 2):
        with pytest.raises(ValueError, match="moon_moser needs side >= 2"):
            verify_theorem("moon_moser", SearchSpace.balanced_bipartite_labeled(1), k=k)
    path = tmp_path / "k11.g6"
    path.write_text("A_\n")
    rep = verify_theorem("moon_moser", SearchSpace.graph6_file(str(path)))
    assert rep.processed == 1 and rep.hypothesis_count == 0 and rep.clean
    rep = verify_theorem("moon_moser", SearchSpace.balanced_bipartite_labeled(2))
    assert rep.hypothesis_count == 2 and rep.clean


def test_bound_gate_skips_refuted_eigensolves(monkeypatch):
    solved = []
    orig = np.linalg.eigvalsh

    def counting(a):
        solved.append(len(a))
        return orig(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    assert (rep.processed, rep.hypothesis_count, rep.exceptional_matches) == (32768, 1203, 36)
    assert 0 < sum(solved) < 32768 // 10


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_indexed_conclusions_use_batched_oracle(monkeypatch):
    # enumerated spaces decide Hamiltonicity by the batched Held-Karp kernel
    # and build a row's graph only for the recognizers (exceptional rows here)
    calls = _count_calls(monkeypatch, harness,
                         ("is_hamiltonian", "is_traceable", "_held_karp_batch", "_row_graph"))
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    assert (rep.processed, rep.hypothesis_count, rep.exceptional_matches) == (32768, 1203, 36)
    assert rep.clean
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_held_karp_batch"] > 0
    assert calls["_row_graph"] == rep.exceptional_matches
    calls.update(dict.fromkeys(calls, 0))
    rep = verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(3))
    assert rep.clean and rep.hypothesis_count > 0
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_row_graph"] == rep.exceptional_matches


def test_batched_and_scalar_conclusions_agree(monkeypatch):
    # the same campaigns with every row's verdict taken from the scalar oracle
    cases = (("fn_rho", SearchSpace.all_labeled(6), None),
             ("ainouche_christofides", SearchSpace.all_labeled(6), None),
             ("fn_rho_complement", SearchSpace.all_labeled(6), None),
             ("moon_moser", SearchSpace.balanced_bipartite_labeled(3), None),
             ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(3), None),
             ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(3), None))
    batched = [verify_theorem(t, space, k=k).to_json() for t, space, k in cases]

    def scalar_column(self, question, rows):
        oracle = is_hamiltonian if question == "ham" else is_traceable
        return np.array([oracle(Graph(self.order, tuple(self.adj[r].tolist()))).status
                         for r in rows])

    # column() is where every statement's verdicts come from, the "not_ham"
    # checks included
    monkeypatch.setattr(harness._BatchVerdicts, "column", scalar_column)
    scalar = [verify_theorem(t, space, k=k).to_json() for t, space, k in cases]
    for a, b in zip(batched, scalar):
        _drop_times(a), _drop_times(b)
        assert a == b


def _drop_times(report_json):
    report_json.pop("wall_time")
    report_json.pop("timings")
    return report_json


@pytest.mark.parametrize("size, bip, ranges", [
    (8, False, [(12345, 15001), (3 * _CHUNK - 777, 3 * _CHUNK + 1234), ((1 << 28) - 999, 1 << 28)]),
    (5, True, [(7, 7 + 4099), (_CHUNK - 1, _CHUNK + 1), (1000 * _CHUNK + 5, 1002 * _CHUNK + 17)]),
])
def test_degree_table_matches_incidence_matmul(size, bip, ranges):
    # the degree table plus high-bit prefixes, on unaligned ranges (some
    # crossing a table block), against one incidence matmul over the index bits
    us, vs, order = _bit_ends(size, bip)
    inc = np.zeros((order, len(us)), dtype=np.int64)
    inc[us, np.arange(len(us))] = 1
    inc[vs, np.arange(len(us))] = 1
    for start, stop in ranges:
        stats = _degree_stats(size, bip, start, stop)
        deg = inc @ _index_bits(len(us), start, stop).T.astype(np.int64)
        assert np.array_equal(stats["deg"], deg)
        assert np.array_equal(stats["e"], deg.sum(axis=0) // 2)
        assert np.array_equal(stats["delta"], deg.min(axis=0))
        assert np.array_equal(stats["two_delta"], 2 * deg.min(axis=0))
        assert np.array_equal(stats["Delta"], deg.max(axis=0))


@pytest.mark.parametrize("target, space, k", [
    ("fn_rho", SearchSpace.all_labeled(6), None),
    ("fn_rho_complement", SearchSpace.all_labeled(6), None),
    ("yu_fan_q", SearchSpace.all_labeled(6), None),
    ("main_rho_complement", SearchSpace.all_labeled(6), 1),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), None),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(4), 2),
])
def test_gate_table_matches_interval_gate(target, space, k):
    # the (e, delta, Delta) lookup keeps exactly the rows the interval gate keeps
    bip = space.is_bipartite_space
    size = space.side if bip else space.n
    total = harness._space_index_total(space)
    stmts = harness.statements_for(target)
    keys = {st.quantity for st in stmts} & set(harness._RADII)
    _, _, order = _bit_ends(size, bip)
    for pos in range(0, total, _CHUNK):
        stats = _degree_stats(size, bip, pos, min(pos + _CHUNK, total))
        code = (stats["e"] * order + stats["delta"]) * order + stats["Delta"]
        for key in keys:
            table = harness._gate_table(target, key, size, bip, k, 1e-9)
            direct = harness._may_pass(key, stmts, stats, size, bip, k, 1e-9)
            assert np.array_equal(table[code], direct), key


@pytest.mark.parametrize("target, space", [("fn_rho", SearchSpace.all_labeled(7)),
                                           ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4))])
def test_three_jobs_match_one(target, space):
    serial = _drop_times(verify_theorem(target, space).to_json())
    assert serial == _drop_times(verify_theorem(target, space, jobs=3).to_json())


def test_stage_timings_cover_the_wall_time():
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(7))
    assert list(rep.timings) == ["stats", "gate", "eigensolve", "hypothesis",
                                 "conclusion", "recognize"]
    assert all(t >= 0 for t in rep.timings.values())
    assert rep.timings["eigensolve"] > 0 and rep.timings["recognize"] > 0
    assert abs(sum(rep.timings.values()) - rep.wall_time) <= 0.05 * rep.wall_time
    assert rep.to_json()["timings"] == rep.timings
    # merged across workers: every stage is a sum of the workers' stages
    parts = verify_theorem("fn_rho", SearchSpace.all_labeled(6), jobs=2).timings
    assert list(parts) == list(rep.timings) and parts["eigensolve"] > 0


def test_trace_kernel_sees_only_rows_the_cycle_kernel_rejected(monkeypatch):
    rejected, traced = set(), []
    orig = harness._held_karp_batch

    def recording(adj, order, cycle):
        found, wit = orig(adj, order, cycle)
        rows = [tuple(r) for r in np.asarray(adj).tolist()]
        if cycle:
            rejected.update(r for r, f in zip(rows, found) if not f)
        else:
            traced.extend(rows)
        return found, wit

    monkeypatch.setattr(harness, "_held_karp_batch", recording)
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    assert (rep.hypothesis_count, rep.exceptional_matches) == (1203, 36) and rep.clean
    assert traced and set(traced) <= rejected


def test_qc_recognizer_call_counts(monkeypatch):
    # one quasi-complement per recognized graph (2,794 per pass when each
    # Bset call built its own two); backtracking isomorphism only past the
    # component-size gate
    space = SearchSpace.balanced_bipartite_labeled(4)
    verify_theorem("bip_q_qc", space)  # builds and summarises Gamma1 / Gamma2 once
    calls = _count_calls(monkeypatch, families, ("quasi_complement", "is_isomorphic"))
    recognized = _count_calls(monkeypatch, statements, ("recognize",))
    rep = verify_theorem("bip_q_qc", space)
    assert (rep.hypothesis_count, rep.exceptional_matches) == (7583, 990) and rep.clean
    assert calls == {"quasi_complement": 988, "is_isomorphic": 192}
    assert recognized["recognize"] == 2028


def test_budget_below_batched_charge_aborts():
    # a row costs 1 << order nodes in the batched DP; below that it aborts
    rep = verify_theorem("ore", SearchSpace.all_labeled(5), oracle_budget=(1 << 5) - 1)
    assert rep.hypothesis_count > 0 and len(rep.aborted) > 0 and not rep.conclusion_failures
    rep = verify_theorem("ore", SearchSpace.all_labeled(5), oracle_budget=1 << 5)
    assert rep.clean and rep.hypothesis_count > 0
    # a "not_ham" check that aborts is reported and never counted as a hypothesis
    for target, space, budget, aborted in (
            ("ainouche_christofides", SearchSpace.all_labeled(5), (1 << 5) - 1, 273),
            ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(3), (1 << 6) - 1,
             97)):
        rep = verify_theorem(target, space, oracle_budget=budget)
        assert (rep.hypothesis_count, rep.exceptional_matches, len(rep.aborted)) == (0, 0, aborted)
        assert not rep.conclusion_failures


# (space, objective, constraint, k, best, number of optima, sha256 prefix of
# the sorted optima) recorded with every graph eigensolved
EXTREMAL_GOLDEN = (
    (SearchSpace.all_labeled(6), "max_rho", "non_hamiltonian", None,
     4.051374241731038, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "max_q", "non_hamiltonian", None,
     8.274917217635377, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "min_rho_complement", "non_hamiltonian", None,
     2.0, 30, "f5fb7c4cfbadbc4d"),
    (SearchSpace.all_labeled(6), "max_q", "non_hamiltonian", 2,
     7.758770483143639, 90, "28a4286a872447b6"),
    (SearchSpace.balanced_bipartite_labeled(3), "max_rho", "non_hamiltonian", None,
     2.524337798962139, 18, "b571dc34215852df"),
    (SearchSpace.balanced_bipartite_labeled(3), "max_q", "non_hamiltonian", None,
     5.236067977499792, 18, "b571dc34215852df"),
    (SearchSpace.balanced_bipartite_labeled(3), "min_q_qc", "non_hamiltonian", None,
     3.0, 63, "24aba313c6957426"),
)


@pytest.mark.parametrize("case", EXTREMAL_GOLDEN, ids=lambda c: f"{c[1]}-{c[0].describe()}")
def test_extremal_search_golden(case):
    space, objective, constraint, k, best_ref, count, digest = case
    best, winners = extremal_search(space, objective, constraint, k=k)
    assert abs(best - best_ref) < 1e-12
    assert len(winners) == count
    assert hashlib.sha256("\n".join(winners).encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# Materialised rows (graph6 files, random models) against a per-graph reference
# ---------------------------------------------------------------------------

def _reference_report(target, graphs, k, tol=1e-9):
    """(processed, hypotheses, exceptional, failures, aborted), one graph at a time.

    Each graph's values come from GraphValues, its verdicts from the scalar
    oracle and its exceptional families from the recognizers, independently
    of the row blocks.
    """
    from spectralham.families import spanning_subgraph_of
    from spectralham.graphs import bipartite_from_graph
    from spectralham.oracle import clique_number
    from spectralham.statements import GraphValues, statements_for
    from spectralham.transforms import is_closed

    stmts = statements_for(target)
    bip = {st.domain for st in stmts} == {"bipartite"}
    hyps = exceptional = 0
    failures = []
    for g in graphs:
        if bip and isinstance(g, Graph):
            g = bipartite_from_graph(g)
        gg = g.to_graph() if bip else g
        n = g.nx if bip else g.n
        vals = GraphValues(g)
        for st in stmts:
            if not st.hypothesis(vals, n, k, tol):
                continue
            if st.graph_check == "not_ham" and is_hamiltonian(gg).status == "yes":
                continue
            if st.graph_check == "closed" and not is_closed(g):
                continue
            hyps += 1
            if st.conclusion == "clique":
                ok = clique_number(g) >= n - k
            else:
                oracle = is_hamiltonian if st.conclusion == "ham" else is_traceable
                status = oracle(gg).status
                assert status != "aborted"
                ok = status == "yes"
                if not ok and any(spanning_subgraph_of(g, s.family, s.n, s.k) if st.spanning
                                  else recognize(g, s.family, n=s.n, k=s.k)
                                  for s in st.families(n, k)):
                    exceptional += 1
                    ok = True
            if not ok:
                failures.append(graph6_encode(gg))
    return [len(graphs), hyps, exceptional, sorted(set(failures)), []]


def _mixed_order_graphs():
    """Orders 1, 2, 5, 11, 12 and 17: family members, complete graphs and dense random graphs."""
    rng = np.random.default_rng(3)
    graphs = [graph6_decode("@"), graph6_decode("A_"), graph6_decode("A?")]
    graphs += [graph_from_index(5, int(i)) for i in rng.integers(0, 1 << 10, size=40)]
    for n in (11, 12):
        graphs += [construct(FamilySpec(f, n=n, k=k)) for f in ("L", "N") for k in (1, 2)]
        graphs += [construct(FamilySpec(f, n=n, k=k)) for f in ("barL", "barN") for k in (0, 1)]
    for n in (5, 11, 12, 17):
        graphs.append(complete_graph(n))
        graphs += list(random_model("uniform_gnp", n=n, p=0.88, seed=n, count=8))
    graphs += [construct(FamilySpec("N", n=17, k=1)), construct(FamilySpec("barN", n=17, k=0)),
               construct(FamilySpec("barL", n=17, k=0))]
    return graphs


MIXED_TARGETS = (("fn_rho", None), ("yu_fan_q", None), ("fn_rho_complement", None), ("ore", None),
                 ("dirac", None), ("main_rho", 1), ("main_q", 1), ("ainouche_christofides", None),
                 ("clique_lemma", 1), ("refined_traceable_lemma", 0))


def _drop_report(rep):
    return [rep.processed, rep.hypothesis_count, rep.exceptional_matches,
            rep.conclusion_failures, rep.aborted]


def test_graph6_rows_of_mixed_orders_match_per_graph_reference(tmp_path):
    graphs = _mixed_order_graphs()
    rng = np.random.default_rng(4)
    path = tmp_path / "mixed.g6"
    path.write_text("".join(graph6_encode(graphs[i]) + "\n" for i in rng.permutation(len(graphs))))
    space = SearchSpace.graph6_file(str(path))
    seen = set()
    for target, k in MIXED_TARGETS:
        rep = verify_theorem(target, space, k=k)
        assert _drop_report(rep) == _reference_report(target, graphs, k), target
        seen.add(rep.hypothesis_count > 0)
    assert seen == {True}


@pytest.mark.parametrize("target, k, space", [
    # main_rho.1 and main_q.1 need n >= 16
    *[(t + ".2" if t.startswith("main") else t, k, SearchSpace.gnp(12, 0.85, 150, seed=41))
      for t, k in MIXED_TARGETS],
    *[(t, k, SearchSpace.gnp(30, 0.95, 30, seed=42)) for t, k in MIXED_TARGETS[:8]],
    ("moon_moser", None, SearchSpace.bipartite_gnp(8, 0.8, 60, seed=43)),
    ("bip_q_qc", None, SearchSpace.bipartite_gnp(8, 0.85, 60, seed=44)),
    ("bip_rho", 1, SearchSpace.bipartite_gnp(8, 0.9, 60, seed=45)),
])
def test_random_rows_match_per_graph_reference(target, k, space):
    graphs = list(enumerate_space(space))
    assert _drop_report(verify_theorem(target, space, k=k)) == _reference_report(target, graphs, k)


def test_order_12_rows_never_share_a_class_value():
    # order-12 rows have 66 bits, past an int64 key: rows that differ only in
    # bits 63-65 are different graphs (one more edge raises rho), and each
    # row keeps its own eigvalsh value
    bits = np.concatenate([b for b in harness._gnp_bits(12, False, 0.8, 5, 40)])
    twins = bits.copy()
    twins[:, 63:] = ~twins[:, 63:]
    rows = np.concatenate([bits, twins])
    deg = harness._row_block(12, False, rows).stats["deg"]
    got = _class_radii("rho", 12, False, rows, deg, {})
    assert np.array_equal(got, _radii("rho", 12, False, rows))
    assert np.all(got[:40] != got[40:])

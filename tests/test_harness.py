import hashlib
import json
import re
from collections import defaultdict

import numpy as np
import pytest

import spectralham.families as families
import spectralham.graphs as graphs_module
import spectralham.harness as harness
import spectralham.statements as statements
from spectralham.families import FamilySpec, construct, recognize
from spectralham.graphs import (
    Graph, as_graph, complement, complete_graph, cycle_graph, graph6_decode, graph6_encode,
    pair_order, path_graph, quasi_complement,
)
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
    _eig_rows,
    _graphs_from_bits,
    _index_blocks,
    _radii,
    _radius_interval,
    _row_classes,
)
from spectralham.oracle import is_hamiltonian, is_traceable
from spectralham.spectral import DEFAULT_TOL, radius_intervals, spectral_radius
from spectralham.transforms import bc_closure


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


def test_enumerate_graph6_file_keeps_file_order_and_skips_blank_lines(tmp_path):
    graphs = [path_graph(4), complete_graph(3), graph6_decode("?"), complete_graph(1),
              path_graph(4)]
    path = tmp_path / "order.g6"
    g6 = [graph6_encode(g) for g in graphs]
    path.write_text(f"\n{g6[0]}\n\n  {g6[1]}\t\n{g6[2]}\n \n{g6[3]}\n{g6[4]}")
    assert list(enumerate_space(SearchSpace.graph6_file(str(path)))) == graphs


def test_verify_emits_counterexample_and_aborted_records(monkeypatch, tmp_path):
    import dataclasses

    p5, k5 = graph6_encode(path_graph(5)), graph6_encode(complete_graph(5))
    path = tmp_path / "two.g6"
    path.write_text(f"{p5}\n{k5}\n")
    space = SearchSpace.graph6_file(str(path))
    # planted defect: ore with its threshold lowered to 3 edges holds on P_5
    ore = statements.statements_for("ore")[0]
    monkeypatch.setattr(harness, "statements_for",
                        lambda target: [dataclasses.replace(ore, threshold=lambda n, k: 3)])
    records = []
    rep = verify_theorem("ore", space, emit=records.append)
    assert rep.conclusion_failures == [p5] and not rep.aborted
    assert records[:-1] == [{"target": "ore", "space": rep.space, "verdict": "counterexample",
                             "detail": {"graph6": p5,
                                        "reason": "hypothesis held but conclusion failed"}}]
    assert records[-1] == {"target": "ore", "space": rep.space, "verdict": "summary",
                           "detail": rep.to_json()}
    monkeypatch.undo()
    # ore holds on K_5 alone, and no oracle call fits in a budget of 0 nodes
    records = []
    rep = verify_theorem("ore", space, oracle_budget=0, emit=records.append)
    assert rep.aborted == [k5] and not rep.conclusion_failures
    assert records[:-1] == [{"target": "ore", "space": rep.space, "verdict": "aborted",
                             "detail": {"graph6": k5, "reason": "oracle budget exhausted"}}]
    assert records[-1]["verdict"] == "summary" and records[-1]["detail"] == rep.to_json()


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


def test_extremal_search_refuses_an_aborted_optimum():
    # below the batched charge of 1 << 5 nodes every class aborts, so no
    # optimum is known
    with pytest.raises(ValueError, match="budget 31"):
        extremal_search(SearchSpace.all_labeled(5), "max_rho", "non_hamiltonian",
                        oracle_budget=(1 << 5) - 1)


def test_extremal_search_refuses_aborts_that_could_reach_the_optimum(tmp_path):
    # a budget of 63 decides order 5 (charge 32) and aborts order 6 (charge
    # 64): an aborted P_6 lies far below N_5^1, an aborted N_6^1 above it
    n51 = construct(FamilySpec("N", n=5, k=1))
    path = tmp_path / "orders56.g6"
    space = SearchSpace.graph6_file(str(path))
    path.write_text(f"{graph6_encode(n51)}\n{graph6_encode(path_graph(6))}\n")
    best, winners = extremal_search(space, "max_rho", "non_hamiltonian", oracle_budget=63)
    assert abs(best - spectral_radius(n51).value) < 1e-12 and winners == [graph6_encode(n51)]
    n61 = construct(FamilySpec("N", n=6, k=1))
    path.write_text(f"{graph6_encode(n51)}\n{graph6_encode(n61)}\n")
    with pytest.raises(ValueError, match="budget 63"):
        extremal_search(space, "max_rho", "non_hamiltonian", oracle_budget=63)


def _extremal_by_class_and_row(monkeypatch, space, objective, k=None):
    # the answer with each class decided once, and with the identity
    # relabelling, which makes every labeled row a class; the optima must be
    # the same rows, and the values the same up to the rounding of eigvalsh on
    # a relabelled matrix
    by_class = extremal_search(space, objective, "non_hamiltonian", k=k)
    with monkeypatch.context() as m:
        m.setattr(harness, "_class_keys", _identity_keys)
        by_row = extremal_search(space, objective, "non_hamiltonian", k=k)
    assert abs(by_class[0] - by_row[0]) < 1e-12
    return by_class[1], by_row[1]


@pytest.mark.parametrize("space, objective, k", [
    (SearchSpace.all_labeled(6), "max_rho", None),
    (SearchSpace.all_labeled(6), "max_q", None),
    (SearchSpace.balanced_bipartite_labeled(4), "min_q_qc", 2),
])
def test_extremal_class_answers_match_row_answers(monkeypatch, space, objective, k):
    by_class, by_row = _extremal_by_class_and_row(monkeypatch, space, objective, k)
    assert by_class == by_row and by_class


def test_extremal_search_on_unkeyed_rows_matches_per_graph_reference(monkeypatch, tmp_path):
    # order-12 rows have 66 bits and no key, so each is a class of one; the
    # reference takes each graph's rho and verdict on its own
    rng = np.random.default_rng(12)
    graphs = [construct(FamilySpec(f, n=12, k=k)) for f in ("L", "N") for k in (1, 2)]
    graphs += list(random_model("uniform_gnp", n=12, p=0.8, seed=12, count=10))
    graphs = [g.relabel(rng.permutation(12)) for g in graphs for _ in range(3)]
    path = tmp_path / "order12.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
    space = SearchSpace.graph6_file(str(path))
    by_class, by_row = _extremal_by_class_and_row(monkeypatch, space, "max_rho")
    assert by_class == by_row
    non_ham = [(graph6_encode(g), spectral_radius(g).value) for g in graphs
               if is_hamiltonian(g).status == "no"]
    best = max(val for _, val in non_ham)
    assert abs(extremal_search(space, "max_rho", "non_hamiltonian")[0] - best) < 1e-12
    # L and N coincide at k = 1: three relabellings each, one of them twice
    assert by_class == sorted(g6 for g6, val in non_ham if best - val <= 1e-9)
    assert len(by_class) == 6


def test_sweep_class_verdicts_match_row_verdicts(monkeypatch):
    # the exceptional families are recognized once per (class, fired step) in
    # the call: 236 recognizer calls, against one per fired row (8,498) when
    # every row is its own class
    calls = _count_calls(monkeypatch, statements.Statement, ("exception",))
    by_class = certifier_soundness_sweep(ns=(5, 6), bip_sides=(3,))
    assert calls["exception"] == 236
    with monkeypatch.context() as m:
        m.setattr(harness, "_class_keys", _identity_keys)
        by_row = certifier_soundness_sweep(ns=(5, 6), bip_sides=(3,))
    assert calls["exception"] == 236 + 8_498
    assert by_class == by_row
    assert (by_class["certified_positive"], by_class["exceptional"]) == (8_290, 208)


def test_extremal_search_and_sweep_use_batched_verdicts(monkeypatch):
    # every verdict comes from the batched kernel; the scalar oracle (which
    # the certifier would call only with use_oracle) is never reached
    import spectralham.certifier as certifier

    calls = _count_calls(monkeypatch, harness,
                         ("is_hamiltonian", "is_traceable", "_held_karp_batch"))
    certifier_calls = _count_calls(monkeypatch, certifier, (
        "is_hamiltonian", "is_traceable", "certify_hamiltonicity", "certify_traceability",
        "certify_bipartite_hamiltonicity", "_certify", "_walk", "Certificate"))
    best, winners = extremal_search(SearchSpace.balanced_bipartite_labeled(4), "max_rho",
                                    "non_hamiltonian", k=2)
    assert len(winners) == 36
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_held_karp_batch"] > 0
    calls.update(dict.fromkeys(calls, 0))
    summary = certifier_soundness_sweep(ns=(6,), bip_sides=(3,))
    assert summary["certified_positive"] and summary["exceptional"] and not summary["aborted"]
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_held_karp_batch"] > 0
    # the sweep certifies no graph on its own and builds no Certificate
    assert certifier_calls == dict.fromkeys(certifier_calls, 0)


def test_labeled_min_degree_needs_k():
    for k in (None, -1, 1.5):
        space = SearchSpace("labeled_min_degree", n=4, k=k)
        with pytest.raises(SpaceCapError, match="labeled_min_degree needs an int k >= 0"):
            space.validate()
        with pytest.raises(SpaceCapError, match="labeled_min_degree needs an int k >= 0"):
            list(enumerate_space(space))
    assert sum(1 for _ in enumerate_space(SearchSpace.labeled_min_degree(4, 0))) == 64


def test_space_parameters_must_be_ints():
    # 5.0 used to die inside a shift, a count of 2.5 inside numpy, and a seed
    # of None drew a fresh OS seed on every call
    for space, message in ((SearchSpace.all_labeled(5.0), "n must be an int, got 5.0"),
                           (SearchSpace.labeled_min_degree(4.5, 1), "n must be an int"),
                           (SearchSpace.balanced_bipartite_labeled(2.0), "side must be an int"),
                           (SearchSpace.gnp(5, 0.5, 2.5, 0), "count must be an int, got 2.5"),
                           (SearchSpace.bipartite_gnp(3.0, 0.5, 2, 0), "side must be an int"),
                           (SearchSpace.gnp(5, 0.5, 10, None), "int seed >= 0, got None"),
                           (SearchSpace.gnp(5, 0.5, 10, -1), "int seed >= 0, got -1"),
                           (SearchSpace.gnp(5, 0.5, 10, 1.0), "int seed >= 0, got 1.0")):
        with pytest.raises(SpaceCapError, match=message):
            space.validate()
        with pytest.raises(SpaceCapError, match=message):
            list(enumerate_space(space))
    with pytest.raises(SpaceCapError, match="int seed >= 0, got None"):
        list(random_model("uniform_gnp", n=5, p=0.5, seed=None, count=2))
    # numpy integers stay accepted
    assert len(list(enumerate_space(SearchSpace.all_labeled(np.int64(3))))) == 8
    space = SearchSpace.gnp(np.int64(5), 0.5, np.int32(3), np.uint8(2))
    assert list(enumerate_space(space)) == list(enumerate_space(SearchSpace.gnp(5, 0.5, 3, 2)))


@pytest.mark.parametrize("space, message", [
    # a model on a kind that takes none used to make the space bipartite,
    # and moon_moser then died on None * None
    (SearchSpace("all_labeled", n=4, model="bipartite_gnp"),
     "all_labeled takes no model, got model='bipartite_gnp'"),
    # an order on a graph6 file used to reach Statement.refuses as the order
    (SearchSpace("graph6_file", path="unread.g6", n=99), "graph6_file takes no n, got n=99"),
    # a string p used to raise TypeError from the range check
    (SearchSpace.gnp(5, "0.5", 3, 0), "p must be a real number, got '0.5'"),
    # an int path used to be opened as a file descriptor
    (SearchSpace.graph6_file(3), "path must be a str, got 3"),
])
def test_stray_space_parameters_are_refused(space, message):
    assert not space.is_bipartite_space
    for call in (space.validate, lambda: list(enumerate_space(space)),
                 lambda: verify_theorem("moon_moser", space),
                 lambda: extremal_search(space, "max_rho", "non_hamiltonian")):
        with pytest.raises(SpaceCapError, match=re.escape(message)):
            call()


def _cycles_and_paths(space, bip, *_):
    """A test-only space kind's producer: C_m and P_m, one block per order m = 3 .. n."""
    for m in range(3, space.n + 1):
        us, vs, _ = _bit_ends(m, False)
        yield harness._row_block(m, False, np.array(
            [[g.has_edge(u, v) for u, v in zip(us.tolist(), vs.tolist())]
             for g in (cycle_graph(m), path_graph(m))]))


def test_a_kind_added_by_one_table_entry_runs_everywhere(monkeypatch, tmp_path):
    # one entry in the kind table is all a new kind needs: it is validated,
    # enumerated, verified and searched like a graph6 file of the same graphs
    monkeypatch.setitem(harness._SPACE_KINDS, ("cycles_and_paths", None), harness._SpaceKind(
        ("n",), ((lambda s: s.n >= 3, "cycles_and_paths needs n >= 3, got {n}"),), False, None,
        _cycles_and_paths))
    space = SearchSpace("cycles_and_paths", n=7)
    graphs = [g for m in range(3, 8) for g in (cycle_graph(m), path_graph(m))]
    assert list(enumerate_space(space)) == graphs
    path = tmp_path / "cycles_and_paths.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
    same = SearchSpace.graph6_file(str(path))
    for target in ("ore", "dirac", "fn_rho"):
        got, want = (_drop_times(verify_theorem(target, s).to_json()) for s in (space, same))
        assert got.pop("space") == {"kind": "cycles_and_paths", "n": 7}
        want.pop("space")
        assert got == want and got["processed"] == len(graphs), target
    assert verify_theorem("dirac", space).hypothesis_count > 0
    for objective in ("max_rho", "max_q"):
        got = extremal_search(space, objective, "non_hamiltonian")
        assert got == extremal_search(same, objective, "non_hamiltonian") and got[1]
    with pytest.raises(ValueError, match="needs a balanced-bipartite space"):
        verify_theorem("moon_moser", space)
    for bad, message in ((SearchSpace("cycles_and_paths", n=2), "needs n >= 3, got 2"),
                         (SearchSpace("cycles_and_paths", n=5, side=2), "takes no side")):
        with pytest.raises(SpaceCapError, match=message):
            bad.validate()


def test_random_model_checks_its_space():
    for kwargs, message in ((dict(kind="bipartite_gnp", n=3), "bipartite_gnp needs side >= 1"),
                            (dict(kind="uniform_gnp", side=3), "uniform_gnp needs n >= 1"),
                            (dict(kind="gnp", n=3), "unknown random model 'gnp'")):
        with pytest.raises(SpaceCapError, match=message):
            list(random_model(p=0.5, seed=0, count=2, **kwargs))
    with pytest.raises(SpaceCapError, match="edge probability"):
        list(random_model("uniform_gnp", n=3, p=1.5, seed=0, count=2))


def test_soundness_sweep_tiny():
    s = certifier_soundness_sweep(ns=(3, 4, 5), bip_sides=(2,))
    assert s["violations"] == [] and s["aborted"] == []
    assert s["graphs"] == 8 + 64 + 1024


def test_soundness_sweep_checks_its_ranges_first(monkeypatch):
    # n = 9 would start a 2^36-graph enumeration, n = 0 used to fail inside numpy
    def no_work(*args):
        pytest.fail("the sweep enumerated before checking its ranges")

    monkeypatch.setattr(harness, "_index_blocks", no_work)
    for kwargs, error, message in (
            (dict(ns=(3, 9), bip_sides=()), SpaceCapError, "all_labeled is capped at n <= 8"),
            (dict(ns=(0,), bip_sides=()), SpaceCapError, "labeled enumeration needs n >= 1"),
            (dict(ns=(3,), bip_sides=(6,)), SpaceCapError,
             "balanced_bipartite_labeled is capped at side <= 5"),
            # below the certifiers' own minimum orders
            (dict(ns=(3, 2), bip_sides=()), ValueError,
             "Hamiltonicity certification needs n >= 3"),
            (dict(ns=(3,), bip_sides=(1,)), ValueError,
             "bipartite certification needs side size >= 2")):
        with pytest.raises(error, match=message):
            certifier_soundness_sweep(**kwargs)


@pytest.mark.parametrize("mode, space", [
    ("hamiltonicity", SearchSpace.all_labeled(6)),
    ("bipartite_hamiltonicity", SearchSpace.balanced_bipartite_labeled(4)),
])
def test_sweep_cascade_matches_per_graph_certificates(mode, space):
    # the sweep's column cascade gives every row the verdict and theorem
    # that the per-graph certifier gives that row's own graph
    import spectralham.certifier as certifier

    certify = getattr(certifier, f"certify_{mode}")
    walk = certifier._CERTIFIERS[mode][4]
    bip = space.is_bipartite_space
    size = space.side if bip else space.n
    memos, fired, expected, offset = defaultdict(dict), [], [], 0
    for blk in _index_blocks(size, bip, 0, harness._space_index_total(space)):
        bits = blk.rows_bits()
        classes = _row_classes(size, bip, bits, blk.stats["deg"], memos)
        rows, step, exceptional = harness._fired_rows(mode, classes, blk.stats, DEFAULT_TOL)
        fired += [(offset + r, "exceptional" if x else "certified_positive", walk[i][0])
                  for r, i, x in zip(rows.tolist(), step.tolist(), exceptional.tolist())]
        for r, g in enumerate(_graphs_from_bits(size, bip, bits)):
            cert = certify(g)
            if cert.verdict != "inconclusive":
                expected.append((offset + r, cert.verdict, cert.theorem))
        offset += len(bits)
    assert offset == 1 << (size * size if bip else size * (size - 1) // 2)
    assert fired == expected
    assert {verdict for _, verdict, _ in fired} == {"certified_positive", "exceptional"}
    assert len({theorem for _, _, theorem in fired}) >= 3


def test_soundness_sweep_reports_planted_defects(monkeypatch):
    # ore with its threshold lowered to 4 edges fires on non-Hamiltonian
    # graphs, and dirac with K_n as its exceptional family calls K_5 exceptional
    import dataclasses

    import spectralham.certifier as certifier

    head = certifier._CERTIFIERS["hamiltonicity"]
    changed = {"ore": dict(threshold=lambda n, k: 4),
               "dirac": dict(families=lambda n, k: [FamilySpec("complete", n=n)])}
    walk = [(name, dataclasses.replace(st, **changed.get(name, {}))) for name, st in head[4]]
    monkeypatch.setitem(certifier._CERTIFIERS, "hamiltonicity", (*head[:4], walk, *head[5:]))
    summary = certifier_soundness_sweep(ns=(5,), bip_sides=())
    found = {(v["kind"], v["theorem"]) for v in summary["violations"]}
    assert found == {("certified_not_hamiltonian", "ore"), ("exceptional_but_hamiltonian", "dirac")}
    k5 = graph6_encode(complete_graph(5))
    assert {"graph6": k5, "kind": "exceptional_but_hamiltonian",
            "theorem": "dirac"} in summary["violations"]
    assert summary["exceptional"] == 1 and not summary["aborted"]


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
    # integer-statistics interval of each quantity holds the eigvalsh value,
    # and so does the Rayleigh quotient's lower end, and for q and q_qc the
    # degree floor below it
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
            floor = harness._rayleigh(key, size, bip, blk.rows_bits(), stats["deg"])
            assert np.all(floor <= val + 1e-12), key
            if key in ("q", "q_qc"):
                # the degree floor never passes the computed Rayleigh floor
                degree = harness._degree_floor(key, size, bip, stats["deg"], stats["e"])
                assert np.all(degree <= floor), key
            # equality cases: regular graphs (K_n, K_{s,s}, the empty graph,
            # cycles, ...) and their complements pin the value exactly
            assert np.allclose(lo[regular], val[regular], atol=1e-9), key
            assert np.allclose(hi[regular], val[regular], atol=1e-9), key
    assert seen_regular > 2


def _dense_rayleigh(g, signless):
    """x^T M x / x^T x at the degree vector x of g, from g's dense matrix M."""
    a = np.array([[g.adj[u] >> v & 1 for v in range(g.n)] for u in range(g.n)], dtype=float)
    x = a.sum(axis=1)
    m = a + np.diag(x) if signless else a
    return x @ m @ x / (x @ x) if x.any() else 0.0


def _dense_degree_floor(g):
    """sum d^2 / e of g, from g's dense matrix."""
    d = np.array([[g.adj[u] >> v & 1 for v in range(g.n)] for u in range(g.n)]).sum(axis=1)
    return (d @ d) / (d.sum() / 2) if d.any() else 0.0


def test_rayleigh_lower_end_on_large_family_members(tmp_path):
    # L, N and B members of order 60-200 and their complements (the
    # quasi-complement for B), read from a graph6 file: the int64 quotient is
    # the dense float one (no overflow at order 200) and at most eigvalsh, and
    # for q and q_qc the degree floor is the dense sum d^2 / e and at most the quotient
    plain = [construct(FamilySpec(fam, n=n, k=k)) for fam in ("L", "N")
             for n in (60, 129, 200) for k in (1, 3)]
    plain += [complement(g) for g in plain]
    bips = [construct(FamilySpec("B", n=side, k=k)) for side in (30, 64, 100) for k in (1, 3)]
    bips += [quasi_complement(b) for b in bips]
    for graphs, bip, keys in ((plain, False, ("rho", "q", "rho_complement")),
                              ([b.to_graph() for b in bips], True,
                               ("rho", "q", "rho_qc", "q_qc"))):
        path = tmp_path / f"members{int(bip)}.g6"
        path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
        seen = 0
        for blk in harness._graph6_blocks(str(path), bip):
            bits = blk.rows_bits()
            seen += len(bits)
            for key in keys:
                floor = harness._rayleigh(key, blk.size, bip, bits, blk.stats["deg"])
                assert np.all(floor <= _radii(key, blk.size, bip, bits) + 1e-12), key
                rows = harness._graphs_from_bits(blk.size, bip, bits)
                if key in ("rho_complement", "rho_qc", "q_qc"):
                    rows = [complement(g) if not bip else quasi_complement(g) for g in rows]
                dense = [_dense_rayleigh(as_graph(g), key in ("q", "q_qc")) for g in rows]
                assert np.allclose(floor, dense, rtol=1e-12, atol=0), key
                if key in ("q", "q_qc"):
                    degree = harness._degree_floor(key, blk.size, bip, blk.stats["deg"],
                                                   blk.stats["e"])
                    assert np.all(degree <= floor), key
                    dense = [_dense_degree_floor(as_graph(g)) for g in rows]
                    assert np.allclose(degree, dense, rtol=1e-12, atol=0), key
        assert seen == len(graphs)


def test_radius_intervals_complete_graphs():
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 15, 5, 5)
    assert rho_lo == rho_hi == 5 and q_lo == q_hi == 10
    # K_{3,3} as a balanced bipartite graph of order 6
    (rho_lo, rho_hi), (q_lo, q_hi) = radius_intervals(6, 9, 3, 3, half=3)
    assert rho_lo == rho_hi == 3 and q_lo == q_hi == 6


@pytest.mark.parametrize("key, size, bip", [
    ("rho", 6, False), ("q", 6, False), ("rho_complement", 6, False),
    ("rho", 4, True), ("q", 4, True), ("rho_qc", 4, True), ("q_qc", 4, True),
])
def test_blocked_radii_equal_one_stacked_eigvalsh(key, size, bip):
    # rows cross several eigvalsh blocks; each value equals the one-stack solve
    # of hand-built matrices bitwise: the complement (of a plain row) and the
    # quasi-complement (of a bipartite row) are the row's missing pairs
    nbits = size * size if bip else size * (size - 1) // 2
    order = 2 * size if bip else size
    bits = _index_bits(nbits, 0, min(1 << nbits, 3 * _eig_rows(order) + 5))
    us, vs, _ = _bit_ends(size, bip)
    x = ~bits if key in ("rho_complement", "rho_qc", "q_qc") else bits
    a = np.zeros((len(bits), order, order))
    a[:, us, vs] = x
    a[:, vs, us] = x
    if key in ("q", "q_qc"):
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
        memos = defaultdict(dict)
        for bits, deg in _space_rows(size, bip):
            classes = _row_classes(size, bip, bits, deg, memos)
            got = classes.radii(key)[classes.of]
            assert np.allclose(got, _radii(key, size, bip, bits), rtol=0, atol=1e-12), key


def test_gated_class_values_match_row_values(monkeypatch):
    # the rows a campaign actually eigensolves, against their own eigvalsh value
    seen = {}
    orig = harness._Classes.radii

    def checking(self, key, c=None):
        # the value of each class asked for, at each of its rows
        got = orig(self, key, c)
        at = np.full(self.count, -1)
        at[np.arange(self.count) if c is None else c] = np.arange(len(got))
        rows = np.flatnonzero(at[self.of] >= 0)
        assert np.allclose(got[at[self.of[rows]]], _radii(key, self.size, self.bip,
                                                          self.rows[rows]), rtol=0, atol=1e-12), key
        seen[key] = seen.get(key, 0) + len(rows)
        return got

    monkeypatch.setattr(harness._Classes, "radii", checking)
    assert verify_theorem("fn_rho", SearchSpace.all_labeled(7)).clean
    assert verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4)).clean
    assert seen.keys() == {"rho", "q_qc"} and min(seen.values()) > 0


def _incidence_degrees(size, bip, bits):
    """The degrees (order, rows) int16 of rows of pair bits, by one incidence matmul."""
    us, vs, order = _bit_ends(size, bip)
    inc = np.zeros((order, bits.shape[1]), dtype=np.int64)
    inc[us, np.arange(bits.shape[1])] = inc[vs, np.arange(bits.shape[1])] = 1
    return (inc @ bits.T).astype(np.int16)


@pytest.mark.parametrize("size, bip", [(5, False), (7, False), (3, True), (4, True)])
def test_class_key_is_the_relabelled_row(size, bip):
    # rank[v, r] is the vertex that v becomes in row r; relabelling the row's
    # graph so gives the graph whose index is the key, and bipartite rows keep sides
    nbits = size * size if bip else size * (size - 1) // 2
    idx = np.arange(1 << nbits) if nbits <= 10 else \
        np.random.default_rng(5).choice(1 << nbits, 3000, replace=False)
    bits = harness._bits_of(nbits, idx)
    keys, rank = _class_keys(size, bip, bits, _incidence_degrees(size, bip, bits))
    decode = bipartite_from_index if bip else graph_from_index
    for i, key, relabel in zip(idx.tolist(), keys.tolist(), rank.T.tolist()):
        g, h = decode(size, i), decode(size, key)
        if bip:
            assert sorted(relabel[:size]) == list(range(size))
            g, h = g.to_graph(), h.to_graph()
        assert g.relabel(relabel) == h


def _dense_class_keys(size, bip, bits, deg):
    """``_class_keys`` by a dense adjacency stack, an einsum and a stable argsort.

    perm[r, v] is the vertex that becomes v, the inverse of ``_class_keys``'s
    rank[:, r].
    """
    us, vs, order = _bit_ends(size, bip)
    adj = np.zeros((len(bits), order, order), dtype=bool)
    adj[:, us, vs] = bits
    adj[:, vs, us] = bits
    deg = deg.T.astype(np.int64)
    score = deg * order * order + np.einsum("rvu,ru->rv", adj, deg)
    if bip:
        perm = np.concatenate([np.argsort(score[:, :size], axis=1, kind="stable"),
                               size + np.argsort(score[:, size:], axis=1, kind="stable")], axis=1)
    else:
        perm = np.argsort(score, axis=1, kind="stable")
    relabelled = adj[np.arange(len(bits))[:, None], perm[:, us], perm[:, vs]]
    return relabelled @ (1 << np.arange(len(us), dtype=np.int64)), perm


def _assert_dense_class_keys(size, bip, bits, deg):
    keys, rank = _class_keys(size, bip, bits, deg)
    want, perm = _dense_class_keys(size, bip, bits, deg)
    assert keys.dtype == np.int64 and np.array_equal(keys, want)
    assert np.array_equal(rank, np.argsort(perm, axis=1).T)


def test_class_keys_match_dense_reference(tmp_path):
    # every row of all_labeled(6) and side 3, 3,000-row samples of
    # all_labeled(7) and sides 4 and 5 (once with F-ordered degrees), and
    # graph6 rows of the largest keyed orders: order 11 (55 bits) and side 7
    # (49 bits), the complete ones carrying the largest scores
    for size, bip in ((6, False), (3, True)):
        for bits, deg in _space_rows(size, bip):
            _assert_dense_class_keys(size, bip, bits, deg)
    rng = np.random.default_rng(18)
    for size, bip in ((7, False), (4, True), (5, True)):
        nbits = size * size if bip else size * (size - 1) // 2
        bits = harness._bits_of(nbits, rng.choice(1 << nbits, 3000, replace=False))
        deg = _incidence_degrees(size, bip, bits)
        _assert_dense_class_keys(size, bip, bits, deg)
        if size == 7:
            _assert_dense_class_keys(size, bip, bits, np.asfortranarray(deg))
    for size, bip in ((11, False), (7, True)):
        if bip:
            graphs = [b.to_graph() for p in (0.3, 0.6, 0.9, 1.0) for b in random_model(
                "bipartite_gnp", side=size, p=p, seed=18, count=200)]
        else:
            graphs = [g for p in (0.3, 0.6, 0.9, 1.0) for g in random_model(
                "uniform_gnp", n=size, p=p, seed=18, count=200)]
        path = tmp_path / f"rows{size}{bip}.g6"
        path.write_text("".join(graph6_encode(g) + "\n" for g in graphs))
        blocks = list(harness._space_blocks(SearchSpace.graph6_file(str(path)), bip))
        assert sum(len(blk.bits) for blk in blocks) == 800
        for blk in blocks:
            assert blk.bits.shape[1] <= 63
            _assert_dense_class_keys(size, bip, blk.bits, blk.stats["deg"])


def test_keyed_and_rayleigh_degrees_are_vertex_major(monkeypatch):
    # the degrees gathered for the class keys and the Rayleigh floors keep
    # their rows contiguous, as every block's statistics do
    seen = {"keys": [], "rayleigh": []}
    orig_classes, orig_rayleigh = harness._row_classes, harness._rayleigh

    def classes(size, bip, bits, deg, memos):
        seen["keys"].append(deg.flags.c_contiguous)
        return orig_classes(size, bip, bits, deg, memos)

    def rayleigh(key, size, bip, bits, deg):
        seen["rayleigh"].append(deg.flags.c_contiguous)
        return orig_rayleigh(key, size, bip, bits, deg)

    monkeypatch.setattr(harness, "_row_classes", classes)
    monkeypatch.setattr(harness, "_rayleigh", rayleigh)
    assert verify_theorem("fn_rho", SearchSpace.all_labeled(7)).clean
    assert verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4)).clean
    extremal_search(SearchSpace.all_labeled(6), "max_rho", "non_hamiltonian", k=2)
    assert all(seen["keys"]) and all(seen["rayleigh"])
    assert len(seen["keys"]) > 2 and seen["rayleigh"]


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
    classes = _row_classes(7, False, bits, deg, defaultdict(dict))
    together = classes.radii("rho")[classes.of]
    assert len(set(together.tolist())) == 1
    shared = defaultdict(dict)
    for chunk in sorted(set((idx // _CHUNK).tolist())):
        rows = np.flatnonzero(idx // _CHUNK == chunk)
        for memos in (shared, defaultdict(dict)):
            classes = _row_classes(7, False, bits[rows], deg[:, rows], memos)
            assert np.array_equal(classes.radii("rho")[classes.of], together[rows])


def test_class_keyed_campaigns_solve_few_matrices(monkeypatch):
    # the benchmark's campaign pass: only the rows in the edge-count window
    # get statistics (82,160 fn_rho rows, e in [15, 21], and 39,203 bip_q_qc
    # rows), every row that survives the gate, with the Rayleigh lower end for
    # q_qc, is keyed once (9,171 fn_rho rows, 9,023 bip_q_qc rows), and its
    # radii, hypotheses and conclusions share those keys.  No value outlives
    # a verify_theorem call, so a second identical pass does as much as the first
    # a radius, verdict and recognizer is asked once per class: 46
    # Statement.exception calls per pass (2 fn_rho, 44 bip_q_qc)
    keyed, solved, decided, statted, recognized = [], [], [], [], []
    orig_keys, orig_eig, orig_hk = harness._class_keys, np.linalg.eigvalsh, \
        harness._held_karp_batch
    orig_stats, orig_exception = harness._stats, statements.Statement.exception

    def stats(deg, e):
        statted.append(len(e))
        return orig_stats(deg, e)

    def keys(size, bip, bits, deg):
        keyed.append(len(bits))
        return orig_keys(size, bip, bits, deg)

    def eig(a):
        solved.append(len(a))
        return orig_eig(a)

    def held_karp(adj, order, cycle):
        decided.append(len(adj))
        return orig_hk(adj, order, cycle)

    def exception(self, g, n, k):
        recognized[-1] += 1
        return orig_exception(self, g, n, k)

    monkeypatch.setattr(statements.Statement, "exception", exception)
    monkeypatch.setattr(harness, "_class_keys", keys)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig)
    monkeypatch.setattr(harness, "_held_karp_batch", held_karp)
    monkeypatch.setattr(harness, "_stats", stats)
    for _ in range(2):
        for counts in (keyed, solved, decided):
            counts.clear()
        given = []
        for target, space, processed, hyps in (
                ("fn_rho", SearchSpace.all_labeled(7), 1 << 21, 6890),
                ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), 1 << 16, 7583)):
            statted.clear()
            recognized.append(0)
            rep = verify_theorem(target, space)
            assert (rep.processed, rep.hypothesis_count, rep.clean) == (processed, hyps, True)
            given.append(sum(statted))
        assert given == [82_160, 39_203]
        assert (sum(keyed), sum(solved), sum(decided)) == (18_194, 280, 252)
        assert recognized[-2:] == [2, 44]


def test_class_rows_share_statistics_and_gates(monkeypatch):
    # _eval_group reads each class's statistics and gate flags at one of its
    # rows: on both benchmark campaigns every row of a class has the same
    # edge count, delta, two_delta, Delta, sorted degrees and gate flags
    seen = defaultdict(int)
    orig = harness._eval_group

    def checking(stmts, report, size, bip, group, *rest):
        bits = np.concatenate([b for b, _, _ in group])
        cols = {name: np.concatenate([s[name] for _, s, _ in group], axis=-1)
                for name in group[0][1]}
        classes = _row_classes(size, bip, bits, cols["deg"], defaultdict(dict))
        cols["deg"] = np.sort(cols["deg"], axis=0)
        for key in group[0][2]:
            cols[key] = np.concatenate([g[key] for _, _, g in group])
        assert {"e", "delta", "two_delta", "Delta"} < cols.keys() and group[0][2]
        for name, col in cols.items():
            assert np.array_equal(col, col[..., classes.row][..., classes.of]), name
        assert classes.sizes.sum() == len(bits) and classes.count < len(bits)
        seen[stmts[0].theorem] += len(bits)
        return orig(stmts, report, size, bip, group, *rest)

    monkeypatch.setattr(harness, "_eval_group", checking)
    assert verify_theorem("fn_rho", SearchSpace.all_labeled(7)).clean
    assert verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4)).clean
    assert seen == {"fn_rho": 9_171, "bip_q_qc": 9_023}


def test_degree_floor_leaves_few_rows_to_rayleigh(monkeypatch):
    # a bip_q_qc pass: of the 39,203 rows given statistics, the interval gate
    # keeps 33,023, 209 of them sure to pass; the degree floor sees the other
    # 32,814 and leaves 15,198 to _rayleigh (both floors would keep the sure
    # rows), and 9,023 are keyed, as without the degree floor
    seen = dict.fromkeys(("_degree_floor", "_rayleigh", "_class_keys"), 0)
    orig = {name: getattr(harness, name) for name in seen}

    def degree_floor(key, size, bip, deg, e):
        seen["_degree_floor"] += len(e)
        return orig["_degree_floor"](key, size, bip, deg, e)

    def rayleigh(key, size, bip, bits, deg):
        seen["_rayleigh"] += len(bits)
        return orig["_rayleigh"](key, size, bip, bits, deg)

    def class_keys(size, bip, bits, deg):
        seen["_class_keys"] += len(bits)
        return orig["_class_keys"](size, bip, bits, deg)

    for name, fn in zip(seen, (degree_floor, rayleigh, class_keys)):
        monkeypatch.setattr(harness, name, fn)
    rep = verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4))
    assert (rep.processed, rep.hypothesis_count, rep.clean) == (1 << 16, 7583, True)
    assert seen == {"_degree_floor": 32_814, "_rayleigh": 15_198, "_class_keys": 9_023}


def _gates_off(m):
    """Switch off the edge-count window and the degree and Rayleigh lower ends."""
    m.setattr(harness, "_edge_window", lambda *args: None)
    m.setattr(harness, "_degree_floor", lambda key, size, bip, deg, e: np.zeros(len(e)))
    m.setattr(harness, "_rayleigh", lambda key, size, bip, bits, deg: np.zeros(len(bits)))


@pytest.mark.parametrize("target, k", [
    ("fn_rho", None), ("fn_rho_complement", None), ("yu_fan_q", None), ("ore", None),
    ("bip_rho_qc", 2), ("bip_q_qc", None),
])
def test_row_gates_change_no_report(monkeypatch, tmp_path, target, k):
    # with and without the edge-count window and the degree and Rayleigh
    # lower ends, on a labeled space (also split over two workers), a graph6
    # file and a random model, at the default tolerance and at 0: the same report
    bip = target.startswith("bip")
    if bip:
        lines = [b.to_graph() for b in random_model("bipartite_gnp", side=5, p=0.8, seed=21,
                                                       count=300)]
        spaces = [SearchSpace.balanced_bipartite_labeled(4),
                  SearchSpace.bipartite_gnp(5, 0.8, 300, seed=22)]
    else:
        lines = list(random_model("uniform_gnp", n=8, p=0.75, seed=21, count=300))
        spaces = [SearchSpace.all_labeled(6), SearchSpace.gnp(8, 0.75, 300, seed=22)]
    path = tmp_path / "rows.g6"
    path.write_text("".join(graph6_encode(g) + "\n" for g in lines))
    spaces.append(SearchSpace.graph6_file(str(path)))
    given, keyed = {True: 0, False: 0}, {True: 0, False: 0}
    orig_stats, orig_keys = harness._stats, harness._class_keys
    gated = True

    def stats(deg, e):
        given[gated] += len(e)
        return orig_stats(deg, e)

    def keys(size, bip, bits, deg):
        keyed[gated] += len(bits)
        return orig_keys(size, bip, bits, deg)

    monkeypatch.setattr(harness, "_stats", stats)
    monkeypatch.setattr(harness, "_class_keys", keys)
    for space in spaces:
        for tol in (DEFAULT_TOL, 0.0):
            gated = False
            with monkeypatch.context() as m:
                _gates_off(m)
                off = _drop_times(verify_theorem(target, space, k=k, tol=tol).to_json())
            gated = True
            assert _drop_times(verify_theorem(target, space, k=k, tol=tol).to_json()) == off
            if harness._space_kind(space).total is not None:  # an enumerated space
                assert _drop_times(verify_theorem(target, space, k=k, tol=tol,
                                                  jobs=2).to_json()) == off
    assert given[True] < given[False]
    if target in ("fn_rho_complement", "bip_rho_qc", "bip_q_qc"):  # an "le" statement
        assert keyed[True] < keyed[False]


class _RecordingPool:
    """A stand-in for multiprocessing.Pool that records its size and maps in-process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


@pytest.mark.parametrize("jobs, cpus, ranges, workers", [
    (3, 2, 3, 2),  # no more workers than CPUs
    (10 ** 9, 1000, 64, 64),  # no more workers (and ranges) than indices
    (2, 1000, 2, 2),
])
def test_worker_pool_is_capped(monkeypatch, jobs, cpus, ranges, workers):
    space = SearchSpace.all_labeled(4)
    seen = []
    orig = harness._worker

    def worker(args):
        seen.append(args[-2:])
        return orig(args)

    monkeypatch.setattr(harness.multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(harness, "_worker", worker)
    _RecordingPool.sizes.clear()
    serial = _drop_times(verify_theorem("ore", space).to_json())
    assert _drop_times(verify_theorem("ore", space, jobs=jobs).to_json()) == serial
    assert _RecordingPool.sizes == [workers] and len(seen) == ranges
    assert seen[0][0] == 0 and seen[-1][1] == 64


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_refused(jobs):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        verify_theorem("ore", SearchSpace.all_labeled(4), jobs=jobs)


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
    # and build a graph only for the recognizers, once per relabelling class:
    # the 36 exceptional rows of fn_rho fall into 2 classes, the 63 of
    # bip_q_qc into 5
    calls = _count_calls(monkeypatch, harness,
                         ("is_hamiltonian", "is_traceable", "_held_karp_batch", "_row_graph"))
    rep = verify_theorem("fn_rho", SearchSpace.all_labeled(6))
    assert (rep.processed, rep.hypothesis_count, rep.exceptional_matches) == (32768, 1203, 36)
    assert rep.clean
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_held_karp_batch"] > 0
    assert calls["_row_graph"] == 2
    calls.update(dict.fromkeys(calls, 0))
    rep = verify_theorem("bip_q_qc", SearchSpace.balanced_bipartite_labeled(3))
    assert rep.clean and rep.hypothesis_count > 0
    assert calls["is_hamiltonian"] == calls["is_traceable"] == 0
    assert calls["_row_graph"] == 5


def test_batched_and_scalar_conclusions_agree(monkeypatch):
    # the same campaigns with every row's verdict taken from the scalar oracle
    cases = (("fn_rho", SearchSpace.all_labeled(6), None),
             ("ainouche_christofides", SearchSpace.all_labeled(6), None),
             ("fn_rho_complement", SearchSpace.all_labeled(6), None),
             ("moon_moser", SearchSpace.balanced_bipartite_labeled(3), None),
             ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(3), None),
             ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(3), None))
    batched = [verify_theorem(t, space, k=k).to_json() for t, space, k in cases]

    def scalar_verdicts(self, question, budget, c=None):
        # every row of each class asked for, by the scalar oracle; the rows
        # of a class must agree
        oracle = is_hamiltonian if question == "ham" else is_traceable
        out = []
        for i in (range(self.count) if c is None else c.tolist()):
            graphs = _graphs_from_bits(self.size, self.bip, self.rows[self.of == i])
            status = {oracle(as_graph(g), budget=budget).status for g in graphs}
            assert len(status) == 1, status
            out += status
        return np.array(out, dtype="<U7")

    # verdicts() is where every statement's verdicts come from, the "not_ham"
    # checks included
    monkeypatch.setattr(harness._Classes, "verdicts", scalar_verdicts)
    scalar = [verify_theorem(t, space, k=k).to_json() for t, space, k in cases]
    for a, b in zip(batched, scalar):
        _drop_times(a), _drop_times(b)
        assert a == b


def _identity_keys(size, bip, bits, deg):
    # each row its own class: the row read as an int64, relabelled by the identity
    order = _bit_ends(size, bip)[2]
    return (bits @ (1 << np.arange(bits.shape[1], dtype=np.int64)),
            np.repeat(np.arange(order)[:, None], len(bits), axis=1))


def _class_and_row_reports(monkeypatch, target, space, k=None, **opts):
    # the report with each conclusion decided once per relabelling class, and
    # with the identity relabelling, which makes every labeled row a class
    by_class = _drop_times(verify_theorem(target, space, k=k, **opts).to_json())
    with monkeypatch.context() as m:
        m.setattr(harness, "_class_keys", _identity_keys)
        by_row = _drop_times(verify_theorem(target, space, k=k, **opts).to_json())
    return by_class, by_row


@pytest.mark.parametrize("target, space, k, opts", [
    ("fn_rho", SearchSpace.all_labeled(6), None, {}),
    ("ore", SearchSpace.all_labeled(6), None, {}),
    ("ainouche_christofides", SearchSpace.all_labeled(6), None, {}),
    # a budget below the batched charge: every aborted row is reported
    ("ainouche_christofides", SearchSpace.all_labeled(6), None, {"oracle_budget": (1 << 6) - 1}),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), None, {}),
    ("moon_moser", SearchSpace.balanced_bipartite_labeled(4), None, {}),
    ("ferrara_jacobson_powell", SearchSpace.balanced_bipartite_labeled(4), None, {}),
    ("biclique_lemma", SearchSpace.balanced_bipartite_labeled(4), 1, {}),
    # a planted defect: ore with its threshold lowered to 3, so many rows of
    # each failing class fail
    ("ore", SearchSpace.all_labeled(6), None, {"threshold": 3}),
])
def test_class_conclusions_match_row_conclusions(monkeypatch, target, space, k, opts):
    import dataclasses

    opts = dict(opts)
    threshold = opts.pop("threshold", None)
    if threshold is not None:
        (st,) = statements.statements_for(target)
        monkeypatch.setattr(harness, "statements_for", lambda target: [
            dataclasses.replace(st, threshold=lambda n, k: threshold)])
    by_class, by_row = _class_and_row_reports(monkeypatch, target, space, k, **opts)
    assert by_class == by_row
    assert by_class["hypothesis_count"] > 0 or by_class["aborted"]
    if threshold is not None:
        failed = by_class["conclusion_failures"]
        bits = harness._bits_of(15, [_index_of(graph6_decode(g6)) for g6 in failed])
        keys, _ = _class_keys(6, False, bits, _incidence_degrees(6, False, bits))
        assert len(failed) > 10 * len(set(keys.tolist())) > 0


def test_campaign_caches_follow_the_statements(monkeypatch):
    # the edge-count window and the gate tables are keyed by the statements
    # they read: after a real ore campaign has cached its window (e > 11 at
    # order 6), ore with its threshold lowered to 3 gets a window of its own
    import dataclasses

    space = SearchSpace.all_labeled(6)
    assert verify_theorem("ore", space).clean
    (st,) = statements.statements_for("ore")
    monkeypatch.setattr(harness, "statements_for",
                        lambda target: [dataclasses.replace(st, threshold=lambda n, k: 3)])
    assert len(verify_theorem("ore", space).conclusion_failures) == 22_114


def test_class_clique_conclusions_match_row_conclusions(monkeypatch, tmp_path):
    # clique_lemma's first order (n >= 6k + 5): three relabellings each of L
    # and N at (11, 1), of closures of sparse random graphs (closed) and of
    # dense random graphs (mostly not closed)
    rng = np.random.default_rng(3)
    graphs = [construct(FamilySpec(fam, n=11, k=1)) for fam in ("L", "N")]
    graphs += [bc_closure(g)[0] for g in random_model("uniform_gnp", n=11, p=0.45, seed=9,
                                                      count=40)]
    graphs += list(random_model("uniform_gnp", n=11, p=0.85, seed=10, count=20))
    path = tmp_path / "closed11.g6"
    path.write_text("".join(graph6_encode(g.relabel(rng.permutation(11))) + "\n"
                            for g in graphs for _ in range(3)))
    by_class, by_row = _class_and_row_reports(
        monkeypatch, "clique_lemma", SearchSpace.graph6_file(str(path)), 1)
    assert by_class == by_row and by_class["hypothesis_count"] > 0


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


@pytest.mark.parametrize("size, bip, target, k, ranges", [
    (8, False, "fn_rho", None, [(12345, 15001), (3 * _CHUNK - 777, 9 * _CHUNK + 1234)]),
    (6, False, "ore", None, [(0, 1 << 15), (_CHUNK - 1, _CHUNK + 1), (5, (1 << 15) - 3)]),
    (5, True, "bip_q_qc", None, [(7, 7 + 4099), (1000 * _CHUNK + 5, 1002 * _CHUNK + 17)]),
    (4, True, "bip_rho_qc", 2, [(0, 1 << 16)]),
])
def test_edge_window_keeps_exactly_the_admitted_rows(size, bip, target, k, ranges):
    # a windowed index range gives the rows of the whole range whose edge
    # count the window admits, with the same statistics, in blocks of at most
    # _CHUNK C-contiguous rows whose spans add up to the range
    window = harness._edge_window(tuple(harness.statements_for(target)), size, bip, k,
                                  DEFAULT_TOL)
    admitted = np.frombuffer(window, dtype=bool)
    assert 0 < admitted.sum() < len(admitted)
    for start, stop in ranges:
        blocks = list(_index_blocks(size, bip, start, stop, window=window))
        assert sum(blk.span for blk in blocks) == stop - start
        assert all(len(blk.index) <= _CHUNK and blk.stats["deg"].flags.c_contiguous
                   for blk in blocks)
        got = {name: np.concatenate([blk.stats[name] for blk in blocks], axis=-1)
               for name in ("deg", "e", "delta", "Delta")}
        full = _degree_stats(size, bip, start, stop)
        keep = np.flatnonzero(admitted[full["e"]])
        assert np.array_equal(np.concatenate([blk.index for blk in blocks]), start + keep)
        for name, col in got.items():
            assert np.array_equal(col, full[name][..., keep]), name
        assert np.array_equal(np.concatenate([blk.rows_bits() for blk in blocks]),
                              _index_bits(len(_bit_ends(size, bip)[0]), start, stop)[keep])


@pytest.mark.parametrize("size, bip, k, ranges", [
    # at order 8 a table block gives vertex 6 an edge only with high bit 1
    # (pair bit 15) and vertex 7 only with high bit 7; at side 5, x_3 only
    # with high bit 1 and x_4 only with high bit 6: k = 1 empties table
    # blocks 127-129 and 63-65, and not 130-131 and 66-67
    (8, False, 1, [(127 * _CHUNK + 77, 131 * _CHUNK + 1234), (12345, 15001)]),
    (8, False, 5, [(3 * _CHUNK - 777, 3 * _CHUNK + 1234), ((1 << 28) - 2 * _CHUNK - 99, 1 << 28)]),
    (5, True, 1, [(63 * _CHUNK + 5, 67 * _CHUNK + 17)]),
    (5, True, 3, [(1000 * _CHUNK + 5, 1002 * _CHUNK + 17), ((1 << 25) - _CHUNK - 3, 1 << 25)]),
])
def test_min_degree_blocks_hold_exactly_the_space_rows(size, bip, k, ranges):
    # a labeled_min_degree range gives the rows of the range with delta >= k,
    # in index order, with the same statistics, in C-contiguous blocks whose
    # spans count their own rows
    nbits = len(_bit_ends(size, bip)[0])
    for start, stop in ranges:
        blocks = list(_index_blocks(size, bip, start, stop, min_deg=k))
        full = _degree_stats(size, bip, start, stop)
        keep = np.flatnonzero(full["delta"] >= k)
        assert all(blk.span == len(blk.index) and blk.stats["deg"].flags.c_contiguous
                   for blk in blocks)
        assert np.array_equal(np.concatenate([blk.index for blk in blocks]), start + keep)
        for name in ("deg", "e", "delta", "two_delta", "Delta"):
            got = np.concatenate([blk.stats[name] for blk in blocks], axis=-1)
            assert np.array_equal(got, full[name][..., keep]), name
        assert np.array_equal(np.concatenate([blk.rows_bits() for blk in blocks]),
                              _index_bits(nbits, start, stop)[keep])
        if k == 1 and stop - start > 3 * _CHUNK:
            table_blocks = set(range(start // _CHUNK, (stop - 1) // _CHUNK + 1))
            assert 0 < len(set(((start + keep) // _CHUNK).tolist())) < len(table_blocks)


@pytest.mark.parametrize("target, size, bip", [("fn_rho", 7, False), ("bip_q_qc", 4, True)])
def test_window_cache_is_narrow_and_joined_blocks_are_wide(target, size, bip):
    # the cache keeps int32 table indices and int8 edge counts beside its int8
    # degrees; a joined block widens indices and edge counts to int64, as
    # _gate's triple code (e * order + delta) * order + Delta would wrap in int8
    window = harness._edge_window(tuple(harness.statements_for(target)), size, bip, None,
                                  DEFAULT_TOL)
    assert window is not None
    nbits, order = len(_bit_ends(size, bip)[0]), _bit_ends(size, bip)[2]
    for high in range(nbits - (_CHUNK.bit_length() - 1) + 1):
        sel, deg, e = harness._window_rows(size, bip, window, high)
        assert (sel.dtype, deg.dtype, e.dtype) == (np.int32, np.int8, np.int8)
        assert not (sel.flags.writeable or deg.flags.writeable or e.flags.writeable)
    blocks = list(_index_blocks(size, bip, 0, 1 << nbits, window=window))
    assert blocks
    for blk in blocks:
        assert blk.index.dtype == blk.stats["e"].dtype == np.int64
        assert np.array_equal(blk.stats["e"], harness._bits_of(nbits, blk.index).sum(axis=1))
        code = (blk.stats["e"] * order + blk.stats["delta"]) * order + blk.stats["Delta"]
        assert code.max() < (nbits + 1) * order * order and code.max() > np.iinfo(np.int8).max


@pytest.mark.parametrize("size, bip", [(harness.MAX_ALL_LABELED_N, False),
                                       (harness.MAX_BIP_SIDE, True)])
def test_high_index_bits_fit_one_degree_table(size, bip):
    # _index_blocks reads a table block's high-bit degrees from one column of
    # the table over the pair bits past the low table, which covers at most
    # log2 _CHUNK bits: raising an enumeration cap past 28 / 25 pair bits
    # needs a third table
    nbits, order = len(_bit_ends(size, bip)[0]), _bit_ends(size, bip)[2]
    low = harness._degree_table(size, bip)[1].size.bit_length() - 1
    assert nbits - low <= _CHUNK.bit_length() - 1
    assert harness._degree_table(size, bip, low)[1].size == 1 << (nbits - low)
    # the narrow table dtype holds a degree, and the sum of two that
    # _min_degree_sum forms in it, at the largest order an index row has
    for first in (0, low):
        assert np.iinfo(harness._degree_table(size, bip, first)[0].dtype).max >= 2 * (order - 1)


@pytest.mark.parametrize("objective", ["max_rho", "max_q"])
@pytest.mark.parametrize("k0, k", [(0, None), (2, None), (1, 2), (2, 1)])
def test_extremal_search_on_a_min_degree_space(objective, k0, k):
    # labeled_min_degree(6, k0) is all_labeled(6) cut to delta >= k0 (no
    # non-Hamiltonian graph of order 6 has delta >= 3)
    got = extremal_search(SearchSpace.labeled_min_degree(6, k0), objective, "non_hamiltonian",
                          k=k)
    want = extremal_search(SearchSpace.all_labeled(6), objective, "non_hamiltonian",
                           k=max(k or 0, k0))
    assert got == want and got[1]


@pytest.mark.parametrize("target, space, k", [
    ("fn_rho", SearchSpace.all_labeled(6), None),
    ("fn_rho_complement", SearchSpace.all_labeled(6), None),
    ("yu_fan_q", SearchSpace.all_labeled(6), None),
    ("main_rho_complement", SearchSpace.all_labeled(6), 1),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), None),
    ("bip_rho_qc", SearchSpace.balanced_bipartite_labeled(4), 2),
])
def test_gate_table_matches_interval_gate(monkeypatch, target, space, k):
    # the (e, delta, Delta) lookup gives each row exactly the keep, lower end
    # and sure columns of the per-row interval gate, and on every triple the
    # lower end is the interval's and sure is some statement on the key
    # holding at hi + pad; _gate keeps the same rows through the table and
    # through the per-row path taken past _GATE_TABLE_MAX
    bip = space.is_bipartite_space
    size = space.side if bip else space.n
    total = harness._space_index_total(space)
    stmts = tuple(harness.statements_for(target))
    keys = {st.quantity for st in stmts} & statements.SPECTRAL
    tol = 1e-9
    _, _, order = _bit_ends(size, bip)
    for pos in range(0, total, _CHUNK):
        stats = _degree_stats(size, bip, pos, min(pos + _CHUNK, total))
        code = (stats["e"] * order + stats["delta"]) * order + stats["Delta"]
        for key in keys:
            table = harness._gate_table(stmts, key, size, bip, k, tol)
            direct = harness._may_pass(key, stmts, stats, size, bip, k, tol)
            for col, want in zip(table, direct):
                assert np.array_equal(col[code], want), key
    real, triples = harness._triples(size, bip)
    for key in keys:
        keep, lo, sure = (col[real] for col in harness._gate_table(stmts, key, size, bip, k, tol))
        want_lo, hi = _radius_interval(key, triples, size, bip)
        at_hi = np.zeros(len(hi), dtype=bool)
        for st in stmts:
            if st.quantity == key:
                at_hi |= st.hypothesis(dict(triples, **{key: hi + tol + harness._GATE_SLACK}),
                                       size, k, tol)
        assert np.array_equal(lo, want_lo) and np.array_equal(sure, at_hi), key
        assert sure.any() and not (sure & ~keep).any(), key
    blocks = list(harness._space_blocks(space, bip))
    tabled = [harness._gate(key, stmts, blk, k, tol) for blk in blocks for key in keys]
    monkeypatch.setattr(harness, "_GATE_TABLE_MAX", 0)
    per_row = [harness._gate(key, stmts, blk, k, tol) for blk in blocks for key in keys]
    assert all(np.array_equal(a, b) for a, b in zip(tabled, per_row))


def test_degree_floor_of_edgeless_graphs_warns_nothing():
    # K_{4,4} (edgeless quasi-complement), K_6 (edgeless complement) and the
    # empty graphs: where the graph H a quantity is taken on has no edge both
    # floors are 0, with no 0 / 0 (pyproject turns a RuntimeWarning into an
    # error), and on a regular H both are q(H) = 2 d exactly
    for size, bip, complete, want in (
            (4, True, True, {"q": 8.0, "q_qc": 0.0}),
            (4, True, False, {"q": 0.0, "q_qc": 8.0}),
            (6, False, True, {"q": 10.0, "rho_complement": 0.0}),
            (6, False, False, {"q": 0.0})):
        us, _, order = _bit_ends(size, bip)
        bits = np.full((1, len(us)), complete)
        deg = np.full((order, 1), (size if bip else size - 1) if complete else 0, dtype=np.int16)
        e = bits.sum(axis=1, dtype=np.int64)
        for key, value in want.items():
            assert harness._degree_floor(key, size, bip, deg, e).tolist() == [value], key
            assert harness._rayleigh(key, size, bip, bits, deg).tolist() == [value], key


def _gate_sums_int64(key, size, bip, bits, deg, e):
    """``_rayleigh``'s quotient and ``_degree_floor``'s sum x^2 / e(H), every
    product and sum in int64 and x formed directly (the reference)."""
    us, vs, order = _bit_ends(size, bip)
    x, edges, pairs = deg.astype(np.int64), bits.T, e
    if statements.RADII[key][0]:
        x, edges, pairs = (size if bip else size - 1) - x, ~edges, len(us) - e
    w = (x[us] + x[vs]) ** 2 if statements.RADII[key][1] else 2 * x[us] * x[vs]
    num, den = (w * edges).sum(axis=0), (x * x).sum(axis=0)
    return (np.divide(num, den, out=np.zeros(len(den)), where=den > 0),
            np.divide(den, pairs, out=np.zeros(len(den)), where=pairs > 0))


@pytest.mark.parametrize("size, bip", [(60, False), (400, False), (30, True), (200, True)])
@pytest.mark.parametrize("p", [0.9, 0.05])
def test_narrow_gate_sums_stay_exact_at_large_order(size, bip, p):
    # materialised int16 rows at orders 60 and 400: the int32 pair weights
    # and squares of _rayleigh and _degree_floor, summed in int64, give the
    # int64 reference bitwise (the dense q numerators pass 2^31 at order 400)
    space = (SearchSpace.bipartite_gnp if bip else SearchSpace.gnp)(size, p, 3, 7)
    bits = np.concatenate([blk.bits for blk in harness._space_blocks(space, bip)])
    blk = harness._row_block(size, bip, bits)
    deg, e = blk.stats["deg"], blk.stats["e"]
    assert deg.dtype == np.int16 and len(e) == 3
    for key in statements.RADII:
        rayleigh, floor = _gate_sums_int64(key, size, bip, bits, deg, e)
        assert harness._rayleigh(key, size, bip, bits, deg).tobytes() == rayleigh.tobytes(), key
        assert harness._degree_floor(key, size, bip, deg, e).tobytes() == floor.tobytes(), key


@pytest.mark.parametrize("target, space, k", [
    ("fn_rho", SearchSpace.all_labeled(7), None),
    ("bip_q_qc", SearchSpace.balanced_bipartite_labeled(4), None),
    # each range counts its own rows with delta >= 1 as processed
    ("main_rho_complement.2", SearchSpace.labeled_min_degree(7, 1), 1),
])
def test_three_jobs_match_one(target, space, k):
    serial = _drop_times(verify_theorem(target, space, k=k).to_json())
    assert serial == _drop_times(verify_theorem(target, space, k=k, jobs=3).to_json())


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
    # Bset call built its own two); no backtracking isomorphism, since Gamma1
    # and Gamma2 are looked up among their labelings (families does not
    # import is_isomorphic, so a call would go through the graphs module).
    # The recognizers see one graph per relabelling class, and the 990
    # exceptional rows fall into 44 classes
    space = SearchSpace.balanced_bipartite_labeled(4)
    verify_theorem("bip_q_qc", space)  # builds Gamma1 / Gamma2 and their labelings once
    assert not hasattr(families, "is_isomorphic")
    calls = _count_calls(monkeypatch, families, ("quasi_complement",))
    calls.update(_count_calls(monkeypatch, graphs_module, ("is_isomorphic",)))
    recognized = _count_calls(monkeypatch, statements, ("recognize",))
    rep = verify_theorem("bip_q_qc", space)
    assert (rep.hypothesis_count, rep.exceptional_matches) == (7583, 990) and rep.clean
    assert calls == {"quasi_complement": 44, "is_isomorphic": 0}
    assert recognized["recognize"] == 99


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
# the sorted optima) recorded when every row was eigensolved on its own
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
    bits = np.concatenate([blk.bits for blk in
                           harness._space_blocks(SearchSpace.gnp(12, 0.8, 40, 5), False)])
    twins = bits.copy()
    twins[:, 63:] = ~twins[:, 63:]
    rows = np.concatenate([bits, twins])
    deg = harness._row_block(12, False, rows).stats["deg"]
    classes = _row_classes(12, False, rows, deg, defaultdict(dict))
    assert classes.count == len(rows)
    got = classes.radii("rho")[classes.of]
    assert np.array_equal(got, _radii("rho", 12, False, rows))
    assert np.all(got[:40] != got[40:])

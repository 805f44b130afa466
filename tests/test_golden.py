"""Golden corpora for ``verify_theorem`` and the three certifier cascades.

The files under ``tests/data/`` hold outputs recorded from the library and
must be reproduced exactly:

* ``golden_verify.json``: ``(processed, hypothesis_count, exceptional_matches,
  conclusion_failures, aborted)`` for every verification target over an
  enumerated space (where the statement's order precondition allows one under
  the enumeration caps), a seeded random space and, for a few spectral
  targets, a second tolerance; plus the ``ValueError`` text (or ``"ok"``) of
  every target over a grid of orders and k values.
* ``golden_certificate_hashes.json``: a sha256 per (cascade, order) of the
  certificate JSON lines of every labeled graph with n <= 6 and every
  labeled balanced bipartite graph with side <= 4.
* ``golden_certificates.txt``: full certificate JSON lines for a few hundred
  graphs chosen to cover every theorem that fires on them, every exceptional
  family, borderline and skipped comparisons, inconclusive and
  oracle-resolved verdicts.  (main_q in the two plain cascades, yu_fan_q in
  the Hamiltonicity one and bip_q in the bipartite one fire on none of the
  n <= 6 / side <= 4 graphs nor on 36,000 seeded random graphs of order
  7-12 and 24,000 of side 5-8: the comparisons before them fire first.)
* ``golden_bound_reports.json``: one sha256 over the lines ``graph6, k,
  bound_report(g, k).to_json()`` of seeded G(n, p) graphs at n = 1..60, 40
  graphs at orders 25-500 and 30 balanced bipartite graphs (passed as
  ``BipartiteGraph``), with k cycling through None, 0, delta and delta + 1.

Re-record (only when a change of behaviour is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from spectralham.certifier import (
    certify_bipartite_hamiltonicity,
    certify_hamiltonicity,
    certify_traceability,
)
from spectralham.families import FamilySpec, construct, h_family_members
from spectralham.graphs import (
    BipartiteGraph,
    Graph,
    as_graph,
    bipartite_from_graph,
    build_bipartite,
    graph6_decode,
    graph6_encode,
)
from spectralham.harness import (
    VERIFY_TARGETS,
    SearchSpace,
    bipartite_from_index,
    graph_from_index,
    random_model,
    verify_theorem,
)
from spectralham.spectral import bound_report

DATA = Path(__file__).parent / "data"
VERIFY_FILE = DATA / "golden_verify.json"
LEMMA_G6 = DATA / "golden_lemma_graphs.g6"
BIP_G6 = DATA / "golden_bipartite_graphs.g6"
HASH_FILE = DATA / "golden_certificate_hashes.json"
LINES_FILE = DATA / "golden_certificates.txt"
BOUNDS_FILE = DATA / "golden_bound_reports.json"

L6, BIP3, BIP4 = SearchSpace.all_labeled(6), SearchSpace.balanced_bipartite_labeled(3), \
    SearchSpace.balanced_bipartite_labeled(4)

# (target, space, k, tol, oracle budget); None means the library default
VERIFY_CASES = [
    # enumerated spaces
    ("ore", L6, None, None, None),
    ("ore", SearchSpace.all_labeled(5), None, None, 31),
    ("dirac", L6, None, None, None),
    ("erdos", L6, 2, None, None),
    ("fn_rho", L6, None, None, None),
    ("fn_rho.1", L6, None, None, None),
    ("fn_rho.2", L6, None, None, None),
    ("fn_rho_complement", L6, None, None, None),
    ("fn_rho_complement.1", L6, None, None, None),
    ("fn_rho_complement.2", L6, None, None, None),
    ("yu_fan_q", L6, None, None, None),
    ("yu_fan_q.1", L6, None, None, None),
    ("yu_fan_q.2", L6, None, None, None),
    ("main_rho_complement", L6, 1, None, None),
    ("main_rho_complement.1", SearchSpace.labeled_min_degree(6, 1), 1, None, None),
    ("main_rho_complement.2", SearchSpace.all_labeled(5), 2, None, None),
    ("ainouche_christofides", L6, None, None, None),
    ("moon_moser", BIP4, None, None, None),
    ("ferrara_jacobson_powell", BIP3, None, None, None),
    ("bip_rho", BIP4, 1, None, None),
    ("bip_q", BIP4, 1, None, None),
    ("bip_rho_qc", BIP4, 2, None, None),
    ("bip_q_qc", BIP3, None, None, None),
    ("biclique_lemma", BIP3, 1, None, None),
    ("refined_bipartite_lemma", BIP3, 1, None, None),
    # a second tolerance on spectral targets
    ("fn_rho", L6, None, 1e-3, None),
    ("fn_rho_complement", L6, None, 1e-3, None),
    ("yu_fan_q", L6, None, 1e-3, None),
    ("main_rho_complement.2", L6, 1, 1e-3, None),
    ("bip_rho", BIP4, 1, 1e-3, None),
    ("bip_q_qc", BIP3, None, 1e-3, None),
    # seeded random spaces at the orders the statements need
    ("ore", SearchSpace.gnp(10, 0.7, 300, seed=1), None, None, None),
    ("dirac", SearchSpace.gnp(10, 0.7, 300, seed=2), None, None, None),
    ("erdos", SearchSpace.gnp(10, 0.75, 300, seed=3), 2, None, None),
    ("fn_rho", SearchSpace.gnp(8, 0.85, 300, seed=4), None, None, None),
    ("fn_rho.1", SearchSpace.gnp(8, 0.85, 300, seed=5), None, None, None),
    ("fn_rho.2", SearchSpace.gnp(8, 0.85, 300, seed=6), None, None, None),
    ("fn_rho_complement", SearchSpace.gnp(8, 0.8, 300, seed=7), None, None, None),
    ("fn_rho_complement.1", SearchSpace.gnp(8, 0.8, 300, seed=8), None, None, None),
    ("fn_rho_complement.2", SearchSpace.gnp(8, 0.8, 300, seed=9), None, None, None),
    ("yu_fan_q", SearchSpace.gnp(8, 0.85, 300, seed=10), None, None, None),
    ("yu_fan_q.1", SearchSpace.gnp(8, 0.85, 300, seed=11), None, None, None),
    ("yu_fan_q.2", SearchSpace.gnp(8, 0.85, 300, seed=12), None, None, None),
    ("main_rho", SearchSpace.gnp(16, 0.93, 60, seed=13), 1, None, None),
    ("main_rho.1", SearchSpace.gnp(12, 0.9, 150, seed=14), 0, None, None),
    ("main_rho.2", SearchSpace.gnp(11, 0.9, 150, seed=15), 1, None, None),
    ("main_q", SearchSpace.gnp(16, 0.93, 60, seed=16), 1, None, None),
    ("main_q.1", SearchSpace.gnp(12, 0.9, 150, seed=17), 0, None, None),
    ("main_q.2", SearchSpace.gnp(11, 0.9, 150, seed=18), 1, None, None),
    ("main_rho_complement", SearchSpace.gnp(9, 0.8, 300, seed=19), 1, None, None),
    ("main_rho_complement.1", SearchSpace.gnp(9, 0.8, 300, seed=20), 1, None, None),
    ("main_rho_complement.2", SearchSpace.gnp(9, 0.8, 300, seed=21), 2, None, None),
    ("ainouche_christofides", SearchSpace.gnp(5, 0.5, 400, seed=22), None, None, None),
    ("clique_lemma", SearchSpace.gnp(11, 0.85, 200, seed=23), 1, None, None),
    ("refined_hamilton_lemma", SearchSpace.gnp(11, 0.85, 200, seed=24), 1, None, None),
    ("refined_traceable_lemma", SearchSpace.gnp(10, 0.75, 200, seed=25), 0, None, None),
    ("moon_moser", SearchSpace.bipartite_gnp(4, 0.8, 300, seed=26), None, None, None),
    ("ferrara_jacobson_powell", SearchSpace.bipartite_gnp(3, 0.6, 400, seed=27), None, None, None),
    ("bip_rho", SearchSpace.bipartite_gnp(5, 0.8, 300, seed=28), 1, None, None),
    ("bip_q", SearchSpace.bipartite_gnp(5, 0.8, 300, seed=29), 1, None, None),
    ("bip_rho_qc", SearchSpace.bipartite_gnp(5, 0.8, 300, seed=30), 2, None, None),
    ("bip_q_qc", SearchSpace.bipartite_gnp(4, 0.75, 300, seed=31), None, None, None),
    ("biclique_lemma", SearchSpace.bipartite_gnp(4, 0.85, 300, seed=32), 1, None, None),
    ("refined_bipartite_lemma", SearchSpace.bipartite_gnp(4, 0.8, 300, seed=33), 1, None, None),
    # graph6 files of family members and their one-edge neighbours (see _write_graph6_files)
    *[(t, SearchSpace.graph6_file(str(LEMMA_G6)), k, None, None) for t, k in (
        ("clique_lemma", 1), ("refined_hamilton_lemma", 1), ("refined_traceable_lemma", 0),
        ("refined_traceable_lemma", 1), ("ainouche_christofides", None), ("main_rho", 1),
        ("main_q", 1), ("main_rho_complement", 1), ("fn_rho", None), ("erdos", 3))],
    *[(t, SearchSpace.graph6_file(str(BIP_G6)), k, None, None) for t, k in (
        ("ferrara_jacobson_powell", None), ("bip_q_qc", None), ("bip_rho_qc", 2),
        ("bip_rho_qc", 1), ("bip_rho", 1), ("biclique_lemma", 1), ("refined_bipartite_lemma", 1),
        ("moon_moser", None))],
]

REFUSAL_KS = (None, -1, 0, 1, 2, 3)


def _case_id(case) -> str:
    target, space, k, tol, budget = case
    desc = space.describe()
    if "path" in desc:
        desc["path"] = Path(desc["path"]).name
    return f"{target}|{json.dumps(desc, sort_keys=True)}|k={k}|tol={tol}|budget={budget}"


def _one_edge_neighbours(g: Graph) -> list:
    out = [g.without_edge(u, v) for u, v in g.edges()]
    out += [g.with_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return out


def _write_graph6_files():
    """Family members at n = 11, 12 (sides 3-5) and their one-edge neighbours, as graph6 lines."""
    plain = []
    for n in (11, 12):
        base = [construct(FamilySpec(f, n=n, k=k)) for f in ("L", "N") for k in (1, 2)]
        base += [construct(FamilySpec(f, n=n, k=k)) for f in ("barL", "barN") for k in (0, 1)]
        base.append(construct(FamilySpec("complete", n=n)))
        for g in base:
            plain.append(g)
            plain.extend(_one_edge_neighbours(g)[:: 3])
    LEMMA_G6.write_text("".join(graph6_encode(g) + "\n" for g in plain))
    bips = [construct(FamilySpec("Gamma1")), construct(FamilySpec("Gamma2"))]
    for side in (3, 4, 5):
        for k in range(1, side // 2 + 1):
            for b in (construct(FamilySpec("B", n=side, k=k)),
                      construct(FamilySpec("Bset", n=side, k=k,
                                           inner=build_bipartite(k, side - k, [(0, 0)])))):
                bips.append(b)
                for i in range(side):
                    for j in range(side):
                        bips.append(BipartiteGraph(side, side, tuple(
                            r ^ (1 << j if t == i else 0) for t, r in enumerate(b.rows))))
    # a graph6 line keeps no sides: only graphs whose recovered bipartition is balanced
    keep = [b.to_graph() for b in bips if bipartite_from_graph(b.to_graph()).balanced]
    BIP_G6.write_text("".join(graph6_encode(g) + "\n" for g in keep))


def _run_case(case) -> list:
    target, space, k, tol, budget = case
    kwargs = {"k": k}
    if tol is not None:
        kwargs["tol"] = tol
    if budget is not None:
        kwargs["oracle_budget"] = budget
    rep = verify_theorem(target, space, **kwargs)
    return [rep.processed, rep.hypothesis_count, rep.exceptional_matches,
            rep.conclusion_failures, rep.aborted]


def _refusal_spaces(empty_file: str):
    """Spaces of every order the grid tries, each holding no graph (nothing is enumerated)."""
    spaces = [(f"n={n}", SearchSpace.gnp(n, 0.5, 0, seed=0)) for n in range(1, 19)]
    spaces += [(f"side={s}", SearchSpace.bipartite_gnp(s, 0.5, 0, seed=0)) for s in range(1, 11)]
    spaces.append(("graph6", SearchSpace.graph6_file(empty_file)))
    return spaces


def _refusals(empty_file: str) -> dict:
    out = {}
    for target in (*VERIFY_TARGETS, "not_a_target"):
        for label, space in _refusal_spaces(empty_file):
            for k in REFUSAL_KS:
                try:
                    verify_theorem(target, space, k=k)
                    text = "ok"
                except ValueError as exc:
                    text = str(exc)
                out[f"{target}|{label}|k={k}"] = text
    # the refusals test_harness.test_verify_refusals expects, on enumerated spaces
    for target, space, k in (
        ("refined_hamilton_lemma", SearchSpace.all_labeled(7), 1),
        ("yu_fan_q", SearchSpace.all_labeled(5), None),
        ("erdos", SearchSpace.all_labeled(6), None),
        ("moon_moser", SearchSpace.all_labeled(5), None),
        ("ore", SearchSpace.balanced_bipartite_labeled(3), None),
    ):
        with pytest.raises(ValueError) as exc:
            verify_theorem(target, space, k=k)
        out[f"{target}|{json.dumps(space.describe(), sort_keys=True)}|k={k}"] = str(exc.value)
    return out


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

CASCADES = {
    "ham": certify_hamiltonicity,
    "trace": certify_traceability,
    "bip": certify_bipartite_hamiltonicity,
}


def _cert_line(mode: str, g, use_oracle: bool = False) -> str:
    return json.dumps(CASCADES[mode](g, use_oracle=use_oracle).to_json())


def _graph_text(g) -> str:
    if isinstance(g, BipartiteGraph):
        return f"{g.nx}:" + ",".join(str(r) for r in g.rows)
    return graph6_encode(g)


def _graph_from_text(text: str):
    if ":" in text:
        side, rows = text.split(":")
        return BipartiteGraph(int(side), int(side), tuple(int(r) for r in rows.split(",")))
    return graph6_decode(text)


def _plain_graphs(n: int) -> list:
    return [graph_from_index(n, idx) for idx in range(1 << (n * (n - 1) // 2))]


def _bipartite_graphs(side: int) -> list:
    return [bipartite_from_index(side, idx) for idx in range(1 << (side * side))]


def _hash_groups() -> dict:
    """{group name: (mode, graph builder)} for every labeled graph n <= 6 / bipartite side <= 4.

    A group's graphs are built only when its builder is called.
    """
    groups = {}
    for n in range(1, 7):
        if n >= 3:
            groups[f"ham.n{n}"] = ("ham", partial(_plain_graphs, n))
        groups[f"trace.n{n}"] = ("trace", partial(_plain_graphs, n))
    for side in range(2, 5):
        groups[f"bip.side{side}"] = ("bip", partial(_bipartite_graphs, side))
    return groups


def _group_hash(mode: str, graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(_cert_line(mode, g).encode())
        h.update(b"\n")
    return h.hexdigest()


def _candidate_graphs():
    """Family members, their one-edge neighbours and seeded random graphs, by cascade."""
    plain = []
    for n in range(2, 21):
        for k in range(0, n):
            for fam in ("L", "N", "barL", "barN"):
                try:
                    plain.append(construct(FamilySpec(fam, n=n, k=k)))
                except ValueError:
                    pass
        plain.append(construct(FamilySpec("complete", n=n)))
    for n in range(3, 8):
        plain.extend(h_family_members(n))
    near = []
    for g in plain:
        if g.n > 11:
            continue
        edges = g.edges()
        if edges:
            near.append(g.without_edge(*edges[len(edges) // 2]))
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        if missing:
            near.append(g.with_edge(*missing[len(missing) // 2]))
    rng = np.random.default_rng(2718)
    randoms = []
    for n in range(3, 15):
        for p in (0.3, 0.55, 0.8, 0.92):
            randoms.extend(random_model("uniform_gnp", n=n, p=p, seed=int(rng.integers(1 << 30)),
                                        count=12))
    bips = []
    for side in range(2, 11):
        for k in range(1, side // 2 + 1):
            b = construct(FamilySpec("B", n=side, k=k))
            bips.append(b)
            core = build_bipartite(k, side - k, [(0, 0)])
            bips.append(construct(FamilySpec("Bset", n=side, k=k, inner=core)))
            bips.append(BipartiteGraph(side, side, tuple(r ^ (1 if i == 0 else 0)
                                                         for i, r in enumerate(b.rows))))
    bips += [construct(FamilySpec("Gamma1")), construct(FamilySpec("Gamma2"))]
    for side in range(2, 9):
        for p in (0.4, 0.7, 0.9):
            bips.extend(random_model("bipartite_gnp", side=side, p=p,
                                     seed=int(rng.integers(1 << 30)), count=12))
    # seeds where bip_q_qc fires (the rest of the cascade rarely lets it)
    for side, p, count in ((6, 0.5, 200), (7, 0.7, 100), (8, 0.7, 100)):
        bips.extend(random_model("bipartite_gnp", side=side, p=p, seed=side * 100 + int(p * 100),
                                 count=count))
    graphs = plain + near + randoms
    return ([("ham", g) for g in graphs if g.n >= 3] + [("trace", g) for g in graphs if g.n >= 1]
            + [("bip", b) for b in bips if b.nx >= 2])


def _select_lines(per_key: int = 3) -> list[str]:
    """Certificate lines covering each (cascade, verdict, theorem, family, borderline, skipped) key."""
    seen: dict = {}
    lines = []
    for i, (mode, g) in enumerate(_candidate_graphs()):
        order = g.nx if isinstance(g, BipartiteGraph) else g.n
        # the scalar oracle takes minutes on some non-traceable graphs of order 20
        for use_oracle in (False, True) if i % 5 == 0 and order <= 16 else (False,):
            line = _cert_line(mode, g, use_oracle)
            cert = json.loads(line)
            ev = cert["evidence"]
            key = (
                mode, use_oracle, cert["verdict"], cert["theorem"],
                (cert["exceptional"] or "").split(":")[0],
                tuple(b["theorem"] for b in ev.get("borderline", [])),
                tuple(t for t, status in ev["cascade"] if status == "skipped"),
            )
            if seen.get(key, 0) < per_key:
                seen[key] = seen.get(key, 0) + 1
                lines.append(f"{mode}\t{int(use_oracle)}\t{_graph_text(g)}\t{line}")
    return lines


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

def _bound_graphs() -> list:
    """Seeded G(n, p) at n = 1..60, 40 graphs at orders 25-500, 30 balanced bipartite graphs."""
    rng = np.random.default_rng(3141)

    def draw(kind, p, **order):
        return next(iter(random_model(kind, p=p, seed=int(rng.integers(1 << 30)), count=1, **order)))

    graphs = [draw("uniform_gnp", p, n=n) for n in range(1, 61) for p in (0.05, 0.3, 0.8)]
    orders = [25, 26, 62, 63, 64, 200, 500] + sorted(int(n) for n in rng.integers(27, 500, 33))
    graphs += [draw("uniform_gnp", (0.01, 0.1, 0.5, 0.95)[i % 4], n=n) for i, n in enumerate(orders)]
    graphs += [draw("bipartite_gnp", (0.2, 0.6, 0.9)[side % 3], side=side) for side in range(1, 31)]
    return graphs


def _bound_lines() -> list[str]:
    lines = []
    for i, g in enumerate(_bound_graphs()):
        delta = min(as_graph(g).degrees())
        k = (None, 0, delta, delta + 1)[i % 4]
        lines.append(f"{graph6_encode(g)}\t{k}\t{json.dumps(bound_report(g, k).to_json())}")
    return lines


def _bound_hash() -> str:
    return hashlib.sha256("".join(line + "\n" for line in _bound_lines()).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _load(path):
    if not path.exists():
        pytest.fail(f"missing golden file {path}; record it with tests/test_golden.py")
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", VERIFY_CASES, ids=_case_id)
def test_verify_golden(case):
    want = _load(VERIFY_FILE)["reports"][_case_id(case)]
    assert _run_case(case) == want


def test_verify_refusals_golden(tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    want = _load(VERIFY_FILE)["refusals"]
    got = _refusals(str(empty))
    assert got.keys() == want.keys()
    diff = {key: (got[key], want[key]) for key in want if got[key] != want[key]}
    assert not diff, list(diff.items())[:5]


@pytest.mark.parametrize("group", [
    pytest.param(name, marks=pytest.mark.slow) if name == "bip.side4" else name
    for name in _hash_groups()
])
def test_certificate_hashes_golden(group):
    want = _load(HASH_FILE)[group]
    mode, build = _hash_groups()[group]
    assert _group_hash(mode, build()) == want


def test_certificate_lines_golden():
    if not LINES_FILE.exists():
        pytest.fail(f"missing golden file {LINES_FILE}; record it with tests/test_golden.py")
    lines = LINES_FILE.read_text().splitlines()
    assert len(lines) > 100
    for entry in lines:
        mode, oracle, graph, line = entry.split("\t")
        assert _cert_line(mode, _graph_from_text(graph), oracle == "1") == line, (mode, graph)


def test_bound_reports_golden():
    assert _bound_hash() == _load(BOUNDS_FILE)["sha256"]


def _record():
    DATA.mkdir(exist_ok=True)
    _write_graph6_files()
    empty = DATA / "_empty.g6"
    empty.write_text("")
    try:
        refusals = _refusals(str(empty))
    finally:
        os.remove(empty)
    reports = {_case_id(case): _run_case(case) for case in VERIFY_CASES}
    VERIFY_FILE.write_text(json.dumps({"reports": reports, "refusals": refusals}, indent=0) + "\n")
    HASH_FILE.write_text(json.dumps(
        {name: _group_hash(mode, build()) for name, (mode, build) in _hash_groups().items()},
        indent=1) + "\n")
    LINES_FILE.write_text("\n".join(_select_lines()) + "\n")
    BOUNDS_FILE.write_text(json.dumps({"sha256": _bound_hash()}, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_record())

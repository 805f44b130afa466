"""The three benchmark workloads and the checks on their outputs.

Each workload runs in units: ``campaign`` and ``sweep`` run one whole batch
call per unit, ``single_graph`` runs one block of the request stream per unit
(see stream.py).  ``prepare(i)`` builds the inputs of unit ``i`` outside the
timed region, ``unit(i, tracer)`` runs it and returns the latencies of its
successful requests, and ``check()`` verifies every recorded output after
timing ends.  A wrong output makes the run incorrect; it is never counted as a
slow or failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spectralham as sh

import stream

DIGESTS = Path(__file__).with_name("digests.json")


class Campaign:
    """Exhaustive theorem campaigns over labeled spaces (jobs=1)."""

    name = "campaign"
    min_units = 2
    # (target, space, expected graphs processed, expected hypothesis count)
    TARGETS = (
        ("fn_rho", sh.SearchSpace.all_labeled(7), 1 << 21, 6890),
        ("bip_q_qc", sh.SearchSpace.balanced_bipartite_labeled(4), 1 << 16, 7583),
    )

    def __init__(self, seed: int):
        # The spaces are exhaustive, so the seed does not change the inputs.
        self.reports = []
        self.graphs = 0
        self.failed = 0

    @staticmethod
    def warm():
        sh.verify_theorem("fn_rho", sh.SearchSpace.all_labeled(5))
        sh.verify_theorem("bip_q_qc", sh.SearchSpace.balanced_bipartite_labeled(2))

    def prepare(self, i):
        pass

    def unit(self, i, tracer=None):
        if tracer is not None:
            tracer.req = i
        t0 = time.perf_counter()
        reps = [sh.verify_theorem(target, space) for target, space, _, _ in self.TARGETS]
        dt = time.perf_counter() - t0
        self.reports.append(reps)
        self.graphs += sum(r.processed for r in reps)
        self.failed += sum(len(r.aborted) for r in reps)
        return {i: dt}

    def check(self) -> list[str]:
        problems = []
        for reps in self.reports:
            for rep, (target, _space, processed, hyps) in zip(reps, self.TARGETS):
                got = (rep.processed, rep.hypothesis_count, rep.clean)
                if got != (processed, hyps, True):
                    problems.append(f"{target}: processed/hypotheses/clean {got}, "
                                    f"expected {(processed, hyps, True)}")
        return problems

    def composition(self, traced) -> list[str]:
        lines = []
        for target, space, processed, hyps in self.TARGETS:
            lines.append(f"{target} over {space.describe()}: {processed} graphs per pass, "
                         f"{hyps} reach the hypothesis ({hyps / processed:.4%}) and so the "
                         f"oracle/recognizer conclusion check")
        lines.append(f"passes run: {len(self.reports)}")
        return lines


class Sweep:
    """Certifier soundness sweep (acceptance criterion 8) at n = 6, side 4."""

    name = "sweep"
    min_units = 1
    EXPECTED = {"graphs": 32768, "bipartite_graphs": 65536, "certified_positive": 14631,
                "exceptional": 1080}

    def __init__(self, seed: int):
        # The spaces are exhaustive, so the seed does not change the inputs.
        self.summaries = []
        self.graphs = 0
        self.failed = 0

    @staticmethod
    def warm():
        sh.harness.certifier_soundness_sweep(ns=(4,), bip_sides=(2,))

    def prepare(self, i):
        pass

    def unit(self, i, tracer=None):
        if tracer is not None:
            tracer.req = i
        t0 = time.perf_counter()
        summary = sh.harness.certifier_soundness_sweep(ns=(6,), bip_sides=(4,))
        dt = time.perf_counter() - t0
        self.summaries.append(summary)
        self.graphs += summary["graphs"] + summary["bipartite_graphs"]
        self.failed += len(summary["aborted"])
        return {i: dt}

    def check(self) -> list[str]:
        problems = []
        for s in self.summaries:
            got = {key: s[key] for key in self.EXPECTED}
            if got != self.EXPECTED or s["violations"] or s["aborted"]:
                problems.append(f"sweep summary {got}, violations {len(s['violations'])}, "
                                f"aborted {len(s['aborted'])}; expected {self.EXPECTED} and none")
        return problems

    def composition(self, traced) -> list[str]:
        e = self.EXPECTED
        total = e["graphs"] + e["bipartite_graphs"]
        checked = e["certified_positive"] + e["exceptional"]
        return [
            f"all_labeled(6): {e['graphs']} graphs; balanced_bipartite_labeled(4): "
            f"{e['bipartite_graphs']} graphs (per sweep)",
            f"certified_positive {e['certified_positive']}, exceptional {e['exceptional']}: "
            f"{checked / total:.2%} of graphs are re-checked by the oracle",
            f"sweeps run: {len(self.summaries)}",
        ]


def _handle(kind: str, g6: str) -> tuple[dict, dict]:
    """One request, as the CLI command of the same name computes it.

    Returns the command's JSON output and, for ``spectral``, the rho method
    and whether every bound held, which the checks and the composition read.
    """
    g = sh.graph6_decode(g6)
    meta = {}
    if kind == "certify":
        cert = sh.certify_hamiltonicity(g, use_oracle=True)
        out = {"graph6": sh.graph6_encode(g), **cert.to_json()}
    elif kind == "spectral":
        rho = sh.spectral_radius(g)
        q = sh.q_radius(g)
        rep = sh.bound_report(g)
        out = {"graph6": sh.graph6_encode(g), "rho": rho.value, "q": q.value,
               "bounds": rep.to_json()}
        meta = {"rho_method": rho.method, "bounds_ok": rep.all_satisfied()}
    else:
        closed, joins = sh.bc_closure(g)
        out = {"graph6": sh.graph6_encode(g), "closure": sh.graph6_encode(closed), "joins": joins}
    json.dumps(out)
    return out, meta


class SingleGraph:
    """Closed loop, one client, one request at a time over the seeded stream."""

    name = "single_graph"
    min_units = 2  # 2 x 512 requests leave more than ten samples beyond p99

    def __init__(self, seed: int):
        self.seed = seed
        self.blocks = {}
        self.results = []  # (block, kind, graph6, slot, order, output or error name, meta)
        self.graphs = 0
        self.failed = 0
        self.next_req = 0
        self.kinds = {}  # request id -> kind

    @staticmethod
    def warm():
        for kind, g in (("certify", sh.complete_graph(6)), ("spectral", sh.cycle_graph(21)),
                        ("closure", sh.path_graph(10))):
            _handle(kind, sh.graph6_encode(g))

    def prepare(self, i):
        if i not in self.blocks:
            self.blocks[i] = stream.block(self.seed, i)

    def unit(self, i, tracer=None):
        lat = {}
        clock = time.perf_counter
        for kind, g6, slot, order in self.blocks[i]:
            req = self.next_req
            self.next_req += 1
            if tracer is not None:
                tracer.req = req
            self.kinds[req] = kind
            t0 = clock()
            try:
                out = _handle(kind, g6)
            except (sh.ConvergenceError, ValueError, TypeError) as exc:
                out = (type(exc).__name__, {})
            dt = clock() - t0
            self.graphs += 1
            # certify --oracle is inconclusive only when the oracle aborted.
            if _failed(out[0]):
                self.failed += 1
            else:
                lat[req] = dt
            self.results.append((i, kind, g6, slot, order, *out))
        return lat

    def check(self) -> list[str]:
        problems = []
        digest = hashlib.sha256()
        first = len(self.blocks.get(0, ()))  # block 0 runs first, and again under --trace 1
        for idx, (i, kind, g6, slot, order, out, meta) in enumerate(self.results):
            if _failed(out):
                continue  # counted as failed
            g = sh.graph6_decode(g6)
            answer = None
            if kind == "certify":
                answer, why = _check_certificate(g, out)
            elif kind == "spectral":
                why = _check_spectral(g, out, meta)
            else:
                answer = out["closure"]
                why = None if sh.graph6_decode(answer).adj == _closure(g) else (
                    f"{answer} is not the Bondy-Chvatal closure")
            if why:
                problems.append(f"{kind} {g6}: {why}")
            if idx < first and answer is not None:
                digest.update(f"{kind} {g6} {answer}\n".encode())
        self.digest = digest.hexdigest()
        recorded = json.loads(DIGESTS.read_text()).get(str(self.seed))
        if recorded is None:
            self.digest_status = "no digest recorded for this seed"
        elif recorded == self.digest:
            self.digest_status = "matches the recorded digest"
        else:
            self.digest_status = f"MISMATCH: recorded {recorded}"
            problems.insert(0, f"verdict digest {self.digest} != recorded {recorded}")
        return problems

    def composition(self, traced) -> list[str]:
        """Requests per kind, slot and order; ``traced`` holds the per-layer metrics, if any."""
        # Under --trace 1 the same blocks run three times; describe them once.
        rows = self.results[: stream.BLOCK * len({r[0] for r in self.results})]
        kinds = Counter(r[1] for r in rows)
        slots = Counter(r[3] for r in rows)
        lines = [f"requests {len(rows)} in {len({r[0] for r in rows})} blocks of {stream.BLOCK}: "
                 + ", ".join(f"{k} {v} ({v / len(rows):.1%})" for k, v in sorted(kinds.items())),
                 "slots: " + ", ".join(f"{k} {v}" for k, v in slots.items())]
        for kind in ("certify", "closure"):
            orders = Counter(r[4] for r in rows if r[1] == kind)
            lines.append(f"{kind} by order: " + " ".join(f"n{k}:{v}" for k, v in sorted(orders.items())))
        buckets = Counter(next(hi for hi in (50, 100, 200, 500) if r[4] <= hi)
                          for r in rows if r[1] == "spectral")
        lines.append("spectral by order: " + " ".join(f"<={k}:{v}" for k, v in sorted(buckets.items())))
        spectral = [r for r in rows if r[1] == "spectral"]
        power = sum(1 for r in spectral
                    if r[6].get("rho_method") == "power_iteration" or r[5] == "ConvergenceError")
        lines.append(f"spectral requests on the power-iteration path: {power} "
                     f"({power / max(1, len(spectral)):.1%} of spectral); "
                     f"failed {sum(1 for r in spectral if _failed(r[5]))}")
        certify = [r for r in rows if r[1] == "certify"]
        oracle = sum(1 for r in certify if not _failed(r[5]) and r[5]["verdict"] == "oracle_resolved")
        lines.append(f"certify requests resolved by the oracle: {oracle} "
                     f"({oracle / max(1, len(certify)):.1%} of certify)")
        if traced is None:
            dp = sum(1 for r in certify if r[3] == "dp_tail" or (r[3] == "dp_mid" and r[4] >= 12))
            lines.append(f"certify requests built to reach the subset-DP fallback: {dp} "
                         f"({dp / len(rows):.2%} of requests; measured with --trace 1)")
        else:
            lines.append(f"subset-DP fallbacks (traced pass): {traced['oracle.subset_dp.calls']}")
        return lines


def _check_certificate(g, out):
    """Return (answer, problem): answer is 'yes'/'no' Hamiltonian."""
    verdict = out["verdict"]
    if verdict == "oracle_resolved" and out["witness"] is not None:
        ok = sh.is_valid_cycle(g, out["witness"])
        return "yes", None if ok else "oracle witness is not a Hamilton cycle"
    if verdict == "certified_positive":
        cycle = _cycle_from_closure(g)
        if cycle is None:
            res = sh.is_hamiltonian(g)
            cycle = res.witness if res.status == "yes" else None
        ok = cycle is not None and sh.is_valid_cycle(g, cycle)
        return "yes", None if ok else f"certified by {out['theorem']} but no Hamilton cycle found"
    if verdict in ("exceptional", "oracle_resolved"):
        if _not_one_tough(g):
            return "no", None
        # No cheap certificate: decide again by the other oracle method.
        res = sh.is_hamiltonian(g, method="dp" if g.n <= 20 else "backtracking")
        return "no", None if res.status == "no" else f"verdict {verdict} but the oracle says {res.status}"
    return None, f"unexpected verdict {verdict}"


def _not_one_tough(g) -> bool:
    """True when g has a vertex cut S leaving more than |S| components."""
    n = g.n
    degs = g.degrees()
    if n < 3 or min(degs) < 2 or not g.is_connected():
        return True
    full = (1 << n) - 1
    cuts = [sum(1 << v for v in range(n) if degs[v] == n - 1)]
    low = min(degs)
    cuts += [g.adj[v] for v in range(n) if degs[v] == low]
    for cut in cuts:
        if not cut:
            continue
        rest = full & ~cut
        comps = 0
        while rest:
            reach = frontier = rest & -rest
            while frontier:
                nxt = 0
                for v in sh.graphs.bits(frontier):
                    nxt |= g.adj[v]
                frontier = nxt & rest & ~reach
                reach |= frontier
            rest &= ~reach
            comps += 1
        if comps > cut.bit_count():
            return True
    return False


def _failed(out) -> bool:
    """An exception name, or certify --oracle left inconclusive (oracle abort)."""
    return isinstance(out, str) or out.get("verdict") == "inconclusive"


def _check_spectral(g, out, meta):
    a = g.matrix()
    rho = float(np.linalg.eigvalsh(a)[-1])
    q = float(np.linalg.eigvalsh(a + np.diag(a.sum(axis=1)))[-1])
    if abs(rho - out["rho"]) > 1e-9 or abs(q - out["q"]) > 1e-9:
        return f"rho {out['rho']!r} / q {out['q']!r} differ from numpy {rho!r} / {q!r}"
    if not meta["bounds_ok"]:
        return "a bound inequality is reported violated"
    return None


def _closure_steps(g):
    """Bondy-Chvatal closure by repeated scans: (neighbour sets, joins in order)."""
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    joins = []
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if v not in adj[u] and len(adj[u]) + len(adj[v]) >= n:
                    adj[u].add(v)
                    adj[v].add(u)
                    joins.append((u, v))
                    changed = True
    return adj, joins


def _closure(g) -> tuple:
    adj, _ = _closure_steps(g)
    return tuple(sum(1 << u for u in adj[v]) for v in range(g.n))


def _cycle_from_closure(g):
    """A Hamilton cycle of g when its closure is complete, else None.

    Starts from any cycle of the complete closure and removes the closure's
    joins in reverse order; each removed join uv had deg(u) + deg(v) >= n, so
    the Bondy-Chvatal exchange reroutes a cycle through uv around it.
    """
    n = g.n
    adj, joins = _closure_steps(g)
    if n < 3 or any(len(a) != n - 1 for a in adj):
        return None
    cycle = list(range(n))
    for u, v in reversed(joins):
        adj[u].discard(v)
        adj[v].discard(u)
        iu, iv = cycle.index(u), cycle.index(v)
        if (iu - iv) % n not in (1, n - 1):
            continue
        # Rotate so the cycle reads u ... v and uv is the closing edge.
        if (iv - iu) % n == 1:
            cycle = cycle[iv:] + cycle[:iv]
            cycle.reverse()
        else:
            cycle = cycle[iu:] + cycle[:iu]
        for i in range(1, n - 2):
            if cycle[i + 1] in adj[cycle[0]] and cycle[i] in adj[cycle[-1]]:
                cycle = cycle[: i + 1] + cycle[i + 1:][::-1]
                break
        else:
            return None
    return cycle


WORKLOADS = {w.name: w for w in (Campaign, Sweep, SingleGraph)}

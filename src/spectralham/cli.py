"""Command-line interface.

Subcommands: gen, spectral, closure, oracle, certify, verify, search.
Exit codes: 0 = clean, 1 = counterexamples found, 2 = usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certifier import certify_bipartite_hamiltonicity, certify_hamiltonicity, certify_traceability
from .families import FamilySpec, construct
from .graphs import (
    BipartiteGraph,
    bipartite_from_graph,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
)
from .harness import (
    _OBJECTIVES,
    SearchSpace,
    VERIFY_TARGETS,
    extremal_search,
    verify_theorem,
)
from .oracle import DEFAULT_BUDGET, is_hamiltonian, is_traceable
from .spectral import DEFAULT_TOL, _check_tol, bound_report
from .transforms import bc_closure, bipartite_closure


def _load_graphs(arg: str):
    """Interpret the argument as a graph6 literal or a file path.

    Files may hold graph6 lines or one edge-list block ("n m" header).
    """
    if os.path.exists(arg):
        with open(arg, "r", encoding="ascii") as fh:
            text = fh.read()
        first = text.strip().splitlines()[0].split() if text.strip() else []
        if len(first) == 2 and all(tok.isdigit() for tok in first):
            return [parse_edge_list(text)]
        return [graph6_decode(line) for line in text.splitlines() if line.strip()]
    return [graph6_decode(arg)]


def _space_from_args(args) -> SearchSpace:
    kind = args.space
    if kind == "all_labeled":
        return SearchSpace.all_labeled(args.n)
    if kind == "min_degree":
        if args.min_degree is None:
            raise ValueError("--space min_degree needs --min-degree")
        return SearchSpace.labeled_min_degree(args.n, args.min_degree)
    if kind == "bipartite":
        return SearchSpace.balanced_bipartite_labeled(args.side)
    if kind == "gnp":
        return SearchSpace.gnp(args.n, args.p, args.samples, args.seed)
    if kind == "bipartite_gnp":
        return SearchSpace.bipartite_gnp(args.side, args.p, args.samples, args.seed)
    if kind == "file":
        return SearchSpace.graph6_file(args.file)
    raise ValueError(f"unknown space {kind!r}")


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")


def cmd_gen(args) -> int:
    spec = FamilySpec.parse(args.familyspec)
    g = construct(spec)
    gg = g.to_graph() if isinstance(g, BipartiteGraph) else g
    print(graph6_encode(gg))
    return 0


def cmd_spectral(args) -> int:
    rc = 0
    for g in _load_graphs(args.graph):
        rep = bound_report(g, k=args.k, tol=args.tolerance)
        if args.json:
            _emit({
                "graph6": graph6_encode(g),
                "rho": rep.rho,
                "q": rep.q,
                "bounds": rep.to_json(),
            })
        else:
            print(f"{graph6_encode(g)}: rho = {rep.rho:.10f}, q = {rep.q:.10f}")
            for rec in rep.records:
                if not rec.applicable:
                    print(f"  {rec.bound_id:<22} inapplicable")
                else:
                    tag = "ok" if rec.satisfied else "VIOLATED"
                    print(
                        f"  {rec.bound_id:<22} {rec.kind:<5} bound={rec.bound_value:.10f} "
                        f"slack={rec.slack:+.3e} {tag}"
                    )
                    if not rec.satisfied:
                        rc = 1
    return rc


def cmd_closure(args) -> int:
    for g in _load_graphs(args.graph):
        if args.bipartite:
            b = bipartite_from_graph(g)
            closed, rounds = bipartite_closure(b)
            out = graph6_encode(closed.to_graph())
        else:
            closed, rounds = bc_closure(g)
            out = graph6_encode(closed)
        if args.json:
            _emit({"graph6": graph6_encode(g), "closure": out, "joins": rounds})
        else:
            print(f"{out}  (joins: {rounds})")
    return 0


def cmd_oracle(args) -> int:
    for g in _load_graphs(args.graph):
        res = is_traceable(g, budget=args.budget) if args.path else is_hamiltonian(g, budget=args.budget)
        if args.json:
            _emit({
                "graph6": graph6_encode(g),
                "question": "traceable" if args.path else "hamiltonian",
                "status": res.status,
                "witness": list(res.witness) if res.witness else None,
                "method": res.method,
            })
        else:
            what = "traceable" if args.path else "hamiltonian"
            print(f"{graph6_encode(g)}: {what} = {res.status}"
                  + (f", witness {list(res.witness)}" if res.witness else ""))
    return 0


def cmd_certify(args) -> int:
    for g in _load_graphs(args.graph):
        opts = dict(use_oracle=args.oracle, tol=args.tolerance, oracle_budget=args.budget)
        if args.bipartite:
            cert = certify_bipartite_hamiltonicity(bipartite_from_graph(g), **opts)
        elif args.traceable:
            cert = certify_traceability(g, **opts)
        else:
            cert = certify_hamiltonicity(g, **opts)
        if args.json:
            _emit({"graph6": graph6_encode(g), **cert.to_json()})
        else:
            line = f"{graph6_encode(g)}: {cert.verdict}"
            if cert.theorem:
                line += f" via {cert.theorem}"
            if cert.exceptional:
                line += f" (exceptional: {cert.exceptional.text()})"
            print(line)
    return 0


def cmd_verify(args) -> int:
    space = _space_from_args(args)
    emit = _emit if args.json else None
    report = verify_theorem(
        args.target, space, k=args.k, tol=args.tolerance,
        oracle_budget=args.budget, jobs=args.jobs, emit=emit,
    )
    if not args.json:
        print(f"target {args.target} over {report.space}:")
        print(f"  processed {report.processed}, hypothesis {report.hypothesis_count}, "
              f"exceptional {report.exceptional_matches}, "
              f"failures {len(report.conclusion_failures)}, aborted {len(report.aborted)} "
              f"({report.wall_time:.2f} s)")
        for g6 in report.conclusion_failures:
            print(f"  counterexample: {g6}")
        for g6 in report.aborted:
            print(f"  aborted: {g6}")
    return 0 if report.clean else 1


def cmd_search(args) -> int:
    space = _space_from_args(args)
    best, winners = extremal_search(
        space, args.objective, args.constraint, k=args.k,
        tol=args.tolerance, oracle_budget=args.budget,
    )
    if args.json:
        _emit({"objective": args.objective, "constraint": args.constraint,
               "space": space.describe(), "best": best, "graphs": winners})
    else:
        if best is None:
            print("no graph satisfies the constraint")
        else:
            print(f"optimum {best:.10f} attained by {len(winners)} graph(s):")
            for g6 in winners:
                print(f"  {g6}")
    return 0


def _tolerance(text: str) -> float:
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# the shared flags, added to each command that reads them
_COMMON = {
    "seed": dict(type=int, default=0, help="random-model seed"),
    "jobs": dict(type=int, default=1, help="worker processes for campaigns"),
    "tolerance": dict(type=_tolerance, default=DEFAULT_TOL, help="spectral comparison tolerance"),
    "json": dict(action="store_true", help="JSON / JSON-lines output"),
    "budget": dict(type=int, default=DEFAULT_BUDGET, help="oracle node budget"),
}


def _add_common(p, *names):
    for name in names:
        p.add_argument(f"--{name}", **_COMMON[name])


def _add_space(p):
    p.add_argument("--space", default="all_labeled",
                   choices=["all_labeled", "min_degree", "bipartite", "gnp",
                            "bipartite_gnp", "file"])
    p.add_argument("--n", type=int, help="vertex count for graph spaces")
    p.add_argument("--side", type=int, help="side size for bipartite spaces")
    p.add_argument("--min-degree", dest="min_degree", type=int,
                   help="minimum-degree filter for --space min_degree")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for gnp spaces")
    p.add_argument("--samples", type=int, default=1000, help="sample count for gnp spaces")
    p.add_argument("--file", help="graph6 file for --space file")
    p.add_argument("--k", type=int, help="theorem parameter k (min degree)")


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="spectralham",
        description="Spectral Hamiltonicity toolkit: families, certifier, oracle, harness",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a family member, emit graph6")
    p.add_argument("familyspec", help='e.g. "N:n=7,k=2", "B:n=4,k=2", "Gamma1"')
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("spectral", help="rho, q, and the bound report")
    p.add_argument("graph", help="graph6 string or file (graph6 lines / edge list)")
    p.add_argument("--k", type=int, help="min-degree parameter for the Nikiforov bound")
    _add_common(p, "tolerance", "json")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("closure", help="Bondy-Chvatal closure (or bipartite closure)")
    p.add_argument("graph")
    p.add_argument("--bipartite", action="store_true")
    _add_common(p, "json")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("oracle", help="exact Hamilton cycle/path decision")
    p.add_argument("graph")
    p.add_argument("--path", action="store_true", help="decide traceability instead")
    _add_common(p, "json", "budget")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("certify", help="run the theorem cascade")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group()  # the bipartite cascade has no traceability part
    mode.add_argument("--bipartite", action="store_true")
    mode.add_argument("--traceable", action="store_true")
    p.add_argument("--oracle", action="store_true", help="resolve inconclusive cases exactly")
    _add_common(p, "tolerance", "json", "budget")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="theorem-verification campaign over a space")
    p.add_argument("target", choices=sorted(VERIFY_TARGETS))
    _add_space(p)
    _add_common(p, "seed", "jobs", "tolerance", "json", "budget")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="extremal search over a space")
    p.add_argument("objective", choices=list(_OBJECTIVES))
    p.add_argument("--constraint", default="non_hamiltonian",
                   choices=["non_hamiltonian", "non_traceable"])
    _add_space(p)
    _add_common(p, "seed", "tolerance", "json", "budget")
    p.set_defaults(fn=cmd_search)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

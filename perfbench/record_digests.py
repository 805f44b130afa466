#!/usr/bin/env python3
"""Record the single_graph verdict digests into perfbench/digests.json.

    python3 perfbench/record_digests.py [--seeds N]

For each seed 0..N-1 this runs the certify and closure requests of block 0 of
the stream, checks them as a benchmark run does, and stores the digest of
their answers (Hamiltonian yes/no, the closure).  Spectral requests are
checked numerically instead and are not part of the digest, so the digest
changes only when the stream or a verdict changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()
    digests = {}
    for seed in range(args.seeds):
        w = workloads.SingleGraph(seed)
        w.prepare(0)
        w.blocks[0] = [r for r in w.blocks[0] if r[0] != "spectral"]
        w.unit(0)
        w.check()
        digests[str(seed)] = w.digest
        print(seed, w.digest, flush=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

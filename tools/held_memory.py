"""Held-memory probe: what fresh products leave behind for the cyclic collector.

    python3 tools/held_memory.py --requests 60 --seed 0

Runs high-degree-like requests, each on a new product pair: degrees 40-64,
zeros up to |a| = 0.95 with one zero at 0.95, in TM bases.  A request builds
the operator matrix of a random structured symbol by quadrature and by the
closed path, the compressed shift and a Clark unitary, conjugates a vector
twice and runs ``run_all`` on the matrix.  It keeps nothing, so whatever it
allocated and is still traced (``tracemalloc``) after it returns is held
only by reference cycles, waiting for the cyclic collector.  The collector
runs with its default settings.

Prints one JSON line: the median and the maximum MiB held after each
request, the traced peak over the run, both above the traced memory before
the first probed request and in MiB to one decimal, and the collections the
collector ran in each generation.  The free lists of the interpreter and of
numpy keep a few tens of KiB traced, below that resolution.  The exit code
is 0 whatever it reads; CI parses the line and fails when ``held_mib_max``
is 1.0 or more.  The library is imported from the checkout's ``src``
directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import attokit as ak  # noqa: E402
from attokit import instances  # noqa: E402

DEGREES = ((64, 40), (40, 64), (52, 50), (50, 52))
RADIUS = 0.95
MIB = float(1 << 20)
WARM_INDEX = 1 << 20            # the warm-up requests' inputs, apart from the probed ones


def product(rng, degree: int) -> ak.BlaschkeProduct:
    """A random product with its outermost zero moved out to ``RADIUS``."""
    zeros = list(instances.random_blaschke(rng, degree, radius=RADIUS).zeros)
    k = int(np.argmax(np.abs(zeros)))
    zeros[k] *= RADIUS / abs(zeros[k])
    return ak.BlaschkeProduct(tuple(zeros), instances.random_unimodular(rng))


def request(seed: int, index: int) -> None:
    rng = np.random.default_rng([seed, index])
    m, n = DEGREES[index % len(DEGREES)]
    alpha, beta = product(rng, m), product(rng, n)
    ta, tb = ak.build_basis(alpha, "tm"), ak.build_basis(beta, "tm")
    symbol = instances.random_symbol(rng, alpha, beta)
    member = ak.atto_matrix(alpha, beta, symbol, ta, tb)
    ak.atto_matrix(alpha, beta, symbol, ta, tb, method="closed")
    ak.compressed_shift(alpha, ta)
    ak.clark_unitary(alpha, instances.random_unimodular(rng), ta)
    ak.conjugation(ak.conjugation(instances.random_vector(rng, ta)))
    try:
        ak.run_all(member)
    except (ak.IndeterminateError, ak.MethodDisagreement):
        pass                      # a refusal is a result here, not a fault


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tracemalloc.start()
    for index in range(len(DEGREES)):         # first-use set-up of numpy and the library
        request(args.seed, WARM_INDEX + index)
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    before = [gen["collections"] for gen in gc.get_stats()]
    held = []
    for index in range(args.requests):
        request(args.seed, index)
        held.append((tracemalloc.get_traced_memory()[0] - base) / MIB)
    peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
    after = [gen["collections"] for gen in gc.get_stats()]
    tracemalloc.stop()
    print(json.dumps({"requests": args.requests, "seed": args.seed,
                      "held_mib_median": round(statistics.median(held), 1),
                      "held_mib_max": round(max(held), 1),
                      "traced_peak_mib": round(peak, 1),
                      "collections": [b - a for a, b in zip(before, after)]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

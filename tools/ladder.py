"""Degree ladder: the CPU time of each membership layer, each with its accuracy.

    python3 tools/ladder.py --pr 24                  # writes BENCH_24.json
    python3 tools/ladder.py --degrees 4 8 --out -    # prints the JSON

For each degree d, each shape (m, n) = (d, d) and (d, d / 2), and each zero
radius, a fixed seed draws a product pair (random zeros in |a| <= radius,
the outermost moved out to the radius) and two spectral parameters.  On
members of the class in the paired Clark bases (the closed path) and on
their perturbed non-members (``perturbed_nonmember``), the ladder times on
one BLAS thread, as the median process CPU time of one call over ``ROUNDS``
passes through all rows:

- each membership test: the Clark recurrence, the rank-two residual at
  (0, 0) and at the Clark coefficients, the conjugate residual and shift
  invariance.  Accuracy: the largest member residual and the smallest
  non-member residual (a refusal's residual included), and the refusals;
- the witness recovery ``recover_chi_psi_clark`` on members.  Accuracy: the
  largest relative defect of the Clark rank-two identity it must satisfy;
- ``atto_matrix`` by quadrature on a warm pair, whose quadrature levels are
  stored, and on a fresh pair (``[fresh]``), the same products rebuilt for
  each call, so that every level is evaluated and nothing is stored.
  Accuracy: the largest distance to the closed path, relative to
  1 + max|entry|, and the node count;
- the conjugation matrix of a fresh model space of the first product
  (``ModelSpace.conj``).  Accuracy: the involution defect max|C conj(C) - I|;
- the boundary solve of a fresh product equal to the first one
  (``boundary_solve`` at the target of the first spectral parameter).
  Accuracy: the largest residual |B(eta) - u|;
- the Clark basis of a fresh product equal to the first one
  (``build_basis(..., "clark")``: boundary solve, kernels and phases).
  Accuracy: the Gram defect max|T^H T - I|, and its largest entry on and
  off the diagonal apart;
- the basis change ``tm_entries()`` of each member loaded anew over the
  paired Clark bases (Clark -> TM).  Accuracy: the largest round-trip
  error against the closed-path TM matrix, relative to 1 + max|entry|;
- the basis change ``OperatorMatrix.from_tm`` of each member's TM matrix
  into the paired Clark bases (TM -> Clark), the move that quadrature and
  the closed path make.  Accuracy: the largest round-trip error of the
  Clark entries, Clark -> TM -> Clark through ``tm_entries()`` of the
  member loaded anew, relative to 1 + max|entry|.  At degrees up to
  ``ROUND_TRIP_DEGREES`` both basis-change rows also report the median of
  their round-trip error over ``ROUND_TRIP_DRAWS`` more seeded draws of the
  row's shape and radius, one member each, since every route sits at the
  one-ulp floor there and a maximum over three members cannot rank two;
- the Clark pairing ``match_clark_points`` of the row's stored point sets,
  built anew with every constant read.  Number: its ``min_separation``.

Every layer runs at radii 0.8, 0.95 and 0.9999 but the quadrature, which
raises from 0.999 on (too many nodes), and runs at 0.8 and 0.95 only.

Times are in CPU microseconds of this machine.  The run also records the
speed reference of the benchmark (``bench/reference.py``, read-only) and its
scale, NOMINAL_S over the median sample, which converts them to nominal
microseconds; and the environment (``bench/run.py``'s ``environment``).
The accuracy numbers depend on ``SEED`` alone, so two runs give the same.
The library is imported from the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"                  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import attokit as ak  # noqa: E402
from attokit import instances, operators  # noqa: E402
from attokit.modelspace import ModelSpace  # noqa: E402
from reference import NOMINAL_S, SpeedReference  # noqa: E402
from run import environment  # noqa: E402

SEED = 0                        # fixed, so that BENCH_N.json files compare
DEGREES = (4, 8, 16, 32, 64)
RADII = (0.8, 0.95, 0.9999)
MATRICES = 3                    # members, and as many non-members, per row
ROUND_TRIP_DRAWS = 32           # draws behind the round-trip medians
ROUND_TRIP_DEGREES = 16         # rows of degree up to this report the medians
ROUNDS = 7                      # passes over all rows
REPEATS = 3                     # timed calls per matrix and pass
REFUSALS = (ak.IndeterminateError, ak.ToleranceBreakdown)
TESTS = {                       # name -> test(matrix, pairing, Clark coefficients)
    "membership.clark_recurrence":
        lambda x, pairing, coeffs: ak.test_clark_recurrence(x, pairing),
    "membership.rank_two_residual":
        lambda x, pairing, coeffs: ak.test_rank_two_residual(x),
    "membership.rank_two_residual[clark]":
        lambda x, pairing, coeffs: ak.test_rank_two_residual(x, *coeffs),
    "membership.conjugate_residual":
        lambda x, pairing, coeffs: ak.test_conjugate_residual(x),
    "membership.shift_invariance":
        lambda x, pairing, coeffs: ak.test_shift_invariance(x),
}


PAIRING_CONSTANTS = ("eta", "zeta", "sqrt_weights_a", "sqrt_weights_b", "weight", "free",
                     "divisor", "min_separation", "paired_index", "inverse_perm_a",
                     "inverse_perm_b")


def product(rng, degree: int, radius: float) -> ak.BlaschkeProduct:
    """A random product with its outermost zero moved out to ``radius``."""
    zeros = list(instances.random_blaschke(rng, degree, radius=radius).zeros)
    k = int(np.argmax(np.abs(zeros)))
    zeros[k] *= radius / abs(zeros[k])
    return ak.BlaschkeProduct(tuple(zeros), instances.random_unimodular(rng))


def cpu_us(call, repeats: int) -> list[float]:
    """CPU microseconds of ``repeats`` calls, one each; a refusal counts as
    a call."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        try:
            call()
        except REFUSALS:
            pass
        times.append(1e6 * (time.process_time() - start))
    return times


def residual(call) -> tuple[float, bool]:
    """(relative residual, refused) of one membership test."""
    try:
        return call().max_residual, False
    except ak.IndeterminateError as exc:
        return exc.relative_residual, True
    except ak.ToleranceBreakdown:
        return float("nan"), True


def quadrature_nodes(call) -> int:
    """The circle nodes one quadrature call evaluates."""
    seen = []
    real = operators.doubling_circle_mean

    def counting(node_sum, tol):
        def counted(*node_sets):
            seen.extend(len(z) for z in node_sets)
            return node_sum(*node_sets)
        return real(counted, tol)

    operators.doubling_circle_mean = counting
    try:
        call()
    finally:
        operators.doubling_circle_mean = real
    return sum(seen)


def rel_max(diff, ref) -> float:
    return float(np.abs(diff).max() / (1.0 + np.abs(ref).max()))


def fresh_quadrature(alpha, beta, symbol, in_basis, out_basis):
    """``atto_matrix`` by quadrature on new products equal to alpha and beta,
    whose model spaces hold no quadrature level."""
    return ak.atto_matrix(ak.BlaschkeProduct(alpha.zeros, alpha.front),
                          ak.BlaschkeProduct(beta.zeros, beta.front),
                          symbol, in_basis, out_basis)


def fresh_clark_basis(b: ak.BlaschkeProduct, lam: complex) -> ak.ModelBasis:
    """The Clark basis of a new product equal to ``b``, whose model space
    holds no Clark work."""
    return ak.build_basis(ak.BlaschkeProduct(b.zeros, b.front), "clark", lam)


def fresh_boundary_solve(b: ak.BlaschkeProduct, target: complex) -> np.ndarray:
    """The boundary points of a new product equal to ``b``, whose model space
    holds nothing yet."""
    return ak.boundary_solve(ak.BlaschkeProduct(b.zeros, b.front), target)


def built_pairing(clark_a, clark_b) -> ak.ClarkPairing:
    """A new pairing of the two point sets, with every constant read, so
    that a pairing which computes its constants on first read (as older
    checkouts' did) pays for them too."""
    pairing = ak.match_clark_points(clark_a, clark_b)
    for name in PAIRING_CONSTANTS:
        getattr(pairing, name)
    return pairing


def loaded_tm(x: ak.OperatorMatrix) -> np.ndarray:
    """The TM matrix of ``x``'s entries over ``x``'s bases, solved anew, as
    for a matrix loaded from its entries."""
    return ak.OperatorMatrix(x.entries, x.in_basis, x.out_basis).tm_entries()


def fresh_conj(b: ak.BlaschkeProduct) -> np.ndarray:
    """The conjugation matrix of a new model space of ``b``."""
    return ModelSpace(b).conj


def round_trip_medians(m: int, n: int, radius: float) -> tuple[float, float]:
    """The medians, over ``ROUND_TRIP_DRAWS`` seeded draws of one closed-path
    member in the paired Clark bases each, of the round-trip errors that
    ``tm_entries[clark]`` and ``from_tm[clark]`` report as maxima: at the
    one-ulp floor a maximum over three members cannot rank two routes."""
    rng = np.random.default_rng([SEED, m, n, round(1000 * radius), 1])
    to_tm, to_clark = [], []
    while len(to_tm) < ROUND_TRIP_DRAWS:
        alpha, beta = product(rng, m, radius), product(rng, n, radius)
        lam1, lam2 = instances.random_unimodular(rng), instances.random_unimodular(rng)
        symbol = instances.random_symbol(rng, alpha, beta)
        try:
            ca, cb = ak.build_basis(alpha, "clark", lam1), ak.build_basis(beta, "clark", lam2)
        except REFUSALS:
            continue
        x = ak.atto_matrix(alpha, beta, symbol, ca, cb, method="closed")
        to_tm.append(rel_max(loaded_tm(x) - x.tm_entries(), x.tm_entries()))
        to_clark.append(rel_max(ak.OperatorMatrix.from_tm(loaded_tm(x), ca, cb).entries
                                - x.entries, x.entries))
    return statistics.median(to_tm), statistics.median(to_clark)


def witness_defect(member, pairing, chi, psi) -> float:
    """Relative defect of A - U_beta A U_alpha^H = psi (x) k_0 + k_0 (x) chi."""
    u_a = ak.clark_unitary(member.alpha, pairing.clark_a.lam).entries
    u_b = ak.clark_unitary(member.beta, pairing.clark_b.lam).entries
    tm = member.tm_entries()
    d = tm - u_b @ tm @ u_a.conj().T
    k0a, k0b = member.alpha.model_space.k0, member.beta.model_space.k0
    return rel_max(d - np.outer(psi.tm(), k0a.conj()) - np.outer(k0b, chi.tm().conj()), d)


class Row:
    """One rung: a product pair of degrees (m, n) with zeros out to
    ``radius``, its Clark pairing, and members in the paired Clark bases
    with one perturbed non-member each."""

    def __init__(self, m: int, n: int, radius: float):
        self.m, self.n, self.radius = m, n, radius
        rng = np.random.default_rng([SEED, m, n, round(1000 * radius)])
        alpha, beta = product(rng, m, radius), product(rng, n, radius)
        lam1, lam2 = instances.random_unimodular(rng), instances.random_unimodular(rng)
        self.pairing = pairing = ak.clark_pairing(alpha, beta, lam1, lam2)
        coeffs = (ak.clark_coefficient(alpha, lam1), ak.clark_coefficient(beta, lam2))
        ca, cb = ak.build_basis(alpha, "clark", lam1), ak.build_basis(beta, "clark", lam2)
        symbols = [instances.random_symbol(rng, alpha, beta) for _ in range(MATRICES)]
        self.members = [ak.atto_matrix(alpha, beta, s, ca, cb, method="closed") for s in symbols]
        self.others = [instances.perturbed_nonmember(rng, x, pairing) for x in self.members]
        # the zero-argument calls each layer times, one per matrix or symbol
        self.calls = {name: [functools.partial(test, x, pairing, coeffs)
                             for x in self.members + self.others]
                      for name, test in TESTS.items()}
        self.calls["membership.recover_witness"] = [
            functools.partial(ak.recover_chi_psi_clark, x, pairing) for x in self.members]
        if radius < 0.999:
            self.calls["operators.atto_matrix.quadrature"] = [
                functools.partial(ak.atto_matrix, alpha, beta, s, ca, cb) for s in symbols]
            self.calls["operators.atto_matrix.quadrature[fresh]"] = [
                functools.partial(fresh_quadrature, alpha, beta, s, ca, cb) for s in symbols]
        self.calls["modelspace.conjugation"] = [functools.partial(fresh_conj, alpha)]
        self.target = ak.mobius_target(alpha, lam1)
        self.calls["modelspace.boundary_solve[fresh]"] = [
            functools.partial(fresh_boundary_solve, alpha, self.target)]
        self.calls["modelspace.build_basis.clark[fresh]"] = [
            functools.partial(fresh_clark_basis, alpha, lam1)]
        self.calls["operators.tm_entries[clark]"] = [
            functools.partial(loaded_tm, x) for x in self.members]
        self.calls["operators.from_tm[clark]"] = [
            functools.partial(ak.OperatorMatrix.from_tm, x.tm_entries(), ca, cb)
            for x in self.members]
        self.calls["membership.match_clark_points"] = [
            functools.partial(built_pairing, pairing.clark_a, pairing.clark_b)]

    def accuracy(self) -> dict:
        """Each layer's accuracy numbers.  Calls every quadrature twice, so
        the pair's levels are stored before any is timed."""
        out = {}
        count = len(self.members)
        for name in TESTS:
            found = [residual(call) for call in self.calls[name]]
            out[name] = {"member_residual_max": max(r for r, _ in found[:count]),
                         "nonmember_residual_min": min(r for r, _ in found[count:]),
                         "member_refusals": sum(refused for _, refused in found[:count]),
                         "nonmember_refusals": sum(refused for _, refused in found[count:])}
        out["membership.recover_witness"] = {"identity_defect_max": max(
            witness_defect(x, self.pairing, *call()) for x, call
            in zip(self.members, self.calls["membership.recover_witness"]))}
        for name in ("operators.atto_matrix.quadrature", "operators.atto_matrix.quadrature[fresh]"):
            if name not in self.calls:
                continue
            nodes, gaps = [], []
            for x, call in zip(self.members, self.calls[name]):
                nodes.append(quadrature_nodes(call))
                gaps.append(rel_max(call().tm_entries() - x.tm_entries(), x.tm_entries()))
            out[name] = {"closed_distance_max": max(gaps), "nodes_max": max(nodes)}
        c = self.calls["modelspace.conjugation"][0]()
        out["modelspace.conjugation"] = {"involution_defect_max": float(
            np.abs(c @ np.conj(c) - np.eye(self.m)).max())}
        points = self.calls["modelspace.boundary_solve[fresh]"][0]()
        out["modelspace.boundary_solve[fresh]"] = {"residual_max": float(
            np.abs(ak.evaluate(self.members[0].alpha, points) - self.target).max())}
        basis = self.calls["modelspace.build_basis.clark[fresh]"][0]()
        defect = np.abs(basis.gram - np.eye(self.m))
        out["modelspace.build_basis.clark[fresh]"] = {
            "gram_defect_max": float(defect.max()),
            "gram_diag_defect_max": float(np.diag(defect).max()),
            "gram_offdiag_defect_max": float((defect - np.diag(np.diag(defect))).max())}
        out["operators.tm_entries[clark]"] = {"round_trip_max": max(
            rel_max(call() - x.tm_entries(), x.tm_entries())
            for x, call in zip(self.members, self.calls["operators.tm_entries[clark]"]))}
        out["operators.from_tm[clark]"] = {"round_trip_max": max(
            rel_max(ak.OperatorMatrix.from_tm(loaded_tm(x), x.in_basis, x.out_basis).entries
                    - x.entries, x.entries) for x in self.members)}
        if self.m <= ROUND_TRIP_DEGREES:
            medians = round_trip_medians(self.m, self.n, self.radius)
            for name, median in zip(("operators.tm_entries[clark]", "operators.from_tm[clark]"),
                                    medians):
                out[name].update(round_trip_median=median, round_trip_draws=ROUND_TRIP_DRAWS)
        out["membership.match_clark_points"] = {
            "min_separation": self.calls["membership.match_clark_points"][0]().min_separation}
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, help="write BENCH_<pr>.json at the repository root")
    parser.add_argument("--out", help="write here instead; '-' prints to stdout")
    parser.add_argument("--degrees", type=int, nargs="+", default=list(DEGREES))
    args = parser.parse_args(argv)
    if args.out is None and args.pr is None:
        parser.error("give --pr or --out")

    reference = SpeedReference()
    reference.work()                            # warm-up, not a sample
    rows = [Row(m, n, radius) for d in args.degrees
            for m, n in ((d, d), (d, max(1, d // 2))) for radius in RADII]
    accuracy = [row.accuracy() for row in rows]
    # Each round times every row once, so that a phase of the machine, which
    # can last seconds, slows a share of every row's calls rather than all
    # the calls of a few rows.
    times = [{name: [] for name in row.calls} for row in rows]
    for _ in range(ROUNDS):
        reference.sample()
        for row, spent in zip(rows, times):
            for name, calls in row.calls.items():
                for call in calls:
                    spent[name] += cpu_us(call, REPEATS)
    reference.sample()
    median_s = statistics.median(reference.samples)
    out = {"pr": args.pr, "seed": SEED, "rounds": ROUNDS, "repeats": REPEATS,
           "matrices": MATRICES, "unit": "cpu_us",
           "environment": environment(SEED),
           "speed_reference": {"samples": len(reference.samples), "median_s": median_s,
                               "nominal_s": NOMINAL_S, "scale": NOMINAL_S / median_s},
           "rows": [{"m": row.m, "n": row.n, "radius": row.radius,
                     "shared": row.pairing.shared,
                     "layers": {name: {"cpu_us": statistics.median(spent[name]), **acc[name]}
                                for name in row.calls}}
                    for row, acc, spent in zip(rows, accuracy, times)]}
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        path = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
        path.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the layer table they call through.

Every call into attokit that a request makes goes through a ``Layers``
object.  Untraced, its attributes are the library functions themselves;
traced, each is wrapped in a span named ``<layer>.<operation>``.  Checks
against ground truth run after the timed part of a request and call the
library directly, so they are neither timed nor traced.

A request draws its random inputs from ``numpy.random.default_rng([seed,
index])``: the same seed and request index always give the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import partial

import numpy as np

import attokit as ak
from attokit import cli, instances, serialize
from attokit.membership import (METHOD_CLARK, METHOD_CONJUGATE,
                                METHOD_RESIDUAL, METHOD_SHIFT)

from harness import TYPED_ERRORS, Tally

TOL = ak.DEFAULT                # the library's tolerances, used as they are

# Set-up is repeated with fresh inputs: repetition r draws from stream
# SETUP_STREAM + r and warms up on requests WARM_STREAM + r * cycle + k,
# apart from the timed requests 0, 1, 2, ...  Repetition 0 makes the inputs
# of the timed loop.
SETUP_STREAM = 1 << 20
WARM_STREAM = 1 << 21


def _in_bases(matrix, in_basis, out_basis):
    return matrix.in_bases(in_basis, out_basis)


def _evaluate(f, w):
    return f(w)


def _roundtrip(matrix):
    text = serialize.dumps(matrix.to_json())
    return text, ak.OperatorMatrix.from_json(json.loads(text))


def _selftest(seed: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["selftest", "--seed", str(seed)])
    return code, buf.getvalue().encode()


# attribute -> (span name, library call)
TABLE = {
    "clark_points": ("blaschke.clark_points", ak.clark_points),
    "build_basis": ("modelspace.build_basis", ak.build_basis),
    "kernel": ("modelspace.kernel", ak.kernel),
    "conj_kernel": ("modelspace.conj_kernel", ak.conj_kernel),
    "conjugation": ("modelspace.conjugation", ak.conjugation),
    "change_of_basis": ("modelspace.change_of_basis", ak.change_of_basis),
    "inner_product": ("modelspace.inner_product", ak.inner_product),
    "evaluate": ("modelspace.evaluate", _evaluate),
    "atto_quadrature": ("operators.atto_matrix.quadrature",
                        partial(ak.atto_matrix, method="quadrature")),
    "atto_closed": ("operators.atto_matrix.closed",
                    partial(ak.atto_matrix, method="closed")),
    "compressed_shift": ("operators.compressed_shift", ak.compressed_shift),
    "clark_unitary": ("operators.clark_unitary", ak.clark_unitary),
    "clark_coefficient": ("operators.clark_coefficient", ak.clark_coefficient),
    "in_bases": ("operators.in_bases", _in_bases),
    "standard_rank_one": ("operators.standard_rank_one", ak.standard_rank_one),
    "clark_pairing": ("membership.clark_pairing", ak.clark_pairing),
    "run_all": ("membership.run_all", ak.run_all),
    "clark_recurrence": ("membership.clark_recurrence", ak.test_clark_recurrence),
    "rank_two_residual": ("membership.rank_two_residual", ak.test_rank_two_residual),
    "conjugate_residual": ("membership.conjugate_residual", ak.test_conjugate_residual),
    "shift_invariance": ("membership.shift_invariance", ak.test_shift_invariance),
    "recover_witness": ("membership.recover_witness", ak.recover_chi_psi_clark),
    "decompose": ("rankone.decompose", ak.decompose_rank_one),
    "classify_vector": ("rankone.classify_vector", ak.classify_vector),
    "example_4_1": ("rankone.example_4_1", ak.example_4_1),
    "shared_clark_instance": ("instances.shared_clark_instance",
                              instances.shared_clark_instance),
    "random_blaschke": ("instances.random_blaschke", instances.random_blaschke),
    "random_unimodular": ("instances.random_unimodular", instances.random_unimodular),
    "random_symbol": ("instances.random_symbol", instances.random_symbol),
    "random_vector": ("instances.random_vector", instances.random_vector),
    "perturbed_nonmember": ("instances.perturbed_nonmember",
                            instances.perturbed_nonmember),
    "roundtrip": ("serialize.roundtrip", _roundtrip),
    "selftest": ("cli.selftest", _selftest),
}


class Layers:
    """The library calls of the workloads, optionally wrapped in spans."""

    def __init__(self, recorder=None):
        self.traced = recorder is not None
        for attr, (name, fn) in TABLE.items():
            setattr(self, attr, recorder.wrap(name, fn) if self.traced else fn)
        if self.traced:
            # one span per membership test instead of one for the whole harness
            self.run_all = recorder.wrap("membership.run_all", self._run_all_split)

    def _run_all_split(self, matrix, pairing=None):
        """attokit.run_all with default arguments, test by test: the same
        calls in the same order under the same unanimity rule."""
        if pairing is None and matrix.in_basis.kind == "clark" == matrix.out_basis.kind:
            raise ValueError("pass the Clark pairing explicitly")
        verdicts = {}
        residual_pairs = ((0j, 0j),)
        if pairing is not None:
            lam_a, lam_b = pairing.clark_a.lam, pairing.clark_b.lam
            clark_matrix = self.in_bases(matrix,
                                         self.build_basis(matrix.alpha, "clark", lam_a),
                                         self.build_basis(matrix.beta, "clark", lam_b))
            verdicts[METHOD_CLARK] = self.clark_recurrence(clark_matrix, pairing)
            residual_pairs += ((self.clark_coefficient(matrix.alpha, lam_a),
                                self.clark_coefficient(matrix.beta, lam_b)),)
        for idx, (a, b) in enumerate(residual_pairs):
            name = METHOD_RESIDUAL if idx == 0 else f"{METHOD_RESIDUAL}[{idx}]"
            verdicts[name] = self.rank_two_residual(matrix, a, b)
        verdicts[METHOD_CONJUGATE] = self.conjugate_residual(matrix)
        verdicts[METHOD_SHIFT] = self.shift_invariance(matrix)
        answers = {v.is_member for v in verdicts.values()}
        if len(answers) != 1:
            raise ak.MethodDisagreement(verdicts)
        return {"member": answers.pop(), "methods": verdicts}


def request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _rel_max(diff, ref) -> float:
    return float(np.max(np.abs(diff)) / (1.0 + np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_clark(tally: Tally, space, point_set) -> None:
    resid = float(np.max(np.abs(ak.evaluate(space, point_set.points) - point_set.target)))
    tally.defect("boundary", resid)
    tally.high("blaschke.boundary_residual_max", resid)


def check_separation(tally: Tally, pairing) -> None:
    """Smallest distance between Clark points of the two spaces, matched
    shared points aside."""
    gap = np.abs(pairing.eta[None, :] - pairing.zeta[:, None])
    for s in range(min(pairing.shared, *gap.shape)):
        gap[s, s] = np.inf                     # matched shared points
    tally.low("blaschke.clark_separation_min", float(np.min(gap)))


def check_verdicts(tally: Tally, result: dict, expect_member: bool) -> bool:
    ok = result["member"] == expect_member
    for verdict in result["methods"].values():
        ok = tally.verdict(verdict.is_member, verdict.max_residual, expect_member) and ok
    return ok


def check_witness(tally: Tally, member, pairing, chi, psi) -> bool:
    """The recovered witness must reproduce the Clark residual
    D = A - U_beta A U_alpha* = psi (x) k_0 + k_0 (x) chi, in TM coordinates."""
    u_a = ak.clark_unitary(member.alpha, pairing.clark_a.lam).entries
    u_b = ak.clark_unitary(member.beta, pairing.clark_b.lam).entries
    tm = member.tm_entries()
    d = tm - u_b @ tm @ u_a.conj().T
    k0a = ak.kernel(member.alpha, 0.0).tm()
    k0b = ak.kernel(member.beta, 0.0).tm()
    rebuilt = np.outer(psi.tm(), k0a.conj()) + np.outer(k0b, chi.tm().conj())
    defect = _rel_max(d - rebuilt, d)
    tally.defect("witness", defect)
    return tally.gate(defect <= TOL.reject_band,
                      f"witness does not reproduce its member: defect {defect:.3e}")


FRONT_DRIFT = 1e-15             # BlaschkeProduct renormalises its front on load


def same_space(a, b) -> bool:
    return a.zeros == b.zeros and abs(a.front - b.front) <= FRONT_DRIFT


def same_basis(a, b) -> bool:
    return a.kind == b.kind and a.lam == b.lam and same_space(a.space, b.space)


def check_involution(tally: Tally, f, ccf) -> None:
    defect = float(np.linalg.norm(ccf.tm() - f.tm()) / f.norm())
    tally.defect("involution", defect)
    tally.high("modelspace.conjugation.involution_defect_max", defect)


W_ERROR_GATE = 1e-6


def check_w(tally: Tally, w_found, w_true, what: str) -> bool:
    err = abs(complex(w_found) - complex(w_true))
    tally.defect("w_error", err)
    tally.high("rankone.w_error_max", err)
    return tally.gate(err <= W_ERROR_GATE, f"{what}: w error {err:.3e}")


class Workload:
    name = ""
    cycle = 1                   # period of the request kinds, in requests
    # Requests per second of run that every run completes, on a slow phase
    # of the machine too; see counted().
    floor_rate = 1.0

    def counted(self, seconds: float) -> int:
        """The length of the prefix of the request stream that a run always
        completes, running past ``seconds`` if it must: whole cycles, at
        least one.  The result line's ``attempted`` and ``failed`` count
        this prefix, so one seed reports the same counts on every run."""
        return self.cycle * max(1, int(seconds * self.floor_rate / self.cycle))

    def setup(self, lay: Layers, seed: int, rep: int):
        return {"seed": seed}

    def warm(self, lay: Layers, state, rep: int) -> int:
        """One request of each kind, on inputs the timed loop never sees;
        returns how many of them failed."""
        failed = 0
        for k in range(self.cycle):
            try:
                self.request(lay, state, WARM_STREAM + rep * self.cycle + k, {})
            except Exception:  # warm-up is not measured; failures are reported
                failed += 1
        return failed

    def check_setup(self, tally: Tally, state) -> None:
        """Checks of inputs built in set-up."""

    def check_verdicts(self, tally: Tally, out: dict) -> bool:
        """Verdicts against ground truth.  Runs also on the part of a request
        that finished before a later step raised, so no verdict escapes."""
        ok = True
        if "member_result" in out:
            ok = check_verdicts(tally, out["member_result"], True)
        if "nonmember_result" in out:
            ok = check_verdicts(tally, out["nonmember_result"], False) and ok
        return ok

    def finish(self, lay: Layers, tally: Tally, state) -> None:
        """Work after the timed loop, outside the timing."""


# ---------------------------------------------------------------------------
# small-fresh
# ---------------------------------------------------------------------------

class SmallFresh(Workload):
    """A new product pair per request at degrees 1-6, through every layer."""

    name = "small-fresh"
    cycle = 4                   # every fourth request is the degree-(3, 1) example
    floor_rate = 8.0
    # The other requests take (m, n) from this list by request index, so every
    # seed sends the same mix of degrees and only the zeros are random.  4 and
    # 25 are coprime: each 100 requests hold every pair three times.
    pairs = tuple((m, n) for m in range(2, 7) for n in range(2, 7))

    def request(self, lay: Layers, state, index: int, out: dict) -> None:
        rng = request_rng(state["seed"], index)
        if index % self.cycle == self.cycle - 1:
            a = lay.random_unimodular(rng) * (0.2 + 0.6 * rng.random())
            alpha, beta, rank1 = lay.example_4_1(a)
            lam1 = lam2 = 1.0 + 0j
            out["example"] = rank1
        else:
            m, n = self.pairs[index % len(self.pairs)]
            shared = int(rng.integers(0, min(m, n) + 1))
            alpha, beta, lam1, lam2 = lay.shared_clark_instance(rng, m, n, shared)
            symbol = lay.random_symbol(rng, alpha, beta)
        out.update(alpha=alpha, beta=beta)
        out["clark"] = (lay.clark_points(alpha, lam1), lay.clark_points(beta, lam2))
        pairing = out["pairing"] = lay.clark_pairing(alpha, beta, lam1, lam2)
        bases = out["bases"] = {}
        for tag, space, lam in (("a", alpha, lam1), ("b", beta, lam2)):
            for kind in ("tm", "kernel-zeros", "clark", "modified-clark"):
                bases[tag, kind] = lay.build_basis(space, kind, lam)
        ca, cb = bases["a", "clark"], bases["b", "clark"]
        ta, tb = bases["a", "tm"], bases["b", "tm"]

        f = out["f"] = lay.random_vector(rng, ta)
        w = out["w"] = 0.7 * np.sqrt(rng.random()) * lay.random_unimodular(rng)
        kw = out["kw"] = lay.kernel(alpha, w)
        out["inner"] = lay.inner_product(f, kw)
        out["kw_norm2"] = lay.inner_product(kw, kw)
        out["fw"] = lay.evaluate(f, w)
        out["conj_kernel"] = lay.conj_kernel(alpha, w)
        out["ccf"] = lay.conjugation(lay.conjugation(f))

        if "example" in out:
            member = lay.in_bases(out["example"], ca, cb)
        else:
            member = lay.atto_quadrature(alpha, beta, symbol, ca, cb)
            out["closed"] = lay.atto_closed(alpha, beta, symbol, ca, cb)
        out["member"] = member
        out["member_result"] = lay.run_all(member, pairing)
        chi, psi = lay.recover_witness(member, pairing)
        out["witness"] = (ak.tm_vector(alpha, lay.change_of_basis(ca, ta) @ chi.coeffs),
                          ak.tm_vector(beta, lay.change_of_basis(cb, tb) @ psi.coeffs))
        if min(alpha.degree, beta.degree) >= 2:   # a line makes every matrix a member
            nonmember = lay.perturbed_nonmember(rng, member, pairing)
            out["nonmember_result"] = lay.run_all(nonmember, pairing)

        variant = ("conjk-kernel", "kernel-conjk")[int(rng.integers(2))]
        w1 = 0.7 * np.sqrt(rng.random()) * lay.random_unimodular(rng)
        out["rank_one"] = (variant, w1,
                           lay.decompose(lay.standard_rank_one(alpha, beta, w1, variant)))
        out["classified"] = lay.classify_vector(out["conj_kernel"], lam1)
        if "example" in out:
            out["example_decomposition"] = lay.decompose(out["example"])
        out["json"] = lay.roundtrip(member)

    def check(self, tally: Tally, out: dict) -> bool:
        alpha = out["alpha"]
        check_clark(tally, alpha, out["clark"][0])
        check_clark(tally, out["beta"], out["clark"][1])
        check_separation(tally, out["pairing"])
        for tag, space in (("a", alpha), ("b", out["beta"])):
            for kind in ("tm", "kernel-zeros", "clark", "modified-clark"):
                tally.high("modelspace.basis_cond_max",
                           float(np.linalg.cond(out["bases"][tag, kind].matrix)))
        f, w = out["f"], out["w"]
        # <f, k_w> = f(w), and for f = k_w the closed form (1 - |B(w)|^2) / (1 - |w|^2)
        norm2 = (1.0 - abs(ak.evaluate(alpha, w)) ** 2) / (1.0 - abs(w) ** 2)
        repro = max(abs(out["inner"] - out["fw"]) / (1.0 + f.norm()),
                    abs(out["kw_norm2"] - norm2) / (1.0 + norm2))
        tally.defect("reproducing", repro)
        tally.high("modelspace.reproducing_defect_max", repro)
        check_involution(tally, f, out["ccf"])
        member = out["member"]
        if "closed" in out:
            tally.high("operators.closed_vs_quadrature_max",
                       _rel_max(out["closed"].entries - member.entries, member.entries))
        ok = self.check_verdicts(tally, out)
        ok = check_witness(tally, member, out["pairing"], *out["witness"]) and ok
        variant, w1, dec = out["rank_one"]
        ok = tally.gate(dec.tag == "standard" and dec.variant == variant,
                        f"rank-one round trip: {dec.to_json()} expected {variant}") and ok
        ok = check_w(tally, dec.w, w1, "rank-one round trip") and ok
        cls = out["classified"]
        ok = tally.gate(cls.tag == "conj-kernel",
                        f"conjugate kernel classified as {cls.tag}") and ok
        ok = check_w(tally, cls.w, out["w"], "classify_vector") and ok
        if "example_decomposition" in out:
            tag = out["example_decomposition"].tag
            ok = tally.gate(tag == "nonstandard",
                            f"degree-(3, 1) example decomposed as {tag}") and ok
        text, back = out["json"]
        tally.high("serialize.roundtrip.bytes", len(text))
        ok = tally.gate(np.array_equal(back.entries, member.entries)
                        and same_basis(back.in_basis, member.in_basis)
                        and same_basis(back.out_basis, member.out_basis),
                        "OperatorMatrix JSON round trip changed the matrix") and ok
        return ok

    def finish(self, lay: Layers, tally: Tally, state) -> None:
        """The in-process `attokit selftest`, twice: exit code 0 and
        byte-identical output."""
        first = lay.selftest(state["seed"])
        second = lay.selftest(state["seed"])
        nonzero = sum(code != 0 for code, _ in (first, second))
        tally.high("cli.selftest.exit_nonzero", nonzero)
        tally.gate(nonzero == 0, f"selftest exit codes {first[0]}, {second[0]}")
        tally.gate(first[1] == second[1], "selftest output differs between reruns")


# ---------------------------------------------------------------------------
# decide-shared
# ---------------------------------------------------------------------------

class DecideShared(Workload):
    """A few fixed space pairs at degrees 12-24, a fresh symbol per request."""

    name = "decide-shared"
    # Each (m, n) twice: the cost of a request depends on the zeros a seed
    # draws, and sixteen pairs average that over more draws than eight.
    degrees = ((12, 16), (16, 12), (16, 16), (20, 24), (24, 20), (24, 24), (12, 24), (24, 12)) * 2
    cycle = len(degrees)        # warm-up runs one request per pair, filling its caches
    floor_rate = 4.0

    def setup(self, lay: Layers, seed: int, rep: int):
        rng = request_rng(seed, SETUP_STREAM + rep)
        pool = []
        for m, n in self.degrees:
            alpha = lay.random_blaschke(rng, m)
            beta = lay.random_blaschke(rng, n)
            lam1, lam2 = lay.random_unimodular(rng), lay.random_unimodular(rng)
            pairing = lay.clark_pairing(alpha, beta, lam1, lam2)
            pool.append((alpha, beta, pairing,
                         lay.build_basis(alpha, "clark", lam1),
                         lay.build_basis(beta, "clark", lam2)))
        return {"seed": seed, "pool": pool}

    def check_setup(self, tally: Tally, state) -> None:
        for alpha, beta, pairing, _, _ in state["pool"]:
            check_clark(tally, alpha, pairing.clark_a)
            check_clark(tally, beta, pairing.clark_b)
            check_separation(tally, pairing)

    def request(self, lay: Layers, state, index: int, out: dict) -> None:
        rng = request_rng(state["seed"], index)
        alpha, beta, pairing, ca, cb = state["pool"][index % self.cycle]
        symbol = lay.random_symbol(rng, alpha, beta)
        member = out["member"] = lay.atto_quadrature(alpha, beta, symbol, ca, cb)
        out["pairing"] = pairing
        # A typed refusal of the member does not end the request: the witness
        # and the non-member still run, and the first refusal is raised at
        # the end.  Every request then does the same work, and the time
        # metrics do not fall as a seed's spaces draw more refusals.
        refusal = None
        try:
            out["member_result"] = lay.run_all(member, pairing)
        except Exception as exc:  # re-raised below, or now if not a typed refusal
            if type(exc).__name__ not in TYPED_ERRORS:
                raise
            refusal = exc
        out["witness"] = lay.recover_witness(member, pairing)
        nonmember = lay.perturbed_nonmember(rng, member, pairing)
        try:
            out["nonmember_result"] = lay.run_all(nonmember, pairing)
        except Exception as exc:  # the member's refusal, if any, is the one counted
            if refusal is None or type(exc).__name__ not in TYPED_ERRORS:
                raise
        if refusal is not None:
            raise refusal

    def check(self, tally: Tally, out: dict) -> bool:
        ok = self.check_verdicts(tally, out)
        return check_witness(tally, out["member"], out["pairing"], *out["witness"]) and ok


# ---------------------------------------------------------------------------
# high-degree
# ---------------------------------------------------------------------------

def widest_at(product, radius: float):
    """The product with its outermost zero moved out to modulus ``radius``."""
    zeros = list(product.zeros)
    k = int(np.argmax(np.abs(zeros)))
    zeros[k] *= radius / abs(zeros[k])
    return ak.BlaschkeProduct(tuple(zeros), product.front)


class HighDegree(Workload):
    """A new product pair per request at degrees 40-64 with zeros up to
    |a| = 0.95, in TM bases."""

    name = "high-degree"
    # m * n nearly constant: requests cost about the same, so the latency
    # percentiles fall inside one cluster rather than between two
    degrees = ((64, 40), (40, 64), (52, 50), (50, 52))
    cycle = len(degrees)
    floor_rate = 0.95
    # The quadrature node count doubles when the outermost zero crosses about
    # |a| = 0.948.  Every product has one zero at 0.95, so every request needs
    # the same node count instead of 1024 or 2048 by chance.
    radius = 0.95

    def warm(self, lay: Layers, state, rep: int) -> int:
        """A single request: its products are new to every later request."""
        try:
            self.request(lay, state, WARM_STREAM + rep * self.cycle, {})
        except Exception:  # warm-up is not measured; failures are reported
            return 1
        return 0

    def request(self, lay: Layers, state, index: int, out: dict) -> None:
        rng = request_rng(state["seed"], index)
        m, n = self.degrees[index % self.cycle]
        alpha = widest_at(lay.random_blaschke(rng, m, radius=self.radius), self.radius)
        beta = widest_at(lay.random_blaschke(rng, n, radius=self.radius), self.radius)
        lam = lay.random_unimodular(rng)
        ta, tb = lay.build_basis(alpha, "tm"), lay.build_basis(beta, "tm")
        symbol = lay.random_symbol(rng, alpha, beta)
        out["member"] = lay.atto_quadrature(alpha, beta, symbol, ta, tb)
        out["closed"] = lay.atto_closed(alpha, beta, symbol, ta, tb)
        out["shift"] = lay.compressed_shift(alpha, ta)
        out["unitary"] = lay.clark_unitary(alpha, lam, ta)
        f = out["f"] = lay.random_vector(rng, ta)
        out["ccf"] = lay.conjugation(lay.conjugation(f))
        out["member_result"] = lay.run_all(out["member"])

    def check(self, tally: Tally, out: dict) -> bool:
        member = out["member"]
        tally.high("operators.closed_vs_quadrature_max",
                   _rel_max(out["closed"].entries - member.entries, member.entries))
        u = out["unitary"].entries
        eye = np.eye(len(u))
        unitarity = float(np.max(np.abs(u.conj().T @ u - eye)))
        # I - S S* = k_0 (x) k_0 for the compressed shift S
        s = out["shift"].entries
        k0 = ak.kernel(member.alpha, 0.0).tm()
        shift = float(np.max(np.abs(eye - s @ s.conj().T - np.outer(k0, k0.conj()))))
        tally.defect("unitarity", max(unitarity, shift))
        tally.high("operators.clark_unitary.unitarity_defect_max", unitarity)
        check_involution(tally, out["f"], out["ccf"])
        return self.check_verdicts(tally, out)


WORKLOADS = {w.name: w for w in (SmallFresh(), DecideShared(), HighDegree())}

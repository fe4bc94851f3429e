"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line so the gate can be read off a plain
pytest -s run.  Everything is seeded and deterministic.
"""

import contextlib
import json
import subprocess
import sys

import numpy as np
import pytest

from attokit import clark_points
from attokit.blaschke import evaluate, monomial
from attokit.instances import (generic_clark_instance, member_matrix,
                               perturbed_nonmember, random_blaschke,
                               random_symbol, random_unimodular,
                               random_vector, shared_clark_instance)
from attokit.membership import clark_pairing, recover_chi_psi_clark, run_all
from attokit.membership import test_clark_recurrence as check_recurrence
from attokit.membership import test_conjugate_residual as check_conjugate
from attokit.membership import test_rank_two_residual as check_residual
from attokit.membership import test_shift_invariance as check_shift
from attokit.modelspace import (ModelVector, build_basis, conj_kernel,
                                conjugation, inner_product, kernel, tm_vector)
from attokit.operators import (OperatorMatrix, RationalSymbol, SymbolSpec,
                               atto_matrix, clark_coefficient, clark_unitary,
                               conjugate_operator, standard_rank_one,
                               symbol_span_dimension)
from attokit.rankone import (classify_vector, decompose_rank_one, example_4_1,
                             example_4_1_candidates)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_clark_machinery():
    with criterion(1, "Clark points, bases and unitaries on 50 random products"):
        rng = np.random.default_rng(101)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            b = random_blaschke(rng, m)
            lam = random_unimodular(rng)
            cp = clark_points(b, lam)
            assert cp.size == m
            assert np.max(np.abs(np.abs(cp.points) - 1.0)) <= 1e-12
            assert np.max(np.abs(evaluate(b, cp.points) - cp.target)) <= 1e-10
            sep = np.abs(cp.points[:, None] - cp.points[None, :]) + np.eye(m)
            assert np.min(sep) > 1e-8
            basis = build_basis(b, "clark", lam)
            assert np.max(np.abs(basis.gram - np.eye(m))) <= 1e-10
            u = clark_unitary(b, lam).entries
            assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= 1e-9
            for j, eta in enumerate(cp.points):
                v = basis.matrix[:, j]
                assert np.linalg.norm(u @ v - eta * v) <= 1e-8


def test_criterion_2_kernel_identities():
    with criterion(2, "reproducing property, boundary norms, boundary identity"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 7)))
            f = random_vector(rng, build_basis(b, "tm"))
            w = np.sqrt(rng.random()) * random_unimodular(rng)
            assert abs(inner_product(f, kernel(b, w)) - f(w)) <= 1e-9 * (1 + f.norm())
        for _ in range(25):
            b = random_blaschke(rng, int(rng.integers(1, 7)))
            cp = clark_points(b, random_unimodular(rng))
            for eta, wt in zip(cp.points, cp.weights):
                k = kernel(b, eta)
                assert abs(inner_product(k, k) - wt) <= 1e-8 * wt
        for _ in range(5):
            b = random_blaschke(rng, int(rng.integers(1, 7)))
            for _ in range(20):
                w = random_unimodular(rng)
                kw = kernel(b, w).tm()
                ktw = conj_kernel(b, w).tm()
                defect = np.linalg.norm(kw - np.conj(evaluate(b, w)) * w * ktw)
                assert defect <= 1e-9 * np.linalg.norm(kw)


def test_criterion_3_conjugation():
    with criterion(3, "conjugation axioms, fixed modified Clark basis, symbol transform"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            basis = build_basis(b, "tm")
            f, g = random_vector(rng, basis), random_vector(rng, basis)
            ca = complex(rng.standard_normal() + 1j * rng.standard_normal())
            cbv = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert (conjugation(conjugation(f)) - f).norm() <= 1e-9 * (1 + f.norm())
            lhs = conjugation(ca * f + cbv * g)
            rhs = np.conj(ca) * conjugation(f) + np.conj(cbv) * conjugation(g)
            assert (lhs - rhs).norm() <= 1e-9 * (1 + lhs.norm())
            pair = inner_product(conjugation(f), conjugation(g)) - inner_product(g, f)
            assert abs(pair) <= 1e-9 * (1 + f.norm() * g.norm())
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            basis = build_basis(b, "modified-clark", random_unimodular(rng))
            for j in range(b.degree):
                e = ModelVector(basis, np.eye(b.degree)[j])
                assert (conjugation(e) - e).norm() <= 1e-9
        for _ in range(20):
            alpha = random_blaschke(rng, int(rng.integers(2, 4)))
            beta = random_blaschke(rng, int(rng.integers(2, 4)))
            sym = random_symbol(rng, alpha, beta)
            lhs = conjugate_operator(atto_matrix(alpha, beta, sym)).entries

            def transformed(z, _a=alpha, _b=beta, _s=sym):
                return np.conj(evaluate(_a, z) * _s.values(z)) * evaluate(_b, z)

            rhs = atto_matrix(alpha, beta, SymbolSpec(raw=transformed)).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


def test_criterion_4_toeplitz_sanity():
    with criterion(4, "constant diagonals for monomial products"):
        rng = np.random.default_rng(104)
        for n in range(2, 7):
            b = monomial(n)
            coeffs = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            mat = atto_matrix(b, b, SymbolSpec(raw=RationalSymbol(coeffs))).entries
            for k in range(-(n - 1), n):
                diag = np.diagonal(mat, offset=k)
                assert np.max(np.abs(diag - diag[0])) <= 1e-10


MEMBERSHIP_CONFIGS = [
    (3, 2, 0), (3, 2, 1), (3, 2, 2),
    (2, 3, 0), (2, 3, 1), (2, 3, 2),
    (4, 3, 0), (4, 3, 1), (4, 3, 3),
    (3, 3, 0), (3, 3, 2), (3, 3, 3),
]


def _battery(mat, pairing, ab_pairs, tol_kw=None):
    verdicts = [check_recurrence(mat, pairing)]
    verdicts += [check_residual(mat, a, b) for a, b in ab_pairs]
    verdicts.append(check_conjugate(mat))
    verdicts.append(check_shift(mat))
    return verdicts


def test_criterion_5_membership_equivalence():
    with criterion(5, "200 members and 200 non-members, all methods agreeing"):
        rng = np.random.default_rng(105)
        members = nonmembers = 0
        per_config = 17
        for (m, n, l) in MEMBERSHIP_CONFIGS:
            if l == 0:
                alpha, beta, lam1, lam2 = generic_clark_instance(rng, m, n)
            else:
                alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, l)
            pairing = clark_pairing(alpha, beta, lam1, lam2)
            assert pairing.shared == l
            a1 = clark_coefficient(alpha, lam1)
            b1 = clark_coefficient(beta, lam2)
            for _ in range(per_config):
                ab_pairs = [(0j, 0j), (a1, b1)] + [
                    (complex(rng.standard_normal() + 1j * rng.standard_normal()),
                     complex(rng.standard_normal() + 1j * rng.standard_normal()))
                    for _ in range(3)]
                mat = member_matrix(rng, alpha, beta, lam1, lam2)
                verdicts = _battery(mat, pairing, ab_pairs)
                assert all(v.is_member for v in verdicts)
                assert max(v.max_residual for v in verdicts) <= 1e-8
                members += 1
                bad = perturbed_nonmember(rng, mat, pairing, delta=1e-2)
                verdicts = _battery(bad, pairing, ab_pairs)
                assert not any(v.is_member for v in verdicts)
                assert min(v.max_residual for v in verdicts) >= 1e-4
                nonmembers += 1
        assert members >= 200 and nonmembers >= 200


def test_criterion_6_witness_recovery():
    with criterion(6, "witness reconstruction for 50 members, two free parameters"):
        rng = np.random.default_rng(106)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            l = int(rng.integers(0, min(m, n) + 1))
            alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, l)
            pairing = clark_pairing(alpha, beta, lam1, lam2)
            mat = member_matrix(rng, alpha, beta, lam1, lam2)
            ua = clark_unitary(alpha, lam1).entries
            ub = clark_unitary(beta, lam2).entries
            mtm = mat.tm_entries()
            d = mtm - ub @ mtm @ ua.conj().T
            k0a = kernel(alpha, 0.0).tm()
            k0b = kernel(beta, 0.0).tm()
            for psi1 in (0.0, 0.4 - 0.7j):
                chi, psi = recover_chi_psi_clark(mat, pairing, psi1=psi1)
                rec = np.outer(psi.tm(), np.conj(k0a)) + np.outer(k0b, np.conj(chi.tm()))
                assert np.max(np.abs(d - rec)) <= 1e-8 * (1 + np.max(np.abs(d)))


def test_criterion_7_dimension():
    with criterion(7, "span dimension m+n-1; trivial class when one degree is 1"):
        rng = np.random.default_rng(107)
        for (m, n) in [(3, 2), (2, 3), (4, 3), (3, 3)]:
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            rank, svals = symbol_span_dimension(alpha, beta)
            assert rank == m + n - 1
            assert svals[rank - 1] / svals[rank] >= 1e6
        alpha = random_blaschke(rng, 1)
        beta = random_blaschke(rng, 4)
        rank, _ = symbol_span_dimension(alpha, beta)
        assert rank == 4 == alpha.degree * beta.degree
        pairing = clark_pairing(alpha, beta, 1.0, 1.0)
        for _ in range(50):
            entries = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            mat = OperatorMatrix(entries, build_basis(alpha, "tm"),
                                 build_basis(beta, "tm"))
            assert run_all(mat, pairing)["member"]


def test_criterion_8_rank_one_suite():
    with criterion(8, "rank-one round trips, classification dichotomy, counterexample"):
        rng = np.random.default_rng(108)
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        for _ in range(200):
            w = 0.95 * np.sqrt(rng.random()) * random_unimodular(rng)
            variant = "conjk-kernel" if rng.random() < 0.5 else "kernel-conjk"
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            while abs(c) < 1e-3:
                c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            dec = decompose_rank_one(c * standard_rank_one(alpha, beta, w, variant))
            assert dec.tag == "standard" and dec.variant == variant
            assert abs(dec.w - w) <= 1e-7
        for _ in range(500):
            b = random_blaschke(rng, int(rng.integers(1, 3)))
            f = random_vector(rng, build_basis(b, "tm"))
            assert classify_vector(f, 1.0).tag in ("kernel", "conj-kernel")
        b3 = random_blaschke(rng, 3)
        witness = ModelVector(build_basis(b3, "clark", 1.0), np.array([1.0, 1.0, 0.0]))
        assert classify_vector(witness, 1.0).tag == "neither"
        for a in (0.5, 0.3 + 0.2j):
            ea, eb, mat = example_4_1(a)
            pairing = clark_pairing(ea, eb, 1.0, 1.0)
            assert run_all(mat, pairing)["member"]
            assert decompose_rank_one(mat).tag == "nonstandard"
        cands = example_4_1_candidates(0.5)
        assert abs(cands["kernel"][0] - 2.0 / 7.0) <= 1e-12
        assert abs(cands["kernel"][1] - 2.0 / 9.0) <= 1e-12
        for (m, n) in [(3, 2), (2, 2)]:
            sa, sb, *_ = shared_clark_instance(rng, m, n, 0)
            for _ in range(250):
                w = 0.95 * np.sqrt(rng.random()) * random_unimodular(rng)
                variant = "conjk-kernel" if rng.random() < 0.5 else "kernel-conjk"
                c = complex(rng.standard_normal() + 1j * rng.standard_normal())
                while abs(c) < 1e-3:
                    c = complex(rng.standard_normal() + 1j * rng.standard_normal())
                dec = decompose_rank_one(c * standard_rank_one(sa, sb, w, variant))
                assert dec.tag == "standard"


def test_criterion_9_selftest_determinism():
    with criterion(9, "byte-identical selftest reruns at seed 42"):
        cmd = [sys.executable, "-m", "attokit.cli", "selftest", "--seed", "42",
               "--trials", "200"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["membership_agreement"] is True

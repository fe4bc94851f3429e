import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from attokit import clark_points, membership
from attokit.blaschke import BlaschkeProduct, ClarkPointSet, evaluate, monomial
from attokit.config import DEFAULT
from attokit.instances import (blaschke_through_points, constrained_entries,
                               lambda_for_target, member_matrix,
                               perturbed_nonmember, random_blaschke,
                               random_symbol, random_unimodular,
                               shared_clark_instance)
from attokit.membership import (METHOD_CLARK, METHOD_CONJUGATE,
                                METHOD_RESIDUAL, METHOD_SHIFT,
                                ClarkDissent, IndeterminateError,
                                MembershipVerdict, MethodDisagreement,
                                clark_pairing, match_clark_points,
                                recover_chi_psi_clark, run_all,
                                shift_domain_basis)
from attokit.membership import test_clark_recurrence as check_recurrence
from attokit.membership import test_conjugate_residual as check_conjugate
from attokit.membership import test_rank_two_residual as check_residual
from attokit.membership import test_shift_invariance as check_shift
from attokit.modelspace import (ModelVector, build_basis, clark_basis, conj_kernel,
                                inner_product, kernel, multiply_by_z, tm_vector)
from attokit.operators import (OperatorMatrix, SymbolSpec, atto_matrix,
                               clark_coefficient, clark_unitary,
                               compressed_shift, rank_one)


def nearly_free_bump(rng):
    """(pairing, member, bumped): a Clark-basis member of two degree-3
    spaces with one unshared cross pair of Clark points 3e-5 apart (above
    tol.match, so no breakdown), and the member with a 1e-3 bump on that
    pair's entry, whose weight is about 3e-5.  The bump moves w r by about
    3e-8, but the Clark residual in entry units by the full 1e-3."""
    pts_a = np.exp(1j * np.array([0.3, 1.2, 2.2]))
    pts_b = np.exp(1j * np.array([0.7, 1.2 + 3e-5, 2.7]))
    alpha = blaschke_through_points(pts_a, 1.0)
    beta = blaschke_through_points(pts_b, 1.0)
    lam1, lam2 = lambda_for_target(alpha, 1.0), lambda_for_target(beta, 1.0)
    pairing = clark_pairing(alpha, beta, lam1, lam2)
    assert pairing.shared == 0
    gap = np.abs(pairing.eta[None, :] - pairing.zeta[:, None])
    s, p = np.unravel_index(np.argmin(gap), gap.shape)
    assert DEFAULT.match < gap[s, p] < 1e-4
    assert (s, p) in constrained_entries(3, 3, 0)
    mat = member_matrix(rng, alpha, beta, lam1, lam2)
    bumped = mat.entries.copy()
    bumped[pairing.perm_b[s], pairing.perm_a[p]] += 1e-3 * (1.0 + mat.max_abs)
    return pairing, mat, OperatorMatrix(bumped, mat.in_basis, mat.out_basis)


def clark_member(rng, m, n, shared, seed_symbols=1):
    alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, shared)
    pairing = clark_pairing(alpha, beta, lam1, lam2)
    mat = member_matrix(rng, alpha, beta, lam1, lam2)
    return alpha, beta, lam1, lam2, pairing, mat


def loop_recurrence_rhs(r, pairing):
    """Entry-by-entry reference for the entries that test_clark_recurrence
    predicts from the first row and column of r (in the paired order), and
    the mask of the entries it decides on (collision check left out)."""
    eta, zeta = pairing.eta, pairing.zeta
    sqa = np.sqrt(pairing.clark_a.weights[pairing.perm_a])
    sqb = np.sqrt(pairing.clark_b.weights[pairing.perm_b])
    n, m = r.shape
    l = pairing.shared
    den = eta[None, :] - zeta[:, None]
    applicable = np.ones((n, m), dtype=bool)
    for s in range(min(l, m)):
        applicable[s, s] = False
    rhs = np.zeros((n, m), dtype=complex)
    for s in range(n):
        for p in range(m):
            if not applicable[s, p]:
                continue
            d = den[s, p]
            if l == 0 or s >= l:
                rhs[s, p] = (
                    (sqa[0] / sqa[p]) * (eta[p] / eta[0]) * (eta[0] - zeta[s]) / d * r[s, 0]
                    + (sqb[0] / sqb[s]) * (eta[p] - zeta[0]) / d * r[0, p])
                if l == 0:
                    rhs[s, p] += (sqa[0] * sqb[0] / (sqa[p] * sqb[s])) \
                        * (eta[p] / eta[0]) * (zeta[0] - eta[0]) / d * r[0, 0]
            else:
                rhs[s, p] = (
                    (sqa[s] * sqb[0] / (sqa[p] * sqb[s])) * (eta[p] / eta[s])
                    * (eta[0] - zeta[s]) / d * r[0, s]
                    + (sqb[0] / sqb[s]) * (eta[p] - zeta[0]) / d * r[0, p])
    return rhs, applicable


def loop_pairing(clark_a, clark_b, tol=DEFAULT):
    """The former point-by-point matching loop, with the formulas the
    pairing's constants were once read with, kept as a reference: every
    field of the pairing of ``clark_a`` and ``clark_b``, by name."""
    pa, pb = clark_a.points, clark_b.points
    dist = np.abs(pa[:, None] - pb[None, :])
    pairs = []
    for j in range(len(pa)):
        hits = np.nonzero(dist[j] <= tol.match)[0]
        if len(hits) > 1:
            raise ValueError(f"ambiguous Clark-point match for {pa[j]}: "
                             f"{len(hits)} candidates within {tol.match}")
        if len(hits) == 1:
            i = int(hits[0])
            if len(np.nonzero(dist[:, i] <= tol.match)[0]) > 1:
                raise ValueError(f"ambiguous Clark-point match for {pb[i]}")
            pairs.append((j, i))
    pairs.sort(key=lambda ji: np.angle(pa[ji[0]]) % (2.0 * np.pi))
    lead_a = [j for j, _ in pairs]
    lead_b = [i for _, i in pairs]
    perm_a = np.array(lead_a + [j for j in range(len(pa)) if j not in lead_a], dtype=int)
    perm_b = np.array(lead_b + [i for i in range(len(pb)) if i not in lead_b], dtype=int)
    shared = len(pairs)
    eta, zeta = pa[perm_a], pb[perm_b]
    sqa, sqb = np.sqrt(clark_a.weights[perm_a]), np.sqrt(clark_b.weights[perm_b])
    weight = (1.0 - np.conj(eta)[None, :] * zeta[:, None]) * (sqa[None, :] * sqb[:, None])
    free = np.zeros((len(perm_b), len(perm_a)), dtype=bool)
    free[np.arange(shared), np.arange(shared)] = True
    den = eta[None, :] - zeta[:, None]
    return {"clark_a": clark_a, "clark_b": clark_b, "shared": shared,
            "perm_a": perm_a, "perm_b": perm_b, "eta": eta, "zeta": zeta,
            "sqrt_weights_a": sqa, "sqrt_weights_b": sqb, "weight": weight, "free": free,
            "divisor": np.where(free, 1.0, weight),
            "min_separation": float(np.min(np.abs(den[~free]), initial=np.inf)),
            "paired_index": np.ix_(perm_b, perm_a),
            "inverse_perm_a": np.argsort(perm_a), "inverse_perm_b": np.argsort(perm_b)}


def same_bits(x, y) -> bool:
    """Whether x and y are equal bit for bit, with their types and dtypes."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(same_bits, x, y))
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes())
    return type(x) is type(y) and (x is y or x == y)


def polynomial_through_points(points, weights):
    """The former power-basis route to the zeros of blaschke_through_points,
    kept as a reference: G = 1 cleared of denominators, sum_j c_j (eta_j + z)
    prod_{i != j} (eta_i - z) = prod_j (eta_j - z), solved by the companion
    matrix of its coefficients (roots sorted)."""
    num = np.zeros(len(points) + 1, dtype=complex)
    den = np.array([1.0 + 0.0j])
    for j in range(len(points)):
        term = np.array([weights[j] * points[j], weights[j]], dtype=complex)
        for i in range(len(points)):
            if i != j:
                term = npoly.polymul(term, [points[i], -1.0])
        num += term
        den = npoly.polymul(den, [points[j], -1.0])
    return npoly.polyroots(npoly.polysub(num, den))


def jittered_grid(rng, count):
    return np.exp(2j * np.pi * (np.arange(count) + 0.4 * rng.random(count)) / count)


def projector_compression(mat, method, a=0j, b=0j):
    """Dense reference for the rank-two (or conjugate) residual: d compressed
    by the complement projectors of the kernels (conjugate kernels) at 0,
    relative to 1 + max|entry|."""
    m_tm = mat.tm_entries()
    sa, sb = mat.alpha.model_space.modified(a), mat.beta.model_space.modified(b)
    if method == METHOD_RESIDUAL:
        d = m_tm - sb @ m_tm @ sa.conj().T
        vec = kernel
    else:
        d = m_tm - sb.conj().T @ m_tm @ sa
        vec = conj_kernel

    def complement(space):
        v = vec(space, 0.0).tm()
        v = v / np.linalg.norm(v)
        return np.eye(len(v)) - np.outer(v, np.conj(v))

    return np.max(np.abs(complement(mat.beta) @ d @ complement(mat.alpha))) / (1.0 + mat.max_abs)


def loop_shift_residual(mat):
    """Pair-by-pair reference for the shift-invariance residual."""
    m_tm = mat.tm_entries()
    resid = 0.0
    for f in shift_domain_basis(mat.alpha):
        af = m_tm @ f.tm()
        azf = m_tm @ multiply_by_z(f).tm()
        for g in shift_domain_basis(mat.beta):
            zg = multiply_by_z(g).tm()
            resid = max(resid, abs(np.vdot(zg, azf) - np.vdot(g.tm(), af)))
    return resid / (1.0 + mat.max_abs)


class TestMatching:
    def test_roots_of_unity_intersection(self):
        ca = clark_points(monomial(2), 1.0)
        cb = clark_points(monomial(3), 1.0)
        pairing = match_clark_points(ca, cb)
        assert pairing.shared == 1
        assert pairing.eta[0] == pytest.approx(1.0)
        assert pairing.zeta[0] == pytest.approx(1.0)

    def test_identical_spaces_share_everything(self):
        ca = clark_points(monomial(2), 1.0)
        pairing = match_clark_points(ca, ca)
        assert pairing.shared == 2

    def test_different_parameters_share_nothing(self):
        ca = clark_points(monomial(2), 1.0)
        cb = clark_points(monomial(2), 1j)
        assert match_clark_points(ca, cb).shared == 0

    def test_engineered_share_counts(self, rng):
        for (m, n, l) in [(3, 2, 1), (3, 2, 2), (4, 3, 2), (3, 3, 3)]:
            alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, l)
            assert clark_pairing(alpha, beta, lam1, lam2).shared == l

    def test_shared_points_lead_in_both_orders(self, rng):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 4, 3, 2)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        assert np.max(np.abs(pairing.eta[:2] - pairing.zeta[:2])) <= DEFAULT.match


class TestClarkRecurrence:
    def test_member_passes_generic(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 2, 0)
        verdict = check_recurrence(mat, pairing)
        assert verdict.is_member and verdict.max_residual <= 1e-8

    def test_perturbed_entry_fails(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 2, 0)
        bad = perturbed_nonmember(rng, mat, pairing)
        verdict = check_recurrence(bad, pairing)
        assert not verdict.is_member
        assert verdict.max_residual >= 1e-4

    def test_bump_on_nearly_free_entry_is_rejected(self, rng):
        pairing, _, bumped = nearly_free_bump(rng)
        verdict = check_recurrence(bumped, pairing)
        assert not verdict.is_member
        assert verdict.max_residual >= DEFAULT.reject_band

    def test_symmetric_toeplitz_sanity(self):
        # alpha = beta = z^2, same parameter: compressed shift passes with l = 2
        b = monomial(2)
        pairing = clark_pairing(b, b, 1.0, 1.0)
        cb = build_basis(b, "clark", 1.0)
        mat = compressed_shift(b, cb)
        assert check_recurrence(mat, pairing).is_member

    def test_requires_clark_bases(self, rng):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        mat = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
        with pytest.raises(ValueError):
            check_recurrence(mat, pairing)

    def test_hand_built_point_sets_are_still_compared(self, rng):
        # the stored set is the pairing's own, so the point comparison is
        # skipped for it; a hand-built set is compared point by point
        *_, pairing, mat = clark_member(rng, 4, 3, 1)
        assert mat.in_basis.clark is pairing.clark_a and mat.out_basis.clark is pairing.clark_b
        cp = pairing.clark_a
        copy = ClarkPointSet(cp.lam, cp.target, cp.points.copy(), cp.weights.copy())
        same = match_clark_points(copy, pairing.clark_b)
        assert check_recurrence(mat, same).max_residual == \
            check_recurrence(mat, pairing).max_residual
        moved = copy.points.copy()
        moved[2] *= np.exp(1e-3j)
        bad = ClarkPointSet(cp.lam, cp.target, moved, cp.weights.copy())
        with pytest.raises(ValueError, match="disagree on the Clark points"):
            check_recurrence(mat, match_clark_points(bad, pairing.clark_b))
        with pytest.raises(ValueError, match="disagree on the Clark points"):
            recover_chi_psi_clark(mat, match_clark_points(bad, pairing.clark_b))

    @pytest.mark.parametrize("fn", [check_recurrence, recover_chi_psi_clark, run_all])
    def test_point_sets_of_another_size_are_refused(self, rng, fn):
        # a pairing of two other spaces at the matrix's own parameters, with
        # one more Clark point on each side
        *_, lam1, lam2, _, mat = clark_member(rng, 3, 2, 1)
        alpha, beta, *_ = shared_clark_instance(rng, 4, 3, 0)
        other = clark_pairing(alpha, beta, lam1, lam2)
        with pytest.raises(ValueError, match="^matrix basis and pairing disagree on the "
                                             "Clark points$"):
            fn(mat, other)

    def test_shared_instances(self, rng):
        for (m, n, l) in [(3, 2, 1), (3, 3, 2), (4, 3, 3)]:
            *_, pairing, mat = clark_member(rng, m, n, l)
            assert check_recurrence(mat, pairing).is_member
            bad = perturbed_nonmember(rng, mat, pairing)
            assert not check_recurrence(bad, pairing).is_member


    def test_broadcast_matches_loop(self, rng):
        for (m, n) in [(1, 3), (3, 1), (2, 2), (4, 3), (3, 5), (6, 6)]:
            for l in range(min(m, n) + 1):
                alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, l)
                pairing = clark_pairing(alpha, beta, lam1, lam2)
                assert pairing.shared == l
                r = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                ref_rhs, applicable = loop_recurrence_rhs(r, pairing)
                # r itself, and r with every predicted entry set to the
                # reference prediction, so that both verdicts are exercised
                for entries in (r, np.where(applicable, ref_rhs, r)):
                    ref = (np.max(np.abs(entries - ref_rhs)[applicable], initial=0.0)
                           / (1.0 + np.max(np.abs(entries))))
                    placed = np.empty_like(entries)
                    placed[np.ix_(pairing.perm_b, pairing.perm_a)] = entries
                    mat = OperatorMatrix(placed, clark_basis(alpha, pairing.clark_a),
                                         clark_basis(beta, pairing.clark_b))
                    try:
                        rel = check_recurrence(mat, pairing).max_residual
                    except IndeterminateError as exc:
                        rel = exc.relative_residual
                    assert abs(rel - ref) <= 1e-14 * (1.0 + ref)


class TestBlaschkeThroughPoints:
    def test_zeros_match_the_polynomial_route_in_order(self, rng):
        for degree in range(1, 13):
            for _ in range(5):
                pts = jittered_grid(rng, degree)
                rng.shuffle(pts)
                weights = 0.5 + rng.random(degree)
                b = blaschke_through_points(pts, random_unimodular(rng), weights=weights)
                ref = polynomial_through_points(pts, weights)
                assert np.max(np.abs(np.array(b.zeros) - ref)) <= 1e-12

    def test_high_degree_interpolates(self, rng):
        # ordered jittered grids: the power-basis route loses the residual
        # bound here (and raises at 1e-8 on most of them)
        for degree in (40, 48, 64):
            for _ in range(10):
                pts = jittered_grid(rng, degree)
                u = random_unimodular(rng)
                b = blaschke_through_points(pts, u, weights=0.5 + rng.random(degree))
                assert np.max(np.abs(b.zeros)) < 1.0
                assert np.max(np.abs(evaluate(b, pts) - u)) <= 1e-11


def paired_clark_unitaries(alpha, beta, lam1, lam2, pairing):
    """U_alpha and U_beta over the pairing's Clark bases, in the paired order."""
    ua = clark_unitary(alpha, lam1, clark_basis(alpha, pairing.clark_a)).entries
    ub = clark_unitary(beta, lam2, clark_basis(beta, pairing.clark_b)).entries
    return ua[np.ix_(pairing.perm_a, pairing.perm_a)], ub[np.ix_(pairing.perm_b, pairing.perm_b)]


class TestClarkIdentity:
    @staticmethod
    def cases(rng):
        for m, n in ((1, 3), (3, 1), (2, 2), (4, 3), (3, 5), (8, 4), (4, 8), (6, 6)):
            for l in range(min(m, n) + 1):
                yield shared_clark_instance(rng, m, n, l), l
        # degree 24 with 6 shared points and degree 64 with 16, from shuffled
        # jittered grids, so that the two spaces' points interleave around
        # the circle (shared_clark_instance gives each space its own arc)
        for m, n, l in ((24, 24, 6), (64, 64, 16)):
            pts = jittered_grid(rng, m + n - l)
            rng.shuffle(pts)
            alpha = blaschke_through_points(pts[:m], 1j, weights=0.5 + rng.random(m))
            beta = blaschke_through_points(np.r_[pts[:l], pts[m:]], -1.0,
                                           weights=0.5 + rng.random(n))
            yield (alpha, beta, lambda_for_target(alpha, 1j), lambda_for_target(beta, -1.0)), l

    def test_clark_unitary_is_diagonal_in_the_paired_bases(self, rng):
        for (alpha, beta, lam1, lam2), l in self.cases(rng):
            pairing = clark_pairing(alpha, beta, lam1, lam2)
            assert pairing.shared == l
            ua, ub = paired_clark_unitaries(alpha, beta, lam1, lam2, pairing)
            assert np.max(np.abs(ua - np.diag(pairing.eta))) <= 1e-12
            assert np.max(np.abs(ub - np.diag(pairing.zeta))) <= 1e-12

    def test_weight_scales_the_rank_two_residual(self, rng):
        for (alpha, beta, lam1, lam2), _ in self.cases(rng):
            pairing = clark_pairing(alpha, beta, lam1, lam2)
            ua, ub = paired_clark_unitaries(alpha, beta, lam1, lam2, pairing)
            n, m = beta.degree, alpha.degree
            r = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            ref = (r - ub @ r @ ua.conj().T) * np.sqrt(np.outer(
                pairing.clark_b.weights[pairing.perm_b], pairing.clark_a.weights[pairing.perm_a]))
            assert np.max(np.abs(pairing.weight * r - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


class TestRankTwoResidual:
    def test_member_for_default_and_clark_coefficients(self, rng):
        alpha, beta, lam1, lam2, pairing, mat = clark_member(rng, 3, 2, 0)
        v0 = check_residual(mat)
        assert v0.is_member and v0.witness is not None
        a1 = clark_coefficient(alpha, lam1)
        b1 = clark_coefficient(beta, lam2)
        v1 = check_residual(mat, a1, b1)
        assert v1.is_member

    def test_generic_rank_one_outside(self, rng):
        # cross Clark vectors, degrees (3, 2): generic rank-one is not a member
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
        ca = build_basis(alpha, "clark", lam1)
        cb = build_basis(beta, "clark", lam2)
        g = ModelVector(cb, np.eye(2)[0])
        f = ModelVector(ca, np.eye(3)[0])
        mat = rank_one(g, f)
        verdict = check_residual(mat)
        pairing = clark_pairing(alpha, beta, lam1, lam2)
        cross = check_recurrence(mat.in_bases(ca, cb), pairing)
        assert not verdict.is_member and not cross.is_member

    def test_witness_reconstructs_residual(self, rng):
        alpha, beta, *_, mat = clark_member(rng, 3, 2, 0)
        a, b = 0.3 - 0.2j, 1.1j
        verdict = check_residual(mat, a, b)
        from attokit.operators import modified_shift
        d = (mat.tm_entries()
             - modified_shift(beta, b).entries @ mat.tm_entries()
             @ modified_shift(alpha, a).entries.conj().T)
        k0a = kernel(alpha, 0.0).tm()
        k0b = kernel(beta, 0.0).tm()
        w = verdict.witness
        rec = np.outer(w.psi.tm(), np.conj(k0a)) + np.outer(k0b, np.conj(w.chi.tm()))
        assert np.max(np.abs(d - rec)) <= 1e-9 * (1 + np.max(np.abs(d)))
        # normalization: psi orthogonal to the kernel at 0
        assert abs(inner_product(w.psi, kernel(beta, 0.0))) <= 1e-10

    def test_matches_projector_compression(self, rng):
        # the residual of the witness split is the compression of d
        worst = {True: 0.0, False: 0.0}
        for m, n in ((2, 3), (3, 2), (8, 6), (24, 12), (12, 24), (64, 40), (40, 64)):
            alpha = random_blaschke(rng, m, radius=0.95)
            beta = random_blaschke(rng, n, radius=0.95)
            mat = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
            bumped = mat.entries.copy()
            bumped[rng.integers(n), rng.integers(m)] += 0.1 * (1.0 + mat.max_abs)
            bad = OperatorMatrix(bumped, mat.in_basis, mat.out_basis)
            a, b = complex(rng.standard_normal(), rng.standard_normal()), 0.5j
            for op, member in ((mat, True), (bad, False)):
                for method, check, pair in ((METHOD_RESIDUAL, check_residual, (0j, 0j)),
                                            (METHOD_RESIDUAL, check_residual, (a, b)),
                                            (METHOD_CONJUGATE, check_conjugate, (0j, 0j))):
                    verdict = check(op, *pair)
                    ref = projector_compression(op, method, *pair)
                    assert verdict.is_member is member
                    gap = abs(verdict.max_residual - ref) / (1.0 if member else ref)
                    worst[member] = max(worst[member], gap)
        assert worst[True] <= 1e-15 and worst[False] <= 1e-12, worst

    def test_choice_independence(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 2, 1)
        bad = perturbed_nonmember(rng, mat, pairing)
        for _ in range(10):
            a = complex(rng.standard_normal() + 1j * rng.standard_normal())
            b = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert check_residual(mat, a, b).is_member
            assert not check_residual(bad, a, b).is_member


class TestConjugateResidual:
    def test_agrees_with_plain_residual(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            l = int(rng.integers(0, min(m, n) + 1))
            *_, pairing, mat = clark_member(rng, m, n, l)
            probe = mat if rng.random() < 0.5 else perturbed_nonmember(rng, mat, pairing)
            assert (check_conjugate(probe).is_member
                    == check_residual(probe).is_member)

    def test_zero_operator_member_with_zero_witness(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        mat = OperatorMatrix(np.zeros((2, 3)), build_basis(alpha, "tm"),
                             build_basis(beta, "tm"))
        verdict = check_conjugate(mat)
        assert verdict.is_member
        assert verdict.witness.chi.norm() <= 1e-12
        assert verdict.witness.psi.norm() <= 1e-12

    def test_example_counterexample_is_member(self):
        from attokit.rankone import example_4_1
        _, _, mat = example_4_1(0.5)
        assert check_conjugate(mat).is_member


class TestShiftInvariance:
    def test_domain_characterization(self, rng):
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(2, 6)))
            for f in shift_domain_basis(b):
                assert abs(inner_product(f, conj_kernel(b, 0.0))) <= 1e-10

    def test_compressed_shift_is_member(self, rng):
        b = random_blaschke(rng, 4)
        assert check_shift(compressed_shift(b)).is_member

    def test_member_and_perturbation(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 3, 1)
        assert check_shift(mat).is_member
        bad = perturbed_nonmember(rng, mat, pairing)
        assert not check_shift(bad).is_member


    def test_batched_residual_matches_loop(self, rng):
        for (m, n) in [(2, 2), (3, 2), (2, 5), (5, 4), (8, 6), (8, 8)]:
            l = int(rng.integers(0, min(m, n) + 1))
            *_, pairing, mat = clark_member(rng, m, n, l)
            for op in (mat, perturbed_nonmember(rng, mat, pairing)):
                verdict = check_shift(op)
                assert abs(verdict.max_residual - loop_shift_residual(op)) <= 1e-12


class TestEquivalenceSuite:
    def test_three_way_equivalence(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            l = int(rng.integers(0, min(m, n) + 1))
            *_, pairing, mat = clark_member(rng, m, n, l)
            res = run_all(mat, pairing)
            assert res["member"]
            bad = perturbed_nonmember(rng, mat, pairing)
            res2 = run_all(bad, pairing)
            assert not res2["member"]

    def test_verdict_invariant_under_basis_change(self, rng):
        alpha, beta, lam1, lam2, pairing, mat = clark_member(rng, 3, 2, 0)
        other = mat.in_bases(build_basis(alpha, "modified-clark", lam1),
                             build_basis(beta, "tm"))
        assert check_residual(other).is_member == check_residual(mat).is_member
        bad = perturbed_nonmember(rng, mat, pairing)
        bad_other = bad.in_bases(build_basis(alpha, "kernel-zeros"),
                                 build_basis(beta, "tm"))
        assert not check_residual(bad_other).is_member

    def test_kernel_at_zero_constant_on_clark_points(self, rng):
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            lam = random_unimodular(rng)
            cp = clark_points(b, lam)
            vals = kernel(b, 0.0)(cp.points)
            expect = 1.0 - np.conj(evaluate(b, 0.0)) * cp.target
            assert np.max(np.abs(vals - expect)) <= 1e-10

    def test_tolerance_breakdown_on_near_collision(self, rng):
        # two cross points 1e-9 apart: too far to match at match-tol 1e-12,
        # too close for stable recurrence denominators at the default tol
        import dataclasses
        from attokit.instances import (blaschke_through_points,
                                       lambda_for_target,
                                       separated_boundary_points)
        from attokit.membership import ToleranceBreakdown
        pts = separated_boundary_points(rng, 5, min_angle=0.4)
        alpha = blaschke_through_points(pts[:3], 1.0)
        beta = blaschke_through_points(np.array([pts[0] * np.exp(1e-9j), pts[3], pts[4]]), 1.0)
        lam1 = lambda_for_target(alpha, 1.0)
        lam2 = lambda_for_target(beta, 1.0)
        tight = dataclasses.replace(DEFAULT, match=1e-12)
        pairing = clark_pairing(alpha, beta, lam1, lam2, tight)
        assert pairing.shared == 0
        mat = member_matrix(rng, alpha, beta, lam1, lam2)
        with pytest.raises(ToleranceBreakdown):
            check_recurrence(mat, pairing, DEFAULT)

    def test_ambiguous_match_raises(self):
        # one point of one set within match-tol of two points of the other
        import dataclasses
        from attokit.blaschke import ClarkPointSet
        ca = ClarkPointSet(1.0, 1.0, np.array([1.0 + 0j, -1.0 + 0j]), np.ones(2))
        cb = ClarkPointSet(1.0, 1.0,
                           np.array([np.exp(1e-8j), np.exp(-1e-8j), -1.0 + 0j]),
                           np.ones(3))
        loose = dataclasses.replace(DEFAULT, match=1e-6)
        with pytest.raises(ValueError, match="ambiguous"):
            match_clark_points(ca, cb, loose)

    def test_indeterminate_band_raises(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 2, 0)
        entries = mat.entries.copy()
        s, p = constrained_entries(3, 2, 0)[0]
        entries[pairing.perm_b[s], pairing.perm_a[p]] += 3e-6 * (1 + mat.max_abs)
        shady = OperatorMatrix(entries, mat.in_basis, mat.out_basis)
        with pytest.raises(IndeterminateError):
            check_recurrence(shady, pairing)

    def test_trivial_class_when_one_space_is_a_line(self, rng):
        alpha = random_blaschke(rng, 1)
        beta = random_blaschke(rng, 3)
        for _ in range(10):
            entries = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
            mat = OperatorMatrix(entries, build_basis(alpha, "tm"),
                                 build_basis(beta, "tm"))
            res = run_all(mat, clark_pairing(alpha, beta, 1.0, 1.0))
            assert res["member"]


def one_by_one(mat, pairing, residual_pairs):
    """The verdicts run_all should give, each from its public test alone;
    the Clark matrix is rebuilt with build_basis from the pairing's lambdas."""
    out = {}
    if pairing is not None:
        lam_a, lam_b = pairing.clark_a.lam, pairing.clark_b.lam
        clark_mat = mat.in_bases(build_basis(mat.alpha, "clark", lam_a),
                                 build_basis(mat.beta, "clark", lam_b))
        out[METHOD_CLARK] = check_recurrence(clark_mat, pairing)
        residual_pairs = tuple(residual_pairs) + ((clark_coefficient(mat.alpha, lam_a),
                                                   clark_coefficient(mat.beta, lam_b)),)
    for idx, (a, b) in enumerate(residual_pairs):
        name = METHOD_RESIDUAL if idx == 0 else f"{METHOD_RESIDUAL}[{idx}]"
        out[name] = check_residual(mat, a, b)
    out[METHOD_CONJUGATE] = check_conjugate(mat)
    out[METHOD_SHIFT] = check_shift(mat)
    return out


class TestRunAllSharedWork:
    def test_no_boundary_solve_inside_run_all(self, rng, monkeypatch):
        import attokit.modelspace

        def refuse(*args, **kwargs):
            raise AssertionError("run_all solved the boundary equation again")

        for m, n in ((4, 3), (3, 5)):
            for l in (0, min(m, n)):
                *_, pairing, mat = clark_member(rng, m, n, l)
                bad = perturbed_nonmember(rng, mat, pairing)
                with monkeypatch.context() as patch:
                    patch.setattr(attokit.modelspace, "boundary_solve", refuse)
                    for probe, expect in ((mat, True), (bad, False)):
                        res = run_all(probe, pairing)
                        assert res["member"] is expect
                        assert {v.is_member for v in res["methods"].values()} == {expect}

    def test_clark_test_changes_no_basis(self, rng, monkeypatch):
        # a matrix over its pairing's stored Clark bases is already the
        # Clark matrix: no TM round trip
        def refuse(*args, **kwargs):
            raise AssertionError("run_all changed the basis of a Clark-basis matrix")

        *_, pairing, mat = clark_member(rng, 4, 3, 1)
        bad = perturbed_nonmember(rng, mat, pairing)
        monkeypatch.setattr(OperatorMatrix, "from_tm", classmethod(refuse))
        assert pairing.clark_matrix(mat) is mat
        assert run_all(mat, pairing)["member"] is True
        assert run_all(bad, pairing)["member"] is False

    def test_repeat_run_all_evaluates_nothing_at_the_origin(self, rng, monkeypatch):
        import attokit.modelspace
        tm_values = attokit.modelspace.tm_values
        at_origin = []

        def counting(b, z):
            if np.ndim(z) == 0 and z == 0:
                at_origin.append(b)
            return tm_values(b, z)

        *_, pairing, mat = clark_member(rng, 4, 3, 1)
        bad = perturbed_nonmember(rng, mat, pairing)
        first = run_all(mat, pairing)
        monkeypatch.setattr(attokit.modelspace, "tm_values", counting)
        again = run_all(mat, pairing)
        assert at_origin == []
        assert run_all(bad, pairing)["member"] is False
        assert at_origin == []
        for name, verdict in again["methods"].items():
            assert verdict.max_residual == first["methods"][name].max_residual

    def test_warm_run_all_evaluates_nothing_and_factors_nothing(self, rng, monkeypatch):
        # every evaluate goes through _pole_guard; B(0) and the shift
        # domains are read off each space's model_space, and the stored
        # Clark bases carry their inverses, so no basis change solves
        import attokit.blaschke
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        *_, pairing, mat = clark_member(rng, 5, 4, 2)
        bad = perturbed_nonmember(rng, mat, pairing)
        run_all(mat, pairing)
        recover_chi_psi_clark(mat, pairing)
        monkeypatch.setattr(attokit.blaschke, "_pole_guard",
                            counting("pole guard", attokit.blaschke._pole_guard))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        assert run_all(mat, pairing)["member"] is True
        assert run_all(bad, pairing)["member"] is False
        recover_chi_psi_clark(mat, pairing)
        assert calls == []      # bad's own TM matrix is a product with T+

    def test_verdicts_equal_the_public_tests(self, rng):
        cases = []
        for m, n in ((3, 2), (4, 4), (5, 3)):
            for l in range(min(m, n) + 1):
                alpha, beta, lam1, lam2, pairing, mat = clark_member(rng, m, n, l)
                cases.append((mat, pairing, ((0j, 0j),)))
                cases.append((perturbed_nonmember(rng, mat, pairing), pairing, ((0j, 0j),)))
            tm_mat = mat.in_bases(build_basis(alpha, "tm"), build_basis(beta, "tm"))
            custom = ((0.3 - 0.2j, 1.1j), (0j, 2.0), (-1.5, 0.25j))
            cases += [(tm_mat, None, ((0j, 0j),)), (tm_mat, None, custom),
                      (tm_mat, pairing, custom), (mat, pairing, custom)]
        for mat, pairing, pairs in cases:
            got = run_all(mat, pairing, residual_pairs=pairs)["methods"]
            expect = one_by_one(mat, pairing, pairs)
            assert list(got) == list(expect)
            for name, verdict in got.items():
                ref = expect[name]
                assert verdict.is_member == ref.is_member
                assert verdict.max_residual == ref.max_residual
                if ref.witness is not None:
                    assert np.array_equal(verdict.witness.chi.coeffs, ref.witness.chi.coeffs)
                    assert np.array_equal(verdict.witness.psi.coeffs, ref.witness.psi.coeffs)

    def test_tm_tests_share_one_conversion(self, rng, monkeypatch):
        # one move back to TM coordinates serves all three TM-coordinate
        # tests: a product over the stored Clark and TM bases, one solve over
        # kernel-zeros; a matrix built from its TM matrix keeps it
        alpha, beta, *_, pairing, mat = clark_member(rng, 4, 3, 1)
        run_all(mat, pairing)                      # every space object built
        solves = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        kernels = mat.in_bases(build_basis(alpha, "kernel-zeros"), build_basis(beta, "tm"))
        tm = mat.in_bases(build_basis(alpha, "tm"), build_basis(beta, "tm"))
        assert len(solves) == 0
        probes = [(OperatorMatrix(x.entries, x.in_basis, x.out_basis), expect)
                  for x, expect in ((mat, 0), (tm, 0), (kernels, 1))]
        for probe, expect in probes + [(mat, 0)]:
            solves.clear()
            for test in (check_residual, check_conjugate, check_shift):
                assert test(probe).is_member
            assert len(solves) == expect

    def test_disagreement_carries_every_verdict(self, rng, monkeypatch):
        *_, pairing, mat = clark_member(rng, 4, 3, 1)
        shift = membership.test_shift_invariance
        monkeypatch.setattr(membership, "test_shift_invariance", lambda matrix, tol: (
            dataclasses.replace(shift(matrix, tol), is_member=False)))
        with pytest.raises(MethodDisagreement) as err:
            run_all(mat, pairing)
        got = {name: v.is_member for name, v in err.value.verdicts.items()}
        assert got == {METHOD_CLARK: True, METHOD_RESIDUAL: True, f"{METHOD_RESIDUAL}[1]": True,
                       METHOD_CONJUGATE: True, METHOD_SHIFT: False}

    def test_lone_clark_dissent_within_the_band_is_a_typed_refusal(self, rng):
        pairing, _, bumped = nearly_free_bump(rng)
        with pytest.raises(ClarkDissent) as err:
            run_all(bumped, pairing)
        assert isinstance(err.value, IndeterminateError)
        assert not isinstance(err.value, MethodDisagreement)
        verdicts = err.value.verdicts
        assert [k for k, v in verdicts.items() if not v.is_member] == [METHOD_CLARK]
        clark = verdicts[METHOD_CLARK].max_residual
        assert err.value.method == METHOD_CLARK and err.value.relative_residual == clark
        assert clark >= DEFAULT.reject_band
        # the cause: both residuals, the separation and the weight there
        message = str(err.value)
        _, q, x, y = membership._clark_split(bumped, pairing)
        division_free = np.abs(q - x[:, None] - y[None, :]).max() / (1.0 + np.abs(q).max())
        assert division_free < 1e-7
        for figure in (f"{clark:.3e}", f"{division_free:.3e}",
                       f"{pairing.min_separation:.1e}", "|w| = 3.0e-05"):
            assert figure in message

    def test_lone_clark_dissent_past_the_band_still_disagrees(self, rng, monkeypatch):
        # a clean non-member that the TM-coordinate tests are made to accept:
        # its division-free Clark residual is far above the reject band
        *_, pairing, mat = clark_member(rng, 4, 3, 1)
        bad = perturbed_nonmember(rng, mat, pairing)
        for name in ("test_rank_two_residual", "test_conjugate_residual", "test_shift_invariance"):
            test = getattr(membership, name)
            monkeypatch.setattr(membership, name, lambda *args, test=test, **kwargs: (
                dataclasses.replace(test(*args, **kwargs), is_member=True)))
        with pytest.raises(MethodDisagreement) as err:
            run_all(bad, pairing)
        assert not isinstance(err.value, IndeterminateError)
        assert [k for k, v in err.value.verdicts.items() if not v.is_member] == [METHOD_CLARK]


class TestHighDegree:
    def test_unanimous_verdicts_at_degrees_40_to_64(self, rng):
        # TM-basis members at degrees 40-64 whose outermost zero sits at
        # |a| = 0.95; each is decided by every method, Clark recurrence
        # included, and a one-entry bump of it is rejected by every method
        for m, n in ((64, 40), (40, 64), (52, 50), (50, 52)):
            spaces = []
            for degree in (m, n):
                zeros = list(random_blaschke(rng, degree, radius=0.95).zeros)
                k = int(np.argmax(np.abs(zeros)))
                zeros[k] *= 0.95 / abs(zeros[k])
                spaces.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
            alpha, beta = spaces
            pairing = clark_pairing(alpha, beta, random_unimodular(rng), random_unimodular(rng))
            mat = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
            assert run_all(mat, pairing)["member"]
            assert not run_all(perturbed_nonmember(rng, mat, pairing), pairing)["member"]


class TestWitnessRecovery:
    def test_zero_operator(self):
        b = monomial(2)
        pairing = clark_pairing(b, b, 1.0, 1.0)
        cb = build_basis(b, "clark", 1.0)
        zero = OperatorMatrix(np.zeros((2, 2)), cb, cb)
        chi, psi = recover_chi_psi_clark(zero, pairing, psi1=0.0)
        assert chi.norm() <= 1e-12 and psi.norm() <= 1e-12

    def test_compressed_shift_hand_solution(self):
        # alpha = beta = z^2, lam = 1, psi1 = 0: chi = 1 - z, psi = z - 1
        b = monomial(2)
        pairing = clark_pairing(b, b, 1.0, 1.0)
        cb = build_basis(b, "clark", 1.0)
        mat = compressed_shift(b, cb)
        assert np.allclose(mat.entries, [[0.5, 0.5], [-0.5, -0.5]], atol=1e-12)
        chi, psi = recover_chi_psi_clark(mat, pairing, psi1=0.0)
        assert np.allclose(chi.tm(), [1.0, -1.0], atol=1e-10)
        assert np.allclose(psi.tm(), [-1.0, 1.0], atol=1e-10)

    def test_reconstructs_clark_residual(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            l = int(rng.integers(0, min(m, n) + 1))
            alpha, beta, lam1, lam2, pairing, mat = clark_member(rng, m, n, l)
            ua = clark_unitary(alpha, lam1).entries
            ub = clark_unitary(beta, lam2).entries
            mtm = mat.tm_entries()
            d = mtm - ub @ mtm @ ua.conj().T
            for psi1 in (0.0, 0.5 - 0.25j):
                chi, psi = recover_chi_psi_clark(mat, pairing, psi1=psi1)
                rec = (np.outer(psi.tm(), np.conj(kernel(alpha, 0.0).tm()))
                       + np.outer(kernel(beta, 0.0).tm(), np.conj(chi.tm())))
                assert np.max(np.abs(d - rec)) <= 1e-8 * (1 + np.max(np.abs(d)))

    def test_rejects_nonmember(self, rng):
        *_, pairing, mat = clark_member(rng, 3, 2, 0)
        bad = perturbed_nonmember(rng, mat, pairing)
        with pytest.raises(ValueError):
            recover_chi_psi_clark(bad, pairing)


def outcome(fn, *args):
    """What a test or the witness recovery gives, as comparable values: the
    verdict with its residual and witness coordinates, or the refusal."""
    try:
        res = fn(*args)
    except (IndeterminateError, ValueError) as exc:
        return type(exc).__name__, getattr(exc, "relative_residual", None), str(exc)
    if isinstance(res, tuple):                       # recover_chi_psi_clark
        return tuple(v.coeffs.tobytes() for v in res)
    if isinstance(res, dict):                        # run_all
        return res["member"], {k: outcome(lambda v=v: v) for k, v in res["methods"].items()}
    wit = res.witness
    return (res.is_member, res.max_residual, res.method,
            None if wit is None else (wit.chi.tm().tobytes(), wit.psi.tm().tobytes(),
                                      wit.a, wit.b))


class TestPairingConstants:
    """A pairing holds what depends only on its point sets, built with it;
    reusing it over many matrices gives what a fresh pairing gives."""

    def test_reused_pairing_matches_a_fresh_copy(self, rng):
        for m, n, shared in ((3, 2, 0), (1, 1, 0), (1, 1, 1), (4, 4, 2), (3, 3, 3),
                             (2, 4, 2), (5, 3, 3), (4, 5, 0)):
            alpha, beta, lam1, lam2, pairing, mat = clark_member(rng, m, n, shared)
            mats = [mat] + [member_matrix(rng, alpha, beta, lam1, lam2) for _ in range(3)]
            if min(m, n) >= 2:
                mats += [perturbed_nonmember(rng, x, pairing) for x in mats[:2]]
            for x in mats:
                fresh = match_clark_points(pairing.clark_a, pairing.clark_b)
                for args in ((check_recurrence, x), (run_all, x),
                             (recover_chi_psi_clark, x), (recover_chi_psi_clark, x, 0.3 - 0.2j)):
                    fn, *rest = args
                    reused = outcome(fn, rest[0], pairing, *rest[1:])
                    assert reused == outcome(fn, rest[0], fresh, *rest[1:]), (m, n, shared)

    def test_constants_are_read_only_and_kept(self, rng):
        *_, pairing, mat = clark_member(rng, 4, 3, 2)
        names = ("perm_a", "perm_b", "eta", "zeta", "weight", "sqrt_weights_a",
                 "sqrt_weights_b", "inverse_perm_a", "inverse_perm_b", "free", "divisor")
        held = {name: getattr(pairing, name) for name in names + ("paired_index",)}
        check_recurrence(mat, pairing)
        recover_chi_psi_clark(mat, pairing)
        for arr in [*pairing.paired_index] + [getattr(pairing, name) for name in names]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for name, value in held.items():
            assert getattr(pairing, name) is value
        assert dataclasses.replace(pairing).weight is pairing.weight

    def test_pairing_is_bit_equal_to_the_loop_reference(self, rng):
        for m in range(1, 9):
            for n in range(1, 9):
                for shared in range(min(m, n) + 1):
                    alpha, beta, lam1, lam2 = shared_clark_instance(rng, m, n, shared)
                    ca, cb = clark_points(alpha, lam1), clark_points(beta, lam2)
                    for sets in ((ca, cb), (cb, ca)):
                        pairing, ref = match_clark_points(*sets), loop_pairing(*sets)
                        assert pairing.shared == shared
                        assert pairing.perm_a.dtype == pairing.perm_b.dtype == np.dtype(int)
                        for field in dataclasses.fields(pairing):
                            assert same_bits(getattr(pairing, field.name), ref[field.name]), \
                                (m, n, shared, field.name)

    def test_ambiguous_matches_raise_as_the_loop_does(self):
        # x' within tol.match of x, y' of y; the first clashing point of the
        # first set, in its order, names the error
        x, y = 1.0 + 0j, -1.0 + 0j
        xs, ys = np.exp(1e-8j), np.exp(1j * (np.pi - 1e-8))
        loose = dataclasses.replace(DEFAULT, match=1e-6)
        cases = (([x, y], [xs, x, y], "2 candidates"),      # x meets x' and x
                 ([xs, x, y], [x, y], r"for \(1\+0j\)$"),  # x' and x meet x
                 ([x, xs, y], [x, y, ys], r"for \(1\+0j\)$"),
                 ([y, x, xs], [x, y, ys], "2 candidates"))
        for pa, pb, match in cases:
            ca = ClarkPointSet(1.0, 1.0, np.array(pa), np.ones(len(pa)))
            cb = ClarkPointSet(1.0, 1.0, np.array(pb), np.ones(len(pb)))
            with pytest.raises(ValueError, match="ambiguous") as ref:
                loop_pairing(ca, cb, loose)
            with pytest.raises(ValueError, match=match) as got:
                match_clark_points(ca, cb, loose)
            assert str(got.value) == str(ref.value)

    def test_constants_match_their_definitions(self, rng):
        for m, n, shared in ((3, 2, 0), (4, 4, 2), (3, 3, 3), (2, 4, 2)):
            *_, pairing, mat = clark_member(rng, m, n, shared)
            _, applicable = loop_recurrence_rhs(mat.entries, pairing)
            den = np.abs(pairing.eta[None, :] - pairing.zeta[:, None])
            assert np.array_equal(pairing.free, ~applicable)
            assert pairing.min_separation == np.min(den[applicable])
            assert np.array_equal(pairing.divisor, np.where(applicable, pairing.weight, 1.0))
            r = mat.entries[np.ix_(pairing.perm_b, pairing.perm_a)]
            assert np.array_equal(mat.entries[pairing.paired_index], r)
            assert np.array_equal(pairing.perm_a[pairing.inverse_perm_a], np.arange(m))
            assert np.array_equal(pairing.perm_b[pairing.inverse_perm_b], np.arange(n))

    def test_collision_check_runs_on_every_call_at_that_calls_tolerance(self, rng):
        from attokit.instances import separated_boundary_points
        from attokit.membership import ToleranceBreakdown
        pts = separated_boundary_points(rng, 5, min_angle=0.4)
        alpha = blaschke_through_points(pts[:3], 1.0)
        beta = blaschke_through_points(np.array([pts[0] * np.exp(1e-9j), pts[3], pts[4]]), 1.0)
        lam1 = lambda_for_target(alpha, 1.0)
        lam2 = lambda_for_target(beta, 1.0)
        tight = dataclasses.replace(DEFAULT, match=1e-12)
        pairing = clark_pairing(alpha, beta, lam1, lam2, tight)
        assert 1e-12 < pairing.min_separation < DEFAULT.match
        for _ in range(3):
            mat = member_matrix(rng, alpha, beta, lam1, lam2)
            with pytest.raises(ToleranceBreakdown):
                check_recurrence(mat, pairing, DEFAULT)
            assert check_recurrence(mat, pairing, tight).is_member


class TestWitnessOnAcceptance:
    """The rank-two tests build their witness vectors only for an accepted
    verdict; the accepted witness is the one the split gives."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        real = membership.tm_vector

        def counted(b, coords):
            calls.append(b)
            return real(b, coords)

        monkeypatch.setattr(membership, "tm_vector", counted)
        return calls

    @staticmethod
    def eager(mat, method, a, b):
        """The witness as built before the verdict: the split of
        A - S_b A S_a^H (or its conjugate mirror) into TM vectors."""
        m_tm = mat.tm_entries()
        sa, sb = mat.alpha.model_space, mat.beta.model_space
        if method == METHOD_RESIDUAL:
            d = m_tm - sb.modified(b) @ m_tm @ sa.modified(a).conj().T
            psi, chi = membership._split_residual(d, sa.k0, sb.k0, sa.k0_norm2, sb.k0_norm2)
        else:
            d = m_tm - sb.modified(b).conj().T @ m_tm @ sa.modified(a)
            psi, chi = membership._split_residual(d, sa.kt0, sb.kt0, sa.kt0_norm2,
                                                  sb.kt0_norm2)
        return tm_vector(mat.alpha, chi), tm_vector(mat.beta, psi)

    def test_rejection_builds_no_vector(self, rng, built):
        alpha, beta = random_blaschke(rng, 4), random_blaschke(rng, 3)
        entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        mat = OperatorMatrix(entries, build_basis(alpha, "tm"), build_basis(beta, "tm"))
        for check in (check_residual, check_conjugate):
            verdict = check(mat, 0.3j, -0.2)
            assert not verdict.is_member and verdict.witness is None
        assert not run_all(mat, clark_pairing(alpha, beta, 1.0, 1j))["member"]
        assert built == []

    def test_refusal_builds_no_vector(self, rng, built):
        alpha, beta, *_, mat = clark_member(rng, 4, 3, 0)
        m_tm = mat.tm_entries()
        bump = np.zeros_like(m_tm)
        bump[1, 2] = 1e-5 * (1.0 + mat.max_abs)
        shady = OperatorMatrix.from_tm(m_tm + bump, mat.in_basis, mat.out_basis)
        for check in (check_residual, check_conjugate):
            with pytest.raises(IndeterminateError):
                check(shady)
        assert built == []

    def test_acceptance_builds_the_eager_witness(self, rng, built):
        for m, n, shared in ((3, 2, 0), (4, 4, 2), (5, 3, 1)):
            alpha, beta, lam1, lam2, _, mat = clark_member(rng, m, n, shared)
            pairs = ((0j, 0j), (clark_coefficient(alpha, lam1), clark_coefficient(beta, lam2)))
            for method, check in ((METHOD_RESIDUAL, check_residual),
                                  (METHOD_CONJUGATE, check_conjugate)):
                for a, b in pairs:
                    del built[:]
                    verdict = check(mat, a, b)
                    assert verdict.is_member and built == [alpha, beta]
                    chi, psi = self.eager(mat, method, a, b)
                    assert verdict.witness.chi.coeffs.tobytes() == chi.coeffs.tobytes()
                    assert verdict.witness.psi.coeffs.tobytes() == psi.coeffs.tobytes()
                    assert verdict.witness.chi.basis.matrix is chi.basis.matrix
                    assert (verdict.witness.a, verdict.witness.b) == (a, b)

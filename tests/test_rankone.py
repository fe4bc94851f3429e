import numpy as np
import pytest

from attokit.blaschke import BlaschkeProduct, evaluate, monomial
from attokit.config import DEFAULT
from attokit.instances import (random_blaschke, random_points_in_disk,
                               random_unimodular, random_vector,
                               shared_clark_instance)
from attokit.membership import clark_pairing, run_all
from attokit.modelspace import (ModelVector, build_basis, conj_kernel, kernel,
                                tm_vector)
from attokit.operators import OperatorMatrix, rank_one, standard_rank_one
from attokit.rankone import (VectorClassification,
                             boundary_kernel_identity_check, classify_vector,
                             decompose_rank_one, example_4_1,
                             example_4_1_candidates)


def clark_classify(f, lam, tol=DEFAULT):
    """Reference: the Clark-coefficient route, as (tag, w).

    Over the Clark basis for ``lam`` the coefficients of k_w are
    const / (1 - conj(w) eta_j) / sqrt(w_j), those of k~_w are
    const / (eta_j - w) / sqrt(w_j).  A single nonzero coefficient is a
    boundary kernel at its Clark point; otherwise w is eliminated from the
    first two nonzero coefficients (a linear equation in conj(w), resp. w)
    and accepted in the closed disk when the kernel fits every coefficient.
    """
    b = f.space
    cb = build_basis(b, "clark", lam, tol=tol)
    c = f.to(cb).coeffs
    eta, target = cb.clark.points, cb.clark.target
    sq = np.sqrt(cb.clark.weights)
    nz = np.nonzero(np.abs(c) > tol.fit * np.linalg.norm(c))[0]
    if len(nz) == 1:
        return "kernel", complex(eta[nz[0]])
    d = c * sq
    i, j = nz[:2]
    candidates = [("kernel", np.conj((d[i] - d[j]) / (d[i] * eta[i] - d[j] * eta[j]))),
                  ("conj-kernel", (d[i] * eta[i] - d[j] * eta[j]) / (d[i] - d[j]))]
    for tag, w in candidates:
        if not np.isfinite(w) or abs(w) > 1.0 + 1e-9:
            continue
        if abs(w) > 1.0 - 1e-9:
            w = w / abs(w)
        if tag == "kernel":
            model = (1.0 - np.conj(evaluate(b, w)) * target) / (1.0 - np.conj(w) * eta) / sq
        else:
            model = (target - evaluate(b, w)) / (eta - w) / sq
        fit = np.vdot(model, c) / np.vdot(model, model)
        if np.linalg.norm(c - fit * model) <= tol.fit * np.linalg.norm(c):
            return tag, complex(w)
    return "neither", None


def sweep_products(rng, degree):
    """Zeros up to 0.95; distinct zeros at 0.9999; and a triple zero at
    0.9999 with a double zero at 0.95 (the triple zero alone at degree 3)."""
    near = 0.9999 * np.exp(2j * np.pi * (np.arange(degree) + rng.random()) / degree)
    a, b = 0.9999 * random_unimodular(rng), 0.95 * random_unimodular(rng)
    rest = list(random_points_in_disk(rng, degree - 5)) if degree > 5 else []
    return {"0.95": random_blaschke(rng, degree, radius=0.95, min_sep=0.01),
            "0.9999": BlaschkeProduct(tuple(near), random_unimodular(rng)),
            "repeated": BlaschkeProduct(tuple(([a] * 3 + [b] * 2 + rest)[:degree]),
                                        random_unimodular(rng))}


SWEEP_RADII = (0.0, 0.3, 0.9, 0.99, 0.9999, 1.0)


def sweep_bound(degree):
    return 1e-13 if degree == 64 else 1e-11


class TestClassifyVector:
    def test_balanced_coefficients_give_kernel_at_zero(self, rng):
        # c_1 sqrt(w_1) = c_2 sqrt(w_2) forces f = c k_0
        b = random_blaschke(rng, 2)
        basis = build_basis(b, "clark", 1.0)
        sq = np.sqrt(basis.clark.weights)
        f = ModelVector(basis, 1.0 / sq)
        cls = classify_vector(f, 1.0)
        assert cls.tag == "kernel"
        assert abs(cls.w) <= 1e-10
        assert (f - cls.scale * kernel(b, 0.0).to(basis)).norm() <= 1e-9 * f.norm()

    def test_point_weighted_coefficients_give_conj_kernel_at_zero(self, rng):
        # c_1 eta_1 sqrt(w_1) = c_2 eta_2 sqrt(w_2) forces f = c ktilde_0
        b = random_blaschke(rng, 2)
        basis = build_basis(b, "clark", 1.0)
        eta = basis.clark.points
        sq = np.sqrt(basis.clark.weights)
        f = ModelVector(basis, 1.0 / (eta * sq))
        cls = classify_vector(f, 1.0)
        assert cls.tag == "conj-kernel"
        assert abs(cls.w) <= 1e-10
        assert (f - cls.scale * conj_kernel(b, 0.0).to(basis)).norm() <= 1e-9 * f.norm()

    def test_two_of_three_clark_coefficients_is_neither(self, rng):
        b = random_blaschke(rng, 3)
        basis = build_basis(b, "clark", 1.0)
        f = ModelVector(basis, np.array([1.0, 1.0, 0.0]))
        assert classify_vector(f, 1.0).tag == "neither"

    def test_single_coefficient_is_boundary_kernel(self, rng):
        b = random_blaschke(rng, 3)
        basis = build_basis(b, "clark", 1j)
        f = ModelVector(basis, np.array([0.0, 2.0, 0.0]))
        cls = classify_vector(f, 1j)
        assert cls.tag == "kernel" and cls.boundary
        assert cls.w == pytest.approx(basis.clark.points[1])

    def test_dimension_two_always_classifies(self, rng):
        for _ in range(500):
            b = random_blaschke(rng, int(rng.integers(1, 3)))
            f = random_vector(rng, build_basis(b, "tm"))
            cls = classify_vector(f, 1.0)
            assert cls.tag in ("kernel", "conj-kernel")

    def test_round_trips_actual_kernels(self, rng):
        for _ in range(50):
            b = random_blaschke(rng, int(rng.integers(2, 6)))
            w = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
            scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
            cls = classify_vector(scale * kernel(b, w), 1.0)
            assert cls.tag == "kernel" and abs(cls.w - w) <= 1e-7
            cls2 = classify_vector(scale * conj_kernel(b, w), 1.0)
            assert cls2.tag == "conj-kernel" and abs(cls2.w - w) <= 1e-7

    def test_dimension_one_gives_kernel_at_origin(self, rng):
        b = random_blaschke(rng, 1)
        f = random_vector(rng, build_basis(b, "tm"))
        cls = classify_vector(f)
        assert (cls.tag, cls.w, cls.boundary) == ("kernel", 0j, False)
        assert (f - cls.scale * kernel(b, 0.0)).norm() <= 1e-12 * f.norm()

    def test_triple_zero_near_circle_conj_kernels(self):
        # the Clark route called all four "neither"
        a = 0.537157428086792 + 0.8433634492027638j           # |a| = 0.9999
        b = BlaschkeProduct((a, a, a), -0.09675302298241523 - 0.9953084208142541j)
        for w in (-0.2326227658873399 + 0.18943771744540164j,
                  -0.29834205182192647 - 0.031496350815339455j,
                  -0.271950034639705 + 0.1266616700484532j,
                  -0.25648039047580073 - 0.15562072259625578j):
            f = (0.5 + 2j) * conj_kernel(b, w)
            cls = classify_vector(f, 1.0)
            assert cls.tag == "conj-kernel" and abs(cls.w - w) <= 1e-11
            assert abs(cls.scale - (0.5 + 2j)) <= 1e-11

    def test_zero_vector_rejected(self, rng):
        b = random_blaschke(rng, 2)
        with pytest.raises(ValueError):
            classify_vector(tm_vector(b, np.zeros(2)), 1.0)


class TestShiftClassificationSweep:
    @pytest.mark.parametrize("degree", [3, 16, 64])
    def test_kernels_and_conj_kernels(self, rng, degree):
        for kind, b in sweep_products(rng, degree).items():
            bound = sweep_bound(degree)
            for r in SWEEP_RADII:
                w = r * random_unimodular(rng)
                for tag, vec in (("kernel", kernel), ("conj-kernel", conj_kernel)):
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    cls = classify_vector(c * vec(b, w))
                    # on the circle the two tags coincide and "kernel" is reported
                    assert cls.tag == ("kernel" if r == 1.0 else tag), (kind, r, tag)
                    assert cls.boundary == (r == 1.0), (kind, tag, abs(cls.w))
                    assert abs(cls.w - w) <= bound, (kind, r, tag, abs(cls.w - w))

    @pytest.mark.parametrize("degree", [3, 16, 64])
    def test_decomposition(self, rng, degree):
        for kind, b in sweep_products(rng, degree).items():
            bound = sweep_bound(degree)
            for r in SWEEP_RADII:
                w = r * random_unimodular(rng)
                partner = random_blaschke(rng, int(rng.integers(2, degree + 1)))
                for variant in ("conjk-kernel", "kernel-conjk"):
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    for mat in (c * standard_rank_one(b, partner, w, variant),
                                c * standard_rank_one(partner, b, w, variant)):
                        dec = decompose_rank_one(mat)
                        assert dec.tag == "standard"
                        if r < 1.0:
                            assert dec.variant == variant
                        assert dec.boundary == (r == 1.0), (kind, variant, abs(dec.w))
                        assert abs(dec.w - w) <= bound, (kind, r, variant, abs(dec.w - w))
                        rec = dec.scale * standard_rank_one(mat.alpha, mat.beta, dec.w,
                                                            dec.variant)
                        assert (np.max(np.abs(rec.entries - mat.entries))
                                <= 1e-8 * np.max(np.abs(mat.entries)))

    @pytest.mark.parametrize("degree", [3, 16, 64])
    def test_random_vectors_are_neither(self, rng, degree):
        for b in sweep_products(rng, degree).values():
            for _ in range(5):
                assert classify_vector(random_vector(rng, build_basis(b, "tm"))).tag == "neither"

    def test_dimension_two_near_circle_always_classifies(self, rng):
        # one equation in conj(w): the kernel and conj-kernel solutions are
        # reflections w -> 1/conj(w), so one lies in the closed disk
        a = 0.9999 * random_unimodular(rng)
        products = [BlaschkeProduct((a, a)),
                    BlaschkeProduct((a, -a), random_unimodular(rng)),
                    BlaschkeProduct((a, 0.9999 * random_unimodular(rng)))]
        for b in products:
            for _ in range(100):
                f = random_vector(rng, build_basis(b, "tm"))
                cls = classify_vector(f)
                assert cls.tag in ("kernel", "conj-kernel") and abs(cls.w) <= 1.0
                model = kernel if cls.tag == "kernel" else conj_kernel
                assert (f - cls.scale * model(b, cls.w)).norm() <= 1e-8 * f.norm()

    def test_agrees_with_clark_reference(self, rng):
        for _ in range(40):
            b = random_blaschke(rng, int(rng.integers(2, 7)))
            lam = random_unimodular(rng)
            w = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
            for tag, vec in (("kernel", kernel), ("conj-kernel", conj_kernel)):
                f = complex(rng.standard_normal(), rng.standard_normal()) * vec(b, w)
                ref_tag, ref_w = clark_classify(f, lam)
                cls = classify_vector(f)
                assert cls.tag == ref_tag == tag
                assert abs(cls.w - ref_w) <= 1e-9
            if b.degree >= 3:
                f = random_vector(rng, build_basis(b, "tm"))
                assert classify_vector(f).tag == clark_classify(f, lam)[0] == "neither"
                f = ModelVector(build_basis(b, "clark", lam), np.eye(b.degree)[0]
                                + np.eye(b.degree)[1])
                assert classify_vector(f).tag == clark_classify(f, lam)[0] == "neither"


class TestDecomposeRankOne:
    def test_round_trip_both_variants(self, rng):
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        for variant in ("conjk-kernel", "kernel-conjk"):
            for _ in range(10):
                w = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
                c = complex(rng.standard_normal() + 1j * rng.standard_normal())
                mat = c * standard_rank_one(alpha, beta, w, variant)
                dec = decompose_rank_one(mat)
                assert dec.tag == "standard"
                assert dec.variant == variant
                assert abs(dec.w - w) <= 1e-7
                rec = complex(dec.scale) * standard_rank_one(alpha, beta, dec.w, dec.variant)
                assert np.max(np.abs(rec.entries - mat.entries)) <= 1e-7 * (1 + mat.max_abs)

    def test_two_by_two_never_nonstandard(self, rng):
        alpha, beta, *_ = shared_clark_instance(rng, 2, 2, 0)
        for _ in range(100):
            w = np.sqrt(rng.random()) * random_unimodular(rng) * 0.95
            variant = "conjk-kernel" if rng.random() < 0.5 else "kernel-conjk"
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            dec = decompose_rank_one(c * standard_rank_one(alpha, beta, w, variant))
            assert dec.tag == "standard"

    def test_small_pairs_always_standard(self, rng):
        # degree pairs (1,1), (2,1), (1,2): every rank-one member is standard
        for (m, n) in [(1, 1), (2, 1), (1, 2)]:
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            for _ in range(25):
                f = random_vector(rng, build_basis(alpha, "tm"))
                g = random_vector(rng, build_basis(beta, "tm"))
                dec = decompose_rank_one(rank_one(g, f))
                assert dec.tag == "standard"

    def test_line_to_big_space_has_nonstandard(self, rng):
        # degrees (1, 3): the witness vector in the output space is neither
        alpha = random_blaschke(rng, 1)
        beta = random_blaschke(rng, 3)
        cb = build_basis(beta, "clark", 1.0)
        g = ModelVector(cb, np.array([1.0, 1.0, 0.0]))
        f = random_vector(rng, build_basis(alpha, "tm"))
        dec = decompose_rank_one(rank_one(g, f))
        assert dec.tag == "nonstandard"

    def test_rank_two_rejected(self, rng):
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        a = standard_rank_one(alpha, beta, 0.1, "conjk-kernel").entries \
            + standard_rank_one(alpha, beta, 0.5j, "conjk-kernel").entries
        mat = OperatorMatrix(a, build_basis(alpha, "tm"), build_basis(beta, "tm"))
        with pytest.raises(ValueError):
            decompose_rank_one(mat)

    def test_nonmember_rank_one_rejected(self, rng):
        alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 0)
        g = ModelVector(build_basis(beta, "clark", lam2), np.eye(2)[0])
        f = ModelVector(build_basis(alpha, "clark", lam1), np.eye(3)[0])
        with pytest.raises(ValueError):
            decompose_rank_one(rank_one(g, f))

    def test_converse_of_pairing_lemma(self, rng):
        # g = k_w in K_beta with f not a conjugate-kernel multiple: not a member
        alpha, beta, *_ = shared_clark_instance(rng, 3, 2, 0)
        w = 0.4 + 0.2j
        g = kernel(beta, w)
        f = kernel(alpha, w)            # wrong partner type
        from attokit.membership import test_rank_two_residual as check
        assert not check(rank_one(g, f)).is_member


class TestExample41:
    def test_membership_all_methods(self):
        alpha, beta, mat = example_4_1(0.5)
        pairing = clark_pairing(alpha, beta, 1.0, 1.0)
        res = run_all(mat, pairing)
        assert res["member"]

    def test_decomposition_is_nonstandard(self):
        for a in (0.5, 0.3 + 0.2j, 0.9j, -0.05 + 0.02j, 0.99, 0.7 - 0.7j, 1e-3):
            _, _, mat = example_4_1(a)
            assert decompose_rank_one(mat).tag == "nonstandard"

    def test_half_candidates_exact(self):
        cands = example_4_1_candidates(0.5)
        assert abs(cands["kernel"][0] - 2.0 / 7.0) <= 1e-12
        assert abs(cands["kernel"][1] - 2.0 / 9.0) <= 1e-12
        assert abs(cands["conj-kernel"][0] - 7.0 / 2.0) <= 1e-12
        assert abs(cands["conj-kernel"][1] - 9.0 / 2.0) <= 1e-12

    def test_conj_candidates_always_outside_disk(self, rng):
        for _ in range(20):
            a = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
            if abs(a) < 0.05:
                continue
            cands = example_4_1_candidates(a)
            assert all(abs(w) > 1 for w in cands["conj-kernel"])

    def test_rejects_zero_parameter(self):
        with pytest.raises(ValueError):
            example_4_1(0.0)

    def test_first_kernel_candidate_fits_two_of_three_pairings(self):
        # the candidate from the k_a equation reproduces the first two pairings
        # but not the third, which is what kills a single-w representation
        a = 0.5
        alpha, beta, mat = example_4_1(a)
        f = kernel(alpha, 0.0) + kernel(alpha, a)
        w1 = a / (2 - abs(a) ** 2)
        from attokit.modelspace import inner_product
        k1 = kernel(alpha, w1)
        r0 = inner_product(f, kernel(alpha, 0.0)) / inner_product(k1, kernel(alpha, 0.0))
        ra = inner_product(f, kernel(alpha, a)) / inner_product(k1, kernel(alpha, a))
        rma = inner_product(f, kernel(alpha, -a)) / inner_product(k1, kernel(alpha, -a))
        assert abs(r0 - ra) <= 1e-12
        assert abs(r0 - rma) > 1e-2


class TestBoundaryIdentity:
    def test_monomial_exact(self):
        assert boundary_kernel_identity_check(monomial(2), 1.0) <= 1e-14
        assert boundary_kernel_identity_check(monomial(2), 1j) <= 1e-12

    def test_random_sweep(self, rng):
        b = random_blaschke(rng, 5)
        for _ in range(20):
            assert boundary_kernel_identity_check(b, random_unimodular(rng)) <= 1e-9

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            boundary_kernel_identity_check(monomial(2), 0.5)


class TestConsistency:
    def test_no_nonstandard_for_bigger_degrees(self, rng):
        # 500 random standard rank-ones across (3,2) and (2,2) decompose standard
        for (m, n) in [(3, 2), (2, 2)]:
            alpha, beta, *_ = shared_clark_instance(rng, m, n, 0)
            for _ in range(250):
                w = 0.95 * np.sqrt(rng.random()) * random_unimodular(rng)
                variant = "conjk-kernel" if rng.random() < 0.5 else "kernel-conjk"
                c = complex(rng.standard_normal() + 1j * rng.standard_normal())
                while abs(c) < 1e-3:
                    c = complex(rng.standard_normal() + 1j * rng.standard_normal())
                dec = decompose_rank_one(c * standard_rank_one(alpha, beta, w, variant))
                assert dec.tag == "standard"

import gc
import json
import weakref

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attokit import clark_points
from attokit.blaschke import (BlaschkeProduct, ClarkPointSet, RootCollisionError,
                              evaluate, monomial)
from attokit.config import Tolerances
from attokit.instances import (member_matrix, random_blaschke, random_symbol,
                               random_unimodular, random_vector)
from attokit.membership import clark_pairing, recover_chi_psi_clark, run_all
from attokit.operators import OperatorMatrix, atto_matrix
from attokit.modelspace import (BASIS_KINDS, CLARK_ENTRIES, ModelBasis, ModelVector,
                                QuadratureError, build_basis, change_of_basis, circle_nodes,
                                clark_basis, conj_kernel, conjugation,
                                doubling_circle_mean, inner_product, kernel,
                                multiply_by_z, project, tm_values, tm_vector)
from test_blaschke import derivative
from test_operators import (SINGLE_MEAN_START, counted_tm_values, first_level_nodes,
                            fresh_level_circle_mean)


def circle_mean(fn):
    """Circle mean of ``fn(nodes)``, whose last axis runs over the nodes."""
    return doubling_circle_mean(lambda *node_sets: [fn(z).sum(-1) for z in node_sets])


def quadrature_gram(b):
    """Independent Gram oracle: pairwise circle integrals of the TM basis."""
    def fn(z):
        vals = tm_values(b, z)
        return vals[None, :, :] * np.conj(vals)[:, None, :]
    return circle_mean(fn)


def power_basis_numerators(b):
    """Column k: power coefficients of the numerator of phi_k over
    q(z) = prod (1 - conj(a_j) z), i.e. of
    s_k prod_{j<k} (z - a_j) prod_{j>k} (1 - conj(a_j) z)."""
    m = b.degree
    numer = np.zeros((m, m), dtype=complex)
    for k in range(m):
        poly = np.array([np.sqrt(1.0 - abs(b.zeros[k]) ** 2)], dtype=complex)
        for j in range(k):
            poly = npoly.polymul(poly, [-b.zeros[j], 1.0])
        for j in range(k + 1, m):
            poly = npoly.polymul(poly, [1.0, -np.conj(b.zeros[j])])
        numer[: len(poly), k] = poly
    return numer


def power_basis_conj_tm(b):
    """Reference conjugation: numerator coefficient reversal,
    C(p/q) = front (-1)^m rev(p)/q with rev(p)_i = conj(p_{m-1-i})."""
    numer = power_basis_numerators(b)
    return np.linalg.solve(numer, b.front * (-1.0) ** b.degree * np.conj(numer[::-1, :]))


def kernel_route_conjugation(f):
    """Reference conjugation: C k_w = conj-kernel_w extended antilinearly
    over a kernel basis at m interior points."""
    b = f.space
    m = b.degree
    pts = 0.4 * np.exp(2j * np.pi * np.arange(m) / m) + 0.11
    kmat = np.column_stack([kernel(b, w).tm() for w in pts])
    ktil = np.column_stack([conj_kernel(b, w).tm() for w in pts])
    c = np.linalg.solve(kmat, f.tm())
    return tm_vector(b, ktil @ np.conj(c)).to(f.basis)


def power_basis_multiply_by_z(b, coords):
    """Reference z-multiplication: shift the numerator coefficients up by one."""
    numer = power_basis_numerators(b)
    p = numer @ coords
    shifted = np.zeros_like(p)
    shifted[1:] = p[:-1]
    return np.linalg.solve(numer, shifted)


def small_products(rng):
    """Degrees 1-8, with repeated zeros and zeros at the origin mixed in."""
    products = [monomial(1), monomial(5), BlaschkeProduct((0.0, 0.5, 0.5, 0.0, -0.3j))]
    for degree in range(1, 9):
        for variant in range(3):
            zeros = list(random_blaschke(rng, degree).zeros)
            if variant == 1 and degree >= 2:
                zeros[-1] = zeros[0]
            if variant == 2:
                zeros[int(rng.integers(degree))] = 0.0
            products.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
    return products


def degree_64_products(rng):
    """Degree 64 with |a| <= 0.95, and the same with one zero at |a| = 0.9999."""
    out = []
    for near in (False, True):
        zeros = list(random_blaschke(rng, 64, radius=0.95).zeros)
        if near:
            zeros[7] = 0.9999 * random_unimodular(rng)
        out.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
    return out


def two_denominator_tm_values(b, z):
    """TM values with 1 - conj(a) z formed twice per zero, once for the value
    and once for the running product."""
    zarr = np.asarray(z, dtype=complex)
    vals = np.empty((b.degree,) + zarr.shape, dtype=complex)
    running = np.ones_like(zarr)
    for k, a in enumerate(b.zeros):
        vals[k] = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * zarr) * running
        running = running * (zarr - a) / (1.0 - np.conj(a) * zarr)
    return vals


def cauchy_means(a, c):
    """Integrand with known circle means, stacked on the first axis:
    1/(1 - a conj(z)) -> 1,  z/(1 - a conj(z)) -> a,
    1/((1 - a conj(z))(1 - conj(c) z)) -> 1/(1 - a conj(c))."""
    def fn(z):
        da = 1.0 - a * np.conj(z)
        return np.stack([1.0 / da, z / da, 1.0 / (da * (1.0 - np.conj(c) * z))])
    exact = np.array([1.0, a, 1.0 / (1.0 - a * np.conj(c))])
    return fn, exact


class TestCircleQuadrature:
    def test_odd_nodes_complete_the_previous_level(self):
        for n in (1, 2, 256, 4096, 1 << 15):
            full = circle_nodes(2 * n)
            assert np.array_equal(full[::2], circle_nodes(n))

    def test_known_means_match_fresh_levels(self, rng):
        for radius in (0.0, 0.5, 0.9, 0.95, 0.99):
            a = radius * random_unimodular(rng)
            c = 0.8 * random_unimodular(rng)
            fn, exact = cauchy_means(a, c)
            calls = []

            def node_sum(*node_sets):
                calls.append(node_sets)
                return [fn(z).sum(-1) for z in node_sets]

            nested = doubling_circle_mean(node_sum)
            level_mean = lambda n: np.mean(fn(circle_nodes(n)), axis=-1)   # noqa: E731
            ref, n_ref = fresh_level_circle_mean(level_mean)
            _, n_single = fresh_level_circle_mean(level_mean, **SINGLE_MEAN_START)
            nodes = np.concatenate([z for sets in calls for z in sets])
            assert len(nodes) == n_ref <= n_single
            assert np.array_equal(np.concatenate(calls[0]), first_level_nodes())
            for (z,) in calls[1:]:                # exactly the new odd nodes
                assert np.array_equal(z, circle_nodes(2 * len(z))[1::2])
            assert np.max(np.abs(nested - ref)) <= 1e-15 * np.max(np.abs(ref))
            assert np.max(np.abs(nested - exact)) <= 1e-12

    def test_error_after_full_ladder(self):
        evaluated = []

        def node_sum(*node_sets):
            evaluated.extend(len(z) for z in node_sets)
            return [np.sum(1.0 / (z - (1.0 + 1e-7) * np.exp(0.1j))) for z in node_sets]

        with pytest.raises(QuadratureError, match="did not converge below 1e-12 at 32768 nodes"):
            doubling_circle_mean(node_sum)
        assert sum(evaluated) == 1 << 15

    def test_doubling_nodes_are_the_bytes_of_the_sliced_level(self):
        calls = []

        def node_sum(*node_sets):
            calls.append(node_sets)
            return [np.sum(1.0 / (z - (1.0 + 1e-7) * np.exp(0.1j))) for z in node_sets]

        with pytest.raises(QuadratureError):
            doubling_circle_mean(node_sum)
        assert [[len(z) for z in sets] for sets in calls] == \
            [[64, 64, 128]] + [[256 << k] for k in range(7)]
        first = calls[0]                          # 64 nodes, then the odd halves of 128 and 256
        assert np.concatenate(first).tobytes() == first_level_nodes().tobytes()
        assert first[0].tobytes() == circle_nodes(64).tobytes()
        assert first[1].tobytes() == circle_nodes(128)[1::2].tobytes()
        assert first[2].tobytes() == circle_nodes(256)[1::2].tobytes()
        for (z,) in calls[1:]:                    # doublings to 512 ... 32768 nodes
            assert z.tobytes() == circle_nodes(2 * len(z))[1::2].tobytes()


def mp_tm_values(b, z, mp):
    """TM values at the points ``z`` (1-D) in mpmath at the working precision."""
    out = np.empty((b.degree, len(z)), dtype=complex)
    for i, w in enumerate(z):
        w, running = mp.mpc(w), mp.mpf(1)
        for k, a in enumerate(b.zeros):
            a = mp.mpc(a)
            den = 1 - mp.conj(a) * w
            out[k, i] = complex(mp.sqrt(1 - abs(a) ** 2) / den * running)
            running *= (w - a) / den
    return out


class TestTakenakaMalmquist:
    def test_one_division_agrees_with_two_denominators(self, rng):
        products = small_products(rng) + degree_64_products(rng)
        products += [random_blaschke(rng, d, radius=0.95) for d in (16, 24, 32, 48)]
        near = list(random_blaschke(rng, 64, radius=0.95).zeros)
        near[::5] = [0.9999 * random_unimodular(rng) for _ in near[::5]]
        near[3], near[10] = near[2], 0.0              # a repeated zero and one at the origin
        products += [BlaschkeProduct(tuple(near)), BlaschkeProduct((0.0,)),
                     BlaschkeProduct((0.6 - 0.7j,)), BlaschkeProduct((0.3j,) * 4)]
        points = [0.0, 0.3 - 0.4j, np.exp(0.7j), circle_nodes(64),
                  0.9 * rng.random((3, 5)) * np.exp(2j * np.pi * rng.random((3, 5)))]
        for b in products:
            for z in points + [b.zeros[0], np.array(b.zeros)]:
                vals, ref = tm_values(b, z), two_denominator_tm_values(b, z)
                assert vals.shape == ref.shape == (b.degree,) + np.shape(z)
                scale = np.abs(ref).max(axis=0)       # per point
                assert np.all(np.abs(vals - ref).max(axis=0) <= 1e-14 * scale), (b.degree, z)

    def test_against_extended_precision(self, rng):
        mpmath = pytest.importorskip("mpmath")
        inside = 0.95 * rng.random(16) * np.exp(2j * np.pi * rng.random(16))
        z = np.concatenate([circle_nodes(32), inside])
        for degree in (6, 16, 64):
            b = random_blaschke(rng, degree, radius=0.95)
            with mpmath.workdps(40):
                ref = mp_tm_values(b, z, mpmath.mp)
            err = np.abs(tm_values(b, z) - ref).max(axis=0) / np.abs(ref).max(axis=0)
            assert err.max() <= 4e-15, degree

    def test_monomial_case_is_power_basis(self):
        vals = tm_values(monomial(3), np.array([0.5 + 0.2j]))
        z = 0.5 + 0.2j
        assert np.allclose(vals[:, 0], [1.0, z, z * z])

    def test_gram_identity_random_degree_five(self, rng):
        b = random_blaschke(rng, 5)
        assert np.max(np.abs(quadrature_gram(b) - np.eye(5))) <= 1e-10

    def test_gram_identity_with_multiplicities(self, rng):
        b = BlaschkeProduct((0.3, 0.3, -0.2 + 0.4j))
        assert np.max(np.abs(quadrature_gram(b) - np.eye(3))) <= 1e-10


class TestKernel:
    def test_constant_kernel_at_zero(self):
        k = kernel(monomial(2), 0.0)
        assert np.allclose(k.coeffs, [1.0, 0.0])

    def test_half_point_against_polynomial_division(self):
        # (1 - z^2/4) / (1 - z/2) by long division
        quot, rem = npoly.polydiv([1.0, 0.0, -0.25], [1.0, -0.5])
        assert np.allclose(rem, 0.0)
        k = kernel(monomial(2), 0.5)
        assert np.allclose(k.coeffs, quot)

    def test_reproducing_property(self, rng):
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            f = random_vector(rng, build_basis(b, "tm"))
            w = np.sqrt(rng.random()) * random_unimodular(rng)
            err = abs(inner_product(f, kernel(b, w)) - f(w))
            assert err <= 1e-9 * (1 + f.norm())

    def test_rejects_point_outside_closed_disk(self):
        with pytest.raises(ValueError):
            kernel(monomial(2), 1.5)


class TestConjKernel:
    def test_monomial_at_zero(self):
        assert np.allclose(conj_kernel(monomial(2), 0.0).coeffs, [0.0, 1.0])

    def test_half_point_against_polynomial_division(self):
        # (z^2 - 1/4) / (z - 1/2) = z + 1/2
        quot, rem = npoly.polydiv([-0.25, 0.0, 1.0], [-0.5, 1.0])
        assert np.allclose(rem, 0.0)
        assert np.allclose(conj_kernel(monomial(2), 0.5).coeffs, quot)

    def test_value_at_center_is_derivative(self, rng):
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            w = 0.8 * np.sqrt(rng.random()) * random_unimodular(rng)
            kt = conj_kernel(b, w)
            assert kt(w) == pytest.approx(derivative(b, w), abs=1e-10)

    def test_boundary_identity(self, rng):
        # k_w = conj(B(w)) w ktilde_w on the circle
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            w = random_unimodular(rng)
            lhs = kernel(b, w).tm()
            rhs = np.conj(evaluate(b, w)) * w * conj_kernel(b, w).tm()
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.linalg.norm(lhs)


def per_round_conj_tm(b):
    """The conjugation network as it was first written: each round gathers its
    pairs, evaluates their (x, u, y) and swaps the zeros and the s values
    along with the rows."""
    a = np.array(b.zeros)
    s = np.sqrt(1.0 - np.abs(a) ** 2)
    m = b.degree
    rows = np.eye(m, dtype=complex)
    for rnd in range(m):
        p = np.arange(rnd % 2, m - 1, 2)
        q = p + 1
        d = s[p] ** 2 + a[p] * np.conj(a[p] - a[q])
        x = (s[p] * s[q] / d)[:, None]
        u = ((a[p] - a[q]) / d)[:, None]
        y = ((np.conj(a[q]) - np.conj(a[p])) / d)[:, None]
        top, bottom = rows[p], rows[q]
        rows[p], rows[q] = x * top + y * bottom, u * top + x * bottom
        a[p], a[q] = a[q], a[p]
        s[p], s[q] = s[q], s[p]
    return b.front * (-1.0) ** m * rows[::-1].T


class TestExactConjugation:
    def test_bit_identical_to_the_per_round_network(self, rng):
        for degree in range(1, 65):
            for radius in (0.5, 0.95, 0.9999):
                zeros = list(random_blaschke(rng, degree, radius=radius).zeros)
                if degree >= 3:
                    zeros[1] = zeros[0]
                    zeros[degree // 2] = 0.0
                    zeros[-1] = 0.9999 * random_unimodular(rng)
                b = BlaschkeProduct(tuple(zeros), random_unimodular(rng))
                assert b.model_space.conj.tobytes() == per_round_conj_tm(b).tobytes(), degree

    def test_matches_power_basis_reference(self, rng):
        for b in small_products(rng):
            assert np.max(np.abs(b.model_space.conj - power_basis_conj_tm(b))) <= 1e-13

    def test_involution_and_symmetry_at_degree_64(self, rng):
        for b in degree_64_products(rng):
            c = b.model_space.conj
            assert np.max(np.abs(c @ np.conj(c) - np.eye(64))) <= 1e-13
            assert np.max(np.abs(c - c.T)) <= 1e-13

    def test_conj_kernel_is_difference_quotient_at_degree_64(self, rng):
        z = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
        for b in degree_64_products(rng):
            for _ in range(4):
                w = 0.7 * np.sqrt(rng.random()) * random_unimodular(rng)
                ref = (evaluate(b, z) - evaluate(b, w)) / (z - w)
                assert np.max(np.abs(conj_kernel(b, w)(z) - ref)) <= 1e-12

    def test_closed_form_at_origin(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            full = b.model_space.conj @ tm_values(b, 0.0)
            assert np.max(np.abs(b.model_space.kt0 - full)) <= 1e-14

    def test_involution_for_a_triple_zero_next_to_the_circle(self):
        # equal zeros swap by the identity only if d = 1 - a conj(c) is
        # rounded like s_a s_c; rounded apart, the defect here is 3.3e-12
        a = 0.537157428086792 + 0.8433634492027638j           # |a| = 0.9999
        b = BlaschkeProduct((a, a, a), -0.09675302298241523 - 0.9953084208142541j)
        c = b.model_space.conj
        assert np.max(np.abs(c @ np.conj(c) - np.eye(3))) <= 1e-14


class TestConjugation:
    def test_is_involution(self, rng):
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            f = random_vector(rng, build_basis(b, "tm"))
            assert (conjugation(conjugation(f)) - f).norm() <= 1e-9 * (1 + f.norm())

    def test_antilinearity(self, rng):
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(2, 6)))
            basis = build_basis(b, "tm")
            f, g = random_vector(rng, basis), random_vector(rng, basis)
            a_c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            b_c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            lhs = conjugation(a_c * f + b_c * g)
            rhs = np.conj(a_c) * conjugation(f) + np.conj(b_c) * conjugation(g)
            assert (lhs - rhs).norm() <= 1e-9 * (1 + lhs.norm())

    def test_isometry_reverses_pairings(self, rng):
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            basis = build_basis(b, "tm")
            f, g = random_vector(rng, basis), random_vector(rng, basis)
            lhs = inner_product(conjugation(f), conjugation(g))
            rhs = inner_product(g, f)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_sends_kernel_to_conj_kernel(self, rng):
        for _ in range(50):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            w = 0.95 * np.sqrt(rng.random()) * random_unimodular(rng)
            lhs = conjugation(kernel(b, w)).tm()
            rhs = conj_kernel(b, w).tm()
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_boundary_and_kernel_methods_agree(self, rng):
        for _ in range(50):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            f = random_vector(rng, build_basis(b, "tm"))
            d = (conjugation(f) - kernel_route_conjugation(f)).norm()
            assert d <= 1e-9 * (1 + f.norm())

    def test_matches_sampled_boundary_formula(self, rng):
        # project B(z) conj(z) conj(f(z)) sampled on the circle and compare
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 5)))
            f = random_vector(rng, build_basis(b, "tm"))
            sampled = project(b, lambda z: evaluate(b, z) * np.conj(z) * np.conj(f(z)))
            assert (conjugation(f) - sampled).norm() <= 1e-9 * (1 + f.norm())

    def test_fixes_modified_clark_vectors(self, rng):
        for _ in range(25):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            lam = random_unimodular(rng)
            basis = build_basis(b, "modified-clark", lam)
            for j in range(b.degree):
                e = ModelVector(basis, np.eye(b.degree)[j])
                assert (conjugation(e) - e).norm() <= 1e-9

    def test_modified_clark_phases_for_monomial(self):
        # eta = {1, -1}, target = lam = 1: omega = (1, exp(-i pi/2)) = (1, -i),
        # the ratio of each modified-Clark column to its Clark column
        modified = build_basis(monomial(2), "modified-clark", 1.0).matrix
        clark = build_basis(monomial(2), "clark", 1.0).matrix
        assert np.allclose(modified / clark, [[1.0, -1j], [1.0, -1j]])


class TestInnerProduct:
    def test_kernel_pairing_is_point_evaluation(self, rng):
        for _ in range(50):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            w = np.sqrt(rng.random()) * random_unimodular(rng) * 0.9
            v = np.sqrt(rng.random()) * random_unimodular(rng) * 0.9
            kw, kv = kernel(b, w), kernel(b, v)
            assert abs(inner_product(kw, kv) - kw(v)) <= 1e-10 * (1 + abs(kw(v)))

    def test_clark_point_norm_squared_is_weight(self, rng):
        for _ in range(25):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            cp = clark_points(b, random_unimodular(rng))
            for eta, w in zip(cp.points, cp.weights):
                k = kernel(b, eta)
                assert abs(inner_product(k, k) - w) <= 1e-8 * w

    def test_monomial_orthogonality(self):
        b = monomial(2)
        one = tm_vector(b, [1.0, 0.0])
        zed = tm_vector(b, [0.0, 1.0])
        assert inner_product(one, zed) == pytest.approx(0.0)

    def test_space_mismatch_raises(self, rng):
        f = random_vector(rng, build_basis(monomial(2), "tm"))
        g = random_vector(rng, build_basis(monomial(3), "tm"))
        with pytest.raises(ValueError):
            inner_product(f, g)


class TestBases:
    def test_clark_basis_of_monomial(self):
        basis = build_basis(monomial(2), "clark", 1.0)
        # v_1 = k_1/sqrt(2) = (1+z)/sqrt(2), v_2 = k_{-1}/sqrt(2) = (1-z)/sqrt(2)
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(basis.matrix, expect)
        assert np.max(np.abs(basis.gram - np.eye(2))) <= 1e-10

    def test_orthonormal_kinds_have_identity_gram(self, rng):
        for _ in range(20):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            lam = random_unimodular(rng)
            for kind in ("tm", "clark", "modified-clark"):
                basis = build_basis(b, kind, lam)
                assert np.max(np.abs(basis.gram - np.eye(b.degree))) <= 1e-10

    def test_kernel_zeros_gram_positive_definite(self, rng):
        b = random_blaschke(rng, 4)
        basis = build_basis(b, "kernel-zeros")
        eigs = np.linalg.eigvalsh(basis.gram)
        assert np.all(eigs > 0)

    def test_kernel_zeros_rejects_multiplicity(self):
        with pytest.raises(ValueError):
            build_basis(BlaschkeProduct((0.3, 0.3)), "kernel-zeros")

    def test_kernel_zeros_separation_above_one(self):
        # zeros +-0.6 are 1.2 apart; a zero is never compared with itself
        b = BlaschkeProduct((0.6, -0.6))
        assert build_basis(b, "kernel-zeros", tol=Tolerances(distinct=1.1)).dim == 2
        with pytest.raises(ValueError):
            build_basis(b, "kernel-zeros", tol=Tolerances(distinct=1.3))

    def test_clark_requires_lambda(self):
        with pytest.raises(ValueError):
            build_basis(monomial(2), "clark")

    def test_change_of_basis_identity(self, rng):
        b = random_blaschke(rng, 3)
        basis = build_basis(b, "tm")
        assert np.allclose(change_of_basis(basis, basis), np.eye(3))

    def test_change_of_basis_round_trip(self, rng):
        b = random_blaschke(rng, 4)
        ca = build_basis(b, "clark", 1.0)
        tm = build_basis(b, "tm")
        t1 = change_of_basis(ca, tm)
        t2 = change_of_basis(tm, ca)
        assert np.max(np.abs(t2 @ t1 - np.eye(4))) <= 1e-10
        f = random_vector(np.random.default_rng(0), ca)
        assert np.max(np.abs(t2 @ (t1 @ f.coeffs) - f.coeffs)) <= 1e-9

    def test_change_between_orthonormal_bases_is_unitary(self, rng):
        b = random_blaschke(rng, 4)
        t = change_of_basis(build_basis(b, "clark", 1.0),
                            build_basis(b, "modified-clark", 1j))
        assert np.max(np.abs(t.conj().T @ t - np.eye(4))) <= 1e-10

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            change_of_basis(build_basis(monomial(2), "tm"),
                            build_basis(monomial(3), "tm"))


class TestMultiplyByZ:
    def test_projection_fixes_admissible_products(self, rng):
        from attokit.membership import shift_domain_basis
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(2, 6)))
            fs = shift_domain_basis(b)
            coeffs = rng.standard_normal(len(fs)) + 1j * rng.standard_normal(len(fs))
            f = tm_vector(b, sum(c * v.tm() for c, v in zip(coeffs, fs)))
            assert abs(inner_product(f, conj_kernel(b, 0.0))) <= 1e-9
            zf = multiply_by_z(f)
            proj = project(b, lambda z: z * f(z))
            assert (zf - proj).norm() <= 1e-9 * (1 + f.norm())

    def test_rejects_inadmissible_vector(self, rng):
        b = random_blaschke(rng, 3)
        kt = conj_kernel(b, 0.0)
        with pytest.raises(ValueError):
            multiply_by_z(kt)

    def test_matches_power_basis_reference(self, rng):
        for b in small_products(rng):
            if b.degree < 2:
                continue
            f = b.model_space.shift_domain
            zf = b.model_space.multiply_by_z(f)
            assert np.max(np.abs(zf - power_basis_multiply_by_z(b, f))) <= 1e-13
            kt = conj_kernel(b, 0.0).tm()
            with pytest.raises(ValueError):
                b.model_space.multiply_by_z(np.column_stack([f[:, 0], kt]))


class TestModelSpace:
    def test_one_read_only_tm_basis(self, rng):
        b = random_blaschke(rng, 4)
        basis = build_basis(b, "tm")
        identity = b.model_space.identity
        assert basis.matrix is identity and build_basis(b, "tm").matrix is identity
        assert np.array_equal(identity, np.eye(4)) and not identity.flags.writeable
        for vec in (tm_vector(b, np.ones(4)), kernel(b, 0.0), kernel(b, 0.3j),
                    conj_kernel(b, 0.0), conj_kernel(b, 0.3j), random_vector(rng, basis)):
            assert vec.basis.matrix is identity and vec.basis.is_tm

    def test_tm_vectors_add_and_move_with_no_solve(self, monkeypatch):
        a = 0.5
        alpha = BlaschkeProduct((0.0, a, -a), front=-1.0)
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or real(*args))
        f = kernel(alpha, 0.0) + kernel(alpha, a)
        assert calls == []
        assert np.array_equal(f.coeffs, alpha.model_space.k0 + np.conj(tm_values(alpha, a)))
        g = conjugation(conjugation(f))
        moved = [kernel(alpha, 0.3, build_basis(alpha, kind, 1.0)).to(f.basis)
                 for kind in ("clark", "modified-clark", "tm")]
        assert calls == []              # the stored bases carry their inverses
        k = kernel(alpha, 0.3, build_basis(alpha, "kernel-zeros")).to(f.basis)
        assert len(calls) == 1          # only the move into kernel-zeros solves
        assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-15
        for h in moved + [k]:
            assert np.max(np.abs(h.coeffs - np.conj(tm_values(alpha, 0.3)))) <= 1e-15

    def test_k0_from_prefix_products_matches_the_tm_values(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            k0 = b.model_space.k0
            assert np.array_equal(k0, np.conj(tm_values(b, 0.0)))
            coeffs = kernel(b, 0.0).coeffs
            assert np.array_equal(coeffs, k0) and not np.shares_memory(coeffs, k0)

    def test_one_per_product(self, rng):
        b = random_blaschke(rng, 4)
        space = b.model_space
        assert space is b.model_space
        assert (space.zeros, space.front, space.degree) == (b.zeros, b.front, b.degree)
        twin = BlaschkeProduct(b.zeros, b.front)
        assert twin == b and hash(twin) == hash(b)
        assert twin.model_space is not space
        assert BlaschkeProduct.from_json(json.loads(json.dumps(b.to_json()))) == b

    def test_cached_arrays_are_read_only(self, rng):
        b = random_blaschke(rng, 4)
        for name in ("shift", "k0", "kt0", "shift_domain", "shift_image", "conj"):
            arr = getattr(b.model_space, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_b0_is_the_value_at_the_origin(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            b0 = b.model_space.b0
            assert type(b0) is complex and b0 == evaluate(b, 0.0)

    def test_shift_domain_is_the_conj_kernel_complement(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            space = b.model_space
            f = space.shift_domain
            assert f.shape == (b.degree, b.degree - 1)
            assert np.max(np.abs(f.conj().T @ f - np.eye(b.degree - 1)), initial=0.0) <= 1e-14
            assert np.max(np.abs(space.kt0.conj() @ f), initial=0.0) <= 1e-14
            assert space.shift_domain is f
            assert np.array_equal(space.shift_image, space.multiply_by_z(f))
            assert space.shift_image is space.shift_image

    def test_returned_values_do_not_alias_the_cache(self, rng):
        from attokit.operators import compressed_shift
        b = random_blaschke(rng, 4)
        for make in (lambda: conj_kernel(b, 0.0).coeffs, lambda: kernel(b, 0.0).coeffs,
                     lambda: compressed_shift(b).entries):
            first = make()
            expect = first.copy()
            try:
                first[...] = 7.0
            except ValueError:
                pass
            assert np.array_equal(make(), expect)


@pytest.fixture
def no_gc():
    """The cyclic collector off, so that only reference counting frees."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _quadrature(rng, alpha, beta):
    sym = random_symbol(rng, alpha, beta)
    for _ in range(2):              # the second run stores the levels
        atto_matrix(alpha, beta, sym)


def _closed(rng, alpha, beta):
    atto_matrix(alpha, beta, random_symbol(rng, alpha, beta), method="closed")


def _conjugation(rng, alpha, beta):
    conjugation(random_vector(rng, build_basis(alpha, "tm")))


def _every_basis(rng, alpha, beta):
    for b in (alpha, beta):
        for kind in BASIS_KINDS:
            build_basis(b, kind, 1j)


def _membership(rng, alpha, beta):
    pairing = clark_pairing(alpha, beta, 1j, -1.0)
    member = member_matrix(rng, alpha, beta, 1j, -1.0)
    assert run_all(member, pairing)["member"]
    recover_chi_psi_clark(member, pairing)


def _json_round_trip(rng, alpha, beta):
    """Returns the round trip's products and spaces, which must go too."""
    mat = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta),
                      build_basis(alpha, "clark", 1j), build_basis(beta, "modified-clark", -1.0))
    back = OperatorMatrix.from_json(json.loads(json.dumps(mat.to_json())))
    assert np.array_equal(back.entries, mat.entries)
    return [back.alpha, back.beta, back.alpha.model_space, back.beta.model_space]


class TestOwnership:
    @pytest.mark.parametrize("path", [_quadrature, _closed, _conjugation, _every_basis,
                                      _membership, _json_round_trip])
    def test_fresh_pair_freed_on_its_last_reference(self, rng, no_gc, path):
        alpha, beta = random_blaschke(rng, 4), random_blaschke(rng, 3)
        refs = [weakref.ref(x) for x in (alpha, beta, alpha.model_space, beta.model_space)]
        refs += [weakref.ref(x) for x in path(rng, alpha, beta) or ()]
        del alpha, beta
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_basis_or_vector_keeps_its_product_alive(self, rng, no_gc):
        for kind in ("tm", "clark", "modified-clark"):
            basis = build_basis(random_blaschke(rng, 4), kind, 1j)
            assert build_basis(basis.space, kind, 1j).matrix is basis.matrix
        vec = kernel(random_blaschke(rng, 3), 0.2)
        assert vec.basis.matrix is build_basis(vec.space, "tm").matrix and vec.basis.is_tm

    def test_dropped_basis_is_rebuilt_over_the_stored_array(self, rng, no_gc):
        b = random_blaschke(rng, 4)
        for kind in ("tm", "clark", "modified-clark"):
            first = build_basis(b, kind, 1j)
            matrix, ref = first.matrix, weakref.ref(first)
            del first
            assert ref() is None
            again = build_basis(b, kind, 1j)
            assert again.matrix is matrix and not matrix.flags.writeable
            assert again.is_tm == (kind == "tm")
            if kind != "tm":
                assert again.clark is clark_points(b, 1j)
                assert (clark_basis(b, again.clark).matrix
                        is build_basis(b, "clark", 1j).matrix)
        # a hand-built identity is not the stored one
        assert not ModelBasis(b, "tm", np.eye(4, dtype=complex)).is_tm


@pytest.fixture
def solves(monkeypatch):
    """The products passed to boundary_solve, one per call."""
    import attokit.modelspace
    boundary_solve = attokit.modelspace.boundary_solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return boundary_solve(*args, **kwargs)

    monkeypatch.setattr(attokit.modelspace, "boundary_solve", counting)
    return calls


class TestClarkStore:
    def test_every_clark_caller_shares_one_solve(self, rng, solves):
        from attokit.membership import clark_pairing
        b = random_blaschke(rng, 4)
        lam = random_unimodular(rng)
        clark_points(b, lam)
        clark_pairing(b, b, lam, lam)
        build_basis(b, "clark", lam)
        build_basis(b, "modified-clark", lam)
        assert solves == [b]

    def test_rank_one_work_solves_nothing(self, rng, solves):
        from attokit.operators import standard_rank_one
        from attokit.rankone import classify_vector, decompose_rank_one
        alpha, beta = random_blaschke(rng, 4), random_blaschke(rng, 3)
        w = 0.3 + 0.1j
        assert classify_vector(conj_kernel(alpha, w), random_unimodular(rng)).tag == "conj-kernel"
        dec = decompose_rank_one(standard_rank_one(alpha, beta, w, "kernel-conjk"))
        assert dec.variant == "kernel-conjk" and abs(dec.w - w) <= 1e-12
        assert solves == []

    def test_bases_share_the_stored_point_set(self, rng):
        b = random_blaschke(rng, 4)
        lam = random_unimodular(rng)
        cb = build_basis(b, "clark", lam)
        cp = clark_points(b, lam)
        assert cb.clark is cp and build_basis(b, "modified-clark", lam).clark is cp
        assert build_basis(b, "clark", lam).matrix is cb.matrix
        assert clark_basis(b, cp).matrix is cb.matrix
        # a point set built by hand gets a fresh array with the same columns
        by_hand = ClarkPointSet(cp.lam, cp.target, cp.points.copy(), cp.weights.copy())
        fresh = clark_basis(b, by_hand)
        assert fresh.matrix is not cb.matrix and fresh.clark is by_hand
        assert np.array_equal(fresh.matrix, cb.matrix)

    def test_stored_arrays_are_read_only(self, rng):
        b = random_blaschke(rng, 3)
        cp = clark_points(b, 1j)
        arrays = [cp.points, cp.weights, build_basis(b, "clark", 1j).matrix,
                  build_basis(b, "modified-clark", 1j).matrix]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_each_tolerance_has_its_own_entry(self, solves):
        b = monomial(8)
        cp = clark_points(b, 1j)
        assert len(cp.points) == 8
        # the eight points are 0.765 apart: the default set must not pass
        # for a tolerance that rejects them
        with pytest.raises(RootCollisionError):
            clark_points(b, 1j, Tolerances(distinct=0.8))
        narrow = clark_points(b, 1j, Tolerances(distinct=0.75))
        assert narrow is not cp and np.array_equal(narrow.points, cp.points)
        assert clark_points(b, 1j, Tolerances()) is cp
        assert len(solves) == 3

    def test_failed_solve_is_not_stored(self, solves):
        b = monomial(8)
        wide = Tolerances(distinct=0.8)
        for _ in range(2):
            with pytest.raises(RootCollisionError):
                build_basis(b, "clark", 1j, tol=wide)
        assert len(solves) == 2 and b.model_space._clark == {}

    def test_bases_after_the_points_evaluate_nothing(self, rng, monkeypatch):
        b = random_blaschke(rng, 5)
        cp = clark_points(b, 1j)
        entry = b.model_space._clark[1j, Tolerances()]
        seen = counted_tm_values(monkeypatch)
        cb, mb = build_basis(b, "clark", 1j), build_basis(b, "modified-clark", 1j)
        assert clark_basis(b, cp).matrix is cb.matrix is entry.clark_matrix
        assert mb.matrix is entry.modified_matrix
        assert cb.clark is mb.clark is cp
        assert seen == {}

    def test_store_keeps_the_last_entries(self, rng, solves):
        b = random_blaschke(rng, 3)
        lams = np.exp(2j * np.pi * (np.arange(20) + 0.5) / 20)
        sets = [clark_points(b, lam) for lam in lams]
        assert len(b.model_space._clark) == CLARK_ENTRIES == 8
        assert clark_points(b, lams[-1]) is sets[-1]
        assert len(solves) == 20
        again = clark_points(b, lams[0])          # evicted: solved anew
        assert again is not sets[0] and np.array_equal(again.points, sets[0].points)
        assert len(solves) == 21 and len(b.model_space._clark) == 8


class TestSerialization:
    def test_model_vector_round_trip(self, rng):
        b = random_blaschke(rng, 3)
        f = random_vector(rng, build_basis(b, "clark", 1j))
        again = ModelVector.from_json(json.loads(json.dumps(f.to_json())))
        assert again.space == f.space
        assert np.allclose(again.coeffs, f.coeffs)
        assert np.allclose(again.tm(), f.tm())


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_reproducing_property_hypothesis(degree, seed):
    rng = np.random.default_rng(seed)
    b = random_blaschke(rng, degree)
    f = random_vector(rng, build_basis(b, "tm"))
    w = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
    assert abs(inner_product(f, kernel(b, w)) - f(w)) <= 1e-9 * (1 + f.norm())


class TestModifiedShiftStore:
    def test_zero_is_the_shift_and_stores_nothing(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            space = b.model_space
            assert space.modified(0) is space.shift and space.modified(0j) is space.shift
            # bit-equal to the rank-one formula at c = 0
            old = space.shift + 0j * np.outer(space.k0, np.conj(space.kt0))
            assert space.modified(0).tobytes() == old.tobytes()
            assert space._modified == {}

    def test_stored_per_c_read_only_and_bounded(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            space = b.model_space
            cs = [complex(c) for c in rng.standard_normal(CLARK_ENTRIES + 3)
                  + 1j * rng.standard_normal(CLARK_ENTRIES + 3)]
            kept = []
            for c in cs:
                expect = space.shift + c * np.outer(space.k0, np.conj(space.kt0))
                s_c = space.modified(c)                 # the first use stores
                assert space._modified[c] is s_c and not s_c.flags.writeable
                assert s_c.tobytes() == expect.tobytes()
                assert space.modified(c) is s_c
                assert len(space._modified) <= CLARK_ENTRIES
                kept.append(s_c)
            assert list(space._modified) == cs[-CLARK_ENTRIES:]
            assert all(space.modified(c) is s_c
                       for c, s_c in zip(cs[-CLARK_ENTRIES:], kept[-CLARK_ENTRIES:]))
            again = space.modified(cs[0])               # evicted: built anew
            assert again is not kept[0] and again.tobytes() == kept[0].tobytes()
            assert len(space._modified) == CLARK_ENTRIES

    def test_kernel_norms(self, rng):
        for b in small_products(rng) + degree_64_products(rng):
            space = b.model_space
            assert space.k0_norm2 == np.linalg.norm(space.k0) ** 2
            assert space.kt0_norm2 == np.linalg.norm(space.kt0) ** 2

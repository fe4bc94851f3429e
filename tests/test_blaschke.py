import json

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attokit import boundary_solve, build_basis, clark_points, tm_values
from attokit.blaschke import (BlaschkeProduct, PoleProximityError, RootCollisionError,
                              ToleranceBreakdown, evaluate, mobius_target, monomial)
from attokit.config import DEFAULT, Tolerances
from attokit.instances import random_blaschke, random_unimodular


def reference_boundary_solve(b, u):
    """The former power-basis route to the solutions of B(eta) = u, kept as
    an independent reference: roots of front * P - u * q from the companion
    matrix of the power-basis coefficients, four Newton passes on B(eta) - u
    and a radial projection onto the circle, sorted by argument."""
    p = np.array([1.0 + 0.0j])
    q = np.array([1.0 + 0.0j])
    for a in b.zeros:
        p = npoly.polymul(p, [a, -1.0])
        q = npoly.polymul(q, [1.0, -np.conj(a)])
    roots = npoly.polyroots(npoly.polysub(b.front * p, u * q))
    for _ in range(3):
        roots = roots - (evaluate(b, roots) - u) / derivative(b, roots)
    roots = roots / np.abs(roots)
    roots = roots - (evaluate(b, roots) - u) / derivative(b, roots)
    roots = roots / np.abs(roots)
    if np.max(np.abs(evaluate(b, roots) - u)) > DEFAULT.residual:
        raise RuntimeError("reference route failed to polish")
    return roots[np.argsort(np.angle(roots) % (2.0 * np.pi))]


def derivative(b, z):
    """B'(z) by the product rule over Moebius factors, the former library
    routine, kept as an independent reference: each factor has derivative
    (|a|^2 - 1)/(1 - conj(a) z)^2, regular on the closed disk, and prefix
    and suffix products give prod_{i != j} of the factors without dividing."""
    zarr = np.asarray(z, dtype=complex)
    m = b.degree
    fac = np.empty((m,) + zarr.shape, dtype=complex)
    dfac = np.empty_like(fac)
    for j, a in enumerate(b.zeros):
        den = 1.0 - np.conj(a) * zarr
        fac[j] = (a - zarr) / den
        dfac[j] = (abs(a) ** 2 - 1.0) / den ** 2
    pre = np.ones_like(fac)
    suf = np.ones_like(fac)
    for j in range(1, m):
        pre[j] = pre[j - 1] * fac[j - 1]
        suf[m - 1 - j] = suf[m - j] * fac[m - j]
    out = b.front * np.sum(dfac * pre * suf, axis=0)
    return out if out.shape else complex(out)


def loop_evaluate(b, z):
    """B(z) by the one-factor loop, each factor's numerator and denominator
    formed on its own: the reference that ``evaluate`` keeps bit for bit."""
    zarr = np.asarray(z, dtype=complex)
    out = np.full(zarr.shape, b.front, dtype=complex)
    for a in b.zeros:
        out = out * (a - zarr) / (1.0 - np.conj(a) * zarr)
    return out if out.shape else complex(out)


def widest_at(b, radius):
    """b with its outermost zero moved out to modulus ``radius``."""
    zeros = list(b.zeros)
    k = int(np.argmax(np.abs(zeros)))
    zeros[k] = radius * zeros[k] / abs(zeros[k])
    return BlaschkeProduct(tuple(zeros), b.front)


def example_product(a=0.5):
    # -z (a-z)/(1-conj(a)z) (a+z)/(1+conj(a)z): front -1 with zeros {0, a, -a}
    return BlaschkeProduct((0.0, a, -a), front=-1.0)


class TestEvaluate:
    def test_monomial_square_at_i(self):
        assert evaluate(monomial(2), 1j) == pytest.approx(-1.0)

    def test_example_product_vanishes_at_origin(self):
        assert evaluate(example_product(), 0.0) == pytest.approx(0.0)

    def test_single_zero_half_at_one(self):
        b = BlaschkeProduct((0.5,))
        assert evaluate(b, 1.0) == pytest.approx(-1.0)

    def test_boundary_modulus_bulk(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            b = random_blaschke(rng, int(rng.integers(1, 7)))
            z = random_unimodular(rng)
            assert abs(abs(evaluate(b, z)) - 1.0) <= 1e-12

    def test_bit_equal_to_the_loop_reference(self, rng):
        points = [0.0, 0.3 - 0.4j, np.exp(0.7j), np.exp(2j * np.pi * rng.random(17)),
                  0.99 * rng.random((3, 5)) * np.exp(2j * np.pi * rng.random((3, 5)))]
        for degree in range(1, 65):
            zeros = list(random_blaschke(rng, degree).zeros)
            cases = [BlaschkeProduct(tuple(zeros), random_unimodular(rng))]
            if degree >= 3:
                zeros[0], zeros[1], zeros[2] = 0.0, zeros[1], zeros[1]
                zeros[-1] = 0.9999 * random_unimodular(rng)
                cases.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
            for b in cases:
                at_zeros = np.array(b.zeros)           # each factor's numerator vanishes
                for z in points + [b.zeros[-1], at_zeros, at_zeros[None, :], at_zeros[:, None]]:
                    got, ref = evaluate(b, z), loop_evaluate(b, z)
                    assert type(got) is type(ref)
                    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (degree, z)

    def test_interior_contraction(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = random_blaschke(rng, 3)
            z = 0.99 * random_unimodular(rng) * rng.random()
            assert abs(evaluate(b, z)) < 1.0


class TestValidation:
    def test_rejects_zero_on_circle(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((1.0,))

    def test_pole_proximity_guard(self):
        from attokit.blaschke import PoleProximityError
        b = BlaschkeProduct((0.5,))          # pole at 2.0
        with pytest.raises(PoleProximityError):
            evaluate(b, 2.0)
        with pytest.raises(PoleProximityError):
            evaluate(b, 2.0 + 1e-12j)
        # a zero at the origin has no pole; the message names the pole hit
        c = BlaschkeProduct((0.0, 0.5, 0.25j))  # poles at 2 and 4i
        with pytest.raises(PoleProximityError, match=r"pole \(-?0(\.0)?\+4j\)"):
            evaluate(c, np.array([[0.1, 0.2j], [4j, 0.3]]))
        with pytest.raises(PoleProximityError, match=r"pole \(2\+0j\)"):
            evaluate(c, np.array([[0.0, 0.5], [0.1j, 2.0 - 5e-10]]))
        # just outside eps, and at the origin, every point passes
        assert np.isfinite(evaluate(c, np.array([[0.0, 2.0 + 2e-9], [4j - 2e-9j, 0.5]]))).all()
        assert np.isfinite(evaluate(monomial(3), np.array([[0.0, 2.0]]))).all()

    def test_pole_guard_next_to_the_circle_and_outside_the_disk(self):
        # a zero at |a| = 1 - 1e-10 puts its pole 1e-10 outside the circle,
        # within the guard of points on the circle; a point outside the disk
        # is checked however far in the zeros lie
        a = (1.0 - 1e-10) * np.exp(0.3j)
        near = BlaschkeProduct((0.2j, a))
        pole = 1.0 / np.conj(a)
        outside = BlaschkeProduct((0.0, 0.5))   # pole at 2
        for b, z, hit in ((near, pole + 5e-10j * pole, pole),
                          (near, np.array([0.5, np.exp(0.3j)]), pole),
                          (outside, 2.0 + 5e-10, 2.0),
                          (outside, np.array([[1j, 2.0 - 4e-10j]]), 2.0)):
            message = f"evaluation point within 1e-09 of pole {complex(hit)}"
            with pytest.raises(PoleProximityError) as err:
                evaluate(b, z)
            assert str(err.value) == message
        assert np.isfinite(evaluate(near, np.exp(0.3j + 1e-4j))).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(())

    def test_rejects_non_unimodular_front(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((0.1,), front=2.0)

    def test_json_round_trip(self):
        b = BlaschkeProduct((0.25 - 0.1j, 0.3j), front=np.exp(0.4j))
        again = BlaschkeProduct.from_json(json.loads(json.dumps(b.to_json())))
        assert again == b


class TestDerivative:
    def test_monomial_square(self):
        assert derivative(monomial(2), 1.0) == pytest.approx(2.0)

    def test_clark_weight_of_monomial(self):
        assert abs(derivative(monomial(2), -1.0)) == pytest.approx(2.0)

    def test_degree_two_against_finite_differences(self):
        b = BlaschkeProduct((0.0, 0.5))      # z (0.5 - z)/(1 - z/2) up to sign
        z = 1.0 + 0.0j
        h = 1e-6
        fd = (evaluate(b, z + h) - evaluate(b, z - h)) / (2 * h)
        assert derivative(b, z) == pytest.approx(fd, abs=1e-8)

    def test_random_against_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = random_blaschke(rng, int(rng.integers(1, 7)))
            z = 0.9 * np.sqrt(rng.random()) * random_unimodular(rng)
            h = 1e-6
            fd = (evaluate(b, z + h) - evaluate(b, z - h)) / (2 * h)
            d = derivative(b, z)
            assert abs(d - fd) <= 1e-6 * (1 + abs(d))

    def test_at_repeated_zero(self):
        b = BlaschkeProduct((0.3, 0.3))
        assert derivative(b, 0.3) == pytest.approx(0.0, abs=1e-14)


class TestBoundarySolve:
    def test_square_roots_of_unity(self):
        roots = boundary_solve(monomial(2), 1.0)
        assert np.allclose(sorted(roots, key=lambda z: z.real), [-1.0, 1.0])

    def test_cube_roots_of_minus_one(self):
        roots = boundary_solve(monomial(3), -1.0)
        expect = sorted(np.roots([1, 0, 0, 1]), key=np.angle)
        assert np.allclose(sorted(roots, key=np.angle), expect)

    def test_example_product_residuals(self):
        b = example_product()
        roots = boundary_solve(b, 1.0)
        assert len(roots) == 3
        assert np.max(np.abs(evaluate(b, roots) - 1.0)) < 1e-10
        diff = np.abs(roots[:, None] - roots[None, :]) + np.eye(3)
        assert np.min(diff) > 1e-6

    def test_rejects_interior_target(self):
        with pytest.raises(ValueError):
            boundary_solve(monomial(2), 0.5)

    def test_residuals_over_many_products(self, rng):
        for _ in range(300):
            b = random_blaschke(rng, 2)
            target = random_unimodular(rng)
            assert np.max(np.abs(evaluate(b, boundary_solve(b, target)) - target)) < 1e-10

    def test_collision_guard(self):
        # the eight points of monomial(8) are 2 sin(pi/8) = 0.765 apart
        wide = Tolerances(distinct=0.8)
        with pytest.raises(RootCollisionError, match=r"^two boundary points lie within 0\.8: "):
            boundary_solve(monomial(8), 1.0, wide)
        with pytest.raises(RootCollisionError):
            clark_points(monomial(8), 1j, wide)
        assert len(boundary_solve(monomial(8), 1.0, Tolerances(distinct=0.75))) == 8
        # the four points of monomial(4) are sqrt(2) = 1.414 apart; a point
        # is never compared with itself, so separations >= 1 are judged too
        assert len(boundary_solve(monomial(4), 1.0, Tolerances(distinct=1.4))) == 4
        with pytest.raises(RootCollisionError):
            boundary_solve(monomial(4), 1.0, Tolerances(distinct=1.5))

    def test_residual_guard(self, rng):
        b = random_blaschke(rng, 8)
        target = random_unimodular(rng)
        achieved = np.max(np.abs(evaluate(b, boundary_solve(b, target)) - target))
        assert 0.0 < achieved <= DEFAULT.residual
        with pytest.raises(RuntimeError) as err:
            boundary_solve(b, target, Tolerances(residual=achieved / 2))
        assert err.type is ToleranceBreakdown
        assert str(err.value).startswith(
            f"boundary points miss the target by more than {achieved / 2}: max residual ")
        assert "polish" not in str(err.value)


def reference_cases(rng):
    """Products across the stated range: random zeros at degrees 1-64, zeros
    at the origin, repeated zeros, one zero at |a| = 0.9999 and clustered
    pairs at separations 1e-3 to 1e-5."""
    cases = [random_blaschke(rng, m, min_sep=0.01)
             for m in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 40, 48, 64) for _ in range(4)]
    cases += [monomial(m) for m in (1, 2, 7, 33)]
    cases += [BlaschkeProduct((0.0,) * 3 + random_blaschke(rng, 5).zeros, random_unimodular(rng)),
              BlaschkeProduct((0.3 - 0.4j,) * 5, random_unimodular(rng)),
              BlaschkeProduct((0.5j, 0.5j, 0.0, 0.0, -0.7, -0.7, -0.7)),
              BlaschkeProduct(random_blaschke(rng, 8).zeros * 4)]
    for m in (6, 24, 64):
        for _ in range(3):
            near = 0.9999 * random_unimodular(rng)
            cases.append(BlaschkeProduct(random_blaschke(rng, m - 1, radius=0.95, min_sep=0.01).zeros
                                         + (near,), random_unimodular(rng)))
    for sep in (1e-3, 1e-4, 1e-5):
        for m in (4, 16, 64):
            half = random_blaschke(rng, m // 2, radius=0.9, min_sep=0.01).zeros
            pairs = tuple(a + sep * random_unimodular(rng) for a in half)
            cases.append(BlaschkeProduct(half + pairs, random_unimodular(rng)))
    return cases


class TestAgainstCompanionReference:
    def test_points_weights_and_residuals(self, rng):
        cases = reference_cases(rng)
        compared, worst, worst_ref = 0, 0.0, 0.0
        for b in cases:
            target = random_unimodular(rng)
            pts = boundary_solve(b, target)
            assert pts.shape == (b.degree,)
            resid = np.max(np.abs(evaluate(b, pts) - target))
            assert resid <= DEFAULT.residual
            try:
                ref = reference_boundary_solve(b, target)
            except RuntimeError:
                continue
            compared += 1
            worst = max(worst, resid)
            worst_ref = max(worst_ref, np.max(np.abs(evaluate(b, ref) - target)))
            assert np.max(np.abs(pts - ref)) <= 1e-12
            # |B'| turns along the circle at relative rate up to
            # sum 2|a|/(1 - |a|), so a few ulps between the two point sets
            # move the weights by that factor times eps
            w, w_ref = np.abs(derivative(b, pts)), np.abs(derivative(b, ref))
            a = np.abs(np.array(b.zeros))
            turn = np.sum(2.0 * a / (1.0 - a))
            assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-12 + 8 * np.finfo(float).eps * turn
        assert compared >= 0.9 * len(cases)
        assert worst <= worst_ref


class TestClarkPoints:
    def test_monomial_square(self):
        cp = clark_points(monomial(2), 1.0)
        assert np.allclose(cp.points, [1.0, -1.0])
        assert np.allclose(cp.weights, [2.0, 2.0])

    def test_target_degenerates_when_zero_at_origin(self):
        rng = np.random.default_rng(8)
        b = BlaschkeProduct((0.0, 0.4 - 0.2j))
        for _ in range(10):
            lam = random_unimodular(rng)
            assert mobius_target(b, lam) == pytest.approx(lam)

    def test_degree_one_by_hand(self):
        # (1/2 - eta)/(1 - eta/2) = 1 forces eta = -1
        cp = clark_points(BlaschkeProduct((0.5,)), 1.0)
        assert cp.target == pytest.approx(1.0)
        assert np.allclose(cp.points, [-1.0])

    def test_counts_and_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            b = random_blaschke(rng, m)
            lam = random_unimodular(rng)
            cp = clark_points(b, lam)
            assert cp.size == m
            assert np.max(np.abs(evaluate(b, cp.points) - cp.target)) <= 1e-10
            assert np.all(cp.weights > 0)

    def test_distinct_parameters_give_disjoint_points(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            b = random_blaschke(rng, 4)
            lam1 = random_unimodular(rng)
            lam2 = lam1 * np.exp(1j * (0.2 + rng.random()))
            p1 = clark_points(b, lam1).points
            p2 = clark_points(b, lam2).points
            assert np.min(np.abs(p1[:, None] - p2[None, :])) > 1e-8


class TestClarkWeights:
    """The weights are the squared kernel norms ||k_eta||^2 = |B'(eta)|."""

    RADII = (0.8, 0.95, 0.9999)

    def test_squared_column_norms_of_the_tm_values(self, rng):
        for degree in (1, 2, 4, 7, 16, 64):
            for radius in self.RADII:
                b = widest_at(random_blaschke(rng, degree, radius=0.95), radius)
                lam = random_unimodular(rng)
                cp = clark_points(b, lam)
                vals = tm_values(b, cp.points)
                norms2 = np.linalg.norm(vals, axis=0) ** 2
                assert np.allclose(cp.weights, norms2, rtol=8 * np.finfo(float).eps, atol=0)
                # the Clark matrix is those values over the weights' square roots
                matrix = build_basis(b, "clark", lam).matrix
                assert matrix.tobytes() == (np.conj(vals) / np.sqrt(cp.weights)).tobytes()

    def test_clark_gram_diagonal(self, rng):
        for degree in (4, 8, 16, 32, 64):
            for radius in self.RADII:
                b = widest_at(random_blaschke(rng, degree, radius=0.95), radius)
                gram = build_basis(b, "clark", random_unimodular(rng)).gram
                assert np.abs(np.diag(gram) - 1.0).max() <= 2e-15, (degree, radius)

    def test_against_extended_precision_derivative(self, rng):
        # |B'(eta)| = |B(eta)| |sum_j (1 - |a_j|^2) / ((eta - a_j)(1 - conj(a_j) eta))|
        # at the very double eta of each point
        mpmath = pytest.importorskip("mpmath")
        for radius, bound in ((0.95, 1e-13), (0.9999, 1e-11)):
            worst = 0.0
            for degree in (5, 24, 64):
                b = widest_at(random_blaschke(rng, degree, radius=0.95), radius)
                cp = clark_points(b, random_unimodular(rng))
                with mpmath.workdps(30):
                    zeros = [mpmath.mpc(a) for a in b.zeros]
                    for eta, weight in zip(cp.points, cp.weights):
                        w = mpmath.mpc(eta)
                        value, log_derivative = mpmath.mpc(1), mpmath.mpc(0)
                        for a in zeros:
                            den = 1 - mpmath.conj(a) * w
                            value *= (a - w) / den
                            log_derivative += (1 - abs(a) ** 2) / ((w - a) * den)
                        exact = abs(value) * abs(log_derivative)
                        worst = max(worst, float(abs(weight - exact) / exact))
            assert worst <= bound, radius


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6),
       st.floats(0, 2 * np.pi, allow_nan=False),
       st.integers(0, 2 ** 31 - 1))
def test_boundary_values_unimodular_property(degree, theta, seed):
    b = random_blaschke(np.random.default_rng(seed), degree)
    z = np.exp(1j * theta)
    assert abs(abs(evaluate(b, z)) - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_clark_points_solve_equation_property(degree, seed):
    rng = np.random.default_rng(seed)
    b = random_blaschke(rng, degree)
    lam = random_unimodular(rng)
    cp = clark_points(b, lam)
    assert np.max(np.abs(evaluate(b, cp.points) - cp.target)) <= 1e-10

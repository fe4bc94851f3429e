import json

import numpy as np
import pytest

from attokit.blaschke import (BlaschkeProduct, ClarkPointSet, evaluate, mobius_target,
                              monomial)
from attokit.instances import (member_matrix, random_blaschke, random_symbol,
                               random_unimodular, random_vector,
                               shared_clark_instance)
from attokit import modelspace, operators
from attokit.modelspace import (ModelVector, build_basis, circle_nodes, clark_basis,
                                clark_points, conj_kernel, inner_product, kernel,
                                project, tm_vector)
from attokit.operators import (IDENTITY_SYMBOL, OperatorMatrix, RationalSymbol,
                               SymbolSpec, atto_matrix, clark_unitary,
                               compressed_shift, conjugate_operator,
                               modified_shift, rank_one, standard_rank_one,
                               symbol_family, symbol_span_dimension)
from test_blaschke import reference_boundary_solve, widest_at


def z_symbol():
    return SymbolSpec(raw=IDENTITY_SYMBOL)


def counted_tm_values(monkeypatch):
    """Record the points of every ``modelspace.tm_values`` call, per product;
    a call on a ``ModelSpace`` counts for the product of its zeros and front
    (equal to, and hashed as, the space's own product)."""
    seen = {}
    real = modelspace.tm_values

    def counting(b, z):
        if isinstance(b, modelspace.ModelSpace):
            b = BlaschkeProduct(b.zeros, b.front)
        product = b
        seen.setdefault(product, []).append(np.array(z))
        return real(b, z)

    monkeypatch.setattr(modelspace, "tm_values", counting)
    return seen


class TestAttoMatrix:
    def test_shift_on_monomial_square(self):
        b = monomial(2)
        mat = atto_matrix(b, b, z_symbol())
        assert np.allclose(mat.entries, [[0, 0], [1, 0]], atol=1e-12)

    def test_toeplitz_structure_for_monomials(self, rng):
        for n in range(2, 7):
            b = monomial(n)
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mat = atto_matrix(b, b, SymbolSpec(raw=RationalSymbol(tuple(coeffs)))).entries
            for k in range(-(n - 1), n):
                diag = np.diagonal(mat, offset=k)
                assert np.max(np.abs(diag - diag[0])) <= 1e-10

    def test_path_independence_structured(self, rng):
        for _ in range(10):
            alpha = random_blaschke(rng, int(rng.integers(2, 5)))
            beta = random_blaschke(rng, int(rng.integers(1, 4)))
            sym = random_symbol(rng, alpha, beta)
            quad = atto_matrix(alpha, beta, sym, method="quadrature")
            closed = atto_matrix(alpha, beta, sym, method="closed")
            assert np.max(np.abs(quad.entries - closed.entries)) <= 1e-9

    def test_linearity_in_symbol(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        s1 = random_symbol(rng, alpha, beta)
        s2 = random_symbol(rng, alpha, beta)
        c = 0.7 - 1.1j
        combo = SymbolSpec(co_analytic=s1.co_analytic + c.conjugate() * s2.co_analytic,
                           analytic=s1.analytic + c * s2.analytic)
        lhs = atto_matrix(alpha, beta, combo).entries
        rhs = atto_matrix(alpha, beta, s1).entries + c * atto_matrix(alpha, beta, s2).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_adjoint_carries_conjugate_symbol(self, rng):
        for _ in range(5):
            alpha = random_blaschke(rng, 3)
            beta = random_blaschke(rng, 2)
            sym = random_symbol(rng, alpha, beta)
            a = atto_matrix(alpha, beta, sym)
            swapped = atto_matrix(beta, alpha, sym.conjugated_pair())
            assert np.max(np.abs(a.adjoint().entries - swapped.entries)) <= 1e-9

    def test_symbol_one_is_projected_identity(self):
        alpha = monomial(3)
        beta = monomial(2)
        one = SymbolSpec(raw=RationalSymbol((1.0,)))
        mat = atto_matrix(alpha, beta, one).entries
        assert np.allclose(mat, np.eye(2, 3), atol=1e-12)

    def test_structured_and_raw_forms_exclusive(self, rng):
        alpha = random_blaschke(rng, 2)
        chi = random_vector(rng, build_basis(alpha, "tm"))
        agreeing = SymbolSpec(co_analytic=chi).values
        for raw in (RationalSymbol((5.0,)), agreeing):
            with pytest.raises(ValueError, match="not both"):
                SymbolSpec(co_analytic=chi, raw=raw)

    def test_symbol_values_match_the_sum_from_zero(self, rng):
        # one conjugated product and one in-place add give the values of
        # 0 + conj(chi) + psi summed out of place, read or evaluated
        alpha, beta = random_blaschke(rng, 5), random_blaschke(rng, 3)
        chi = random_vector(rng, build_basis(alpha, "clark", 1j))
        psi = random_vector(rng, build_basis(beta, "tm"))
        z = np.concatenate([circle_nodes(64), 0.7 * circle_nodes(16)]).reshape(8, 10)
        va, vb = modelspace.tm_values(alpha, z), modelspace.tm_values(beta, z)
        for sym in (SymbolSpec(co_analytic=chi), SymbolSpec(analytic=psi),
                    SymbolSpec(co_analytic=chi, analytic=psi)):
            ref = np.zeros(z.shape, dtype=complex)
            if sym.co_analytic is not None:
                ref = ref + np.conj(modelspace._combine(chi.tm(), va))
            if sym.analytic is not None:
                ref = ref + modelspace._combine(psi.tm(), vb)
            assert np.array_equal(sym.values(z), ref)
            assert np.array_equal(sym.values(z, va, vb), ref)

    def test_quadrature_error_for_pole_on_circle(self):
        from attokit.modelspace import QuadratureError
        b = monomial(2)
        # simple pole just off the integration nodes: no convergence
        spiky = SymbolSpec(raw=RationalSymbol((1.0,), (-(1.0 + 1e-7) * np.exp(0.1j), 1.0)))
        with pytest.raises(QuadratureError):
            atto_matrix(b, b, spiky)

    def test_each_node_evaluated_once_per_space(self, rng, monkeypatch):
        seen = counted_tm_values(monkeypatch)
        monkeypatch.setattr(operators, "tm_values", modelspace.tm_values)   # counted too
        alpha = random_blaschke(rng, 5, radius=0.95)
        beta = random_blaschke(rng, 4, radius=0.95)

        def cases():
            for a, b in ((alpha, beta), (alpha, alpha)):
                yield a, b, random_symbol(rng, a, b)
            # chi in a fresh K_alpha, psi over a third product
            fresh = random_blaschke(rng, 5, radius=0.95)
            gamma = random_blaschke(rng, 3, radius=0.95)
            yield fresh, beta, SymbolSpec(
                co_analytic=random_vector(rng, build_basis(fresh, "tm")),
                analytic=random_vector(rng, build_basis(gamma, "tm")))

        for a, b, sym in cases():
            seen.clear()
            atto_matrix(a, b, sym)
            assert set(seen) == {a, b, sym.co_analytic.space, sym.analytic.space}
            for space in seen:
                nodes = np.concatenate(seen[space])
                n = len(nodes)
                assert n >= 256 and n & (n - 1) == 0
                assert np.array_equal(np.sort_complex(nodes), np.sort_complex(circle_nodes(n)))
                # one call per level, in ladder order, the first in nested order
                assert np.array_equal(seen[space][0], first_level_nodes())
                assert [len(z) for z in seen[space]] == [256] + [256 << k for k in
                                                               range(len(seen[space]) - 1)]

    def test_symbol_parts_over_other_bases_and_spaces(self, rng):
        for m, n in ((3, 2), (5, 6), (12, 9)):
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            gamma = random_blaschke(rng, m)       # same degree as alpha, other zeros
            psi = random_vector(rng, build_basis(beta, "clark", random_unimodular(rng)))
            for chi in (random_vector(rng, build_basis(alpha, "kernel-zeros")),
                        random_vector(rng, build_basis(gamma, "tm"))):
                sym = SymbolSpec(co_analytic=chi, analytic=psi)
                got = atto_matrix(alpha, beta, sym).entries
                ref = atto_matrix(alpha, beta, SymbolSpec(raw=sym.values)).entries
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_clark_bases_match_moved_tm_quadrature(self, rng):
        for m, n in ((3, 2), (6, 5), (12, 16)):
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            sym = random_symbol(rng, alpha, beta)
            tm_mat = atto_matrix(alpha, beta, sym)
            for kind in ("clark", "modified-clark"):
                ca = build_basis(alpha, kind, random_unimodular(rng))
                cb = build_basis(beta, kind, random_unimodular(rng))
                direct = atto_matrix(alpha, beta, sym, ca, cb).entries
                moved = tm_mat.in_bases(ca, cb).entries
                assert np.max(np.abs(direct - moved)) <= 1e-13 * (1.0 + np.max(np.abs(moved)))

    def test_example_counterexample_symbol(self):
        # 1 (x) (1 + k_a) carries the symbol 1 + conj(k_a)
        a = 0.5
        alpha = BlaschkeProduct((0.0, a, -a), front=-1.0)
        beta = BlaschkeProduct((0.0,), front=-1.0)
        f = kernel(alpha, 0.0) + kernel(alpha, a)
        g = kernel(beta, 0.0)
        direct = rank_one(g, f)
        chi = f
        via_symbol = atto_matrix(alpha, beta, SymbolSpec(co_analytic=chi))
        assert direct.entries.shape == (1, 3)
        assert np.max(np.abs(direct.entries - via_symbol.entries)) <= 1e-10


def clark_node_reference(alpha, beta, symbol, lam=1.0):
    """TM matrix of a structured symbol by Clark's Parseval sum in K_gamma,
    gamma = alpha beta: psi f, chi g, f and g all lie in K_gamma, so

        <phi f, g> = sum over the Clark points eta of gamma of
                     phi(eta) f(eta) conj(g(eta)) / |gamma'(eta)|,

    exactly, however close the zeros come to the circle."""
    gamma = BlaschkeProduct(alpha.zeros + beta.zeros, alpha.front * beta.front)
    cp = modelspace.clark_points(gamma, lam)
    va, vb = modelspace.tm_values(alpha, cp.points), modelspace.tm_values(beta, cp.points)
    return np.conj(vb) @ ((symbol.values(cp.points) / cp.weights) * va).T


def mp_parseval_reference(alpha, beta, symbol, mp):
    """``clark_node_reference`` in mpmath at the working precision, at the
    Clark points of gamma = alpha beta for the target 1: each is refined from
    its double by Newton steps in the argument, and its weight is
    |gamma'(eta)| = sum_j (1 - |a_j|^2) / |eta - a_j|^2 on the circle."""
    gamma = BlaschkeProduct(alpha.zeros + beta.zeros, alpha.front * beta.front)

    def value(zeros, w, front=1):
        return front * mp.fprod((mp.mpc(a) - w) / (1 - mp.conj(mp.mpc(a)) * w) for a in zeros)

    def rate(w):
        return mp.fsum((1 - abs(mp.mpc(a)) ** 2) / abs(w - mp.mpc(a)) ** 2 for a in gamma.zeros)

    def tm(b, w):
        return [mp.sqrt(1 - abs(mp.mpc(a)) ** 2) / (1 - mp.conj(mp.mpc(a)) * w)
                * value(b.zeros[:k], w, (-1) ** k) for k, a in enumerate(b.zeros)]

    out = mp.zeros(beta.degree, alpha.degree)
    chi, psi = symbol.co_analytic.tm(), symbol.analytic.tm()
    for eta in modelspace.boundary_solve(gamma, 1.0):
        theta = mp.mpf(float(np.angle(eta)))
        for _ in range(4):
            theta -= mp.arg(value(gamma.zeros, mp.expj(theta), gamma.front)) / rate(mp.expj(theta))
        w = mp.expj(theta)
        va, vb = tm(alpha, w), tm(beta, w)
        phi = (mp.conj(mp.fsum(mp.mpc(c) * v for c, v in zip(chi, va)))
               + mp.fsum(mp.mpc(c) * v for c, v in zip(psi, vb))) / rate(w)
        out += mp.matrix([mp.conj(g) for g in vb]) * mp.matrix([[phi * f for f in va]])
    return np.array(out.tolist(), dtype=complex)


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / (1.0 + np.max(np.abs(ref)))


def first_level_nodes():
    """The quadrature's first level in its nested order: ``circle_nodes(64)``,
    then the odd nodes of 128, then the odd nodes of 256."""
    order = np.concatenate([np.arange(0, 256, 4), np.arange(2, 256, 4), np.arange(1, 256, 2)])
    return circle_nodes(256)[order]


# The rule whose first level is read as one 256-node mean, so that it accepts
# from 512 nodes on and applies the contraction test from 1024 on.
SINGLE_MEAN_START = {"n_first": 256, "n_accept": 512}


def fresh_level_circle_mean(level_mean, tol=1e-12, n_first=64, n_accept=256, n_max=1 << 15):
    """Reference doubling trapezoid rule that evaluates every level afresh on
    all of its nodes, from ``n_first`` nodes on; returns the mean and the node
    count it stopped at.

    From ``n_accept`` nodes on, a level stops the doubling when its gap to
    the previous level is within tol relative to 1 + max|mean|, or, once two
    gaps are known, when the last gap times the last ratio of gaps is.  The
    defaults are the library's rule; ``SINGLE_MEAN_START`` gives the rule
    that reads the first level as one mean."""
    means = [level_mean(n_first)]
    gaps = []
    n = n_first
    while 2 * n <= n_max:
        n *= 2
        means.append(level_mean(n))
        gaps.append(np.max(np.abs(means[-1] - means[-2])))
        target = tol * (1.0 + np.max(np.abs(means[-1])))
        predicted = gaps[-1] * (gaps[-1] / gaps[-2]) if len(gaps) > 1 else np.inf
        if n >= n_accept and min(gaps[-1], predicted) <= target:
            return means[-1], n
    raise modelspace.QuadratureError("reference did not converge")


def atto_integrand(alpha, beta, symbol):
    """``atto_matrix``'s integrand summed over the nodes z, evaluated afresh
    with no level store."""
    def node_sum(z):
        va, vb = modelspace.tm_values(alpha, z), modelspace.tm_values(beta, z)
        return np.conj(vb) @ (symbol.values(z) * va).T
    return node_sum


def project_integrand(b, values_fn):
    """``project``'s integrand summed over the nodes z, evaluated afresh."""
    return lambda z: np.conj(modelspace.tm_values(b, z)) @ values_fn(z)


def single_mean_node_count(node_sum, tol=1e-12):
    """Nodes the rule of ``SINGLE_MEAN_START`` evaluates on ``node_sum(z)``."""
    return fresh_level_circle_mean(lambda n: node_sum(circle_nodes(n)) / n, tol,
                                   **SINGLE_MEAN_START)[1]


def two_level_node_count(node_sum, tol, n_start=256, n_max=1 << 15):
    """Nodes that nested doubling evaluates on ``node_sum(z)`` when it stops
    only once two successive means agree to tol relative to 1 + max|mean|
    (inf when that never happens within n_max nodes)."""
    prev = None
    n = n_start
    while n <= n_max:
        mean = node_sum(circle_nodes(n)) / n
        if prev is not None and np.max(np.abs(mean - prev)) <= tol * (1.0 + np.max(np.abs(mean))):
            return n
        prev = mean
        n *= 2
    return np.inf


def counted_quadratures(monkeypatch):
    """Record, for every ``doubling_circle_mean`` call of ``atto_matrix`` and
    ``project``, the node count of each ``node_sum`` call."""
    calls = []
    nested = modelspace.doubling_circle_mean

    def counting(node_sum, tol):
        sizes = []

        def counted(*node_sets):
            sizes.append(sum(len(z) for z in node_sets))
            return node_sum(*node_sets)

        calls.append(sizes)
        return nested(counted, tol)

    monkeypatch.setattr(operators, "doubling_circle_mean", counting)
    monkeypatch.setattr(modelspace, "doubling_circle_mean", counting)
    return calls


class TestLevelStore:
    """Each space keeps its quadrature levels' TM values from their second
    evaluation on (``ModelSpace.level_values``)."""

    def test_third_quadrature_evaluates_nothing(self, rng, monkeypatch):
        for m, n in ((5, 4), (12, 16)):
            alpha, beta = random_blaschke(rng, m), random_blaschke(rng, n)
            lam1, lam2 = random_unimodular(rng), random_unimodular(rng)
            syms = [random_symbol(rng, alpha, beta) for _ in range(3)]
            cold_a = BlaschkeProduct(alpha.zeros, alpha.front)
            cold_b = BlaschkeProduct(beta.zeros, beta.front)
            warm_bases = build_basis(alpha, "clark", lam1), build_basis(beta, "clark", lam2)
            cold_bases = build_basis(cold_a, "clark", lam1), build_basis(cold_b, "clark", lam2)
            for sym in syms[:2]:
                atto_matrix(alpha, beta, sym)
            seen = counted_tm_values(monkeypatch)
            warm = [atto_matrix(alpha, beta, syms[2]),
                    atto_matrix(alpha, beta, syms[2], *warm_bases)]
            assert seen == {}
            cold = [atto_matrix(cold_a, cold_b, syms[2]),
                    atto_matrix(cold_a, cold_b, syms[2], *cold_bases)]
            for b in (cold_a, cold_b):            # one level, 256 nodes: marked, then stored
                assert [len(z) for z in seen[b]] == [256, 256]
                [(key, vals)] = b.model_space._levels.items()
                assert key == (256, False)
                assert np.array_equal(vals, modelspace.tm_values(b, first_level_nodes()))
            for got, ref in zip(warm, cold):
                assert np.array_equal(got.entries, ref.entries)

    def test_first_quadrature_stores_nothing(self, rng):
        alpha, beta = random_blaschke(rng, 6, radius=0.95), random_blaschke(rng, 3)
        sym = random_symbol(rng, alpha, beta)
        atto_matrix(alpha, beta, sym)
        for b in (alpha, beta):
            levels = b.model_space._levels
            assert levels and all(vals is None for vals in levels.values())
            assert min(levels) == (256, False)
            assert all(odd for n, odd in levels if n > 256)
        atto_matrix(alpha, beta, sym)
        for b in (alpha, beta):
            for (n, odd), vals in b.model_space._levels.items():
                nodes = circle_nodes(n)[1::2] if odd else first_level_nodes()
                assert np.array_equal(vals, modelspace.tm_values(b, nodes))

    def test_stored_levels_are_read_only(self, rng):
        alpha, beta = random_blaschke(rng, 4), random_blaschke(rng, 5)
        for _ in range(2):
            atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
        for b in (alpha, beta):
            for vals in b.model_space._levels.values():
                assert not vals.flags.writeable
                with pytest.raises(ValueError):
                    vals[0, 0] = 7.0

    def test_equal_spaces_evaluate_each_level_once(self, rng, monkeypatch):
        alpha = random_blaschke(rng, 7, radius=0.9)
        sym = random_symbol(rng, alpha, alpha)
        seen = counted_tm_values(monkeypatch)
        for calls in (1, 1, 0):                 # mark, store, read
            seen.clear()
            atto_matrix(alpha, alpha, sym)
            levels = alpha.model_space._levels
            assert len(levels) >= 2 and len(seen.get(alpha, [])) == calls * len(levels)

    def test_project_reads_the_same_store(self, rng, monkeypatch):
        alpha = random_blaschke(rng, 5)
        cold = BlaschkeProduct(alpha.zeros, alpha.front)
        sym = SymbolSpec(raw=IDENTITY_SYMBOL)
        for _ in range(2):
            atto_matrix(alpha, alpha, sym)
        seen = counted_tm_values(monkeypatch)
        got = project(alpha, IDENTITY_SYMBOL).coeffs
        assert seen == {}
        assert np.array_equal(got, project(cold, IDENTITY_SYMBOL).coeffs)
        assert len(seen[cold]) == 1           # the first level, 256 nodes in nested order
        project(cold, IDENTITY_SYMBOL)
        seen.clear()
        assert np.array_equal(atto_matrix(cold, cold, sym).entries,
                              atto_matrix(alpha, alpha, sym).entries)
        assert seen == {}


def projected_z(b):
    """TM coordinates of the projection of z onto K_b: S k_0, the projection
    of z k_0 = z - conj(b(0)) z b, whose second term the projection sends
    to 0."""
    return b.model_space.shift @ b.model_space.k0


class TestFirstLevelStop:
    """The first level's 64-, 128- and 256-node means let the stop rule accept
    from 256 nodes on.  No quadrature evaluates more nodes than the rule that
    reads the first level as one mean, and each stays within 1e-12 of its
    closed form."""

    @staticmethod
    def pairs(rng):
        for radius in (0.3, 0.8, 0.9, 0.95, 0.99):
            for m, n in ((1, 1), (3, 2), (12, 16), (24, 24), (64, 40)):
                yield (widest_at(random_blaschke(rng, m, radius=radius, min_sep=0.01), radius),
                       widest_at(random_blaschke(rng, n, radius=radius, min_sep=0.01), radius))
        repeated = BlaschkeProduct((0.9 * random_unimodular(rng),) * 6
                                   + (0.5 * random_unimodular(rng),) * 3, random_unimodular(rng))
        tilt = random_unimodular(rng)         # twelve zeros 1e-3 apart at |a| = 0.95
        cluster = BlaschkeProduct(tuple(0.95 * tilt * np.exp(1e-3j * k / 0.95) for k in range(12)),
                                  random_unimodular(rng))
        other = random_blaschke(rng, 8)
        yield from ((repeated, repeated), (repeated, other), (cluster, other), (other, cluster),
                    (monomial(64), monomial(64)))

    def test_no_more_nodes_and_the_closed_path_to_1e_12(self, rng, monkeypatch):
        calls = counted_quadratures(monkeypatch)
        for alpha, beta in self.pairs(rng):
            sym = random_symbol(rng, alpha, beta)
            k0a, k0b = alpha.model_space.k0, beta.model_space.k0
            chi0 = np.vdot(k0a, sym.co_analytic.tm())          # chi(0)
            cases = (  # (quadrature, closed form, the quadrature's integrand)
                (lambda: atto_matrix(alpha, beta, sym).tm_entries(),
                 atto_matrix(alpha, beta, sym, method="closed").tm_entries(),
                 atto_integrand(alpha, beta, sym)),
                (lambda: atto_matrix(alpha, beta, z_symbol()).tm_entries(),
                 atto_matrix(alpha, beta, SymbolSpec(analytic=tm_vector(beta, projected_z(beta))),
                             method="closed").tm_entries(),
                 atto_integrand(alpha, beta, z_symbol())),
                (lambda: project(beta, sym.values).tm(),
                 sym.analytic.tm() + np.conj(chi0) * k0b,
                 project_integrand(beta, sym.values)),
                (lambda: project(beta, IDENTITY_SYMBOL).tm(), projected_z(beta),
                 project_integrand(beta, IDENTITY_SYMBOL)))
            for quadrature, closed, integrand in cases:
                calls.clear()
                got = quadrature()
                [sizes] = calls
                assert relative_gap(got, closed) <= 1e-12, (alpha.degree, beta.degree)
                assert sum(sizes) <= single_mean_node_count(integrand), (alpha.degree, beta.degree)

    def test_schedule_at_the_benchmark_shapes(self, rng, monkeypatch):
        calls = counted_quadratures(monkeypatch)
        for (m, n, radius), schedule in (((24, 24, 0.8), [[256]]),
                                         ((64, 40, 0.95), [[256, 256, 512]])):
            alpha = widest_at(random_blaschke(rng, m, radius=radius, min_sep=0.01), radius)
            beta = random_blaschke(rng, n, radius=radius, min_sep=0.01)
            calls.clear()
            atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
            assert calls == schedule

    def test_monomial_64_structured_symbol(self, rng, monkeypatch):
        # a trigonometric polynomial of degree 126: the 64-node mean aliases,
        # the 128- and 256-node means are exact
        calls = counted_quadratures(monkeypatch)
        b = monomial(64)
        sym = random_symbol(rng, b, b)
        quad = atto_matrix(b, b, sym).entries
        closed = atto_matrix(b, b, sym, method="closed").entries
        assert relative_gap(quad, closed) <= 1e-12
        assert calls == [[256]]


class TestClosedPath:
    def test_matches_quadrature_at_degrees_1_to_64(self, rng):
        shapes = ((1, 1), (1, 5), (2, 3), (3, 2), (5, 8), (8, 5), (12, 16), (24, 12),
                  (32, 32), (48, 20), (64, 40), (40, 64))
        for m, n in shapes:
            alpha = widest_at(random_blaschke(rng, m, radius=0.95, min_sep=0.01), 0.95)
            beta = widest_at(random_blaschke(rng, n, radius=0.95, min_sep=0.01), 0.95)
            sym = random_symbol(rng, alpha, beta)
            quad = atto_matrix(alpha, beta, sym).entries
            closed = atto_matrix(alpha, beta, sym, method="closed").entries
            assert relative_gap(closed, quad) <= 1e-12, (m, n)

    def test_repeated_zeros_origin_and_equal_spaces(self, rng):
        products = [monomial(1), monomial(4), BlaschkeProduct((0.3 - 0.4j,) * 5),
                    BlaschkeProduct((0.5j, 0.5j, 0.0, 0.0, -0.7, -0.7, -0.7), -1j)]
        zeros = list(random_blaschke(rng, 20).zeros)
        zeros[1] = zeros[0]
        zeros[7] = 0.0
        products.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
        for alpha in products:
            for beta in (alpha, products[2], products[-1]):
                sym = random_symbol(rng, alpha, beta)
                quad = atto_matrix(alpha, beta, sym).entries
                closed = atto_matrix(alpha, beta, sym, method="closed").entries
                assert relative_gap(closed, quad) <= 1e-12

    def test_clark_and_kernel_bases(self, rng):
        for m, n in ((3, 2), (6, 5), (12, 16)):
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            sym = random_symbol(rng, alpha, beta)
            bases = [(build_basis(alpha, kind, random_unimodular(rng)),
                      build_basis(beta, kind, random_unimodular(rng)))
                     for kind in ("clark", "modified-clark")]
            bases.append((build_basis(alpha, "kernel-zeros"), build_basis(beta, "clark", 1j)))
            for ca, cb in bases:
                quad = atto_matrix(alpha, beta, sym, ca, cb).entries
                closed = atto_matrix(alpha, beta, sym, ca, cb, method="closed")
                assert closed.in_basis is ca and closed.out_basis is cb
                assert relative_gap(closed.entries, quad) <= 1e-12

    def test_parts_over_other_products_and_bases(self, rng):
        for m, n in ((3, 2), (5, 6), (12, 9)):
            alpha = random_blaschke(rng, m)
            beta = random_blaschke(rng, n)
            others = (random_vector(rng, build_basis(random_blaschke(rng, 5), "kernel-zeros")),
                      random_vector(rng, build_basis(random_blaschke(rng, 2), "clark", -1j)),
                      random_vector(rng, build_basis(alpha, "clark", 1j)),
                      random_vector(rng, build_basis(beta, "kernel-zeros")))
            for chi in others:
                for psi in others:
                    sym = SymbolSpec(co_analytic=chi, analytic=psi)
                    quad = atto_matrix(alpha, beta, SymbolSpec(raw=sym.values)).entries
                    closed = atto_matrix(alpha, beta, sym, method="closed").entries
                    assert relative_gap(closed, quad) <= 1e-12

    def test_zeros_near_the_circle(self, rng):
        # quadrature cannot converge at |a| = 0.9999; Clark's Parseval sum can
        from attokit.modelspace import QuadratureError
        for m, n in ((3, 2), (64, 40)):
            alpha = widest_at(random_blaschke(rng, m, radius=0.95, min_sep=0.01), 0.9999)
            beta = random_blaschke(rng, n, radius=0.95, min_sep=0.01)
            for a, b in ((alpha, beta), (beta, alpha)):
                sym = random_symbol(rng, a, b)
                with pytest.raises(QuadratureError):
                    atto_matrix(a, b, sym)
                closed = atto_matrix(a, b, sym, method="closed").entries
                assert relative_gap(closed, clark_node_reference(a, b, sym)) <= 1e-12

    def test_zeros_near_the_circle_against_extended_precision(self, rng):
        # the closed path and the Clark-node reference read the same double TM
        # values, so an error they share does not show in their gap; each is
        # pinned to an mpmath Parseval sum on its own
        mpmath = pytest.importorskip("mpmath")
        alpha = widest_at(random_blaschke(rng, 3, radius=0.95, min_sep=0.01), 0.9999)
        beta = random_blaschke(rng, 2, radius=0.95, min_sep=0.01)
        for a, b in ((alpha, beta), (beta, alpha)):
            sym = random_symbol(rng, a, b)
            with mpmath.workdps(40):
                exact = mp_parseval_reference(a, b, sym, mpmath.mp)
            assert relative_gap(atto_matrix(a, b, sym, method="closed").entries, exact) <= 2e-12
            assert relative_gap(clark_node_reference(a, b, sym), exact) <= 2e-12

    def test_contraction_stop_on_repeated_clustered_and_high_degree_zeros(self, rng,
                                                                           monkeypatch):
        calls = counted_quadratures(monkeypatch)
        pairs = []
        for radius in (0.95, 0.99):           # repeated poles: rate alone misjudges them
            alpha = BlaschkeProduct((radius * random_unimodular(rng),) * 16, random_unimodular(rng))
            pairs.append((alpha, alpha))
        tilt = random_unimodular(rng)         # twelve zeros 1e-3 apart at |a| = 0.99
        cluster = BlaschkeProduct(tuple(0.99 * tilt * np.exp(1e-3j * k / 0.99) for k in range(12)),
                                  random_unimodular(rng))
        other = random_blaschke(rng, 8)
        pairs += [(cluster, other), (other, cluster)]
        for alpha, beta in pairs:
            sym = random_symbol(rng, alpha, beta)
            calls.clear()
            quad = atto_matrix(alpha, beta, sym).entries
            closed = atto_matrix(alpha, beta, sym, method="closed").entries
            assert relative_gap(closed, quad) <= 1e-12
            [sizes] = calls
            integrand = atto_integrand(alpha, beta, sym)
            assert sum(sizes) <= single_mean_node_count(integrand)
            assert sum(sizes) <= two_level_node_count(integrand, 1e-12)
        alpha = widest_at(random_blaschke(rng, 64, radius=0.95, min_sep=0.01), 0.95)
        beta = random_blaschke(rng, 40, radius=0.95, min_sep=0.01)
        sym = random_symbol(rng, alpha, beta)
        calls.clear()
        quad = atto_matrix(alpha, beta, sym).entries
        closed = atto_matrix(alpha, beta, sym, method="closed").entries
        assert relative_gap(closed, quad) <= 1e-12
        integrand = atto_integrand(alpha, beta, sym)
        assert calls == [[256, 256, 512]]     # 1024 nodes in three calls
        assert (single_mean_node_count(integrand), two_level_node_count(integrand, 1e-12)) \
            == (1024, 2048)

    def test_raw_symbol_rejected(self):
        with pytest.raises(ValueError, match="structured symbol"):
            atto_matrix(monomial(2), monomial(2), z_symbol(), method="closed")


def reference_solve_stein(sb, sa, d):
    """The per-column Stein loop that the closed-form pivots replaced: column
    j solves (I - conj(sa[j, j]) sb) x_j = d_j + sb sum_{k<j} conj(sa[j, k]) x_k
    with one np.linalg.solve; d is n x m, or n x m x K."""
    n, m = d.shape[:2]
    batch = d.shape[2:]
    eye = np.eye(n)
    x = np.empty((d.size // m, m), dtype=complex)
    for j in range(m):
        rhs = d[:, j] + sb @ (x[:, :j] @ np.conj(sa[j, :j])).reshape((n,) + batch)
        x[:, j] = np.linalg.solve(eye - np.conj(sa[j, j]) * sb, rhs).ravel()
    return np.moveaxis(x.reshape((n,) + batch + (m,)), -1, 1)


def stein_pair(rng, m, n, radius):
    """Degrees (m, n) with zeros up to ``radius``; from degree 3 on, a repeated
    zero, a zero at 0 and a double zero at |a| = 0.9999 that both spaces
    share, so some pivots 1 - conj(a_j) b_i come within 2e-4 of 0 and some
    factors c - conj(b_l) vanish."""
    near = 0.9999 * random_unimodular(rng)

    def make(degree):
        zeros = list(random_blaschke(rng, degree, radius=radius).zeros)
        if degree >= 3:
            zeros[1] = zeros[0]
            zeros[degree // 2] = 0.0
            zeros[-2:] = (near, near)
        return BlaschkeProduct(tuple(zeros), random_unimodular(rng))

    return make(m), make(n)


class TestSteinPivots:
    SIZES = ((1, 1), (3, 5), (24, 20), (64, 40), (40, 64), (64, 64))

    def test_pivots_invert_the_pivot_matrices(self, rng):
        # relative to max|P_j|, which reaches 1 / (1 - 0.9999^2) = 5e3 here
        for m, n in self.SIZES:
            for radius in (0.5, 0.95, 0.9999):
                alpha, beta = stein_pair(rng, m, n, radius)
                shift = beta.model_space.shift
                c = np.conj(np.array(alpha.zeros))
                piv = operators._stein_pivots(beta.model_space, c)
                assert piv.shape == (m, n, n)
                for cj, pj in zip(c, piv):
                    defect = np.max(np.abs((np.eye(n) - cj * shift) @ pj - np.eye(n)))
                    assert defect <= 1e-14 * np.max(np.abs(pj)), (m, n, radius)
                    assert np.array_equal(pj, np.tril(pj))

    def test_solve_matches_the_per_column_loop(self, rng):
        for m, n in self.SIZES:
            for radius in (0.5, 0.95, 0.9999):
                alpha, beta = stein_pair(rng, m, n, radius)
                sa, sb = alpha.model_space, beta.model_space
                for shape in ((n, m), (n, m, m + n)):
                    d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    x = operators._solve_stein(sb, sa, d)
                    ref = reference_solve_stein(sb.shift, sa.shift, d)
                    assert x.shape == d.shape
                    cols = x.reshape(n, m, -1)
                    resid = (cols - np.einsum("ik,kjl,pj->ipl", sb.shift, cols,
                                              np.conj(sa.shift), optimize=True)
                             - d.reshape(n, m, -1))
                    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(x), (m, n, radius)
                    # the shared double zero at 0.9999 makes the Stein map ill
                    # conditioned: both routes leave residuals near 1e-16, and
                    # differ by up to 8e-14
                    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), (m, n, radius)


class TestShifts:
    def test_jordan_block_for_cube(self):
        s = compressed_shift(monomial(3)).entries
        assert np.allclose(s, np.diag([1.0, 1.0], -1), atol=1e-12)

    def test_contraction(self, rng):
        for _ in range(10):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            s = compressed_shift(b).entries
            assert np.linalg.norm(s, 2) <= 1.0 + 1e-10

    def test_square_matches_squared_symbol(self):
        b = monomial(3)
        s = compressed_shift(b).entries
        z2 = atto_matrix(b, b, SymbolSpec(raw=RationalSymbol((0.0, 0.0, 1.0)))).entries
        assert np.max(np.abs(s @ s - z2)) <= 1e-10

    def test_exact_shift_matches_quadrature(self, rng):
        products = [monomial(1), monomial(4), BlaschkeProduct((0.0, 0.5, 0.5, 0.0, -0.3j))]
        for degree in range(1, 33):
            zeros = list(random_blaschke(rng, degree).zeros)
            if degree >= 3:
                zeros[1] = zeros[0]                     # a repeated zero
                zeros[degree // 2 + 1] = 0.0            # a zero at the origin
            products.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
        for b in products:
            quad = atto_matrix(b, b, z_symbol()).entries
            assert np.max(np.abs(compressed_shift(b).entries - quad)) <= 1e-13

    def test_defect_identity_with_zeros_near_the_circle(self, rng):
        # I - S S* = k_0 (x) k_0; quadrature cannot converge at |a| = 0.9999
        for degree in (3, 10, 30):
            zeros = list(random_blaschke(rng, degree).zeros)
            zeros[0] = 0.9999 * random_unimodular(rng)
            b = BlaschkeProduct(tuple(zeros), random_unimodular(rng))
            s = compressed_shift(b).entries
            k0 = kernel(b, 0.0).tm()
            eye = np.eye(degree)
            assert np.max(np.abs(eye - s @ s.conj().T - np.outer(k0, k0.conj()))) <= 1e-13
            u = clark_unitary(b, random_unimodular(rng)).entries
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10

    def test_defect_identities_at_degree_64(self, rng):
        # I - S* S = k~_0 (x) k~_0 and the Clark unitaries, with |a| <= 0.95
        # and with one zero at |a| = 0.9999
        eye = np.eye(64)
        for near in (False, True):
            zeros = list(random_blaschke(rng, 64, radius=0.95).zeros)
            if near:
                zeros[5] = 0.9999 * random_unimodular(rng)
            b = BlaschkeProduct(tuple(zeros), random_unimodular(rng))
            s = compressed_shift(b).entries
            kt = conj_kernel(b, 0.0).tm()
            assert np.max(np.abs(eye - s.conj().T @ s - np.outer(kt, kt.conj()))) <= 1e-13
            for _ in range(3):
                lam = random_unimodular(rng)
                for basis in (None, build_basis(b, "clark", lam)):
                    u = clark_unitary(b, lam, basis).entries
                    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-13

    def test_modified_shift_zero_coefficient(self, rng):
        b = random_blaschke(rng, 3)
        assert np.allclose(modified_shift(b, 0.0).entries,
                           compressed_shift(b).entries)

    def test_modified_shift_hand_case(self):
        assert np.allclose(modified_shift(monomial(2), 1.0).entries,
                           [[0, 1], [1, 0]], atol=1e-12)


    def test_modified_shift_matches_rank_one_route(self, rng):
        # reference: the compressed shift plus c times the rank-one operator
        # (kernel at 0) tensor (conjugate kernel at 0), added as operators
        products = [monomial(1), monomial(4), BlaschkeProduct((0.0, 0.5, 0.5, 0.0, -0.3j))]
        for degree in range(1, 25):
            zeros = list(random_blaschke(rng, degree).zeros)
            if degree >= 3:
                zeros[1] = zeros[0]                     # a repeated zero
                zeros[degree // 2 + 1] = 0.0            # a zero at the origin
            products.append(BlaschkeProduct(tuple(zeros), random_unimodular(rng)))
        for b in products:
            c = complex(rng.standard_normal(), rng.standard_normal())
            for basis in (build_basis(b, "tm"), build_basis(b, "clark", random_unimodular(rng))):
                ref = (compressed_shift(b, basis)
                       + c * rank_one(kernel(b, 0.0), conj_kernel(b, 0.0), basis, basis))
                got = modified_shift(b, c, basis)
                assert got.in_basis is basis and got.out_basis is basis
                if basis.kind == "tm":
                    assert np.array_equal(got.entries, ref.entries)
                assert np.max(np.abs(got.entries - ref.entries)) <= 1e-14


class TestClarkUnitary:
    def test_monomial_case(self):
        u = clark_unitary(monomial(2), 1.0).entries
        assert np.allclose(u, [[0, 1], [1, 0]], atol=1e-12)
        assert np.allclose(sorted(np.linalg.eigvals(u).real), [-1, 1])

    def test_unitary_and_eigenpairs(self, rng):
        for _ in range(10):
            b = random_blaschke(rng, 4)
            lam = random_unimodular(rng)
            u = clark_unitary(b, lam).entries
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-9
            cb = build_basis(b, "clark", lam)
            for j, eta in enumerate(cb.clark.points):
                v = cb.matrix[:, j]
                assert np.linalg.norm(u @ v - eta * v) <= 1e-8

    def test_matches_independent_eigendecomposition(self, rng):
        b = random_blaschke(rng, 4)
        lam = random_unimodular(rng)
        u = clark_unitary(b, lam).entries
        eigs = np.linalg.eigvals(u)
        # clark_points itself is built from these eigenvalues; the companion
        # route is independent of the shift
        pts = reference_boundary_solve(b, mobius_target(b, lam))
        assert np.max(np.abs(np.sort_complex(eigs) - np.sort_complex(pts))) <= 1e-9


class TestRankOne:
    def test_action(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        f = random_vector(rng, build_basis(alpha, "tm"))
        g = random_vector(rng, build_basis(beta, "tm"))
        op = rank_one(g, f)
        out = op.apply(f)
        expect = (f.norm() ** 2) * g.tm()
        assert np.max(np.abs(out.tm() - expect)) <= 1e-10 * (1 + np.max(np.abs(expect)))
        assert np.linalg.matrix_rank(op.entries, 1e-10) == 1

    def test_standard_rank_one_monomial(self):
        op = standard_rank_one(monomial(2), monomial(2), 0.0, "conjk-kernel")
        assert np.allclose(op.entries, [[0, 0], [1, 0]], atol=1e-12)

    def test_boundary_variants_coincide_up_to_phase(self, rng):
        for _ in range(10):
            alpha = random_blaschke(rng, 3)
            beta = random_blaschke(rng, 2)
            w = random_unimodular(rng)
            a1 = standard_rank_one(alpha, beta, w, "conjk-kernel").entries
            a2 = standard_rank_one(alpha, beta, w, "kernel-conjk").entries
            ratio = a1[np.abs(a2) > 1e-9] / a2[np.abs(a2) > 1e-9]
            assert np.max(np.abs(ratio - ratio.flat[0])) <= 1e-8
            assert abs(abs(ratio.flat[0]) - 1.0) <= 1e-8


class TestConjugateOperator:
    def test_involution(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        a = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
        twice = conjugate_operator(conjugate_operator(a))
        assert np.max(np.abs(twice.entries - a.entries)) <= 1e-10

    def test_symbol_transform(self, rng):
        # C_beta A_phi C_alpha carries the symbol conj(alpha phi) beta
        for _ in range(5):
            alpha = random_blaschke(rng, 3)
            beta = random_blaschke(rng, 2)
            sym = random_symbol(rng, alpha, beta)
            lhs = conjugate_operator(atto_matrix(alpha, beta, sym)).entries

            def transformed(z):
                return np.conj(evaluate(alpha, z) * sym.values(z)) * evaluate(beta, z)

            rhs = atto_matrix(alpha, beta, SymbolSpec(raw=transformed)).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


class TestSpanDimension:
    def test_small_pairs(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        rank, svals = symbol_span_dimension(alpha, beta)
        assert rank == 4
        assert svals[3] / svals[4] >= 1e6

    def test_line_targets(self, rng):
        alpha = random_blaschke(rng, 1)
        beta = random_blaschke(rng, 3)
        rank, _ = symbol_span_dimension(alpha, beta)
        assert rank == 3          # m + n - 1 = mn when one degree is 1
        rank11, _ = symbol_span_dimension(random_blaschke(rng, 1), random_blaschke(rng, 1))
        assert rank11 == 1

    def test_batched_generators_match_one_solve_each(self, rng):
        repeated = list(random_blaschke(rng, 8).zeros)
        repeated[3] = repeated[1]
        repeated[5] = 0.0
        pairs = [(random_blaschke(rng, 3), random_blaschke(rng, 2)),
                 (BlaschkeProduct(tuple(repeated)), random_blaschke(rng, 12, radius=0.95)),
                 (random_blaschke(rng, 24, radius=0.95), random_blaschke(rng, 24))]
        for alpha, beta in pairs:
            rank, svals = symbol_span_dimension(alpha, beta)
            stack = np.array([atto_matrix(alpha, beta, spec, method="closed").entries.ravel()
                              for spec in symbol_family(alpha, beta)])
            ref = np.linalg.svd(stack, compute_uv=False)
            assert rank == alpha.degree + beta.degree - 1
            assert np.max(np.abs(svals - ref)) <= 1e-14 * ref[0]


class TestBasesAndSerialization:
    def test_matrix_consistent_across_bases(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        sym = random_symbol(rng, alpha, beta)
        tm_mat = atto_matrix(alpha, beta, sym)
        kb = build_basis(alpha, "kernel-zeros")
        cb = build_basis(beta, "clark", 1.0)
        other = atto_matrix(alpha, beta, sym, kb, cb)
        f = random_vector(rng, build_basis(alpha, "tm"))
        out1 = tm_mat.apply(f)
        out2 = other.apply(f)
        assert np.max(np.abs(out1.tm() - out2.tm())) <= 1e-9 * (1 + out1.norm())
        back = other.in_bases(tm_mat.in_basis, tm_mat.out_basis)
        assert np.max(np.abs(back.entries - tm_mat.entries)) <= 1e-9

    def test_own_bases_return_the_matrix(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        m = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta),
                        build_basis(alpha, "clark", 1j), build_basis(beta, "modified-clark", 1.0))
        assert m.in_bases(m.in_basis, m.out_basis) is m
        assert m.in_bases(build_basis(alpha, "clark", 1j),
                          build_basis(beta, "modified-clark", 1.0)) is m
        moved = m.in_bases(build_basis(alpha, "tm"), m.out_basis)
        assert moved is not m and moved.in_basis.kind == "tm"

    def test_operator_json_round_trip(self, rng):
        alpha = random_blaschke(rng, 2)
        beta = random_blaschke(rng, 2)
        mat = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta),
                          build_basis(alpha, "clark", 1j), build_basis(beta, "tm"))
        again = OperatorMatrix.from_json(json.loads(json.dumps(mat.to_json())))
        assert again.alpha == mat.alpha and again.beta == mat.beta
        assert again.in_basis.kind == "clark" and again.in_basis.lam == 1j
        assert np.allclose(again.entries, mat.entries)

    def test_round_trip_is_exact_for_engineered_products(self, rng):
        for _ in range(60):
            m, n = (int(k) for k in rng.integers(1, 7, size=2))
            shared = int(rng.integers(0, min(m, n) + 1))
            for b in shared_clark_instance(rng, m, n, shared)[:2]:
                once = BlaschkeProduct.from_json(json.loads(json.dumps(b.to_json())))
                assert once == b
                assert BlaschkeProduct.from_json(json.loads(json.dumps(once.to_json()))) == b

    def test_reloaded_matrix_adds_to_original(self, rng):
        for _ in range(10):
            alpha, beta, lam1, lam2 = shared_clark_instance(rng, 3, 2, 1)
            mat = member_matrix(rng, alpha, beta, lam1, lam2)
            again = OperatorMatrix.from_json(json.loads(json.dumps(mat.to_json())))
            total = (mat + again).entries              # re-expressed through TM coordinates
            assert np.max(np.abs(total - 2 * mat.entries)) <= 1e-12 * (1 + mat.max_abs)

    def test_symbol_json_round_trip(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        gamma = random_blaschke(rng, 4)
        nodes = circle_nodes(64)
        for sym in (random_symbol(rng, alpha, beta),
                    SymbolSpec(co_analytic=random_vector(rng, build_basis(alpha, "tm")),
                               analytic=random_vector(rng, build_basis(gamma, "clark", 1j))),
                    SymbolSpec(raw=RationalSymbol((0.2, 1.0 + 0.5j), (1.0, -0.3j)))):
            again = SymbolSpec.from_json(json.loads(json.dumps(sym.to_json())))
            assert np.max(np.abs(again.values(nodes) - sym.values(nodes))) <= 1e-14

    def test_opaque_raw_symbol_has_no_json(self):
        with pytest.raises(ValueError, match="RationalSymbol"):
            SymbolSpec(raw=lambda z: z * z).to_json()

    def test_rejects_mismatched_bases(self, rng):
        alpha = random_blaschke(rng, 2)
        beta = random_blaschke(rng, 2)
        with pytest.raises(ValueError):
            atto_matrix(alpha, beta, z_symbol(),
                        build_basis(beta, "tm"), build_basis(beta, "tm"))


class TestTMMoves:
    def test_tm_bases_solve_nothing_and_match_the_solve(self, rng, monkeypatch):
        alpha, beta = random_blaschke(rng, 5), random_blaschke(rng, 3)
        ta, tb = build_basis(alpha, "tm"), build_basis(beta, "tm")
        tm = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        moved = np.linalg.solve(tb.matrix, tm @ ta.matrix)
        back = np.linalg.solve(ta.matrix.T, (tb.matrix @ tm).T).T
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(a) or real(*a))
        built = OperatorMatrix.from_tm(tm, ta, tb)
        given = OperatorMatrix(tm, ta, tb)
        assert np.array_equal(built.entries, moved) and np.array_equal(given.tm_entries(), back)
        assert built.tm_entries() is built.entries and given.tm_entries() is given.entries
        assert np.array_equal(given.adjoint().tm_entries(), tm.conj().T)
        sym = random_symbol(rng, alpha, beta)
        atto_matrix(alpha, beta, sym, method="closed").tm_entries()
        compressed_shift(alpha).tm_entries()
        assert calls == []


def refined_cases(rng):
    """Product pairs of degrees (d, d) and (d, d // 2), d from 1 to 64, with
    the outermost zero at radius 0.8, 0.95 and 0.9999, two spectral
    parameters and the closed-path TM matrix of a random symbol."""
    for d in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 64):
        for radius in (0.8, 0.95, 0.9999):
            for n in sorted({d, max(1, d // 2)}):
                alpha = widest_at(random_blaschke(rng, d), radius)
                beta = widest_at(random_blaschke(rng, n), radius)
                symbol = random_symbol(rng, alpha, beta)
                tm = atto_matrix(alpha, beta, symbol, method="closed").tm_entries()
                yield alpha, beta, random_unimodular(rng), random_unimodular(rng), tm


class TestRefinedInverse:
    """The stored T+ of the Clark kinds, against the solve it replaced, kept
    here as the reference."""

    def test_round_trip_from_tm_coordinates(self, rng):
        for alpha, beta, lam1, lam2, tm in refined_cases(rng):
            x = tm[:, 0]
            for kind in ("clark", "modified-clark"):
                ia, ob = build_basis(alpha, kind, lam1), build_basis(beta, kind, lam2)
                moved = OperatorMatrix.from_tm(tm, ia, ob)
                back = OperatorMatrix(moved.entries, ia, ob).tm_entries()
                assert relative_gap(back, tm) <= 4e-15, (alpha.degree, beta.degree, kind)
                vec = tm_vector(beta, x).to(ob)
                assert relative_gap(vec.tm(), x) <= 4e-15

    def test_clark_entries_match_the_solve(self, rng):
        for alpha, beta, lam1, lam2, tm in refined_cases(rng):
            for kind in ("clark", "modified-clark"):
                ia, ob = build_basis(alpha, kind, lam1), build_basis(beta, kind, lam2)
                moved = OperatorMatrix.from_tm(tm, ia, ob)
                solved = np.linalg.solve(ob.matrix, tm @ ia.matrix)
                assert relative_gap(moved.entries, solved) <= 2e-15, (
                    alpha.degree, beta.degree, kind)

    def test_inverse_is_stored_and_read_only(self, rng):
        b = random_blaschke(rng, 5)
        clark, modified = build_basis(b, "clark", 1j), build_basis(b, "modified-clark", 1j)
        for basis in (clark, modified):
            assert not basis.inverse.flags.writeable
            assert build_basis(b, basis.kind, 1j).inverse is basis.inverse
            assert np.abs(basis.inverse @ basis.matrix - np.eye(5)).max() <= 1e-14
        omega = modified.matrix[0] / clark.matrix[0]
        assert np.allclose(modified.inverse, np.conj(omega)[:, None] * clark.inverse,
                           rtol=0.0, atol=1e-15)
        assert build_basis(b, "tm").inverse is b.model_space.identity
        assert build_basis(b, "kernel-zeros").inverse is None
        stored = clark_points(b, 1j)
        assert clark_basis(b, stored).inverse is clark.inverse
        own = ClarkPointSet(stored.lam, stored.target, stored.points.copy(),
                            stored.weights.copy())
        assert clark_basis(b, own).inverse is None


class TestStoredArrays:
    def test_finite_check_takes_strided_complex_entries(self):
        tm2, tm3 = build_basis(monomial(2), "tm"), build_basis(monomial(3), "tm")
        strided = (np.arange(6) + 1j).reshape(2, 3).T
        assert np.array_equal(OperatorMatrix(strided, tm2, tm3).entries, strided)
        for bad in (complex(np.nan, 1.0), complex(np.inf, 1.0),
                    complex(1.0, np.nan), complex(1.0, -np.inf)):
            broken = (np.arange(6) + 1j).reshape(2, 3)
            broken[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                OperatorMatrix(broken.T, tm2, tm3)

    def test_entries_and_tm_matrix_are_read_only(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        ca, cb = build_basis(alpha, "clark", 1j), build_basis(beta, "clark", 1.0)
        built = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta), ca, cb)
        for mat in (built, OperatorMatrix(built.entries, ca, cb)):
            for arr in (mat.entries, mat.tm_entries()):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
            assert mat.tm_entries() is mat.tm_entries()

    def test_caller_arrays_stay_writable_and_unaliased(self, rng):
        alpha = random_blaschke(rng, 3)
        beta = random_blaschke(rng, 2)
        ca, cb = build_basis(alpha, "clark", 1j), build_basis(beta, "clark", 1.0)
        for build, stored in ((OperatorMatrix, lambda mat: mat.entries),
                              (OperatorMatrix.from_tm, lambda mat: mat.tm_entries())):
            given = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            kept = given.copy()
            held = stored(build(given, ca, cb))
            assert given.flags.writeable
            given[0, 0] += 1.0
            assert np.array_equal(held, kept) and not np.shares_memory(held, given)

    def test_basis_chain_keeps_the_tm_matrix(self, rng):
        alpha = random_blaschke(rng, 4)
        beta = random_blaschke(rng, 3)
        start = atto_matrix(alpha, beta, random_symbol(rng, alpha, beta))
        mat = start
        for kind, lam in (("clark", 1j), ("modified-clark", -1.0), ("tm", None)):
            mat = mat.in_bases(build_basis(alpha, kind, lam), build_basis(beta, kind, lam))
        assert mat.in_basis.kind == "tm" and mat is not start
        assert np.array_equal(mat.tm_entries(), start.tm_entries())

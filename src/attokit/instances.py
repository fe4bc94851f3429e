"""Seeded random instances for property runs and the self-test.

Besides plain random products and symbols, this module can run the Clark
construction backwards: given distinct unimodular points eta_1..eta_m and a
unimodular target u, the Herglotz sum

    G(z) = sum_j c_j (eta_j + z)/(eta_j - z),    c_j > 0,

yields a degree-m Blaschke product B = u (G - 1)/(G + 1) with B(eta_j) = u
for every j.  That makes it easy to engineer two products whose Clark point
sets share exactly l prescribed points.  With C = sum_j c_j, G = -C +
2 sum_j c_j eta_j/(eta_j - z), so the zeros of B, where G = 1, are the
eigenvalues of the diagonal-plus-rank-one matrix diag(eta) - v 1^T with
v = 2 c eta / (1 + C) (Golub, Some modified matrix eigenvalue problems,
1973); no polynomial coefficients are formed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blaschke import BlaschkeProduct, evaluate
from .config import DEFAULT, Tolerances
from .membership import ClarkPairing, clark_pairing
from .modelspace import ModelBasis, ModelVector, build_basis, clark_points, tm_vector
from .operators import OperatorMatrix, SymbolSpec, atto_matrix

MIN_CROSS = 0.05                # least Clark-point distance across generic_clark_instance's pair


def random_unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def random_points_in_disk(rng, count: int, radius: float = 0.8,
                          min_sep: float = 0.05) -> np.ndarray:
    """Rejection-sample ``count`` pairwise-separated points, |z| <= radius.
    Each draw is made with scalar ``math`` and ``cmath`` calls and checked
    against the points placed so far in one array operation."""
    pts = np.empty(count, dtype=complex)
    placed = 0
    for _ in range(10000):
        z = radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if placed == 0 or np.abs(z - pts[:placed]).min() >= min_sep:
            pts[placed] = z
            placed += 1
        if placed == count:
            return pts
    raise RuntimeError("could not place separated points; lower min_sep")


def random_blaschke(rng, degree: int, radius: float = 0.8,
                    min_sep: float = 0.05) -> BlaschkeProduct:
    zeros = random_points_in_disk(rng, degree, radius, min_sep)
    return BlaschkeProduct(tuple(zeros), random_unimodular(rng))


def random_vector(rng, basis: ModelBasis) -> ModelVector:
    m = basis.dim
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return ModelVector(basis, coeffs)


def random_symbol(rng, alpha: BlaschkeProduct, beta: BlaschkeProduct) -> SymbolSpec:
    """Random structured symbol conj(chi) + psi."""
    chi = random_vector(rng, build_basis(alpha, "tm"))
    psi = random_vector(rng, build_basis(beta, "tm"))
    return SymbolSpec(co_analytic=chi, analytic=psi)


def lambda_for_target(b: BlaschkeProduct, u: complex) -> complex:
    """The spectral parameter lam whose Moebius image is u."""
    b0 = b.model_space.b0
    return complex((complex(u) - b0) / (1.0 - np.conj(b0) * complex(u)))


def separated_boundary_points(rng, count: int, min_angle: float = 0.3) -> np.ndarray:
    """``count`` points on the circle, sorted by argument in [0, 2 pi), whose
    arguments lie at least ``min_angle`` apart.  Up to 12 points are
    rejection-sampled.  From 13 on, where that rarely succeeds, the gaps are
    drawn directly as min_angle + slack * Dirichlet(1, ..., 1) at a uniform
    rotation, with slack = 2 pi - count * min_angle: the law of the
    rejection sampler's accepted draws."""
    if count >= 13:
        slack = 2.0 * np.pi - count * min_angle
        if slack < 0.0:
            raise ValueError("count * min_angle exceeds the circle; lower min_angle")
        gaps = min_angle + slack * rng.dirichlet(np.ones(count))
        angles = (2.0 * np.pi * rng.random() + np.cumsum(gaps)) % (2.0 * np.pi)
        return np.exp(1j * np.sort(angles))
    for _ in range(10000):
        angles = np.sort(rng.random(count) * 2.0 * np.pi)
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if np.min(gaps) >= min_angle:
            return np.exp(1j * angles)
    raise RuntimeError("could not separate boundary points; lower min_angle")


def blaschke_through_points(points, u: complex, weights=None) -> BlaschkeProduct:
    """Degree-len(points) product B with B(eta_j) = u at every given point."""
    points = np.asarray(points, dtype=complex)
    c = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=float)
    v = 2.0 * c * points / (1.0 + np.sum(c))
    zeros = np.sort(np.linalg.eigvals(np.diag(points) - v[:, None]))
    if np.max(np.abs(zeros)) >= 1.0:
        raise RuntimeError("interpolation produced a zero outside the open disk")
    front = complex(u) / evaluate(BlaschkeProduct(tuple(zeros)), points[0])
    out = BlaschkeProduct(tuple(zeros), front)
    resid = np.max(np.abs(evaluate(out, points) - u))
    if resid > 1e-8:
        raise RuntimeError(f"interpolation residual {resid:.3e} too large")
    return out


def shared_clark_instance(rng, m: int, n: int, shared: int):
    """Products and parameters whose Clark sets share exactly ``shared`` points.

    Returns (alpha, beta, lam1, lam2), at any size.  For shared = 0 the points
    are sampled independently but still kept separated so that greedy
    matching is clean.
    """
    if not 0 <= shared <= min(m, n):
        raise ValueError(f"shared = {shared} lies outside 0..min(m, n) = 0..{min(m, n)}")
    total = m + n - shared
    pts = separated_boundary_points(rng, total, min_angle=min(0.25, 5.0 / total))
    pts_a = np.concatenate([pts[:shared], pts[shared: m]])
    pts_b = np.concatenate([pts[:shared], pts[m: total]])
    u_a = random_unimodular(rng)
    u_b = random_unimodular(rng)
    alpha = blaschke_through_points(pts_a, u_a, weights=0.5 + rng.random(m))
    beta = blaschke_through_points(pts_b, u_b, weights=0.5 + rng.random(n))
    return alpha, beta, lambda_for_target(alpha, u_a), lambda_for_target(beta, u_b)


def generic_clark_instance(rng, m: int, n: int, tol: Tolerances = DEFAULT):
    """Random products with random spectral parameters, resampled until the
    two Clark point sets are disjoint AND uniformly separated.

    Near-collisions of Clark points across the two spaces make one matrix
    entry nearly free, so a perturbation there is almost a member and every
    operator-level test legitimately lands in its indeterminate band; keeping
    the sets ``MIN_CROSS`` apart keeps test instances well conditioned.
    """
    for _ in range(200):
        alpha = random_blaschke(rng, m)
        beta = random_blaschke(rng, n)
        lam1 = random_unimodular(rng)
        lam2 = random_unimodular(rng)
        pa = clark_points(alpha, lam1, tol).points
        pb = clark_points(beta, lam2, tol).points
        if np.min(np.abs(pa[:, None] - pb[None, :])) >= MIN_CROSS:
            return alpha, beta, lam1, lam2
    raise RuntimeError("could not sample a separated generic instance")


def constrained_entries(m: int, n: int, shared: int) -> list[tuple[int, int]]:
    """0-indexed entries (s, p) genuinely constrained by the recurrences,
    i.e. safe targets for perturbing a member into a non-member."""
    out = []
    if shared == 0:
        out = [(s, p) for s in range(1, n) for p in range(1, m)]
    else:
        for s in range(1, shared):
            out.extend((s, p) for p in range(m) if p != s)
        for s in range(shared, n):
            out.extend((s, p) for p in range(1, m))
    return out


def _constrained_entry(m: int, shared: int, idx: int) -> tuple[int, int]:
    """``constrained_entries(m, n, shared)[idx]`` without the list: every row
    s >= 1 holds m - 1 entries (so the list has (n - 1)(m - 1) for every
    ``shared``), all p but s in a shared row s < ``shared`` and p >= 1 in
    the others."""
    s, k = 1 + idx // (m - 1), idx % (m - 1)
    return s, (k + (k >= s) if s < shared else 1 + k)


def member_matrix(rng, alpha: BlaschkeProduct, beta: BlaschkeProduct,
                  lam1: complex, lam2: complex,
                  tol: Tolerances = DEFAULT) -> OperatorMatrix:
    """A random member of the class, presented in the two Clark bases."""
    sym = random_symbol(rng, alpha, beta)
    return atto_matrix(alpha, beta, sym,
                       build_basis(alpha, "clark", lam1, tol=tol),
                       build_basis(beta, "clark", lam2, tol=tol), method="closed", tol=tol)


def perturbed_nonmember(rng, member: OperatorMatrix, pairing: ClarkPairing,
                        delta: float = 1e-3) -> OperatorMatrix:
    """Bump one constrained entry of a member by ``delta`` (times a random
    phase and the matrix scale), producing a non-member.

    The bump is one entry in Clark coordinates, and its distance to the
    class can be far smaller than ``delta``: a membership test may then
    land in its indeterminate band and raise IndeterminateError instead of
    rejecting."""
    n, m = member.entries.shape
    if (n - 1) * (m - 1) == 0:
        raise ValueError("no constrained entries at this size: every matrix is a member")
    s_pos, p_pos = _constrained_entry(m, pairing.shared, int(rng.integers((n - 1) * (m - 1))))
    s, p = int(pairing.perm_b[s_pos]), int(pairing.perm_a[p_pos])
    bumped = member.entries.copy()
    bumped[s, p] += delta * (1.0 + member.max_abs) * random_unimodular(rng)
    return OperatorMatrix(bumped, member.in_basis, member.out_basis)

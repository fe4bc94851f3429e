"""Elements and bases of the model space attached to a finite Blaschke product.

The model space of a degree-m product B with zeros a_1..a_m and denominator
q(z) = prod (1 - conj(a_j) z) is exactly the m-dimensional rational family

    K_B = { p(z) / q(z) : deg p <= m - 1 },

which this module coordinatizes through the Takenaka-Malmquist (TM) basis

    phi_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} (z - a_j)/(1 - conj(a_j) z).

The TM basis is orthonormal for any zero configuration (multiplicities
included) and reduces to the monomial basis when all zeros sit at the origin;
it is the internal canonical coordinate system.  Kernel, Clark and modified
Clark bases are carried as coordinate matrices over it.

Five identities do most of the work here, all in TM coordinates, with
s_k = sqrt(1 - |a_k|^2), b_j(z) = (z - a_j)/(1 - conj(a_j) z) and
eps = front * (-1)^m (so B = eps * prod b_j):

* kernel coordinates are conjugated TM values:  <k_w, phi_k> = conj(phi_k(w));
* the conjugation C f = B(z) conj(z) conj(f(z)) on the circle sends phi_k to
      eps * s_k / (1 - conj(a_k) z) * prod_{j>k} b_j,
  the TM element of the reversed zero order.  Reversing the order by adjacent
  swaps, each an exact 2x2 unitary on the two TM elements it touches, gives
  these coordinates with no detour through polynomial coefficients
  (Garcia-Mashreghi-Ross, Introduction to Model Spaces and their Operators,
  2016);
* the conjugate kernel (B(z) - B(w)) / (z - w) is C k_w, so its coordinates
  are the conjugation matrix times the TM values at w; at the origin they are
      eps * s_i * prod_{j>i} (-a_j);
* z f stays in K_B exactly when f is orthogonal to the conjugate kernel at
  the origin, and z f is then the compressed shift applied to f, whose TM
  matrix has a closed lower-triangular form;
* the modified shift S + c k_0 k~_0^H with c = u / (1 - conj(B(0)) u) is
  unitary for every unimodular u, and its eigenvalues are exactly the m
  solutions of B(eta) = u (Clark, J. Analyse Math. 1972), so the Clark
  points come from the exact shift with no polynomial coefficients.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import serialize
from .blaschke import (BlaschkeProduct, ClarkPointSet, RootCollisionError,
                       ToleranceBreakdown, evaluate, mobius_target)
from .config import DEFAULT, Tolerances

BASIS_KINDS = ("tm", "kernel-zeros", "clark", "modified-clark")
CLARK_ENTRIES = 8               # keys a store of a space keeps, the oldest going first
QUADRATURE_START = 256          # node count of the first quadrature level
QUADRATURE_MAX = 1 << 15        # node count past which the quadrature gives up


class QuadratureError(RuntimeError):
    """Adaptive circle quadrature failed to converge (pole too close)."""


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------

def circle_nodes(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def _odd_nodes(n: int) -> np.ndarray:
    """The nodes exp(2 pi i k / n), k odd, bit-equal to ``circle_nodes(n)[1::2]``."""
    return np.exp(2j * np.pi * np.arange(1, n, 2) / n)


def _joined(node_sets):
    """The node sets of one ``node_sum`` call as one array, in their order,
    and the slice of that array that each set fills."""
    z = np.concatenate(node_sets) if len(node_sets) > 1 else node_sets[0]
    ends = itertools.accumulate(map(len, node_sets))
    return z, [slice(end - len(nodes), end) for nodes, end in zip(node_sets, ends)]


def doubling_circle_mean(node_sum, tol: float = DEFAULT.quadrature):
    """Trapezoid rule on the unit circle with nested node doubling.

    ``node_sum(*node_sets)`` must return one sum per node set (each a 1-D
    array of points on the circle): the integrand summed over that set's
    nodes, as a new array (or a scalar), computed however suits the
    integrand; the running sum is added into the first one.  The first
    call passes the first level, ``QUADRATURE_START`` nodes, as three sets:
    ``circle_nodes(QUADRATURE_START // 4)``, then the odd nodes of
    ``QUADRATURE_START // 2``, then the odd nodes of ``QUADRATURE_START``, so
    an integrand can evaluate all of them at once in that nested order
    (:func:`_joined`) and sum over three contiguous ranges.  Each doubling to
    2n then passes one set, the n new odd nodes exp(2 pi i k / 2n), k odd.
    Every node is bit-equal to the node of ``circle_nodes`` at its level and
    is evaluated once.  The n-node trapezoid mean, the approximation of
    (1/2pi) * integral over the circle, is the running sum divided by n.

    With d_N = max|I_N - I_{N/2}| the gap between successive levels, read
    off the sums as max|S' - S| / N for the sum S over the N/2 nodes of the
    previous level and S' over the N/2 new ones, and scale = 1 + max|I_N|,
    level N >= ``QUADRATURE_START`` is accepted when
    d_N <= tol * scale, or when d_N^2 / d_{N/2} <= tol * scale; the means of
    the first level's sets give I_{N/4}, I_{N/2} and I_N, so both tests can
    accept its N nodes.  For a rational integrand with poles off the circle
    the error falls geometrically (Trefethen-Weideman, SIAM Review 2014),
    and the second test extrapolates the contraction d_N / d_{N/2} observed
    one level earlier, which overestimates the next one and includes the
    polynomial factor of repeated or clustered poles.  A component at a
    multiple of ``QUADRATURE_START`` in the integrand's Fourier series is the
    same in every mean, so no test sees it.  Raises QuadratureError past
    ``QUADRATURE_MAX`` nodes.
    """
    n = QUADRATURE_START // 4
    node_sets = (circle_nodes(n), _odd_nodes(2 * n), _odd_nodes(4 * n))
    total = gap_prev = None
    while n <= QUADRATURE_MAX:
        for part in node_sum(*node_sets):
            if total is None:
                total = part              # a new array: the sums below add into it
            else:                         # I_n - I_{n/2} = (part - total) / n
                gap = float(np.abs(part - total).max()) / n
                total += part
                if n >= QUADRATURE_START:
                    bound = tol * (1.0 + float(np.abs(total).max()) / n)
                    if gap <= bound or gap * gap <= bound * gap_prev:
                        return total * (1.0 / n)      # n is a power of two: exactly total / n
                gap_prev = gap
            n *= 2
        node_sets = (_odd_nodes(n),)
    raise QuadratureError(f"circle quadrature did not converge below {tol} "
                          f"at {QUADRATURE_MAX} nodes")


# ---------------------------------------------------------------------------
# exact TM matrices of one space
# ---------------------------------------------------------------------------

def tm_values(b: BlaschkeProduct, z) -> np.ndarray:
    """Values of the TM basis at z, stacked as shape (m,) + shape(z).

    Evaluated in product form, so every factor has modulus <= 1 on the closed
    disk and boundary points are perfectly admissible.  A complex division
    costs about ten multiplications, so inv_k = 1 / (1 - conj(a_k) z) is
    formed once per zero and point, for all zeros in one array, and gives
    both s_k inv_k and the factor b_k(z) = (z - a_k) inv_k.  The prefix
    products of the factors then run in place, one row and one numpy call
    per zero, and one more call multiplies them into the values.  s_k is
    rounded as :attr:`ModelSpace.k0` rounds it, so at z = 0 the two agree
    bit for bit.  Besides the result, one (m - 1) x size(z) array of
    factors is alive during the call.
    """
    zarr = np.asarray(z, dtype=complex)
    flat = zarr.reshape(1, -1)
    a = np.array(b.zeros)[:, None]
    vals = np.conj(a) * flat
    np.subtract(1.0, vals, out=vals)
    np.divide(1.0, vals, out=vals)                  # inv_k, one division per entry
    fac = flat - a[:-1]
    fac *= vals[:-1]                                # fac[k] = b_k(z)
    vals *= np.sqrt([1.0 - abs(w) ** 2 for w in b.zeros])[:, None]
    for k in range(1, len(fac)):                    # fac[k] = prod_{j<=k} b_j(z)
        np.multiply(fac[k - 1], fac[k], out=fac[k])
    vals[1:] *= fac
    return vals.reshape((len(vals),) + zarr.shape)


def _combine(coords: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """sum_k coords[k] vals[k] for TM coordinates ``coords`` (m,) and TM
    values ``vals`` (m,) + shape(z): the one ``np.dot`` of a (1, m) row and
    an (m, -1) matrix that ``np.tensordot(coords, vals, axes=(0, 0))``
    makes, without its argument handling, and with its bits."""
    return np.dot(coords.reshape(1, -1), vals.reshape(len(coords), -1)).reshape(vals.shape[1:])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _kept(store: dict, key, build):
    """``store[key]``, built by ``build()`` and kept from its first use; a full
    store drops its oldest key first, and a build that raises stores nothing."""
    value = store.get(key)
    if value is None:
        value = build()
        if len(store) >= CLARK_ENTRIES:
            del store[next(iter(store))]
        store[key] = value
    return value


class ModelSpace:
    """The exact objects of one model space in TM coordinates: the TM identity,
    the compressed shift S, the kernel k_0 and the conjugate kernel k~_0 at
    the origin, so that I - S S* = k_0 k_0^H and I - S* S = k~_0 k~_0^H, an
    orthonormal basis of the shift domain, the conjugation matrix and B(0).

    Reached as ``b.model_space``, one per product.  Each array is computed on
    first use, kept, and read-only, so every modified shift, multiplication
    by z, conjugate kernel and Stein solve of the space shares it.  So are
    the squared norms of k_0 and k~_0, which the rank-two membership tests
    divide by.

    The space holds arrays, point sets and scalars only: the zeros, front
    and degree of its product (all that :func:`evaluate` and
    :func:`tm_values` read) and what it computes from them.  It names no
    product, so a product and its space are freed by reference counting
    when the last outside reference goes; a basis or vector names its
    product, so holding one keeps both alive.

    Two stores share one rule (:func:`_kept`): a value is built, read-only,
    and kept from its first use, a store keeps its last ``CLARK_ENTRIES``
    keys, and a build that raises stores nothing.  One keeps the modified
    shift S_c per c != 0 (:meth:`modified`; S_0 is ``shift`` itself).  The
    other keeps the Clark work per (lam, tol) (:func:`_clark_entry`): the
    point set and the arrays of its Clark and modified-Clark bases with their
    inverses.  ``tol`` is part of the key because its checks gate the solve.

    A third store, of the TM values at the levels of the nested circle
    quadrature (:meth:`level_values`), keys a level by its node count n and
    whether it is the full first level or the odd half of a doubling.  Its
    arrays are m x n, so a level is stored, read-only, on its second
    evaluation, and a product evaluated once holds no node arrays.  Every
    quadrature starts at ``QUADRATURE_START`` nodes, so a space stores at
    most one ladder of levels: m x ``QUADRATURE_MAX`` complex values.
    """

    def __init__(self, b: BlaschkeProduct):
        self.zeros, self.front, self.degree = b.zeros, b.front, b.degree
        self._clark, self._modified, self._levels = {}, {}, {}

    @functools.cached_property
    def shift(self) -> np.ndarray:
        """<z phi_j, phi_i> over the TM basis:

            S[i, i] = a_i,   S[i, j] = s_i s_j prod_{j<k<i} (-conj(a_k))  (i > j),

        and zero above the diagonal (Garcia-Mashreghi-Ross 2016).  Row i of the
        product table is row i - 1 times -conj(a_{i-1}), extended by a 1, never a
        quotient of cumulative products: a zero at the origin makes a factor 0.
        """
        a = np.array(self.zeros)
        m = self.degree
        s = np.sqrt(1.0 - np.abs(a) ** 2)
        prods = np.zeros((m, m), dtype=complex)   # prods[i, j] = prod_{j<k<i} (-conj(a_k))
        for i in range(1, m):
            prods[i, : i - 1] = prods[i - 1, : i - 1] * -np.conj(a[i - 1])
            prods[i, i - 1] = 1.0
        return _read_only(np.diag(a) + s[:, None] * s[None, :] * prods)

    @functools.cached_property
    def identity(self) -> np.ndarray:
        """The matrix of every TM basis of the space, read-only."""
        return _read_only(np.eye(self.degree, dtype=complex))

    @functools.cached_property
    def b0(self) -> complex:
        """B(0), read by every Moebius target and Clark coefficient."""
        return complex(evaluate(self, 0.0))

    @functools.cached_property
    def k0(self) -> np.ndarray:
        """TM coordinates conj(phi_i(0)) = s_i * prod_{j<i} (-conj(a_j)) of the
        kernel at the origin, from prefix products of -a.  s_i and the products
        are rounded as :func:`tm_values` rounds them at 0 (one scalar complex
        product per zero, as its in-place row products at one point make
        them; ``np.cumprod`` rounds some differently), so the two routes give
        equal values."""
        zeros = self.zeros
        s = np.sqrt([1.0 - abs(a) ** 2 for a in zeros])
        prefix = np.array([1.0, *itertools.accumulate((-a for a in zeros[:-1]), operator.mul)])
        return _read_only(np.conj(s * prefix))    # prefix[i] = prod_{j<i} (-a_j)

    @functools.cached_property
    def kt0(self) -> np.ndarray:
        """TM coordinates eps * s_i * prod_{j>i} (-a_j) of (B(z) - B(0)) / z."""
        a = np.array(self.zeros)
        suffix = np.ones(self.degree, dtype=complex)  # suffix[i] = prod_{j>i} (-a_j)
        suffix[:-1] = np.cumprod(-a[:0:-1])[::-1]
        return _read_only(self.front * (-1.0) ** self.degree * np.sqrt(1.0 - np.abs(a) ** 2)
                          * suffix)

    @functools.cached_property
    def k0_norm2(self) -> float:
        """||k_0||^2."""
        return np.linalg.norm(self.k0) ** 2

    @functools.cached_property
    def kt0_norm2(self) -> float:
        """||k~_0||^2."""
        return np.linalg.norm(self.kt0) ** 2

    @functools.cached_property
    def shift_domain(self) -> np.ndarray:
        """TM coordinates, one column each, of an orthonormal basis of
        { f : z f stays in the model space }, the orthocomplement of k~_0
        (dimension m - 1)."""
        row = np.conj(self.kt0 / np.linalg.norm(self.kt0)).reshape(1, -1)   # row @ x = <x, kt>/|kt|
        _, _, vh = np.linalg.svd(row, full_matrices=True)
        return _read_only(np.conj(vh[1:]).T)

    @functools.cached_property
    def shift_image(self) -> np.ndarray:
        """TM coordinates of z f for each column f of :attr:`shift_domain`,
        i.e. S F."""
        return _read_only(self.multiply_by_z(self.shift_domain))

    @functools.cached_property
    def conj(self) -> np.ndarray:
        """The conjugation over the TM basis: C f has TM coordinates
        ``conj @ conj(coords of f)``.

        Column k holds the TM coordinates of C phi_k = eps * psi_k, where psi_k
        is the TM element of the reversed zero order.  An odd-even transposition
        network reverses the order in m rounds; each round swaps disjoint
        adjacent pairs (a, c) at once by the exact unitary

            (phi_p, phi_{p+1}) -> (x phi_p + y phi_{p+1}, u phi_p + x phi_{p+1}),
            d = 1 - a conj(c),  x = s_a s_c / d,  u = (a - c) / d,  y = (conj(c) - conj(a)) / d,

        which is the identity for equal zeros and needs no care at the origin.
        d is computed as s_a^2 + a conj(a - c), so that for equal zeros
        d = s_a s_c and x = 1 exactly, even next to the circle.
        Every comparator swaps, so m alone fixes which zero sits in which slot
        at every round: the (x, u, y) of all rounds come from one evaluation,
        stacked once as [x, u] and [y, x] per pair.  A round's pairs are
        adjacent rows, so they form one (h, 2, m) view, and the round is one
        broadcast product-sum of the stacks with the pairs' top and bottom
        rows.
        The result is symmetric, and an involution to rounding at any degree.
        """
        a = np.array(self.zeros)
        s = np.sqrt(1.0 - np.abs(a) ** 2)
        m = self.degree
        slot = np.arange(m)           # slot[p]: index of the zero at slot p
        tops, bottoms = [], []
        for rnd in range(m):
            lo = rnd % 2
            top, bottom = slot[lo:m - 1:2].copy(), slot[lo + 1:m:2].copy()
            slot[lo:m - 1:2], slot[lo + 1:m:2] = bottom, top
            tops.append(top)
            bottoms.append(bottom)
        p, q = np.concatenate(tops), np.concatenate(bottoms)
        d = s[p] ** 2 + a[p] * np.conj(a[p] - a[q])
        x = s[p] * s[q] / d
        u = (a[p] - a[q]) / d
        y = (np.conj(a[q]) - np.conj(a[p])) / d
        left = np.stack([x, u], axis=1)[:, :, None]     # pair j: [x, u] times its top row
        right = np.stack([y, x], axis=1)[:, :, None]    # and [y, x] times its bottom row
        rows = np.eye(m, dtype=complex)   # row p: TM coordinates of the element at slot p
        start = 0
        for rnd in range(m):
            lo = rnd % 2
            h = (m - lo) // 2
            pairs = rows[lo:lo + 2 * h].reshape(h, 2, m)    # (top, bottom) of each pair
            k = slice(start, start + h)
            start = k.stop
            pairs[...] = left[k] * pairs[:, :1] + right[k] * pairs[:, 1:]
        return _read_only(self.front * (-1.0) ** m * rows[::-1].T)   # slot m-1-k holds psi_k

    def modified(self, c: complex) -> np.ndarray:
        """The modified compressed shift S_c = S + c k_0 k~_0^H, read-only:
        ``shift`` itself for c = 0, otherwise stored from the first use of c."""
        if c == 0:
            return self.shift
        c = complex(c)
        return _kept(self._modified, c,
                     lambda: _read_only(self.shift + c * np.outer(self.k0, np.conj(self.kt0))))

    def multiply_by_z(self, coords: np.ndarray) -> np.ndarray:
        """TM coordinates of z f for every f given by TM coordinates
        ``coords`` (a vector, or a matrix with one f per column).

        z f stays in the model space exactly when f is orthogonal to k~_0,
        and is then S f.  Raises ValueError when any f fails that test, i.e.
        |<f, k~_0>| > 1e-7 ||f|| ||k~_0||.
        """
        pairing = np.abs(self.kt0.conj() @ coords)
        bound = 1e-7 * np.linalg.norm(coords, axis=0) * np.linalg.norm(self.kt0)
        if np.any(pairing > bound):
            raise ValueError("z*f leaves the model space: f is not orthogonal to the "
                             "conjugate kernel at 0")
        return self.shift @ coords

    def level_values(self, z: np.ndarray) -> np.ndarray:
        """``tm_values(space, z)`` at one level z of :func:`doubling_circle_mean`,
        the first level (``QUADRATURE_START`` nodes in its nested order, from
        the node 1) or the odd half ``circle_nodes(n)[1::2]`` that a doubling
        to n adds.  The level is read off z: the first level starts at the
        node 1, an odd half does not.  Stored on the level's second
        evaluation, then returned as stored."""
        key = (len(z), False) if z[0] == 1.0 else (2 * len(z), True)
        vals = self._levels.get(key)
        if vals is None:          # the first evaluation marks the level, the second stores it
            vals = tm_values(self, z)
            self._levels[key] = _read_only(vals) if key in self._levels else None
        return vals


def boundary_solve(b: BlaschkeProduct, u: complex, tol: Tolerances = DEFAULT) -> np.ndarray:
    """All m distinct unimodular solutions of B(eta) = u, |u| = 1, sorted by
    principal argument.

    They are the eigenvalues of the unitary modified shift S + c k_0 k~_0^H
    with c = u / (1 - conj(B(0)) u) (see the module docstring).  Their
    arguments put them on the circle, where one Newton step in the argument,
    eta <- eta * exp(-i arg(B(eta) / u) / |B'(eta)|), refines them: |B'(eta)|,
    the rate at which arg B turns along the circle, is ||k_eta||^2 there.  Raises
    ToleranceBreakdown if a residual |B(eta) - u| exceeds ``tol.residual``
    and RootCollisionError if two points lie within ``tol.distinct``.
    """
    u = complex(u)
    if abs(abs(u) - 1.0) > 1e-9:
        raise ValueError("target must be unimodular")
    c = u / (1.0 - np.conj(b.model_space.b0) * u)
    # exp(i arg) is unimodular to half an ulp; eta / |eta| misses by a few
    # ulps, which the step in the argument cannot remove
    eta = np.exp(1j * np.angle(np.linalg.eigvals(b.model_space.modified(c))))
    eta = eta * np.exp(-1j * np.angle(evaluate(b, eta) / u) / _kernel_norms2(tm_values(b, eta)))

    resid = np.max(np.abs(evaluate(b, eta) - u))
    if resid > tol.residual:
        raise ToleranceBreakdown(
            f"boundary points miss the target by more than {tol.residual}: "
            f"max residual {resid:.3e}")
    diff = np.abs(eta[:, None] - eta[None, :]) + np.diag(np.full(b.degree, np.inf))
    if np.min(diff) < tol.distinct:
        raise RootCollisionError(
            f"two boundary points lie within {tol.distinct}: numerical breakdown")
    return eta[np.argsort(np.angle(eta) % (2.0 * np.pi))]


def clark_points(b: BlaschkeProduct, lam: complex, tol: Tolerances = DEFAULT) -> ClarkPointSet:
    """Clark point set for spectral parameter lam: the m unimodular solutions
    of B(eta) = target with the weights ||k_eta_j||^2 = |B'(eta_j)|.  Solved
    once per (lam, tol), with its bases' arrays, and kept on
    ``b.model_space`` (:func:`_clark_entry`); its arrays are read-only."""
    return _clark_entry(b, lam, tol).point_set


class _ClarkWork(NamedTuple):
    """The read-only Clark work of one (lam, tol); like the space, no product."""

    point_set: ClarkPointSet
    clark_matrix: np.ndarray
    modified_matrix: np.ndarray
    clark_inverse: np.ndarray
    modified_inverse: np.ndarray


def _kernel_norms2(vals: np.ndarray) -> np.ndarray:
    """||k_eta||^2 = sum_k |phi_k(eta)|^2 per column of TM values ``vals``."""
    return np.sum(vals.real ** 2 + vals.imag ** 2, axis=0)


def _clark_entry(b: BlaschkeProduct, lam: complex, tol: Tolerances) -> _ClarkWork:
    """The Clark work for (lam, tol) kept on ``b.model_space``, built whole on
    first use from one :func:`tm_values` at the points, so the Clark matrix T
    has unit columns; the modified matrix carries :func:`build_basis`'s phases.
    T is unitary up to the rounding of its points (T^H T - I reaches 3e-13 at
    |a| = 0.9999), so one Newton-Schulz step from the adjoint (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 14), which squares
    that defect, is its inverse to rounding: T+ = T^H + (I - T^H T) T^H,
    the small correction added apart.  The modified matrix T diag(omega)
    has the inverse diag(conj(omega)) T+."""
    lam = complex(lam)

    def build() -> _ClarkWork:
        if abs(abs(lam) - 1.0) > 1e-9:
            raise ValueError("lam must be unimodular")
        target = mobius_target(b, lam)
        pts = _read_only(boundary_solve(b, target, tol))
        vals = tm_values(b, pts)
        weights = _read_only(_kernel_norms2(vals))
        point_set = ClarkPointSet(lam, target, pts, weights)
        matrix = np.conj(vals) / np.sqrt(weights)
        omega = np.exp(-0.5j * (np.angle(pts) % (2.0 * np.pi) - np.angle(target) % (2.0 * np.pi)))
        adjoint = matrix.conj().T
        inverse = adjoint + (np.eye(len(pts)) - adjoint @ matrix) @ adjoint
        return _ClarkWork(point_set, _read_only(matrix), _read_only(matrix * omega[None, :]),
                          _read_only(inverse), _read_only(np.conj(omega)[:, None] * inverse))

    return _kept(b.model_space._clark, (lam, tol), build)


# ---------------------------------------------------------------------------
# bases and vectors
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class ModelBasis:
    """Ordered basis of a model space.

    ``matrix`` holds the basis vectors as columns of TM coordinates, so a
    coefficient vector c over this basis has TM coordinates ``matrix @ c``.
    ``inverse`` is a read-only inverse of ``matrix`` to rounding, which
    basis changes multiply by (:func:`_apply_inverse`), or None, and they
    solve: None for kernel-zeros, which can be ill-conditioned, and for a
    Clark basis at a point set not stored on the space.
    """

    space: BlaschkeProduct
    kind: str
    matrix: np.ndarray
    clark: ClarkPointSet | None = None
    inverse: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.space.degree

    @property
    def gram(self) -> np.ndarray:
        """Pairwise inner products; identity for the orthonormal kinds."""
        return self.matrix.conj().T @ self.matrix

    @property
    def lam(self):
        return None if self.clark is None else self.clark.lam

    @property
    def is_tm(self) -> bool:
        """Whether this is a TM basis over the space's stored identity
        (``ModelSpace.identity``), as ``build_basis(b, "tm")`` is, so that
        a matrix between two of them is its own TM matrix."""
        return self.kind == "tm" and self.matrix is self.space.model_space.identity

    def descriptor(self) -> dict:
        out = {"basis": self.kind}
        if self.clark is not None:
            out["lambda"] = serialize.cpx(self.clark.lam)
        return out


def build_basis(b: BlaschkeProduct, kind: str, lam: complex | None = None,
                tol: Tolerances = DEFAULT) -> ModelBasis:
    """Construct one of the four supported bases.

    Each call returns a new basis; the "tm" and Clark kinds are over arrays
    and inverses stored on ``b.model_space``, so moving to or from them
    solves nothing.  Both Clark kinds read one entry per (lam, tol), built
    whole on its first use, by a basis or :func:`clark_points`, so a Clark
    basis after the points evaluates nothing.  kernel-zeros requires distinct
    zeros and has no inverse; the Clark kinds require the spectral parameter
    ``lam``.  Clark points are ordered by principal argument.  For the
    modified Clark basis the phases

        omega_j = exp(-i/2 (arg eta_j - arg target))

    make every basis vector a fixed point of the conjugation; arguments are
    reduced to [0, 2*pi), and any other branch would do since the
    fixed-point property is insensitive to the sign of omega_j.
    """
    if kind == "tm":
        identity = b.model_space.identity
        return ModelBasis(b, kind, identity, inverse=identity)
    if kind == "kernel-zeros":
        zeros = np.array(b.zeros)
        sep = np.abs(zeros[:, None] - zeros[None, :]) + np.diag(np.full(b.degree, np.inf))
        if np.min(sep) < tol.distinct:
            raise ValueError("kernel-zeros basis requires distinct zeros")
        cols = np.conj(tm_values(b, zeros))          # (m, m): column j = k_{a_j}
        return ModelBasis(b, kind, cols)
    if kind in ("clark", "modified-clark"):
        if lam is None:
            raise ValueError(f"{kind} basis requires the spectral parameter lam")
        entry = _clark_entry(b, lam, tol)
        if kind == "clark":
            return ModelBasis(b, kind, entry.clark_matrix, entry.point_set, entry.clark_inverse)
        return ModelBasis(b, kind, entry.modified_matrix, entry.point_set, entry.modified_inverse)
    raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")


def clark_basis(b: BlaschkeProduct, point_set: ClarkPointSet) -> ModelBasis:
    """The Clark basis at the points of ``point_set``: the boundary kernels k_eta
    over the square roots of its weights, in its order.  Solves no boundary
    equation, so a caller holding the points pays only for the kernels.

    For a point set stored on ``b.model_space`` (one from :func:`clark_points`
    or a Clark basis) the basis is over the stored array and inverse, the
    ones ``build_basis`` uses, and evaluates nothing; any other point set
    gets a new array and no inverse, so moving to or from it solves."""
    for entry in b.model_space._clark.values():
        if entry.point_set is point_set:
            return ModelBasis(b, "clark", entry.clark_matrix, point_set, entry.clark_inverse)
    matrix = np.conj(tm_values(b, point_set.points)) / np.sqrt(point_set.weights)
    return ModelBasis(b, "clark", _read_only(matrix), clark=point_set)


def _apply_inverse(basis: ModelBasis, x: np.ndarray, right: bool = False) -> np.ndarray:
    """T^-1 x, or x T^-1 when ``right``, for the matrix T of ``basis``: a
    product with ``basis.inverse`` when the basis carries one, a solve
    against T otherwise.  Every basis change of the library comes here."""
    if basis.inverse is not None:
        return x @ basis.inverse if right else basis.inverse @ x
    if right:
        return np.linalg.solve(basis.matrix.T, x.T).T
    return np.linalg.solve(basis.matrix, x)


def change_of_basis(src: ModelBasis, dst: ModelBasis) -> np.ndarray:
    """Invertible T with coeffs_dst = T @ coeffs_src.  Requires one space.
    A product with ``dst.inverse`` when it has one (:func:`_apply_inverse`)."""
    if src.space != dst.space:
        raise ValueError("change of basis requires a single underlying space")
    return _apply_inverse(dst, src.matrix)


@dataclass(eq=False, frozen=True)
class ModelVector:
    """Element of a model space as coefficients over a declared basis."""

    basis: ModelBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.basis.dim,):
            raise ValueError(f"expected {self.basis.dim} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def space(self) -> BlaschkeProduct:
        return self.basis.space

    def tm(self) -> np.ndarray:
        return self.basis.matrix @ self.coeffs

    def to(self, basis: ModelBasis) -> "ModelVector":
        """The same element over ``basis``, by :func:`_apply_inverse`: a
        product when ``basis`` carries an inverse, a solve otherwise."""
        if basis.space != self.space:
            raise ValueError("cannot convert between different model spaces")
        return ModelVector(basis, _apply_inverse(basis, self.tm()))

    def __call__(self, z):
        vals = tm_values(self.space, z)
        return _combine(self.tm(), vals)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tm()))

    def __add__(self, other: "ModelVector") -> "ModelVector":
        if other.basis.matrix is not self.basis.matrix:
            other = other.to(self.basis)
        return ModelVector(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "ModelVector") -> "ModelVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "ModelVector":
        return ModelVector(self.basis, complex(scalar) * self.coeffs)

    def to_json(self) -> dict:
        out = {"alpha": self.space.to_json(),
               "basis": self.basis.kind,
               "coeffs": serialize.cpx_seq(self.coeffs)}
        if self.basis.clark is not None:
            out["lambda"] = serialize.cpx(self.basis.clark.lam)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelVector":
        obj = serialize.unobject(obj, "a model-space vector")
        b = BlaschkeProduct.from_json(obj["alpha"])
        lam = serialize.uncpx(obj["lambda"]) if "lambda" in obj else None
        basis = build_basis(b, obj["basis"], lam)
        return cls(basis, np.array(serialize.uncpx_seq(obj["coeffs"])))


def tm_vector(b: BlaschkeProduct, coords) -> ModelVector:
    return ModelVector(build_basis(b, "tm"), np.asarray(coords, dtype=complex))


# ---------------------------------------------------------------------------
# kernels, conjugation, pairings
# ---------------------------------------------------------------------------

def kernel(b: BlaschkeProduct, w: complex, basis: ModelBasis | None = None) -> ModelVector:
    """Reproducing kernel k_w = (1 - conj(B(w)) B(z)) / (1 - conj(w) z).

    Valid on the closed disk; boundary points are genuine members because a
    finite Blaschke product has an angular derivative everywhere.  At w = 0
    it is a copy of ``b.model_space.k0``.
    """
    w = complex(w)
    if abs(w) > 1.0 + 1e-12:
        raise ValueError("kernel point must lie in the closed unit disk")
    coords = b.model_space.k0.copy() if w == 0 else np.conj(tm_values(b, w))
    vec = tm_vector(b, coords)
    return vec if basis is None else vec.to(basis)


def conj_kernel(b: BlaschkeProduct, w: complex, basis: ModelBasis | None = None) -> ModelVector:
    """Conjugate kernel (B(z) - B(w)) / (z - w), value B'(w) at z = w.

    Computed as C k_w, i.e. ``b.model_space.conj @ tm_values(b, w)``; at
    w = 0 it is a copy of ``b.model_space.kt0``, with no matrix.
    """
    w = complex(w)
    if abs(w) > 1.0 + 1e-12:
        raise ValueError("kernel point must lie in the closed unit disk")
    space = b.model_space
    coords = space.kt0.copy() if w == 0 else space.conj @ tm_values(b, w)
    vec = tm_vector(b, coords)
    return vec if basis is None else vec.to(basis)


def conjugation(f: ModelVector) -> ModelVector:
    """Apply the antilinear conjugation of the model space to f, through the
    exact TM form of B(z) conj(z) conj(f(z)) (see :attr:`ModelSpace.conj`)."""
    b = f.space
    return tm_vector(b, b.model_space.conj @ np.conj(f.tm())).to(f.basis)


def inner_product(f: ModelVector, g: ModelVector) -> complex:
    """Hermitian pairing <f, g>, linear in f.  Both arguments must live in the
    same model space; bases are reconciled through TM coordinates."""
    if f.space != g.space:
        raise ValueError("inner product requires vectors from the same model space")
    return complex(np.vdot(g.tm(), f.tm()))


def project(b: BlaschkeProduct, values_fn, tol: Tolerances = DEFAULT) -> ModelVector:
    """Orthogonal projection onto the model space of a circle function given
    by ``values_fn(nodes)``, expanded in TM coordinates by quadrature."""
    def node_sum(*node_sets):
        z, parts = _joined(node_sets)
        left, right = np.conj(b.model_space.level_values(z)), values_fn(z)
        return [left[:, part] @ right[part] for part in parts]

    coords = doubling_circle_mean(node_sum, tol.quadrature)
    return tm_vector(b, coords)


def multiply_by_z(f: ModelVector) -> ModelVector:
    """The function z f(z), defined only when it stays in the model space,
    i.e. when f is orthogonal to the conjugate kernel at 0; raises
    ValueError otherwise (see :meth:`ModelSpace.multiply_by_z`).
    """
    return tm_vector(f.space, f.space.model_space.multiply_by_z(f.tm())).to(f.basis)

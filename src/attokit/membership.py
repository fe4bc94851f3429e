"""Decision procedures for membership in the truncated-Toeplitz class.

Three independent characterizations of "A is a truncated Toeplitz operator
from K_alpha to K_beta" are implemented and cross-validated:

1. Clark-basis recurrences.  With Clark bases on both sides whose point sets
   share exactly l elements (placed first), every matrix entry r[s, p] is a
   fixed rational combination of the first row, the first column and, when
   l > 0, the free diagonal entries r[s, s] for s <= l.

2. Rank-two residual identity.  For any complex (a, b), membership is
   equivalent to A - S_{beta,b} A S_{alpha,a}* collapsing onto
   span(kernel at 0) on both sides, i.e. the compression of the residual to
   the orthocomplements vanishes.  The witness pair (chi, psi) is recovered
   with the normalization <psi, kernel at 0 in K_beta> = 0.  A conjugated
   variant swaps shift and adjoint and uses conjugate kernels.

3. Shift invariance.  <A(zf), zg> = <Af, g> whenever zf and zg stay inside
   their model spaces; the admissible f are exactly those orthogonal to the
   conjugate kernel at 0, and z f is then the compressed shift applied to f.

Residuals are compared on a relative scale: accept below ``tol.decision``,
reject above ``tol.reject_band``, and raise IndeterminateError inside the
band instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, ClarkPointSet, evaluate
from .config import DEFAULT, Tolerances
from .modelspace import (ModelBasis, ModelVector, clark_basis, clark_points,
                         tm_vector)
from .operators import OperatorMatrix, clark_coefficient

METHOD_CLARK = "clark-recurrence"
METHOD_RESIDUAL = "rank-two-residual"
METHOD_CONJUGATE = "conjugate-residual"
METHOD_SHIFT = "shift-invariance"


class IndeterminateError(RuntimeError):
    """Residual fell between the accept and reject thresholds."""

    def __init__(self, method: str, relative_residual: float, tol: Tolerances):
        self.method = method
        self.relative_residual = relative_residual
        super().__init__(
            f"{method}: relative residual {relative_residual:.3e} lies inside the "
            f"indeterminate band ({tol.decision:.1e}, {tol.reject_band:.1e})")


class ToleranceBreakdown(RuntimeError):
    """A recurrence denominator underflowed the matching tolerance."""


class MethodDisagreement(RuntimeError):
    """Cross-validated membership methods returned different verdicts.

    The characterizations are equivalent theorems, so this signals a bug or a
    tolerance breakdown, never a legitimate data state."""

    def __init__(self, verdicts: dict):
        self.verdicts = verdicts
        detail = {k: v.is_member for k, v in verdicts.items()}
        super().__init__(f"membership methods disagree: {detail}")


@dataclass(eq=False, frozen=True)
class Witness:
    chi: ModelVector
    psi: ModelVector
    a: complex
    b: complex

    def to_json(self) -> dict:
        from . import serialize
        return {"chi": self.chi.to_json(), "psi": self.psi.to_json(),
                "a": serialize.cpx(self.a), "b": serialize.cpx(self.b)}


@dataclass(eq=False, frozen=True)
class MembershipVerdict:
    is_member: bool
    max_residual: float          # relative residual, the decision quantity
    method: str
    witness: Witness | None = None

    def to_json(self) -> dict:
        out = {"member": bool(self.is_member),
               "method": self.method,
               "max_residual": float(self.max_residual)}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _decide(method: str, residual: float, scale: float, tol: Tolerances,
            witness: Witness | None = None) -> MembershipVerdict:
    rel = residual / (1.0 + scale)
    if rel <= tol.decision:
        return MembershipVerdict(True, rel, method, witness)
    if rel >= tol.reject_band:
        return MembershipVerdict(False, rel, method, None)
    raise IndeterminateError(method, rel, tol)


# ---------------------------------------------------------------------------
# Clark point matching
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class ClarkPairing:
    """Two Clark point sets with their shared points matched and moved to the
    leading positions: after applying the permutations, eta[j] = zeta[j] for
    j < shared."""

    clark_a: ClarkPointSet
    clark_b: ClarkPointSet
    shared: int
    perm_a: np.ndarray           # position j in the paired order -> original index
    perm_b: np.ndarray

    @property
    def eta(self) -> np.ndarray:
        return self.clark_a.points[self.perm_a]

    @property
    def zeta(self) -> np.ndarray:
        return self.clark_b.points[self.perm_b]

    @property
    def weights_a(self) -> np.ndarray:
        return self.clark_a.weights[self.perm_a]

    @property
    def weights_b(self) -> np.ndarray:
        return self.clark_b.weights[self.perm_b]


def match_clark_points(clark_a: ClarkPointSet, clark_b: ClarkPointSet,
                       tol: Tolerances = DEFAULT) -> ClarkPairing:
    """Greedy nearest matching of the two point sets under ``tol.match``.

    Shared points are ordered by principal argument and moved first; an error
    is raised when a point has two match candidates inside the tolerance
    (tighten the tolerances) or when the shared count exceeds min(m, n).
    """
    pa = clark_a.points
    pb = clark_b.points
    dist = np.abs(pa[:, None] - pb[None, :])
    pairs = []
    for j in range(len(pa)):
        hits = np.nonzero(dist[j] <= tol.match)[0]
        if len(hits) > 1:
            raise ValueError(f"ambiguous Clark-point match for {pa[j]}: "
                             f"{len(hits)} candidates within {tol.match}")
        if len(hits) == 1:
            i = int(hits[0])
            close_a = np.nonzero(dist[:, i] <= tol.match)[0]
            if len(close_a) > 1:
                raise ValueError(f"ambiguous Clark-point match for {pb[i]}")
            pairs.append((j, i))
    shared = len(pairs)
    if shared > min(len(pa), len(pb)):
        raise ValueError("shared Clark points exceed min(m, n): invalid data")
    pairs.sort(key=lambda ji: np.angle(pa[ji[0]]) % (2.0 * np.pi))
    lead_a = [j for j, _ in pairs]
    lead_b = [i for _, i in pairs]
    rest_a = [j for j in range(len(pa)) if j not in lead_a]
    rest_b = [i for i in range(len(pb)) if i not in lead_b]
    return ClarkPairing(clark_a, clark_b, shared,
                        np.array(lead_a + rest_a, dtype=int),
                        np.array(lead_b + rest_b, dtype=int))


def clark_pairing(alpha: BlaschkeProduct, beta: BlaschkeProduct,
                  lam1: complex, lam2: complex,
                  tol: Tolerances = DEFAULT) -> ClarkPairing:
    return match_clark_points(clark_points(alpha, lam1, tol),
                              clark_points(beta, lam2, tol), tol)


# ---------------------------------------------------------------------------
# recurrence test
# ---------------------------------------------------------------------------

def _clark_basis_of(matrix_basis: ModelBasis, point_set: ClarkPointSet) -> None:
    if matrix_basis.kind != "clark" or matrix_basis.clark is None:
        raise ValueError("recurrence test requires the matrix in Clark bases")
    if matrix_basis.clark.lam != point_set.lam:
        raise ValueError("matrix basis and pairing disagree on the spectral parameter")
    if not np.allclose(matrix_basis.clark.points, point_set.points, atol=1e-12):
        raise ValueError("matrix basis and pairing disagree on the Clark points")


def recurrence_rhs(r: np.ndarray, pairing: ClarkPairing,
                   tol: Tolerances = DEFAULT):
    """Predicted entries and the applicability mask, in the paired order.

    For l = 0 every entry is determined by the first row and column; for
    l > 0 entries with s < l (s != p) are determined by the first row, those
    with s >= l by first row plus first column, and the leading diagonal is
    free data.
    """
    eta, zeta = pairing.eta, pairing.zeta
    sqa = np.sqrt(pairing.weights_a)
    sqb = np.sqrt(pairing.weights_b)
    n, m = r.shape
    l = pairing.shared
    den = eta[None, :] - zeta[:, None]            # den[s, p] = eta_p - zeta_s
    applicable = np.ones((n, m), dtype=bool)
    free = np.arange(min(l, m))
    applicable[free, free] = False
    if np.any(np.abs(den[applicable]) < tol.match):
        raise ToleranceBreakdown("Clark points of the two spaces nearly collide "
                                 "outside the matched pairs; tighten tolerances")
    d = np.where(applicable, den, 1.0)            # the free entries are zeroed below
    ep, zs = eta[None, :], zeta[:, None]
    ap, bs = sqa[None, :], sqb[:, None]
    from_row = (sqb[0] / bs) * (ep - zeta[0]) / d * r[0:1, :]
    # rows s >= l (every row when l = 0): first row plus first column
    rhs = (sqa[0] / ap) * (ep / eta[0]) * (eta[0] - zs) / d * r[:, 0:1] + from_row
    if l == 0:
        rhs += (sqa[0] * sqb[0] / (ap * bs)) * (ep / eta[0]) * (zeta[0] - eta[0]) / d * r[0, 0]
    else:
        # rows s < l: the first row alone, with r[0, s] in place of r[s, 0]
        t = np.arange(l)[:, None]
        rhs[:l] = ((sqa[t] * sqb[0] / (ap * sqb[t])) * (ep / eta[t]) * (eta[0] - zeta[t])
                   / d[:l] * r[0, t] + from_row[:l])
    rhs[~applicable] = 0.0
    return rhs, applicable


def test_clark_recurrence(matrix: OperatorMatrix, pairing: ClarkPairing,
                          tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via the Clark-basis recurrences."""
    _clark_basis_of(matrix.in_basis, pairing.clark_a)
    _clark_basis_of(matrix.out_basis, pairing.clark_b)
    r = matrix.entries[np.ix_(pairing.perm_b, pairing.perm_a)]
    if pairing.shared > min(r.shape):
        raise ValueError("shared Clark points exceed min(m, n)")
    rhs, applicable = recurrence_rhs(r, pairing, tol)
    resid = np.abs(r - rhs)
    resid[~applicable] = 0.0
    return _decide(METHOD_CLARK, float(np.max(resid)), matrix.max_abs, tol)


# ---------------------------------------------------------------------------
# rank-two residual tests
# ---------------------------------------------------------------------------

def _complement_projector(vec: np.ndarray) -> np.ndarray:
    v = vec / np.linalg.norm(vec)
    return np.eye(len(vec), dtype=complex) - np.outer(v, np.conj(v))


def _split_residual(d: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Decompose d = psi left^H + right chi^H with <psi, right> = 0.

    The part of d this cannot represent is exactly the compression of d to
    the two orthocomplements, so the returned pair is the canonical witness
    whenever the membership residual vanishes.
    """
    psi = d @ left / (np.linalg.norm(left) ** 2)
    psi = psi - right * (np.vdot(right, psi) / (np.linalg.norm(right) ** 2))
    chi = d.conj().T @ right / (np.linalg.norm(right) ** 2)
    return psi, chi


def _residual_test(matrix: OperatorMatrix, m_tm: np.ndarray, method: str,
                   a: complex, b: complex, tol: Tolerances) -> MembershipVerdict:
    """The rank-two test (METHOD_RESIDUAL) or its conjugate mirror
    (METHOD_CONJUGATE) with the modified shifts S_{alpha,a}, S_{beta,b};
    ``m_tm`` is ``matrix.tm_entries()``."""
    space_a, space_b = matrix.alpha.model_space, matrix.beta.model_space
    sa, sb = space_a.modified(a), space_b.modified(b)
    if method == METHOD_RESIDUAL:
        d = m_tm - sb @ m_tm @ sa.conj().T
        left, right = space_a.k0, space_b.k0
    else:
        d = m_tm - sb.conj().T @ m_tm @ sa
        left, right = space_a.kt0, space_b.kt0
    resid = np.max(np.abs(_complement_projector(right) @ d @ _complement_projector(left)))
    verdict = _decide(method, float(resid), matrix.max_abs, tol)
    if not verdict.is_member:
        return verdict
    psi_c, chi_c = _split_residual(d, left, right)
    witness = Witness(tm_vector(matrix.alpha, chi_c),
                      tm_vector(matrix.beta, psi_c), complex(a), complex(b))
    return MembershipVerdict(True, verdict.max_residual, method, witness)


def test_rank_two_residual(matrix: OperatorMatrix, a: complex = 0j, b: complex = 0j,
                           tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via A - S_{beta,b} A S_{alpha,a}* = psi (x) k_0 + k_0 (x) chi.

    The verdict holds for every choice of (a, b); the witness is returned in
    TM coordinates with <psi, kernel at 0 of K_beta> = 0.
    """
    return _residual_test(matrix, matrix.tm_entries(), METHOD_RESIDUAL, a, b, tol)


def test_conjugate_residual(matrix: OperatorMatrix, a: complex = 0j, b: complex = 0j,
                            tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Mirror of the rank-two test: A - S_{beta,b}* A S_{alpha,a} collapses
    onto the spans of the conjugate kernels at 0."""
    return _residual_test(matrix, matrix.tm_entries(), METHOD_CONJUGATE, a, b, tol)


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------

def _shift_domain_tm(kt0: np.ndarray) -> np.ndarray:
    """TM coordinates, one column each, of an orthonormal basis of
    { f : z f stays in the model space }, i.e. the orthocomplement of the
    conjugate kernel at 0, given by its TM coordinates ``kt0`` (dimension
    m - 1)."""
    row = np.conj(kt0 / np.linalg.norm(kt0)).reshape(1, -1)   # row @ x = <x, kt>/|kt|
    _, _, vh = np.linalg.svd(row, full_matrices=True)
    return np.conj(vh[1:]).T


def shift_domain_basis(space: BlaschkeProduct) -> list[ModelVector]:
    """Orthonormal basis of { f : z f stays in the model space }, i.e. the
    orthocomplement of the conjugate kernel at 0 (dimension m - 1)."""
    return [tm_vector(space, col)
            for col in _shift_domain_tm(space.model_space.kt0).T]


def _shift_invariance(matrix: OperatorMatrix, m_tm: np.ndarray,
                      tol: Tolerances) -> MembershipVerdict:
    space_a, space_b = matrix.alpha.model_space, matrix.beta.model_space
    f = _shift_domain_tm(space_a.kt0)
    g = _shift_domain_tm(space_b.kt0)
    zf = space_a.multiply_by_z(f)
    zg = space_b.multiply_by_z(g)
    resid = np.max(np.abs(zg.conj().T @ m_tm @ zf - g.conj().T @ m_tm @ f), initial=0.0)
    return _decide(METHOD_SHIFT, float(resid), matrix.max_abs, tol)


def test_shift_invariance(matrix: OperatorMatrix, tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via <A(zf), zg> = <Af, g> over the admissible pairs.

    With the domain bases F, G as columns and Z_F, Z_G their images under
    multiplication by z, the residual is max |Z_G^H A Z_F - G^H A F|.
    """
    return _shift_invariance(matrix, matrix.tm_entries(), tol)


# ---------------------------------------------------------------------------
# witness recovery from the Clark matrix
# ---------------------------------------------------------------------------

def recover_chi_psi_clark(matrix: OperatorMatrix, pairing: ClarkPairing,
                          psi1: complex = 0j, tol: Tolerances = DEFAULT):
    """Closed-form witness (chi, psi) for a member matrix in Clark bases.

    ``psi1`` is the free parameter of the construction.  The boundary samples
    chi_p, psi_s are produced from the first row and column of the paired
    matrix (plus the zero pattern on the shared diagonal when l > 0) and
    assembled as chi = sum_p chi_p / sqrt(w_p) v_p and likewise for psi.  The
    full consistency system

        psi_s conj(k0a) + k0b conj(chi_p)
            = (1 - conj(eta_p) zeta_s) r[s, p] sqrt(w_p) sqrt(w_s)

    is verified; a non-member input fails it with a diagnostic.
    """
    _clark_basis_of(matrix.in_basis, pairing.clark_a)
    _clark_basis_of(matrix.out_basis, pairing.clark_b)
    r = matrix.entries[np.ix_(pairing.perm_b, pairing.perm_a)]
    n, m = r.shape
    l = pairing.shared
    eta, zeta = pairing.eta, pairing.zeta
    sqa = np.sqrt(pairing.weights_a)
    sqb = np.sqrt(pairing.weights_b)
    a0 = evaluate(matrix.alpha, 0.0)
    b0 = evaluate(matrix.beta, 0.0)
    k0a = 1.0 - np.conj(a0) * pairing.clark_a.target    # = k_0^alpha(eta_p), p-independent
    k0b = 1.0 - np.conj(b0) * pairing.clark_b.target

    psi1 = complex(psi1)
    chi_p = (((1.0 - eta * np.conj(zeta[0])) * np.conj(r[0, :]) * sqa * sqb[0])
             - np.conj(psi1) * k0a) / np.conj(k0b)
    psi_s = np.empty(n, dtype=complex)
    psi_s[0] = psi1
    for s in range(1, n):
        if s < l:
            psi_s[s] = -k0b * np.conj(chi_p[s]) / np.conj(k0a)
        else:
            psi_s[s] = ((1.0 - np.conj(eta[0]) * zeta[s]) * r[s, 0] * sqa[0] * sqb[s]
                        - k0b * np.conj(chi_p[0])) / np.conj(k0a)

    lhs = psi_s[:, None] * np.conj(k0a) + k0b * np.conj(chi_p)[None, :]
    rhs = (1.0 - np.conj(eta)[None, :] * zeta[:, None]) * r * (sqa[None, :] * sqb[:, None])
    scale = 1.0 + float(np.max(np.abs(rhs)))
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst / scale > tol.reject_band:
        raise ValueError(f"witness recovery failed: consistency residual {worst:.3e}; "
                         "the matrix is not a member")

    chi_coeffs = np.zeros(m, dtype=complex)
    psi_coeffs = np.zeros(n, dtype=complex)
    chi_coeffs[pairing.perm_a] = chi_p / sqa
    psi_coeffs[pairing.perm_b] = psi_s / sqb
    chi = ModelVector(matrix.in_basis, chi_coeffs)
    psi = ModelVector(matrix.out_basis, psi_coeffs)
    return chi, psi


# ---------------------------------------------------------------------------
# cross-validation harness
# ---------------------------------------------------------------------------

def run_all(matrix: OperatorMatrix, pairing: ClarkPairing | None = None,
            residual_pairs=((0j, 0j),), tol: Tolerances = DEFAULT) -> dict:
    """Run every applicable test and insist on a unanimous verdict.

    Returns {"member": bool, "methods": {name: verdict}}; raises
    IndeterminateError if any single test lands in its dead band and
    MethodDisagreement if the verdicts differ.  The Clark bases come from the
    pairing's own point sets, and the TM-coordinate tests share one TM
    matrix and each space's ``model_space``, so the verdicts equal those of
    the public test functions called one by one.
    """
    verdicts = {}
    if pairing is None and matrix.in_basis.kind == "clark" and matrix.out_basis.kind == "clark":
        pairing = match_clark_points(matrix.in_basis.clark, matrix.out_basis.clark, tol)
    if pairing is not None:
        verdicts[METHOD_CLARK] = test_clark_recurrence(
            matrix.in_bases(clark_basis(matrix.alpha, pairing.clark_a),
                            clark_basis(matrix.beta, pairing.clark_b)),
            pairing, tol)
        a1 = clark_coefficient(matrix.alpha, pairing.clark_a.lam)
        b1 = clark_coefficient(matrix.beta, pairing.clark_b.lam)
        residual_pairs = tuple(residual_pairs) + ((a1, b1),)
    m_tm = matrix.tm_entries()
    for idx, (a, b) in enumerate(residual_pairs):
        name = METHOD_RESIDUAL if idx == 0 else f"{METHOD_RESIDUAL}[{idx}]"
        verdicts[name] = _residual_test(matrix, m_tm, METHOD_RESIDUAL, a, b, tol)
    verdicts[METHOD_CONJUGATE] = _residual_test(matrix, m_tm, METHOD_CONJUGATE, 0j, 0j, tol)
    verdicts[METHOD_SHIFT] = _shift_invariance(matrix, m_tm, tol)

    answers = {v.is_member for v in verdicts.values()}
    if len(answers) != 1:
        raise MethodDisagreement(verdicts)
    return {"member": answers.pop(), "methods": verdicts}

"""Decision procedures for membership in the truncated-Toeplitz class.

Three independent characterizations of "A is a truncated Toeplitz operator
from K_alpha to K_beta" are implemented and cross-validated:

1. Clark-basis recurrences.  The rank-two identity of item 2 for the Clark
   unitaries, the unitary modified shifts S + c k_0 k~_0*.  In Clark bases
   whose point sets share exactly l elements (placed first) both are
   diagonal, and A - U_beta A U_alpha* is the matrix r scaled entry by entry:
   w[s, p] r[s, p] = x[s] + y[p] (``ClarkPairing.weight``).  So every entry
   but the free diagonal r[s, s], s < l, follows from the first row and
   column, and x, y are the witness's boundary samples.

2. Rank-two residual identity.  For any (a, b), membership is equivalent to
   D = A - S_{beta,b} A S_{alpha,a}* collapsing onto span(kernel at 0) on
   both sides (Sarason 2007).  The witness (chi, psi) is split off D with
   <psi, kernel at 0 in K_beta> = 0; the test decides on the rest,
   D - psi (x) k_0 - k_0 (x) chi, the compression of D to the orthocomplements.
   A conjugated variant swaps shift and adjoint and uses conjugate kernels.

3. Shift invariance.  <A(zf), zg> = <Af, g> whenever zf and zg stay inside
   their model spaces; the admissible f are exactly those orthogonal to the
   conjugate kernel at 0, and z f is then the compressed shift applied to f.

Residuals are compared on a relative scale: accept below ``tol.decision``,
reject above ``tol.reject_band``, and raise IndeterminateError inside the
band instead of guessing.  ``run_all`` raises its subclass ClarkDissent
when the Clark recurrence alone rejects a matrix that lies within the
tolerances of the class.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, ClarkPointSet, ToleranceBreakdown
from .config import DEFAULT, Tolerances
from .modelspace import ModelVector, _read_only, clark_basis, clark_points, tm_vector
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


class ClarkDissent(IndeterminateError):
    """Only the Clark recurrence rejects, and its division-free residual
    max|q - x - y| / (1 + max|q|) (:func:`_clark_split`) lies below the
    reject band: the matrix lies within the tolerances of the class, and the
    recurrence's division by a small weight w alone rejects it.  Carries
    every verdict, as MethodDisagreement does."""

    def __init__(self, verdicts: dict, separation: float, weight: float,
                 division_free: float, tol: Tolerances):
        self.verdicts = verdicts
        self.method, self.relative_residual = METHOD_CLARK, verdicts[METHOD_CLARK].max_residual
        RuntimeError.__init__(self, (
            f"{METHOD_CLARK} alone rejects, at relative residual {self.relative_residual:.3e}, "
            f"where |w| = {weight:.1e} at the worst entry (unshared Clark points "
            f"{separation:.1e} apart); its division-free residual {division_free:.3e} lies "
            f"below the reject band {tol.reject_band:.1e}, so the matrix lies within the "
            f"tolerances of the class"))


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
            make_witness: Callable[[], Witness] | None = None) -> MembershipVerdict:
    """The verdict on ``residual`` relative to 1 + ``scale``.
    ``make_witness``, when given, is called for the witness of an accepted
    verdict only, so a rejection or a refusal builds none."""
    rel = residual / (1.0 + scale)
    if rel <= tol.decision:
        return MembershipVerdict(True, rel, method,
                                 None if make_witness is None else make_witness())
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
    j < shared.

    Built whole by :func:`match_clark_points`, with the constants the
    recurrence test and the witness recovery read, which depend only on the
    two point sets and the matching; every array is read-only.  So a pairing
    reused across matrices pays for them once."""

    clark_a: ClarkPointSet
    clark_b: ClarkPointSet
    shared: int
    perm_a: np.ndarray           # position j in the paired order -> original index
    perm_b: np.ndarray
    eta: np.ndarray              # the points in the paired order
    zeta: np.ndarray
    sqrt_weights_a: np.ndarray   # sqrt |B'| at eta, and at zeta
    sqrt_weights_b: np.ndarray
    # w[s, p] = (1 - conj(eta_p) zeta_s) sqrt(w_p w_s): w r is A - U_beta A
    # U_alpha* in the paired Clark bases, times sqrt(w_p w_s).  It vanishes
    # on the shared diagonal.
    weight: np.ndarray
    free: np.ndarray             # the free diagonal s = p < l, where the recurrence says nothing
    divisor: np.ndarray          # w with its zeros on the free diagonal replaced by 1
    min_separation: float        # min |eta_p - zeta_s| off the free diagonal (inf if none)
    # np.ix_(perm_b, perm_a): entries[paired_index] is a Clark matrix in the paired order
    paired_index: tuple
    inverse_perm_a: np.ndarray
    inverse_perm_b: np.ndarray

    def clark_matrix(self, matrix: OperatorMatrix) -> OperatorMatrix:
        """``matrix`` over the Clark bases of the pairing's own point sets:
        ``matrix`` itself when its bases are over the stored arrays of stored sets."""
        if (len(self.eta), len(self.zeta)) != (matrix.alpha.degree, matrix.beta.degree):
            raise ValueError("matrix basis and pairing disagree on the Clark points")
        return matrix.in_bases(clark_basis(matrix.alpha, self.clark_a),
                               clark_basis(matrix.beta, self.clark_b))


def match_clark_points(clark_a: ClarkPointSet, clark_b: ClarkPointSet,
                       tol: Tolerances = DEFAULT) -> ClarkPairing:
    """Greedy nearest matching of the two point sets under ``tol.match``,
    and the pairing built whole on it.

    Shared points are ordered by principal argument and moved first; an error
    is raised when a point has two match candidates inside the tolerance
    (tighten the tolerances), so each point has at most one partner.
    """
    pa = clark_a.points
    pb = clark_b.points
    close = np.abs(pa[:, None] - pb[None, :]) <= tol.match
    lead_a, lead_b = np.nonzero(close)           # the close pairs, in pa's order
    hits_a, hits_b = close.sum(axis=1), close.sum(axis=0)
    if hits_a.max() > 1 or hits_b.max() > 1:     # name the first point of pa that clashes
        k = np.flatnonzero((hits_a[lead_a] > 1) | (hits_b[lead_b] > 1))[0]
        j, i = lead_a[k], lead_b[k]
        if hits_a[j] > 1:
            raise ValueError(f"ambiguous Clark-point match for {pa[j]}: "
                             f"{hits_a[j]} candidates within {tol.match}")
        raise ValueError(f"ambiguous Clark-point match for {pb[i]}")
    order = np.argsort(np.angle(pa[lead_a]) % (2.0 * np.pi), kind="stable")
    perm_a = _read_only(np.concatenate((lead_a[order], np.flatnonzero(hits_a == 0))))
    perm_b = _read_only(np.concatenate((lead_b[order], np.flatnonzero(hits_b == 0))))
    shared = len(order)

    eta = _read_only(pa[perm_a])
    zeta = _read_only(pb[perm_b])
    sqa = _read_only(np.sqrt(clark_a.weights[perm_a]))
    sqb = _read_only(np.sqrt(clark_b.weights[perm_b]))
    weight = _read_only((1.0 - np.conj(eta)[None, :] * zeta[:, None])
                        * (sqa[None, :] * sqb[:, None]))
    free = np.zeros(weight.shape, dtype=bool)
    diagonal = np.arange(shared)
    free[diagonal, diagonal] = True
    return ClarkPairing(
        clark_a, clark_b, shared, perm_a, perm_b, eta, zeta, sqa, sqb, weight,
        _read_only(free), _read_only(np.where(free, 1.0, weight)),
        float(np.abs((eta[None, :] - zeta[:, None])[~free]).min(initial=np.inf)),
        (perm_b[:, None], perm_a[None, :]),      # views of read-only arrays
        _read_only(np.argsort(perm_a)), _read_only(np.argsort(perm_b)))


def clark_pairing(alpha: BlaschkeProduct, beta: BlaschkeProduct,
                  lam1: complex, lam2: complex,
                  tol: Tolerances = DEFAULT) -> ClarkPairing:
    return match_clark_points(clark_points(alpha, lam1, tol),
                              clark_points(beta, lam2, tol), tol)


# ---------------------------------------------------------------------------
# recurrence test
# ---------------------------------------------------------------------------

def _clark_split(matrix: OperatorMatrix, pairing: ClarkPairing, x0: complex = 0j):
    """(r, q, x, y) in the paired order: the entries r of ``matrix``, q = w r
    with w = ``pairing.weight``, and x, y with x[s] + y[p] = q[s, p] read off
    the first row and column of q with x[0] = x0 (q vanishes on the shared
    diagonal, so x[s] = -y[s] for s < l).  The bases of ``matrix`` must be
    the Clark bases of the pairing's point sets (checked at once when a basis
    holds the very point set, as stored bases and pairings share)."""
    for basis, point_set in ((matrix.in_basis, pairing.clark_a),
                             (matrix.out_basis, pairing.clark_b)):
        if basis.kind != "clark" or basis.clark is None:
            raise ValueError("recurrence test requires the matrix in Clark bases")
        if basis.clark is point_set:
            continue
        if basis.clark.lam != point_set.lam:
            raise ValueError("matrix basis and pairing disagree on the spectral parameter")
        if (basis.clark.points.shape != point_set.points.shape
                or not np.allclose(basis.clark.points, point_set.points, atol=1e-12)):
            raise ValueError("matrix basis and pairing disagree on the Clark points")
    r = matrix.entries[pairing.paired_index]
    q = pairing.weight * r
    y = q[0] - x0
    x = q[:, 0] - y[0]
    x[:pairing.shared] = -y[:pairing.shared]
    x[0] = x0
    return r, q, x, y


def test_clark_recurrence(matrix: OperatorMatrix, pairing: ClarkPairing,
                          tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via the Clark-basis recurrences: a member has w r = x[s] +
    y[p] (:func:`_clark_split`), and the test decides on |r - (x[s] + y[p]) / w|
    off the free diagonal s = p < l, relative to 1 + max|r|.  It divides by w
    on purpose: where unshared Clark points nearly meet, w is small, and a bump
    on that nearly free entry moves w r by little but r by its full size."""
    r, _, x, y = _clark_split(matrix, pairing)
    if pairing.min_separation < tol.match:
        raise ToleranceBreakdown("Clark points of the two spaces nearly collide "
                                 "outside the matched pairs; tighten tolerances")
    resid = np.abs(r - (x[:, None] + y[None, :]) / pairing.divisor)
    resid[pairing.free] = 0.0
    return _decide(METHOD_CLARK, float(resid.max()), matrix.max_abs, tol)


# ---------------------------------------------------------------------------
# rank-two residual tests
# ---------------------------------------------------------------------------

def _split_residual(d: np.ndarray, left: np.ndarray, right: np.ndarray,
                    left_norm2: float, right_norm2: float):
    """Decompose d = psi left^H + right chi^H with <psi, right> = 0, given
    the squared norms of ``left`` and ``right``.

    The part of d this cannot represent is exactly the compression of d to
    the two orthocomplements, so the returned pair is the canonical witness
    whenever the membership residual vanishes.
    """
    psi = d @ left / left_norm2
    psi = psi - right * (np.vdot(right, psi) / right_norm2)
    chi = d.conj().T @ right / right_norm2
    return psi, chi


def _residual_test(matrix: OperatorMatrix, method: str, a: complex, b: complex,
                   tol: Tolerances) -> MembershipVerdict:
    """The rank-two test (METHOD_RESIDUAL) or its conjugate mirror
    (METHOD_CONJUGATE) with the modified shifts S_{alpha,a}, S_{beta,b}, on
    the matrix's TM matrix."""
    m_tm = matrix.tm_entries()
    space_a, space_b = matrix.alpha.model_space, matrix.beta.model_space
    if method == METHOD_RESIDUAL:
        d = m_tm - space_b.modified(b) @ m_tm @ space_a.modified(a).conj().T
        left, right = space_a.k0, space_b.k0
        psi, chi = _split_residual(d, left, right, space_a.k0_norm2, space_b.k0_norm2)
    else:
        d = m_tm - space_b.modified(b).conj().T @ m_tm @ space_a.modified(a)
        left, right = space_a.kt0, space_b.kt0
        psi, chi = _split_residual(d, left, right, space_a.kt0_norm2, space_b.kt0_norm2)
    resid = np.abs(d - psi[:, None] * np.conj(left) - right[:, None] * np.conj(chi)).max()
    return _decide(method, float(resid), matrix.max_abs, tol,
                   lambda: Witness(tm_vector(matrix.alpha, chi), tm_vector(matrix.beta, psi),
                                   complex(a), complex(b)))


def test_rank_two_residual(matrix: OperatorMatrix, a: complex = 0j, b: complex = 0j,
                           tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via A - S_{beta,b} A S_{alpha,a}* = psi (x) k_0 + k_0 (x) chi.

    The verdict holds for every choice of (a, b); the witness is returned in
    TM coordinates with <psi, kernel at 0 of K_beta> = 0.
    """
    return _residual_test(matrix, METHOD_RESIDUAL, a, b, tol)


def test_conjugate_residual(matrix: OperatorMatrix, a: complex = 0j, b: complex = 0j,
                            tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Mirror of the rank-two test: A - S_{beta,b}* A S_{alpha,a} collapses
    onto the spans of the conjugate kernels at 0."""
    return _residual_test(matrix, METHOD_CONJUGATE, a, b, tol)


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------

def shift_domain_basis(space: BlaschkeProduct) -> list[ModelVector]:
    """Orthonormal basis of { f : z f stays in the model space }, i.e. the
    orthocomplement of the conjugate kernel at 0 (dimension m - 1)."""
    return [tm_vector(space, col) for col in space.model_space.shift_domain.T]


def test_shift_invariance(matrix: OperatorMatrix, tol: Tolerances = DEFAULT) -> MembershipVerdict:
    """Membership via <A(zf), zg> = <Af, g> over the admissible pairs.

    With the domain bases F, G as columns and Z_F, Z_G their images under
    multiplication by z, the residual is max |Z_G^H A Z_F - G^H A F|.
    """
    m_tm = matrix.tm_entries()
    space_a, space_b = matrix.alpha.model_space, matrix.beta.model_space
    f, g = space_a.shift_domain, space_b.shift_domain
    zf, zg = space_a.shift_image, space_b.shift_image
    resid = np.abs(zg.conj().T @ m_tm @ zf - g.conj().T @ m_tm @ f).max(initial=0.0)
    return _decide(METHOD_SHIFT, float(resid), matrix.max_abs, tol)


# ---------------------------------------------------------------------------
# witness recovery from the Clark matrix
# ---------------------------------------------------------------------------

def recover_chi_psi_clark(matrix: OperatorMatrix, pairing: ClarkPairing,
                          psi1: complex = 0j, tol: Tolerances = DEFAULT):
    """Closed-form witness (chi, psi) for a member matrix in Clark bases.

    ``psi1`` is the free parameter of the construction.  With q = w r
    (w = ``pairing.weight``) the rank-two identity at the Clark points reads

        psi_s conj(k0a) + k0b conj(chi_p) = q[s, p],

    so x[s] = psi_s conj(k0a) and y[p] = k0b conj(chi_p) are read off the
    first row and column of q with x[0] = psi1 conj(k0a), and assembled as
    chi = sum_p chi_p / sqrt(w_p) v_p and likewise for psi.  The full system
    is verified; a non-member input fails it with a diagnostic.
    """
    k0a = 1.0 - np.conj(matrix.alpha.model_space.b0) * pairing.clark_a.target   # = k_0^alpha(eta_p)
    k0b = 1.0 - np.conj(matrix.beta.model_space.b0) * pairing.clark_b.target
    _, q, x, y = _clark_split(matrix, pairing, complex(psi1) * np.conj(k0a))
    worst = float(np.abs(x[:, None] + y[None, :] - q).max())
    if worst / (1.0 + float(np.abs(q).max())) > tol.reject_band:
        raise ValueError(f"witness recovery failed: consistency residual {worst:.3e}; "
                         "the matrix is not a member")

    chi = np.conj(y / k0b) / pairing.sqrt_weights_a
    psi = x / np.conj(k0a) / pairing.sqrt_weights_b
    return (ModelVector(matrix.in_basis, chi[pairing.inverse_perm_a]),
            ModelVector(matrix.out_basis, psi[pairing.inverse_perm_b]))


# ---------------------------------------------------------------------------
# cross-validation harness
# ---------------------------------------------------------------------------

def run_all(matrix: OperatorMatrix, pairing: ClarkPairing | None = None,
            residual_pairs=((0j, 0j),), tol: Tolerances = DEFAULT) -> dict:
    """Run every applicable test and insist on a unanimous verdict.

    Returns {"member": bool, "methods": {name: verdict}}; raises
    IndeterminateError if any single test lands in its dead band,
    ClarkDissent if the Clark recurrence alone rejects a matrix whose
    division-free Clark residual lies below the reject band, and
    MethodDisagreement if the verdicts differ otherwise.  The Clark bases
    come from the pairing's own point sets.  The TM-coordinate verdicts are
    those of :func:`test_rank_two_residual`, :func:`test_conjugate_residual`
    and :func:`test_shift_invariance`, which share the matrix's one TM
    matrix (``OperatorMatrix.tm_entries``) and each space's ``model_space``.
    """
    verdicts = {}
    if pairing is None and matrix.in_basis.kind == "clark" and matrix.out_basis.kind == "clark":
        pairing = match_clark_points(matrix.in_basis.clark, matrix.out_basis.clark, tol)
    if pairing is not None:
        verdicts[METHOD_CLARK] = test_clark_recurrence(pairing.clark_matrix(matrix),
                                                       pairing, tol)
        a1 = clark_coefficient(matrix.alpha, pairing.clark_a.lam)
        b1 = clark_coefficient(matrix.beta, pairing.clark_b.lam)
        residual_pairs = tuple(residual_pairs) + ((a1, b1),)
    for idx, (a, b) in enumerate(residual_pairs):
        name = METHOD_RESIDUAL if idx == 0 else f"{METHOD_RESIDUAL}[{idx}]"
        verdicts[name] = test_rank_two_residual(matrix, a, b, tol)
    verdicts[METHOD_CONJUGATE] = test_conjugate_residual(matrix, tol=tol)
    verdicts[METHOD_SHIFT] = test_shift_invariance(matrix, tol)

    answers = {v.is_member for v in verdicts.values()}
    if len(answers) != 1:
        if [k for k, v in verdicts.items() if not v.is_member] == [METHOD_CLARK]:
            _, q, x, y = _clark_split(pairing.clark_matrix(matrix), pairing)
            gap = np.abs(q - x[:, None] - y[None, :])
            division_free = float(gap.max()) / (1.0 + float(np.abs(q).max()))
            if division_free < tol.reject_band:
                worst = np.unravel_index(np.argmax(gap / np.abs(pairing.divisor)), gap.shape)
                raise ClarkDissent(verdicts, pairing.min_separation,
                                   float(abs(pairing.weight[worst])), division_free, tol)
        raise MethodDisagreement(verdicts)
    return {"member": answers.pop(), "methods": verdicts}

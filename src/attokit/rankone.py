"""Rank-one members of the truncated-Toeplitz class and their classification.

A vector is classified from the compressed shift S of its space.  For every
w in the closed disk the kernel satisfies

    k_w - conj(w) S k_w = k_0,

since (1 - conj(w) z) k_w = 1 - conj(B(w)) B projects onto k_0, and
I - conj(w) S is invertible there (the spectrum of S is the zero set of B).
So f is a multiple of k_w exactly when f - conj(w) S f lies in span(k_0)
(Sarason 2007; Garcia-Mashreghi-Ross 2016).  Projected onto the orthogonal
complement of k_0 these are m - 1 equations in the one unknown conj(w): one
least-squares step gives w, and its residual decides.  A conjugate kernel
k~_w = C k_w is the same test on C f.  In dimension 2 there is one equation,
and the kernel and conjugate-kernel solutions are reflections
w -> 1/conj(w) of each other, so one of them lies in the closed disk; in
dimension 1 every vector is a multiple of k_0.

A rank-one operator g (x) f in the class is either a scalar multiple of a
standard pair, (conjugate kernel) (x) (kernel) or (kernel) (x) (conjugate
kernel) at one point w of the closed disk, or, only when one space is a line
and the other has dimension > 2, a genuinely non-standard example.  The
classic counterexample lives over the degree pair (3, 1):

    alpha(z) = -z (a-z)/(1-conj(a)z) (a+z)/(1+conj(a)z),   beta(z) = z,

with the operator 1 (x) (1 + k_a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .blaschke import BlaschkeProduct, evaluate
from .config import DEFAULT, Tolerances
from .membership import test_rank_two_residual
from .modelspace import ModelSpace, ModelVector, conj_kernel, kernel, tm_vector
from .operators import OperatorMatrix, rank_one

TAG_KERNEL = "kernel"
TAG_CONJ_KERNEL = "conj-kernel"
TAG_NEITHER = "neither"

_BOUNDARY_PAD = 1e-9            # |w| within this of 1 counts as a boundary point


@dataclass(eq=False, frozen=True)
class VectorClassification:
    """Outcome of testing a vector for being a (conjugate) kernel multiple.

    ``boundary`` marks |w| = 1, where the two tags coincide up to a
    unimodular factor and the kernel tag is reported.
    """

    tag: str
    w: complex | None = None
    scale: complex | None = None
    boundary: bool = False

    def to_json(self) -> dict:
        out = {"tag": self.tag, "boundary": bool(self.boundary)}
        if self.w is not None:
            out["w"] = serialize.cpx(self.w)
        if self.scale is not None:
            out["scale"] = serialize.cpx(self.scale)
        return out


@dataclass(eq=False, frozen=True)
class RankOneDecomposition:
    tag: str                      # "standard" | "nonstandard"
    variant: str | None = None    # "conjk-kernel" | "kernel-conjk"
    w: complex | None = None
    scale: complex | None = None
    boundary: bool = False

    def to_json(self) -> dict:
        out = {"tag": self.tag}
        if self.variant is not None:
            out["variant"] = self.variant
        if self.w is not None:
            out["w"] = serialize.cpx(self.w)
        if self.scale is not None:
            out["scale"] = serialize.cpx(self.scale)
        if self.boundary:
            out["boundary"] = True
        return out


def _fit_scalar(target: np.ndarray, model: np.ndarray):
    """Least-squares c with target ~ c * model; returns (c, relative residual)."""
    denom = np.vdot(model, model)
    if denom == 0:
        return 0j, np.inf
    c = np.vdot(model, target) / denom
    resid = np.linalg.norm(target - c * model) / max(np.linalg.norm(target), 1e-300)
    return complex(c), float(resid)


def _shift_fit(space: ModelSpace, y: np.ndarray):
    """The w for which y - conj(w) S y lies closest to span(k_0), and that
    distance relative to ||y||, for TM coordinates ``y``."""
    k0 = space.k0

    def perp(v):
        return v - k0 * (np.vdot(k0, v) / np.vdot(k0, k0))

    py, psy = perp(y), perp(space.shift @ y)
    denom = np.vdot(psy, psy)
    wbar = np.vdot(psy, py) / denom if denom > 0 else 0j
    return complex(np.conj(wbar)), float(np.linalg.norm(py - wbar * psy) / np.linalg.norm(y))


def classify_vector(f: ModelVector, lam: complex | None = None,
                    tol: Tolerances = DEFAULT) -> VectorClassification:
    """Classify f as a kernel multiple, a conjugate-kernel multiple or neither.

    The kernel test fits w to f - conj(w) S f in span(k_0) (see the module
    docstring); the conjugate-kernel test is the same fit on C f.  A w is
    accepted when the residual relative to ||f|| is within ``tol.fit`` and
    |w| <= 1 + 1e-9; within 1e-9 of the circle it is put on the circle and
    reported with the kernel tag.  ``scale`` is the least-squares c with
    f ~ c k_w, resp. c k~_w.  Dimension 1 gives the kernel at the origin,
    and in dimension 2 a non-classification is impossible and treated as an
    internal error.  ``lam`` is accepted and ignored: no Clark basis is used.
    """
    b = f.space
    x = f.tm()
    if np.linalg.norm(x) == 0:
        raise ValueError("cannot classify the zero vector")
    if b.degree == 1:
        return VectorClassification(TAG_KERNEL, 0j, _fit_scalar(x, kernel(b, 0.0).tm())[0])
    space = b.model_space
    for tag in (TAG_KERNEL, TAG_CONJ_KERNEL):
        w, resid = _shift_fit(space, x if tag == TAG_KERNEL else space.conj @ np.conj(x))
        if resid > tol.fit or abs(w) > 1.0 + _BOUNDARY_PAD:
            continue
        boundary = abs(w) > 1.0 - _BOUNDARY_PAD
        if boundary:
            tag, w = TAG_KERNEL, w / abs(w)
        model = kernel if tag == TAG_KERNEL else conj_kernel
        return VectorClassification(tag, w, _fit_scalar(x, model(b, w).tm())[0], boundary)
    if b.degree == 2:
        raise AssertionError("classification cannot fail in dimension 2: "
                             "one reflected candidate always lies in the closed disk")
    return VectorClassification(TAG_NEITHER)


def decompose_rank_one(a: OperatorMatrix, tol: Tolerances = DEFAULT) -> RankOneDecomposition:
    """Factor a rank-one member of the class into a standard form if one exists.

    The dominant singular triple gives a = g (x) f (g carries the singular
    value; f is unit norm with its largest coefficient rotated to the positive
    real axis).  The vector living in the space of dimension >= 2 is
    classified, which fixes w and its scale; only its partner is fitted, to
    the mate at the same w.  A failed partner fit yields "nonstandard",
    which the dichotomy only permits when one degree is 1 and the other
    exceeds 2; anything else raises.
    """
    alpha, beta = a.alpha, a.beta
    m, n = alpha.degree, beta.degree
    tm = a.tm_entries()
    u, s, vh = np.linalg.svd(tm)
    if s[0] == 0:
        raise ValueError("the zero operator has no rank-one factorization")
    if len(s) > 1 and s[1] > tol.rank * s[0]:
        raise ValueError(f"matrix is not numerically rank one: sigma2/sigma1 = {s[1]/s[0]:.2e}")
    if not test_rank_two_residual(a, tol=tol).is_member:
        raise ValueError("matrix is not a member of the truncated-Toeplitz class")

    # a = g (x) f; f unit norm, largest coefficient rotated positive real
    fvec = np.conj(vh[0])
    k = int(np.argmax(np.abs(fvec)))
    phase = fvec[k] / abs(fvec[k])
    f = tm_vector(alpha, fvec * np.conj(phase))
    g = tm_vector(beta, s[0] * u[:, 0] * np.conj(phase))

    def standard_form(primary: ModelVector, partner: ModelVector, primary_is_g: bool):
        """If primary ~ (conj-)kernel at w and partner matches the mate at the
        same w, rebuild g (x) f = c_g conj(c_f) * (standard pair at w)."""
        cls = classify_vector(primary, tol=tol)
        if cls.tag == TAG_NEITHER:
            return None
        w = cls.w
        scales = {cls.tag: cls.scale}
        if cls.boundary:        # k_w = conj(B(w)) w k~_w on the circle
            scales[TAG_CONJ_KERNEL] = cls.scale * np.conj(evaluate(primary.space, w)) * w
        for tag, c_primary in scales.items():
            mate = conj_kernel if tag == TAG_KERNEL else kernel
            c_partner, resid = _fit_scalar(partner.tm(), mate(partner.space, w).tm())
            if resid > tol.fit:
                continue
            if primary_is_g:
                c_g, c_f = c_primary, c_partner
                variant = "kernel-conjk" if tag == TAG_KERNEL else "conjk-kernel"
            else:
                c_g, c_f = c_partner, c_primary
                variant = "conjk-kernel" if tag == TAG_KERNEL else "kernel-conjk"
            return RankOneDecomposition("standard", variant, complex(w),
                                        complex(c_g * np.conj(c_f)), cls.boundary)
        return None

    if n >= 2:
        out = standard_form(g, f, primary_is_g=True)
    elif m >= 2:
        out = standard_form(f, g, primary_is_g=False)
    else:
        # both spaces are lines: everything is conjk-kernel at the origin
        c_g, _ = _fit_scalar(g.tm(), conj_kernel(beta, 0.0).tm())
        c_f, _ = _fit_scalar(f.tm(), kernel(alpha, 0.0).tm())
        return RankOneDecomposition("standard", "conjk-kernel", 0j,
                                    complex(c_g * np.conj(c_f)), False)

    if out is not None:
        return out
    if min(m, n) == 1 and max(m, n) > 2:
        return RankOneDecomposition("nonstandard")
    raise AssertionError(
        "non-standard rank-one member found outside the permitted degree "
        "dichotomy; this contradicts the classification and signals a bug")


def example_4_1(a: complex) -> tuple[BlaschkeProduct, BlaschkeProduct, OperatorMatrix]:
    """The counterexample triple over degrees (3, 1).

    alpha has zeros {0, a, -a} with front -1, beta(z) = z, and the operator
    is 1 (x) (1 + k_a); it belongs to the class but is no scalar multiple of
    either standard rank-one form.
    """
    a = complex(a)
    if a == 0 or abs(a) >= 1:
        raise ValueError("the construction requires 0 < |a| < 1; at a = 0 the "
                         "two kernel candidates coincide")
    alpha = BlaschkeProduct((0.0, a, -a), front=-1.0)
    beta = BlaschkeProduct((0.0,), front=-1.0)      # beta(z) = z
    f = kernel(alpha, 0.0) + kernel(alpha, a)       # 1 + k_a
    g = kernel(beta, 0.0)                           # constant 1
    return alpha, beta, rank_one(g, f)


def example_4_1_candidates(a: complex) -> dict:
    """The four mutually inconsistent point candidates for the counterexample:
    matching different coefficients forces different w, so no single w works.
    """
    a = complex(a)
    r2 = abs(a) ** 2
    return {
        "kernel": [a / (2.0 - r2), a / (2.0 + r2)],
        "conj-kernel": [(2.0 - r2) / a.conjugate(), (2.0 + r2) / a.conjugate()],
    }


def boundary_kernel_identity_check(alpha: BlaschkeProduct, w: complex) -> float:
    """Relative defect of k_w = conj(B(w)) w ktilde_w at a boundary point."""
    w = complex(w)
    if abs(abs(w) - 1.0) > 1e-9:
        raise ValueError("the boundary identity requires |w| = 1")
    kw = kernel(alpha, w).tm()
    ktw = conj_kernel(alpha, w).tm()
    lhs = kw - np.conj(evaluate(alpha, w)) * w * ktw
    return float(np.linalg.norm(lhs) / np.linalg.norm(kw))

"""Finite Blaschke products and the Clark boundary equation.

A finite Blaschke product of degree m is

    B(z) = c0 * prod_j (a_j - z) / (1 - conj(a_j) z),      |a_j| < 1, |c0| = 1.

All poles sit at 1/conj(a_j), strictly outside the closed unit disk, so the
closed disk is always a safe evaluation domain.  For a unimodular target u
the equation B(eta) = u has exactly m distinct unimodular solutions; these
are the Clark points that drive everything else in this package.
:mod:`attokit.modelspace` finds them (``boundary_solve``, ``clark_points``)
as the eigenvalues of the exact Clark unitary of the model space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import serialize


_FRONT_ULPS = 4                 # |front| within this many ulps of 1 is kept as given
_POLE_GUARD = 1e-9              # least distance of an evaluation point from a pole


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole at 1/conj(a_j)."""


class RootCollisionError(RuntimeError):
    """Two computed boundary points lie closer than ``tol.distinct``: numerical
    breakdown, since the boundary equation of a finite Blaschke product has
    distinct roots."""


class ToleranceBreakdown(RuntimeError):
    """A computation missed a tolerance it must meet: boundary points that
    miss their target by more than ``tol.residual``, or a Clark recurrence
    denominator below the matching tolerance."""


@dataclass(frozen=True)
class BlaschkeProduct:
    """Immutable finite Blaschke product: zeros in the open disk plus a
    unimodular front constant (default 1)."""

    zeros: tuple
    front: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        if len(zeros) < 1:
            raise ValueError("a finite Blaschke product needs at least one zero")
        for a in zeros:
            if abs(a) >= 1.0:
                raise ValueError(f"zero {a} is not inside the open unit disk")
        front = complex(self.front)
        if abs(abs(front) - 1.0) > 1e-9:
            raise ValueError(f"front constant {front} is not unimodular")
        # front / |front| is not idempotent in floating point, so renormalising
        # a front that is already unimodular to rounding would move it by an
        # ulp on every reload and break equality after a JSON round trip
        if abs(abs(front) - 1.0) > _FRONT_ULPS * np.finfo(float).eps:
            front = front / abs(front)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "front", front)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @functools.cached_property
    def model_space(self):
        """The exact TM-coordinate objects of K_B, each computed on first use
        and kept for the life of the product (see modelspace.ModelSpace).
        The space names no product, so the two are freed together, by
        reference counting, when the last outside reference goes."""
        from .modelspace import ModelSpace
        return ModelSpace(self)

    def __call__(self, z):
        return evaluate(self, z)

    def to_json(self) -> dict:
        return {"front": serialize.cpx(self.front),
                "zeros": serialize.cpx_seq(self.zeros)}

    @classmethod
    def from_json(cls, obj: dict) -> "BlaschkeProduct":
        obj = serialize.unobject(obj, "a Blaschke product")
        return cls(tuple(serialize.uncpx_seq(obj["zeros"])),
                   serialize.uncpx(obj["front"]))


def monomial(n: int) -> BlaschkeProduct:
    """The product z^n (n-fold zero at the origin)."""
    if n < 1:
        raise ValueError("degree must be positive")
    return BlaschkeProduct((0.0,) * n, (-1.0) ** n)


@dataclass(eq=False, frozen=True)
class ClarkPointSet:
    """Solutions of B(eta) = target on the circle, with weights ||k_eta_j||^2.

    ``target`` is the Moebius image (lam + B(0)) / (1 + conj(B(0)) lam) of the
    spectral parameter ``lam``; the points are sorted by principal argument.
    """

    lam: complex
    target: complex
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(abs(self.lam) - 1.0) > 1e-9 or abs(abs(self.target) - 1.0) > 1e-9:
            raise ValueError("lam and target must be unimodular")
        if np.any(self.weights <= 0.0):
            raise ValueError("Clark weights must be strictly positive")

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {"lambda": serialize.cpx(self.lam),
                "target": serialize.cpx(self.target),
                "points": serialize.cpx_seq(self.points),
                "weights": list(map(float, self.weights))}


def _pole_guard(b: BlaschkeProduct, z: np.ndarray):
    """Raise PoleProximityError, naming the first such pole in zero order, when any
    point of z lies within g = ``_POLE_GUARD`` of a pole 1/conj(a_j) (a zero at 0
    has none).  None can when every |a| <= 1 - 3g and |z| <= 1 + g: no check then."""
    if max(map(abs, b.zeros)) > 1.0 - 3.0 * _POLE_GUARD or not (abs(z) <= 1.0 + _POLE_GUARD).all():
        a = np.array(b.zeros)
        poles = 1.0 / np.conj(a[a != 0])
        near = np.abs(z[..., None] - poles) < _POLE_GUARD  # (..., poles)
        hit = np.any(near, axis=tuple(range(z.ndim)))  # per pole
        if np.any(hit):
            pole = poles[np.argmax(hit)]
            raise PoleProximityError(f"evaluation point within {_POLE_GUARD} of pole {pole}")


def evaluate(b: BlaschkeProduct, z):
    """Evaluate B(z).  Vectorized; z may be a scalar or an array.  All a_j - z
    and 1 - conj(a_j) z come from the (m, 1) zeros against z as one row: in
    that layout numpy's complex products round as in a loop over the zeros."""
    zarr = np.asarray(z, dtype=complex)
    _pole_guard(b, zarr)
    a, flat = np.array(b.zeros)[:, None], zarr.reshape(1, -1)
    num = (a - flat).reshape((len(a),) + zarr.shape)
    out = np.full(zarr.shape, b.front, dtype=complex)
    for n, d in zip(num, (1.0 - np.conj(a) * flat).reshape(num.shape)):
        out = out * n / d
    return out if out.shape else complex(out)


def mobius_target(b: BlaschkeProduct, lam: complex) -> complex:
    """(lam + B(0)) / (1 + conj(B(0)) lam), the boundary value shared by all
    eigenvectors of the rank-one unitary perturbation with parameter lam."""
    lam = complex(lam)
    b0 = b.model_space.b0
    return (lam + b0) / (1.0 + np.conj(b0) * lam)

"""Matrices of asymmetric truncated Toeplitz operators and their relatives.

The operator with symbol phi maps f in K_alpha to the projection of phi*f
onto K_beta.  Matrix entries with respect to bases {f_p} of K_alpha and
{g_s} of K_beta follow the convention

    r[s, p] = <A f_p, g_s>        (row = output index, column = input index)

for orthonormal output bases; in general ``entries`` is the coefficient
matrix, i.e. coefficients of A f_p over the output basis sit in column p.

Two computation paths are provided.  The canonical one evaluates the pairing
<phi f_p, g_s> by adaptive trapezoid quadrature on the unit circle (the
projection is absorbed because g_s already lies in K_beta), on nested levels
that evaluate each node once.  At a node the TM values of each space are
computed once, also for a structured symbol: a part over K_alpha or K_beta
reads that space's values.  They are read through the space's ``model_space``, which keeps a
level's values from its second evaluation on (``ModelSpace.level_values``):
a reused space evaluates its TM basis at a level at most twice, and a space
used once keeps nothing.  A level adds up to one product
P = conj(V_beta) (phi V_alpha)^T.  The TM bases are orthonormal, so P is the
operator's TM matrix, and it moves to the requested bases as on the exact
path.  The first level, 256 nodes in nested order, is evaluated at once and
summed as three products over the ranges that complete its 64-, 128- and
256-node levels, so the stop rule reads the 64-, 128- and 256-node means.  The doubling stops at the
first level from 256 nodes on whose gap d to the previous level is within
the tolerance, or whose gap times the last observed contraction d / d_prev is.
The integrand is rational with poles off the circle, so its error falls
geometrically; the observed contraction also sees the slow start that
repeated or clustered poles give, which a rate read off the largest zero
modulus misses.

The exact path, for structured symbols conj(chi) + psi only, solves the
rank-two identity (Sarason, Algebraic properties of truncated Toeplitz
operators, 2007)

    A - S_beta A S_alpha^* = psi (x) k_0^alpha + k_0^beta (x) chi

for A: with both compressed shifts lower triangular in TM coordinates it is
a Stein equation solved column by column, for any zeros.  Column j needs the
inverse of I - conj(a_j) S_beta, which is the compression of
1 / (1 - conj(a_j) z) and has a closed lower-triangular form; the inverses
of all m columns are built at once, so a column costs three matrix-vector
products and no solve.  A part over another product is first projected by
the operator of the symbol 1.

Moving a matrix to or from TM coordinates multiplies by the bases' stored
inverses (``ModelBasis.inverse``), the identity or the Clark work's T+;
only kernel-zeros and a hand-built basis solve.

The compressed shift, the modified shifts and the Clark unitaries use no
quadrature: the shift has a closed lower-triangular form in TM coordinates,
and the other two add a rank-one term built from exact kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import serialize
from .blaschke import BlaschkeProduct
from .config import DEFAULT, Tolerances
from .modelspace import (ModelBasis, ModelSpace, ModelVector, _apply_inverse, _combine,
                         _joined, _read_only, build_basis, conj_kernel,
                         doubling_circle_mean, kernel, tm_values, tm_vector)


@dataclass(eq=False, frozen=True)
class RationalSymbol:
    """Rational boundary function num(z)/den(z), usable on |z| = 1."""

    num: tuple
    den: tuple = (1.0 + 0.0j,)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return npoly.polyval(z, np.asarray(self.num, dtype=complex)) / \
            npoly.polyval(z, np.asarray(self.den, dtype=complex))

    def to_json(self) -> dict:
        return {"num": serialize.cpx_seq(self.num), "den": serialize.cpx_seq(self.den)}

    @classmethod
    def from_json(cls, obj: dict) -> "RationalSymbol":
        obj = serialize.unobject(obj, "a raw symbol")
        return cls(tuple(serialize.uncpx_seq(obj["num"])),
                   tuple(serialize.uncpx_seq(obj["den"])))


IDENTITY_SYMBOL = RationalSymbol((0.0, 1.0))        # the symbol z


@dataclass(eq=False, frozen=True)
class SymbolSpec:
    """Symbol phi = conj(chi) + psi with chi in K_alpha, psi in K_beta, or a
    raw boundary function (callable on circle nodes, or a RationalSymbol);
    exactly one of the two forms."""

    co_analytic: ModelVector | None = None
    analytic: ModelVector | None = None
    raw: object | None = None

    def __post_init__(self):
        if not self.structured and self.raw is None:
            raise ValueError("symbol needs a structured part or a raw boundary function")
        if self.structured and self.raw is not None:
            raise ValueError("symbol takes a structured part or a raw boundary function, "
                             "not both")

    @property
    def structured(self) -> bool:
        return self.co_analytic is not None or self.analytic is not None

    def values(self, z, chi_vals=None, psi_vals=None):
        """Boundary values on |z| = 1; conj(chi(z)) + psi(z) reads the TM values
        of chi's and psi's spaces at z from ``chi_vals`` and ``psi_vals`` when
        given, and evaluates them otherwise."""
        if not self.structured:
            return self.raw(np.asarray(z, dtype=complex))
        out = None
        if self.co_analytic is not None:
            if chi_vals is None:
                chi_vals = tm_values(self.co_analytic.space, z)
            out = _combine(self.co_analytic.tm(), chi_vals)
            np.conjugate(out, out=out)
        if self.analytic is not None:
            if psi_vals is None:
                psi_vals = tm_values(self.analytic.space, z)
            psi = _combine(self.analytic.tm(), psi_vals)
            out = psi if out is None else np.add(out, psi, out=out)
        return out

    def conjugated_pair(self) -> "SymbolSpec":
        """The symbol conj(phi) for the operator between swapped spaces."""
        if not self.structured:
            raise ValueError("conjugated_pair requires a structured symbol")
        return SymbolSpec(co_analytic=self.analytic, analytic=self.co_analytic)

    def to_json(self) -> dict:
        if self.raw is not None:
            if not isinstance(self.raw, RationalSymbol):
                raise ValueError("a raw symbol has a JSON form only as a RationalSymbol")
            return {"raw": self.raw.to_json()}
        out = {}
        if self.co_analytic is not None:
            out["co_analytic"] = self.co_analytic.to_json()
        if self.analytic is not None:
            out["analytic"] = self.analytic.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolSpec":
        obj = serialize.unobject(obj, "a symbol")
        chi = ModelVector.from_json(obj["co_analytic"]) if "co_analytic" in obj else None
        psi = ModelVector.from_json(obj["analytic"]) if "analytic" in obj else None
        raw = RationalSymbol.from_json(obj["raw"]) if "raw" in obj else None
        return cls(chi, psi, raw)


@dataclass(eq=False, frozen=True)
class OperatorMatrix:
    """Complex matrix tagged with its input and output bases.  ``entries`` is
    a read-only copy of the given array; the read-only TM matrix is computed
    once, or kept from :meth:`from_tm`, and shared by every use.  Over the TM
    bases it is ``entries`` itself."""

    entries: np.ndarray
    in_basis: ModelBasis
    out_basis: ModelBasis

    def __post_init__(self):
        entries = _read_only(np.array(self.entries, dtype=complex))
        if entries.shape != (self.out_basis.dim, self.in_basis.dim):
            raise ValueError(f"entry shape {entries.shape} does not match bases "
                             f"({self.out_basis.dim}, {self.in_basis.dim})")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def alpha(self) -> BlaschkeProduct:
        return self.in_basis.space

    @property
    def beta(self) -> BlaschkeProduct:
        return self.out_basis.space

    @functools.cached_property
    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())

    @functools.cached_property
    def _tm(self) -> np.ndarray:
        if self.in_basis.is_tm and self.out_basis.is_tm:
            return self.entries
        return _read_only(_apply_inverse(self.in_basis, self.out_basis.matrix @ self.entries,
                                         right=True))

    def tm_entries(self) -> np.ndarray:
        """The same operator as a matrix between TM coordinates (read-only)."""
        return self._tm

    @classmethod
    def from_tm(cls, tm: np.ndarray, in_basis: ModelBasis,
                out_basis: ModelBasis) -> "OperatorMatrix":
        """The operator with matrix ``tm`` between TM coordinates, over the
        given bases; it keeps a read-only copy of ``tm`` as its TM matrix.
        Over the TM bases that copy is also the entries."""
        if in_basis.is_tm and out_basis.is_tm:
            return cls(tm, in_basis, out_basis)
        tm = _read_only(np.array(tm, dtype=complex))
        mat = cls(_apply_inverse(out_basis, tm @ in_basis.matrix), in_basis, out_basis)
        object.__setattr__(mat, "_tm", tm)
        return mat

    def in_bases(self, in_basis: ModelBasis, out_basis: ModelBasis) -> "OperatorMatrix":
        """The same operator over the given bases; ``self`` when they are
        over the matrix's own basis arrays."""
        if in_basis.matrix is self.in_basis.matrix and out_basis.matrix is self.out_basis.matrix:
            return self
        if in_basis.space != self.alpha or out_basis.space != self.beta:
            raise ValueError("target bases belong to different spaces")
        return OperatorMatrix.from_tm(self.tm_entries(), in_basis, out_basis)

    def apply(self, f: ModelVector) -> ModelVector:
        if f.space != self.alpha:
            raise ValueError("vector lives in the wrong model space")
        coeffs = self.entries @ f.to(self.in_basis).coeffs
        return ModelVector(self.out_basis, coeffs)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.tm_entries().conj().T,
                              build_basis(self.beta, "tm"),
                              build_basis(self.alpha, "tm"))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        other = other.in_bases(self.in_basis, self.out_basis)
        return OperatorMatrix(self.entries + other.entries, self.in_basis, self.out_basis)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(complex(scalar) * self.entries, self.in_basis, self.out_basis)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(),
                "beta": self.beta.to_json(),
                "in_basis": self.in_basis.descriptor(),
                "out_basis": self.out_basis.descriptor(),
                "entries": serialize.cpx_matrix(self.entries)}

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorMatrix":
        obj = serialize.unobject(obj, "an operator matrix")
        alpha = BlaschkeProduct.from_json(obj["alpha"])
        beta = BlaschkeProduct.from_json(obj["beta"])

        def mk(space, desc):
            desc = serialize.unobject(desc, "a basis descriptor")
            lam = serialize.uncpx(desc["lambda"]) if "lambda" in desc else None
            return build_basis(space, desc["basis"], lam)

        return cls(serialize.uncpx_matrix(obj["entries"]),
                   mk(alpha, obj["in_basis"]), mk(beta, obj["out_basis"]))


def _default_bases(alpha, beta, in_basis, out_basis):
    if in_basis is None:
        in_basis = build_basis(alpha, "tm")
    if out_basis is None:
        out_basis = build_basis(beta, "tm")
    if in_basis.space != alpha or out_basis.space != beta:
        raise ValueError("bases do not belong to the declared spaces")
    return in_basis, out_basis


def atto_matrix(alpha: BlaschkeProduct, beta: BlaschkeProduct, symbol: SymbolSpec,
                in_basis: ModelBasis | None = None, out_basis: ModelBasis | None = None,
                method: str = "quadrature", tol: Tolerances = DEFAULT) -> OperatorMatrix:
    """Matrix of the truncated multiplication-by-phi operator K_alpha -> K_beta.

    method="quadrature" (canonical) integrates <phi f_p, g_s> on the circle;
    method="closed" solves the rank-two Stein identity of a structured symbol
    (see the module docstring) and raises ValueError for a raw-only symbol.
    """
    in_basis, out_basis = _default_bases(alpha, beta, in_basis, out_basis)
    if method == "closed":
        m_tm = _closed_tm_matrix(alpha, beta, symbol)
        return OperatorMatrix.from_tm(m_tm, in_basis, out_basis)
    if method != "quadrature":
        raise ValueError("method must be 'quadrature' or 'closed'")

    def node_sum(*node_sets):
        z, parts = _joined(node_sets)
        va = alpha.model_space.level_values(z)    # (m, N) TM values of K_alpha
        vb = va if beta == alpha else beta.model_space.level_values(z)

        def held(part):       # a part over K_alpha or K_beta reads the values above
            if part is None:
                return None
            return va if part.space == alpha else vb if part.space == beta else None

        phi = symbol.values(z, held(symbol.co_analytic), held(symbol.analytic))
        left, right = np.conj(vb), phi * va
        return [left[:, part] @ right[:, part].T for part in parts]   # (n, m), TM coordinates

    return OperatorMatrix.from_tm(doubling_circle_mean(node_sum, tol.quadrature),
                                  in_basis, out_basis)


def _stein_pivots(target: ModelSpace, c: np.ndarray) -> np.ndarray:
    """The inverses P_j = (I - c_j S)^-1 for the compressed shift S of
    ``target`` (zeros b_i, s_i = sqrt(1 - |b_i|^2)) and every entry c_j of c,
    stacked as one (len(c), n, n) array.  P_j is lower triangular, with

        P_j[i, i] = 1 / (1 - c b_i),
        P_j[i, k] = c s_i s_k / ((1 - c b_i)(1 - c b_k)) prod_{k<l<i} (c - conj(b_l)) / (1 - c b_l)

    below the diagonal (c = c_j).  The products are built row by row, as in
    :attr:`ModelSpace.shift`: row i is row i - 1 times the factor of b_{i-1},
    extended by s_{i-1} / (1 - c b_{i-1}), never a quotient of products, so
    zeros at the origin and repeated zeros need no care."""
    b = np.array(target.zeros)
    n = len(b)
    inv = 1.0 / (1.0 - c[:, None] * b)                  # (m, n): 1 / (1 - c_j b_i)
    step = (c[:, None] - np.conj(b)) * inv               # the factor of b_l
    run = np.sqrt(1.0 - np.abs(b) ** 2) * inv            # s_k / (1 - c b_k)
    row = c[:, None] * run                               # c s_i / (1 - c b_i)
    piv = np.zeros((len(c), n, n), dtype=complex)
    piv[:, np.arange(n), np.arange(n)] = inv
    for i in range(1, n):
        run[:, : i - 1] *= step[:, i - 1, None]          # run[:, k] = P[i, k] / row[:, i], k < i
        np.multiply(run[:, :i], row[:, i, None], out=piv[:, i, :i])
    return piv


def _solve_stein(target: ModelSpace, source: ModelSpace, d: np.ndarray) -> np.ndarray:
    """X with X - S_b X S_a^H = d for the compressed shifts S_b of ``target``
    (n x n) and S_a of ``source`` (m x m), both lower triangular.  Column j is

        x_j = P_j (d_j + S_b sum_{k<j} conj(S_a[j, k]) x_k),

    with P_j = (I - conj(a_j) S_b)^-1 in closed form, built for all columns at
    once (:func:`_stein_pivots`); the pivots 1 - conj(a_j) b_i never vanish.
    d is n x m, or n x m x K for K right-hand sides that share every pivot."""
    sb, sa = target.shift, np.conj(source.shift)
    n, m = d.shape[:2]
    batch = d.shape[2:]
    piv = _stein_pivots(target, np.diag(sa))
    x = np.empty((d.size // m, m), dtype=complex)     # column j of X, flattened
    for j in range(m):
        rhs = d[:, j] + sb @ (x[:, :j] @ sa[j, :j]).reshape((n,) + batch)
        x[:, j] = (piv[j] @ rhs).ravel()
    return np.moveaxis(x.reshape((n,) + batch + (m,)), -1, 1)


def _part_in(f: ModelVector, b: BlaschkeProduct) -> np.ndarray:
    """TM coordinates of the projection of f onto K_b, by the operator X of
    the symbol 1: X - S X S'^H = k_0 k_0'^H."""
    if f.space == b:
        return f.tm()
    target, src = b.model_space, f.space.model_space
    one = _solve_stein(target, src, np.outer(target.k0, np.conj(src.k0)))
    return one @ f.tm()


def _closed_tm_matrix(alpha: BlaschkeProduct, beta: BlaschkeProduct,
                      symbol: SymbolSpec) -> np.ndarray:
    """TM matrix of the operator of conj(chi) + psi from the rank-two identity
    A - S_beta A S_alpha^H = psi k_0^alpha^H + k_0^beta chi^H."""
    if not symbol.structured:
        raise ValueError("closed-form path requires a structured symbol")
    sa, sb = alpha.model_space, beta.model_space
    d = np.zeros((beta.degree, alpha.degree), dtype=complex)
    if symbol.analytic is not None:
        d += np.outer(_part_in(symbol.analytic, beta), np.conj(sa.k0))
    if symbol.co_analytic is not None:
        d += np.outer(sb.k0, np.conj(_part_in(symbol.co_analytic, alpha)))
    return _solve_stein(sb, sa, d)


def compressed_shift(alpha: BlaschkeProduct, basis: ModelBasis | None = None) -> OperatorMatrix:
    """The compression of multiplication by z to the model space.

    Built from its closed form in TM coordinates (no quadrature), so it is
    exact up to rounding for every zero configuration.
    """
    basis, _ = _default_bases(alpha, alpha, basis, basis)
    return OperatorMatrix.from_tm(alpha.model_space.shift, basis, basis)


def rank_one(g: ModelVector, f: ModelVector, in_basis: ModelBasis | None = None,
             out_basis: ModelBasis | None = None) -> OperatorMatrix:
    """The operator h -> <h, f> g from the space of f to the space of g."""
    in_basis, out_basis = _default_bases(f.space, g.space, in_basis, out_basis)
    return OperatorMatrix.from_tm(np.outer(g.tm(), np.conj(f.tm())), in_basis, out_basis)


def modified_shift(alpha: BlaschkeProduct, c: complex,
                   basis: ModelBasis | None = None) -> OperatorMatrix:
    """Compressed shift plus c times the rank-one term (kernel at 0) tensor
    (conjugate kernel at 0), built in TM coordinates by
    :meth:`ModelSpace.modified` and moved to ``basis`` in one step."""
    basis, _ = _default_bases(alpha, alpha, basis, basis)
    return OperatorMatrix.from_tm(alpha.model_space.modified(c), basis, basis)


def clark_coefficient(alpha: BlaschkeProduct, lam: complex) -> complex:
    """(lam + B(0)) / (1 - |B(0)|^2): the modified-shift coefficient whose
    perturbation of the compressed shift is unitary."""
    a0 = alpha.model_space.b0
    return (complex(lam) + a0) / (1.0 - abs(a0) ** 2)


def clark_unitary(alpha: BlaschkeProduct, lam: complex,
                  basis: ModelBasis | None = None) -> OperatorMatrix:
    """The rank-one unitary perturbation of the compressed shift whose
    eigenpairs are the Clark points and normalized boundary kernels."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("lam must be unimodular")
    return modified_shift(alpha, clark_coefficient(alpha, lam), basis)


VARIANTS = ("conjk-kernel", "kernel-conjk")


def standard_rank_one(alpha: BlaschkeProduct, beta: BlaschkeProduct, w: complex,
                      variant: str, in_basis: ModelBasis | None = None,
                      out_basis: ModelBasis | None = None) -> OperatorMatrix:
    """The two standard rank-one members at a point w of the closed disk:

    conjk-kernel:  (conjugate kernel in K_beta) tensor (kernel in K_alpha)
    kernel-conjk:  (kernel in K_beta) tensor (conjugate kernel in K_alpha)
    """
    w = complex(w)
    if variant == "conjk-kernel":
        g, f = conj_kernel(beta, w), kernel(alpha, w)
    elif variant == "kernel-conjk":
        g, f = kernel(beta, w), conj_kernel(alpha, w)
    else:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return rank_one(g, f, in_basis, out_basis)


def conjugate_operator(a: OperatorMatrix) -> OperatorMatrix:
    """The operator C_beta A C_alpha (a linear map again, since the two
    antilinear conjugations cancel)."""
    ca, cb = a.alpha.model_space.conj, a.beta.model_space.conj
    return OperatorMatrix.from_tm(cb @ np.conj(a.tm_entries()) @ np.conj(ca),
                                  a.in_basis, a.out_basis)


def symbol_family(alpha: BlaschkeProduct, beta: BlaschkeProduct):
    """The m + n structured generators: conj(chi) over a TM basis of K_alpha
    and psi over a TM basis of K_beta."""
    fam = []
    for k in range(alpha.degree):
        coeffs = np.zeros(alpha.degree, dtype=complex)
        coeffs[k] = 1.0
        fam.append(SymbolSpec(co_analytic=tm_vector(alpha, coeffs)))
    for k in range(beta.degree):
        coeffs = np.zeros(beta.degree, dtype=complex)
        coeffs[k] = 1.0
        fam.append(SymbolSpec(analytic=tm_vector(beta, coeffs)))
    return fam


def symbol_span_dimension(alpha: BlaschkeProduct, beta: BlaschkeProduct,
                          tol: Tolerances = DEFAULT):
    """Numerical rank of the span of the structured-symbol operator family,
    with the singular values backing the rank call.

    The m + n generators of :func:`symbol_family` come from one batched
    Stein solve: chi = e_k puts k_0^beta in column k of the right-hand side,
    psi = e_k puts conj(k_0^alpha) in row k."""
    sa, sb = alpha.model_space, beta.model_space
    m, n = alpha.degree, beta.degree
    d = np.zeros((n, m, m + n), dtype=complex)
    d[:, np.arange(m), np.arange(m)] = sb.k0[:, None]
    d[np.arange(n), :, m + np.arange(n)] = np.conj(sa.k0)
    stack = _solve_stein(sb, sa, d).reshape(n * m, m + n).T
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(svals > tol.rank * svals[0]))
    return rank, svals

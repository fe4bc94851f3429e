"""Matrices of truncated multiplication operators.

With symbol phi, the operator takes f in one model space to the projection
of phi*f onto another.  Monomial products give honest Toeplitz matrices; the
compressed shift is the symbol z; adding the right rank-one bump makes it
unitary.  Quadrature and the exact structured route, which solves the
rank-two identity A - S A S* = psi (x) k_0 + k_0 (x) chi for A, agree to
near machine precision.
"""

import numpy as np

from attokit import (DEFAULT, RationalSymbol, SymbolSpec, atto_matrix,
                     clark_coefficient, clark_unitary, compressed_shift,
                     monomial, symbol_span_dimension)
from attokit.instances import random_blaschke, random_symbol

rng = np.random.default_rng(3)

print("== Toeplitz structure over z^4 ==")
b = monomial(4)
sym = SymbolSpec(raw=RationalSymbol((0.5, 1 - 0.5j, 0.25j)))
print(np.round(atto_matrix(b, b, sym).entries, 10))

print()
print("== compressed shift over z^3 and its unitary bump ==")
b3 = monomial(3)
print(np.round(compressed_shift(b3).entries.real, 12))
u = clark_unitary(b3, 1.0)
print("unitarity defect:", np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(3))))
print("bump coefficient for the unitary:", clark_coefficient(b3, 1.0))

print()
print("== two computation paths ==")
alpha = random_blaschke(rng, 3)
beta = random_blaschke(rng, 2)
sym = random_symbol(rng, alpha, beta)
quad = atto_matrix(alpha, beta, sym, method="quadrature").entries
closed = atto_matrix(alpha, beta, sym, method="closed").entries
print("quadrature vs rank-two Stein solve:", np.max(np.abs(quad - closed)))

print()
print("== dimension of the whole operator class ==")
rank, svals = symbol_span_dimension(alpha, beta)
print(f"degrees (3, 2): dimension {rank} (= m + n - 1); smallest kept singular "
      f"value {svals[rank - 1] / svals[0]:.2e} of the largest, cutoff {DEFAULT.rank:.0e}")

"""The transfer operator on Laurent polynomials and its spectral block.

With weight W = |m0|^2 the operator averages over N-th roots,
(Rf)(z) = (1/N) sum_{w^N = z} W(w) f(w), which on Fourier coefficients reads
(Rf)^(m) = sum_b W^(Nm - b) f^(b).  Degrees contract by a factor N, so a
finite coefficient block is invariant; its eigenvalues decide uniqueness of
the invariant measure.
"""

import numpy as np

from fractalmra import (
    DigitSystem,
    TransferOperator,
    canonical_lowpass,
    monomial,
    one,
    spectral_block,
    weight_from_filter,
)

cantor = DigitSystem(3, (0, 2))
m0 = canonical_lowpass(cantor)
W = weight_from_filter(m0)
print("weight |m0|^2 =", W)

op = TransferOperator(3, W)
print("R(1) =", op.apply(one()), " (normalized)")
print("R(z^2) =", op.apply(monomial(2)))
print("R(z) =", op.apply(monomial(1)))

print()
print("iterated product weights W(z) W(z^3) ... :")
for n in (1, 2, 3):
    Wn = op.iterate_weight(n)
    head = {k: str(v.exact_str()) for k, v in Wn.items() if 0 <= k <= 8}
    print(f"  n={n}: coefficients 0..8 -> {head}")
print("low coefficients freeze as n grows; those frozen values are exactly")
print("the moments of the invariant measure (see demo 04)")

print()
block = spectral_block(op)
print(f"invariant block halfwidth {block.halfwidth}, dimension {block.dimension}")
print("eigenvalues:", np.round(np.sort(block.eigenvalues.real), 12))
multiplicity, other = op.peripheral  # exact, no eigenvalue tolerance
print("eigenvalue 1 simple (exact rank check):", multiplicity == 1)
print("other peripheral eigenvalues:", other)

haar = DigitSystem(2, (0, 1))
oph = TransferOperator.from_filter(canonical_lowpass(haar), 2)
blockh = spectral_block(oph)
print()
print("Haar block eigenvalues:", np.round(np.sort(blockh.eigenvalues.real), 12))
print("(same block spectrum; the dichotomy lives in the cycles, not here)")

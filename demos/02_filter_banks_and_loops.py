"""Filter banks and the loop-group action.

The canonical low-pass filter of (N, S) is m0(z) = p^(-1/2) sum z^a.  The
bank is completed by monomials at the gap digits and by the other rows of
the Householder reflection whose row 0 is m0's coefficient vector, exact in
Q(sqrt p); the polyphase matrix is exactly unitary for every p.  Unitary matrices of Laurent polynomials act on banks by
m -> A(z^N) m(z), and any two unitary banks are connected by a unique loop
matrix recovered from the subsampled pairing.
"""

from fractalmra import (
    DigitSystem,
    LoopMatrix,
    build_bank,
    canonical_lowpass,
    connecting_matrix,
    loop_apply,
    monomial,
    pairing,
    unitarity_defect,
)

for scale, digits in [(3, (0, 2)), (4, (0, 2)), (2, (0, 1))]:
    sys = DigitSystem(scale, digits)
    bank = build_bank(sys)
    print(f"bank over {sys} (defect {unitarity_defect(bank)!r}):")
    for i, f in enumerate(bank.filters):
        print(f"  m_{i} = {f}")
    print()

cantor = DigitSystem(3, (0, 2))
bank = build_bank(cantor)
m0 = canonical_lowpass(cantor)

print("pairing <m0, m0>_3 =", pairing(m0, m0, 3))
print("pairing <m0, z^3 m0>_3 =", pairing(m0, monomial(3) * m0, 3))

# shift the low-pass by z^3 through a diagonal loop matrix and recover it
shift = LoopMatrix.diagonal((monomial(1), monomial(0), monomial(0)))
shifted = loop_apply(shift, bank)
print("shifted m0:", shifted.filters[0], "(defect", unitarity_defect(shifted), ")")
back = connecting_matrix(bank, shifted)
print("recovered connecting matrix entry A_00 =", back.entries[0][0])
print("off-diagonal first row:", back.entries[0][1], ",", back.entries[0][2])

"""Filter banks and the subsampled pairing.

The canonical low-pass filter of (N, S) is m0(z) = p^(-1/2) sum z^a.  The
bank is completed by monomials at the gap digits and by the other rows of
the Householder reflection whose row 0 is m0's coefficient vector, exact in
Q(sqrt p); the polyphase matrix is exactly unitary for every p, which the
subsampled pairing <m_i, m_j>_N = delta_ij expresses.
"""

from fractalmra import (
    DigitSystem,
    build_bank,
    canonical_lowpass,
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
m0 = canonical_lowpass(cantor)

print("pairing <m0, m0>_3 =", pairing(m0, m0, 3))
print("pairing <m0, z^3 m0>_3 =", pairing(m0, monomial(3) * m0, 3))

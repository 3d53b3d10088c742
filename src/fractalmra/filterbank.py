"""Filter banks attached to a digit system.

The canonical low-pass filter of (N, S) is m0(z) = p^(-1/2) sum z^a over the
digits.  The bank is completed by gap-filling high-pass filters (monomials at
the unused digits) and detail filters: the other rows of the Householder
reflection whose row 0 is m0's coefficient vector, so every coefficient lies
in m0's own field Q(sqrt(p)) and the bank is exactly unitary for every p.
Every coefficient is real, so on the torus conj(m(w)) = m(w^-1), and the
module provides the subsampled pairing

    <m, m'>_N (z) = (1/N) sum_{w^N = z} m(w^-1) m'(w),

which is the transfer step with weight m(z^-1) applied to m', and the
polyphase unitarity defect.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .ifs import DigitSystem, FrozenRecord
from .laurent import LaurentPolynomial, monomial, one, zero
from .scalars import Scalar
from .transfer import TransferOperator

# the pairing Gram has N^2 entries; m's digits are distinct mod N, so each
# term of m2 meets at most one term of m(z^-1) and an entry forms at most p products
UNITARITY_SCALE_CAP = 24


def canonical_lowpass(sys: DigitSystem) -> LaurentPolynomial:
    """Low-pass filter p^(-1/2) sum_i z^(a_i), exact in Q(sqrt(p))."""
    c = Scalar.inv_sqrt(sys.p)
    return LaurentPolynomial({a: c for a in sys.digits})


def detail_filters(sys: DigitSystem) -> list[LaurentPolynomial]:
    """The p-1 filters sum_j H_ij z^(a_j), i = 1..p-1, from the Householder
    reflection H = I - 2 v v^T/|v|^2 with v = e_0 - u, u = p^(-1/2)(1, ..., 1).

    H is symmetric and orthogonal with row 0 equal to u, m0's coefficients,
    so with m0 its rows make a unitary bank.  H_i0 = p^(-1/2) and
    H_ij = delta_ij - 1/(p - sqrt p) = delta_ij - 1/(p-1) - sqrt(p)/(p(p-1))
    for i, j >= 1, all in Q(sqrt(p)); for p = 2 the one filter is
    (z^(a_0) - z^(a_1))/sqrt 2."""
    p, (a0, *rest) = sys.p, sys.digits
    if not rest:
        return []
    first = Scalar.inv_sqrt(p)
    off = Scalar(-Fraction(1, p - 1), -Fraction(1, p * (p - 1)), p)
    on = off + 1
    return [
        LaurentPolynomial({a0: first, **{a: on if a == ai else off for a in rest}})
        for ai in rest
    ]


class FilterBank(FrozenRecord):
    """An N-tuple of filters (m_0, ..., m_{N-1}) over scale N; immutable."""

    __slots__ = ("scale", "filters")

    def __init__(self, scale: int, filters: tuple[LaurentPolynomial, ...]):
        if len(filters) != scale:
            raise PreconditionError(
                f"bank over scale {scale} needs {scale} filters, "
                f"got {len(filters)}"
            )
        super().__init__(scale, filters)


def build_bank(sys: DigitSystem) -> FilterBank:
    """Canonical bank: low-pass, then gap monomials (ascending gap digit),
    then detail filters (ascending row index of the reflection)."""
    filters = [canonical_lowpass(sys)]
    filters += [monomial(d) for d in sys.gap_digits]
    filters += detail_filters(sys)
    return FilterBank(sys.scale, tuple(filters))


def pairing(m: LaurentPolynomial, m2: LaurentPolynomial, N: int) -> LaurentPolynomial:
    """<m, m2>_N: the unique Laurent polynomial with
    (1/N) sum_{w^N=z} m(w^-1) m2(w) = sum_n c_n z^n,
    c_n = sum_k m^(k) m2^(k + N n): the transfer step of scale N with
    weight m(z^-1), applied to m2."""
    return TransferOperator(N, m.compose_power(-1)).apply(m2)


def unitarity_defect(bank: FilterBank) -> float:
    """Distance of the polyphase matrix from unitary: the largest modulus in
    G - I for the pairing Gram G_ij = <m_i, m_j>_N, which equals the identity
    iff the bank is unitary.  For reports only: it may underflow."""
    N, filters = bank.scale, bank.filters
    residue = (c for i, mi in enumerate(filters) for j, mj in enumerate(filters)
               for c in (pairing(mi, mj, N) - (one() if i == j else zero())).coeffs.values())
    return max((abs(float(c)) for c in residue), default=0.0)

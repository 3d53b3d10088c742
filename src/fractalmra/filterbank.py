"""Filter banks attached to a digit system.

The canonical low-pass filter of (N, S) is m0(z) = p^(-1/2) sum z^a over the
digits.  The bank is completed by gap-filling high-pass filters (monomials at
the unused digits) and detail filters: the other rows of the Householder
reflection whose row 0 is m0's coefficient vector, so every coefficient lies
in m0's own field Q(sqrt(p)) and the bank is exactly unitary for every p.
The module also provides the subsampled pairing

    <m, m'>_N (z) = (1/N) sum_{w^N = z} conj(m(w)) m'(w),

the polyphase unitarity defect, and the loop-group action A: m -> A(z^N) m(z)
with its connecting matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotUnitaryError, PreconditionError, ScaleMismatchError
from .ifs import DigitSystem
from .laurent import LaurentPolynomial, monomial, one, zero
from .scalars import Scalar
from .transfer import apply_haar_average

UNITARITY_SCALE_CAP = 24  # the pairing Gram has N^2 entries of up to p^2 products each


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


class FilterBank:
    """An N-tuple of filters (m_0, ..., m_{N-1}) over scale N; immutable."""

    __slots__ = ("scale", "filters")

    def __init__(self, scale: int, filters: tuple[LaurentPolynomial, ...]):
        if len(filters) != scale:
            raise PreconditionError(
                f"bank over scale {scale} needs {scale} filters, "
                f"got {len(filters)}"
            )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "filters", filters)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of a FilterBank")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, (self.scale, self.filters)


def build_bank(sys: DigitSystem) -> FilterBank:
    """Canonical bank: low-pass, then gap monomials (ascending gap digit),
    then detail filters (ascending row index of the reflection)."""
    filters = [canonical_lowpass(sys)]
    filters += [monomial(d) for d in sys.gap_digits]
    filters += detail_filters(sys)
    return FilterBank(sys.scale, tuple(filters))


def pairing(m: LaurentPolynomial, m2: LaurentPolynomial, N: int) -> LaurentPolynomial:
    """<m, m2>_N: the unique Laurent polynomial with
    (1/N) sum_{w^N=z} conj(m(w)) m2(w) = sum_n c_n z^n,
    c_n = sum_k conj(m^(k)) m2^(k + N n), the Haar average of conj(m) m2."""
    return apply_haar_average(N, m.conj_reciprocal() * m2)


def _identity_defect(gram: list[list[LaurentPolynomial]]) -> float:
    """The largest coefficient modulus of G - I for the N x N Laurent matrix
    G: exactly 0.0 when G is the identity."""
    dev = 0.0
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            for c in (g - one() if i == j else g).coeffs.values():
                dev = max(dev, abs(c.to_complex()))
    return dev


def unitarity_defect(bank: FilterBank) -> float:
    """Distance of the polyphase matrix from unitary: the pairing Gram
    G_ij = <m_i, m_j>_N equals the identity iff the bank is unitary."""
    gram = [
        [pairing(mi, mj, bank.scale) for mj in bank.filters] for mi in bank.filters
    ]
    return _identity_defect(gram)


class LoopMatrix:
    """An N x N matrix of Laurent polynomials, acting on banks by
    m -> A(z^N) m(z); immutable."""

    __slots__ = ("scale", "entries")

    def __init__(self, scale: int, entries: tuple[tuple[LaurentPolynomial, ...], ...]):
        if len(entries) != scale or any(len(row) != scale for row in entries):
            raise PreconditionError("loop matrix must be N x N")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of a LoopMatrix")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, (self.scale, self.entries)

    @classmethod
    def diagonal(cls, diag) -> "LoopMatrix":
        diag = tuple(diag)
        N = len(diag)
        return cls(
            N,
            tuple(
                tuple(diag[i] if i == j else zero() for j in range(N))
                for i in range(N)
            ),
        )

    def unitarity_defect(self) -> float:
        """Distance of A(z) from unitary on the torus: A(z) A(z)* against I."""
        N = self.scale
        gram = [
            [
                sum(
                    (self.entries[i][k] * self.entries[j][k].conj_reciprocal()
                     for k in range(N)),
                    zero(),
                )
                for j in range(N)
            ]
            for i in range(N)
        ]
        return _identity_defect(gram)


def loop_apply(A: LoopMatrix, bank: FilterBank) -> FilterBank:
    """Transformed bank with components sum_k A_jk(z^N) m_k(z)."""
    if A.scale != bank.scale:
        raise ScaleMismatchError(
            f"loop matrix scale {A.scale} != bank scale {bank.scale}"
        )
    N = bank.scale
    out = []
    for j in range(N):
        acc = zero()
        for k in range(N):
            entry = A.entries[j][k]
            if entry.is_zero():
                continue
            acc = acc + entry.compose_power(N) * bank.filters[k]
        out.append(acc)
    return FilterBank(N, tuple(out))


def connecting_matrix(bank: FilterBank, bank2: FilterBank) -> LoopMatrix:
    """The unique loop matrix A with loop_apply(A, bank) = bank2,
    A_jk = <m_k, m'_j>_N.  Both banks must be unitary."""
    if bank.scale != bank2.scale:
        raise ScaleMismatchError("banks have different scales")
    for which, b in (("first", bank), ("second", bank2)):
        defect = unitarity_defect(b)
        if defect:
            raise NotUnitaryError(f"{which} bank has unitarity defect {defect:.3e}")
    N = bank.scale
    entries = tuple(
        tuple(pairing(bank.filters[k], bank2.filters[j], N) for k in range(N))
        for j in range(N)
    )
    return LoopMatrix(N, entries)

"""Filter banks attached to a digit system.

The canonical low-pass filter of (N, S) is m0(z) = p^(-1/2) sum z^a over the
digits.  The bank is completed by gap-filling high-pass filters (monomials at
the unused digits) and detail-filling filters (p-th-root-of-unity modulations
of m0).  The module also provides the subsampled pairing

    <m, m'>_N (z) = (1/N) sum_{w^N = z} conj(m(w)) m'(w),

the polyphase unitarity defect, and the loop-group action A: m -> A(z^N) m(z)
with its connecting matrix.
"""

from __future__ import annotations

import cmath
import math

from .errors import CapExceededError, NotUnitaryError, PreconditionError, ScaleMismatchError
from .ifs import DigitSystem
from .laurent import LaurentPolynomial, monomial, one, zero
from .scalars import Scalar
from .transfer import apply_haar_average

UNITARITY_TOL = 1e-8
UNITARITY_SAMPLE_CAP = 10 ** 4
UNITARITY_SCALE_CAP = 24  # the pairing Gram has N^2 entries of up to p^2 products each


def canonical_lowpass(sys: DigitSystem) -> LaurentPolynomial:
    """Low-pass filter p^(-1/2) sum_i z^(a_i), exact in Q(sqrt(p))."""
    c = Scalar.inv_sqrt(sys.p)
    return LaurentPolynomial({a: c for a in sys.digits})


def detail_filters(sys: DigitSystem) -> list[LaurentPolynomial]:
    """The p-1 modulated filters p^(-1/2) sum_i eta^(k(i-1)) z^(a_i).

    Exact tier for p <= 2 (eta = -1); complex coefficients otherwise.
    """
    p = sys.p
    out = []
    for k in range(1, p):
        coeffs = {}
        for i, a in enumerate(sys.digits):
            if p == 2:
                c = Scalar.inv_sqrt(2)
                coeffs[a] = c if (k * i) % 2 == 0 else -c
            else:
                c = cmath.exp(2j * math.pi * k * i / p) / math.sqrt(p)
                coeffs[a] = Scalar.approx(c)
        out.append(LaurentPolynomial(coeffs))
    return out


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

    @property
    def is_exact(self) -> bool:
        return all(f.is_exact for f in self.filters)


def build_bank(sys: DigitSystem) -> FilterBank:
    """Canonical bank: low-pass, then gap monomials (ascending gap digit),
    then detail filters (ascending modulation index)."""
    filters = [canonical_lowpass(sys)]
    filters += [monomial(d) for d in sys.gap_digits]
    filters += detail_filters(sys)
    return FilterBank(sys.scale, tuple(filters))


def pairing(m: LaurentPolynomial, m2: LaurentPolynomial, N: int) -> LaurentPolynomial:
    """<m, m2>_N: the unique Laurent polynomial with
    (1/N) sum_{w^N=z} conj(m(w)) m2(w) = sum_n c_n z^n,
    c_n = sum_k conj(m^(k)) m2^(k + N n), the Haar average of conj(m) m2."""
    return apply_haar_average(N, m.conj_reciprocal() * m2, 1)


def _identity_defect(
    gram: list[list[LaurentPolynomial]], exact: bool, samples: int
) -> float:
    """Distance of the N x N Laurent matrix G(z) from the identity.

    For exact inputs G is checked coefficient-by-coefficient and a clean pass
    reports exactly 0.  Otherwise the defect is the larger of the maximal
    coefficient deviation and the maximal spectral norm of G(z) - I over
    `samples` points of the torus.
    """
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    if samples > UNITARITY_SAMPLE_CAP:
        raise CapExceededError(f"samples capped at {UNITARITY_SAMPLE_CAP}")
    N = len(gram)
    coeff_dev = 0.0
    exact_pass = exact
    for i in range(N):
        for j in range(N):
            diff = gram[i][j] - (one() if i == j else zero())
            if diff.is_zero():
                continue
            exact_pass = False
            coeff_dev = max(
                coeff_dev, max(abs(c.to_complex()) for c in diff.coeffs.values())
            )
    if exact_pass:
        return 0.0
    import numpy as np
    ts = np.arange(samples) / samples
    sample_dev = 0.0
    values = [[gram[i][j].eval_turns(ts) for j in range(N)] for i in range(N)]
    for s in range(samples):
        g = np.array([[values[i][j][s] for j in range(N)] for i in range(N)])
        sample_dev = max(sample_dev, float(np.linalg.norm(g - np.eye(N), 2)))
    return max(coeff_dev, sample_dev)


def unitarity_defect(bank: FilterBank, samples: int = 64) -> float:
    """Distance of the polyphase matrix from unitary: the pairing Gram
    G_ij = <m_i, m_j>_N equals the identity iff the bank is unitary."""
    gram = [
        [pairing(mi, mj, bank.scale) for mj in bank.filters] for mi in bank.filters
    ]
    return _identity_defect(gram, bank.is_exact, samples)


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

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for row in self.entries for e in row)

    def unitarity_defect(self, samples: int = 64) -> float:
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
        return _identity_defect(gram, self.is_exact, samples)


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
        if defect > UNITARITY_TOL:
            raise NotUnitaryError(f"{which} bank has unitarity defect {defect:.3e}")
    N = bank.scale
    entries = tuple(
        tuple(pairing(bank.filters[k], bank2.filters[j], N) for k in range(N))
        for j in range(N)
    )
    return LoopMatrix(N, entries)

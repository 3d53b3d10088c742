"""The Ruelle transfer operator realized exactly on Laurent polynomials.

For a weight W = |m0|^2 the operator (R f)(z) = (1/N) sum_{w^N=z} W(w) f(w)
acts on Fourier coefficients by (Rf)^(m) = sum_b W^(Nm - b) f^(b).  Degrees
contract under R, so the operator leaves a finite coefficient block invariant;
that block is realized as a dense matrix whose peripheral spectrum drives the
support and cascade dichotomies.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .laurent import LaurentPolynomial, one
from .scalars import ONE, Scalar, ZERO

PERIPHERAL_TOL = 1e-9
BLOCK_DIMENSION_CAP = 2001
ITERATED_SUPPORT_CAP = 10 ** 6


def weight_from_filter(m0: LaurentPolynomial) -> LaurentPolynomial:
    """|m0|^2 as a Laurent polynomial: W^(k) = sum_j conj(a_j) a_{j+k}."""
    return m0.conj_reciprocal() * m0


def apply_haar_average(N: int, f: LaurentPolynomial) -> LaurentPolynomial:
    """Transfer with unit weight: keeps the exponents divisible by N and maps
    exponent N j to j."""
    return LaurentPolynomial({k // N: v for k, v in f.coeffs.items() if k % N == 0})


class TransferOperator:
    """Transfer operator of scale N with weight W acting on Laurent polynomials."""

    def __init__(self, scale: int, weight: LaurentPolynomial):
        if scale < 2:
            raise PreconditionError("scale must be >= 2")
        self.scale = scale
        self.weight = weight
        # the terms (k, W^(k)) by k mod N, in coefficient order: one transfer
        # step pairs index idx with exactly the terms in by_residue[idx % N]
        self.by_residue: list[list[tuple[int, Scalar]]] = [[] for _ in range(scale)]
        for k, w in weight.coeffs.items():
            self.by_residue[k % scale].append((k, w))
        self._wk_cache: dict[tuple[int, int], Scalar] = {}

    @classmethod
    def from_filter(cls, m0: LaurentPolynomial, scale: int) -> "TransferOperator":
        return cls(scale, weight_from_filter(m0))

    @property
    def block_halfwidth(self) -> int:
        """Smallest D with R-invariance of coefficients in [-D, D]:
        deg(Rf) <= (deg f + deg W)/N forces D >= deg W/(N - 1)."""
        d = self.weight.degree()
        return -(-d // (self.scale - 1))

    def support_bound(self, k: int) -> int:
        """Largest |exponent| in the k-fold product weight's support:
        deg W (1 + N + ... + N^(k-1)) = deg W (N^k - 1)/(N - 1)."""
        return self.weight.degree() * (self.scale ** k - 1) // (self.scale - 1)

    @cached_property
    def fixes_constant(self) -> bool:
        """Whether R(1) = 1 exactly: the operator is normalized."""
        return self.apply(one()) == one()

    def normalization_defect(self) -> float:
        """Max deviation of R(1) from 1, for messages: `fixes_constant` decides."""
        diff = self.apply(one()) - one()
        if diff.is_zero():
            return 0.0
        return max(abs(c.to_complex()) for c in diff.coeffs.values())

    def apply(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """(Rf)^(m) = sum_b W^(Nm - b) f^(b): the Haar average of W f."""
        return apply_haar_average(self.scale, self.weight * f)

    def iterate_weight(self, n: int) -> LaurentPolynomial:
        """The product weight W(z) W(z^N) ... W(z^(N^(n-1))), fully expanded."""
        if n < 1:
            raise PreconditionError("n must be >= 1")
        out = self.weight
        for j in range(1, n):
            out = out * self.weight.compose_power(self.scale ** j)
            if len(out.coeffs) > ITERATED_SUPPORT_CAP:
                raise CapExceededError(
                    f"iterated weight support exceeds cap {ITERATED_SUPPORT_CAP}"
                )
        return out

    @cached_property
    def block(self) -> tuple[tuple[Scalar, ...], ...]:
        """The invariant block M[m][b] = W^(Nm - b), m, b in [-D, D], exactly;
        built once per operator."""
        return _block(self)

    @cached_property
    def fixed_vectors(self) -> tuple[tuple[Scalar, ...], ...]:
        """Exact basis of the solutions of nu^(b) = sum_m W^(Nm - b) nu^(m) on
        the block: the left fixed vectors of `block`, eliminated once per
        operator.  Eigenvalue 1 of the block is simple exactly when the basis
        has one vector."""
        return _left_fixed_vectors(self.block)

    def _iterate_coefficient(self, k: int, idx: int) -> Scalar:
        """Single Fourier coefficient of the k-fold product weight.

        Uses W^(k)(z) = W(z) W^(k-1)(z^N):
            coeff_k(idx) = sum_j W^(idx - N j) coeff_{k-1}(j);
        the needed indices contract like |j| <= (|idx| + deg W)/N, so the
        memoized recursion touches only a thin tube of (k, idx) pairs.
        """
        if k == 1:
            return self.weight[idx]
        key = (k, idx)
        hit = self._wk_cache.get(key)
        if hit is not None:
            return hit
        if abs(idx) > self.support_bound(k):
            return ZERO
        N = self.scale
        total = ZERO
        for w_exp, w in self.by_residue[idx % N]:
            term = self._iterate_coefficient(k - 1, (idx - w_exp) // N)
            if not term.is_zero():
                total = total + w * term
        self._wk_cache[key] = total
        return total


class SpectralBlock(NamedTuple):
    """Dense realization of the transfer operator on its invariant
    coefficient block [-D, D], with eigendata and peripheral flags."""

    halfwidth: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    fixes_constant: bool
    eigenvalue_one_multiplicity: int
    has_other_peripheral: bool
    eigenvalue_one_simple_exact: bool

    @property
    def dimension(self) -> int:
        return 2 * self.halfwidth + 1


def _block(op: TransferOperator) -> tuple[tuple[Scalar, ...], ...]:
    """M[m][b] = W^(Nm - b), m, b in [-D, D]; refused past
    BLOCK_DIMENSION_CAP."""
    D = op.block_halfwidth
    if 2 * D + 1 > BLOCK_DIMENSION_CAP:
        raise CapExceededError(
            f"block dimension {2 * D + 1} exceeds cap {BLOCK_DIMENSION_CAP}"
        )
    W, N, idx = op.weight, op.scale, range(-D, D + 1)
    return tuple(tuple(W[N * m - b] for b in idx) for m in idx)


def _left_fixed_vectors(M) -> tuple[tuple[Scalar, ...], ...]:
    """Basis of the v with v M = v: Gauss-Jordan elimination of (M - I)^T
    over exact scalars."""
    n = len(M)
    rows = [[M[m][b] - ONE if m == b else M[m][b] for m in range(n)] for b in range(n)]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = ONE
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def spectral_block(op: TransferOperator) -> SpectralBlock:
    """Eigen-decomposition of the invariant block M[m, b] = W^(Nm - b)."""
    import numpy as np
    matrix = np.array([[x.to_complex() for x in row] for row in op.block])
    eigenvalues, eigenvectors = np.linalg.eig(matrix)

    mult = int(np.sum(np.abs(eigenvalues - 1.0) <= PERIPHERAL_TOL))
    peripheral = np.abs(np.abs(eigenvalues) - 1.0) <= PERIPHERAL_TOL
    other = bool(np.any(peripheral & (np.abs(eigenvalues - 1.0) > PERIPHERAL_TOL)))

    return SpectralBlock(
        halfwidth=op.block_halfwidth,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        fixes_constant=op.fixes_constant,
        eigenvalue_one_multiplicity=mult,
        has_other_peripheral=other,
        eigenvalue_one_simple_exact=len(op.fixed_vectors) == 1,
    )

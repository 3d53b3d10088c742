"""The Ruelle transfer operator realized exactly on Laurent polynomials.

For a weight W = |m0|^2 the operator (R f)(z) = (1/N) sum_{w^N=z} W(w) f(w)
acts on Fourier coefficients by (Rf)^(m) = sum_b W^(Nm - b) f^(b).  Degrees
contract under R, so the operator leaves a finite coefficient block invariant;
that block is realized as a dense matrix whose peripheral spectrum drives the
support and cascade dichotomies; its peripheral verdicts are decided exactly.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .laurent import LaurentPolynomial, one, vanishes_at_primitive_roots
from .scalars import ONE, Scalar, ZERO

BLOCK_DIMENSION_CAP = 2001
ITERATED_SUPPORT_CAP = 10 ** 6


def _difference_counts(js: list[int], ks: list[int]) -> dict[int, int]:
    """How often each difference y - x, x in js and y in ks, occurs: read off
    one big-integer product (Kronecker substitution) of the 0/1 slot strings
    of ks and of js reversed, each slot wide enough for any count, or counted
    pair by pair where there are fewer pairs than slots ({0, N - 1})."""
    top, low = max(js), min(ks)
    span = max(ks) - low + top - min(js) + 1  # slot e holds the difference e + low - top
    if span > len(js) * len(ks):
        return Counter(y - x for x in js for y in ks)
    most = min(len(js), len(ks))  # no difference occurs more often
    code = next(c for c in "BHIQ" if most < 1 << 8 * array(c).itemsize)
    product = 1
    for offsets in ([y - low for y in ks], [top - x for x in js]):
        slots = array(code, [0]) * (max(offsets) + 1)
        for i in offsets:
            slots[i] = 1
        product *= int.from_bytes(slots, sys.byteorder)
    counts = array(code)
    counts.frombytes(product.to_bytes(counts.itemsize * span, sys.byteorder))
    return {e + low - top: c for e, c in enumerate(counts) if c}


def weight_from_filter(m0: LaurentPolynomial) -> LaurentPolynomial:
    """|m0|^2 = m0(z^-1) m0(z) for real coefficients: W^(k) = sum_j a_j a_{j+k},
    with the indices grouped by value: a pair of values (a, b) met n times at
    difference k (`_difference_counts`) adds n a b, one product per value pair
    and difference."""
    groups: dict[Scalar, list[int]] = {}
    for j, a in m0.coeffs.items():
        groups.setdefault(a, []).append(j)
    data: dict[int, Scalar] = {}
    for a, js in groups.items():
        for b, ks in groups.items():
            for k, n in _difference_counts(js, ks).items():
                data[k] = data.get(k, ZERO) + a * b * n
    return LaurentPolynomial(data)


class TransferOperator:
    """Transfer operator of scale N with weight W acting on Laurent polynomials."""

    def __init__(self, scale: int, weight: LaurentPolynomial):
        if scale < 2:
            raise PreconditionError("scale must be >= 2")
        self.scale = scale
        self.weight = weight
        # the terms (k, W^(k)) by each residue k mod N that occurs: one transfer
        # step pairs index idx with exactly the terms in by_residue.get(idx % N)
        self.by_residue: dict[int, list[tuple[int, Scalar]]] = {}
        for k, w in weight.coeffs.items():
            self.by_residue.setdefault(k % scale, []).append((k, w))
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
        return max((abs(float(c)) for c in diff.coeffs.values()), default=0.0)

    def apply(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """(Rf)^(m) = sum_b W^(Nm - b) f^(b): each term b of f meets exactly
        the terms k of W in by_residue[-b % N], at m = (k + b)/N."""
        N = self.scale
        data: dict[int, Scalar] = {}
        for b, v in f.coeffs.items():
            for k, w in self.by_residue.get(-b % N, ()):
                m = (k + b) // N
                s = data.get(m)
                data[m] = w * v if s is None else s + w * v
        return LaurentPolynomial(data)

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

    @cached_property
    def peripheral(self) -> tuple[int, bool]:
        """(multiplicity of eigenvalue 1, whether another eigenvalue of the
        block has modulus 1), exact for a rational nonnegative block whose
        columns sum to at most 1, as every |m0|^2 of a digit system gives, and
        refused otherwise.  Then ||M^k||_1 <= 1 for all k, so the eigenvalues
        of modulus 1 are semisimple roots of unity of order <= dim
        (Perron-Frobenius): 1 has len(fixed_vectors) of them, and another
        exists iff some Phi_q, 2 <= q <= dim, divides det(zI - M)."""
        M = self.block
        if not all(x.is_rational and x.p >= 0 for row in M for x in row):
            raise PreconditionError("exact peripheral verdicts need rational nonnegative entries")
        d = math.lcm(*(x.den for row in M for x in row))
        A = [[x.p * (d // x.den) for x in row] for row in M]  # d M
        if any(sum(col) > d for col in zip(*A)):
            raise PreconditionError("exact peripheral verdicts need column sums <= 1")
        # Faddeev-LeVerrier: c_k = -tr(P_k)/k exactly, P_1 = A and
        # P_(k+1) = A (P_k + c_k I); then d^n det(zI - M) = det(dzI - A)
        n, char, P = len(A), {len(A): d ** len(A)}, A
        for k in range(1, n + 1):
            c = -sum(row[i] for i, row in enumerate(P)) // k
            char[n - k] = c * d ** (n - k)
            P = [[sum(a * b for a, b in zip(row, col)) + c * x for col, x in zip(zip(*P), row)]
                 for row in A]
        other = any(vanishes_at_primitive_roots(char, q) for q in range(2, n + 1))
        return len(self.fixed_vectors), other

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
        for w_exp, w in self.by_residue.get(idx % N, ()):
            term = self._iterate_coefficient(k - 1, (idx - w_exp) // N)
            if not term.is_zero():
                total = total + w * term
        self._wk_cache[key] = total
        return total


class SpectralBlock(NamedTuple):
    """Float eigenvalues of the invariant block [-D, D], for display only:
    the peripheral verdicts are `TransferOperator.peripheral`, exact."""

    halfwidth: int
    eigenvalues: np.ndarray
    fixes_constant: bool

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
    """Float eigenvalues of the invariant block M[m, b] = W^(Nm - b)."""
    import numpy as np
    # complex dtype: a real array sends eig to another LAPACK routine
    matrix = np.array([[float(x) for x in row] for row in op.block], dtype=complex)
    return SpectralBlock(op.block_halfwidth, np.linalg.eig(matrix)[0], op.fixes_constant)

"""Sparse Laurent polynomials with Scalar coefficients.

These carry the low-pass/high-pass filters, the transfer-operator weights
|m0|^2 and the correlation functions of lattice vectors.  Coefficients are
exact real Scalars, so all of this arithmetic is exact.
Cyclotomic reduction lives here too: `vanishes_at_primitive_roots` is the one
exact root-of-unity test, behind the dual digit sets of `duality.dual_matrix`
and the peak-weight cycles of `measure.find_cycles`.
"""

from __future__ import annotations

import math

from .scalars import Scalar, ZERO


class LaurentPolynomial:
    """Finitely supported map exponent -> coefficient, f(z) = sum a_k z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, v in coeffs.items():
                e = int(k)
                if e != k:
                    raise ValueError(f"exponents must be integers, got {k!r}")
                v = Scalar.coerce(v)
                if not v.is_zero():
                    data[e] = v
        self.coeffs = data

    # -- inspection ---------------------------------------------------------

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs.get(k, ZERO)

    def items(self):
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs)]

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest absolute exponent in the support (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0
        return max(abs(k) for k in self.coeffs)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        data = dict(self.coeffs)
        for k, v in other.coeffs.items():
            data[k] = data.get(k, ZERO) + v
        return LaurentPolynomial(data)

    def __neg__(self) -> "LaurentPolynomial":
        out = LaurentPolynomial()
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            c = Scalar.coerce(other)
            if c.is_zero():
                return LaurentPolynomial()
            data = {k: v * c for k, v in self.coeffs.items()}
        else:
            data = {}
            for k1, v1 in self.coeffs.items():
                for k2, v2 in other.coeffs.items():
                    k = k1 + k2
                    s = data.get(k)
                    t = v1 * v2
                    data[k] = t if s is None else s + t
        out = LaurentPolynomial()
        out.coeffs = {k: c for k, c in data.items() if not c.is_zero()}
        return out

    __rmul__ = __mul__

    def compose_power(self, m: int) -> "LaurentPolynomial":
        """f(z^m); with real coefficients, f(z^-1) is conj(f(z)) on |z| = 1."""
        if m == 0:
            raise ValueError("compose_power requires a nonzero exponent")
        out = LaurentPolynomial()
        out.coeffs = {k * m: v for k, v in self.coeffs.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.items()))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        return sum((float(v) * z ** k for k, v in self.coeffs.items()), 0j)

    def eval_turns(self, t):
        """Evaluate at z = e^{2*pi*i*t}; t may be a float or a numpy array."""
        import numpy as np
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, v in self.coeffs.items():
            out += float(v) * np.exp(2j * math.pi * k * t)
        if out.shape == ():
            return complex(out)
        return out

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v.exact_str()})z^{k}" if k else f"({v.exact_str()})"
                          for k, v in self.items())

    def __repr__(self):
        return f"LaurentPolynomial({{{', '.join(f'{k}: {v.exact_str()}' for k, v in self.items())}}})"


def zero() -> LaurentPolynomial:
    return LaurentPolynomial()


def constant(c) -> LaurentPolynomial:
    return LaurentPolynomial({0: c})


def one() -> LaurentPolynomial:
    return constant(1)


def monomial(k: int, c=1) -> LaurentPolynomial:
    return LaurentPolynomial({k: c})


# -- dense integer polynomials (ascending coefficients) ---------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division by a monic integer polynomial."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        coef = num[-1]
        q[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        _poly_trim(num)
    return _poly_trim(q), num


def _prime_factors(n: int, bound: int) -> list[tuple[int, int]]:
    """The primes q <= bound dividing n >= 1, ascending, with exponents; trial
    division stops at the square root of what remains, then 1 or prime."""
    factors = []
    rest, q = n, 2
    while q <= bound and q * q <= rest:
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            factors.append((q, e))
        q += 1
    if 1 < rest <= bound:
        factors.append((rest, 1))
    return factors


def _cyclotomic(M: int, _cache={}) -> list[int]:
    """Coefficients of the M-th cyclotomic polynomial (ascending).

    Moebius inversion of z^M - 1 = prod_{d | M} Phi_d gives
    Phi_M = prod_{d | M} (z^d - 1)^mu(M/d): multiply by the sparse factors
    with mu = 1, then divide exactly by those with mu = -1, each in O(deg)."""
    if M not in _cache:
        mu = {1: 1}  # over the squarefree divisors of M
        for q, _ in _prime_factors(M, M):
            mu.update({e * q: -s for e, s in mu.items()})
        c = [1]
        for e, s in sorted(mu.items(), key=lambda t: -t[1]):
            d = M // e
            if s > 0:
                c = [a - b for a, b in zip([0] * d + c, c + [0] * d)]
            else:  # c = q (z^d - 1), so q[i] = q[i - d] - c[i]
                q = []
                for i in range(len(c) - d):
                    q.append((q[i - d] if i >= d else 0) - c[i])
                c = q
        _cache[M] = c
    return _cache[M]


def vanishes_at_primitive_roots(coeffs: dict[int, int], M: int) -> bool:
    """Whether sum_e c_e z^e, given as {e >= 0: int c_e}, vanishes at the
    primitive M-th roots of unity: Phi_M divides z^M - 1, so the polynomial
    folded mod z^M - 1 leaves the same remainder by Phi_M."""
    folded = [0] * min(M, max(coeffs, default=0) + 1)
    for e, c in coeffs.items():
        folded[e % M] += c
    return not _poly_divmod(_poly_trim(folded), _cyclotomic(M))[1]

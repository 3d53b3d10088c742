"""Affine digit systems: attractor geometry, cylinder addressing, and the
Fourier transform of the Hutchinson measure.

A digit system (N, S) with S a set of distinct digits in {0, ..., N-1}
generates the iterated function system sigma_a(x) = (x + a)/N.  Its attractor
is a Cantor-type set of Hausdorff dimension log_N(#S); the middle-third
Cantor set is (3, {0, 2}).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapExceededError, InvalidDigitError, PreconditionError

DEFAULT_TRANSFORM_DEPTH = 40


class DigitSystem:
    """Scale N >= 2 together with a nonempty set of digits in {0, ..., N-1}.

    Immutable; two systems are equal, and hash equal, when their scales and
    digit sets agree.  A system never equals a plain (scale, digits) tuple."""

    __slots__ = ("scale", "digits")

    def __init__(self, scale: int, digits):
        digits = tuple(sorted(int(d) for d in digits))
        if scale != int(scale):
            raise PreconditionError(f"scale must be an integer, got {scale!r}")
        if scale < 2:
            raise PreconditionError(f"scale must be >= 2, got {scale}")
        if not digits:
            raise PreconditionError("digit set must be nonempty")
        if len(set(digits)) != len(digits):
            raise InvalidDigitError(f"digits must be distinct: {digits}")
        if digits[0] < 0 or digits[-1] >= scale:
            raise InvalidDigitError(
                f"digits must lie in [0, {scale - 1}]: {digits}"
            )
        object.__setattr__(self, "scale", int(scale))
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of a DigitSystem")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, (self.scale, self.digits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scale == other.scale and self.digits == other.digits

    def __hash__(self):
        return hash((self.scale, self.digits))

    def __repr__(self):
        return f"DigitSystem(scale={self.scale!r}, digits={self.digits!r})"

    @property
    def p(self) -> int:
        """Number of digits (= number of IFS branches)."""
        return len(self.digits)

    @property
    def gap_digits(self) -> tuple[int, ...]:
        """Elements of {0, ..., N-1} not used by the system."""
        used = set(self.digits)
        return tuple(d for d in range(self.scale) if d not in used)

    def __str__(self):
        return f"({self.scale},{{{','.join(map(str, self.digits))}}})"


class CylinderAddress:
    """A depth-n cylinder of the attractor, addressed by its digit word."""

    __slots__ = ("system", "word")

    def __init__(self, system: DigitSystem, word):
        word = tuple(int(a) for a in word)
        if not word:
            raise PreconditionError("cylinder word must have depth >= 1")
        for a in word:
            if a not in system.digits:
                raise InvalidDigitError(f"letter {a} not in digit set {system.digits}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of a CylinderAddress")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, (self.system, self.word)

    @property
    def depth(self) -> int:
        return len(self.word)


def hausdorff_dimension(sys: DigitSystem) -> float:
    """Dimension log_N(p) of the attractor and of the Hutchinson measure."""
    return math.log(sys.p) / math.log(sys.scale)


def cylinder_translate_index(addr: CylinderAddress) -> tuple[int, int]:
    """Map a cylinder to the (depth, translate) index of its basis vector.

    The depth-n cylinder with word (a_1, ..., a_n) is the scaled translate
    N^-n (C + l) with l = sum a_k N^(n-k); its indicator is the lattice basis
    vector at resolution n and translate l, up to the norm factor p^(-n/2).
    """
    n = addr.depth
    N = addr.system.scale
    l = 0
    for a in addr.word:
        l = l * N + a
    return n, l


def digit_sums(digits, N: int, n: int) -> list[int]:
    """The base-N strings sum_{i<n} a_i N^i with every a_i in `digits`, the
    first letter most significant: [N * e + a for e in sums for a in digits],
    n times over [0]."""
    sums = [0]
    for _ in range(n):
        sums = [N * e + a for e in sums for a in digits]
    return sums


def attractor_sample(sys: DigitSystem, depth: int, cap: int = 10 ** 6) -> list[Fraction]:
    """Left endpoints of all depth-n cylinders, as exact sorted rationals."""
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if sys.p ** depth > cap:
        raise CapExceededError(f"p^depth = {sys.p ** depth} exceeds cap {cap}")
    q = sys.scale ** depth
    return sorted(Fraction(e, q) for e in digit_sums(sys.digits, sys.scale, depth))


class HutchinsonTransform:
    """Truncated-product evaluation of B(k), the Fourier transform of the
    Hutchinson measure: B(k) = prod_j (1/p) sum_i exp(2 pi i a_i k / N^j).

    The truncation error after J factors is bounded a posteriori by
    exp(2 pi |k| a_max N^-J / (N-1)) - 1.
    """

    def __init__(self, system: DigitSystem, depth: int = DEFAULT_TRANSFORM_DEPTH):
        if depth < 1:
            raise PreconditionError("product depth must be >= 1")
        self.system = system
        self.depth = depth

    def values(self, ks) -> np.ndarray:
        """B(k) for every k in `ks`, with the bits of the scalar product
        out *= sum(exp(1j * phase * a) for a in digits) / p, exp the
        standard library's complex exponential: the same
        order of operations, the complex product as real ufuncs (numpy's
        complex multiply rounds differently) and the result assembled
        through .real and .imag, which keeps signed zeros.

        No cos or sin is called where its result is known exactly:
        - a digit 0 adds cos(+-0) = 1 and sin(+-0) = +-0 (IEEE 754), which
          leave 1.0 and +0.0 in the sums, as long as every k is finite;
        - at a level j with max|2 pi k| a_max N^-j < 2^-28, every |phase * a|
          is below 2^-27 despite the roundings, where a correctly rounded
          libm (glibc by explicit branches) returns cos x = 1 and sin x = x.
          The factor is then (p * 1.0) / p + i (sum_a phase * a) / p, the
          sum in digit order.  tests/test_duality.py checks the libm."""
        import numpy as np
        sys = self.system
        twopik = (2.0 * math.pi) * np.asarray(ks, dtype=float)
        reach = float(np.abs(twopik).max(initial=0.0)) * sys.digits[-1]
        digits = [float(a) for a in sys.digits]
        skip_zero = digits[0] == 0.0 and math.isfinite(reach)
        if skip_zero:
            digits = digits[1:]
        re, im = np.ones_like(twopik), np.zeros_like(twopik)
        phase, x, y, f_re, f_im = (np.empty_like(twopik) for _ in range(5))
        scale = 1.0
        for _ in range(self.depth):
            scale /= sys.scale
            tiny = reach * scale < 2.0 ** -28
            np.multiply(twopik, scale, out=phase)
            # the cosines summed so far: all p when they are all exactly 1
            f_re.fill(sys.p if tiny else float(skip_zero))
            f_im.fill(0.0)
            for a in digits:
                np.multiply(phase, a, out=x)
                if not tiny:
                    f_re += np.cos(x, out=y)
                    np.sin(x, out=x)
                f_im += x
            f_re /= sys.p
            f_im /= sys.p
            np.multiply(re, f_im, out=x)
            np.multiply(im, f_re, out=y)
            re *= f_re
            im *= f_im
            re -= im
            np.add(x, y, out=im)
        out = np.empty(twopik.shape, dtype=complex)
        out.real, out.imag = re, im
        return out

    def value(self, k) -> complex:
        return complex(self.values([k])[0])

    def tail_bound(self, k) -> float:
        """Upper bound on |B_truncated(k) - B(k)| from the dropped factors."""
        sys = self.system
        a_max = sys.digits[-1]
        geom = a_max * sys.scale ** (-self.depth) / (sys.scale - 1)
        return math.expm1(2.0 * math.pi * abs(float(k)) * geom)

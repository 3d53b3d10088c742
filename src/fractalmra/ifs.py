"""Affine digit systems, their digit strings, and the Fourier transform of the
Hutchinson measure.

A digit system (N, S) with S a set of distinct digits in {0, ..., N-1}
generates the iterated function system sigma_a(x) = (x + a)/N.  Its attractor
is a Cantor-type set of Hausdorff dimension log_N(#S); the middle-third
Cantor set is (3, {0, 2}).
"""

from __future__ import annotations

import math

from .errors import CapExceededError, InvalidDigitError, PreconditionError

DEFAULT_TRANSFORM_DEPTH = 40
# for every N >= 2, N^-j is 0.0 in double precision at every level j >= 1075
TRANSFORM_DEPTH_CAP = 1075


class FrozenRecord:
    """Base of the immutable slotted records: `__init__` sets the subclass's
    `__slots__` once, in order, and pickling and copying call the subclass's
    constructor with them, which must take its slots in that order."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class DigitSystem(FrozenRecord):
    """Scale N >= 2 together with a nonempty set of digits in {0, ..., N-1}.

    Immutable; two systems are equal, and hash equal, when their scales and
    digit sets agree.  A system never equals a plain (scale, digits) tuple."""

    __slots__ = ("scale", "digits")

    def __init__(self, scale: int, digits):
        if scale != int(scale):
            raise PreconditionError(f"scale must be an integer, got {scale!r}")
        digits = tuple(digits)
        if any(d != int(d) for d in digits):
            raise PreconditionError(f"digits must be integers, got {digits!r}")
        digits = tuple(sorted(map(int, digits)))
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
        super().__init__(int(scale), digits)

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


def hausdorff_dimension(sys: DigitSystem) -> float:
    """Dimension log_N(p) of the attractor and of the Hutchinson measure."""
    return math.log(sys.p) / math.log(sys.scale)


def digit_sums(digits, N: int, n: int) -> list[int]:
    """The base-N strings sum_{i<n} a_i N^i with every a_i in `digits`, the
    first letter most significant: [N * e + a for e in sums for a in digits],
    n times over [0]."""
    sums = [0]
    for _ in range(n):
        sums = [N * e + a for e in sums for a in digits]
    return sums


class HutchinsonTransform:
    """Truncated-product evaluation of B(k), the Fourier transform of the
    Hutchinson measure: B(k) = prod_j (1/p) sum_i exp(2 pi i a_i k / N^j).

    The truncation error after J factors is bounded a posteriori by
    exp(2 pi |k| a_max N^-J / (N-1)) - 1.
    """

    def __init__(self, system: DigitSystem, depth: int = DEFAULT_TRANSFORM_DEPTH):
        if depth < 1:
            raise PreconditionError("product depth must be >= 1")
        if depth > TRANSFORM_DEPTH_CAP:
            raise CapExceededError(f"product depth capped at {TRANSFORM_DEPTH_CAP}")
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
          sum in digit order, and its real part 1.0 leaves the products by
          it out.  tests/test_duality.py checks the libm."""
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
            if not tiny:
                f_re.fill(float(skip_zero))  # the cosines summed so far
            f_im.fill(0.0)
            for a in digits:
                np.multiply(phase, a, out=x)
                if not tiny:
                    f_re += np.cos(x, out=y)
                    np.sin(x, out=x)
                f_im += x
            f_im /= sys.p
            np.multiply(re, f_im, out=x)
            if tiny:  # f_re = (p * 1.0) / p = 1.0, and a product by it is exact
                np.multiply(im, f_im, out=y)
                re -= y
                im += x
                continue
            f_re /= sys.p
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

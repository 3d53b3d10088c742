"""Exact scalar arithmetic over quadratic extensions Q(sqrt(d)).

The coefficients of canonical fractal filters live in Q(sqrt(p)) where p is
the number of IFS digits (for the Cantor filters, 1/sqrt(2)).  A Scalar is
either *exact* -- a + b*sqrt(d) with Fraction parts and squarefree d -- or an
*approximate* complex double.  Arithmetic stays exact as long as all operands
lie in one quadratic extension; mixing distinct irrational bases, or touching
an approximate operand, demotes the result to the approximate tier.  Exact
scalars are always real.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=256)
def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, q) with n = s*s*q and q squarefree.

    Trial division takes out every factor d with d^3 <= the unfactored rest;
    what remains then has at most two prime factors, so it is squarefree
    unless it is a perfect square.  Only the public constructors split (the
    results of arithmetic are canonical already, see `Scalar._canonical`);
    the splits are cached because those see the same few radicands."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, q, rest = 1, 1, n
    d = 2
    while d * d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                q *= d
        d += 1
    r = math.isqrt(rest)
    if r * r == rest:
        return s * r, q
    return s, q * rest


class Scalar:
    """A number that is exactly a + b*sqrt(d), or an approximate complex."""

    __slots__ = ("a", "b", "d", "z")

    def __init__(self, a, b=0, d=0, z=None):
        if z is not None:
            self.a = self.b = None
            self.d = 0
            self.z = complex(z)
            return
        a = Fraction(a)
        b = Fraction(b)
        if b:
            s, q = _squarefree_split(int(d))
            b *= s
            if q == 1:
                a += b
                b = Fraction(0)
                d = 0
            else:
                d = q
        else:
            d = 0
        self.a, self.b, self.d, self.z = a, b, d, None

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, d: int) -> "Scalar":
        """a + b*sqrt(d) from parts that are canonical already: Fraction a and
        b, d squarefree (> 1) or any value when b = 0.  Arithmetic inside one
        field keeps its operands' radicand, so results skip `__init__`."""
        x = object.__new__(cls)
        x.a, x.b, x.d, x.z = a, b, d if b else 0, None
        return x

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, q) -> "Scalar":
        return cls(Fraction(q))

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        return cls(0, 1, d)

    @classmethod
    def inv_sqrt(cls, p: int) -> "Scalar":
        """1/sqrt(p), exact in Q(sqrt(squarefree part of p))."""
        s, q = _squarefree_split(p)
        if q == 1:
            return cls(Fraction(1, s))
        return cls(0, Fraction(1, s * q), q)

    @classmethod
    def approx(cls, z) -> "Scalar":
        return cls(0, z=complex(z))

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        if isinstance(x, (float, complex)):
            return cls.approx(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.z is None

    @property
    def is_rational(self) -> bool:
        return self.z is None and not self.b

    def is_zero(self) -> bool:
        if self.z is None:
            return not self.a and not self.b
        return self.z == 0

    # -- conversions --------------------------------------------------------

    def to_complex(self) -> complex:
        if self.z is not None:
            return self.z
        v = float(self.a)
        if self.b:
            v += float(self.b) * math.sqrt(self.d)
        return complex(v)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __float__(self) -> float:
        c = self.to_complex()
        if c.imag:
            raise ValueError("scalar is not real")
        return c.real

    def exact_str(self) -> str | None:
        """Render 'a+b√d' for exact values, None for approximate ones."""
        if self.z is not None:
            return None
        if not self.b:
            return str(self.a)
        root = f"√{self.d}"
        if self.b == 1:
            irr = root
        elif self.b == -1:
            irr = "-" + root
        else:
            irr = f"{self.b}{root}"
        if not self.a:
            return irr
        if self.b > 0:
            return f"{self.a}+{irr}"
        return f"{self.a}{irr}"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:  # skips a call on the hot path
            other = Scalar.coerce(other)
        if self.z is None and other.z is None:
            if not other.b:
                return Scalar._canonical(self.a + other.a, self.b, self.d)
            if not self.b:
                return Scalar._canonical(self.a + other.a, other.b, other.d)
            if self.d == other.d:
                return Scalar._canonical(self.a + other.a, self.b + other.b, self.d)
        return Scalar.approx(self.to_complex() + other.to_complex())

    __radd__ = __add__

    def __neg__(self):
        if self.z is None:
            return Scalar._canonical(-self.a, -self.b, self.d)
        return Scalar.approx(-self.z)

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:  # skips a call on the hot path
            other = Scalar.coerce(other)
        if self.z is None and other.z is None:
            if not other.b:
                if not self.b:
                    return Scalar._canonical(self.a * other.a, _F0, 0)
                r = other.a
                return Scalar._canonical(self.a * r, self.b * r, self.d)
            if not self.b:
                r = self.a
                return Scalar._canonical(r * other.a, r * other.b, other.d)
            d = self.d
            if d == other.d:
                a = self.a * other.a + self.b * other.b * d
                b = self.a * other.b + self.b * other.a
                return Scalar._canonical(a, b, d)
        return Scalar.approx(self.to_complex() * other.to_complex())

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        exact = self.z is None and other.z is None
        if exact and (not self.b or not other.b or self.d == other.d):
            norm = other.a * other.a - other.b * other.b * other.d
            return self * Scalar._canonical(other.a / norm, -other.b / norm, other.d)
        return Scalar.approx(self.to_complex() / other.to_complex())

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def conjugate(self) -> "Scalar":
        """Complex conjugate; identity on exact (real) values."""
        if self.z is None:
            return self
        return Scalar.approx(self.z.conjugate())

    def abs_sq(self) -> "Scalar":
        return self * self.conjugate()

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.z is None and other.z is None:
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        return self.to_complex() == other.to_complex()

    def __hash__(self):
        if self.z is None:
            if not self.b:
                return hash(self.a)
            return hash((self.a, self.b, self.d))
        return hash(self.z)

    def _sign(self) -> int:
        """Exact sign of a real scalar."""
        if self.z is not None:
            if self.z.imag:
                raise ValueError("sign of a non-real scalar")
            return (self.z.real > 0) - (self.z.real < 0)
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, other):
        return (self - Scalar.coerce(other))._sign() < 0

    def __le__(self, other):
        return (self - Scalar.coerce(other))._sign() <= 0

    def __gt__(self, other):
        return (self - Scalar.coerce(other))._sign() > 0

    def __ge__(self, other):
        return (self - Scalar.coerce(other))._sign() >= 0

    def __repr__(self):
        if self.z is None:
            return f"Scalar({self.exact_str()})"
        return f"Scalar({self.z!r})"


_F0 = Fraction(0)
ZERO = Scalar(0)
ONE = Scalar(1)

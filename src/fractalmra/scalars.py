"""Exact scalar arithmetic over quadratic extensions Q(sqrt(d)).

The coefficients of canonical fractal filters live in Q(sqrt(p)) where p is
the number of IFS digits (for the Cantor filters, 1/sqrt(2)).  A Scalar is
(p + q*sqrt(d))/den with int parts, den > 0, gcd(p, q, den) = 1 and d
squarefree (d = 0 exactly when q = 0), so every Scalar is real.  Arithmetic
is exact within one quadratic extension; operands with two distinct
irrational radicands are refused with ValueError, since no request mixes
fields: each one lives in the Q(sqrt(p)) of its digit system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

_TRIAL_LIMIT = 10 ** 5


@lru_cache(maxsize=256)
def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, q) with n = s*s*q and q squarefree.

    Trial division takes out every factor d <= 10^5 with d^3 <= the
    unfactored rest.  When the cube-root test ends it, what remains has at
    most two prime factors, so it is squarefree unless it is a perfect
    square.  When the limit ends it, only a perfect square rest can be
    split; any other rest is refused with ValueError rather than returned
    as a radicand that might not be squarefree.  Only the public
    constructors split (the results of arithmetic are canonical already, see
    `_exact`); the splits are cached because those see the same few
    radicands."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, q, rest = 1, 1, n
    d = 2
    while d * d * d <= rest and d <= _TRIAL_LIMIT:
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
    if d * d * d <= rest:
        raise ValueError(f"radicand {n} has a factor beyond {_TRIAL_LIMIT} "
                         "that trial division cannot split")
    return s, q * rest


def _exact(p: int, q: int, d: int, den: int) -> "Scalar":
    """(p + q*sqrt(d))/den, made canonical by one gcd: den != 0, and d
    squarefree (> 1) or any value when q = 0.  Every arithmetic result is
    built here."""
    g = gcd(p, q, den)
    if den < 0:
        g = -g
    if g != 1:
        p //= g
        q //= g
        den //= g
    x = _new(Scalar)
    x.p = p
    x.q = q
    x.d = d if q else 0
    x.den = den
    return x


def _real(p: int, q: int, d: int, den: int) -> float:
    """(p + q*sqrt(d))/den as a float: int / int is correctly rounded, as
    float(Fraction) is, so p/den alone is the float of a rational."""
    return p / den + q / den * math.sqrt(d)


def _text(p: int, q: int, d: int, den: int) -> str:
    """'a+b√d' for the canonical parts of (p + q*sqrt(d))/den."""
    if not q:  # gcd(p, den) = 1 already
        return str(p) if den == 1 else f"{p}/{den}"
    root = f"√{d}"
    if q == den:
        irr = root
    elif q == -den:
        irr = "-" + root
    else:
        irr = f"{Fraction(q, den)}{root}"
    if not p:
        return irr
    if q > 0:
        return f"{Fraction(p, den)}+{irr}"
    return f"{Fraction(p, den)}{irr}"


def _mixed_fields(x: "Scalar", y: "Scalar"):
    raise ValueError(f"operands lie in different fields Q(√{x.d}) and Q(√{y.d})")


class Scalar:
    """A number that is exactly (p + q*sqrt(d))/den."""

    __slots__ = ("p", "q", "d", "den")

    # every Scalar is exact; the constant stays because perfbench/tracer.py
    # reads it on each traced operation to count demotions, which are now 0
    is_exact = True

    def __init__(self, a, b=0, d=0):
        for x in (a, b):  # as in coerce: a float would become its binary rational
            if isinstance(x, (float, complex)):
                raise TypeError(f"cannot make a Scalar from {type(x).__name__}")
        a = Fraction(a)
        b = Fraction(b)
        r = 0
        if b:
            if d != int(d):
                raise ValueError(f"radicand must be an integer, not {d!r}")
            s, r = _squarefree_split(int(d))
            b *= s
            if r == 1:
                a += b
                b = Fraction(0)
        p = a.numerator * b.denominator
        q = b.numerator * a.denominator
        den = a.denominator * b.denominator
        g = gcd(p, q, den)  # den > 0
        self.p, self.q, self.d, self.den = p // g, q // g, r if q else 0, den // g

    # -- constructors -------------------------------------------------------

    @classmethod
    def inv_sqrt(cls, p: int) -> "Scalar":
        """1/sqrt(p), exact in Q(sqrt(squarefree part of p))."""
        s, q = _squarefree_split(p)
        if q == 1:
            return cls(Fraction(1, s))
        return cls(0, Fraction(1, s * q), q)

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _exact(x.numerator, 0, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- parts --------------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part p/den."""
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        """The coefficient q/den of sqrt(d)."""
        return Fraction(self.q, self.den)

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.q

    def is_zero(self) -> bool:
        return not self.p and not self.q

    # -- conversions --------------------------------------------------------

    def __float__(self) -> float:
        # every Scalar is real, and complex(s) falls back to this
        return _real(self.p, self.q, self.d, self.den)

    def exact_str(self) -> str:
        """Render 'a+b√d'."""
        return _text(self.p, self.q, self.d, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:  # skips a call on the hot path
            other = Scalar.coerce(other)
        q, q2 = self.q, other.q
        if q and q2 and self.d != other.d:
            _mixed_fields(self, other)
        d = self.d if q else other.d
        den, den2 = self.den, other.den
        return _exact(self.p * den2 + other.p * den, q * den2 + q2 * den, d, den * den2)

    __radd__ = __add__

    def __neg__(self):
        x = _new(Scalar)
        x.p, x.q, x.d, x.den = -self.p, -self.q, self.d, self.den
        return x

    def __sub__(self, other):
        return self + -Scalar.coerce(other)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:  # skips a call on the hot path
            other = Scalar.coerce(other)
        q2 = other.q
        if not q2:
            r = other.p
            return _exact(self.p * r, self.q * r, self.d, self.den * other.den)
        q = self.q
        if not q:
            r = self.p
            return _exact(r * other.p, r * q2, other.d, self.den * other.den)
        d = self.d
        if d != other.d:
            _mixed_fields(self, other)
        p, p2 = self.p, other.p
        return _exact(p * p2 + q * q2 * d, p * q2 + q * p2, d, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        # den/(p + q sqrt d) = den (p - q sqrt d)/(p^2 - q^2 d); a product
        # across two fields is refused by __mul__
        p, q, d, den = other.p, other.q, other.d, other.den
        return self * _exact(den * p, -den * q, d, p * p - q * q * d)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.den == other.den and self.d == other.d)

    def __hash__(self):
        if not self.q:  # as the equal int or Fraction hashes
            return hash(self.p) if self.den == 1 else hash(Fraction(self.p, self.den))
        return hash((self.p, self.q, self.d, self.den))

    def _sign(self) -> int:
        """Exact sign."""
        p, q = self.p, self.q  # den > 0 leaves the sign to the numerator
        if not q:
            return (p > 0) - (p < 0)
        if not p:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with q^2 d
        lhs, rhs = p * p, q * q * self.d
        if p > 0:  # q < 0
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
        return f"Scalar({self.exact_str()})"


_new = object.__new__
ZERO = Scalar(0)
ONE = Scalar(1)

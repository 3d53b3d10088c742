"""Spectral-set duality: dual digit sets, candidate spectra, and the
orthogonality structure of exponentials on the attractor.

A dual pair (S, B) makes the p x p matrix p^(-1/2) exp(2 pi i a b / N)
unitary; the induced candidate spectrum Lambda collects the base-N digit
strings over B.  Unitarity is decided exactly: column orthogonality reduces
to vanishing sums of N-th roots of unity, checked in Z[x]/Phi_N(x).

Throughout, attractors of one-dimensional systems with digits inside
{0, ..., N-1} are assumed to meet their nonzero integer translates in at
most boundary points, so exponential inner products on the attractor are
exactly the transform values B(n - n').
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, combinations
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .filterbank import canonical_lowpass
from .ifs import DEFAULT_TRANSFORM_DEPTH, DigitSystem, HutchinsonTransform, digit_sums
from .laurent import vanishes_at_primitive_roots

LAMBDA_CAP = 10 ** 6
SIGNED_LAMBDA_DEPTH = 12
B_CYCLE_WORD_CAP = 10 ** 6
DIFFERENCE_CAP = 4096 ** 2  # pairwise exponent differences: 128 MiB of int64


# -- dual pairs --------------------------------------------------------------

class SpectralPair(NamedTuple):
    """A digit system with a candidate dual digit set and its verdict."""

    system: DigitSystem
    dual: tuple[int, ...]
    defect: float
    exact_unitary: bool

    @property
    def verdict(self) -> str:
        return "Dual" if self.exact_unitary else "NotDual"

    @property
    def is_dual(self) -> bool:
        return self.verdict == "Dual"

    def matrix(self) -> np.ndarray:
        import numpy as np
        sys = self.system
        p = sys.p
        return np.array(
            [
                [
                    np.exp(2j * math.pi * a * b / sys.scale) / math.sqrt(p)
                    for b in self.dual
                ]
                for a in sys.digits
            ]
        )


def dual_matrix(sys: DigitSystem, dual) -> SpectralPair:
    """Build M_N(S, B) and decide unitarity.

    Column orthogonality says sum_j omega^(a_j (b - b')) vanishes for every
    pair of distinct dual digits; that is decided exactly over the N-th
    cyclotomic field, with the numeric operator defect reported alongside.
    """
    dual = tuple(int(b) for b in dual)
    if len(dual) != sys.p:
        raise PreconditionError(
            f"dual set must have {sys.p} elements, got {len(dual)}"
        )
    if len(set(dual)) != len(dual):
        raise PreconditionError(f"dual digits must be distinct: {dual}")
    if 0 not in dual:
        raise PreconditionError("dual set must contain 0")
    N = sys.scale
    exact = all(
        vanishes_at_primitive_roots(Counter(a * (b2 - b) % N for a in sys.digits), N)
        for b, b2 in combinations(dual, 2)
    )
    defect = 0.0
    if not exact:
        import numpy as np
        m = SpectralPair(sys, dual, 0.0, False).matrix()
        defect = float(np.linalg.norm(m.conj().T @ m - np.eye(sys.p), 2))
    return SpectralPair(sys, dual, defect, exact)


class LambdaSet(NamedTuple):
    """Sorted prefix of the candidate spectrum sum n_i N^i, n_i in B."""

    pair: SpectralPair
    prefix: tuple[int, ...]


def lambda_set(pair: SpectralPair, count: int) -> LambdaSet:
    """First `count` elements of Lambda_N(B) in increasing order.

    Distinct residues mod N keep the strings (`ifs.digit_sums`) distinct,
    and 0 in B puts the shorter strings among those of n digits.  Signed dual
    digits make Lambda two-sided and non-monotone in string length, so the
    prefix collects the `count` strings of SIGNED_LAMBDA_DEPTH digits of
    smallest magnitude, sorted ascending; those p^SIGNED_LAMBDA_DEPTH strings
    are capped at LAMBDA_CAP, whatever `count` asks for."""
    if not pair.is_dual:
        raise PreconditionError("lambda_set requires a Dual pair")
    if count < 1:
        raise PreconditionError("count must be >= 1")
    if count > LAMBDA_CAP:
        raise CapExceededError(f"count exceeds cap {LAMBDA_CAP}")
    N = pair.system.scale
    B = pair.dual
    if min(B) < 0:
        if len(B) ** SIGNED_LAMBDA_DEPTH > LAMBDA_CAP:
            raise CapExceededError(
                f"p^{SIGNED_LAMBDA_DEPTH} signed dual strings exceed cap {LAMBDA_CAP}"
            )
        strings = digit_sums(B, N, SIGNED_LAMBDA_DEPTH)
        nearest = sorted(strings, key=lambda n: (abs(n), n))[:count]
        return LambdaSet(pair, tuple(sorted(nearest)))
    depth, strings = 0, [0]
    # a string with a nonzero digit at position `depth` or past it is at least
    # N^depth, so the prefix is final once `count` strings lie below N^depth
    while len(B) > 1 and (
        len(strings) < count or count > sum(map((N ** depth).__gt__, strings))
    ):
        depth += 1
        strings = digit_sums(B, N, depth)
    return LambdaSet(pair, tuple(sorted(strings)[:count]))


class BCycle(NamedTuple):
    """A cycle of the inverse branches xi -> (xi - b)/N, reported by its
    torus angles, the digit word that closes it, and |m0|^2 at the points."""

    angles: tuple[Fraction, ...]
    word: tuple[int, ...]
    values: tuple[float, ...]

    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.angles)


class BCycleReport(NamedTuple):
    max_length: int
    cycles: tuple[BCycle, ...]
    trivial_only: bool


def b_cycles(pair: SpectralPair, K: int = 6) -> BCycleReport:
    """Dual-digit cycles up to word length K; p^K > B_CYCLE_WORD_CAP is
    refused, and a one-digit system counts as 2^K.

    A word (b_1, ..., b_k) closes at xi_1 = c/(N^k - 1), its value c =
    b_k + N b_{k-1} + ... + N^(k-1) b_1; the cycle is kept when the canonical
    low-pass modulus |m0|^2 equals p at every point.  That happens at xi
    exactly when all p terms of m0 share one phase, i.e. when g xi is an
    integer for g the gcd of the digit differences; the orbit N^i xi_1 then
    stays on (1/g)Z, so the test at xi_1 decides the whole cycle.

    As g c = 0 mod N^k - 1 is a congruence, the words are met in the middle:
    high halves of k // 2 letters and low halves are matched by residue, at
    a cost of p^ceil(k/2) per length.  Matches come in the order of
    `ifs.digit_sums`, and each cycle keeps its first word there."""
    if K < 1:
        raise PreconditionError("K must be >= 1")
    sys, dual = pair.system, pair.dual
    N, p = sys.scale, sys.p
    if max(p, 2) ** K > B_CYCLE_WORD_CAP:
        raise CapExceededError(f"p^K exceeds cap {B_CYCLE_WORD_CAP}")
    m0 = canonical_lowpass(sys)
    g = math.gcd(*(a - sys.digits[0] for a in sys.digits))

    halves = cache(partial(digit_sums, dual, N))  # word halves by length
    seen: set[frozenset] = set()
    found: list[BCycle] = []
    for k in range(1, K + 1):
        modulus = N ** k - 1
        step = modulus // math.gcd(g, modulus)  # a word closes when step | c
        h = k // 2
        lows, shift = halves(k - h), N ** (k - h)
        buckets: dict[int, list[int]] = {}
        for i_low, low in enumerate(lows):
            buckets.setdefault(low % step, []).append(i_low)
        for i_high, high in enumerate(halves(h)):
            for i_low in buckets.get(-high * shift % step, ()):
                # the i-th word has the base-p digits of i as letters
                i, c = i_high * len(lows) + i_low, high * shift + lows[i_low]
                # rotating the word multiplies the value by N mod (N^k - 1)
                angles = [Fraction(c * N ** j % modulus, modulus) for j in range(k)]
                key = frozenset(angles)
                if key in seen:
                    continue
                seen.add(key)
                start = angles.index(min(angles))
                ordered = angles[start:] + angles[:start]
                found.append(
                    BCycle(
                        tuple(ordered),
                        tuple(dual[i // p ** (k - 1 - j) % p] for j in range(k)),
                        tuple(abs(m0.eval_turns(float(a))) ** 2 for a in ordered),
                    )
                )
    found.sort(key=lambda cyc: cyc.angles)
    trivial_only = all(c.is_trivial() for c in found)
    return BCycleReport(max_length=K, cycles=tuple(found), trivial_only=trivial_only)


# -- orthogonality of exponentials -------------------------------------------

def _differences(exponents):
    """d[i, j] = n_i - n_j, in Python integers where a difference could wrap
    around int64; refused past DIFFERENCE_CAP entries before any is built."""
    exponents = list(exponents)
    n = len(exponents)
    if n * n > DIFFERENCE_CAP:
        raise CapExceededError(
            f"{n}^2 exponent differences exceed cap {DIFFERENCE_CAP}"
        )
    import numpy as np
    wide = max(map(abs, exponents), default=0) >= 2 ** 62
    e = np.array(exponents, dtype=object if wide else None)
    return np.subtract.outer(e, e)


def _distinct(a):
    """The sorted distinct entries of `a`; np.unique would import numpy.ma on
    first use."""
    import numpy as np
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def exponential_gram(
    sys: DigitSystem, exponents, depth: int = DEFAULT_TRANSFORM_DEPTH
) -> np.ndarray:
    """Gram matrix G_ij = B(n_j - n_i) of exponentials in L^2(C, mu).

    B is evaluated once per distinct difference, of either sign; one lookup
    in that table fills the matrix."""
    import numpy as np
    d = _differences(exponents)  # G = table(d)^T
    diffs = _distinct(d)
    table = HutchinsonTransform(sys, depth).values(diffs)
    where = np.searchsorted(diffs, d)
    del d  # an n^2 array fewer at the peak, while table[where] is built
    return table[where].T


def _partial_sums(vals) -> list[float]:
    # a Python running sum: numpy's abs, square and cumsum need not give these bits
    return list(accumulate(abs(v) ** 2 for v in vals.tolist()))


def onb_defect(
    pair: SpectralPair,
    xi: float,
    prefix,
    depth: int = DEFAULT_TRANSFORM_DEPTH,
) -> list[float]:
    """Nondecreasing partial sums of |B(xi - n)|^2 over a spectrum prefix
    (`lambda_set(pair, count).prefix`).

    The full sum equals 1 a.e. exactly when the exponentials form an ONB;
    each partial sum obeys the Bessel bound <= 1."""
    if not pair.is_dual:
        raise PreconditionError("onb_defect requires a Dual pair")
    vals = HutchinsonTransform(pair.system, depth).values([xi - n for n in prefix])
    return _partial_sums(vals)


def onb_check(
    pair: SpectralPair,
    xi: float,
    prefix,
    depth: int = DEFAULT_TRANSFORM_DEPTH,
) -> tuple[float, list[float]]:
    """max |G - I| over the entries of G = `exponential_gram(pair.system,
    prefix, depth)`, and `onb_defect(pair, xi, prefix, depth)`, with their
    bits, from one `values` call at the nonnegative distinct differences and
    the points xi - n together (`values` works element by element).

    G is never built.  Its entries B(k) and B(-k) are complex conjugates;
    with a libm whose cos is even and sin odd their computed values have one
    modulus bit for bit (tests/test_duality.py compares the two), so the
    nonnegative differences give the maximum.  With distinct exponents the
    difference 0 lies on the diagonal and nowhere else."""
    import numpy as np
    if not pair.is_dual:
        raise PreconditionError("onb_check requires a Dual pair")
    prefix = list(prefix)
    if not prefix or len(set(prefix)) < len(prefix):
        raise PreconditionError("onb_check requires a nonempty prefix of distinct exponents")
    d = _differences(prefix)
    ks = d[d >= 0]
    del d  # an n^2 array fewer at the peak of the sort
    ks = _distinct(ks)  # ks[0] = 0
    points = np.asarray([xi - n for n in prefix], dtype=float)
    vals = HutchinsonTransform(pair.system, depth).values(
        np.concatenate((np.asarray(ks, dtype=float), points))
    )
    table = vals[: len(ks)]
    table[0] -= 1
    return float(np.max(np.abs(table))), _partial_sums(vals[len(ks):])


def dual_transfer_eval(pair: SpectralPair, f, xi, n: int = 1) -> float:
    """n-fold dual transfer operator by full branch expansion:

        (R_B f)(xi) = (1/p) sum_b |m0((xi - b)/N)|^2 f((xi - b)/N).

    Exact branch points when xi is a Fraction.  Unlike the torus-side
    operator, R_B does not preserve 1-periodicity."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > 12:
        raise CapExceededError("branch expansion capped at n = 12")
    sys = pair.system
    N, p = sys.scale, sys.p
    m0 = canonical_lowpass(sys)

    def weight(eta) -> float:
        return abs(m0.eval_turns(float(eta))) ** 2

    def recurse(point, level: int) -> float:
        if level == 0:
            return float(f(point))
        total = 0.0
        for b in pair.dual:
            child = (point - b) / N
            total += weight(child) * recurse(child, level - 1)
        return total / p
    return recurse(Fraction(xi) if isinstance(xi, (int, Fraction)) else float(xi), n)

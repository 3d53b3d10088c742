"""Exact model of the separable Hilbert space carried by the inflated fractal.

A vector is a finite combination of the orthonormal family U^-n T^k phi,
where phi is the indicator of the attractor, T is integer translation and U
the normalized dilation with U T U^-1 = T^N.  Resolution is a label: no
function on the real line is ever evaluated.  At resolution n a vector is
the Laurent polynomial f(z) = sum_k c_k z^k in the translate index, and all
geometry enters through polynomial products:

    T^j (U^-n T^k phi) = U^-n T^(k + j N^n) phi,   i.e. f -> z^(j N^n) f,
    U^-n T^k phi = p^(-1/2) sum_a U^-(n+1) T^(Nk + a) phi,   i.e. f -> f(z^N) m0(z).

The digits are distinct, so refining D levels never adds two terms: a fine
index y comes from its ancestor y div N^D exactly when y mod N^D is a digit
sum sum_{i<D} a_i N^i with every a_i in S.  Inner products, correlations and
Gram sections test that membership instead of refining either vector.

Coefficients are real and live in Q(sqrt(p)) for the canonical filters, so
inner products, cascade iterations, correlation polynomials and Gram
sections are exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import (
    CapExceededError,
    CoarseningError,
    PreconditionError,
    SystemMismatchError,
)
from .filterbank import build_bank, canonical_lowpass, pairing
from .ifs import DigitSystem, digit_sums
from .laurent import LaurentPolynomial, monomial
from .scalars import ONE, Scalar, ZERO
from .transfer import TransferOperator

CASCADE_STEP_CAP = 12
CASCADE_TERM_CAP = 10 ** 6
GRAM_SECTION_CAP = 10 ** 4


class LatticeVector:
    """sum_k c_k U^-n T^k phi at a fixed resolution n: the Laurent polynomial
    sum_k c_k z^k in the translate index, labelled with its resolution.

    `coeffs` may be a mapping k -> c_k or a LaurentPolynomial, which is
    shared, not copied; the `coeffs` slot is the polynomial's own dict."""

    __slots__ = ("system", "resolution", "poly", "coeffs")

    def __init__(self, system: DigitSystem, resolution: int, coeffs=None):
        if resolution != int(resolution):
            raise PreconditionError(f"resolution must be an integer, got {resolution!r}")
        self.system = system
        self.resolution = int(resolution)
        if not isinstance(coeffs, LaurentPolynomial):
            coeffs = LaurentPolynomial(coeffs)
        self.poly = coeffs
        self.coeffs = coeffs.coeffs

    def norm_sq(self) -> Scalar:
        """Exact squared norm: the basis at one resolution is orthonormal."""
        return inner(self, self)

    def scaled(self, s) -> "LatticeVector":
        return LatticeVector(self.system, self.resolution, self.poly * s)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if other.system != self.system:
            raise SystemMismatchError("vectors over different systems")
        m = max(self.resolution, other.resolution)
        return LatticeVector(
            self.system, m, refine_to(self, m).poly + refine_to(other, m).poly
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + other.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        if self.system != other.system:
            return False
        # ||v - w||^2 = ||v||^2 + ||w||^2 - 2<v, w>: neither vector is refined
        ip = _overlap(self, other, 0)
        return (self.norm_sq() + other.norm_sq() - ip - ip).is_zero()

    def __hash__(self):
        # equal vectors have equal norms, whatever their resolutions
        return hash((self.system, self.norm_sq()))

    def __repr__(self):
        terms = ", ".join(
            f"{k}: {v.exact_str()}"
            for k, v in self.poly.items()
        )
        return f"LatticeVector(res={self.resolution}, {{{terms}}})"


def basis_delta(sys: DigitSystem, n: int, k: int) -> LatticeVector:
    """The unit vector U^-n T^k phi."""
    return LatticeVector(sys, n, {k: 1})


def scaling_vector(sys: DigitSystem) -> LatticeVector:
    """phi itself: the indicator of the attractor, at resolution 0."""
    return basis_delta(sys, 0, 0)


def refine_to(v: LatticeVector, m: int) -> LatticeVector:
    """Re-express v at resolution m >= resolution(v); exact and isometric.

    The scaling equation phi = U^-1 m0(T) phi, iterated D = m - res(v) times,
    sends f(z) to f(z^(N^D)) P_D(z) with P_D = p^(-D/2) sum_e z^e over the
    digit sums e = sum_{i<D} a_i N^i; the digits are distinct, so no two
    terms of the product meet: the term N^D x + e is a_x p^(-D/2).  A result
    of more than CASCADE_TERM_CAP terms is refused before any is built."""
    if m < v.resolution:
        raise CoarseningError(
            f"cannot coarsen resolution {v.resolution} to {m}; "
            "projection onto coarser scales is not supported"
        )
    steps = m - v.resolution
    if not steps:
        return v
    sys = v.system
    # for p >= 2, p^D exceeds the cap once D reaches the cap's bit length
    if len(v.coeffs) * sys.p ** min(steps, CASCADE_TERM_CAP.bit_length()) > CASCADE_TERM_CAP:
        raise CapExceededError(
            f"refining {len(v.coeffs)} terms by {steps} levels exceeds cap {CASCADE_TERM_CAP}"
        )
    sums = digit_sums(sys.digits, sys.scale, steps)
    q, c = sys.scale ** steps, _inv_sqrt_power(sys.p, steps)
    return LatticeVector(sys, m, {q * x + e: a * c for x, a in v.coeffs.items() for e in sums})


def _ancestor(y: int, steps: int, q: int, sys: DigitSystem) -> int | None:
    """The index `steps` levels coarser whose refinement reaches y, if any.

    y = q x + r with q = N^steps descends from x exactly when r is a digit
    sum sum_{i<steps} a_i N^i with every a_i in S.  The caller passes q, which
    is the same for every fine index it asks about."""
    x, r = divmod(y, q)
    for _ in range(steps):
        if not r:  # the remaining digits are all 0
            return x if 0 in sys.digits else None
        r, a = divmod(r, sys.scale)
        if a not in sys.digits:
            return None
    return x


def _inv_sqrt_power(p: int, n: int) -> Scalar:
    """p^(-n/2), built from p^(n//2) so the radicand p^n is never split."""
    return Scalar(Fraction(1, p ** (n // 2))) * (Scalar.inv_sqrt(p) if n % 2 else ONE)


def _overlap(v: LatticeVector, w: LatticeVector, d: int) -> Scalar:
    """<v | w> with w read d places lower at the finer resolution.

    Sums v_x w_y over the pairs whose indices at the finer resolution,
    the coarse one refined, satisfy (w index) = (v index) + d: a fine index
    has one `_ancestor` D = |res(w) - res(v)| levels up, with weight p^(-D/2)."""
    steps = w.resolution - v.resolution
    if steps < 0:
        return _overlap(w, v, -d)
    q = v.system.scale ** steps
    total = ZERO
    for y, c in w.coeffs.items():
        # zero levels up, the ancestor of y - d is y - d itself
        o = v.coeffs.get(_ancestor(y - d, steps, q, v.system) if steps else y - d)
        if o is not None:
            total = total + o * c
    if steps and not total.is_zero():
        total = total * _inv_sqrt_power(v.system.p, steps)
    return total


def inner(v: LatticeVector, w: LatticeVector) -> Scalar:
    """<v | w>, symmetric and bilinear over real coefficients, computed at
    the two own resolutions."""
    if v.system != w.system:
        raise SystemMismatchError("vectors over different systems")
    return _overlap(v, w, 0)


def apply_shift(v: LatticeVector, k: int) -> LatticeVector:
    """T^k v; at resolution n >= 0 the translate indices shift by k N^n."""
    return apply_filter(v, monomial(k)) if k else v


def dilate_power(v: LatticeVector, j: int) -> LatticeVector:
    """U^-j v: the same polynomial, read j levels finer."""
    return LatticeVector(v.system, v.resolution + j, v.poly)


def apply_filter(v: LatticeVector, m: LaurentPolynomial) -> LatticeVector:
    """m(T) v = sum_j a_j T^j v: T^j is z^(j N^n) at resolution n >= 0."""
    base = refine_to(v, max(v.resolution, 0))
    return LatticeVector(
        v.system,
        base.resolution,
        m.compose_power(v.system.scale ** base.resolution) * base.poly,
    )


def cascade_step(v: LatticeVector, m: LaurentPolynomial) -> LatticeVector:
    """One cascade iteration U^-1 m(T) v."""
    return dilate_power(apply_filter(v, m), 1)


def correlation(v: LatticeVector, w: LatticeVector) -> LaurentPolynomial:
    """p(v, w)(z) = sum_k z^k <T^k v | w>, finitely supported.

    A side below resolution 0 is refined to 0, where T^k is an index shift.
    For res(v) <= res(w) the coarse side is bucketed by residue modulo
    N^res(v), and each fine index of w names its lag k through its ancestor;
    the other order is p(v, w)[k] = p(w, v)[-k]."""
    if v.system != w.system:
        raise SystemMismatchError("vectors over different systems")
    if v.resolution > w.resolution:
        return correlation(w, v).compose_power(-1)
    sys = v.system
    v, w = refine_to(v, max(v.resolution, 0)), refine_to(w, max(w.resolution, 0))
    steps = w.resolution - v.resolution
    step = sys.scale ** v.resolution
    q = sys.scale ** steps
    buckets: dict[int, list[tuple[int, Scalar]]] = {}
    for x, c in v.coeffs.items():
        buckets.setdefault(x % step, []).append((x, c))
    out: dict[int, Scalar] = {}
    for y, c in w.coeffs.items():
        a = _ancestor(y, steps, q, sys)
        for x, cc in buckets.get(a % step, ()) if a is not None else ():
            k = (a - x) // step
            out[k] = out.get(k, ZERO) + cc * c
    factor = _inv_sqrt_power(sys.p, steps)
    return LaurentPolynomial({k: c * factor for k, c in out.items()})


def wavelet_generators(sys: DigitSystem) -> list[LatticeVector]:
    """The N-1 wavelet generators U^-1 m_i(T) phi from the canonical bank:
    each is the filter m_i itself, read at resolution 1."""
    return [LatticeVector(sys, 1, m) for m in build_bank(sys).filters[1:]]


class GramSection:
    """Finite Gram matrix of dilated translates of a family of generators.

    Only the nonzero entries are stored, keyed (row, column) in row-major
    order."""

    def __init__(
        self,
        labels: tuple[tuple[int, int, int], ...],  # (generator index, scale j, translate k)
        entries: dict[tuple[int, int], Scalar],
    ):
        self.labels = labels
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.labels)

    def max_identity_deviation(self) -> float:
        dev, diagonal = 0.0, 0
        for (r, c), v in self.entries.items():
            if r == c:
                diagonal += 1
                if v.p == v.den == 1 and not v.q:  # a diagonal 1 deviates by nothing
                    continue
                v = v - ONE
            if v.p or v.q:
                dev = max(dev, abs(float(v)))
        # a diagonal entry that is not stored is 0, one away from the identity
        return dev if diagonal == self.size else max(dev, 1.0)

    def is_identity(self) -> bool:
        return len(self.entries) == self.size and all(
            r == c and v.p == v.den == 1 and not v.q
            for (r, c), v in self.entries.items()
        )


def check_section_size(n: int) -> None:
    """Refuse a Gram section of n vectors past GRAM_SECTION_CAP."""
    if n > GRAM_SECTION_CAP:
        raise CapExceededError(f"section of {n} vectors exceeds cap {GRAM_SECTION_CAP}")


def gram_section(
    sys: DigitSystem,
    generators,
    j_range,
    k_range,
) -> GramSection:
    """Exact Gram of {U^-j T^k psi_i} over the requested index ranges.

    U^-j is unitary, so <U^-j T^k psi_i, U^-j' T^k' psi_i'> =
    <T^k g, U^-D T^k' g'> with D = j' - j and g, g' the generators (refined
    to resolution 0 if below it, where T^k is an index shift): the entry
    depends only on (i, i', D) and the lag, and one value serves every pair
    of scales (j, j + D) in the section.  Every coefficient is real, so the
    Gram is symmetric: only D >= 0 is computed, and at D = 0 only i <= i',
    each value stored at its entry and the transpose.

    The work follows the entries that can be nonzero.  At resolution top + D,
    top the finest generator's, refining D levels spreads an index x over
    N^D x + [min S, max S] (N^D - 1)/(N - 1); T^k shifts g by k N^(top + D)
    and T^k' shifts U^-D g' by k' N^top.  For each D:
    - pair join: the g' spans, widened by the translate range, are sorted by
      start once; each widened g span visits only the g' spans that start
      inside it or at most the widest span before it;
    - k windows: a pair meets where m = k N^D - k' lies in an interval, so
      bisects give the k whose window of k' is nonempty, and each window;
    - lag table: one `_overlap` per distinct m, at the lag m N^(t - D) of the
      pair's finer resolution t, serves every (k, k') and j with that m.
    The ranges are sized and re-iterable (a range or a list), so a section
    past GRAM_SECTION_CAP is refused before any label is built."""
    generators = list(generators)
    n = len(generators) * len(j_range) * len(k_range)
    check_section_size(n)
    labels = tuple(
        (i, j, k)
        for i in range(len(generators))
        for j in j_range
        for k in k_range
    )
    if not n:
        return GramSection(labels, {})
    rows: dict[tuple[int, int, int], list[int]] = {}
    for r, label in enumerate(labels):
        rows.setdefault(label, []).append(r)
    js, ks = sorted(set(j_range)), sorted(set(k_range))
    span = js[-1] - js[0]
    if len(js) == span + 1:  # consecutive scales have every difference
        deltas = range(span + 1)
    else:
        deltas = sorted({b - a for a in js for b in js if b >= a})
    gens = [refine_to(psi, max(psi.resolution, 0)) for psi in generators]
    N, top = sys.scale, max(g.resolution for g in gens)
    power = cache(N.__pow__)  # N^e, built once per exponent in the section

    def bounds(g, steps):  # the first and last index of g refined `steps` levels
        q = power(steps)
        spread = (q - 1) // (N - 1)
        return q * min(g.coeffs) + sys.digits[0] * spread, q * max(g.coeffs) + sys.digits[-1] * spread

    live = [(i, g) for i, g in enumerate(gens) if g.coeffs]
    B = power(top)
    cols = sorted(
        (lo + ks[0] * B, hi + ks[-1] * B, lo, hi, i2)
        for i2, g2 in live for lo, hi in [bounds(g2, top - g2.resolution)]
    )
    starts = [col[0] for col in cols]
    widest = max((col[1] - col[0] for col in cols), default=0)
    entries: dict[tuple[int, int], Scalar] = {}
    for delta in deltas:
        ND, A = power(delta), power(top + delta)
        for i, g in live:
            lv, hv = bounds(g, top + delta - g.resolution)
            low = lv + ks[0] * A
            for _, stop, lw, hw, i2 in cols[
                bisect_left(starts, low - widest):bisect_right(starts, hv + ks[-1] * A)
            ]:
                if stop < low or i2 < i and not delta:
                    continue
                # the spans meet where m = k N^D - k' is in [m_lo, m_hi]
                m_lo, m_hi = -((hv - lw) // B), (hw - lv) // B
                w = dilate_power(gens[i2], delta)
                b = power(max(g.resolution, w.resolution) - delta)
                values: dict[int, Scalar] = {}  # by m
                for k in ks[bisect_left(ks, -((-ks[0] - m_lo) // ND)):bisect_right(ks, (ks[-1] + m_hi) // ND)]:
                    for k2 in ks[bisect_left(ks, k * ND - m_hi):bisect_right(ks, k * ND - m_lo)]:
                        m = k * ND - k2
                        value = values.get(m)
                        if value is None:
                            value = values[m] = _overlap(g, w, m * b)
                        for j in js if not value.is_zero() else ():
                            for r in rows[i, j, k]:
                                for c in rows.get((i2, j + delta, k2), ()):
                                    entries[r, c] = entries[c, r] = value
    return GramSection(labels, dict(sorted(entries.items())))


class CascadeRow(NamedTuple):
    """One step of a cascade experiment, with the transfer-side cross-check."""

    n: int
    diff_norm_sq: Scalar
    inner: Scalar
    transfer_inner: Scalar


def cascade_experiment(
    sys: DigitSystem, m: LaurentPolynomial, steps: int
) -> list[CascadeRow]:
    """Track ||M^n phi - M^(n+1) phi||^2 and <M^n phi, M^(n+1) phi>.

    The inner products are cross-checked against the transfer route: the
    correlation of phi with M phi is the pairing of the canonical low-pass
    with m, and its n-fold image under the transfer operator with weight
    |m|^2 = m(z^-1) m(z) integrates (coefficient at 0) to the same inner
    product.  That step applied to f is the pairing <m, m f>_N, taken only
    before a row that reads it.  Over real coefficients
    ||a - b||^2 = ||a||^2 + ||b||^2 - 2<a, b>, so no difference vector is
    formed and each norm is carried to the next row.  The vector after n
    steps has up to (#terms of m)^n terms, capped at CASCADE_TERM_CAP, and so
    is the set-up bound p * #terms + #terms^2."""
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if steps > CASCADE_STEP_CAP:
        raise CapExceededError(f"steps capped at {CASCADE_STEP_CAP}")
    t = len(m.coeffs)
    if t ** steps > CASCADE_TERM_CAP:
        raise CapExceededError(f"{t}^{steps} cascade terms exceed cap {CASCADE_TERM_CAP}")
    if sys.p * t + t * t > CASCADE_TERM_CAP:
        raise CapExceededError(
            f"{sys.p}*{t} + {t}^2 term products exceed cap {CASCADE_TERM_CAP}"
        )
    rows = []
    current, norm_sq = scaling_vector(sys), ONE
    transfer_image = pairing(canonical_lowpass(sys), m, sys.scale)
    for n in range(steps):
        if n:
            transfer_image = pairing(m, m * transfer_image, sys.scale)
        nxt = cascade_step(current, m)
        ip = inner(current, nxt)
        nxt_norm_sq = nxt.norm_sq()
        diff_norm_sq = norm_sq + nxt_norm_sq - ip - ip
        rows.append(CascadeRow(n, diff_norm_sq, ip, transfer_image[0]))
        current, norm_sq = nxt, nxt_norm_sq
    return rows


def representation_limit(op: TransferOperator, n: int, exponent: int) -> Scalar:
    """<U^n phi | T^exponent U^n phi> computed exactly, for the filter m0 of
    the transfer operator `op` (weight |m0|^2, scale N).

    U^n phi = P_n(T) phi with P_n(z) = m0(z) m0(z^N) ... m0(z^(N^(n-1))), so
    the value is the coefficient at -exponent of |P_n|^2 = W(z) W(z^N) ...
    W(z^(N^(n-1))), the n-fold product weight of the transfer operator; as n
    grows it converges to the invariant-measure moment at `exponent`.  The
    recursion is memoized on `op`, so repeated calls share their work."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > CASCADE_STEP_CAP:
        raise CapExceededError(f"n capped at {CASCADE_STEP_CAP}")
    if n == 0:
        return ONE if exponent == 0 else ZERO
    return op._iterate_coefficient(n, -exponent)

"""Exact model of the separable Hilbert space carried by the inflated fractal.

A vector is a finite combination of the orthonormal family U^-n T^k phi,
where phi is the indicator of the attractor, T is integer translation and U
the normalized dilation with U T U^-1 = T^N.  Resolution is a label: no
function on the real line is ever evaluated, and all geometry enters through
the index arithmetic

    T^j (U^-n T^k phi) = U^-n T^(k + j N^n) phi,
    U^-n T^k phi = p^(-1/2) sum_a U^-(n+1) T^(Nk + a) phi.

Coefficients live in Q(sqrt(p)) for the canonical filters, so inner products,
cascade iterations, correlation polynomials and Gram sections are exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CapExceededError,
    CoarseningError,
    PreconditionError,
    SystemMismatchError,
)
from .filterbank import build_bank, canonical_lowpass, pairing
from .ifs import CylinderAddress, DigitSystem, cylinder_translate_index
from .laurent import LaurentPolynomial
from .scalars import ONE, Scalar, ZERO
from .transfer import TransferOperator

CASCADE_STEP_CAP = 12
GRAM_SECTION_CAP = 10 ** 4
# terms in one generator refined to the section's top resolution
GRAM_PATTERN_CAP = 2 ** 16


class LatticeVector:
    """sum_k c_k U^-n T^k phi at a fixed resolution n, sparse over k."""

    __slots__ = ("system", "resolution", "coeffs")

    def __init__(self, system: DigitSystem, resolution: int, coeffs=None):
        self.system = system
        self.resolution = int(resolution)
        data = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Scalar.coerce(v)
                if not v.is_zero():
                    data[int(k)] = v
        self.coeffs = data

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.coeffs.values())

    def norm_sq(self) -> Scalar:
        """Exact squared norm: the basis at one resolution is orthonormal."""
        total = ZERO
        for c in self.coeffs.values():
            total = total + c.abs_sq()
        return total

    def scaled(self, s) -> "LatticeVector":
        s = Scalar.coerce(s)
        return LatticeVector(
            self.system,
            self.resolution,
            {k: v * s for k, v in self.coeffs.items()},
        )

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if other.system != self.system:
            raise SystemMismatchError("vectors over different systems")
        m = max(self.resolution, other.resolution)
        a, b = refine_to(self, m), refine_to(other, m)
        data = dict(a.coeffs)
        for k, v in b.coeffs.items():
            s = data.get(k, ZERO) + v
            if s.is_zero():
                data.pop(k, None)
            else:
                data[k] = s
        out = LatticeVector(self.system, m)
        out.coeffs = data
        return out

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + other.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        if self.system != other.system:
            return False
        m = max(self.resolution, other.resolution)
        return refine_to(self, m).coeffs == refine_to(other, m).coeffs

    def __hash__(self):
        # equality refines to a common resolution, so hash only through
        # refinement-invariant data
        return hash((self.system, self.norm_sq()))

    def __repr__(self):
        terms = ", ".join(
            f"{k}: {v.exact_str() or v.to_complex()}"
            for k, v in sorted(self.coeffs.items())
        )
        return f"LatticeVector(res={self.resolution}, {{{terms}}})"

    def to_json_dict(self) -> dict:
        entries = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            s = v.exact_str()
            if s is None:
                z = v.to_complex()
                entries.append([k, [z.real, z.imag]])
            else:
                entries.append([k, s])
        return {
            "system": {"scale": self.system.scale, "digits": list(self.system.digits)},
            "resolution": self.resolution,
            "entries": entries,
        }


def basis_delta(sys: DigitSystem, n: int, k: int) -> LatticeVector:
    """The unit vector U^-n T^k phi."""
    return LatticeVector(sys, n, {k: 1})


def scaling_vector(sys: DigitSystem) -> LatticeVector:
    """phi itself: the indicator of the attractor, at resolution 0."""
    return basis_delta(sys, 0, 0)


def cylinder_vector(addr: CylinderAddress) -> LatticeVector:
    """The indicator of a depth-n cylinder: p^(-n/2) U^-n T^l phi."""
    n, l = cylinder_translate_index(addr)
    c = Scalar.inv_sqrt(addr.system.p ** n)
    return LatticeVector(addr.system, n, {l: c})


def refine_to(v: LatticeVector, m: int) -> LatticeVector:
    """Re-express v at resolution m >= resolution(v); exact and isometric."""
    if m < v.resolution:
        raise CoarseningError(
            f"cannot coarsen resolution {v.resolution} to {m}; "
            "projection onto coarser scales is not supported"
        )
    sys = v.system
    root = Scalar.inv_sqrt(sys.p)
    coeffs = v.coeffs
    for _ in range(m - v.resolution):
        nxt: dict[int, Scalar] = {}
        for k, c in coeffs.items():
            base = sys.scale * k
            cc = c * root
            for a in sys.digits:
                idx = base + a
                s = nxt.get(idx)
                nxt[idx] = cc if s is None else s + cc
        coeffs = nxt
    out = LatticeVector(sys, m)
    out.coeffs = dict(coeffs)
    return out


def inner(v: LatticeVector, w: LatticeVector) -> Scalar:
    """<v | w>, conjugate-linear in v, computed at the common resolution."""
    if v.system != w.system:
        raise SystemMismatchError("vectors over different systems")
    m = max(v.resolution, w.resolution)
    return _lag_inner(refine_to(v, m).coeffs, refine_to(w, m).coeffs, 0)


def apply_shift(v: LatticeVector, k: int) -> LatticeVector:
    """T^k v; at resolution n >= 0 the translate indices shift by k N^n."""
    if k == 0:
        return v
    base = refine_to(v, max(v.resolution, 0))
    step = k * v.system.scale ** base.resolution
    out = LatticeVector(v.system, base.resolution)
    out.coeffs = {idx + step: c for idx, c in base.coeffs.items()}
    return out


def apply_dilation(v: LatticeVector, direction: int) -> LatticeVector:
    """U v (direction +1) or U^-1 v (direction -1): pure index bookkeeping."""
    if direction not in (+1, -1):
        raise PreconditionError("direction must be +1 (U) or -1 (U inverse)")
    out = LatticeVector(v.system, v.resolution - direction)
    out.coeffs = dict(v.coeffs)
    return out


def dilate_power(v: LatticeVector, j: int) -> LatticeVector:
    """U^-j v."""
    out = LatticeVector(v.system, v.resolution + j)
    out.coeffs = dict(v.coeffs)
    return out


def apply_filter(v: LatticeVector, m: LaurentPolynomial) -> LatticeVector:
    """m(T) v = sum_j a_j T^j v."""
    base = refine_to(v, max(v.resolution, 0))
    scale = v.system.scale ** base.resolution
    data: dict[int, Scalar] = {}
    for j, a in m.coeffs.items():
        step = j * scale
        for idx, c in base.coeffs.items():
            key = idx + step
            s = data.get(key)
            t = a * c
            data[key] = t if s is None else s + t
    out = LatticeVector(v.system, base.resolution)
    out.coeffs = {k: c for k, c in data.items() if not c.is_zero()}
    return out


def cascade_step(v: LatticeVector, m: LaurentPolynomial) -> LatticeVector:
    """One cascade iteration U^-1 m(T) v."""
    return apply_dilation(apply_filter(v, m), -1)


def correlation(v: LatticeVector, w: LatticeVector) -> LaurentPolynomial:
    """p(v, w)(z) = sum_k z^k <T^k v | w>, finitely supported."""
    if v.system != w.system:
        raise SystemMismatchError("vectors over different systems")
    m = max(v.resolution, w.resolution, 0)
    a, b = refine_to(v, m), refine_to(w, m)
    step = v.system.scale ** m
    buckets: dict[int, list[tuple[int, Scalar]]] = {}
    for idx, c in b.coeffs.items():
        buckets.setdefault(idx % step, []).append((idx, c))
    out: dict[int, Scalar] = {}
    for idx, c in a.coeffs.items():
        cc = c.conjugate()
        for idx2, c2 in buckets.get(idx % step, ()):
            k = (idx2 - idx) // step
            s = out.get(k)
            t = cc * c2
            out[k] = t if s is None else s + t
    return LaurentPolynomial(out)


def wavelet_generators(sys: DigitSystem) -> list[LatticeVector]:
    """The N-1 wavelet generators U^-1 m_i(T) phi from the canonical bank."""
    phi = scaling_vector(sys)
    bank = build_bank(sys)
    return [cascade_step(phi, m) for m in bank.filters[1:]]


@dataclass
class GramSection:
    """Finite Gram matrix of dilated translates of a family of generators.

    Only the nonzero entries are stored, keyed (row, column) in row-major
    order; `matrix` is the dense view, built on first use."""

    labels: tuple[tuple[int, int, int], ...]  # (generator index, scale j, translate k)
    entries: dict[tuple[int, int], Scalar]

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        rows = [[ZERO] * self.size for _ in range(self.size)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return tuple(tuple(row) for row in rows)

    def max_identity_deviation(self) -> float:
        diagonal = sum(1 for r, c in self.entries if r == c)
        # a diagonal entry that is not stored is 0, one away from the identity
        dev = 0.0 if diagonal == self.size else 1.0
        for (r, c), v in self.entries.items():
            d = v - ONE if r == c else v
            if not d.is_zero():
                dev = max(dev, abs(d.to_complex()))
        return dev

    def is_identity(self) -> bool:
        return len(self.entries) == self.size and all(
            r == c and v == ONE for (r, c), v in self.entries.items()
        )


def _lag_inner(a: dict, b: dict, d: int) -> Scalar:
    """<A | B> for A = a and B = b translated by -d (so B[x] = b[x + d]).

    Sums over the smaller pattern in its own order, conjugating the A side;
    `inner` is this sum at lag 0."""
    total = ZERO
    if len(a) <= len(b):
        for x, c in a.items():
            o = b.get(x + d)
            if o is not None:
                total = total + c.conjugate() * o
    else:
        for y, c in b.items():
            o = a.get(y - d)
            if o is not None:
                total = total + o.conjugate() * c
    return total


def gram_section(
    sys: DigitSystem,
    generators,
    j_range,
    k_range,
) -> GramSection:
    """Exact Gram of {U^-j T^k psi_i} over the requested index ranges.

    Translation covariance, T^k U^-j = U^-j T^(k N^j), makes the vector
    U^-j T^k psi_i refined to the top resolution t the refinement of
    U^-j psi_i translated by k N^(t-j).  So each (generator, scale) pattern
    is refined once, and each entry is one lag of the correlation of two
    patterns, computed once per lag.  Only the label pairs whose lag falls
    inside the two patterns' support window are visited."""
    generators = list(generators)
    j_range = list(j_range)
    k_range = list(k_range)
    n = len(generators) * len(j_range) * len(k_range)
    if n > GRAM_SECTION_CAP:
        raise CapExceededError(
            f"section of {n} vectors exceeds cap {GRAM_SECTION_CAP}"
        )
    labels = tuple(
        (i, j, k)
        for i in range(len(generators))
        for j in j_range
        for k in k_range
    )
    if not n:
        return GramSection(labels, {})
    # apply_shift refines a vector below resolution 0 up to 0 unless k = 0
    top = max(
        psi.resolution + j if k == 0 else max(psi.resolution, 0) + j
        for psi in generators
        for j in j_range
        for k in set(k_range)
    )
    top = max(top, 0)
    steps = max(top - psi.resolution - j for psi in generators for j in j_range)
    largest = max(len(psi.coeffs) * psi.system.p ** steps for psi in generators)
    if largest > GRAM_PATTERN_CAP:
        raise CapExceededError(
            f"section refines generators by {steps} levels; "
            f"patterns would exceed cap {GRAM_PATTERN_CAP} terms"
        )
    # U^-j psi refined to `top`, each coarser scale one more refinement of
    # the next finer one
    patterns = {}
    for i, psi in enumerate(generators):
        v, at = psi, 0
        for j in sorted(set(j_range), reverse=True):
            v = refine_to(dilate_power(v, j - at), top)
            at = j
            patterns[i, j] = v.coeffs
    # one group of labels per (generator, scale): its pattern, support bounds,
    # and its members' translates (sorted) with their label indices
    groups = []
    row = 0
    for i, psi in enumerate(generators):
        for j in j_range:
            pattern = patterns[i, j]
            members = sorted(
                (k * psi.system.scale ** (top - j) if k else 0, row + m)
                for m, k in enumerate(k_range)
            )
            row += len(k_range)
            if pattern:
                groups.append((
                    pattern, min(pattern), max(pattern),
                    [s for s, _ in members], [r for _, r in members],
                ))
    entries: dict[tuple[int, int], Scalar] = {}
    for pa, lo_a, hi_a, shifts_a, rows_a in groups:
        for pb, lo_b, hi_b, shifts_b, cols_b in groups:
            memo: dict[int, Scalar | None] = {}
            for sa, r in zip(shifts_a, rows_a):
                # the translates overlap only at lags sa - sb in
                # [lo_b - hi_a, hi_b - lo_a]
                start = bisect_left(shifts_b, sa - hi_b + lo_a)
                stop = bisect_right(shifts_b, sa - lo_b + hi_a)
                for m in range(start, stop):
                    d = sa - shifts_b[m]
                    if d in memo:
                        value = memo[d]
                    else:
                        value = _lag_inner(pa, pb, d)
                        value = memo[d] = None if value.is_zero() else value
                    if value is not None:
                        entries[r, cols_b[m]] = value
    return GramSection(labels, dict(sorted(entries.items())))


@dataclass(frozen=True)
class CascadeRow:
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
    with m, and its n-fold transfer image integrates (coefficient at 0) to
    the same inner product."""
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if steps > CASCADE_STEP_CAP:
        raise CapExceededError(f"steps capped at {CASCADE_STEP_CAP}")
    phi = scaling_vector(sys)
    a00 = pairing(canonical_lowpass(sys), m, sys.scale)
    op = TransferOperator.from_filter(m, sys.scale)
    rows = []
    current = phi
    transfer_image = a00
    for n in range(steps):
        nxt = cascade_step(current, m)
        ip = inner(current, nxt)
        diff = current - nxt
        rows.append(CascadeRow(n, diff.norm_sq(), ip, transfer_image[0]))
        current = nxt
        transfer_image = op.apply(transfer_image)
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

"""Invariant measures of the transfer operator.

The Perron-Frobenius measure nu of a normalized weight is known through its
Fourier coefficients nu^(n) = lim_k W^(k)-coefficient; no density object ever
exists (for the Cantor filters nu is singular).  The module computes moment
tables as the exact solution of the invariance equation R*nu = nu, detects
cycles of theta -> N theta on which the weight peaks, classifies the support
(full vs atomic-on-cycles), evaluates Wiener averages, Riesz-product partial
samples, and compares two filters through their invariant
measures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CapExceededError,
    CyclesFoundError,
    NotNormalizedError,
    PreconditionError,
)
from .laurent import _prime_factors, vanishes_at_primitive_roots
from .scalars import ONE, Scalar, ZERO, _exact
from .transfer import TransferOperator, spectral_block

STABILIZED = "stabilized"

DEFAULT_CYCLE_LENGTH = 12
CYCLE_POINT_CAP = 10 ** 9
CLASSIFY_MOMENT_RANGE = 16
RIESZ_DEPTH_CAP = 31  # past it, doubles space the phases 2 * 3^k t over a radian apart
RIESZ_GRID_CAP = 10 ** 5


# a row of a table built without a Python-level call: _row(cls, (field, ...))
_row = tuple.__new__


class MomentEntry(NamedTuple):
    """One Fourier coefficient of the invariant measure.

    Every value is the exact limit, so the status is always "stabilized";
    `iterations` is the step at which the product-weight iterate provably
    reaches it, or 0 where no finite step does."""

    n: int
    value: Scalar
    iterations: int
    status = STABILIZED  # unannotated: a class attribute, not a field


class MomentTable:
    """Moments nu^(n) for |n| <= range, symmetric under conjugation."""

    __slots__ = ("scale", "entries")

    def __init__(self, scale: int, entries: dict[int, MomentEntry] | None = None):
        self.scale = scale
        self.entries = {} if entries is None else entries

    def covers(self, K: int) -> bool:
        return all(n in self.entries for n in range(-K, K + 1))

    def value(self, n: int) -> Scalar:
        entry = self.entries.get(n)
        if entry is None:
            raise PreconditionError(f"moment {n} not in table")
        return entry.value

    def rows(self) -> list[MomentEntry]:
        return [self.entries[n] for n in sorted(self.entries)]


def _stabilization_thresholds(op: TransferOperator, R: int) -> list[int | None]:
    """For n = 0..R, the smallest k at which the iterate coefficient at -n
    provably equals its limit, or None when no such finite proof exists.

    Step k adds sum_{j!=0} W^(j) * coeff_k(idx - j N^k); every term vanishes
    once j_min N^k - |idx| exceeds the support bound `op.support_bound(k)`,
    and for j_min > c = deg W/(N - 1) that condition persists for all later k.
    The margin j_min N^k - `op.support_bound(k)` then grows with k, so the
    threshold never decreases as |idx| grows and one pass finds every row's.
    """
    W = op.weight
    if W[0] != ONE:
        return [None] * (R + 1)
    nonzero = [abs(k) for k in W.coeffs if k]
    if not nonzero:
        return [1] * (R + 1)
    j_min = min(nonzero)
    N = op.scale
    c = Fraction(W.degree(), N - 1)
    if j_min < c:
        return [None] * (R + 1)
    if j_min == c:
        return [1 if n < c else None for n in range(R + 1)]
    thresholds = []
    k, margin = 1, j_min * N - op.support_bound(1)
    for n in range(R + 1):
        while margin <= n:
            k += 1
            margin = j_min * N ** k - op.support_bound(k)
        thresholds.append(k)
    return thresholds


def moment_table(op: TransferOperator, moment_range: int) -> MomentTable:
    """Moments for |n| <= moment_range: the exact solution of the invariance
    equation nu^(b) = sum_m W^(Nm - b) nu^(m) with nu^(0) = 1.

    On the block [-D, D] that is the operator's one fixed vector, unique
    when eigenvalue 1 is simple; for |b| > D every m on the right has
    |m| < |b|, so the equation itself is a well-founded recursion.  An entry
    with a finite threshold t (`_stabilization_thresholds`) reports iterations
    max(t + 1, 2), the step at which the product-weight iterate reaches it.
    """
    if moment_range < 0:
        raise PreconditionError("moment range must be >= 0")
    basis = op.fixed_vectors
    D = op.block_halfwidth
    if len(basis) != 1:
        raise PreconditionError(
            f"eigenvalue 1 of the transfer block is not simple: the invariance "
            f"equation has {len(basis)} independent solutions on [-{D}, {D}]"
        )
    center = basis[0][D]
    if center.is_zero():
        raise PreconditionError("the block's fixed vector has nu^(0) = 0")
    nu = {b - D: x / center for b, x in enumerate(basis[0])}
    N = op.scale
    for b in range(D + 1, moment_range + 1):
        total = ZERO
        for k, w in op.by_residue[-b % N]:  # exactly the k with N | b + k
            m = nu[(b + k) // N]
            if not m.is_zero():
                total = total + w * m
        nu[b], nu[-b] = total, total.conjugate()
    table = MomentTable(scale=N)
    for n, t in enumerate(_stabilization_thresholds(op, moment_range)):
        iterations = 0 if t is None else max(t + 1, 2)
        table.entries[n] = _row(MomentEntry, (n, nu[n], iterations))
        table.entries[-n] = _row(MomentEntry, (-n, nu[-n], iterations))
    return table


def moment(op: TransferOperator, n: int) -> MomentEntry:
    """nu^(n), the exact solution of the invariance equation (`moment_table`)."""
    return moment_table(op, abs(n)).entries[n]


class Cycle(NamedTuple):
    """A finite orbit of theta -> N theta mod 1; angles are exact fractions
    of a turn, values are |m0|^2 at the points (N at every point of a
    `find_cycles` orbit)."""

    angles: tuple[Fraction, ...]
    values: tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.angles)


class CycleReport(NamedTuple):
    searched_length: int
    scale: int
    cycles: tuple[Cycle, ...]

    @property
    def verdict(self) -> str:
        return "CyclesFound" if self.cycles else "NoCycles"


def _orbit_from(j: int, modulus: int, N: int) -> list[int]:
    orbit = [j]
    cur = (j * N) % modulus
    while cur != j:
        orbit.append(cur)
        cur = (cur * N) % modulus
    return orbit


def _divisors_with_small_totient(n: int, bound: int) -> list[int]:
    """Divisors M of n with phi(M) <= bound.

    A prime q dividing M adds the factor q - 1 to phi(M), so only the primes
    up to bound + 1 are divided out of n."""
    divisors = [(1, 1)]
    for q, e in _prime_factors(n, bound + 1):
        divisors += [
            (m * q ** i, phi * (q - 1) * q ** (i - 1))
            for m, phi in divisors
            for i in range(1, e + 1)
        ]
    return [m for m, phi in divisors if phi <= bound]


def feasible_cycle_length(N: int, requested: int) -> int:
    """Longest length L <= `requested` with N^L - 1 within CYCLE_POINT_CAP,
    the bound `find_cycles` enforces (at least 1)."""
    if requested < 1:
        raise PreconditionError("cycle length must be >= 1")
    L = 1
    while L < requested and N ** (L + 1) - 1 <= CYCLE_POINT_CAP:
        L += 1
    return L


def find_cycles(op: TransferOperator, L: int = DEFAULT_CYCLE_LENGTH) -> CycleReport:
    """All orbits of theta -> N theta of length <= L on which the operator's
    weight W = |m0|^2 equals N.

    W must have rational coefficients.  A point j/M in lowest terms is a root
    of P = z^D (W - N), D = deg W, exactly when the cyclotomic polynomial
    Phi_M divides P; then every primitive M-th root is a root, so one exact
    division decides every orbit with denominator M, and it can only succeed
    when phi(M) <= 2D.  Period-l points have M dividing N^l - 1, and the
    orbits of denominator M are as long as the first l at which M divides
    N^l - 1.
    """
    N, weight = op.scale, op.weight
    if L < 1:
        raise PreconditionError("cycle length must be >= 1")
    if N ** L - 1 > CYCLE_POINT_CAP:
        raise CapExceededError(f"N^L - 1 exceeds cap {CYCLE_POINT_CAP}")
    if not all(c.is_rational for c in weight.coeffs.values()):
        raise PreconditionError("cycle search needs a weight with rational coefficients")
    D = weight.degree()
    den = math.lcm(*(c.den for c in weight.coeffs.values()))
    P = {k + D: c.p * (den // c.den) for k, c in weight.coeffs.items()}
    P[D] = P.get(D, 0) - N * den  # den * z^D (W - N), in integers
    if not any(P.values()):
        raise PreconditionError("weight is identically N; every orbit qualifies")
    visited: set[int] = set()
    cycles: list[Cycle] = []
    for ell in range(1, L + 1):
        for M in _divisors_with_small_totient(N ** ell - 1, 2 * D):
            if M in visited:
                continue
            visited.add(M)
            if not vanishes_at_primitive_roots(P, M):
                continue
            todo = {j for j in range(M) if math.gcd(j, M) == 1}
            while todo:
                orbit = _orbit_from(min(todo), M, N)
                todo.difference_update(orbit)
                # the division proved W = N exactly at every point
                cycles.append(
                    Cycle(tuple(Fraction(q, M) for q in orbit), (float(N),) * len(orbit))
                )
    cycles.sort(key=lambda c: c.angles)
    return CycleReport(searched_length=L, scale=N, cycles=tuple(cycles))


class AtomicMeasure(NamedTuple):
    """An extreme invariant measure supported on one cycle, uniform weights."""

    cycle: Cycle
    weights: tuple[Fraction, ...]


class SupportClassification(NamedTuple):
    """Either full support (with its moment table) or atomic on cycles."""

    kind: str  # "full_support" | "atomic_on_cycles"
    moments: MomentTable | None
    cycle_report: CycleReport
    atoms: tuple[AtomicMeasure, ...]
    diagnostics: dict


def classify_support(
    op: TransferOperator, L: int = DEFAULT_CYCLE_LENGTH
) -> SupportClassification:
    """Support dichotomy for the invariant measures of a normalized operator.

    No qualifying cycles: the invariant measure is unique (when 1 is a simple
    peripheral eigenvalue) with support the whole torus; its moment table up
    to CLASSIFY_MOMENT_RANGE is attached.  Cycles present: one extreme
    invariant measure per orbit, uniform on the orbit (the normalization
    forces weight N on cycle points and 0 on their sibling preimages).
    """
    if not op.fixes_constant:
        raise NotNormalizedError(
            "filter is not transfer-normalized: R(1) deviates by "
            f"{op.normalization_defect():.3e}"
        )
    report = find_cycles(op, L)
    block = spectral_block(op)
    diagnostics = {
        "eigenvalue_one_multiplicity": block.eigenvalue_one_multiplicity,
        "has_other_peripheral": block.has_other_peripheral,
        "eigenvalue_one_simple_exact": block.eigenvalue_one_simple_exact,
    }
    if not report.cycles:
        diagnostics["unique_invariant_measure"] = (
            block.eigenvalue_one_multiplicity == 1 and not block.has_other_peripheral
        )
        diagnostics["note"] = (
            "no cycles: invariant measure has full support; singular and "
            "non-atomic whenever the weight is non-constant"
        )
        table = moment_table(op, CLASSIFY_MOMENT_RANGE)
        return SupportClassification(
            kind="full_support",
            moments=table,
            cycle_report=report,
            atoms=(),
            diagnostics=diagnostics,
        )
    atoms = tuple(
        AtomicMeasure(cycle, (Fraction(1, cycle.length),) * cycle.length)
        for cycle in report.cycles
    )
    diagnostics["note"] = (
        "cycles found: every invariant measure is a convex mixture of the "
        "uniform orbit measures listed"
    )
    return SupportClassification(
        kind="atomic_on_cycles",
        moments=None,
        cycle_report=report,
        atoms=atoms,
        diagnostics=diagnostics,
    )


class WienerRow(NamedTuple):
    k: int
    partial_sum: Scalar
    ratio: Scalar | None


class WienerProfile(NamedTuple):
    rows: tuple[WienerRow, ...]


def wiener_profile(table: MomentTable, K: int) -> WienerProfile:
    """Partial sums s_k = sum_{j<=k} |nu^(j)|^2 and the Cesaro ratios s_k/k.

    A vanishing ratio limit certifies that the measure has no atoms."""
    if not table.covers(K):
        raise PreconditionError(f"moment table does not cover 0..{K}")
    rows = []
    s = ZERO
    for k in range(K + 1):
        v = table.value(k)
        if not v.is_zero():
            s = s + v.abs_sq()
        if not k:
            ratio = None
        elif s.is_rational:  # s/k with one gcd
            ratio = _exact(s.p, 0, 0, s.den * k)
        else:
            ratio = s * _exact(1, 0, 0, k)
        rows.append(_row(WienerRow, (k, s, ratio)))
    return WienerProfile(tuple(rows))


def riesz_samples(n: int, grid: int) -> list[tuple[float, float]]:
    """Samples of the degree-n Riesz partial product
    (1/2pi) prod_{k=1..n} (1 + cos(2*3^k t)) on a uniform grid of [0, 2pi).

    This is a pre-limit object: the weak-* limit is the singular invariant
    measure of the Cantor-3 filter and has no density."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if grid < 2:
        raise PreconditionError("grid must be >= 2")
    if n > RIESZ_DEPTH_CAP:
        raise CapExceededError(f"depth capped at {RIESZ_DEPTH_CAP}")
    if grid > RIESZ_GRID_CAP:
        raise CapExceededError(f"grid capped at {RIESZ_GRID_CAP}")
    import numpy as np
    t = 2.0 * math.pi * np.arange(grid) / grid
    vals = np.full(grid, 1.0 / (2.0 * math.pi))
    for k in range(1, n + 1):
        vals *= 1.0 + np.cos(2.0 * 3 ** k * t)
    return [(float(tt), float(v)) for tt, v in zip(t, vals)]


class FilterComparison(NamedTuple):
    verdict: str  # "SameMeasure" | "DifferentMeasure"
    max_difference: float
    same_modulus: bool | None
    representations_disjoint: bool


def compare_filters(
    op_a: TransferOperator,
    op_b: TransferOperator,
    R: int = 50,
    L: int = DEFAULT_CYCLE_LENGTH,
) -> FilterComparison:
    """Compare the invariant measures of two cycle-free normalized operators.

    Equal moment tables mean equal measures (SameMeasure also reports whether
    the weights |m0|^2 are equal as Laurent data, which equality of measures
    forces for cycle-free filters); distinct tables mean the associated
    wavelet representations are disjoint."""
    for name, op in (("first", op_a), ("second", op_b)):
        if not op.fixes_constant:
            raise NotNormalizedError(
                f"{name} filter not normalized ({op.normalization_defect():.3e})"
            )
        if find_cycles(op, L).cycles:
            raise CyclesFoundError(
                f"{name} filter has cycles up to length {L}; the invariant "
                "measure is not unique -- use classify_support"
            )
    table_a = moment_table(op_a, R)
    table_b = moment_table(op_b, R)
    diffs = [table_a.value(n) - table_b.value(n) for n in range(-R, R + 1)]
    if all(d.is_zero() for d in diffs):
        same_mod = op_a.weight == op_b.weight
        return FilterComparison("SameMeasure", 0.0, same_mod, False)
    max_diff = max(abs(d.to_complex()) for d in diffs)
    return FilterComparison("DifferentMeasure", max_diff, None, True)
